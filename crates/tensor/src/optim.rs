//! First-order optimizers over a [`ParamStore`].

use crate::matrix::Matrix;
use crate::params::ParamStore;

/// A gradient-descent style optimizer.
///
/// The usual step is: build a graph, `backward`, add its `take_param_grads` into the
/// store, `step`, then `zero_grads`.
pub trait Optimizer {
    /// Applies one update using the gradients accumulated in `store`.
    /// Frozen parameters are left untouched.
    fn step(&mut self, store: &mut ParamStore);

    /// Current learning rate.
    fn learning_rate(&self) -> f32;

    /// Overrides the learning rate (used by schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Stochastic gradient descent with optional momentum and L2 weight decay.
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<Option<Matrix>>,
}

impl Sgd {
    /// Plain SGD.
    pub fn new(lr: f32) -> Self {
        Self { lr, momentum: 0.0, weight_decay: 0.0, velocity: Vec::new() }
    }

    /// Adds classical momentum.
    pub fn with_momentum(mut self, momentum: f32) -> Self {
        self.momentum = momentum;
        self
    }

    /// Adds L2 weight decay (added to the gradient).
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, store: &mut ParamStore) {
        self.velocity.resize_with(store.len(), || None);
        let (lr, momentum, wd) = (self.lr, self.momentum, self.weight_decay);
        for id in store.ids().collect::<Vec<_>>() {
            if store.is_frozen(id) {
                continue;
            }
            // Fused single-pass update: no gradient clone, no velocity
            // clone, no temporaries — same arithmetic order as the
            // multi-pass version, so trajectories are bit-identical.
            let (value, grad) = store.value_and_grad_mut(id);
            let (rows, cols) = value.shape();
            let ws = value.as_mut_slice();
            let gs = grad.map(Matrix::as_slice);
            if momentum != 0.0 {
                let v =
                    self.velocity[id.0 as usize].get_or_insert_with(|| Matrix::zeros(rows, cols));
                for (i, (wi, vi)) in ws.iter_mut().zip(v.as_mut_slice()).enumerate() {
                    let g = gs.map_or(0.0, |g| g[i]);
                    let t = if wd != 0.0 { g + wd * *wi } else { g };
                    *vi = momentum * *vi + t;
                    *wi += -lr * *vi;
                }
            } else {
                for (i, wi) in ws.iter_mut().enumerate() {
                    let g = gs.map_or(0.0, |g| g[i]);
                    let t = if wd != 0.0 { g + wd * *wi } else { g };
                    *wi += -lr * t;
                }
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adam (Kingma & Ba) with optional decoupled weight decay (AdamW).
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    /// Decoupled weight decay, applied directly to weights (AdamW style).
    weight_decay: f32,
    t: u64,
    m: Vec<Option<Matrix>>,
    v: Vec<Option<Matrix>>,
}

impl Adam {
    /// Adam with standard betas (0.9, 0.999).
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// AdamW: decoupled weight decay.
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }
}

impl Optimizer for Adam {
    fn step(&mut self, store: &mut ParamStore) {
        self.m.resize_with(store.len(), || None);
        self.v.resize_with(store.len(), || None);
        self.t += 1;
        let bias1 = 1.0 - self.beta1.powi(self.t as i32);
        let bias2 = 1.0 - self.beta2.powi(self.t as i32);
        let (lr, beta1, beta2, eps, wd) =
            (self.lr, self.beta1, self.beta2, self.eps, self.weight_decay);
        for id in store.ids().collect::<Vec<_>>() {
            if store.is_frozen(id) {
                continue;
            }
            let idx = id.0 as usize;
            // Fused single-pass update: moments and weights advance in one
            // sweep with no gradient clone; per-element arithmetic is
            // unchanged, so trajectories are bit-identical.
            let (value, grad) = store.value_and_grad_mut(id);
            let (rows, cols) = value.shape();
            let ws = value.as_mut_slice();
            let gs = grad.map(Matrix::as_slice);
            let m = self.m[idx].get_or_insert_with(|| Matrix::zeros(rows, cols));
            let v = self.v[idx].get_or_insert_with(|| Matrix::zeros(rows, cols));
            for (i, (wi, (mi, vi))) in
                ws.iter_mut().zip(m.as_mut_slice().iter_mut().zip(v.as_mut_slice())).enumerate()
            {
                let gi = gs.map_or(0.0, |g| g[i]);
                *mi = beta1 * *mi + (1.0 - beta1) * gi;
                *vi = beta2 * *vi + (1.0 - beta2) * gi * gi;
                let m_hat = *mi / bias1;
                let v_hat = *vi / bias2;
                *wi -= lr * (m_hat / (v_hat.sqrt() + eps) + wd * *wi);
            }
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    /// Minimizes f(w) = (w - 3)^2 and checks convergence to 3.
    fn optimize_quadratic(mut opt: impl Optimizer, steps: usize) -> f32 {
        let mut ps = ParamStore::new();
        let w = ps.add("w", Matrix::scalar(0.0));
        for _ in 0..steps {
            let mut g = Graph::new();
            let wn = g.param(&ps, w);
            let c = g.constant(Matrix::scalar(3.0));
            let d = g.sub(wn, c);
            let loss = g.mul(d, d);
            g.backward(loss);
            for (pid, grad) in g.take_param_grads() {
                ps.grad_mut(pid).add_assign(&grad);
            }
            opt.step(&mut ps);
            ps.zero_grads();
        }
        ps.value(w).scalar_value()
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let w = optimize_quadratic(Sgd::new(0.1), 100);
        assert!((w - 3.0).abs() < 1e-3, "w = {w}");
    }

    #[test]
    fn sgd_momentum_converges() {
        let w = optimize_quadratic(Sgd::new(0.05).with_momentum(0.9), 200);
        assert!((w - 3.0).abs() < 1e-2, "w = {w}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let w = optimize_quadratic(Adam::new(0.1), 300);
        assert!((w - 3.0).abs() < 1e-2, "w = {w}");
    }

    #[test]
    fn frozen_params_do_not_move() {
        let mut ps = ParamStore::new();
        let w = ps.add("w", Matrix::scalar(1.0));
        ps.freeze(w);
        ps.grad_mut(w).add_assign(&Matrix::scalar(10.0));
        let mut opt = Sgd::new(0.5);
        opt.step(&mut ps);
        assert_eq!(ps.value(w).scalar_value(), 1.0);
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut ps = ParamStore::new();
        let w = ps.add("w", Matrix::scalar(1.0));
        // No task gradient, only decay.
        let mut opt = Sgd::new(0.1).with_weight_decay(0.5);
        opt.step(&mut ps);
        assert!((ps.value(w).scalar_value() - 0.95).abs() < 1e-6);
    }

    #[test]
    fn learning_rate_is_adjustable() {
        let mut opt = Adam::new(0.1);
        opt.set_learning_rate(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
    }
}
