//! The first-order optimizer over a [`ParamStore`].

use crate::matrix::Matrix;
use crate::params::ParamStore;

/// Adam (Kingma & Ba) with optional decoupled weight decay (AdamW).
///
/// The usual step: add a batch's gradients into the store, [`step`](Self::step),
/// then [`ParamStore::zero_grads`].
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

    /// Applies one update using the gradients accumulated in `store`; a
    /// parameter no gradient reached reads as zeros. Frozen parameters are
    /// left untouched.
    pub fn step(&mut self, store: &mut ParamStore) {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_converges_on_quadratic() {
        // f(w) = (w - 3)^2, with gradient 2(w - 3).
        let mut ps = ParamStore::new();
        let w = ps.add("w", Matrix::scalar(0.0));
        let mut opt = Adam::new(0.1);
        for _ in 0..300 {
            let x = ps.value(w).scalar_value();
            ps.grad_mut(w).as_mut_slice()[0] = 2.0 * (x - 3.0);
            opt.step(&mut ps);
            ps.zero_grads();
        }
        let w = ps.value(w).scalar_value();
        assert!((w - 3.0).abs() < 1e-2, "w = {w}");
    }

    #[test]
    fn frozen_params_do_not_move() {
        let mut ps = ParamStore::new();
        let w = ps.add("w", Matrix::scalar(1.0));
        ps.freeze(w);
        ps.grad_mut(w).as_mut_slice()[0] = 10.0;
        Adam::new(0.5).step(&mut ps);
        assert_eq!(ps.value(w).scalar_value(), 1.0);
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut ps = ParamStore::new();
        let w = ps.add("w", Matrix::scalar(1.0));
        // No task gradient, only the decoupled decay: w -= lr * wd * w.
        Adam::new(0.1).with_weight_decay(0.5).step(&mut ps);
        assert!((ps.value(w).scalar_value() - 0.95).abs() < 1e-6);
    }
}
