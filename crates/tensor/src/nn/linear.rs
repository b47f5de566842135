//! Affine layer `y = x W + b`.

use crate::graph::{Graph, NodeId};
use crate::init;
use crate::params::{ParamId, ParamStore};
use rand::Rng;

/// A fully-connected layer mapping `m x in` to `m x out`.
#[derive(Debug, Clone)]
pub struct Linear {
    weight: ParamId,
    bias: Option<ParamId>,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Registers weights (Xavier) and a zero bias under `name`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let weight =
            store.add(format!("{name}.weight"), init::xavier_uniform(in_dim, out_dim, rng));
        let bias = store.add(format!("{name}.bias"), crate::Matrix::zeros(1, out_dim));
        Self { weight, bias: Some(bias), in_dim, out_dim }
    }

    /// A linear map without bias.
    pub fn new_no_bias(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let weight =
            store.add(format!("{name}.weight"), init::xavier_uniform(in_dim, out_dim, rng));
        Self { weight, bias: None, in_dim, out_dim }
    }

    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Handle to the `in_dim x out_dim` weight matrix.
    pub fn weight_id(&self) -> ParamId {
        self.weight
    }

    /// Handle to the `1 x out_dim` bias row, absent for
    /// [`Linear::new_no_bias`] layers.
    pub fn bias_id(&self) -> Option<ParamId> {
        self.bias
    }

    /// Output feature dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Applies the layer to an `m x in_dim` node.
    pub fn forward<'p>(&self, g: &mut Graph<'p>, store: &'p ParamStore, x: NodeId) -> NodeId {
        debug_assert_eq!(g.value(x).cols(), self.in_dim, "Linear input width mismatch");
        let w = g.param(store, self.weight);
        let xw = g.matmul(x, w);
        match self.bias {
            Some(b) => {
                let bn = g.param(store, b);
                g.add_row_broadcast(xw, bn)
            }
            None => xw,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_gradients;
    use crate::matrix::Matrix;
    use crate::optim::{Optimizer, Sgd};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shape() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut ps = ParamStore::new();
        let lin = Linear::new(&mut ps, "l", 4, 3, &mut rng);
        let mut g = Graph::new();
        let x = g.constant(Matrix::ones(5, 4));
        let y = lin.forward(&mut g, &ps, x);
        assert_eq!(g.value(y).shape(), (5, 3));
    }

    #[test]
    fn gradcheck_through_linear() {
        let mut rng = SmallRng::seed_from_u64(1);
        let w = crate::init::xavier_uniform(3, 2, &mut rng);
        let b = Matrix::row_vector(&[0.1, -0.2]);
        let x = Matrix::from_rows(&[vec![0.5, -1.0, 0.2], vec![2.0, 0.3, -0.7]]);
        let r = check_gradients(&[x, w, b], 1e-2, |g, ids| {
            let xw = g.matmul(ids[0], ids[1]);
            let y = g.add_row_broadcast(xw, ids[2]);
            let t = g.tanh(y);
            g.sum_all(t)
        });
        assert!(r.passes(2e-2), "max rel err {}", r.max_rel_error);
    }

    #[test]
    fn learns_a_linear_function() {
        // Fit y = 2x1 - x2 with a 2->1 linear layer.
        let mut rng = SmallRng::seed_from_u64(2);
        let mut ps = ParamStore::new();
        let lin = Linear::new(&mut ps, "l", 2, 1, &mut rng);
        let mut opt = Sgd::new(0.1);
        let xs =
            Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0], vec![0.5, -0.5]]);
        let ys = Matrix::from_rows(&[vec![2.0], vec![-1.0], vec![1.0], vec![1.5]]);
        let mut last = f32::MAX;
        for _ in 0..300 {
            let mut g = Graph::new();
            let x = g.constant(xs.clone());
            let target = g.constant(ys.clone());
            let pred = lin.forward(&mut g, &ps, x);
            let diff = g.sub(pred, target);
            let sq = g.mul(diff, diff);
            let loss = g.mean_all(sq);
            last = g.value(loss).scalar_value();
            g.backward(loss);
            for (pid, grad) in g.take_param_grads() {
                ps.grad_mut(pid).add_assign(&grad);
            }
            opt.step(&mut ps);
            ps.zero_grads();
        }
        assert!(last < 1e-4, "final loss {last}");
    }

    #[test]
    fn no_bias_variant_has_one_param() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut ps = ParamStore::new();
        let _ = Linear::new_no_bias(&mut ps, "l", 4, 3, &mut rng);
        assert_eq!(ps.len(), 1);
    }
}
