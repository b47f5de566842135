//! Affine layer `y = x W + b`.

use crate::init;
use crate::params::{ParamId, ParamStore};
use rand::Rng;

/// A fully-connected layer mapping `m x in` to `m x out`.
#[derive(Debug, Clone)]
pub struct Linear {
    weight: ParamId,
    bias: Option<ParamId>,
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
        Self { weight, bias: Some(bias), out_dim }
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
        Self { weight, bias: None, out_dim }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use crate::{matmul_at_into, matmul_into, Matrix};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn learns_a_linear_function() {
        // Fit y = 2x1 - x2 with a 2->1 linear layer, from the mean squared
        // error's hand-computed gradient: dW = X^T G and db = sum of G's rows.
        let mut rng = SmallRng::seed_from_u64(2);
        let mut ps = ParamStore::new();
        let lin = Linear::new(&mut ps, "l", 2, 1, &mut rng);
        let (w, b) = (lin.weight_id(), lin.bias_id().expect("bias"));
        let mut opt = Adam::new(0.05);
        let xs = [1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.5, -0.5];
        let ys = [2.0, -1.0, 1.0, 1.5];
        let n = ys.len();
        let mut last = f32::MAX;
        for _ in 0..1000 {
            let bias = ps.value(b).scalar_value();
            let mut pred = vec![bias; n];
            matmul_into(n, 2, 1, &xs, ps.value(w).as_slice(), &mut pred);
            let diff: Vec<f32> = pred.iter().zip(&ys).map(|(p, y)| p - y).collect();
            last = diff.iter().map(|d| d * d).sum::<f32>() / n as f32;
            let g: Vec<f32> = diff.iter().map(|d| 2.0 * d / n as f32).collect();
            matmul_at_into(2, n, 1, &xs, &g, ps.grad_mut(w).as_mut_slice());
            ps.grad_mut(b).as_mut_slice()[0] = g.iter().sum();
            opt.step(&mut ps);
            ps.zero_grads();
        }
        assert!(last < 1e-4, "final loss {last}");
        let fitted = ps.value(w);
        assert!(fitted.max_abs_diff(&Matrix::from_vec(2, 1, vec![2.0, -1.0])) < 1e-2, "{fitted:?}");
    }

    #[test]
    fn no_bias_variant_has_one_param() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut ps = ParamStore::new();
        let _ = Linear::new_no_bias(&mut ps, "l", 4, 3, &mut rng);
        assert_eq!(ps.len(), 1);
    }
}
