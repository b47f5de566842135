//! 1-D convolution over sequences (same-length padding).

use crate::init;
use crate::matrix::Matrix;
use crate::params::{ParamId, ParamStore};
use rand::Rng;

/// A same-length 1-D convolution: `T x in_dim -> T x out_dim` with an odd
/// kernel width, computed as `im2row(x) * W + b`: a width-`kernel` window
/// unfold with `kernel / 2` rows of zero padding, then one affine map.
#[derive(Debug, Clone)]
pub struct Conv1d {
    weight: ParamId,
    bias: ParamId,
    in_dim: usize,
    out_dim: usize,
    kernel: usize,
}

impl Conv1d {
    /// Registers a `kernel * in_dim x out_dim` weight under `name`.
    ///
    /// # Panics
    /// Panics if `kernel` is even (same-length padding needs an odd width).
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        kernel: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(kernel % 2 == 1, "Conv1d kernel must be odd, got {kernel}");
        let weight =
            store.add(format!("{name}.weight"), init::he_normal(kernel * in_dim, out_dim, rng));
        let bias = store.add(format!("{name}.bias"), Matrix::zeros(1, out_dim));
        Self { weight, bias, in_dim, out_dim, kernel }
    }

    /// Output feature size.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Input feature size.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Kernel width (odd).
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Handle to the `kernel * in_dim x out_dim` weight matrix.
    pub fn weight_id(&self) -> ParamId {
        self.weight
    }

    /// Handle to the `1 x out_dim` bias row.
    pub fn bias_id(&self) -> ParamId {
        self.bias
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    #[should_panic(expected = "kernel must be odd")]
    fn even_kernel_rejected() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut ps = ParamStore::new();
        let _ = Conv1d::new(&mut ps, "c", 4, 6, 2, &mut rng);
    }
}
