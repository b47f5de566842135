//! Multi-head scaled dot-product self-attention.

use crate::nn::Linear;
use crate::params::ParamStore;
use rand::Rng;

/// Multi-head self-attention over a `T x dim` sequence, producing `T x dim`.
///
/// This is the Transformer building block Overton's schema may select as a
/// sequence encoder, and the default mechanism for combining payload
/// references ("by default, combination is done with multi-headed
/// attention", paper §2.1).
#[derive(Debug, Clone)]
pub struct MultiHeadSelfAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    heads: usize,
    dim: usize,
}

impl MultiHeadSelfAttention {
    /// Registers projections under `name`.
    ///
    /// # Panics
    /// Panics unless `heads` divides `dim`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        dim: usize,
        heads: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(heads > 0 && dim.is_multiple_of(heads), "heads ({heads}) must divide dim ({dim})");
        Self {
            wq: Linear::new_no_bias(store, &format!("{name}.wq"), dim, dim, rng),
            wk: Linear::new_no_bias(store, &format!("{name}.wk"), dim, dim, rng),
            wv: Linear::new_no_bias(store, &format!("{name}.wv"), dim, dim, rng),
            wo: Linear::new_no_bias(store, &format!("{name}.wo"), dim, dim, rng),
            heads,
            dim,
        }
    }

    /// Model dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of heads.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// The query projection.
    pub fn wq(&self) -> &Linear {
        &self.wq
    }

    /// The key projection.
    pub fn wk(&self) -> &Linear {
        &self.wk
    }

    /// The value projection.
    pub fn wv(&self) -> &Linear {
        &self.wv
    }

    /// The output projection.
    pub fn wo(&self) -> &Linear {
        &self.wo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    #[should_panic(expected = "must divide")]
    fn rejects_indivisible_heads() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut ps = ParamStore::new();
        let _ = MultiHeadSelfAttention::new(&mut ps, "a", 8, 3, &mut rng);
    }
}
