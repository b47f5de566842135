//! Token/entity embedding tables.

use crate::init;
use crate::matrix::Matrix;
use crate::params::{ParamId, ParamStore};
use rand::Rng;

/// A lookup table mapping ids to `dim`-dimensional rows.
#[derive(Debug, Clone)]
pub struct Embedding {
    table: ParamId,
    dim: usize,
}

impl Embedding {
    /// Registers a `vocab x dim` table initialized N(0, 0.1).
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        vocab: usize,
        dim: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let table = store.add(format!("{name}.table"), init::normal(vocab, dim, 0.1, rng));
        Self { table, dim }
    }

    /// Creates an embedding from an existing (e.g. pretrained) table.
    pub fn from_pretrained(store: &mut ParamStore, name: &str, table: Matrix) -> Self {
        let dim = table.cols();
        let id = store.add(format!("{name}.table"), table);
        Self { table: id, dim }
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The underlying table parameter.
    pub fn table(&self) -> ParamId {
        self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn lookup_shape_and_content() {
        let mut ps = ParamStore::new();
        let table = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let emb = Embedding::from_pretrained(&mut ps, "e", table);
        assert_eq!(emb.dim(), 2);
        assert_eq!(ps.name(emb.table()), "e.table");
        let rows = ps.value(emb.table());
        assert_eq!(rows.shape(), (3, 2));
        assert_eq!(rows.row(2), &[5.0, 6.0]);
        assert_eq!(rows.row(0), &[1.0, 2.0]);

        let mut rng = SmallRng::seed_from_u64(0);
        let fresh = Embedding::new(&mut ps, "f", 4, 5, &mut rng);
        assert_eq!((fresh.dim(), ps.value(fresh.table()).shape()), (5, (4, 5)));
    }

    #[test]
    fn frozen_embedding_does_not_train() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut ps = ParamStore::new();
        let frozen = Embedding::new(&mut ps, "frozen", 3, 2, &mut rng);
        let live = Embedding::new(&mut ps, "live", 3, 2, &mut rng);
        ps.freeze(frozen.table());
        let (before_frozen, before_live) =
            (ps.value(frozen.table()).clone(), ps.value(live.table()).clone());
        for emb in [&frozen, &live] {
            ps.grad_mut(emb.table()).as_mut_slice().fill(1.0);
        }
        Adam::new(1.0).step(&mut ps);
        assert_eq!(ps.value(frozen.table()), &before_frozen);
        assert!(ps.value(live.table()).max_abs_diff(&before_live) > 0.5, "the step ran");
    }
}
