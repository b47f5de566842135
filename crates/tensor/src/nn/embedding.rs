//! Token/entity embedding tables.

use crate::graph::{Graph, NodeId};
use crate::init;
use crate::matrix::Matrix;
use crate::params::{ParamId, ParamStore};
use rand::Rng;

/// A lookup table mapping ids to `dim`-dimensional rows.
///
/// Lookup is [`Graph::select_rows`] on the table parameter, so gradients
/// scatter-add into only the rows that were used.
#[derive(Debug, Clone)]
pub struct Embedding {
    table: ParamId,
    vocab: usize,
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
        Self { table, vocab, dim }
    }

    /// Creates an embedding from an existing (e.g. pretrained) table.
    pub fn from_pretrained(store: &mut ParamStore, name: &str, table: Matrix) -> Self {
        let (vocab, dim) = table.shape();
        let id = store.add(format!("{name}.table"), table);
        Self { table: id, vocab, dim }
    }

    /// Freezes the table so fine-tuning cannot change it.
    pub fn freeze(&self, store: &mut ParamStore) {
        store.freeze(self.table);
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The underlying table parameter.
    pub fn table(&self) -> ParamId {
        self.table
    }

    /// Looks up a sequence of ids, producing `ids.len() x dim`.
    ///
    /// # Panics
    /// Panics if any id is out of vocabulary.
    pub fn forward<'p>(&self, g: &mut Graph<'p>, store: &'p ParamStore, ids: &[usize]) -> NodeId {
        assert!(
            ids.iter().all(|&i| i < self.vocab),
            "embedding id out of vocabulary (vocab = {})",
            self.vocab
        );
        let t = g.param(store, self.table);
        g.select_rows(t, ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::{Optimizer, Sgd};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn lookup_shape_and_content() {
        let mut ps = ParamStore::new();
        let table = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let emb = Embedding::from_pretrained(&mut ps, "e", table);
        let mut g = Graph::new();
        let out = emb.forward(&mut g, &ps, &[2, 0]);
        assert_eq!(g.value(out).shape(), (2, 2));
        assert_eq!(g.value(out).row(0), &[5.0, 6.0]);
        assert_eq!(g.value(out).row(1), &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn oov_panics() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut ps = ParamStore::new();
        let emb = Embedding::new(&mut ps, "e", 4, 2, &mut rng);
        let mut g = Graph::new();
        let _ = emb.forward(&mut g, &ps, &[4]);
    }

    #[test]
    fn only_touched_rows_get_gradient() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut ps = ParamStore::new();
        let emb = Embedding::new(&mut ps, "e", 5, 3, &mut rng);
        let mut g = Graph::new();
        let out = emb.forward(&mut g, &ps, &[1, 3]);
        let loss = g.sum_all(out);
        g.backward(loss);
        for (pid, grad) in g.take_param_grads() {
            ps.grad_mut(pid).add_assign(&grad);
        }
        let grad = ps.grad(emb.table());
        assert_eq!(grad.row(0), &[0.0; 3]);
        assert_eq!(grad.row(1), &[1.0; 3]);
        assert_eq!(grad.row(2), &[0.0; 3]);
        assert_eq!(grad.row(3), &[1.0; 3]);
    }

    #[test]
    fn frozen_embedding_does_not_train() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut ps = ParamStore::new();
        let emb = Embedding::new(&mut ps, "e", 3, 2, &mut rng);
        emb.freeze(&mut ps);
        let before = ps.value(emb.table()).clone();
        let mut g = Graph::new();
        let out = emb.forward(&mut g, &ps, &[0, 1, 2]);
        let loss = g.sum_all(out);
        g.backward(loss);
        for (pid, grad) in g.take_param_grads() {
            ps.grad_mut(pid).add_assign(&grad);
        }
        let mut opt = Sgd::new(1.0);
        opt.step(&mut ps);
        assert_eq!(ps.value(emb.table()), &before);
    }
}
