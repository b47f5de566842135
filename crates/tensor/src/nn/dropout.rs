//! Inverted dropout.

use crate::graph::{Graph, NodeId};
use crate::matrix::Matrix;
use rand::Rng;

/// Inverted dropout: at train time each element is zeroed with probability
/// `p` and survivors are scaled by `1/(1-p)`, so inference needs no rescale.
#[derive(Debug, Clone, Copy)]
pub struct Dropout {
    p: f32,
}

impl Dropout {
    /// # Panics
    /// Panics unless `0 <= p < 1`.
    pub fn new(p: f32) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout probability {p} out of [0,1)");
        Self { p }
    }

    /// Drop probability.
    pub fn p(&self) -> f32 {
        self.p
    }

    /// Applies dropout to `x`, whose rows form consecutive blocks: block
    /// `b` is `block_rows[b]` rows and draws its mask, row-major, from
    /// `rngs[b]`. One block over all of `x`'s rows is plain dropout; a
    /// row-stacked batch passes one block (and one RNG) per example, so
    /// each example's mask is the one it would draw alone. When `train` is
    /// false (or `p == 0`) this is the identity and draws nothing.
    ///
    /// # Panics
    /// Panics if the blocks do not cover `x`'s rows exactly, or if there
    /// are fewer RNGs than blocks.
    pub fn forward<R: Rng>(
        &self,
        g: &mut Graph,
        x: NodeId,
        train: bool,
        block_rows: &[usize],
        rngs: &mut [R],
    ) -> NodeId {
        if !train || self.p == 0.0 {
            return x;
        }
        let (rows, cols) = g.value(x).shape();
        assert_eq!(block_rows.iter().sum::<usize>(), rows, "dropout blocks must cover the rows");
        assert!(rngs.len() >= block_rows.len(), "one dropout RNG per block");
        let keep_scale = 1.0 / (1.0 - self.p);
        let mut data = Vec::with_capacity(rows * cols);
        for (&block, rng) in block_rows.iter().zip(rngs) {
            data.extend((0..block * cols).map(|_| {
                if rng.gen::<f32>() < self.p {
                    0.0
                } else {
                    keep_scale
                }
            }));
        }
        let mask = g.constant(Matrix::from_vec(rows, cols, data));
        g.mul(x, mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn identity_at_inference() {
        let mut rng = SmallRng::seed_from_u64(0);
        let d = Dropout::new(0.5);
        let mut g = Graph::new();
        let x = g.constant(Matrix::ones(3, 3));
        let y = d.forward(&mut g, x, false, &[3], std::slice::from_mut(&mut rng));
        assert_eq!(x, y);
    }

    #[test]
    fn preserves_expectation_at_train() {
        let mut rng = SmallRng::seed_from_u64(1);
        let d = Dropout::new(0.3);
        let mut g = Graph::new();
        let x = g.constant(Matrix::ones(100, 100));
        let y = d.forward(&mut g, x, true, &[100], std::slice::from_mut(&mut rng));
        let mean = g.value(y).mean();
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn zero_probability_is_identity_even_at_train() {
        let mut rng = SmallRng::seed_from_u64(2);
        let d = Dropout::new(0.0);
        let mut g = Graph::new();
        let x = g.constant(Matrix::ones(2, 2));
        let y = d.forward(&mut g, x, true, &[2], std::slice::from_mut(&mut rng));
        assert_eq!(x, y);
    }

    #[test]
    fn each_block_draws_the_mask_it_would_draw_alone() {
        let d = Dropout::new(0.4);
        let alone: Vec<Matrix> = [(2, 7u64), (0, 8), (3, 9)]
            .iter()
            .map(|&(rows, seed)| {
                let mut g = Graph::new();
                let x = g.constant(Matrix::ones(rows, 5));
                let mut rng = SmallRng::seed_from_u64(seed);
                let y = d.forward(&mut g, x, true, &[rows], std::slice::from_mut(&mut rng));
                g.value(y).clone()
            })
            .collect();
        let mut g = Graph::new();
        let x = g.constant(Matrix::ones(5, 5));
        let mut rngs: Vec<SmallRng> = (7..10).map(SmallRng::seed_from_u64).collect();
        let y = d.forward(&mut g, x, true, &[2, 0, 3], &mut rngs);
        let stacked = Matrix::concat_rows(&alone);
        assert_eq!(g.value(y), &stacked);
    }

    #[test]
    #[should_panic(expected = "out of [0,1)")]
    fn rejects_p_of_one() {
        let _ = Dropout::new(1.0);
    }
}
