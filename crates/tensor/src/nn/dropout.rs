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

    /// Applies dropout to `x`, drawing its mask row-major from `rng`.
    /// When `train` is false (or `p == 0`) this is the identity and draws
    /// nothing.
    pub fn forward<R: Rng>(&self, g: &mut Graph, x: NodeId, train: bool, rng: &mut R) -> NodeId {
        if !train || self.p == 0.0 {
            return x;
        }
        let (rows, cols) = g.value(x).shape();
        let mut mask = vec![0.0; rows * cols];
        self.mask(rng, &mut mask);
        let mask = g.constant(Matrix::from_vec(rows, cols, mask));
        g.mul(x, mask)
    }

    /// Fills `mask` from `rng`, in order: each element is 0 with
    /// probability `p` and `1/(1-p)` otherwise. [`forward`](Self::forward)
    /// multiplies its input by such a mask.
    pub fn mask<R: Rng>(&self, rng: &mut R, mask: &mut [f32]) {
        let keep_scale = 1.0 / (1.0 - self.p);
        for m in mask {
            *m = if rng.gen::<f32>() < self.p { 0.0 } else { keep_scale };
        }
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
        let y = d.forward(&mut g, x, false, &mut rng);
        assert_eq!(x, y);
    }

    #[test]
    fn preserves_expectation_at_train() {
        let mut rng = SmallRng::seed_from_u64(1);
        let d = Dropout::new(0.3);
        let mut g = Graph::new();
        let x = g.constant(Matrix::ones(100, 100));
        let y = d.forward(&mut g, x, true, &mut rng);
        let mean = g.value(y).mean();
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn zero_probability_is_identity_even_at_train() {
        let mut rng = SmallRng::seed_from_u64(2);
        let d = Dropout::new(0.0);
        let mut g = Graph::new();
        let x = g.constant(Matrix::ones(2, 2));
        let y = d.forward(&mut g, x, true, &mut rng);
        assert_eq!(x, y);
    }

    #[test]
    #[should_panic(expected = "out of [0,1)")]
    fn rejects_p_of_one() {
        let _ = Dropout::new(1.0);
    }
}
