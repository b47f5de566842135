//! Inverted dropout.

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

    /// Fills `mask` from `rng`, in order: each element is 0 with
    /// probability `p` and `1/(1-p)` otherwise. Training multiplies a
    /// dropout step's input by such a mask; inference skips the step.
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
    fn preserves_expectation_at_train() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut mask = vec![0.0; 100 * 100];
        Dropout::new(0.3).mask(&mut rng, &mut mask);
        let mean = mask.iter().sum::<f32>() / mask.len() as f32;
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
        assert!(mask.iter().all(|&m| m == 0.0 || m == 1.0 / 0.7));
    }

    #[test]
    fn zero_probability_is_identity_even_at_train() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut mask = vec![0.0; 4];
        Dropout::new(0.0).mask(&mut rng, &mut mask);
        assert_eq!(mask, [1.0; 4]);
    }

    #[test]
    #[should_panic(expected = "out of [0,1)")]
    fn rejects_p_of_one() {
        let _ = Dropout::new(1.0);
    }
}
