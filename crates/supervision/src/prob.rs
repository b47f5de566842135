//! Probabilistic training labels — the label model's output, the trainer's
//! input.

use serde::{Deserialize, Serialize};

/// A probabilistic label for one record on one task, at the task's
/// granularity. Distributions sum to 1; bit probabilities are independent
/// per bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ProbLabel {
    /// Distribution over classes (multiclass/singleton) or over candidate
    /// set elements (select).
    Dist(Vec<f32>),
    /// Per-sequence-element class distributions.
    SeqDist(Vec<Vec<f32>>),
    /// Per-bit `P(bit = 1)` (bitvector/singleton).
    Bits(Vec<f32>),
    /// Per-sequence-element bit probabilities.
    SeqBits(Vec<Vec<f32>>),
}

impl ProbLabel {
    /// Builds a one-hot distribution.
    pub fn one_hot(class: usize, k: usize) -> Self {
        let mut dist = vec![0.0; k];
        dist[class] = 1.0;
        ProbLabel::Dist(dist)
    }

    /// The argmax class for `Dist` labels, `None` otherwise.
    pub fn argmax(&self) -> Option<usize> {
        match self {
            ProbLabel::Dist(d) => {
                let mut best = 0;
                for (i, &p) in d.iter().enumerate() {
                    if p > d[best] {
                        best = i;
                    }
                }
                Some(best)
            }
            _ => None,
        }
    }

    /// Whether all contained probabilities are within `[0, 1]` and (for
    /// distributions) rows sum to ~1.
    pub fn is_valid(&self) -> bool {
        let in_range = |xs: &[f32]| xs.iter().all(|&p| (0.0..=1.0 + 1e-4).contains(&p));
        let sums = |xs: &[f32]| (xs.iter().sum::<f32>() - 1.0).abs() < 1e-3;
        match self {
            ProbLabel::Dist(d) => in_range(d) && sums(d),
            ProbLabel::SeqDist(rows) => rows.iter().all(|r| in_range(r) && sums(r)),
            ProbLabel::Bits(b) => in_range(b),
            ProbLabel::SeqBits(rows) => rows.iter().all(|r| in_range(r)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_hot_and_argmax() {
        let l = ProbLabel::one_hot(2, 4);
        assert_eq!(l.argmax(), Some(2));
        assert!(l.is_valid());
    }

    #[test]
    fn validity_checks() {
        assert!(ProbLabel::Dist(vec![0.3, 0.7]).is_valid());
        assert!(!ProbLabel::Dist(vec![0.3, 0.3]).is_valid());
        assert!(ProbLabel::Bits(vec![0.2, 0.9]).is_valid());
        assert!(!ProbLabel::Bits(vec![1.5]).is_valid());
        assert!(ProbLabel::SeqDist(vec![vec![1.0, 0.0], vec![0.5, 0.5]]).is_valid());
    }

    #[test]
    fn argmax_only_for_dist() {
        assert_eq!(ProbLabel::Bits(vec![0.9]).argmax(), None);
    }
}
