//! Mergeable metric accumulators: the additive tallies behind [`Metrics`].
//!
//! Shard-parallel evaluation scores each shard into its own accumulators,
//! merges them in shard order, and finalizes once — producing exactly the
//! metrics a single sequential pass would, because everything tallied here
//! (confusion counts, bit confusions, correctness counts) is additive.

use crate::confusion::ConfusionMatrix;
use crate::metrics::Metrics;

/// An additive partial of one group's metrics. Variants correspond to the
/// three scoring shapes the evaluator produces: multiclass pairs, bit
/// masks, and plain correct/incorrect.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricsAccumulator {
    /// Multiclass (pred, gold) pairs tallied in a confusion matrix.
    /// `examples` counts scored examples (a sequence example contributes
    /// many pairs but one example).
    Multiclass {
        /// Pair tallies.
        confusion: ConfusionMatrix,
        /// Scored examples.
        examples: usize,
    },
    /// Bitvector tallies over (example, bit) pairs.
    Bits {
        /// True positives.
        tp: u64,
        /// False positives.
        fp: u64,
        /// False negatives.
        fn_: u64,
        /// Bits predicted correctly (either polarity).
        correct: u64,
        /// Total bits scored.
        total: u64,
        /// Scored examples.
        examples: usize,
    },
    /// Plain correctness (select tasks).
    Binary {
        /// Correct examples.
        correct: usize,
        /// Scored examples.
        examples: usize,
    },
}

impl MetricsAccumulator {
    /// An empty multiclass accumulator over `k` classes.
    pub fn multiclass(k: usize) -> Self {
        MetricsAccumulator::Multiclass { confusion: ConfusionMatrix::new(k), examples: 0 }
    }

    /// An empty bitvector accumulator.
    pub fn bits() -> Self {
        MetricsAccumulator::Bits { tp: 0, fp: 0, fn_: 0, correct: 0, total: 0, examples: 0 }
    }

    /// An empty binary-correctness accumulator.
    pub fn binary() -> Self {
        MetricsAccumulator::Binary { correct: 0, examples: 0 }
    }

    /// Tallies one multiclass example's (pred, gold) pairs.
    ///
    /// # Panics
    /// Panics if called on a non-multiclass accumulator or a class is out
    /// of range.
    pub fn record_multiclass(&mut self, pairs: &[(usize, usize)]) {
        let MetricsAccumulator::Multiclass { confusion, examples } = self else {
            panic!("record_multiclass on a non-multiclass accumulator")
        };
        for &(pred, gold) in pairs {
            confusion.record(gold, pred);
        }
        *examples += 1;
    }

    /// Tallies one bitvector example's (pred bits, gold bits) rows.
    ///
    /// # Panics
    /// Panics if called on a non-bits accumulator or rows are ragged.
    pub fn record_bits(&mut self, rows: &[(Vec<bool>, Vec<bool>)]) {
        let MetricsAccumulator::Bits { tp, fp, fn_, correct, total, examples } = self else {
            panic!("record_bits on a non-bits accumulator")
        };
        for (p_row, g_row) in rows {
            assert_eq!(p_row.len(), g_row.len(), "bit width mismatch");
            for (&p, &g) in p_row.iter().zip(g_row) {
                *total += 1;
                if p == g {
                    *correct += 1;
                }
                match (p, g) {
                    (true, true) => *tp += 1,
                    (true, false) => *fp += 1,
                    (false, true) => *fn_ += 1,
                    (false, false) => {}
                }
            }
        }
        *examples += 1;
    }

    /// Tallies one correct/incorrect example.
    ///
    /// # Panics
    /// Panics if called on a non-binary accumulator.
    pub fn record_binary(&mut self, is_correct: bool) {
        let MetricsAccumulator::Binary { correct, examples } = self else {
            panic!("record_binary on a non-binary accumulator")
        };
        if is_correct {
            *correct += 1;
        }
        *examples += 1;
    }

    /// Scored examples so far.
    pub fn examples(&self) -> usize {
        match self {
            MetricsAccumulator::Multiclass { examples, .. }
            | MetricsAccumulator::Bits { examples, .. }
            | MetricsAccumulator::Binary { examples, .. } => *examples,
        }
    }

    /// Adds another partial of the same shape.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn merge(&mut self, other: &MetricsAccumulator) {
        match (self, other) {
            (
                MetricsAccumulator::Multiclass { confusion, examples },
                MetricsAccumulator::Multiclass { confusion: c2, examples: e2 },
            ) => {
                confusion.merge(c2);
                *examples += e2;
            }
            (
                MetricsAccumulator::Bits { tp, fp, fn_, correct, total, examples },
                MetricsAccumulator::Bits {
                    tp: tp2,
                    fp: fp2,
                    fn_: fn2,
                    correct: c2,
                    total: t2,
                    examples: e2,
                },
            ) => {
                *tp += tp2;
                *fp += fp2;
                *fn_ += fn2;
                *correct += c2;
                *total += t2;
                *examples += e2;
            }
            (
                MetricsAccumulator::Binary { correct, examples },
                MetricsAccumulator::Binary { correct: c2, examples: e2 },
            ) => {
                *correct += c2;
                *examples += e2;
            }
            _ => panic!("cannot merge accumulators of different shapes"),
        }
    }

    /// Reduces the tallies into a [`Metrics`] bundle. `count` is the number
    /// of scored examples.
    pub fn finalize(&self) -> Metrics {
        match self {
            MetricsAccumulator::Multiclass { confusion, examples } => {
                if *examples == 0 {
                    return Metrics::empty();
                }
                Metrics {
                    count: *examples,
                    accuracy: confusion.accuracy(),
                    macro_f1: confusion.macro_f1(),
                    micro_f1: confusion.accuracy(),
                }
            }
            MetricsAccumulator::Bits { tp, fp, fn_, correct, total, examples } => {
                // Keyed on examples, not bits: a scored example with zero
                // bits (empty sequence) still counts, so `count` is the
                // number of scored examples as for the other task kinds.
                if *examples == 0 {
                    return Metrics::empty();
                }
                let precision = if tp + fp == 0 { 0.0 } else { *tp as f64 / (tp + fp) as f64 };
                let recall = if tp + fn_ == 0 { 0.0 } else { *tp as f64 / (tp + fn_) as f64 };
                let f1 = if precision + recall == 0.0 {
                    0.0
                } else {
                    2.0 * precision * recall / (precision + recall)
                };
                Metrics {
                    count: *examples,
                    accuracy: if *total == 0 { 0.0 } else { *correct as f64 / *total as f64 },
                    macro_f1: f1,
                    micro_f1: f1,
                }
            }
            MetricsAccumulator::Binary { correct, examples } => {
                if *examples == 0 {
                    return Metrics::empty();
                }
                let accuracy = *correct as f64 / *examples as f64;
                Metrics { count: *examples, accuracy, macro_f1: accuracy, micro_f1: accuracy }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{bitvector_metrics, multiclass_metrics};

    #[test]
    fn multiclass_merge_matches_single_pass() {
        let preds = [0usize, 1, 2, 1, 0, 2, 2];
        let golds = [0usize, 1, 1, 1, 2, 2, 0];
        let mut whole = multiclass_metrics(3, &preds, &golds);
        whole.count = preds.len(); // one pair per example here

        let mut a = MetricsAccumulator::multiclass(3);
        let mut b = MetricsAccumulator::multiclass(3);
        for (i, (&p, &g)) in preds.iter().zip(&golds).enumerate() {
            if i < 3 {
                a.record_multiclass(&[(p, g)]);
            } else {
                b.record_multiclass(&[(p, g)]);
            }
        }
        a.merge(&b);
        assert_eq!(a.finalize(), whole);
    }

    #[test]
    fn bits_merge_matches_single_pass() {
        let preds = vec![vec![true, false], vec![true, true], vec![false, false]];
        let golds = vec![vec![true, true], vec![false, true], vec![false, true]];
        let whole = bitvector_metrics(&preds, &golds);

        let mut a = MetricsAccumulator::bits();
        let mut b = MetricsAccumulator::bits();
        a.record_bits(&[(preds[0].clone(), golds[0].clone())]);
        b.record_bits(&[(preds[1].clone(), golds[1].clone())]);
        b.record_bits(&[(preds[2].clone(), golds[2].clone())]);
        a.merge(&b);
        assert_eq!(a.finalize(), whole);
    }

    #[test]
    fn bits_example_with_zero_bits_still_counts() {
        // A scored example whose rows are empty (e.g. a gold label over an
        // empty sequence) still contributes to count.
        let mut a = MetricsAccumulator::bits();
        a.record_bits(&[]);
        let m = a.finalize();
        assert_eq!(m.count, 1);
        assert_eq!(m.accuracy, 0.0);
        assert_eq!(m.micro_f1, 0.0);
    }

    #[test]
    fn binary_counts_and_empty() {
        let mut a = MetricsAccumulator::binary();
        a.record_binary(true);
        a.record_binary(false);
        let mut b = MetricsAccumulator::binary();
        b.record_binary(true);
        a.merge(&b);
        let m = a.finalize();
        assert_eq!(m.count, 3);
        assert!((m.accuracy - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(MetricsAccumulator::binary().finalize(), Metrics::empty());
        assert_eq!(MetricsAccumulator::multiclass(4).finalize(), Metrics::empty());
        assert_eq!(MetricsAccumulator::bits().finalize(), Metrics::empty());
    }

    #[test]
    #[should_panic(expected = "different shapes")]
    fn shape_mismatch_panics() {
        MetricsAccumulator::binary().merge(&MetricsAccumulator::bits());
    }
}
