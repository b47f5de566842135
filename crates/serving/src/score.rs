//! Scoring served responses against gold labels.
//!
//! Shared by the canary gate (`deploy.rs` scores incumbent and candidate
//! over the gold-labeled traffic sample) and the observability hook
//! (`telemetry.rs` attaches a per-request gold accuracy to each
//! [`ServeSample`](crate::ServeSample) so windowed monitoring can track
//! quality without waiting for a batch evaluation).

use overton_model::{ServedOutput, ServingResponse};
use overton_store::{Record, Schema, TaskLabel};
use std::sync::Arc;

/// Accuracy of one served output against gold, in `[0, 1]` (sequence tasks
/// score the fraction of correct elements). `None` when the shapes do not
/// line up.
pub(crate) fn score_output(served: &ServedOutput, gold: &TaskLabel) -> Option<f64> {
    let fraction = |hits: usize, total: usize| {
        if total == 0 {
            None
        } else {
            Some(hits as f64 / total as f64)
        }
    };
    match (served, gold) {
        (ServedOutput::Multiclass { class, .. }, TaskLabel::MulticlassOne(g)) => {
            Some(f64::from(**class == **g))
        }
        (ServedOutput::MulticlassSeq { classes }, TaskLabel::MulticlassSeq(golds))
            if classes.len() == golds.len() =>
        {
            fraction(classes.iter().zip(golds).filter(|(p, g)| ***p == ***g).count(), golds.len())
        }
        (ServedOutput::Bits { set }, TaskLabel::BitvectorOne(gold_set)) => {
            Some(f64::from(same_set(set, gold_set)))
        }
        (ServedOutput::BitsSeq { rows }, TaskLabel::BitvectorSeq(gold_rows))
            if rows.len() == gold_rows.len() =>
        {
            let hits = rows.iter().zip(gold_rows).filter(|(p, g)| same_set(p, g)).count();
            fraction(hits, gold_rows.len())
        }
        (ServedOutput::Select { index, .. }, TaskLabel::Select(g)) => Some(f64::from(index == g)),
        _ => None,
    }
}

/// Whether the served set bits and the gold ones hold the same names,
/// in any order and each as many times: equal lengths, and every served
/// name as often in both.
fn same_set(served: &[Arc<str>], gold: &[String]) -> bool {
    let in_served = |name: &str| served.iter().filter(|s| &***s == name).count();
    let in_gold = |name: &str| gold.iter().filter(|g| g.as_str() == name).count();
    served.len() == gold.len() && served.iter().all(|name| in_served(name) == in_gold(name))
}

/// Mean accuracy of a response over every task the record carries gold
/// for (and the response answered with a matching shape). `None` when no
/// task could be scored — the record is unlabeled traffic.
pub fn score_response(schema: &Schema, record: &Record, response: &ServingResponse) -> Option<f64> {
    let mut sum = 0.0;
    let mut n = 0usize;
    for task in schema.tasks.keys() {
        let Some(gold) = record.gold(task) else { continue };
        let Some(served) = response.tasks.get(task.as_str()) else { continue };
        let Some(score) = score_output(served, gold) else { continue };
        sum += score;
        n += 1;
    }
    if n == 0 {
        None
    } else {
        Some(sum / n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn score_output_covers_all_shapes() {
        assert_eq!(
            score_output(
                &ServedOutput::Multiclass { class: "A".into(), dist: vec![] },
                &TaskLabel::MulticlassOne("A".into())
            ),
            Some(1.0)
        );
        assert_eq!(
            score_output(
                &ServedOutput::MulticlassSeq { classes: vec!["A".into(), "B".into()] },
                &TaskLabel::MulticlassSeq(vec!["A".into(), "C".into()])
            ),
            Some(0.5)
        );
        assert_eq!(
            score_output(
                &ServedOutput::Bits { set: vec!["y".into(), "x".into()] },
                &TaskLabel::BitvectorOne(vec!["x".into(), "y".into()])
            ),
            Some(1.0)
        );
        // Set compares ignore order but count duplicates, as comparing both
        // sides sorted does.
        for (set, gold) in [
            (vec![], vec![]),
            (vec!["x"], vec![]),
            (vec!["y", "x", "z"], vec!["z", "y", "x"]),
            (vec!["x", "y"], vec!["x", "x"]),
            (vec!["x"], vec!["x", "x"]),
            (vec!["x", "x", "y"], vec!["x", "y", "y"]),
            (vec!["x", "y", "x"], vec!["y", "x", "x"]),
            (vec!["x", "y"], vec!["x", "z"]),
        ] {
            let (mut a, mut b) = (set.clone(), gold.clone());
            a.sort_unstable();
            b.sort_unstable();
            let served = ServedOutput::Bits { set: set.iter().map(|&n| n.into()).collect() };
            let gold = TaskLabel::BitvectorOne(gold.iter().map(|&n| n.into()).collect());
            assert_eq!(score_output(&served, &gold), Some(f64::from(a == b)), "{gold:?}");
        }
        assert_eq!(
            score_output(&ServedOutput::Select { index: 2, id: "e".into() }, &TaskLabel::Select(1)),
            Some(0.0)
        );
        // Shape mismatch scores nothing.
        assert_eq!(
            score_output(
                &ServedOutput::MulticlassSeq { classes: vec!["A".into()] },
                &TaskLabel::MulticlassSeq(vec!["A".into(), "B".into()])
            ),
            None
        );
    }

    #[test]
    fn score_response_averages_scored_tasks_only() {
        let schema = overton_nlp::workload_schema();
        let record = Record::new()
            .with_label(
                "Intent",
                overton_store::GOLD_SOURCE,
                TaskLabel::MulticlassOne("Age".into()),
            )
            .with_label("IntentArg", overton_store::GOLD_SOURCE, TaskLabel::Select(1));
        let response = ServingResponse {
            tasks: BTreeMap::from([
                ("Intent".into(), ServedOutput::Multiclass { class: "Age".into(), dist: vec![] }),
                ("IntentArg".into(), ServedOutput::Select { index: 0, id: "x".into() }),
            ]),
            slices: vec![],
            confidence: 1.0,
        };
        // Intent right, IntentArg wrong, POS/EntityType unlabeled → 0.5.
        assert_eq!(score_response(&schema, &record, &response), Some(0.5));
        // No gold at all → None, not 0.
        assert_eq!(score_response(&schema, &Record::new(), &response), None);
    }
}
