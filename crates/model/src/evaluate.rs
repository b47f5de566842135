//! Evaluation against gold labels, with per-tag and per-slice reports.
//!
//! This produces the fine-grained quality reports that are an Overton
//! engineer's main interface: overall metrics plus one row per tag and per
//! slice, for every task (paper §2.2, "Overton reports the accuracy
//! conditioned on an example being in the slice").

use crate::features::{CompiledExample, FeatureSpace};
use crate::infer::{Decode, HeadLogits, MAX_BATCH};
use crate::network::CompiledModel;
use overton_monitor::{Metrics, MetricsAccumulator, QualityReport, SLICE_PREFIX};
use overton_store::{Record, ShardedStore, TaskKind, TaskLabel};
use std::collections::BTreeMap;

/// Evaluation output: one report per task.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Per-task quality reports (rows: `overall`, tags, slices).
    pub reports: BTreeMap<String, QualityReport>,
}

impl Evaluation {
    /// Overall accuracy for a task (0 when absent).
    pub fn accuracy(&self, task: &str) -> f64 {
        self.reports.get(task).and_then(|r| r.overall()).map_or(0.0, |m| m.accuracy)
    }

    /// Accuracy for a task on one slice (None when the row is absent).
    pub fn slice_accuracy(&self, task: &str, slice: &str) -> Option<f64> {
        self.slice_metrics(task, slice).map(|m| m.accuracy)
    }

    /// Full metrics for a task on one slice — unlike
    /// [`slice_accuracy`](Self::slice_accuracy) this keeps the scored
    /// example count, which is what significance tests and confidence
    /// intervals need.
    pub fn slice_metrics(&self, task: &str, slice: &str) -> Option<Metrics> {
        self.reports.get(task)?.group(&format!("{SLICE_PREFIX}{slice}")).copied()
    }
}

/// Scored pairs for one task on one record.
enum Scored {
    /// (pred class, gold class) pairs with a fixed class count.
    Multiclass(Vec<(usize, usize)>, usize),
    /// (pred bits, gold bits) rows.
    Bits(Vec<(Vec<bool>, Vec<bool>)>),
    /// Select: single correctness.
    Correct(bool),
}

/// Evaluates `model` on the given **sorted** global rows of a sealed
/// store, shard-parallel: every shard decodes its rows a micro-batch at a
/// time, runs the inference forward over each and scores every example's
/// logits in place into mergeable per-group [`MetricsAccumulator`]
/// partials; the partials reduce in shard order, so the reports do not
/// depend on the shard count. Records without gold for a task are
/// skipped for that task.
pub fn evaluate_store(
    model: &CompiledModel,
    store: &ShardedStore,
    rows: &[u32],
    space: &FeatureSpace,
) -> overton_store::Result<Evaluation> {
    type Grouped = BTreeMap<String, BTreeMap<String, MetricsAccumulator>>;
    let schema = store.schema();
    let partials = store.par_scan_rows(rows, |scan| {
        let mut grouped: Grouped = BTreeMap::new();
        let mut records = scan.records().peekable();
        while records.peek().is_some() {
            let chunk: Vec<(usize, Record)> = records
                .by_ref()
                .take(MAX_BATCH)
                .map(|(i, record)| record.map(|record| (i, record)))
                .collect::<overton_store::Result<_>>()?;
            let examples: Vec<CompiledExample> = chunk
                .iter()
                .map(|(i, record)| CompiledExample::from_record(record, *i, space, schema))
                .collect();
            model.infer(&examples, |b, logits| {
                let record = &chunk[b].1;
                for head in logits.heads() {
                    let task = &head.head.task;
                    let Some(def) = schema.tasks.get(task) else { continue };
                    let Some(gold) = record.gold(task) else { continue };
                    let Some(scored) = score_one(&def.kind, &head, gold) else { continue };
                    let per_task = grouped.entry(task.clone()).or_default();
                    for group in &record.tags {
                        accumulate(per_task, group.clone(), &scored);
                    }
                    accumulate(per_task, "overall".to_string(), &scored);
                }
            });
        }
        Ok(grouped)
    })?;

    let mut grouped: Grouped = BTreeMap::new();
    for shard_grouped in partials {
        for (task, groups) in shard_grouped {
            let per_task = grouped.entry(task).or_default();
            for (group, acc) in groups {
                match per_task.get_mut(&group) {
                    Some(existing) => existing.merge(&acc),
                    None => {
                        per_task.insert(group, acc);
                    }
                }
            }
        }
    }

    let mut reports = BTreeMap::new();
    for (task, groups) in grouped {
        let mut report = QualityReport::new(&task);
        if let Some(acc) = groups.get("overall") {
            report.push("overall", acc.finalize());
        }
        for (group, acc) in &groups {
            if group != "overall" {
                report.push(group, acc.finalize());
            }
        }
        reports.insert(task, report);
    }
    Ok(Evaluation { reports })
}

/// Feeds one scored example into the right per-group accumulator,
/// creating it with the matching shape on first touch.
fn accumulate(per_task: &mut BTreeMap<String, MetricsAccumulator>, group: String, scored: &Scored) {
    let acc = per_task.entry(group).or_insert_with(|| match scored {
        Scored::Multiclass(_, k) => MetricsAccumulator::multiclass(*k),
        Scored::Bits(_) => MetricsAccumulator::bits(),
        Scored::Correct(_) => MetricsAccumulator::binary(),
    });
    match scored {
        Scored::Multiclass(pairs, _) => acc.record_multiclass(pairs),
        Scored::Bits(rows) => acc.record_bits(rows),
        Scored::Correct(c) => acc.record_binary(*c),
    }
}

/// Scores one head's logits against gold; `None` when the task kind, the
/// head's decode and the gold label do not fit together, or a sequence's
/// length differs from its gold's.
fn score_one(kind: &TaskKind, head: &HeadLogits, gold: &TaskLabel) -> Option<Scored> {
    let gold_row = |labels: &[String], set: &[String]| -> Vec<bool> {
        labels.iter().map(|l| set.iter().any(|b| b == l)).collect()
    };
    match (kind, head.head.decode, gold) {
        (
            TaskKind::Multiclass { classes },
            Decode::Single { bce: false },
            TaskLabel::MulticlassOne(g),
        ) => {
            let gold_idx = classes.iter().position(|c| c == g)?;
            Some(Scored::Multiclass(vec![(head.argmax(), gold_idx)], classes.len()))
        }
        (
            TaskKind::Multiclass { classes },
            Decode::PerElement { bce: false },
            TaskLabel::MulticlassSeq(golds),
        ) => {
            if head.rows().len() != golds.len() {
                return None;
            }
            let pairs: Option<Vec<(usize, usize)>> = (head.row_argmax().zip(golds))
                .map(|(p, g)| classes.iter().position(|c| c == g).map(|gi| (p, gi)))
                .collect();
            Some(Scored::Multiclass(pairs?, classes.len()))
        }
        (
            TaskKind::Bitvector { labels },
            Decode::Single { bce: true },
            TaskLabel::BitvectorOne(gold_bits),
        ) => Some(Scored::Bits(vec![(head.bits().collect(), gold_row(labels, gold_bits))])),
        (
            TaskKind::Bitvector { labels },
            Decode::PerElement { bce: true },
            TaskLabel::BitvectorSeq(gold_rows),
        ) => {
            if head.rows().len() != gold_rows.len() {
                return None;
            }
            let pairs = (head.row_bits().zip(gold_rows))
                .map(|(p, g)| (p.collect(), gold_row(labels, g)))
                .collect();
            Some(Scored::Bits(pairs))
        }
        (TaskKind::Select, Decode::Select, TaskLabel::Select(gold_idx)) => {
            Some(Scored::Correct(head.argmax() == *gold_idx))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::network::CompiledModel;
    use crate::serve::{DeployableModel, ServedOutput, Server};
    use overton_nlp::{generate_workload, WorkloadConfig};
    use overton_store::Dataset;

    fn setup() -> (Dataset, ShardedStore, FeatureSpace, CompiledModel) {
        let ds = generate_workload(&WorkloadConfig {
            n_train: 50,
            n_dev: 20,
            n_test: 60,
            seed: 31,
            slice_rate: 0.25,
            ..Default::default()
        });
        let store = ds.seal();
        let space = FeatureSpace::build_from_store(&store).unwrap();
        let model = CompiledModel::compile(ds.schema(), &space, &ModelConfig::default(), None);
        (ds, store, space, model)
    }

    fn evaluate_test(
        store: &ShardedStore,
        space: &FeatureSpace,
        model: &CompiledModel,
    ) -> Evaluation {
        evaluate_store(model, store, store.index().test_rows(), space).unwrap()
    }

    #[test]
    fn untrained_model_produces_reports_for_all_tasks() {
        let (ds, store, space, model) = setup();
        let eval = evaluate_test(&store, &space, &model);
        for task in ["Intent", "POS", "EntityType", "IntentArg"] {
            let report = &eval.reports[task];
            let overall = report.overall().expect("overall row");
            assert!(overall.count > 0);
            assert!((0.0..=1.0).contains(&overall.accuracy));
        }
        // Every test row with gold is scored.
        let gold = |i: &&usize| ds.records()[**i].gold("Intent").is_some();
        let with_gold = ds.test_indices().iter().filter(gold).count();
        assert_eq!(eval.reports["Intent"].overall().map(|m| m.count), Some(with_gold));
    }

    #[test]
    fn slice_rows_appear() {
        let (_, store, space, model) = setup();
        let eval = evaluate_test(&store, &space, &model);
        let report = &eval.reports["IntentArg"];
        assert!(
            report.group("slice:complex-disambiguation").is_some(),
            "rows: {:?}",
            report.rows.iter().map(|r| &r.group).collect::<Vec<_>>()
        );
        assert!(eval.slice_accuracy("IntentArg", "complex-disambiguation").is_some());
    }

    #[test]
    fn slice_lookups_find_the_rows_keyed_by_record_slice_tags() {
        // Report rows are keyed by the records' own tags, which the store
        // spells with its prefix; the lookups spell the key with the
        // monitor's. The two must agree for every declared slice.
        assert_eq!(SLICE_PREFIX, overton_store::SLICE_PREFIX);
        let (_, store, space, model) = setup();
        let eval = evaluate_test(&store, &space, &model);
        let report = &eval.reports["IntentArg"];
        for slice in store.index().slice_names() {
            let tag = format!("{}{slice}", overton_store::SLICE_PREFIX);
            let metrics = eval.slice_metrics("IntentArg", &slice);
            assert_eq!(metrics.as_ref(), report.group(&tag), "{slice}");
            assert_eq!(eval.slice_accuracy("IntentArg", &slice), metrics.map(|m| m.accuracy));
        }
        assert_eq!(eval.slice_metrics("IntentArg", "no-such-slice"), None);
        assert_eq!(eval.slice_metrics("NoSuchTask", "complex-disambiguation"), None);
    }

    #[test]
    fn train_tag_rows_appear_when_training_records_evaluated() {
        let (_, store, space, model) = setup();
        // Train records lack gold labels, so evaluating them adds nothing.
        let eval = evaluate_store(&model, &store, store.index().train_rows(), &space).unwrap();
        assert!(eval.reports.is_empty() || eval.accuracy("Intent") == 0.0);
    }

    #[test]
    fn evaluation_is_shard_count_invariant() {
        let (ds, _, space, model) = setup();
        let reference = evaluate_test(&ds.seal_shards(1), &space, &model);
        for shards in [4, 7] {
            let store = ds.seal_shards(shards).with_scan_workers(2);
            let sharded = evaluate_test(&store, &space, &model);
            assert_eq!(sharded.reports, reference.reports, "{shards} shards");
        }
    }

    #[test]
    fn evaluation_matches_a_per_row_recount() {
        // Recount IntentArg (a select task) overall and per slice straight
        // from the served responses against each record's gold index.
        let (ds, store, space, model) = setup();
        let eval = evaluate_test(&store, &space, &model);
        let server = Server::load(&DeployableModel::package(&model, &space, BTreeMap::new()));
        let records: Vec<Record> =
            ds.test_indices().iter().map(|&i| ds.records()[i].clone()).collect();
        let mut counts: BTreeMap<String, (usize, usize)> = BTreeMap::new();
        for (record, response) in records.iter().zip(server.predict_batch(&records)) {
            let Some(TaskLabel::Select(gold)) = record.gold("IntentArg") else { continue };
            let response = response.expect("a test record is served");
            let Some(ServedOutput::Select { index, .. }) = response.tasks.get("IntentArg") else {
                panic!("no IntentArg output")
            };
            let groups = std::iter::once("overall".to_string())
                .chain(record.slices().map(|s| s.to_string()));
            for group in groups {
                let (correct, total) = counts.entry(group).or_default();
                *correct += usize::from(index == gold);
                *total += 1;
            }
        }
        assert!(counts.len() > 1, "the workload must put test rows in a slice: {counts:?}");
        for (group, (correct, total)) in counts {
            let metrics = if group == "overall" {
                eval.reports["IntentArg"].overall().copied()
            } else {
                eval.slice_metrics("IntentArg", &group)
            }
            .unwrap_or_else(|| panic!("no {group} row"));
            assert_eq!(metrics.count, total, "{group}");
            assert!((metrics.accuracy - correct as f64 / total as f64).abs() < 1e-12, "{group}");
        }
    }

    #[test]
    fn accuracy_accessor_defaults_to_zero() {
        let (_, store, space, model) = setup();
        let eval = evaluate_test(&store, &space, &model);
        assert_eq!(eval.accuracy("NoSuchTask"), 0.0);
    }
}
