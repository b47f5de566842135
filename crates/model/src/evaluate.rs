//! Evaluation against gold labels, with per-tag and per-slice reports.
//!
//! This produces the fine-grained quality reports that are an Overton
//! engineer's main interface: overall metrics plus one row per tag and per
//! slice, for every task (paper §2.2, "Overton reports the accuracy
//! conditioned on an example being in the slice").

use crate::features::{CompiledExample, FeatureSpace};
use crate::infer::MAX_BATCH;
use crate::network::{CompiledModel, Prediction, TaskOutput};
use overton_monitor::{
    multiclass_metrics, Metrics, MetricsAccumulator, QualityReport, SLICE_PREFIX,
};
use overton_store::{Dataset, Record, ShardedStore, TaskKind, TaskLabel};
use std::collections::BTreeMap;

/// Evaluation output: one report per task plus the raw predictions.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Per-task quality reports (rows: `overall`, tags, slices).
    pub reports: BTreeMap<String, QualityReport>,
    /// `(record index, prediction)` pairs in evaluation order.
    pub predictions: Vec<(usize, Prediction)>,
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

/// Evaluates `model` on the given record indices of `dataset`, scoring
/// against gold labels (records without gold for a task are skipped for
/// that task).
pub fn evaluate(
    model: &CompiledModel,
    dataset: &Dataset,
    indices: &[usize],
    space: &FeatureSpace,
) -> Evaluation {
    let schema = dataset.schema();
    let mut predictions = Vec::with_capacity(indices.len());
    // Per task, per group: accumulated scored pairs.
    let mut grouped: BTreeMap<String, BTreeMap<String, Vec<Scored>>> = BTreeMap::new();

    let examples: Vec<CompiledExample> = indices
        .iter()
        .map(|&i| CompiledExample::from_record(&dataset.records()[i], i, space, schema))
        .collect();
    for (&i, prediction) in indices.iter().zip(model.predict_batch(&examples)) {
        let record = &dataset.records()[i];
        for (task, def) in &schema.tasks {
            let Some(output) = prediction.tasks.get(task) else { continue };
            let Some(gold) = record.gold(task) else { continue };
            let Some(scored) = score_one(def.kind.clone(), output, gold) else { continue };
            let groups = record_groups(record);
            let per_task = grouped.entry(task.clone()).or_default();
            for group in groups {
                per_task.entry(group).or_default().push(clone_scored(&scored));
            }
            per_task.entry("overall".into()).or_default().push(scored);
        }
        predictions.push((i, prediction));
    }

    let mut reports = BTreeMap::new();
    for (task, groups) in grouped {
        let mut report = QualityReport::new(&task);
        // `overall` first, then the rest sorted.
        if let Some(scored) = groups.get("overall") {
            report.push("overall", reduce(scored));
        }
        for (group, scored) in &groups {
            if group != "overall" {
                report.push(group, reduce(scored));
            }
        }
        reports.insert(task, report);
    }
    Evaluation { reports, predictions }
}

/// Evaluates `model` on the given **sorted** global rows of a sealed
/// store, shard-parallel: every shard decodes its rows, runs the batched
/// forward over them a micro-batch at a time, and scores into mergeable per-group
/// [`MetricsAccumulator`] partials; the partials reduce in shard order, so
/// the reports (and the prediction order) are identical to the sequential
/// [`evaluate`] over the equivalent dataset.
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
        let mut predictions = Vec::with_capacity(scan.len());
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
            for ((i, record), prediction) in chunk.iter().zip(model.predict_batch(&examples)) {
                for (task, def) in &schema.tasks {
                    let Some(output) = prediction.tasks.get(task) else { continue };
                    let Some(gold) = record.gold(task) else { continue };
                    let Some(scored) = score_one(def.kind.clone(), output, gold) else { continue };
                    let per_task = grouped.entry(task.clone()).or_default();
                    for group in record_groups(record) {
                        accumulate(per_task, group, &scored);
                    }
                    accumulate(per_task, "overall".to_string(), &scored);
                }
                predictions.push((*i, prediction));
            }
        }
        Ok((grouped, predictions))
    })?;

    let mut grouped: Grouped = BTreeMap::new();
    let mut predictions = Vec::new();
    for (shard_grouped, shard_predictions) in partials {
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
        predictions.extend(shard_predictions);
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
    Ok(Evaluation { reports, predictions })
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

fn record_groups(record: &overton_store::Record) -> Vec<String> {
    record.tags.iter().cloned().collect()
}

fn clone_scored(s: &Scored) -> Scored {
    match s {
        Scored::Multiclass(pairs, k) => Scored::Multiclass(pairs.clone(), *k),
        Scored::Bits(rows) => Scored::Bits(rows.clone()),
        Scored::Correct(c) => Scored::Correct(*c),
    }
}

fn score_one(kind: TaskKind, output: &TaskOutput, gold: &TaskLabel) -> Option<Scored> {
    match (kind, output, gold) {
        (
            TaskKind::Multiclass { classes },
            TaskOutput::Multiclass { class, .. },
            TaskLabel::MulticlassOne(g),
        ) => {
            let gold_idx = classes.iter().position(|c| c == g)?;
            Some(Scored::Multiclass(vec![(*class, gold_idx)], classes.len()))
        }
        (
            TaskKind::Multiclass { classes },
            TaskOutput::MulticlassSeq { classes: preds },
            TaskLabel::MulticlassSeq(golds),
        ) => {
            if preds.len() != golds.len() {
                return None;
            }
            let pairs: Option<Vec<(usize, usize)>> = preds
                .iter()
                .zip(golds)
                .map(|(p, g)| classes.iter().position(|c| c == g).map(|gi| (*p, gi)))
                .collect();
            Some(Scored::Multiclass(pairs?, classes.len()))
        }
        (
            TaskKind::Bitvector { labels },
            TaskOutput::Bits { bits, .. },
            TaskLabel::BitvectorOne(gold_bits),
        ) => {
            let gold_row: Vec<bool> =
                labels.iter().map(|l| gold_bits.iter().any(|b| b == l)).collect();
            Some(Scored::Bits(vec![(bits.clone(), gold_row)]))
        }
        (
            TaskKind::Bitvector { labels },
            TaskOutput::BitsSeq { rows },
            TaskLabel::BitvectorSeq(gold_rows),
        ) => {
            if rows.len() != gold_rows.len() {
                return None;
            }
            let pairs = rows
                .iter()
                .zip(gold_rows)
                .map(|(p, g)| {
                    let gold_row: Vec<bool> =
                        labels.iter().map(|l| g.iter().any(|b| b == l)).collect();
                    (p.clone(), gold_row)
                })
                .collect();
            Some(Scored::Bits(pairs))
        }
        (TaskKind::Select, TaskOutput::Select { index, .. }, TaskLabel::Select(gold_idx)) => {
            Some(Scored::Correct(index == gold_idx))
        }
        _ => None,
    }
}

fn reduce(scored: &[Scored]) -> Metrics {
    // All entries of one task share a variant; reduce accordingly.
    match scored.first() {
        None => Metrics::empty(),
        Some(Scored::Multiclass(_, k)) => {
            let k = *k;
            let mut preds = Vec::new();
            let mut golds = Vec::new();
            for s in scored {
                if let Scored::Multiclass(pairs, _) = s {
                    for (p, g) in pairs {
                        preds.push(*p);
                        golds.push(*g);
                    }
                }
            }
            let mut m = multiclass_metrics(k, &preds, &golds);
            m.count = scored.len();
            m
        }
        Some(Scored::Bits(_)) => {
            let mut preds = Vec::new();
            let mut golds = Vec::new();
            for s in scored {
                if let Scored::Bits(rows) = s {
                    for (p, g) in rows {
                        preds.push(p.clone());
                        golds.push(g.clone());
                    }
                }
            }
            let mut m = overton_monitor::bitvector_metrics(&preds, &golds);
            m.count = scored.len();
            m
        }
        Some(Scored::Correct(_)) => {
            let correct = scored.iter().filter(|s| matches!(s, Scored::Correct(true))).count();
            let accuracy = correct as f64 / scored.len() as f64;
            Metrics { count: scored.len(), accuracy, macro_f1: accuracy, micro_f1: accuracy }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::network::CompiledModel;
    use overton_nlp::{generate_workload, WorkloadConfig};

    fn setup() -> (Dataset, FeatureSpace, CompiledModel) {
        let ds = generate_workload(&WorkloadConfig {
            n_train: 50,
            n_dev: 20,
            n_test: 60,
            seed: 31,
            slice_rate: 0.25,
            ..Default::default()
        });
        let space = FeatureSpace::build(&ds);
        let model = CompiledModel::compile(ds.schema(), &space, &ModelConfig::default(), None);
        (ds, space, model)
    }

    #[test]
    fn untrained_model_produces_reports_for_all_tasks() {
        let (ds, space, model) = setup();
        let eval = evaluate(&model, &ds, &ds.test_indices(), &space);
        for task in ["Intent", "POS", "EntityType", "IntentArg"] {
            let report = &eval.reports[task];
            let overall = report.overall().expect("overall row");
            assert!(overall.count > 0);
            assert!((0.0..=1.0).contains(&overall.accuracy));
        }
        assert_eq!(eval.predictions.len(), ds.test_indices().len());
    }

    #[test]
    fn slice_rows_appear() {
        let (ds, space, model) = setup();
        let eval = evaluate(&model, &ds, &ds.test_indices(), &space);
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
        let (ds, space, model) = setup();
        let eval = evaluate(&model, &ds, &ds.test_indices(), &space);
        let report = &eval.reports["IntentArg"];
        for slice in ds.slice_names() {
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
        let (ds, space, model) = setup();
        // Train records lack gold labels, so evaluating them adds nothing.
        let eval = evaluate(&model, &ds, &ds.train_indices(), &space);
        assert!(eval.reports.is_empty() || eval.accuracy("Intent") == 0.0);
    }

    #[test]
    fn store_evaluation_matches_sequential() {
        let (ds, space, model) = setup();
        let sequential = evaluate(&model, &ds, &ds.test_indices(), &space);
        for shards in [1, 4] {
            let store = ds.seal_shards(shards).with_scan_workers(2);
            let rows: Vec<u32> = store.index().test_rows().to_vec();
            let sharded = evaluate_store(&model, &store, &rows, &space).unwrap();
            assert_eq!(sharded.reports, sequential.reports, "{shards} shards");
            let seq_order: Vec<usize> = sequential.predictions.iter().map(|(i, _)| *i).collect();
            let par_order: Vec<usize> = sharded.predictions.iter().map(|(i, _)| *i).collect();
            assert_eq!(seq_order, par_order);
        }
    }

    #[test]
    fn accuracy_accessor_defaults_to_zero() {
        let (ds, space, model) = setup();
        let eval = evaluate(&model, &ds, &ds.test_indices(), &space);
        assert_eq!(eval.accuracy("NoSuchTask"), 0.0);
    }
}
