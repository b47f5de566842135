//! Shared experiment harness for reproducing the paper's tables and
//! figures. Each `benches/*.rs` target (harness = false) regenerates one
//! artifact; this crate holds the common machinery: product definitions at
//! different resource levels, the pre-Overton baseline system, and the
//! composite end-to-end error metric.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

use overton::{OvertonOptions, Project, Run};
use overton_model::{
    evaluate_store, prepare_store, train_model, CompiledModel, EncoderKind, ModelConfig,
    TrainConfig,
};
use overton_nlp::{SourceSpec, WorkloadConfig};
use overton_store::{Dataset, Schema};
use overton_supervision::CombineMethod;
use std::collections::BTreeMap;

/// The four resource levels of Figure 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResourceLevel {
    /// Tens of engineers, large budget, large existing training sets.
    High,
    /// Mid-size team, some annotators.
    MediumA,
    /// Mid-size team, almost no annotators.
    MediumB,
    /// Small team, weak sources only.
    Low,
}

impl ResourceLevel {
    /// Display name matching the paper's table.
    pub fn name(self) -> &'static str {
        match self {
            ResourceLevel::High => "High",
            ResourceLevel::MediumA => "Medium",
            ResourceLevel::MediumB => "Medium",
            ResourceLevel::Low => "Low",
        }
    }

    /// The workload backing a product at this resource level. Resourcing
    /// controls training-set size, annotator budget (gold fraction) and
    /// weak-source quality.
    pub fn workload(self, seed: u64) -> WorkloadConfig {
        let base = WorkloadConfig { n_dev: 250, n_test: 600, seed, ..Default::default() };
        match self {
            ResourceLevel::High => {
                WorkloadConfig { n_train: 4000, gold_train_fraction: 0.20, ..base }
            }
            ResourceLevel::MediumA => {
                WorkloadConfig { n_train: 2200, gold_train_fraction: 0.04, ..base }
            }
            ResourceLevel::MediumB => {
                WorkloadConfig { n_train: 1600, gold_train_fraction: 0.02, ..base }
            }
            ResourceLevel::Low => WorkloadConfig {
                n_train: 900,
                gold_train_fraction: 0.01,
                // The classic low-resource regime: no annotators, but
                // many cheap, individually-crummy labeling functions.
                intent_sources: vec![
                    SourceSpec::new("lf_keyword", 0.68, 0.85),
                    SourceSpec::new("lf_pattern", 0.62, 0.80),
                    SourceSpec::new("lf_guess", 0.58, 0.75),
                    SourceSpec::new("lf_regex", 0.60, 0.80),
                    SourceSpec::new("lf_embed", 0.55, 0.70),
                ],
                pos_sources: vec![
                    SourceSpec::new("spacy_sim", 0.85, 1.0),
                    SourceSpec::new("lf_lexicon", 0.65, 0.8),
                ],
                type_sources: vec![SourceSpec::new("eproj", 0.78, 0.9)],
                arg_sources: vec![
                    SourceSpec::new("lf_default_sense", 1.0, 1.0),
                    SourceSpec::new("lf_heuristic", 0.72, 0.9),
                    SourceSpec::stochastic("crowd_arg", 0.80, 0.45),
                ],
                ..base
            },
        }
    }
}

/// Standard Overton options used across experiments (no search — search is
/// its own ablation; experiments isolate one variable at a time).
pub fn overton_options(epochs: usize) -> OvertonOptions {
    OvertonOptions {
        train: TrainConfig { epochs, early_stop_patience: 0, ..Default::default() },
        ..Default::default()
    }
}

/// Builds the full Overton system on a dataset.
pub fn build_overton(dataset: &Dataset, epochs: usize) -> Run {
    Project::from_dataset(dataset).with_options(overton_options(epochs)).run().expect("overton run")
}

/// The primary production heuristic per task — the single source a legacy
/// pipeline is built around (a legacy system has no supervision
/// management, so it cannot combine its sources).
pub fn primary_source(task: &str) -> &'static str {
    match task {
        "Intent" => "lf_keyword",
        "POS" => "spacy_sim",
        "EntityType" => "eproj",
        "IntentArg" => "lf_default_sense",
        _ => "gold",
    }
}

/// The "previous production system" baseline (paper §3: "systems that
/// Overton models replace are typically deep models and heuristics ...
/// in our estimation because there is no model independence"):
/// independent single-task models, each trained on its **primary heuristic
/// source** (no label model — the legacy system cannot resolve conflicting
/// supervision), no slice-based learning, fixed small architecture, no
/// search. Gold labels, where annotators provided them, are used by both
/// systems.
///
/// Returns per-task test accuracy.
pub fn build_baseline(dataset: &Dataset, epochs: usize) -> BTreeMap<String, f64> {
    let mut per_task = BTreeMap::new();
    for task in dataset.schema().tasks.keys() {
        let sub_schema = single_task_schema(dataset.schema(), task);
        let sub_dataset = retarget(dataset, &sub_schema);
        let method = if sub_dataset.sources_for_task(task).iter().any(|s| s == primary_source(task))
        {
            CombineMethod::SingleSource(primary_source(task).to_string())
        } else {
            CombineMethod::MajorityVote
        };
        let store = sub_dataset.seal();
        let prepared = prepare_store(&store, &method).expect("baseline prepare");
        let config =
            ModelConfig { encoder: EncoderKind::MeanBag, slice_heads: false, ..Default::default() };
        let mut model = CompiledModel::compile(&sub_schema, &prepared.space, &config, None);
        train_model(
            &mut model,
            &prepared.train,
            &prepared.dev,
            &TrainConfig { epochs, early_stop_patience: 0, ..Default::default() },
        );
        let eval = evaluate_store(&model, &store, store.index().test_rows(), &prepared.space)
            .expect("baseline evaluate");
        per_task.insert(task.clone(), eval.accuracy(task));
    }
    per_task
}

/// A schema restricted to one task (payloads are kept; a single-task model
/// cannot share representations with other tasks).
pub fn single_task_schema(schema: &Schema, task: &str) -> Schema {
    let mut out = schema.clone();
    out.tasks.retain(|name, _| name == task);
    out
}

/// Clones a dataset under a (task-restricted) schema, dropping labels for
/// removed tasks.
pub fn retarget(dataset: &Dataset, schema: &Schema) -> Dataset {
    let mut out = Dataset::new(schema.clone());
    for record in dataset.records() {
        let mut r = record.clone();
        r.tasks.retain(|task, _| schema.tasks.contains_key(task));
        out.push_unchecked(r);
    }
    out
}

/// End-to-end per-query error: a factoid query is answered correctly iff
/// BOTH the intent and its argument are right (the paper's running example
/// is an end-to-end product; any stage failing fails the query).
pub fn end_to_end_error(intent_acc: f64, arg_acc: f64, joint: Option<f64>) -> f64 {
    match joint {
        Some(j) => 1.0 - j,
        // Independence approximation when joint accuracy is unavailable
        // (the baseline's separate models make joint bookkeeping awkward).
        None => 1.0 - intent_acc * arg_acc,
    }
}

/// Joint Intent+IntentArg accuracy of a completed Overton run on the test
/// split, scored on the responses its packaged artifact serves.
pub fn joint_accuracy(built: &Run, dataset: &Dataset) -> f64 {
    use overton_model::{ServedOutput, Server};
    use overton_store::TaskLabel;
    let Some(artifact) = built.artifact() else { return 0.0 };
    let records: Vec<_> = (built.store().index().test_rows().iter())
        .map(|&row| dataset.records()[row as usize].clone())
        .collect();
    let mut correct = 0usize;
    let mut total = 0usize;
    for (record, response) in records.iter().zip(Server::load(artifact).predict_batch(&records)) {
        let Some(TaskLabel::MulticlassOne(gold_intent)) = record.gold("Intent") else { continue };
        let Some(TaskLabel::Select(gold_arg)) = record.gold("IntentArg") else { continue };
        total += 1;
        let Ok(response) = response else { continue };
        let intent_ok = matches!(
            response.tasks.get("Intent"),
            Some(ServedOutput::Multiclass { class, .. }) if **class == **gold_intent
        );
        let arg_ok = matches!(
            response.tasks.get("IntentArg"),
            Some(ServedOutput::Select { index, .. }) if index == gold_arg
        );
        if intent_ok && arg_ok {
            correct += 1;
        }
    }
    if total == 0 {
        0.0
    } else {
        correct as f64 / total as f64
    }
}

/// Prints a fixed-width table row (used by all figure harnesses).
pub fn print_row(cells: &[String], widths: &[usize]) {
    let mut line = String::new();
    for (cell, w) in cells.iter().zip(widths) {
        line.push_str(&format!("{cell:>w$}  "));
    }
    println!("{}", line.trim_end());
}

#[cfg(test)]
mod tests {
    use super::*;
    use overton_nlp::generate_workload;

    #[test]
    fn resource_levels_scale_down() {
        let high = ResourceLevel::High.workload(0);
        let low = ResourceLevel::Low.workload(0);
        assert!(high.n_train > low.n_train);
        assert!(high.gold_train_fraction > low.gold_train_fraction);
        // Low-resource teams compensate with MORE, crummier LFs; their best
        // source is still worse than the high tier's best.
        let best = |cfg: &WorkloadConfig| {
            cfg.intent_sources.iter().map(|s| s.accuracy).fold(0.0f64, f64::max)
        };
        assert!(best(&high) > best(&low));
    }

    #[test]
    fn baseline_builds_per_task_models() {
        let ds = generate_workload(&WorkloadConfig {
            n_train: 120,
            n_dev: 30,
            n_test: 40,
            seed: 2,
            ..Default::default()
        });
        let accs = build_baseline(&ds, 2);
        assert_eq!(accs.len(), 4);
        for (task, acc) in &accs {
            assert!((0.0..=1.0).contains(acc), "{task}: {acc}");
        }
    }

    #[test]
    fn joint_accuracy_bounded_by_task_accuracies() {
        let ds = generate_workload(&WorkloadConfig {
            n_train: 200,
            n_dev: 40,
            n_test: 60,
            seed: 3,
            ..Default::default()
        });
        let built = build_overton(&ds, 3);
        let joint = joint_accuracy(&built, &ds);
        assert!(joint <= built.test_accuracy("Intent") + 1e-9);
        assert!(joint <= built.test_accuracy("IntentArg") + 1e-9);
    }

    #[test]
    fn end_to_end_error_prefers_joint() {
        assert!((end_to_end_error(0.9, 0.9, None) - (1.0 - 0.81)).abs() < 1e-12);
        assert!((end_to_end_error(0.9, 0.9, Some(0.85)) - 0.15).abs() < 1e-12);
    }
}
