//! High-level build step: dataset → combined supervision → model-ready
//! examples.
//!
//! This is the "Combine Supervision" box of Figure 1 wired to feature
//! extraction: every task's sources are resolved by the configured
//! combiner; training records get probabilistic targets (gold labels, when
//! an annotator provided them, take precedence); dev records get gold
//! one-hot targets for model selection.

use crate::features::{gold_to_prob, CompiledExample, FeatureSpace};
use overton_store::ShardedStore;
use overton_supervision::{combine_all, CombineError, CombineMethod, SourceDiagnostics};
use std::collections::BTreeMap;

/// Everything needed to train: the feature space, train/dev examples, and
/// per-task source diagnostics (estimated accuracies, coverage).
#[derive(Debug, Clone)]
pub struct PreparedData {
    /// Shared vocabularies and slice space.
    pub space: FeatureSpace,
    /// Training examples with probabilistic targets.
    pub train: Vec<CompiledExample>,
    /// Dev examples with gold targets.
    pub dev: Vec<CompiledExample>,
    /// Per-task combiner diagnostics.
    pub diagnostics: BTreeMap<String, Vec<SourceDiagnostics>>,
}

/// Combines supervision for every task and materializes train/dev
/// examples from a sealed [`ShardedStore`] (an eager
/// [`Dataset`](overton_store::Dataset) enters via `dataset.seal()`): one
/// shard-parallel scan combines every task ([`combine_all`]), another
/// builds the feature space, and the train/dev splits (resolved from the
/// seal-time index, not a tag scan) encode per shard in parallel. Targets follow the eager rules exactly:
/// annotator gold overrides the weak combination on training records; dev
/// records carry gold only.
pub fn prepare_store(
    store: &ShardedStore,
    method: &CombineMethod,
) -> Result<PreparedData, CombineError> {
    let space = FeatureSpace::build_from_store(store)?;
    prepare_store_with_space(store, method, space)
}

/// [`prepare_store`] with a caller-supplied [`FeatureSpace`] instead of
/// one rebuilt from the rows. This is the incremental-retrain path: a
/// warm-started run must encode new data in the *previous* run's space so
/// the persisted weights keep their meaning (vocabularies map unseen
/// tokens to `<unk>`, so fresh delta rows encode safely; slice membership
/// is limited to the slices the space already names).
pub fn prepare_store_with_space(
    store: &ShardedStore,
    method: &CombineMethod,
    space: FeatureSpace,
) -> Result<PreparedData, CombineError> {
    let schema = store.schema();
    let combined = combine_all(store, method)?;
    let diagnostics: BTreeMap<String, Vec<SourceDiagnostics>> =
        combined.iter().map(|(task, result)| (task.clone(), result.sources.clone())).collect();

    let encode_split =
        |rows: &[u32], with_weak: bool| -> Result<Vec<CompiledExample>, CombineError> {
            let partials = store
                .par_scan_rows(rows, |scan| {
                    let mut out = Vec::with_capacity(scan.len());
                    for (i, record) in scan.records() {
                        let record = record?;
                        let mut example = CompiledExample::from_record(&record, i, &space, schema);
                        for task in schema.tasks.keys() {
                            // Annotator gold (when present) overrides the weak
                            // combination.
                            if let Some(gold) = gold_to_prob(schema, &record, task) {
                                example.targets.insert(task.clone(), gold);
                                continue;
                            }
                            if !with_weak {
                                continue;
                            }
                            if let Some(result) = combined.get(task) {
                                if let Some(label) = &result.labels[i] {
                                    example.targets.insert(task.clone(), label.clone());
                                }
                            }
                        }
                        out.push(example);
                    }
                    Ok(out)
                })
                .map_err(CombineError::Store)?;
            Ok(partials.into_iter().flatten().collect())
        };

    let train = encode_split(store.index().train_rows(), true)?;
    let dev = encode_split(store.index().dev_rows(), false)?;
    Ok(PreparedData { space, train, dev, diagnostics })
}

#[cfg(test)]
mod tests {
    use super::*;
    use overton_nlp::{generate_workload, WorkloadConfig};
    use overton_store::Dataset;

    fn workload(gold_fraction: f64) -> Dataset {
        generate_workload(&WorkloadConfig {
            n_train: 80,
            n_dev: 20,
            n_test: 20,
            seed: 77,
            gold_train_fraction: gold_fraction,
            ..Default::default()
        })
    }

    #[test]
    fn prepare_attaches_targets() {
        let ds = workload(0.0);
        let prepared = prepare_store(&ds.seal(), &CombineMethod::default()).unwrap();
        assert_eq!(prepared.train.len(), 80);
        assert_eq!(prepared.dev.len(), 20);
        // Most training examples should have an Intent target (weak coverage
        // is high).
        let with_intent =
            prepared.train.iter().filter(|e| e.targets.contains_key("Intent")).count();
        assert!(with_intent > 60, "{with_intent} examples have Intent targets");
        // Dev examples carry gold targets for every task.
        for ex in &prepared.dev {
            assert_eq!(ex.targets.len(), 4, "dev targets: {:?}", ex.targets.keys());
        }
        // Diagnostics exist for all four tasks.
        assert_eq!(prepared.diagnostics.len(), 4);
    }

    #[test]
    fn gold_overrides_weak_on_train() {
        let ds = workload(1.0);
        let prepared = prepare_store(&ds.seal(), &CombineMethod::default()).unwrap();
        // With full gold coverage every Intent target is one-hot.
        for ex in &prepared.train {
            if let Some(overton_supervision::ProbLabel::Dist(d)) = ex.targets.get("Intent") {
                let max = d.iter().copied().fold(0.0f32, f32::max);
                assert!((max - 1.0).abs() < 1e-6, "expected one-hot, got {d:?}");
            }
        }
    }

    #[test]
    fn prepare_store_is_shard_count_invariant() {
        // Per-shard partials concatenate in shard order, so the shard
        // count (and scan parallelism) must not change a single example.
        let ds = workload(0.3);
        let one = prepare_store(&ds.seal_shards(1), &CombineMethod::default()).unwrap();
        let store = ds.seal_shards(3).with_scan_workers(2);
        assert!(store.num_shards() > 1);
        let three = prepare_store(&store, &CombineMethod::default()).unwrap();
        assert_eq!(three.space.token_vocab.len(), one.space.token_vocab.len());
        assert_eq!(three.space.entity_vocab.len(), one.space.entity_vocab.len());
        assert_eq!(three.space.slice_names, one.space.slice_names);
        assert_eq!(three.train.len(), one.train.len());
        assert_eq!(three.dev.len(), one.dev.len());
        for (a, b) in three.train.iter().chain(&three.dev).zip(one.train.iter().chain(&one.dev)) {
            assert_eq!(a.record_index, b.record_index);
            assert_eq!(a.sequences, b.sequences);
            assert_eq!(a.sets, b.sets);
            assert_eq!(a.targets, b.targets);
            assert_eq!(a.slice_membership, b.slice_membership);
        }
        assert_eq!(format!("{:?}", three.diagnostics), format!("{:?}", one.diagnostics));
    }

    #[test]
    fn prepare_with_previous_space_encodes_new_rows_via_unk() {
        // Incremental retrain: encode a bigger store in the space built
        // from a smaller one. Same-space prepare must be identical to the
        // plain path; unseen tokens must map to <unk> without error.
        let old = workload(0.3);
        let old_store = old.seal_shards(2);
        let old_space = FeatureSpace::build_from_store(&old_store).unwrap();

        let same = prepare_store(&old_store, &CombineMethod::default()).unwrap();
        let reused =
            prepare_store_with_space(&old_store, &CombineMethod::default(), old_space.clone())
                .unwrap();
        assert_eq!(same.train.len(), reused.train.len());
        for (a, b) in same.train.iter().zip(&reused.train) {
            assert_eq!(a.sequences, b.sequences);
            assert_eq!(a.sets, b.sets);
        }

        let newer = generate_workload(&WorkloadConfig {
            n_train: 120,
            n_dev: 20,
            n_test: 20,
            seed: 991, // different seed: fresh token material
            ..Default::default()
        });
        let new_store = newer.seal_shards(2);
        let prepared =
            prepare_store_with_space(&new_store, &CombineMethod::default(), old_space.clone())
                .unwrap();
        assert_eq!(prepared.train.len(), 120);
        assert_eq!(prepared.space.token_vocab.len(), old_space.token_vocab.len());
        // Every encoded id is in the old vocab's range.
        for ex in &prepared.train {
            for ids in ex.sequences.values() {
                assert!(ids.iter().all(|&id| id < old_space.token_vocab.len()));
            }
        }
    }

    #[test]
    fn label_model_diagnostics_have_accuracies() {
        let ds = workload(0.0);
        let prepared = prepare_store(&ds.seal(), &CombineMethod::default()).unwrap();
        let intent = &prepared.diagnostics["Intent"];
        assert!(intent.iter().all(|d| d.estimated_accuracy.is_some()));
    }
}
