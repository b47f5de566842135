//! Integration: slice-based learning mechanics across crates (small-scale
//! version of experiment E4).

use overton::{OvertonOptions, Project, Run};
use overton_model::{ModelConfig, Server, TrainConfig};
use overton_nlp::{generate_workload, SourceSpec, WorkloadConfig};

fn slice_workload(seed: u64) -> overton_store::Dataset {
    generate_workload(&WorkloadConfig {
        n_train: 700,
        n_dev: 120,
        n_test: 300,
        seed,
        slice_rate: 0.10,
        arg_sources: vec![
            SourceSpec::new("lf_default_sense", 1.0, 1.0),
            SourceSpec::new("lf_heuristic", 0.9, 0.9),
            SourceSpec::new("crowd_arg", 0.95, 0.5),
        ],
        ..Default::default()
    })
}

fn run(dataset: &overton_store::Dataset, slice_heads: bool) -> Run {
    Project::from_dataset(dataset)
        .with_options(OvertonOptions {
            base_model: ModelConfig { slice_heads, ..Default::default() },
            train: TrainConfig { epochs: 5, early_stop_patience: 0, ..Default::default() },
            ..Default::default()
        })
        .run()
        .expect("run")
}

#[test]
fn slice_reports_exist_and_monitoring_ranks_them() {
    let dataset = slice_workload(71);
    let built = run(&dataset, true);
    // Per-slice rows must exist for the tasks the slice affects.
    let evaluation = built.evaluation().unwrap();
    assert!(evaluation.slice_accuracy("IntentArg", "complex-disambiguation").is_some());
    let ranked = built.worst_slices(5);
    assert!(!ranked.is_empty());
    // The hardest slice for IntentArg should be complex-disambiguation.
    let arg_slices: Vec<&str> =
        ranked.iter().filter(|d| d.task == "IntentArg").map(|d| d.slice.as_str()).collect();
    assert!(arg_slices.contains(&"complex-disambiguation"));
}

#[test]
fn slice_heads_do_not_hurt_overall_quality() {
    let dataset = slice_workload(74);
    let with = run(&dataset, true);
    let without = run(&dataset, false);
    // Paper: per-slice capacity must not degrade aggregate quality. Allow
    // small noise at this scale.
    assert!(
        with.test_accuracy("IntentArg") >= without.test_accuracy("IntentArg") - 0.05,
        "with {:.3} vs without {:.3}",
        with.test_accuracy("IntentArg"),
        without.test_accuracy("IntentArg")
    );
}

#[test]
fn indicator_heads_learn_slice_membership() {
    let dataset = slice_workload(73);
    let built = run(&dataset, true);
    let artifact = built.artifact().unwrap();
    let slice_idx = (artifact.space.slice_names.iter())
        .position(|s| s == "complex-disambiguation")
        .expect("slice exists");
    // Mean predicted membership probability, as the packaged artifact
    // serves it over the run's test rows, must be higher on in-slice test
    // records than out-of-slice ones.
    let records: Vec<_> = (built.store().index().test_rows().iter())
        .map(|&row| dataset.records()[row as usize].clone())
        .collect();
    let mut in_probs = Vec::new();
    let mut out_probs = Vec::new();
    for (record, response) in records.iter().zip(Server::load(artifact).predict_batch(&records)) {
        let (name, p) = response.expect("a test record is served").slices[slice_idx].clone();
        assert_eq!(&*name, "complex-disambiguation");
        if record.in_slice("complex-disambiguation") {
            in_probs.push(p);
        } else {
            out_probs.push(p);
        }
    }
    let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len().max(1) as f32;
    assert!(
        mean(&in_probs) > mean(&out_probs) + 0.1,
        "indicator separation too weak: in {:.3} vs out {:.3}",
        mean(&in_probs),
        mean(&out_probs)
    );
}
