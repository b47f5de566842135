//! Workspace-graph smoke test: runs the quickstart path end-to-end on a
//! tiny workload. If any crate wiring regresses — a broken re-export, a
//! dropped dependency edge, an API drift between `overton-nlp`,
//! `overton-supervision`, `overton-model` and the `overton` facade — this
//! fails fast, before the heavier integration tests get a chance to.

use overton::{OvertonOptions, Project};
use overton_model::TrainConfig;
use overton_nlp::{generate_workload, WorkloadConfig};

#[test]
fn quickstart_path_end_to_end() {
    // Tiny but real: enough records for the label model and one train run.
    let dataset = generate_workload(&WorkloadConfig {
        n_train: 60,
        n_dev: 16,
        n_test: 16,
        seed: 42,
        ..Default::default()
    });
    assert_eq!(dataset.len(), 60 + 16 + 16);
    assert!(!dataset.slice_names().is_empty(), "workload declares slices");

    let options = OvertonOptions {
        train: TrainConfig { epochs: 2, ..Default::default() },
        ..Default::default()
    };
    let built =
        Project::from_dataset(&dataset).with_options(options).run().expect("tiny run succeeds");

    // Every schema task got evaluated, and accuracies are probabilities.
    for task in dataset.schema().tasks.keys() {
        let acc = built.test_accuracy(task);
        assert!((0.0..=1.0).contains(&acc), "task {task} accuracy {acc} out of range");
    }

    // The packaged artifact round-trips through its serialized form.
    let artifact = built.artifact().expect("a complete run packages an artifact");
    let back = overton_model::DeployableModel::from_bytes(&artifact.to_bytes())
        .expect("artifact deserializes");
    assert_eq!(back.signature, artifact.signature);
}
