//! End-to-end integration: schema + data file → pipeline → deployable
//! artifact → serving, across all crates.

use overton::{OvertonOptions, Project, Run};
use overton_model::{ModelRegistry, ServedOutput, Server, TrainConfig};
use overton_nlp::{generate_workload, WorkloadConfig};
use overton_store::{Dataset, TaskLabel};
use std::collections::BTreeMap;
use std::sync::OnceLock;

fn quick_workload(seed: u64) -> Dataset {
    generate_workload(&WorkloadConfig {
        n_train: 300,
        n_dev: 60,
        n_test: 120,
        seed,
        ..Default::default()
    })
}

fn quick_options(epochs: usize) -> OvertonOptions {
    OvertonOptions {
        train: TrainConfig { epochs, early_stop_patience: 0, ..Default::default() },
        ..Default::default()
    }
}

fn run(dataset: &Dataset, options: OvertonOptions) -> Run {
    Project::from_dataset(dataset).with_options(options).run().expect("pipeline")
}

/// One trained build, shared by the tests that serve it.
fn trained() -> &'static (Dataset, Run) {
    static BUILT: OnceLock<(Dataset, Run)> = OnceLock::new();
    BUILT.get_or_init(|| {
        let dataset = quick_workload(61);
        let built = run(&dataset, quick_options(4));
        (dataset, built)
    })
}

#[test]
fn schema_to_serving_roundtrip() {
    let (dataset, built) = trained();

    // Publish to a registry, fetch back, serve a gold test record, and
    // check the served intent agrees with the in-memory evaluation.
    let dir = std::env::temp_dir().join(format!("overton-it-registry-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let registry = ModelRegistry::open(&dir).expect("registry");
    let id = registry.publish(built.artifact().unwrap(), "it-model").expect("publish");
    let fetched = registry.fetch(&id).expect("fetch");
    let server = Server::load(&fetched);

    let mut agreements = 0usize;
    let mut total = 0usize;
    for &i in dataset.test_indices().iter().take(30) {
        let record = &dataset.records()[i];
        let response = server.predict(record).expect("serve");
        if let (
            Some(overton_model::ServedOutput::Multiclass { class, .. }),
            Some(TaskLabel::MulticlassOne(gold)),
        ) = (response.tasks.get("Intent"), record.gold("Intent"))
        {
            total += 1;
            if **class == **gold {
                agreements += 1;
            }
        }
    }
    assert!(total >= 20, "most test records must produce servable intents");
    // The trained model's serving accuracy should roughly match the
    // evaluation accuracy (same weights, same records).
    let expected = built.test_accuracy("Intent");
    let served = agreements as f64 / total as f64;
    assert!(
        (served - expected).abs() < 0.25,
        "served accuracy {served:.3} vs evaluated {expected:.3}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The evaluation's reports describe the model production answers with:
/// scored from the packaged artifact's served responses over the same
/// test rows, every overall accuracy and every slice's correct count of
/// `Intent` and `IntentArg` equals the evaluation's.
#[test]
fn evaluation_agrees_with_serving() {
    let (dataset, built) = trained();
    let evaluation = built.evaluation().expect("the build evaluated");
    let server = Server::load(built.artifact().expect("the build packaged"));
    let records: Vec<_> = (built.store().index().test_rows().iter())
        .map(|&row| dataset.records()[row as usize].clone())
        .collect();
    // Per (task, group): (correct, scored), over "overall" and each slice.
    let mut served: BTreeMap<(&str, String), (usize, usize)> = BTreeMap::new();
    for (record, response) in records.iter().zip(server.predict_batch(&records)) {
        let response = response.expect("a test record is served");
        for task in ["Intent", "IntentArg"] {
            let correct = match (response.tasks.get(task), record.gold(task)) {
                (
                    Some(ServedOutput::Multiclass { class, .. }),
                    Some(TaskLabel::MulticlassOne(gold)),
                ) => **class == **gold,
                (Some(ServedOutput::Select { index, .. }), Some(TaskLabel::Select(gold))) => {
                    index == gold
                }
                _ => continue,
            };
            let slices = record.slices().map(|slice| format!("slice:{slice}"));
            for group in std::iter::once("overall".to_string()).chain(slices) {
                let (hits, scored) = served.entry((task, group)).or_default();
                *hits += usize::from(correct);
                *scored += 1;
            }
        }
    }
    for task in ["Intent", "IntentArg"] {
        let (hits, scored) = served[&(task, "overall".to_string())];
        assert_eq!(evaluation.accuracy(task), hits as f64 / scored as f64, "{task}");
        let report = &evaluation.reports[task];
        let evaluated: BTreeMap<&str, (usize, usize)> = (report.rows.iter())
            .filter(|row| row.group.starts_with("slice:"))
            .map(|row| {
                let m = row.metrics;
                (row.group.as_str(), ((m.accuracy * m.count as f64).round() as usize, m.count))
            })
            .collect();
        let served_slices: BTreeMap<&str, (usize, usize)> = (served.iter())
            .filter(|((t, group), _)| *t == task && group.starts_with("slice:"))
            .map(|((_, group), &counts)| (group.as_str(), counts))
            .collect();
        assert!(!served_slices.is_empty(), "{task}: no test record is in a slice");
        assert_eq!(evaluated, served_slices, "{task}");
    }
}

#[test]
fn signature_survives_architecture_change() {
    let dataset = quick_workload(62);
    let a = run(&dataset, quick_options(1));
    let mut opts = quick_options(1);
    opts.base_model.encoder = overton_model::EncoderKind::Lstm;
    opts.base_model.hidden_dim = 64;
    let b = run(&dataset, opts);
    assert_eq!(a.artifact().unwrap().signature, b.artifact().unwrap().signature);
}

#[test]
fn data_file_roundtrip_then_build() {
    // Write the data file as JSONL (the engineer-facing format), read it
    // back, and confirm the pipeline runs identically on the copy.
    let dataset = quick_workload(63);
    let mut buf = Vec::new();
    dataset.write_jsonl(&mut buf).expect("write");
    let reloaded =
        Dataset::from_jsonl_reader(dataset.schema().clone(), buf.as_slice()).expect("read");
    assert_eq!(reloaded.len(), dataset.len());
    let a = run(&dataset, quick_options(2));
    let b = run(&reloaded, quick_options(2));
    // Same data, same seeds: identical accuracy.
    assert_eq!(a.test_accuracy("Intent"), b.test_accuracy("Intent"));
}

#[test]
fn row_store_preserves_the_training_corpus() {
    let dataset = quick_workload(64);
    let store = overton_store::rowstore::RowStore::build(dataset.records());
    let mut bytes = Vec::new();
    store.write(&mut bytes).expect("serialize");
    let loaded = overton_store::rowstore::RowStore::from_bytes(bytes).expect("parse");
    assert_eq!(loaded.len(), dataset.len());
    for (i, record) in dataset.records().iter().enumerate().step_by(17) {
        assert_eq!(&loaded.get(i).expect("row decodes"), record);
    }
}

#[test]
fn mean_accuracy_beats_untrained_model() {
    let dataset = quick_workload(65);
    let trained = run(&dataset, quick_options(4));
    assert!(trained.mean_test_accuracy() > 0.5, "{}", trained.mean_test_accuracy());
    // Zero epochs ships the freshly compiled weights (if the pipeline
    // accepts the budget at all); training must beat them.
    let untrained = Project::from_dataset(&dataset).with_options(quick_options(0)).run();
    if let Ok(untrained) = untrained {
        assert!(trained.mean_test_accuracy() > untrained.mean_test_accuracy());
    }
}
