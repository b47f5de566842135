//! Integration: the deployment lifecycle — distillation, registry
//! versioning, regression gates, calibration — across crates.

use overton::{OvertonOptions, Project, Run};
use overton_model::{
    distill, prepare_store, CompiledModel, ModelConfig, ModelPair, ModelRegistry, ServedOutput,
    Server, TrainConfig,
};
use overton_monitor::{calibration_report, regressions};
use overton_nlp::{generate_workload, WorkloadConfig};
use overton_supervision::CombineMethod;
use std::collections::BTreeMap;

fn run(ds: &overton_store::Dataset, train: TrainConfig) -> Run {
    Project::from_dataset(ds)
        .with_options(OvertonOptions { train, ..Default::default() })
        .run()
        .unwrap()
}

fn workload(seed: u64) -> overton_store::Dataset {
    generate_workload(&WorkloadConfig {
        n_train: 300,
        n_dev: 60,
        n_test: 120,
        seed,
        ..Default::default()
    })
}

#[test]
fn distilled_pair_stays_synchronized_and_servable() {
    let ds = workload(91);
    let prepared = prepare_store(&ds.seal(), &CombineMethod::default()).unwrap();
    let train_cfg = TrainConfig { epochs: 4, early_stop_patience: 0, ..Default::default() };

    // Teacher trained normally; student distilled from it.
    let mut teacher =
        CompiledModel::compile(ds.schema(), &prepared.space, &ModelConfig::default(), None);
    overton_model::train_model(&mut teacher, &prepared.train, &prepared.dev, &train_cfg);
    let small_cfg = ModelConfig { token_dim: 16, hidden_dim: 16, ..Default::default() };
    let mut student = CompiledModel::compile(ds.schema(), &prepared.space, &small_cfg, None);
    distill(&teacher, &mut student, &prepared.train, &prepared.dev, &train_cfg);

    let pair = ModelPair {
        large: overton_model::DeployableModel::package(&teacher, &prepared.space, BTreeMap::new()),
        small: overton_model::DeployableModel::package(&student, &prepared.space, BTreeMap::new()),
    };
    assert!(pair.synchronized());

    // Both halves serve the same record without error.
    let record = &ds.records()[ds.test_indices()[0]];
    let large_response = Server::load(&pair.large).predict(record).unwrap();
    let small_response = Server::load(&pair.small).predict(record).unwrap();
    assert_eq!(
        large_response.tasks.keys().collect::<Vec<_>>(),
        small_response.tasks.keys().collect::<Vec<_>>()
    );
}

#[test]
fn registry_versions_advance_through_retraining() {
    let ds = workload(92);
    let dir = std::env::temp_dir().join(format!("overton-it-lifecycle-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let registry = ModelRegistry::open(&dir).unwrap();

    let train = TrainConfig { epochs: 1, early_stop_patience: 0, ..Default::default() };
    let v1 = run(&ds, train.clone());
    registry.publish(v1.artifact().unwrap(), "prod").unwrap();

    let v2 = run(&ds, TrainConfig { epochs: 3, ..train });
    let id2 = registry.publish(v2.artifact().unwrap(), "prod").unwrap();

    assert_eq!(registry.list().unwrap().len(), 2);
    assert_eq!(registry.latest("prod").unwrap().unwrap(), id2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn regression_gate_catches_induced_regression() {
    // Build a decent model, then an intentionally crippled one (zero
    // epochs of training after compile = random weights), and confirm the
    // monitor flags the drop on overall groups.
    let ds = workload(93);
    let good = run(&ds, TrainConfig { epochs: 4, early_stop_patience: 0, ..Default::default() });
    let bad = run(&ds, TrainConfig { epochs: 1, learning_rate: 0.0, ..Default::default() });
    let before = &good.evaluation().unwrap().reports["Intent"];
    let after = &bad.evaluation().unwrap().reports["Intent"];
    let regs = regressions(before, after, 0.10);
    assert!(
        regs.iter().any(|r| r.group == "overall"),
        "expected an overall regression, got {regs:?}"
    );
}

#[test]
fn registry_publish_latest_fetch_hotswap_rollback_roundtrip() {
    use overton_model::{DeployableModel, FeatureSpace};

    let ds = workload(95);
    let space = FeatureSpace::build_from_store(&ds.seal()).unwrap();
    let v1_model = CompiledModel::compile(
        ds.schema(),
        &space,
        &ModelConfig { seed: 1, ..Default::default() },
        None,
    );
    let v2_model = CompiledModel::compile(
        ds.schema(),
        &space,
        &ModelConfig { seed: 2, ..Default::default() },
        None,
    );
    let v1_artifact = DeployableModel::package(&v1_model, &space, BTreeMap::new());
    let v2_artifact = DeployableModel::package(&v2_model, &space, BTreeMap::new());

    let dir = std::env::temp_dir().join(format!("overton-it-rollback-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let registry = ModelRegistry::open(&dir).unwrap();
    let record = &ds.records()[ds.test_indices()[0]];

    // publish → latest → fetch → serve.
    let v1 = registry.publish(&v1_artifact, "prod").unwrap();
    assert_eq!(registry.latest("prod").unwrap().unwrap(), v1);
    let v1_server = Server::load(&registry.fetch(&v1).unwrap());
    let v1_response = v1_server.predict(record).unwrap();

    // Hot-swap: v2 becomes latest; the serving signature is unchanged, so
    // production can reload `latest` blindly.
    let v2 = registry.publish(&v2_artifact, "prod").unwrap();
    assert_ne!(v1, v2);
    assert_eq!(registry.latest("prod").unwrap().unwrap(), v2);
    let v2_server = Server::load(&registry.fetch(&v2).unwrap());
    assert_eq!(v1_server.signature(), v2_server.signature());
    v2_server.predict(record).unwrap();

    // Corrupt the v2 blob: fetching the latest version now fails with a
    // content-verification error...
    let blob = dir.join(format!("{}.model.json", v2.0));
    let mut bytes = std::fs::read(&blob).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&blob, bytes).unwrap();
    assert!(registry.fetch(&v2).is_err());

    // ...and rollback is just re-serving the previous version, which is
    // still intact and answers exactly as before.
    let rollback_server = Server::load(&registry.fetch(&v1).unwrap());
    assert_eq!(rollback_server.predict(record).unwrap(), v1_response);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trained_model_is_not_wildly_miscalibrated() {
    let ds = workload(94);
    let built = run(&ds, TrainConfig { epochs: 5, early_stop_patience: 0, ..Default::default() });
    // Scored on the responses the packaged artifact serves over the
    // run's test rows.
    let records: Vec<_> = (built.store().index().test_rows().iter())
        .map(|&row| ds.records()[row as usize].clone())
        .collect();
    let server = Server::load(built.artifact().unwrap());
    let mut confidences = Vec::new();
    for (record, response) in records.iter().zip(server.predict_batch(&records)) {
        let response = response.expect("a test record is served");
        if let (
            Some(ServedOutput::Multiclass { class, dist }),
            Some(overton_store::TaskLabel::MulticlassOne(gold)),
        ) = (response.tasks.get("Intent"), record.gold("Intent"))
        {
            let (_, p) = dist.iter().find(|(name, _)| name == class).expect("class in dist");
            confidences.push((f64::from(*p), **class == **gold));
        }
    }
    assert!(confidences.len() > 50);
    let report = calibration_report(&confidences, 10);
    // Small models trained on near-one-hot posteriors are overconfident;
    // the gate catches pathologies, not miscalibration per se.
    assert!(report.ece < 0.5, "ECE {:.3} is pathological", report.ece);
    // High-confidence predictions must still be mostly right.
    let confident: Vec<&(f64, bool)> = confidences.iter().filter(|(c, _)| *c > 0.9).collect();
    if confident.len() > 20 {
        let acc = confident.iter().filter(|(_, ok)| *ok).count() as f64 / confident.len() as f64;
        assert!(acc > 0.6, "high-confidence accuracy {acc:.3}");
    }
}
