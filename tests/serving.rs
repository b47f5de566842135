//! Integration: the serving runtime — batched worker pool, model-pair
//! cascade, canary deployment with promotion and auto-rollback, live
//! telemetry — across crates.

use overton_model::{
    distill, prepare_store, CompiledModel, DeployableModel, ModelConfig, ModelPair, ModelRegistry,
    Server, TrainConfig,
};
use overton_nlp::{generate_workload, KnowledgeBase, TrafficConfig, TrafficStream, WorkloadConfig};
use overton_serving::{
    CanaryConfig, CanaryOutcome, CascadeEngine, DeployEvent, DeploymentManager, ServingConfig,
    TrafficBaseline, WorkerPool,
};
use overton_store::{Dataset, Record};
use overton_supervision::CombineMethod;
use std::collections::BTreeMap;
use std::sync::Arc;

fn workload(seed: u64) -> Dataset {
    generate_workload(&WorkloadConfig {
        n_train: 300,
        n_dev: 60,
        n_test: 60,
        seed,
        slice_rate: 0.12,
        ..Default::default()
    })
}

fn small_config() -> ModelConfig {
    ModelConfig { token_dim: 16, hidden_dim: 16, ..Default::default() }
}

/// A trained large/small pair over one workload.
fn trained_pair(ds: &Dataset) -> (ModelPair, overton_model::FeatureSpace) {
    let prepared = prepare_store(&ds.seal(), &CombineMethod::default()).unwrap();
    let train_cfg = TrainConfig { epochs: 4, early_stop_patience: 0, ..Default::default() };
    let mut teacher =
        CompiledModel::compile(ds.schema(), &prepared.space, &ModelConfig::default(), None);
    overton_model::train_model(&mut teacher, &prepared.train, &prepared.dev, &train_cfg);
    let mut student = CompiledModel::compile(ds.schema(), &prepared.space, &small_config(), None);
    distill(&teacher, &mut student, &prepared.train, &prepared.dev, &train_cfg);
    let pair = ModelPair {
        large: DeployableModel::package(&teacher, &prepared.space, BTreeMap::new()),
        small: DeployableModel::package(&student, &prepared.space, BTreeMap::new()),
    };
    (pair, prepared.space)
}

fn traffic(seed: u64, n: usize) -> Vec<Record> {
    let kb = KnowledgeBase::standard();
    TrafficStream::new(
        &kb,
        TrafficConfig { qps: 500.0, seed, slice_rate: 0.12, ..Default::default() },
    )
    .records(n)
}

fn temp_registry(tag: &str) -> ModelRegistry {
    let dir = std::env::temp_dir().join(format!("overton-serving-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    ModelRegistry::open(dir).unwrap()
}

/// The acceptance workload: ≥ 1,000 generated queries through the worker
/// pool with batching enabled and the small→large cascade live, telemetry
/// collected against a training-time baseline.
#[test]
fn thousand_queries_through_batched_pool_and_cascade() {
    let ds = workload(201);
    let (pair, _space) = trained_pair(&ds);
    assert!(pair.synchronized());

    // Pick the escalation threshold at the small model's median confidence
    // on a probe sample, so both cascade routes carry real traffic.
    let small_server = Server::load(&pair.small);
    let probe = traffic(9, 100);
    let mut confidences: Vec<f32> =
        small_server.predict_batch(&probe).into_iter().map(|r| r.unwrap().confidence).collect();
    confidences.sort_by(f32::total_cmp);
    let threshold = confidences[confidences.len() / 2];

    // Training-time baseline for drift telemetry, from the curated dev set.
    let dev_records: Vec<Record> =
        ds.dev_indices().iter().map(|&i| ds.records()[i].clone()).collect();
    let baseline = TrafficBaseline::collect(&small_server, &dev_records).unwrap();

    let engine = Arc::new(CascadeEngine::from_pair(&pair, threshold).unwrap());
    let pool = WorkerPool::start(
        Arc::clone(&engine),
        ServingConfig { workers: 4, max_batch: 32 },
        Some(baseline),
    );

    let records = traffic(10, 1000);
    let replies = pool.process(records.clone());
    assert_eq!(replies.len(), 1000);
    for (i, reply) in replies.iter().enumerate() {
        assert_eq!(reply.seq, i as u64, "replies must return in submission order");
        assert!(reply.result.is_ok(), "record {i} failed: {:?}", reply.result);
    }
    // Dynamic micro-batching kicked in: a 1,000-record burst cannot have
    // been served one record at a time.
    assert!(
        replies.iter().any(|r| r.batch_size > 1),
        "no batching happened across a 1,000-record burst"
    );
    assert!(replies.iter().all(|r| r.batch_size <= 32));

    // Both cascade routes carried traffic and every request was routed.
    let counters = engine.counters();
    assert_eq!(counters.small + counters.escalated, 1000, "{counters:?}");
    assert!(counters.small > 0, "nothing stayed on the small model: {counters:?}");
    assert!(counters.escalated > 0, "nothing escalated: {counters:?}");
    assert!((0.0..1.0).contains(&counters.escalation_rate()));

    // Escalated responses are exactly the large model's answers.
    let large_server = Server::load(&pair.large);
    let mut checked = 0;
    for (record, reply) in records.iter().zip(&replies).take(200) {
        if reply.route == overton_serving::Route::Large {
            assert_eq!(*reply.result.as_ref().unwrap(), large_server.predict(record).unwrap());
            checked += 1;
        }
    }
    assert!(checked > 0);

    // Telemetry: counts, quantiles, slice shares and drift all populated.
    let snap = pool.snapshot();
    assert_eq!(snap.served, 1000);
    assert_eq!(snap.errors, 0);
    assert!(snap.qps > 0.0);
    assert!(snap.p50 <= snap.p95 && snap.p95 <= snap.p99);
    assert!(snap.p99 > std::time::Duration::ZERO);
    assert!((0.0..=1.0).contains(&snap.mean_confidence));
    assert!(snap.confidence_drift.is_some());
    assert!(!snap.slice_shares.is_empty());
    let drift = snap.slice_drift.as_ref().unwrap();
    assert_eq!(drift.len(), snap.slice_shares.len());
    assert!(snap.to_string().contains("qps"));

    pool.shutdown();
}

/// Canary deployment: a better candidate is promoted (hot-swapping the
/// pool's engine behind the stable serving signature), a broken candidate
/// is auto-rolled-back by the per-slice regression gate.
#[test]
fn canary_promotion_and_auto_rollback() {
    let ds = workload(202);
    let (pair, space) = trained_pair(&ds);
    let registry = temp_registry("canary");

    // v1: the distilled small model becomes the incumbent.
    let v1 = registry.publish(&pair.small, "prod").unwrap();
    let mut manager = DeploymentManager::open(registry, "prod", 0.0).unwrap();
    assert_eq!(manager.incumbent_id(), &v1);

    let pool = Arc::new(WorkerPool::start(
        manager.build_engine().unwrap(),
        ServingConfig { workers: 2, max_batch: 16 },
        None,
    ));
    manager.attach_pool(Arc::clone(&pool));
    let signature_before = pool.engine().signature().clone();

    let gate = CanaryConfig { regression_threshold: 0.2, min_scored: 100 };

    // --- Auto-rollback: an untrained candidate regresses everywhere. ---
    let junk_model = CompiledModel::compile(ds.schema(), &space, &small_config(), None);
    let junk = DeployableModel::package(&junk_model, &space, BTreeMap::new());
    let junk_id = manager.publish(&junk).unwrap();
    manager.start_canary(&junk_id).unwrap();
    assert!(manager.canary_active());
    // Live traffic flows while the canary shadows; live answers come from
    // the incumbent via the pool.
    let live = manager.observe(&traffic(11, 300));
    assert!(live.iter().all(Result::is_ok));
    // Resolving too early is refused by the gate.
    assert!(manager.resolve_canary(&CanaryConfig { min_scored: 100_000, ..gate.clone() }).is_err());
    let (inc_reports, cand_reports) = manager.canary_reports().unwrap();
    assert!(inc_reports.contains_key("Intent") && cand_reports.contains_key("Intent"));
    match manager.resolve_canary(&gate).unwrap() {
        CanaryOutcome::RolledBack { id, regressions } => {
            assert_eq!(id, junk_id);
            assert!(!regressions.is_empty());
            assert!(regressions.values().any(|regs| regs.iter().any(|r| r.group == "overall")));
        }
        CanaryOutcome::Promoted { .. } => panic!("junk model must not be promoted"),
    }
    assert_eq!(manager.incumbent_id(), &v1, "rollback must keep the incumbent");
    assert!(!manager.canary_active());

    // --- Promotion: the large (quality) model clears the gate. ---
    let v2 = manager.publish(&pair.large).unwrap();
    manager.start_canary(&v2).unwrap();
    manager.observe(&traffic(12, 300));
    match manager.resolve_canary(&gate).unwrap() {
        CanaryOutcome::Promoted { id } => assert_eq!(id, v2),
        CanaryOutcome::RolledBack { regressions, .. } => {
            panic!("large model unexpectedly rolled back: {regressions:?}")
        }
    }
    assert_eq!(manager.incumbent_id(), &v2);
    assert_eq!(manager.registry().latest("prod").unwrap().unwrap(), v2);

    // The pool hot-swapped behind the same serving signature and now
    // answers with the promoted model.
    assert_eq!(*pool.engine().signature(), signature_before);
    let check = traffic(13, 8);
    let large_server = Server::load(&pair.large);
    for (record, reply) in check.iter().zip(pool.process(check.clone())) {
        assert_eq!(reply.result.unwrap(), large_server.predict(record).unwrap());
    }

    // The deployment log tells the whole story.
    let events = manager.events();
    assert_eq!(events.iter().filter(|e| matches!(e, DeployEvent::RolledBack(..))).count(), 1);
    assert_eq!(events.iter().filter(|e| matches!(e, DeployEvent::Promoted(_))).count(), 1);
    assert_eq!(events.iter().filter(|e| matches!(e, DeployEvent::CanaryStarted(_))).count(), 2);

    // Double-canary and unknown-artifact starts are rejected cleanly.
    assert!(manager.start_canary(&v1).is_ok());
    assert!(manager.start_canary(&v2).is_err());
}

/// A promotion the cascade cannot serve fails before it reaches the
/// registry. The canary passes every `start_canary` check (same serving
/// signature, same slice space) but its schema differs from the attached
/// large model's outside the signature, so no synchronized pair exists.
#[test]
fn unservable_promotion_leaves_the_registry_untouched() {
    let ds = workload(203);
    let space = overton_model::FeatureSpace::build_from_store(&ds.seal()).unwrap();
    let package = |schema: &overton_store::Schema, config: &ModelConfig| {
        let model = CompiledModel::compile(schema, &space, config, None);
        DeployableModel::package(&model, &space, BTreeMap::new())
    };
    let incumbent = package(ds.schema(), &small_config());
    let large = package(ds.schema(), &ModelConfig::default());
    let mut schema = ds.schema().clone();
    schema.payloads.get_mut("entities").expect("entities payload").range = None;
    let candidate = package(&schema, &small_config());
    assert_eq!(candidate.signature, incumbent.signature);

    let registry = temp_registry("unservable");
    let v1 = registry.publish(&incumbent, "prod").unwrap();
    let candidate_id = registry.publish(&candidate, "staging").unwrap();
    let mut manager =
        DeploymentManager::open(registry, "prod", 0.5).unwrap().with_large(large).unwrap();
    let pool = Arc::new(WorkerPool::start(
        manager.build_engine().unwrap(),
        ServingConfig { workers: 1, max_batch: 16 },
        None,
    ));
    manager.attach_pool(Arc::clone(&pool));
    manager.start_canary(&candidate_id).unwrap();

    let gate = CanaryConfig { regression_threshold: 1.0, min_scored: 0 };
    assert!(manager.resolve_canary(&gate).is_err());
    assert_eq!(manager.registry().latest("prod").unwrap().unwrap(), v1);
    assert_eq!(manager.incumbent_id(), &v1);
    assert!(manager.canary_active());
}
