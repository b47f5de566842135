//! End-to-end continuous observability: seeded drifting traffic through an
//! observed worker pool must (a) raise a drift alert on the drifted slice
//! and stay quiet on stable slices, (b) write an obslog that replays
//! bit-identically into the live windowed state, and (c) drive the
//! watchdog → worklist → automated-retrain loop — Figure 1 with no human
//! in it. Plus the calibration-vs-drift ordering: the KS detector fires
//! while windowed ECE is still below its alert threshold.

use overton::model::TrainConfig;
use overton::monitor::calibration_report;
use overton::nlp::{
    generate_workload, DriftConfig, DriftingTrafficStream, KnowledgeBase, TrafficConfig,
    WorkloadConfig, SLICE_COMPLEX_DISAMBIGUATION, SLICE_NUTRITION,
};
use overton::obs::{
    AlertRule, ObsConfig, ObsLog, Severity, Signal, Watchdog, WatchdogConfig, WATCHDOG_TASK,
};
use overton::{OvertonOptions, Project};
use std::path::PathBuf;

fn quick_options() -> OvertonOptions {
    OvertonOptions {
        train: TrainConfig { epochs: 2, early_stop_patience: 0, ..Default::default() },
        ..Default::default()
    }
}

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("overton-obs-e2e-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

const WINDOW: u64 = 250;

#[test]
fn drift_is_detected_logged_replayed_and_fed_back() {
    let root = temp_root("loop");
    let ds = generate_workload(&WorkloadConfig {
        n_train: 250,
        n_dev: 40,
        n_test: 150,
        seed: 13,
        ..Default::default()
    });
    let project =
        Project::from_dataset(&ds).named("obsdemo").with_options(quick_options()).at(&root);
    let run = project.run().unwrap();
    // The evaluate stage captured and persisted the traffic baseline.
    let baseline = run.baseline().expect("evaluate collects a baseline").clone();
    assert!(run.dir().unwrap().join("baseline.json").exists());
    assert!(baseline.tag_share(SLICE_COMPLEX_DISAMBIGUATION).is_some());

    let deployment = project.deploy(&run).unwrap();
    let mut monitor = deployment
        .watch_with(ObsConfig {
            window_len: WINDOW,
            rules: overton::obs::default_rules(deployment.pool().telemetry().slice_names()),
            ..Default::default()
        })
        .unwrap();
    assert_eq!(monitor.baseline(), Some(&baseline), "monitor inherits the run's baseline");

    // 8 windows of seeded traffic: stationary for 4, then the slice mix
    // ramps toward the hard slice.
    let kb = KnowledgeBase::standard();
    let mut stream = DriftingTrafficStream::new(
        &kb,
        DriftConfig {
            base: TrafficConfig { seed: 5, ..Default::default() },
            drift_start: 4 * WINDOW as usize,
            drift_ramp: WINDOW as usize,
            ..Default::default()
        },
    );
    for _ in 0..8 {
        let burst = stream.records(WINDOW as usize);
        deployment.pool().process(burst);
        monitor.pump();
    }
    monitor.pump();
    assert_eq!(deployment.pool().telemetry().observer_dropped(), 0);
    assert_eq!(monitor.stats().closed(), 8);
    assert_eq!(monitor.stats().open_count(), 0);

    // (a) A PSI (traffic-mix) alert on the drifted slice...
    let alerts = monitor.alerts();
    assert!(
        alerts.iter().any(|a| a.signal == Signal::TrafficPsi
            && a.slice.as_deref() == Some(SLICE_COMPLEX_DISAMBIGUATION)),
        "expected a PSI alert on the drifted slice, got: {alerts:?}"
    );
    // ...debounced to one PSI alert despite several breaching windows...
    assert_eq!(
        alerts.iter().filter(|a| a.signal == Signal::TrafficPsi).count(),
        1,
        "flapping/persistent drift must alert once: {alerts:?}"
    );
    // ...and nothing at all on the stable slice.
    assert!(
        alerts.iter().all(|a| a.slice.as_deref() != Some(SLICE_NUTRITION)),
        "stable slice must not alert: {alerts:?}"
    );
    // The alert fired only once the drift actually started.
    let psi_window =
        alerts.iter().find(|a| a.signal == Signal::TrafficPsi).map(|a| a.window).unwrap();
    assert!(psi_window >= 4, "PSI fired at window {psi_window}, before the drift began");

    // (b) The obslog replays bit-identically into the live state.
    let replayed = ObsLog::replay(deployment.obslog_dir()).unwrap();
    assert_eq!(replayed.stats(), monitor.stats(), "replayed windowed state must be identical");
    assert_eq!(replayed.alerts(), monitor.alerts());
    assert_eq!(replayed.alert_engine(), monitor.alert_engine());

    // (c) The watchdog escalates the sustained critical into the shared
    // worklist shape, naming the drifted slice.
    let watchdog = Watchdog::new(WatchdogConfig {
        min_severity: Severity::Warning,
        sustain_windows: 3,
        min_count: 10,
    });
    assert_eq!(watchdog.flagged_slices(&monitor), vec![SLICE_COMPLEX_DISAMBIGUATION.to_string()]);
    let worklist = watchdog.worklist(&monitor);
    assert_eq!(worklist.len(), 1);
    assert_eq!(worklist[0].slice, SLICE_COMPLEX_DISAMBIGUATION);
    assert_eq!(worklist[0].task, WATCHDOG_TASK);
    assert!(worklist[0].metrics.count >= 10);
    // A transiently-configured watchdog (needs more sustained windows than
    // the episode has) stays quiet — the loop doesn't fire on blips.
    let strict = Watchdog::new(WatchdogConfig { sustain_windows: 100, ..Default::default() });
    assert!(strict.worklist(&monitor).is_empty());

    // (d) Close the loop: hand the worst slice to the automated retrain.
    // The watchdog's diagnosis is task-agnostic; weakest_task_on_slice
    // maps it onto the weakest task of the previous run deterministically.
    let slice = &worklist[0].slice;
    let task = run.weakest_task_on_slice(slice).unwrap();
    let report = project.retrain_and_compare(&run, &task, slice).unwrap();
    assert!((0.0..=1.0).contains(&report.before));
    assert!((0.0..=1.0).contains(&report.after));

    drop(deployment);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn ece_degrades_monotonically_and_ks_fires_before_ece_crosses() {
    // Part 1 (pure calibration): as a synthetic drift widens — the model
    // keeps claiming 0.9 while accuracy erodes — ECE degrades strictly
    // monotonically and tracks the injected gap.
    let mut last = -1.0;
    for shift in [0.0, 0.1, 0.2, 0.3, 0.4] {
        let preds: Vec<(f64, bool)> =
            (0..1000).map(|i| (0.9, (i as f64 / 1000.0) < 0.9 - shift)).collect();
        let ece = calibration_report(&preds, 10).ece;
        assert!((ece - shift).abs() < 5e-3, "shift {shift}: ece {ece}");
        assert!(ece > last, "ECE must degrade monotonically with the drift");
        last = ece;
    }

    // Part 2 (one widening drift stream, two detectors): feed the same
    // synthetic stream both to windowed ECE and to the obs KS rule. The
    // confidence *distribution* shifts linearly with the drift level
    // while calibration damage grows quadratically (the shifted cohort's
    // accuracy erodes gradually), so the KS detector must fire while ECE
    // is still below its own alert threshold — distribution-level drift
    // is visible before calibration damage crosses the line, which is
    // exactly why the KS rule exists.
    const ECE_ALERT: f64 = 0.25;
    const KS_ALERT: f64 = 0.3;
    const N: u64 = 200;
    let mut baseline_hist = vec![0u64; overton::serving::CONFIDENCE_BINS];
    baseline_hist[overton::serving::confidence_bin(0.9)] = N;
    let baseline = overton::serving::TrafficBaseline {
        slice_shares: vec![],
        mean_confidence: 0.9,
        tag_shares: vec![],
        confidence_hist: baseline_hist,
        slice_confidence_hists: vec![],
        sample_size: N,
        tag_counts: vec![],
    };
    let mut monitor = overton::obs::Monitor::new(
        vec![],
        Some(baseline),
        ObsConfig {
            window_len: N,
            rules: vec![AlertRule {
                slice: None,
                signal: Signal::ConfidenceKs,
                threshold: KS_ALERT,
                min_window_count: 64,
                severity: Severity::Warning,
            }],
            ..Default::default()
        },
    );
    let mut window_ece = Vec::new();
    for w in 0..=10u64 {
        let t = w as f64 / 10.0; // drift level of this window
        let drifted = (N as f64 * t).round() as u64; // cohort at conf 0.6
        let drifted_correct = (drifted as f64 * (0.6 - 0.55 * t).max(0.0)).round() as u64;
        let stable_correct = ((N - drifted) as f64 * 0.9).round() as u64;
        let mut preds = Vec::new();
        for i in 0..N {
            let (confidence, correct) = if i < drifted {
                (0.6f32, i < drifted_correct)
            } else {
                (0.9f32, i - drifted < stable_correct)
            };
            preds.push((f64::from(confidence), correct));
            monitor.ingest(&overton::serving::ServeSample {
                ok: true,
                confidence_bin: overton::serving::confidence_bin(confidence),
                confidence_millionths: (f64::from(confidence) * 1e6) as u64,
                latency_micros: 50,
                slice_mask: 0,
                gold_accuracy_millionths: Some(if correct { 1_000_000 } else { 0 }),
            });
        }
        window_ece.push(calibration_report(&preds, 10).ece);
    }
    // Windowed ECE degrades monotonically as the drift widens...
    for pair in window_ece.windows(2) {
        assert!(pair[1] >= pair[0] - 1e-9, "ECE not monotone: {window_ece:?}");
    }
    // ...and eventually crosses its alert threshold...
    let ece_window = window_ece
        .iter()
        .position(|&e| e > ECE_ALERT)
        .expect("the drift must eventually push ECE over the alert threshold");
    // ...but the KS detector fired strictly earlier.
    let ks_window = monitor
        .alerts()
        .iter()
        .find(|a| a.signal == Signal::ConfidenceKs)
        .map(|a| a.window as usize)
        .expect("the KS detector must fire on a confidence-distribution shift");
    assert!(
        ks_window < ece_window,
        "KS (window {ks_window}) must fire before ECE crosses {ECE_ALERT} (window {ece_window}); \
         ece per window: {window_ece:?}"
    );
    assert!(
        window_ece[ks_window] < ECE_ALERT,
        "at the KS alert, calibration damage was still below the line"
    );
}

/// The significance gate end to end, both directions in ONE test:
///
/// 1. a mild drift stream — a real shift, but statistically insignificant
///    at the monitoring window size — raises no alert at all;
/// 2. a retrain whose delta is pure holdout noise is *held*, with the
///    evidence (p-value, intervals, meter balance) persisted into the new
///    run's report and artifact metadata;
/// 3. the strong drift scenario still alerts, now including the
///    significance rule, on the drifted slice only;
/// 4. a genuinely better retrain clears the gate and promotes;
///
/// and every statistical decision is seeded and replays bit-identically.
#[test]
fn significance_gate_blocks_noise_and_promotes_real_improvements() {
    let root = temp_root("gate");
    // A generous slice rate so the per-slice holdout counts are large
    // enough for a real improvement to be distinguishable from noise.
    let slice_rate = 0.25;
    let ds = generate_workload(&WorkloadConfig {
        n_train: 250,
        n_dev: 40,
        n_test: 300,
        seed: 13,
        slice_rate,
        ..Default::default()
    });
    // A deliberately broken incumbent: its slice supervision is corrupted
    // so every IntentArg source votes the default sense — unanimously
    // wrong on the slice (lf_default_sense already does; the two good
    // sources are overwritten). The incumbent learns that mistake, which
    // leaves real headroom for the corrected retrain in (4).
    let mut broken = ds.clone();
    for source in ["lf_heuristic", "crowd_arg"] {
        let corrupted = overton::add_slice_supervision(
            &mut broken,
            SLICE_COMPLEX_DISAMBIGUATION,
            "IntentArg",
            source,
            |_| Some(overton::store::TaskLabel::Select(0)),
        );
        assert!(corrupted > 0);
    }
    let weak_options = OvertonOptions {
        train: TrainConfig { epochs: 1, early_stop_patience: 0, ..Default::default() },
        ..Default::default()
    };
    let project = Project::from_dataset(&broken).named("gate").with_options(weak_options).at(&root);
    let run = project.run().unwrap();
    let baseline = run.baseline().expect("evaluate collects a baseline").clone();
    assert!(baseline.sample_size > 0, "baselines now carry their sample size");

    // The evaluate stage debited the project's test-set reuse meter.
    let meter_path = root.join(overton::stats::METER_FILE);
    assert!(meter_path.exists(), "evaluate must start the reuse ledger");
    assert_eq!(
        run.report().meter_remaining,
        Some(overton::stats::DEFAULT_METER_BUDGET - 1),
        "first holdout look must debit the meter"
    );

    let obs_config = |deployment: &overton::Deployment| ObsConfig {
        window_len: WINDOW,
        rules: overton::obs::default_rules(deployment.pool().telemetry().slice_names()),
        ..Default::default()
    };
    let kb = KnowledgeBase::standard();

    // (1) Mild drift: the slice mix really does shift (see
    // DriftConfig::mild), but by an amount indistinguishable from
    // sampling noise over 250-request windows — nothing may page.
    {
        let deployment = project.deploy(&run).unwrap();
        let mut monitor = deployment.watch_with(obs_config(&deployment)).unwrap();
        let mut stream = DriftingTrafficStream::new(
            &kb,
            DriftConfig::mild(TrafficConfig { seed: 5, slice_rate, ..Default::default() }),
        );
        for _ in 0..8 {
            deployment.pool().process(stream.records(WINDOW as usize));
            monitor.pump();
        }
        monitor.pump();
        assert_eq!(monitor.stats().closed(), 8);
        assert!(
            monitor.alerts().is_empty(),
            "an insignificant shift must not raise any alert: {:?}",
            monitor.alerts()
        );
        drop(deployment);
    }

    // (2) Retraining on unchanged data: training is deterministic, so the
    // candidate equals the incumbent and the delta is exactly zero — the
    // canonical noise case. The gate must hold.
    let unchanged =
        project.retrain_and_compare(&run, "IntentArg", SLICE_COMPLEX_DISAMBIGUATION).unwrap();
    assert!(!unchanged.promoted(), "a noise delta must not promote: {}", unchanged.evidence);
    assert!(
        unchanged.evidence.p_value >= overton::stats::DEFAULT_ALPHA,
        "identical models cannot be significantly different: {}",
        unchanged.evidence
    );

    // The evidence is durable: the candidate run's report.json carries
    // the full record, its artifact metadata the decision.
    let run2_dir = root.join("runs").join("run-0002");
    let report2: overton::RunReport =
        serde_json::from_str(&std::fs::read_to_string(run2_dir.join("report.json")).unwrap())
            .unwrap();
    let recorded = report2.promotion.clone().expect("the gate records its evidence");
    assert!(!recorded.significant);
    assert_eq!(recorded.slice, SLICE_COMPLEX_DISAMBIGUATION);
    assert_eq!(report2.meter_remaining, Some(overton::stats::DEFAULT_METER_BUDGET - 2));
    assert_eq!(recorded.meter_remaining, report2.meter_remaining);
    let artifact2 = overton::model::DeployableModel::from_bytes(
        &std::fs::read(run2_dir.join("artifact.model.json")).unwrap(),
    )
    .unwrap();
    assert_eq!(artifact2.metadata.get("promotion").map(String::as_str), Some("hold"));

    // Bit-identical statistics: re-evaluating the recorded counts
    // reproduces the persisted p-value and bounds exactly, and the
    // seeded bootstrap behind the report's mean-accuracy interval
    // replays to the same bits.
    let replayed = overton::stats::evaluate_promotion(
        &recorded.task,
        &recorded.slice,
        (recorded.before.successes, recorded.before.trials),
        (recorded.after.successes, recorded.after.trials),
        recorded.alpha,
    );
    assert_eq!(replayed.p_value.to_bits(), recorded.p_value.to_bits());
    assert_eq!(replayed.before.lower.to_bits(), recorded.before.lower.to_bits());
    assert_eq!(replayed.after.upper.to_bits(), recorded.after.upper.to_bits());
    let accuracies: Vec<f64> = report2.task_accuracy.values().copied().collect();
    let ci = overton::stats::bootstrap_mean_interval(
        &accuracies,
        overton::stats::DEFAULT_ALPHA,
        1000,
        0,
    );
    let persisted_ci = report2.mean_accuracy_ci.expect("evaluate records the bootstrap CI");
    assert_eq!(persisted_ci.lower.to_bits(), ci.lower.to_bits());
    assert_eq!(persisted_ci.upper.to_bits(), ci.upper.to_bits());

    // (3) The strong drift scenario still alerts — and the significance
    // rule confirms the excursion on the drifted slice, only there.
    {
        let deployment = project.deploy(&run).unwrap();
        let mut monitor = deployment.watch_with(obs_config(&deployment)).unwrap();
        let mut stream = DriftingTrafficStream::new(
            &kb,
            DriftConfig {
                base: TrafficConfig { seed: 5, slice_rate, ..Default::default() },
                drift_start: 4 * WINDOW as usize,
                drift_ramp: WINDOW as usize,
                ..Default::default()
            },
        );
        for _ in 0..8 {
            deployment.pool().process(stream.records(WINDOW as usize));
            monitor.pump();
        }
        monitor.pump();
        let alerts = monitor.alerts();
        assert!(
            alerts.iter().any(|a| a.signal == Signal::Significance
                && a.slice.as_deref() == Some(SLICE_COMPLEX_DISAMBIGUATION)),
            "real drift must raise the significance alert on the drifted slice: {alerts:?}"
        );
        assert!(
            alerts.iter().all(|a| a.slice.as_deref() != Some(SLICE_NUTRITION)),
            "the stable slice must stay quiet: {alerts:?}"
        );
        drop(deployment);
    }

    // (4) A real improvement — corrective labels on the slice plus a
    // serious training budget against the 1-epoch incumbent — clears
    // the gate.
    let mut improved = ds.clone();
    let added = overton::add_slice_supervision(
        &mut improved,
        SLICE_COMPLEX_DISAMBIGUATION,
        "IntentArg",
        "annotator_pass",
        |record| match record.tasks.get("IntentArg").and_then(|m| m.get("lf_heuristic")) {
            Some(overton::store::TaskLabel::Select(v)) if *v != 0 => {
                Some(overton::store::TaskLabel::Select(*v))
            }
            _ => None,
        },
    );
    assert!(added > 0);
    let better = Project::from_dataset(&improved)
        .named("gate")
        .with_options(OvertonOptions::default())
        .at(&root);
    let win = better.retrain_and_compare(&run, "IntentArg", SLICE_COMPLEX_DISAMBIGUATION).unwrap();
    assert!(
        win.promoted(),
        "a real improvement must clear the gate: {} (delta {:+.4})",
        win.evidence,
        win.delta()
    );
    assert!(win.evidence.p_value < win.evidence.alpha);
    assert_eq!(win.evidence.meter_remaining, Some(overton::stats::DEFAULT_METER_BUDGET - 3));
    let run3_dir = root.join("runs").join("run-0003");
    let artifact3 = overton::model::DeployableModel::from_bytes(
        &std::fs::read(run3_dir.join("artifact.model.json")).unwrap(),
    )
    .unwrap();
    assert_eq!(artifact3.metadata.get("promotion").map(String::as_str), Some("promote"));

    std::fs::remove_dir_all(&root).ok();
}

/// Satellite: observation must never backpressure serving. A deliberately
/// slow observer — a capacity-1 channel that is never drained — forces
/// every post-first `try_send` to fail; the pool must drop those samples
/// (counted in `observer_dropped`), answer every request correctly, and
/// keep request latency in the same range an unobserved pool sees.
#[test]
fn slow_observer_drops_samples_without_inflating_latency() {
    use overton::model::{CompiledModel, DeployableModel, FeatureSpace, ModelConfig, Server};
    use overton::serving::{CascadeEngine, ServingConfig, WorkerPool};
    use std::sync::Arc;

    let ds = generate_workload(&WorkloadConfig {
        n_train: 60,
        n_dev: 15,
        n_test: 100,
        seed: 91,
        ..Default::default()
    });
    let space = FeatureSpace::build_from_store(&ds.seal()).unwrap();
    let model = CompiledModel::compile(ds.schema(), &space, &ModelConfig::default(), None);
    let artifact = DeployableModel::package(&model, &space, std::collections::BTreeMap::new());
    let records: Vec<overton::store::Record> =
        ds.test_indices().iter().map(|&i| ds.records()[i].clone()).collect();
    let engine = Arc::new(CascadeEngine::single(Server::load(&artifact)));
    let config = ServingConfig { workers: 2, max_batch: 8 };

    // Reference: the same traffic through an unobserved pool.
    let unobserved = WorkerPool::start(Arc::clone(&engine), config.clone(), None);
    for chunk in records.chunks(10) {
        for reply in unobserved.process(chunk.to_vec()) {
            reply.result.expect("unobserved record must answer");
        }
    }
    let baseline_p99 = unobserved.telemetry().latency().quantile(0.99);
    unobserved.shutdown();

    // The stalled observer: capacity 1, receiver alive but never drained.
    let (tx, _rx) = std::sync::mpsc::sync_channel(1);
    let observed = WorkerPool::start(engine, config, None);
    observed.telemetry().attach_observer(tx).unwrap();
    for chunk in records.chunks(10) {
        for reply in observed.process(chunk.to_vec()) {
            reply.result.expect("observed record must still answer");
        }
    }
    let served = records.len() as u64;
    assert_eq!(observed.telemetry().snapshot().served, served);
    // One sample fit in the channel; every later one was dropped, not
    // waited for.
    assert_eq!(
        observed.telemetry().observer_dropped(),
        served - 1,
        "a stalled observer must shed samples, not block workers"
    );
    // And dropping is cheap: p99 stays in the unobserved pool's range
    // (generous 10x + 5ms bound — this guards against *blocking*, where a
    // stalled rendezvous would stall every request behind it).
    let observed_p99 = observed.telemetry().latency().quantile(0.99);
    let ceiling = baseline_p99 * 10 + std::time::Duration::from_millis(5);
    assert!(
        observed_p99 <= ceiling,
        "observed p99 {observed_p99:?} vs unobserved {baseline_p99:?}: dropping must not \
         inflate request latency"
    );
    observed.shutdown();
}
