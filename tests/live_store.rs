//! End-to-end live store: the incremental-ingest loop and its crash
//! safety.
//!
//! Two guarantees are exercised here. First, the compactor's atomic
//! commit protocol: a compaction killed at *any* of its fault points
//! must leave the previous generation fully readable from disk, and a
//! restart must be able to finish the merge cleanly. Second, the closed
//! loop from the acceptance criteria: drifting traffic through an
//! observed deployment raises a watchdog alert, the alerting slice's
//! gold-labeled traffic is captured into the live store, and an
//! incremental retrain warm-started from the previous run trains on the
//! base+delta snapshot — while a reader pinned to the pre-append
//! snapshot replays bit-identically and a concurrent compaction
//! perturbs neither result.

use overton::model::TrainConfig;
use overton::nlp::{
    generate_workload, DriftConfig, DriftingTrafficStream, KnowledgeBase, TrafficConfig,
    WorkloadConfig, SLICE_COMPLEX_DISAMBIGUATION,
};
use overton::obs::{ObsConfig, Severity, Watchdog, WatchdogConfig, TAG_CAPTURED};
use overton::store::live::{CompactPoint, COMPACT_POINTS};
use overton::store::{LiveStore, Record, ShardedStore};
use overton::{OvertonOptions, Project};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn quick_options() -> OvertonOptions {
    OvertonOptions {
        train: TrainConfig { epochs: 2, early_stop_patience: 0, ..Default::default() },
        ..Default::default()
    }
}

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("overton-live-e2e-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn all_rows(store: &ShardedStore) -> Vec<Record> {
    (0..store.len()).map(|i| store.get(i).unwrap()).collect()
}

/// Kill the compactor at every fault point in turn. Whatever the point,
/// the store on disk must stay fully readable — the old generation if the
/// kill landed before the manifest rename (the commit point), the new one
/// if it landed after — with bit-identical rows either way, and a clean
/// restart must complete the merge.
#[test]
fn compaction_killed_at_every_point_leaves_the_store_readable() {
    let ds = generate_workload(&WorkloadConfig {
        n_train: 30,
        n_dev: 0,
        n_test: 0,
        seed: 71,
        ..Default::default()
    });
    for (i, point) in COMPACT_POINTS.into_iter().enumerate() {
        let dir = temp_root(&format!("crash-{i}"));
        let expected = {
            let live = LiveStore::create(&dir, ds.schema().clone()).unwrap();
            for batch in ds.records().chunks(10) {
                for record in batch {
                    live.append(record.clone()).unwrap();
                }
                live.flush().unwrap();
            }
            assert_eq!(live.num_deltas(), 3);
            let start_generation = live.generation();
            let expected = all_rows(live.snapshot().store());

            // Kill at this point: the hook aborts mid-protocol with no
            // cleanup, exactly like a crash.
            live.set_compaction_fault(Some(Box::new(move |p| p == point)));
            let err = live.compact().unwrap_err();
            assert!(
                err.to_string().contains("compaction killed"),
                "{point:?}: unexpected error {err}"
            );
            drop(live);

            // Recovery happens purely from disk.
            let reopened = LiveStore::open(&dir).unwrap();
            reopened.verify().unwrap();
            if point == CompactPoint::BeforeCleanup {
                // The manifest rename (the commit point) already
                // happened; only the old generation's cleanup was lost,
                // and open swept it.
                assert_eq!(reopened.generation(), start_generation + 1, "{point:?}");
                assert_eq!(reopened.num_deltas(), 0, "{point:?}");
            } else {
                assert_eq!(reopened.generation(), start_generation, "{point:?}");
                assert_eq!(reopened.num_deltas(), 3, "{point:?}");
            }
            assert_eq!(
                all_rows(reopened.snapshot().store()),
                expected,
                "{point:?}: rows changed across the crash"
            );

            // The restart finishes (or redoes) the merge cleanly.
            reopened.compact().unwrap();
            assert_eq!(reopened.num_deltas(), 0, "{point:?}");
            reopened.verify().unwrap();
            assert_eq!(all_rows(reopened.snapshot().store()), expected, "{point:?}");
            expected
        };

        // And the post-recovery world reopens one more time, unchanged.
        let last = LiveStore::open(&dir).unwrap();
        assert_eq!(all_rows(last.snapshot().store()), expected, "{point:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

const WINDOW: u64 = 250;

/// The acceptance loop: drift → watchdog alert → capture → incremental
/// retrain from a snapshot, with a pinned pre-append reader replaying
/// bit-identically and a concurrent compaction perturbing nothing.
#[test]
fn drift_capture_and_incremental_retrain_close_the_loop() {
    let root = temp_root("loop");
    let ds = generate_workload(&WorkloadConfig {
        n_train: 250,
        n_dev: 40,
        n_test: 150,
        seed: 13,
        ..Default::default()
    });
    let project =
        Project::from_dataset(&ds).named("livedemo").with_options(quick_options()).at(&root);
    let run = project.run().unwrap();
    assert_eq!(run.report().snapshot_generation, None, "a dataset project has no snapshot");

    // The deployment watches seeded traffic that drifts toward the hard
    // slice halfway through.
    let deployment = project.deploy(&run).unwrap();
    let mut monitor = deployment
        .watch_with(ObsConfig {
            window_len: WINDOW,
            rules: overton::obs::default_rules(deployment.pool().telemetry().slice_names()),
            ..Default::default()
        })
        .unwrap();
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
    let mut served: Vec<Record> = Vec::new();
    for _ in 0..8 {
        let burst = stream.records(WINDOW as usize);
        served.extend(burst.iter().cloned());
        deployment.pool().process(burst);
        monitor.pump();
    }
    monitor.pump();

    // The live store starts from the training data the run was built on;
    // a reader pins the pre-append world.
    let live = Arc::new(LiveStore::create_from(root.join("live"), ds.seal()).unwrap());
    let snap0 = live.snapshot();
    let rows0 = all_rows(snap0.store());
    assert_eq!(snap0.generation(), 0);

    // Watchdog: the drifted slice is escalated, and its gold-labeled
    // traffic is captured into the live store.
    let watchdog = Watchdog::new(WatchdogConfig {
        min_severity: Severity::Warning,
        sustain_windows: 3,
        min_count: 10,
    });
    assert_eq!(watchdog.flagged_slices(&monitor), vec![SLICE_COMPLEX_DISAMBIGUATION.to_string()]);
    let captured = watchdog.capture_into(&monitor, &served, &live).unwrap();
    assert!(captured > 0, "drifted traffic must have capturable gold rows");
    assert_eq!(live.pending_rows(), captured);
    // Buffered rows are invisible until sealed — the pinned snapshot and
    // even a fresh one still see the base world.
    assert_eq!(live.snapshot().len(), rows0.len());
    live.flush().unwrap();
    let snap1 = live.snapshot();
    assert_eq!(snap1.len(), rows0.len() + captured);
    assert!(snap1.generation() > snap0.generation());
    let captured_row = snap1.store().get(rows0.len()).unwrap();
    assert!(captured_row.has_tag(TAG_CAPTURED) && captured_row.has_tag("train"));

    // Compact concurrently with everything below: pinned snapshots must
    // not notice (compact_min_deltas is above 1, so the kick forces it).
    let compactor = live.start_compactor(Duration::from_millis(20));
    compactor.kick();

    // The incremental retrain: warm-started from the previous run's
    // weights, trained on the base+delta snapshot — no re-ingest of the
    // two files. The captured gold rows target the drifted slice, so its
    // accuracy must not degrade (deterministic: everything is seeded).
    let task = run.weakest_task_on_slice(SLICE_COMPLEX_DISAMBIGUATION).unwrap();
    let report = Project::from_snapshot(&snap1)
        .named("livedemo")
        .at(&root)
        .with_options(quick_options())
        .warm_started(run.artifact().unwrap().clone())
        .retrain_and_compare(&run, &task, SLICE_COMPLEX_DISAMBIGUATION)
        .unwrap();
    assert!(
        report.after >= report.before,
        "incremental retrain degraded the drifted slice: {} -> {}",
        report.before,
        report.after
    );
    let artifact = report.run.artifact().unwrap();
    assert_eq!(artifact.metadata.get("warm_started").map(String::as_str), Some("true"));
    assert_eq!(artifact.metadata.get("snapshot_generation"), Some(&snap1.generation().to_string()));
    for key in ["promotion", "promotion_p_value", "meter_remaining"] {
        assert!(artifact.metadata.contains_key(key), "artifact metadata lacks {key}");
    }
    // The gate's evidence is durable in the new run's directory.
    let run_dir = report.run.dir().expect("a rooted project persists its runs");
    let persisted: overton::RunReport =
        serde_json::from_str(&std::fs::read_to_string(run_dir.join("report.json")).unwrap())
            .unwrap();
    assert!(persisted.warm_started);
    assert_eq!(persisted.snapshot_generation, Some(snap1.generation()));
    assert_eq!(persisted.promotion.as_ref(), Some(&report.evidence));

    // The pinned pre-append snapshot replays bit-identically: its rows
    // are untouched by the append and the (possibly finished) compaction,
    // and a full pipeline run over it reproduces the original evaluation
    // exactly.
    assert_eq!(all_rows(snap0.store()), rows0, "pinned snapshot rows changed");
    let replay = Project::from_snapshot(&snap0).with_options(quick_options()).run().unwrap();
    assert_eq!(replay.report().snapshot_generation, Some(0));
    assert_eq!(
        replay.evaluation().unwrap().reports,
        run.evaluation().unwrap().reports,
        "a run over the pinned snapshot must replay the original run bit-identically"
    );

    // The compactor never failed, the store verifies, and the sealed
    // world survives a cold reopen with the captured rows in append
    // order.
    compactor.stop();
    assert_eq!(live.take_compact_error(), None);
    live.verify().unwrap();
    let rows1 = all_rows(snap1.store());
    drop(snap0);
    drop(snap1);
    drop(live);
    let reopened = LiveStore::open(root.join("live")).unwrap();
    assert_eq!(reopened.sealed_rows(), rows0.len() + captured);
    assert_eq!(all_rows(reopened.snapshot().store()), rows1);

    drop(deployment);
    std::fs::remove_dir_all(&root).ok();
}
