//! `live_retrain` — the third user-visible clock: from the first appended
//! row to a gate verdict on the retrained model. Where `build_cold` uses
//! `store` for bulk ingest and scans, this workload uses it for *writes*
//! (append, seal, manifest commit, compaction), so durable-write work
//! shows its cost here; and it uses `model` for warm-started training
//! beside `build_cold`'s cold training.
//!
//! One cycle: create a live store over a sealed base and build the
//! incumbent model (set-up); then, timed, append and flush ten delta
//! files, compact, verify the directory, pin a snapshot, retrain warm
//! from the incumbent's artifact, and judge the promotion. A run repeats
//! whole cycles and reports medians.

use crate::estimators::median;
use crate::host::{dir_bytes, peak_rss_mb};
use crate::meter::{describe, quiet_median, room_for_another, Clocks, Unit};
use crate::spec::Report;
use crate::{fixture, secs, Res};
use overton::nlp::SLICE_COMPLEX_DISAMBIGUATION as SLICE;
use overton::stats::{evaluate_promotion, DEFAULT_ALPHA};
use overton::store::live::verify_dir;
use overton::store::LiveStore;
use overton::{Project, Run, Stage};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Train / dev / test rows of the sealed base.
pub const BASE: (usize, usize, usize) = (1500, 150, 300);
/// Delta files appended per cycle, and training rows in each: enough that
/// the ten appends together take a few tenths of a second, which the
/// 10 ms CPU and steal clocks can resolve.
pub const DELTAS: usize = 10;
pub const DELTA_ROWS: usize = 600;
/// The task whose slice accuracy the promotion gate compares.
const TASK: &str = "Intent";

pub fn sizes() -> String {
    format!(
        "base {}/{}/{} rows; {DELTAS} delta files x {DELTA_ROWS} rows; incumbent and warm retrain 1 epoch each; gate on {TASK}/{SLICE}",
        BASE.0, BASE.1, BASE.2
    )
}

struct Cycle {
    live: LiveStore,
    live_dir: PathBuf,
    deltas: Vec<PathBuf>,
    incumbent: Run,
    base_rows: usize,
}

/// Set-up: inputs on disk, the live store created, the incumbent built.
fn set_up(dir: &Path, seed: u64) -> Res<Cycle> {
    let base =
        overton::nlp::generate_workload_sealed(&fixture::workload(seed, BASE.0, BASE.1, BASE.2));
    let base_rows = base.len();
    let live_dir = dir.join("live");
    let live = LiveStore::create_from(&live_dir, base)?;
    let mut deltas = Vec::new();
    for k in 0..DELTAS {
        let delta_seed = seed.wrapping_mul(1000).wrapping_add(k as u64 + 1);
        let rows =
            overton::nlp::generate_workload(&fixture::workload(delta_seed, DELTA_ROWS, 0, 0));
        let path = dir.join(format!("delta-{k}.jsonl"));
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
        for record in rows.records() {
            writeln!(file, "{}", record.to_json())?;
        }
        file.flush()?;
        deltas.push(path);
    }
    let incumbent = Project::from_snapshot(&live.snapshot())
        .at(dir.join("project"))
        .with_options(fixture::options(seed, 1, false))
        .run()?;
    Ok(Cycle { live, live_dir, deltas, incumbent, base_rows })
}

fn slice_counts(run: &Run) -> (u64, u64) {
    run.evaluation()
        .and_then(|e| e.slice_metrics(TASK, SLICE))
        .map_or((0, 0), |m| (m.successes(), m.count as u64))
}

pub fn run(scratch: &Path, seed: u64, seconds: f64, trace: bool) -> Res<Report> {
    let mut report = Report::default();
    // Per cycle, on the three clocks: the set-up, the ten appends, and
    // the whole clock from first append to verdict.
    let mut setups: Vec<(Unit, ())> = Vec::new();
    let mut appends: Vec<(Unit, ())> = Vec::new();
    let mut clocks: Vec<(Unit, ())> = Vec::new();
    let mut quality = None;
    let mut peak_rss = None;
    let mut spans: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut bytes_on_disk = 0;

    let started = Instant::now();
    let mut cycle_s = Vec::new();
    while room_for_another(started, &cycle_s, seconds) {
        let cycle_started = Instant::now();
        let dir = scratch.join(format!("cycle-{}", cycle_s.len()));
        let from = Clocks::read();
        let cycle = set_up(&dir, seed)?;
        setups.push((from.elapsed(), ()));
        let artifact =
            cycle.incumbent.artifact().ok_or("the incumbent build packaged no artifact")?.clone();
        let mut span = |name: &'static str, since: Instant| {
            spans.entry(name).or_default().push(secs(since.elapsed()));
        };

        let clock = Clocks::read();
        for path in &cycle.deltas {
            let file = std::fs::File::open(path)?;
            let t = Instant::now();
            let appended = cycle.live.append_jsonl(file)?;
            span("append_parse", t);
            let t_flush = Instant::now();
            cycle.live.flush()?;
            span("flush", t_flush);
            report.attempted += 1;
            report.failed += u64::from(appended != DELTA_ROWS);
        }
        appends.push((clock.elapsed(), ()));
        let t = Instant::now();
        cycle.live.compact()?;
        span("compact", t);
        let t = Instant::now();
        let audit = verify_dir(&cycle.live_dir)?;
        span("verify", t);
        report.attempted += 2;
        report.failed += u64::from(!audit.ok());
        let snapshot = cycle.live.snapshot();
        let expected_rows = cycle.base_rows + DELTAS * DELTA_ROWS;
        report.attempted += 1;
        if snapshot.len() != expected_rows || snapshot.num_deltas() != 0 {
            report.failed += 1;
            report.violations.push(format!(
                "snapshot holds {} rows in {} deltas, expected {expected_rows} compacted",
                snapshot.len(),
                snapshot.num_deltas()
            ));
        }
        if trace {
            let t = Instant::now();
            let scanned = snapshot.store().scan().filter(|r| black_box(r).is_ok()).count();
            span("scan", t);
            report.failed += u64::from(scanned != expected_rows);
            bytes_on_disk = dir_bytes(&cycle.live_dir);
        }

        // The surviving retrain API, called directly: snapshot in,
        // incumbent's artifact as the warm start, one epoch.
        let project = Project::from_snapshot(&snapshot)
            .at(dir.join("project"))
            .warm_started(artifact)
            .with_options(fixture::options(seed, 1, false));
        let warm = if trace {
            let mut run = project.start()?;
            while !run.is_complete() {
                let t = Instant::now();
                match run.advance()? {
                    Stage::Combine => span("warm.combine", t),
                    Stage::Train => span("warm.train", t),
                    Stage::Package => span("warm.package", t),
                    Stage::Evaluate => span("warm.evaluate", t),
                    Stage::Ingest | Stage::Search => {}
                }
            }
            run
        } else {
            project.run()?
        };
        fixture::note_stages(&mut report, &warm);
        let t = Instant::now();
        let evidence = black_box(evaluate_promotion(
            TASK,
            SLICE,
            slice_counts(&cycle.incumbent),
            slice_counts(&warm),
            DEFAULT_ALPHA,
        ));
        span("gate", t);
        clocks.push((clock.elapsed(), ()));
        // One cycle is what a retraining process holds; later cycles in
        // this process only add allocator history.
        peak_rss.get_or_insert_with(peak_rss_mb);

        // Lineage: the retrain must say what it started from and what it saw.
        report.attempted += 1;
        let lineage_ok = warm.report().warm_started
            && warm.report().snapshot_generation == Some(snapshot.generation())
            && warm.artifact().is_some_and(|a| a.metadata.contains_key("warm_started"));
        if !lineage_ok || evidence.after.trials == 0 {
            report.failed += 1;
            report.violations.push(format!(
                "warm run lineage: warm_started {}, generation {:?} (snapshot {}), gate saw {} examples",
                warm.report().warm_started,
                warm.report().snapshot_generation,
                snapshot.generation(),
                evidence.after.trials
            ));
        }
        quality.get_or_insert(warm.mean_test_accuracy());
        drop((warm, snapshot, cycle));
        std::fs::remove_dir_all(&dir)?;
        cycle_s.push(secs(cycle_started.elapsed()));
    }

    println!("{}", describe("cycles", &clocks));
    println!(
        "as measured: append->promote_s {:.3?}",
        clocks.iter().map(|(u, ())| u.wall_s).collect::<Vec<_>>()
    );
    if trace {
        let total = |name: &str| spans.get(name).map_or(0.0, |v| v.iter().sum::<f64>());
        let mid = |name: &str| spans.get(name).map_or(0.0, |v| median(v));
        let appended = (clocks.len() * DELTAS * DELTA_ROWS) as f64;
        let scanned = (clocks.len() * (BASE.0 + BASE.1 + BASE.2 + DELTAS * DELTA_ROWS)) as f64;
        report.set("store.live.append_parse_rows_per_s", appended / total("append_parse"));
        report.set("store.live.flush_ms", mid("flush") * 1000.0);
        report.set("store.live.compact_s", mid("compact"));
        report.set("store.live.verify_s", mid("verify"));
        report.set("store.live.snapshot_scan_rows_per_s", scanned / total("scan"));
        report.set("store.live.bytes_on_disk", bytes_on_disk as f64);
        report.set("core.warm.combine_s", mid("warm.combine"));
        report.set("core.warm.train_s", mid("warm.train"));
        report.set("core.warm.package_s", mid("warm.package"));
        report.set("core.warm.evaluate_s", mid("warm.evaluate"));
        report.set("monitor.gate_ms", mid("gate") * 1000.0);
    } else {
        let appended = (DELTAS * DELTA_ROWS) as f64;
        let snapshot_rows = (BASE.0 + BASE.1 + BASE.2) as f64 + appended;
        report.set("setup_s", quiet_median(&setups, |u, ()| u.granted_s()));
        report.set("latency_ms", quiet_median(&clocks, |u, ()| u.granted_s()) * 1000.0);
        report.set("records_per_s", quiet_median(&appends, |u, ()| appended / u.granted_s()));
        report.set(
            "cpu_ms_per_krecord",
            quiet_median(&clocks, |u, ()| u.cpu_s * 1e6 / snapshot_rows),
        );
        report.set("quality", quality.expect("at least one cycle ran"));
        report.set("peak_rss_mb", peak_rss.expect("at least one cycle ran"));
    }
    Ok(report)
}
