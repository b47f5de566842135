//! `build_cold` — the first user-visible clock: `overton build` on the
//! two-file contract, from JSONL on disk to an evaluated, packaged model.
//! `store` (bulk ingest, scans), `supervision` (label-model combine) and
//! `model` (search, train, evaluate) each own a visible share; no
//! `serving` code runs, so a serving-only change must leave it flat.

use crate::estimators::median;
use crate::host::{dir_bytes, peak_rss_mb};
use crate::meter::{describe, quiet_median, room_for_another, Clocks, Unit};
use crate::spec::Report;
use crate::{fixture, secs, Res};
use overton::supervision::combine_all;
use overton::tensor::Matrix;
use overton::{Project, Stage};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Train / dev / test rows of the generated two-file workload. A fifth of
/// the size the issue sketched, so that several builds fit in one run and
/// the run reports their median instead of one noisy wall time.
pub const ROWS: (usize, usize, usize) = (2400, 240, 480);
const FINAL_EPOCHS: usize = 2;
/// The inputs are generated `SETUPS` x `SETUP_GROUP` times. One write
/// takes about 70 ms, too short to read the stolen share of on 10 ms
/// clocks, so a timed unit is a group of writes.
const SETUPS: usize = 5;
const SETUP_GROUP: usize = 4;
/// Mean test accuracy a correct build reaches on every seed tried.
const ACCURACY_FLOOR: f64 = 0.95;
const GEMM_DIM: usize = 256;
const GEMM_ITERS: usize = 15;

pub fn sizes() -> String {
    format!(
        "rows {}/{}/{} train/dev/test; search 2 trials x 1 epoch on 2 threads; final train {FINAL_EPOCHS} epochs; grad_workers 1",
        ROWS.0, ROWS.1, ROWS.2
    )
}

pub fn run(scratch: &Path, seed: u64, seconds: f64, trace: bool) -> Res<Report> {
    let mut report = Report::default();
    let config = fixture::workload(seed, ROWS.0, ROWS.1, ROWS.2);
    let rows = (ROWS.0 + ROWS.1 + ROWS.2) as f64;

    let mut setups: Vec<(Unit, ())> = Vec::new();
    for _ in 0..SETUPS {
        let from = Clocks::read();
        for _ in 0..SETUP_GROUP {
            overton::nlp::write_two_file_workload(&config, scratch.join("in"))?;
        }
        setups.push((from.elapsed(), ()));
    }
    let (schema, data) = (scratch.join("in/schema.json"), scratch.join("in/data.jsonl"));
    let options = fixture::options(seed, FINAL_EPOCHS, true);

    let mut builds: Vec<(Unit, ())> = Vec::new();
    let mut accuracies = Vec::new();
    let mut peak_rss = None;
    // Traced pass: seconds per span name, one entry per build.
    let mut spans: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut unexplained = Vec::new();
    let mut counts = (0usize, 0usize, 0usize, 0u64); // trials, trained, evaluated, bytes

    let started = Instant::now();
    let mut round_s = Vec::new();
    while room_for_another(started, &round_s, seconds) {
        let round_started = Instant::now();
        let root = scratch.join(format!("project-{}", builds.len()));
        let project = Project::from_files(&schema, &data).at(&root).with_options(options.clone());
        let from = Clocks::read();
        let run = if trace {
            // Stage-stepped, a span around each call into the pipeline.
            let mut spanned = 0.0;
            let mut span = |name: &'static str, since: Instant| {
                let s = secs(since.elapsed());
                spans.entry(name).or_default().push(s);
                spanned += s;
            };
            let since = Instant::now();
            let mut run = project.start()?;
            span("ingest", since);
            while !run.is_complete() {
                let since = Instant::now();
                let stage = run.advance()?;
                span(stage.name(), since);
            }
            unexplained.push(secs(from.at.elapsed()) - spanned);
            run
        } else {
            project.run()?
        };
        builds.push((from.elapsed(), ()));
        // One build is what a user's process holds; later builds in this
        // process only add allocator history.
        peak_rss.get_or_insert_with(peak_rss_mb);

        // Correctness: all six stages ran, the model learned the task,
        // and every build of the same seed scores the same.
        fixture::note_stages(&mut report, &run);
        let accuracy = run.mean_test_accuracy();
        if accuracy < ACCURACY_FLOOR {
            report.violations.push(format!("mean test accuracy {accuracy} < {ACCURACY_FLOOR}"));
        }
        if accuracies.first().is_some_and(|&first: &f64| first != accuracy) {
            report.violations.push(format!("accuracy is not deterministic: {accuracies:?}"));
        }
        accuracies.push(accuracy);

        if trace {
            // Replay the supervision combine on the run's own store: the
            // combine stage is this plus the model crate's featurisation.
            let since = Instant::now();
            black_box(combine_all(run.store(), &options.combine)?);
            spans.entry("combine_all").or_default().push(secs(since.elapsed()));
            let stage_records = |s: Stage| run.report().stage(s).map_or(0, |r| r.records);
            counts = (
                run.trials().len(),
                stage_records(Stage::Train),
                stage_records(Stage::Evaluate),
                run.dir().map_or(0, dir_bytes),
            );
        }
        drop(run);
        std::fs::remove_dir_all(&root)?;
        round_s.push(secs(round_started.elapsed()));
    }

    // A build's granted time, over the quieter builds (see `meter.rs`).
    let wall = quiet_median(&builds, |unit, ()| unit.granted_s());
    println!("{}", describe("builds", &builds));
    println!(
        "as measured: wall_s {:.3?} cpu_s {:.2?}",
        builds.iter().map(|(u, ())| u.wall_s).collect::<Vec<_>>(),
        builds.iter().map(|(u, ())| u.cpu_s).collect::<Vec<_>>()
    );
    if trace {
        let span = |name: &str| spans.get(name).map_or(0.0, |v| median(v));
        let combine_all_s = span("combine_all");
        let train_examples = (counts.1 * FINAL_EPOCHS) as f64;
        report.set("store.ingest_s", span("ingest"));
        report.set("store.ingest_rows_per_s", rows / span("ingest"));
        report.set("core.combine_stage_s", span("combine"));
        report.set("supervision.combine_all_s", combine_all_s);
        report.set("model.prepare_s", span("combine") - combine_all_s);
        report.set("model.search_s", span("search"));
        report.set("model.search_trials", counts.0 as f64);
        report.set("model.train_s", span("train"));
        report.set("model.train_examples_per_s", train_examples / span("train"));
        report.set("model.package_s", span("package"));
        report.set("model.evaluate_s", span("evaluate"));
        report.set("model.evaluate_rows_per_s", counts.2 as f64 / span("evaluate"));
        report.set("core.persist_bytes", counts.3 as f64);
        let unexplained_s = median(&unexplained);
        report.set("core.unexplained_s", unexplained_s);
        if unexplained_s > 0.05 * wall {
            report.violations.push(format!(
                "unexplained {unexplained_s} s is more than 5% of the {wall} s build"
            ));
        }
        report.set("tensor.gemm_gflops", gemm_gflops());
    } else {
        println!("{}", describe("set-up", &setups));
        report.set("setup_s", quiet_median(&setups, |u, ()| u.granted_s()) / SETUP_GROUP as f64);
        report.set("latency_ms", wall * 1000.0);
        report.set("records_per_s", rows / wall);
        report.set("cpu_ms_per_krecord", quiet_median(&builds, |u, ()| u.cpu_s * 1e6 / rows));
        report.set("quality", accuracies[0]);
        report.set("peak_rss_mb", peak_rss.expect("at least one build ran"));
    }
    Ok(report)
}

/// `Matrix::matmul` at 256^3, above the blocked-kernel cutoff: the rate
/// training reaches only where its shapes clear that cutoff too.
fn gemm_gflops() -> f64 {
    let fill = |salt: usize| {
        let data = (0..GEMM_DIM * GEMM_DIM).map(|i| ((i * 31 + salt) % 17) as f32 / 17.0).collect();
        Matrix::from_vec(GEMM_DIM, GEMM_DIM, data)
    };
    let (a, b) = (fill(1), fill(2));
    let times: Vec<f64> = (0..GEMM_ITERS)
        .map(|_| {
            let t = Instant::now();
            black_box(black_box(&a).matmul(black_box(&b)));
            secs(t.elapsed())
        })
        .collect();
    2.0 * (GEMM_DIM as f64).powi(3) / median(&times) / 1e9
}
