//! `serve_offline` — back-of-house serving: `WorkerPool::process` on
//! 256-record bursts, the shape of replaying a log through the model. No
//! socket, no wire codec, no obs: a change to any of those predicts *no
//! change* here, while an inference change should move this workload most
//! (about nine tenths of it is the forward pass).

use crate::estimators::{median, Tally};
use crate::host::peak_rss_mb;
use crate::loadgen::CHECK_EVERY;
use crate::meter::{describe, quiet_median, Clocks, Unit};
use crate::serving::{self, SLICE_S};
use crate::spec::Report;
use crate::{secs, Res};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Records per burst.
const BURST: usize = 256;
/// Iterations of the single-thread reference in the traced pass.
const REFERENCE_ITERS: usize = 40;

pub fn sizes() -> String {
    format!(
        "{}; {BURST}-record bursts from one caller; 1/8 warm-up + 7/8 measured of --seconds; \
         1 burst in {CHECK_EVERY} checked",
        serving::sizes()
    )
}

pub fn run(scratch: &Path, seed: u64, seconds: f64, trace: bool) -> Res<Report> {
    let mut report = Report::default();
    let prepared = serving::set_up(scratch, seed)?;
    let pool = prepared.pool(None);
    let bursts = prepared.records.len() / BURST;

    let (warmup_s, measure_s) = (seconds / 8.0, seconds * 7.0 / 8.0);
    let slices_wanted = ((measure_s / SLICE_S).round() as usize).max(1);
    // One entry per time slice of the measured window: its clocks and the
    // burst latencies (seconds) that finished in it.
    let mut slices: Vec<(Unit, Vec<f64>)> = Vec::new();
    let mut slice_started: Option<Clocks> = None;
    let mut latencies = Vec::new();
    let mut tally = Tally::default();
    let mut batch_sizes = (0u64, 0u64); // sum, count
    let started = Instant::now();
    for sent in 0u64.. {
        let now = secs(started.elapsed());
        match slice_started {
            None if now >= warmup_s => slice_started = Some(Clocks::read()),
            Some(from) if secs(from.at.elapsed()) >= SLICE_S => {
                let until = Clocks::read();
                slices.push((from.until(&until), std::mem::take(&mut latencies)));
                slice_started = Some(until);
            }
            _ => {}
        }
        if slices.len() == slices_wanted {
            break;
        }
        let span = (sent as usize % bursts) * BURST..(sent as usize % bursts + 1) * BURST;
        // `process` takes the burst by value; the copy is the caller's
        // cost and stays inside the loop, as it would in a replay job.
        let burst = prepared.records[span.clone()].to_vec();
        let t = Instant::now();
        let replies = pool.process(burst);
        let latency_s = secs(t.elapsed());
        tally.note(replies.len() == BURST && replies.iter().all(|r| r.result.is_ok()));
        if sent.is_multiple_of(CHECK_EVERY) {
            let same = replies
                .iter()
                .zip(&prepared.expected[span])
                .all(|(reply, want)| reply.result.as_ref().ok() == Some(want));
            tally.check(same);
        }
        batch_sizes.0 += replies.iter().map(|r| r.batch_size as u64).sum::<u64>();
        batch_sizes.1 += replies.len() as u64;
        if slice_started.is_some() {
            latencies.push(latency_s);
        }
    }
    report.note(tally);

    let records_in = |bursts: &Vec<f64>| (bursts.len() * BURST) as f64;
    let rate = quiet_median(&slices, |unit, bursts| records_in(bursts) / unit.granted_s());
    println!("{}", describe("bursts", &slices));
    println!(
        "as measured: {:.0} records/s over {:.1} s",
        slices.iter().map(|(_, b)| records_in(b)).sum::<f64>()
            / slices.iter().map(|(u, _)| u.wall_s).sum::<f64>(),
        measure_s
    );
    if trace {
        // The same records through the model on this one thread: what the
        // pool's workers could do at best if hand-off were free. Each
        // batch is a unit on the three clocks, like everything else.
        let batches: Vec<(Unit, ())> = (0..REFERENCE_ITERS)
            .map(|i| {
                let records = &prepared.records[(i % bursts) * BURST..][..BURST];
                let from = Clocks::read();
                black_box(prepared.server.predict_batch(black_box(records)));
                (from.elapsed(), ())
            })
            .collect();
        let batch_s = quiet_median(&batches, |unit, ()| unit.granted_s());
        report.set("model.predict_batch256_us", batch_s * 1e6);
        let single_thread_rate = BURST as f64 / batch_s;
        report.set(
            "serving.pool.scaling_efficiency",
            rate / (serving::POOL.workers as f64 * single_thread_rate),
        );
        report.set("serving.pool.batch_size_mean", batch_sizes.0 as f64 / batch_sizes.1 as f64);
    } else {
        report.set("setup_s", prepared.setup_s);
        report.set("records_per_s", rate);
        // A burst's wall time, stretched like any long operation by what
        // was stolen while it ran.
        report.set(
            "latency_ms",
            quiet_median(&slices, |unit, bursts| {
                median(bursts) * (1.0 - unit.stolen_share()) * 1000.0
            }),
        );
        report.set(
            "cpu_ms_per_krecord",
            quiet_median(&slices, |unit, bursts| unit.cpu_s * 1e6 / records_in(bursts)),
        );
        report.set("quality", report.quality());
        report.set("peak_rss_mb", peak_rss_mb());
    }
    pool.shutdown();
    Ok(report)
}
