//! `serve_socket` — the second user-visible clock: records per second and
//! latency through `overton serve --listen --obs` over a real loopback
//! socket. The server is the production shape: `NetServer` with
//! `NetConfig::default()` (request tracing sampled as shipped), the run's
//! traffic baseline, and an `obs::Monitor` writing an on-disk obslog,
//! pumped every 100 ms.
//!
//! Two closed-loop connections drive two phases. *Bulk* sends 32-record
//! requests: the forward pass dominates, with JSON both ways a visible
//! second. *Interactive* sends single records: the forward pass is about
//! a quarter of the request, so HTTP framing, the hand-off to the pool
//! and syscalls dominate. An optimisation of either half shows in one
//! phase and should leave the other flat.

use crate::estimators::{median, percentile};
use crate::host::peak_rss_mb;
use crate::loadgen::{Phase, PhaseResult, CHECK_EVERY, CLIENTS};
use crate::meter::{describe, quiet_median};
use crate::serving::{self, Prepared, SLICE_S};
use crate::spec::Report;
use crate::{secs, Res};
use overton::obs::{default_rules, Monitor, ObsConfig, ObsLog};
use overton::serving::net::{wire, NetClient, NetConfig, NetServer, PredictOutcome};
use overton::serving::{RequestTrace, SpanName, WorkerPool};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::TcpListener;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Records per bulk request.
const BULK: usize = 32;
/// The CLI's `--obs` window length.
const OBS_WINDOW: u64 = 250;
const PUMP_EVERY: Duration = Duration::from_millis(100);
/// Iterations of the staged request-path replay.
const REPLAY_ITERS: usize = 250;
/// Untraced/traced phase pairs the traced pass cuts the bulk window into.
const TRACE_PAIRS: usize = 4;

pub fn sizes() -> String {
    format!(
        "{}; {CLIENTS} closed-loop connections; bulk {BULK}-record then single-record requests, \
         each phase 1/8 warm-up + 3/8 measured of --seconds; 1 answer in {CHECK_EVERY} checked",
        serving::sizes()
    )
}

/// The monitor's pump loop on its own thread, as `overton serve` runs it,
/// with the time spent pumping kept so the traced pass can report the
/// share of the interval the loop is busy.
fn pump_loop(mut monitor: Monitor, stop: &AtomicBool) -> (Monitor, f64) {
    let mut busy_s = 0.0;
    loop {
        let stopping = stop.load(Ordering::SeqCst);
        let t = Instant::now();
        monitor.pump();
        busy_s += secs(t.elapsed());
        if stopping {
            return (monitor, busy_s);
        }
        std::thread::sleep(PUMP_EVERY);
    }
}

pub fn run(scratch: &Path, seed: u64, seconds: f64, trace: bool) -> Res<Report> {
    let mut report = Report::default();
    let prepared = serving::set_up(scratch, seed)?;

    let pool = Arc::new(prepared.pool(Some(prepared.model.baseline.clone())));
    let obslog_dir = scratch.join("obslog");
    let obs_config = ObsConfig {
        window_len: OBS_WINDOW,
        rules: default_rules(pool.telemetry().slice_names()),
        ..Default::default()
    };
    let monitor = Monitor::attach(&pool, obs_config, Some(&obslog_dir))?;
    let stop = Arc::new(AtomicBool::new(false));
    let pump = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || pump_loop(monitor, &stop))
    };
    let net = NetServer::start(
        TcpListener::bind("127.0.0.1:0")?,
        Arc::clone(&pool),
        NetConfig::default(),
    )?;
    let served_from = Instant::now();

    let (warmup_s, measure_s) = (seconds / 8.0, seconds * 3.0 / 8.0);
    let slices = ((measure_s / SLICE_S).round() as usize).max(1);
    let phase = |batch: usize, warmup_s: f64, measure_s: f64, slices: usize, traced: bool| {
        Phase {
            addr: net.local_addr(),
            records: &prepared.records,
            expected: &prepared.expected,
            batch,
            warmup_s,
            measure_s,
            slices,
            traced,
        }
        .run()
    };

    // The load, then (traced pass only) the staged replay on the idle server.
    let outcome = (|| -> Res<()> {
        if trace {
            // The bulk window in alternating short phases: as shipped,
            // then with the client naming every request and reading back
            // the server's spans. Alternating keeps warm-up drift out of
            // the comparison.
            let pair_s = measure_s / (2 * TRACE_PAIRS) as f64;
            let mut pairs = Vec::new();
            for k in 0..TRACE_PAIRS {
                let warmup_s = if k == 0 { warmup_s } else { 0.0 };
                let plain = phase(BULK, warmup_s, pair_s, 1, false)?;
                pairs.push((plain, phase(BULK, 0.0, pair_s, 1, true)?));
            }
            let interactive = phase(1, warmup_s, measure_s, slices, false)?;
            for p in pairs.iter().flat_map(|(plain, traced)| [plain, traced]).chain([&interactive])
            {
                report.note(p.tally);
            }
            under_load_metrics(&mut report, &pairs, &interactive, measure_s);
            replay(&mut report, &prepared, &pool, &net)?;
        } else {
            let bulk = phase(BULK, warmup_s, measure_s, slices, false)?;
            let interactive = phase(1, warmup_s, measure_s, slices, false)?;
            report.note(bulk.tally);
            report.note(interactive.tally);
            report.set("setup_s", prepared.setup_s);
            report.set(
                "records_per_s",
                quiet_median(&bulk.slices, |unit, load| load.records as f64 / unit.granted_s()),
            );
            // A median over thousands of 0.2 ms requests already leaves
            // out the few that straddle a stolen interval, so latency is
            // taken as measured, over the quieter slices only.
            report.set(
                "latency_ms",
                quiet_median(&interactive.slices, |_, load| median(&load.latencies_s) * 1000.0),
            );
            report.set(
                "cpu_ms_per_krecord",
                quiet_median(&bulk.slices, |unit, load| unit.cpu_s * 1e6 / load.records as f64),
            );
            report.set("quality", report.quality());
            println!("{}", describe("bulk", &bulk.slices));
            println!("{}", describe("interactive", &interactive.slices));
            println!(
                "as measured: bulk {:.0} records/s over {:.1} s, p50 {:.3} ms; interactive {:.0} requests/s, p50 {:.4} ms; shed {}",
                bulk.records() as f64 / measure_s,
                measure_s,
                median(&bulk.latencies_ms()),
                interactive.records() as f64 / measure_s,
                median(&interactive.latencies_ms()),
                bulk.shed + interactive.shed
            );
        }
        Ok(())
    })();

    // Tear down in dependency order whether or not the load succeeded:
    // connections are closed (every client is dropped), so drain is prompt.
    let served_s = secs(served_from.elapsed());
    net.drain();
    stop.store(true, Ordering::SeqCst);
    let (monitor, pump_busy_s) = pump.join().expect("pump thread panicked");
    outcome?;

    if trace {
        let snapshot = pool.snapshot();
        report.set("serving.net.shed_ratio", snapshot.shed as f64 / report.attempted.max(1) as f64);
        report.set("obs.pump_busy_ratio", pump_busy_s / served_s);
        report.set(
            "obs.dropped_ratio",
            snapshot.observer_dropped as f64 / snapshot.served.max(1) as f64,
        );
        report.set("obs.windows_closed", monitor.stats().closed() as f64);
        if monitor.log_errors() > 0 {
            report.violations.push(format!("{} obslog write failures", monitor.log_errors()));
        }
        drop(monitor);
        // The read side of the layer: rebuild the monitor from the log.
        let t = Instant::now();
        let replayed = ObsLog::replay(&obslog_dir)?;
        report.set("obs.replay_s", secs(t.elapsed()));
        if replayed.stats().closed() == 0 {
            report.violations.push("the replayed obslog holds no closed window".into());
        }
    } else {
        report.set("peak_rss_mb", peak_rss_mb());
    }
    Ok(report)
}

fn under_load_metrics(
    report: &mut Report,
    pairs: &[(PhaseResult, PhaseResult)],
    interactive: &PhaseResult,
    measure_s: f64,
) {
    // Medians of the server's own eight spans, from the traces fetched
    // over `/trace/<id>` during the traced bulk phases.
    let mut spans: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for span in pairs.iter().flat_map(|(_, traced)| &traced.traces).flat_map(|t| &t.spans) {
        spans.entry(span.name.as_str()).or_default().push(span.wall_micros() as f64);
    }
    for (metric, span) in [
        ("serving.trace.accept_us", "accept"),
        ("serving.trace.parse_us", "parse"),
        ("serving.trace.admission_us", "admission"),
        ("serving.trace.queue_wait_us", "queue-wait"),
        ("serving.trace.batch_wait_us", "batch-wait"),
        ("serving.trace.engine_forward_us", "engine-forward"),
        ("serving.trace.encode_us", "encode"),
        ("serving.trace.write_us", "write"),
    ] {
        report.set(metric, spans.get(span).map_or(0.0, |v| median(v)));
    }
    if spans.is_empty() {
        report.violations.push("the traced phases fetched no server trace".into());
    }

    // Median over the pairs of traced over untraced records per second.
    let rate = |p: &PhaseResult| {
        p.records() as f64 / p.slices.iter().map(|(unit, _)| unit.granted_s()).sum::<f64>()
    };
    let ratios: Vec<f64> = pairs.iter().map(|(plain, traced)| rate(traced) / rate(plain)).collect();
    report.set("trace_overhead_ratio", median(&ratios));
    let bulk_ms: Vec<f64> = pairs.iter().flat_map(|(plain, _)| plain.latencies_ms()).collect();
    report.set("loadgen.bulk_p50_ms", median(&bulk_ms));
    report.set("loadgen.bulk_p99_ms", percentile(&bulk_ms, 99.0).unwrap_or(0.0));
    let interactive_ms = interactive.latencies_ms();
    println!(
        "tail percentiles over {} bulk and {} interactive requests",
        bulk_ms.len(),
        interactive_ms.len()
    );
    report.set("loadgen.p90_ms", percentile(&interactive_ms, 90.0).unwrap_or(0.0));
    report.set("loadgen.p99_ms", percentile(&interactive_ms, 99.0).unwrap_or(0.0));
    report.set("loadgen.interactive_requests_per_s", interactive.records() as f64 / measure_s);
}

/// Where one request's time goes: each layer of the request path called
/// on its own, single-threaded, on the same records the load used, on the
/// now idle server. Stages are interleaved inside every iteration so that
/// drift on a shared box lands on all of them alike; each figure is the
/// median over the iterations.
fn replay(report: &mut Report, prepared: &Prepared, pool: &WorkerPool, net: &NetServer) -> Res<()> {
    let server = &prepared.server;
    let (schema, space) = (server.schema(), server.feature_space());
    let mut client = NetClient::connect(net.local_addr())?;
    let mut us: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut timed = |name: &'static str, since: Instant| {
        let elapsed_us = secs(since.elapsed()) * 1e6;
        us.entry(name).or_default().push(elapsed_us);
        elapsed_us
    };
    let (mut wire_bytes, mut batch_sizes, mut handoff_us) = (0usize, Vec::new(), Vec::new());
    let requests = prepared.records.len() / BULK;

    for i in 0..REPLAY_ITERS {
        let records = &prepared.records[(i % requests) * BULK..][..BULK];

        let t = Instant::now();
        let request_body = wire::encode_predict_request(black_box(records));
        timed("loadgen.encode_us", t);

        let t = Instant::now();
        let decoded = wire::decode_predict_request(black_box(request_body.as_bytes()), 4096)?;
        timed("serving.net.wire_decode_us", t);
        black_box(decoded);

        let t = Instant::now();
        for record in records {
            black_box(record.validate(schema))?;
        }
        timed("store.validate_us", t);

        let t = Instant::now();
        black_box(space.encode_batch(black_box(records), schema));
        timed("model.encode_us", t);

        let t = Instant::now();
        let results = server.predict_batch(black_box(records));
        timed("model.predict_batch_us", t);

        let t = Instant::now();
        let response_body = wire::encode_predict_response(black_box(&results));
        timed("serving.net.wire_encode_us", t);

        let t = Instant::now();
        black_box(wire::decode_predict_response(black_box(response_body.as_bytes()))?);
        timed("loadgen.decode_us", t);
        wire_bytes = request_body.len() + response_body.len();

        // The pool stamps its own spans on a trace it is handed; the
        // forward pass as the *worker* timed it is what hand-off is the
        // rest of (the caller's thread and the worker's differ in what
        // their caches hold, so subtracting a forward timed here would not do).
        let burst = records.to_vec();
        let spans = RequestTrace::start(format!("replay-{i}"), Instant::now());
        let t = Instant::now();
        let replies = pool.process_traced(burst, Some(Arc::clone(&spans)));
        let process_us = timed("serving.pool.process_us", t);
        let (forward_from, forward_to) =
            spans.span_micros(SpanName::EngineForward).ok_or("the pool stamped no forward span")?;
        handoff_us.push(process_us - (forward_to - forward_from) as f64);
        batch_sizes.extend(replies.iter().map(|r| r.batch_size as f64));

        let t = Instant::now();
        let outcome = client.predict(records)?;
        timed("serving.net.roundtrip_us", t);
        if !matches!(outcome, PredictOutcome::Answered(_)) {
            return Err("the idle server shed a replayed request".into());
        }

        // Single-record twins.
        let one = &records[..1];
        let t = Instant::now();
        black_box(server.predict_batch(black_box(one)));
        timed("model.predict1_us", t);
        let t = Instant::now();
        black_box(client.predict(one)?);
        timed("serving.net.roundtrip1_us", t);
    }

    let m: BTreeMap<&'static str, f64> = us.iter().map(|(k, v)| (*k, median(v))).collect();
    for (name, value) in &m {
        report.set(name, *value);
    }
    report.set(
        "model.forward_decode_us",
        m["model.predict_batch_us"] - m["store.validate_us"] - m["model.encode_us"],
    );
    report.set("serving.pool.handoff_us", median(&handoff_us));
    // The named residual: what the round trip costs beyond every layer
    // measured above — HTTP framing, syscalls, thread wake-ups, the obs hook.
    report.set(
        "serving.net.http_us",
        m["serving.net.roundtrip_us"]
            - m["loadgen.encode_us"]
            - m["serving.net.wire_decode_us"]
            - m["serving.pool.process_us"]
            - m["serving.net.wire_encode_us"]
            - m["loadgen.decode_us"],
    );
    report.set(
        "serving.net.per_request_overhead_us",
        m["serving.net.roundtrip1_us"] - m["model.predict1_us"],
    );
    report.set("serving.net.wire_bytes_per_record", wire_bytes as f64 / BULK as f64);
    report.set(
        "serving.pool.batch_size_mean",
        batch_sizes.iter().sum::<f64>() / batch_sizes.len() as f64,
    );
    Ok(())
}
