//! The benchmark's own client: a fixed pool of closed-loop connections,
//! the shape of an upstream service calling the model tier. Each
//! connection sends its next request only when the previous one has
//! answered, so a slower server receives less load and never builds a
//! backlog. (An open loop was tried and rejected; see README.md.)
//!
//! The client's own cost is part of the loop. The traced pass measures it
//! as `loadgen.*` so it can be subtracted.

use crate::estimators::Tally;
use crate::meter::{Clocks, Unit};
use crate::{secs, Res};
use overton::model::ServingResponse;
use overton::serving::net::{NetClient, PredictOutcome};
use overton::serving::TraceReport;
use overton::store::Record;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Connections and client threads; at most `nproc` on the 2-core box.
pub const CLIENTS: usize = 2;
/// One request in this many is compared with the precomputed in-process
/// answer (and, in a traced phase, has its server-side trace fetched).
pub const CHECK_EVERY: u64 = 16;

/// One phase of load: `CLIENTS` connections sending `batch`-record
/// requests cut from `records`, for `warmup_s` unmeasured and then
/// `measure_s` measured seconds, read on the three clocks in `slices`
/// equal time slices.
pub struct Phase<'a> {
    pub addr: SocketAddr,
    pub records: &'a [Record],
    /// `expected[i]` is the in-process answer for `records[i]`.
    pub expected: &'a [ServingResponse],
    pub batch: usize,
    pub warmup_s: f64,
    pub measure_s: f64,
    pub slices: usize,
    /// Send a trace id with every request and fetch the server's span
    /// timeline for the checked ones.
    pub traced: bool,
}

/// What finished inside one time slice.
#[derive(Default)]
pub struct SliceLoad {
    pub records: u64,
    pub latencies_s: Vec<f64>,
}

#[derive(Default)]
pub struct PhaseResult {
    /// The measured window, slice by slice. The CPU clock covers the whole
    /// process: server and client share it.
    pub slices: Vec<(Unit, SliceLoad)>,
    /// Every request sent, warm-up included; shed, errored and wrong
    /// answers are failures.
    pub tally: Tally,
    pub shed: u64,
    pub traces: Vec<TraceReport>,
}

impl PhaseResult {
    pub fn records(&self) -> u64 {
        self.slices.iter().map(|(_, load)| load.records).sum()
    }

    pub fn latencies_ms(&self) -> Vec<f64> {
        self.slices.iter().flat_map(|(_, l)| &l.latencies_s).map(|s| s * 1000.0).collect()
    }
}

/// One client's log: when each measured request finished and how long it
/// took, plus the counts.
#[derive(Default)]
struct ClientLog {
    finished: Vec<(Instant, f64)>,
    tally: Tally,
    shed: u64,
    traces: Vec<TraceReport>,
}

impl Phase<'_> {
    pub fn run(&self) -> Res<PhaseResult> {
        let requests = self.records.len() / self.batch;
        assert!(requests >= CLIENTS, "too few records for {CLIENTS} clients");
        let origin = Instant::now();
        let window_start = origin + Duration::from_secs_f64(self.warmup_s);
        let window_end = window_start + Duration::from_secs_f64(self.measure_s);

        // This thread reads the clocks at every slice boundary while the
        // clients run.
        let (logs, boundaries) = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let first = c * requests / CLIENTS;
                    scope.spawn(move || self.client(c, first, requests, window_start, window_end))
                })
                .collect();
            let boundaries: Vec<Clocks> = (0..=self.slices)
                .map(|k| {
                    let due = window_start
                        + Duration::from_secs_f64(self.measure_s * k as f64 / self.slices as f64);
                    std::thread::sleep(due.saturating_duration_since(Instant::now()));
                    Clocks::read()
                })
                .collect();
            let logs: Vec<_> =
                handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect();
            (logs, boundaries)
        });

        let mut result = PhaseResult {
            slices: boundaries
                .windows(2)
                .map(|pair| (pair[0].until(&pair[1]), SliceLoad::default()))
                .collect(),
            ..Default::default()
        };
        for log in logs {
            let log = log?;
            for (at, latency_s) in log.finished {
                // The slice whose boundaries (as actually read) hold `at`.
                let slice = boundaries.partition_point(|b| b.at <= at);
                if (1..boundaries.len()).contains(&slice) {
                    let load = &mut result.slices[slice - 1].1;
                    load.records += self.batch as u64;
                    load.latencies_s.push(latency_s);
                }
            }
            result.tally.merge(log.tally);
            result.shed += log.shed;
            result.traces.extend(log.traces);
        }
        Ok(result)
    }

    /// One closed-loop connection, run until the window ends.
    fn client(
        &self,
        id: usize,
        first: usize,
        requests: usize,
        window_start: Instant,
        window_end: Instant,
    ) -> Result<ClientLog, String> {
        let mut client = NetClient::connect(self.addr).map_err(|e| e.to_string())?;
        let mut log = ClientLog::default();
        let mut sent = 0u64;
        loop {
            let i = (first + sent as usize) % requests;
            let span = i * self.batch..(i + 1) * self.batch;
            let trace_id = self.traced.then(|| format!("bench-{id}-{sent}"));
            let sent_at = Instant::now();
            if sent_at >= window_end {
                return Ok(log);
            }
            let (outcome, _) = client
                .predict_traced(&self.records[span.clone()], trace_id.as_deref())
                .map_err(|e| e.to_string())?;
            let done_at = Instant::now();
            let checked = sent.is_multiple_of(CHECK_EVERY);
            sent += 1;
            match outcome {
                PredictOutcome::Answered(results) => {
                    log.tally.note(results.iter().all(Result::is_ok));
                    if checked {
                        let same = results.len() == self.batch
                            && results
                                .iter()
                                .zip(&self.expected[span])
                                .all(|(got, want)| got.as_ref().ok() == Some(want));
                        log.tally.check(same);
                    }
                }
                PredictOutcome::Shed { .. } => {
                    log.tally.note(false);
                    log.shed += 1;
                    continue;
                }
            }
            if done_at >= window_start {
                log.finished.push((done_at, secs(done_at - sent_at)));
            }
            if let (true, Some(trace_id)) = (checked, &trace_id) {
                log.traces.push(client.trace(trace_id).map_err(|e| e.to_string())?);
            }
        }
    }
}
