//! Live serving telemetry: QPS, latency quantiles, per-slice traffic
//! shares and confidence drift against a training-time baseline.
//!
//! The paper's monitoring story (§1, §2.2) is about *fine-grained* product
//! quality; post-deployment, the first signals arrive before any gold
//! label does — traffic mix shifting toward a hard slice, the serving
//! model's confidence sagging, tail latencies growing. This module
//! aggregates those from the worker pool with lock-free counters so the
//! hot path never blocks on monitoring, and offers a single cheap
//! **observer hook** ([`Telemetry::attach_observer`]) through which the
//! continuous-monitoring subsystem (`overton-obs`) receives one
//! [`ServeSample`] per request over a bounded channel — one atomic bump
//! plus a `try_send`, never a block, never a lock on the serving path.

use crate::score::score_response;
use overton_model::{Server, ServingResponse};
use overton_store::{Record, Schema, StoreError};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{SyncSender, TrySendError};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Power-of-two latency buckets from 1µs up: bucket `i` counts latencies
/// in `[2^(i-1), 2^i)` µs, with the final bucket absorbing everything
/// slower (~9 minutes and up). Public so the windowed statistics of
/// `overton-obs` can use the identical bucketing scheme.
pub const LATENCY_BUCKETS: usize = 30;

/// Number of fixed-width confidence histogram bins over `[0, 1]`, shared
/// by [`TrafficBaseline`] and the windowed confidence distributions of
/// `overton-obs` (the KS drift statistic compares the two directly).
pub const CONFIDENCE_BINS: usize = 20;

/// The bucket a latency in microseconds falls into (log2 scale, clamped
/// to the final bucket).
pub fn latency_bucket(micros: u64) -> usize {
    (64 - micros.leading_zeros() as usize).min(LATENCY_BUCKETS - 1)
}

/// The conservative (upper-bound) latency a bucket index resolves to.
pub fn latency_bucket_upper(bucket: usize) -> Duration {
    Duration::from_micros(1u64 << bucket.min(LATENCY_BUCKETS - 1))
}

/// The fixed-width confidence bin a confidence in `[0, 1]` falls into
/// (out-of-range values clamp to the edge bins).
pub fn confidence_bin(confidence: f32) -> usize {
    ((f64::from(confidence) * CONFIDENCE_BINS as f64) as usize).min(CONFIDENCE_BINS - 1)
}

/// A lock-free fixed-bucket latency histogram (log2 µs scale).
#[derive(Debug)]
pub struct LatencyHistogram {
    counts: [AtomicU64; LATENCY_BUCKETS],
    sum_micros: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram. `const` so fixed arrays of histograms (the
    /// per-stage store in [`crate::trace::TraceStore`]) can be built
    /// without `Default` machinery.
    pub const fn new() -> Self {
        Self {
            counts: [const { AtomicU64::new(0) }; LATENCY_BUCKETS],
            sum_micros: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn record(&self, latency: Duration) {
        let micros = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        self.counts[latency_bucket(micros)].fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// A point-in-time copy of the per-bucket counts (index `i` counts
    /// latencies up to [`latency_bucket_upper`]`(i)`) — the raw series
    /// the `/metrics` exposition derives its cumulative buckets from.
    pub fn bucket_counts(&self) -> [u64; LATENCY_BUCKETS] {
        std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed))
    }

    /// Sum of all observations in microseconds (the histogram `_sum`).
    pub fn sum_micros(&self) -> u64 {
        self.sum_micros.load(Ordering::Relaxed)
    }

    /// Mean latency (zero when empty).
    pub fn mean(&self) -> Duration {
        let n = self.count();
        if n == 0 {
            return Duration::ZERO;
        }
        Duration::from_micros(self.sum_micros.load(Ordering::Relaxed) / n)
    }

    /// The `q`-quantile, resolved to the upper bound of the bucket
    /// containing it — a conservative estimate with at most 2x resolution
    /// error, which is what an SLA dashboard needs.
    ///
    /// Every input has a defined value: the empty histogram returns
    /// [`Duration::ZERO`] for any `q`, and `q` is clamped into `[0, 1]` —
    /// `q <= 0` resolves to the smallest observed bucket's bound and
    /// `q >= 1` to the largest.
    pub fn quantile(&self, q: f64) -> Duration {
        let total = self.count();
        if total == 0 {
            return Duration::ZERO;
        }
        // NaN ends up as target 1 (the minimum), like q = 0.
        let q = q.clamp(0.0, 1.0);
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c.load(Ordering::Relaxed);
            if seen >= target {
                return latency_bucket_upper(i);
            }
        }
        latency_bucket_upper(LATENCY_BUCKETS - 1)
    }
}

/// Training-time reference distribution for drift detection: what slice
/// shares and confidence looked like on curated data when the artifact
/// shipped. Serializable — the evaluate stage persists it as a typed
/// `baseline.json` artifact in the run directory, and deployments reload
/// it so post-deployment drift is always measured against the
/// distribution the model was actually accepted on.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TrafficBaseline {
    /// `(slice name, share of records *predicted* in the slice)` — the
    /// model's own slice-membership heads over the reference set.
    pub slice_shares: Vec<(String, f64)>,
    /// Mean response confidence.
    pub mean_confidence: f64,
    /// `(slice name, share of records *tagged* in the slice)` — curated
    /// membership, the reference for traffic-mix drift (PSI) where slice
    /// attribution of arriving records is available.
    pub tag_shares: Vec<(String, f64)>,
    /// Confidence histogram over the whole reference set
    /// ([`CONFIDENCE_BINS`] fixed-width bins on `[0, 1]`).
    pub confidence_hist: Vec<u64>,
    /// Per-slice confidence histograms (tag-based membership), parallel
    /// to [`tag_shares`](Self::tag_shares) — the reference distributions
    /// for the per-slice KS drift statistic.
    pub slice_confidence_hists: Vec<Vec<u64>>,
    /// Number of reference records the baseline was measured over. Zero
    /// on baselines persisted before sample sizes were recorded
    /// (`#[serde(default)]`), which disables significance-gated rules —
    /// a share without its sample size cannot anchor a significance test.
    #[serde(default)]
    pub sample_size: u64,
    /// Integer tagged-membership counts, parallel to
    /// [`tag_shares`](Self::tag_shares) (empty on pre-sample-size
    /// baselines). Together with [`sample_size`](Self::sample_size) these
    /// are the exact binomial counts the two-proportion significance test
    /// needs.
    #[serde(default)]
    pub tag_counts: Vec<u64>,
}

impl TrafficBaseline {
    /// Measures the baseline by running `server` over a reference set
    /// (typically the dev or test split the artifact was accepted on).
    pub fn collect(server: &Server, records: &[Record]) -> Result<Self, StoreError> {
        let slice_names = server.feature_space().slice_names.clone();
        let mut slice_counts = vec![0u64; slice_names.len()];
        let mut tag_counts = vec![0u64; slice_names.len()];
        let mut slice_hists = vec![vec![0u64; CONFIDENCE_BINS]; slice_names.len()];
        let mut confidence_hist = vec![0u64; CONFIDENCE_BINS];
        let mut confidence_sum = 0.0f64;
        let mut n = 0u64;
        for (record, result) in records.iter().zip(server.predict_batch(records)) {
            let response = result?;
            let bin = confidence_bin(response.confidence);
            confidence_hist[bin] += 1;
            for (i, (_, prob)) in response.slices.iter().enumerate() {
                if *prob > 0.5 {
                    slice_counts[i] += 1;
                }
            }
            for (i, name) in slice_names.iter().enumerate() {
                if record.in_slice(name) {
                    tag_counts[i] += 1;
                    slice_hists[i][bin] += 1;
                }
            }
            confidence_sum += f64::from(response.confidence);
            n += 1;
        }
        if n == 0 {
            return Err(StoreError::Validation(
                "cannot collect a traffic baseline from zero records".into(),
            ));
        }
        let share = |counts: Vec<u64>| -> Vec<(String, f64)> {
            slice_names
                .iter()
                .cloned()
                .zip(counts)
                .map(|(name, c)| (name, c as f64 / n as f64))
                .collect()
        };
        Ok(Self {
            slice_shares: share(slice_counts),
            mean_confidence: confidence_sum / n as f64,
            tag_shares: share(tag_counts.clone()),
            confidence_hist,
            slice_confidence_hists: slice_hists,
            sample_size: n,
            tag_counts,
        })
    }

    /// The tagged traffic share of a slice, if the baseline covers it.
    pub fn tag_share(&self, slice: &str) -> Option<f64> {
        self.tag_shares.iter().find(|(n, _)| n == slice).map(|(_, s)| *s)
    }

    /// The integer tagged-membership count of a slice, if the baseline
    /// recorded counts (post-sample-size baselines only).
    pub fn tag_count(&self, slice: &str) -> Option<u64> {
        let i = self.tag_shares.iter().position(|(n, _)| n == slice)?;
        self.tag_counts.get(i).copied()
    }

    /// The confidence histogram of a slice (tag-based membership), if the
    /// baseline covers it.
    pub fn slice_confidence_hist(&self, slice: &str) -> Option<&[u64]> {
        self.tag_shares
            .iter()
            .position(|(n, _)| n == slice)
            .map(|i| self.slice_confidence_hists[i].as_slice())
    }
}

/// One served request, as handed to an attached observer — everything the
/// windowed monitoring layer needs, flattened to plain integers so the
/// downstream aggregation is exactly reproducible from a replayed log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ServeSample {
    /// Whether the request was served (vs failed validation/decoding).
    pub ok: bool,
    /// Confidence bin of the response ([`CONFIDENCE_BINS`] scale); 0 for
    /// failed requests (which carry no confidence).
    pub confidence_bin: usize,
    /// Response confidence in millionths (0 for failed requests).
    pub confidence_millionths: u64,
    /// Queue + inference latency in microseconds.
    pub latency_micros: u64,
    /// Slice membership as a bitmask over the telemetry slice space
    /// (slices beyond 64 are not tracked): the record's slice *tags* when
    /// it carries any (the synthetic streams do, standing in for
    /// after-the-fact slice attribution of live traffic), the model's
    /// *predicted* membership otherwise.
    pub slice_mask: u64,
    /// Mean gold accuracy over the record's gold-labeled tasks, in
    /// millionths; `None` for unlabeled traffic.
    pub gold_accuracy_millionths: Option<u64>,
}

impl ServeSample {
    /// Builds the sample for one served request.
    pub fn collect(
        schema: &Schema,
        slice_names: &[String],
        record: &Record,
        result: &Result<ServingResponse, StoreError>,
        latency: Duration,
    ) -> Self {
        let latency_micros = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        let Ok(response) = result else {
            return Self {
                ok: false,
                confidence_bin: 0,
                confidence_millionths: 0,
                latency_micros,
                slice_mask: 0,
                gold_accuracy_millionths: None,
            };
        };
        // The record's own slice tags win when any names a telemetry slice.
        let (mut mask, mut tagged) = (0u64, false);
        for slice in record.slices() {
            for i in (0..slice_names.len()).filter(|&i| slice_names[i] == slice) {
                tagged = true;
                mask |= if i < 64 { 1 << i } else { 0 };
            }
        }
        if !tagged {
            for (i, (_, prob)) in response.slices.iter().enumerate().take(64) {
                if *prob > 0.5 {
                    mask |= 1 << i;
                }
            }
        }
        let confidence = response.confidence.clamp(0.0, 1.0);
        Self {
            ok: true,
            confidence_bin: confidence_bin(confidence),
            confidence_millionths: (f64::from(confidence) * 1e6) as u64,
            latency_micros,
            slice_mask: mask,
            gold_accuracy_millionths: score_response(schema, record, response)
                .map(|a| (a * 1e6).round() as u64),
        }
    }

    /// Whether the sample is in slice `i` of the telemetry slice space.
    pub fn in_slice(&self, i: usize) -> bool {
        i < 64 && self.slice_mask & (1 << i) != 0
    }
}

/// Shared, lock-free telemetry sink for the worker pool.
#[derive(Debug)]
pub struct Telemetry {
    started: Instant,
    served: AtomicU64,
    errors: AtomicU64,
    shed: AtomicU64,
    latency: LatencyHistogram,
    slice_names: Vec<String>,
    slice_counts: Vec<AtomicU64>,
    /// Confidence histogram over served traffic ([`CONFIDENCE_BINS`]
    /// fixed-width bins) — the live counterpart of
    /// [`TrafficBaseline::confidence_hist`], exposed per scrape.
    confidence_hist: Vec<AtomicU64>,
    /// Per-slice confidence histograms (predicted membership), parallel
    /// to `slice_counts`.
    slice_confidence_hists: Vec<Vec<AtomicU64>>,
    /// Confidence accumulated in millionths, so the sum stays atomic.
    confidence_sum_millionths: AtomicU64,
    baseline: Option<TrafficBaseline>,
    /// The observability hook: set once, read with a single atomic load
    /// on the hot path. Samples go over a *bounded* channel — when the
    /// monitor falls behind, samples are dropped (and counted), never
    /// queued unboundedly and never blocking a worker.
    observer: OnceLock<SyncSender<ServeSample>>,
    observer_dropped: AtomicU64,
}

impl Telemetry {
    /// Creates a sink for a serving model with the given slice space;
    /// `baseline` enables drift reporting.
    pub fn new(slice_names: Vec<String>, baseline: Option<TrafficBaseline>) -> Self {
        let slice_counts = slice_names.iter().map(|_| AtomicU64::new(0)).collect();
        let bins = || (0..CONFIDENCE_BINS).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        let slice_confidence_hists = slice_names.iter().map(|_| bins()).collect();
        Self {
            started: Instant::now(),
            served: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            latency: LatencyHistogram::default(),
            slice_names,
            slice_counts,
            confidence_hist: bins(),
            slice_confidence_hists,
            confidence_sum_millionths: AtomicU64::new(0),
            baseline,
            observer: OnceLock::new(),
            observer_dropped: AtomicU64::new(0),
        }
    }

    /// The slice space telemetry reports over (indicator order).
    pub fn slice_names(&self) -> &[String] {
        &self.slice_names
    }

    /// The training-time baseline, when drift reporting is enabled.
    pub fn baseline(&self) -> Option<&TrafficBaseline> {
        self.baseline.as_ref()
    }

    /// Attaches the observability hook: every served request is forwarded
    /// as a [`ServeSample`] over `tx`. At most one observer per sink;
    /// attaching a second is an error (the channel is an exclusive feed).
    pub fn attach_observer(&self, tx: SyncSender<ServeSample>) -> Result<(), StoreError> {
        self.observer
            .set(tx)
            .map_err(|_| StoreError::Validation("an observer is already attached".into()))
    }

    /// Whether an observer hook is attached.
    pub fn observer_attached(&self) -> bool {
        self.observer.get().is_some()
    }

    /// Samples dropped because the observer's bounded channel was full
    /// (the monitor fell behind; the serving path never waits for it).
    pub fn observer_dropped(&self) -> u64 {
        self.observer_dropped.load(Ordering::Relaxed)
    }

    /// Forwards one sample to the attached observer, if any. Never
    /// blocks: a full channel drops the sample and bumps the counter; a
    /// disconnected receiver is treated the same way.
    pub(crate) fn forward(&self, sample: ServeSample) {
        if let Some(tx) = self.observer.get() {
            if let Err(TrySendError::Full(_) | TrySendError::Disconnected(_)) = tx.try_send(sample)
            {
                self.observer_dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Records one shed request — admission control turned it away
    /// (queue past its high-water mark, connection cap, or drain) before
    /// it ever reached a worker.
    pub fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Requests shed by admission control so far.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Records one served request.
    pub fn observe(&self, result: &Result<ServingResponse, StoreError>, latency: Duration) {
        self.latency.record(latency);
        match result {
            Ok(response) => {
                self.served.fetch_add(1, Ordering::Relaxed);
                let confidence = response.confidence.clamp(0.0, 1.0);
                self.confidence_sum_millionths
                    .fetch_add((f64::from(confidence) * 1e6) as u64, Ordering::Relaxed);
                let bin = confidence_bin(confidence);
                self.confidence_hist[bin].fetch_add(1, Ordering::Relaxed);
                for (i, (_, prob)) in response.slices.iter().enumerate() {
                    if *prob > 0.5 {
                        if let Some(c) = self.slice_counts.get(i) {
                            c.fetch_add(1, Ordering::Relaxed);
                        }
                        if let Some(h) = self.slice_confidence_hists.get(i) {
                            h[bin].fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }
            Err(_) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The underlying latency histogram.
    pub fn latency(&self) -> &LatencyHistogram {
        &self.latency
    }

    /// A point-in-time copy of the confidence histogram over served
    /// traffic ([`CONFIDENCE_BINS`] fixed-width bins on `[0, 1]`).
    pub fn confidence_counts(&self) -> Vec<u64> {
        self.confidence_hist.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    }

    /// A point-in-time copy of slice `i`'s confidence histogram
    /// (predicted membership), when the slice exists.
    pub fn slice_confidence_counts(&self, i: usize) -> Option<Vec<u64>> {
        self.slice_confidence_hists
            .get(i)
            .map(|h| h.iter().map(|c| c.load(Ordering::Relaxed)).collect())
    }

    /// Per-slice served-request counts, parallel to
    /// [`slice_names`](Self::slice_names).
    pub fn slice_counts(&self) -> Vec<u64> {
        self.slice_counts.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    }

    /// A consistent-enough point-in-time view for dashboards and gates.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let served = self.served.load(Ordering::Relaxed);
        let elapsed = self.started.elapsed().as_secs_f64().max(1e-9);
        let mean_confidence = if served == 0 {
            0.0
        } else {
            self.confidence_sum_millionths.load(Ordering::Relaxed) as f64 / 1e6 / served as f64
        };
        let slice_shares: Vec<(String, f64)> = self
            .slice_names
            .iter()
            .zip(&self.slice_counts)
            .map(|(name, c)| {
                let share = if served == 0 {
                    0.0
                } else {
                    c.load(Ordering::Relaxed) as f64 / served as f64
                };
                (name.clone(), share)
            })
            .collect();
        let slice_drift = self.baseline.as_ref().map(|b| {
            slice_shares
                .iter()
                .map(|(name, share)| {
                    let base =
                        b.slice_shares.iter().find(|(n, _)| n == name).map_or(0.0, |(_, s)| *s);
                    (name.clone(), share - base)
                })
                .collect()
        });
        TelemetrySnapshot {
            served,
            errors: self.errors.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            observer_dropped: self.observer_dropped.load(Ordering::Relaxed),
            qps: served as f64 / elapsed,
            mean_latency: self.latency.mean(),
            p50: self.latency.quantile(0.50),
            p95: self.latency.quantile(0.95),
            p99: self.latency.quantile(0.99),
            mean_confidence,
            confidence_drift: self.baseline.as_ref().map(|b| mean_confidence - b.mean_confidence),
            slice_shares,
            slice_drift,
        }
    }
}

/// A point-in-time telemetry view. Serializable (dashboards, the CLI and
/// the obslog share one serialization path rather than ad-hoc
/// formatting); durations roundtrip exactly as `{secs, nanos}`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TelemetrySnapshot {
    /// Successfully served requests.
    pub served: u64,
    /// Requests that failed validation or decoding.
    pub errors: u64,
    /// Requests shed by admission control (503 before reaching a worker).
    /// Defaults to zero when absent, so snapshots serialized before the
    /// socket tier existed still deserialize.
    #[serde(default)]
    pub shed: u64,
    /// Observer samples dropped because the bounded channel was full (the
    /// monitor fell behind; the serving path never waits). Defaults to
    /// zero for snapshots serialized before the counter existed.
    #[serde(default)]
    pub observer_dropped: u64,
    /// Served requests per wall-clock second since the sink started.
    pub qps: f64,
    /// Mean request latency.
    pub mean_latency: Duration,
    /// Median latency.
    pub p50: Duration,
    /// 95th-percentile latency.
    pub p95: Duration,
    /// 99th-percentile latency.
    pub p99: Duration,
    /// Mean response confidence over served traffic.
    pub mean_confidence: f64,
    /// `mean_confidence - baseline.mean_confidence` (with a baseline).
    pub confidence_drift: Option<f64>,
    /// Per-slice share of served traffic (predicted membership).
    pub slice_shares: Vec<(String, f64)>,
    /// Per-slice `live share - baseline share` (with a baseline).
    pub slice_drift: Option<Vec<(String, f64)>>,
}

impl TelemetrySnapshot {
    /// Writes the snapshot as CSV: a `metric,value` counter section
    /// (served/errors/shed/observer-dropped), a blank line, then the
    /// per-slice table (`slice,share,drift`), using the workspace's one
    /// CSV-escaping helper ([`overton_monitor::csv_escape`]) — slice
    /// names are free-form and can contain commas or quotes.
    pub fn write_csv(&self, mut w: impl std::io::Write) -> std::io::Result<()> {
        writeln!(w, "metric,value")?;
        writeln!(w, "served,{}", self.served)?;
        writeln!(w, "errors,{}", self.errors)?;
        writeln!(w, "shed,{}", self.shed)?;
        writeln!(w, "observer_dropped,{}", self.observer_dropped)?;
        writeln!(w)?;
        writeln!(w, "slice,share,drift")?;
        for (i, (name, share)) in self.slice_shares.iter().enumerate() {
            let drift =
                self.slice_drift.as_ref().map_or_else(String::new, |d| format!("{:.6}", d[i].1));
            writeln!(w, "{},{share:.6},{drift}", overton_monitor::csv_escape(name))?;
        }
        Ok(())
    }
}

impl fmt::Display for TelemetrySnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "served {} ({} errors, {} shed)  qps {:.1}  latency p50 {:?} p95 {:?} p99 {:?}",
            self.served, self.errors, self.shed, self.qps, self.p50, self.p95, self.p99
        )?;
        write!(f, "confidence {:.3}", self.mean_confidence)?;
        if let Some(drift) = self.confidence_drift {
            write!(f, " (drift {drift:+.3})")?;
        }
        writeln!(f)?;
        for (i, (name, share)) in self.slice_shares.iter().enumerate() {
            write!(f, "  slice {name}: {:.1}% of traffic", share * 100.0)?;
            if let Some(drifts) = &self.slice_drift {
                write!(f, " (drift {:+.1}pp)", drifts[i].1 * 100.0)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_monotone_and_bracket_the_data() {
        let h = LatencyHistogram::default();
        for micros in [3u64, 5, 9, 40, 100, 900, 5_000, 20_000] {
            h.record(Duration::from_micros(micros));
        }
        assert_eq!(h.count(), 8);
        let p50 = h.quantile(0.5);
        let p95 = h.quantile(0.95);
        let p99 = h.quantile(0.99);
        assert!(p50 <= p95 && p95 <= p99);
        assert!(p50 >= Duration::from_micros(9), "p50 {p50:?}");
        assert!(p99 >= Duration::from_micros(20_000), "p99 {p99:?}");
        assert!(h.mean() >= Duration::from_micros(1_000));
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LatencyHistogram::default();
        // Every q — in range, at the bounds, out of range — is defined on
        // the empty histogram.
        for q in [-1.0, 0.0, 0.5, 0.99, 1.0, 2.0] {
            assert_eq!(h.quantile(q), Duration::ZERO);
        }
        assert_eq!(h.mean(), Duration::ZERO);
    }

    #[test]
    fn quantile_bounds_are_defined_and_clamped() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_micros(3));
        h.record(Duration::from_micros(100));
        h.record(Duration::from_micros(20_000));
        // q = 0 resolves to the smallest observed bucket's bound...
        let lo = h.quantile(0.0);
        assert_eq!(lo, latency_bucket_upper(latency_bucket(3)));
        // ...q = 1 to the largest...
        let hi = h.quantile(1.0);
        assert_eq!(hi, latency_bucket_upper(latency_bucket(20_000)));
        assert!(lo <= hi);
        // ...and out-of-range q clamps to those same bounds instead of
        // panicking or indexing out of the histogram.
        assert_eq!(h.quantile(-3.5), lo);
        assert_eq!(h.quantile(42.0), hi);
    }

    fn response(confidence: f32, slice_prob: f32) -> ServingResponse {
        ServingResponse {
            tasks: Default::default(),
            slices: vec![("hard".into(), slice_prob)],
            confidence,
        }
    }

    fn baseline() -> TrafficBaseline {
        TrafficBaseline {
            slice_shares: vec![("hard".into(), 0.25)],
            mean_confidence: 0.9,
            tag_shares: vec![("hard".into(), 0.25)],
            confidence_hist: vec![0; CONFIDENCE_BINS],
            slice_confidence_hists: vec![vec![0; CONFIDENCE_BINS]],
            sample_size: 100,
            tag_counts: vec![25],
        }
    }

    #[test]
    fn snapshot_aggregates_confidence_slices_and_errors() {
        let t = Telemetry::new(vec!["hard".into()], Some(baseline()));
        t.observe(&Ok(response(0.8, 0.9)), Duration::from_micros(100));
        t.observe(&Ok(response(0.6, 0.1)), Duration::from_micros(200));
        t.observe(&Err(StoreError::Validation("bad".into())), Duration::from_micros(50));
        let snap = t.snapshot();
        assert_eq!(snap.served, 2);
        assert_eq!(snap.errors, 1);
        assert!((snap.mean_confidence - 0.7).abs() < 1e-3);
        assert!((snap.confidence_drift.unwrap() - (0.7 - 0.9)).abs() < 1e-3);
        assert_eq!(snap.slice_shares, vec![("hard".into(), 0.5)]);
        let drift = snap.slice_drift.as_ref().unwrap();
        assert!((drift[0].1 - 0.25).abs() < 1e-9);
        assert!(snap.qps > 0.0);
        // The report renders.
        assert!(snap.to_string().contains("slice hard"));
    }

    #[test]
    fn snapshot_serializes_and_roundtrips() {
        let t = Telemetry::new(vec!["hard, tricky".into()], None);
        t.observe(&Ok(response(0.8, 0.9)), Duration::from_micros(1500));
        let snap = t.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: TelemetrySnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        // CSV goes through the shared escaping helper: the comma-bearing
        // slice name is quoted.
        let mut csv = Vec::new();
        snap.write_csv(&mut csv).unwrap();
        let text = String::from_utf8(csv).unwrap();
        assert!(text.contains("\"hard, tricky\""), "{text}");
        // The counter section leads with the shed and observer-dropped
        // counts the JSON snapshot carries.
        assert!(text.starts_with("metric,value\nserved,1\n"), "{text}");
        assert!(text.contains("shed,0\n"), "{text}");
        assert!(text.contains("observer_dropped,0\n"), "{text}");
    }

    #[test]
    fn shed_counts_surface_in_snapshot_and_old_snapshots_still_parse() {
        let t = Telemetry::new(vec![], None);
        t.record_shed();
        t.record_shed();
        assert_eq!(t.shed(), 2);
        let snap = t.snapshot();
        assert_eq!(snap.shed, 2);
        assert!(snap.to_string().contains("2 shed"));
        // A snapshot serialized before the socket tier existed carries no
        // `shed` field; it deserializes to zero rather than failing.
        let json = serde_json::to_string(&snap).unwrap();
        let legacy = json.replace("\"shed\":2,", "");
        assert_ne!(legacy, json, "test must actually strip the field");
        let back: TelemetrySnapshot = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back.shed, 0);
    }

    #[test]
    fn baseline_serializes_and_roundtrips() {
        let b = baseline();
        let json = serde_json::to_string(&b).unwrap();
        let back: TrafficBaseline = serde_json::from_str(&json).unwrap();
        assert_eq!(back, b);
        assert_eq!(b.tag_share("hard"), Some(0.25));
        assert_eq!(b.tag_share("nope"), None);
        assert_eq!(b.slice_confidence_hist("hard"), Some(&[0u64; CONFIDENCE_BINS][..]));
        assert_eq!(b.tag_count("hard"), Some(25));
        assert_eq!(b.tag_count("nope"), None);
    }

    #[test]
    fn pre_sample_size_baselines_still_parse() {
        // A baseline persisted before integer counts existed carries
        // neither `sample_size` nor `tag_counts`; it must deserialize
        // with both defaulted (disabling significance rules) rather than
        // failing the deployment load.
        let json = serde_json::to_string(&baseline()).unwrap();
        let legacy = json.replace(",\"sample_size\":100", "").replace(",\"tag_counts\":[25]", "");
        assert_ne!(legacy, json, "test must actually strip the fields");
        let back: TrafficBaseline = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back.sample_size, 0);
        assert!(back.tag_counts.is_empty());
        assert_eq!(back.tag_count("hard"), None);
        assert_eq!(back.tag_share("hard"), Some(0.25));
    }

    #[test]
    fn observer_receives_samples_and_never_blocks() {
        let t = Telemetry::new(vec!["hard".into()], None);
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        t.attach_observer(tx).unwrap();
        assert!(t.observer_attached());
        // A second observer is rejected.
        let (tx2, _rx2) = std::sync::mpsc::sync_channel(1);
        assert!(t.attach_observer(tx2).is_err());
        let sample = ServeSample {
            ok: true,
            confidence_bin: confidence_bin(0.8),
            confidence_millionths: 800_000,
            latency_micros: 100,
            slice_mask: 1,
            gold_accuracy_millionths: Some(1_000_000),
        };
        t.forward(sample);
        // Channel is full now: the next forward drops instead of blocking.
        t.forward(sample);
        assert_eq!(t.observer_dropped(), 1);
        assert_eq!(rx.try_recv().unwrap(), sample);
        assert!(sample.in_slice(0));
        assert!(!sample.in_slice(1));
    }

    #[test]
    fn sample_collection_prefers_tags_and_scores_gold() {
        let schema = overton_nlp::workload_schema();
        let slice_names = vec!["hard".to_string(), "easy".to_string()];
        let latency = Duration::from_micros(42);
        let record = Record::new().with_slice("easy").with_label(
            "Intent",
            overton_store::GOLD_SOURCE,
            overton_store::TaskLabel::MulticlassOne("Age".into()),
        );
        let resp = ServingResponse {
            tasks: std::collections::BTreeMap::from([(
                "Intent".into(),
                overton_model::ServedOutput::Multiclass { class: "Age".into(), dist: vec![] },
            )]),
            // The model predicts "hard", but the record's tag says "easy":
            // tags win when present.
            slices: vec![("hard".into(), 0.9), ("easy".into(), 0.1)],
            confidence: 0.73,
        };
        let sample = ServeSample::collect(
            &schema,
            &slice_names,
            &record,
            &Ok(resp.clone()),
            Duration::from_micros(42),
        );
        assert!(sample.ok);
        assert!(!sample.in_slice(0));
        assert!(sample.in_slice(1));
        assert_eq!(sample.gold_accuracy_millionths, Some(1_000_000));
        assert_eq!(sample.confidence_bin, confidence_bin(0.73));
        // An untagged record falls back to predicted membership.
        let untagged = Record::new();
        let sample = ServeSample::collect(
            &schema,
            &slice_names,
            &untagged,
            &Ok(resp.clone()),
            Duration::from_micros(42),
        );
        assert!(sample.in_slice(0));
        assert!(!sample.in_slice(1));
        assert_eq!(sample.gold_accuracy_millionths, None);
        // So does one tagged only with slices telemetry does not track, or
        // with a plain tag that spells a slice's name.
        let off_space = Record::new().with_slice("other").with_tag("easy");
        let sample =
            ServeSample::collect(&schema, &slice_names, &off_space, &Ok(resp.clone()), latency);
        assert_eq!(sample.slice_mask, 0b01);
        // A tag for a slice past the 64 tracked still wins, with no bit.
        let wide: Vec<String> = (0..70).map(|i| format!("s{i}")).collect();
        let past = Record::new().with_slice("s66").with_slice("s3");
        let sample = ServeSample::collect(&schema, &wide, &past, &Ok(resp.clone()), latency);
        assert_eq!(sample.slice_mask, 1 << 3);
        let past = Record::new().with_slice("s66");
        let sample = ServeSample::collect(&schema, &wide, &past, &Ok(resp), latency);
        assert_eq!(sample.slice_mask, 0);
        // Errors carry latency but nothing else.
        let sample = ServeSample::collect(
            &schema,
            &slice_names,
            &untagged,
            &Err(StoreError::Validation("bad".into())),
            Duration::from_micros(7),
        );
        assert!(!sample.ok);
        assert_eq!(sample.slice_mask, 0);
    }
}
