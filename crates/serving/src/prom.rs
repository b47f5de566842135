//! Prometheus text exposition for the serving tier.
//!
//! `GET /metrics` renders the pool's [`Telemetry`], the trace store's
//! per-stage histograms, and the listener's connection gauges in the
//! standard text format (`# HELP`/`# TYPE` headers, `name{label="v"}
//! value` samples, cumulative `_bucket`/`_sum`/`_count` histograms), so
//! any off-the-shelf scraper can consume Overton's serving signals
//! without a bespoke client. Histograms reuse the workspace bucket
//! schemes: latency buckets are [`crate::latency_bucket_upper`] bounds in
//! seconds, confidence buckets are the [`CONFIDENCE_BINS`] fixed-width
//! bin edges.
//!
//! [`validate_exposition`] is a strict line-grammar checker — the CI
//! smoke and the `--probe` self-check run every scraped line through it,
//! so a malformed metric fails the build rather than a dashboard.

use crate::telemetry::{
    latency_bucket_upper, LatencyHistogram, Telemetry, CONFIDENCE_BINS, LATENCY_BUCKETS,
};
use crate::trace::{SpanName, TraceStore};
use std::fmt::Write as _;
use std::sync::Arc;

/// An extension hook appending extra exposition text to `GET /metrics`
/// (the CLI wires `overton_obs::export` in through this).
pub type MetricsExt = Arc<dyn Fn(&mut String) + Send + Sync>;

/// Connection-level gauges from the listener.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConnGauges {
    /// Currently open handler connections.
    pub active: u64,
    /// Connections accepted into a handler so far.
    pub accepted: u64,
    /// Connections refused at the door (over the connection cap).
    pub refused: u64,
}

/// An incremental writer for the Prometheus text format: header lines,
/// escaped label values, cumulative histogram series.
#[derive(Debug, Default)]
pub struct PromWriter {
    out: String,
}

impl PromWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes the `# HELP` and `# TYPE` header for a metric family.
    pub fn family(&mut self, name: &str, kind: &str, help: &str) {
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    /// Writes one sample line with the given labels.
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.out.push_str(name);
        self.labels(labels);
        let _ = writeln!(self.out, " {}", format_value(value));
    }

    /// Writes one integer-valued sample line.
    pub fn count(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.out.push_str(name);
        self.labels(labels);
        let _ = writeln!(self.out, " {value}");
    }

    fn labels(&mut self, labels: &[(&str, &str)]) {
        if labels.is_empty() {
            return;
        }
        self.out.push('{');
        for (i, (name, value)) in labels.iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            let _ = write!(self.out, "{name}=\"{}\"", escape_label(value));
        }
        self.out.push('}');
    }

    /// Writes a full histogram series — cumulative `_bucket` lines (with
    /// the closing `+Inf`), `_sum`, and `_count` — from per-bucket counts
    /// and their upper bounds.
    pub fn histogram(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        buckets: impl IntoIterator<Item = (f64, u64)>,
        sum: f64,
    ) {
        let bucket_name = format!("{name}_bucket");
        let mut cumulative = 0u64;
        for (upper, count) in buckets {
            cumulative += count;
            let upper = format_value(upper);
            let mut labels: Vec<(&str, &str)> = labels.to_vec();
            labels.push(("le", &upper));
            self.count(&bucket_name, &labels, cumulative);
        }
        let mut inf_labels: Vec<(&str, &str)> = labels.to_vec();
        inf_labels.push(("le", "+Inf"));
        self.count(&bucket_name, &inf_labels, cumulative);
        self.sample(&format!("{name}_sum"), labels, sum);
        self.count(&format!("{name}_count"), labels, cumulative);
    }

    /// The accumulated exposition text.
    pub fn finish(self) -> String {
        self.out
    }
}

fn format_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v}")
    }
}

fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Appends a latency-scale histogram (log2-µs buckets rendered in
/// seconds) to the writer.
fn latency_histogram(
    w: &mut PromWriter,
    name: &str,
    labels: &[(&str, &str)],
    h: &LatencyHistogram,
) {
    let counts = h.bucket_counts();
    let buckets = (0..LATENCY_BUCKETS)
        .map(|i| (latency_bucket_upper(i).as_secs_f64(), counts[i]))
        .collect::<Vec<_>>();
    w.histogram(name, labels, buckets, h.sum_micros() as f64 / 1e6);
}

/// Appends a confidence histogram (fixed-width bins over `[0, 1]`; the
/// sum is approximated from bin midpoints, the bin scheme carrying the
/// real signal).
fn confidence_histogram(w: &mut PromWriter, name: &str, labels: &[(&str, &str)], counts: &[u64]) {
    let width = 1.0 / CONFIDENCE_BINS as f64;
    let buckets = counts.iter().enumerate().map(|(i, &c)| ((i + 1) as f64 * width, c));
    let sum: f64 =
        counts.iter().enumerate().map(|(i, &c)| (i as f64 + 0.5) * width * c as f64).sum();
    w.histogram(name, labels, buckets, sum);
}

/// Renders the serving tier's metrics as Prometheus text exposition.
///
/// `traces` adds per-stage duration histograms and trace-store counters;
/// `conns` adds the listener's connection gauges; `cascade` adds per-route
/// model-pair counters (small/large routing, escalation rate). All are
/// optional so the renderer also serves embedded (non-socket, single-model)
/// pools.
pub fn render_metrics(
    telemetry: &Telemetry,
    traces: Option<&TraceStore>,
    conns: Option<ConnGauges>,
    cascade: Option<crate::cascade::CascadeCounters>,
) -> String {
    let mut w = PromWriter::new();
    let snap = telemetry.snapshot();
    w.family("overton_requests_served_total", "counter", "Successfully served requests.");
    w.count("overton_requests_served_total", &[], snap.served);
    w.family(
        "overton_request_errors_total",
        "counter",
        "Requests that failed validation or decoding.",
    );
    w.count("overton_request_errors_total", &[], snap.errors);
    w.family(
        "overton_requests_shed_total",
        "counter",
        "Requests shed by admission control before reaching a worker.",
    );
    w.count("overton_requests_shed_total", &[], snap.shed);
    w.family(
        "overton_observer_dropped_total",
        "counter",
        "Observer samples dropped because the bounded channel was full.",
    );
    w.count("overton_observer_dropped_total", &[], snap.observer_dropped);
    w.family(
        "overton_request_latency_seconds",
        "histogram",
        "Queue plus inference latency per served request.",
    );
    latency_histogram(&mut w, "overton_request_latency_seconds", &[], telemetry.latency());
    w.family("overton_confidence", "histogram", "Response confidence over served traffic.");
    confidence_histogram(&mut w, "overton_confidence", &[], &telemetry.confidence_counts());
    w.family("overton_slice_requests_total", "counter", "Served requests predicted in each slice.");
    let slice_counts = telemetry.slice_counts();
    for (i, name) in telemetry.slice_names().iter().enumerate() {
        w.count("overton_slice_requests_total", &[("slice", name)], slice_counts[i]);
    }
    w.family("overton_slice_confidence", "histogram", "Response confidence per predicted slice.");
    for (i, name) in telemetry.slice_names().iter().enumerate() {
        if let Some(counts) = telemetry.slice_confidence_counts(i) {
            confidence_histogram(&mut w, "overton_slice_confidence", &[("slice", name)], &counts);
        }
    }
    if let Some(store) = traces {
        w.family(
            "overton_stage_duration_seconds",
            "histogram",
            "Wall time per request-path stage, from finalized traces.",
        );
        for span in SpanName::ALL {
            latency_histogram(
                &mut w,
                "overton_stage_duration_seconds",
                &[("stage", span.name())],
                store.stage_histogram(span),
            );
        }
        w.family("overton_traces_recorded_total", "counter", "Requests admitted into tracing.");
        w.count("overton_traces_recorded_total", &[], store.recorded());
        w.family(
            "overton_traces_sampled_out_total",
            "counter",
            "Requests not traced because sampling skipped them.",
        );
        w.count("overton_traces_sampled_out_total", &[], store.sampled_out());
        w.family("overton_traces_open", "gauge", "Admitted traces not yet finalized.");
        w.count("overton_traces_open", &[], store.open() as u64);
    }
    if let Some(conns) = conns {
        w.family("overton_connections_active", "gauge", "Currently open handler connections.");
        w.count("overton_connections_active", &[], conns.active);
        w.family(
            "overton_connections_accepted_total",
            "counter",
            "Connections accepted into a handler.",
        );
        w.count("overton_connections_accepted_total", &[], conns.accepted);
        w.family(
            "overton_connections_refused_total",
            "counter",
            "Connections refused over the connection cap.",
        );
        w.count("overton_connections_refused_total", &[], conns.refused);
    }
    if let Some(cascade) = cascade {
        w.family(
            "overton_cascade_requests_total",
            "counter",
            "Answered requests per cascade route (small = answered by the SLA model, \
             large = escalated on low confidence).",
        );
        w.count("overton_cascade_requests_total", &[("route", "small")], cascade.small);
        w.count("overton_cascade_requests_total", &[("route", "large")], cascade.escalated);
        w.family(
            "overton_cascade_escalation_rate",
            "gauge",
            "Fraction of routed requests escalated to the large model since engine start.",
        );
        w.sample("overton_cascade_escalation_rate", &[], cascade.escalation_rate());
    }
    w.finish()
}

/// Validates that `text` is well-formed Prometheus text exposition: every
/// line is a `# HELP`/`# TYPE` header, a comment, or a sample matching
/// `name{label="value",...} value [timestamp]`. Returns the first
/// offending line on failure.
pub fn validate_exposition(text: &str) -> Result<(), String> {
    for (lineno, line) in text.lines().enumerate() {
        validate_line(line).map_err(|why| format!("line {}: {why}: {line:?}", lineno + 1))?;
    }
    Ok(())
}

fn validate_line(line: &str) -> Result<(), &'static str> {
    if line.is_empty() {
        return Ok(());
    }
    if let Some(rest) = line.strip_prefix('#') {
        let rest = rest.strip_prefix(' ').ok_or("comment without space after '#'")?;
        if let Some(header) = rest.strip_prefix("HELP ") {
            let (name, _help) = header.split_once(' ').ok_or("HELP without text")?;
            return valid_metric_name(name).then_some(()).ok_or("bad metric name in HELP");
        }
        if let Some(header) = rest.strip_prefix("TYPE ") {
            let (name, kind) = header.split_once(' ').ok_or("TYPE without kind")?;
            if !valid_metric_name(name) {
                return Err("bad metric name in TYPE");
            }
            return matches!(kind, "counter" | "gauge" | "histogram" | "summary" | "untyped")
                .then_some(())
                .ok_or("unknown TYPE kind");
        }
        // Bare comments are legal exposition.
        return Ok(());
    }
    // Sample: name[{labels}] value [timestamp]
    let name_end = line.find(['{', ' ']).ok_or("sample without value")?;
    if !valid_metric_name(&line[..name_end]) {
        return Err("bad metric name");
    }
    let rest = &line[name_end..];
    let rest = if let Some(body) = rest.strip_prefix('{') {
        let close = find_label_close(body).ok_or("unterminated label set")?;
        validate_labels(&body[..close])?;
        body[close + 1..].strip_prefix(' ').ok_or("no space after label set")?
    } else {
        rest.strip_prefix(' ').ok_or("no space before value")?
    };
    let mut parts = rest.split(' ');
    let value = parts.next().ok_or("missing value")?;
    if !valid_sample_value(value) {
        return Err("unparseable sample value");
    }
    match parts.next() {
        None => Ok(()),
        Some(ts) if ts.parse::<i64>().is_ok() && parts.next().is_none() => Ok(()),
        Some(_) => Err("trailing garbage after value"),
    }
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Finds the `}` closing a label set, skipping escaped quotes inside
/// label values.
fn find_label_close(body: &str) -> Option<usize> {
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in body.char_indices() {
        match (in_string, escaped, c) {
            (true, true, _) => escaped = false,
            (true, false, '\\') => escaped = true,
            (true, false, '"') => in_string = false,
            (false, _, '"') => in_string = true,
            (false, _, '}') => return Some(i),
            _ => {}
        }
    }
    None
}

fn validate_labels(body: &str) -> Result<(), &'static str> {
    let mut rest = body;
    while !rest.is_empty() {
        let eq = rest.find('=').ok_or("label without '='")?;
        let name = &rest[..eq];
        if name.is_empty()
            || !name
                .chars()
                .enumerate()
                .all(|(i, c)| c == '_' || c.is_ascii_alphabetic() || (i > 0 && c.is_ascii_digit()))
        {
            return Err("bad label name");
        }
        rest = rest[eq + 1..].strip_prefix('"').ok_or("label value not quoted")?;
        // Walk to the closing unescaped quote.
        let mut escaped = false;
        let mut close = None;
        for (i, c) in rest.char_indices() {
            match (escaped, c) {
                (true, _) => escaped = false,
                (false, '\\') => escaped = true,
                (false, '"') => {
                    close = Some(i);
                    break;
                }
                _ => {}
            }
        }
        let close = close.ok_or("unterminated label value")?;
        rest = &rest[close + 1..];
        if let Some(after) = rest.strip_prefix(',') {
            rest = after;
        } else if !rest.is_empty() {
            return Err("garbage between labels");
        }
    }
    Ok(())
}

fn valid_sample_value(value: &str) -> bool {
    matches!(value, "+Inf" | "-Inf" | "NaN") || value.parse::<f64>().is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceConfig;
    use std::time::{Duration, Instant};

    #[test]
    fn writer_emits_valid_exposition_with_escaping() {
        let mut w = PromWriter::new();
        w.family("demo_total", "counter", "A demo counter.");
        w.count("demo_total", &[("slice", "has \"quotes\" and \\slashes")], 3);
        w.family("demo_seconds", "histogram", "A demo histogram.");
        w.histogram("demo_seconds", &[], [(0.1, 2u64), (1.0, 1)], 0.75);
        let text = w.finish();
        validate_exposition(&text).unwrap();
        assert!(text.contains("demo_seconds_bucket{le=\"+Inf\"} 3"), "{text}");
        assert!(text.contains("demo_seconds_sum 0.75"), "{text}");
        assert!(text.contains("demo_seconds_count 3"), "{text}");
        assert!(text.contains("slice=\"has \\\"quotes\\\" and \\\\slashes\""), "{text}");
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        for bad in [
            "9leading_digit 1",
            "no_value",
            "name{unterminated=\"x} 1",
            "name{bad-label=\"x\"} 1",
            "name{l=\"v\"}1",
            "name 1 2 3",
            "name notanumber",
            "# TYPE name flavor",
        ] {
            assert!(validate_exposition(bad).is_err(), "accepted: {bad}");
        }
        for good in [
            "name 1",
            "name{l=\"v\"} 1.5",
            "name{l=\"v\",m=\"w\"} +Inf",
            "name 3.2 1712345678",
            "# a bare comment",
            "",
        ] {
            assert!(validate_exposition(good).is_ok(), "rejected: {good}");
        }
    }

    #[test]
    fn render_covers_telemetry_traces_and_connections() {
        let telemetry = Telemetry::new(vec!["hard \"q\"".into()], None);
        telemetry.record_shed();
        let store = TraceStore::new(TraceConfig::default());
        let origin = Instant::now();
        let trace = store.admit(Some("render-test"), origin).unwrap();
        trace.begin_at(SpanName::Accept, origin);
        trace.end_at(SpanName::Accept, origin + Duration::from_micros(400));
        store.finish(&trace);
        let text = render_metrics(
            &telemetry,
            Some(&store),
            Some(ConnGauges { active: 2, accepted: 5, refused: 1 }),
            Some(crate::cascade::CascadeCounters { small: 6, escalated: 2 }),
        );
        validate_exposition(&text).unwrap();
        for needle in [
            "overton_cascade_requests_total{route=\"small\"} 6",
            "overton_cascade_requests_total{route=\"large\"} 2",
            "overton_cascade_escalation_rate 0.25",
            "overton_requests_shed_total 1",
            "overton_observer_dropped_total 0",
            "overton_request_latency_seconds_bucket",
            "overton_confidence_bucket{le=\"1\"}",
            "overton_stage_duration_seconds_bucket{stage=\"accept\",le=",
            "overton_stage_duration_seconds_count{stage=\"engine-forward\"} 0",
            "overton_traces_recorded_total 1",
            "overton_connections_active 2",
            "overton_connections_refused_total 1",
            "overton_slice_requests_total{slice=\"hard \\\"q\\\"\"} 0",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        assert!(!text.contains("overton_cascade_quantized"), "no i8 cascade family");
    }
}
