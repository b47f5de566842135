//! Routing the HTTP subset onto the worker pool.
//!
//! Routes:
//!
//! - `POST /predict` — decode a batched JSON prediction request, pass it
//!   through admission control ([`ShedPolicy`] over the live pool queue
//!   depth), feed the admitted batch to the pool (a full `max_batch`
//!   batch meeting an empty queue and a free forward slot runs on the
//!   connection thread), answer with the per-record results in submission
//!   order. When tracing is on, the request gets a [`RequestTrace`] (id
//!   from `x-overton-trace` or generated, echoed back in the same header)
//!   with spans stamped at every stage boundary.
//! - `GET /healthz` — liveness + drain state.
//! - `GET /telemetry` — the pool's `TelemetrySnapshot` as JSON, the
//!   same serialization the CLI and obslog use.
//! - `GET /metrics` — Prometheus text exposition ([`crate::prom`]).
//! - `GET /trace/<id>` — one retained trace as JSON.
//! - `GET /traces` — the slowest retained traces, slowest first.
//!
//! Everything else is `404`; wrong methods on known routes are `405`.

use super::http::{Request, Response};
use super::listener::Shared;
use super::shed::Admission;
use super::wire;
use crate::trace::{RequestTrace, SpanName, TraceOutcome};
use serde::Serialize;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// The request header (and response echo header) carrying the trace id.
pub(crate) const TRACE_HEADER: &str = "x-overton-trace";

/// Shared state the router needs per request.
pub(crate) struct RouterCtx {
    /// The listener's shared state: pool, config, drain flag, trace
    /// store, connection gauges.
    pub shared: Arc<Shared>,
}

/// Answers one parsed request; `received` is the instant the connection
/// began reading it (the trace origin). Returns the request's trace,
/// when it got one, so the listener can stamp the write span and
/// finalize.
pub(crate) fn route(
    ctx: &RouterCtx,
    req: &Request,
    received: Instant,
) -> (Response, Option<Arc<RequestTrace>>) {
    let shared = &ctx.shared;
    match (req.method.as_str(), req.target.as_str()) {
        ("POST", "/predict") => predict(ctx, req, received),
        ("GET", "/predict") => {
            (Response::json(405, "{\"error\":\"use POST\"}").with_header("allow", "POST"), None)
        }
        ("GET", "/healthz") => {
            let body = if shared.draining.load(Ordering::SeqCst) {
                Response::json(503, "{\"status\":\"draining\"}")
            } else {
                Response::json(200, "{\"status\":\"ok\"}")
            };
            (body, None)
        }
        ("GET", "/telemetry") => (json_ok(&shared.pool.snapshot()), None),
        ("GET", "/metrics") => (metrics(ctx), None),
        ("GET", "/traces") => (slowest_traces(ctx), None),
        (method, target) if target.starts_with("/trace/") => {
            let response = if method == "GET" {
                trace_by_id(ctx, &target["/trace/".len()..])
            } else {
                Response::json(405, "{\"error\":\"use GET\"}").with_header("allow", "GET")
            };
            (response, None)
        }
        ("POST" | "GET" | "HEAD", _) => {
            (Response::json(404, "{\"error\":\"no such route\"}"), None)
        }
        _ => (
            Response::json(405, "{\"error\":\"unsupported method\"}")
                .with_header("allow", "GET, POST"),
            None,
        ),
    }
}

fn metrics(ctx: &RouterCtx) -> Response {
    let shared = &ctx.shared;
    let mut body = crate::prom::render_metrics(
        shared.pool.telemetry(),
        shared.traces.as_deref(),
        Some(shared.conn_gauges()),
        Some(shared.pool.engine().counters()),
    );
    if let Some(ext) = &shared.config.metrics_ext {
        ext(&mut body);
    }
    Response::text(200, body)
}

fn trace_by_id(ctx: &RouterCtx, id: &str) -> Response {
    let Some(store) = &ctx.shared.traces else {
        return Response::json(404, "{\"error\":\"tracing is disabled\"}");
    };
    match store.get(id) {
        Some(report) => json_ok(&report),
        None => Response::json(404, "{\"error\":\"no such trace (evicted or never recorded)\"}"),
    }
}

fn slowest_traces(ctx: &RouterCtx) -> Response {
    let Some(store) = &ctx.shared.traces else {
        return Response::json(404, "{\"error\":\"tracing is disabled\"}");
    };
    let mut body = b"{\"slowest\":".to_vec();
    store.slowest().write_json(&mut body);
    body.push(b'}');
    Response::json(200, body)
}

/// A `200` whose body is `value` written straight to bytes.
fn json_ok(value: &impl Serialize) -> Response {
    let mut body = Vec::new();
    value.write_json(&mut body);
    Response::json(200, body)
}

fn predict(
    ctx: &RouterCtx,
    req: &Request,
    received: Instant,
) -> (Response, Option<Arc<RequestTrace>>) {
    let shared = &ctx.shared;
    // Drain refuses new work outright — in-flight requests (already in
    // the pool queue) finish, but this one never starts.
    if shared.draining.load(Ordering::SeqCst) {
        let response =
            Response::json(503, "{\"error\":\"draining\"}").with_header("retry-after", "1");
        return (response, None);
    }
    // The cheap pre-decode shed path: under overload the tier answers
    // 503 before spending anything on the (possibly large) body — these
    // fast-path refusals are counted but not traced.
    let shed_policy = &shared.config.shed;
    if let Admission::Shed { retry_after_secs } = shed_policy.decide(shared.pool.queue_depth()) {
        shared.pool.telemetry().record_shed();
        let response = Response::json(503, "{\"error\":\"overloaded, retry later\"}")
            .with_header("retry-after", &retry_after_secs.to_string());
        return (response, None);
    }
    let trace = shared.traces.as_ref().and_then(|s| s.admit(req.header(TRACE_HEADER), received));
    if let Some(t) = &trace {
        t.begin_at(SpanName::Accept, received);
        t.end(SpanName::Accept);
        t.begin(SpanName::Parse);
    }
    let mut records = match wire::decode_predict_request(&req.body, shared.config.max_records) {
        Ok(records) => records,
        Err(msg) => {
            if let Some(t) = &trace {
                t.end(SpanName::Parse);
                t.set_outcome(TraceOutcome::Error);
            }
            let status = if msg.contains("batch cap") { 413 } else { 400 };
            return (echo_trace(Response::json_error(status, &msg), &trace), trace);
        }
    };
    // Canonicalize JSON-ambiguous label variants exactly as file ingest
    // does, so a record means the same thing over the wire and in
    // data.jsonl.
    let engine = shared.pool.engine();
    for record in &mut records {
        record.normalize_labels(engine.schema());
    }
    if let Some(t) = &trace {
        t.set_records(records.len() as u64);
        t.end(SpanName::Parse);
        t.begin(SpanName::Admission);
    }
    // The authoritative admission decision: decode took real time, so
    // re-check the queue before committing the batch — this closes the
    // window between the cheap pre-decode check and the enqueue.
    if let Admission::Shed { retry_after_secs } = shed_policy.decide(shared.pool.queue_depth()) {
        shared.pool.telemetry().record_shed();
        if let Some(t) = &trace {
            t.end(SpanName::Admission);
            t.set_outcome(TraceOutcome::Shed);
        }
        let response = Response::json(503, "{\"error\":\"overloaded, retry later\"}")
            .with_header("retry-after", &retry_after_secs.to_string());
        return (echo_trace(response, &trace), trace);
    }
    if let Some(t) = &trace {
        t.end(SpanName::Admission);
    }
    let replies = shared.pool.process_traced(records, trace.clone());
    if let Some(t) = &trace {
        t.begin(SpanName::Encode);
    }
    let results: Vec<_> = replies.into_iter().map(|r| r.result).collect();
    let mut body = Vec::new();
    wire::encode_predict_response_into(&results, &mut body);
    if let Some(t) = &trace {
        t.set_outcome(if results.iter().any(Result::is_err) {
            TraceOutcome::Error
        } else {
            TraceOutcome::Ok
        });
        t.end(SpanName::Encode);
    }
    (echo_trace(Response::json(200, body), &trace), trace)
}

/// Echoes the trace id back to the client when the request was traced.
fn echo_trace(response: Response, trace: &Option<Arc<RequestTrace>>) -> Response {
    match trace {
        Some(t) => response.with_header(TRACE_HEADER, t.id()),
        None => response,
    }
}
