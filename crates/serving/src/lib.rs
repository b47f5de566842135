//! # overton-serving
//!
//! The production serving runtime for the Overton reproduction — the
//! post-deployment half of the paper's loop, where the "deployable
//! production model" of §2.4 actually meets traffic:
//!
//! - **Worker pool with dynamic micro-batching** ([`WorkerPool`]): requests
//!   queue behind `std::thread` workers that drain whatever is waiting (up
//!   to `max_batch`) and run it through the batched forward path
//!   ([`overton_model::Server::predict_batch`], one GEMM per layer per
//!   micro-batch), amortizing per-record cost under load without adding
//!   latency when idle.
//! - **Model-pair cascade** ([`CascadeEngine`]): the small (SLA) model
//!   answers everything; low-confidence responses escalate to the large
//!   (quality) model, with per-route counters (§2.4's large/small pairs as
//!   a runtime policy).
//! - **Canary deployment** ([`DeploymentManager`]): candidates from the
//!   [`overton_model::ModelRegistry`] shadow live traffic, are scored
//!   per-tag/per-slice with [`overton_monitor::QualityReport`], and are
//!   promoted (hot-swap behind the stable serving signature) or
//!   auto-rolled-back on any per-group regression.
//! - **Live telemetry** ([`Telemetry`]): QPS, latency quantiles
//!   (p50/p95/p99), shed counts, per-slice traffic shares and confidence
//!   drift against a training-time [`TrafficBaseline`] — the
//!   pre-gold-label monitoring signals of §1.
//! - **The socket tier** ([`net`]): `overton serve --listen` — a bounded
//!   hand-rolled HTTP/1.1 front end feeding the same pool, with
//!   load-shedding past a queue high-water mark, connection caps,
//!   per-request deadlines, and graceful drain.
//! - **Request tracing + scrape exposition** ([`trace`], [`prom`]): every
//!   socket request carries a trace id (`x-overton-trace`, echoed) and an
//!   eight-span timeline (accept → … → write) retained in a bounded store
//!   with slowest-K retention; `GET /metrics` renders counters, gauges,
//!   and per-stage/per-slice histograms as Prometheus text exposition.
//!
//! Drive it with `overton-nlp`'s `TrafficStream` (Poisson arrivals over
//! the synthetic query generator); see `tests/serving.rs` for the full loop
//! and the repo benchmark's `serve_offline` / `serve_socket` workloads
//! (`bench/`) for the batching win.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod cascade;
mod deploy;
pub mod net;
mod pool;
pub mod prom;
mod score;
mod telemetry;
pub mod trace;

pub use cascade::{CascadeCounters, CascadeEngine, Route};
pub use deploy::{CanaryConfig, CanaryOutcome, DeployEvent, DeploymentManager};
pub use pool::{ServeReply, ServingConfig, Ticket, WorkerPool};
pub use prom::{validate_exposition, ConnGauges, MetricsExt, PromWriter};
pub use score::score_response;
pub use telemetry::{
    confidence_bin, latency_bucket, latency_bucket_upper, LatencyHistogram, ServeSample, Telemetry,
    TelemetrySnapshot, TrafficBaseline, CONFIDENCE_BINS, LATENCY_BUCKETS,
};
pub use trace::{
    RequestTrace, Span, SpanName, TraceConfig, TraceOutcome, TraceReport, TraceStore, REQUEST_SPANS,
};
