//! # overton-obs
//!
//! Continuous observability for deployed Overton models — the paper's
//! title promise ("*monitoring* machine-learned products") extended past
//! build-time evaluation into the deployment's lifetime, following the
//! observability literature's demand for continuous, historical,
//! replayable views of ML behavior:
//!
//! - **Windowed statistics** ([`WindowedStats`]): serving samples
//!   aggregate into tumbling windows (traffic counts, per-slice shares,
//!   confidence histograms, gold accuracy when labels exist, latency
//!   quantiles) held in a fixed-capacity ring — bounded memory under
//!   unbounded traffic.
//! - **Drift detection** ([`psi_binary`], [`ks_statistic`]): per-slice
//!   traffic-mix PSI and confidence-distribution KS against the
//!   training-time [`TrafficBaseline`](overton_serving::TrafficBaseline)
//!   persisted in the run directory.
//! - **Alert rules** ([`AlertRule`], [`Alert`]): declarative thresholds
//!   evaluated at every window close, debounced so a flapping slice
//!   alerts once per episode.
//! - **Metrics log** ([`ObsLog`]): an append-only JSONL log written at
//!   window boundaries; [`ObsLog::replay`] reconstructs the live
//!   monitoring state bit-identically from the files alone (`overton
//!   monitor <dir>` renders history with zero live state).
//! - **Closed loop** ([`Watchdog`]): sustained high-severity alerts
//!   become the same ranked [`SliceDiagnosis`](overton_monitor::SliceDiagnosis)
//!   worklist the rest of the system uses; `Run::weakest_task_on_slice`
//!   names the task and `Project::retrain_and_compare` retrains it —
//!   Figure 1 as running code.
//! - **Scrape exposition** ([`monitor_metrics`], [`metrics_ext`]): the
//!   windowed state, obslog health, alert ledger, per-slice accuracy
//!   confidence bounds and the test-set reuse budget
//!   ([`metrics_ext_with_meter`]) rendered as Prometheus text, appended
//!   to the socket tier's `GET /metrics` via the
//!   [`MetricsExt`](overton_serving::MetricsExt) hook.
//!
//! The serving hot path pays one atomic load plus a bounded-channel
//! `try_send` per request (the repo benchmark's `serve_socket` workload
//! runs with `--obs` and reports `obs.pump_busy_ratio` and
//! `obs.dropped_ratio`); all aggregation
//! happens on the monitor's thread via [`Monitor::pump`].

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod alert;
mod drift;
mod export;
mod monitor;
mod obslog;
mod watchdog;
mod window;

pub use alert::{ActiveAlert, Alert, AlertEngine, AlertRule, Severity, Signal};
pub use drift::{ks_statistic, psi_binary};
pub use export::{meter_metrics, metrics_ext, metrics_ext_with_meter, monitor_metrics};
pub use monitor::{default_rules, Monitor, ObsConfig};
pub use obslog::{ObsLog, ObsLogMeta};
pub use watchdog::{Watchdog, WatchdogConfig, TAG_CAPTURED, WATCHDOG_TASK};
pub use window::{GroupWindow, WindowRecord, WindowedStats};
