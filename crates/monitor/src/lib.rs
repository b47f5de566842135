//! # overton-monitor
//!
//! Fine-grained quality monitoring (the paper's first key challenge):
//! confusion matrices, multiclass/bitvector metrics, per-tag and per-slice
//! quality reports with CSV (Pandas) export, version-over-version
//! regression detection, and the deterministic statistics kernel
//! ([`stats`]) the automated loop gates on.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod accum;
mod calibration;
mod confusion;
mod diagnose;
mod metrics;
mod report;
pub mod stats;

pub use accum::MetricsAccumulator;
pub use calibration::{calibration_report, CalibrationBin, CalibrationReport};
pub use confusion::ConfusionMatrix;
pub use diagnose::{diagnose_reports, SliceDiagnosis, SLICE_PREFIX};
pub use metrics::{
    binary_f1, bitvector_metrics, error_reduction_factor, error_reduction_percent,
    multiclass_metrics, relative_quality, Metrics,
};
pub use report::{csv_escape, regressions, QualityReport, Regression, ReportRow};
