//! # overton
//!
//! A from-scratch reproduction of **Overton** (Ré et al., CIDR 2020): a
//! data system for monitoring and improving machine-learned products.
//!
//! The engineer's contract is two files — a *schema* (payloads + tasks) and
//! a *data file* (records with multi-source weak supervision, tags and
//! slices). Everything else is automated, and the front door matches the
//! contract: a [`Project`] is constructed from exactly those two files
//! ([`Project::from_files`], or [`Project::from_store`] for a sealed
//! store) and executes as a staged, resumable [`Run`] — Ingest → Combine
//! → Search → Train → Package → Evaluate — with per-stage telemetry in a
//! [`RunReport`], persisted stage artifacts under `runs/<id>/`, and the
//! deploy/monitor loop ([`Project::deploy`], [`Project::monitor`]) closing
//! Figure 1. The same contract works with no Rust at all through the
//! `overton` CLI (`overton build|evaluate|serve|report <dir>`).
//!
//! ```
//! use overton::{OvertonOptions, Project};
//! use overton::model::TrainConfig;
//! use overton::nlp::{generate_workload, WorkloadConfig};
//!
//! // Kept tiny so this doctest *runs*; scale the sizes up for a real
//! // build (see examples/quickstart.rs and examples/two_file_contract.rs).
//! let dataset = generate_workload(&WorkloadConfig {
//!     n_train: 60,
//!     n_dev: 16,
//!     n_test: 16,
//!     seed: 7,
//!     ..Default::default()
//! });
//! let run = Project::from_dataset(&dataset)
//!     .with_options(OvertonOptions {
//!         train: TrainConfig { epochs: 2, ..Default::default() },
//!         ..Default::default()
//!     })
//!     .run()
//!     .unwrap();
//! assert!(run.is_complete());
//! assert!((0.0..=1.0).contains(&run.test_accuracy("Intent")));
//! println!("{}", run.report()); // per-stage wall-clock + record counts
//! println!("{}", run.evaluation().unwrap().reports["Intent"]);
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod error;
mod project;
mod run;
mod workflows;

pub use error::Error;
pub use project::{Deployment, OvertonOptions, Project};
pub use run::{Run, RunReport, Stage, StageReport};
pub use workflows::{add_slice_supervision, cold_start, ImprovementReport, SliceDiagnosis};

// The deterministic statistics kernel — confidence intervals,
// significance tests, and the test-set reuse meter — re-exported from
// `overton-monitor` so every decision surface shares one implementation.
pub use overton_monitor::stats;

// Re-export the subsystem crates so downstream users need a single
// dependency.
pub use overton_model as model;
pub use overton_monitor as monitor;
pub use overton_nlp as nlp;
pub use overton_obs as obs;
pub use overton_serving as serving;
pub use overton_store as store;
pub use overton_supervision as supervision;
pub use overton_tensor as tensor;
