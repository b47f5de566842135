//! The unified error type of the facade crate.
//!
//! Every way a project can fail — a malformed schema or data file, a
//! corrupt row store, a supervision-combination failure, an empty training
//! split, a staged run driven out of order — folds into one exhaustive
//! [`Error`], so callers (including the `overton` CLI) match on a single
//! type instead of juggling `StoreError`/`CombineError` conversions by
//! hand.

use crate::run::Stage;
use overton_store::StoreError;
use overton_supervision::CombineError;
use std::fmt;

/// Errors from the Overton facade: project construction, staged runs,
/// deployment and the improvement workflows.
#[derive(Debug)]
pub enum Error {
    /// Supervision combination failed (unknown task/class/source).
    Combine(CombineError),
    /// The data has no usable training records.
    NoTrainingData,
    /// Data-layer failure: schema parsing, record validation (including
    /// line-numbered two-file ingestion errors), I/O, or a corrupt store.
    Store(StoreError),
    /// A staged run was driven out of order or its run directory is
    /// missing the state the stage needs.
    Run {
        /// The stage that could not execute or load.
        stage: Stage,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Combine(e) => write!(f, "supervision combination failed: {e}"),
            Error::NoTrainingData => write!(f, "dataset has no training records"),
            Error::Store(e) => write!(f, "storage error: {e}"),
            Error::Run { stage, message } => write!(f, "run stage {stage}: {message}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Combine(e) => Some(e),
            Error::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CombineError> for Error {
    fn from(e: CombineError) -> Self {
        // A store failure inside the combiner is a store failure here:
        // the fold keeps one variant per root cause.
        match e {
            CombineError::Store(e) => Error::Store(e),
            other => Error::Combine(other),
        }
    }
}

impl From<StoreError> for Error {
    fn from(e: StoreError) -> Self {
        Error::Store(e)
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Store(StoreError::Io(e))
    }
}

impl Error {
    /// Shorthand for a run-orchestration error at `stage`.
    pub(crate) fn run(stage: Stage, message: impl Into<String>) -> Self {
        Error::Run { stage, message: message.into() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combine_store_errors_fold_into_store() {
        let e: Error = CombineError::Store(StoreError::Corrupt("bad shard".into())).into();
        assert!(matches!(e, Error::Store(StoreError::Corrupt(_))), "{e}");
        let e: Error = CombineError::UnknownTask("POS".into()).into();
        assert!(matches!(e, Error::Combine(_)), "{e}");
    }

    #[test]
    fn display_covers_all_variants() {
        let cases: Vec<Error> = vec![
            CombineError::UnknownTask("t".into()).into(),
            Error::NoTrainingData,
            StoreError::Validation("line 3: bad".into()).into(),
            Error::run(Stage::Train, "no prepared data"),
        ];
        for e in cases {
            assert!(!e.to_string().is_empty());
        }
    }
}
