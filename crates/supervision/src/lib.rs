//! # overton-supervision
//!
//! Weak supervision management (paper §2.2 and design decision "Design for
//! Weakly Supervised Code", §2.4): label matrices over abstaining sources,
//! a majority-vote baseline, the generative **label model** fit by EM (the
//! Snorkel data-programming estimator), and [`combine_all`], which combines
//! every task's sources in one scan of a sealed store at the task's
//! granularity (singleton / sequence / set / bitvector).

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod combine;
mod label_model;
mod majority;
mod matrix;
mod prob;

pub use combine::{
    combine_all, weak_supervision_fraction, CombineError, CombineMethod, CombinedSupervision,
    SourceDiagnostics,
};
pub use label_model::{LabelModel, LabelModelConfig};
pub use majority::{majority_vote, majority_vote_hard};
pub use matrix::LabelMatrix;
pub use prob::ProbLabel;
