//! # overton-supervision
//!
//! Weak supervision management (paper §2.2 and design decision "Design for
//! Weakly Supervised Code", §2.4): label matrices over abstaining sources,
//! a majority-vote baseline, the generative **label model** fit by EM (the
//! Snorkel data-programming estimator), a closed-form **triplet**
//! method-of-moments alternative, per-task combination at every granularity
//! (singleton / sequence / set / bitvector), and label-preserving **data
//! augmentation** with lineage tags.

#![warn(missing_docs)]

mod augment;
mod combine;
mod dependencies;
mod label_model;
mod majority;
mod matrix;
mod prob;
mod triplet;

pub use augment::{AugmentPolicy, SynonymSwap, TokenDropout, Transform, AUG_TAG_PREFIX};
pub use combine::{
    combine_all, combine_task, combine_task_store, weak_supervision_fraction, CombineError,
    CombineMethod, CombinedSupervision, SourceDiagnostics,
};
pub use dependencies::{source_dependencies, DependencyDiagnostic};
pub use label_model::{LabelModel, LabelModelConfig};
pub use majority::{majority_vote, majority_vote_hard};
pub use matrix::LabelMatrix;
pub use prob::ProbLabel;
pub use triplet::{triplet_accuracies, TripletEstimate};
