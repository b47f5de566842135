//! Layer parameters.
//!
//! Each layer registers its weights in a shared
//! [`ParamStore`](crate::params::ParamStore) and holds their
//! [`ParamId`](crate::params::ParamId)s, shapes and hyperparameters. The
//! computation is not here: `overton-model` lowers each layer into steps of
//! its model plan, which run forward and backward over slot arenas.

mod attention;
mod conv;
mod dropout;
mod embedding;
mod linear;
mod lstm;

pub use attention::MultiHeadSelfAttention;
pub use conv::Conv1d;
pub use dropout::Dropout;
pub use embedding::Embedding;
pub use linear::Linear;
pub use lstm::{BiLstm, Lstm};
