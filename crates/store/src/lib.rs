//! # overton-store
//!
//! Overton's data layer: the **schema** (payloads + tasks, paper §2.1), the
//! **data file** of JSON records carrying multi-source weak supervision and
//! tags/slices (paper §2.2), a compact binary **row store** sealed into a
//! **sharded store** with zero-copy rows, per-shard checksums, a seal-time
//! tag/slice/source index and parallel scans (the paper's memory-mapped
//! row store, footnote 5). That one [`StoreIndex`] answers every tag,
//! slice and source query and exports the tags as Pandas-compatible CSV.
//!
//! The [`Dataset`] is the editable builder view (validating, JSON-lines
//! backed, its queries answered from a cached [`StoreIndex`]);
//! [`Dataset::seal`] freezes it into a [`ShardedStore`] that the build
//! pipeline scans shard-parallel end-to-end.
//!
//! The central design idea reproduced here is *model independence*: the
//! schema describes what the model computes — never how — so supervision
//! data evolves rapidly while the schema (and everything downstream of it,
//! like the serving signature) stays fixed.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod dataset;
mod error;
mod par;
mod record;
mod schema;
mod stats;

pub mod live;
pub mod rowstore;

pub use dataset::Dataset;
pub use error::{Result, StoreError};
pub use par::par_map;
pub use record::{
    PayloadValue, Record, SetElement, TaskLabel, GOLD_SOURCE, SLICE_PREFIX, TAG_DEV, TAG_LIVE,
    TAG_TEST, TAG_TRAIN,
};
pub use schema::{
    example_schema, PayloadDef, PayloadKind, Schema, ServingSignature, SignatureInput,
    SignatureOutput, TaskDef, TaskKind,
};
pub use stats::{DatasetStats, TaskStats};

// The sharded store is the pipeline's spine; lift its types to the crate
// root alongside `Dataset`.
pub use rowstore::{
    LabelView, PayloadView, RowSetScan, RowView, ShardScan, ShardedStore, ShardedStoreBuilder,
    StoreIndex,
};

// The live store rides on top of it: append/seal/compact with
// snapshot-isolated readers.
pub use live::{LiveStore, LiveStoreConfig, StoreSnapshot};
