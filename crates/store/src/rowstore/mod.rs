//! Binary row store: compact record encoding, persistable store segments,
//! and the sharded store + seal-time index the pipeline scans.

mod encode;
mod sharded;
mod store;
mod varint;

pub use encode::{
    approx_record_bytes, decode_record, decode_row_view, encode_record, LabelView, PayloadView,
    RowView,
};
pub use sharded::{
    RowSetScan, ShardScan, ShardedStore, ShardedStoreBuilder, StoreIndex, DEFAULT_SHARD_BYTES,
};
pub use store::RowStore;
#[cfg(test)]
pub(crate) use varint::hashed_bytes;
pub use varint::{
    fnv1a, fnv1a_continue, read_str, read_str_borrowed, read_u64, write_str, write_u64,
};
