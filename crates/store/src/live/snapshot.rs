//! Snapshot-isolated read views over a live store.

use crate::rowstore::ShardedStore;
use std::sync::Arc;

/// An immutable, `Arc`-pinned view of one sealed generation of a
/// [`LiveStore`](crate::live::LiveStore): the base store plus every delta
/// segment sealed at snapshot time, merged into one [`ShardedStore`] the
/// whole pipeline can scan (`par_scan`, the index, serving, obs — all of
/// it works unchanged on a snapshot).
///
/// Taking a snapshot clones one `Arc`. Building one happens once per
/// sealed-set commit (a delta seal or a compaction): it copies each
/// segment's offset table and merges the segments' tag indexes, work that
/// grows with the row count, but it neither copies nor hashes row bytes —
/// blobs are refcounted `Bytes` carrying the checksums recorded when they
/// were built or read. Snapshots are *stable*: a pinned snapshot keeps its
/// segments alive in memory, so appends sealed after it, and even a
/// compaction that rewrites and deletes the on-disk files underneath it,
/// never change what the snapshot reads. Two scans of the same snapshot
/// are bit-for-bit identical.
#[derive(Debug, Clone)]
pub struct StoreSnapshot {
    generation: u64,
    base_rows: usize,
    delta_rows: usize,
    num_deltas: usize,
    store: Arc<ShardedStore>,
}

impl StoreSnapshot {
    pub(crate) fn new(
        generation: u64,
        base_rows: usize,
        delta_rows: usize,
        num_deltas: usize,
        store: ShardedStore,
    ) -> Self {
        Self { generation, base_rows, delta_rows, num_deltas, store: Arc::new(store) }
    }

    /// The generation id this snapshot pinned. Generations increase by one
    /// on every sealed-set commit (delta seal or compaction), so recording
    /// this number in run artifacts identifies the exact visible row set.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Rows in the sealed base at snapshot time.
    pub fn base_rows(&self) -> usize {
        self.base_rows
    }

    /// Rows across the sealed delta segments at snapshot time.
    pub fn delta_rows(&self) -> usize {
        self.delta_rows
    }

    /// Number of sealed delta segments at snapshot time.
    pub fn num_deltas(&self) -> usize {
        self.num_deltas
    }

    /// Total visible rows (base + deltas).
    pub fn len(&self) -> usize {
        self.base_rows + self.delta_rows
    }

    /// True when the snapshot holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The merged read view: base shards followed by delta segments, with
    /// the tag/slice/source index merged across all of them.
    pub fn store(&self) -> &ShardedStore {
        &self.store
    }

    /// The merged read view as a shared handle (what `Project` pins for an
    /// incremental run).
    pub fn store_arc(&self) -> Arc<ShardedStore> {
        Arc::clone(&self.store)
    }
}
