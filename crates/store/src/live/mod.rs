//! The live store: a sealed base plus rotating delta segments, background
//! compaction, and snapshot-isolated readers.
//!
//! The [`ShardedStore`] is seal-once by design — that is what makes its
//! scans deterministic and its files checksummable. But the paper's
//! Figure-1 loop runs against *continuous* data: serving traffic captured
//! by the watchdog, fresh gold labels, new weak sources. A [`LiveStore`]
//! closes that gap without giving up the sealed-store guarantees:
//!
//! ```text
//!   append()  ──▶  [ in-memory buffer ]
//!                        │ seal at row/byte target or flush()
//!                        ▼
//!   dir/ ── LIVE.json          generation header (atomic rename commit)
//!        ├─ base-GGGGGGGGGG/   sealed ShardedStore directory
//!        ├─ delta-000000.ovrs  sealed RowStore segments, append order
//!        └─ delta-000001.ovrs
//!                        │ background compactor: merge cold deltas
//!                        ▼
//!        base-(G+1)/ written to a temp dir, then LIVE.json renamed over —
//!        a killed compaction leaves the old generation fully readable.
//! ```
//!
//! Readers never touch this machinery: [`LiveStore::snapshot`] hands out
//! an [`StoreSnapshot`] — an `Arc`-pinned merge of the base and every
//! sealed delta at that generation, presented as an ordinary
//! [`ShardedStore`]. Pinned snapshots are immune to later appends *and* to
//! compactions that delete the files underneath them, so a scan replays
//! bit-identically for as long as the snapshot is held.
//!
//! Appended rows become visible (and durable) when sealed into a delta:
//! at the configured row/byte target, or on [`LiveStore::flush`]. Every
//! sealed-set change commits by atomically renaming a staged `LIVE.json`,
//! and every segment is checksummed, so [`verify_dir`] can audit a live
//! directory segment by segment.

mod compact;
mod manifest;
mod snapshot;
mod verify;

pub use compact::{CompactFault, CompactPoint, Compactor, COMPACT_POINTS};
pub use manifest::{LIVE_FORMAT_VERSION, LIVE_MANIFEST};
pub use snapshot::StoreSnapshot;
pub use verify::{verify_dir, SegmentStatus, VerifyReport};

use crate::error::{Result, StoreError};
use crate::record::{for_each_jsonl_record, Record};
use crate::rowstore::{approx_record_bytes, RowStore, ShardedStore, StoreIndex};
use crate::schema::Schema;
use manifest::{DeltaEntry, LiveManifest};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Tuning knobs for a [`LiveStore`].
#[derive(Debug, Clone)]
pub struct LiveStoreConfig {
    /// Seal the append buffer into a delta once it holds this many rows.
    pub delta_rows: usize,
    /// ... or once its estimated encoded size reaches this many bytes.
    pub delta_bytes: usize,
    /// The background compactor merges deltas into the base once at least
    /// this many are sealed.
    pub compact_min_deltas: usize,
}

impl Default for LiveStoreConfig {
    fn default() -> Self {
        Self { delta_rows: 4096, delta_bytes: 1 << 20, compact_min_deltas: 4 }
    }
}

/// One sealed delta segment held in memory alongside its manifest entry
/// (the segment carries the checksum the manifest records).
struct DeltaSegment {
    file: String,
    rows: usize,
    store: RowStore,
    index: StoreIndex,
}

/// The mutable sealed-set state behind the lock.
struct LiveState {
    base: ShardedStore,
    base_dir: String,
    deltas: Vec<DeltaSegment>,
    generation: u64,
    next_delta: u64,
    buffer: Vec<Record>,
    buffer_bytes: usize,
}

/// An appendable store: sealed [`ShardedStore`] base + rotating sealed
/// delta segments + an in-memory append buffer. See the module docs for
/// the lifecycle and the crash-safety story.
pub struct LiveStore {
    dir: PathBuf,
    schema: Schema,
    config: LiveStoreConfig,
    state: Mutex<LiveState>,
    snapshot: Mutex<Arc<StoreSnapshot>>,
    /// Serializes compactions (explicit calls and the background thread).
    compact_guard: Mutex<()>,
    /// Test-only fault hook: lets the crash-mid-compaction suite kill the
    /// compactor at every protocol point.
    fault: Mutex<Option<CompactFault>>,
    compact_error: Mutex<Option<String>>,
}

impl std::fmt::Debug for LiveStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock().expect("live state");
        f.debug_struct("LiveStore")
            .field("dir", &self.dir)
            .field("generation", &state.generation)
            .field("base_rows", &state.base.len())
            .field("deltas", &state.deltas.len())
            .field("pending", &state.buffer.len())
            .finish()
    }
}

fn base_dir_name(generation: u64) -> String {
    format!("base-{generation:010}")
}

fn delta_file_name(seq: u64) -> String {
    format!("delta-{seq:06}.ovrs")
}

impl LiveStore {
    /// Creates a new live store at `dir` with an empty base.
    pub fn create(dir: impl AsRef<Path>, schema: Schema) -> Result<Self> {
        Self::create_from(dir, ShardedStore::from_records(schema, &[], 1))
    }

    /// Creates a new live store at `dir` seeded with an existing sealed
    /// store as its base (generation 0).
    pub fn create_from(dir: impl AsRef<Path>, base: ShardedStore) -> Result<Self> {
        Self::create_from_with(dir, base, LiveStoreConfig::default())
    }

    /// [`create_from`](Self::create_from) with explicit tuning.
    pub fn create_from_with(
        dir: impl AsRef<Path>,
        base: ShardedStore,
        config: LiveStoreConfig,
    ) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        if dir.join(LIVE_MANIFEST).exists() {
            return Err(StoreError::Validation(format!(
                "{}: a live store already exists here",
                dir.display()
            )));
        }
        std::fs::create_dir_all(&dir)?;
        let base_dir = base_dir_name(0);
        base.write_dir(dir.join(&base_dir))?;
        let manifest =
            LiveManifest { generation: 0, base: base_dir.clone(), next_delta: 0, deltas: vec![] };
        manifest.write_atomic(&dir)?;
        let schema = base.schema().clone();
        let state = LiveState {
            base,
            base_dir,
            deltas: vec![],
            generation: 0,
            next_delta: 0,
            buffer: vec![],
            buffer_bytes: 0,
        };
        Ok(Self::assemble(dir, schema, config, state))
    }

    /// Opens an existing live store, verifying the manifest self-checksum
    /// and every segment checksum, then sweeping any orphan files a crash
    /// left behind (staged temp files, unreferenced bases and deltas).
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        Self::open_with(dir, LiveStoreConfig::default())
    }

    /// [`open`](Self::open) with explicit tuning.
    pub fn open_with(dir: impl AsRef<Path>, config: LiveStoreConfig) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        let manifest = LiveManifest::read(&dir)?;
        let base_path = dir.join(&manifest.base);
        let base = ShardedStore::read_dir(&base_path).map_err(|e| match e {
            StoreError::Corrupt(msg) => {
                StoreError::Corrupt(format!("{}: {msg}", base_path.display()))
            }
            other => other,
        })?;
        let mut deltas = Vec::with_capacity(manifest.deltas.len());
        for entry in &manifest.deltas {
            let path = dir.join(&entry.file);
            let store = RowStore::read_file(&path).map_err(|e| match e {
                StoreError::Corrupt(msg) => {
                    StoreError::Corrupt(format!("{}: {msg}", path.display()))
                }
                StoreError::Io(io) => StoreError::Io(std::io::Error::new(
                    io.kind(),
                    format!("{}: {io}", path.display()),
                )),
                other => other,
            })?;
            if store.len() != entry.rows || store.blob_checksum() != entry.checksum {
                return Err(StoreError::Corrupt(format!(
                    "{}: does not match the live manifest",
                    path.display()
                )));
            }
            let mut index = StoreIndex::default();
            for (row, view) in store.scan_views().enumerate() {
                let view = view?;
                index.note_view(row as u32, &view);
            }
            deltas.push(DeltaSegment { file: entry.file.clone(), rows: entry.rows, store, index });
        }
        Self::sweep_orphans(&dir, &manifest);
        let schema = base.schema().clone();
        let state = LiveState {
            base,
            base_dir: manifest.base.clone(),
            deltas,
            generation: manifest.generation,
            next_delta: manifest.next_delta,
            buffer: vec![],
            buffer_bytes: 0,
        };
        Ok(Self::assemble(dir, schema, config, state))
    }

    fn assemble(dir: PathBuf, schema: Schema, config: LiveStoreConfig, state: LiveState) -> Self {
        let snapshot = Arc::new(Self::snapshot_of(&state));
        Self {
            dir,
            schema,
            config,
            state: Mutex::new(state),
            snapshot: Mutex::new(snapshot),
            compact_guard: Mutex::new(()),
            fault: Mutex::new(None),
            compact_error: Mutex::new(None),
        }
    }

    /// Best-effort removal of files a crash left behind: anything staged
    /// (`*.tmp`), base directories other than the committed one, and delta
    /// files the manifest doesn't reference. Never touches the committed
    /// generation.
    fn sweep_orphans(dir: &Path, manifest: &LiveManifest) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let path = entry.path();
            if name.ends_with(".tmp") {
                if path.is_dir() {
                    std::fs::remove_dir_all(&path).ok();
                } else {
                    std::fs::remove_file(&path).ok();
                }
            } else if name.starts_with("base-") && name != manifest.base {
                std::fs::remove_dir_all(&path).ok();
            } else if name.starts_with("delta-")
                && name.ends_with(".ovrs")
                && !manifest.deltas.iter().any(|d| d.file == name)
            {
                std::fs::remove_file(&path).ok();
            }
        }
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The schema appended records must conform to.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The tuning configuration.
    pub fn config(&self) -> &LiveStoreConfig {
        &self.config
    }

    /// The current sealed generation id.
    pub fn generation(&self) -> u64 {
        self.state.lock().expect("live state").generation
    }

    /// Rows visible to snapshots (base + sealed deltas).
    pub fn sealed_rows(&self) -> usize {
        let state = self.state.lock().expect("live state");
        state.base.len() + state.deltas.iter().map(|d| d.rows).sum::<usize>()
    }

    /// Rows buffered but not yet sealed into a delta.
    pub fn pending_rows(&self) -> usize {
        self.state.lock().expect("live state").buffer.len()
    }

    /// Number of sealed delta segments not yet compacted into the base.
    pub fn num_deltas(&self) -> usize {
        self.state.lock().expect("live state").deltas.len()
    }

    /// Validates and buffers one record. The buffer seals into a delta
    /// segment automatically at the configured row/byte target; until
    /// then the record is neither durable nor visible to snapshots.
    pub fn append(&self, mut record: Record) -> Result<()> {
        record.normalize_labels(&self.schema);
        record.validate(&self.schema)?;
        let mut state = self.state.lock().expect("live state");
        state.buffer_bytes += approx_record_bytes(&record);
        state.buffer.push(record);
        if state.buffer.len() >= self.config.delta_rows
            || state.buffer_bytes >= self.config.delta_bytes
        {
            if let Err(e) = self.flush_locked(&mut state) {
                // The failed flush put the buffer back, this record
                // included; take it out so `Err` means "not stored" and a
                // retry cannot store it twice.
                state.buffer.pop();
                state.buffer_bytes = RowStore::approx_bytes(state.buffer.iter());
                return Err(e);
            }
        }
        Ok(())
    }

    /// Appends a JSON-lines reader record by record (blank lines skipped,
    /// errors carry the 1-based line number). Returns how many records
    /// were appended. Call [`flush`](Self::flush) afterwards to seal a
    /// partial buffer.
    pub fn append_jsonl(&self, reader: impl std::io::Read) -> Result<usize> {
        for_each_jsonl_record(reader, |record| self.append(record))
    }

    /// Seals any buffered rows into a delta segment and commits it.
    /// Returns the resulting generation (unchanged if the buffer was
    /// empty).
    pub fn flush(&self) -> Result<u64> {
        let mut state = self.state.lock().expect("live state");
        self.flush_locked(&mut state)
    }

    fn flush_locked(&self, state: &mut LiveState) -> Result<u64> {
        if state.buffer.is_empty() {
            return Ok(state.generation);
        }
        let records = std::mem::take(&mut state.buffer);
        state.buffer_bytes = 0;
        let segment = RowStore::build(records.iter());
        let index = StoreIndex::from_records(&records);
        let file = delta_file_name(state.next_delta);
        let staged = self.dir.join(format!("{file}.tmp"));
        let entry = DeltaEntry {
            file: file.clone(),
            rows: records.len(),
            checksum: segment.blob_checksum(),
        };
        // Write the segment, then commit it via the manifest; mutate state
        // only after the commit so any error leaves the buffer intact.
        let committed = (|| -> Result<()> {
            segment.write_file(&staged)?;
            std::fs::rename(&staged, self.dir.join(&file))?;
            let mut manifest = Self::manifest_of(state);
            manifest.generation += 1;
            manifest.next_delta += 1;
            manifest.deltas.push(entry.clone());
            manifest.write_atomic(&self.dir)
        })();
        if let Err(e) = committed {
            std::fs::remove_file(self.dir.join(&file)).ok();
            std::fs::remove_file(&staged).ok();
            state.buffer_bytes = RowStore::approx_bytes(records.iter());
            state.buffer = records;
            return Err(e);
        }
        state.generation += 1;
        state.next_delta += 1;
        state.deltas.push(DeltaSegment {
            file: entry.file,
            rows: entry.rows,
            store: segment,
            index,
        });
        self.rebuild_snapshot(state);
        Ok(state.generation)
    }

    /// The current sealed snapshot: base + sealed deltas at this
    /// generation, pinned. Free to take: it was built when the generation
    /// was sealed, and this clones one `Arc`.
    pub fn snapshot(&self) -> Arc<StoreSnapshot> {
        Arc::clone(&self.snapshot.lock().expect("live snapshot"))
    }

    /// Re-hashes every segment in memory (base shards and deltas) against
    /// the checksum recorded when its bytes were built or read. Flushes,
    /// snapshots and compactions never re-hash; this audit does.
    pub fn verify(&self) -> Result<()> {
        let state = self.state.lock().expect("live state");
        state.base.verify()?;
        for delta in &state.deltas {
            delta
                .store
                .verify()
                .map_err(|_| StoreError::Corrupt(format!("{}: checksum mismatch", delta.file)))?;
        }
        Ok(())
    }

    fn manifest_of(state: &LiveState) -> LiveManifest {
        LiveManifest {
            generation: state.generation,
            base: state.base_dir.clone(),
            next_delta: state.next_delta,
            deltas: state
                .deltas
                .iter()
                .map(|d| DeltaEntry {
                    file: d.file.clone(),
                    rows: d.rows,
                    checksum: d.store.blob_checksum(),
                })
                .collect(),
        }
    }

    fn snapshot_of(state: &LiveState) -> StoreSnapshot {
        let merged =
            state.base.with_extra_segments(state.deltas.iter().map(|d| (&d.store, &d.index)));
        StoreSnapshot::new(
            state.generation,
            state.base.len(),
            state.deltas.iter().map(|d| d.rows).sum(),
            state.deltas.len(),
            merged,
        )
    }

    fn rebuild_snapshot(&self, state: &LiveState) {
        *self.snapshot.lock().expect("live snapshot") = Arc::new(Self::snapshot_of(state));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{PayloadValue, TaskLabel, TAG_TRAIN};
    use crate::schema::example_schema;

    fn record(i: usize) -> Record {
        Record::new()
            .with_payload("query", PayloadValue::Singleton(format!("live row {i}")))
            .with_label(
                "Intent",
                "weak1",
                TaskLabel::MulticlassOne(if i.is_multiple_of(2) { "Age" } else { "Height" }.into()),
            )
            .with_tag(TAG_TRAIN)
    }

    fn temp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("overton-live-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn append_seal_snapshot_lifecycle() {
        let dir = temp("lifecycle");
        let live = LiveStore::create_from_with(
            &dir,
            ShardedStore::from_records(example_schema(), &[], 1),
            LiveStoreConfig { delta_rows: 10, ..Default::default() },
        )
        .unwrap();
        assert_eq!(live.generation(), 0);

        // Buffered rows are invisible until sealed.
        for i in 0..7 {
            live.append(record(i)).unwrap();
        }
        assert_eq!(live.pending_rows(), 7);
        assert_eq!(live.snapshot().len(), 0);

        // Explicit flush seals a delta and bumps the generation.
        assert_eq!(live.flush().unwrap(), 1);
        assert_eq!(live.pending_rows(), 0);
        let snap1 = live.snapshot();
        assert_eq!((snap1.generation(), snap1.len(), snap1.num_deltas()), (1, 7, 1));
        assert_eq!(snap1.store().index().train_rows().len(), 7);

        // Hitting the row target seals automatically.
        for i in 7..17 {
            live.append(record(i)).unwrap();
        }
        assert_eq!(live.pending_rows(), 0, "row target must auto-seal");
        assert_eq!(live.generation(), 2);
        let snap2 = live.snapshot();
        assert_eq!((snap2.len(), snap2.num_deltas()), (17, 2));

        // The pinned earlier snapshot is untouched.
        assert_eq!(snap1.len(), 7);
        for i in 0..17 {
            assert_eq!(snap2.store().get(i).unwrap(), record(i));
        }
        live.verify().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_restores_the_sealed_world() {
        let dir = temp("reopen");
        let live = LiveStore::create(&dir, example_schema()).unwrap();
        for i in 0..25 {
            live.append(record(i)).unwrap();
        }
        live.flush().unwrap();
        let generation = live.generation();
        let rows: Vec<Record> = (0..25).map(|i| live.snapshot().store().get(i).unwrap()).collect();
        drop(live);

        let back = LiveStore::open(&dir).unwrap();
        assert_eq!(back.generation(), generation);
        assert_eq!(back.sealed_rows(), 25);
        let snap = back.snapshot();
        for (i, want) in rows.iter().enumerate() {
            assert_eq!(&snap.store().get(i).unwrap(), want);
        }
        assert_eq!(snap.store().index().train_rows().len(), 25);
        back.verify().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_validates_against_the_schema() {
        let dir = temp("validate");
        let live = LiveStore::create(&dir, example_schema()).unwrap();
        let bad =
            Record::new().with_label("Intent", "w", TaskLabel::MulticlassOne("NotAClass".into()));
        assert!(live.append(bad).is_err());
        assert_eq!(live.pending_rows(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_jsonl_counts_and_reports_lines() {
        let dir = temp("jsonl");
        let live = LiveStore::create(&dir, example_schema()).unwrap();
        let jsonl: String = (0..5).map(|i| format!("{}\n\n", record(i).to_json())).collect();
        assert_eq!(live.append_jsonl(jsonl.as_bytes()).unwrap(), 5);
        live.flush().unwrap();
        assert_eq!(live.sealed_rows(), 5);

        let bad = format!("{}\nnot json\n", record(9).to_json());
        let err = live.append_jsonl(bad.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_jsonl_keeps_flush_io_errors_as_io() {
        let dir = temp("jsonl-io");
        let live = LiveStore::create_from_with(
            &dir,
            ShardedStore::from_records(example_schema(), &[], 1),
            LiveStoreConfig { delta_rows: 1, ..Default::default() },
        )
        .unwrap();
        // The first record fills the delta buffer, so its flush writes a
        // segment into a directory that is gone.
        std::fs::remove_dir_all(&dir).unwrap();
        let line = format!("{}\n", record(0).to_json());
        let err = live.append_jsonl(line.as_bytes()).unwrap_err();
        assert!(matches!(err, StoreError::Io(_)), "{err:?}");
        assert!(err.to_string().contains("line 1"), "{err}");
        // Refused means not stored: nothing stays buffered, and a retry
        // once the directory is back stores the record exactly once.
        assert_eq!(live.pending_rows(), 0);
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(live.append_jsonl(line.as_bytes()).unwrap(), 1);
        let snap = live.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap.store().get(0).unwrap(), record(0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn create_refuses_to_clobber() {
        let dir = temp("clobber");
        LiveStore::create(&dir, example_schema()).unwrap();
        assert!(LiveStore::create(&dir, example_schema()).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn create_from_seeds_the_base() {
        let dir = temp("seeded");
        let records: Vec<Record> = (0..30).map(record).collect();
        let base = ShardedStore::from_records(example_schema(), &records, 3);
        let live = LiveStore::create_from(&dir, base).unwrap();
        assert_eq!(live.sealed_rows(), 30);
        live.append(record(30)).unwrap();
        live.flush().unwrap();
        let snap = live.snapshot();
        assert_eq!(snap.len(), 31);
        assert_eq!((snap.base_rows(), snap.delta_rows()), (30, 1));
        assert_eq!(snap.store().get(30).unwrap(), record(30));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_delta_fails_open_naming_the_file() {
        let dir = temp("corrupt");
        let live = LiveStore::create(&dir, example_schema()).unwrap();
        for i in 0..8 {
            live.append(record(i)).unwrap();
        }
        live.flush().unwrap();
        drop(live);
        let path = dir.join("delta-000000.ovrs");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, bytes).unwrap();
        let err = LiveStore::open(&dir).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("delta-000000.ovrs"), "{msg}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Bytes of the segment files the live manifest names (base shards
    /// and deltas), each without its 8-byte checksum trailer: what one
    /// hash of every segment covers.
    fn segment_bytes(dir: &Path) -> u64 {
        let manifest = LiveManifest::read(dir).unwrap();
        let base = ShardedStore::read_dir(dir.join(&manifest.base)).unwrap();
        let shards = (0..base.num_shards())
            .map(|s| format!("{}/shard-{s:04}.ovrs", manifest.base))
            .chain(manifest.deltas.iter().map(|d| d.file.clone()));
        shards.map(|file| std::fs::metadata(dir.join(file)).unwrap().len() - 8).sum()
    }

    /// Bytes the live directory's metadata hashes when written or read:
    /// the base's `schema.json`, the self-checksummed core of the base
    /// manifest, and that of `LIVE.json`.
    fn metadata_bytes(dir: &Path) -> u64 {
        let manifest = LiveManifest::read(dir).unwrap();
        let base = ShardedStore::read_dir(dir.join(&manifest.base)).unwrap();
        let schema_json = base.schema().to_json();
        let base_core = ShardedStore::manifest_core(
            base.num_shards(),
            crate::rowstore::fnv1a(schema_json.as_bytes()),
            base.shard_checksums(),
        );
        (schema_json.len() + base_core.len() + manifest.core().len()) as u64
    }

    #[test]
    fn flush_compact_and_open_hash_each_segment_byte_once() {
        use crate::rowstore::hashed_bytes;
        let dir = temp("hash-once");
        let records: Vec<Record> = (0..40).map(record).collect();
        let base = ShardedStore::from_records(example_schema(), &records, 2);
        let live = LiveStore::create_from(&dir, base).unwrap();
        // Ten equal-sized deltas: rows 100..300 all print three digits.
        let mut flushed = Vec::new();
        for d in 0..10 {
            for i in 0..20 {
                live.append(record(100 + 20 * d + i)).unwrap();
            }
            let before = hashed_bytes();
            live.flush().unwrap();
            let hashed = hashed_bytes() - before;
            // A flush hashes its own segment once and its manifest's core:
            // nothing of the base or of the deltas sealed before it.
            let manifest = LiveManifest::read(&dir).unwrap();
            let own = std::fs::metadata(dir.join(&manifest.deltas[d].file)).unwrap().len() - 8;
            assert_eq!(hashed - manifest.core().len() as u64, own, "flush {}", d + 1);
            flushed.push(own);
        }
        assert_eq!(flushed[0], flushed[9], "the 10th flush costs what the 1st does");

        // Compaction writes shards whose checksums were recorded when their
        // bytes were built or read: it hashes only the metadata it writes.
        let before = hashed_bytes();
        live.compact().unwrap();
        let hashed = hashed_bytes() - before;
        assert_eq!(hashed, metadata_bytes(&dir));
        assert!(segment_bytes(&dir) > 10 * flushed[0]);

        // Opening reads and verifies every segment file in one pass each.
        for i in 300..320 {
            live.append(record(i)).unwrap();
        }
        live.flush().unwrap();
        drop(live);
        let before = hashed_bytes();
        let back = LiveStore::open(&dir).unwrap();
        let hashed = hashed_bytes() - before;
        assert_eq!((back.num_deltas(), back.sealed_rows()), (1, 260));
        assert_eq!(hashed, segment_bytes(&dir) + metadata_bytes(&dir));

        // The in-memory audit is the one place segments are hashed again.
        let before = hashed_bytes();
        back.verify().unwrap();
        let rehashed = hashed_bytes() - before;
        let snap = back.snapshot();
        let blobs: usize =
            (0..snap.store().num_shards()).map(|s| snap.store().shard(s).blob_len()).sum();
        assert_eq!(rehashed, blobs as u64);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_sweeps_orphans() {
        let dir = temp("sweep");
        let live = LiveStore::create(&dir, example_schema()).unwrap();
        for i in 0..4 {
            live.append(record(i)).unwrap();
        }
        live.flush().unwrap();
        drop(live);
        // Simulate crash leftovers: a staged manifest, an unreferenced
        // delta, an abandoned base dir.
        std::fs::write(dir.join("LIVE.json.tmp"), "half-written").unwrap();
        std::fs::write(dir.join("delta-000099.ovrs"), "orphan").unwrap();
        std::fs::create_dir_all(dir.join("base-0000000099.tmp")).unwrap();
        std::fs::create_dir_all(dir.join("base-0000000042")).unwrap();
        let live = LiveStore::open(&dir).unwrap();
        assert!(!dir.join("LIVE.json.tmp").exists());
        assert!(!dir.join("delta-000099.ovrs").exists());
        assert!(!dir.join("base-0000000099.tmp").exists());
        assert!(!dir.join("base-0000000042").exists());
        assert_eq!(live.sealed_rows(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }
}
