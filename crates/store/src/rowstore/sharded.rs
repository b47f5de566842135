//! The sharded row store: the pipeline's resident data spine.
//!
//! A [`ShardedStore`] is N [`RowStore`] segments (zero-copy `Bytes` rows,
//! per-shard checksums recorded at seal time) plus a [`StoreIndex`] — a
//! persistent tag/slice/source index built once when the store is sealed,
//! so the hot paths (supervision combination, feature encoding,
//! evaluation, slice reports) never re-scan the data to answer "which rows
//! carry this tag". Scans fan the shards out over `std::thread::scope`
//! workers via [`ShardedStore::par_scan`]; each worker walks its shard
//! through zero-copy [`RowView`]s or decoded [`Record`]s and returns a
//! partial that the caller merges in shard order, which keeps every
//! parallel computation bit-for-bit deterministic.
//!
//! This reproduces the role of the paper's memory-mapped row store
//! (footnote 5): payloads and supervision live in compact binary rows that
//! the whole build loop scans at production scale.

use crate::dataset::Dataset;
use crate::error::{Result, StoreError};
use crate::par::par_map;
use crate::record::{for_each_jsonl_record, Record, SLICE_PREFIX, TAG_DEV, TAG_TEST, TAG_TRAIN};
use crate::rowstore::encode::{approx_record_bytes, encode_record, RowView};
use crate::rowstore::store::RowStore;
use crate::schema::Schema;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// Default target size of one shard produced by the streaming
/// [`ShardedStoreBuilder`] (4 MiB of encoded rows).
pub const DEFAULT_SHARD_BYTES: usize = 4 << 20;

/// The persistent inverted index a [`ShardedStore`] builds at seal time
/// (and a [`Dataset`] caches over its records): tag → sorted global row
/// ids, plus the per-task supervision source names. Everything downstream
/// answers split/slice/source queries from here instead of scanning rows,
/// and [`write_csv`](Self::write_csv) exports the tags for Pandas.
#[derive(Debug, Clone, Default)]
pub struct StoreIndex {
    tags: BTreeMap<String, Vec<u32>>,
    sources: BTreeMap<String, Vec<String>>,
    num_rows: usize,
}

impl StoreIndex {
    /// Indexes `records` as rows `0..records.len()`.
    pub(crate) fn from_records(records: &[Record]) -> Self {
        let mut index = StoreIndex { num_rows: records.len(), ..StoreIndex::default() };
        for (row, record) in records.iter().enumerate() {
            index.note_record(row as u32, record);
        }
        index
    }

    fn note_tags_and_sources<'a>(
        &mut self,
        row: u32,
        tags: impl Iterator<Item = &'a str>,
        task_sources: impl Iterator<Item = (&'a str, &'a str)>,
    ) {
        // Look names up by `&str` first: a name is copied only the first
        // time the index sees it, not once per row.
        for tag in tags {
            if let Some(rows) = self.tags.get_mut(tag) {
                rows.push(row);
            } else {
                self.tags.insert(tag.to_string(), vec![row]);
            }
        }
        for (task, source) in task_sources {
            if source == crate::record::GOLD_SOURCE {
                continue;
            }
            if !self.sources.contains_key(task) {
                self.sources.insert(task.to_string(), Vec::new());
            }
            let sources = self.sources.get_mut(task).expect("inserted above");
            if let Err(at) = sources.binary_search_by(|s| s.as_str().cmp(source)) {
                sources.insert(at, source.to_string());
            }
        }
        self.num_rows = self.num_rows.max(row as usize + 1);
    }

    pub(crate) fn note_record(&mut self, row: u32, record: &Record) {
        self.note_tags_and_sources(
            row,
            record.tags.iter().map(String::as_str),
            record
                .tasks
                .iter()
                .flat_map(|(t, sources)| sources.keys().map(move |s| (t.as_str(), s.as_str()))),
        );
    }

    /// Notes a zero-copy row view (what `read_dir` and the live store's
    /// `open` rebuild per-segment indexes from, without decoding records).
    pub(crate) fn note_view(&mut self, row: u32, view: &RowView<'_>) {
        self.note_tags_and_sources(
            row,
            view.tags.iter().copied(),
            view.tasks.iter().flat_map(|(t, sources)| sources.iter().map(move |(s, _)| (*t, *s))),
        );
    }

    /// Merges `other`'s entries into `self` with every row id shifted by
    /// `offset`. Because live-store snapshots append segments *after* the
    /// base rows (offsets strictly increase segment to segment), the
    /// per-tag row lists stay sorted without a re-sort.
    pub(crate) fn merge_shifted(&mut self, other: &StoreIndex, offset: u32) {
        for (tag, rows) in &other.tags {
            self.tags.entry(tag.clone()).or_default().extend(rows.iter().map(|&r| r + offset));
        }
        for (task, sources) in &other.sources {
            let dst = self.sources.entry(task.clone()).or_default();
            for source in sources {
                if let Err(at) = dst.binary_search(source) {
                    dst.insert(at, source.clone());
                }
            }
        }
        self.num_rows = self.num_rows.max(offset as usize + other.num_rows);
    }

    /// Number of rows in the indexed store.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Sorted global row ids carrying `tag` (empty if unknown).
    pub fn rows(&self, tag: &str) -> &[u32] {
        self.tags.get(tag).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of rows carrying `tag`.
    pub fn count(&self, tag: &str) -> usize {
        self.rows(tag).len()
    }

    /// Rows of the train split.
    pub fn train_rows(&self) -> &[u32] {
        self.rows(TAG_TRAIN)
    }

    /// Rows of the dev split.
    pub fn dev_rows(&self) -> &[u32] {
        self.rows(TAG_DEV)
    }

    /// Rows of the test split.
    pub fn test_rows(&self) -> &[u32] {
        self.rows(TAG_TEST)
    }

    /// Rows in the named slice.
    pub fn slice_rows(&self, slice: &str) -> &[u32] {
        self.tags.get(&format!("{SLICE_PREFIX}{slice}")).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All tags present, sorted.
    pub fn tag_names(&self) -> Vec<String> {
        self.tags.keys().cloned().collect()
    }

    /// All slice names present, sorted.
    pub fn slice_names(&self) -> Vec<String> {
        self.tags.keys().filter_map(|t| t.strip_prefix(SLICE_PREFIX)).map(str::to_string).collect()
    }

    /// Names of all non-gold supervision sources appearing for `task`,
    /// sorted.
    pub fn sources_for_task(&self, task: &str) -> Vec<String> {
        self.sources.get(task).cloned().unwrap_or_default()
    }

    /// Tasks that carry at least one non-gold supervision source.
    pub fn supervised_tasks(&self) -> impl Iterator<Item = &str> {
        self.sources.keys().map(String::as_str)
    }

    /// Writes a Pandas-loadable CSV with one row per example and one 0/1
    /// column per tag (`pd.read_csv(..., index_col="row")`): the paper's
    /// "tags are stored in a format that is compatible with Pandas"
    /// (§2.2).
    pub fn write_csv(&self, mut writer: impl Write) -> std::io::Result<()> {
        write!(writer, "row")?;
        for tag in self.tags.keys() {
            write!(writer, ",{}", csv_escape(tag))?;
        }
        writeln!(writer)?;
        // Row-major sweep over membership.
        let mut cursors = vec![0usize; self.tags.len()];
        for row in 0..self.num_rows as u32 {
            write!(writer, "{row}")?;
            for (rows, cursor) in self.tags.values().zip(&mut cursors) {
                let member = *cursor < rows.len() && rows[*cursor] == row;
                if member {
                    *cursor += 1;
                }
                write!(writer, ",{}", u8::from(member))?;
            }
            writeln!(writer)?;
        }
        Ok(())
    }
}

fn csv_escape(field: &str) -> String {
    if field.contains([',', '"', '\n']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// One worker's window onto one shard during [`ShardedStore::par_scan`]:
/// the shard id, the global row id of the shard's first row, and
/// iterators over the shard as decoded records or zero-copy views.
pub struct ShardScan<'a> {
    shard: usize,
    start: usize,
    store: &'a RowStore,
}

impl<'a> ShardScan<'a> {
    /// Index of this shard within the store.
    pub fn shard_id(&self) -> usize {
        self.shard
    }

    /// Global row id of the shard's first row.
    pub fn start(&self) -> usize {
        self.start
    }

    /// Rows in this shard.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True when the shard holds no rows.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// The underlying segment.
    pub fn store(&self) -> &'a RowStore {
        self.store
    }

    /// Iterates `(global row id, decoded record)` over the shard.
    pub fn records(&self) -> impl Iterator<Item = (usize, Result<Record>)> + 'a {
        let (start, store) = (self.start, self.store);
        (0..store.len()).map(move |i| (start + i, store.get(i)))
    }

    /// Iterates `(global row id, zero-copy view)` over the shard.
    pub fn views(&self) -> impl Iterator<Item = (usize, Result<RowView<'a>>)> + 'a {
        let (start, store) = (self.start, self.store);
        (0..store.len()).map(move |i| (start + i, store.view(i)))
    }
}

/// One worker's window onto the subset of a shard selected by a sorted
/// global row set ([`ShardedStore::par_scan_rows`]).
pub struct RowSetScan<'a> {
    shard: usize,
    start: usize,
    store: &'a RowStore,
    rows: &'a [u32],
}

impl<'a> RowSetScan<'a> {
    /// Index of this shard within the store.
    pub fn shard_id(&self) -> usize {
        self.shard
    }

    /// Number of selected rows in this shard.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows of this shard are selected.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterates `(global row id, decoded record)` over the selected rows.
    pub fn records(&self) -> impl Iterator<Item = (usize, Result<Record>)> + 'a {
        let (start, store) = (self.start, self.store);
        self.rows.iter().map(move |&g| (g as usize, store.get(g as usize - start)))
    }

    /// Iterates `(global row id, zero-copy view)` over the selected rows.
    pub fn views(&self) -> impl Iterator<Item = (usize, Result<RowView<'a>>)> + 'a {
        let (start, store) = (self.start, self.store);
        self.rows.iter().map(move |&g| (g as usize, store.view(g as usize - start)))
    }
}

/// An immutable, sealed dataset: N row-store shards balanced by encoded
/// bytes, per-shard checksums, and a seal-time [`StoreIndex`]. See the
/// module docs for the design.
#[derive(Debug, Clone)]
pub struct ShardedStore {
    schema: Schema,
    shards: Vec<RowStore>,
    /// `starts[s]..starts[s + 1]` are the global row ids of shard `s`.
    starts: Vec<usize>,
    checksums: Vec<u64>,
    index: StoreIndex,
    scan_workers: usize,
}

impl ShardedStore {
    /// The default shard/worker count: one per available core, with a
    /// floor of two so the sharded structure is always exercised.
    pub fn default_shards() -> usize {
        std::thread::available_parallelism().map_or(2, |n| n.get().max(2))
    }

    /// Builds a sealed store from the paper's two-file engineer contract:
    /// a schema JSON file and a JSON-lines data file. The data file is
    /// streamed line by line into shard blobs via
    /// [`ShardedStoreBuilder::ingest_jsonl`] — records are validated as
    /// they stream and never materialized as an eager `Vec<Record>`.
    /// Errors are precise: schema problems name the schema file, data
    /// problems carry `<data file>: line N`.
    pub fn from_files(schema_path: impl AsRef<Path>, data_path: impl AsRef<Path>) -> Result<Self> {
        let schema = Schema::from_json_file(schema_path)?;
        let data_path = data_path.as_ref();
        let file = std::fs::File::open(data_path).map_err(|e| {
            StoreError::Io(std::io::Error::new(e.kind(), format!("{}: {e}", data_path.display())))
        })?;
        let mut builder = ShardedStoreBuilder::new(schema);
        builder.ingest_jsonl(file).map_err(|e| match e {
            StoreError::Validation(msg) => {
                StoreError::Validation(format!("{}: {msg}", data_path.display()))
            }
            StoreError::Io(e) => StoreError::Io(std::io::Error::new(
                e.kind(),
                format!("{}: {e}", data_path.display()),
            )),
            other => other,
        })?;
        Ok(builder.seal())
    }

    /// Seals a slice of records into `n_shards` contiguous shards balanced
    /// by estimated encoded bytes. Records are assumed already validated
    /// against `schema` (a [`Dataset`] validates on entry).
    pub fn from_records(schema: Schema, records: &[Record], n_shards: usize) -> Self {
        let n_shards = n_shards.clamp(1, records.len().max(1));
        // Contiguous byte-balanced boundaries: cut when the running
        // estimate passes the next multiple of total/n.
        let sizes: Vec<usize> = records.iter().map(approx_record_bytes).collect();
        let total: usize = sizes.iter().sum();
        let mut bounds = vec![0usize];
        let mut running = 0usize;
        for (i, &sz) in sizes.iter().enumerate() {
            running += sz;
            let wanted = bounds.len(); // shards cut so far + 1
            if wanted < n_shards && running * n_shards >= wanted * total.max(1) {
                bounds.push(i + 1);
            }
        }
        bounds.push(records.len());
        bounds.dedup();
        if bounds.len() < 2 {
            bounds = vec![0, records.len()]; // empty input: one empty shard
        }

        // Encode shards in parallel; each one owns one contiguous range.
        let ranges: Vec<&[Record]> = bounds.windows(2).map(|w| &records[w[0]..w[1]]).collect();
        let shards = par_map(Self::default_shards(), ranges, RowStore::build);
        Self::assemble(schema, shards, StoreIndex::from_records(records))
    }

    /// Seals shards and an index into a store. Each shard's checksum is
    /// the one it recorded when its bytes were built or read, so no row
    /// byte is hashed here.
    pub(crate) fn assemble(schema: Schema, shards: Vec<RowStore>, index: StoreIndex) -> Self {
        let mut starts = Vec::with_capacity(shards.len() + 1);
        starts.push(0usize);
        for shard in &shards {
            starts.push(starts.last().unwrap() + shard.len());
        }
        let checksums = shards.iter().map(RowStore::blob_checksum).collect();
        Self { schema, shards, starts, checksums, index, scan_workers: Self::default_shards() }
    }

    /// Builds the merged read view a live-store snapshot hands out: this
    /// store's shards followed by `extras` segments appended in order, with
    /// each extra's index merged in at the right row offset. Shard blobs
    /// are `Bytes` that carry their recorded checksums, so the merge clones
    /// refcounts and merges index data; it neither copies nor hashes rows.
    pub(crate) fn with_extra_segments<'a>(
        &self,
        extras: impl Iterator<Item = (&'a RowStore, &'a StoreIndex)>,
    ) -> Self {
        let mut shards = self.shards.clone();
        let mut index = self.index.clone();
        let mut offset = self.len();
        for (segment, segment_index) in extras {
            index.merge_shifted(segment_index, offset as u32);
            offset += segment.len();
            shards.push(segment.clone());
        }
        index.num_rows = offset;
        Self::assemble(self.schema.clone(), shards, index)
    }

    /// Overrides how many worker threads [`par_scan`](Self::par_scan) and
    /// friends use (defaults to the available parallelism).
    pub fn with_scan_workers(mut self, workers: usize) -> Self {
        self.scan_workers = workers.max(1);
        self
    }

    /// The configured scan worker count. Consumers that fan out derived
    /// work (e.g. per-task combiner runs) should respect this too.
    pub fn scan_workers(&self) -> usize {
        self.scan_workers
    }

    /// The schema the rows conform to.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The seal-time tag/slice/source index.
    pub fn index(&self) -> &StoreIndex {
        &self.index
    }

    /// Total rows across all shards.
    pub fn len(&self) -> usize {
        *self.starts.last().unwrap()
    }

    /// True when the store holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// One shard.
    pub fn shard(&self, s: usize) -> &RowStore {
        &self.shards[s]
    }

    /// Per-shard blob checksums recorded at seal time.
    pub fn shard_checksums(&self) -> &[u64] {
        &self.checksums
    }

    /// Total encoded bytes across shards.
    pub fn total_bytes(&self) -> usize {
        self.shards.iter().map(RowStore::blob_len).sum()
    }

    /// Maps a global row id to `(shard, row-within-shard)`.
    pub fn shard_of(&self, row: usize) -> Option<(usize, usize)> {
        if row >= self.len() {
            return None;
        }
        let s = self.starts.partition_point(|&start| start <= row) - 1;
        Some((s, row - self.starts[s]))
    }

    /// Decodes one row by global id.
    pub fn get(&self, row: usize) -> Result<Record> {
        let (s, local) = self
            .shard_of(row)
            .ok_or_else(|| StoreError::Corrupt(format!("row {row} out of {}", self.len())))?;
        self.shards[s].get(local)
    }

    /// Zero-copy view of one row by global id.
    pub fn view(&self, row: usize) -> Result<RowView<'_>> {
        let (s, local) = self
            .shard_of(row)
            .ok_or_else(|| StoreError::Corrupt(format!("row {row} out of {}", self.len())))?;
        self.shards[s].view(local)
    }

    /// Sequentially iterates all rows in global order, decoding each.
    pub fn scan(&self) -> impl Iterator<Item = Result<Record>> + '_ {
        self.shards.iter().flat_map(|s| s.scan())
    }

    /// Fans the shards out over scoped worker threads. Each worker calls
    /// `f` on whole shards and the per-shard results come back **in shard
    /// order**, so merging them sequentially reproduces the global row
    /// order — parallel scans stay deterministic regardless of thread
    /// scheduling. With one worker (or one shard) the scan runs inline.
    pub fn par_scan<T, F>(&self, f: F) -> Result<Vec<T>>
    where
        T: Send,
        F: Fn(ShardScan<'_>) -> Result<T> + Sync,
    {
        let scans: Vec<ShardScan<'_>> = (0..self.shards.len())
            .map(|s| ShardScan { shard: s, start: self.starts[s], store: &self.shards[s] })
            .collect();
        par_map(self.scan_workers, scans, f).into_iter().collect()
    }

    /// Like [`par_scan`](Self::par_scan) but over a **sorted** set of
    /// global row ids: rows are partitioned by shard boundary and only the
    /// shards that own selected rows are visited.
    pub fn par_scan_rows<T, F>(&self, rows: &[u32], f: F) -> Result<Vec<T>>
    where
        T: Send,
        F: Fn(RowSetScan<'_>) -> Result<T> + Sync,
    {
        debug_assert!(rows.windows(2).all(|w| w[0] < w[1]), "row set must be sorted");
        let mut scans = Vec::new();
        for s in 0..self.shards.len() {
            let lo = rows.partition_point(|&r| (r as usize) < self.starts[s]);
            let hi = rows.partition_point(|&r| (r as usize) < self.starts[s + 1]);
            if lo < hi {
                scans.push(RowSetScan {
                    shard: s,
                    start: self.starts[s],
                    store: &self.shards[s],
                    rows: &rows[lo..hi],
                });
            }
        }
        par_map(self.scan_workers, scans, f).into_iter().collect()
    }

    /// Decodes the whole store back into an eager [`Dataset`] (the
    /// editable builder view). Rows were validated when they entered the
    /// store, so they are not re-validated here.
    pub fn dataset_view(&self) -> Result<Dataset> {
        let mut dataset = Dataset::new(self.schema.clone());
        for record in self.scan() {
            dataset.push_unchecked(record?);
        }
        Ok(dataset)
    }

    /// Re-hashes every shard's bytes in memory against the checksum
    /// recorded when they were built or read. With
    /// [`LiveStore::verify`](crate::live::LiveStore::verify) this is the
    /// only place a sealed store's rows are hashed a second time.
    pub fn verify(&self) -> Result<()> {
        for (s, shard) in self.shards.iter().enumerate() {
            shard
                .verify()
                .map_err(|_| StoreError::Corrupt(format!("shard {s} checksum mismatch")))?;
        }
        Ok(())
    }

    /// The canonical string the manifest's self-checksum covers: the
    /// fields that determine what `read_dir` will load.
    pub(crate) fn manifest_core(
        shards: usize,
        schema_checksum: u64,
        shard_checksums: &[u64],
    ) -> String {
        let list = shard_checksums.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
        format!("1|{shards}|{schema_checksum}|{list}")
    }

    /// Writes the store as a directory: `schema.json`, `manifest.json`,
    /// and one `shard-NNNN.ovrs` file per shard (each in the checksummed
    /// [`RowStore`] file format). The manifest records the schema and
    /// per-shard checksums plus a checksum of its own fields, so
    /// corruption of *any* file — shards, schema, or the manifest itself —
    /// surfaces as [`StoreError::Corrupt`] on read.
    pub fn write_dir(&self, dir: impl AsRef<Path>) -> Result<()> {
        use crate::rowstore::varint::fnv1a;
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let schema_json = self.schema.to_json();
        let schema_checksum = fnv1a(schema_json.as_bytes());
        std::fs::write(dir.join("schema.json"), schema_json)?;
        let core = Self::manifest_core(self.shards.len(), schema_checksum, &self.checksums);
        let shard_list =
            self.checksums.iter().map(|c| format!("\"{c}\"")).collect::<Vec<_>>().join(", ");
        let manifest = format!(
            "{{\"version\": 1, \"shards\": {}, \"schema_checksum\": \"{schema_checksum}\", \
             \"shard_checksums\": [{shard_list}], \"manifest_checksum\": \"{}\"}}\n",
            self.shards.len(),
            fnv1a(core.as_bytes()),
        );
        std::fs::write(dir.join("manifest.json"), manifest)?;
        for (s, shard) in self.shards.iter().enumerate() {
            shard.write_file(dir.join(format!("shard-{s:04}.ovrs")))?;
        }
        Ok(())
    }

    /// Reads a store written by [`write_dir`](Self::write_dir), verifying
    /// the manifest self-checksum, the schema checksum, and every shard
    /// against both its own file checksum and the manifest, then
    /// rebuilding the index from the rows.
    pub fn read_dir(dir: impl AsRef<Path>) -> Result<Self> {
        use crate::rowstore::varint::fnv1a;
        let dir = dir.as_ref();
        let corrupt = |what: &str| StoreError::Corrupt(format!("manifest: {what}"));
        let schema_json = std::fs::read_to_string(dir.join("schema.json"))?;
        let manifest = std::fs::read_to_string(dir.join("manifest.json"))?;
        let serde_json::Value::Object(map) = serde_json::from_str_value(&manifest)? else {
            return Err(corrupt("not an object"));
        };
        let parse_u64 = |v: Option<&serde_json::Value>| -> Option<u64> {
            v.and_then(|v| v.as_str()).and_then(|s| s.parse().ok())
        };
        let n = map
            .get("shards")
            .and_then(|v| v.as_i64())
            .filter(|&n| n >= 0)
            .ok_or_else(|| corrupt("missing shard count"))? as usize;
        let schema_checksum = parse_u64(map.get("schema_checksum"))
            .ok_or_else(|| corrupt("missing schema checksum"))?;
        let manifest_checksum = parse_u64(map.get("manifest_checksum"))
            .ok_or_else(|| corrupt("missing self-checksum"))?;
        let shard_checksums: Vec<u64> = match map.get("shard_checksums") {
            Some(serde_json::Value::Array(items)) => items
                .iter()
                .map(|v| v.as_str().and_then(|s| s.parse().ok()))
                .collect::<Option<_>>()
                .ok_or_else(|| corrupt("malformed shard checksum"))?,
            _ => return Err(corrupt("missing shard checksums")),
        };
        if shard_checksums.len() != n {
            return Err(corrupt("shard count disagrees with checksum list"));
        }
        let core = Self::manifest_core(n, schema_checksum, &shard_checksums);
        if fnv1a(core.as_bytes()) != manifest_checksum {
            return Err(corrupt("self-checksum mismatch"));
        }
        if fnv1a(schema_json.as_bytes()) != schema_checksum {
            return Err(StoreError::Corrupt("schema.json does not match the manifest".into()));
        }
        let schema = Schema::from_json(&schema_json)?;
        // The count is now authenticated, but still cap the pre-allocation.
        let mut shards = Vec::with_capacity(n.min(1024));
        for (s, &expect) in shard_checksums.iter().enumerate() {
            let path = dir.join(format!("shard-{s:04}.ovrs"));
            // Shard-file problems must name the offending path precisely:
            // a file missing mid-sequence and a segment written in a
            // different format version are distinct operator mistakes, not
            // generic corruption.
            let shard = RowStore::read_file(&path).map_err(|e| match e {
                StoreError::Io(io) if io.kind() == std::io::ErrorKind::NotFound => {
                    StoreError::Corrupt(format!(
                        "{}: shard file {s} of {n} is missing",
                        path.display()
                    ))
                }
                StoreError::Io(io) => StoreError::Io(std::io::Error::new(
                    io.kind(),
                    format!("{}: {io}", path.display()),
                )),
                StoreError::Corrupt(msg) => {
                    StoreError::Corrupt(format!("{}: {msg}", path.display()))
                }
                other => other,
            })?;
            if shard.blob_checksum() != expect {
                return Err(StoreError::Corrupt(format!(
                    "{}: shard {s} does not match the manifest",
                    path.display()
                )));
            }
            shards.push(shard);
        }
        if dir.join(format!("shard-{n:04}.ovrs")).exists() {
            return Err(StoreError::Corrupt("unexpected extra shard file".into()));
        }
        let mut index = StoreIndex::default();
        let mut row = 0u32;
        for shard in &shards {
            for view in shard.scan_views() {
                index.note_view(row, &view?);
                row += 1;
            }
        }
        index.num_rows = row as usize;
        Ok(Self::assemble(schema, shards, index))
    }
}

/// Streams records straight into shard blobs: each pushed record is
/// encoded immediately (no intermediate `Vec<Record>`), the index is
/// maintained incrementally, and a new shard starts whenever the current
/// blob passes the target size. This is how bulk producers (the workload
/// generator, log ingest) write the store directly.
#[derive(Debug)]
pub struct ShardedStoreBuilder {
    schema: Schema,
    shard_bytes: usize,
    done: Vec<RowStore>,
    blob: Vec<u8>,
    offsets: Vec<u64>,
    index: StoreIndex,
    rows: usize,
}

impl ShardedStoreBuilder {
    /// A builder targeting [`DEFAULT_SHARD_BYTES`] per shard.
    pub fn new(schema: Schema) -> Self {
        Self::with_shard_bytes(schema, DEFAULT_SHARD_BYTES)
    }

    /// A builder that rotates to a new shard once the current blob reaches
    /// `shard_bytes`.
    pub fn with_shard_bytes(schema: Schema, shard_bytes: usize) -> Self {
        Self {
            schema,
            shard_bytes: shard_bytes.max(1),
            done: Vec::new(),
            blob: Vec::new(),
            offsets: vec![0],
            index: StoreIndex::default(),
            rows: 0,
        }
    }

    /// Rows appended so far.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Validates, normalizes and appends a record.
    pub fn push(&mut self, mut record: Record) -> Result<()> {
        record.normalize_labels(&self.schema);
        record.validate(&self.schema)?;
        self.push_unchecked(&record);
        Ok(())
    }

    /// Streams a JSON-lines reader straight into the shard blobs: each
    /// line is parsed, normalized and validated, then encoded into the
    /// current shard — no intermediate `Vec<Record>` is ever built. Blank
    /// lines are skipped; errors carry the 1-based line number (a
    /// truncated line, an unknown task, a payload/kind mismatch each
    /// surface as a precise [`StoreError`], never a panic). Returns how
    /// many records were ingested.
    pub fn ingest_jsonl(&mut self, reader: impl std::io::Read) -> Result<usize> {
        for_each_jsonl_record(reader, |record| self.push(record))
    }

    /// Appends a record without validation (for trusted generators).
    pub fn push_unchecked(&mut self, record: &Record) {
        encode_record(record, &mut self.blob);
        self.offsets.push(self.blob.len() as u64);
        self.index.note_record(self.rows as u32, record);
        self.rows += 1;
        if self.blob.len() >= self.shard_bytes {
            self.rotate();
        }
    }

    fn rotate(&mut self) {
        let blob = std::mem::take(&mut self.blob);
        let offsets = std::mem::replace(&mut self.offsets, vec![0]);
        self.done.push(RowStore::from_raw_parts(blob, offsets));
    }

    /// Finishes the current shard and seals the store.
    pub fn seal(mut self) -> ShardedStore {
        if self.offsets.len() > 1 || self.done.is_empty() {
            self.rotate();
        }
        self.index.num_rows = self.rows;
        ShardedStore::assemble(self.schema, self.done, self.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{PayloadValue, TaskLabel};
    use crate::schema::example_schema;

    fn records(n: usize) -> Vec<Record> {
        (0..n)
            .map(|i| {
                let r = Record::new()
                    .with_payload("query", PayloadValue::Singleton(format!("query number {i}")))
                    .with_label(
                        "Intent",
                        if i % 2 == 0 { "weak1" } else { "weak2" },
                        TaskLabel::MulticlassOne(if i % 2 == 0 { "Age" } else { "Height" }.into()),
                    )
                    .with_tag(if i % 10 == 0 { "test" } else { "train" });
                if i % 5 == 0 {
                    r.with_slice("hard")
                } else {
                    r
                }
            })
            .collect()
    }

    fn store(n: usize, shards: usize) -> ShardedStore {
        ShardedStore::from_records(example_schema(), &records(n), shards)
    }

    #[test]
    fn shards_are_contiguous_and_balanced() {
        let s = store(100, 4);
        assert_eq!(s.num_shards(), 4);
        assert_eq!(s.len(), 100);
        for shard in 0..4 {
            assert!(s.shard(shard).len() >= 15, "shard {shard}: {}", s.shard(shard).len());
        }
        // Global order is preserved across shard boundaries.
        let rs = records(100);
        for (i, r) in rs.iter().enumerate() {
            assert_eq!(&s.get(i).unwrap(), r);
            assert_eq!(&s.view(i).unwrap().to_record(), r);
        }
        assert!(s.get(100).is_err());
        assert_eq!(s.shard_checksums().len(), 4);
        s.verify().unwrap();
    }

    #[test]
    fn index_answers_tag_and_source_queries() {
        let s = store(50, 3);
        let idx = s.index();
        assert_eq!(idx.num_rows(), 50);
        assert_eq!(idx.test_rows(), &[0, 10, 20, 30, 40]);
        assert_eq!(idx.train_rows().len(), 45);
        assert_eq!(idx.slice_rows("hard"), &[0, 5, 10, 15, 20, 25, 30, 35, 40, 45]);
        assert_eq!(idx.slice_names(), vec!["hard".to_string()]);
        assert_eq!(idx.sources_for_task("Intent"), vec!["weak1".to_string(), "weak2".into()]);
        assert!(idx.sources_for_task("POS").is_empty());
        assert_eq!(idx.supervised_tasks().collect::<Vec<_>>(), vec!["Intent"]);
    }

    fn csv(index: &StoreIndex) -> String {
        let mut buf = Vec::new();
        index.write_csv(&mut buf).unwrap();
        String::from_utf8(buf).unwrap()
    }

    fn assert_same_index(a: &StoreIndex, b: &StoreIndex, what: &str) {
        assert_eq!(a.num_rows(), b.num_rows(), "{what}");
        assert_eq!(a.tag_names(), b.tag_names(), "{what}");
        for tag in a.tag_names() {
            assert_eq!(a.rows(&tag), b.rows(&tag), "{what}: {tag}");
        }
        assert_eq!(a.slice_names(), b.slice_names(), "{what}");
        for task in example_schema().tasks.keys() {
            assert_eq!(a.sources_for_task(task), b.sources_for_task(task), "{what}: {task}");
        }
        assert_eq!(csv(a), csv(b), "{what}");
    }

    #[test]
    fn every_index_builder_agrees() {
        let mut ds = Dataset::new(example_schema());
        for (i, r) in records(40).into_iter().enumerate() {
            let r = if i == 7 {
                r.with_label("Intent", "gold", TaskLabel::MulticlassOne("Age".into()))
            } else {
                r
            };
            ds.push(r).unwrap();
        }
        let dir = std::env::temp_dir().join(format!("overton-index-agree-{}", std::process::id()));
        for n in [1, 3, 7] {
            let sealed = ds.seal_shards(n);
            assert_same_index(ds.index(), sealed.index(), &format!("seal_shards({n})"));
            let shard_dir = dir.join(n.to_string());
            sealed.write_dir(&shard_dir).unwrap();
            let back = ShardedStore::read_dir(&shard_dir).unwrap();
            assert_same_index(ds.index(), back.index(), &format!("read_dir of {n} shards"));
        }
        std::fs::remove_dir_all(&dir).ok();

        // The cached index is rebuilt after each kind of mutation.
        ds.push(Record::new().with_tag("dev").with_slice("late")).unwrap();
        assert_eq!(ds.index().num_rows(), 41);
        assert_same_index(ds.index(), ds.seal_shards(3).index(), "after push");
        ds.get_mut(2).unwrap().tags.insert("slice:late".into());
        assert_eq!(ds.index().slice_rows("late"), &[2, 40]);
        assert_same_index(ds.index(), ds.seal_shards(3).index(), "after get_mut");
    }

    fn three_rows() -> Dataset {
        let mut ds = Dataset::new(example_schema());
        let mk = |i: usize| {
            Record::new().with_payload("query", PayloadValue::Singleton(format!("q{i}")))
        };
        ds.push(mk(0).with_tag("train").with_slice("hard")).unwrap();
        ds.push(mk(1).with_tag("train")).unwrap();
        ds.push(mk(2).with_tag("test").with_slice("hard")).unwrap();
        ds
    }

    #[test]
    fn counts_and_rows() {
        let ds = three_rows();
        let idx = ds.index();
        assert_eq!(idx.count("train"), 2);
        assert_eq!(idx.rows("train"), &[0, 1]);
        assert_eq!(idx.rows("slice:hard"), &[0, 2]);
        assert_eq!(idx.count("missing"), 0);
        assert!(idx.rows("missing").is_empty());
    }

    #[test]
    fn csv_shape() {
        let text = csv(three_rows().index());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4); // header + 3 rows
        assert_eq!(lines[0], "row,slice:hard,test,train");
        assert_eq!(lines[1], "0,1,0,1");
        assert_eq!(lines[3], "2,1,1,0");
    }

    #[test]
    fn csv_escaping() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("q\"x"), "\"q\"\"x\"");
    }

    #[test]
    fn par_scan_merges_in_shard_order() {
        for workers in [1, 3] {
            let s = store(60, 5).with_scan_workers(workers);
            let partials = s
                .par_scan(|scan| {
                    let mut rows = Vec::new();
                    for (row, view) in scan.views() {
                        let view = view?;
                        if view.has_tag("train") {
                            rows.push(row);
                        }
                    }
                    Ok(rows)
                })
                .unwrap();
            assert_eq!(partials.len(), 5);
            let all: Vec<usize> = partials.into_iter().flatten().collect();
            let expect: Vec<usize> = (0..60).filter(|i| i % 10 != 0).collect();
            assert_eq!(all, expect, "workers={workers}");
        }
    }

    #[test]
    fn par_scan_rows_visits_only_selected() {
        let s = store(40, 4).with_scan_workers(2);
        let rows: Vec<u32> = s.index().test_rows().to_vec();
        let partials = s
            .par_scan_rows(&rows, |scan| {
                Ok(scan.records().map(|(g, r)| (g, r.unwrap())).collect::<Vec<_>>())
            })
            .unwrap();
        let seen: Vec<usize> = partials.iter().flatten().map(|(g, _)| *g).collect();
        assert_eq!(seen, vec![0, 10, 20, 30]);
        for (g, r) in partials.into_iter().flatten() {
            assert!(r.has_tag("test"), "row {g}");
        }
    }

    #[test]
    fn dataset_view_roundtrips() {
        let s = store(30, 3);
        let ds = s.dataset_view().unwrap();
        assert_eq!(ds.records(), &records(30)[..]);
    }

    #[test]
    fn builder_streams_and_matches_from_records() {
        let rs = records(80);
        let mut b = ShardedStoreBuilder::with_shard_bytes(example_schema(), 512);
        for r in &rs {
            b.push_unchecked(r);
        }
        let s = b.seal();
        assert!(s.num_shards() > 1, "target bytes should split shards");
        assert_eq!(s.len(), 80);
        for (i, r) in rs.iter().enumerate() {
            assert_eq!(&s.get(i).unwrap(), r);
        }
        assert_eq!(s.index().train_rows().len(), 72);
        s.verify().unwrap();
    }

    #[test]
    fn builder_validates_on_push() {
        let mut b = ShardedStoreBuilder::new(example_schema());
        let bad =
            Record::new().with_label("Intent", "w", TaskLabel::MulticlassOne("NotAClass".into()));
        assert!(b.push(bad).is_err());
        assert!(b.is_empty());
        b.push(records(1).pop().unwrap()).unwrap();
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn empty_store_is_one_empty_shard() {
        let s = store(0, 4);
        assert!(s.is_empty());
        assert_eq!(s.num_shards(), 1);
        assert_eq!(s.scan().count(), 0);
        assert!(s.par_scan(|scan| Ok(scan.len())).unwrap().iter().sum::<usize>() == 0);
        let b = ShardedStoreBuilder::new(example_schema());
        assert_eq!(b.seal().len(), 0);
    }

    #[test]
    fn ingest_jsonl_streams_and_validates() {
        let rs = records(20);
        let jsonl: String = rs.iter().map(|r| format!("{}\n", r.to_json())).collect();
        let mut b = ShardedStoreBuilder::with_shard_bytes(example_schema(), 256);
        assert_eq!(b.ingest_jsonl(jsonl.as_bytes()).unwrap(), 20);
        let s = b.seal();
        assert_eq!(s.dataset_view().unwrap().records(), &rs[..]);

        // A malformed line surfaces with its line number.
        let mut b = ShardedStoreBuilder::new(example_schema());
        let bad = format!("{}\n{{\"payloads\": {{\"query\"\n", rs[0].to_json());
        let err = b.ingest_jsonl(bad.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn from_files_matches_eager_seal() {
        let rs = records(30);
        let dir = std::env::temp_dir().join(format!("overton-two-file-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("schema.json"), example_schema().to_json()).unwrap();
        let jsonl: String = rs.iter().map(|r| format!("{}\n", r.to_json())).collect();
        std::fs::write(dir.join("data.jsonl"), jsonl).unwrap();
        let s = ShardedStore::from_files(dir.join("schema.json"), dir.join("data.jsonl")).unwrap();
        assert_eq!(s.len(), 30);
        assert_eq!(s.dataset_view().unwrap().records(), &rs[..]);
        assert_eq!(s.index().train_rows(), store(30, 2).index().train_rows());

        // Data errors name the file and the line.
        std::fs::write(dir.join("data.jsonl"), "{\"tasks\": {\"Nope\": {\"w\": 1}}}\n").unwrap();
        let err =
            ShardedStore::from_files(dir.join("schema.json"), dir.join("data.jsonl")).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("data.jsonl") && msg.contains("line 1"), "{msg}");
        assert!(msg.contains("unknown task"), "{msg}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dir_roundtrip_and_corruption() {
        let s = store(25, 3);
        let dir = std::env::temp_dir().join(format!("overton-sharded-{}", std::process::id()));
        s.write_dir(&dir).unwrap();
        let back = ShardedStore::read_dir(&dir).unwrap();
        assert_eq!(back.len(), 25);
        assert_eq!(back.shard_checksums(), s.shard_checksums());
        assert_eq!(back.index().train_rows(), s.index().train_rows());
        assert_eq!(back.dataset_view().unwrap().records(), s.dataset_view().unwrap().records());

        // Flip one byte in a shard file: reading must surface Corrupt.
        let path = dir.join("shard-0001.ovrs");
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, bytes).unwrap();
        let err = ShardedStore::read_dir(&dir).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_shard_mid_sequence_names_the_path() {
        let s = store(40, 3);
        let dir =
            std::env::temp_dir().join(format!("overton-missing-shard-{}", std::process::id()));
        s.write_dir(&dir).unwrap();
        std::fs::remove_file(dir.join("shard-0001.ovrs")).unwrap();
        let err = ShardedStore::read_dir(&dir).unwrap_err();
        let msg = err.to_string();
        assert!(matches!(err, StoreError::Corrupt(_)), "{err}");
        assert!(msg.contains("shard-0001.ovrs"), "must name the missing file: {msg}");
        assert!(msg.contains("missing"), "{msg}");
        assert!(msg.contains("1 of 3"), "must say where in the sequence: {msg}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mixed_shard_format_versions_name_the_path() {
        let s = store(40, 3);
        let dir = std::env::temp_dir().join(format!("overton-mixed-ver-{}", std::process::id()));
        s.write_dir(&dir).unwrap();
        // Rewrite one shard's header as format version 1: the version
        // check fires before the checksum check, so the error is about the
        // version — and it must say which file is the odd one out.
        let path = dir.join("shard-0002.ovrs");
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&path, bytes).unwrap();
        let err = ShardedStore::read_dir(&dir).unwrap_err();
        let msg = err.to_string();
        assert!(matches!(err, StoreError::Corrupt(_)), "{err}");
        assert!(msg.contains("shard-0002.ovrs"), "must name the offending file: {msg}");
        assert!(msg.contains("unsupported version 1"), "{msg}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merge_shifted_appends_sorted_rows_and_sources() {
        let a = store(20, 2);
        let b = store(10, 1);
        let mut merged = a.index().clone();
        merged.merge_shifted(b.index(), 20);
        assert_eq!(merged.num_rows(), 30);
        assert_eq!(merged.test_rows(), &[0, 10, 20]);
        assert_eq!(merged.slice_rows("hard"), &[0, 5, 10, 15, 20, 25]);
        assert!(merged.rows(TAG_TRAIN).windows(2).all(|w| w[0] < w[1]));
        assert_eq!(merged.sources_for_task("Intent"), vec!["weak1".to_string(), "weak2".into()]);
    }

    #[test]
    fn corrupt_manifest_or_schema_errors() {
        let s = store(5, 2);
        let dir = std::env::temp_dir().join(format!("overton-manifest-{}", std::process::id()));
        s.write_dir(&dir).unwrap();
        let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
        let schema_json = std::fs::read_to_string(dir.join("schema.json")).unwrap();

        // An absurd shard count must error, not abort on allocation.
        std::fs::write(
            dir.join("manifest.json"),
            "{\"version\": 1, \"shards\": 9000000000000000000}\n",
        )
        .unwrap();
        assert!(ShardedStore::read_dir(&dir).is_err());

        // A single corrupted digit in the shard count: the manifest
        // self-checksum catches it.
        std::fs::write(
            dir.join("manifest.json"),
            manifest.replace("\"shards\": 2", "\"shards\": 1"),
        )
        .unwrap();
        let err = ShardedStore::read_dir(&dir).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "{err}");
        std::fs::write(dir.join("manifest.json"), &manifest).unwrap();
        ShardedStore::read_dir(&dir).unwrap();

        // A flipped byte inside schema.json: caught by its checksum.
        let mut bytes = schema_json.into_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(dir.join("schema.json"), bytes).unwrap();
        let err = ShardedStore::read_dir(&dir).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "{err}");

        std::fs::remove_dir_all(&dir).ok();
    }
}
