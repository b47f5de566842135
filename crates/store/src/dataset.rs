//! A schema plus its records: the "data file" an engineer edits.
//!
//! The paper's interface is deliberately file-shaped: the data file is
//! JSON-lines so it stays human-readable and greppable (`jq`-able). All
//! quality work — adding labeling functions, correcting labels, defining
//! slices — happens by editing this file, never model code.

use crate::error::Result;
use crate::record::{for_each_jsonl_record, Record};
use crate::rowstore::{ShardedStore, StoreIndex};
use crate::schema::Schema;
use std::io::{BufWriter, Read, Write};
use std::path::Path;
use std::sync::OnceLock;

/// An in-memory dataset: a [`Schema`] and the [`Record`]s conforming to it.
///
/// This is the *editable builder* side of the data layer: records are
/// validated as they enter, and engineers refine labels in place. Tag,
/// slice and source queries are answered from a cached [`StoreIndex`] —
/// the same index a sealed store builds — that is invalidated on mutation,
/// so repeated `tagged()`/`in_slice()` calls cost an index lookup instead
/// of a full scan. For the scan-heavy build loop,
/// [`Dataset::seal`] freezes the records into a [`ShardedStore`].
#[derive(Debug, Clone)]
pub struct Dataset {
    schema: Schema,
    records: Vec<Record>,
    index: OnceLock<StoreIndex>,
}

impl Dataset {
    /// Creates an empty dataset over a schema.
    pub fn new(schema: Schema) -> Self {
        Self { schema, records: Vec::new(), index: OnceLock::new() }
    }

    /// The tag/slice/source index over the current records, built on first
    /// use after a mutation (the Pandas export is
    /// [`StoreIndex::write_csv`]).
    pub fn index(&self) -> &StoreIndex {
        self.index.get_or_init(|| StoreIndex::from_records(&self.records))
    }

    /// Seals the dataset into a [`ShardedStore`] with one shard per
    /// available core (at least two).
    pub fn seal(&self) -> ShardedStore {
        self.seal_shards(ShardedStore::default_shards())
    }

    /// Seals the dataset into a [`ShardedStore`] with (up to) `n_shards`
    /// byte-balanced shards.
    pub fn seal_shards(&self, n_shards: usize) -> ShardedStore {
        ShardedStore::from_records(self.schema.clone(), &self.records, n_shards)
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// All records.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the dataset holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Validates, normalizes and appends a record.
    pub fn push(&mut self, mut record: Record) -> Result<()> {
        record.normalize_labels(&self.schema);
        record.validate(&self.schema)?;
        self.push_unchecked(record);
        Ok(())
    }

    /// Appends a record without validation (for trusted generators).
    pub fn push_unchecked(&mut self, record: Record) {
        self.index.take();
        self.records.push(record);
    }

    /// Record by index.
    pub fn get(&self, idx: usize) -> Option<&Record> {
        self.records.get(idx)
    }

    /// Mutable record access (engineers "refine labels in that slice").
    /// Invalidates the cached query index.
    pub fn get_mut(&mut self, idx: usize) -> Option<&mut Record> {
        self.index.take();
        self.records.get_mut(idx)
    }

    /// Indices of records carrying `tag` (a cached-index lookup).
    pub fn tagged(&self, tag: &str) -> Vec<usize> {
        as_indices(self.index().rows(tag))
    }

    /// Indices of records in the named slice (a cached-index lookup).
    pub fn in_slice(&self, slice: &str) -> Vec<usize> {
        as_indices(self.index().slice_rows(slice))
    }

    /// All slice names present in the data, sorted.
    pub fn slice_names(&self) -> Vec<String> {
        self.index().slice_names()
    }

    /// Indices of the train split.
    pub fn train_indices(&self) -> Vec<usize> {
        as_indices(self.index().train_rows())
    }

    /// Indices of the dev split.
    pub fn dev_indices(&self) -> Vec<usize> {
        as_indices(self.index().dev_rows())
    }

    /// Indices of the test split.
    pub fn test_indices(&self) -> Vec<usize> {
        as_indices(self.index().test_rows())
    }

    /// Names of all supervision sources appearing for `task`, sorted,
    /// excluding gold (a cached-index lookup).
    pub fn sources_for_task(&self, task: &str) -> Vec<String> {
        self.index().sources_for_task(task)
    }

    /// Reads a dataset from a JSON-lines reader (one record per line; blank
    /// lines are skipped). Every record is normalized and validated.
    pub fn from_jsonl_reader(schema: Schema, reader: impl Read) -> Result<Self> {
        let mut ds = Dataset::new(schema);
        for_each_jsonl_record(reader, |record| ds.push(record))?;
        Ok(ds)
    }

    /// Reads a dataset from a JSON-lines file.
    pub fn from_jsonl_file(schema: Schema, path: impl AsRef<Path>) -> Result<Self> {
        let file = std::fs::File::open(path)?;
        Self::from_jsonl_reader(schema, file)
    }

    /// Writes the records as JSON-lines.
    pub fn write_jsonl(&self, writer: impl Write) -> Result<()> {
        let mut w = BufWriter::new(writer);
        for r in &self.records {
            writeln!(w, "{}", r.to_json())?;
        }
        w.flush()?;
        Ok(())
    }

    /// Writes the records to a JSON-lines file.
    pub fn write_jsonl_file(&self, path: impl AsRef<Path>) -> Result<()> {
        let file = std::fs::File::create(path)?;
        self.write_jsonl(file)
    }

    /// Splits off a new dataset containing only the given indices (cloned).
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        Dataset {
            schema: self.schema.clone(),
            records: indices.iter().map(|&i| self.records[i].clone()).collect(),
            index: OnceLock::new(),
        }
    }
}

fn as_indices(rows: &[u32]) -> Vec<usize> {
    rows.iter().map(|&i| i as usize).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::StoreError;
    use crate::record::{PayloadValue, TaskLabel};
    use crate::schema::example_schema;

    fn tiny_dataset() -> Dataset {
        let mut ds = Dataset::new(example_schema());
        for (i, intent) in ["Height", "Age", "Height"].iter().enumerate() {
            let r = Record::new()
                .with_payload("query", PayloadValue::Singleton(format!("query {i}")))
                .with_label("Intent", "weak1", TaskLabel::MulticlassOne(intent.to_string()))
                .with_tag(if i < 2 { "train" } else { "test" });
            ds.push(if i == 0 { r.with_slice("nutrition") } else { r }).unwrap();
        }
        ds
    }

    #[test]
    fn push_validates() {
        let mut ds = Dataset::new(example_schema());
        let bad =
            Record::new().with_label("Intent", "w", TaskLabel::MulticlassOne("NotAClass".into()));
        assert!(ds.push(bad).is_err());
        assert!(ds.is_empty());
    }

    #[test]
    fn splits_and_tags() {
        let ds = tiny_dataset();
        assert_eq!(ds.train_indices(), vec![0, 1]);
        assert_eq!(ds.test_indices(), vec![2]);
        assert_eq!(ds.dev_indices(), Vec::<usize>::new());
        assert_eq!(ds.in_slice("nutrition"), vec![0]);
        assert_eq!(ds.slice_names(), vec!["nutrition".to_string()]);
        assert!(ds.index().tag_names().contains(&"train".to_string()));
    }

    #[test]
    fn jsonl_roundtrip() {
        let ds = tiny_dataset();
        let mut buf = Vec::new();
        ds.write_jsonl(&mut buf).unwrap();
        let back = Dataset::from_jsonl_reader(example_schema(), buf.as_slice()).unwrap();
        assert_eq!(back.len(), ds.len());
        assert_eq!(back.records(), ds.records());
    }

    #[test]
    fn jsonl_reports_line_numbers() {
        let text = "{\"payloads\": {}}\nnot json\n";
        let err = Dataset::from_jsonl_reader(example_schema(), text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn jsonl_read_errors_carry_line_numbers() {
        let text = b"{\"payloads\": {}}\n\xff\n";
        let err = Dataset::from_jsonl_reader(example_schema(), &text[..]).unwrap_err();
        assert!(matches!(err, StoreError::Io(_)), "{err:?}");
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn blank_lines_skipped() {
        let text = "\n{\"payloads\": {}}\n\n";
        let ds = Dataset::from_jsonl_reader(example_schema(), text.as_bytes()).unwrap();
        assert_eq!(ds.len(), 1);
    }

    #[test]
    fn sources_for_task_sorted_unique() {
        let mut ds = tiny_dataset();
        let r = Record::new()
            .with_label("Intent", "weak2", TaskLabel::MulticlassOne("Age".into()))
            .with_label("Intent", "gold", TaskLabel::MulticlassOne("Age".into()));
        ds.push(r).unwrap();
        assert_eq!(ds.sources_for_task("Intent"), vec!["weak1".to_string(), "weak2".to_string()]);
    }

    #[test]
    fn subset_clones_selected() {
        let ds = tiny_dataset();
        let sub = ds.subset(&[2, 0]);
        assert_eq!(sub.len(), 2);
        assert!(sub.records()[0].has_tag("test"));
        assert!(sub.records()[1].in_slice("nutrition"));
    }

    #[test]
    fn cached_index_invalidated_on_push_and_get_mut() {
        let mut ds = tiny_dataset();
        assert_eq!(ds.train_indices(), vec![0, 1]);
        // Push after a query: the new record must show up.
        ds.push(
            Record::new()
                .with_payload("query", PayloadValue::Singleton("late".into()))
                .with_tag("train"),
        )
        .unwrap();
        assert_eq!(ds.train_indices(), vec![0, 1, 3]);
        // Mutation through get_mut invalidates too.
        assert_eq!(ds.in_slice("nutrition"), vec![0]);
        ds.get_mut(1).unwrap().tags.insert("slice:nutrition".into());
        assert_eq!(ds.in_slice("nutrition"), vec![0, 1]);
        assert!(ds.sources_for_task("Intent").contains(&"weak1".to_string()));
        assert_eq!(ds.index().count("train"), 3);
    }

    #[test]
    fn seal_roundtrips_through_sharded_store() {
        let ds = tiny_dataset();
        let store = ds.seal_shards(2);
        assert_eq!(store.len(), ds.len());
        assert_eq!(store.index().train_rows(), &[0, 1]);
        assert_eq!(store.dataset_view().unwrap().records(), ds.records());
        assert_eq!(store.schema(), ds.schema());
    }

    #[test]
    fn file_roundtrip() {
        let ds = tiny_dataset();
        let dir = std::env::temp_dir().join("overton-store-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("data.jsonl");
        ds.write_jsonl_file(&path).unwrap();
        let back = Dataset::from_jsonl_file(example_schema(), &path).unwrap();
        assert_eq!(back.records(), ds.records());
        std::fs::remove_file(path).ok();
    }
}
