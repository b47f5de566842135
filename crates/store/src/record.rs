//! Data records: one JSON object per example (paper §2.2, Figure 2a).
//!
//! A record carries payload values, per-task supervision from many sources
//! (possibly conflicting, possibly missing), and tags. Tags prefixed with
//! `slice:` are slices — subsets the engineer monitors and that receive
//! extra model capacity.

use crate::error::{Result, StoreError};
use crate::schema::{PayloadKind, Schema, TaskKind};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// The reserved source name for curated gold labels (used for dev/test
/// evaluation, never combined by the label model).
pub const GOLD_SOURCE: &str = "gold";

/// Tag marking an example as training data.
pub const TAG_TRAIN: &str = "train";
/// Tag marking an example as development data.
pub const TAG_DEV: &str = "dev";
/// Tag marking an example as test data.
pub const TAG_TEST: &str = "test";
/// Tag marking an example as live serving traffic (not part of any
/// training split; produced by the traffic generator and the serving
/// runtime's shadow/canary logs).
pub const TAG_LIVE: &str = "live";
/// Prefix identifying a tag as a slice.
pub const SLICE_PREFIX: &str = "slice:";

/// A member of a `Set` payload: an external id plus the token span it
/// covers in the payload's `range` sequence (half-open `[start, end)`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SetElement {
    /// External identifier (e.g. a knowledge-base entity id).
    pub id: String,
    /// Half-open token span in the range payload.
    pub span: (usize, usize),
}

/// A payload's value in one record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(untagged)]
pub enum PayloadValue {
    /// Value of a singleton payload (raw text).
    Singleton(String),
    /// Value of a sequence payload (tokens).
    Sequence(Vec<String>),
    /// Value of a set payload (candidates with spans).
    Set(Vec<SetElement>),
}

impl PayloadValue {
    /// Number of elements the payload contributes (1 / seq len / set size).
    pub fn element_count(&self) -> usize {
        match self {
            PayloadValue::Singleton(_) => 1,
            PayloadValue::Sequence(items) => items.len(),
            PayloadValue::Set(items) => items.len(),
        }
    }
}

/// One source's label for one task on one record.
///
/// The granularity must match the task's payload: singleton payloads take
/// the `*One` forms, sequence payloads take the `*Seq` forms (one entry per
/// token), and select tasks take an element index.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(untagged)]
pub enum TaskLabel {
    /// Single class name (multiclass over a singleton payload).
    MulticlassOne(String),
    /// Per-element class names (multiclass over a sequence payload).
    MulticlassSeq(Vec<String>),
    /// Set bits by label name (bitvector over a singleton payload).
    BitvectorOne(Vec<String>),
    /// Per-element set bits (bitvector over a sequence payload).
    BitvectorSeq(Vec<Vec<String>>),
    /// Index of the chosen element (select over a set payload).
    Select(usize),
}

/// A single example conforming to a [`Schema`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Record {
    /// Payload values by payload name. Payloads may be absent (`null` in the
    /// paper's format) — they simply don't contribute.
    #[serde(default)]
    pub payloads: BTreeMap<String, PayloadValue>,
    /// Supervision: task name → source name → label.
    #[serde(default)]
    pub tasks: BTreeMap<String, BTreeMap<String, TaskLabel>>,
    /// Tags (`train`/`dev`/`test`, user tags, and `slice:...` tags).
    #[serde(default)]
    pub tags: BTreeSet<String>,
}

impl Record {
    /// Creates an empty record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a payload value.
    pub fn with_payload(mut self, name: &str, value: PayloadValue) -> Self {
        self.payloads.insert(name.into(), value);
        self
    }

    /// Adds one source's label for a task.
    pub fn with_label(mut self, task: &str, source: &str, label: TaskLabel) -> Self {
        self.tasks.entry(task.into()).or_default().insert(source.into(), label);
        self
    }

    /// Adds a tag.
    pub fn with_tag(mut self, tag: &str) -> Self {
        self.tags.insert(tag.into());
        self
    }

    /// Marks the record as belonging to a slice (adds a `slice:` tag).
    pub fn with_slice(self, slice: &str) -> Self {
        self.with_tag(&format!("{SLICE_PREFIX}{slice}"))
    }

    /// True if the record carries the given tag.
    pub fn has_tag(&self, tag: &str) -> bool {
        self.tags.contains(tag)
    }

    /// True if the record is in the given slice: one of [`Record::slices`].
    pub fn in_slice(&self, slice: &str) -> bool {
        self.slices().any(|s| s == slice)
    }

    /// Names of all slices this record belongs to.
    pub fn slices(&self) -> impl Iterator<Item = &str> {
        self.tags.iter().filter_map(|t| t.strip_prefix(SLICE_PREFIX))
    }

    /// The train/dev/test split this record belongs to, if tagged.
    pub fn split(&self) -> Option<&'static str> {
        if self.has_tag(TAG_TRAIN) {
            Some(TAG_TRAIN)
        } else if self.has_tag(TAG_DEV) {
            Some(TAG_DEV)
        } else if self.has_tag(TAG_TEST) {
            Some(TAG_TEST)
        } else {
            None
        }
    }

    /// The gold label for a task, if present.
    pub fn gold(&self, task: &str) -> Option<&TaskLabel> {
        self.tasks.get(task)?.get(GOLD_SOURCE)
    }

    /// Non-gold supervision sources for a task.
    pub fn weak_sources(&self, task: &str) -> impl Iterator<Item = (&str, &TaskLabel)> {
        self.tasks
            .get(task)
            .into_iter()
            .flat_map(|m| m.iter())
            .filter(|(s, _)| s.as_str() != GOLD_SOURCE)
            .map(|(s, l)| (s.as_str(), l))
    }

    /// Parses one JSON line.
    pub fn from_json(text: &str) -> Result<Self> {
        Ok(serde_json::from_str(text)?)
    }

    /// Serializes to a single JSON line.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("record serialization cannot fail")
    }

    /// Canonicalizes label variants that are ambiguous in JSON.
    ///
    /// `TaskLabel` is an untagged union, so a JSON array of strings parses
    /// as [`TaskLabel::MulticlassSeq`] even when the task is a bitvector
    /// over a singleton payload (where it means "these bits are set"). This
    /// rewrites such labels into their canonical variant using the schema.
    /// Call after parsing and before [`validate`](Self::validate);
    /// [`Dataset`](crate::dataset::Dataset) does this automatically.
    pub fn normalize_labels(&mut self, schema: &Schema) {
        for (task_name, sources) in &mut self.tasks {
            let Some(task) = schema.tasks.get(task_name) else { continue };
            let singleton_payload = matches!(
                schema.payloads.get(&task.payload).map(|p| &p.kind),
                Some(PayloadKind::Singleton)
            );
            if !matches!(task.kind, TaskKind::Bitvector { .. }) || !singleton_payload {
                continue;
            }
            for label in sources.values_mut() {
                match label {
                    TaskLabel::MulticlassSeq(bits) => {
                        *label = TaskLabel::BitvectorOne(std::mem::take(bits));
                    }
                    TaskLabel::MulticlassOne(bit) => {
                        *label = TaskLabel::BitvectorOne(vec![std::mem::take(bit)]);
                    }
                    _ => {}
                }
            }
        }
    }

    /// Validates the record against a schema: payload shapes, label
    /// granularity, label vocabulary membership, span bounds and select
    /// indices.
    pub fn validate(&self, schema: &Schema) -> Result<()> {
        for (name, value) in &self.payloads {
            let def = schema.payloads.get(name).ok_or_else(|| {
                StoreError::Validation(format!("record has unknown payload '{name}'"))
            })?;
            match (&def.kind, value) {
                (PayloadKind::Singleton, PayloadValue::Singleton(_)) => {}
                (PayloadKind::Sequence { max_length }, PayloadValue::Sequence(items)) => {
                    if items.len() > *max_length {
                        return Err(StoreError::Validation(format!(
                            "payload '{name}' has {} items, max_length is {max_length}",
                            items.len()
                        )));
                    }
                }
                (PayloadKind::Set, PayloadValue::Set(items)) => {
                    if let Some(range) = &def.range {
                        if let Some(PayloadValue::Sequence(tokens)) = self.payloads.get(range) {
                            for el in items {
                                if el.span.0 >= el.span.1 || el.span.1 > tokens.len() {
                                    return Err(StoreError::Validation(format!(
                                        "payload '{name}' element '{}' span {:?} out of range (len {})",
                                        el.id,
                                        el.span,
                                        tokens.len()
                                    )));
                                }
                            }
                        }
                    }
                }
                _ => {
                    return Err(StoreError::Validation(format!(
                        "payload '{name}' value does not match its declared kind"
                    )))
                }
            }
        }
        for (task_name, sources) in &self.tasks {
            let task = schema.tasks.get(task_name).ok_or_else(|| {
                StoreError::Validation(format!("record labels unknown task '{task_name}'"))
            })?;
            let payload_value = self.payloads.get(&task.payload);
            for (source, label) in sources {
                self.validate_label(schema, task_name, source, label, &task.kind, payload_value)?;
            }
        }
        Ok(())
    }

    fn validate_label(
        &self,
        schema: &Schema,
        task_name: &str,
        source: &str,
        label: &TaskLabel,
        kind: &TaskKind,
        payload_value: Option<&PayloadValue>,
    ) -> Result<()> {
        let ctx = || format!("task '{task_name}' source '{source}'");
        let payload_kind = schema
            .tasks
            .get(task_name)
            .and_then(|t| schema.payloads.get(&t.payload))
            .map(|p| &p.kind);
        match (kind, label) {
            (TaskKind::Multiclass { classes }, TaskLabel::MulticlassOne(c)) => {
                if !matches!(payload_kind, Some(PayloadKind::Singleton)) {
                    return Err(StoreError::Validation(format!(
                        "{}: single-class label on a non-singleton payload",
                        ctx()
                    )));
                }
                check_class(classes, c, &ctx)?;
            }
            (TaskKind::Multiclass { classes }, TaskLabel::MulticlassSeq(cs)) => {
                if !matches!(payload_kind, Some(PayloadKind::Sequence { .. })) {
                    return Err(StoreError::Validation(format!(
                        "{}: per-element label granularity on a non-sequence payload",
                        ctx()
                    )));
                }
                check_seq_len(payload_value, cs.len(), &ctx)?;
                for c in cs {
                    check_class(classes, c, &ctx)?;
                }
            }
            (TaskKind::Bitvector { labels }, TaskLabel::BitvectorOne(bits)) => {
                if !matches!(payload_kind, Some(PayloadKind::Singleton)) {
                    return Err(StoreError::Validation(format!(
                        "{}: singleton bitvector label on a non-singleton payload",
                        ctx()
                    )));
                }
                for b in bits {
                    check_class(labels, b, &ctx)?;
                }
            }
            (TaskKind::Bitvector { labels }, TaskLabel::BitvectorSeq(rows)) => {
                if !matches!(payload_kind, Some(PayloadKind::Sequence { .. })) {
                    return Err(StoreError::Validation(format!(
                        "{}: per-element label granularity on a non-sequence payload",
                        ctx()
                    )));
                }
                check_seq_len(payload_value, rows.len(), &ctx)?;
                for bits in rows {
                    for b in bits {
                        check_class(labels, b, &ctx)?;
                    }
                }
            }
            (TaskKind::Select, TaskLabel::Select(idx)) => {
                if let Some(PayloadValue::Set(items)) = payload_value {
                    if *idx >= items.len() {
                        return Err(StoreError::Validation(format!(
                            "{}: select index {idx} out of set of {}",
                            ctx(),
                            items.len()
                        )));
                    }
                }
            }
            _ => {
                return Err(StoreError::Validation(format!(
                    "{}: label granularity does not match the task type",
                    ctx()
                )))
            }
        }
        Ok(())
    }
}

/// Streams a JSON-lines reader one record at a time into `accept` (blank
/// lines are skipped) and returns how many records it took. Every failure
/// is prefixed with its 1-based `line N`: a read error (a non-UTF-8 byte, a
/// disk error) or an I/O error from `accept` stays [`StoreError::Io`] with
/// its kind, anything else surfaces as [`StoreError::Validation`].
pub(crate) fn for_each_jsonl_record(
    reader: impl std::io::Read,
    mut accept: impl FnMut(Record) -> Result<()>,
) -> Result<usize> {
    use std::io::BufRead;
    let at_line = |lineno: usize, e: StoreError| match e {
        StoreError::Io(e) => {
            StoreError::Io(std::io::Error::new(e.kind(), format!("line {lineno}: {e}")))
        }
        other => StoreError::Validation(format!("line {lineno}: {other}")),
    };
    let mut reader = std::io::BufReader::new(reader);
    let mut line = String::new();
    let mut lineno = 0usize;
    let mut accepted = 0usize;
    loop {
        line.clear();
        let read = reader.read_line(&mut line).map_err(|e| at_line(lineno + 1, e.into()))?;
        if read == 0 {
            break;
        }
        lineno += 1;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        Record::from_json(trimmed).and_then(&mut accept).map_err(|e| at_line(lineno, e))?;
        accepted += 1;
    }
    Ok(accepted)
}

fn check_class(vocab: &[String], c: &str, ctx: &impl Fn() -> String) -> Result<()> {
    if !vocab.iter().any(|v| v == c) {
        return Err(StoreError::Validation(format!("{}: unknown label '{c}'", ctx())));
    }
    Ok(())
}

fn check_seq_len(
    payload_value: Option<&PayloadValue>,
    label_len: usize,
    ctx: &impl Fn() -> String,
) -> Result<()> {
    if let Some(PayloadValue::Sequence(items)) = payload_value {
        if items.len() != label_len {
            return Err(StoreError::Validation(format!(
                "{}: {label_len} labels for {} sequence elements",
                ctx(),
                items.len()
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::example_schema;

    fn example_record() -> Record {
        Record::new()
            .with_payload(
                "tokens",
                PayloadValue::Sequence(
                    ["how", "tall", "is", "the", "president"]
                        .iter()
                        .map(|s| s.to_string())
                        .collect(),
                ),
            )
            .with_payload("query", PayloadValue::Singleton("how tall is the president".into()))
            .with_payload(
                "entities",
                PayloadValue::Set(vec![
                    SetElement { id: "President_(title)".into(), span: (4, 5) },
                    SetElement { id: "United_States".into(), span: (3, 5) },
                ]),
            )
            .with_label("Intent", "weak1", TaskLabel::MulticlassOne("President".into()))
            .with_label("Intent", "weak2", TaskLabel::MulticlassOne("Height".into()))
            .with_label("Intent", "crowd", TaskLabel::MulticlassOne("Height".into()))
            .with_label("IntentArg", "weak1", TaskLabel::Select(1))
            .with_tag("train")
            .with_slice("complex-disambiguation")
    }

    #[test]
    fn example_record_validates() {
        example_record().validate(&example_schema()).unwrap();
    }

    #[test]
    fn json_roundtrip() {
        let r = example_record();
        let back = Record::from_json(&r.to_json()).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn tags_and_slices() {
        let r = example_record();
        assert_eq!(r.split(), Some("train"));
        assert!(r.in_slice("complex-disambiguation"));
        assert_eq!(r.slices().collect::<Vec<_>>(), vec!["complex-disambiguation"]);
    }

    #[test]
    fn in_slice_agrees_with_slices() {
        // An unprefixed tag that equals a slice name is not that slice.
        let r = Record::new().with_slice("hard").with_tag("easy").with_tag("slice").with_slice("");
        let slices: Vec<&str> = r.slices().collect();
        assert_eq!(slices, vec!["", "hard"]);
        for name in ["hard", "easy", "slice", "", "slice:hard", "har"] {
            assert_eq!(r.in_slice(name), slices.contains(&name), "{name:?}");
        }
    }

    #[test]
    fn weak_sources_exclude_gold() {
        let r = example_record().with_label(
            "Intent",
            GOLD_SOURCE,
            TaskLabel::MulticlassOne("Height".into()),
        );
        let sources: Vec<&str> = r.weak_sources("Intent").map(|(s, _)| s).collect();
        assert_eq!(sources, vec!["crowd", "weak1", "weak2"]);
        assert!(r.gold("Intent").is_some());
        assert!(r.gold("POS").is_none());
    }

    #[test]
    fn unknown_label_rejected() {
        let r = example_record().with_label(
            "Intent",
            "weak3",
            TaskLabel::MulticlassOne("NotAClass".into()),
        );
        let err = r.validate(&example_schema()).unwrap_err();
        assert!(err.to_string().contains("unknown label"), "{err}");
    }

    #[test]
    fn wrong_granularity_rejected() {
        // Sequence label for a singleton-payload task.
        let r = example_record().with_label(
            "Intent",
            "weak4",
            TaskLabel::MulticlassSeq(vec!["Height".into()]),
        );
        let err = r.validate(&example_schema()).unwrap_err();
        assert!(
            err.to_string().contains("granularity") || err.to_string().contains("labels for"),
            "{err}"
        );
    }

    #[test]
    fn sequence_length_mismatch_rejected() {
        let r = example_record().with_label(
            "POS",
            "spacy",
            TaskLabel::MulticlassSeq(vec!["ADV".into(), "ADJ".into()]), // 2 labels, 5 tokens
        );
        let err = r.validate(&example_schema()).unwrap_err();
        assert!(err.to_string().contains("sequence elements"), "{err}");
    }

    #[test]
    fn select_out_of_bounds_rejected() {
        let r = example_record().with_label("IntentArg", "weak9", TaskLabel::Select(7));
        let err = r.validate(&example_schema()).unwrap_err();
        assert!(err.to_string().contains("out of set"), "{err}");
    }

    #[test]
    fn bad_span_rejected() {
        let mut r = example_record();
        r.payloads.insert(
            "entities".into(),
            PayloadValue::Set(vec![SetElement { id: "x".into(), span: (3, 9) }]),
        );
        r.tasks.remove("IntentArg"); // avoid unrelated select bound error
        let err = r.validate(&example_schema()).unwrap_err();
        assert!(err.to_string().contains("span"), "{err}");
    }

    #[test]
    fn over_long_sequence_rejected() {
        let mut r = Record::new().with_payload(
            "tokens",
            PayloadValue::Sequence((0..17).map(|i| format!("t{i}")).collect()),
        );
        r.tasks.clear();
        let err = r.validate(&example_schema()).unwrap_err();
        assert!(err.to_string().contains("max_length"), "{err}");
    }

    #[test]
    fn bitvector_on_singleton_normalizes_from_json() {
        // A bitvector label over a singleton payload parses ambiguously as
        // MulticlassSeq; normalize_labels must rewrite it.
        let json = r#"{
          "payloads": { "q": { "type": "singleton" } },
          "tasks": {
            "topics": { "payload": "q", "type": "bitvector", "labels": ["a", "b"] }
          }
        }"#;
        let schema = Schema::from_json(json).unwrap();
        let mut r = Record::from_json(
            r#"{"payloads": {"q": "text"}, "tasks": {"topics": {"w": ["a", "b"]}}}"#,
        )
        .unwrap();
        assert!(matches!(r.tasks["topics"]["w"], TaskLabel::MulticlassSeq(_)));
        r.normalize_labels(&schema);
        assert_eq!(r.tasks["topics"]["w"], TaskLabel::BitvectorOne(vec!["a".into(), "b".into()]));
        r.validate(&schema).unwrap();
    }

    #[test]
    fn paper_figure_2a_record_parses() {
        // A record shaped like the paper's Figure 2a example data record.
        let json = r#"{
          "payloads": {
            "tokens": ["How", "tall", "is", "the", "president", "of", "the", "united", "states"],
            "query": "How tall is the president of the united states",
            "entities": [
              {"id": "President_(title)", "span": [4, 5]},
              {"id": "United_States", "span": [7, 9]},
              {"id": "U.S._state", "span": [8, 9]}
            ]
          },
          "tasks": {
            "Intent": { "weak1": "President", "weak2": "Height", "crowd": "Height" },
            "IntentArg": { "weak1": 2, "weak2": 0, "crowd": 1 }
          },
          "tags": ["train"]
        }"#;
        let r = Record::from_json(json).unwrap();
        r.validate(&example_schema()).unwrap();
        assert_eq!(r.tasks["IntentArg"]["weak2"], TaskLabel::Select(0));
    }
}
