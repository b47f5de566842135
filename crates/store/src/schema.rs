//! Overton's schema: payloads + tasks (paper §2.1, Figure 2a).
//!
//! The schema is the contract between supervision data, the compiled model
//! and serving. It deliberately contains **no hyperparameters** — that is
//! what gives Overton *model independence*: the same schema compiles to many
//! architectures, and serving code never changes when the model does.

use crate::error::{Result, StoreError};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// How a payload is shaped.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "lowercase", tag = "type")]
pub enum PayloadKind {
    /// One value per example (e.g. the whole query).
    Singleton,
    /// An ordered list (e.g. the tokenized query), bounded by `max_length`.
    Sequence {
        /// Upper bound on the sequence length; longer inputs are truncated.
        max_length: usize,
    },
    /// An unordered collection (e.g. candidate entities).
    Set,
}

/// A payload declaration: a source of data the model embeds.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PayloadDef {
    /// Shape of the payload.
    #[serde(flatten)]
    pub kind: PayloadKind,
    /// Payloads this one aggregates (e.g. `query` is built from `tokens`).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub base: Vec<String>,
    /// For `Set` payloads: the sequence payload their spans point into.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub range: Option<String>,
}

/// What a task predicts.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "lowercase", tag = "type")]
pub enum TaskKind {
    /// Exactly one of `classes` per payload element.
    Multiclass {
        /// The label vocabulary, in output order.
        classes: Vec<String>,
    },
    /// Any subset of `labels` per payload element (non-exclusive types).
    Bitvector {
        /// One bit per label, in output order.
        labels: Vec<String>,
    },
    /// Chooses one element out of a `Set` payload.
    Select,
}

/// A task declaration: an output the model must produce.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskDef {
    /// The payload this task reads (and whose granularity it inherits).
    pub payload: String,
    /// Output type.
    #[serde(flatten)]
    pub kind: TaskKind,
}

/// A complete Overton schema.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schema {
    /// Payload declarations by name.
    pub payloads: BTreeMap<String, PayloadDef>,
    /// Task declarations by name.
    pub tasks: BTreeMap<String, TaskDef>,
}

impl Schema {
    /// Parses and validates a schema from its JSON text.
    pub fn from_json(text: &str) -> Result<Self> {
        let schema: Schema = serde_json::from_str(text)?;
        schema.validate()?;
        Ok(schema)
    }

    /// Reads, parses and validates a schema file (the first half of the
    /// paper's two-file engineer contract). Errors name the file.
    pub fn from_json_file(path: impl AsRef<std::path::Path>) -> Result<Self> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| {
            StoreError::Io(std::io::Error::new(e.kind(), format!("{}: {e}", path.display())))
        })?;
        Self::from_json(&text).map_err(|e| match e {
            StoreError::Schema(msg) => StoreError::Schema(format!("{}: {msg}", path.display())),
            StoreError::Json(e) => StoreError::Schema(format!("{}: {e}", path.display())),
            other => other,
        })
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("schema serialization cannot fail")
    }

    /// Checks internal consistency: payload references resolve, no reference
    /// cycles, tasks point at payloads, select tasks and only select tasks
    /// point at sets, and label vocabularies are non-empty and duplicate-free.
    pub fn validate(&self) -> Result<()> {
        if self.payloads.is_empty() {
            return Err(StoreError::Schema("schema has no payloads".into()));
        }
        if self.tasks.is_empty() {
            return Err(StoreError::Schema("schema has no tasks".into()));
        }
        for (name, p) in &self.payloads {
            for b in &p.base {
                if !self.payloads.contains_key(b) {
                    return Err(StoreError::Schema(format!(
                        "payload '{name}' references unknown base payload '{b}'"
                    )));
                }
            }
            if let Some(r) = &p.range {
                match self.payloads.get(r) {
                    None => {
                        return Err(StoreError::Schema(format!(
                            "payload '{name}' has unknown range payload '{r}'"
                        )))
                    }
                    Some(other) if !matches!(other.kind, PayloadKind::Sequence { .. }) => {
                        return Err(StoreError::Schema(format!(
                            "payload '{name}' range '{r}' must be a sequence payload"
                        )))
                    }
                    _ => {}
                }
                if !matches!(p.kind, PayloadKind::Set) {
                    return Err(StoreError::Schema(format!(
                        "payload '{name}' declares a range but is not a set"
                    )));
                }
            }
            if let PayloadKind::Sequence { max_length } = p.kind {
                if max_length == 0 {
                    return Err(StoreError::Schema(format!("payload '{name}' has max_length 0")));
                }
            }
        }
        self.check_acyclic()?;
        for (name, t) in &self.tasks {
            let payload = self.payloads.get(&t.payload).ok_or_else(|| {
                StoreError::Schema(format!(
                    "task '{name}' references unknown payload '{}'",
                    t.payload
                ))
            })?;
            match &t.kind {
                TaskKind::Multiclass { .. } | TaskKind::Bitvector { .. }
                    if matches!(payload.kind, PayloadKind::Set) =>
                {
                    return Err(StoreError::Schema(format!(
                        "task '{name}' cannot read set payload '{}': only select tasks read sets",
                        t.payload
                    )));
                }
                TaskKind::Multiclass { classes } => {
                    check_vocab(name, "classes", classes)?;
                }
                TaskKind::Bitvector { labels } => {
                    check_vocab(name, "labels", labels)?;
                }
                TaskKind::Select => {
                    if !matches!(payload.kind, PayloadKind::Set) {
                        return Err(StoreError::Schema(format!(
                            "select task '{name}' must read a set payload, but '{}' is not a set",
                            t.payload
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    fn check_acyclic(&self) -> Result<()> {
        // DFS with colors over payload base/range references.
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Grey,
            Black,
        }
        let names: Vec<&String> = self.payloads.keys().collect();
        let index: BTreeMap<&str, usize> =
            names.iter().enumerate().map(|(i, n)| (n.as_str(), i)).collect();
        let mut colors = vec![Color::White; names.len()];
        fn visit(
            schema: &Schema,
            names: &[&String],
            index: &BTreeMap<&str, usize>,
            colors: &mut [Color],
            i: usize,
        ) -> Result<()> {
            colors[i] = Color::Grey;
            let p = &schema.payloads[names[i]];
            let refs = p.base.iter().chain(p.range.iter());
            for r in refs {
                let j = index[r.as_str()];
                match colors[j] {
                    Color::Grey => {
                        return Err(StoreError::Schema(format!(
                            "payload reference cycle through '{r}'"
                        )))
                    }
                    Color::White => visit(schema, names, index, colors, j)?,
                    Color::Black => {}
                }
            }
            colors[i] = Color::Black;
            Ok(())
        }
        for i in 0..names.len() {
            if colors[i] == Color::White {
                visit(self, &names, &index, &mut colors, i)?;
            }
        }
        Ok(())
    }

    /// Payload names in dependency order (referenced payloads first), so a
    /// model compiler can build encoders bottom-up.
    pub fn payload_topo_order(&self) -> Vec<String> {
        let mut order = Vec::with_capacity(self.payloads.len());
        let mut done: std::collections::BTreeSet<&str> = Default::default();
        // Kahn-style repeated sweep; payload counts are tiny.
        while order.len() < self.payloads.len() {
            let before = order.len();
            for (name, p) in &self.payloads {
                if done.contains(name.as_str()) {
                    continue;
                }
                let ready = p.base.iter().chain(p.range.iter()).all(|r| done.contains(r.as_str()));
                if ready {
                    done.insert(name);
                    order.push(name.clone());
                }
            }
            assert!(order.len() > before, "cycle should have been rejected by validate()");
        }
        order
    }

    /// Number of output dimensions a task produces per payload element
    /// (`None` for select tasks, whose cardinality is the set size).
    pub fn task_cardinality(&self, task: &str) -> Option<usize> {
        match &self.tasks.get(task)?.kind {
            TaskKind::Multiclass { classes } => Some(classes.len()),
            TaskKind::Bitvector { labels } => Some(labels.len()),
            TaskKind::Select => None,
        }
    }

    /// The serving signature: a stable, architecture-independent description
    /// of model inputs and outputs that downstream serving consumes
    /// (paper §2.1: "build a serving signature, which contains detailed
    /// information of the types").
    pub fn serving_signature(&self) -> ServingSignature {
        let inputs = self
            .payloads
            .iter()
            .map(|(name, p)| SignatureInput {
                name: name.clone(),
                kind: match p.kind {
                    PayloadKind::Singleton => "singleton".into(),
                    PayloadKind::Sequence { .. } => "sequence".into(),
                    PayloadKind::Set => "set".into(),
                },
                max_length: match p.kind {
                    PayloadKind::Sequence { max_length } => Some(max_length),
                    _ => None,
                },
            })
            .collect();
        let outputs = self
            .tasks
            .iter()
            .map(|(name, t)| {
                let (kind, labels) = match &t.kind {
                    TaskKind::Multiclass { classes } => ("multiclass", classes.clone()),
                    TaskKind::Bitvector { labels } => ("bitvector", labels.clone()),
                    TaskKind::Select => ("select", Vec::new()),
                };
                SignatureOutput {
                    name: name.clone(),
                    payload: t.payload.clone(),
                    kind: kind.into(),
                    labels,
                }
            })
            .collect();
        ServingSignature { inputs, outputs }
    }
}

fn check_vocab(task: &str, what: &str, vocab: &[String]) -> Result<()> {
    if vocab.is_empty() {
        return Err(StoreError::Schema(format!("task '{task}' has empty {what}")));
    }
    let unique: std::collections::BTreeSet<&String> = vocab.iter().collect();
    if unique.len() != vocab.len() {
        return Err(StoreError::Schema(format!("task '{task}' has duplicate {what}")));
    }
    Ok(())
}

/// One input in a [`ServingSignature`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SignatureInput {
    /// Payload name.
    pub name: String,
    /// `singleton`, `sequence` or `set`.
    pub kind: String,
    /// Sequence bound, when applicable.
    pub max_length: Option<usize>,
}

/// One output in a [`ServingSignature`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SignatureOutput {
    /// Task name.
    pub name: String,
    /// The payload the task reads.
    pub payload: String,
    /// `multiclass`, `bitvector` or `select`.
    pub kind: String,
    /// Output label vocabulary (empty for select).
    pub labels: Vec<String>,
}

/// Architecture-independent serving contract derived from a [`Schema`].
///
/// Two models compiled from the same schema — regardless of embeddings,
/// encoders or hyperparameters — share a signature, which is what lets
/// Overton swap models under a running product without code changes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServingSignature {
    /// Model inputs (one per payload).
    pub inputs: Vec<SignatureInput>,
    /// Model outputs (one per task).
    pub outputs: Vec<SignatureOutput>,
}

/// The schema of the paper's running example (Figure 2a): a factoid-QA
/// pipeline with `tokens`/`query`/`entities` payloads and
/// `POS`/`EntityType`/`Intent`/`IntentArg` tasks.
pub fn example_schema() -> Schema {
    let json = r#"{
      "payloads": {
        "tokens":   { "type": "sequence", "max_length": 16 },
        "query":    { "type": "singleton", "base": ["tokens"] },
        "entities": { "type": "set", "range": "tokens" }
      },
      "tasks": {
        "POS": { "payload": "tokens", "type": "multiclass",
                 "classes": ["ADV", "ADJ", "VERB", "NOUN", "PROPN", "DET", "ADP", "PUNCT"] },
        "EntityType": { "payload": "tokens", "type": "bitvector",
                        "labels": ["person", "location", "country", "title", "organization"] },
        "Intent": { "payload": "query", "type": "multiclass",
                    "classes": ["Height", "Age", "Capital", "Population", "Spouse", "President"] },
        "IntentArg": { "payload": "entities", "type": "select" }
      }
    }"#;
    Schema::from_json(json).expect("example schema is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_schema_parses_and_validates() {
        let s = example_schema();
        assert_eq!(s.payloads.len(), 3);
        assert_eq!(s.tasks.len(), 4);
        assert_eq!(s.task_cardinality("Intent"), Some(6));
        assert_eq!(s.task_cardinality("IntentArg"), None);
    }

    #[test]
    fn json_roundtrip_is_stable() {
        let s = example_schema();
        let text = s.to_json();
        let back = Schema::from_json(&text).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn unknown_base_payload_rejected() {
        let json = r#"{
          "payloads": { "query": { "type": "singleton", "base": ["missing"] } },
          "tasks": { "t": { "payload": "query", "type": "multiclass", "classes": ["a"] } }
        }"#;
        let err = Schema::from_json(json).unwrap_err();
        assert!(err.to_string().contains("unknown base payload"), "{err}");
    }

    #[test]
    fn cycle_rejected() {
        let json = r#"{
          "payloads": {
            "a": { "type": "singleton", "base": ["b"] },
            "b": { "type": "singleton", "base": ["a"] }
          },
          "tasks": { "t": { "payload": "a", "type": "multiclass", "classes": ["x"] } }
        }"#;
        let err = Schema::from_json(json).unwrap_err();
        assert!(err.to_string().contains("cycle"), "{err}");
    }

    #[test]
    fn select_task_requires_set_payload() {
        let json = r#"{
          "payloads": { "q": { "type": "singleton" } },
          "tasks": { "pick": { "payload": "q", "type": "select" } }
        }"#;
        let err = Schema::from_json(json).unwrap_err();
        assert!(err.to_string().contains("must read a set payload"), "{err}");
    }

    #[test]
    fn non_select_task_over_set_payload_rejected() {
        for task in
            [r#""type": "multiclass", "classes": ["x"]"#, r#""type": "bitvector", "labels": ["x"]"#]
        {
            let json = format!(
                r#"{{
                  "payloads": {{ "ents": {{ "type": "set" }} }},
                  "tasks": {{ "t": {{ "payload": "ents", {task} }} }}
                }}"#
            );
            let err = Schema::from_json(&json).unwrap_err();
            assert!(err.to_string().contains("only select tasks read sets"), "{err}");
        }
    }

    #[test]
    fn range_must_point_at_sequence() {
        let json = r#"{
          "payloads": {
            "q": { "type": "singleton" },
            "ents": { "type": "set", "range": "q" }
          },
          "tasks": { "t": { "payload": "q", "type": "multiclass", "classes": ["x"] } }
        }"#;
        let err = Schema::from_json(json).unwrap_err();
        assert!(err.to_string().contains("must be a sequence"), "{err}");
    }

    #[test]
    fn duplicate_classes_rejected() {
        let json = r#"{
          "payloads": { "q": { "type": "singleton" } },
          "tasks": { "t": { "payload": "q", "type": "multiclass", "classes": ["x", "x"] } }
        }"#;
        let err = Schema::from_json(json).unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
    }

    #[test]
    fn empty_schema_rejected() {
        assert!(Schema::from_json(r#"{ "payloads": {}, "tasks": {} }"#).is_err());
    }

    #[test]
    fn topo_order_puts_tokens_before_query() {
        let s = example_schema();
        let order = s.payload_topo_order();
        let pos = |n: &str| order.iter().position(|x| x == n).unwrap();
        assert!(pos("tokens") < pos("query"));
        assert!(pos("tokens") < pos("entities"));
    }

    #[test]
    fn serving_signature_is_architecture_independent() {
        // Two schemas that differ only in nothing model-related produce the
        // same signature; the signature lists every payload and task.
        let sig = example_schema().serving_signature();
        assert_eq!(sig.inputs.len(), 3);
        assert_eq!(sig.outputs.len(), 4);
        let intent = sig.outputs.iter().find(|o| o.name == "Intent").unwrap();
        assert_eq!(intent.kind, "multiclass");
        assert_eq!(intent.labels.len(), 6);
    }

    #[test]
    fn zero_max_length_rejected() {
        let json = r#"{
          "payloads": { "s": { "type": "sequence", "max_length": 0 } },
          "tasks": { "t": { "payload": "s", "type": "multiclass", "classes": ["x"] } }
        }"#;
        assert!(Schema::from_json(json).is_err());
    }
}
