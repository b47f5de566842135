//! Feature extraction: turning schema-conformant records into model inputs.

use overton_nlp::Vocab;
use overton_store::{
    PayloadKind, PayloadValue, PayloadView, Record, Schema, ShardedStore, TaskKind, TaskLabel,
};
use overton_supervision::ProbLabel;
use std::collections::BTreeMap;

/// Vocabularies and slice space shared by a model and its serving copy.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct FeatureSpace {
    /// Token vocabulary (from sequence payload contents).
    pub token_vocab: Vocab,
    /// Entity-id vocabulary (from set payload element ids).
    pub entity_vocab: Vocab,
    /// Slice names, in stable order; indicator head `i` predicts membership
    /// of `slice_names[i]`.
    pub slice_names: Vec<String>,
}

impl FeatureSpace {
    /// Builds the feature space from a sealed store: every shard collects
    /// its token/entity occurrences in parallel from zero-copy views, the
    /// per-shard lists concatenate in shard order (so the vocabularies do
    /// not depend on the shard count), and slice names come from the
    /// seal-time index.
    pub fn build_from_store(store: &ShardedStore) -> overton_store::Result<Self> {
        let partials = store.par_scan(|scan| {
            let mut tokens: Vec<String> = Vec::new();
            let mut entities: Vec<String> = Vec::new();
            for (_, view) in scan.views() {
                let view = view?;
                for (_, value) in &view.payloads {
                    match value {
                        PayloadView::Sequence(ts) => {
                            tokens.extend(ts.iter().map(|t| (*t).to_string()))
                        }
                        PayloadView::Singleton(_) => {}
                        PayloadView::Set(els) => {
                            entities.extend(els.iter().map(|(id, _)| (*id).to_string()))
                        }
                    }
                }
            }
            Ok((tokens, entities))
        })?;
        let mut tokens: Vec<String> = Vec::new();
        let mut entity_vocab = Vocab::reserved();
        for (shard_tokens, shard_entities) in partials {
            tokens.extend(shard_tokens);
            for id in &shard_entities {
                entity_vocab.intern(id);
            }
        }
        let token_vocab = Vocab::build(tokens.iter().map(String::as_str), 1);
        Ok(Self { token_vocab, entity_vocab, slice_names: store.index().slice_names() })
    }

    /// Index of a slice name.
    pub fn slice_index(&self, name: &str) -> Option<usize> {
        self.slice_names.iter().position(|s| s == name)
    }

    /// Encodes a batch of records into model-ready examples (no targets).
    ///
    /// The input side of the batched inference forward that
    /// [`Server::predict_batch`](crate::Server::predict_batch) and
    /// evaluation run: the examples of a batch are encoded together, then
    /// their rows are stacked so each layer of the forward runs once per
    /// batch. `record_index` is the position within the batch.
    pub fn encode_batch(&self, records: &[Record], schema: &Schema) -> Vec<CompiledExample> {
        records
            .iter()
            .enumerate()
            .map(|(i, r)| CompiledExample::from_record(r, i, self, schema))
            .collect()
    }
}

/// Encoded set payload elements: `(entity id, span)` per element.
pub(crate) type EncodedSet = Vec<(usize, (usize, usize))>;

/// One model-ready example: encoded payloads plus (optionally) training
/// targets per task and slice membership.
#[derive(Debug, Clone)]
pub struct CompiledExample {
    /// Index of the source record in its dataset.
    pub record_index: usize,
    /// Token ids per sequence payload.
    pub sequences: BTreeMap<String, Vec<usize>>,
    /// Set payloads, encoded.
    pub sets: BTreeMap<String, EncodedSet>,
    /// Probabilistic training targets per task (absent = no supervision).
    pub targets: BTreeMap<String, ProbLabel>,
    /// Slice membership aligned with [`FeatureSpace::slice_names`].
    pub slice_membership: Vec<bool>,
}

impl CompiledExample {
    /// Encodes a record's payloads (no targets).
    pub fn from_record(
        record: &Record,
        index: usize,
        space: &FeatureSpace,
        schema: &Schema,
    ) -> Self {
        let mut sequences = BTreeMap::new();
        let mut sets = BTreeMap::new();
        for (name, def) in &schema.payloads {
            match (&def.kind, record.payloads.get(name)) {
                (PayloadKind::Sequence { max_length }, Some(PayloadValue::Sequence(ts))) => {
                    let ids: Vec<usize> =
                        ts.iter().take(*max_length).map(|t| space.token_vocab.id(t)).collect();
                    sequences.insert(name.clone(), ids);
                }
                (PayloadKind::Set, Some(PayloadValue::Set(els))) => {
                    let encoded: Vec<(usize, (usize, usize))> =
                        els.iter().map(|el| (space.entity_vocab.id(&el.id), el.span)).collect();
                    sets.insert(name.clone(), encoded);
                }
                _ => {}
            }
        }
        // `record.slices()` reads the tags in place (`in_slice` formats a
        // tag per call).
        let slice_membership =
            space.slice_names.iter().map(|s| record.slices().any(|r| r == s)).collect();
        Self { record_index: index, sequences, sets, targets: BTreeMap::new(), slice_membership }
    }

    /// Attaches a probabilistic target for a task.
    pub fn with_target(mut self, task: &str, label: ProbLabel) -> Self {
        self.targets.insert(task.to_string(), label);
        self
    }
}

/// Converts a gold [`TaskLabel`] into a one-hot/binary [`ProbLabel`] (used
/// to build dev/test targets and evaluation references).
pub fn gold_to_prob(schema: &Schema, record: &Record, task: &str) -> Option<ProbLabel> {
    let label = record.gold(task)?;
    let task_def = schema.tasks.get(task)?;
    match (&task_def.kind, label) {
        (TaskKind::Multiclass { classes }, TaskLabel::MulticlassOne(c)) => {
            let idx = classes.iter().position(|x| x == c)?;
            Some(ProbLabel::one_hot(idx, classes.len()))
        }
        (TaskKind::Multiclass { classes }, TaskLabel::MulticlassSeq(cs)) => {
            let rows: Option<Vec<Vec<f32>>> = cs
                .iter()
                .map(|c| {
                    classes.iter().position(|x| x == c).map(|idx| {
                        let mut row = vec![0.0; classes.len()];
                        row[idx] = 1.0;
                        row
                    })
                })
                .collect();
            Some(ProbLabel::SeqDist(rows?))
        }
        (TaskKind::Bitvector { labels }, TaskLabel::BitvectorOne(bits)) => {
            let row: Vec<f32> =
                labels.iter().map(|l| f32::from(bits.iter().any(|b| b == l))).collect();
            Some(ProbLabel::Bits(row))
        }
        (TaskKind::Bitvector { labels }, TaskLabel::BitvectorSeq(rows)) => {
            let out: Vec<Vec<f32>> = rows
                .iter()
                .map(|bits| labels.iter().map(|l| f32::from(bits.iter().any(|b| b == l))).collect())
                .collect();
            Some(ProbLabel::SeqBits(out))
        }
        (TaskKind::Select, TaskLabel::Select(idx)) => {
            let k = match record.payloads.get(&task_def.payload) {
                Some(PayloadValue::Set(els)) => els.len(),
                _ => return None,
            };
            (*idx < k).then(|| ProbLabel::one_hot(*idx, k))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overton_nlp::{generate_workload, WorkloadConfig};
    use overton_store::{Dataset, GOLD_SOURCE};

    fn tiny() -> Dataset {
        generate_workload(&WorkloadConfig {
            n_train: 50,
            n_dev: 10,
            n_test: 10,
            seed: 5,
            slice_rate: 0.3,
            ..Default::default()
        })
    }

    #[test]
    fn feature_space_covers_data() {
        let ds = tiny();
        let space = FeatureSpace::build_from_store(&ds.seal()).unwrap();
        assert!(space.token_vocab.len() > 20);
        assert!(space.entity_vocab.len() > 10);
        assert!(space.slice_names.contains(&"complex-disambiguation".to_string()));
    }

    #[test]
    fn example_encoding_shapes() {
        let ds = tiny();
        let space = FeatureSpace::build_from_store(&ds.seal()).unwrap();
        let ex = CompiledExample::from_record(&ds.records()[0], 0, &space, ds.schema());
        let tokens = &ex.sequences["tokens"];
        assert!(!tokens.is_empty() && tokens.len() <= 16);
        assert!(!ex.sets["entities"].is_empty());
        assert_eq!(ex.slice_membership.len(), space.slice_names.len());
    }

    #[test]
    fn gold_to_prob_multiclass_one() {
        let ds = tiny();
        let i = ds.test_indices()[0];
        let record = &ds.records()[i];
        let prob = gold_to_prob(ds.schema(), record, "Intent").unwrap();
        assert!(prob.is_valid());
        let gold_name = match record.gold("Intent").unwrap() {
            TaskLabel::MulticlassOne(c) => c.clone(),
            other => panic!("{other:?}"),
        };
        let classes = match &ds.schema().tasks["Intent"].kind {
            TaskKind::Multiclass { classes } => classes.clone(),
            _ => unreachable!(),
        };
        assert_eq!(classes[prob.argmax().unwrap()], gold_name);
    }

    #[test]
    fn gold_to_prob_sequence_and_bits() {
        let ds = tiny();
        let i = ds.test_indices()[0];
        let record = &ds.records()[i];
        let pos = gold_to_prob(ds.schema(), record, "POS").unwrap();
        assert!(matches!(pos, ProbLabel::SeqDist(_)));
        assert!(pos.is_valid());
        let types = gold_to_prob(ds.schema(), record, "EntityType").unwrap();
        assert!(matches!(types, ProbLabel::SeqBits(_)));
        let arg = gold_to_prob(ds.schema(), record, "IntentArg").unwrap();
        assert!(matches!(arg, ProbLabel::Dist(_)));
    }

    #[test]
    fn gold_to_prob_absent_when_no_gold() {
        let ds = tiny();
        let i = ds.train_indices()[0]; // default config: no train gold
        assert!(gold_to_prob(ds.schema(), &ds.records()[i], "Intent").is_none());
    }

    #[test]
    fn unknown_gold_class_yields_none() {
        let ds = tiny();
        let mut record = ds.records()[ds.test_indices()[0]].clone();
        record
            .tasks
            .get_mut("Intent")
            .unwrap()
            .insert(GOLD_SOURCE.to_string(), TaskLabel::MulticlassOne("NotARealIntent".into()));
        assert!(gold_to_prob(ds.schema(), &record, "Intent").is_none());
    }
}
