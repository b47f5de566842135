//! Deployable model artifacts and the serving runtime.
//!
//! Overton "was built to construct a deployable production model" (§2.4):
//! training ends in a self-contained artifact — schema, serving signature,
//! feature space, architecture config and weights — that production loads
//! without any modeling code. Because the signature depends only on the
//! schema, retrained models (even with different searched architectures)
//! are drop-in replacements: *model independence* at serving time.

use crate::config::ModelConfig;
use crate::features::{CompiledExample, FeatureSpace};
use crate::infer::{Decode, Logits, MAX_BATCH};
use crate::network::CompiledModel;
use overton_store::{PayloadValue, Record, Schema, ServingSignature, StoreError, TaskKind};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A serialized, production-ready model.
#[derive(Clone, Serialize, Deserialize)]
pub struct DeployableModel {
    /// The schema the model was compiled from.
    pub schema: Schema,
    /// The architecture-independent serving contract.
    pub signature: ServingSignature,
    /// The searched architecture.
    pub config: ModelConfig,
    /// Vocabularies and slice space.
    pub space: FeatureSpace,
    /// Trained weights.
    pub params: overton_tensor::ParamStore,
    /// Free-form metadata (name, training data lineage, etc.).
    pub metadata: BTreeMap<String, String>,
}

impl DeployableModel {
    /// Packages a trained model for deployment.
    pub fn package(
        model: &CompiledModel,
        space: &FeatureSpace,
        metadata: BTreeMap<String, String>,
    ) -> Self {
        Self {
            schema: model.schema().clone(),
            signature: model.schema().serving_signature(),
            config: model.config().clone(),
            space: space.clone(),
            params: model.params.clone(),
            metadata,
        }
    }

    /// Serializes to bytes (JSON).
    pub fn to_bytes(&self) -> Vec<u8> {
        serde_json::to_vec(self).expect("artifact serialization cannot fail")
    }

    /// Deserializes from bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, StoreError> {
        Ok(serde_json::from_slice(bytes)?)
    }

    /// Reconstructs the runnable model (compile the skeleton, then load the
    /// stored weights).
    pub fn instantiate(&self) -> CompiledModel {
        let mut model = CompiledModel::compile(&self.schema, &self.space, &self.config, None);
        model.params.copy_values_from(&self.params);
        model
    }
}

/// One served task output, decoded to label names. Names are shared with
/// the [`Server`] that answered, which interns them once at load.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServedOutput {
    /// Singleton multiclass: class name + distribution over class names.
    Multiclass {
        /// Winning class name.
        class: Arc<str>,
        /// `(class, probability)` pairs.
        dist: Vec<(Arc<str>, f32)>,
    },
    /// Sequence multiclass: one class name per element.
    MulticlassSeq {
        /// Class name per element.
        classes: Vec<Arc<str>>,
    },
    /// Singleton bitvector: names of the set bits.
    Bits {
        /// Set bits.
        set: Vec<Arc<str>>,
    },
    /// Sequence bitvector: set-bit names per element.
    BitsSeq {
        /// Set bits per element.
        rows: Vec<Vec<Arc<str>>>,
    },
    /// Select: chosen element index and its external id.
    Select {
        /// Index into the record's set payload.
        index: usize,
        /// The chosen element's id.
        id: String,
    },
}

/// The response for one record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingResponse {
    /// Per-task outputs, keyed by task name.
    pub tasks: BTreeMap<Arc<str>, ServedOutput>,
    /// Predicted slice memberships (name, probability).
    pub slices: Vec<(Arc<str>, f32)>,
    /// Response confidence: the minimum top-probability across the tasks
    /// that produce a distribution (multiclass and select heads); `1.0`
    /// when no such task fired. The model-pair cascade (§2.4) escalates
    /// low-confidence responses from the small model to the large one.
    pub confidence: f32,
}

/// How one plan head answers, with its names interned: the head's decode
/// matched against its schema task kind once, at load.
enum Answer {
    /// Softmax distribution over classes.
    Multiclass(Vec<Arc<str>>),
    /// One class per element.
    MulticlassSeq(Vec<Arc<str>>),
    /// Sigmoid bits over labels.
    Bits(Vec<Arc<str>>),
    /// Thresholded bits over labels per element.
    BitsSeq(Vec<Arc<str>>),
    /// Softmax over the elements of this set payload.
    Select(String),
    /// The head's output does not fit its task's kind.
    Mismatch,
}

/// A loaded model ready to answer queries.
pub struct Server {
    model: CompiledModel,
    space: FeatureSpace,
    signature: ServingSignature,
    /// Per plan head, in plan order: its task's name and how it answers.
    answers: Vec<(Arc<str>, Answer)>,
    /// The slice names, in indicator order.
    slices: Vec<Arc<str>>,
}

impl Server {
    /// Loads an artifact into a runnable server.
    pub fn load(artifact: &DeployableModel) -> Self {
        Self::new(artifact.instantiate(), artifact.space.clone(), artifact.signature.clone())
    }

    /// Serves `model`, interning every task, class, label and slice name
    /// once.
    fn new(model: CompiledModel, space: FeatureSpace, signature: ServingSignature) -> Self {
        let schema = model.schema();
        let names = |names: &[String]| names.iter().map(|n| Arc::from(n.as_str())).collect();
        let answers = (model.inference.heads.iter())
            .map(|head| {
                let task = &schema.tasks[&head.task];
                let answer = match (head.decode, &task.kind) {
                    (Decode::Single { bce: false }, TaskKind::Multiclass { classes }) => {
                        Answer::Multiclass(names(classes))
                    }
                    (Decode::PerElement { bce: false }, TaskKind::Multiclass { classes }) => {
                        Answer::MulticlassSeq(names(classes))
                    }
                    (Decode::Single { bce: true }, TaskKind::Bitvector { labels }) => {
                        Answer::Bits(names(labels))
                    }
                    (Decode::PerElement { bce: true }, TaskKind::Bitvector { labels }) => {
                        Answer::BitsSeq(names(labels))
                    }
                    (Decode::Select, TaskKind::Select) => Answer::Select(task.payload.clone()),
                    _ => Answer::Mismatch,
                };
                (Arc::from(head.task.as_str()), answer)
            })
            .collect();
        let slices = names(&space.slice_names);
        Self { model, space, signature, answers, slices }
    }

    /// The serving signature (stable across retrains of the same schema).
    pub fn signature(&self) -> &ServingSignature {
        &self.signature
    }

    /// The schema the loaded model was compiled from.
    pub fn schema(&self) -> &Schema {
        self.model.schema()
    }

    /// The feature space (vocabularies and slice names) of the loaded model.
    pub fn feature_space(&self) -> &FeatureSpace {
        &self.space
    }

    /// Validates a record against the schema and predicts all tasks:
    /// [`Server::predict_batch`] over a batch of one.
    pub fn predict(&self, record: &Record) -> Result<ServingResponse, StoreError> {
        self.predict_batch(std::slice::from_ref(record)).pop().expect("one result per record")
    }

    /// Validates and predicts a batch of records, returning one result per
    /// record in input order. Invalid records fail individually without
    /// poisoning the rest of the batch. Valid ones are encoded and run
    /// through the inference forward together, in chunks of at most 32, so
    /// each affine layer runs once per chunk and memory follows the chunk,
    /// not the input. Each response is built straight from the chunk's
    /// arena, with the names the server interned at load.
    pub fn predict_batch(&self, records: &[Record]) -> Vec<Result<ServingResponse, StoreError>> {
        let schema = self.model.schema();
        let mut out: Vec<Option<Result<ServingResponse, StoreError>>> =
            records.iter().map(|r| r.validate(schema).err().map(Err)).collect();
        let valid: Vec<usize> = (0..records.len()).filter(|&i| out[i].is_none()).collect();
        let mut dist = Vec::new();
        for chunk in valid.chunks(MAX_BATCH) {
            let examples: Vec<CompiledExample> = chunk
                .iter()
                .map(|&i| CompiledExample::from_record(&records[i], i, &self.space, schema))
                .collect();
            self.model.infer(&examples, |b, logits| {
                let i = chunk[b];
                out[i] = Some(self.respond(&records[i], &logits, &mut dist));
            });
        }
        out.into_iter().map(|r| r.expect("every slot filled")).collect()
    }

    /// Builds one record's response from its logits, read in place through
    /// the decode rules evaluation, dev selection and distillation read
    /// them through too (`infer.rs`), and answered with interned names.
    /// `dist` is scratch for a softmax. A head whose output disagrees with
    /// the schema's task kind is an error (a desynchronized artifact must
    /// not silently drop tasks from the response).
    fn respond(
        &self,
        record: &Record,
        logits: &Logits,
        dist: &mut Vec<f32>,
    ) -> Result<ServingResponse, StoreError> {
        let mut tasks = BTreeMap::new();
        let mut confidence = 1.0f32;
        for head in logits.heads() {
            let (task, answer) = &self.answers[head.index];
            let served = match answer {
                Answer::Multiclass(classes) => {
                    let (class, p) = head.softmax(dist);
                    confidence = confidence.min(p);
                    ServedOutput::Multiclass {
                        class: classes[class].clone(),
                        dist: classes.iter().cloned().zip(dist.iter().copied()).collect(),
                    }
                }
                Answer::MulticlassSeq(classes) => ServedOutput::MulticlassSeq {
                    classes: head.row_argmax().map(|class| classes[class].clone()).collect(),
                },
                Answer::Bits(labels) => ServedOutput::Bits { set: set_bits(labels, head.bits()) },
                Answer::BitsSeq(labels) => ServedOutput::BitsSeq {
                    rows: head.row_bits().map(|bits| set_bits(labels, bits)).collect(),
                },
                Answer::Select(payload) => {
                    let (index, p) = head.softmax(dist);
                    confidence = confidence.min(p);
                    let id = match record.payloads.get(payload) {
                        Some(PayloadValue::Set(els)) => {
                            els.get(index).map(|e| e.id.clone()).unwrap_or_default()
                        }
                        _ => String::new(),
                    };
                    ServedOutput::Select { index, id }
                }
                Answer::Mismatch => {
                    return Err(StoreError::Validation(format!(
                        "task '{task}': model output does not match the schema's task kind \
                         (artifact and schema are out of sync)"
                    )));
                }
            };
            tasks.insert(task.clone(), served);
        }
        let slices = self.slices.iter().cloned().zip(logits.slice_probs()).collect();
        Ok(ServingResponse { tasks, slices, confidence })
    }
}

/// The labels whose bit is set, in label order.
fn set_bits(labels: &[Arc<str>], bits: impl Iterator<Item = bool>) -> Vec<Arc<str>> {
    labels.iter().zip(bits).filter(|(_, set)| *set).map(|(l, _)| l.clone()).collect()
}

/// A synchronized large/small model pair trained on the same data (§2.4:
/// "the large model is often used to populate caches and do error analysis,
/// while the small model must meet SLA requirements").
#[derive(Clone, Serialize, Deserialize)]
pub struct ModelPair {
    /// The quality/analysis model.
    pub large: DeployableModel,
    /// The latency-constrained serving model.
    pub small: DeployableModel,
}

impl ModelPair {
    /// Both halves must share schema, signature and feature space — i.e. be
    /// drop-in interchangeable.
    pub fn synchronized(&self) -> bool {
        self.large.schema == self.small.schema
            && self.large.signature == self.small.signature
            && self.large.space.slice_names == self.small.space.slice_names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EncoderKind, ModelConfig};
    use crate::oracle::{self, RawLogits};
    use overton_nlp::{generate_workload, WorkloadConfig};
    use overton_store::{Dataset, PayloadKind, SetElement};
    use overton_tensor::{softmax_in_place, stable_sigmoid, ParamId};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn setup() -> (Dataset, FeatureSpace, CompiledModel) {
        let ds = generate_workload(&WorkloadConfig {
            n_train: 40,
            n_dev: 10,
            n_test: 10,
            seed: 51,
            ..Default::default()
        });
        let space = FeatureSpace::build_from_store(&ds.seal()).unwrap();
        let model = CompiledModel::compile(ds.schema(), &space, &ModelConfig::default(), None);
        (ds, space, model)
    }

    #[test]
    fn package_load_roundtrip_preserves_predictions() {
        let (ds, space, model) = setup();
        let artifact = DeployableModel::package(&model, &space, BTreeMap::new());
        let bytes = artifact.to_bytes();
        let loaded = DeployableModel::from_bytes(&bytes).unwrap();
        let server = Server::load(&loaded);
        let record = &ds.records()[ds.test_indices()[0]];
        let response = server.predict(record).unwrap();
        assert!(matches!(response.tasks.get("Intent"), Some(ServedOutput::Multiclass { .. })));
        // Same record through the original model must agree.
        let direct = Server::new(model, space, ds.schema().serving_signature());
        assert_eq!(response, direct.predict(record).unwrap());
    }

    #[test]
    fn serving_response_uses_label_names() {
        let (ds, space, model) = setup();
        let artifact = DeployableModel::package(&model, &space, BTreeMap::new());
        let server = Server::load(&artifact);
        let record = &ds.records()[ds.test_indices()[1]];
        let response = server.predict(record).unwrap();
        match &response.tasks["POS"] {
            ServedOutput::MulticlassSeq { classes } => {
                assert!(!classes.is_empty());
                assert!(classes.iter().all(|c| overton_nlp::POS_TAGS.contains(&&**c)));
            }
            other => panic!("unexpected POS output {other:?}"),
        }
        match &response.tasks["IntentArg"] {
            ServedOutput::Select { id, .. } => assert!(!id.is_empty()),
            other => panic!("unexpected IntentArg output {other:?}"),
        }
        assert!(!response.slices.is_empty());
    }

    #[test]
    fn invalid_record_rejected() {
        let (_, space, model) = setup();
        let artifact = DeployableModel::package(&model, &space, BTreeMap::new());
        let server = Server::load(&artifact);
        let bad = Record::new().with_label(
            "Intent",
            "w",
            overton_store::TaskLabel::MulticlassOne("NotAClass".into()),
        );
        assert!(server.predict(&bad).is_err());
    }

    #[test]
    fn mismatched_task_output_is_an_error_not_a_dropped_task() {
        let (ds, space, mut model) = setup();
        let record = &ds.records()[ds.test_indices()[0]];
        // A desynchronized artifact: the model's "Intent" head decodes bit
        // probabilities for a multiclass task. The response must be a
        // StoreError, not one with the task silently dropped.
        let head = model.inference.heads.iter_mut().find(|h| h.task == "Intent").expect("Intent");
        head.decode = Decode::Single { bce: true };
        let server = Server::new(model, space, ds.schema().serving_signature());
        let err = server.predict(record).unwrap_err();
        assert!(
            matches!(&err, StoreError::Validation(msg) if msg.contains("Intent")),
            "unexpected error {err}"
        );
    }

    /// The serving decode written afresh against one example's raw
    /// logits and the schema's names: the reference the server's
    /// responses must equal bit for bit.
    fn reference_response(
        schema: &Schema,
        slice_names: &[String],
        record: &Record,
        logits: &RawLogits,
    ) -> ServingResponse {
        let name = |n: &String| Arc::<str>::from(n.as_str());
        // The first largest value's index.
        let best = |xs: &[f32]| (0..xs.len()).fold(0, |b, i| if xs[i] > xs[b] { i } else { b });
        let softmax = |xs: &[f32]| {
            let mut dist = xs.to_vec();
            softmax_in_place(&mut dist);
            dist
        };
        let set = |labels: &[String], row: &[f32], on: fn(f32) -> bool| -> Vec<Arc<str>> {
            labels.iter().zip(row).filter(|(_, &x)| on(x)).map(|(l, _)| name(l)).collect()
        };
        let mut tasks = BTreeMap::new();
        let mut confidence = 1.0f32;
        for (task, _) in &logits.heads {
            let values = &logits.head(task).expect("a listed head");
            let def = &schema.tasks[task];
            let per_element =
                matches!(schema.payloads[&def.payload].kind, PayloadKind::Sequence { .. });
            let served = match (&def.kind, per_element) {
                (TaskKind::Multiclass { classes }, false) => {
                    let (class, dist) = (best(values), softmax(values));
                    confidence = confidence.min(dist[class]);
                    ServedOutput::Multiclass {
                        class: name(&classes[class]),
                        dist: classes.iter().map(name).zip(dist).collect(),
                    }
                }
                (TaskKind::Multiclass { classes }, true) => ServedOutput::MulticlassSeq {
                    classes: values
                        .chunks(classes.len())
                        .map(|r| name(&classes[best(r)]))
                        .collect(),
                },
                (TaskKind::Bitvector { labels }, false) => {
                    ServedOutput::Bits { set: set(labels, values, |x| stable_sigmoid(x) > 0.5) }
                }
                (TaskKind::Bitvector { labels }, true) => ServedOutput::BitsSeq {
                    rows: values
                        .chunks(labels.len())
                        .map(|row| set(labels, row, |x| x > 0.0))
                        .collect(),
                },
                (TaskKind::Select, _) => {
                    let (index, dist) = (best(values), softmax(values));
                    confidence = confidence.min(dist[index]);
                    let id = match record.payloads.get(&def.payload) {
                        Some(PayloadValue::Set(els)) => {
                            els.get(index).map(|e| e.id.clone()).unwrap_or_default()
                        }
                        _ => String::new(),
                    };
                    ServedOutput::Select { index, id }
                }
            };
            tasks.insert(name(task), served);
        }
        let slices = (slice_names.iter().map(name))
            .zip(logits.indicators.iter().map(|r| r.map(f32::from_bits)))
            .map(|(name, [out, member])| (name, stable_sigmoid(member - out)))
            .collect();
        ServingResponse { tasks, slices, confidence }
    }

    #[test]
    fn responses_are_bit_identical_to_decoding_the_prediction() {
        let ds = generate_workload(&WorkloadConfig {
            n_train: 60,
            n_dev: 15,
            n_test: 28,
            seed: 11,
            slice_rate: 0.3,
            ..Default::default()
        });
        let space = FeatureSpace::build_from_store(&ds.seal()).unwrap();
        let schema = oracle::every_branch_schema();
        let mut records: Vec<Record> = ds
            .test_indices()
            .iter()
            .map(|&i| {
                let mut record = ds.records()[i].clone();
                if let Some(entities) = record.payloads.get("entities").cloned() {
                    record.payloads.insert("mentions".into(), entities);
                }
                record
            })
            .collect();
        // An empty token sequence (the PAD path, with no entities left to
        // span it), an absent one, an empty entity set, and a crowd of
        // like mentions whose flat select distribution sets the response's
        // confidence, in the middle of the batch so segments on both sides
        // of them must line up.
        let unlabeled = |i: usize| Record { tasks: BTreeMap::new(), ..records[i].clone() };
        let mut empty_tokens = unlabeled(0);
        empty_tokens.payloads.insert("tokens".into(), PayloadValue::Sequence(vec![]));
        for set in ["entities", "mentions"] {
            empty_tokens.payloads.insert(set.into(), PayloadValue::Set(vec![]));
        }
        let mut absent_tokens = unlabeled(1);
        absent_tokens.payloads.remove("tokens");
        let mut no_entities = unlabeled(2);
        no_entities.payloads.insert("entities".into(), PayloadValue::Set(vec![]));
        let mut crowded = unlabeled(3);
        let mention = SetElement { id: "crowd".into(), span: (0, 1) };
        crowded.payloads.insert("mentions".into(), PayloadValue::Set(vec![mention; 24]));
        let middle = records.len() / 2;
        records.splice(middle..middle, [empty_tokens, absent_tokens, no_entities, crowded]);
        assert_eq!(records.len(), MAX_BATCH, "one forward over the whole batch");
        for record in &records {
            record.validate(&schema).expect("every record is served");
        }
        let examples: Vec<CompiledExample> = (records.iter().enumerate())
            .map(|(i, record)| CompiledExample::from_record(record, i, &space, &schema))
            .collect();

        let mut outputs = std::collections::HashSet::new();
        for encoder in oracle::ENCODERS {
            for slice_heads in [true, false] {
                let config = ModelConfig { encoder, slice_heads, ..Default::default() };
                let mut model = CompiledModel::compile(&schema, &space, &config, None);
                // Nonzero biases and off-init weights, so every add and
                // every sign of zero is exercised.
                let mut rng = SmallRng::seed_from_u64(7);
                let ids: Vec<ParamId> = model.params.ids().collect();
                for id in ids {
                    for x in model.params.value_mut(id).as_mut_slice() {
                        *x += rng.gen_range(-0.2f32..0.2);
                    }
                }
                let raw = oracle::raw_logits(&model, &examples);
                let server = Server::new(model, space.clone(), schema.serving_signature());
                let responses = server.predict_batch(&records);
                assert_eq!(responses.len(), records.len());
                for ((record, logits), response) in records.iter().zip(&raw).zip(responses) {
                    let want = reference_response(&schema, &space.slice_names, record, logits);
                    let got = response.expect("a valid record is answered");
                    assert_eq!(got, want, "{config:?}");
                    // The bytes `encode_predict_response` writes per answer.
                    assert_eq!(
                        serde_json::to_vec(&got).unwrap(),
                        serde_json::to_vec(&want).unwrap()
                    );
                    assert_eq!(got.slices.is_empty(), !slice_heads);
                    outputs.extend(got.tasks.values().map(std::mem::discriminant));
                }
            }
        }
        assert_eq!(outputs.len(), 5, "every served output kind must be built");
    }

    #[test]
    fn predict_batch_matches_predict_and_isolates_invalid_records() {
        let (ds, space, model) = setup();
        let artifact = DeployableModel::package(&model, &space, BTreeMap::new());
        let server = Server::load(&artifact);
        let mut records: Vec<Record> =
            ds.test_indices().iter().map(|&i| ds.records()[i].clone()).collect();
        // Poison the middle of the batch with an invalid record.
        let bad = Record::new().with_label(
            "Intent",
            "w",
            overton_store::TaskLabel::MulticlassOne("NotAClass".into()),
        );
        records.insert(records.len() / 2, bad);
        let results = server.predict_batch(&records);
        assert_eq!(results.len(), records.len());
        for (record, result) in records.iter().zip(&results) {
            match result {
                Ok(response) => {
                    assert_eq!(*response, server.predict(record).unwrap());
                    assert!((0.0..=1.0).contains(&response.confidence));
                }
                Err(_) => assert!(record.validate(ds.schema()).is_err()),
            }
        }
        assert_eq!(results.iter().filter(|r| r.is_err()).count(), 1);
    }

    #[test]
    fn predict_batch_edge_batches() {
        let (ds, space, model) = setup();
        let server = Server::load(&DeployableModel::package(&model, &space, BTreeMap::new()));
        assert!(server.predict_batch(&[]).is_empty());

        let bad = Record::new().with_label(
            "Intent",
            "w",
            overton_store::TaskLabel::MulticlassOne("NotAClass".into()),
        );
        let all_bad = server.predict_batch(&vec![bad.clone(); 3]);
        assert_eq!(all_bad.len(), 3);
        assert!(all_bad.iter().all(Result::is_err));

        // More than two chunks, with an invalid record shifting the chunk
        // boundaries off the input positions.
        let mut records: Vec<Record> = ds
            .test_indices()
            .iter()
            .cycle()
            .take(2 * MAX_BATCH + 5)
            .map(|&i| ds.records()[i].clone())
            .collect();
        records.insert(MAX_BATCH - 1, bad);
        let results = server.predict_batch(&records);
        assert_eq!(results.len(), records.len());
        for (record, result) in records.iter().zip(&results) {
            match result {
                Ok(response) => assert_eq!(*response, server.predict(record).unwrap()),
                Err(_) => assert!(record.validate(ds.schema()).is_err()),
            }
        }
        assert_eq!(results.iter().filter(|r| r.is_err()).count(), 1);
    }

    #[test]
    fn signature_stable_across_architectures() {
        let (ds, space, _) = setup();
        let a = CompiledModel::compile(
            ds.schema(),
            &space,
            &ModelConfig { encoder: EncoderKind::MeanBag, ..Default::default() },
            None,
        );
        let b = CompiledModel::compile(
            ds.schema(),
            &space,
            &ModelConfig { encoder: EncoderKind::Lstm, hidden_dim: 64, ..Default::default() },
            None,
        );
        let pa = DeployableModel::package(&a, &space, BTreeMap::new());
        let pb = DeployableModel::package(&b, &space, BTreeMap::new());
        assert_eq!(pa.signature, pb.signature, "model independence violated");
    }

    #[test]
    fn model_pair_synchronization() {
        let (ds, space, model) = setup();
        let small_cfg = ModelConfig { hidden_dim: 16, token_dim: 16, ..Default::default() };
        let small = CompiledModel::compile(ds.schema(), &space, &small_cfg, None);
        let pair = ModelPair {
            large: DeployableModel::package(&model, &space, BTreeMap::new()),
            small: DeployableModel::package(&small, &space, BTreeMap::new()),
        };
        assert!(pair.synchronized());
        assert!(pair.small.params.num_weights() < pair.large.params.num_weights());
    }
}
