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
use crate::infer::MAX_BATCH;
use crate::network::{CompiledModel, Prediction, TaskOutput};
use overton_store::{Record, Schema, ServingSignature, StoreError, TaskKind};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

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

/// One served task output, decoded to label names.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServedOutput {
    /// Singleton multiclass: class name + distribution over class names.
    Multiclass {
        /// Winning class name.
        class: String,
        /// `(class, probability)` pairs.
        dist: Vec<(String, f32)>,
    },
    /// Sequence multiclass: one class name per element.
    MulticlassSeq {
        /// Class name per element.
        classes: Vec<String>,
    },
    /// Singleton bitvector: names of the set bits.
    Bits {
        /// Set bits.
        set: Vec<String>,
    },
    /// Sequence bitvector: set-bit names per element.
    BitsSeq {
        /// Set bits per element.
        rows: Vec<Vec<String>>,
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
    pub tasks: BTreeMap<String, ServedOutput>,
    /// Predicted slice memberships (name, probability).
    pub slices: Vec<(String, f32)>,
    /// Response confidence: the minimum top-probability across the tasks
    /// that produce a distribution (multiclass and select heads); `1.0`
    /// when no such task fired. The model-pair cascade (§2.4) escalates
    /// low-confidence responses from the small model to the large one.
    pub confidence: f32,
}

/// A loaded model ready to answer queries.
pub struct Server {
    model: CompiledModel,
    space: FeatureSpace,
    signature: ServingSignature,
}

impl Server {
    /// Loads an artifact into a runnable server.
    pub fn load(artifact: &DeployableModel) -> Self {
        Self {
            model: artifact.instantiate(),
            space: artifact.space.clone(),
            signature: artifact.signature.clone(),
        }
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
    /// not the input.
    pub fn predict_batch(&self, records: &[Record]) -> Vec<Result<ServingResponse, StoreError>> {
        let schema = self.model.schema();
        let mut out: Vec<Option<Result<ServingResponse, StoreError>>> =
            records.iter().map(|r| r.validate(schema).err().map(Err)).collect();
        let valid: Vec<usize> = (0..records.len()).filter(|&i| out[i].is_none()).collect();
        for chunk in valid.chunks(MAX_BATCH) {
            let examples: Vec<CompiledExample> = chunk
                .iter()
                .map(|&i| CompiledExample::from_record(&records[i], i, &self.space, schema))
                .collect();
            let predictions = self.model.inference.predict_batch(&self.model, &examples);
            for (&i, prediction) in chunk.iter().zip(&predictions) {
                out[i] = Some(self.decode_response(&records[i], prediction));
            }
        }
        out.into_iter().map(|r| r.expect("every slot filled")).collect()
    }

    /// Decodes a raw prediction into label-named outputs. A task whose
    /// output shape disagrees with the schema's task kind is an error (a
    /// desynchronized artifact must not silently drop tasks from the
    /// response).
    fn decode_response(
        &self,
        record: &Record,
        prediction: &Prediction,
    ) -> Result<ServingResponse, StoreError> {
        let schema = self.model.schema();
        let mut tasks = BTreeMap::new();
        let mut confidence = 1.0f32;
        for (task, output) in &prediction.tasks {
            let kind = &schema.tasks[task].kind;
            let served = match (output, kind) {
                (TaskOutput::Multiclass { class, dist }, TaskKind::Multiclass { classes }) => {
                    confidence = confidence.min(dist.get(*class).copied().unwrap_or(0.0));
                    ServedOutput::Multiclass {
                        class: classes[*class].clone(),
                        dist: classes.iter().cloned().zip(dist.iter().copied()).collect(),
                    }
                }
                (
                    TaskOutput::MulticlassSeq { classes: preds },
                    TaskKind::Multiclass { classes },
                ) => ServedOutput::MulticlassSeq {
                    classes: preds.iter().map(|&c| classes[c].clone()).collect(),
                },
                (TaskOutput::Bits { bits, .. }, TaskKind::Bitvector { labels }) => {
                    ServedOutput::Bits {
                        set: labels
                            .iter()
                            .zip(bits)
                            .filter(|(_, &b)| b)
                            .map(|(l, _)| l.clone())
                            .collect(),
                    }
                }
                (TaskOutput::BitsSeq { rows }, TaskKind::Bitvector { labels }) => {
                    ServedOutput::BitsSeq {
                        rows: rows
                            .iter()
                            .map(|row| {
                                labels
                                    .iter()
                                    .zip(row)
                                    .filter(|(_, &b)| b)
                                    .map(|(l, _)| l.clone())
                                    .collect()
                            })
                            .collect(),
                    }
                }
                (TaskOutput::Select { index, dist }, TaskKind::Select) => {
                    confidence = confidence.min(dist.get(*index).copied().unwrap_or(0.0));
                    let id = match record.payloads.get(&schema.tasks[task].payload) {
                        Some(overton_store::PayloadValue::Set(els)) => {
                            els.get(*index).map(|e| e.id.clone()).unwrap_or_default()
                        }
                        _ => String::new(),
                    };
                    ServedOutput::Select { index: *index, id }
                }
                _ => {
                    return Err(StoreError::Validation(format!(
                        "task '{task}': model output does not match the schema's task kind \
                         (artifact and schema are out of sync)"
                    )));
                }
            };
            tasks.insert(task.clone(), served);
        }
        let slices = self
            .space
            .slice_names
            .iter()
            .cloned()
            .zip(prediction.slice_probs.iter().copied())
            .collect();
        Ok(ServingResponse { tasks, slices, confidence })
    }
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
    use overton_nlp::{generate_workload, WorkloadConfig};
    use overton_store::Dataset;

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
        // Same record through the original model must agree.
        let example = CompiledExample::from_record(record, 0, &space, ds.schema());
        let direct = model.predict(&example);
        if let (
            Some(ServedOutput::Multiclass { class, .. }),
            Some(TaskOutput::Multiclass { class: idx, .. }),
        ) = (response.tasks.get("Intent"), direct.tasks.get("Intent"))
        {
            let classes = match &ds.schema().tasks["Intent"].kind {
                TaskKind::Multiclass { classes } => classes,
                _ => unreachable!(),
            };
            assert_eq!(*class, classes[*idx]);
        } else {
            panic!("Intent output missing");
        }
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
                assert!(classes.iter().all(|c| overton_nlp::POS_TAGS.contains(&c.as_str())));
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
        let (ds, space, model) = setup();
        let artifact = DeployableModel::package(&model, &space, BTreeMap::new());
        let server = Server::load(&artifact);
        let record = &ds.records()[ds.test_indices()[0]];
        // A desynchronized artifact: the model emitted bit probabilities for
        // the multiclass "Intent" task. The old behaviour silently dropped
        // the task from the response; it must be a StoreError instead.
        let mut prediction =
            model.predict(&CompiledExample::from_record(record, 0, &space, ds.schema()));
        prediction
            .tasks
            .insert("Intent".into(), TaskOutput::Bits { bits: vec![true], probs: vec![0.9] });
        let err = server.decode_response(record, &prediction).unwrap_err();
        assert!(
            matches!(&err, StoreError::Validation(msg) if msg.contains("Intent")),
            "unexpected error {err}"
        );
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
