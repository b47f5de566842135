//! The compiled multitask network: schema in, differentiable model out.
//!
//! Compilation follows the schema exactly (Figure 2b): every sequence
//! payload gets an embedding + encoder stack; singleton payloads aggregate
//! the payloads they reference; set payloads embed their elements and attach
//! the span of the range payload they point into. Task heads are derived
//! from task types (multiclass → softmax CE, bitvector → per-bit BCE,
//! select → pointer softmax over set elements). The schema never names an
//! architecture — the encoder family, sizes and aggregation all come from a
//! [`ModelConfig`] chosen by search, which is what makes the schema
//! *model-independent*.
//!
//! Slice-based learning (Chen et al., NeurIPS'19; paper §2.2) is compiled
//! in when `config.slice_heads` is set: per slice, an **indicator head**
//! predicts membership from the shared representation and an **expert
//! transform** adds slice-specific capacity; an attention combination
//! re-weights the shared representation before the example-level heads read
//! it. (Per-expert prediction heads from the original paper are folded into
//! the expert transforms — see DESIGN.md.)

use crate::config::{AggregationKind, EmbeddingKind, EncoderKind, ModelConfig};
use crate::features::{CompiledExample, FeatureSpace};
use crate::infer::{Decode, InferenceModel, MAX_BATCH};
use crate::pretrained::PretrainedEncoder;
use overton_store::{PayloadKind, Schema, TaskKind};
use overton_supervision::ProbLabel;
use overton_tensor::nn::{
    BiLstm, Conv1d, Dropout, Embedding, Linear, Lstm, MultiHeadSelfAttention,
};
use overton_tensor::{Graph, Matrix, NodeId, ParamStore};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// A sequence encoder producing `[T, hidden]` from `[T, token_dim]`.
#[derive(Debug, Clone)]
pub(crate) enum Encoder {
    MeanBag(Linear),
    Cnn(Conv1d),
    Lstm(Lstm),
    BiLstm(BiLstm),
    Attention { input_proj: Linear, attention: MultiHeadSelfAttention },
}

impl Encoder {
    fn build(
        store: &mut ParamStore,
        name: &str,
        kind: EncoderKind,
        token_dim: usize,
        hidden: usize,
        rng: &mut SmallRng,
    ) -> Self {
        match kind {
            EncoderKind::MeanBag => Encoder::MeanBag(Linear::new(
                store,
                &format!("{name}.proj"),
                token_dim,
                hidden,
                rng,
            )),
            EncoderKind::Cnn => {
                Encoder::Cnn(Conv1d::new(store, &format!("{name}.conv"), token_dim, hidden, 3, rng))
            }
            EncoderKind::Lstm => {
                Encoder::Lstm(Lstm::new(store, &format!("{name}.lstm"), token_dim, hidden, rng))
            }
            EncoderKind::BiLstm => {
                assert!(hidden.is_multiple_of(2), "BiLstm needs an even hidden size, got {hidden}");
                Encoder::BiLstm(BiLstm::new(
                    store,
                    &format!("{name}.bilstm"),
                    token_dim,
                    hidden / 2,
                    rng,
                ))
            }
            EncoderKind::Attention => {
                let heads = [4usize, 2, 1].into_iter().find(|h| hidden.is_multiple_of(*h)).unwrap();
                Encoder::Attention {
                    input_proj: Linear::new(
                        store,
                        &format!("{name}.inproj"),
                        token_dim,
                        hidden,
                        rng,
                    ),
                    attention: MultiHeadSelfAttention::new(
                        store,
                        &format!("{name}.attn"),
                        hidden,
                        heads,
                        rng,
                    ),
                }
            }
        }
    }

    fn forward(&self, g: &mut Graph, ps: &ParamStore, embedded: NodeId) -> NodeId {
        match self {
            Encoder::MeanBag(proj) => {
                let h = proj.forward(g, ps, embedded);
                g.relu(h)
            }
            Encoder::Cnn(conv) => {
                let h = conv.forward(g, ps, embedded);
                g.relu(h)
            }
            Encoder::Lstm(lstm) => lstm.forward(g, ps, embedded),
            Encoder::BiLstm(bilstm) => bilstm.forward(g, ps, embedded),
            Encoder::Attention { input_proj, attention } => {
                let projected = input_proj.forward(g, ps, embedded);
                let activated = g.tanh(projected);
                attention.forward(g, ps, activated)
            }
        }
    }
}

/// A task head bound to a payload.
#[derive(Debug, Clone)]
pub(crate) enum Head {
    /// Multiclass/bitvector over a sequence payload: logits per row.
    PerElement { payload: String, linear: Linear, bce: bool },
    /// Multiclass/bitvector over a singleton payload: logits on the shared
    /// representation.
    Single { linear: Linear, bce: bool },
    /// Select over a set payload: pointer scores per element.
    Select { payload: String, combine: Linear, score: Linear },
}

/// Slice-based learning heads.
#[derive(Debug, Clone)]
pub(crate) struct SliceModule {
    /// One membership indicator per slice (`[1,2]` logits each).
    pub(crate) indicators: Vec<Linear>,
    /// One expert transform per slice.
    pub(crate) experts: Vec<Linear>,
}

/// The compiled model: parameters plus the layer graph blueprint.
pub struct CompiledModel {
    schema: Schema,
    config: ModelConfig,
    /// All learnable weights.
    pub params: ParamStore,
    pub(crate) token_embedding: Embedding,
    pub(crate) entity_embedding: Embedding,
    pub(crate) encoders: BTreeMap<String, Encoder>,
    /// Learned fallback representation for payloads with no content.
    pub(crate) set_proj: Linear,
    pub(crate) heads: BTreeMap<String, Head>,
    pub(crate) slices: Option<SliceModule>,
    dropout: Dropout,
    pub(crate) hidden: usize,
    /// Singleton payloads in dependency order (bases first), computed once
    /// here so neither forward re-sorts the schema per example.
    pub(crate) singleton_order: Vec<String>,
    /// The f32 inference forward over these layers.
    pub(crate) inference: InferenceModel,
}

/// Everything a forward pass produces (node ids into the caller's graph).
pub struct ForwardPass {
    /// Per-task logits: `[T, K]` for sequence tasks, `[1, K]` for singleton
    /// tasks, `[1, k]` for select tasks (absent when the payload is empty).
    pub task_logits: BTreeMap<String, NodeId>,
    /// Per-slice indicator logits (`[1, 2]` each).
    pub indicator_logits: Vec<NodeId>,
}

/// A decoded prediction for one task.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskOutput {
    /// Singleton multiclass: winning class and the full distribution.
    Multiclass {
        /// Argmax class index.
        class: usize,
        /// Softmax distribution.
        dist: Vec<f32>,
    },
    /// Sequence multiclass: winning class per element.
    MulticlassSeq {
        /// Argmax class per sequence element.
        classes: Vec<usize>,
    },
    /// Singleton bitvector: thresholded bits and probabilities.
    Bits {
        /// `probs[i] > 0.5`.
        bits: Vec<bool>,
        /// Sigmoid probabilities.
        probs: Vec<f32>,
    },
    /// Sequence bitvector: thresholded bits per element.
    BitsSeq {
        /// Bits per sequence element.
        rows: Vec<Vec<bool>>,
    },
    /// Select: chosen element index and distribution over elements.
    Select {
        /// Argmax element.
        index: usize,
        /// Softmax distribution over set elements.
        dist: Vec<f32>,
    },
}

/// Decoded model output for one example.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Per-task outputs (a task is absent if its payload was empty).
    pub tasks: BTreeMap<String, TaskOutput>,
    /// Predicted slice-membership probabilities (empty without slice heads).
    pub slice_probs: Vec<f32>,
}

impl CompiledModel {
    /// Compiles a schema into a model. `pretrained` initializes the token
    /// embedding table (and is the "with-BERT" path of Figure 4b).
    pub fn compile(
        schema: &Schema,
        space: &FeatureSpace,
        config: &ModelConfig,
        pretrained: Option<&PretrainedEncoder>,
    ) -> Self {
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let mut params = ParamStore::new();
        let hidden = config.hidden_dim;

        let mut token_embedding = Embedding::new(
            &mut params,
            "tokens.embedding",
            space.token_vocab.len(),
            config.token_dim,
            &mut rng,
        );
        if let Some(pre) = pretrained {
            assert_eq!(
                config.embedding,
                EmbeddingKind::Pretrained,
                "pretrained artifact supplied but config.embedding is Learned"
            );
            token_embedding = pre.init_embedding(&mut params, &space.token_vocab, config.token_dim);
        }
        // A `Pretrained` config without an artifact is allowed: the serving
        // loader compiles the skeleton this way and then overwrites all
        // parameter values from the stored artifact.
        let entity_embedding = Embedding::new(
            &mut params,
            "entities.embedding",
            space.entity_vocab.len(),
            config.entity_dim,
            &mut rng,
        );

        // One encoder per sequence payload.
        let mut encoders = BTreeMap::new();
        for (name, def) in &schema.payloads {
            if matches!(def.kind, PayloadKind::Sequence { .. }) {
                encoders.insert(
                    name.clone(),
                    Encoder::build(
                        &mut params,
                        &format!("payload.{name}"),
                        config.encoder,
                        config.token_dim,
                        hidden,
                        &mut rng,
                    ),
                );
            }
        }

        // Set-element projection: entity embedding ++ span summary -> hidden.
        let set_proj =
            Linear::new(&mut params, "set.proj", config.entity_dim + hidden, hidden, &mut rng);

        // Task heads.
        let mut heads = BTreeMap::new();
        for (task, def) in &schema.tasks {
            let payload_kind = &schema.payloads[&def.payload].kind;
            let head = match (&def.kind, payload_kind) {
                (TaskKind::Multiclass { classes }, PayloadKind::Sequence { .. }) => {
                    Head::PerElement {
                        payload: def.payload.clone(),
                        linear: Linear::new(
                            &mut params,
                            &format!("head.{task}"),
                            hidden,
                            classes.len(),
                            &mut rng,
                        ),
                        bce: false,
                    }
                }
                (TaskKind::Bitvector { labels }, PayloadKind::Sequence { .. }) => {
                    Head::PerElement {
                        payload: def.payload.clone(),
                        linear: Linear::new(
                            &mut params,
                            &format!("head.{task}"),
                            hidden,
                            labels.len(),
                            &mut rng,
                        ),
                        bce: true,
                    }
                }
                (TaskKind::Multiclass { classes }, _) => Head::Single {
                    linear: Linear::new(
                        &mut params,
                        &format!("head.{task}"),
                        hidden,
                        classes.len(),
                        &mut rng,
                    ),
                    bce: false,
                },
                (TaskKind::Bitvector { labels }, _) => Head::Single {
                    linear: Linear::new(
                        &mut params,
                        &format!("head.{task}"),
                        hidden,
                        labels.len(),
                        &mut rng,
                    ),
                    bce: true,
                },
                (TaskKind::Select, _) => Head::Select {
                    payload: def.payload.clone(),
                    combine: Linear::new(
                        &mut params,
                        &format!("head.{task}.combine"),
                        2 * hidden,
                        hidden,
                        &mut rng,
                    ),
                    score: Linear::new(
                        &mut params,
                        &format!("head.{task}.score"),
                        hidden,
                        1,
                        &mut rng,
                    ),
                },
            };
            heads.insert(task.clone(), head);
        }

        // Slice heads.
        let slices = (config.slice_heads && !space.slice_names.is_empty()).then(|| SliceModule {
            indicators: space
                .slice_names
                .iter()
                .map(|s| {
                    Linear::new(&mut params, &format!("slice.{s}.indicator"), hidden, 2, &mut rng)
                })
                .collect(),
            experts: space
                .slice_names
                .iter()
                .map(|s| {
                    Linear::new(&mut params, &format!("slice.{s}.expert"), hidden, hidden, &mut rng)
                })
                .collect(),
        });

        let singleton_order = schema
            .payload_topo_order()
            .into_iter()
            .filter(|name| matches!(schema.payloads[name].kind, PayloadKind::Singleton))
            .collect();
        let inference = InferenceModel::f32(&encoders, &set_proj, &heads, slices.as_ref());
        Self {
            schema: schema.clone(),
            config: config.clone(),
            params,
            token_embedding,
            entity_embedding,
            encoders,
            set_proj,
            heads,
            slices,
            dropout: Dropout::new(config.dropout),
            hidden,
            singleton_order,
            inference,
        }
    }

    /// The schema this model was compiled from.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The architecture configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Number of scalar weights.
    pub fn num_weights(&self) -> usize {
        self.params.num_weights()
    }

    /// Whether slice heads were compiled in.
    pub fn has_slice_heads(&self) -> bool {
        self.slices.is_some()
    }

    /// Runs the network over one example on an autograd tape, emitting
    /// logits for every task whose payload has content. This is training's
    /// forward; inference runs tape-free through [`CompiledModel::predict`].
    pub fn forward(
        &self,
        g: &mut Graph,
        example: &CompiledExample,
        train: bool,
        rng: &mut SmallRng,
    ) -> ForwardPass {
        let ps = &self.params;

        // 1. Encode every sequence payload.
        let mut seq_enc: BTreeMap<&str, NodeId> = BTreeMap::new();
        for (name, encoder) in &self.encoders {
            let ids: &[usize] = match example.sequences.get(name) {
                Some(ids) if !ids.is_empty() => ids,
                _ => &[overton_nlp::PAD],
            };
            let embedded = self.token_embedding.forward(g, ps, ids);
            let encoded = encoder.forward(g, ps, embedded);
            let encoded = self.dropout.forward(g, encoded, train, rng);
            seq_enc.insert(name.as_str(), encoded);
        }

        // 2. Singleton payloads aggregate their base payloads.
        let mut single_repr: BTreeMap<&str, NodeId> = BTreeMap::new();
        for name in &self.singleton_order {
            let def = &self.schema.payloads[name];
            let mut parts: Vec<NodeId> = Vec::new();
            for base in &def.base {
                if let Some(&enc) = seq_enc.get(base.as_str()) {
                    parts.push(enc);
                } else if let Some(repr) = single_repr.get(base.as_str()) {
                    parts.push(*repr);
                }
            }
            let repr = if parts.is_empty() {
                g.constant(Matrix::zeros(1, self.hidden))
            } else {
                let stacked = g.concat_rows(&parts);
                match self.config.aggregation {
                    AggregationKind::Mean => g.mean_rows(stacked),
                    AggregationKind::Max => g.max_rows(stacked),
                }
            };
            single_repr.insert(name.as_str(), repr);
        }

        // 3. Shared example-level representation: mean of singleton reprs
        //    (or of aggregated sequence encodings when none exist).
        let shared = if single_repr.is_empty() {
            let pooled: Vec<NodeId> = seq_enc.values().map(|&enc| g.mean_rows(enc)).collect();
            if pooled.is_empty() {
                g.constant(Matrix::zeros(1, self.hidden))
            } else {
                let stacked = g.concat_rows(&pooled);
                g.mean_rows(stacked)
            }
        } else {
            let reprs: Vec<NodeId> = single_repr.values().copied().collect();
            let stacked = g.concat_rows(&reprs);
            g.mean_rows(stacked)
        };

        // 4. Slice-based re-weighting of the shared representation.
        let mut indicator_logits = Vec::new();
        let shared = if let Some(slices) = &self.slices {
            let mut weight_logits: Vec<NodeId> = vec![g.constant(Matrix::scalar(0.0))];
            let mut expert_reprs: Vec<NodeId> = vec![shared];
            for (indicator, expert) in slices.indicators.iter().zip(&slices.experts) {
                let logits = indicator.forward(g, ps, shared);
                indicator_logits.push(logits);
                // Membership confidence enters the attention as the logit
                // margin in favour of membership.
                let member = g.slice_cols(logits, 1, 2);
                let non_member = g.slice_cols(logits, 0, 1);
                let margin = g.sub(member, non_member);
                weight_logits.push(margin);
                let r = expert.forward(g, ps, shared);
                expert_reprs.push(g.relu(r));
            }
            let logits_row = g.concat_cols(&weight_logits);
            let attn = g.softmax_rows(logits_row); // [1, S+1]
            let mut combined: Option<NodeId> = None;
            for (i, &repr) in expert_reprs.iter().enumerate() {
                let w = g.slice_cols(attn, i, i + 1); // [1,1]
                let scaled = g.mul_row_scalar(repr, w);
                combined = Some(match combined {
                    None => scaled,
                    Some(acc) => g.add(acc, scaled),
                });
            }
            combined.expect("at least the base repr")
        } else {
            shared
        };

        // 5. Set payloads: per-element representations.
        let mut set_repr: BTreeMap<&str, (NodeId, usize)> = BTreeMap::new();
        for (name, def) in &self.schema.payloads {
            if !matches!(def.kind, PayloadKind::Set) {
                continue;
            }
            let Some(elements) = example.sets.get(name) else { continue };
            if elements.is_empty() {
                continue;
            }
            let range_enc = def.range.as_deref().and_then(|r| seq_enc.get(r).copied());
            let mut rows = Vec::with_capacity(elements.len());
            for &(entity_id, (lo, hi)) in elements {
                let emb = self.entity_embedding.forward(g, ps, &[entity_id]);
                let span_summary = match range_enc {
                    Some(enc) => {
                        let t_len = g.value(enc).rows();
                        let lo = lo.min(t_len.saturating_sub(1));
                        let hi = hi.clamp(lo + 1, t_len);
                        let span_rows: Vec<usize> = (lo..hi).collect();
                        let picked = g.select_rows(enc, &span_rows);
                        g.mean_rows(picked)
                    }
                    None => g.constant(Matrix::zeros(1, self.hidden)),
                };
                let cat = g.concat_cols(&[emb, span_summary]);
                let projected = self.set_proj.forward(g, ps, cat);
                rows.push(g.tanh(projected));
            }
            let stacked = g.concat_rows(&rows);
            set_repr.insert(name.as_str(), (stacked, elements.len()));
        }

        // 6. Task heads.
        let mut task_logits = BTreeMap::new();
        for (task, head) in &self.heads {
            match head {
                Head::PerElement { payload, linear, .. } => {
                    if let Some(&enc) = seq_enc.get(payload.as_str()) {
                        // Skip placeholder-only sequences (payload absent).
                        if example.sequences.get(payload).is_some_and(|ids| !ids.is_empty()) {
                            task_logits.insert(task.clone(), linear.forward(g, ps, enc));
                        }
                    }
                }
                Head::Single { linear, .. } => {
                    task_logits.insert(task.clone(), linear.forward(g, ps, shared));
                }
                Head::Select { payload, combine, score } => {
                    let Some(&(elements, k)) = set_repr.get(payload.as_str()) else { continue };
                    // Broadcast the shared repr to k rows, score each pair.
                    let context_rows = g.select_rows(shared, &vec![0; k]);
                    let paired = g.concat_cols(&[context_rows, elements]);
                    let hidden = combine.forward(g, ps, paired);
                    let activated = g.tanh(hidden);
                    let scores = score.forward(g, ps, activated); // [k,1]
                    task_logits.insert(task.clone(), g.transpose(scores)); // [1,k]
                }
            }
        }

        ForwardPass { task_logits, indicator_logits }
    }

    /// Builds the total training loss for one example: task losses against
    /// probabilistic targets plus (optionally) slice-indicator losses.
    /// Returns `None` when the example supervises nothing.
    pub fn loss(
        &self,
        g: &mut Graph,
        pass: &ForwardPass,
        example: &CompiledExample,
        indicator_loss_weight: f32,
    ) -> Option<NodeId> {
        let mut terms: Vec<NodeId> = Vec::new();
        for (task, target) in &example.targets {
            let Some(&logits) = pass.task_logits.get(task) else { continue };
            let Some(head) = self.heads.get(task) else { continue };
            let term = match (head, target) {
                (Head::PerElement { bce: false, .. }, ProbLabel::SeqDist(rows)) => {
                    let (t, k) = g.value(logits).shape();
                    if rows.len() != t {
                        continue;
                    }
                    let mut targets = Matrix::zeros(t, k);
                    let mut weights = vec![0.0f32; t];
                    for (i, row) in rows.iter().enumerate() {
                        if row.len() == k && row.iter().sum::<f32>() > 0.0 {
                            targets.row_mut(i).copy_from_slice(row);
                            weights[i] = 1.0;
                        }
                    }
                    if weights.iter().all(|&w| w == 0.0) {
                        continue;
                    }
                    g.cross_entropy(logits, &targets, &weights)
                }
                (Head::PerElement { bce: true, .. }, ProbLabel::SeqBits(rows)) => {
                    let (t, b) = g.value(logits).shape();
                    if rows.len() != t {
                        continue;
                    }
                    let mut targets = Matrix::zeros(t, b);
                    for (i, row) in rows.iter().enumerate() {
                        if row.len() == b {
                            targets.row_mut(i).copy_from_slice(row);
                        }
                    }
                    let mask = Matrix::ones(t, b);
                    g.bce_with_logits(logits, &targets, &mask)
                }
                (Head::Single { bce: false, .. }, ProbLabel::Dist(dist)) => {
                    let k = g.value(logits).cols();
                    if dist.len() != k {
                        continue;
                    }
                    let targets = Matrix::from_rows(std::slice::from_ref(dist));
                    g.cross_entropy(logits, &targets, &[1.0])
                }
                (Head::Single { bce: true, .. }, ProbLabel::Bits(bits)) => {
                    let b = g.value(logits).cols();
                    if bits.len() != b {
                        continue;
                    }
                    let targets = Matrix::from_rows(std::slice::from_ref(bits));
                    let mask = Matrix::ones(1, b);
                    g.bce_with_logits(logits, &targets, &mask)
                }
                (Head::Select { .. }, ProbLabel::Dist(dist)) => {
                    let k = g.value(logits).cols();
                    if dist.len() != k {
                        continue;
                    }
                    let targets = Matrix::from_rows(std::slice::from_ref(dist));
                    g.cross_entropy(logits, &targets, &[1.0])
                }
                _ => continue,
            };
            terms.push(term);
        }
        // Indicator supervision comes from slice tags, which are known on
        // every training record.
        if indicator_loss_weight > 0.0 {
            for (s, &logits) in pass.indicator_logits.iter().enumerate() {
                let member = example.slice_membership.get(s).copied().unwrap_or(false);
                let mut target = Matrix::zeros(1, 2);
                target[(0, usize::from(member))] = 1.0;
                let ce = g.cross_entropy(logits, &target, &[1.0]);
                terms.push(g.scale(ce, indicator_loss_weight));
            }
        }
        let mut total: Option<NodeId> = None;
        for term in terms {
            total = Some(match total {
                None => term,
                Some(acc) => g.add(acc, term),
            });
        }
        total
    }

    /// [`CompiledModel::predict_batch`] over a batch of one.
    pub fn predict(&self, example: &CompiledExample) -> Prediction {
        self.inference.predict(self, example)
    }

    /// Runs inference over a batch and decodes every task output, in input
    /// order: the tape-free [`InferenceModel::predict_batch`] with f32
    /// weights read in place, fed chunks of at most 32 examples so memory
    /// stays bounded whatever the input length. Outputs are bit-identical
    /// to decoding the tape [`CompiledModel::forward`] per example.
    pub fn predict_batch(&self, examples: &[CompiledExample]) -> Vec<Prediction> {
        examples
            .chunks(MAX_BATCH)
            .flat_map(|chunk| self.inference.predict_batch(self, chunk))
            .collect()
    }
}

impl Head {
    /// How this head's logits decode.
    pub(crate) fn decode(&self) -> Decode {
        match self {
            Head::PerElement { bce, .. } => Decode::PerElement { bce: *bce },
            Head::Single { bce, .. } => Decode::Single { bce: *bce },
            Head::Select { .. } => Decode::Select,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{gold_to_prob, FeatureSpace};
    use overton_nlp::{generate_workload, WorkloadConfig};
    use overton_store::Dataset;

    fn setup() -> (Dataset, FeatureSpace) {
        let ds = generate_workload(&WorkloadConfig {
            n_train: 60,
            n_dev: 15,
            n_test: 15,
            seed: 11,
            slice_rate: 0.3,
            ..Default::default()
        });
        let space = FeatureSpace::build(&ds);
        (ds, space)
    }

    fn compile(ds: &Dataset, space: &FeatureSpace, encoder: EncoderKind) -> CompiledModel {
        let config = ModelConfig { encoder, ..Default::default() };
        CompiledModel::compile(ds.schema(), space, &config, None)
    }

    #[test]
    fn forward_produces_all_task_logits() {
        let (ds, space) = setup();
        let model = compile(&ds, &space, EncoderKind::Cnn);
        let ex = CompiledExample::from_record(&ds.records()[0], 0, &space, ds.schema());
        let mut g = Graph::new();
        let mut rng = SmallRng::seed_from_u64(0);
        let pass = model.forward(&mut g, &ex, false, &mut rng);
        for task in ["Intent", "POS", "EntityType", "IntentArg"] {
            assert!(pass.task_logits.contains_key(task), "missing logits for {task}");
        }
        let t = ex.sequences["tokens"].len();
        assert_eq!(g.value(pass.task_logits["POS"]).shape(), (t, 8));
        assert_eq!(g.value(pass.task_logits["Intent"]).shape().0, 1);
        assert_eq!(g.value(pass.task_logits["IntentArg"]).cols(), ex.sets["entities"].len());
        assert_eq!(pass.indicator_logits.len(), space.slice_names.len());
    }

    #[test]
    fn every_encoder_kind_compiles_and_runs() {
        let (ds, space) = setup();
        for kind in [
            EncoderKind::MeanBag,
            EncoderKind::Cnn,
            EncoderKind::Lstm,
            EncoderKind::BiLstm,
            EncoderKind::Attention,
        ] {
            let model = compile(&ds, &space, kind);
            let ex = CompiledExample::from_record(&ds.records()[0], 0, &space, ds.schema());
            let pred = model.predict(&ex);
            assert!(pred.tasks.contains_key("Intent"), "{kind:?} lost the Intent head");
        }
    }

    #[test]
    fn loss_builds_and_backprops() {
        let (ds, space) = setup();
        let model = compile(&ds, &space, EncoderKind::Cnn);
        let i = ds.test_indices()[0];
        let record = &ds.records()[i];
        let mut ex = CompiledExample::from_record(record, i, &space, ds.schema());
        for task in ["Intent", "POS", "EntityType", "IntentArg"] {
            if let Some(p) = gold_to_prob(ds.schema(), record, task) {
                ex.targets.insert(task.to_string(), p);
            }
        }
        let mut g = Graph::new();
        let mut rng = SmallRng::seed_from_u64(0);
        let pass = model.forward(&mut g, &ex, true, &mut rng);
        let loss = model.loss(&mut g, &pass, &ex, 0.3).expect("has targets");
        assert!(g.value(loss).scalar_value() > 0.0);
        g.backward(loss);
        let mut params = model.params.clone();
        g.flush_grads(&mut params);
        assert!(params.grad_norm() > 0.0, "gradients must flow");
    }

    #[test]
    fn loss_none_without_targets() {
        let (ds, space) = setup();
        let config = ModelConfig { slice_heads: false, ..Default::default() };
        let model = CompiledModel::compile(ds.schema(), &space, &config, None);
        let ex = CompiledExample::from_record(&ds.records()[0], 0, &space, ds.schema());
        let mut g = Graph::new();
        let mut rng = SmallRng::seed_from_u64(0);
        let pass = model.forward(&mut g, &ex, true, &mut rng);
        assert!(model.loss(&mut g, &pass, &ex, 0.0).is_none());
    }

    #[test]
    fn predictions_decode_all_tasks() {
        let (ds, space) = setup();
        let model = compile(&ds, &space, EncoderKind::MeanBag);
        let ex = CompiledExample::from_record(&ds.records()[0], 0, &space, ds.schema());
        let pred = model.predict(&ex);
        assert!(matches!(pred.tasks["Intent"], TaskOutput::Multiclass { .. }));
        assert!(matches!(pred.tasks["POS"], TaskOutput::MulticlassSeq { .. }));
        assert!(matches!(pred.tasks["EntityType"], TaskOutput::BitsSeq { .. }));
        assert!(matches!(pred.tasks["IntentArg"], TaskOutput::Select { .. }));
        assert_eq!(pred.slice_probs.len(), space.slice_names.len());
        if let TaskOutput::Multiclass { dist, .. } = &pred.tasks["Intent"] {
            let s: f32 = dist.iter().sum();
            assert!((s - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn predict_batch_matches_per_example_predict() {
        let (ds, space) = setup();
        let model = compile(&ds, &space, EncoderKind::Cnn);
        let examples: Vec<CompiledExample> = ds
            .test_indices()
            .iter()
            .map(|&i| CompiledExample::from_record(&ds.records()[i], i, &space, ds.schema()))
            .collect();
        let batched = model.predict_batch(&examples);
        assert_eq!(batched.len(), examples.len());
        for (ex, pred) in examples.iter().zip(&batched) {
            assert_eq!(*pred, model.predict(ex), "batched path diverged");
        }
    }

    #[test]
    fn slice_heads_can_be_disabled() {
        let (ds, space) = setup();
        let config = ModelConfig { slice_heads: false, ..Default::default() };
        let model = CompiledModel::compile(ds.schema(), &space, &config, None);
        let ex = CompiledExample::from_record(&ds.records()[0], 0, &space, ds.schema());
        let pred = model.predict(&ex);
        assert!(pred.slice_probs.is_empty());
    }

    #[test]
    fn same_seed_same_weights() {
        let (ds, space) = setup();
        let a = compile(&ds, &space, EncoderKind::Cnn);
        let b = compile(&ds, &space, EncoderKind::Cnn);
        assert_eq!(a.num_weights(), b.num_weights());
        let ex = CompiledExample::from_record(&ds.records()[3], 3, &space, ds.schema());
        assert_eq!(a.predict(&ex), b.predict(&ex));
    }

    #[test]
    fn empty_entity_set_drops_select_task_only() {
        let (ds, space) = setup();
        let model = compile(&ds, &space, EncoderKind::Cnn);
        let mut ex = CompiledExample::from_record(&ds.records()[0], 0, &space, ds.schema());
        ex.sets.get_mut("entities").unwrap().clear();
        let pred = model.predict(&ex);
        assert!(!pred.tasks.contains_key("IntentArg"));
        assert!(pred.tasks.contains_key("Intent"));
    }
}
