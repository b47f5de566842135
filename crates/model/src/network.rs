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
use crate::infer::{set_elements, token_ids, Decode, InferenceModel, Segments, MAX_BATCH};
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
use std::ops::Range;

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
    pub(crate) dropout: Dropout,
    pub(crate) hidden: usize,
    /// Singleton payloads in dependency order (bases first), computed once
    /// here so neither forward re-sorts the schema per example.
    pub(crate) singleton_order: Vec<String>,
    /// The f32 inference forward over these layers.
    pub(crate) inference: InferenceModel,
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
        let inference = InferenceModel::lower(&encoders, &set_proj, &heads, slices.as_ref());
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

    /// Training's forward over one optimizer window, recorded on `g` with
    /// the examples' rows stacked: token rows per sequence payload, one row
    /// per example for singletons and the shared representation, one row
    /// per set element. Every affine layer runs once over its stack, with
    /// one parameter leaf per [`Graph::param_blocks`] block wherever a
    /// single-example tape makes one `param` call (per example, or per set
    /// element inside the element loop); only what mixes rows within an
    /// example — aggregation, the LSTM recurrence, attention scores, span
    /// means and the losses — runs per example, on row views.
    ///
    /// Ops go on the tape in a single-example tape's order and each row's
    /// arithmetic is the same, so every row's value and gradient, and every
    /// leaf's gradient, is the bits that example's own tape would compute.
    /// Dropout is on: example `b` draws its masks from `rngs[b]`, in the
    /// order its own tape would.
    pub(crate) fn forward_window<'p>(
        &'p self,
        g: &mut Graph<'p>,
        examples: &[&CompiledExample],
        rngs: &mut [SmallRng],
    ) -> WindowPass {
        let ps = &self.params;
        let (n, hidden) = (examples.len(), self.hidden);
        let unit = Segments::from_lens(std::iter::repeat_n(1, n));

        // 1. Encode every sequence payload; an absent or empty payload
        //    reads as a single PAD token.
        let mut seq_enc: BTreeMap<&str, (NodeId, Segments)> = BTreeMap::new();
        for (name, encoder) in &self.encoders {
            let ids = token_ids(examples.iter().copied(), name);
            let segs = Segments::from_lens(ids.iter().map(|ids| ids.len()));
            let embedded = gather(g, ps, &self.token_embedding, &ids.concat(), segs.blocks());
            let encoded = encode(g, ps, encoder, embedded, &segs);
            let lens: Vec<usize> = segs.iter().map(|rows| rows.len()).collect();
            let encoded = self.dropout.forward(g, encoded, true, &lens, rngs);
            seq_enc.insert(name.as_str(), (encoded, segs));
        }

        // 2. Singleton payloads aggregate their base payloads, per example.
        let mut single_repr: BTreeMap<&str, NodeId> = BTreeMap::new();
        for name in &self.singleton_order {
            let parts: Vec<(NodeId, &Segments)> = self.schema.payloads[name]
                .base
                .iter()
                .filter_map(|base| match seq_enc.get(base.as_str()) {
                    Some((enc, segs)) => Some((*enc, segs)),
                    None => single_repr.get(base.as_str()).map(|&repr| (repr, &unit)),
                })
                .collect();
            let repr = if parts.is_empty() {
                g.constant(Matrix::zeros(n, hidden))
            } else {
                let aggregated: Vec<NodeId> = (0..n)
                    .map(|b| {
                        let views: Vec<NodeId> = parts
                            .iter()
                            .map(|&(node, segs)| view(g, node, segs.range(b)))
                            .collect();
                        let stacked = concat_rows(g, &views);
                        match self.config.aggregation {
                            AggregationKind::Mean => g.mean_rows(stacked),
                            AggregationKind::Max => g.max_rows(stacked),
                        }
                    })
                    .collect();
                concat_rows(g, &aggregated)
            };
            single_repr.insert(name.as_str(), repr);
        }

        // 3. Shared example-level representation: mean of singleton reprs
        //    (or of pooled sequence encodings when none exist).
        let reprs: Vec<NodeId> = if single_repr.is_empty() {
            seq_enc.values().map(|(enc, segs)| segment_means(g, *enc, segs.iter())).collect()
        } else {
            single_repr.values().copied().collect()
        };
        let shared = if reprs.is_empty() {
            g.constant(Matrix::zeros(n, hidden))
        } else {
            // Row by row, this is `mean_rows` over one row per part: the
            // same products, summed in the same order.
            let inv = 1.0 / reprs.len() as f32;
            let scaled: Vec<NodeId> = reprs.iter().map(|&r| g.scale(r, inv)).collect();
            sum(g, &scaled).expect("at least one part")
        };

        // 4. Slice-based re-weighting of the shared representation.
        let unit_blocks = unit.blocks();
        let mut indicator_logits = Vec::new();
        let shared = if let Some(slices) = &self.slices {
            let mut weight_logits: Vec<NodeId> = vec![g.constant(Matrix::zeros(n, 1))];
            let mut expert_reprs: Vec<NodeId> = vec![shared];
            for (indicator, expert) in slices.indicators.iter().zip(&slices.experts) {
                let logits = affine(g, ps, indicator, shared, &unit_blocks);
                indicator_logits.push(logits);
                // Membership confidence enters the attention as the logit
                // margin in favour of membership.
                let member = g.slice_cols(logits, 1, 2);
                let non_member = g.slice_cols(logits, 0, 1);
                let margin = g.sub(member, non_member);
                weight_logits.push(margin);
                let r = affine(g, ps, expert, shared, &unit_blocks);
                expert_reprs.push(g.relu(r));
            }
            let logits_rows = g.concat_cols(&weight_logits);
            let attn = g.softmax_rows(logits_rows); // [n, S+1]
            let scaled: Vec<NodeId> = expert_reprs
                .iter()
                .enumerate()
                .map(|(i, &repr)| {
                    let w = g.slice_cols(attn, i, i + 1); // [n, 1]
                    g.mul_row_scalar(repr, w)
                })
                .collect();
            sum(g, &scaled).expect("at least the base repr")
        } else {
            shared
        };

        // 5. Set payloads: one row per element of the whole window, entity
        //    embedding joined with the mean encoding of its span.
        let mut set_repr: BTreeMap<&str, (NodeId, Segments)> = BTreeMap::new();
        for (name, def) in &self.schema.payloads {
            if !matches!(def.kind, PayloadKind::Set) {
                continue;
            }
            let sets = set_elements(examples.iter().copied(), name);
            let segs = Segments::from_lens(sets.iter().map(|els| els.len()));
            if segs.total() == 0 {
                continue;
            }
            // A single-example tape brings the entity table and `set_proj`
            // in once per element: one block each.
            let element_blocks: Vec<(usize, Range<usize>)> =
                segs.owners().into_iter().enumerate().map(|(row, b)| (b, row..row + 1)).collect();
            let entity_ids: Vec<usize> =
                sets.iter().flat_map(|els| els.iter().map(|e| e.0)).collect();
            let emb = gather(g, ps, &self.entity_embedding, &entity_ids, element_blocks.clone());
            let span_summary = match def.range.as_deref().and_then(|r| seq_enc.get(r)) {
                Some((enc, enc_segs)) => {
                    let spans = sets.iter().enumerate().flat_map(|(b, elements)| {
                        elements.iter().map(move |&(_, span)| enc_segs.span(b, span))
                    });
                    segment_means(g, *enc, spans)
                }
                None => g.constant(Matrix::zeros(segs.total(), hidden)),
            };
            let cat = g.concat_cols(&[emb, span_summary]);
            let projected = affine(g, ps, &self.set_proj, cat, &element_blocks);
            set_repr.insert(name.as_str(), (g.tanh(projected), segs));
        }

        // 6. Task heads, each over its whole stack.
        let mut task_logits = BTreeMap::new();
        for (task, head) in &self.heads {
            let (logits, rows) = match head {
                Head::PerElement { payload, linear, .. } => {
                    let Some((enc, segs)) = seq_enc.get(payload.as_str()) else { continue };
                    // Skip placeholder-only sequences (payload absent).
                    let present: Vec<bool> = examples
                        .iter()
                        .map(|ex| ex.sequences.get(payload).is_some_and(|ids| !ids.is_empty()))
                        .collect();
                    let (x, kept) = if present.iter().all(|&p| p) {
                        (*enc, Segments::from_lens(segs.iter().map(|r| r.len())))
                    } else {
                        let rows: Vec<usize> = segs
                            .iter()
                            .zip(&present)
                            .filter(|(_, &p)| p)
                            .flat_map(|(r, _)| r)
                            .collect();
                        if rows.is_empty() {
                            continue;
                        }
                        let lens =
                            segs.iter().zip(&present).map(|(r, &p)| if p { r.len() } else { 0 });
                        (g.select_rows(*enc, &rows), Segments::from_lens(lens))
                    };
                    let logits = affine(g, ps, linear, x, &kept.blocks());
                    (logits, kept.iter().map(|r| Some(r).filter(|r| !r.is_empty())).collect())
                }
                Head::Single { linear, .. } => {
                    let logits = affine(g, ps, linear, shared, &unit_blocks);
                    (logits, unit.iter().map(Some).collect())
                }
                Head::Select { payload, combine, score } => {
                    let Some((elements, segs)) = set_repr.get(payload.as_str()) else { continue };
                    // Pair each element with its example's shared repr,
                    // score each pair.
                    let context = g.select_rows(shared, &segs.owners());
                    let paired = g.concat_cols(&[context, *elements]);
                    let blocks = segs.blocks();
                    let hidden = affine(g, ps, combine, paired, &blocks);
                    let activated = g.tanh(hidden);
                    let scores = affine(g, ps, score, activated, &blocks); // [elements, 1]
                    (scores, segs.iter().map(|r| Some(r).filter(|r| !r.is_empty())).collect())
                }
            };
            task_logits.insert(task.clone(), WindowLogits { logits, rows });
        }

        WindowPass { task_logits, indicator_logits }
    }

    /// Each example's total training loss over a window's forward: task
    /// losses against probabilistic targets plus (optionally) slice-indicator
    /// losses, built on views of that example's logit rows in a
    /// single-example tape's order. `None` where an example supervises
    /// nothing.
    pub(crate) fn window_losses(
        &self,
        g: &mut Graph,
        pass: &WindowPass,
        examples: &[&CompiledExample],
        indicator_loss_weight: f32,
    ) -> Vec<Option<NodeId>> {
        let mut totals = Vec::with_capacity(examples.len());
        for (b, example) in examples.iter().enumerate() {
            let mut terms: Vec<NodeId> = Vec::new();
            for (task, target) in &example.targets {
                let Some(WindowLogits { logits, rows }) = pass.task_logits.get(task) else {
                    continue;
                };
                let Some(rows) = rows[b].clone() else { continue };
                let Some(head) = self.heads.get(task) else { continue };
                let (t, k) = (rows.len(), g.value(*logits).cols());
                let term = match (head, target) {
                    (Head::PerElement { bce: false, .. }, ProbLabel::SeqDist(dists)) => {
                        if dists.len() != t {
                            continue;
                        }
                        let mut targets = Matrix::zeros(t, k);
                        let mut weights = vec![0.0f32; t];
                        for (i, row) in dists.iter().enumerate() {
                            if row.len() == k && row.iter().sum::<f32>() > 0.0 {
                                targets.row_mut(i).copy_from_slice(row);
                                weights[i] = 1.0;
                            }
                        }
                        if weights.iter().all(|&w| w == 0.0) {
                            continue;
                        }
                        let logits = view(g, *logits, rows);
                        g.cross_entropy(logits, &targets, &weights)
                    }
                    (Head::PerElement { bce: true, .. }, ProbLabel::SeqBits(bits)) => {
                        if bits.len() != t {
                            continue;
                        }
                        let mut targets = Matrix::zeros(t, k);
                        for (i, row) in bits.iter().enumerate() {
                            if row.len() == k {
                                targets.row_mut(i).copy_from_slice(row);
                            }
                        }
                        let logits = view(g, *logits, rows);
                        g.bce_with_logits(logits, &targets, &Matrix::ones(t, k))
                    }
                    (Head::Single { bce: false, .. }, ProbLabel::Dist(dist)) => {
                        if dist.len() != k {
                            continue;
                        }
                        let logits = view(g, *logits, rows);
                        g.cross_entropy(logits, &Matrix::row_vector(dist), &[1.0])
                    }
                    (Head::Single { bce: true, .. }, ProbLabel::Bits(bits)) => {
                        if bits.len() != k {
                            continue;
                        }
                        let logits = view(g, *logits, rows);
                        g.bce_with_logits(logits, &Matrix::row_vector(bits), &Matrix::ones(1, k))
                    }
                    (Head::Select { .. }, ProbLabel::Dist(dist)) => {
                        // The example's element scores, as one `[1, k]` row.
                        if dist.len() != t {
                            continue;
                        }
                        let scores = view(g, *logits, rows);
                        let logits = g.transpose(scores);
                        g.cross_entropy(logits, &Matrix::row_vector(dist), &[1.0])
                    }
                    _ => continue,
                };
                terms.push(term);
            }
            // Indicator supervision comes from slice tags, which are known
            // on every training record.
            if indicator_loss_weight > 0.0 {
                for (s, &logits) in pass.indicator_logits.iter().enumerate() {
                    let member = example.slice_membership.get(s).copied().unwrap_or(false);
                    let mut target = Matrix::zeros(1, 2);
                    target[(0, usize::from(member))] = 1.0;
                    let logits = g.slice_rows(logits, b, b + 1);
                    let ce = g.cross_entropy(logits, &target, &[1.0]);
                    terms.push(g.scale(ce, indicator_loss_weight));
                }
            }
            totals.push(sum(g, &terms));
        }
        totals
    }

    /// [`CompiledModel::predict_batch`] over a batch of one.
    pub fn predict(&self, example: &CompiledExample) -> Prediction {
        self.inference.predict(self, example)
    }

    /// Runs inference over a batch and decodes every task output, in input
    /// order: the tape-free inference forward with f32 weights read in
    /// place, fed chunks of at most 32 examples so memory stays bounded
    /// whatever the input length. Outputs are bit-identical to decoding a
    /// single-example training tape per example.
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

/// A window forward's outputs (node ids into the caller's graph).
pub(crate) struct WindowPass {
    /// Per task, the head's logits over the whole window.
    task_logits: BTreeMap<String, WindowLogits>,
    /// Per slice, indicator logits: one `[non-member, member]` row per
    /// example.
    indicator_logits: Vec<NodeId>,
}

/// One head's row-stacked logits.
struct WindowLogits {
    logits: NodeId,
    /// The logit rows each example owns (`None`: no output for it). A
    /// select head's rows are its element scores, one per row.
    rows: Vec<Option<Range<usize>>>,
}

/// Rows `rows` of a node (the node itself when that is all of it).
fn view(g: &mut Graph, node: NodeId, rows: Range<usize>) -> NodeId {
    if rows == (0..g.value(node).rows()) {
        node
    } else {
        g.slice_rows(node, rows.start, rows.end)
    }
}

/// `parts` stacked by rows (a single part as it is).
fn concat_rows(g: &mut Graph, parts: &[NodeId]) -> NodeId {
    match parts {
        [part] => *part,
        _ => g.concat_rows(parts),
    }
}

/// `((t0 + t1) + t2) + ...`, or `None` without terms.
fn sum(g: &mut Graph, terms: &[NodeId]) -> Option<NodeId> {
    terms.iter().copied().reduce(|acc, term| g.add(acc, term))
}

/// The mean of each span of `x`'s rows, one row per span. Spans may
/// overlap: the backward sweep adds each span's gradient into `x` in
/// reverse span order, as a tape running one span at a time would.
fn segment_means(
    g: &mut Graph,
    x: NodeId,
    spans: impl IntoIterator<Item = Range<usize>>,
) -> NodeId {
    let means: Vec<NodeId> = spans
        .into_iter()
        .map(|rows| {
            let rows = view(g, x, rows);
            g.mean_rows(rows)
        })
        .collect();
    concat_rows(g, &means)
}

/// `x W + b` over row-stacked `x`, with one weight (and bias) leaf per
/// `(example, rows)` block.
fn affine<'p>(
    g: &mut Graph<'p>,
    ps: &'p ParamStore,
    linear: &Linear,
    x: NodeId,
    blocks: &[(usize, Range<usize>)],
) -> NodeId {
    let w = g.param_blocks(ps, linear.weight_id(), blocks.iter().cloned());
    let xw = g.matmul(x, w);
    match linear.bias_id() {
        Some(b) => {
            let bn = g.param_blocks(ps, b, blocks.iter().cloned());
            g.add_row_broadcast(xw, bn)
        }
        None => xw,
    }
}

/// Embedding lookup of stacked `ids`, with one table leaf per block.
///
/// # Panics
/// Panics if any id is out of vocabulary.
fn gather<'p>(
    g: &mut Graph<'p>,
    ps: &'p ParamStore,
    embedding: &Embedding,
    ids: &[usize],
    blocks: impl IntoIterator<Item = (usize, Range<usize>)>,
) -> NodeId {
    assert!(
        ids.iter().all(|&i| i < embedding.vocab()),
        "embedding id out of vocabulary (vocab = {})",
        embedding.vocab()
    );
    let table = g.param_blocks(ps, embedding.table(), blocks);
    g.select_rows(table, ids)
}

/// A sequence encoder over the row-stacked embeddings `x` of a window:
/// affine layers once over the stack, the rest per example.
fn encode<'p>(
    g: &mut Graph<'p>,
    ps: &'p ParamStore,
    encoder: &Encoder,
    x: NodeId,
    segs: &Segments,
) -> NodeId {
    let blocks = segs.blocks();
    match encoder {
        Encoder::MeanBag(proj) => {
            let h = affine(g, ps, proj, x, &blocks);
            g.relu(h)
        }
        Encoder::Cnn(conv) => {
            // Windows never reach across an example boundary.
            let k = conv.kernel();
            let unfolded: Vec<NodeId> = segs
                .iter()
                .map(|rows| {
                    let rows = view(g, x, rows);
                    g.im2row(rows, k, k / 2)
                })
                .collect();
            let unfolded = concat_rows(g, &unfolded);
            let w = g.param_blocks(ps, conv.weight_id(), blocks.iter().cloned());
            let b = g.param_blocks(ps, conv.bias_id(), blocks);
            let h = g.matmul(unfolded, w);
            let h = g.add_row_broadcast(h, b);
            g.relu(h)
        }
        Encoder::Lstm(lstm) => recur(g, ps, lstm, x, segs),
        Encoder::BiLstm(bilstm) => {
            let f = recur(g, ps, bilstm.fwd(), x, segs);
            // Each example's rows reversed in place.
            let rev: Vec<usize> = segs.iter().flat_map(Iterator::rev).collect();
            let rev_in = g.select_rows(x, &rev);
            let b_rev = recur(g, ps, bilstm.bwd(), rev_in, segs);
            let b = g.select_rows(b_rev, &rev);
            g.concat_cols(&[f, b])
        }
        Encoder::Attention { input_proj, attention } => {
            let projected = affine(g, ps, input_proj, x, &blocks);
            let activated = g.tanh(projected);
            let q = affine(g, ps, attention.wq(), activated, &blocks);
            let k = affine(g, ps, attention.wk(), activated, &blocks);
            let v = affine(g, ps, attention.wv(), activated, &blocks);
            let attended: Vec<NodeId> = segs
                .iter()
                .map(|rows| {
                    let q = view(g, q, rows.clone());
                    let k = view(g, k, rows.clone());
                    let v = view(g, v, rows);
                    attention.attend(g, q, k, v)
                })
                .collect();
            let attended = concat_rows(g, &attended);
            affine(g, ps, attention.wo(), attended, &blocks)
        }
    }
}

/// An LSTM over a window: the input projection once over the stack, the
/// recurrence per example with that example's recurrent weight and bias
/// leaves.
fn recur<'p>(
    g: &mut Graph<'p>,
    ps: &'p ParamStore,
    lstm: &Lstm,
    xs: NodeId,
    segs: &Segments,
) -> NodeId {
    let wx = g.param_blocks(ps, lstm.wx_id(), segs.blocks());
    let xw_all = g.matmul(xs, wx);
    let mut outputs = Vec::with_capacity(segs.total());
    for (b, rows) in segs.iter().enumerate() {
        let wh = g.param_blocks(ps, lstm.wh_id(), [(b, 0..1)]);
        let bias = g.param_blocks(ps, lstm.bias_id(), [(b, 0..1)]);
        outputs.extend(lstm.recur(g, xw_all, rows, wh, bias));
    }
    g.concat_rows(&outputs)
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
        let space = FeatureSpace::build_from_store(&ds.seal()).unwrap();
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
        let exs: Vec<CompiledExample> = (0..3)
            .map(|i| CompiledExample::from_record(&ds.records()[i], i, &space, ds.schema()))
            .collect();
        let window: Vec<&CompiledExample> = exs.iter().collect();
        let mut g = Graph::new();
        let mut rngs: Vec<SmallRng> = (0..3).map(SmallRng::seed_from_u64).collect();
        let pass = model.forward_window(&mut g, &window, &mut rngs);
        for task in ["Intent", "POS", "EntityType", "IntentArg"] {
            assert!(pass.task_logits.contains_key(task), "missing logits for {task}");
        }
        for (b, ex) in exs.iter().enumerate() {
            let rows = |task: &str| pass.task_logits[task].rows[b].clone().expect("has rows");
            assert_eq!(rows("POS").len(), ex.sequences["tokens"].len());
            assert_eq!(rows("Intent").len(), 1);
            assert_eq!(rows("IntentArg").len(), ex.sets["entities"].len());
        }
        assert_eq!(g.value(pass.task_logits["POS"].logits).cols(), 8);
        assert_eq!(pass.indicator_logits.len(), space.slice_names.len());
        assert_eq!(g.value(pass.indicator_logits[0]).shape(), (3, 2));
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
        let mut rngs = [SmallRng::seed_from_u64(0)];
        let pass = model.forward_window(&mut g, &[&ex], &mut rngs);
        let loss = model.window_losses(&mut g, &pass, &[&ex], 0.3)[0].expect("has targets");
        assert!(g.value(loss).scalar_value() > 0.0);
        g.backward(loss);
        let mut params = model.params.clone();
        for (pid, grad) in g.take_param_grads().into_iter().flatten() {
            params.grad_mut(pid).add_assign(&grad);
        }
        assert!(params.grad_norm() > 0.0, "gradients must flow");
    }

    #[test]
    fn loss_none_without_targets() {
        let (ds, space) = setup();
        let config = ModelConfig { slice_heads: false, ..Default::default() };
        let model = CompiledModel::compile(ds.schema(), &space, &config, None);
        let ex = CompiledExample::from_record(&ds.records()[0], 0, &space, ds.schema());
        let mut g = Graph::new();
        let mut rngs = [SmallRng::seed_from_u64(0)];
        let pass = model.forward_window(&mut g, &[&ex], &mut rngs);
        assert!(model.window_losses(&mut g, &pass, &[&ex], 0.0)[0].is_none());
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
