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
//!
//! Compilation builds these layers, registering their parameters, and
//! lowers them once into the [`Plan`] that both executors run: inference
//! in place over one arena per batch (`infer.rs`), and training, which
//! replays the same steps onto an autograd tape ([`Plan::record`]).

use crate::config::{AggregationKind, EmbeddingKind, EncoderKind, ModelConfig};
use crate::features::{CompiledExample, FeatureSpace};
use crate::infer::{
    Act, Batch, Decode, HeadOut, Leaves, Op, Plan, Rows, Segments, Slot, SlotDef, Step, MAX_BATCH,
};
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

/// The compiled model: parameters, the layers that hold them, and the
/// plan those layers lower to.
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
    /// Singleton payloads in dependency order (bases first).
    pub(crate) singleton_order: Vec<String>,
    /// The layers lowered once into steps: the plan inference runs in
    /// place and training replays onto its tape.
    pub(crate) inference: Plan,
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
        let mut model = Self {
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
            inference: Plan::default(),
        };
        model.inference = model.lower();
        model
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

    /// Lowers the layers into the plan, step by step in the order a
    /// single-example tape runs them.
    fn lower(&self) -> Plan {
        let (mut plan, hidden) = (Plan::default(), self.hidden);
        let token_dim = self.token_embedding.dim();

        // 1. Encode every sequence payload.
        let mut seq_enc: BTreeMap<&str, Slot> = BTreeMap::new();
        for (name, encoder) in &self.encoders {
            let rows = Rows::Tokens(plan.sequences.len());
            plan.sequences.push(name.clone());
            let x = plan.step(Op::Gather(self.token_embedding.table()), &[], rows, token_dim);
            let enc = match encoder {
                Encoder::MeanBag(proj) => plan.linear(proj, x, Act::Relu, Leaves::PerExample),
                Encoder::Cnn(conv) => {
                    // Windows never reach across an example boundary.
                    let k = conv.kernel();
                    let unfolded = plan.step(Op::Im2Row(k), &[x], rows, k * conv.in_dim());
                    let (weight, bias) = (conv.weight_id(), Some(conv.bias_id()));
                    let op =
                        Op::Affine { weight, bias, act: Act::Relu, leaves: Leaves::PerExample };
                    plan.step(op, &[unfolded], rows, conv.out_dim())
                }
                Encoder::Lstm(lstm) => plan.lstm(lstm, x),
                Encoder::BiLstm(bilstm) => {
                    let f = plan.lstm(bilstm.fwd(), x);
                    let rev_in = plan.step(Op::Reverse, &[x], rows, token_dim);
                    let b_rev = plan.lstm(bilstm.bwd(), rev_in);
                    let b = plan.step(Op::Reverse, &[b_rev], rows, bilstm.bwd().hidden());
                    plan.step(Op::ConcatCols, &[f, b], rows, bilstm.out_dim())
                }
                Encoder::Attention { input_proj, attention } => {
                    let x = plan.linear(input_proj, x, Act::Tanh, Leaves::PerExample);
                    let [q, k, v] = [attention.wq(), attention.wk(), attention.wv()]
                        .map(|l| plan.linear(l, x, Act::None, Leaves::PerExample));
                    let attended =
                        plan.step(Op::Attend(attention.clone()), &[q, k, v], rows, attention.dim());
                    plan.linear(attention.wo(), attended, Act::None, Leaves::PerExample)
                }
            };
            plan.steps.push(Step { op: Op::Dropout(self.dropout), inputs: vec![enc], out: enc });
            seq_enc.insert(name, enc);
        }

        // 2. Singleton payloads aggregate their bases, in dependency order.
        let mut single: BTreeMap<&str, Slot> = BTreeMap::new();
        for name in &self.singleton_order {
            let parts: Vec<Slot> = (self.schema.payloads[name].base.iter())
                .filter_map(|base| seq_enc.get(base.as_str()).or(single.get(base.as_str())))
                .copied()
                .collect();
            let op = if parts.is_empty() { Op::Zeros } else { Op::Pool(self.config.aggregation) };
            single.insert(name, plan.step(op, &parts, Rows::Examples, hidden));
        }

        // 3. Shared example-level representation: mean of singleton reprs
        //    (or of pooled sequence encodings when none exist).
        let reprs: Vec<Slot> = if single.is_empty() {
            let mean = AggregationKind::Mean;
            seq_enc
                .values()
                .map(|&enc| plan.step(Op::Pool(mean), &[enc], Rows::Examples, hidden))
                .collect()
        } else {
            single.values().copied().collect()
        };
        let op = if reprs.is_empty() { Op::Zeros } else { Op::Mean };
        let mut shared = plan.step(op, &reprs, Rows::Examples, hidden);

        // 4. Slice-based re-weighting of the shared representation.
        if let Some(slices) = &self.slices {
            let mut experts = Vec::new();
            for (indicator, expert) in slices.indicators.iter().zip(&slices.experts) {
                let logits = plan.linear(indicator, shared, Act::None, Leaves::PerExample);
                plan.indicators.push(logits);
                experts.push(plan.linear(expert, shared, Act::Relu, Leaves::PerExample));
            }
            let inputs = [&[shared][..], &plan.indicators, &experts].concat();
            shared = plan.step(Op::SliceMix, &inputs, Rows::Examples, hidden);
        }

        // 5. Set payloads: one row per element, entity embedding joined with
        //    the mean encoding of its span, through one projection.
        let mut set_repr: BTreeMap<&str, Slot> = BTreeMap::new();
        for (name, def) in &self.schema.payloads {
            if !matches!(def.kind, PayloadKind::Set) {
                continue;
            }
            let s = plan.sets.len();
            plan.sets.push(name.clone());
            let (rows, entity_dim) = (Rows::Elements(s), self.entity_embedding.dim());
            let entity =
                plan.step(Op::Gather(self.entity_embedding.table()), &[], rows, entity_dim);
            let span = match def.range.as_deref().and_then(|r| seq_enc.get(r)) {
                Some(&enc) => plan.step(Op::SpanMeans(s), &[enc], rows, hidden),
                None => plan.step(Op::Zeros, &[], rows, hidden),
            };
            let joined = plan.step(Op::ConcatCols, &[entity, span], rows, entity_dim + hidden);
            set_repr.insert(name, plan.linear(&self.set_proj, joined, Act::Tanh, Leaves::PerRow));
        }

        // 6. Task heads, each over its whole stack.
        for (task, head) in &self.heads {
            let logits = match head {
                Head::PerElement { payload, linear, .. } => {
                    let Some(&enc) = seq_enc.get(payload.as_str()) else { continue };
                    plan.linear(linear, enc, Act::None, Leaves::Present)
                }
                Head::Single { linear, .. } => {
                    plan.linear(linear, shared, Act::None, Leaves::PerExample)
                }
                Head::Select { payload, combine, score } => {
                    let Some(&elements) = set_repr.get(payload.as_str()) else { continue };
                    // Pair each element with its example's shared repr,
                    // score each pair.
                    let rows = plan.slots[elements].rows;
                    let paired = plan.step(Op::Pair, &[shared, elements], rows, 2 * hidden);
                    let activated = plan.linear(combine, paired, Act::Tanh, Leaves::PerExample);
                    // One score per element: `[elements, 1]`.
                    plan.linear(score, activated, Act::None, Leaves::PerExample)
                }
            };
            plan.heads.push(HeadOut { task: task.clone(), decode: head.decode(), logits });
        }
        plan
    }

    /// [`CompiledModel::predict_batch`] over a batch of one.
    pub fn predict(&self, example: &CompiledExample) -> Prediction {
        self.predict_batch(std::slice::from_ref(example)).pop().expect("one prediction")
    }

    /// Runs inference over a batch and decodes every task output, in input
    /// order: the plan run in place over one arena per chunk, with f32
    /// weights read in place, fed chunks of at most 32 examples so memory
    /// stays bounded whatever the input length. Outputs are bit-identical
    /// to decoding a single-example training tape per example.
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
    /// Per plan head, its logits (`None`: the head did not run on this
    /// window).
    heads: Vec<Option<WindowLogits>>,
    /// Per slice, indicator logits: one `[non-member, member]` row per
    /// example.
    indicators: Vec<NodeId>,
}

/// One head's row-stacked logits.
#[derive(Clone)]
struct WindowLogits {
    logits: NodeId,
    /// The logit rows each example owns (`None`: no output for it). A
    /// select head's rows are its element scores, one per row.
    rows: Vec<Option<Range<usize>>>,
}

impl Plan {
    /// Appends a step that writes a new `rows x cols` slot.
    fn step(&mut self, op: Op, inputs: &[Slot], rows: Rows, cols: usize) -> Slot {
        let out = self.slots.len();
        self.slots.push(SlotDef { rows, cols });
        self.steps.push(Step { op, inputs: inputs.to_vec(), out });
        out
    }

    /// Appends `act(x W + b)` through `layer`, over `x`'s rows.
    fn linear(&mut self, layer: &Linear, x: Slot, act: Act, leaves: Leaves) -> Slot {
        let op = Op::Affine { weight: layer.weight_id(), bias: layer.bias_id(), act, leaves };
        self.step(op, &[x], self.slots[x].rows, layer.out_dim())
    }

    /// Appends an LSTM: its input projection over the whole stack, then
    /// the recurrence per segment.
    fn lstm(&mut self, lstm: &Lstm, x: Slot) -> Slot {
        let rows = self.slots[x].rows;
        let project = Op::Affine {
            weight: lstm.wx_id(),
            bias: None,
            act: Act::None,
            leaves: Leaves::PerExample,
        };
        let xw = self.step(project, &[x], rows, 4 * lstm.hidden());
        self.step(Op::Recur(lstm.clone()), &[xw], rows, lstm.hidden())
    }

    /// The bounds of a window's rows of sequence payload `p` that its
    /// examples carry: an example without it owns none.
    fn kept(&self, p: usize, segs: &Segments, examples: &[&CompiledExample]) -> Segments {
        let lens =
            segs.iter().zip(examples).map(|(r, ex)| if self.present(p, ex) { r.len() } else { 0 });
        Segments::from_lens(lens)
    }

    /// Training's forward over one optimizer window: the plan replayed
    /// onto `g` with the examples' rows stacked. Every affine step runs
    /// once over its stack, with one parameter leaf per
    /// [`Graph::param_blocks`] block wherever a single-example tape makes
    /// one `param` call (per example, or per set element); only what mixes
    /// rows within an example runs per example, on row views. A step over
    /// no rows (a window without set elements) records nothing, nor do the
    /// steps that read it.
    ///
    /// Ops go on the tape in a single-example tape's order and each row's
    /// arithmetic is the same, so every row's value and gradient, and every
    /// leaf's gradient, is the bits that example's own tape would compute.
    /// (The slice-attention margins are recorded after the last expert,
    /// not after each indicator: every node still meets its consumers in
    /// the same order, and that order is what fixes the backward sums.)
    /// Dropout is on: example `b` draws its masks from `rngs[b]`, in the
    /// order its own tape would.
    pub(crate) fn record<'p>(
        &self,
        ps: &'p ParamStore,
        g: &mut Graph<'p>,
        examples: &[&CompiledExample],
        rngs: &mut [SmallRng],
    ) -> WindowPass {
        let batch = Batch::new(self, examples.iter().copied());
        let mut nodes: Vec<Option<NodeId>> = vec![None; self.slots.len()];
        for step in &self.steps {
            let SlotDef { rows, cols } = self.slots[step.out];
            let segs = batch.segs(rows);
            let inputs: Option<Vec<NodeId>> = step.inputs.iter().map(|&s| nodes[s]).collect();
            let Some(x) = inputs.filter(|_| segs.total() > 0) else { continue };
            let in_segs = |i: usize| batch.segs(self.slots[step.inputs[i]].rows);
            let node = match &step.op {
                Op::Gather(table) => {
                    let ids = batch.ids(rows);
                    let vocab = ps.value(*table).rows();
                    assert!(
                        ids.iter().all(|&i| i < vocab),
                        "embedding id out of vocabulary (vocab = {vocab})"
                    );
                    // A single-example tape looks each set element up alone.
                    let blocks = if matches!(rows, Rows::Elements(_)) {
                        per_row(segs)
                    } else {
                        segs.blocks()
                    };
                    let table = g.param_blocks(ps, *table, blocks);
                    g.select_rows(table, &ids)
                }
                Op::Affine { weight, bias, act, leaves } => {
                    let (x, blocks) = match (leaves, rows) {
                        (Leaves::PerExample, _) => (x[0], segs.blocks()),
                        (Leaves::PerRow, _) => (x[0], per_row(segs)),
                        (Leaves::Present, Rows::Tokens(p)) => {
                            let kept = self.kept(p, segs, examples);
                            if kept.total() == 0 {
                                continue;
                            }
                            if kept.total() == segs.total() {
                                (x[0], kept.blocks())
                            } else {
                                let rows: Vec<usize> = kept
                                    .blocks()
                                    .into_iter()
                                    .flat_map(|(b, _)| segs.range(b))
                                    .collect();
                                (g.select_rows(x[0], &rows), kept.blocks())
                            }
                        }
                        (Leaves::Present, _) => unreachable!("per-element heads read tokens"),
                    };
                    let w = g.param_blocks(ps, *weight, blocks.iter().cloned());
                    let y = g.matmul(x, w);
                    let y = match bias {
                        Some(bias) => {
                            let b = g.param_blocks(ps, *bias, blocks);
                            g.add_row_broadcast(y, b)
                        }
                        None => y,
                    };
                    match act {
                        Act::None => y,
                        Act::Relu => g.relu(y),
                        Act::Tanh => g.tanh(y),
                    }
                }
                Op::Im2Row(k) => {
                    let unfolded: Vec<NodeId> = (segs.iter())
                        .map(|rows| {
                            let rows = view(g, x[0], rows);
                            g.im2row(rows, *k, k / 2)
                        })
                        .collect();
                    concat_rows(g, &unfolded)
                }
                Op::Recur(lstm) => {
                    // Each example brings its own recurrent weight and bias in.
                    let mut outputs = Vec::with_capacity(segs.total());
                    for (b, rows) in segs.iter().enumerate() {
                        let wh = g.param_blocks(ps, lstm.wh_id(), [(b, 0..1)]);
                        let bias = g.param_blocks(ps, lstm.bias_id(), [(b, 0..1)]);
                        outputs.extend(lstm.recur(g, x[0], rows, wh, bias));
                    }
                    g.concat_rows(&outputs)
                }
                Op::Reverse => {
                    let rev: Vec<usize> = segs.iter().flat_map(Iterator::rev).collect();
                    g.select_rows(x[0], &rev)
                }
                Op::Attend(attention) => {
                    let attended: Vec<NodeId> = (segs.iter())
                        .map(|rows| {
                            let [q, k, v] = [0, 1, 2].map(|i| view(g, x[i], rows.clone()));
                            attention.attend(g, q, k, v)
                        })
                        .collect();
                    concat_rows(g, &attended)
                }
                Op::ConcatCols => g.concat_cols(&x),
                Op::Dropout(dropout) => {
                    let lens: Vec<usize> = segs.iter().map(|rows| rows.len()).collect();
                    dropout.forward(g, x[0], true, &lens, rngs)
                }
                Op::Pool(kind) => {
                    let pooled: Vec<NodeId> = (0..examples.len())
                        .map(|b| {
                            let views: Vec<NodeId> = (x.iter().enumerate())
                                .map(|(i, &part)| view(g, part, in_segs(i).range(b)))
                                .collect();
                            let stacked = concat_rows(g, &views);
                            match kind {
                                AggregationKind::Mean => g.mean_rows(stacked),
                                AggregationKind::Max => g.max_rows(stacked),
                            }
                        })
                        .collect();
                    concat_rows(g, &pooled)
                }
                Op::Mean => {
                    // Row by row, this is `mean_rows` over one row per part:
                    // the same products, summed in the same order.
                    let inv = 1.0 / x.len() as f32;
                    let scaled: Vec<NodeId> = x.iter().map(|&part| g.scale(part, inv)).collect();
                    sum(g, &scaled).expect("at least one part")
                }
                Op::SpanMeans(s) => {
                    // Spans may overlap: the backward sweep adds each span's
                    // gradient into the encoding in reverse span order, as a
                    // tape running one span at a time would.
                    let enc = in_segs(0);
                    let spans =
                        batch.elements[*s].items.iter().enumerate().flat_map(|(b, elements)| {
                            elements.iter().map(move |&(_, span)| enc.span(b, span))
                        });
                    let means: Vec<NodeId> = spans
                        .map(|rows| {
                            let rows = view(g, x[0], rows);
                            g.mean_rows(rows)
                        })
                        .collect();
                    concat_rows(g, &means)
                }
                Op::SliceMix => {
                    let slices = (x.len() - 1) / 2;
                    // Membership confidence enters the attention as the
                    // logit margin in favour of membership.
                    let mut weight_logits = vec![g.constant(Matrix::zeros(examples.len(), 1))];
                    for &logits in &x[1..=slices] {
                        let member = g.slice_cols(logits, 1, 2);
                        let non_member = g.slice_cols(logits, 0, 1);
                        weight_logits.push(g.sub(member, non_member));
                    }
                    let logits_rows = g.concat_cols(&weight_logits);
                    let attn = g.softmax_rows(logits_rows); // [n, S+1]
                    let reprs = std::iter::once(x[0]).chain(x[slices + 1..].iter().copied());
                    let scaled: Vec<NodeId> = reprs
                        .enumerate()
                        .map(|(i, repr)| {
                            let w = g.slice_cols(attn, i, i + 1); // [n, 1]
                            g.mul_row_scalar(repr, w)
                        })
                        .collect();
                    sum(g, &scaled).expect("at least the base repr")
                }
                Op::Pair => {
                    let context = g.select_rows(x[0], &segs.owners());
                    g.concat_cols(&[context, x[1]])
                }
                Op::Zeros => g.constant(Matrix::zeros(segs.total(), cols)),
            };
            nodes[step.out] = Some(node);
        }
        let heads = (self.heads.iter())
            .map(|head| {
                let rows = self.slots[head.logits].rows;
                let kept = match rows {
                    Rows::Tokens(p) => self.kept(p, batch.segs(rows), examples),
                    _ => Segments::from_lens(batch.segs(rows).iter().map(|r| r.len())),
                };
                let rows = kept.iter().map(|r| Some(r).filter(|r| !r.is_empty())).collect();
                Some(WindowLogits { logits: nodes[head.logits]?, rows })
            })
            .collect();
        let indicators = self.indicators.iter().map(|&s| nodes[s].expect("runs on every window"));
        WindowPass { heads, indicators: indicators.collect() }
    }

    /// Each example's total training loss over a window's forward: task
    /// losses against probabilistic targets plus (optionally) slice-indicator
    /// losses, built on views of that example's logit rows in a
    /// single-example tape's order. `None` where an example supervises
    /// nothing.
    pub(crate) fn losses(
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
                let Some(h) = self.heads.iter().position(|head| &head.task == task) else {
                    continue;
                };
                let Some(WindowLogits { logits, rows }) = &pass.heads[h] else { continue };
                let Some(rows) = rows[b].clone() else { continue };
                let (t, k) = (rows.len(), g.value(*logits).cols());
                let term = match (self.heads[h].decode, target) {
                    (Decode::PerElement { bce: false }, ProbLabel::SeqDist(dists)) => {
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
                    (Decode::PerElement { bce: true }, ProbLabel::SeqBits(bits)) => {
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
                    (Decode::Single { bce: false }, ProbLabel::Dist(dist)) => {
                        if dist.len() != k {
                            continue;
                        }
                        let logits = view(g, *logits, rows);
                        g.cross_entropy(logits, &Matrix::row_vector(dist), &[1.0])
                    }
                    (Decode::Single { bce: true }, ProbLabel::Bits(bits)) => {
                        if bits.len() != k {
                            continue;
                        }
                        let logits = view(g, *logits, rows);
                        g.bce_with_logits(logits, &Matrix::row_vector(bits), &Matrix::ones(1, k))
                    }
                    (Decode::Select, ProbLabel::Dist(dist)) => {
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
                for (s, &logits) in pass.indicators.iter().enumerate() {
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
}

/// One parameter block per stacked row, owned by its example.
fn per_row(segs: &Segments) -> Vec<(usize, Range<usize>)> {
    segs.owners().into_iter().enumerate().map(|(row, b)| (b, row..row + 1)).collect()
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
        let pass = model.inference.record(&model.params, &mut g, &window, &mut rngs);
        let logits = |task: &str| {
            let head = model.inference.heads.iter().position(|h| h.task == task).expect(task);
            pass.heads[head].clone().unwrap_or_else(|| panic!("missing logits for {task}"))
        };
        for (b, ex) in exs.iter().enumerate() {
            let rows = |task: &str| logits(task).rows[b].clone().expect("has rows");
            assert_eq!(rows("POS").len(), ex.sequences["tokens"].len());
            assert_eq!(rows("Intent").len(), 1);
            assert_eq!(rows("IntentArg").len(), ex.sets["entities"].len());
            assert!(logits("EntityType").rows[b].is_some());
        }
        assert_eq!(g.value(logits("POS").logits).cols(), 8);
        assert_eq!(pass.indicators.len(), space.slice_names.len());
        assert_eq!(g.value(pass.indicators[0]).shape(), (3, 2));
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
        let pass = model.inference.record(&model.params, &mut g, &[&ex], &mut rngs);
        let loss = model.inference.losses(&mut g, &pass, &[&ex], 0.3)[0].expect("has targets");
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
        let pass = model.inference.record(&model.params, &mut g, &[&ex], &mut rngs);
        assert!(model.inference.losses(&mut g, &pass, &[&ex], 0.0)[0].is_none());
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
