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
//! runs the same steps forward and their vector-Jacobian products
//! backward over slot arenas (`backprop.rs`).

use crate::config::{AggregationKind, EmbeddingKind, EncoderKind, ModelConfig};
use crate::features::{CompiledExample, FeatureSpace};
use crate::infer::{
    Act, Decode, HeadOut, Leaves, Logits, Op, Plan, Rows, Slot, SlotDef, Step, MAX_BATCH,
};
use crate::pretrained::PretrainedEncoder;
use overton_store::{PayloadKind, Schema, TaskKind};
use overton_tensor::nn::{
    BiLstm, Conv1d, Dropout, Embedding, Linear, Lstm, MultiHeadSelfAttention,
};
use overton_tensor::ParamStore;
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
    /// The layers lowered once into steps: the plan both executors run.
    pub(crate) inference: Plan,
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

    /// Lowers the layers into the plan, step by step in execution order.
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
                Encoder::Cnn(conv) => plan.conv(conv, x),
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
            let cols = plan.slots[enc].cols;
            seq_enc.insert(name, plan.step(Op::Dropout(self.dropout), &[enc], rows, cols));
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
        let op = if reprs.is_empty() { Op::Zeros } else { Op::Pool(AggregationKind::Mean) };
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

    /// Runs the plan over `examples` and hands `each` every example's
    /// index in `examples` and its [`Logits`], in input order: the one
    /// inference entry, through which serving, evaluation, dev selection
    /// and distillation read their answers in place. The plan runs over
    /// chunks of at most [`MAX_BATCH`] examples, so memory follows the
    /// chunk and not the input, and each example's logits are
    /// bit-identical to running it alone.
    pub(crate) fn infer(
        &self,
        examples: &[CompiledExample],
        mut each: impl FnMut(usize, Logits<'_>),
    ) {
        for (c, chunk) in examples.chunks(MAX_BATCH).enumerate() {
            self.inference.infer(self, chunk, |b, logits| each(c * MAX_BATCH + b, logits));
        }
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

impl Plan {
    /// Appends a step that writes a new `rows x cols` slot.
    pub(crate) fn step(&mut self, op: Op, inputs: &[Slot], rows: Rows, cols: usize) -> Slot {
        let out = self.slots.len();
        self.slots.push(SlotDef { rows, cols });
        self.steps.push(Step { op, inputs: inputs.to_vec() });
        out
    }

    /// Appends `act(x W + b)` through `layer`, over `x`'s rows.
    pub(crate) fn linear(&mut self, layer: &Linear, x: Slot, act: Act, leaves: Leaves) -> Slot {
        let op = Op::Affine { weight: layer.weight_id(), bias: layer.bias_id(), act, leaves };
        self.step(op, &[x], self.slots[x].rows, layer.out_dim())
    }

    /// Appends `relu(conv(x))`: the unfold per segment, so windows never
    /// reach across an example boundary, then one affine step.
    pub(crate) fn conv(&mut self, conv: &Conv1d, x: Slot) -> Slot {
        let (rows, k) = (self.slots[x].rows, conv.kernel());
        let unfolded = self.step(Op::Im2Row(k), &[x], rows, k * conv.in_dim());
        let (weight, bias) = (conv.weight_id(), Some(conv.bias_id()));
        let op = Op::Affine { weight, bias, act: Act::Relu, leaves: Leaves::PerExample };
        self.step(op, &[unfolded], rows, conv.out_dim())
    }

    /// Appends an LSTM: its input projection over the whole stack, then
    /// the recurrence per segment.
    pub(crate) fn lstm(&mut self, lstm: &Lstm, x: Slot) -> Slot {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backprop::Workspace;
    use crate::config::TrainConfig;
    use crate::features::gold_to_prob;
    use crate::infer::Batch;
    use crate::oracle::raw_logits;
    use crate::serve::{DeployableModel, ServedOutput, Server};
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

    /// Runs the training executor over `exs` as one window.
    fn window(model: &CompiledModel, exs: &[&CompiledExample], weight: f32) -> Workspace {
        let config = TrainConfig { indicator_loss_weight: weight, ..Default::default() };
        let mut ws = Workspace::default();
        let (plan, ps, seeds) = (&model.inference, &model.params, vec![0; exs.len()]);
        crate::backprop::gradients(plan, ps, exs, &seeds, &config, &mut ws);
        ws
    }

    #[test]
    fn forward_produces_all_task_logits() {
        let (ds, space) = setup();
        let model = compile(&ds, &space, EncoderKind::Cnn);
        let exs: Vec<CompiledExample> = (0..3)
            .map(|i| CompiledExample::from_record(&ds.records()[i], i, &space, ds.schema()))
            .collect();
        let ws = window(&model, &exs.iter().collect::<Vec<_>>(), 0.3);
        let (plan, batch) = (&model.inference, Batch::new(&model.inference, exs.iter()));
        let slot =
            |task: &str| plan.slots[plan.heads.iter().find(|h| h.task == task).unwrap().logits];
        let rows = |task: &str, b: usize| batch.segs(slot(task).rows).range(b).len();
        for (b, ex) in exs.iter().enumerate() {
            assert_eq!(rows("POS", b), ex.sequences["tokens"].len());
            assert_eq!(rows("Intent", b), 1);
            assert_eq!(rows("IntentArg", b), ex.sets["entities"].len());
            assert_eq!(rows("EntityType", b), ex.sequences["tokens"].len());
        }
        for head in &plan.heads {
            let SlotDef { rows, cols } = plan.slots[head.logits];
            assert!(cols > 0, "{} has no logits", head.task);
            assert_eq!(ws.regions[head.logits].len(), batch.segs(rows).total() * cols);
        }
        assert_eq!(slot("POS").cols, 8);
        assert_eq!(plan.indicators.len(), space.slice_names.len());
        assert_eq!(ws.regions[plan.indicators[0]].len(), 3 * 2);
    }

    #[test]
    fn every_encoder_kind_compiles_and_runs() {
        let (ds, space) = setup();
        for kind in crate::oracle::ENCODERS {
            let model = compile(&ds, &space, kind);
            let ex = CompiledExample::from_record(&ds.records()[0], 0, &space, ds.schema());
            let logits = &raw_logits(&model, &[ex])[0];
            assert!(logits.head("Intent").is_some(), "{kind:?} lost the Intent head");
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
        let ws = window(&model, &[&ex], 0.3);
        assert!(ws.partials.losses[0].expect("has targets") > 0.0);
        let mut params = model.params.clone();
        ws.partials.merge_into(&mut params);
        assert!(params.grad_norm() > 0.0, "gradients must flow");
    }

    #[test]
    fn loss_none_without_targets() {
        let (ds, space) = setup();
        let config = ModelConfig { slice_heads: false, ..Default::default() };
        let model = CompiledModel::compile(ds.schema(), &space, &config, None);
        let ex = CompiledExample::from_record(&ds.records()[0], 0, &space, ds.schema());
        assert!(window(&model, &[&ex], 0.0).partials.losses[0].is_none());
    }

    #[test]
    fn predictions_decode_all_tasks() {
        let (ds, space) = setup();
        let model = compile(&ds, &space, EncoderKind::MeanBag);
        let server = Server::load(&DeployableModel::package(&model, &space, BTreeMap::new()));
        let response = server.predict(&ds.records()[0]).expect("a valid record");
        assert!(matches!(response.tasks["Intent"], ServedOutput::Multiclass { .. }));
        assert!(matches!(response.tasks["POS"], ServedOutput::MulticlassSeq { .. }));
        assert!(matches!(response.tasks["EntityType"], ServedOutput::BitsSeq { .. }));
        assert!(matches!(response.tasks["IntentArg"], ServedOutput::Select { .. }));
        assert_eq!(response.slices.len(), space.slice_names.len());
        if let ServedOutput::Multiclass { dist, .. } = &response.tasks["Intent"] {
            let s: f32 = dist.iter().map(|(_, p)| p).sum();
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
        let batched = raw_logits(&model, &examples);
        assert_eq!(batched.len(), examples.len());
        for (ex, logits) in examples.iter().zip(&batched) {
            assert_eq!(raw_logits(&model, std::slice::from_ref(ex)), std::slice::from_ref(logits));
        }
    }

    #[test]
    fn slice_heads_can_be_disabled() {
        let (ds, space) = setup();
        let config = ModelConfig { slice_heads: false, ..Default::default() };
        let model = CompiledModel::compile(ds.schema(), &space, &config, None);
        let ex = CompiledExample::from_record(&ds.records()[0], 0, &space, ds.schema());
        assert!(raw_logits(&model, &[ex])[0].indicators.is_empty());
    }

    #[test]
    fn same_seed_same_weights() {
        let (ds, space) = setup();
        let a = compile(&ds, &space, EncoderKind::Cnn);
        let b = compile(&ds, &space, EncoderKind::Cnn);
        assert_eq!(a.num_weights(), b.num_weights());
        let ex = CompiledExample::from_record(&ds.records()[3], 3, &space, ds.schema());
        let exs = std::slice::from_ref(&ex);
        assert_eq!(raw_logits(&a, exs), raw_logits(&b, exs));
    }

    #[test]
    fn empty_entity_set_drops_select_task_only() {
        let (ds, space) = setup();
        let model = compile(&ds, &space, EncoderKind::Cnn);
        let mut ex = CompiledExample::from_record(&ds.records()[0], 0, &space, ds.schema());
        ex.sets.get_mut("entities").unwrap().clear();
        let logits = &raw_logits(&model, &[ex])[0];
        assert!(logits.head("IntentArg").is_none());
        assert!(logits.head("Intent").is_some());
    }
}
