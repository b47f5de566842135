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
//! Compiling is lowering: one walk over the schema calls the [`Plan`]
//! builders (`embed`, `affine`, `conv`, `lstm`, `attend`, `dropout`), each
//! of which registers its parameters in the [`ParamStore`], drawing their
//! initial values from the model's seeded RNG, and appends the steps that
//! read them. No layer object outlives the walk: a step names its
//! parameters by [`ParamId`]. The plan is what both executors run:
//! inference in place over one arena per batch (`infer.rs`), and training,
//! which runs the same steps forward and their vector-Jacobian products
//! backward over slot arenas (`backprop.rs`).

use crate::config::{AggregationKind, EmbeddingKind, EncoderKind, ModelConfig};
use crate::features::{CompiledExample, FeatureSpace};
use crate::infer::{
    Act, Decode, HeadOut, Leaves, Logits, Op, Plan, Rows, Slot, SlotDef, Step, MAX_BATCH,
};
use crate::pretrained::PretrainedEncoder;
use overton_store::{PayloadKind, Schema, TaskKind};
use overton_tensor::{init, Matrix, ParamId, ParamStore};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// The store the plan builders register parameters into, and the RNG
/// their initial values draw from. Registration order is draw order, so
/// the order of the builder calls fixes every initial weight.
pub(crate) type Weights = (ParamStore, SmallRng);

/// An affine map's registered weight, its optional bias, and its output
/// width.
type Affine = (ParamId, Option<ParamId>, usize);

/// The compiled model: the schema and configuration it was compiled
/// from, its parameters, and the plan that reads them.
pub struct CompiledModel {
    schema: Schema,
    config: ModelConfig,
    /// All learnable weights.
    pub params: ParamStore,
    /// The steps both executors run.
    pub(crate) plan: Plan,
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
        let mut w: Weights = (ParamStore::new(), SmallRng::seed_from_u64(config.seed));
        let (mut plan, hidden, token_dim) = (Plan::default(), config.hidden_dim, config.token_dim);

        let tokens = Plan::embed(&mut w, "tokens.embedding", space.token_vocab.len(), token_dim);
        if let Some(pre) = pretrained {
            assert_eq!(
                config.embedding,
                EmbeddingKind::Pretrained,
                "pretrained artifact supplied but config.embedding is Learned"
            );
            // The random table is still drawn, so every later weight is
            // the same with or without an artifact.
            *w.0.value_mut(tokens) = pre.init_embedding(&space.token_vocab, token_dim);
        }
        // A `Pretrained` config without an artifact is allowed: the serving
        // loader compiles the skeleton this way and then overwrites all
        // parameter values from the stored artifact.
        let entity_dim = config.entity_dim;
        let entities =
            Plan::embed(&mut w, "entities.embedding", space.entity_vocab.len(), entity_dim);

        // 1. Encode every sequence payload.
        let mut seq_enc: BTreeMap<&str, Slot> = BTreeMap::new();
        for (name, def) in &schema.payloads {
            if !matches!(def.kind, PayloadKind::Sequence { .. }) {
                continue;
            }
            let rows = Rows::Tokens(plan.sequences.len());
            plan.sequences.push(name.clone());
            let x = plan.step(Op::Gather(tokens), &[], rows, token_dim);
            let layer = |layer: &str| format!("payload.{name}.{layer}");
            let enc = match config.encoder {
                EncoderKind::MeanBag => {
                    plan.affine(&mut w, &layer("proj"), x, hidden, Act::Relu, Leaves::PerExample)
                }
                EncoderKind::Cnn => plan.conv(&mut w, &layer("conv"), x, hidden, 3),
                EncoderKind::Lstm => plan.lstm(&mut w, &layer("lstm"), x, hidden),
                EncoderKind::BiLstm => {
                    assert!(hidden.is_multiple_of(2), "BiLstm needs an even hidden size: {hidden}");
                    let f = plan.lstm(&mut w, &layer("bilstm.fwd"), x, hidden / 2);
                    let rev_in = plan.step(Op::Reverse, &[x], rows, token_dim);
                    let b_rev = plan.lstm(&mut w, &layer("bilstm.bwd"), rev_in, hidden / 2);
                    let b = plan.step(Op::Reverse, &[b_rev], rows, hidden / 2);
                    plan.step(Op::ConcatCols, &[f, b], rows, hidden)
                }
                EncoderKind::Attention => {
                    let heads = [4usize, 2, 1].into_iter().find(|h| hidden.is_multiple_of(*h));
                    let (act, leaves) = (Act::Tanh, Leaves::PerExample);
                    let x = plan.affine(&mut w, &layer("inproj"), x, hidden, act, leaves);
                    plan.attend(&mut w, &layer("attn"), x, heads.unwrap())
                }
            };
            seq_enc.insert(name, plan.dropout(enc, config.dropout));
        }

        // 2. Singleton payloads aggregate their bases, in dependency order.
        let (order, mut single) = (schema.payload_topo_order(), BTreeMap::<&str, Slot>::new());
        for name in &order {
            let def = &schema.payloads[name];
            if !matches!(def.kind, PayloadKind::Singleton) {
                continue;
            }
            let parts: Vec<Slot> = (def.base.iter())
                .filter_map(|base| seq_enc.get(base.as_str()).or(single.get(base.as_str())))
                .copied()
                .collect();
            let op = if parts.is_empty() { Op::Zeros } else { Op::Pool(config.aggregation) };
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

        // 4. Set payloads: one row per element, entity embedding joined with
        //    the mean encoding of its span, through one projection shared by
        //    every set. They read only sequence encodings, so they can run
        //    here and register their projection in its place, after the
        //    encoders and before the heads.
        let set_proj = linear(&mut w, "set.proj", entity_dim + hidden, hidden);
        let mut set_repr: BTreeMap<&str, Slot> = BTreeMap::new();
        for (name, def) in &schema.payloads {
            if !matches!(def.kind, PayloadKind::Set) {
                continue;
            }
            let s = plan.sets.len();
            plan.sets.push(name.clone());
            let rows = Rows::Elements(s);
            let entity = plan.step(Op::Gather(entities), &[], rows, entity_dim);
            let span = match def.range.as_deref().and_then(|r| seq_enc.get(r)) {
                Some(&enc) => plan.step(Op::SpanMeans(s), &[enc], rows, hidden),
                None => plan.step(Op::Zeros, &[], rows, hidden),
            };
            let joined = plan.step(Op::ConcatCols, &[entity, span], rows, entity_dim + hidden);
            let elements = plan.project(set_proj, joined, Act::Tanh, Leaves::PerRow);
            set_repr.insert(name, elements);
        }

        // 5. Task heads register here, before the slice module, but read
        //    the representation it re-weights, so their steps come last.
        let heads: Vec<(&String, Decode, Vec<Affine>)> = (schema.tasks.iter())
            .map(|(task, def)| {
                let name = format!("head.{task}");
                let on_sequence =
                    matches!(schema.payloads[&def.payload].kind, PayloadKind::Sequence { .. });
                let (decode, layers) = match &def.kind {
                    TaskKind::Multiclass { classes: outputs }
                    | TaskKind::Bitvector { labels: outputs } => {
                        let bce = matches!(def.kind, TaskKind::Bitvector { .. });
                        let decode = if on_sequence {
                            Decode::PerElement { bce }
                        } else {
                            Decode::Single { bce }
                        };
                        (decode, vec![linear(&mut w, &name, hidden, outputs.len())])
                    }
                    TaskKind::Select => {
                        let combine =
                            linear(&mut w, &format!("{name}.combine"), 2 * hidden, hidden);
                        let score = linear(&mut w, &format!("{name}.score"), hidden, 1);
                        (Decode::Select, vec![combine, score])
                    }
                };
                (task, decode, layers)
            })
            .collect();

        // 6. Slice-based re-weighting of the shared representation: every
        //    indicator registers, then every expert.
        if config.slice_heads && !space.slice_names.is_empty() {
            let mut layers = |role: &str, out: usize| -> Vec<Affine> {
                let names = space.slice_names.iter();
                names.map(|s| linear(&mut w, &format!("slice.{s}.{role}"), hidden, out)).collect()
            };
            let (indicators, experts) = (layers("indicator", 2), layers("expert", hidden));
            let mut expert_reprs = Vec::new();
            for (indicator, expert) in indicators.into_iter().zip(experts) {
                let logits = plan.project(indicator, shared, Act::None, Leaves::PerExample);
                plan.indicators.push(logits);
                expert_reprs.push(plan.project(expert, shared, Act::Relu, Leaves::PerExample));
            }
            let inputs = [&[shared][..], &plan.indicators, &expert_reprs].concat();
            shared = plan.step(Op::SliceMix, &inputs, Rows::Examples, hidden);
        }

        // 7. Task heads, each over its whole stack.
        for (task, decode, layers) in heads {
            let payload = schema.tasks[task].payload.as_str();
            let logits = match decode {
                Decode::PerElement { .. } => {
                    let Some(&enc) = seq_enc.get(payload) else { continue };
                    plan.project(layers[0], enc, Act::None, Leaves::Present)
                }
                Decode::Single { .. } => {
                    plan.project(layers[0], shared, Act::None, Leaves::PerExample)
                }
                Decode::Select => {
                    let Some(&elements) = set_repr.get(payload) else { continue };
                    // Pair each element with its example's shared repr,
                    // score each pair.
                    let rows = plan.slots[elements].rows;
                    let paired = plan.step(Op::Pair, &[shared, elements], rows, 2 * hidden);
                    let (act, leaves) = (Act::Tanh, Leaves::PerExample);
                    let activated = plan.project(layers[0], paired, act, leaves);
                    // One score per element: `[elements, 1]`.
                    plan.project(layers[1], activated, Act::None, Leaves::PerExample)
                }
            };
            plan.heads.push(HeadOut { task: task.clone(), decode, logits });
        }

        Self { schema: schema.clone(), config: config.clone(), params: w.0, plan }
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
        !self.plan.indicators.is_empty()
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
            self.plan.infer(&self.params, chunk, |b, logits| each(c * MAX_BATCH + b, logits));
        }
    }
}

/// Registers `{name}.weight`, a `rows x cols` Xavier-uniform matrix.
fn weight((ps, rng): &mut Weights, name: &str, rows: usize, cols: usize) -> ParamId {
    ps.add(format!("{name}.weight"), init::xavier_uniform(rows, cols, rng))
}

/// Registers an affine map's `{name}.weight` (`rows x cols`, Xavier) and
/// its zero `1 x cols` `{name}.bias`.
fn linear(w: &mut Weights, name: &str, rows: usize, cols: usize) -> Affine {
    let weight = weight(w, name, rows, cols);
    (weight, Some(w.0.add(format!("{name}.bias"), Matrix::zeros(1, cols))), cols)
}

impl Plan {
    /// Appends a step that writes a new `rows x cols` slot.
    pub(crate) fn step(&mut self, op: Op, inputs: &[Slot], rows: Rows, cols: usize) -> Slot {
        let out = self.slots.len();
        self.slots.push(SlotDef { rows, cols });
        self.steps.push(Step { op, inputs: inputs.to_vec() });
        out
    }

    /// Registers `{name}.table`, a `vocab x dim` table drawn N(0, 0.1),
    /// for [`Op::Gather`] steps to read.
    pub(crate) fn embed((ps, rng): &mut Weights, name: &str, vocab: usize, dim: usize) -> ParamId {
        ps.add(format!("{name}.table"), init::normal(vocab, dim, 0.1, rng))
    }

    /// Appends `act(x W + b)` over `x`'s rows through a registered map.
    pub(crate) fn project(&mut self, layer: Affine, x: Slot, act: Act, leaves: Leaves) -> Slot {
        let (weight, bias, out) = layer;
        self.step(Op::Affine { weight, bias, act, leaves }, &[x], self.slots[x].rows, out)
    }

    /// Registers `{name}.weight` and `{name}.bias` (see [`linear`]) and
    /// appends `act(x W + b)`, `out` wide, over `x`'s rows.
    pub(crate) fn affine(
        &mut self,
        w: &mut Weights,
        name: &str,
        x: Slot,
        out: usize,
        act: Act,
        leaves: Leaves,
    ) -> Slot {
        let layer = linear(w, name, self.slots[x].cols, out);
        self.project(layer, x, act, leaves)
    }

    /// Registers a same-length convolution of odd width `k`: `{name}.weight`
    /// (`k * in x out`, He-normal) and a zero `{name}.bias`. Appends
    /// `relu(conv(x))`: the unfold per segment, so windows never reach
    /// across an example boundary, then one affine step.
    ///
    /// # Panics
    /// Panics if `k` is even (same-length padding needs an odd width).
    pub(crate) fn conv(
        &mut self,
        w: &mut Weights,
        name: &str,
        x: Slot,
        out: usize,
        k: usize,
    ) -> Slot {
        assert!(k % 2 == 1, "conv kernel must be odd, got {k}");
        let (SlotDef { rows, cols }, (ps, rng)) = (self.slots[x], w);
        let weight = ps.add(format!("{name}.weight"), init::he_normal(k * cols, out, rng));
        let bias = ps.add(format!("{name}.bias"), Matrix::zeros(1, out));
        let unfolded = self.step(Op::Im2Row(k), &[x], rows, k * cols);
        self.project((weight, Some(bias), out), unfolded, Act::Relu, Leaves::PerExample)
    }

    /// Registers a single-layer LSTM with `hidden` units: its input
    /// weights `{name}.wx` and recurrent weights `{name}.wh` (Xavier),
    /// fused over the gates in column order `[input, forget, cell, output]`,
    /// and a `{name}.bias` whose forget-gate entries start at 1.0 (the
    /// standard trick for gradient flow over long sequences). Appends its
    /// input projection over the whole stack, then the recurrence per
    /// segment.
    pub(crate) fn lstm(&mut self, w: &mut Weights, name: &str, x: Slot, hidden: usize) -> Slot {
        let (SlotDef { rows, cols }, (ps, rng)) = (self.slots[x], w);
        let wx = ps.add(format!("{name}.wx"), init::xavier_uniform(cols, 4 * hidden, rng));
        let wh = ps.add(format!("{name}.wh"), init::xavier_uniform(hidden, 4 * hidden, rng));
        let mut b = Matrix::zeros(1, 4 * hidden);
        b.row_mut(0)[hidden..2 * hidden].fill(1.0);
        let bias = ps.add(format!("{name}.bias"), b);
        let xw = self.project((wx, None, 4 * hidden), x, Act::None, Leaves::PerExample);
        self.step(Op::Recur { wh, bias }, &[xw], rows, hidden)
    }

    /// Registers multi-head self-attention over `x`'s width: the query,
    /// key, value and output projections `{name}.wq`, `.wk`, `.wv` and
    /// `.wo`, each square with no bias. Appends the three projections,
    /// scaled dot-product attention per segment and head, and the output
    /// projection. This is the Transformer block the schema's sequence
    /// encoder may be, and the paper's default way of combining payload
    /// references (§2.1).
    ///
    /// # Panics
    /// Panics unless `heads` divides `x`'s width.
    pub(crate) fn attend(&mut self, w: &mut Weights, name: &str, x: Slot, heads: usize) -> Slot {
        let SlotDef { rows, cols: dim } = self.slots[x];
        assert!(heads > 0 && dim.is_multiple_of(heads), "heads ({heads}) must divide dim ({dim})");
        let square = |plan: &mut Self, w: &mut Weights, role: &str, x: Slot| {
            let weight = weight(w, &format!("{name}.{role}"), dim, dim);
            plan.project((weight, None, dim), x, Act::None, Leaves::PerExample)
        };
        let [q, k, v] = ["wq", "wk", "wv"].map(|role| square(self, w, role, x));
        let attended = self.step(Op::Attend { heads }, &[q, k, v], rows, dim);
        square(self, w, "wo", attended)
    }

    /// Appends inverted dropout with probability `p`: at training each
    /// element is zeroed with probability `p` and survivors are scaled by
    /// `1/(1-p)`, so inference needs no rescale and skips the step.
    ///
    /// # Panics
    /// Panics unless `0 <= p < 1`.
    pub(crate) fn dropout(&mut self, x: Slot, p: f32) -> Slot {
        assert!((0.0..1.0).contains(&p), "dropout probability {p} out of [0,1)");
        let SlotDef { rows, cols } = self.slots[x];
        self.step(Op::Dropout(p), &[x], rows, cols)
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
    use overton_tensor::optim::Adam;
    use overton_tensor::{matmul_at_into, matmul_into};

    /// A fresh store and RNG, and a plan over one sequence payload whose
    /// tokens gather from a registered `3 x 4` table.
    fn tokens_plan() -> (Weights, Plan, Slot) {
        let mut w = (ParamStore::new(), SmallRng::seed_from_u64(0));
        let table = Plan::embed(&mut w, "e", 3, 4);
        let mut plan = Plan { sequences: vec!["tokens".into()], ..Plan::default() };
        let x = plan.step(Op::Gather(table), &[], Rows::Tokens(0), 4);
        (w, plan, x)
    }

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
        let (plan, ps, seeds) = (&model.plan, &model.params, vec![0; exs.len()]);
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
        let (plan, batch) = (&model.plan, Batch::new(&model.plan, exs.iter()));
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

    /// FNV-1a over every parameter's name, shape and value bits, in
    /// registration order, skipping a registration that a later one of the
    /// same name replaces.
    fn params_digest(ps: &ParamStore) -> u64 {
        let ids: Vec<_> = ps.ids().collect();
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut feed = |bytes: &[u8]| {
            for &b in bytes {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for (i, &id) in ids.iter().enumerate() {
            let (name, value) = (ps.name(id), ps.value(id));
            if ids[i + 1..].iter().any(|&later| ps.name(later) == name) {
                continue;
            }
            feed(&(name.len() as u64).to_le_bytes());
            feed(name.as_bytes());
            feed(&(value.rows() as u64).to_le_bytes());
            feed(&(value.cols() as u64).to_le_bytes());
            value.as_slice().iter().for_each(|x| feed(&x.to_bits().to_le_bytes()));
        }
        hash
    }

    /// Compilation pinned bit for bit: every parameter's name, shape and
    /// initial value, in registration order, for each encoder over the
    /// every-branch schema with slice heads on and off, then the
    /// pretrained path.
    #[test]
    fn compilation_is_pinned() {
        const PINNED: [u64; 11] = [
            0xa8200f4ed6e10ed4,
            0xb56e7479aeedd51b,
            0x3a74bdc3b27196ec,
            0xe1fbc5ac873b5bbb,
            0xdf573786393abcca,
            0xbb2087218da439cd,
            0x4cbd6ce8b1c22dfd,
            0xb165bcf1e86424e6,
            0xb04159de3b385fb8,
            0x14697f9202d66173,
            0x28f58e67ab62d924,
        ];
        let (_, space) = setup();
        let schema = crate::oracle::every_branch_schema();
        let mut got = Vec::new();
        for encoder in crate::oracle::ENCODERS {
            for slice_heads in [true, false] {
                let config = ModelConfig { encoder, slice_heads, ..Default::default() };
                let model = CompiledModel::compile(&schema, &space, &config, None);
                got.push(params_digest(&model.params));
            }
        }
        let corpus =
            overton_nlp::pretraining_corpus(&overton_nlp::KnowledgeBase::standard(), 150, 3);
        let config = crate::PretrainConfig { epochs: 1, ..Default::default() };
        let artifact = crate::pretrain(&corpus, &config);
        let config = ModelConfig { embedding: EmbeddingKind::Pretrained, ..Default::default() };
        let model = CompiledModel::compile(&schema, &space, &config, Some(&artifact));
        got.push(params_digest(&model.params));
        assert_eq!(got, PINNED, "{got:#018x?}");
    }

    #[test]
    fn lookup_shape_and_content() {
        let (mut w, plan, x) = tokens_plan();
        let table = w.0.ids().next().expect("the table");
        assert_eq!((w.0.name(table), w.0.value(table).shape()), ("e.table", (3, 4)));
        let rows: Vec<f32> = (0..12).map(|x| x as f32).collect();
        *w.0.value_mut(table) = Matrix::from_vec(3, 4, rows);
        let example = CompiledExample {
            record_index: 0,
            sequences: BTreeMap::from([("tokens".into(), vec![2, 0])]),
            sets: BTreeMap::new(),
            targets: BTreeMap::new(),
            slice_membership: Vec::new(),
        };
        let batch = Batch::new(&plan, std::iter::once(&example));
        let mut out = [0.0; 8];
        plan.run(x, &w.0, &batch, |_| &[], &mut out, None);
        assert_eq!(out, [8.0, 9.0, 10.0, 11.0, 0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn frozen_embedding_does_not_train() {
        let mut w = (ParamStore::new(), SmallRng::seed_from_u64(2));
        let frozen = Plan::embed(&mut w, "frozen", 3, 2);
        let live = Plan::embed(&mut w, "live", 3, 2);
        let ps = &mut w.0;
        ps.freeze(frozen);
        let (before_frozen, before_live) = (ps.value(frozen).clone(), ps.value(live).clone());
        for table in [frozen, live] {
            ps.grad_mut(table).as_mut_slice().fill(1.0);
        }
        Adam::new(1.0).step(ps);
        assert_eq!(ps.value(frozen), &before_frozen);
        assert!(ps.value(live).max_abs_diff(&before_live) > 0.5, "the step ran");
    }

    #[test]
    fn learns_a_linear_function() {
        // Fit y = 2x1 - x2 with a registered 2->1 affine map, from the mean
        // squared error's hand-computed gradient: dW = X^T G and db = sum of
        // G's rows.
        let mut w = (ParamStore::new(), SmallRng::seed_from_u64(2));
        let (weight, bias, _) = linear(&mut w, "l", 2, 1);
        let (ps, b) = (&mut w.0, bias.expect("bias"));
        assert_eq!((ps.name(weight), ps.name(b)), ("l.weight", "l.bias"));
        let mut opt = Adam::new(0.05);
        let xs = [1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.5, -0.5];
        let ys = [2.0, -1.0, 1.0, 1.5];
        let n = ys.len();
        let mut last = f32::MAX;
        for _ in 0..1000 {
            let bias = ps.value(b).scalar_value();
            let mut pred = vec![bias; n];
            matmul_into(n, 2, 1, &xs, ps.value(weight).as_slice(), &mut pred);
            let diff: Vec<f32> = pred.iter().zip(&ys).map(|(p, y)| p - y).collect();
            last = diff.iter().map(|d| d * d).sum::<f32>() / n as f32;
            let g: Vec<f32> = diff.iter().map(|d| 2.0 * d / n as f32).collect();
            matmul_at_into(2, n, 1, &xs, &g, ps.grad_mut(weight).as_mut_slice());
            ps.grad_mut(b).as_mut_slice()[0] = g.iter().sum();
            opt.step(ps);
            ps.zero_grads();
        }
        assert!(last < 1e-4, "final loss {last}");
        let fitted = ps.value(weight);
        assert!(fitted.max_abs_diff(&Matrix::from_vec(2, 1, vec![2.0, -1.0])) < 1e-2, "{fitted:?}");
    }

    #[test]
    fn attention_projections_have_no_bias() {
        let (mut w, mut plan, x) = tokens_plan();
        let attended = plan.attend(&mut w, "a", x, 2);
        let names: Vec<&str> = w.0.ids().skip(1).map(|id| w.0.name(id)).collect();
        assert_eq!(names, ["a.wq.weight", "a.wk.weight", "a.wv.weight", "a.wo.weight"]);
        assert!(matches!(plan.steps[attended].op, Op::Affine { bias: None, .. }));
        assert_eq!(plan.slots[attended].cols, 4);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn rejects_indivisible_heads() {
        let (mut w, mut plan, x) = tokens_plan();
        let _ = plan.attend(&mut w, "a", x, 3);
    }

    #[test]
    #[should_panic(expected = "kernel must be odd")]
    fn even_kernel_rejected() {
        let (mut w, mut plan, x) = tokens_plan();
        let _ = plan.conv(&mut w, "c", x, 6, 2);
    }

    #[test]
    #[should_panic(expected = "out of [0,1)")]
    fn rejects_p_of_one() {
        let (_, mut plan, x) = tokens_plan();
        let _ = plan.dropout(x, 1.0);
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
