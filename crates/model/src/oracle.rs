//! The per-example training tape as it was before training stacked each
//! optimizer window onto one tape, kept verbatim as the test oracle: one
//! graph per example, every layer through the `nn` layers on that
//! example's rows, each example's gradients merged in turn. The stacked
//! trainer must reproduce its weights bit for bit. Also the fixtures the
//! bit-identity tests share.

use crate::backprop::Workspace;
use crate::config::{AggregationKind, EncoderKind, TrainConfig};
use crate::features::{gold_to_prob, CompiledExample, FeatureSpace};
use crate::network::{CompiledModel, Encoder, Head};
use overton_store::{Dataset, PayloadDef, PayloadKind, Schema, TaskDef, TaskKind};
use overton_supervision::ProbLabel;
use overton_tensor::{Graph, Matrix, NodeId, ParamId, ParamStore};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

impl Encoder {
    fn forward<'p>(&self, g: &mut Graph<'p>, ps: &'p ParamStore, embedded: NodeId) -> NodeId {
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

/// Everything a forward pass produces (node ids into the caller's graph).
pub(crate) struct ForwardPass {
    /// Per-task logits: `[T, K]` for sequence tasks, `[1, K]` for singleton
    /// tasks, `[1, k]` for select tasks (absent when the payload is empty).
    pub(crate) task_logits: BTreeMap<String, NodeId>,
    /// Per-slice indicator logits (`[1, 2]` each).
    pub(crate) indicator_logits: Vec<NodeId>,
}

/// Runs the network over one example on an autograd tape, emitting
/// logits for every task whose payload has content. This is training's
/// forward; inference runs tape-free through [`CompiledModel::predict`].
pub(crate) fn forward<'p>(
    model: &'p CompiledModel,
    g: &mut Graph<'p>,
    example: &CompiledExample,
    train: bool,
    rng: &mut SmallRng,
) -> ForwardPass {
    let ps = &model.params;

    // 1. Encode every sequence payload.
    let mut seq_enc: BTreeMap<&str, NodeId> = BTreeMap::new();
    for (name, encoder) in &model.encoders {
        let ids: &[usize] = match example.sequences.get(name) {
            Some(ids) if !ids.is_empty() => ids,
            _ => &[overton_nlp::PAD],
        };
        let embedded = model.token_embedding.forward(g, ps, ids);
        let encoded = encoder.forward(g, ps, embedded);
        let encoded = model.dropout.forward(g, encoded, train, rng);
        seq_enc.insert(name.as_str(), encoded);
    }

    // 2. Singleton payloads aggregate their base payloads.
    let mut single_repr: BTreeMap<&str, NodeId> = BTreeMap::new();
    for name in &model.singleton_order {
        let def = &model.schema().payloads[name];
        let mut parts: Vec<NodeId> = Vec::new();
        for base in &def.base {
            if let Some(&enc) = seq_enc.get(base.as_str()) {
                parts.push(enc);
            } else if let Some(repr) = single_repr.get(base.as_str()) {
                parts.push(*repr);
            }
        }
        let repr = if parts.is_empty() {
            g.constant(Matrix::zeros(1, model.hidden))
        } else {
            let stacked = g.concat_rows(&parts);
            match model.config().aggregation {
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
            g.constant(Matrix::zeros(1, model.hidden))
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
    let shared = if let Some(slices) = &model.slices {
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
    for (name, def) in &model.schema().payloads {
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
            let emb = model.entity_embedding.forward(g, ps, &[entity_id]);
            let span_summary = match range_enc {
                Some(enc) => {
                    let t_len = g.value(enc).rows();
                    let lo = lo.min(t_len.saturating_sub(1));
                    let hi = hi.clamp(lo + 1, t_len);
                    let span_rows: Vec<usize> = (lo..hi).collect();
                    let picked = g.select_rows(enc, &span_rows);
                    g.mean_rows(picked)
                }
                None => g.constant(Matrix::zeros(1, model.hidden)),
            };
            let cat = g.concat_cols(&[emb, span_summary]);
            let projected = model.set_proj.forward(g, ps, cat);
            rows.push(g.tanh(projected));
        }
        let stacked = g.concat_rows(&rows);
        set_repr.insert(name.as_str(), (stacked, elements.len()));
    }

    // 6. Task heads.
    let mut task_logits = BTreeMap::new();
    for (task, head) in &model.heads {
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
pub(crate) fn loss(
    model: &CompiledModel,
    g: &mut Graph,
    pass: &ForwardPass,
    example: &CompiledExample,
    indicator_loss_weight: f32,
) -> Option<NodeId> {
    let mut terms: Vec<NodeId> = Vec::new();
    for (task, target) in &example.targets {
        let Some(&logits) = pass.task_logits.get(task) else { continue };
        let Some(head) = model.heads.get(task) else { continue };
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

/// Forward + backward for a single example on its own tape, using a
/// private RNG so dropout draws are independent of which worker runs it.
/// Returns its loss and its parameter-leaf gradients in leaf order, or
/// `None` when the example contributes no loss (no usable targets),
/// mirroring the serial loop's `continue`.
fn example_gradient(
    model: &CompiledModel,
    example: &CompiledExample,
    seed: u64,
    config: &TrainConfig,
) -> Option<(f32, Vec<(ParamId, Matrix)>)> {
    let mut ex_rng = SmallRng::seed_from_u64(seed);
    let mut g = Graph::new();
    let pass = forward(model, &mut g, example, true, &mut ex_rng);
    let mut loss = loss(model, &mut g, &pass, example, config.indicator_loss_weight)?;
    // Declared slices get extra training focus (the loss-side half of
    // slice-based learning).
    if model.has_slice_heads()
        && config.slice_loss_boost != 1.0
        && example.slice_membership.iter().any(|&m| m)
    {
        loss = g.scale(loss, config.slice_loss_boost);
    }
    let loss_value = g.value(loss).scalar_value();
    g.backward(loss);
    Some((loss_value, g.take_param_grads()))
}

/// Each example's gradients on a tape of its own, in order, as the
/// workspace's partials.
pub(crate) fn example_gradients(
    model: &CompiledModel,
    examples: &[&CompiledExample],
    seeds: &[u64],
    config: &TrainConfig,
    ws: &mut Workspace,
) {
    ws.partials.clear(examples.len());
    for (b, (example, &seed)) in examples.iter().zip(seeds).enumerate() {
        let result = example_gradient(model, example, seed, config);
        ws.partials.losses.push(result.as_ref().map(|(loss, _)| *loss));
        // The merge walks an example's partials back to front.
        for (param, grad) in result.into_iter().flat_map(|(_, grads)| grads).rev() {
            ws.partials.push(b, param, 0, grad.len()).copy_from_slice(grad.as_slice());
        }
    }
}

/// Every encoder kind.
pub(crate) const ENCODERS: [EncoderKind; 5] = [
    EncoderKind::MeanBag,
    EncoderKind::Cnn,
    EncoderKind::Lstm,
    EncoderKind::BiLstm,
    EncoderKind::Attention,
];

/// The workload schema plus what it lacks to reach every forward
/// branch: a singleton bitvector head, a singleton built on another
/// singleton, and a set with no range payload (zero span summaries).
pub(crate) fn every_branch_schema() -> Schema {
    let mut schema = overton_nlp::workload_schema();
    let labels = |names: &[&str]| names.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    schema.payloads.insert(
        "summary".into(),
        PayloadDef {
            kind: PayloadKind::Singleton,
            base: labels(&["query", "tokens"]),
            range: None,
        },
    );
    schema.payloads.insert(
        "mentions".into(),
        PayloadDef { kind: PayloadKind::Set, base: vec![], range: None },
    );
    let task = |payload: &str, kind| TaskDef { payload: payload.into(), kind };
    schema.tasks.insert(
        "Flags".into(),
        task("query", TaskKind::Bitvector { labels: labels(&["a", "b", "c"]) }),
    );
    schema.tasks.insert(
        "Topic".into(),
        task("summary", TaskKind::Multiclass { classes: labels(&["x", "y"]) }),
    );
    schema.tasks.insert("MentionArg".into(), task("mentions", TaskKind::Select));
    schema.validate().expect("extended schema is valid");
    schema
}

/// The records of `ds` at `indices`, compiled against
/// [`every_branch_schema`] with each entity set copied into `mentions`.
pub(crate) fn every_branch_examples(
    ds: &Dataset,
    indices: &[usize],
    space: &FeatureSpace,
    schema: &Schema,
) -> Vec<CompiledExample> {
    indices
        .iter()
        .map(|&i| {
            let mut record = ds.records()[i].clone();
            if let Some(entities) = record.payloads.get("entities").cloned() {
                record.payloads.insert("mentions".into(), entities);
            }
            CompiledExample::from_record(&record, i, space, schema)
        })
        .collect()
}

/// Soft targets, as the label model produces: gold mixed with uniform
/// (bits pulled toward 1/2); unlabeled sequence rows stay all-zero.
fn soften(label: ProbLabel) -> ProbLabel {
    let mix = |p: &[f32]| -> Vec<f32> {
        if p.iter().sum::<f32>() == 0.0 {
            return p.to_vec();
        }
        let uniform = 1.0 / p.len() as f32;
        p.iter().map(|&x| 0.8 * x + 0.2 * uniform).collect()
    };
    let pull = |b: &[f32]| -> Vec<f32> { b.iter().map(|&x| 0.8 * x + 0.1).collect() };
    match label {
        ProbLabel::Dist(d) => ProbLabel::Dist(mix(&d)),
        ProbLabel::SeqDist(rows) => ProbLabel::SeqDist(rows.iter().map(|r| mix(r)).collect()),
        ProbLabel::Bits(b) => ProbLabel::Bits(pull(&b)),
        ProbLabel::SeqBits(rows) => ProbLabel::SeqBits(rows.iter().map(|r| pull(r)).collect()),
    }
}

/// A soft distribution over `k` choices favouring `favourite`.
fn leaning(k: usize, favourite: usize) -> ProbLabel {
    let mut d = vec![0.4 / k as f32; k];
    d[favourite % k] += 0.6;
    ProbLabel::Dist(d)
}

/// Training examples over the every-branch schema with soft targets on
/// every task, plus the edge cases a stacked tape must line up around.
pub(crate) fn soft_training_set(ds: &Dataset, space: &FeatureSpace) -> Vec<CompiledExample> {
    let schema = every_branch_schema();
    let indices = &ds.train_indices()[..14];
    let mut exs = every_branch_examples(ds, indices, space, &schema);
    for (n, ex) in exs.iter_mut().enumerate() {
        let record = &ds.records()[ex.record_index];
        for task in ds.schema().tasks.keys() {
            if let Some(p) = gold_to_prob(ds.schema(), record, task) {
                ex.targets.insert(task.clone(), soften(p));
            }
        }
        let flags = [0.9, 0.2, 0.6].iter().map(|&p: &f32| (p + 0.05 * n as f32).min(1.0));
        ex.targets.insert("Flags".into(), ProbLabel::Bits(flags.collect()));
        ex.targets.insert("Topic".into(), leaning(2, n));
        let mentions = ex.sets["mentions"].len();
        if mentions > 0 {
            ex.targets.insert("MentionArg".into(), leaning(mentions, n));
        }
        // Slice members (and so the loss boost) on every third example.
        ex.slice_membership.iter_mut().for_each(|m| *m = n % 3 == 0);
    }
    let base = exs[0].clone();
    let mut edge = Vec::new();
    // The PAD path: an absent and an empty sequence payload.
    let mut absent = base.clone();
    absent.sequences.remove("tokens");
    edge.push(absent);
    let mut empty = exs[1].clone();
    empty.sequences.get_mut("tokens").expect("tokens").clear();
    edge.push(empty);
    // Empty and single-element entity sets.
    let mut no_entities = exs[2].clone();
    no_entities.sets.get_mut("entities").expect("entities").clear();
    edge.push(no_entities);
    let mut one_entity = exs[3].clone();
    one_entity.sets.get_mut("entities").expect("entities").truncate(1);
    one_entity.targets.insert("IntentArg".into(), ProbLabel::Dist(vec![1.0]));
    edge.push(one_entity);
    // Overlapping spans: the span gradients must add in a fixed order.
    let mut overlapping = exs[4].clone();
    let entities = overlapping.sets.get_mut("entities").expect("entities");
    let (id, (lo, hi)) = entities[0];
    entities.push((id, (lo, hi + 1)));
    entities.push((id, (lo.saturating_sub(1), hi)));
    let k = entities.len();
    overlapping.targets.insert("IntentArg".into(), leaning(k, 1));
    edge.push(overlapping);
    // No targets at all: the window tops itself up past it.
    let mut unsupervised = exs[5].clone();
    unsupervised.targets.clear();
    edge.push(unsupervised);
    // Interleave the edge cases so they land in different windows.
    for (at, ex) in edge.into_iter().enumerate() {
        exs.insert(1 + 3 * at, ex);
    }
    exs
}
