//! Fixtures shared by the bit-identity and gradient tests: a schema and
//! examples that reach every branch of the model plan, a soft-target
//! training set with the edge cases a stacked batch must line up around,
//! and each example's raw logits copied out of an inference run. The
//! per-example reference they feed is the training executor itself, run
//! as a batch of one per example (`trainer.rs`), or the inference
//! executor over a batch of one.

use crate::config::EncoderKind;
use crate::features::{gold_to_prob, CompiledExample, FeatureSpace};
use crate::network::CompiledModel;
use overton_store::{Dataset, PayloadDef, PayloadKind, Schema, TaskDef, TaskKind};
use overton_supervision::ProbLabel;

/// Every encoder kind.
pub(crate) const ENCODERS: [EncoderKind; 5] = [
    EncoderKind::MeanBag,
    EncoderKind::Cnn,
    EncoderKind::Lstm,
    EncoderKind::BiLstm,
    EncoderKind::Attention,
];

/// One example's raw outputs as bits, copied out of an inference run's
/// arena: per head with an output for it, in plan order, its task and its
/// row-major logits, and per slice the indicator's `[non-member, member]`
/// logits.
#[derive(Debug, PartialEq)]
pub(crate) struct RawLogits {
    pub(crate) heads: Vec<(String, Vec<u32>)>,
    pub(crate) indicators: Vec<[u32; 2]>,
}

impl RawLogits {
    /// The logits of `task`'s head, if it has an output.
    pub(crate) fn head(&self, task: &str) -> Option<Vec<f32>> {
        let (_, bits) = self.heads.iter().find(|(t, _)| t == task)?;
        Some(bits.iter().map(|&b| f32::from_bits(b)).collect())
    }
}

/// Each example's [`RawLogits`] from `model`'s inference entry, in input
/// order.
pub(crate) fn raw_logits(model: &CompiledModel, examples: &[CompiledExample]) -> Vec<RawLogits> {
    let mut out = Vec::with_capacity(examples.len());
    model.infer(examples, |_, logits| {
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect();
        out.push(RawLogits {
            heads: logits.heads().map(|h| (h.head.task.clone(), bits(h.values))).collect(),
            indicators: logits.indicators().map(|r| [r[0].to_bits(), r[1].to_bits()]).collect(),
        });
    });
    out
}

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
/// every task, plus the edge cases a stacked batch must line up around.
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
