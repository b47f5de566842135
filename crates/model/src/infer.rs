//! The inference forward: the one tape-free path every prediction runs.
//!
//! Training records an autograd tape ([`overton_tensor::Graph`]) per
//! optimizer window, stacked the same way, because it needs gradients.
//! Inference does not, so
//! [`CompiledModel::predict`] — and through it evaluation, dev selection,
//! search, distillation and serving — runs an [`InferenceModel`] instead:
//! the same layers lowered to plain matrix arithmetic, with no tape nodes,
//! no per-node value storage and no weight copies.
//!
//! The forward is batched: [`InferenceModel::predict_batch`] stacks the
//! rows of every example in a micro-batch (token rows per sequence
//! payload, one row per example for singletons and the shared
//! representation, one row per set element) and runs each affine layer
//! once over the stack, with segment bounds recording which rows belong to
//! which example. Only what mixes rows within an example — the LSTM
//! recurrence, attention scores, aggregation and decoding — runs per
//! segment. A single prediction is a batch of one.
//!
//! Every affine layer is an `Affine`: parameter handles only, with the
//! weights read from the model's [`ParamStore`] at call time. It performs
//! the tape forward's arithmetic op for op, in f32, and GEMM rows are
//! independent of each other, so its output is **bit-identical** to
//! decoding a single-example training tape one example at a time (tested
//! against the per-example tape kept as the test oracle, over every
//! encoder, aggregation and head kind, in mixed batches).

use crate::features::CompiledExample;
use crate::network::{CompiledModel, Encoder, Head, Prediction, SliceModule, TaskOutput};
use crate::AggregationKind;
use overton_store::PayloadKind;
use overton_tensor::nn::{Linear, Lstm};
use overton_tensor::{softmax_in_place, stable_sigmoid, Matrix, ParamId, ParamStore};
use std::collections::BTreeMap;
use std::ops::Range;

/// The most examples one forward stacks: the serving pool's default
/// `max_batch`. [`CompiledModel::predict_batch`] and
/// [`crate::Server::predict_batch`] feed the forward in chunks of this
/// size, so memory follows the chunk and not the caller's input.
pub(crate) const MAX_BATCH: usize = 32;

/// One affine layer `y = x W + b`: handles into the model's [`ParamStore`].
struct Affine {
    weight: ParamId,
    bias: Option<ParamId>,
}

impl Affine {
    fn forward(&self, ps: &ParamStore, x: &Matrix) -> Matrix {
        let mut y = x.matmul(ps.value(self.weight));
        if let Some(bias) = self.bias {
            y.add_row(ps.value(bias));
        }
        y
    }
}

/// Row bounds of a row-stacked batch: example `b` owns rows
/// `starts[b]..starts[b + 1]` of every matrix stacked over these bounds.
/// Inference and the training tape stack the same way.
pub(crate) struct Segments {
    starts: Vec<usize>,
}

impl Segments {
    pub(crate) fn from_lens(lens: impl IntoIterator<Item = usize>) -> Self {
        let mut starts = vec![0];
        for len in lens {
            starts.push(starts[starts.len() - 1] + len);
        }
        Self { starts }
    }

    /// Example `b`'s rows.
    pub(crate) fn range(&self, b: usize) -> Range<usize> {
        self.starts[b]..self.starts[b + 1]
    }

    /// Number of examples.
    pub(crate) fn len(&self) -> usize {
        self.starts.len() - 1
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        self.starts.windows(2).map(|w| w[0]..w[1])
    }

    pub(crate) fn total(&self) -> usize {
        self.starts[self.starts.len() - 1]
    }

    /// The stacked rows of example `b`'s span `lo..hi`, clamped into its
    /// segment and at least one row long.
    pub(crate) fn span(&self, b: usize, (lo, hi): (usize, usize)) -> Range<usize> {
        let seg = self.range(b);
        let lo = lo.min(seg.len().saturating_sub(1));
        let hi = hi.clamp(lo + 1, seg.len());
        seg.start + lo..seg.start + hi
    }

    /// `(example, rows)` for every example that owns rows: the parameter
    /// blocks of an op over this stack (see `Graph::param_blocks`).
    pub(crate) fn blocks(&self) -> Vec<(usize, Range<usize>)> {
        self.iter().enumerate().filter(|(_, rows)| !rows.is_empty()).collect()
    }

    /// The example each stacked row belongs to.
    pub(crate) fn owners(&self) -> Vec<usize> {
        self.iter().enumerate().flat_map(|(b, rows)| std::iter::repeat_n(b, rows.len())).collect()
    }

    /// `m` with each segment's rows reversed in place (the backward LSTM
    /// direction, per example).
    pub(crate) fn reverse_rows(&self, m: &Matrix) -> Matrix {
        m.select_rows(&self.iter().flat_map(Iterator::rev).collect::<Vec<_>>())
    }

    /// Example `b`'s rows of `m`.
    pub(crate) fn rows(&self, m: &Matrix, b: usize) -> Matrix {
        m.select_rows(&self.range(b).collect::<Vec<_>>())
    }

    /// [`Matrix::im2row`] per segment, stacked: windows never reach across
    /// an example boundary.
    pub(crate) fn im2row(&self, m: &Matrix, k: usize) -> Matrix {
        let parts: Vec<Matrix> =
            (0..self.len()).map(|b| self.rows(m, b).im2row(k, k / 2)).collect();
        Matrix::concat_rows(&parts)
    }
}

/// Each example's token ids for the sequence payload `name`; an absent or
/// empty payload reads as a single PAD token.
pub(crate) fn token_ids<'e>(
    examples: impl IntoIterator<Item = &'e CompiledExample>,
    name: &str,
) -> Vec<&'e [usize]> {
    examples
        .into_iter()
        .map(|ex| match ex.sequences.get(name) {
            Some(ids) if !ids.is_empty() => ids.as_slice(),
            _ => &[overton_nlp::PAD],
        })
        .collect()
}

/// Each example's elements of the set payload `name` (none if absent).
pub(crate) fn set_elements<'e>(
    examples: impl IntoIterator<Item = &'e CompiledExample>,
    name: &str,
) -> Vec<&'e [(usize, (usize, usize))]> {
    examples.into_iter().map(|ex| ex.sets.get(name).map_or(&[][..], Vec::as_slice)).collect()
}

/// One LSTM direction. The gate bias is added after the two projections
/// (not folded into either), which is the tape's order.
struct InferLstm {
    wx: Affine,
    wh: Affine,
    bias: ParamId,
    hidden: usize,
}

impl InferLstm {
    /// Runs the recurrence over each segment of the stacked `rows x in_dim`
    /// input, returning `rows x hidden`. The input projection runs once over
    /// the whole stack; the recurrence steps through one segment at a time.
    fn forward(&self, ps: &ParamStore, xs: &Matrix, segs: &Segments) -> Matrix {
        let h = self.hidden;
        let bias = ps.value(self.bias).row(0);
        let xw_all = self.wx.forward(ps, xs);
        let mut out = Matrix::zeros(xs.rows(), h);
        for seg in segs.iter() {
            assert!(!seg.is_empty(), "LSTM over an empty sequence");
            let mut h_prev = Matrix::zeros(1, h);
            let mut c_prev = vec![0.0f32; h];
            for t in seg {
                // pre = (x_t W_x + h_{t-1} W_h) + b, gate order [i, f, c, o].
                let mut pre = self.wh.forward(ps, &h_prev);
                for ((p, &xw), &b) in pre.as_mut_slice().iter_mut().zip(xw_all.row(t)).zip(bias) {
                    *p = (xw + *p) + b;
                }
                let pre = pre.as_slice();
                let h_t = out.row_mut(t);
                for j in 0..h {
                    let i_gate = stable_sigmoid(pre[j]);
                    let f_gate = stable_sigmoid(pre[h + j]);
                    let c_cand = pre[2 * h + j].tanh();
                    let o_gate = stable_sigmoid(pre[3 * h + j]);
                    let c = f_gate * c_prev[j] + i_gate * c_cand;
                    c_prev[j] = c;
                    h_t[j] = o_gate * c.tanh();
                }
                h_prev.row_mut(0).copy_from_slice(h_t);
            }
        }
        out
    }
}

/// A sequence encoder, mirroring [`Encoder`].
enum InferEncoder {
    MeanBag(Affine),
    Cnn { conv: Affine, kernel: usize },
    Lstm(InferLstm),
    BiLstm { fwd: InferLstm, bwd: InferLstm },
    Attention { input_proj: Affine, wq: Affine, wk: Affine, wv: Affine, wo: Affine, heads: usize },
}

impl InferEncoder {
    /// Encodes the row-stacked embeddings of a batch: every affine layer
    /// runs once over the stack; only what mixes positions (the LSTM
    /// recurrence, the attention scores) runs per segment.
    fn forward(&self, ps: &ParamStore, embedded: &Matrix, segs: &Segments) -> Matrix {
        match self {
            InferEncoder::MeanBag(proj) => relu(proj.forward(ps, embedded)),
            InferEncoder::Cnn { conv, kernel } => {
                relu(conv.forward(ps, &segs.im2row(embedded, *kernel)))
            }
            InferEncoder::Lstm(lstm) => lstm.forward(ps, embedded, segs),
            InferEncoder::BiLstm { fwd, bwd } => {
                let b_rev = bwd.forward(ps, &segs.reverse_rows(embedded), segs);
                Matrix::concat_cols([&fwd.forward(ps, embedded, segs), &segs.reverse_rows(&b_rev)])
            }
            InferEncoder::Attention { input_proj, wq, wk, wv, wo, heads } => {
                let x = tanh(input_proj.forward(ps, embedded));
                let (q, k, v) = (wq.forward(ps, &x), wk.forward(ps, &x), wv.forward(ps, &x));
                let head_dim = q.cols() / heads;
                let scale = 1.0 / (head_dim as f32).sqrt();
                let attended: Vec<Matrix> = (0..segs.len())
                    .map(|b| {
                        let (q, k, v) = (segs.rows(&q, b), segs.rows(&k, b), segs.rows(&v, b));
                        let outputs: Vec<Matrix> = (0..*heads)
                            .map(|h| {
                                let (lo, hi) = (h * head_dim, (h + 1) * head_dim);
                                // The tape's order: an explicit transpose, then the scale.
                                let mut scores =
                                    q.slice_cols(lo, hi).matmul(&k.slice_cols(lo, hi).transpose());
                                scores.map_inplace(|s| s * scale);
                                for r in 0..scores.rows() {
                                    softmax_in_place(scores.row_mut(r));
                                }
                                scores.matmul(&v.slice_cols(lo, hi))
                            })
                            .collect();
                        Matrix::concat_cols(&outputs)
                    })
                    .collect();
                wo.forward(ps, &Matrix::concat_rows(&attended))
            }
        }
    }
}

/// A task head, mirroring [`Head`].
enum InferHead {
    PerElement { payload: String, linear: Affine },
    Single(Affine),
    Select { payload: String, combine: Affine, score: Affine },
}

/// A [`CompiledModel`]'s layers lowered for tape-free inference. Everything
/// else the forward needs (schema, payload order, embedding tables, LSTM
/// biases) it reads from the model it is run with.
pub(crate) struct InferenceModel {
    encoders: Vec<(String, InferEncoder)>,
    set_proj: Affine,
    heads: Vec<(String, InferHead, Decode)>,
    /// `(indicator, expert)` per slice; empty without slice heads.
    slices: Vec<(Affine, Affine)>,
}

impl InferenceModel {
    /// Lowers the layers to parameter handles; nothing is copied.
    pub(crate) fn lower(
        encoders: &BTreeMap<String, Encoder>,
        set_proj: &Linear,
        heads: &BTreeMap<String, Head>,
        slices: Option<&SliceModule>,
    ) -> Self {
        let linear = |l: &Linear| Affine { weight: l.weight_id(), bias: l.bias_id() };
        let lstm = |l: &Lstm| InferLstm {
            wx: Affine { weight: l.wx_id(), bias: None },
            wh: Affine { weight: l.wh_id(), bias: None },
            bias: l.bias_id(),
            hidden: l.hidden(),
        };
        let encoders = encoders
            .iter()
            .map(|(name, encoder)| {
                let lowered = match encoder {
                    Encoder::MeanBag(proj) => InferEncoder::MeanBag(linear(proj)),
                    Encoder::Cnn(conv) => InferEncoder::Cnn {
                        conv: Affine { weight: conv.weight_id(), bias: Some(conv.bias_id()) },
                        kernel: conv.kernel(),
                    },
                    Encoder::Lstm(l) => InferEncoder::Lstm(lstm(l)),
                    Encoder::BiLstm(bi) => {
                        InferEncoder::BiLstm { fwd: lstm(bi.fwd()), bwd: lstm(bi.bwd()) }
                    }
                    Encoder::Attention { input_proj, attention } => InferEncoder::Attention {
                        input_proj: linear(input_proj),
                        wq: linear(attention.wq()),
                        wk: linear(attention.wk()),
                        wv: linear(attention.wv()),
                        wo: linear(attention.wo()),
                        heads: attention.heads(),
                    },
                };
                (name.clone(), lowered)
            })
            .collect();
        let heads = heads
            .iter()
            .map(|(task, head)| {
                let lowered = match head {
                    Head::PerElement { payload, linear: l, .. } => {
                        InferHead::PerElement { payload: payload.clone(), linear: linear(l) }
                    }
                    Head::Single { linear: l, .. } => InferHead::Single(linear(l)),
                    Head::Select { payload, combine, score } => InferHead::Select {
                        payload: payload.clone(),
                        combine: linear(combine),
                        score: linear(score),
                    },
                };
                (task.clone(), lowered, head.decode())
            })
            .collect();
        let slices = slices.map_or_else(Vec::new, |s| {
            s.indicators.iter().zip(&s.experts).map(|(i, e)| (linear(i), linear(e))).collect()
        });
        Self { encoders, set_proj: linear(set_proj), heads, slices }
    }

    /// [`InferenceModel::predict_batch`] over a batch of one.
    pub(crate) fn predict(&self, model: &CompiledModel, example: &CompiledExample) -> Prediction {
        self.predict_batch(model, std::slice::from_ref(example)).pop().expect("one prediction")
    }

    /// Runs the forward over a batch and decodes every task output, in
    /// input order (dropout is off, as in any inference pass). `model` must
    /// be the model this was lowered from: its store supplies the weights.
    ///
    /// The batch's rows are stacked, so every affine layer runs once per
    /// batch. A row's result does not depend on which rows share the
    /// product (see `overton_tensor::kernels`), so each prediction is
    /// bit-identical to running its example alone. Memory grows with the
    /// batch; [`CompiledModel::predict_batch`] and
    /// [`crate::Server::predict_batch`] chunk their input to 32 examples.
    pub(crate) fn predict_batch(
        &self,
        model: &CompiledModel,
        examples: &[CompiledExample],
    ) -> Vec<Prediction> {
        if examples.is_empty() {
            return Vec::new();
        }
        let ps = &model.params;
        let schema = model.schema();
        let (n, hidden) = (examples.len(), model.hidden);

        // 1. Encode every sequence payload over the stacked token rows; an
        //    absent or empty payload reads as a single PAD token.
        let tokens = ps.value(model.token_embedding.table());
        let mut seq_enc: BTreeMap<&str, (Matrix, Segments)> = BTreeMap::new();
        for (name, encoder) in &self.encoders {
            let ids = token_ids(examples, name);
            let segs = Segments::from_lens(ids.iter().map(|ids| ids.len()));
            let encoded = encoder.forward(ps, &tokens.select_rows(&ids.concat()), &segs);
            seq_enc.insert(name.as_str(), (encoded, segs));
        }

        // 2. Singleton payloads aggregate their bases, in dependency order,
        //    into one `n x hidden` matrix each.
        let mut single_repr: BTreeMap<&str, Matrix> = BTreeMap::new();
        for name in &model.singleton_order {
            let mut repr = Matrix::zeros(n, hidden);
            for b in 0..n {
                let parts: Vec<Matrix> = schema.payloads[name]
                    .base
                    .iter()
                    .filter_map(|base| match seq_enc.get(base.as_str()) {
                        Some((enc, segs)) => Some(segs.rows(enc, b)),
                        None => single_repr.get(base.as_str()).map(|r| r.select_rows(&[b])),
                    })
                    .collect();
                if parts.is_empty() {
                    continue;
                }
                let stacked = Matrix::concat_rows(&parts);
                let aggregated = match model.config().aggregation {
                    AggregationKind::Mean => stacked.mean_rows(),
                    AggregationKind::Max => stacked.max_rows().0,
                };
                repr.row_mut(b).copy_from_slice(aggregated.row(0));
            }
            single_repr.insert(name.as_str(), repr);
        }

        // 3. Shared example-level representation: mean of singleton reprs
        //    (or of pooled sequence encodings when none exist).
        let mut shared = Matrix::zeros(n, hidden);
        for b in 0..n {
            let parts: Vec<Matrix> = if !single_repr.is_empty() {
                single_repr.values().map(|repr| repr.select_rows(&[b])).collect()
            } else {
                seq_enc.values().map(|(enc, segs)| segs.rows(enc, b).mean_rows()).collect()
            };
            if !parts.is_empty() {
                shared.row_mut(b).copy_from_slice(Matrix::concat_rows(&parts).mean_rows().row(0));
            }
        }

        // 4. Slice-based re-weighting of the shared representation.
        let indicator_logits: Vec<Matrix> =
            self.slices.iter().map(|(indicator, _)| indicator.forward(ps, &shared)).collect();
        if !self.slices.is_empty() {
            let experts: Vec<Matrix> =
                self.slices.iter().map(|(_, expert)| relu(expert.forward(ps, &shared))).collect();
            for b in 0..n {
                let mut weights = vec![0.0f32];
                weights.extend(indicator_logits.iter().map(|l| l[(b, 1)] - l[(b, 0)]));
                softmax_in_place(&mut weights);
                // The tape's order: start from repr_0 * w_0, then add each term.
                let mixed = shared.row_mut(b);
                mixed.iter_mut().for_each(|x| *x *= weights[0]);
                for (w, expert) in weights[1..].iter().zip(&experts) {
                    for (o, &x) in mixed.iter_mut().zip(expert.row(b)) {
                        *o += x * w;
                    }
                }
            }
        }

        // 5. Set payloads: one row per element of the whole batch, entity
        //    embedding joined with the mean encoding of its span in the
        //    range payload, through one projection.
        let entities = ps.value(model.entity_embedding.table());
        let entity_dim = entities.cols();
        let mut set_repr: BTreeMap<&str, (Matrix, Segments)> = BTreeMap::new();
        for (name, def) in &schema.payloads {
            if !matches!(def.kind, PayloadKind::Set) {
                continue;
            }
            let sets = set_elements(examples, name);
            let segs = Segments::from_lens(sets.iter().map(|els| els.len()));
            if segs.total() == 0 {
                continue;
            }
            let range_enc = def.range.as_deref().and_then(|r| seq_enc.get(r));
            let mut joined = Matrix::zeros(segs.total(), entity_dim + hidden);
            for (b, elements) in sets.iter().enumerate() {
                for (row, &(entity_id, span)) in segs.range(b).zip(elements.iter()) {
                    let row = joined.row_mut(row);
                    row[..entity_dim].copy_from_slice(entities.row(entity_id));
                    let Some((enc, enc_segs)) = range_enc else { continue };
                    let span = enc.select_rows(&enc_segs.span(b, span).collect::<Vec<_>>());
                    row[entity_dim..].copy_from_slice(span.mean_rows().row(0));
                }
            }
            set_repr.insert(name.as_str(), (tanh(self.set_proj.forward(ps, &joined)), segs));
        }

        // 6. Task heads over the whole batch.
        let mut task_logits = Vec::with_capacity(self.heads.len());
        for (task, head, kind) in &self.heads {
            let (logits, rows) = match head {
                InferHead::PerElement { payload, linear } => {
                    let Some((enc, segs)) = seq_enc.get(payload.as_str()) else { continue };
                    // Skip placeholder-only sequences (payload absent).
                    let rows = examples
                        .iter()
                        .enumerate()
                        .map(|(b, ex)| {
                            let present =
                                ex.sequences.get(payload).is_some_and(|ids| !ids.is_empty());
                            present.then(|| segs.range(b))
                        })
                        .collect();
                    (linear.forward(ps, enc), rows)
                }
                InferHead::Single(linear) => {
                    (linear.forward(ps, &shared), (0..n).map(|b| Some(b..b + 1)).collect())
                }
                InferHead::Select { payload, combine, score } => {
                    let Some((elements, segs)) = set_repr.get(payload.as_str()) else { continue };
                    // Pair each element with its example's shared repr, score each pair.
                    let context = shared.select_rows(&segs.owners());
                    let activated =
                        tanh(combine.forward(ps, &Matrix::concat_cols([&context, elements])));
                    let rows = segs.iter().map(|r| Some(r).filter(|r| !r.is_empty())).collect();
                    (score.forward(ps, &activated), rows) // [elements, 1]
                }
            };
            task_logits.push(HeadLogits { task, kind: *kind, logits, rows });
        }

        (0..n)
            .map(|b| {
                decode(
                    task_logits.iter().filter_map(|head| {
                        let rows = head.rows[b].as_ref()?;
                        let width = head.logits.cols();
                        let values = &head.logits.as_slice()[rows.start * width..rows.end * width];
                        Some((head.task, head.kind, values, width))
                    }),
                    indicator_logits.iter().map(|l| l.row(b)),
                )
            })
            .collect()
    }
}

/// One head's logits over a batch.
struct HeadLogits<'a> {
    task: &'a String,
    kind: Decode,
    logits: Matrix,
    /// The logit rows each example owns (`None`: no output for it).
    rows: Vec<Option<Range<usize>>>,
}

fn relu(mut m: Matrix) -> Matrix {
    m.map_inplace(|x| x.max(0.0));
    m
}

fn tanh(mut m: Matrix) -> Matrix {
    m.map_inplace(f32::tanh);
    m
}

/// How a head's raw logits decode into a [`TaskOutput`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Decode {
    /// Per-row argmax, or per-row thresholded bits with `bce`.
    PerElement { bce: bool },
    /// Softmax distribution, or sigmoid bits with `bce`.
    Single { bce: bool },
    /// Softmax over set elements.
    Select,
}

/// Index of the largest value (first on ties), as [`Matrix::row_argmax`].
pub(crate) fn argmax(xs: &[f32]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate() {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

/// Decodes per-task `(task, kind, logits, width)` (row-major logits,
/// `width` wide) and per-slice `[non-member, member]` indicator logits
/// into a [`Prediction`]. A select head's logits are its element scores,
/// whatever their width.
pub(crate) fn decode<'a>(
    task_logits: impl Iterator<Item = (&'a String, Decode, &'a [f32], usize)>,
    indicator_logits: impl Iterator<Item = &'a [f32]>,
) -> Prediction {
    let mut tasks = BTreeMap::new();
    for (task, kind, values, width) in task_logits {
        let output = match kind {
            Decode::PerElement { bce: false } => TaskOutput::MulticlassSeq {
                classes: values.chunks_exact(width).map(argmax).collect(),
            },
            Decode::PerElement { bce: true } => TaskOutput::BitsSeq {
                rows: values
                    .chunks_exact(width)
                    .map(|row| row.iter().map(|&x| x > 0.0).collect())
                    .collect(),
            },
            Decode::Single { bce: false } => {
                let mut dist = values.to_vec();
                softmax_in_place(&mut dist);
                TaskOutput::Multiclass { class: argmax(values), dist }
            }
            Decode::Single { bce: true } => {
                let probs: Vec<f32> = values.iter().map(|&x| stable_sigmoid(x)).collect();
                TaskOutput::Bits { bits: probs.iter().map(|&p| p > 0.5).collect(), probs }
            }
            Decode::Select => {
                let mut dist = values.to_vec();
                softmax_in_place(&mut dist);
                TaskOutput::Select { index: argmax(values), dist }
            }
        };
        tasks.insert(task.clone(), output);
    }
    let slice_probs = indicator_logits.map(|row| stable_sigmoid(row[1] - row[0])).collect();
    Prediction { tasks, slice_probs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EncoderKind, ModelConfig};
    use crate::features::FeatureSpace;
    use crate::oracle;
    use overton_nlp::{generate_workload, WorkloadConfig};
    use overton_store::Dataset;
    use overton_tensor::Graph;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    const ENCODERS: [EncoderKind; 5] = [
        EncoderKind::MeanBag,
        EncoderKind::Cnn,
        EncoderKind::Lstm,
        EncoderKind::BiLstm,
        EncoderKind::Attention,
    ];

    fn setup() -> (Dataset, FeatureSpace) {
        let ds = generate_workload(&WorkloadConfig {
            n_train: 60,
            n_dev: 15,
            n_test: 30,
            seed: 11,
            slice_rate: 0.3,
            ..Default::default()
        });
        let space = FeatureSpace::build_from_store(&ds.seal()).unwrap();
        (ds, space)
    }

    /// The per-example training tape's forward (the test oracle), decoded.
    fn tape_predict(model: &CompiledModel, example: &CompiledExample) -> Prediction {
        let mut g = Graph::new();
        let pass = oracle::forward(model, &mut g, example, false, &mut SmallRng::seed_from_u64(0));
        decode(
            pass.task_logits.iter().map(|(task, &l)| {
                (task, model.heads[task].decode(), g.value(l).as_slice(), g.value(l).cols())
            }),
            pass.indicator_logits.iter().map(|&l| g.value(l).as_slice()),
        )
    }

    #[test]
    fn batched_forward_is_bit_identical_to_the_tape() {
        let (ds, space) = setup();
        let schema = oracle::every_branch_schema();
        let mut exs = oracle::every_branch_examples(&ds, &ds.test_indices(), &space, &schema);
        // The PAD path (an empty sequence) and an empty entity set, in the
        // middle of the batch so segments on both sides of them must line up.
        let mut empty_tokens = exs[0].clone();
        empty_tokens.sequences.get_mut("tokens").expect("tokens").clear();
        let mut empty_entities = exs[1].clone();
        empty_entities.sets.get_mut("entities").expect("entities").clear();
        let middle = exs.len() / 2;
        exs.splice(middle..middle, [empty_tokens, empty_entities]);
        let lengths: std::collections::HashSet<usize> =
            exs.iter().map(|ex| ex.sequences["tokens"].len()).collect();
        assert!(lengths.len() > 2, "the batch must mix sequence lengths");
        assert!(exs.len() <= MAX_BATCH, "one forward over the whole batch");

        let mut outputs = std::collections::HashSet::new();
        for encoder in ENCODERS {
            for slice_heads in [true, false] {
                for aggregation in [AggregationKind::Mean, AggregationKind::Max] {
                    let config =
                        ModelConfig { encoder, slice_heads, aggregation, ..Default::default() };
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
                    let batch = model.inference.predict_batch(&model, &exs);
                    assert_eq!(batch.len(), exs.len());
                    for (ex, fast) in exs.iter().zip(&batch) {
                        assert_eq!(
                            format!("{fast:?}"),
                            format!("{:?}", tape_predict(&model, ex)),
                            "{config:?} diverged from the tape"
                        );
                        assert_eq!(fast.slice_probs.is_empty(), !slice_heads);
                        outputs.extend(fast.tasks.values().map(std::mem::discriminant));
                    }
                }
            }
        }
        assert_eq!(outputs.len(), 5, "every head kind must be decoded");
    }
}
