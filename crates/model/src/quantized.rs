//! Post-training-quantized inference for the cascade's small model.
//!
//! The paper's model pairs (§2.4) exist because "the small model must meet
//! SLA requirements". This module converts a trained [`CompiledModel`] into
//! a [`QuantizedModel`]: every affine weight matrix is stored as i8 codes
//! with per-output-channel scales ([`overton_tensor::quant`]), and the
//! forward pass runs **tape-free** — plain matrix arithmetic with no
//! autodiff graph, no per-node value storage, and no parameter copies into
//! a tape. Embedding tables, biases and activations stay f32; only the
//! matmul weights (the bulk of the parameters and the flops) are
//! quantized, with i32 accumulation inside each dot product.
//!
//! Outputs approximate the f32 model (quantization is lossy by design);
//! the cascade's confidence threshold and the quality-guard tests bound
//! the damage, and escalation still re-runs the full-precision large
//! model.

use crate::features::CompiledExample;
use crate::network::{decode, CompiledModel, Decode, Encoder, Head, Prediction, SliceModule};
use overton_store::{PayloadKind, Schema};
use overton_tensor::nn::{Linear, Lstm};
use overton_tensor::quant::QuantizedLinear;
use overton_tensor::{Matrix, ParamStore};
use std::collections::BTreeMap;

/// A quantized affine layer converted from a [`Linear`]'s parameters.
fn quantize_linear(store: &ParamStore, linear: &Linear) -> QuantizedLinear {
    QuantizedLinear::new(store.value(linear.weight_id()), linear.bias_id().map(|b| store.value(b)))
}

/// One direction of a quantized LSTM. The gate bias is folded into the
/// recurrent projection's bias (the recurrence adds both to the same
/// pre-activation row every step).
struct QuantLstm {
    wx: QuantizedLinear,
    wh: QuantizedLinear,
    hidden: usize,
}

impl QuantLstm {
    fn from_lstm(store: &ParamStore, lstm: &Lstm) -> Self {
        Self {
            wx: QuantizedLinear::new(store.value(lstm.wx_id()), None),
            wh: QuantizedLinear::new(store.value(lstm.wh_id()), Some(store.value(lstm.bias_id()))),
            hidden: lstm.hidden(),
        }
    }

    /// Runs the recurrence over `T x in_dim`, returning `T x hidden`.
    fn forward(&self, xs: &Matrix) -> Matrix {
        let t_len = xs.rows();
        assert!(t_len > 0, "LSTM over an empty sequence");
        let h = self.hidden;
        let xw_all = self.wx.forward(xs);
        let mut h_prev = Matrix::zeros(1, h);
        let mut c_prev = vec![0.0f32; h];
        let mut out = Matrix::zeros(t_len, h);
        for t in 0..t_len {
            // pre = x_t W_x + h_{t-1} W_h + b, gate order [i, f, c, o].
            let mut pre = self.wh.forward(&h_prev);
            for (p, &xw) in pre.as_mut_slice().iter_mut().zip(xw_all.row(t)) {
                *p += xw;
            }
            let pre = pre.as_slice();
            let mut h_t = Matrix::zeros(1, h);
            for j in 0..h {
                let i_gate = overton_tensor::stable_sigmoid(pre[j]);
                let f_gate = overton_tensor::stable_sigmoid(pre[h + j]);
                let c_cand = pre[2 * h + j].tanh();
                let o_gate = overton_tensor::stable_sigmoid(pre[3 * h + j]);
                let c = f_gate * c_prev[j] + i_gate * c_cand;
                c_prev[j] = c;
                h_t[(0, j)] = o_gate * c.tanh();
            }
            out.row_mut(t).copy_from_slice(h_t.row(0));
            h_prev = h_t;
        }
        out
    }
}

/// A quantized sequence encoder mirroring [`Encoder`].
enum QuantEncoder {
    MeanBag(QuantizedLinear),
    Cnn {
        conv: QuantizedLinear,
        kernel: usize,
    },
    Lstm(QuantLstm),
    BiLstm {
        fwd: QuantLstm,
        bwd: QuantLstm,
    },
    Attention {
        input_proj: QuantizedLinear,
        wq: QuantizedLinear,
        wk: QuantizedLinear,
        wv: QuantizedLinear,
        wo: QuantizedLinear,
        heads: usize,
        dim: usize,
    },
}

impl QuantEncoder {
    fn from_encoder(store: &ParamStore, encoder: &Encoder) -> Self {
        match encoder {
            Encoder::MeanBag(proj) => QuantEncoder::MeanBag(quantize_linear(store, proj)),
            Encoder::Cnn(conv) => QuantEncoder::Cnn {
                conv: QuantizedLinear::new(
                    store.value(conv.weight_id()),
                    Some(store.value(conv.bias_id())),
                ),
                kernel: conv.kernel(),
            },
            Encoder::Lstm(lstm) => QuantEncoder::Lstm(QuantLstm::from_lstm(store, lstm)),
            Encoder::BiLstm(bi) => QuantEncoder::BiLstm {
                fwd: QuantLstm::from_lstm(store, bi.fwd()),
                bwd: QuantLstm::from_lstm(store, bi.bwd()),
            },
            Encoder::Attention { input_proj, attention } => QuantEncoder::Attention {
                input_proj: quantize_linear(store, input_proj),
                wq: quantize_linear(store, attention.wq()),
                wk: quantize_linear(store, attention.wk()),
                wv: quantize_linear(store, attention.wv()),
                wo: quantize_linear(store, attention.wo()),
                heads: attention.heads(),
                dim: attention.dim(),
            },
        }
    }

    fn forward(&self, embedded: &Matrix) -> Matrix {
        match self {
            QuantEncoder::MeanBag(proj) => relu(proj.forward(embedded)),
            QuantEncoder::Cnn { conv, kernel } => {
                relu(conv.forward(&embedded.im2row(*kernel, kernel / 2)))
            }
            QuantEncoder::Lstm(lstm) => lstm.forward(embedded),
            QuantEncoder::BiLstm { fwd, bwd } => {
                let f = fwd.forward(embedded);
                let b_rev = bwd.forward(&embedded.reverse_rows());
                f.hstack(&b_rev.reverse_rows())
            }
            QuantEncoder::Attention { input_proj, wq, wk, wv, wo, heads, dim } => {
                let x = tanh(input_proj.forward(embedded));
                let q = wq.forward(&x);
                let k = wk.forward(&x);
                let v = wv.forward(&x);
                let head_dim = dim / heads;
                let scale = 1.0 / (head_dim as f32).sqrt();
                let mut concat: Option<Matrix> = None;
                for h in 0..*heads {
                    let (lo, hi) = (h * head_dim, (h + 1) * head_dim);
                    let qh = q.slice_cols(lo, hi);
                    let kh = k.slice_cols(lo, hi);
                    let vh = v.slice_cols(lo, hi);
                    let mut scores = qh.matmul_transpose_b(&kh);
                    scores.scale_inplace(scale);
                    for r in 0..scores.rows() {
                        overton_tensor::softmax_in_place(scores.row_mut(r));
                    }
                    let out = scores.matmul(&vh);
                    concat = Some(match concat {
                        None => out,
                        Some(acc) => acc.hstack(&out),
                    });
                }
                wo.forward(&concat.expect("at least one head"))
            }
        }
    }
}

/// A quantized task head mirroring [`Head`] (decoding is the f32 head's
/// [`Decode`], kept beside it).
enum QuantHead {
    PerElement { payload: String, linear: QuantizedLinear },
    Single { linear: QuantizedLinear },
    Select { payload: String, combine: QuantizedLinear, score: QuantizedLinear },
}

/// Quantized slice-based-learning heads mirroring [`SliceModule`].
struct QuantSlices {
    indicators: Vec<QuantizedLinear>,
    experts: Vec<QuantizedLinear>,
}

/// A [`CompiledModel`] converted for i8 inference: same architecture, same
/// decode, quantized affine weights, tape-free forward.
pub struct QuantizedModel {
    schema: Schema,
    aggregation_max: bool,
    token_table: Matrix,
    entity_table: Matrix,
    encoders: BTreeMap<String, QuantEncoder>,
    set_proj: QuantizedLinear,
    heads: BTreeMap<String, QuantHead>,
    decoders: BTreeMap<String, Decode>,
    slices: Option<QuantSlices>,
    hidden: usize,
}

impl QuantizedModel {
    /// Converts a trained model. The source model is unchanged; the
    /// conversion clones the embedding tables and quantizes every affine
    /// weight matrix to i8 codes with per-output-channel scales.
    pub fn from_model(model: &CompiledModel) -> Self {
        let store = &model.params;
        let encoders = model
            .encoders
            .iter()
            .map(|(name, enc)| (name.clone(), QuantEncoder::from_encoder(store, enc)))
            .collect();
        let heads = model
            .heads
            .iter()
            .map(|(task, head)| {
                let q = match head {
                    Head::PerElement { payload, linear, .. } => QuantHead::PerElement {
                        payload: payload.clone(),
                        linear: quantize_linear(store, linear),
                    },
                    Head::Single { linear, .. } => {
                        QuantHead::Single { linear: quantize_linear(store, linear) }
                    }
                    Head::Select { payload, combine, score } => QuantHead::Select {
                        payload: payload.clone(),
                        combine: quantize_linear(store, combine),
                        score: quantize_linear(store, score),
                    },
                };
                (task.clone(), q)
            })
            .collect();
        let decoders =
            model.heads.iter().map(|(task, head)| (task.clone(), head.decode())).collect();
        let slices = model.slices.as_ref().map(|SliceModule { indicators, experts }| QuantSlices {
            indicators: indicators.iter().map(|l| quantize_linear(store, l)).collect(),
            experts: experts.iter().map(|l| quantize_linear(store, l)).collect(),
        });
        Self {
            schema: model.schema().clone(),
            aggregation_max: matches!(
                model.config().aggregation,
                crate::config::AggregationKind::Max
            ),
            token_table: store.value(model.token_embedding.table()).clone(),
            entity_table: store.value(model.entity_embedding.table()).clone(),
            encoders,
            set_proj: quantize_linear(store, &model.set_proj),
            heads,
            decoders,
            slices,
            hidden: model.hidden,
        }
    }

    /// Tape-free quantized inference, mirroring [`CompiledModel::predict`]
    /// step for step (with dropout disabled, as in any inference pass).
    pub fn predict(&self, example: &CompiledExample) -> Prediction {
        // 1. Encode every sequence payload.
        let mut seq_enc: BTreeMap<&str, Matrix> = BTreeMap::new();
        for (name, encoder) in &self.encoders {
            let embedded = match example.sequences.get(name) {
                Some(ids) if !ids.is_empty() => self.token_table.select_rows(ids),
                _ => self.token_table.select_rows(&[overton_nlp::PAD]),
            };
            seq_enc.insert(name.as_str(), encoder.forward(&embedded));
        }

        // 2. Singleton payloads aggregate their base payloads.
        let mut single_repr: BTreeMap<&str, Matrix> = BTreeMap::new();
        for name in self.schema.payload_topo_order() {
            let def = &self.schema.payloads[&name];
            if !matches!(def.kind, PayloadKind::Singleton) {
                continue;
            }
            let mut parts: Vec<&Matrix> = Vec::new();
            for base in &def.base {
                if let Some(enc) = seq_enc.get(base.as_str()) {
                    parts.push(enc);
                } else if let Some(repr) = single_repr.get(base.as_str()) {
                    parts.push(repr);
                }
            }
            let repr = if parts.is_empty() {
                Matrix::zeros(1, self.hidden)
            } else {
                let mut stacked = parts[0].clone();
                for p in &parts[1..] {
                    stacked = stacked.vstack(p);
                }
                if self.aggregation_max {
                    stacked.max_rows().0
                } else {
                    stacked.mean_rows()
                }
            };
            let key: &str =
                self.schema.payloads.keys().find(|k| **k == name).expect("payload exists").as_str();
            single_repr.insert(key, repr);
        }

        // 3. Shared example-level representation.
        let shared = if single_repr.is_empty() {
            let pooled: Vec<Matrix> = seq_enc.values().map(Matrix::mean_rows).collect();
            match pooled.split_first() {
                None => Matrix::zeros(1, self.hidden),
                Some((first, rest)) => {
                    let mut stacked = first.clone();
                    for p in rest {
                        stacked = stacked.vstack(p);
                    }
                    stacked.mean_rows()
                }
            }
        } else {
            let mut iter = single_repr.values();
            let mut stacked = iter.next().expect("non-empty").clone();
            for p in iter {
                stacked = stacked.vstack(p);
            }
            stacked.mean_rows()
        };

        // 4. Slice-based re-weighting of the shared representation.
        let mut indicator_rows: Vec<Matrix> = Vec::new();
        let shared = if let Some(slices) = &self.slices {
            let mut weight_logits = vec![0.0f32];
            let mut expert_reprs: Vec<Matrix> = vec![shared.clone()];
            for (indicator, expert) in slices.indicators.iter().zip(&slices.experts) {
                let logits = indicator.forward(&shared);
                weight_logits.push(logits[(0, 1)] - logits[(0, 0)]);
                indicator_rows.push(logits);
                expert_reprs.push(relu(expert.forward(&shared)));
            }
            overton_tensor::softmax_in_place(&mut weight_logits);
            let mut combined = Matrix::zeros(1, self.hidden);
            for (w, repr) in weight_logits.iter().zip(&expert_reprs) {
                for (o, &x) in combined.as_mut_slice().iter_mut().zip(repr.as_slice()) {
                    *o += w * x;
                }
            }
            combined
        } else {
            shared
        };

        // 5. Set payloads: per-element representations.
        let mut set_repr: BTreeMap<&str, Matrix> = BTreeMap::new();
        for (name, def) in &self.schema.payloads {
            if !matches!(def.kind, PayloadKind::Set) {
                continue;
            }
            let Some(elements) = example.sets.get(name) else { continue };
            if elements.is_empty() {
                continue;
            }
            let range_enc = def.range.as_deref().and_then(|r| seq_enc.get(r));
            let mut stacked: Option<Matrix> = None;
            for &(entity_id, (lo, hi)) in elements {
                let emb = self.entity_table.select_rows(&[entity_id]);
                let span_summary = match range_enc {
                    Some(enc) => {
                        let t_len = enc.rows();
                        let lo = lo.min(t_len.saturating_sub(1));
                        let hi = hi.clamp(lo + 1, t_len);
                        let span_rows: Vec<usize> = (lo..hi).collect();
                        enc.select_rows(&span_rows).mean_rows()
                    }
                    None => Matrix::zeros(1, self.hidden),
                };
                let row = tanh(self.set_proj.forward(&emb.hstack(&span_summary)));
                stacked = Some(match stacked {
                    None => row,
                    Some(acc) => acc.vstack(&row),
                });
            }
            set_repr.insert(name.as_str(), stacked.expect("non-empty set"));
        }

        // 6. Task heads.
        let mut task_values: BTreeMap<String, Matrix> = BTreeMap::new();
        for (task, head) in &self.heads {
            match head {
                QuantHead::PerElement { payload, linear } => {
                    if let Some(enc) = seq_enc.get(payload.as_str()) {
                        if example.sequences.get(payload).is_some_and(|ids| !ids.is_empty()) {
                            task_values.insert(task.clone(), linear.forward(enc));
                        }
                    }
                }
                QuantHead::Single { linear } => {
                    task_values.insert(task.clone(), linear.forward(&shared));
                }
                QuantHead::Select { payload, combine, score } => {
                    let Some(elements) = set_repr.get(payload.as_str()) else { continue };
                    let k = elements.rows();
                    let context_rows = shared.select_rows(&vec![0; k]);
                    let paired = context_rows.hstack(elements);
                    let activated = tanh(combine.forward(&paired));
                    let scores = score.forward(&activated); // [k, 1]
                    task_values.insert(task.clone(), scores.transpose()); // [1, k]
                }
            }
        }

        decode(
            task_values.iter().map(|(task, values)| (task, self.decoders[task], values)),
            indicator_rows.iter(),
        )
    }
}

fn relu(mut m: Matrix) -> Matrix {
    m.map_inplace(|x| x.max(0.0));
    m
}

fn tanh(mut m: Matrix) -> Matrix {
    m.map_inplace(f32::tanh);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EncoderKind, ModelConfig};
    use crate::features::FeatureSpace;
    use crate::network::TaskOutput;
    use overton_nlp::{generate_workload, WorkloadConfig};
    use overton_store::Dataset;

    fn setup() -> (Dataset, FeatureSpace) {
        let ds = generate_workload(&WorkloadConfig {
            n_train: 60,
            n_dev: 15,
            n_test: 30,
            seed: 11,
            slice_rate: 0.3,
            ..Default::default()
        });
        let space = FeatureSpace::build(&ds);
        (ds, space)
    }

    fn examples(ds: &Dataset, space: &FeatureSpace) -> Vec<CompiledExample> {
        ds.test_indices()
            .iter()
            .map(|&i| CompiledExample::from_record(&ds.records()[i], i, space, ds.schema()))
            .collect()
    }

    /// Fraction of test examples where the quantized model's argmax answer
    /// agrees with the f32 model's, averaged over distribution-producing
    /// tasks.
    fn agreement(model: &CompiledModel, q: &QuantizedModel, exs: &[CompiledExample]) -> f64 {
        let mut same = 0usize;
        let mut total = 0usize;
        for ex in exs {
            let full = model.predict(ex);
            let quant = q.predict(ex);
            for (task, output) in &full.tasks {
                let Some(q_output) = quant.tasks.get(task) else { continue };
                let matched = match (output, q_output) {
                    (
                        TaskOutput::Multiclass { class: a, .. },
                        TaskOutput::Multiclass { class: b, .. },
                    )
                    | (TaskOutput::Select { index: a, .. }, TaskOutput::Select { index: b, .. }) => {
                        a == b
                    }
                    (
                        TaskOutput::MulticlassSeq { classes: a },
                        TaskOutput::MulticlassSeq { classes: b },
                    ) => a == b,
                    (TaskOutput::Bits { bits: a, .. }, TaskOutput::Bits { bits: b, .. }) => a == b,
                    (TaskOutput::BitsSeq { rows: a }, TaskOutput::BitsSeq { rows: b }) => a == b,
                    _ => false,
                };
                total += 1;
                same += usize::from(matched);
            }
        }
        assert!(total > 0, "no comparable task outputs");
        same as f64 / total as f64
    }

    #[test]
    fn every_encoder_kind_survives_quantization() {
        let (ds, space) = setup();
        let exs = examples(&ds, &space);
        for kind in [
            EncoderKind::MeanBag,
            EncoderKind::Cnn,
            EncoderKind::Lstm,
            EncoderKind::BiLstm,
            EncoderKind::Attention,
        ] {
            let config = ModelConfig { encoder: kind, ..Default::default() };
            let model = CompiledModel::compile(ds.schema(), &space, &config, None);
            let q = QuantizedModel::from_model(&model);
            // Untrained weights are small and near-uniform — the hardest
            // regime for argmax agreement — so only demand structure here:
            // every task decoded, same shapes, finite values.
            for ex in &exs {
                let full = model.predict(ex);
                let quant = q.predict(ex);
                assert_eq!(
                    full.tasks.keys().collect::<Vec<_>>(),
                    quant.tasks.keys().collect::<Vec<_>>(),
                    "{kind:?} changed the task set"
                );
                assert_eq!(full.slice_probs.len(), quant.slice_probs.len());
                assert!(quant.slice_probs.iter().all(|p| p.is_finite()));
            }
        }
    }

    #[test]
    fn quantized_predictions_track_f32_after_training() {
        use crate::features::gold_to_prob;
        let (ds, space) = setup();
        let train: Vec<CompiledExample> = ds
            .train_indices()
            .iter()
            .map(|&i| {
                let record = &ds.records()[i];
                let mut ex = CompiledExample::from_record(record, i, &space, ds.schema());
                for task in ds.schema().tasks.keys() {
                    if let Some(p) = gold_to_prob(ds.schema(), record, task) {
                        ex.targets.insert(task.clone(), p);
                    }
                }
                ex
            })
            .collect();
        let mut model = CompiledModel::compile(ds.schema(), &space, &ModelConfig::default(), None);
        crate::trainer::train_model(
            &mut model,
            &train,
            &[],
            &crate::config::TrainConfig { epochs: 4, early_stop_patience: 0, ..Default::default() },
        );
        let q = QuantizedModel::from_model(&model);
        let score = agreement(&model, &q, &examples(&ds, &space));
        assert!(score >= 0.9, "quantized/f32 agreement too low: {score:.3}");
    }
}
