//! The model plan, and its inference executor.
//!
//! [`CompiledModel::compile`] lowers its layers once into a [`Plan`]: a
//! fixed list of [`Step`]s, each an [`Op`] that reads some slots and writes
//! a new one. A slot is a matrix stacked by rows over a batch — one row per
//! example, per token of a sequence payload, or per element of a set
//! payload ([`Rows`]) — with a width fixed at compile time. What mixes rows
//! within an example (aggregation, span means, per-segment `im2row`, the
//! LSTM recurrence, attention, pairing each set element with its owner's
//! shared row) is a step of its own that walks the batch's segment bounds;
//! every affine layer is one step over the whole stack.
//!
//! The plan has two executors. Inference ([`Plan::infer`]) lays every slot
//! out in one zeroed `f32` arena per call and runs the steps in place:
//! GEMMs write straight into their output slot, and segment steps read
//! stacked rows where they lie, so no step copies an example out. It then
//! hands each example's head and indicator logits ([`Logits`]) to its
//! caller where they lie in the arena. The decode rules live here once,
//! as methods on [`HeadLogits`] and [`Logits`]: first-max argmax, softmax
//! into the caller's scratch, the two bit thresholds and the slice
//! probability. Every consumer reads its answer through them, in place:
//! serving builds its responses (`serve.rs`), evaluation scores against
//! gold (`evaluate.rs`), dev selection and search score against targets
//! (`trainer.rs`), and distillation softens targets (`distill.rs`), all
//! through [`CompiledModel::infer`]. Training runs the same steps forward,
//! then each step's hand-written vector-Jacobian product backward, over
//! arenas of the same layout (`backprop.rs`).
//!
//! What mixes rows runs per example and GEMM rows are independent of each
//! other, so each example's logits in a batch are **bit-identical** to
//! running it alone (tested over every encoder, aggregation and head
//! kind, in mixed batches).

use crate::features::CompiledExample;
use crate::network::CompiledModel;
use crate::AggregationKind;
use overton_tensor::nn::{Dropout, Lstm, MultiHeadSelfAttention};
use overton_tensor::{matmul_into, softmax_in_place, stable_sigmoid, ParamId, ParamStore};
use std::ops::Range;
use std::slice::ChunksExact;

/// The most examples one forward stacks: the serving pool's default
/// `max_batch`. [`CompiledModel::infer`] feeds the forward in chunks of
/// this size, so memory follows the chunk and not the caller's input.
pub(crate) const MAX_BATCH: usize = 32;

/// What a slot's rows stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Rows {
    /// One row per example.
    Examples,
    /// One row per token of sequence payload `Plan::sequences[p]`; an
    /// absent or empty payload reads as a single PAD token.
    Tokens(usize),
    /// One row per element of set payload `Plan::sets[s]`.
    Elements(usize),
}

/// A slot's shape over any batch.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlotDef {
    pub(crate) rows: Rows,
    pub(crate) cols: usize,
}

/// Index of a slot in [`Plan::slots`].
pub(crate) type Slot = usize;

/// The activation an affine step applies in place.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Act {
    None,
    Relu,
    Tanh,
}

/// How training splits an affine step's parameter gradient into partials,
/// each summed from zero over its own rows only. The split fixes the f32
/// summation order of the merged gradient, so it is part of the bits.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Leaves {
    /// One leaf per example, over its rows.
    PerExample,
    /// One leaf per row: each set element is projected on its own.
    PerRow,
    /// One leaf per example whose sequence payload (the input's rows) is
    /// present; the placeholder rows of the others are dropped first.
    Present,
}

/// One step's operation. Widths come from the slots; inputs are listed
/// per variant.
#[derive(Debug)]
pub(crate) enum Op {
    /// No inputs: rows of an embedding table, by the batch's token ids
    /// (`Tokens` rows) or entity ids (`Elements` rows).
    Gather(ParamId),
    /// `[x]`: `act(x W + b)`.
    Affine { weight: ParamId, bias: Option<ParamId>, act: Act, leaves: Leaves },
    /// `[x]`: the width-`k` sliding-window unfold of each segment, with
    /// `k / 2` rows of zero padding: row `t` joins rows `t - k/2 ..= t + k/2`.
    Im2Row(usize),
    /// `[x W_x]`: the LSTM recurrence over each segment.
    Recur(Lstm),
    /// `[x]`: each segment's rows in reverse order.
    Reverse,
    /// `[q, k, v]`: multi-head scaled dot-product attention per segment.
    Attend(MultiHeadSelfAttention),
    /// `[a, b]`: the two slots side by side.
    ConcatCols,
    /// `[x]`: dropout masks when training. At inference it is the identity,
    /// and its slot is its input's.
    Dropout(Dropout),
    /// `parts`: per example, the mean or max over its rows of every part,
    /// stacked in order.
    Pool(AggregationKind),
    /// `[x]` over the tokens of a set's range payload: the mean of each
    /// element's span, one row per element of set `Plan::sets[s]`.
    SpanMeans(usize),
    /// `[shared, indicator logits.., expert reprs..]`: the slice-based
    /// re-weighting of the shared representation.
    SliceMix,
    /// `[shared, elements]`: each element's row joined after its owner's
    /// shared row.
    Pair,
    /// No inputs: zeros.
    Zeros,
}

/// One step of a [`Plan`].
#[derive(Debug)]
pub(crate) struct Step {
    pub(crate) op: Op,
    pub(crate) inputs: Vec<Slot>,
}

/// A task head's logits slot and how it decodes.
#[derive(Debug)]
pub(crate) struct HeadOut {
    pub(crate) task: String,
    pub(crate) decode: Decode,
    pub(crate) logits: Slot,
}

/// A [`CompiledModel`]'s layers lowered once into steps over slots. Step
/// `i` writes slot `i`, created after its inputs', so the steps are
/// already in execution order.
#[derive(Debug, Default)]
pub(crate) struct Plan {
    /// Sequence payload names, by [`Rows::Tokens`] index.
    pub(crate) sequences: Vec<String>,
    /// Set payload names, by [`Rows::Elements`] index.
    pub(crate) sets: Vec<String>,
    pub(crate) slots: Vec<SlotDef>,
    pub(crate) steps: Vec<Step>,
    /// Task heads, in task order.
    pub(crate) heads: Vec<HeadOut>,
    /// Per slice, the indicator's `[non-member, member]` logits.
    pub(crate) indicators: Vec<Slot>,
}

/// Row bounds of a row-stacked batch: example `b` owns rows
/// `starts[b]..starts[b + 1]` of every slot stacked over these bounds.
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
}

/// Each example's items of one payload, and their bounds when stacked.
pub(crate) struct Stack<'e, T> {
    pub(crate) items: Vec<&'e [T]>,
    segs: Segments,
}

impl<'e, T> Stack<'e, T> {
    fn new(items: Vec<&'e [T]>) -> Self {
        let segs = Segments::from_lens(items.iter().map(|items| items.len()));
        Self { items, segs }
    }
}

/// A batch's inputs and the segments of every row space a plan stacks.
pub(crate) struct Batch<'e> {
    unit: Segments,
    /// Per sequence payload: each example's token ids.
    tokens: Vec<Stack<'e, usize>>,
    /// Per set payload: each example's `(entity id, span)` elements.
    pub(crate) elements: Vec<Stack<'e, (usize, (usize, usize))>>,
}

impl<'e> Batch<'e> {
    pub(crate) fn new<I>(plan: &Plan, examples: I) -> Self
    where
        I: Iterator<Item = &'e CompiledExample> + Clone,
    {
        let tokens = plan.sequences.iter().map(|name| {
            Stack::new(
                (examples.clone())
                    .map(|ex| match ex.sequences.get(name) {
                        Some(ids) if !ids.is_empty() => ids.as_slice(),
                        _ => &[overton_nlp::PAD],
                    })
                    .collect(),
            )
        });
        let elements = plan.sets.iter().map(|name| {
            Stack::new(
                (examples.clone())
                    .map(|ex| ex.sets.get(name).map_or(&[][..], Vec::as_slice))
                    .collect(),
            )
        });
        Self {
            unit: Segments::from_lens(examples.clone().map(|_| 1)),
            tokens: tokens.collect(),
            elements: elements.collect(),
        }
    }

    /// The bounds of a row space.
    pub(crate) fn segs(&self, rows: Rows) -> &Segments {
        match rows {
            Rows::Examples => &self.unit,
            Rows::Tokens(p) => &self.tokens[p].segs,
            Rows::Elements(s) => &self.elements[s].segs,
        }
    }

    /// The ids a gather over `rows` looks up, in row order.
    pub(crate) fn ids(&self, rows: Rows) -> Vec<usize> {
        match rows {
            Rows::Tokens(p) => self.tokens[p].items.concat(),
            Rows::Elements(s) => {
                self.elements[s].items.iter().flat_map(|els| els.iter().map(|e| e.0)).collect()
            }
            Rows::Examples => unreachable!("gathers stack tokens or elements"),
        }
    }
}

impl Plan {
    /// Whether `example` carries sequence payload `p` (else it reads as
    /// one placeholder PAD row, which has no per-element head output).
    pub(crate) fn present(&self, p: usize, example: &CompiledExample) -> bool {
        example.sequences.get(&self.sequences[p]).is_some_and(|ids| !ids.is_empty())
    }

    /// Runs the plan over a batch (dropout is off, as in any inference
    /// pass) and hands `each` every example's index and [`Logits`], in
    /// input order. `model` must be the model this plan was lowered from:
    /// its store supplies the weights, read in place.
    ///
    /// Every slot of the batch lives in one zeroed arena, allocated here
    /// and dropped on return, so no state survives from one call to the
    /// next. A row's result does not depend on which rows share a product
    /// (see `overton_tensor::kernels`), so each example's logits are
    /// bit-identical to running it alone. The arena grows with the batch;
    /// callers go through [`CompiledModel::infer`], which chunks its input
    /// to [`MAX_BATCH`] examples.
    pub(crate) fn infer(
        &self,
        model: &CompiledModel,
        examples: &[CompiledExample],
        mut each: impl FnMut(usize, Logits<'_>),
    ) {
        if examples.is_empty() {
            return;
        }
        let batch = Batch::new(self, examples.iter());
        let mut regions = Vec::with_capacity(self.slots.len());
        let mut arena = vec![0.0f32; self.layout(&batch, false, &mut regions)];
        for (s, step) in self.steps.iter().enumerate() {
            // Dropout is the identity here, and zeros are already there.
            if matches!(step.op, Op::Dropout(_) | Op::Zeros) {
                continue;
            }
            // Every input slot lies before the output's.
            let (done, rest) = arena.split_at_mut(regions[s].start);
            let (done, out): (&[f32], _) = (done, &mut rest[..regions[s].len()]);
            let input = |i: usize| &done[regions[step.inputs[i]].clone()];
            self.run(s, &model.params, &batch, input, out, None);
        }
        for (b, example) in examples.iter().enumerate() {
            each(
                b,
                Logits { plan: self, arena: &arena, regions: &regions, batch: &batch, example, b },
            );
        }
    }

    /// Each slot's range in an arena over `batch`, in slot order, and the
    /// arena's length. At inference (`train` false) dropout is the
    /// identity, so its slot shares its input's range.
    pub(crate) fn layout(&self, batch: &Batch, train: bool, out: &mut Vec<Range<usize>>) -> usize {
        out.clear();
        let mut end = 0;
        for (step, slot) in self.steps.iter().zip(&self.slots) {
            out.push(match step.op {
                Op::Dropout(_) if !train => out[step.inputs[0]].clone(),
                _ => {
                    let start = end;
                    end += batch.segs(slot.rows).total() * slot.cols;
                    start..end
                }
            });
        }
        end
    }

    /// Runs step `s`: reads `input(i)`, the slots of its `inputs`, and
    /// writes `out`, its zeroed output slot `s`. With `save`, the LSTM appends
    /// per row and unit its gates, cell and tanh, and attention its weights
    /// per segment and head: what their backward reads.
    pub(crate) fn run<'a>(
        &self,
        s: Slot,
        ps: &ParamStore,
        batch: &Batch,
        input: impl Fn(usize) -> &'a [f32],
        out: &mut [f32],
        mut save: Option<&mut Vec<f32>>,
    ) {
        let (step, SlotDef { rows, cols }) = (&self.steps[s], self.slots[s]);
        let in_cols = |i: usize| self.slots[step.inputs[i]].cols;
        let segs = batch.segs(rows);
        match &step.op {
            Op::Gather(table) => {
                let table = ps.value(*table);
                for (row, id) in out.chunks_exact_mut(cols).zip(batch.ids(rows)) {
                    row.copy_from_slice(table.row(id));
                }
            }
            Op::Affine { weight, bias, act, .. } => {
                let (x, weight) = (input(0), ps.value(*weight).as_slice());
                matmul_into(segs.total(), in_cols(0), cols, x, weight, out);
                let bias = bias.map(|b| ps.value(b).as_slice());
                for row in out.chunks_exact_mut(cols) {
                    if let Some(bias) = bias {
                        row.iter_mut().zip(bias).for_each(|(y, &b)| *y += b);
                    }
                    match act {
                        Act::None => {}
                        Act::Relu => row.iter_mut().for_each(|y| *y = y.max(0.0)),
                        Act::Tanh => row.iter_mut().for_each(|y| *y = y.tanh()),
                    }
                }
            }
            Op::Im2Row(k) => {
                let (x, d, pad) = (input(0), in_cols(0), k / 2);
                for seg in segs.iter() {
                    for t in seg.clone() {
                        for o in 0..*k {
                            // Source row `t + o - pad`, if it lies in the segment.
                            let src = t + o;
                            if src >= seg.start + pad && src - pad < seg.end {
                                let src = src - pad;
                                out[t * cols + o * d..t * cols + (o + 1) * d]
                                    .copy_from_slice(&x[src * d..(src + 1) * d]);
                            }
                        }
                    }
                }
            }
            Op::Recur(lstm) => {
                let (xw, h) = (input(0), lstm.hidden());
                let (wh, bias) =
                    (ps.value(lstm.wh_id()).as_slice(), ps.value(lstm.bias_id()).row(0));
                let (mut pre, zeros, mut c) =
                    (vec![0.0f32; 4 * h], vec![0.0f32; h], vec![0.0f32; h]);
                for seg in segs.iter() {
                    assert!(!seg.is_empty(), "LSTM over an empty sequence");
                    c.fill(0.0);
                    for t in seg.clone() {
                        let (done, rest) = out.split_at_mut(t * h);
                        let h_prev = if t == seg.start { &zeros[..] } else { &done[(t - 1) * h..] };
                        // pre = (x_t W_x + h_{t-1} W_h) + b, gate order [i, f, c, o].
                        pre.fill(0.0);
                        matmul_into(1, h, 4 * h, h_prev, wh, &mut pre);
                        for ((p, &x), &b) in pre.iter_mut().zip(&xw[t * 4 * h..]).zip(bias) {
                            *p = (x + *p) + b;
                        }
                        for (j, h_t) in rest[..h].iter_mut().enumerate() {
                            let i_gate = stable_sigmoid(pre[j]);
                            let f_gate = stable_sigmoid(pre[h + j]);
                            let c_cand = pre[2 * h + j].tanh();
                            let o_gate = stable_sigmoid(pre[3 * h + j]);
                            c[j] = f_gate * c[j] + i_gate * c_cand;
                            let c_tanh = c[j].tanh();
                            *h_t = o_gate * c_tanh;
                            if let Some(save) = save.as_deref_mut() {
                                save.extend([i_gate, f_gate, c_cand, o_gate, c[j], c_tanh]);
                            }
                        }
                    }
                }
            }
            Op::Reverse => {
                let x = input(0);
                for seg in segs.iter() {
                    for (t, src) in seg.clone().zip(seg.clone().rev()) {
                        out[t * cols..(t + 1) * cols]
                            .copy_from_slice(&x[src * cols..(src + 1) * cols]);
                    }
                }
            }
            Op::Attend(attention) => {
                let (q, k, v) = (input(0), input(1), input(2));
                let head_dim = cols / attention.heads();
                let scale = 1.0 / (head_dim as f32).sqrt();
                let [mut qh, mut kt, mut vh, mut scores, mut head]: [Vec<f32>; 5] =
                    Default::default();
                for seg in segs.iter() {
                    let t = seg.len();
                    for lo in (0..cols).step_by(head_dim) {
                        let band =
                            |m: &'a [f32], r: usize| &m[r * cols + lo..r * cols + lo + head_dim];
                        qh.clear();
                        vh.clear();
                        kt.clear();
                        for r in seg.clone() {
                            qh.extend_from_slice(band(q, r));
                            vh.extend_from_slice(band(v, r));
                        }
                        // Keys transposed explicitly, then the scores scaled.
                        for c in lo..lo + head_dim {
                            kt.extend(seg.clone().map(|r| k[r * cols + c]));
                        }
                        scores.clear();
                        head.clear();
                        scores.resize(t * t, 0.0);
                        head.resize(t * head_dim, 0.0);
                        matmul_into(t, head_dim, t, &qh, &kt, &mut scores);
                        scores.iter_mut().for_each(|s| *s *= scale);
                        scores.chunks_exact_mut(t).for_each(softmax_in_place);
                        if let Some(save) = save.as_deref_mut() {
                            save.extend_from_slice(&scores);
                        }
                        matmul_into(t, t, head_dim, &scores, &vh, &mut head);
                        for (r, row) in seg.clone().zip(head.chunks_exact(head_dim)) {
                            out[r * cols + lo..r * cols + lo + head_dim].copy_from_slice(row);
                        }
                    }
                }
            }
            Op::ConcatCols => {
                let (a, b, split) = (input(0), input(1), in_cols(0));
                for (r, row) in out.chunks_exact_mut(cols).enumerate() {
                    row[..split].copy_from_slice(&a[r * split..(r + 1) * split]);
                    row[split..].copy_from_slice(&b[r * (cols - split)..(r + 1) * (cols - split)]);
                }
            }
            Op::Pool(kind) => self.pool(*kind, step, batch, input, out),
            Op::SpanMeans(set) => {
                let x = input(0);
                let enc = batch.segs(self.slots[step.inputs[0]].rows);
                let spans = batch.elements[*set]
                    .items
                    .iter()
                    .enumerate()
                    .flat_map(|(b, els)| els.iter().map(move |&(_, span)| enc.span(b, span)));
                for (row, span) in out.chunks_exact_mut(cols).zip(spans) {
                    mean_into(row, span.clone().map(|r| &x[r * cols..(r + 1) * cols]), span.len());
                }
            }
            Op::SliceMix => {
                let slices = (step.inputs.len() - 1) / 2;
                let mut weights = vec![0.0f32; slices + 1];
                for (b, mixed) in out.chunks_exact_mut(cols).enumerate() {
                    for (i, w) in weights[1..].iter_mut().enumerate() {
                        let logits = &input(1 + i)[2 * b..2 * b + 2];
                        *w = logits[1] - logits[0];
                    }
                    weights[0] = 0.0;
                    softmax_in_place(&mut weights);
                    // Start from repr_0 * w_0, then add each term in order.
                    for (i, &w) in weights.iter().enumerate() {
                        let repr = if i == 0 { input(0) } else { input(1 + slices + i - 1) };
                        for (o, &x) in mixed.iter_mut().zip(&repr[b * cols..(b + 1) * cols]) {
                            *o = if i == 0 { x * w } else { *o + x * w };
                        }
                    }
                }
            }
            Op::Pair => {
                let (shared, elements, split) = (input(0), input(1), in_cols(0));
                for (b, seg) in segs.iter().enumerate() {
                    for r in seg {
                        let row = &mut out[r * cols..(r + 1) * cols];
                        row[..split].copy_from_slice(&shared[b * split..(b + 1) * split]);
                        row[split..].copy_from_slice(
                            &elements[r * (cols - split)..(r + 1) * (cols - split)],
                        );
                    }
                }
            }
            Op::Dropout(_) | Op::Zeros => {}
        }
    }

    /// [`Op::Pool`]: per example, the mean or max over its rows of every
    /// input, taken as one stack of those rows.
    fn pool<'a>(
        &self,
        kind: AggregationKind,
        step: &Step,
        batch: &Batch,
        input: impl Fn(usize) -> &'a [f32],
        out: &mut [f32],
    ) {
        let (cols, input) = (self.slots[step.inputs[0]].cols, &input);
        for (b, pooled) in out.chunks_exact_mut(cols).enumerate() {
            let rows = || {
                step.inputs.iter().enumerate().flat_map(move |(i, &s)| {
                    let x = input(i);
                    batch
                        .segs(self.slots[s].rows)
                        .range(b)
                        .map(move |r| &x[r * cols..(r + 1) * cols])
                })
            };
            match kind {
                AggregationKind::Mean => mean_into(pooled, rows(), rows().count()),
                AggregationKind::Max => {
                    pooled.fill(f32::NEG_INFINITY);
                    for row in rows() {
                        for (o, &x) in pooled.iter_mut().zip(row) {
                            if x > *o {
                                *o = x;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// One example's raw outputs, read in place from a batch's arena: each
/// task head's logits and each slice indicator's.
pub(crate) struct Logits<'a> {
    plan: &'a Plan,
    arena: &'a [f32],
    regions: &'a [Range<usize>],
    batch: &'a Batch<'a>,
    example: &'a CompiledExample,
    b: usize,
}

/// A task head's logits for one example.
pub(crate) struct HeadLogits<'a> {
    /// The head's position in [`Plan::heads`].
    pub(crate) index: usize,
    pub(crate) head: &'a HeadOut,
    /// Row-major, `width` wide. A select head's are its element scores.
    pub(crate) values: &'a [f32],
    pub(crate) width: usize,
}

impl<'a> Logits<'a> {
    fn slot(&self, s: Slot) -> &'a [f32] {
        &self.arena[self.regions[s].clone()]
    }

    /// The heads with an output for this example, in plan order (which is
    /// task-name order): a sequence head needs its payload present, a
    /// select head a nonempty set.
    pub(crate) fn heads(&self) -> impl Iterator<Item = HeadLogits<'a>> + '_ {
        let (plan, b) = (self.plan, self.b);
        plan.heads.iter().enumerate().filter_map(move |(index, head)| {
            let SlotDef { rows, cols } = plan.slots[head.logits];
            let range = match rows {
                Rows::Tokens(p) => {
                    Some(self.batch.segs(rows).range(b)).filter(|_| plan.present(p, self.example))
                }
                Rows::Examples => Some(b..b + 1),
                Rows::Elements(_) => Some(self.batch.segs(rows).range(b)).filter(|r| !r.is_empty()),
            }?;
            let values = &self.slot(head.logits)[range.start * cols..range.end * cols];
            Some(HeadLogits { index, head, values, width: cols })
        })
    }

    /// Per slice, the indicator's `[non-member, member]` logits.
    pub(crate) fn indicators(&self) -> impl Iterator<Item = &'a [f32]> + '_ {
        self.plan.indicators.iter().map(|&s| &self.slot(s)[2 * self.b..2 * self.b + 2])
    }

    /// Per slice, the predicted membership probability: the sigmoid of
    /// the member logit's lead over the non-member one.
    pub(crate) fn slice_probs(&self) -> impl Iterator<Item = f32> + '_ {
        self.indicators().map(|row| stable_sigmoid(row[1] - row[0]))
    }
}

impl<'a> HeadLogits<'a> {
    /// The logits row by row: one row for a singleton head, one per token
    /// for a per-element head, one one-wide row per element for a select
    /// head.
    pub(crate) fn rows(&self) -> ChunksExact<'a, f32> {
        self.values.chunks_exact(self.width)
    }

    /// The first largest logit's index: a singleton multiclass head's
    /// class, or a select head's element.
    pub(crate) fn argmax(&self) -> usize {
        argmax(self.values)
    }

    /// Per row, its first largest logit's index: a per-element multiclass
    /// head's classes.
    pub(crate) fn row_argmax(&self) -> impl Iterator<Item = usize> + 'a {
        self.rows().map(argmax)
    }

    /// The softmax of the logits, left in `dist` (the caller's scratch),
    /// and [`HeadLogits::argmax`] with its probability (zero where there
    /// is none): a singleton multiclass or a select head's distribution.
    pub(crate) fn softmax(&self, dist: &mut Vec<f32>) -> (usize, f32) {
        dist.clear();
        dist.extend_from_slice(self.values);
        softmax_in_place(dist);
        let best = self.argmax();
        (best, dist.get(best).copied().unwrap_or(0.0))
    }

    /// Per label, its sigmoid probability: a singleton bitvector head's.
    pub(crate) fn probs(&self) -> impl Iterator<Item = f32> + 'a {
        self.values.iter().map(|&x| stable_sigmoid(x))
    }

    /// A singleton bitvector head's bits: a probability above one half.
    pub(crate) fn bits(&self) -> impl Iterator<Item = bool> + 'a {
        self.probs().map(|p| p > 0.5)
    }

    /// A per-element bitvector head's bits, row by row: a logit above
    /// zero. This is not the singleton rule: for a tiny positive logit the
    /// f32 sigmoid rounds to exactly one half, so the two disagree.
    pub(crate) fn row_bits(&self) -> impl Iterator<Item = impl Iterator<Item = bool> + 'a> + 'a {
        self.rows().map(|row| row.iter().map(|&x| x > 0.0))
    }
}

/// Adds the mean of `len` rows into the zeroed `out`: each row times
/// `1 / len`, in order.
fn mean_into<'a>(out: &mut [f32], rows: impl Iterator<Item = &'a [f32]>, len: usize) {
    assert!(len > 0, "mean over no rows");
    let inv = 1.0 / len as f32;
    for row in rows {
        out.iter_mut().zip(row).for_each(|(o, &x)| *o += x * inv);
    }
}

/// How a head's raw logits decode, through the [`HeadLogits`] methods.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Decode {
    /// Per-row argmax, or per-row bits (logit above zero) with `bce`.
    PerElement { bce: bool },
    /// Softmax distribution, or sigmoid bits (probability above one half)
    /// with `bce`.
    Single { bce: bool },
    /// Softmax over set elements.
    Select,
}

/// Index of the largest value (first on ties).
pub(crate) fn argmax(xs: &[f32]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate() {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::features::FeatureSpace;
    use crate::oracle;
    use overton_nlp::{generate_workload, WorkloadConfig};
    use overton_store::Dataset;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

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

    #[test]
    fn batched_forward_is_bit_identical_to_per_example_runs() {
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

        let mut kinds = std::collections::HashSet::new();
        for encoder in oracle::ENCODERS {
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
                    let batch = oracle::raw_logits(&model, &exs);
                    assert_eq!(batch.len(), exs.len());
                    for (ex, fast) in exs.iter().zip(&batch) {
                        assert_eq!(
                            oracle::raw_logits(&model, std::slice::from_ref(ex)),
                            std::slice::from_ref(fast),
                            "{config:?} diverged from the example run alone"
                        );
                        assert_eq!(fast.indicators.is_empty(), !slice_heads);
                        let plan = &model.inference;
                        kinds.extend(fast.heads.iter().map(|(task, _)| {
                            let head = plan.heads.iter().find(|h| &h.task == task).expect("head");
                            format!("{:?}", head.decode)
                        }));
                    }
                }
            }
        }
        assert_eq!(kinds.len(), 5, "every head kind must run: {kinds:?}");
    }

    /// One model over a run of batches of different sizes and contents:
    /// every example's logits must be the bits of its run alone, so no
    /// slot can carry state from an earlier batch or a larger one.
    #[test]
    fn slot_reuse_cannot_leak_state() {
        let ds = generate_workload(&WorkloadConfig {
            n_train: 60,
            n_dev: 15,
            n_test: 70,
            seed: 5,
            slice_rate: 0.3,
            ..Default::default()
        });
        let space = FeatureSpace::build_from_store(&ds.seal()).unwrap();
        let schema = oracle::every_branch_schema();
        let exs = oracle::every_branch_examples(&ds, &ds.test_indices(), &space, &schema);
        // An absent `tokens` payload, an empty entity set, and two elements
        // whose spans overlap, side by side.
        let mut absent = exs[0].clone();
        absent.sequences.remove("tokens");
        let mut no_entities = exs[1].clone();
        no_entities.sets.get_mut("entities").expect("entities").clear();
        let mut overlapping = exs[2].clone();
        let entities = overlapping.sets.get_mut("entities").expect("entities");
        let entity = entities.first().map_or(1, |e| e.0);
        *entities = vec![(entity, (0, 2)), (entity, (1, 3)), (entity, (0, 3))];
        let mixed = [absent, no_entities, overlapping, exs[3].clone()];
        let batches = [&exs[..32], &exs[32..33], &exs[33..65], &mixed[..]];
        for encoder in oracle::ENCODERS {
            let config = ModelConfig { encoder, ..Default::default() };
            let model = CompiledModel::compile(&schema, &space, &config, None);
            for batch in batches {
                for (ex, logits) in batch.iter().zip(oracle::raw_logits(&model, batch)) {
                    let alone = oracle::raw_logits(&model, std::slice::from_ref(ex));
                    assert_eq!(alone, [logits], "{encoder:?}");
                }
            }
        }
    }
}
