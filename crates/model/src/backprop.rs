//! The training executor: the model plan run forward and backward over
//! slot arenas.
//!
//! [`gradients`] runs a gradient worker's share of a window in three
//! passes over one [`Workspace`]: the inference steps with dropout on,
//! each saving what its backward reads (masks, LSTM gates and cells,
//! attention weights); the fused losses, seeding each example's
//! logit adjoints; and one hand-written vector-Jacobian product per [`Op`]
//! in reverse over an adjoint arena of the same layout, which hands each
//! example's parameter gradients to the trainer as [`Partials`].
//!
//! Stacking changes no bit: the weights are **bit-identical** to running
//! each example as a batch of one and merging in order (the
//! stacked-vs-per-example test in `trainer.rs`). Rows mix only in steps
//! that walk segments, one example at a time. A slot's adjoint collects its
//! consumers' deltas in reverse step order, and where a step sums its
//! contributions to an element before adding them (a GEMM, an `im2row`
//! window, a pair's shared row), that sum starts from zero per example. An
//! example's partial of a parameter is summed from zero over its rows
//! only, and partials merge in example order, then step order. Skipping a
//! partial of zeros changes no bit, and the merge (zeros plus partials)
//! erases any sign of zero. Each VJP is checked against finite differences
//! of the executor's own loss (the tests below).

use crate::config::{AggregationKind, TrainConfig};
use crate::features::CompiledExample;
use crate::infer::{Act, Batch, Decode, Leaves, Op, Plan, Rows, SlotDef};
use overton_supervision::ProbLabel;
use overton_tensor::{dot, matmul_at_into, matmul_into, softmax_in_place, stable_sigmoid};
use overton_tensor::{ParamId, ParamStore};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::ops::Range;

/// A gradient worker's buffers, kept from one window to the next.
#[derive(Default)]
pub(crate) struct Workspace {
    pub(crate) regions: Vec<Range<usize>>,
    values: Vec<f32>,
    adjoints: Vec<f32>,
    /// Per slot, whether a delta has reached its adjoint yet.
    seen: Vec<bool>,
    /// Per step, what its backward reads from the forward.
    saved: Vec<Vec<f32>>,
    rngs: Vec<SmallRng>,
    scratch: [Vec<f32>; 6],
    ids: Vec<(usize, usize)>,
    /// The last run's losses and partials.
    pub(crate) partials: Partials,
}

/// A run's results: each example's loss (`None`: it supervises nothing)
/// and its parameter partials.
#[derive(Default)]
pub(crate) struct Partials {
    pub(crate) losses: Vec<Option<f32>>,
    /// Per example, its partials, last step first.
    parts: Vec<Vec<Part>>,
    data: Vec<f32>,
}

/// `data[start..start + len]`, added into `param`'s gradient from element
/// `at`.
struct Part {
    param: ParamId,
    at: usize,
    start: usize,
    len: usize,
}

impl Partials {
    /// Empties the partials for a run over `n` examples.
    pub(crate) fn clear(&mut self, n: usize) {
        self.losses.clear();
        self.data.clear();
        self.parts.resize_with(self.parts.len().max(n), Vec::new);
        self.parts.iter_mut().for_each(Vec::clear);
    }

    /// Appends example `b`'s zeroed partial of `param` over `len` elements
    /// from `at`, to be filled. An example's partials come last step first.
    pub(crate) fn push(&mut self, b: usize, param: ParamId, at: usize, len: usize) -> &mut [f32] {
        let start = self.data.len();
        self.parts[b].push(Part { param, at, start, len });
        self.data.resize(start + len, 0.0);
        &mut self.data[start..]
    }

    /// Example `b`'s partials of an affine step over `k` of its rows: the
    /// weight's `x^T g` and the bias's column sums of `g`, each from zero.
    fn affine(&mut self, b: usize, ps: (ParamId, Option<ParamId>), x: &[f32], g: &[f32], k: usize) {
        let ((w, bias), m, n) = (ps, x.len() / k, g.len() / k);
        matmul_at_into(m, k, n, x, g, self.push(b, w, 0, m * n));
        if let Some(bias) = bias {
            let db = self.push(b, bias, 0, n);
            g.chunks_exact(n).for_each(|row| add(db, row));
        }
    }

    /// Adds every example's partials into `ps`'s gradients, in example
    /// order and, within an example, in step order.
    pub(crate) fn merge_into(&self, ps: &mut ParamStore) {
        for part in self.parts[..self.losses.len()].iter().flat_map(|parts| parts.iter().rev()) {
            let grad = &mut ps.grad_mut(part.param).as_mut_slice()[part.at..];
            add(grad, &self.data[part.start..part.start + part.len]);
        }
    }
}

/// Forward, losses and backward of `plan` over `ps`'s weights for a run of
/// examples over `ws`, each example drawing its dropout masks from a
/// private RNG seeded from `seeds`; fills `ws.partials`.
pub(crate) fn gradients(
    plan: &Plan,
    ps: &ParamStore,
    examples: &[&CompiledExample],
    seeds: &[u64],
    config: &TrainConfig,
    ws: &mut Workspace,
) {
    let batch = Batch::new(plan, examples.iter().copied());
    ws.rngs.clear();
    ws.rngs.extend(seeds.iter().map(|&seed| SmallRng::seed_from_u64(seed)));
    plan.forward(ps, &batch, ws);
    zeroed(&mut ws.adjoints, ws.values.len());
    ws.seen.clear();
    ws.seen.resize(plan.slots.len(), false);
    ws.partials.clear(examples.len());
    plan.losses(&batch, examples, config, ws);
    if ws.partials.losses.iter().any(Option::is_some) {
        plan.backward(ps, &batch, examples, ws);
    }
}

/// `adj += delta * c`, element by element.
fn add_scaled(adj: &mut [f32], delta: &[f32], c: f32) {
    adj.iter_mut().zip(delta).for_each(|(a, &d)| *a += d * c);
}

/// `adj += delta`, element by element.
fn add(adj: &mut [f32], delta: &[f32]) {
    adj.iter_mut().zip(delta).for_each(|(a, &d)| *a += d);
}

/// Row `r` of a `cols`-wide slot.
fn row(m: &[f32], r: usize, cols: usize) -> &[f32] {
    &m[r * cols..(r + 1) * cols]
}

/// Row `r` of a `cols`-wide slot, to write.
fn row_mut(m: &mut [f32], r: usize, cols: usize) -> &mut [f32] {
    &mut m[r * cols..(r + 1) * cols]
}

/// `buf`, emptied and zeroed to `len` elements.
fn zeroed(buf: &mut Vec<f32>, len: usize) -> &mut Vec<f32> {
    buf.clear();
    buf.resize(len, 0.0);
    buf
}

/// Adds a delta that is summed from zero before it is added: `fill` writes it
/// into `adj` itself while no delta has reached it (`seen`), else into
/// zeroed scratch that is then added.
fn add_summed(adj: &mut [f32], seen: &mut bool, buf: &mut Vec<f32>, fill: impl FnOnce(&mut [f32])) {
    if !std::mem::replace(seen, true) {
        return fill(adj);
    }
    fill(zeroed(buf, adj.len()));
    add(adj, buf);
}

/// The fused loss of `k`-wide logit rows against target rows: softmax
/// cross-entropy, weight 1 per row (`None`: 0, so the row is skipped and
/// its gradient stays zero), over `weight_sum`;
/// or with `bce` sigmoid cross-entropy averaged over every element (`None`
/// reads as zeros). Returns it; writes its gradient times `seed` to `grad`.
fn fused_loss<'t>(
    bce: bool,
    (logits, k): (&[f32], usize),
    targets: impl Iterator<Item = Option<&'t [f32]>>,
    weight_sum: f32,
    seed: f32,
    grad: &mut [f32],
) -> f32 {
    let weight_sum = if bce { logits.len() as f32 } else { weight_sum }.max(1e-12);
    let mut loss = 0.0f64;
    for ((row, target), grad) in logits.chunks_exact(k).zip(targets).zip(grad.chunks_exact_mut(k)) {
        if bce {
            for (j, (&x, g)) in row.iter().zip(grad).enumerate() {
                let t = target.map_or(0.0, |t| t[j]);
                loss += (x.max(0.0) - x * t + (1.0 + (-x.abs()).exp()).ln()) as f64;
                *g = seed * (stable_sigmoid(x) - t) / weight_sum;
            }
            continue;
        }
        let Some(target) = target else { continue };
        let max = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        let logsum = row.iter().map(|&x| ((x - max) as f64).exp()).sum::<f64>().ln() + max as f64;
        let terms = row.iter().zip(target).filter(|(_, &t)| t != 0.0);
        loss += terms.fold(0.0f64, |acc, (&x, &t)| acc - t as f64 * (x as f64 - logsum));
        grad.copy_from_slice(row);
        softmax_in_place(grad);
        grad.iter_mut().zip(target).for_each(|(g, &t)| *g = seed / weight_sum * (*g - t));
    }
    (loss / weight_sum as f64) as f32
}

impl Plan {
    /// The training forward: every step over `ws.values`, dropout on.
    fn forward(&self, ps: &ParamStore, batch: &Batch, ws: &mut Workspace) {
        let Workspace { regions, values, saved, rngs, .. } = ws;
        zeroed(values, self.layout(batch, true, regions));
        saved.resize_with(self.steps.len(), Vec::new);
        for (s, (step, saved)) in self.steps.iter().zip(saved.iter_mut()).enumerate() {
            saved.clear();
            let (done, rest) = values.split_at_mut(regions[s].start);
            let (done, out): (&[f32], _) = (done, &mut rest[..regions[s].len()]);
            let input = |i: usize| &done[regions[step.inputs[i]].clone()];
            match &step.op {
                Op::Dropout(dropout) => {
                    out.copy_from_slice(input(0));
                    if dropout.p() > 0.0 {
                        // Example `b` draws its mask from `rngs[b]`, whatever it shares.
                        let SlotDef { rows, cols } = self.slots[s];
                        saved.resize(out.len(), 0.0);
                        for (seg, rng) in batch.segs(rows).iter().zip(rngs.iter_mut()) {
                            dropout.mask(rng, &mut saved[seg.start * cols..seg.end * cols]);
                        }
                        out.iter_mut().zip(saved.iter()).for_each(|(y, &m)| *y *= m);
                    }
                }
                Op::Zeros => {}
                _ => self.run(s, ps, batch, input, out, Some(saved)),
            }
        }
    }

    /// Each example's loss into `ws.partials.losses`, its gradient into
    /// the adjoints of its logit rows: the task losses in target order,
    /// then the slice indicators', summed in that order, the total scaled
    /// by the slice boost when the example belongs to a slice.
    fn losses(
        &self,
        batch: &Batch,
        exs: &[&CompiledExample],
        cfg: &TrainConfig,
        ws: &mut Workspace,
    ) {
        let Workspace { regions, values, adjoints, seen, partials, scratch, .. } = ws;
        let (boost, weight, terms) =
            (cfg.slice_loss_boost, cfg.indicator_loss_weight, &mut scratch[0]);
        // Slice heads compile one indicator per slice.
        let has_slices = !self.indicators.is_empty();
        for (b, example) in exs.iter().enumerate() {
            let boosted = has_slices && boost != 1.0 && example.slice_membership.contains(&true);
            // The gradient the sum of terms passes down to each.
            let seed = if boosted { boost } else { 1.0 };
            terms.clear();
            for (task, target) in &example.targets {
                let Some(head) = self.heads.iter().find(|h| &h.task == task) else { continue };
                let SlotDef { rows, cols } = self.slots[head.logits];
                let rows = match rows {
                    Rows::Tokens(p) if !self.present(p, example) => continue,
                    Rows::Examples => b..b + 1,
                    _ => batch.segs(rows).range(b),
                };
                // A select head's element scores, `[t, 1]`, are one `[1, t]` row.
                let select = matches!(head.decode, Decode::Select);
                let (t, k) = if select { (1, rows.len()) } else { (rows.len(), cols) };
                let (seq, bce, targets) = match target {
                    ProbLabel::SeqDist(r) => (true, false, &r[..]),
                    ProbLabel::SeqBits(r) => (true, true, &r[..]),
                    ProbLabel::Dist(r) => (false, false, std::slice::from_ref(r)),
                    ProbLabel::Bits(r) => (false, true, std::slice::from_ref(r)),
                };
                let kind = match head.decode {
                    Decode::PerElement { bce } => (true, bce),
                    Decode::Single { bce } => (false, bce),
                    Decode::Select => (false, false),
                };
                // A sequence row of the wrong width, or a distribution
                // without mass, drops out (bits read it as zeros); a
                // single row must fit.
                let fits =
                    |r: &Vec<_>| r.len() == k && (bce || !seq || r.iter().sum::<f32>() > 0.0);
                let count = targets.iter().filter(|row| fits(row)).count();
                let empty = count == 0 && !(seq && bce);
                if kind != (seq, bce) || k == 0 || targets.len() != t || empty {
                    continue;
                }
                let at = regions[head.logits].start + rows.start * cols;
                let at = at..at + rows.len() * cols;
                let (x, g) = (&values[at.clone()], &mut adjoints[at]);
                let targets = targets.iter().map(|row| Some(&row[..]).filter(|_| fits(row)));
                terms.push(fused_loss(bce, (x, k), targets, count as f32, seed, g));
                seen[head.logits] = true;
            }
            // Indicator supervision comes from slice tags, which are known
            // on every training record.
            for (s, &slot) in self.indicators.iter().enumerate().filter(|_| weight > 0.0) {
                let member = example.slice_membership.get(s).copied().unwrap_or(false);
                let target = if member { [0.0, 1.0] } else { [1.0, 0.0] };
                let at = regions[slot].start + 2 * b..regions[slot].start + 2 * b + 2;
                let (x, g, target) = (&values[at.clone()], &mut adjoints[at], Some(&target[..]));
                let ce = fused_loss(false, (x, 2), [target].into_iter(), 1.0, seed * weight, g);
                terms.push(ce * weight);
                seen[slot] = true;
            }
            let total = terms.iter().copied().reduce(|sum, term| sum + term);
            partials.losses.push(total.map(|loss| if boosted { loss * boost } else { loss }));
        }
    }

    /// The reverse sweep: each step whose output a delta reached, last to
    /// first, adds its inputs' deltas and its examples' partials.
    #[allow(clippy::too_many_lines)]
    fn backward(
        &self,
        ps: &ParamStore,
        batch: &Batch,
        examples: &[&CompiledExample],
        ws: &mut Workspace,
    ) {
        let Workspace { regions, values, adjoints, seen, saved, scratch, ids, partials, .. } = ws;
        let losses = std::mem::take(&mut partials.losses);
        for (si, step) in self.steps.iter().enumerate().rev() {
            if !seen[si] {
                continue;
            }
            let SlotDef { rows, cols } = self.slots[si];
            let segs = batch.segs(rows);
            let (before, after) = adjoints.split_at_mut(regions[si].start);
            let (g, y) = (&mut after[..regions[si].len()], &values[regions[si].clone()]);
            let input = |i: usize| step.inputs[i];
            let x = |i: usize| &values[regions[input(i)].clone()];
            let in_cols = |i: usize| self.slots[input(i)].cols;
            // Input `i`'s adjoint, for deltas added element by element.
            macro_rules! adj {
                ($i:expr) => {{
                    seen[input($i)] = true;
                    &mut before[regions[input($i)].clone()]
                }};
            }
            // Input 0's adjoint and flag, for a delta summed before it is added.
            macro_rules! summed {
                () => {
                    (&mut before[regions[input(0)].clone()], &mut seen[input(0)])
                };
            }
            let dead = |b: usize| losses[b].is_none();
            match &step.op {
                Op::Gather(table) => {
                    let rows_ids = batch.ids(rows);
                    for (b, seg) in segs.iter().enumerate() {
                        if dead(b) {
                            continue;
                        } else if let Rows::Elements(_) = rows {
                            // One lookup, so one partial, per element.
                            for r in seg.rev() {
                                partials
                                    .push(b, *table, rows_ids[r] * cols, cols)
                                    .copy_from_slice(row(g, r, cols));
                            }
                            continue;
                        }
                        // One partial per example: each table row it looks
                        // up, summed from zero in token order.
                        ids.clear();
                        ids.extend(seg.map(|r| (rows_ids[r], r)));
                        ids.sort_unstable();
                        for same in ids.chunk_by(|a, b| a.0 == b.0) {
                            let sum = partials.push(b, *table, same[0].0 * cols, cols);
                            same.iter().for_each(|&(_, r)| add(sum, row(g, r, cols)));
                        }
                    }
                }
                Op::Affine { weight, bias, act, leaves } => {
                    // The output's adjoint becomes the pre-activation's.
                    match act {
                        Act::None => {}
                        Act::Relu => g
                            .iter_mut()
                            .zip(y)
                            .for_each(|(d, &y)| *d = if y > 0.0 { *d } else { 0.0 }),
                        Act::Tanh => g.iter_mut().zip(y).for_each(|(d, &y)| *d *= 1.0 - y * y),
                    }
                    let (m, n_in, g) = (segs.total(), in_cols(0), &*g);
                    let ([wt, delta, ..], w) = (&mut *scratch, ps.value(*weight).as_slice());
                    wt.resize(w.len(), 0.0);
                    for (i, w_row) in w.chunks_exact(cols).enumerate() {
                        w_row.iter().enumerate().for_each(|(j, &w)| wt[j * n_in + i] = w);
                    }
                    let (dx, flag) = summed!();
                    add_summed(dx, flag, delta, |dx| matmul_into(m, cols, n_in, g, wt, dx));
                    for (b, seg) in segs.iter().enumerate() {
                        let absent = match (leaves, rows) {
                            (Leaves::Present, Rows::Tokens(p)) => !self.present(p, examples[b]),
                            _ => false,
                        };
                        // A set projection makes one leaf per element.
                        let per = if let Leaves::PerRow = leaves { 1 } else { seg.len().max(1) };
                        for lo in seg.clone().step_by(per).rev().filter(|_| !absent && !dead(b)) {
                            let rows = lo..(lo + per).min(seg.end);
                            let gb = &g[rows.start * cols..rows.end * cols];
                            if gb.iter().any(|&d| d != 0.0) {
                                let xb = &x(0)[rows.start * n_in..rows.end * n_in];
                                partials.affine(b, (*weight, *bias), xb, gb, rows.len());
                            }
                        }
                    }
                }
                Op::Im2Row(k) => {
                    let (d, pad) = (in_cols(0), k / 2);
                    let (dx, flag) = summed!();
                    add_summed(dx, flag, &mut scratch[0], |dx| {
                        for seg in segs.iter() {
                            // Window row `t`, block `o`, is source row `t + o - pad`.
                            for (t, o) in seg.clone().flat_map(|t| (0..*k).map(move |o| (t, o))) {
                                if t + o >= seg.start + pad && t + o - pad < seg.end {
                                    add(row_mut(dx, t + o - pad, d), &g[t * cols + o * d..][..d]);
                                }
                            }
                        }
                    });
                }
                Op::Recur(lstm) => {
                    let (h, wh, gates, dxw) =
                        (lstm.hidden(), ps.value(lstm.wh_id()).as_slice(), &saved[si], adj!(0));
                    let [carry_h, carry_c, dpre, dwh, dbias, _] = &mut *scratch;
                    for (b, seg) in segs.iter().enumerate().filter(|&(b, _)| !dead(b)) {
                        let (carry_h, carry_c, dpre) =
                            (zeroed(carry_h, h), zeroed(carry_c, h), zeroed(dpre, 4 * h));
                        let (dwh, dbias) = (zeroed(dwh, 4 * h * h), zeroed(dbias, 4 * h));
                        for t in seg.clone().rev() {
                            let (first, last) = (t == seg.start, t + 1 == seg.end);
                            for j in 0..h {
                                // Saved per unit: the four gates, the cell, its tanh.
                                let s = &gates[(t * h + j) * 6..][..6];
                                let (i, f, cc, o, ct) = (s[0], s[1], s[2], s[3], s[5]);
                                let c_prev =
                                    if first { 0.0 } else { gates[((t - 1) * h + j) * 6 + 4] };
                                let dh =
                                    if last { g[t * h + j] } else { g[t * h + j] + carry_h[j] };
                                let dc_tanh = dh * o * (1.0 - ct * ct);
                                let dc = if last { dc_tanh } else { carry_c[j] + dc_tanh };
                                dpre[j] = dc * cc * i * (1.0 - i);
                                dpre[h + j] = dc * c_prev * f * (1.0 - f);
                                dpre[2 * h + j] = dc * i * (1.0 - cc * cc);
                                dpre[3 * h + j] = dh * ct * o * (1.0 - o);
                                carry_c[j] = dc * f;
                            }
                            add(row_mut(dxw, t, 4 * h), dpre);
                            add(dbias, dpre);
                            if !first {
                                let h_prev = row(y, t - 1, h);
                                dwh.chunks_exact_mut(4 * h)
                                    .zip(h_prev)
                                    .for_each(|(dw, &h)| add_scaled(dw, dpre, h));
                                // `dpre W_h^T`, each element summed in increasing `k` order.
                                for (c, wh_row) in carry_h.iter_mut().zip(wh.chunks_exact(4 * h)) {
                                    *c = dpre
                                        .iter()
                                        .zip(wh_row)
                                        .fold(0.0, |sum, (d, w)| sum + d * w);
                                }
                            }
                        }
                        partials.push(b, lstm.bias_id(), 0, 4 * h).copy_from_slice(dbias);
                        partials.push(b, lstm.wh_id(), 0, 4 * h * h).copy_from_slice(dwh);
                    }
                }
                Op::Reverse => {
                    let dx = adj!(0);
                    for seg in segs.iter() {
                        for (t, src) in seg.clone().zip(seg.clone().rev()) {
                            add(row_mut(dx, src, cols), row(g, t, cols));
                        }
                    }
                }
                Op::Attend(attention) => {
                    let (hd, mut at) = (cols / attention.heads(), 0);
                    let scale = 1.0 / (hd as f32).sqrt();
                    let [go, qh, kh, vt, da, prod] = &mut *scratch;
                    for (seg, lo) in segs
                        .iter()
                        .flat_map(|seg| (0..cols).step_by(hd).map(move |lo| (seg.clone(), lo)))
                    {
                        let t = seg.len();
                        let band = |buf: &mut Vec<f32>, m: &[f32]| {
                            buf.clear();
                            seg.clone()
                                .for_each(|r| buf.extend_from_slice(&m[r * cols + lo..][..hd]));
                        };
                        band(go, g);
                        band(qh, x(0));
                        band(kh, x(1));
                        vt.clear();
                        (lo..lo + hd)
                            .for_each(|c| vt.extend(seg.clone().map(|r| x(2)[r * cols + c])));
                        let a = &saved[si][at..at + t * t];
                        at += t * t;
                        // d(attn) = g v^T; the softmax's and the scale's
                        // VJPs make d(raw) = a (d(attn) - <d(attn), a>) c.
                        matmul_into(t, hd, t, go, vt, zeroed(da, t * t));
                        for (d_row, a_row) in da.chunks_exact_mut(t).zip(a.chunks_exact(t)) {
                            let inner = dot(d_row, a_row);
                            d_row
                                .iter_mut()
                                .zip(a_row)
                                .for_each(|(d, a)| *d = a * (*d - inner) * scale);
                        }
                        // dq = d(raw) k, dk = d(raw)^T q and dv = a^T g.
                        for i in 0..3 {
                            let out = zeroed(prod, t * hd);
                            match i {
                                0 => matmul_into(t, t, hd, da, kh, out),
                                1 => matmul_at_into(t, t, hd, da, qh, out),
                                _ => matmul_at_into(t, t, hd, a, go, out),
                            }
                            let dx = adj!(i);
                            for (r, band) in seg.clone().zip(prod.chunks_exact(hd)) {
                                add(&mut dx[r * cols + lo..][..hd], band);
                            }
                        }
                    }
                }
                Op::ConcatCols | Op::Pair => {
                    // A pair joins each element's row after its owner's
                    // shared row; the shared row's delta sums its elements'.
                    let split = in_cols(0);
                    for (d, g) in adj!(1).chunks_exact_mut(cols - split).zip(g.chunks_exact(cols)) {
                        add(d, &g[split..]);
                    }
                    if let Op::ConcatCols = step.op {
                        for (d, g) in adj!(0).chunks_exact_mut(split).zip(g.chunks_exact(cols)) {
                            add(d, &g[..split]);
                        }
                        continue;
                    }
                    let (dx, flag) = summed!();
                    add_summed(dx, flag, &mut scratch[0], |dx| {
                        for (b, seg) in segs.iter().enumerate() {
                            seg.for_each(|r| add(row_mut(dx, b, split), &row(g, r, cols)[..split]));
                        }
                    });
                }
                Op::Dropout(dropout) => {
                    let (dx, mask) = (adj!(0), &saved[si]);
                    if dropout.p() > 0.0 {
                        dx.iter_mut().zip(g.iter().zip(mask)).for_each(|(d, (&g, &m))| *d += g * m);
                    } else {
                        add(dx, g);
                    }
                }
                Op::Pool(kind) => {
                    let parts = 0..step.inputs.len();
                    let rows = |i: usize, b: usize| batch.segs(self.slots[input(i)].rows).range(b);
                    for (b, gb) in g.chunks_exact(cols).enumerate() {
                        let all = parts.clone().flat_map(|i| rows(i, b).map(move |r| (i, r)));
                        if let AggregationKind::Max = kind {
                            // Each column's gradient goes to its first maximum.
                            let best = zeroed(&mut scratch[0], cols);
                            best.fill(f32::NEG_INFINITY);
                            ids.clear();
                            ids.resize(cols, (0, rows(0, b).start));
                            for (i, r) in all {
                                for (j, &v) in row(x(i), r, cols).iter().enumerate() {
                                    if v > best[j] {
                                        (best[j], ids[j]) = (v, (i, r));
                                    }
                                }
                            }
                            for (j, (&(i, r), &d)) in ids.iter().zip(gb).enumerate() {
                                adj!(i)[r * cols + j] += d;
                            }
                        } else {
                            let inv = 1.0 / all.clone().count() as f32;
                            all.for_each(|(i, r)| add_scaled(row_mut(adj!(i), r, cols), gb, inv));
                        }
                    }
                }
                Op::SpanMeans(s) => {
                    let (enc, dx) = (batch.segs(self.slots[input(0)].rows), adj!(0));
                    // Spans may overlap: their deltas add in reverse order.
                    let items = batch.elements[*s].items.iter().enumerate().rev();
                    let spans = items.flat_map(|(b, els)| {
                        els.iter().rev().map(move |&(_, span)| enc.span(b, span))
                    });
                    for (el, span) in (0..segs.total()).rev().zip(spans) {
                        let inv = 1.0 / span.len() as f32;
                        span.for_each(|r| add_scaled(row_mut(dx, r, cols), row(g, el, cols), inv));
                    }
                }
                Op::SliceMix => {
                    let slices = (step.inputs.len() - 1) / 2;
                    let repr = |i: usize| if i == 0 { 0 } else { slices + i };
                    let [w, ds, ..] = &mut *scratch;
                    for (b, gb) in g.chunks_exact(cols).enumerate() {
                        // The weights: a softmax over 0 and each membership margin.
                        zeroed(w, 1).extend((1..=slices).map(|i| x(i)[2 * b + 1] - x(i)[2 * b]));
                        softmax_in_place(w);
                        ds.clear();
                        ds.extend((0..=slices).map(|i| dot(gb, row(x(repr(i)), b, cols))));
                        // The softmax's VJP, then each margin's.
                        let inner = dot(ds, w);
                        for i in 1..=slices {
                            let d = w[i] * (ds[i] - inner);
                            adj!(i)[2 * b] += -d;
                            adj!(i)[2 * b + 1] += d;
                        }
                        for i in 0..=slices {
                            add_scaled(row_mut(adj!(repr(i)), b, cols), gb, w[i]);
                        }
                    }
                }
                Op::Zeros => {}
            }
        }
        partials.losses = losses;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EncoderKind, ModelConfig};
    use crate::network::CompiledModel;
    use crate::{features::FeatureSpace, oracle};
    use overton_nlp::{generate_workload, WorkloadConfig};
    use overton_tensor::nn::{Embedding, Lstm};
    use overton_tensor::Matrix;
    use rand::Rng;
    use std::collections::BTreeMap;

    /// Which side of every kink the forward in `ws` sits on: each relu
    /// output's sign, and the row each max-pooled column takes its value from.
    fn kinks(plan: &Plan, batch: &Batch, ws: &Workspace) -> Vec<usize> {
        let slot = |s: usize| &ws.values[ws.regions[s].clone()];
        let mut sides = Vec::new();
        for (s, step) in plan.steps.iter().enumerate() {
            let cols = plan.slots[s].cols;
            match step.op {
                Op::Affine { act: Act::Relu, .. } => {
                    sides.extend(slot(s).iter().map(|&y| usize::from(y > 0.0)));
                }
                Op::Pool(AggregationKind::Max) => {
                    for (b, pooled) in slot(s).chunks_exact(cols).enumerate() {
                        for (j, &v) in pooled.iter().enumerate() {
                            let mut rows = step.inputs.iter().flat_map(|&i| {
                                batch.segs(plan.slots[i].rows).range(b).map(move |r| (i, r))
                            });
                            sides.push(rows.position(|(i, r)| slot(i)[r * cols + j] == v).unwrap());
                        }
                    }
                }
                _ => {}
            }
        }
        sides
    }

    /// The executor's gradient of every parameter of `model` over `window`
    /// matches central differences of its own window loss along two
    /// directions (the gradient's signs, then seeded random signs). A step
    /// counts only if the forwards at plus and minus it sit on the same side
    /// of every kink as the unmoved one, so the loss is smooth along it; one
    /// such step must exist. With dropout off the loss is deterministic.
    fn assert_gradients_match(mut model: CompiledModel, window: &[&CompiledExample]) {
        let (config, mut ws) = (TrainConfig::default(), Workspace::default());
        let batch = Batch::new(&model.inference, window.iter().copied());
        let mut run = |model: &CompiledModel| -> (f64, Vec<usize>, Partials) {
            let (plan, ps) = (&model.inference, &model.params);
            gradients(plan, ps, window, &vec![0; window.len()], &config, &mut ws);
            let loss = ws.partials.losses.iter().flatten().map(|&l| f64::from(l)).sum();
            (loss, kinks(plan, &batch, &ws), std::mem::take(&mut ws.partials))
        };
        let (_, sides, partials) = run(&model);
        let mut store = model.params.clone();
        partials.merge_into(&mut store);
        let mut rng = SmallRng::seed_from_u64(5);
        for id in model.params.ids().collect::<Vec<_>>() {
            let (grad, x) = (store.grad(id), model.params.value(id).clone());
            let scale: f64 = grad.as_slice().iter().map(|&g| f64::from(g.abs())).sum();
            for random in [false, true] {
                let mut sign = |g: f32| if random { rng.gen::<bool>() } else { g >= 0.0 };
                let dir: Vec<f32> =
                    grad.as_slice().iter().map(|&g| if sign(g) { 1.0 } else { -1.0 }).collect();
                let mut run_at = |t: f32| {
                    let moved = x.as_slice().iter().zip(&dir).map(|(&x, &d)| x + t * d);
                    let value = model.params.value_mut(id).as_mut_slice();
                    value.iter_mut().zip(moved).for_each(|(v, m)| *v = m);
                    run(&model)
                };
                // f32 losses round near 1e-6, so a step `eps` errs by about
                // 1e-6 / eps: the closest of the smooth steps counts.
                let numeric: Vec<f64> = [3e-3f32, 1e-3, 3e-4, 1e-4, 3e-5]
                    .into_iter()
                    .filter_map(|eps| {
                        let ((up, up_sides, _), (down, down_sides, _)) =
                            (run_at(eps), run_at(-eps));
                        let smooth = up_sides == sides && down_sides == sides;
                        smooth.then(|| (up - down) / (2.0 * f64::from(eps)))
                    })
                    .collect();
                run_at(0.0);
                let exact: f64 =
                    grad.as_slice().iter().zip(&dir).map(|(&g, &d)| f64::from(g * d)).sum();
                let error = numeric.iter().map(|n| (n - exact).abs()).fold(f64::MAX, f64::min);
                let (config, name) = (model.config(), model.params.name(id));
                assert!(
                    error <= 1e-3 + 1e-2 * scale,
                    "{config:?} {name} ({random}): {numeric:?} vs {exact}"
                );
            }
        }
    }

    fn fixture() -> (Vec<CompiledExample>, FeatureSpace) {
        let workload = WorkloadConfig {
            n_train: 20,
            seed: 23,
            gold_train_fraction: 1.0,
            ..Default::default()
        };
        let ds = generate_workload(&workload);
        let space = FeatureSpace::build_from_store(&ds.seal()).unwrap();
        (oracle::soft_training_set(&ds, &space), space)
    }

    fn small(encoder: EncoderKind, aggregation: AggregationKind) -> ModelConfig {
        let (token_dim, entity_dim, hidden_dim, dropout) = (8, 8, 8, 0.0);
        ModelConfig {
            encoder,
            aggregation,
            token_dim,
            entity_dim,
            hidden_dim,
            dropout,
            ..Default::default()
        }
    }

    /// Every encoder's and head's VJPs on a small every-branch model, with
    /// relu swapped for tanh so the loss is smooth everywhere.
    #[test]
    fn gradients_match_finite_differences() {
        let (exs, space) = fixture();
        for encoder in oracle::ENCODERS {
            let config = small(encoder, AggregationKind::Mean);
            let mut model =
                CompiledModel::compile(&oracle::every_branch_schema(), &space, &config, None);
            for step in &mut model.inference.steps {
                if let Op::Affine { act: act @ Act::Relu, .. } = &mut step.op {
                    *act = Act::Tanh;
                }
            }
            assert_gradients_match(model, &exs[..8].iter().collect::<Vec<_>>());
        }
    }

    /// relu's mask in the `Affine` VJP and the routing of max pooling's
    /// VJP to each column's winning row, on the encoders that use relu.
    #[test]
    fn relu_and_max_pool_gradients_match_finite_differences() {
        let (exs, space) = fixture();
        for encoder in [EncoderKind::MeanBag, EncoderKind::Cnn] {
            let config = small(encoder, AggregationKind::Max);
            let model =
                CompiledModel::compile(&oracle::every_branch_schema(), &space, &config, None);
            assert_gradients_match(model, &exs[..4].iter().collect::<Vec<_>>());
        }
    }

    #[test]
    fn cross_entropy_zero_weight_rows_are_skipped() {
        // The second row is badly wrong but has no target: it adds no loss
        // and gets no gradient, so the loss is the first row's alone.
        let (logits, target) = ([5.0, 0.0, 0.0, 5.0], [1.0, 0.0]);
        let mut grad = [0.0; 4];
        let rows = [Some(&target[..]), None].into_iter();
        let loss = fused_loss(false, (&logits, 2), rows, 1.0, 1.0, &mut grad);
        let mut alone = [0.0; 2];
        let one_row = fused_loss(
            false,
            (&logits[..2], 2),
            [Some(&target[..])].into_iter(),
            1.0,
            1.0,
            &mut alone,
        );
        assert!(loss < 0.1 && loss == one_row, "{loss} vs {one_row}");
        assert_eq!((&grad[..2], &grad[2..]), (&alone[..], &[0.0, 0.0][..]));
    }

    #[test]
    fn lstm_hidden_states_are_bounded() {
        // h = o * tanh(c) with o in (0, 1): |h| < 1 in exact arithmetic, and
        // f32 saturation (sigmoid or tanh rounding to 1.0) makes equality
        // attainable on huge inputs.
        let (mut ps, mut rng) = (ParamStore::new(), SmallRng::seed_from_u64(2));
        let table = Embedding::from_pretrained(&mut ps, "e", Matrix::full(2, 2, 100.0));
        let lstm = Lstm::new(&mut ps, "l", 2, 3, &mut rng);
        let mut plan = Plan { sequences: vec!["tokens".into()], ..Plan::default() };
        let x = plan.step(Op::Gather(table.table()), &[], Rows::Tokens(0), 2);
        let h = plan.lstm(&lstm, x);
        let example = CompiledExample {
            record_index: 0,
            sequences: BTreeMap::from([("tokens".into(), vec![1; 10])]),
            sets: BTreeMap::new(),
            targets: BTreeMap::new(),
            slice_membership: Vec::new(),
        };
        let mut ws = Workspace::default();
        gradients(&plan, &ps, &[&example], &[0], &TrainConfig::default(), &mut ws);
        let states = &ws.values[ws.regions[h].clone()];
        assert_eq!(states.len(), 10 * 3);
        assert!(states.iter().all(|v| v.is_finite() && v.abs() <= 1.0), "{states:?}");
    }
}
