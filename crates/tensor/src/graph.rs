//! Reverse-mode automatic differentiation over [`Matrix`] values.
//!
//! A [`Graph`] is a define-by-run tape: every operation appends a node that
//! records its inputs, so nodes are already in topological order and
//! [`Graph::backward`] is a single reverse sweep. The tape exists for
//! gradients. Learnable parameters live outside it in a
//! [`ParamStore`](crate::params::ParamStore) that the graph borrows, and
//! enter as leaf nodes ([`Graph::param`]) that read the stored matrix in
//! place.
//!
//! The model crate trains without it: its plan runs forward and backward
//! over slot arenas with a hand-written vector-Jacobian product per step.
//! The tape serves masked-token pretraining, the finite-difference checks
//! in [`gradcheck`](crate::gradcheck), the `nn` layers' tests, and the
//! per-example test oracle the model's trainer and inference are checked
//! against bit for bit.

use crate::matrix::{dot, Matrix};
use crate::params::{ParamId, ParamStore};
use std::borrow::Cow;

/// Handle to a node in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    #[inline]
    fn idx(self) -> usize {
        self.0 as usize
    }
}

/// The operation that produced a node, with everything backward needs.
enum Op {
    /// Leaf value. `param` links back to the [`ParamStore`] entry so its
    /// gradient can be flushed after the backward pass.
    Leaf {
        param: Option<ParamId>,
    },
    Add(NodeId, NodeId),
    Sub(NodeId, NodeId),
    Mul(NodeId, NodeId),
    Scale(NodeId, f32),
    Matmul(NodeId, NodeId),
    /// `out = a + broadcast(bias)` where `bias` is `1 x n`.
    AddRowBroadcast(NodeId, NodeId),
    /// `out[i, :] = a[i, :] * s[i, 0]` where `s` is `m x 1`.
    MulRowScalar(NodeId, NodeId),
    Relu(NodeId),
    Tanh(NodeId),
    Sigmoid(NodeId),
    Exp(NodeId),
    /// Natural log of inputs clamped to `>= LN_CLAMP`.
    Ln(NodeId),
    SumAll(NodeId),
    MeanAll(NodeId),
    SumRows(NodeId),
    MeanRows(NodeId),
    /// Column-wise max over rows; `argmax[j]` is the winning row per column.
    MaxRows {
        x: NodeId,
        argmax: Vec<u32>,
    },
    SoftmaxRows(NodeId),
    ConcatRows(Vec<NodeId>),
    ConcatCols(Vec<NodeId>),
    /// Gather rows of `x` by index (also the embedding lookup primitive).
    SelectRows {
        x: NodeId,
        indices: Vec<u32>,
    },
    SliceCols {
        x: NodeId,
        lo: usize,
    },
    SliceRows {
        x: NodeId,
        lo: usize,
    },
    ReverseRows(NodeId),
    Transpose(NodeId),
    /// Sliding-window unfold for 1-D convolution: row `t` of the output is
    /// the concatenation of rows `t - pad .. t - pad + k` of the input
    /// (zeros outside), so a convolution is `im2row(x) * W`.
    Im2Row {
        x: NodeId,
        k: usize,
        pad: usize,
    },
    /// Fused softmax cross-entropy against a constant target distribution,
    /// with constant per-row weights. Produces a scalar.
    CrossEntropy {
        logits: NodeId,
        targets: Matrix,
        row_weights: Vec<f32>,
        weight_sum: f32,
    },
    /// Fused sigmoid binary cross-entropy with a constant per-element mask.
    BceWithLogits {
        logits: NodeId,
        targets: Matrix,
        mask: Matrix,
        mask_sum: f32,
    },
    /// Per-row layer normalization with learnable gain/bias (each `1 x n`).
    LayerNorm {
        x: NodeId,
        gain: NodeId,
        bias: NodeId,
        normalized: Matrix,
        inv_std: Vec<f32>,
    },
}

/// Inputs to the natural-log op ([`Graph::ln`]) are clamped to this value
/// to keep the op total.
pub const LN_CLAMP: f32 = 1e-12;

struct Node<'p> {
    /// Parameter leaves borrow their value from the store.
    value: Cow<'p, Matrix>,
    grad: Option<Matrix>,
    op: Op,
    needs_grad: bool,
}

/// A define-by-run computation tape over parameters borrowed from a
/// [`ParamStore`] for `'p`.
#[derive(Default)]
pub struct Graph<'p> {
    nodes: Vec<Node<'p>>,
}

impl<'p> Graph<'p> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self { nodes: Vec::with_capacity(64) }
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The forward value of a node.
    pub fn value(&self, id: NodeId) -> &Matrix {
        &self.nodes[id.idx()].value
    }

    /// The gradient accumulated on a node by [`backward`](Self::backward),
    /// or `None` if the node did not require gradients (or backward has not
    /// run).
    pub fn grad(&self, id: NodeId) -> Option<&Matrix> {
        self.nodes[id.idx()].grad.as_ref()
    }

    fn push(&mut self, value: Matrix, op: Op, needs_grad: bool) -> NodeId {
        self.push_value(Cow::Owned(value), op, needs_grad)
    }

    fn push_value(&mut self, value: Cow<'p, Matrix>, op: Op, needs_grad: bool) -> NodeId {
        debug_assert!(value.all_finite(), "non-finite forward value");
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { value, grad: None, op, needs_grad });
        id
    }

    fn needs(&self, id: NodeId) -> bool {
        self.nodes[id.idx()].needs_grad
    }

    // ---- leaves -----------------------------------------------------------

    /// Adds a differentiable leaf (used for inputs in gradient checking).
    pub fn leaf(&mut self, value: Matrix) -> NodeId {
        self.push(value, Op::Leaf { param: None }, true)
    }

    /// Adds a constant leaf that never receives a gradient.
    pub fn constant(&mut self, value: Matrix) -> NodeId {
        self.push(value, Op::Leaf { param: None }, false)
    }

    /// Brings a parameter from `store` into the graph as a leaf node that
    /// reads the stored matrix in place. After [`backward`](Self::backward),
    /// [`take_param_grads`](Self::take_param_grads) returns its gradient.
    pub fn param(&mut self, store: &'p ParamStore, id: ParamId) -> NodeId {
        self.push_value(Cow::Borrowed(store.value(id)), Op::Leaf { param: Some(id) }, true)
    }

    // ---- arithmetic -------------------------------------------------------

    /// Element-wise sum of two same-shaped nodes.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).zip(self.value(b), |x, y| x + y);
        let ng = self.needs(a) || self.needs(b);
        self.push(v, Op::Add(a, b), ng)
    }

    /// Element-wise difference `a - b`.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).zip(self.value(b), |x, y| x - y);
        let ng = self.needs(a) || self.needs(b);
        self.push(v, Op::Sub(a, b), ng)
    }

    /// Element-wise (Hadamard) product.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).zip(self.value(b), |x, y| x * y);
        let ng = self.needs(a) || self.needs(b);
        self.push(v, Op::Mul(a, b), ng)
    }

    /// Multiplies every element by a constant.
    pub fn scale(&mut self, a: NodeId, c: f32) -> NodeId {
        let v = self.value(a).map(|x| x * c);
        let ng = self.needs(a);
        self.push(v, Op::Scale(a, c), ng)
    }

    /// Matrix product `a * b`.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.value(a).matmul(self.value(b));
        let ng = self.needs(a) || self.needs(b);
        self.push(v, Op::Matmul(a, b), ng)
    }

    /// Adds a `1 x n` bias row to every row of an `m x n` node.
    pub fn add_row_broadcast(&mut self, a: NodeId, bias: NodeId) -> NodeId {
        let mut v = self.value(a).clone();
        v.add_row(self.value(bias));
        let ng = self.needs(a) || self.needs(bias);
        self.push(v, Op::AddRowBroadcast(a, bias), ng)
    }

    /// Scales row `i` of an `m x n` node by element `i` of an `m x 1` node.
    pub fn mul_row_scalar(&mut self, a: NodeId, s: NodeId) -> NodeId {
        let (av, sv) = (self.value(a), self.value(s));
        assert_eq!(sv.cols(), 1, "row scalars must be a column vector");
        assert_eq!(av.rows(), sv.rows(), "row scalar length mismatch");
        let mut v = av.clone();
        for r in 0..v.rows() {
            let c = sv[(r, 0)];
            for o in v.row_mut(r) {
                *o *= c;
            }
        }
        let ng = self.needs(a) || self.needs(s);
        self.push(v, Op::MulRowScalar(a, s), ng)
    }

    // ---- activations ------------------------------------------------------

    /// Rectified linear unit.
    pub fn relu(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).map(|x| x.max(0.0));
        let ng = self.needs(a);
        self.push(v, Op::Relu(a), ng)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).map(f32::tanh);
        let ng = self.needs(a);
        self.push(v, Op::Tanh(a), ng)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).map(stable_sigmoid);
        let ng = self.needs(a);
        self.push(v, Op::Sigmoid(a), ng)
    }

    /// Element-wise exponential.
    pub fn exp(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).map(f32::exp);
        let ng = self.needs(a);
        self.push(v, Op::Exp(a), ng)
    }

    /// Element-wise natural log of inputs clamped to [`LN_CLAMP`].
    pub fn ln(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).map(|x| x.max(LN_CLAMP).ln());
        let ng = self.needs(a);
        self.push(v, Op::Ln(a), ng)
    }

    // ---- reductions -------------------------------------------------------

    /// Sum of all elements, as a `1 x 1` node.
    pub fn sum_all(&mut self, a: NodeId) -> NodeId {
        let v = Matrix::scalar(self.value(a).sum());
        let ng = self.needs(a);
        self.push(v, Op::SumAll(a), ng)
    }

    /// Mean of all elements, as a `1 x 1` node.
    pub fn mean_all(&mut self, a: NodeId) -> NodeId {
        let v = Matrix::scalar(self.value(a).mean());
        let ng = self.needs(a);
        self.push(v, Op::MeanAll(a), ng)
    }

    /// Column-wise sum over rows: `m x n -> 1 x n`.
    pub fn sum_rows(&mut self, a: NodeId) -> NodeId {
        let av = self.value(a);
        let mut v = Matrix::zeros(1, av.cols());
        for r in 0..av.rows() {
            for (o, &x) in v.row_mut(0).iter_mut().zip(av.row(r)) {
                *o += x;
            }
        }
        let ng = self.needs(a);
        self.push(v, Op::SumRows(a), ng)
    }

    /// Column-wise mean over rows: `m x n -> 1 x n`.
    pub fn mean_rows(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).mean_rows();
        let ng = self.needs(a);
        self.push(v, Op::MeanRows(a), ng)
    }

    /// Column-wise max over rows: `m x n -> 1 x n`.
    pub fn max_rows(&mut self, a: NodeId) -> NodeId {
        let (v, argmax) = self.value(a).max_rows();
        let ng = self.needs(a);
        self.push(v, Op::MaxRows { x: a, argmax }, ng)
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&mut self, a: NodeId) -> NodeId {
        let av = self.value(a);
        let mut v = av.clone();
        for r in 0..v.rows() {
            softmax_in_place(v.row_mut(r));
        }
        let ng = self.needs(a);
        self.push(v, Op::SoftmaxRows(a), ng)
    }

    // ---- shape ops --------------------------------------------------------

    /// Vertically stacks nodes (all must share a column count).
    ///
    /// # Panics
    /// Panics if `parts` is empty.
    pub fn concat_rows(&mut self, parts: &[NodeId]) -> NodeId {
        let v = Matrix::concat_rows(parts.iter().map(|&p| self.value(p)));
        let ng = parts.iter().any(|&p| self.needs(p));
        self.push(v, Op::ConcatRows(parts.to_vec()), ng)
    }

    /// Horizontally concatenates nodes (all must share a row count).
    ///
    /// # Panics
    /// Panics if `parts` is empty.
    pub fn concat_cols(&mut self, parts: &[NodeId]) -> NodeId {
        let v = Matrix::concat_cols(parts.iter().map(|&p| self.value(p)));
        let ng = parts.iter().any(|&p| self.needs(p));
        self.push(v, Op::ConcatCols(parts.to_vec()), ng)
    }

    /// Gathers rows of `a` by index. Row indices may repeat; gradients
    /// scatter-add. This is also the embedding lookup primitive.
    pub fn select_rows(&mut self, a: NodeId, indices: &[usize]) -> NodeId {
        let av = self.value(a);
        let v = av.select_rows(indices);
        let idx: Vec<u32> = indices.iter().map(|&i| i as u32).collect();
        let ng = self.needs(a);
        self.push(v, Op::SelectRows { x: a, indices: idx }, ng)
    }

    /// Takes columns `lo..hi` of a node.
    pub fn slice_cols(&mut self, a: NodeId, lo: usize, hi: usize) -> NodeId {
        let v = self.value(a).slice_cols(lo, hi);
        let ng = self.needs(a);
        self.push(v, Op::SliceCols { x: a, lo }, ng)
    }

    /// Takes rows `lo..hi` of a node. Its gradient adds into just those
    /// rows, so per-example views of a row-stacked node cost nothing for
    /// the rows they leave out.
    pub fn slice_rows(&mut self, a: NodeId, lo: usize, hi: usize) -> NodeId {
        let av = self.value(a);
        assert!(
            lo <= hi && hi <= av.rows(),
            "slice_rows range {lo}..{hi} out of {} rows",
            av.rows()
        );
        let cols = av.cols();
        let v = Matrix::from_vec(hi - lo, cols, av.as_slice()[lo * cols..hi * cols].to_vec());
        let ng = self.needs(a);
        self.push(v, Op::SliceRows { x: a, lo }, ng)
    }

    /// Matrix transpose.
    pub fn transpose(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).transpose();
        let ng = self.needs(a);
        self.push(v, Op::Transpose(a), ng)
    }

    /// Reverses the row order (used by backward RNN passes).
    pub fn reverse_rows(&mut self, a: NodeId) -> NodeId {
        let v = self.value(a).reverse_rows();
        let ng = self.needs(a);
        self.push(v, Op::ReverseRows(a), ng)
    }

    /// Sliding-window unfold ([`Matrix::im2row`]): `im2row(x, k, k/2) * W`
    /// is a same-length 1-D convolution.
    pub fn im2row(&mut self, a: NodeId, k: usize, pad: usize) -> NodeId {
        let v = self.value(a).im2row(k, pad);
        let ng = self.needs(a);
        self.push(v, Op::Im2Row { x: a, k, pad }, ng)
    }

    // ---- fused losses -----------------------------------------------------

    /// Softmax cross-entropy of `logits` (`m x n`) against a constant target
    /// distribution (`m x n`, rows sum to 1), weighted per row. Returns the
    /// scalar `-(sum_i w_i <t_i, log softmax(x_i)>) / max(sum_i w_i, eps)`.
    ///
    /// Probabilistic targets are how weak supervision enters training: the
    /// label model's posterior over classes is used directly as `targets`.
    pub fn cross_entropy(
        &mut self,
        logits: NodeId,
        targets: &Matrix,
        row_weights: &[f32],
    ) -> NodeId {
        let lv = self.value(logits);
        assert_eq!(lv.shape(), targets.shape(), "cross_entropy target shape mismatch");
        assert_eq!(lv.rows(), row_weights.len(), "cross_entropy weight length mismatch");
        let weight_sum = row_weights.iter().sum::<f32>().max(1e-12);
        let mut loss = 0.0f64;
        for (r, &weight) in row_weights.iter().enumerate() {
            if weight == 0.0 {
                continue;
            }
            let row = lv.row(r);
            let max = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
            let logsum =
                row.iter().map(|&x| ((x - max) as f64).exp()).sum::<f64>().ln() + max as f64;
            let mut row_loss = 0.0f64;
            for (j, &t) in targets.row(r).iter().enumerate() {
                if t != 0.0 {
                    row_loss -= t as f64 * (row[j] as f64 - logsum);
                }
            }
            loss += weight as f64 * row_loss;
        }
        let v = Matrix::scalar((loss / weight_sum as f64) as f32);
        let ng = self.needs(logits);
        self.push(
            v,
            Op::CrossEntropy {
                logits,
                targets: targets.clone(),
                row_weights: row_weights.to_vec(),
                weight_sum,
            },
            ng,
        )
    }

    /// Sigmoid binary cross-entropy of `logits` against constant targets in
    /// `[0, 1]`, with a constant mask (0 drops an element from the loss).
    /// Returns `sum(mask * bce) / max(sum(mask), eps)` as a scalar, computed
    /// with the numerically stable `max(x,0) - x*t + ln(1 + e^-|x|)` form.
    pub fn bce_with_logits(&mut self, logits: NodeId, targets: &Matrix, mask: &Matrix) -> NodeId {
        let lv = self.value(logits);
        assert_eq!(lv.shape(), targets.shape(), "bce target shape mismatch");
        assert_eq!(lv.shape(), mask.shape(), "bce mask shape mismatch");
        let mask_sum = mask.sum().max(1e-12);
        let mut loss = 0.0f64;
        for ((&x, &t), &m) in lv.as_slice().iter().zip(targets.as_slice()).zip(mask.as_slice()) {
            if m == 0.0 {
                continue;
            }
            let term = x.max(0.0) - x * t + (1.0 + (-x.abs()).exp()).ln();
            loss += (m * term) as f64;
        }
        let v = Matrix::scalar((loss / mask_sum as f64) as f32);
        let ng = self.needs(logits);
        self.push(
            v,
            Op::BceWithLogits { logits, targets: targets.clone(), mask: mask.clone(), mask_sum },
            ng,
        )
    }

    /// Per-row layer normalization with learnable `gain` and `bias`
    /// (both `1 x n`): `y = gain * (x - mean) / sqrt(var + eps) + bias`.
    pub fn layer_norm(&mut self, x: NodeId, gain: NodeId, bias: NodeId, eps: f32) -> NodeId {
        let xv = self.value(x);
        let (m, n) = xv.shape();
        assert_eq!(self.value(gain).shape(), (1, n), "layer_norm gain shape");
        assert_eq!(self.value(bias).shape(), (1, n), "layer_norm bias shape");
        let mut normalized = Matrix::zeros(m, n);
        let mut inv_std = vec![0.0f32; m];
        for r in 0..m {
            let row = xv.row(r);
            let mean = row.iter().sum::<f32>() / n as f32;
            let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / n as f32;
            let is = 1.0 / (var + eps).sqrt();
            inv_std[r] = is;
            for (j, &v) in row.iter().enumerate() {
                normalized[(r, j)] = (v - mean) * is;
            }
        }
        let gv = self.value(gain).clone();
        let bv = self.value(bias).clone();
        let mut out = Matrix::zeros(m, n);
        for r in 0..m {
            for j in 0..n {
                out[(r, j)] = gv[(0, j)] * normalized[(r, j)] + bv[(0, j)];
            }
        }
        let ng = self.needs(x) || self.needs(gain) || self.needs(bias);
        self.push(out, Op::LayerNorm { x, gain, bias, normalized, inv_std }, ng)
    }

    // ---- backward ---------------------------------------------------------

    /// Runs the reverse sweep from a scalar `loss` node, accumulating
    /// gradients on every node that requires them.
    ///
    /// # Panics
    /// Panics if `loss` is not `1 x 1`.
    pub fn backward(&mut self, loss: NodeId) {
        assert_eq!(self.value(loss).shape(), (1, 1), "backward requires a scalar loss");
        self.nodes[loss.idx()].grad = Some(Matrix::scalar(1.0));
        for i in (0..=loss.idx()).rev() {
            if !self.nodes[i].needs_grad {
                continue;
            }
            let Some(g) = self.nodes[i].grad.take() else { continue };
            self.step_backward(i, &g);
            self.nodes[i].grad = Some(g);
        }
    }

    /// The node a gradient flows into, if it needs one.
    fn grad_target(&mut self, id: NodeId) -> Option<&mut Node<'p>> {
        Some(&mut self.nodes[id.idx()]).filter(|n| n.needs_grad)
    }

    fn accumulate(&mut self, id: NodeId, delta: &Matrix) {
        let Some(node) = self.grad_target(id) else { return };
        match &mut node.grad {
            Some(g) => g.add_assign(delta),
            None => node.grad = Some(delta.clone()),
        }
    }

    fn accumulate_owned(&mut self, id: NodeId, delta: Matrix) {
        let Some(node) = self.grad_target(id) else { return };
        match &mut node.grad {
            Some(g) => g.add_assign(&delta),
            None => node.grad = Some(delta),
        }
    }

    /// Adds `delta` into rows `lo..` of a node's gradient (zero elsewhere).
    fn accumulate_rows(&mut self, id: NodeId, lo: usize, delta: &Matrix) {
        let Some(node) = self.grad_target(id) else { return };
        let (rows, cols) = node.value.shape();
        let grad = node.grad.get_or_insert_with(|| Matrix::zeros(rows, cols));
        let band = &mut grad.as_mut_slice()[lo * cols..(lo + delta.rows()) * cols];
        for (o, &d) in band.iter_mut().zip(delta.as_slice()) {
            *o += d;
        }
    }

    #[allow(clippy::too_many_lines)]
    fn step_backward(&mut self, i: usize, g: &Matrix) {
        // `op` is moved out and restored so we can mutate other nodes while
        // reading the recorded operands.
        let op = std::mem::replace(&mut self.nodes[i].op, Op::Leaf { param: None });
        match &op {
            Op::Leaf { .. } => {}
            Op::Add(a, b) => {
                self.accumulate(*a, g);
                self.accumulate(*b, g);
            }
            Op::Sub(a, b) => {
                self.accumulate(*a, g);
                self.accumulate_owned(*b, g.map(|x| -x));
            }
            Op::Mul(a, b) => {
                let da = g.zip(self.value(*b), |gg, bb| gg * bb);
                let db = g.zip(self.value(*a), |gg, aa| gg * aa);
                self.accumulate_owned(*a, da);
                self.accumulate_owned(*b, db);
            }
            Op::Scale(a, c) => {
                self.accumulate_owned(*a, g.map(|x| x * c));
            }
            Op::Matmul(a, b) => {
                // d/da (a b) = g b^T ; d/db (a b) = a^T g
                if self.needs(*a) {
                    let da = g.matmul_transpose_b(self.value(*b));
                    self.accumulate_owned(*a, da);
                }
                if self.needs(*b) {
                    let db = self.value(*a).transpose_a_matmul(g);
                    self.accumulate_owned(*b, db);
                }
            }
            Op::AddRowBroadcast(a, bias) => {
                self.accumulate(*a, g);
                let mut db = Matrix::zeros(1, g.cols());
                for r in 0..g.rows() {
                    for (o, &x) in db.row_mut(0).iter_mut().zip(g.row(r)) {
                        *o += x;
                    }
                }
                self.accumulate_owned(*bias, db);
            }
            Op::MulRowScalar(a, s) => {
                let sv = self.value(*s).clone();
                let av = self.value(*a).clone();
                let mut da = g.clone();
                let mut ds = Matrix::zeros(sv.rows(), 1);
                for r in 0..g.rows() {
                    let c = sv[(r, 0)];
                    for o in da.row_mut(r) {
                        *o *= c;
                    }
                    ds[(r, 0)] = dot(g.row(r), av.row(r));
                }
                self.accumulate_owned(*a, da);
                self.accumulate_owned(*s, ds);
            }
            Op::Relu(a) => {
                let da = g.zip(self.value(*a), |gg, x| if x > 0.0 { gg } else { 0.0 });
                self.accumulate_owned(*a, da);
            }
            Op::Tanh(a) => {
                let y = &self.nodes[i].value;
                let da = g.zip(y, |gg, yy| gg * (1.0 - yy * yy));
                self.accumulate_owned(*a, da);
            }
            Op::Sigmoid(a) => {
                let y = &self.nodes[i].value;
                let da = g.zip(y, |gg, yy| gg * yy * (1.0 - yy));
                self.accumulate_owned(*a, da);
            }
            Op::Exp(a) => {
                let y = &self.nodes[i].value;
                let da = g.zip(y, |gg, yy| gg * yy);
                self.accumulate_owned(*a, da);
            }
            Op::Ln(a) => {
                let da = g.zip(self.value(*a), |gg, x| gg / x.max(LN_CLAMP));
                self.accumulate_owned(*a, da);
            }
            Op::SumAll(a) => {
                let c = g.scalar_value();
                let (r, cl) = self.value(*a).shape();
                self.accumulate_owned(*a, Matrix::full(r, cl, c));
            }
            Op::MeanAll(a) => {
                let (r, cl) = self.value(*a).shape();
                let c = g.scalar_value() / (r * cl) as f32;
                self.accumulate_owned(*a, Matrix::full(r, cl, c));
            }
            Op::SumRows(a) => {
                let (r, cl) = self.value(*a).shape();
                let mut da = Matrix::zeros(r, cl);
                for rr in 0..r {
                    da.row_mut(rr).copy_from_slice(g.row(0));
                }
                self.accumulate_owned(*a, da);
            }
            Op::MeanRows(a) => {
                let (r, cl) = self.value(*a).shape();
                let inv = 1.0 / r as f32;
                let mut da = Matrix::zeros(r, cl);
                for rr in 0..r {
                    for (o, &x) in da.row_mut(rr).iter_mut().zip(g.row(0)) {
                        *o = x * inv;
                    }
                }
                self.accumulate_owned(*a, da);
            }
            Op::MaxRows { x, argmax } => {
                let (r, cl) = self.value(*x).shape();
                let mut da = Matrix::zeros(r, cl);
                for (j, &win) in argmax.iter().enumerate() {
                    da[(win as usize, j)] = g[(0, j)];
                }
                self.accumulate_owned(*x, da);
            }
            Op::SoftmaxRows(a) => {
                // dx_row = y ∘ (g_row - <g_row, y_row>)
                let y = self.nodes[i].value.clone();
                let mut da = Matrix::zeros(y.rows(), y.cols());
                for r in 0..y.rows() {
                    let inner = dot(g.row(r), y.row(r));
                    for j in 0..y.cols() {
                        da[(r, j)] = y[(r, j)] * (g[(r, j)] - inner);
                    }
                }
                self.accumulate_owned(*a, da);
            }
            Op::ConcatRows(parts) => {
                let mut offset = 0;
                for &p in parts {
                    let rows = self.value(p).rows();
                    let idx: Vec<usize> = (offset..offset + rows).collect();
                    let dp = g.select_rows(&idx);
                    self.accumulate_owned(p, dp);
                    offset += rows;
                }
            }
            Op::ConcatCols(parts) => {
                let mut offset = 0;
                for &p in parts {
                    let cols = self.value(p).cols();
                    let dp = g.slice_cols(offset, offset + cols);
                    self.accumulate_owned(p, dp);
                    offset += cols;
                }
            }
            Op::SelectRows { x, indices } => {
                if self.needs(*x) {
                    let (rows, cols) = self.value(*x).shape();
                    let mut da = Matrix::zeros(rows, cols);
                    for (out_row, &src) in indices.iter().enumerate() {
                        for (o, &gg) in da.row_mut(src as usize).iter_mut().zip(g.row(out_row)) {
                            *o += gg;
                        }
                    }
                    self.accumulate_owned(*x, da);
                }
            }
            Op::SliceCols { x, lo } => {
                let (r, cl) = self.value(*x).shape();
                let mut da = Matrix::zeros(r, cl);
                for rr in 0..r {
                    da.row_mut(rr)[*lo..lo + g.cols()].copy_from_slice(g.row(rr));
                }
                self.accumulate_owned(*x, da);
            }
            Op::SliceRows { x, lo } => {
                self.accumulate_rows(*x, *lo, g);
            }
            Op::ReverseRows(a) => {
                let rev: Vec<usize> = (0..g.rows()).rev().collect();
                self.accumulate_owned(*a, g.select_rows(&rev));
            }
            Op::Transpose(a) => {
                self.accumulate_owned(*a, g.transpose());
            }
            Op::Im2Row { x, k, pad } => {
                let (t_len, d) = self.value(*x).shape();
                let mut da = Matrix::zeros(t_len, d);
                for t in 0..t_len {
                    for o in 0..*k {
                        let src = t as isize + o as isize - *pad as isize;
                        if src >= 0 && (src as usize) < t_len {
                            let gslice = &g.row(t)[o * d..(o + 1) * d];
                            for (dst, &gg) in da.row_mut(src as usize).iter_mut().zip(gslice) {
                                *dst += gg;
                            }
                        }
                    }
                }
                self.accumulate_owned(*x, da);
            }
            Op::CrossEntropy { logits, targets, row_weights, weight_sum } => {
                let gs = g.scalar_value();
                let lv = self.value(*logits);
                let mut da = Matrix::zeros(lv.rows(), lv.cols());
                for r in 0..lv.rows() {
                    if row_weights[r] == 0.0 {
                        continue;
                    }
                    let mut probs: Vec<f32> = lv.row(r).to_vec();
                    softmax_in_place(&mut probs);
                    let coeff = gs * row_weights[r] / weight_sum;
                    for j in 0..lv.cols() {
                        da[(r, j)] = coeff * (probs[j] - targets[(r, j)]);
                    }
                }
                self.accumulate_owned(*logits, da);
            }
            Op::BceWithLogits { logits, targets, mask, mask_sum } => {
                let gs = g.scalar_value();
                let lv = self.value(*logits);
                let mut da = Matrix::zeros(lv.rows(), lv.cols());
                for idx in 0..lv.len() {
                    let m = mask.as_slice()[idx];
                    if m == 0.0 {
                        continue;
                    }
                    let x = lv.as_slice()[idx];
                    let t = targets.as_slice()[idx];
                    da.as_mut_slice()[idx] = gs * m * (stable_sigmoid(x) - t) / mask_sum;
                }
                self.accumulate_owned(*logits, da);
            }
            Op::LayerNorm { x, gain, bias, normalized, inv_std } => {
                let (m, n) = normalized.shape();
                let gv = self.value(*gain).clone();
                let mut dgain = Matrix::zeros(1, n);
                let mut dbias = Matrix::zeros(1, n);
                let mut dx = Matrix::zeros(m, n);
                for r in 0..m {
                    // d/dx of y = gain*(x-mu)/sigma + bias, per row:
                    // dx = (1/sigma) * (dxhat - mean(dxhat) - xhat * mean(dxhat ∘ xhat))
                    let mut dxhat = vec![0.0f32; n];
                    for j in 0..n {
                        let go = g[(r, j)];
                        dgain[(0, j)] += go * normalized[(r, j)];
                        dbias[(0, j)] += go;
                        dxhat[j] = go * gv[(0, j)];
                    }
                    let mean_dxhat = dxhat.iter().sum::<f32>() / n as f32;
                    let mean_dxhat_xhat =
                        dxhat.iter().enumerate().map(|(j, &v)| v * normalized[(r, j)]).sum::<f32>()
                            / n as f32;
                    for j in 0..n {
                        dx[(r, j)] = inv_std[r]
                            * (dxhat[j] - mean_dxhat - normalized[(r, j)] * mean_dxhat_xhat);
                    }
                }
                self.accumulate_owned(*x, dx);
                self.accumulate_owned(*gain, dgain);
                self.accumulate_owned(*bias, dbias);
            }
        }
        self.nodes[i].op = op;
    }

    /// Drains the parameter-leaf gradients, as `(parameter, gradient)`
    /// pairs in node order, which for every parameter is the order its
    /// leaves were created. Add them into the store in that order to sum
    /// a parameter's uses as one deterministic sequence.
    pub fn take_param_grads(&mut self) -> Vec<(ParamId, Matrix)> {
        let leaves = self.nodes.iter_mut().filter_map(|node| match node.op {
            Op::Leaf { param: Some(pid) } => Some((pid, node.grad.take()?)),
            _ => None,
        });
        leaves.collect()
    }
}

/// Numerically stable logistic sigmoid.
#[inline]
pub fn stable_sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// In-place stable softmax over a slice.
pub fn softmax_in_place(row: &mut [f32]) {
    let max = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
    let mut sum = 0.0;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    let inv = 1.0 / sum;
    for v in row {
        *v *= inv;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar_graph() -> (Graph<'static>, NodeId, NodeId) {
        let mut g = Graph::new();
        let a = g.leaf(Matrix::scalar(3.0));
        let b = g.leaf(Matrix::scalar(4.0));
        (g, a, b)
    }

    #[test]
    fn add_backward() {
        let (mut g, a, b) = scalar_graph();
        let c = g.add(a, b);
        g.backward(c);
        assert_eq!(g.grad(a).unwrap().scalar_value(), 1.0);
        assert_eq!(g.grad(b).unwrap().scalar_value(), 1.0);
    }

    #[test]
    fn mul_backward() {
        let (mut g, a, b) = scalar_graph();
        let c = g.mul(a, b);
        g.backward(c);
        assert_eq!(g.grad(a).unwrap().scalar_value(), 4.0);
        assert_eq!(g.grad(b).unwrap().scalar_value(), 3.0);
    }

    #[test]
    fn fan_out_accumulates() {
        // f = a*a + a  =>  df/da = 2a + 1 = 7 at a = 3
        let mut g = Graph::new();
        let a = g.leaf(Matrix::scalar(3.0));
        let sq = g.mul(a, a);
        let f = g.add(sq, a);
        g.backward(f);
        assert_eq!(g.grad(a).unwrap().scalar_value(), 7.0);
    }

    #[test]
    fn repeated_param_uses_get_own_leaves_and_all_flush() {
        let mut store = ParamStore::new();
        let w = store.add("w", Matrix::scalar(3.0));
        // Two uses insert two leaves, and each flushes its gradient.
        let mut g = Graph::new();
        let a = g.param(&store, w);
        let b = g.param(&store, w);
        assert_ne!(a, b);
        assert_eq!(g.len(), 2);
        let f = g.add(a, b); // d/dw (w + w) = 2
        assert_eq!(g.value(f).scalar_value(), 6.0);
        g.backward(f);
        let grads = g.take_param_grads();
        assert_eq!(grads.len(), 2, "one partial per leaf");
        for (pid, grad) in grads {
            store.grad_mut(pid).add_assign(&grad);
        }
        assert_eq!(store.grad(w).scalar_value(), 2.0);
    }

    #[test]
    fn slice_rows_gradient_lands_on_its_rows() {
        let mut g = Graph::new();
        let a = g.leaf(Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]));
        let mid = g.slice_rows(a, 1, 3);
        assert_eq!(g.value(mid).as_slice(), &[2.0, 3.0]);
        let doubled = g.scale(mid, 2.0);
        let loss = g.sum_all(doubled);
        g.backward(loss);
        assert_eq!(g.grad(a).unwrap().as_slice(), &[0.0, 2.0, 2.0]);
    }

    #[test]
    fn constants_receive_no_grad() {
        let mut g = Graph::new();
        let a = g.leaf(Matrix::scalar(2.0));
        let c = g.constant(Matrix::scalar(5.0));
        let f = g.mul(a, c);
        g.backward(f);
        assert_eq!(g.grad(a).unwrap().scalar_value(), 5.0);
        assert!(g.grad(c).is_none());
    }

    #[test]
    fn matmul_forward_and_backward_shapes() {
        let mut g = Graph::new();
        let a = g.leaf(Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]));
        let b = g.leaf(Matrix::from_rows(&[vec![5.0], vec![6.0]]));
        let c = g.matmul(a, b);
        assert_eq!(g.value(c).as_slice(), &[17.0, 39.0]);
        let loss = g.sum_all(c);
        g.backward(loss);
        assert_eq!(g.grad(a).unwrap().shape(), (2, 2));
        assert_eq!(g.grad(b).unwrap().shape(), (2, 1));
        // dL/db = A^T * ones = [[4],[6]]
        assert_eq!(g.grad(b).unwrap().as_slice(), &[4.0, 6.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut g = Graph::new();
        let a = g.leaf(Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![-1.0, 0.0, 1.0]]));
        let s = g.softmax_rows(a);
        for r in 0..2 {
            let sum: f32 = g.value(s).row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn cross_entropy_matches_manual() {
        let mut g = Graph::new();
        let logits = g.leaf(Matrix::from_rows(&[vec![2.0, 0.0, -1.0]]));
        let targets = Matrix::from_rows(&[vec![1.0, 0.0, 0.0]]);
        let loss = g.cross_entropy(logits, &targets, &[1.0]);
        let row = [2.0f32, 0.0, -1.0];
        let z: f32 = row.iter().map(|x| x.exp()).sum();
        let expected = -(2.0 - z.ln());
        assert!((g.value(loss).scalar_value() - expected).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_zero_weight_rows_are_skipped() {
        let mut g = Graph::new();
        let logits = g.leaf(Matrix::from_rows(&[vec![5.0, 0.0], vec![0.0, 5.0]]));
        let targets = Matrix::from_rows(&[vec![1.0, 0.0], vec![1.0, 0.0]]);
        // Second row is badly wrong but weighted 0: loss should be small.
        let loss = g.cross_entropy(logits, &targets, &[1.0, 0.0]);
        assert!(g.value(loss).scalar_value() < 0.1);
        g.backward(loss);
        let dl = g.grad(logits).unwrap();
        assert_eq!(dl.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn bce_with_logits_matches_manual() {
        let mut g = Graph::new();
        let logits = g.leaf(Matrix::from_rows(&[vec![0.5, -0.5]]));
        let targets = Matrix::from_rows(&[vec![1.0, 0.0]]);
        let mask = Matrix::ones(1, 2);
        let loss = g.bce_with_logits(logits, &targets, &mask);
        let manual = |x: f32, t: f32| x.max(0.0) - x * t + (1.0 + (-x.abs()).exp()).ln();
        let expected = (manual(0.5, 1.0) + manual(-0.5, 0.0)) / 2.0;
        assert!((g.value(loss).scalar_value() - expected).abs() < 1e-5);
    }

    #[test]
    fn select_rows_scatter_adds() {
        let mut g = Graph::new();
        let table = g.leaf(Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![2.0, 2.0]]));
        // Row 1 used twice: its gradient must double.
        let picked = g.select_rows(table, &[1, 1, 0]);
        let loss = g.sum_all(picked);
        g.backward(loss);
        let grad = g.grad(table).unwrap();
        assert_eq!(grad.row(0), &[1.0, 1.0]);
        assert_eq!(grad.row(1), &[2.0, 2.0]);
        assert_eq!(grad.row(2), &[0.0, 0.0]);
    }

    #[test]
    fn concat_and_slice_roundtrip_grads() {
        let mut g = Graph::new();
        let a = g.leaf(Matrix::from_rows(&[vec![1.0, 2.0]]));
        let b = g.leaf(Matrix::from_rows(&[vec![3.0, 4.0]]));
        let cat = g.concat_cols(&[a, b]);
        let right = g.slice_cols(cat, 2, 4);
        let loss = g.sum_all(right);
        g.backward(loss);
        assert_eq!(g.grad(a).unwrap().as_slice(), &[0.0, 0.0]);
        assert_eq!(g.grad(b).unwrap().as_slice(), &[1.0, 1.0]);
    }

    #[test]
    fn im2row_center_window() {
        let mut g = Graph::new();
        let a = g.leaf(Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]));
        let w = g.im2row(a, 3, 1);
        assert_eq!(g.value(w).row(0), &[0.0, 1.0, 2.0]);
        assert_eq!(g.value(w).row(1), &[1.0, 2.0, 3.0]);
        assert_eq!(g.value(w).row(2), &[2.0, 3.0, 0.0]);
        let loss = g.sum_all(w);
        g.backward(loss);
        // Interior rows participate in 3 windows, edges in 2.
        assert_eq!(g.grad(a).unwrap().as_slice(), &[2.0, 3.0, 2.0]);
    }

    #[test]
    fn reverse_rows_backward_reverses() {
        let mut g = Graph::new();
        let a = g.leaf(Matrix::from_rows(&[vec![1.0], vec![2.0]]));
        let r = g.reverse_rows(a);
        let picked = g.select_rows(r, &[0]);
        let loss = g.sum_all(picked);
        g.backward(loss);
        assert_eq!(g.grad(a).unwrap().as_slice(), &[0.0, 1.0]);
    }

    #[test]
    fn max_rows_routes_gradient_to_winner() {
        let mut g = Graph::new();
        let a = g.leaf(Matrix::from_rows(&[vec![1.0, 5.0], vec![3.0, 2.0]]));
        let m = g.max_rows(a);
        assert_eq!(g.value(m).as_slice(), &[3.0, 5.0]);
        let loss = g.sum_all(m);
        g.backward(loss);
        assert_eq!(g.grad(a).unwrap().as_slice(), &[0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn layer_norm_output_is_normalized() {
        let mut g = Graph::new();
        let x = g.leaf(Matrix::from_rows(&[vec![1.0, 2.0, 3.0, 4.0]]));
        let gain = g.constant(Matrix::ones(1, 4));
        let bias = g.constant(Matrix::zeros(1, 4));
        let y = g.layer_norm(x, gain, bias, 1e-5);
        let row = g.value(y).row(0);
        let mean: f32 = row.iter().sum::<f32>() / 4.0;
        let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn stable_sigmoid_extremes() {
        assert!(stable_sigmoid(100.0) > 0.999);
        assert!(stable_sigmoid(-100.0) < 1e-3);
        assert!((stable_sigmoid(0.0) - 0.5).abs() < 1e-7);
    }
}
