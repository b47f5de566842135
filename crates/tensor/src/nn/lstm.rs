//! LSTM sequence encoders (unidirectional and bidirectional).

use crate::graph::{Graph, NodeId};
use crate::init;
use crate::matrix::Matrix;
use crate::params::{ParamId, ParamStore};
use rand::Rng;

/// A single-layer LSTM over a `T x in_dim` sequence, producing `T x hidden`.
///
/// Gate weights are fused into one `in_dim x 4h` input matrix and one
/// `h x 4h` recurrent matrix, column order `[input, forget, cell, output]`.
/// The forget-gate bias is initialized to 1.0 (standard trick for gradient
/// flow over long sequences).
#[derive(Debug, Clone)]
pub struct Lstm {
    wx: ParamId,
    wh: ParamId,
    bias: ParamId,
    in_dim: usize,
    hidden: usize,
}

impl Lstm {
    /// Registers parameters under `name`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        hidden: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let wx = store.add(format!("{name}.wx"), init::xavier_uniform(in_dim, 4 * hidden, rng));
        let wh = store.add(format!("{name}.wh"), init::xavier_uniform(hidden, 4 * hidden, rng));
        let mut b = Matrix::zeros(1, 4 * hidden);
        for j in hidden..2 * hidden {
            b[(0, j)] = 1.0; // forget gate bias
        }
        let bias = store.add(format!("{name}.bias"), b);
        Self { wx, wh, bias, in_dim, hidden }
    }

    /// Hidden state size.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Input feature size.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Handle to the `in_dim x 4*hidden` input weight matrix.
    pub fn wx_id(&self) -> ParamId {
        self.wx
    }

    /// Handle to the `hidden x 4*hidden` recurrent weight matrix.
    pub fn wh_id(&self) -> ParamId {
        self.wh
    }

    /// Handle to the `1 x 4*hidden` gate bias row.
    pub fn bias_id(&self) -> ParamId {
        self.bias
    }

    /// Runs the recurrence over a `T x in_dim` node, returning `T x hidden`
    /// (the hidden state at every step).
    pub fn forward<'p>(&self, g: &mut Graph<'p>, store: &'p ParamStore, xs: NodeId) -> NodeId {
        let t_len = g.value(xs).rows();
        debug_assert_eq!(g.value(xs).cols(), self.in_dim, "LSTM input width mismatch");
        let wx = g.param(store, self.wx);
        let wh = g.param(store, self.wh);
        let bias = g.param(store, self.bias);

        // Pre-compute x_t W_x for the whole sequence in one matmul.
        let xw_all = g.matmul(xs, wx);
        let h = self.hidden;
        let mut h_prev = g.constant(Matrix::zeros(1, h));
        let mut c_prev = g.constant(Matrix::zeros(1, h));
        let mut outputs = Vec::with_capacity(t_len);
        for t in 0..t_len {
            let xw = g.slice_rows(xw_all, t, t + 1);
            let hw = g.matmul(h_prev, wh);
            let pre0 = g.add(xw, hw);
            let pre = g.add_row_broadcast(pre0, bias);
            let i_gate = {
                let s = g.slice_cols(pre, 0, h);
                g.sigmoid(s)
            };
            let f_gate = {
                let s = g.slice_cols(pre, h, 2 * h);
                g.sigmoid(s)
            };
            let c_cand = {
                let s = g.slice_cols(pre, 2 * h, 3 * h);
                g.tanh(s)
            };
            let o_gate = {
                let s = g.slice_cols(pre, 3 * h, 4 * h);
                g.sigmoid(s)
            };
            let keep = g.mul(f_gate, c_prev);
            let write = g.mul(i_gate, c_cand);
            let c = g.add(keep, write);
            let c_tanh = g.tanh(c);
            let h_t = g.mul(o_gate, c_tanh);
            outputs.push(h_t);
            h_prev = h_t;
            c_prev = c;
        }
        g.concat_rows(&outputs)
    }
}

/// A bidirectional LSTM: forward and backward passes concatenated, producing
/// `T x 2*hidden`.
#[derive(Debug, Clone)]
pub struct BiLstm {
    fwd: Lstm,
    bwd: Lstm,
}

impl BiLstm {
    /// Registers both directions under `name`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        hidden: usize,
        rng: &mut impl Rng,
    ) -> Self {
        Self {
            fwd: Lstm::new(store, &format!("{name}.fwd"), in_dim, hidden, rng),
            bwd: Lstm::new(store, &format!("{name}.bwd"), in_dim, hidden, rng),
        }
    }

    /// Output width (`2 * hidden`).
    pub fn out_dim(&self) -> usize {
        2 * self.fwd.hidden()
    }

    /// The forward-direction LSTM.
    pub fn fwd(&self) -> &Lstm {
        &self.fwd
    }

    /// The backward-direction LSTM.
    pub fn bwd(&self) -> &Lstm {
        &self.bwd
    }

    /// Encodes a `T x in_dim` node into `T x 2*hidden`.
    pub fn forward<'p>(&self, g: &mut Graph<'p>, store: &'p ParamStore, xs: NodeId) -> NodeId {
        let f = self.fwd.forward(g, store, xs);
        let rev_in = g.reverse_rows(xs);
        let b_rev = self.bwd.forward(g, store, rev_in);
        let b = g.reverse_rows(b_rev);
        g.concat_cols(&[f, b])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::{Adam, Optimizer};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn lstm_output_shape() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut ps = ParamStore::new();
        let lstm = Lstm::new(&mut ps, "l", 3, 5, &mut rng);
        let mut g = Graph::new();
        let x = g.constant(Matrix::ones(7, 3));
        let y = lstm.forward(&mut g, &ps, x);
        assert_eq!(g.value(y).shape(), (7, 5));
        assert!(g.value(y).all_finite());
    }

    #[test]
    fn bilstm_output_shape() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut ps = ParamStore::new();
        let lstm = BiLstm::new(&mut ps, "b", 3, 4, &mut rng);
        let mut g = Graph::new();
        let x = g.constant(Matrix::ones(6, 3));
        let y = lstm.forward(&mut g, &ps, x);
        assert_eq!(g.value(y).shape(), (6, 8));
    }

    #[test]
    fn hidden_states_are_bounded() {
        // h = o * tanh(c) with o in (0,1): |h| < 1 in exact arithmetic, but
        // f32 saturation (sigmoid/tanh rounding to exactly 1.0 on huge
        // inputs) makes equality attainable.
        let mut rng = SmallRng::seed_from_u64(2);
        let mut ps = ParamStore::new();
        let lstm = Lstm::new(&mut ps, "l", 2, 3, &mut rng);
        let mut g = Graph::new();
        let x = g.constant(Matrix::full(10, 2, 100.0));
        let y = lstm.forward(&mut g, &ps, x);
        assert!(g.value(y).as_slice().iter().all(|&v| v.abs() <= 1.0));
    }

    #[test]
    fn lstm_learns_last_token_detection() {
        // Task: predict whether the LAST element of the sequence is positive.
        // A mean-pooling model cannot do this reliably; an LSTM can.
        let mut rng = SmallRng::seed_from_u64(3);
        let mut ps = ParamStore::new();
        let lstm = Lstm::new(&mut ps, "l", 1, 8, &mut rng);
        let head = crate::nn::Linear::new(&mut ps, "head", 8, 2, &mut rng);
        let mut opt = Adam::new(0.02);

        let make_seq = |rng: &mut SmallRng| -> (Matrix, usize) {
            let vals: Vec<f32> =
                (0..5).map(|_| if rng.gen_bool(0.5) { 1.0 } else { -1.0 }).collect();
            let label = usize::from(vals[4] > 0.0);
            (Matrix::from_rows(&vals.iter().map(|&v| vec![v]).collect::<Vec<_>>()), label)
        };

        for _ in 0..200 {
            let (seq, label) = make_seq(&mut rng);
            let mut g = Graph::new();
            let x = g.constant(seq);
            let hs = lstm.forward(&mut g, &ps, x);
            let last = g.select_rows(hs, &[4]);
            let logits = head.forward(&mut g, &ps, last);
            let mut target = Matrix::zeros(1, 2);
            target[(0, label)] = 1.0;
            let loss = g.cross_entropy(logits, &target, &[1.0]);
            g.backward(loss);
            for (pid, grad) in g.take_param_grads() {
                ps.grad_mut(pid).add_assign(&grad);
            }
            ps.clip_grad_norm(5.0);
            opt.step(&mut ps);
            ps.zero_grads();
        }
        // Evaluate.
        let mut correct = 0;
        for _ in 0..50 {
            let (seq, label) = make_seq(&mut rng);
            let mut g = Graph::new();
            let x = g.constant(seq);
            let hs = lstm.forward(&mut g, &ps, x);
            let last = g.select_rows(hs, &[4]);
            let logits = head.forward(&mut g, &ps, last);
            if g.value(logits).row_argmax(0) == label {
                correct += 1;
            }
        }
        assert!(correct >= 45, "accuracy {correct}/50");
    }
}
