//! 1-D convolution over sequences (same-length padding).

use crate::graph::{Graph, NodeId};
use crate::init;
use crate::matrix::Matrix;
use crate::params::{ParamId, ParamStore};
use rand::Rng;

/// A same-length 1-D convolution: `T x in_dim -> T x out_dim` with an odd
/// kernel width. Implemented as `im2row(x) * W + b` so the backward pass
/// reuses the matmul and unfold rules.
#[derive(Debug, Clone)]
pub struct Conv1d {
    weight: ParamId,
    bias: ParamId,
    in_dim: usize,
    out_dim: usize,
    kernel: usize,
}

impl Conv1d {
    /// Registers a `kernel * in_dim x out_dim` weight under `name`.
    ///
    /// # Panics
    /// Panics if `kernel` is even (same-length padding needs an odd width).
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        kernel: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(kernel % 2 == 1, "Conv1d kernel must be odd, got {kernel}");
        let weight =
            store.add(format!("{name}.weight"), init::he_normal(kernel * in_dim, out_dim, rng));
        let bias = store.add(format!("{name}.bias"), Matrix::zeros(1, out_dim));
        Self { weight, bias, in_dim, out_dim, kernel }
    }

    /// Output feature size.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Input feature size.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Kernel width (odd).
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Handle to the `kernel * in_dim x out_dim` weight matrix.
    pub fn weight_id(&self) -> ParamId {
        self.weight
    }

    /// Handle to the `1 x out_dim` bias row.
    pub fn bias_id(&self) -> ParamId {
        self.bias
    }

    /// Applies the convolution to a `T x in_dim` node.
    pub fn forward<'p>(&self, g: &mut Graph<'p>, store: &'p ParamStore, xs: NodeId) -> NodeId {
        debug_assert_eq!(g.value(xs).cols(), self.in_dim, "Conv1d input width mismatch");
        let unfolded = g.im2row(xs, self.kernel, self.kernel / 2);
        let w = g.param(store, self.weight);
        let b = g.param(store, self.bias);
        let conv = g.matmul(unfolded, w);
        g.add_row_broadcast(conv, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::{Adam, Optimizer};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn preserves_sequence_length() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut ps = ParamStore::new();
        let conv = Conv1d::new(&mut ps, "c", 4, 6, 3, &mut rng);
        let mut g = Graph::new();
        let x = g.constant(Matrix::ones(9, 4));
        let y = conv.forward(&mut g, &ps, x);
        assert_eq!(g.value(y).shape(), (9, 6));
    }

    #[test]
    #[should_panic(expected = "kernel must be odd")]
    fn even_kernel_rejected() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut ps = ParamStore::new();
        let _ = Conv1d::new(&mut ps, "c", 4, 6, 2, &mut rng);
    }

    #[test]
    fn learns_local_pattern_detection() {
        // Task: a token is positive iff its left neighbour equals 1.
        // Requires the kernel window — a pointwise model cannot solve it.
        let mut rng = SmallRng::seed_from_u64(1);
        let mut ps = ParamStore::new();
        let conv = Conv1d::new(&mut ps, "c", 1, 8, 3, &mut rng);
        let head = crate::nn::Linear::new(&mut ps, "h", 8, 2, &mut rng);
        let mut opt = Adam::new(0.05);
        let gen = |rng: &mut SmallRng| -> (Matrix, Vec<usize>) {
            let vals: Vec<f32> = (0..6).map(|_| f32::from(rng.gen_bool(0.5))).collect();
            let labels: Vec<usize> =
                (0..6).map(|t| usize::from(t > 0 && vals[t - 1] == 1.0)).collect();
            (Matrix::from_rows(&vals.iter().map(|&v| vec![v]).collect::<Vec<_>>()), labels)
        };
        for _ in 0..300 {
            let (x, labels) = gen(&mut rng);
            let mut g = Graph::new();
            let xn = g.constant(x);
            let enc = conv.forward(&mut g, &ps, xn);
            let act = g.relu(enc);
            let logits = head.forward(&mut g, &ps, act);
            let mut targets = Matrix::zeros(6, 2);
            for (t, &l) in labels.iter().enumerate() {
                targets[(t, l)] = 1.0;
            }
            let loss = g.cross_entropy(logits, &targets, &[1.0; 6]);
            g.backward(loss);
            for (pid, grad) in g.take_param_grads() {
                ps.grad_mut(pid).add_assign(&grad);
            }
            opt.step(&mut ps);
            ps.zero_grads();
        }
        let mut correct = 0;
        let mut total = 0;
        for _ in 0..20 {
            let (x, labels) = gen(&mut rng);
            let mut g = Graph::new();
            let xn = g.constant(x);
            let enc = conv.forward(&mut g, &ps, xn);
            let act = g.relu(enc);
            let logits = head.forward(&mut g, &ps, act);
            for (t, &l) in labels.iter().enumerate() {
                total += 1;
                if g.value(logits).row_argmax(t) == l {
                    correct += 1;
                }
            }
        }
        assert!(correct as f32 / total as f32 > 0.9, "accuracy {correct}/{total}");
    }
}
