//! Multi-head scaled dot-product self-attention.

use crate::graph::{Graph, NodeId};
use crate::nn::Linear;
use crate::params::ParamStore;
use rand::Rng;

/// Multi-head self-attention over a `T x dim` sequence, producing `T x dim`.
///
/// This is the Transformer building block Overton's schema may select as a
/// sequence encoder, and the default mechanism for combining payload
/// references ("by default, combination is done with multi-headed
/// attention", paper §2.1).
#[derive(Debug, Clone)]
pub struct MultiHeadSelfAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    heads: usize,
    dim: usize,
}

impl MultiHeadSelfAttention {
    /// Registers projections under `name`.
    ///
    /// # Panics
    /// Panics unless `heads` divides `dim`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        dim: usize,
        heads: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(heads > 0 && dim.is_multiple_of(heads), "heads ({heads}) must divide dim ({dim})");
        Self {
            wq: Linear::new_no_bias(store, &format!("{name}.wq"), dim, dim, rng),
            wk: Linear::new_no_bias(store, &format!("{name}.wk"), dim, dim, rng),
            wv: Linear::new_no_bias(store, &format!("{name}.wv"), dim, dim, rng),
            wo: Linear::new_no_bias(store, &format!("{name}.wo"), dim, dim, rng),
            heads,
            dim,
        }
    }

    /// Model dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of heads.
    pub fn heads(&self) -> usize {
        self.heads
    }

    /// The query projection.
    pub fn wq(&self) -> &Linear {
        &self.wq
    }

    /// The key projection.
    pub fn wk(&self) -> &Linear {
        &self.wk
    }

    /// The value projection.
    pub fn wv(&self) -> &Linear {
        &self.wv
    }

    /// The output projection.
    pub fn wo(&self) -> &Linear {
        &self.wo
    }

    /// Self-attention: queries, keys and values all come from `xs`.
    pub fn forward<'p>(&self, g: &mut Graph<'p>, store: &'p ParamStore, xs: NodeId) -> NodeId {
        self.forward_cross(g, store, xs, xs)
    }

    /// Cross-attention: `queries_from` attends over `context` (used for
    /// payload references, e.g. an entity set attending over query tokens).
    pub fn forward_cross<'p>(
        &self,
        g: &mut Graph<'p>,
        store: &'p ParamStore,
        queries_from: NodeId,
        context: NodeId,
    ) -> NodeId {
        debug_assert_eq!(g.value(queries_from).cols(), self.dim);
        debug_assert_eq!(g.value(context).cols(), self.dim);
        let q = self.wq.forward(g, store, queries_from);
        let k = self.wk.forward(g, store, context);
        let v = self.wv.forward(g, store, context);
        let head_dim = self.dim / self.heads;
        let scale = 1.0 / (head_dim as f32).sqrt();
        let mut head_outputs = Vec::with_capacity(self.heads);
        for h in 0..self.heads {
            let (lo, hi) = (h * head_dim, (h + 1) * head_dim);
            let qh = g.slice_cols(q, lo, hi);
            let kh = g.slice_cols(k, lo, hi);
            let vh = g.slice_cols(v, lo, hi);
            let kht = g.transpose(kh);
            let scores_raw = g.matmul(qh, kht);
            let scores_scaled = g.scale(scores_raw, scale);
            let attn = g.softmax_rows(scores_scaled);
            let out = g.matmul(attn, vh);
            head_outputs.push(out);
        }
        let concat = g.concat_cols(&head_outputs);
        self.wo.forward(g, store, concat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::optim::{Adam, Optimizer};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn output_shape_matches_input() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut ps = ParamStore::new();
        let attn = MultiHeadSelfAttention::new(&mut ps, "a", 8, 2, &mut rng);
        let mut g = Graph::new();
        let x = g.constant(Matrix::ones(5, 8));
        let y = attn.forward(&mut g, &ps, x);
        assert_eq!(g.value(y).shape(), (5, 8));
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn rejects_indivisible_heads() {
        let mut rng = SmallRng::seed_from_u64(0);
        let mut ps = ParamStore::new();
        let _ = MultiHeadSelfAttention::new(&mut ps, "a", 8, 3, &mut rng);
    }

    #[test]
    fn cross_attention_shapes() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut ps = ParamStore::new();
        let attn = MultiHeadSelfAttention::new(&mut ps, "a", 4, 2, &mut rng);
        let mut g = Graph::new();
        let queries = g.constant(Matrix::ones(3, 4));
        let context = g.constant(Matrix::ones(7, 4));
        let y = attn.forward_cross(&mut g, &ps, queries, context);
        assert_eq!(g.value(y).shape(), (3, 4));
    }

    #[test]
    fn attention_learns_to_copy_marked_token() {
        // Each sequence has exactly one row with feature[0] = 1 (the marker);
        // the task (same label at every position) is the class encoded in
        // features 1..3 of the MARKED row. Pointwise/pooling-free models at
        // other positions must attend to the marker row to solve this.
        let mut rng = SmallRng::seed_from_u64(2);
        let mut ps = ParamStore::new();
        let attn = MultiHeadSelfAttention::new(&mut ps, "a", 4, 1, &mut rng);
        let head = crate::nn::Linear::new(&mut ps, "h", 4, 3, &mut rng);
        let mut opt = Adam::new(0.02);
        let gen = |rng: &mut SmallRng| -> (Matrix, usize) {
            let t_len = 5;
            let marked = rng.gen_range(0..t_len);
            let class = rng.gen_range(0..3usize);
            let mut x = Matrix::zeros(t_len, 4);
            for t in 0..t_len {
                x[(t, 3)] = 1.0; // constant feature
            }
            x[(marked, 0)] = 1.0;
            x[(marked, 1 + class.min(1))] = if class == 0 { 0.0 } else { 1.0 };
            x[(marked, 1)] = f32::from(class == 1);
            x[(marked, 2)] = f32::from(class == 2);
            (x, class)
        };
        for _ in 0..400 {
            let (x, class) = gen(&mut rng);
            let mut g = Graph::new();
            let xn = g.constant(x);
            let enc = attn.forward(&mut g, &ps, xn);
            let pooled = g.mean_rows(enc);
            let logits = head.forward(&mut g, &ps, pooled);
            let mut target = Matrix::zeros(1, 3);
            target[(0, class)] = 1.0;
            let loss = g.cross_entropy(logits, &target, &[1.0]);
            g.backward(loss);
            for (pid, grad) in g.take_param_grads() {
                ps.grad_mut(pid).add_assign(&grad);
            }
            opt.step(&mut ps);
            ps.zero_grads();
        }
        let mut correct = 0;
        for _ in 0..50 {
            let (x, class) = gen(&mut rng);
            let mut g = Graph::new();
            let xn = g.constant(x);
            let enc = attn.forward(&mut g, &ps, xn);
            let pooled = g.mean_rows(enc);
            let logits = head.forward(&mut g, &ps, pooled);
            if g.value(logits).row_argmax(0) == class {
                correct += 1;
            }
        }
        assert!(correct >= 40, "accuracy {correct}/50");
    }
}
