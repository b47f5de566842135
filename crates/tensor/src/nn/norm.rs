//! Layer normalization with learnable gain and bias.

use crate::graph::{Graph, NodeId};
use crate::matrix::Matrix;
use crate::params::{ParamId, ParamStore};

/// Per-row layer normalization over a `m x dim` node.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    gain: ParamId,
    bias: ParamId,
    dim: usize,
    eps: f32,
}

impl LayerNorm {
    /// Registers gain (ones) and bias (zeros) under `name`.
    pub fn new(store: &mut ParamStore, name: &str, dim: usize) -> Self {
        let gain = store.add(format!("{name}.gain"), Matrix::ones(1, dim));
        let bias = store.add(format!("{name}.bias"), Matrix::zeros(1, dim));
        Self { gain, bias, dim, eps: 1e-5 }
    }

    /// Normalized feature dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Applies normalization to an `m x dim` node.
    pub fn forward<'p>(&self, g: &mut Graph<'p>, store: &'p ParamStore, x: NodeId) -> NodeId {
        debug_assert_eq!(g.value(x).cols(), self.dim, "LayerNorm width mismatch");
        let gain = g.param(store, self.gain);
        let bias = g.param(store, self.bias);
        g.layer_norm(x, gain, bias, self.eps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_layer_standardizes_rows() {
        let mut ps = ParamStore::new();
        let ln = LayerNorm::new(&mut ps, "ln", 4);
        let mut g = Graph::new();
        let x = g.constant(Matrix::from_rows(&[vec![10.0, 20.0, 30.0, 40.0]]));
        let y = ln.forward(&mut g, &ps, x);
        let row = g.value(y).row(0);
        let mean: f32 = row.iter().sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
    }

    #[test]
    fn gain_and_bias_are_learnable_params() {
        let mut ps = ParamStore::new();
        let _ = LayerNorm::new(&mut ps, "ln", 3);
        assert_eq!(ps.len(), 2);
        assert_eq!(ps.num_weights(), 6);
    }
}
