//! LSTM sequence encoders (unidirectional and bidirectional).

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
        Self { wx, wh, bias, hidden }
    }

    /// Hidden state size.
    pub fn hidden(&self) -> usize {
        self.hidden
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
}
