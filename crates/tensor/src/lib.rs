//! # overton-tensor
//!
//! A minimal, dependency-light CPU tensor engine with reverse-mode autograd —
//! the deep-learning substrate for the Overton reproduction (the role
//! TensorFlow/PyTorch play in the paper).
//!
//! Design in one paragraph: all values are dense 2-D [`Matrix`] objects; a
//! [`Graph`] is a define-by-run tape rebuilt every step; learnable weights
//! live in a [`ParamStore`] shared across graphs; [`nn`] provides layers
//! (linear, embedding, LSTM/BiLSTM, 1-D conv, multi-head attention,
//! layer-norm, dropout); [`optim`] provides SGD/momentum and Adam/AdamW;
//! every backward rule is validated against finite differences in
//! [`gradcheck`].
//!
//! ```
//! use overton_tensor::{Graph, Matrix, ParamStore};
//! use overton_tensor::optim::{Optimizer, Sgd};
//!
//! // Fit w to minimize (3w - 6)^2.
//! let mut ps = ParamStore::new();
//! let w = ps.add("w", Matrix::scalar(0.0));
//! let mut opt = Sgd::new(0.05);
//! for _ in 0..100 {
//!     let mut g = Graph::new();
//!     let wn = g.param(&ps, w);
//!     let three = g.constant(Matrix::scalar(3.0));
//!     let six = g.constant(Matrix::scalar(6.0));
//!     let pred = g.mul(three, wn);
//!     let err = g.sub(pred, six);
//!     let loss = g.mul(err, err);
//!     g.backward(loss);
//!     for (pid, grad) in g.take_param_grads() {
//!         ps.grad_mut(pid).add_assign(&grad);
//!     }
//!     opt.step(&mut ps);
//!     ps.zero_grads();
//! }
//! assert!((ps.value(w).scalar_value() - 2.0).abs() < 1e-3);
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod graph;
mod kernels;
mod matrix;
mod params;

pub mod gradcheck;
pub mod init;
pub mod nn;
pub mod optim;
pub mod schedule;

pub use graph::{softmax_in_place, stable_sigmoid, Graph, NodeId, LN_CLAMP};
pub use matrix::{dot, matmul_at_into, matmul_into, Matrix};
pub use params::{ParamId, ParamStore};
