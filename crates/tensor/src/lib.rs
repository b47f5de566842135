//! # overton-tensor
//!
//! The dense-matrix substrate under Overton's compiled models — the role
//! TensorFlow/PyTorch play in the paper — cut to what the model plan's
//! executors in `overton-model` call.
//!
//! All values are dense 2-D [`Matrix`] objects, read and written by the
//! executors as row-major slices: [`matmul_into`] and [`matmul_at_into`]
//! run the bit-deterministic GEMM kernels into a caller's buffer, beside
//! the row-wise [`stable_sigmoid`] and [`softmax_in_place`]. Learnable
//! weights live in a [`ParamStore`] with the gradients a backward pass adds
//! into it, drawn by the schemes in [`init`]; [`optim::Adam`] updates the
//! store. The model compiler in `overton-model` registers every parameter
//! as it emits the plan step that reads it, and the gradients come from
//! that plan's hand-written vector-Jacobian products.
//!
//! ```
//! use overton_tensor::optim::Adam;
//! use overton_tensor::{Matrix, ParamStore};
//!
//! // Fit w to minimize (3w - 6)^2, whose gradient is 6(3w - 6).
//! let mut ps = ParamStore::new();
//! let w = ps.add("w", Matrix::scalar(0.0));
//! let mut opt = Adam::new(0.1);
//! for _ in 0..300 {
//!     let x = ps.value(w).scalar_value();
//!     ps.grad_mut(w).as_mut_slice()[0] = 6.0 * (3.0 * x - 6.0);
//!     opt.step(&mut ps);
//!     ps.zero_grads();
//! }
//! assert!((ps.value(w).scalar_value() - 2.0).abs() < 1e-2);
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod kernels;
mod matrix;
mod params;

pub mod init;
pub mod optim;

pub use matrix::{dot, matmul_at_into, matmul_into, softmax_in_place, stable_sigmoid, Matrix};
pub use params::{ParamId, ParamStore};
