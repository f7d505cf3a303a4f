#![allow(clippy::needless_range_loop)] // index loops over multiple parallel arrays read clearer in numeric kernels
#![forbid(unsafe_code)]

//! Minimal neural-network library with manual backpropagation.
//!
//! This crate is the learning substrate of the reproduction. It powers
//!
//! * the **actor** (policy) and **critic** (value) networks of the DDPG
//!   agent in `eadrl-rl` — plain MLPs, as in the paper's setup, and
//! * the neural base forecasters of `eadrl-models` (MLP, LSTM, Bi-LSTM,
//!   CNN-LSTM, Conv-LSTM).
//!
//! Scope is deliberately small: forward/backward passes over `f64` slices,
//! explicit gradient buffers per layer, and optimizers that walk a
//! network's parameters via the [`Network`] visitor. Every layer trains on
//! one batched, workspace-backed path (minibatch-as-matrix GEMMs for
//! [`Dense`]/[`Mlp`], stacked-gate recurrent kernels for [`Lstm`]/
//! [`BiLstm`]/[`Conv1d`]); a single sample is the batch of one, and each
//! layer adds an alloc-free single-window inference call for serving. The
//! original per-sample loops survive only as `#[cfg(test)]` references
//! that the batched paths are proven bitwise-identical to.
//!
//! Layers cache their forward activations, so the usage pattern is strictly
//! `forward` → `backward` → optimizer `step` → `zero_grad`.

pub mod activation;
pub mod conv;
pub mod dense;
pub mod gradcheck;
pub mod init;
pub mod loss;
pub mod lstm;
pub mod mlp;
pub mod network;
pub mod optimizer;
#[cfg(test)]
mod recurrent_equivalence;

pub use activation::Activation;
pub use conv::{Conv1d, ConvInferenceCache, ConvWorkspace};
pub use dense::Dense;
pub use gradcheck::{check_gradients, GradCheckReport};
pub use loss::{mse_loss, mse_loss_grad};
pub use lstm::{
    BiLstm, BiLstmInferenceCache, BiRecurrentWorkspace, Lstm, LstmInferenceCache,
    RecurrentWorkspace,
};
pub use mlp::Mlp;
pub use network::{BatchNetwork, Network};
pub use optimizer::Adam;
