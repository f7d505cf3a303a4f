//! Neural base forecasters: MLP, LSTM, Bi-LSTM, CNN-LSTM and Conv-LSTM.
//!
//! All five families from the paper's pool are trained the same way: Adam
//! on mini-batches of embedded windows, a fixed epoch budget, seeded
//! initialization. Windows arrive already z-scored via
//! [`crate::tabular::Windowed`], so no internal scaling is needed.
//!
//! Every family trains through a batched GEMM path. The MLP assembles
//! each shuffled chunk into a row matrix and runs one
//! [`Mlp::forward_batch`]/[`Mlp::backward_batch`] per network instead of
//! one pass per sample. The recurrent families (LSTM, Bi-LSTM, CNN-LSTM,
//! Conv-LSTM, stacked LSTM) stage the chunk's windows as one
//! `B x in_dim` matrix *per timestep* and run the stacked-gate kernels
//! over persistent workspaces ([`eadrl_nn::RecurrentWorkspace`] and
//! friends): the sequential recurrence still walks timesteps one at a
//! time, but each step is a batch-wide GEMM rather than B matvec loops.
//! The stacked LSTM chains two workspaces: layer 2 is staged from layer
//! 1's per-step hidden blocks, and layer 2's input gradients flow back as
//! layer 1's per-step hidden gradients. Every path is bitwise identical
//! to the per-sample loops it replaced (the kernels preserve per-element
//! accumulation order; `eadrl-nn` keeps those loops as test references).
//!
//! `predict_next` is alloc-free in steady state for all recurrent
//! families: each regressor carries a `Scratch`-wrapped inference cache
//! (interior mutability behind a `Mutex`, keeping the model `Send + Sync`)
//! and windows are consumed as strided slices instead of `Vec<Vec<f64>>`
//! sequences.
//!
//! Faithfulness note (documented in `DESIGN.md`): Conv-LSTM is implemented
//! as an LSTM over overlapping *patches* of the window — the input-to-state
//! transition sees a local receptive field per step, which is the
//! convolutional-locality property that distinguishes Conv-LSTM from plain
//! LSTM on univariate windows. CNN-LSTM is the literal composition
//! Conv1d → LSTM → linear head with end-to-end backprop.

use crate::forecaster::ModelError;
use crate::tabular::{TabularModel, Windowed};
use eadrl_linalg::Matrix;
use eadrl_nn::{
    mse_loss_grad, Activation, Adam, BiLstm, BiLstmInferenceCache, BiRecurrentWorkspace, Conv1d,
    ConvInferenceCache, ConvWorkspace, Dense, Lstm, LstmInferenceCache, Mlp, Network, Optimizer,
    RecurrentWorkspace,
};
use eadrl_rng::DetRng;
use std::sync::{Mutex, MutexGuard, PoisonError};

const BATCH: usize = 16;

/// Per-model inference scratch behind a `Mutex`: `predict` takes `&self`
/// (the `TabularModel` contract also demands `Send + Sync`), so reusable
/// buffers need interior mutability. Predictions are sequential per model
/// in practice, so the lock is uncontended. `Clone` hands out a *fresh*
/// scratch — the caches hold no model state, only reusable buffers.
#[derive(Debug, Default)]
struct Scratch<T>(Mutex<T>);

impl<T: Default> Clone for Scratch<T> {
    fn clone(&self) -> Self {
        Scratch::default()
    }
}

impl<T> Scratch<T> {
    fn lock(&self) -> MutexGuard<'_, T> {
        // A poisoned lock only means a previous predict panicked mid-call;
        // the buffers are still structurally valid scratch space.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

fn shuffled_indices(n: usize, rng: &mut DetRng) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        idx.swap(i, j);
    }
    idx
}

/// Two freshly built layers trained as one parameter group, so Adam's
/// positional moment buffers line up across batches. Training on locals
/// (and storing them only after the loop) keeps the `Option` fields out
/// of the hot path entirely — no `.expect("initialized")` needed.
struct ParamGroup2<'a, A: Network, B: Network>(&'a mut A, &'a mut B);

impl<A: Network, B: Network> Network for ParamGroup2<'_, A, B> {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        self.0.visit_params(f);
        self.1.visit_params(f);
    }
}

/// Three-layer variant of [`ParamGroup2`] (conv/LSTM/head stacks).
struct ParamGroup3<'a, A: Network, B: Network, C: Network>(&'a mut A, &'a mut B, &'a mut C);

impl<A: Network, B: Network, C: Network> Network for ParamGroup3<'_, A, B, C> {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        self.0.visit_params(f);
        self.1.visit_params(f);
        self.2.visit_params(f);
    }
}

/// MLP regressor over windows (paper family **MLP**).
#[derive(Debug, Clone)]
pub struct MlpRegressor {
    hidden: Vec<usize>,
    epochs: usize,
    lr: f64,
    seed: u64,
    net: Option<Mlp>,
}

impl MlpRegressor {
    /// Creates an unfitted MLP with the given hidden-layer sizes.
    pub fn new(hidden: Vec<usize>, epochs: usize, lr: f64, seed: u64) -> Self {
        MlpRegressor {
            hidden,
            epochs: epochs.max(1),
            lr,
            seed,
            net: None,
        }
    }
}

impl TabularModel for MlpRegressor {
    fn fit(&mut self, inputs: &[Vec<f64>], targets: &[f64]) -> Result<(), ModelError> {
        if inputs.is_empty() || inputs.len() != targets.len() {
            return Err(ModelError::SeriesTooShort {
                needed: 1,
                got: inputs.len(),
            });
        }
        let mut rng = DetRng::seed_from_u64(self.seed);
        let mut sizes = vec![inputs[0].len()];
        sizes.extend(&self.hidden);
        sizes.push(1);
        let mut net = Mlp::new(&mut rng, &sizes, Activation::Relu, Activation::Identity);
        let mut opt = Adam::new(self.lr);
        // Chunk staging matrices, reused across batches so the steady
        // state allocates nothing beyond `mse_loss_grad`'s tiny per-row
        // vector.
        let mut xb = Matrix::default();
        let mut gb = Matrix::default();
        for _ in 0..self.epochs {
            let order = shuffled_indices(inputs.len(), &mut rng);
            for chunk in order.chunks(BATCH) {
                net.zero_grad();
                let n = chunk.len();
                xb.resize(n, sizes[0]);
                for (r, &i) in chunk.iter().enumerate() {
                    xb.row_mut(r).copy_from_slice(&inputs[i]);
                }
                gb.resize(n, 1);
                {
                    let out = net.forward_batch(&xb);
                    for (r, &i) in chunk.iter().enumerate() {
                        let g = mse_loss_grad(out.row(r), &[targets[i]]);
                        gb.row_mut(r).copy_from_slice(&g);
                    }
                }
                net.backward_batch_weights_only(&gb);
                net.clip_grad_norm(5.0);
                opt.step(&mut net);
            }
        }
        self.net = Some(net);
        Ok(())
    }

    fn predict(&self, input: &[f64]) -> f64 {
        self.net
            .as_ref()
            .map_or(0.0, |n| n.forward_inference(input)[0])
    }
}

/// LSTM regressor (paper family **LSTM**): LSTM over the window as a
/// length-k sequence, linear head on the final hidden state.
#[derive(Debug, Clone)]
pub struct LstmRegressor {
    hidden: usize,
    epochs: usize,
    lr: f64,
    seed: u64,
    lstm: Option<Lstm>,
    head: Option<Dense>,
    scratch: Scratch<(LstmInferenceCache, [f64; 1])>,
}

impl LstmRegressor {
    /// Creates an unfitted LSTM regressor.
    pub fn new(hidden: usize, epochs: usize, lr: f64, seed: u64) -> Self {
        LstmRegressor {
            hidden: hidden.max(1),
            epochs: epochs.max(1),
            lr,
            seed,
            lstm: None,
            head: None,
            scratch: Scratch::default(),
        }
    }
}

impl TabularModel for LstmRegressor {
    fn fit(&mut self, inputs: &[Vec<f64>], targets: &[f64]) -> Result<(), ModelError> {
        if inputs.is_empty() || inputs.len() != targets.len() {
            return Err(ModelError::SeriesTooShort {
                needed: 1,
                got: inputs.len(),
            });
        }
        let steps = inputs[0].len();
        let mut rng = DetRng::seed_from_u64(self.seed);
        let mut lstm = Lstm::new(&mut rng, 1, self.hidden);
        let mut head = Dense::new(&mut rng, self.hidden, 1, Activation::Identity);
        let mut opt = Adam::new(self.lr);
        // Persistent staging: the recurrent workspace plus the head's
        // chunk matrices are reused across every batch and epoch.
        let mut ws = RecurrentWorkspace::new();
        let mut hb = Matrix::default();
        let mut gb = Matrix::default();
        for _ in 0..self.epochs {
            let order = shuffled_indices(inputs.len(), &mut rng);
            for chunk in order.chunks(BATCH) {
                let mut group = ParamGroup2(&mut lstm, &mut head);
                group.zero_grad();
                let n = chunk.len();
                ws.stage(n, steps, 1, self.hidden);
                for (s, &i) in chunk.iter().enumerate() {
                    debug_assert_eq!(inputs[i].len(), steps, "uniform window length");
                    for (t, v) in inputs[i].iter().enumerate() {
                        ws.set_input(s, t, std::slice::from_ref(v));
                    }
                }
                group.0.forward_batch(&mut ws);
                hb.resize(n, self.hidden);
                hb.data_mut().copy_from_slice(ws.h_last());
                gb.resize(n, 1);
                {
                    let out = group.1.forward_batch(&hb);
                    for (r, &i) in chunk.iter().enumerate() {
                        let g = mse_loss_grad(out.row(r), &[targets[i]]);
                        gb.row_mut(r).copy_from_slice(&g);
                    }
                }
                let gh = group.1.backward_batch(&gb);
                group.0.backward_batch_last(gh.data(), &mut ws, false);
                group.clip_grad_norm(5.0);
                opt.step(&mut group);
            }
        }
        self.lstm = Some(lstm);
        self.head = Some(head);
        Ok(())
    }

    fn predict(&self, input: &[f64]) -> f64 {
        let (Some(lstm), Some(head)) = (self.lstm.as_ref(), self.head.as_ref()) else {
            return 0.0;
        };
        let mut guard = self.scratch.lock();
        let (cache, out) = &mut *guard;
        let h = lstm.forward_inference_cached(input, 1, cache);
        head.forward_inference_into(h, out);
        out[0]
    }
}

/// Bi-LSTM regressor (paper family **Bi-LSTM**).
#[derive(Debug, Clone)]
pub struct BiLstmRegressor {
    hidden: usize,
    epochs: usize,
    lr: f64,
    seed: u64,
    bilstm: Option<BiLstm>,
    head: Option<Dense>,
    scratch: Scratch<(BiLstmInferenceCache, [f64; 1])>,
}

impl BiLstmRegressor {
    /// Creates an unfitted Bi-LSTM regressor (each direction `hidden` wide).
    pub fn new(hidden: usize, epochs: usize, lr: f64, seed: u64) -> Self {
        BiLstmRegressor {
            hidden: hidden.max(1),
            epochs: epochs.max(1),
            lr,
            seed,
            bilstm: None,
            head: None,
            scratch: Scratch::default(),
        }
    }
}

impl TabularModel for BiLstmRegressor {
    fn fit(&mut self, inputs: &[Vec<f64>], targets: &[f64]) -> Result<(), ModelError> {
        if inputs.is_empty() || inputs.len() != targets.len() {
            return Err(ModelError::SeriesTooShort {
                needed: 1,
                got: inputs.len(),
            });
        }
        let steps = inputs[0].len();
        let mut rng = DetRng::seed_from_u64(self.seed);
        let mut bilstm = BiLstm::new(&mut rng, 1, self.hidden);
        let mut head = Dense::new(&mut rng, 2 * self.hidden, 1, Activation::Identity);
        let mut opt = Adam::new(self.lr);
        let mut ws = BiRecurrentWorkspace::new();
        let mut hb = Matrix::default();
        let mut gb = Matrix::default();
        for _ in 0..self.epochs {
            let order = shuffled_indices(inputs.len(), &mut rng);
            for chunk in order.chunks(BATCH) {
                let mut group = ParamGroup2(&mut bilstm, &mut head);
                group.zero_grad();
                let n = chunk.len();
                ws.stage(n, steps, 1, self.hidden);
                for (s, &i) in chunk.iter().enumerate() {
                    debug_assert_eq!(inputs[i].len(), steps, "uniform window length");
                    for (t, v) in inputs[i].iter().enumerate() {
                        ws.set_input(s, t, std::slice::from_ref(v));
                    }
                }
                group.0.forward_batch(&mut ws);
                hb.resize(n, 2 * self.hidden);
                hb.data_mut().copy_from_slice(ws.output());
                gb.resize(n, 1);
                {
                    let out = group.1.forward_batch(&hb);
                    for (r, &i) in chunk.iter().enumerate() {
                        let g = mse_loss_grad(out.row(r), &[targets[i]]);
                        gb.row_mut(r).copy_from_slice(&g);
                    }
                }
                let gh = group.1.backward_batch(&gb);
                group.0.backward_batch_last(gh.data(), &mut ws, false);
                group.clip_grad_norm(5.0);
                opt.step(&mut group);
            }
        }
        self.bilstm = Some(bilstm);
        self.head = Some(head);
        Ok(())
    }

    fn predict(&self, input: &[f64]) -> f64 {
        let (Some(b), Some(head)) = (self.bilstm.as_ref(), self.head.as_ref()) else {
            return 0.0;
        };
        let mut guard = self.scratch.lock();
        let (cache, out) = &mut *guard;
        let h = b.forward_inference_cached(input, 1, cache);
        head.forward_inference_into(h, out);
        out[0]
    }
}

/// CNN-LSTM regressor (paper family **CNN-LSTM**): Conv1d features over the
/// window, LSTM over the feature sequence, linear head.
#[derive(Debug, Clone)]
pub struct CnnLstmRegressor {
    channels: usize,
    kernel: usize,
    hidden: usize,
    epochs: usize,
    lr: f64,
    seed: u64,
    conv: Option<Conv1d>,
    lstm: Option<Lstm>,
    head: Option<Dense>,
    scratch: Scratch<(ConvInferenceCache, LstmInferenceCache, [f64; 1])>,
}

impl CnnLstmRegressor {
    /// Creates an unfitted CNN-LSTM.
    pub fn new(
        channels: usize,
        kernel: usize,
        hidden: usize,
        epochs: usize,
        lr: f64,
        seed: u64,
    ) -> Self {
        CnnLstmRegressor {
            channels: channels.max(1),
            kernel: kernel.max(1),
            hidden: hidden.max(1),
            epochs: epochs.max(1),
            lr,
            seed,
            conv: None,
            lstm: None,
            head: None,
            scratch: Scratch::default(),
        }
    }
}

impl TabularModel for CnnLstmRegressor {
    fn fit(&mut self, inputs: &[Vec<f64>], targets: &[f64]) -> Result<(), ModelError> {
        if inputs.is_empty() || inputs.len() != targets.len() {
            return Err(ModelError::SeriesTooShort {
                needed: 1,
                got: inputs.len(),
            });
        }
        let window = inputs[0].len();
        if window < self.kernel {
            return Err(ModelError::Numerical {
                context: format!("window {window} shorter than conv kernel {}", self.kernel),
            });
        }
        let mut rng = DetRng::seed_from_u64(self.seed);
        let mut conv = Conv1d::new(&mut rng, 1, self.channels, self.kernel, Activation::Relu);
        let mut lstm = Lstm::new(&mut rng, self.channels, self.hidden);
        let mut head = Dense::new(&mut rng, self.hidden, 1, Activation::Identity);
        let mut opt = Adam::new(self.lr);
        let t_out = window - self.kernel + 1;
        let ch = self.channels;
        let mut cws = ConvWorkspace::new();
        let mut ws = RecurrentWorkspace::new();
        let mut hb = Matrix::default();
        let mut gb = Matrix::default();
        for _ in 0..self.epochs {
            let order = shuffled_indices(inputs.len(), &mut rng);
            for chunk in order.chunks(BATCH) {
                let mut group = ParamGroup3(&mut conv, &mut lstm, &mut head);
                group.zero_grad();
                let n = chunk.len();
                group.0.stage_batch(&mut cws, n, window);
                for (s, &i) in chunk.iter().enumerate() {
                    debug_assert_eq!(inputs[i].len(), window, "uniform window length");
                    cws.input_mut(s).copy_from_slice(&inputs[i]);
                }
                group.0.forward_batch(&mut cws);
                ws.stage(n, t_out, ch, self.hidden);
                for s in 0..n {
                    for t in 0..t_out {
                        ws.set_input(s, t, cws.output_row(s, t));
                    }
                }
                group.1.forward_batch(&mut ws);
                hb.resize(n, self.hidden);
                hb.data_mut().copy_from_slice(ws.h_last());
                gb.resize(n, 1);
                {
                    let out = group.2.forward_batch(&hb);
                    for (r, &i) in chunk.iter().enumerate() {
                        let g = mse_loss_grad(out.row(r), &[targets[i]]);
                        gb.row_mut(r).copy_from_slice(&g);
                    }
                }
                let gh = group.2.backward_batch(&gb);
                group.1.backward_batch_last(gh.data(), &mut ws, true);
                for t in 0..t_out {
                    let gx = ws.grad_x(t);
                    for s in 0..n {
                        cws.grad_output_row_mut(s, t)
                            .copy_from_slice(&gx[s * ch..(s + 1) * ch]);
                    }
                }
                group.0.backward_batch_weights_only(&mut cws);
                group.clip_grad_norm(5.0);
                opt.step(&mut group);
            }
        }
        self.conv = Some(conv);
        self.lstm = Some(lstm);
        self.head = Some(head);
        Ok(())
    }

    fn predict(&self, input: &[f64]) -> f64 {
        let (Some(conv), Some(lstm), Some(head)) =
            (self.conv.as_ref(), self.lstm.as_ref(), self.head.as_ref())
        else {
            return 0.0;
        };
        let mut guard = self.scratch.lock();
        let (conv_cache, lstm_cache, out) = &mut *guard;
        let y = conv.forward_inference_cached(input, conv_cache);
        let h = lstm.forward_inference_cached(y, self.channels, lstm_cache);
        head.forward_inference_into(h, out);
        out[0]
    }
}

/// Conv-LSTM regressor (paper family **Conv-LSTM**): LSTM over overlapping
/// width-`patch` slices of the window, so every input-to-state transition
/// has a local receptive field.
#[derive(Debug, Clone)]
pub struct ConvLstmRegressor {
    patch: usize,
    hidden: usize,
    epochs: usize,
    lr: f64,
    seed: u64,
    lstm: Option<Lstm>,
    head: Option<Dense>,
    scratch: Scratch<(LstmInferenceCache, [f64; 1])>,
}

impl ConvLstmRegressor {
    /// Creates an unfitted Conv-LSTM regressor.
    pub fn new(patch: usize, hidden: usize, epochs: usize, lr: f64, seed: u64) -> Self {
        ConvLstmRegressor {
            patch: patch.max(1),
            hidden: hidden.max(1),
            epochs: epochs.max(1),
            lr,
            seed,
            lstm: None,
            head: None,
            scratch: Scratch::default(),
        }
    }
}

impl TabularModel for ConvLstmRegressor {
    fn fit(&mut self, inputs: &[Vec<f64>], targets: &[f64]) -> Result<(), ModelError> {
        if inputs.is_empty() || inputs.len() != targets.len() {
            return Err(ModelError::SeriesTooShort {
                needed: 1,
                got: inputs.len(),
            });
        }
        let window = inputs[0].len();
        let in_dim = self.patch.min(window);
        let steps = window - in_dim + 1;
        let mut rng = DetRng::seed_from_u64(self.seed);
        let mut lstm = Lstm::new(&mut rng, in_dim, self.hidden);
        let mut head = Dense::new(&mut rng, self.hidden, 1, Activation::Identity);
        let mut opt = Adam::new(self.lr);
        let mut ws = RecurrentWorkspace::new();
        let mut hb = Matrix::default();
        let mut gb = Matrix::default();
        for _ in 0..self.epochs {
            let order = shuffled_indices(inputs.len(), &mut rng);
            for chunk in order.chunks(BATCH) {
                let mut group = ParamGroup2(&mut lstm, &mut head);
                group.zero_grad();
                let n = chunk.len();
                ws.stage(n, steps, in_dim, self.hidden);
                for (s, &i) in chunk.iter().enumerate() {
                    debug_assert_eq!(inputs[i].len(), window, "uniform window length");
                    for t in 0..steps {
                        ws.set_input(s, t, &inputs[i][t..t + in_dim]);
                    }
                }
                group.0.forward_batch(&mut ws);
                hb.resize(n, self.hidden);
                hb.data_mut().copy_from_slice(ws.h_last());
                gb.resize(n, 1);
                {
                    let out = group.1.forward_batch(&hb);
                    for (r, &i) in chunk.iter().enumerate() {
                        let g = mse_loss_grad(out.row(r), &[targets[i]]);
                        gb.row_mut(r).copy_from_slice(&g);
                    }
                }
                let gh = group.1.backward_batch(&gb);
                group.0.backward_batch_last(gh.data(), &mut ws, false);
                group.clip_grad_norm(5.0);
                opt.step(&mut group);
            }
        }
        self.lstm = Some(lstm);
        self.head = Some(head);
        Ok(())
    }

    fn predict(&self, input: &[f64]) -> f64 {
        let (Some(lstm), Some(head)) = (self.lstm.as_ref(), self.head.as_ref()) else {
            return 0.0;
        };
        let mut guard = self.scratch.lock();
        let (cache, out) = &mut *guard;
        let h = lstm.forward_inference_cached(input, 1, cache);
        head.forward_inference_into(h, out);
        out[0]
    }
}

/// Stacked-LSTM regressor (the paper's **StLSTM** baseline): two LSTM
/// layers — the full hidden sequence of the first feeds the second — with a
/// linear head on the second layer's final hidden state. The paper frames
/// this as "an ensemble of LSTMs combined using a cascading approach".
#[derive(Debug, Clone)]
pub struct StackedLstmRegressor {
    hidden1: usize,
    hidden2: usize,
    epochs: usize,
    lr: f64,
    seed: u64,
    lstm1: Option<Lstm>,
    lstm2: Option<Lstm>,
    head: Option<Dense>,
    scratch: Scratch<(LstmInferenceCache, LstmInferenceCache, [f64; 1])>,
}

impl StackedLstmRegressor {
    /// Creates an unfitted two-layer stacked LSTM.
    pub fn new(hidden1: usize, hidden2: usize, epochs: usize, lr: f64, seed: u64) -> Self {
        StackedLstmRegressor {
            hidden1: hidden1.max(1),
            hidden2: hidden2.max(1),
            epochs: epochs.max(1),
            lr,
            seed,
            lstm1: None,
            lstm2: None,
            head: None,
            scratch: Scratch::default(),
        }
    }
}

impl TabularModel for StackedLstmRegressor {
    fn fit(&mut self, inputs: &[Vec<f64>], targets: &[f64]) -> Result<(), ModelError> {
        if inputs.is_empty() || inputs.len() != targets.len() {
            return Err(ModelError::SeriesTooShort {
                needed: 1,
                got: inputs.len(),
            });
        }
        let steps = inputs[0].len();
        let (h1, h2) = (self.hidden1, self.hidden2);
        let mut rng = DetRng::seed_from_u64(self.seed);
        let mut lstm1 = Lstm::new(&mut rng, 1, h1);
        let mut lstm2 = Lstm::new(&mut rng, h1, h2);
        let mut head = Dense::new(&mut rng, h2, 1, Activation::Identity);
        let mut opt = Adam::new(self.lr);
        let mut ws1 = RecurrentWorkspace::new();
        let mut ws2 = RecurrentWorkspace::new();
        let mut hb = Matrix::default();
        let mut gb = Matrix::default();
        for _ in 0..self.epochs {
            let order = shuffled_indices(inputs.len(), &mut rng);
            for chunk in order.chunks(BATCH) {
                let mut group = ParamGroup3(&mut lstm1, &mut lstm2, &mut head);
                group.zero_grad();
                let n = chunk.len();
                ws1.stage(n, steps, 1, h1);
                for (s, &i) in chunk.iter().enumerate() {
                    debug_assert_eq!(inputs[i].len(), steps, "uniform window length");
                    for (t, v) in inputs[i].iter().enumerate() {
                        ws1.set_input(s, t, std::slice::from_ref(v));
                    }
                }
                group.0.forward_batch(&mut ws1);
                ws2.stage(n, steps, h1, h2);
                for t in 0..steps {
                    let hs = ws1.h_step(t);
                    for s in 0..n {
                        ws2.set_input(s, t, &hs[s * h1..(s + 1) * h1]);
                    }
                }
                group.1.forward_batch(&mut ws2);
                hb.resize(n, h2);
                hb.data_mut().copy_from_slice(ws2.h_last());
                gb.resize(n, 1);
                {
                    let out = group.2.forward_batch(&hb);
                    for (r, &i) in chunk.iter().enumerate() {
                        let g = mse_loss_grad(out.row(r), &[targets[i]]);
                        gb.row_mut(r).copy_from_slice(&g);
                    }
                }
                let gh = group.2.backward_batch(&gb);
                group.1.backward_batch_last(gh.data(), &mut ws2, true);
                for t in 0..steps {
                    ws1.grad_h_mut(t).copy_from_slice(ws2.grad_x(t));
                }
                group.0.backward_batch_full(&mut ws1, false);
                group.clip_grad_norm(5.0);
                opt.step(&mut group);
            }
        }
        self.lstm1 = Some(lstm1);
        self.lstm2 = Some(lstm2);
        self.head = Some(head);
        Ok(())
    }

    fn predict(&self, input: &[f64]) -> f64 {
        let (Some(l1), Some(l2), Some(head)) =
            (self.lstm1.as_ref(), self.lstm2.as_ref(), self.head.as_ref())
        else {
            return 0.0;
        };
        let mut guard = self.scratch.lock();
        let (c1, c2, out) = &mut *guard;
        let hs1 = l1.forward_inference_cached_full(input, 1, c1);
        let h2 = l2.forward_inference_cached(hs1, l2.in_dim(), c2);
        head.forward_inference_into(h2, out);
        out[0]
    }
}

/// An MLP forecaster over embedded windows.
pub fn mlp_forecaster(
    k: usize,
    hidden: Vec<usize>,
    epochs: usize,
    seed: u64,
) -> Windowed<MlpRegressor> {
    Windowed::new(
        format!("MLP({hidden:?})"),
        k,
        MlpRegressor::new(hidden, epochs, 0.01, seed),
    )
}

/// An LSTM forecaster over embedded windows.
pub fn lstm_forecaster(
    k: usize,
    hidden: usize,
    epochs: usize,
    seed: u64,
) -> Windowed<LstmRegressor> {
    Windowed::new(
        format!("LSTM(h={hidden})"),
        k,
        LstmRegressor::new(hidden, epochs, 0.01, seed),
    )
}

/// A Bi-LSTM forecaster over embedded windows.
pub fn bilstm_forecaster(
    k: usize,
    hidden: usize,
    epochs: usize,
    seed: u64,
) -> Windowed<BiLstmRegressor> {
    Windowed::new(
        format!("BiLSTM(h={hidden})"),
        k,
        BiLstmRegressor::new(hidden, epochs, 0.01, seed),
    )
}

/// A stacked-LSTM forecaster over embedded windows (paper baseline
/// **StLSTM**).
pub fn stacked_lstm_forecaster(
    k: usize,
    hidden1: usize,
    hidden2: usize,
    epochs: usize,
    seed: u64,
) -> Windowed<StackedLstmRegressor> {
    Windowed::new(
        format!("StLSTM(h={hidden1},{hidden2})"),
        k,
        StackedLstmRegressor::new(hidden1, hidden2, epochs, 0.01, seed),
    )
}

/// A CNN-LSTM forecaster over embedded windows.
pub fn cnn_lstm_forecaster(
    k: usize,
    channels: usize,
    kernel: usize,
    hidden: usize,
    epochs: usize,
    seed: u64,
) -> Windowed<CnnLstmRegressor> {
    Windowed::new(
        format!("CNN-LSTM(c={channels},k={kernel},h={hidden})"),
        k,
        CnnLstmRegressor::new(channels, kernel, hidden, epochs, 0.01, seed),
    )
}

/// A Conv-LSTM forecaster over embedded windows.
pub fn conv_lstm_forecaster(
    k: usize,
    patch: usize,
    hidden: usize,
    epochs: usize,
    seed: u64,
) -> Windowed<ConvLstmRegressor> {
    Windowed::new(
        format!("Conv-LSTM(p={patch},h={hidden})"),
        k,
        ConvLstmRegressor::new(patch, hidden, epochs, 0.01, seed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forecaster::Forecaster;

    /// Reference construction of the Conv-LSTM patch sequence: overlapping
    /// width-`patch` slices at stride 1 (the fit loop stages the same
    /// slices directly into the recurrent workspace).
    fn window_to_patches(window: &[f64], patch: usize) -> Vec<Vec<f64>> {
        if window.len() < patch {
            return vec![window.to_vec()];
        }
        (0..=window.len() - patch)
            .map(|i| window[i..i + patch].to_vec())
            .collect()
    }

    fn sine_series(n: usize) -> Vec<f64> {
        (0..n)
            .map(|t| (2.0 * std::f64::consts::PI * t as f64 / 12.0).sin() * 3.0 + 10.0)
            .collect()
    }

    #[test]
    fn mlp_learns_sine_continuation() {
        let s = sine_series(220);
        let mut m = mlp_forecaster(5, vec![16], 60, 1);
        m.fit(&s).unwrap();
        let truth = (2.0 * std::f64::consts::PI * 220.0 / 12.0).sin() * 3.0 + 10.0;
        let pred = m.predict_next(&s);
        assert!((pred - truth).abs() < 1.0, "pred {pred} truth {truth}");
    }

    #[test]
    fn lstm_learns_sine_continuation() {
        let s = sine_series(200);
        let mut m = lstm_forecaster(5, 8, 40, 2);
        m.fit(&s).unwrap();
        let truth = (2.0 * std::f64::consts::PI * 200.0 / 12.0).sin() * 3.0 + 10.0;
        let pred = m.predict_next(&s);
        assert!((pred - truth).abs() < 1.2, "pred {pred} truth {truth}");
    }

    #[test]
    fn bilstm_runs_and_is_deterministic() {
        let s = sine_series(150);
        let mut a = bilstm_forecaster(5, 6, 15, 3);
        let mut b = bilstm_forecaster(5, 6, 15, 3);
        a.fit(&s).unwrap();
        b.fit(&s).unwrap();
        assert_eq!(a.predict_next(&s), b.predict_next(&s));
        assert!(a.predict_next(&s).is_finite());
    }

    #[test]
    fn cnn_lstm_learns_sine() {
        let s = sine_series(200);
        let mut m = cnn_lstm_forecaster(5, 4, 2, 8, 40, 4);
        m.fit(&s).unwrap();
        let truth = (2.0 * std::f64::consts::PI * 200.0 / 12.0).sin() * 3.0 + 10.0;
        let pred = m.predict_next(&s);
        assert!((pred - truth).abs() < 1.5, "pred {pred} truth {truth}");
    }

    #[test]
    fn conv_lstm_learns_sine() {
        let s = sine_series(200);
        let mut m = conv_lstm_forecaster(5, 3, 8, 40, 5);
        m.fit(&s).unwrap();
        let truth = (2.0 * std::f64::consts::PI * 200.0 / 12.0).sin() * 3.0 + 10.0;
        let pred = m.predict_next(&s);
        assert!((pred - truth).abs() < 1.5, "pred {pred} truth {truth}");
    }

    #[test]
    fn stacked_lstm_learns_sine() {
        let s = sine_series(200);
        let mut m = stacked_lstm_forecaster(5, 8, 8, 40, 6);
        m.fit(&s).unwrap();
        let truth = (2.0 * std::f64::consts::PI * 200.0 / 12.0).sin() * 3.0 + 10.0;
        let pred = m.predict_next(&s);
        assert!((pred - truth).abs() < 1.5, "pred {pred} truth {truth}");
    }

    /// FNV-1a over the bit patterns of `values`.
    fn fnv_bits(values: &[f64]) -> u64 {
        values.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
            v.to_bits().to_le_bytes().iter().fold(h, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        })
    }

    /// `n` windows of length `k` with one value in six an exact zero,
    /// plus scalar targets, from a fixed stream.
    fn golden_windows(n: usize, k: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = DetRng::seed_from_u64(seed);
        let inputs = (0..n)
            .map(|i| {
                (0..k)
                    .map(|t| {
                        if (i + 2 * t) % 6 == 0 {
                            0.0
                        } else {
                            rng.random_range(-2.0..2.0)
                        }
                    })
                    .collect()
            })
            .collect();
        let targets = (0..n).map(|_| rng.random_range(-1.0..1.0)).collect();
        (inputs, targets)
    }

    #[test]
    fn stacked_lstm_fit_matches_golden_digests() {
        // (n, k, hidden1, hidden2, parameter digest, prediction digest).
        // The digests were recorded from the per-sequence stacked fit the
        // batched one replaced; n = 37, 50 and 120 leave ragged final
        // chunks of 5, 2 and 8 windows.
        let cases: [(usize, usize, usize, usize, u64, u64); 4] = [
            (37, 5, 8, 8, 0x6c86_a8e0_d805_3009, 0xcffd_01c2_3910_51d9),
            (50, 7, 5, 3, 0x9376_a04d_b64b_a9e6, 0x166d_8759_92d4_e86e),
            (16, 4, 4, 4, 0x4309_58dc_b0f4_a82a, 0xff5b_6299_e6e3_9f46),
            (120, 12, 8, 8, 0xd925_f4a9_03e8_80c1, 0x0041_41db_f321_817e),
        ];
        for &(n, k, h1, h2, want_params, want_preds) in &cases {
            let (inputs, targets) = golden_windows(n, k, 0x5717 + n as u64);
            let mut m = StackedLstmRegressor::new(h1, h2, 4, 0.01, 0x57 ^ k as u64);
            m.fit(&inputs, &targets).unwrap();
            let mut params = m.lstm1.as_mut().expect("fitted").flat_params();
            params.extend(m.lstm2.as_mut().expect("fitted").flat_params());
            params.extend(m.head.as_mut().expect("fitted").flat_params());
            let preds: Vec<f64> = inputs.iter().map(|w| m.predict(w)).collect();
            assert_eq!(
                (fnv_bits(&params), fnv_bits(&preds)),
                (want_params, want_preds),
                "n={n} k={k} hidden=({h1},{h2})"
            );
        }
    }

    #[test]
    fn kernel_larger_than_window_is_fit_error() {
        let s = sine_series(100);
        let mut m = Windowed::new("bad", 3, CnnLstmRegressor::new(2, 5, 4, 5, 0.01, 0));
        assert!(m.fit(&s).is_err());
    }

    #[test]
    fn patches_cover_window() {
        let p = window_to_patches(&[1.0, 2.0, 3.0, 4.0], 3);
        assert_eq!(p, vec![vec![1.0, 2.0, 3.0], vec![2.0, 3.0, 4.0]]);
        // Patch wider than window degrades to the whole window.
        let q = window_to_patches(&[1.0, 2.0], 5);
        assert_eq!(q, vec![vec![1.0, 2.0]]);
    }

    #[test]
    fn unfitted_models_predict_zero() {
        assert_eq!(
            MlpRegressor::new(vec![4], 5, 0.01, 0).predict(&[1.0; 5]),
            0.0
        );
        assert_eq!(LstmRegressor::new(4, 5, 0.01, 0).predict(&[1.0; 5]), 0.0);
        assert_eq!(BiLstmRegressor::new(4, 5, 0.01, 0).predict(&[1.0; 5]), 0.0);
        assert_eq!(
            CnnLstmRegressor::new(2, 2, 4, 5, 0.01, 0).predict(&[1.0; 5]),
            0.0
        );
        assert_eq!(
            ConvLstmRegressor::new(2, 4, 5, 0.01, 0).predict(&[1.0; 5]),
            0.0
        );
    }
}
