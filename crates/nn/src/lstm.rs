//! LSTM and bidirectional-LSTM sequence layers with full BPTT.
//!
//! Training has one path for any batch size B ≥ 1: [`Lstm::forward_batch`]
//! stages B training windows as one `B x in_dim` matrix per timestep and
//! runs the stacked-gate kernels from `eadrl_linalg` over a persistent
//! [`RecurrentWorkspace`] (SoA step caches, zero steady-state
//! allocations); [`Lstm::backward_batch_last`] and
//! [`Lstm::backward_batch_full`] run BPTT from a gradient on the last or on
//! every hidden state. One sequence is the B = 1 case. Serving reads one
//! window through the alloc-free [`Lstm::forward_inference_cached`].
//!
//! The batched pass is bitwise equal to a one-sequence-at-a-time loop.
//! That loop is kept as `#[cfg(test)]` reference code at the end of this
//! file, and the equivalence rests on three invariants, proven by the
//! crate's `recurrent_equivalence` tests:
//!
//! 1. the gate pre-activations are formed as `b + (W·x + U·h)` with each
//!    GEMM element accumulated in ascending-k order from 0.0 — the exact
//!    expression tree of the per-sequence step;
//! 2. BPTT weight gradients are staged into `(B*T)`-row matrices at row
//!    `s*T + (T-1-t)` (sample-major, timestep-descending) so one
//!    `gemm_tn_acc` replays the per-sequence accumulation order
//!    contribution for contribution;
//! 3. the incoming hidden gradient is *always* added at every step (even
//!    when zero), mirroring the per-sequence `dh += grad_hs[t]`, because
//!    `x + 0.0` normalizes `-0.0` to `+0.0`.

use crate::init;
use crate::network::Network;
use eadrl_linalg::{kernels, vector};
use eadrl_rng::DetRng;

/// Persistent SoA step caches for the batched LSTM training path.
///
/// One `B x 4H` gate buffer and `B x H` state buffers per timestep, all
/// flat and timestep-major, plus the `(B*T)`-row staging matrices the
/// BPTT weight-gradient GEMMs consume. Buffers grow on [`stage`]
/// (`Vec::resize`) and are reused across minibatches and epochs — after
/// the first chunk of an epoch loop the workspace performs zero
/// allocations.
///
/// [`stage`]: RecurrentWorkspace::stage
#[derive(Debug, Clone, Default)]
pub struct RecurrentWorkspace {
    batch: usize,
    steps: usize,
    in_dim: usize,
    hidden: usize,
    forwarded: bool,
    /// Inputs, timestep-major: `x[t][s][i]`, shape `T x B x in_dim`.
    x: Vec<f64>,
    /// Activated gates `[i|f|g|o]` per step: `T x B x 4H`.
    gates: Vec<f64>,
    /// Cell states per step: `T x B x H`.
    c: Vec<f64>,
    /// `tanh` of the cell states per step: `T x B x H`.
    tanh_c: Vec<f64>,
    /// Hidden states per step: `T x B x H`.
    h: Vec<f64>,
    /// All-zero `B x H` block standing in for `h_{-1}` / `c_{-1}`.
    zero_state: Vec<f64>,
    /// Gate pre-activation halves, `B x 4H` scratch reused per timestep.
    zw: Vec<f64>,
    zu: Vec<f64>,
    /// Upstream hidden-state gradients per step: `T x B x H`.
    grad_h: Vec<f64>,
    /// Backward scratch, `B x H` / `B x 4H`, reused per timestep.
    dh: Vec<f64>,
    dc: Vec<f64>,
    dc_prev: Vec<f64>,
    dz: Vec<f64>,
    /// Staged BPTT rows at index `s*T + (T-1-t)` (sample-major,
    /// timestep-descending — the per-sequence accumulation order).
    dz_stage: Vec<f64>,
    x_stage: Vec<f64>,
    h_stage: Vec<f64>,
    /// Input gradients, timestep-major `T x B x in_dim` (filled only when
    /// the backward pass is asked for them).
    grad_x: Vec<f64>,
}

impl RecurrentWorkspace {
    /// Creates an empty workspace; buffers are sized on [`stage`].
    ///
    /// [`stage`]: RecurrentWorkspace::stage
    pub fn new() -> Self {
        Self::default()
    }

    /// Sizes every buffer for a `batch x steps` pass and clears the
    /// upstream gradients. Growth-only: re-staging with the same or
    /// smaller shape allocates nothing.
    pub fn stage(&mut self, batch: usize, steps: usize, in_dim: usize, hidden: usize) {
        self.batch = batch;
        self.steps = steps;
        self.in_dim = in_dim;
        self.hidden = hidden;
        self.forwarded = false;
        let (bh, g4) = (batch * hidden, 4 * hidden);
        self.x.resize(steps * batch * in_dim, 0.0);
        self.gates.resize(steps * batch * g4, 0.0);
        self.c.resize(steps * bh, 0.0);
        self.tanh_c.resize(steps * bh, 0.0);
        self.h.resize(steps * bh, 0.0);
        self.zero_state.resize(bh, 0.0);
        self.zero_state.fill(0.0);
        self.zw.resize(batch * g4, 0.0);
        self.zu.resize(batch * g4, 0.0);
        self.grad_h.resize(steps * bh, 0.0);
        self.grad_h.fill(0.0);
        self.dh.resize(bh, 0.0);
        self.dc.resize(bh, 0.0);
        self.dc_prev.resize(bh, 0.0);
        self.dz.resize(batch * g4, 0.0);
        self.dz_stage.resize(batch * steps * g4, 0.0);
        self.x_stage.resize(batch * steps * in_dim, 0.0);
        self.h_stage.resize(batch * steps * hidden, 0.0);
        self.grad_x.resize(steps * batch * in_dim, 0.0);
    }

    /// Copies one sample's input vector for timestep `t` into the staged
    /// `X_t` matrix.
    pub fn set_input(&mut self, s: usize, t: usize, x: &[f64]) {
        debug_assert_eq!(x.len(), self.in_dim, "RecurrentWorkspace::set_input dim");
        let base = (t * self.batch + s) * self.in_dim;
        self.x[base..base + self.in_dim].copy_from_slice(x);
    }

    /// Upstream hidden-state gradient block for timestep `t`
    /// (`B x hidden`), for callers driving [`Lstm::backward_batch_full`].
    pub fn grad_h_mut(&mut self, t: usize) -> &mut [f64] {
        let bh = self.batch * self.hidden;
        &mut self.grad_h[t * bh..(t + 1) * bh]
    }

    /// Timesteps of the last [`stage`].
    ///
    /// [`stage`]: RecurrentWorkspace::stage
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Final hidden states after [`Lstm::forward_batch`] (`B x hidden`,
    /// sample-major).
    pub fn h_last(&self) -> &[f64] {
        self.h_step(self.steps - 1)
    }

    /// Hidden states for timestep `t` after [`Lstm::forward_batch`]
    /// (`B x hidden`, sample-major) — the input block of a stacked layer.
    pub fn h_step(&self, t: usize) -> &[f64] {
        let bh = self.batch * self.hidden;
        &self.h[t * bh..(t + 1) * bh]
    }

    /// Input-gradient block for timestep `t` (`B x in_dim`), valid after a
    /// backward pass requested input gradients.
    pub fn grad_x(&self, t: usize) -> &[f64] {
        let bi = self.batch * self.in_dim;
        &self.grad_x[t * bi..(t + 1) * bi]
    }
}

/// Reusable buffers for the alloc-free single-window inference path
/// ([`Lstm::forward_inference_cached`]); one per online model, reused
/// across `predict_next` calls.
#[derive(Debug, Clone, Default)]
pub struct LstmInferenceCache {
    z: Vec<f64>,
    h: Vec<f64>,
    c: Vec<f64>,
    /// Full hidden sequence (`T x H`), used by the `_full` variant.
    hs: Vec<f64>,
}

/// Inference buffers for [`BiLstm::forward_inference_cached`]: one
/// per-direction cache plus the reversed-input and concatenated-output
/// scratch.
#[derive(Debug, Clone, Default)]
pub struct BiLstmInferenceCache {
    fwd: LstmInferenceCache,
    bwd: LstmInferenceCache,
    rev: Vec<f64>,
    out: Vec<f64>,
}

/// A single-layer LSTM over sequences of input vectors.
///
/// Gate order in the packed weight matrices is `i, f, g, o` (input, forget,
/// candidate, output). `w` maps inputs (shape `4H x in_dim`), `u` maps the
/// previous hidden state (shape `4H x H`), `b` is the bias (`4H`; the
/// forget-gate slice is initialized to 1.0, the standard trick that keeps
/// memory open early in training).
#[derive(Debug, Clone)]
pub struct Lstm {
    in_dim: usize,
    hidden: usize,
    w: Vec<f64>,
    u: Vec<f64>,
    b: Vec<f64>,
    grad_w: Vec<f64>,
    grad_u: Vec<f64>,
    grad_b: Vec<f64>,
}

impl Lstm {
    /// Creates an LSTM with Xavier-initialized weights.
    pub fn new(rng: &mut DetRng, in_dim: usize, hidden: usize) -> Self {
        let w = init::xavier_uniform(rng, in_dim, hidden, 4 * hidden * in_dim);
        let u = init::xavier_uniform(rng, hidden, hidden, 4 * hidden * hidden);
        let mut b = vec![0.0; 4 * hidden];
        // Forget-gate bias = 1.
        for v in b.iter_mut().take(2 * hidden).skip(hidden) {
            *v = 1.0;
        }
        Lstm {
            in_dim,
            hidden,
            grad_w: vec![0.0; 4 * hidden * in_dim],
            grad_u: vec![0.0; 4 * hidden * hidden],
            grad_b: vec![0.0; 4 * hidden],
            w,
            u,
            b,
        }
    }

    /// Input dimension per timestep.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Hidden-state size.
    pub fn hidden_dim(&self) -> usize {
        self.hidden
    }

    /// Batched forward pass over the windows staged in `ws`: one
    /// `X_t: B x in_dim` stacked-gate GEMM per timestep instead of B
    /// matvec loops. Results (and the SoA step caches the backward pass
    /// reads) land in the workspace; bitwise-identical to running the
    /// per-sequence reference loop on each sample.
    pub fn forward_batch(&self, ws: &mut RecurrentWorkspace) {
        debug_assert_eq!(ws.in_dim, self.in_dim, "Lstm::forward_batch: input dim");
        debug_assert_eq!(ws.hidden, self.hidden, "Lstm::forward_batch: hidden dim");
        debug_assert!(ws.steps > 0, "Lstm::forward_batch: empty sequence");
        let mut span = eadrl_obs::span_at(eadrl_obs::Level::Trace, "nn.lstm.forward_batch");
        span.record("rows", ws.batch.into());
        span.record("steps", ws.steps.into());
        let (b, hsz) = (ws.batch, self.hidden);
        let (bh, g4) = (b * hsz, 4 * hsz);
        for t in 0..ws.steps {
            let xt = &ws.x[t * b * self.in_dim..(t + 1) * b * self.in_dim];
            kernels::gates_gemm(b, self.in_dim, g4, xt, &self.w, &mut ws.zw);
            let (h_done, h_rest) = ws.h.split_at_mut(t * bh);
            let h_prev: &[f64] = if t == 0 {
                &ws.zero_state
            } else {
                &h_done[(t - 1) * bh..]
            };
            kernels::gates_gemm(b, hsz, g4, h_prev, &self.u, &mut ws.zu);
            let (c_done, c_rest) = ws.c.split_at_mut(t * bh);
            let c_prev: &[f64] = if t == 0 {
                &ws.zero_state
            } else {
                &c_done[(t - 1) * bh..]
            };
            kernels::lstm_gate_apply(
                b,
                hsz,
                &self.b,
                &ws.zw,
                &ws.zu,
                c_prev,
                &mut ws.gates[t * b * g4..(t + 1) * b * g4],
                &mut c_rest[..bh],
                &mut ws.tanh_c[t * bh..(t + 1) * bh],
                &mut h_rest[..bh],
            );
        }
        ws.forwarded = true;
    }

    /// Batched BPTT from a gradient on each sample's *final* hidden state
    /// (`grad_h_last` is `B x hidden`, sample-major). Accumulates
    /// parameter gradients; when `want_input_grads` is set, per-timestep
    /// input gradients are left in the workspace ([`RecurrentWorkspace::grad_x`]).
    ///
    /// # Panics
    /// Panics when called before [`Lstm::forward_batch`].
    pub fn backward_batch_last(
        &mut self,
        grad_h_last: &[f64],
        ws: &mut RecurrentWorkspace,
        want_input_grads: bool,
    ) {
        assert!(
            ws.forwarded,
            "Lstm::backward_batch_last called before forward_batch"
        );
        debug_assert_eq!(
            grad_h_last.len(),
            ws.batch * self.hidden,
            "Lstm::backward_batch_last: grad shape"
        );
        let bh = ws.batch * self.hidden;
        ws.grad_h.fill(0.0);
        ws.grad_h[(ws.steps - 1) * bh..].copy_from_slice(grad_h_last);
        self.backward_batch_staged(ws, want_input_grads);
    }

    /// Batched BPTT with a gradient on *every* hidden state; the caller
    /// fills the per-step blocks via [`RecurrentWorkspace::grad_h_mut`]
    /// after staging.
    ///
    /// # Panics
    /// Panics when called before [`Lstm::forward_batch`].
    pub fn backward_batch_full(&mut self, ws: &mut RecurrentWorkspace, want_input_grads: bool) {
        assert!(
            ws.forwarded,
            "Lstm::backward_batch_full called before forward_batch"
        );
        self.backward_batch_staged(ws, want_input_grads);
    }

    fn backward_batch_staged(&mut self, ws: &mut RecurrentWorkspace, want_input_grads: bool) {
        let mut span = eadrl_obs::span_at(eadrl_obs::Level::Trace, "nn.lstm.backward_batch");
        span.record("rows", ws.batch.into());
        span.record("steps", ws.steps.into());
        let (b, hsz, ind) = (ws.batch, self.hidden, self.in_dim);
        let (bh, g4) = (b * hsz, 4 * hsz);
        let t_steps = ws.steps;
        ws.dh.fill(0.0);
        ws.dc.fill(0.0);
        for t in (0..t_steps).rev() {
            // Always add the upstream gradient, even when the block is all
            // zeros — the per-sequence path does, and `x + 0.0` normalizes
            // any `-0.0` in `dh` to `+0.0`.
            for (d, g) in ws.dh.iter_mut().zip(ws.grad_h[t * bh..(t + 1) * bh].iter()) {
                *d += g;
            }
            let c_prev: &[f64] = if t == 0 {
                &ws.zero_state
            } else {
                &ws.c[(t - 1) * bh..t * bh]
            };
            let h_prev: &[f64] = if t == 0 {
                &ws.zero_state
            } else {
                &ws.h[(t - 1) * bh..t * bh]
            };
            kernels::lstm_gate_grad(
                b,
                hsz,
                &ws.gates[t * b * g4..(t + 1) * b * g4],
                &ws.tanh_c[t * bh..(t + 1) * bh],
                c_prev,
                &ws.dh,
                &ws.dc,
                &mut ws.dz,
                &mut ws.dc_prev,
            );
            for s in 0..b {
                let r = s * t_steps + (t_steps - 1 - t);
                ws.dz_stage[r * g4..(r + 1) * g4].copy_from_slice(&ws.dz[s * g4..(s + 1) * g4]);
                ws.x_stage[r * ind..(r + 1) * ind]
                    .copy_from_slice(&ws.x[(t * b + s) * ind..(t * b + s + 1) * ind]);
                ws.h_stage[r * hsz..(r + 1) * hsz].copy_from_slice(&h_prev[s * hsz..(s + 1) * hsz]);
            }
            kernels::gemm(b, g4, hsz, &ws.dz, &self.u, &mut ws.dh);
            if want_input_grads {
                kernels::gemm(
                    b,
                    g4,
                    ind,
                    &ws.dz,
                    &self.w,
                    &mut ws.grad_x[t * b * ind..(t + 1) * b * ind],
                );
            }
            std::mem::swap(&mut ws.dc, &mut ws.dc_prev);
        }
        // Weight gradients in one TN GEMM each: the staged rows are
        // (sample-major, timestep-descending), replaying the per-sequence
        // accumulation order exactly. The bias column sums add skipped
        // zeros too — bit-identical, since the partial sums can never be
        // `-0.0` (chains start at `+0.0` and IEEE addition only yields
        // `-0.0` from two negative-zero operands).
        let rows = b * t_steps;
        for r in 0..rows {
            let dzr = &ws.dz_stage[r * g4..(r + 1) * g4];
            for (gb, &d) in self.grad_b.iter_mut().zip(dzr.iter()) {
                *gb += d;
            }
        }
        kernels::gemm_tn_acc(rows, g4, ind, &ws.dz_stage, &ws.x_stage, &mut self.grad_w);
        kernels::gemm_tn_acc(rows, g4, hsz, &ws.dz_stage, &ws.h_stage, &mut self.grad_u);
    }

    fn cached_steps(&self, data_len: usize, stride: usize) -> usize {
        debug_assert!(stride > 0, "Lstm inference stride must be positive");
        if data_len < self.in_dim {
            return 0;
        }
        debug_assert_eq!(
            (data_len - self.in_dim) % stride,
            0,
            "Lstm inference data length must align with the stride"
        );
        (data_len - self.in_dim) / stride + 1
    }

    fn step_cached(&self, x: &[f64], cache: &mut LstmInferenceCache) {
        let hsz = self.hidden;
        let LstmInferenceCache { z, h, c, .. } = cache;
        for (row, zv) in z.iter_mut().enumerate() {
            let wrow = &self.w[row * self.in_dim..(row + 1) * self.in_dim];
            let urow = &self.u[row * hsz..(row + 1) * hsz];
            *zv = self.b[row] + (vector::dot(wrow, x) + vector::dot(urow, h));
        }
        let sigmoid = |v: f64| 1.0 / (1.0 + (-v).exp());
        for k in 0..hsz {
            let iv = sigmoid(z[k]);
            let fv = sigmoid(z[hsz + k]);
            let gv = z[2 * hsz + k].tanh();
            let ov = sigmoid(z[3 * hsz + k]);
            let cv = fv * c[k] + iv * gv;
            c[k] = cv;
            h[k] = ov * cv.tanh();
        }
    }

    /// Alloc-free inference over a strided window view: timestep `t`
    /// reads `data[t*stride .. t*stride + in_dim]`, so a plain scalar
    /// window (`stride == in_dim == 1`), overlapping patches
    /// (`stride == 1`), and a flat time-major feature sequence
    /// (`stride == in_dim`) all avoid materializing `Vec<Vec<f64>>`
    /// inputs. Returns the final hidden state, bitwise-identical to
    /// [`Lstm::forward_batch`] on the equivalent sequence at B = 1.
    pub fn forward_inference_cached<'a>(
        &self,
        data: &[f64],
        stride: usize,
        cache: &'a mut LstmInferenceCache,
    ) -> &'a [f64] {
        let steps = self.cached_steps(data.len(), stride);
        let hsz = self.hidden;
        cache.z.resize(4 * hsz, 0.0);
        cache.h.resize(hsz, 0.0);
        cache.c.resize(hsz, 0.0);
        cache.h.fill(0.0);
        cache.c.fill(0.0);
        for t in 0..steps {
            self.step_cached(&data[t * stride..t * stride + self.in_dim], cache);
        }
        &cache.h
    }

    /// Like [`Lstm::forward_inference_cached`] but returns the *full*
    /// hidden sequence as a flat `steps x hidden` slice (stacked-LSTM
    /// serving, where the next layer consumes every hidden state).
    pub fn forward_inference_cached_full<'a>(
        &self,
        data: &[f64],
        stride: usize,
        cache: &'a mut LstmInferenceCache,
    ) -> &'a [f64] {
        let steps = self.cached_steps(data.len(), stride);
        let hsz = self.hidden;
        cache.z.resize(4 * hsz, 0.0);
        cache.h.resize(hsz, 0.0);
        cache.c.resize(hsz, 0.0);
        cache.h.fill(0.0);
        cache.c.fill(0.0);
        cache.hs.resize(steps * hsz, 0.0);
        for t in 0..steps {
            self.step_cached(&data[t * stride..t * stride + self.in_dim], cache);
            cache.hs[t * hsz..(t + 1) * hsz].copy_from_slice(&cache.h);
        }
        &cache.hs[..steps * hsz]
    }
}

impl Network for Lstm {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        f(&mut self.w, &mut self.grad_w);
        f(&mut self.u, &mut self.grad_u);
        f(&mut self.b, &mut self.grad_b);
    }
}

/// A bidirectional LSTM: one LSTM reads the sequence forward, another reads
/// it reversed; the output is the concatenation of both final hidden states
/// (length `2 * hidden`).
#[derive(Debug, Clone)]
pub struct BiLstm {
    forward: Lstm,
    backward: Lstm,
}

impl BiLstm {
    /// Creates a bidirectional LSTM; each direction has `hidden` units.
    pub fn new(rng: &mut DetRng, in_dim: usize, hidden: usize) -> Self {
        BiLstm {
            forward: Lstm::new(rng, in_dim, hidden),
            backward: Lstm::new(rng, in_dim, hidden),
        }
    }

    /// Output dimension (`2 * hidden`).
    pub fn out_dim(&self) -> usize {
        2 * self.forward.hidden_dim()
    }

    /// Batched forward pass: stages the reversed windows for the backward
    /// direction from the forward direction's inputs, runs both
    /// directions' stacked-gate passes, and concatenates the final hidden
    /// states into the workspace output (`B x 2H`, sample-major).
    /// Bitwise-identical to the per-sequence reference loop per sample.
    pub fn forward_batch(&self, ws: &mut BiRecurrentWorkspace) {
        let (b, t_steps, ind) = (ws.fwd.batch, ws.fwd.steps, ws.fwd.in_dim);
        let h = self.forward.hidden_dim();
        let block = b * ind;
        for t in 0..t_steps {
            ws.bwd.x[t * block..(t + 1) * block]
                .copy_from_slice(&ws.fwd.x[(t_steps - 1 - t) * block..(t_steps - t) * block]);
        }
        self.forward.forward_batch(&mut ws.fwd);
        self.backward.forward_batch(&mut ws.bwd);
        let (hf, hb) = (ws.fwd.h_last(), ws.bwd.h_last());
        for s in 0..b {
            ws.concat[s * 2 * h..s * 2 * h + h].copy_from_slice(&hf[s * h..(s + 1) * h]);
            ws.concat[s * 2 * h + h..(s + 1) * 2 * h].copy_from_slice(&hb[s * h..(s + 1) * h]);
        }
    }

    /// Batched BPTT from gradients on the concatenated outputs
    /// (`grad_out` is `B x 2H`, sample-major). Splits the per-sample
    /// halves and backpropagates each direction. Input gradients are not
    /// folded across directions — the batched training wiring uses the
    /// recurrent layer as the first layer, so callers pass
    /// `want_input_grads = false`.
    ///
    /// # Panics
    /// Panics when called before [`BiLstm::forward_batch`].
    pub fn backward_batch_last(
        &mut self,
        grad_out: &[f64],
        ws: &mut BiRecurrentWorkspace,
        want_input_grads: bool,
    ) {
        let h = self.forward.hidden_dim();
        let b = ws.fwd.batch;
        debug_assert_eq!(grad_out.len(), b * 2 * h, "BiLstm::backward_batch_last");
        for s in 0..b {
            ws.gfwd[s * h..(s + 1) * h].copy_from_slice(&grad_out[s * 2 * h..s * 2 * h + h]);
            ws.gbwd[s * h..(s + 1) * h].copy_from_slice(&grad_out[s * 2 * h + h..(s + 1) * 2 * h]);
        }
        let BiRecurrentWorkspace {
            fwd,
            bwd,
            gfwd,
            gbwd,
            ..
        } = ws;
        self.forward
            .backward_batch_last(gfwd, fwd, want_input_grads);
        self.backward
            .backward_batch_last(gbwd, bwd, want_input_grads);
    }

    /// Alloc-free single-window inference; see
    /// [`Lstm::forward_inference_cached`] for the strided-view contract.
    /// Returns `[h_fwd ‖ h_bwd]`, bitwise-identical to
    /// [`BiLstm::forward_batch`] on the equivalent sequence at B = 1.
    pub fn forward_inference_cached<'a>(
        &self,
        data: &[f64],
        stride: usize,
        cache: &'a mut BiLstmInferenceCache,
    ) -> &'a [f64] {
        let h = self.forward.hidden_dim();
        let ind = self.forward.in_dim();
        let steps = self.forward.cached_steps(data.len(), stride);
        cache.rev.resize(steps * ind, 0.0);
        for t in 0..steps {
            cache.rev[t * ind..(t + 1) * ind]
                .copy_from_slice(&data[(steps - 1 - t) * stride..(steps - 1 - t) * stride + ind]);
        }
        cache.out.resize(2 * h, 0.0);
        let hf = self
            .forward
            .forward_inference_cached(data, stride, &mut cache.fwd);
        cache.out[..h].copy_from_slice(hf);
        let hb = self
            .backward
            .forward_inference_cached(&cache.rev, ind, &mut cache.bwd);
        cache.out[h..].copy_from_slice(hb);
        &cache.out
    }
}

/// Paired [`RecurrentWorkspace`]s (one per direction) plus the
/// concatenation and gradient-split scratch for the batched [`BiLstm`]
/// path. Callers stage inputs once (forward order); the reversed copies
/// are made inside [`BiLstm::forward_batch`].
#[derive(Debug, Clone, Default)]
pub struct BiRecurrentWorkspace {
    fwd: RecurrentWorkspace,
    bwd: RecurrentWorkspace,
    /// Concatenated final hidden states, `B x 2H`.
    concat: Vec<f64>,
    /// Per-direction gradient halves, `B x H` each.
    gfwd: Vec<f64>,
    gbwd: Vec<f64>,
}

impl BiRecurrentWorkspace {
    /// Creates an empty workspace; buffers are sized on [`stage`].
    ///
    /// [`stage`]: BiRecurrentWorkspace::stage
    pub fn new() -> Self {
        Self::default()
    }

    /// Sizes both directions plus the concat/split scratch.
    pub fn stage(&mut self, batch: usize, steps: usize, in_dim: usize, hidden: usize) {
        self.fwd.stage(batch, steps, in_dim, hidden);
        self.bwd.stage(batch, steps, in_dim, hidden);
        self.concat.resize(batch * 2 * hidden, 0.0);
        self.gfwd.resize(batch * hidden, 0.0);
        self.gbwd.resize(batch * hidden, 0.0);
    }

    /// Copies one sample's input vector for timestep `t` (forward order).
    pub fn set_input(&mut self, s: usize, t: usize, x: &[f64]) {
        self.fwd.set_input(s, t, x);
    }

    /// Concatenated final hidden states after [`BiLstm::forward_batch`]
    /// (`B x 2H`, sample-major).
    pub fn output(&self) -> &[f64] {
        &self.concat
    }
}

impl Network for BiLstm {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        self.forward.visit_params(f);
        self.backward.visit_params(f);
    }
}

/// The per-sequence reference loops: the original one-window-at-a-time
/// training forward and BPTT, which the batched path must match bit for
/// bit. The step caches live on a [`reference::Tape`] that the forward
/// pass returns, not on the layer.
#[cfg(test)]
mod reference {
    use super::{BiLstm, Lstm};

    /// Per-timestep cache of everything the backward pass needs.
    #[derive(Debug, Clone, Default)]
    pub(crate) struct StepCache {
        x: Vec<f64>,
        h_prev: Vec<f64>,
        c_prev: Vec<f64>,
        i: Vec<f64>,
        f: Vec<f64>,
        g: Vec<f64>,
        o: Vec<f64>,
        tanh_c: Vec<f64>,
    }

    /// One sequence's unrolled forward pass, read by the backward pass.
    pub(crate) type Tape = Vec<StepCache>;

    /// The forward and backward directions' tapes of a [`BiLstm`] pass.
    pub(crate) type BiTape = (Tape, Tape);

    impl Lstm {
        /// Runs the sequence and returns the final hidden state plus the
        /// tape for [`Lstm::backward_last`].
        pub(crate) fn forward_sequence(&self, inputs: &[Vec<f64>]) -> (Vec<f64>, Tape) {
            let mut tape = Tape::with_capacity(inputs.len());
            let mut h = vec![0.0; self.hidden];
            let mut c = vec![0.0; self.hidden];
            for x in inputs {
                let (nh, nc, step) = self.step(x, &h, &c);
                tape.push(step);
                h = nh;
                c = nc;
            }
            (h, tape)
        }

        /// Runs the sequence and returns *every* hidden state plus the tape
        /// for [`Lstm::backward_full`]. Used by stacked LSTMs, where the
        /// next layer consumes the full hidden sequence.
        pub(crate) fn forward_sequence_full(&self, inputs: &[Vec<f64>]) -> (Vec<Vec<f64>>, Tape) {
            let mut tape = Tape::with_capacity(inputs.len());
            let mut h = vec![0.0; self.hidden];
            let mut c = vec![0.0; self.hidden];
            let mut out = Vec::with_capacity(inputs.len());
            for x in inputs {
                let (nh, nc, step) = self.step(x, &h, &c);
                tape.push(step);
                h = nh;
                c = nc;
                out.push(h.clone());
            }
            (out, tape)
        }

        fn step(
            &self,
            x: &[f64],
            h_prev: &[f64],
            c_prev: &[f64],
        ) -> (Vec<f64>, Vec<f64>, StepCache) {
            debug_assert_eq!(x.len(), self.in_dim, "Lstm step: input dim");
            let hsz = self.hidden;
            // z = W x + U h_prev + b, gate blocks [i | f | g | o].
            let mut z = self.b.clone();
            for (row, zv) in z.iter_mut().enumerate() {
                let wrow = &self.w[row * self.in_dim..(row + 1) * self.in_dim];
                let urow = &self.u[row * hsz..(row + 1) * hsz];
                *zv += wrow.iter().zip(x.iter()).map(|(a, b)| a * b).sum::<f64>()
                    + urow
                        .iter()
                        .zip(h_prev.iter())
                        .map(|(a, b)| a * b)
                        .sum::<f64>();
            }
            let sigmoid = |v: f64| 1.0 / (1.0 + (-v).exp());
            let i: Vec<f64> = z[..hsz].iter().map(|&v| sigmoid(v)).collect();
            let f: Vec<f64> = z[hsz..2 * hsz].iter().map(|&v| sigmoid(v)).collect();
            let g: Vec<f64> = z[2 * hsz..3 * hsz].iter().map(|&v| v.tanh()).collect();
            let o: Vec<f64> = z[3 * hsz..].iter().map(|&v| sigmoid(v)).collect();
            let c: Vec<f64> = (0..hsz).map(|k| f[k] * c_prev[k] + i[k] * g[k]).collect();
            let tanh_c: Vec<f64> = c.iter().map(|v| v.tanh()).collect();
            let h: Vec<f64> = (0..hsz).map(|k| o[k] * tanh_c[k]).collect();
            let cache = StepCache {
                x: x.to_vec(),
                h_prev: h_prev.to_vec(),
                c_prev: c_prev.to_vec(),
                i,
                f,
                g,
                o,
                tanh_c,
            };
            (h, c, cache)
        }

        /// BPTT from a gradient on the *final* hidden state.
        ///
        /// Accumulates parameter gradients and returns the gradients with
        /// respect to each input vector (same order as the forward inputs).
        pub(crate) fn backward_last(&mut self, tape: &Tape, grad_h_last: &[f64]) -> Vec<Vec<f64>> {
            let steps = tape.len();
            let mut grads = vec![vec![0.0; self.hidden]; steps];
            grads[steps - 1].copy_from_slice(grad_h_last);
            self.backward_full(tape, &grads)
        }

        /// BPTT with a gradient on *every* hidden state (stacked-LSTM case).
        ///
        /// `grad_hs[t]` is the gradient flowing into hidden state `h_t` from
        /// above; returns gradients with respect to each input vector.
        pub(crate) fn backward_full(&mut self, tape: &Tape, grad_hs: &[Vec<f64>]) -> Vec<Vec<f64>> {
            let hsz = self.hidden;
            let steps = tape.len();
            assert_eq!(grad_hs.len(), steps, "one hidden gradient per step");
            let mut grad_inputs = vec![vec![0.0; self.in_dim]; steps];
            let mut dh = vec![0.0; hsz];
            let mut dc_next = vec![0.0; hsz];

            for t in (0..steps).rev() {
                for (d, g) in dh.iter_mut().zip(grad_hs[t].iter()) {
                    *d += g;
                }
                let cache = &tape[t];
                let mut dz = vec![0.0; 4 * hsz]; // pre-activation grads [i|f|g|o]
                let mut dc_prev = vec![0.0; hsz];
                for k in 0..hsz {
                    let do_k = dh[k] * cache.tanh_c[k];
                    let dc =
                        dc_next[k] + dh[k] * cache.o[k] * (1.0 - cache.tanh_c[k] * cache.tanh_c[k]);
                    let di = dc * cache.g[k];
                    let df = dc * cache.c_prev[k];
                    let dg = dc * cache.i[k];
                    dc_prev[k] = dc * cache.f[k];
                    dz[k] = di * cache.i[k] * (1.0 - cache.i[k]);
                    dz[hsz + k] = df * cache.f[k] * (1.0 - cache.f[k]);
                    dz[2 * hsz + k] = dg * (1.0 - cache.g[k] * cache.g[k]);
                    dz[3 * hsz + k] = do_k * cache.o[k] * (1.0 - cache.o[k]);
                }
                // Parameter gradients and input/hidden gradients.
                let mut dh_prev = vec![0.0; hsz];
                for row in 0..4 * hsz {
                    let d = dz[row];
                    // Subgradient sparsity skip: an exact zero contributes nothing to any parameter.
                    if d == 0.0 {
                        continue;
                    }
                    self.grad_b[row] += d;
                    let gw = &mut self.grad_w[row * self.in_dim..(row + 1) * self.in_dim];
                    for (gwi, &xi) in gw.iter_mut().zip(cache.x.iter()) {
                        *gwi += d * xi;
                    }
                    let gu = &mut self.grad_u[row * hsz..(row + 1) * hsz];
                    for (gui, &hi) in gu.iter_mut().zip(cache.h_prev.iter()) {
                        *gui += d * hi;
                    }
                    let wrow = &self.w[row * self.in_dim..(row + 1) * self.in_dim];
                    for (gi, &wv) in grad_inputs[t].iter_mut().zip(wrow.iter()) {
                        *gi += d * wv;
                    }
                    let urow = &self.u[row * hsz..(row + 1) * hsz];
                    for (ghi, &uv) in dh_prev.iter_mut().zip(urow.iter()) {
                        *ghi += d * uv;
                    }
                }
                dh = dh_prev;
                dc_next = dc_prev;
            }
            grad_inputs
        }
    }

    impl BiLstm {
        /// Training forward pass; returns `[h_fwd ‖ h_bwd]` plus both
        /// directions' tapes.
        pub(crate) fn forward_sequence(&self, inputs: &[Vec<f64>]) -> (Vec<f64>, BiTape) {
            let (mut out, fwd) = self.forward.forward_sequence(inputs);
            let reversed: Vec<Vec<f64>> = inputs.iter().rev().cloned().collect();
            let (h_bwd, bwd) = self.backward.forward_sequence(&reversed);
            out.extend(h_bwd);
            (out, (fwd, bwd))
        }

        /// BPTT from a gradient on the concatenated output; returns per-input
        /// gradients in forward order.
        pub(crate) fn backward_last(&mut self, tape: &BiTape, grad_out: &[f64]) -> Vec<Vec<f64>> {
            let h = self.forward.hidden_dim();
            debug_assert_eq!(grad_out.len(), 2 * h);
            let mut grads = self.forward.backward_last(&tape.0, &grad_out[..h]);
            let bwd_grads = self.backward.backward_last(&tape.1, &grad_out[h..]);
            // bwd_grads are in reversed-input order; fold them back.
            for (fwd_idx, g) in bwd_grads.into_iter().rev().enumerate() {
                for (a, b) in grads[fwd_idx].iter_mut().zip(g.iter()) {
                    *a += b;
                }
            }
            grads
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_gradients;

    fn seq(vals: &[f64]) -> Vec<Vec<f64>> {
        vals.iter().map(|&v| vec![v]).collect()
    }

    /// Final hidden state of `inputs` through the serving path.
    fn infer(lstm: &Lstm, inputs: &[Vec<f64>]) -> Vec<f64> {
        let mut cache = LstmInferenceCache::default();
        lstm.forward_inference_cached(&inputs.concat(), lstm.in_dim, &mut cache)
            .to_vec()
    }

    /// `[h_fwd ‖ h_bwd]` of `inputs` through the serving path.
    fn infer_bi(bi: &BiLstm, inputs: &[Vec<f64>]) -> Vec<f64> {
        let mut cache = BiLstmInferenceCache::default();
        bi.forward_inference_cached(&inputs.concat(), bi.forward.in_dim, &mut cache)
            .to_vec()
    }

    /// Runs `forward_batch` on one window as a batch of one; timestep `t`
    /// reads `data[t*stride .. t*stride + in_dim]`.
    fn batch_of_one(lstm: &Lstm, data: &[f64], stride: usize) -> RecurrentWorkspace {
        let steps = (data.len() - lstm.in_dim) / stride + 1;
        let mut ws = RecurrentWorkspace::new();
        ws.stage(1, steps, lstm.in_dim, lstm.hidden);
        for t in 0..steps {
            ws.set_input(0, t, &data[t * stride..t * stride + lstm.in_dim]);
        }
        lstm.forward_batch(&mut ws);
        ws
    }

    #[test]
    fn output_depends_on_order() {
        let mut rng = DetRng::seed_from_u64(2);
        let lstm = Lstm::new(&mut rng, 1, 3);
        let a = infer(&lstm, &seq(&[1.0, 0.0, -1.0]));
        let b = infer(&lstm, &seq(&[-1.0, 0.0, 1.0]));
        assert_ne!(a, b, "LSTM must be order-sensitive");
    }

    #[test]
    fn bptt_gradcheck_weights() {
        let mut rng = DetRng::seed_from_u64(3);
        let mut lstm = Lstm::new(&mut rng, 2, 3);
        let inputs = vec![vec![0.3, -0.1], vec![0.7, 0.2], vec![-0.5, 0.4]];
        // Loss = sum of final hidden state.
        let (_, tape) = lstm.forward_sequence(&inputs);
        let ones = vec![1.0; 3];
        lstm.backward_last(&tape, &ones);

        let n = lstm.param_count();
        let report = check_gradients(
            &mut lstm,
            |l| infer(l, &inputs).iter().sum(),
            &[0, 7, 20, n - 2, n - 1],
            1e-6,
        );
        assert!(report.max_abs_error < 1e-5, "{report:?}");
    }

    #[test]
    fn bptt_gradcheck_inputs() {
        let mut rng = DetRng::seed_from_u64(4);
        let mut lstm = Lstm::new(&mut rng, 1, 2);
        let inputs = seq(&[0.5, -0.3, 0.8, 0.1]);
        let (_, tape) = lstm.forward_sequence(&inputs);
        let gin = lstm.backward_last(&tape, &[1.0, 1.0]);
        let h = 1e-6;
        for t in 0..inputs.len() {
            let mut up = inputs.clone();
            up[t][0] += h;
            let mut dn = inputs.clone();
            dn[t][0] -= h;
            let lu: f64 = infer(&lstm, &up).iter().sum();
            let ld: f64 = infer(&lstm, &dn).iter().sum();
            let numeric = (lu - ld) / (2.0 * h);
            assert!(
                (numeric - gin[t][0]).abs() < 1e-5,
                "input {t}: {numeric} vs {}",
                gin[t][0]
            );
        }
    }

    #[test]
    fn bilstm_concatenates_directions() {
        let mut rng = DetRng::seed_from_u64(6);
        let bi = BiLstm::new(&mut rng, 1, 3);
        let out = infer_bi(&bi, &seq(&[0.1, 0.2, 0.3]));
        assert_eq!(out.len(), 6);
        assert_eq!(bi.out_dim(), 6);
    }

    #[test]
    fn bilstm_gradcheck_inputs() {
        let mut rng = DetRng::seed_from_u64(7);
        let mut bi = BiLstm::new(&mut rng, 1, 2);
        let inputs = seq(&[0.4, -0.6, 0.2]);
        let (_, tape) = bi.forward_sequence(&inputs);
        let gin = bi.backward_last(&tape, &[1.0; 4]);
        let h = 1e-6;
        for t in 0..inputs.len() {
            let mut up = inputs.clone();
            up[t][0] += h;
            let mut dn = inputs.clone();
            dn[t][0] -= h;
            let lu: f64 = infer_bi(&bi, &up).iter().sum();
            let ld: f64 = infer_bi(&bi, &dn).iter().sum();
            let numeric = (lu - ld) / (2.0 * h);
            assert!(
                (numeric - gin[t][0]).abs() < 1e-5,
                "input {t}: {numeric} vs {}",
                gin[t][0]
            );
        }
    }

    /// Upstream gradient on unit `k` of sample `s`'s hidden state at step
    /// `t` of `steps`.
    fn upstream(s: usize, t: usize, k: usize, steps: usize) -> f64 {
        0.1 * (s as f64 + 1.0) - 0.03 * k as f64 - 0.02 * (steps - 1 - t) as f64
    }

    #[test]
    fn backward_batch_full_gradcheck_inputs() {
        let mut rng = DetRng::seed_from_u64(11);
        let mut lstm = Lstm::new(&mut rng, 2, 3);
        let (steps, in_dim, hidden) = (4, 2, 3);
        let wins: Vec<Vec<Vec<f64>>> = (0..2)
            .map(|s| {
                (0..steps)
                    .map(|t| {
                        (0..in_dim)
                            .map(|i| ((s * 8 + t * 2 + i) as f64 * 0.37).sin())
                            .collect()
                    })
                    .collect()
            })
            .collect();
        // Loss = Σ_s Σ_t Σ_k upstream(s, t, k) · h_t[s][k]: a gradient on
        // every hidden state, as a stacked layer above would send.
        let mut ws = RecurrentWorkspace::new();
        ws.stage(wins.len(), steps, in_dim, hidden);
        for (s, win) in wins.iter().enumerate() {
            for (t, x) in win.iter().enumerate() {
                ws.set_input(s, t, x);
            }
        }
        lstm.forward_batch(&mut ws);
        for t in 0..steps {
            for (i, g) in ws.grad_h_mut(t).iter_mut().enumerate() {
                *g = upstream(i / hidden, t, i % hidden, steps);
            }
        }
        lstm.backward_batch_full(&mut ws, true);

        let loss = |s: usize, win: &[Vec<f64>]| -> f64 {
            let mut cache = LstmInferenceCache::default();
            let hs = lstm.forward_inference_cached_full(&win.concat(), in_dim, &mut cache);
            hs.iter()
                .enumerate()
                .map(|(i, h)| upstream(s, i / hidden, i % hidden, steps) * h)
                .sum()
        };
        let h = 1e-6;
        for (s, win) in wins.iter().enumerate() {
            for t in 0..steps {
                for i in 0..in_dim {
                    let mut up = win.clone();
                    up[t][i] += h;
                    let mut dn = win.clone();
                    dn[t][i] -= h;
                    let numeric = (loss(s, &up) - loss(s, &dn)) / (2.0 * h);
                    let analytic = ws.grad_x(t)[s * in_dim + i];
                    assert!(
                        (numeric - analytic).abs() < 1e-5,
                        "sample {s} step {t} input {i}: {numeric} vs {analytic}"
                    );
                }
            }
        }
    }

    fn windows(n: usize, t: usize, in_dim: usize, seed: u64) -> Vec<Vec<Vec<f64>>> {
        (0..n)
            .map(|s| {
                (0..t)
                    .map(|tt| {
                        (0..in_dim)
                            .map(|i| {
                                let q = (s * 31 + tt * 7 + i) as u64;
                                let v = (q.wrapping_mul(6364136223846793005).wrapping_add(seed)
                                    >> 40) as f64
                                    / 1e6
                                    - 4.0;
                                if q.is_multiple_of(5) {
                                    0.0
                                } else {
                                    v
                                }
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn forward_batch_is_bitwise_equal_to_per_sequence() {
        let mut rng = DetRng::seed_from_u64(20);
        let lstm = Lstm::new(&mut rng, 2, 5);
        let wins = windows(3, 4, 2, 99);
        let mut ws = RecurrentWorkspace::new();
        ws.stage(wins.len(), 4, 2, 5);
        for (s, win) in wins.iter().enumerate() {
            for (t, x) in win.iter().enumerate() {
                ws.set_input(s, t, x);
            }
        }
        lstm.forward_batch(&mut ws);
        for (s, win) in wins.iter().enumerate() {
            let (h, _) = lstm.forward_sequence(win);
            assert_eq!(&ws.h_last()[s * 5..(s + 1) * 5], &h[..], "sample {s}");
        }
    }

    #[test]
    fn backward_batch_accumulates_same_grads_as_per_sequence_loop() {
        let mut rng = DetRng::seed_from_u64(21);
        let lstm = Lstm::new(&mut rng, 2, 5);
        let wins = windows(3, 4, 2, 77);
        let steps = 4;
        // `full`: a gradient on every hidden state (`backward_batch_full`,
        // the lower layer of a stack) instead of on the last one only.
        for full in [false, true] {
            let mut batched = lstm.clone();
            let mut reference = lstm.clone();
            let grad = |s: usize, t: usize| -> Vec<f64> {
                (0..5)
                    .map(|k| {
                        if full || t == steps - 1 {
                            upstream(s, t, k, steps)
                        } else {
                            0.0
                        }
                    })
                    .collect()
            };

            let mut ws = RecurrentWorkspace::new();
            ws.stage(wins.len(), steps, 2, 5);
            for (s, win) in wins.iter().enumerate() {
                for (t, x) in win.iter().enumerate() {
                    ws.set_input(s, t, x);
                }
            }
            batched.forward_batch(&mut ws);
            if full {
                for t in 0..steps {
                    let block: Vec<f64> = (0..wins.len()).flat_map(|s| grad(s, t)).collect();
                    ws.grad_h_mut(t).copy_from_slice(&block);
                }
                batched.backward_batch_full(&mut ws, true);
            } else {
                let last: Vec<f64> = (0..wins.len()).flat_map(|s| grad(s, steps - 1)).collect();
                batched.backward_batch_last(&last, &mut ws, true);
            }

            let mut ref_input_grads = Vec::new();
            for (s, win) in wins.iter().enumerate() {
                ref_input_grads.push(if full {
                    let (hs, tape) = reference.forward_sequence_full(win);
                    for (t, h) in hs.iter().enumerate() {
                        assert_eq!(&ws.h_step(t)[s * 5..(s + 1) * 5], &h[..], "h s={s} t={t}");
                    }
                    let grads: Vec<Vec<f64>> = (0..steps).map(|t| grad(s, t)).collect();
                    reference.backward_full(&tape, &grads)
                } else {
                    let (_, tape) = reference.forward_sequence(win);
                    reference.backward_last(&tape, &grad(s, steps - 1))
                });
            }
            assert_eq!(batched.grad_w, reference.grad_w, "full={full}");
            assert_eq!(batched.grad_u, reference.grad_u, "full={full}");
            assert_eq!(batched.grad_b, reference.grad_b, "full={full}");
            for (s, gin) in ref_input_grads.iter().enumerate() {
                for (t, g) in gin.iter().enumerate() {
                    assert_eq!(
                        &ws.grad_x(t)[s * 2..(s + 1) * 2],
                        &g[..],
                        "full={full} sample {s} step {t}"
                    );
                }
            }
        }
    }

    #[test]
    fn cached_inference_is_bitwise_equal_to_forward_batch_of_one() {
        let mut rng = DetRng::seed_from_u64(22);
        let lstm = Lstm::new(&mut rng, 1, 4);
        let data = [0.3, -0.7, 0.0, 0.9, 0.2];
        let ws = batch_of_one(&lstm, &data, 1);
        let mut cache = LstmInferenceCache::default();
        let h = lstm.forward_inference_cached(&data, 1, &mut cache);
        assert_eq!(h, ws.h_last());
        let hs = lstm.forward_inference_cached_full(&data, 1, &mut cache);
        let expect: Vec<f64> = (0..data.len())
            .flat_map(|t| ws.h_step(t).to_vec())
            .collect();
        assert_eq!(hs, &expect[..]);
    }

    #[test]
    fn cached_inference_strided_patches_match_forward_batch() {
        let mut rng = DetRng::seed_from_u64(23);
        let lstm = Lstm::new(&mut rng, 3, 4);
        let data = [0.3, -0.7, 0.0, 0.9, 0.2, -0.4, 0.6];
        // stride 1 with in_dim 3 ⇒ overlapping patches (Conv-LSTM view).
        let ws = batch_of_one(&lstm, &data, 1);
        let mut cache = LstmInferenceCache::default();
        let h = lstm.forward_inference_cached(&data, 1, &mut cache);
        assert_eq!(h, ws.h_last());
    }

    #[test]
    fn bilstm_batched_matches_per_sequence_bitwise() {
        let mut rng = DetRng::seed_from_u64(24);
        let mut batched = BiLstm::new(&mut rng, 1, 3);
        let mut reference = batched.clone();
        let wins = windows(4, 5, 1, 55);
        let mut ws = BiRecurrentWorkspace::new();
        ws.stage(wins.len(), 5, 1, 3);
        for (s, win) in wins.iter().enumerate() {
            for (t, x) in win.iter().enumerate() {
                ws.set_input(s, t, x);
            }
        }
        batched.forward_batch(&mut ws);
        let grad: Vec<f64> = (0..wins.len() * 6).map(|i| 0.01 * i as f64 - 0.1).collect();
        batched.backward_batch_last(&grad, &mut ws, false);

        for (s, win) in wins.iter().enumerate() {
            let (out, tape) = reference.forward_sequence(win);
            assert_eq!(&ws.output()[s * 6..(s + 1) * 6], &out[..], "sample {s}");
            reference.backward_last(&tape, &grad[s * 6..(s + 1) * 6]);
        }
        let flat = |n: &mut dyn Network| {
            let mut g = Vec::new();
            n.visit_params(&mut |_p, gr| g.extend_from_slice(gr));
            g
        };
        assert_eq!(flat(&mut batched), flat(&mut reference));

        assert_eq!(infer_bi(&batched, &wins[1]), &ws.output()[6..12]);
    }

    #[test]
    #[should_panic(expected = "before forward_batch")]
    fn backward_batch_before_forward_panics() {
        let mut rng = DetRng::seed_from_u64(25);
        let mut lstm = Lstm::new(&mut rng, 1, 2);
        let mut ws = RecurrentWorkspace::new();
        ws.stage(1, 3, 1, 2);
        lstm.backward_batch_last(&[0.5, 0.5], &mut ws, false);
    }

    #[test]
    fn forget_bias_initialized_to_one() {
        let mut rng = DetRng::seed_from_u64(8);
        let lstm = Lstm::new(&mut rng, 1, 4);
        assert!(lstm.b[4..8].iter().all(|&v| v == 1.0));
        assert!(lstm.b[..4].iter().all(|&v| v == 0.0));
    }
}
