//! 1-D convolution layer (valid padding, stride 1).
//!
//! All arithmetic routes through the `eadrl_linalg` kernels. Training has
//! one path for any batch size B ≥ 1 ([`Conv1d::forward_batch`] /
//! [`Conv1d::backward_batch_weights_only`]): it stages every window's
//! receptive fields as an im2col matrix and runs one bias-seeded NT GEMM
//! plus one `gemm_tn_acc` for the weight gradients. Serving reads one
//! window through [`Conv1d::forward_inference_cached`], a bias-seeded
//! `gemm_acc` per output position. Each output's accumulation chain starts
//! at `b[oc]` and adds products in ascending `(ic, k)` order — the exact
//! per-element chain of the original per-sample loops, which are kept as
//! `#[cfg(test)]` reference code at the end of this file; the crate's
//! `recurrent_equivalence` tests prove the paths bitwise-identical.

use crate::activation::Activation;
use crate::init;
use crate::network::Network;
use eadrl_linalg::kernels;
use eadrl_rng::DetRng;

/// Persistent buffers for the batched conv training path: staged inputs,
/// the im2col receptive-field matrix, pre/post-activation outputs, and the
/// gradient staging. Grown with `Vec::resize` on
/// [`Conv1d::stage_batch`] and reused across minibatches — zero
/// steady-state allocations.
#[derive(Debug, Clone, Default)]
pub struct ConvWorkspace {
    batch: usize,
    in_len: usize,
    out_len: usize,
    in_channels: usize,
    out_channels: usize,
    patch: usize,
    /// Staged inputs, `B x (in_ch * in_len)` (channel-major per sample).
    input: Vec<f64>,
    /// im2col matrix, `(B * out_len) x (in_ch * kernel)`; row `s*T + t`
    /// holds window `s`'s receptive field at output position `t`.
    xc: Vec<f64>,
    /// Post-activation outputs, `(B * out_len) x out_ch`.
    y: Vec<f64>,
    /// Upstream output gradients (staged by the caller), then overwritten
    /// in place with the pre-activation gradients `dz`.
    dy: Vec<f64>,
}

impl ConvWorkspace {
    /// Creates an empty workspace; buffers are sized on
    /// [`Conv1d::stage_batch`].
    pub fn new() -> Self {
        Self::default()
    }

    /// One sample's staged input (`in_ch * in_len`, channel-major).
    pub fn input_mut(&mut self, s: usize) -> &mut [f64] {
        let w = self.in_channels * self.in_len;
        &mut self.input[s * w..(s + 1) * w]
    }

    /// Output row for window `s` at output position `t` (`out_ch` values),
    /// valid after [`Conv1d::forward_batch`].
    pub fn output_row(&self, s: usize, t: usize) -> &[f64] {
        let r = s * self.out_len + t;
        &self.y[r * self.out_channels..(r + 1) * self.out_channels]
    }

    /// Upstream-gradient row for window `s` at output position `t`, staged
    /// by the caller before [`Conv1d::backward_batch_weights_only`].
    pub fn grad_output_row_mut(&mut self, s: usize, t: usize) -> &mut [f64] {
        let r = s * self.out_len + t;
        &mut self.dy[r * self.out_channels..(r + 1) * self.out_channels]
    }
}

/// Reusable buffers for the alloc-free single-window inference path
/// ([`Conv1d::forward_inference_cached`]).
#[derive(Debug, Clone, Default)]
pub struct ConvInferenceCache {
    /// Time-major output, `out_len x out_ch`.
    y: Vec<f64>,
}

/// A 1-D convolution `out[c][t] = act(b[c] + Σ_ci Σ_k w[c][ci][k] · in[ci][t+k])`.
///
/// Valid padding, stride 1: an input of length `L` yields outputs of length
/// `L - kernel + 1`. Staged inputs are channel-major per sample; outputs
/// are time-major rows of `out_ch` values. This is the feature extractor of
/// the CNN-LSTM base forecaster.
#[derive(Debug, Clone)]
pub struct Conv1d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    activation: Activation,
    /// Weights laid out `[out_ch][in_ch][k]`.
    w: Vec<f64>,
    b: Vec<f64>,
    grad_w: Vec<f64>,
    grad_b: Vec<f64>,
}

impl Conv1d {
    /// Creates a convolution layer.
    ///
    /// # Panics
    /// Panics when `kernel == 0`.
    pub fn new(
        rng: &mut DetRng,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        activation: Activation,
    ) -> Self {
        assert!(kernel > 0, "Conv1d kernel must be positive");
        let fan_in = in_channels * kernel;
        let n = out_channels * fan_in;
        let w = match activation {
            Activation::Relu => init::he_uniform(rng, fan_in, n),
            _ => init::xavier_uniform(rng, fan_in, out_channels * kernel, n),
        };
        Conv1d {
            in_channels,
            out_channels,
            kernel,
            activation,
            w,
            b: vec![0.0; out_channels],
            grad_w: vec![0.0; n],
            grad_b: vec![0.0; out_channels],
        }
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Output length for an input of length `len` (0 when too short).
    pub fn out_len(&self, len: usize) -> usize {
        (len + 1).saturating_sub(self.kernel)
    }

    /// Sizes the workspace for a batch of `batch` windows of length
    /// `in_len` each. Growth-only; re-staging allocates nothing in steady
    /// state.
    pub fn stage_batch(&self, ws: &mut ConvWorkspace, batch: usize, in_len: usize) {
        debug_assert!(in_len >= self.kernel, "Conv1d: input shorter than kernel");
        let out_len = self.out_len(in_len);
        ws.batch = batch;
        ws.in_len = in_len;
        ws.out_len = out_len;
        ws.in_channels = self.in_channels;
        ws.out_channels = self.out_channels;
        ws.patch = self.in_channels * self.kernel;
        ws.input.resize(batch * self.in_channels * in_len, 0.0);
        ws.xc.resize(batch * out_len * ws.patch, 0.0);
        ws.y.resize(batch * out_len * self.out_channels, 0.0);
        ws.dy.resize(batch * out_len * self.out_channels, 0.0);
    }

    /// Batched forward pass over the windows staged in `ws`: one im2col
    /// gather plus one bias-seeded NT GEMM for the whole minibatch.
    /// Output rows land in the workspace time-major per sample
    /// ([`ConvWorkspace::output_row`]); bitwise-identical to running the
    /// per-sample reference loop on each window.
    pub fn forward_batch(&self, ws: &mut ConvWorkspace) {
        let mut span = eadrl_obs::span_at(eadrl_obs::Level::Trace, "nn.conv.forward_batch");
        span.record("rows", ws.batch.into());
        let (b, t_out, ick, oc) = (ws.batch, ws.out_len, ws.patch, self.out_channels);
        let rows = b * t_out;
        for s in 0..b {
            let sample = &ws.input[s * self.in_channels * ws.in_len..];
            for t in 0..t_out {
                let r = (s * t_out + t) * ick;
                for ic in 0..self.in_channels {
                    ws.xc[r + ic * self.kernel..r + (ic + 1) * self.kernel].copy_from_slice(
                        &sample[ic * ws.in_len + t..ic * ws.in_len + t + self.kernel],
                    );
                }
            }
        }
        // Seed every output row with the bias so each element's
        // accumulation chain starts at b[oc], as in the per-sample loop.
        for r in 0..rows {
            ws.y[r * oc..(r + 1) * oc].copy_from_slice(&self.b);
        }
        kernels::gates_gemm_acc(rows, ick, oc, &ws.xc, &self.w, &mut ws.y);
        self.activation.apply_in_place(&mut ws.y[..rows * oc]);
    }

    /// Batched backward pass accumulating *parameter* gradients only; the
    /// caller stages upstream gradients via
    /// [`ConvWorkspace::grad_output_row_mut`]. Input gradients are not
    /// produced — in the CNN-LSTM wiring the convolution is the first
    /// layer, so nothing consumes them.
    pub fn backward_batch_weights_only(&mut self, ws: &mut ConvWorkspace) {
        let mut span = eadrl_obs::span_at(eadrl_obs::Level::Trace, "nn.conv.backward_batch");
        span.record("rows", ws.batch.into());
        let (b, t_out, ick, oc) = (ws.batch, ws.out_len, ws.patch, self.out_channels);
        let rows = b * t_out;
        // dz = dy ⊙ act'(y), in place over the staged upstream gradients.
        for (d, &y) in ws.dy[..rows * oc].iter_mut().zip(ws.y[..rows * oc].iter()) {
            *d *= self.activation.derivative_from_output(y);
        }
        // Bias gradients as ascending-row column sums. The per-sample loop
        // skips dz == 0.0 rows; adding them is bit-identical because the
        // partial sums can never be -0.0 (chains start at +0.0 and IEEE
        // addition only yields -0.0 from two negative-zero operands).
        for r in 0..rows {
            let dzr = &ws.dy[r * oc..(r + 1) * oc];
            for (gb, &d) in self.grad_b.iter_mut().zip(dzr.iter()) {
                *gb += d;
            }
        }
        kernels::gemm_tn_acc(rows, oc, ick, &ws.dy, &ws.xc, &mut self.grad_w);
    }

    /// Alloc-free single-window inference for the single-input-channel
    /// case: returns the *time-major* output (`out_len x out_ch` flat),
    /// ready to be consumed as a strided LSTM input sequence. Values are
    /// bitwise-identical to [`Conv1d::forward_batch`] at B = 1.
    pub fn forward_inference_cached<'a>(
        &self,
        window: &[f64],
        cache: &'a mut ConvInferenceCache,
    ) -> &'a [f64] {
        debug_assert_eq!(
            self.in_channels, 1,
            "cached conv inference is single-channel"
        );
        debug_assert!(
            window.len() >= self.kernel,
            "Conv1d: input shorter than kernel"
        );
        let t_out = self.out_len(window.len());
        let oc = self.out_channels;
        cache.y.resize(t_out * oc, 0.0);
        for t in 0..t_out {
            let row = &mut cache.y[t * oc..(t + 1) * oc];
            row.copy_from_slice(&self.b);
            kernels::gemm_acc(
                oc,
                self.kernel,
                1,
                &self.w,
                &window[t..t + self.kernel],
                row,
            );
            self.activation.apply_in_place(row);
        }
        &cache.y[..t_out * oc]
    }
}

impl Network for Conv1d {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        f(&mut self.w, &mut self.grad_w);
        f(&mut self.b, &mut self.grad_b);
    }
}

/// The per-sample reference loops: the original one-window-at-a-time
/// training forward and backward (with input gradients), which the
/// batched path must match bit for bit. The forward pass returns a
/// [`reference::Tape`] instead of caching on the layer.
#[cfg(test)]
mod reference {
    use super::Conv1d;
    use eadrl_linalg::{kernels, vector};

    /// One forward pass's input and output, read by the backward pass.
    pub(crate) struct Tape {
        input: Vec<Vec<f64>>,
        output: Vec<Vec<f64>>,
    }

    impl Conv1d {
        fn weight(&self, oc: usize, ic: usize, k: usize) -> f64 {
            self.w[(oc * self.in_channels + ic) * self.kernel + k]
        }

        /// Gathers the receptive field at output position `t` into `patch`
        /// (`in_ch * kernel`, matching the weight layout `[ic][k]`).
        fn gather_patch(&self, input: &[Vec<f64>], t: usize, patch: &mut [f64]) {
            for (ic, ich) in input.iter().enumerate() {
                patch[ic * self.kernel..(ic + 1) * self.kernel]
                    .copy_from_slice(&ich[t..t + self.kernel]);
            }
        }

        /// Training forward pass over one channel-major window; returns the
        /// channel-major output plus the tape for [`Conv1d::backward`].
        ///
        /// Each output column is a bias-seeded `gemm_acc` over the gathered
        /// receptive field: the accumulation chain for `out[oc][t]` starts at
        /// `b[oc]` and adds products in ascending `(ic, k)` order, exactly as
        /// the original scalar loops did.
        pub(crate) fn forward(&self, input: &[Vec<f64>]) -> (Vec<Vec<f64>>, Tape) {
            debug_assert_eq!(input.len(), self.in_channels, "Conv1d: channel count");
            let len = input.first().map_or(0, Vec::len);
            debug_assert!(len >= self.kernel, "Conv1d: input shorter than kernel");
            let out_len = self.out_len(len);
            let ick = self.in_channels * self.kernel;
            let mut out = vec![vec![0.0; out_len]; self.out_channels];
            let mut patch = vec![0.0; ick];
            let mut col = vec![0.0; self.out_channels];
            for t in 0..out_len {
                self.gather_patch(input, t, &mut patch);
                col.copy_from_slice(&self.b);
                kernels::gemm_acc(self.out_channels, ick, 1, &self.w, &patch, &mut col);
                for (och, &s) in out.iter_mut().zip(col.iter()) {
                    och[t] = self.activation.apply(s);
                }
            }
            let tape = Tape {
                input: input.to_vec(),
                output: out.clone(),
            };
            (out, tape)
        }

        /// Backward pass: accumulates parameter gradients and returns input
        /// gradients (channel-major, same shape as the forward input).
        ///
        /// Weight gradients route through `vector::axpy` over the gathered
        /// receptive field (per weight element the contributions stay in
        /// ascending-`t` order). The input-gradient scatter stays scalar: its
        /// writes overlap across output positions, so a col2im GEMM would
        /// reorder the accumulation.
        pub(crate) fn backward(&mut self, tape: &Tape, grad_output: &[Vec<f64>]) -> Vec<Vec<f64>> {
            debug_assert_eq!(grad_output.len(), self.out_channels);
            let in_len = tape.input[0].len();
            let ick = self.in_channels * self.kernel;
            let mut grad_input = vec![vec![0.0; in_len]; self.in_channels];
            let mut patch = vec![0.0; ick];
            let out_len = self.out_len(in_len);
            for t in 0..out_len {
                self.gather_patch(&tape.input, t, &mut patch);
                for oc in 0..self.out_channels {
                    let gy = grad_output[oc][t];
                    let y = tape.output[oc][t];
                    let dz = gy * self.activation.derivative_from_output(y);
                    // ReLU subgradient: an exact zero means no gradient flows, so the skip is lossless.
                    if dz == 0.0 {
                        continue;
                    }
                    self.grad_b[oc] += dz;
                    vector::axpy(dz, &patch, &mut self.grad_w[oc * ick..(oc + 1) * ick]);
                    for ic in 0..self.in_channels {
                        for k in 0..self.kernel {
                            grad_input[ic][t + k] += dz * self.weight(oc, ic, k);
                        }
                    }
                }
            }
            grad_input
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_gradients;

    #[test]
    fn output_length_is_valid_conv() {
        let mut rng = DetRng::seed_from_u64(0);
        let conv = Conv1d::new(&mut rng, 1, 2, 3, Activation::Identity);
        assert_eq!(conv.out_len(5), 3);
        assert_eq!(conv.out_len(3), 1);
        assert_eq!(conv.out_len(2), 0);
        let mut cache = ConvInferenceCache::default();
        let out = conv.forward_inference_cached(&[1.0, 2.0, 3.0, 4.0, 5.0], &mut cache);
        assert_eq!(out.len(), 3 * 2);
    }

    #[test]
    fn identity_kernel_copies_input() {
        let mut rng = DetRng::seed_from_u64(1);
        let mut conv = Conv1d::new(&mut rng, 1, 1, 1, Activation::Identity);
        conv.w = vec![1.0];
        conv.b = vec![0.0];
        let mut cache = ConvInferenceCache::default();
        let out = conv.forward_inference_cached(&[3.0, -1.0, 4.0], &mut cache);
        assert_eq!(out, &[3.0, -1.0, 4.0]);
    }

    #[test]
    fn moving_average_kernel() {
        let mut rng = DetRng::seed_from_u64(2);
        let mut conv = Conv1d::new(&mut rng, 1, 1, 2, Activation::Identity);
        conv.w = vec![0.5, 0.5];
        conv.b = vec![0.0];
        let mut cache = ConvInferenceCache::default();
        let out = conv.forward_inference_cached(&[1.0, 3.0, 5.0], &mut cache);
        assert_eq!(out, &[2.0, 4.0]);
    }

    #[test]
    fn gradcheck_weights_and_inputs() {
        let mut rng = DetRng::seed_from_u64(3);
        let mut conv = Conv1d::new(&mut rng, 2, 2, 2, Activation::Tanh);
        let input = vec![vec![0.2, -0.4, 0.6, 0.1], vec![0.5, 0.3, -0.2, 0.8]];
        let (out, tape) = conv.forward(&input);
        let ones: Vec<Vec<f64>> = out.iter().map(|c| vec![1.0; c.len()]).collect();
        let gin = conv.backward(&tape, &ones);

        let loss = |c: &Conv1d, inp: &[Vec<f64>]| -> f64 {
            c.forward(inp).0.iter().flat_map(|ch| ch.iter()).sum()
        };
        let h = 1e-6;
        // Weight gradients.
        let n = conv.param_count();
        let report = check_gradients(&mut conv, |c| loss(c, &input), &[0, 3, 7, n - 1], h);
        assert!(report.max_abs_error < 1e-5, "{report:?}");
        // Input gradients.
        for ic in 0..2 {
            for t in 0..4 {
                let mut up = input.clone();
                up[ic][t] += h;
                let mut dn = input.clone();
                dn[ic][t] -= h;
                let numeric = (loss(&conv, &up) - loss(&conv, &dn)) / (2.0 * h);
                assert!(
                    (numeric - gin[ic][t]).abs() < 1e-5,
                    "in[{ic}][{t}]: {numeric} vs {}",
                    gin[ic][t]
                );
            }
        }
    }

    #[test]
    fn batched_forward_and_backward_match_per_sample_bitwise() {
        let mut rng = DetRng::seed_from_u64(5);
        let mut batched = Conv1d::new(&mut rng, 1, 3, 3, Activation::Relu);
        let mut reference = batched.clone();
        let wins: Vec<Vec<f64>> = (0..4)
            .map(|s| {
                (0..7)
                    .map(|t| ((s * 13 + t * 5) % 11) as f64 * 0.3 - 1.2)
                    .collect()
            })
            .collect();
        let t_out = batched.out_len(7);

        let mut ws = ConvWorkspace::new();
        batched.stage_batch(&mut ws, wins.len(), 7);
        for (s, win) in wins.iter().enumerate() {
            ws.input_mut(s).copy_from_slice(win);
        }
        batched.forward_batch(&mut ws);
        // Upstream gradients: arbitrary but deterministic, some zeros.
        for s in 0..wins.len() {
            for t in 0..t_out {
                let row = ws.grad_output_row_mut(s, t);
                for (ocv, g) in row.iter_mut().enumerate() {
                    *g = if (s + t + ocv) % 3 == 0 {
                        0.0
                    } else {
                        0.1 * (s as f64 + 1.0) - 0.05 * (t + ocv) as f64
                    };
                }
            }
        }
        // Per-sample reference over the same data and gradients.
        for (s, win) in wins.iter().enumerate() {
            let (out, tape) = reference.forward(std::slice::from_ref(win));
            for t in 0..t_out {
                for oc in 0..3 {
                    assert_eq!(ws.output_row(s, t)[oc], out[oc][t], "y s={s} t={t} oc={oc}");
                }
            }
            let gy: Vec<Vec<f64>> = (0..3)
                .map(|oc| {
                    (0..t_out)
                        .map(|t| {
                            if (s + t + oc) % 3 == 0 {
                                0.0
                            } else {
                                0.1 * (s as f64 + 1.0) - 0.05 * (t + oc) as f64
                            }
                        })
                        .collect()
                })
                .collect();
            reference.backward(&tape, &gy);
        }
        batched.backward_batch_weights_only(&mut ws);
        assert_eq!(batched.grad_w, reference.grad_w);
        assert_eq!(batched.grad_b, reference.grad_b);
    }

    #[test]
    fn cached_inference_is_bitwise_equal_to_forward_batch_of_one() {
        let mut rng = DetRng::seed_from_u64(6);
        let conv = Conv1d::new(&mut rng, 1, 4, 2, Activation::Relu);
        let window = [0.4, -0.2, 0.9, 0.0, -0.7, 0.3];
        let mut cache = ConvInferenceCache::default();
        let y = conv.forward_inference_cached(&window, &mut cache);
        let mut ws = ConvWorkspace::new();
        conv.stage_batch(&mut ws, 1, window.len());
        ws.input_mut(0).copy_from_slice(&window);
        conv.forward_batch(&mut ws);
        for t in 0..conv.out_len(window.len()) {
            assert_eq!(&y[t * 4..(t + 1) * 4], ws.output_row(0, t), "t={t}");
        }
    }

    #[test]
    #[should_panic(expected = "kernel must be positive")]
    fn zero_kernel_panics() {
        let mut rng = DetRng::seed_from_u64(4);
        let _ = Conv1d::new(&mut rng, 1, 1, 0, Activation::Identity);
    }
}
