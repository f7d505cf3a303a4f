//! Benchmarks for the fused stacked-gate recurrent training path:
//! windows-as-matrix LSTM/BiLSTM training epochs and the im2col Conv1d
//! batch pass.
//!
//! Takes the harness flags (`--quick`, `--json`, `--out <p>`; see
//! [`eadrl_bench::harness`]) and declares no gates.
//!
//! Each epoch sample runs [`N_WINDOWS`] synthetic windows through
//! `N_WINDOWS / batch` optimizer steps via `iter_batched` with freshly
//! seeded networks per sample, so every sample traverses the same weight
//! trajectory, sees the same activation sparsity, and is deterministic.
//! The measurement protocol is documented in `EXPERIMENTS.md`.

use eadrl_bench::harness::Harness;
use eadrl_linalg::Matrix;
use eadrl_nn::{
    mse_loss_grad, Activation, Adam, BiLstm, BiRecurrentWorkspace, Conv1d, ConvWorkspace, Dense,
    Lstm, Network, RecurrentWorkspace,
};
use eadrl_rng::DetRng;
use std::hint::black_box;

/// Windows per training epoch (each sample times one full epoch).
const N_WINDOWS: usize = 128;
/// Forecaster-representative shapes: scalar inputs over a k=12 embedded
/// window, hidden width 8 (the pool members run h ∈ [6, 20]).
const STEPS: usize = 12;
const HIDDEN: usize = 8;

fn dataset(seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = DetRng::seed_from_u64(seed);
    let windows: Vec<Vec<f64>> = (0..N_WINDOWS)
        .map(|i| {
            (0..STEPS)
                .map(|t| {
                    // Structured zeros exercise the kernels' zero-skip
                    // branches at a realistic post-ReLU-like density.
                    if (i + t) % 5 == 0 {
                        0.0
                    } else {
                        rng.random_range(-1.0..1.0)
                    }
                })
                .collect()
        })
        .collect();
    let targets: Vec<f64> = (0..N_WINDOWS)
        .map(|_| rng.random_range(-1.0..1.0))
        .collect();
    (windows, targets)
}

/// Recurrent layer + head as one parameter group (mirrors the models
/// crate wiring).
struct Stack<'a, R: Network>(&'a mut R, &'a mut Dense);

impl<R: Network> Network for Stack<'_, R> {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        self.0.visit_params(f);
        self.1.visit_params(f);
    }
}

fn fresh_lstm() -> (Lstm, Dense, Adam) {
    let mut rng = DetRng::seed_from_u64(21);
    let lstm = Lstm::new(&mut rng, 1, HIDDEN);
    let head = Dense::new(&mut rng, HIDDEN, 1, Activation::Identity);
    (lstm, head, Adam::new(0.01))
}

fn fresh_bilstm() -> (BiLstm, Dense, Adam) {
    let mut rng = DetRng::seed_from_u64(23);
    let bi = BiLstm::new(&mut rng, 1, HIDDEN);
    let head = Dense::new(&mut rng, 2 * HIDDEN, 1, Activation::Identity);
    (bi, head, Adam::new(0.01))
}

/// One `lstm_epoch_batchN` group per batch size.
fn bench_lstm_epoch(c: &mut Harness, batch_sizes: &[usize]) {
    let (windows, targets) = dataset(0x5EED);
    let idx: Vec<usize> = (0..N_WINDOWS).collect();
    for &batch in batch_sizes {
        let mut group = c.benchmark_group(format!("lstm_epoch_batch{batch}"));
        group.bench_function("batched", |b| {
            b.iter_batched(
                || {
                    let nets = fresh_lstm();
                    (
                        nets,
                        RecurrentWorkspace::new(),
                        Matrix::default(),
                        Matrix::default(),
                    )
                },
                |((lstm, head, opt), ws, hb, gb)| {
                    for chunk in idx.chunks(batch) {
                        let mut g = Stack(lstm, head);
                        g.zero_grad();
                        let n = chunk.len();
                        ws.stage(n, STEPS, 1, HIDDEN);
                        for (s, &i) in chunk.iter().enumerate() {
                            for (t, v) in windows[i].iter().enumerate() {
                                ws.set_input(s, t, std::slice::from_ref(v));
                            }
                        }
                        g.0.forward_batch(ws);
                        hb.resize(n, HIDDEN);
                        hb.data_mut().copy_from_slice(ws.h_last());
                        gb.resize(n, 1);
                        {
                            let out = g.1.forward_batch(hb);
                            for (r, &i) in chunk.iter().enumerate() {
                                let gr = mse_loss_grad(out.row(r), &[targets[i]]);
                                gb.row_mut(r).copy_from_slice(&gr);
                            }
                        }
                        let gh = g.1.backward_batch(gb);
                        g.0.backward_batch_last(gh.data(), ws, false);
                        g.clip_grad_norm(5.0);
                        opt.step(&mut g);
                    }
                    black_box(lstm.flat_params()[0])
                },
            );
        });
    }
}

/// BiLSTM epoch at one representative batch size.
fn bench_bilstm_epoch(c: &mut Harness, batch: usize) {
    let (windows, targets) = dataset(0xB15);
    let idx: Vec<usize> = (0..N_WINDOWS).collect();
    let mut group = c.benchmark_group(format!("bilstm_epoch_batch{batch}"));
    group.bench_function("batched", |b| {
        b.iter_batched(
            || {
                let nets = fresh_bilstm();
                (
                    nets,
                    BiRecurrentWorkspace::new(),
                    Matrix::default(),
                    Matrix::default(),
                )
            },
            |((bi, head, opt), ws, hb, gb)| {
                for chunk in idx.chunks(batch) {
                    let mut g = Stack(bi, head);
                    g.zero_grad();
                    let n = chunk.len();
                    ws.stage(n, STEPS, 1, HIDDEN);
                    for (s, &i) in chunk.iter().enumerate() {
                        for (t, v) in windows[i].iter().enumerate() {
                            ws.set_input(s, t, std::slice::from_ref(v));
                        }
                    }
                    g.0.forward_batch(ws);
                    hb.resize(n, 2 * HIDDEN);
                    hb.data_mut().copy_from_slice(ws.output());
                    gb.resize(n, 1);
                    {
                        let out = g.1.forward_batch(hb);
                        for (r, &i) in chunk.iter().enumerate() {
                            let gr = mse_loss_grad(out.row(r), &[targets[i]]);
                            gb.row_mut(r).copy_from_slice(&gr);
                        }
                    }
                    let gh = g.1.backward_batch(gb);
                    g.0.backward_batch_last(gh.data(), ws, false);
                    g.clip_grad_norm(5.0);
                    opt.step(&mut g);
                }
                black_box(bi.flat_params()[0])
            },
        );
    });
}

/// Conv1d forward+backward over one staged batch through the im2col GEMM
/// path (weights-only backward — the CNN-LSTM wiring discards conv input
/// gradients).
fn bench_conv_batch(c: &mut Harness, batch: usize) {
    let (windows, _) = dataset(0xC0);
    let (oc, k, in_len) = (4, 3, STEPS);
    let t_out = in_len - k + 1;
    let mut rng = DetRng::seed_from_u64(29);
    let conv_seed = Conv1d::new(&mut rng, 1, oc, k, Activation::Relu);
    let mut group = c.benchmark_group(format!("conv_fwd_bwd_c{oc}_k{k}_batch{batch}"));
    group.bench_function("batched", |b| {
        b.iter_batched(
            || (conv_seed.clone(), ConvWorkspace::new()),
            |(conv, ws)| {
                conv.zero_grad();
                conv.stage_batch(ws, batch, in_len);
                for (s, w) in windows.iter().take(batch).enumerate() {
                    ws.input_mut(s).copy_from_slice(w);
                }
                conv.forward_batch(ws);
                for s in 0..batch {
                    for t in 0..t_out {
                        let y: Vec<f64> = ws.output_row(s, t).to_vec();
                        let grow = ws.grad_output_row_mut(s, t);
                        for (gv, yv) in grow.iter_mut().zip(&y) {
                            *gv = yv - 0.25;
                        }
                    }
                }
                conv.backward_batch_weights_only(ws);
                black_box(conv.grad_norm())
            },
        );
    });
}

fn main() {
    let mut h = Harness::new("recurrent");
    bench_lstm_epoch(&mut h, &[16, 32, 64]);
    bench_bilstm_epoch(&mut h, 64);
    bench_conv_batch(&mut h, 64);
    h.finish(&[]);
}
