//! Differential proof that the fused batched recurrent paths are drop-in
//! replacements for the per-sequence reference loops (the `reference`
//! modules beside [`Lstm`], [`BiLstm`] and [`Conv1d`]).
//!
//! Each test trains two identically seeded stacks through full epoch
//! loops with Adam — one through the per-sequence loops, one through the
//! windows-as-matrix workspace paths — and asserts the post-update
//! parameters and subsequent predictions are **bitwise** equal
//! (`assert_eq!` on `f64`, no tolerance). Chunk size 7 exercises odd and
//! ragged minibatches. The suite runs under the CI `EADRL_PAR_THREADS`
//! matrix {1, 4}; nothing here is thread-count sensitive, which is
//! exactly the claim — the batched kernels are sequential-deterministic.

use crate::{
    mse_loss_grad, Activation, Adam, BiLstm, BiLstmInferenceCache, BiRecurrentWorkspace, Conv1d,
    ConvWorkspace, Dense, Lstm, LstmInferenceCache, Network, RecurrentWorkspace,
};
use eadrl_linalg::Matrix;
use eadrl_rng::DetRng;

const CHUNK: usize = 7;

/// Deterministic windows with structured zeros (to exercise the
/// zero-skip branches of the kernels) plus scalar targets.
fn dataset(n: usize, len: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = DetRng::seed_from_u64(seed);
    let windows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            (0..len)
                .map(|t| {
                    if (i + t) % 5 == 0 {
                        0.0
                    } else {
                        rng.random_range(-1.0..1.0)
                    }
                })
                .collect()
        })
        .collect();
    let targets: Vec<f64> = (0..n).map(|_| rng.random_range(-1.0..1.0)).collect();
    (windows, targets)
}

/// Recurrent layer + linear head trained as one parameter group, so the
/// optimizer's positional moment buffers line up between the two paths.
struct Stack<'a, R: Network>(&'a mut R, &'a mut Dense);

impl<R: Network> Network for Stack<'_, R> {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f64], &mut [f64])) {
        self.0.visit_params(f);
        self.1.visit_params(f);
    }
}

fn flat<N: Network>(n: &mut N) -> Vec<f64> {
    n.flat_params()
}

#[test]
fn lstm_training_epochs_batched_equals_per_sequence_bitwise() {
    let (windows, targets) = dataset(19, 6, 0xA1);
    let steps = windows[0].len();
    let hidden = 5;

    // Reference: per-sequence loops.
    let mut rng = DetRng::seed_from_u64(7);
    let mut lstm_a = Lstm::new(&mut rng, 1, hidden);
    let mut head_a = Dense::new(&mut rng, hidden, 1, Activation::Identity);
    let mut opt_a = Adam::new(0.01);
    for _ in 0..3 {
        for chunk in (0..windows.len()).collect::<Vec<_>>().chunks(CHUNK) {
            let mut group = Stack(&mut lstm_a, &mut head_a);
            group.zero_grad();
            for &i in chunk {
                let seq: Vec<Vec<f64>> = windows[i].iter().map(|&v| vec![v]).collect();
                let (h, tape) = group.0.forward_sequence(&seq);
                let y = group.1.forward(&h);
                let g = mse_loss_grad(&y, &[targets[i]]);
                let gh = group.1.backward(&g);
                group.0.backward_last(&tape, &gh);
            }
            group.clip_grad_norm(5.0);
            opt_a.step(&mut group);
        }
    }

    // Candidate: fused batched path over the same data and chunking.
    let mut rng = DetRng::seed_from_u64(7);
    let mut lstm_b = Lstm::new(&mut rng, 1, hidden);
    let mut head_b = Dense::new(&mut rng, hidden, 1, Activation::Identity);
    let mut opt_b = Adam::new(0.01);
    let mut ws = RecurrentWorkspace::new();
    let mut hb = Matrix::default();
    let mut gb = Matrix::default();
    for _ in 0..3 {
        for chunk in (0..windows.len()).collect::<Vec<_>>().chunks(CHUNK) {
            let mut group = Stack(&mut lstm_b, &mut head_b);
            group.zero_grad();
            let n = chunk.len();
            ws.stage(n, steps, 1, hidden);
            for (s, &i) in chunk.iter().enumerate() {
                for (t, v) in windows[i].iter().enumerate() {
                    ws.set_input(s, t, std::slice::from_ref(v));
                }
            }
            group.0.forward_batch(&mut ws);
            hb.resize(n, hidden);
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
            opt_b.step(&mut group);
        }
    }

    assert_eq!(flat(&mut lstm_a), flat(&mut lstm_b), "LSTM params diverged");
    assert_eq!(flat(&mut head_a), flat(&mut head_b), "head params diverged");

    // Predictions: the per-sequence forward vs the strided zero-alloc cache.
    let mut cache = LstmInferenceCache::default();
    for w in &windows {
        let seq: Vec<Vec<f64>> = w.iter().map(|&v| vec![v]).collect();
        let (h_ref, _) = lstm_a.forward_sequence(&seq);
        let y_ref = head_a.forward_inference(&h_ref);
        let h = lstm_b.forward_inference_cached(w, 1, &mut cache);
        let mut y = [0.0];
        head_b.forward_inference_into(h, &mut y);
        assert_eq!(h_ref.as_slice(), h, "hidden state diverged");
        assert_eq!(y_ref[0], y[0], "prediction diverged");
    }
}

#[test]
fn bilstm_training_epochs_batched_equals_per_sequence_bitwise() {
    let (windows, targets) = dataset(17, 5, 0xB2);
    let steps = windows[0].len();
    let hidden = 4;

    let mut rng = DetRng::seed_from_u64(11);
    let mut bi_a = BiLstm::new(&mut rng, 1, hidden);
    let mut head_a = Dense::new(&mut rng, 2 * hidden, 1, Activation::Identity);
    let mut opt_a = Adam::new(0.01);
    for _ in 0..2 {
        for chunk in (0..windows.len()).collect::<Vec<_>>().chunks(CHUNK) {
            let mut group = Stack(&mut bi_a, &mut head_a);
            group.zero_grad();
            for &i in chunk {
                let seq: Vec<Vec<f64>> = windows[i].iter().map(|&v| vec![v]).collect();
                let (h, tape) = group.0.forward_sequence(&seq);
                let y = group.1.forward(&h);
                let g = mse_loss_grad(&y, &[targets[i]]);
                let gh = group.1.backward(&g);
                group.0.backward_last(&tape, &gh);
            }
            group.clip_grad_norm(5.0);
            opt_a.step(&mut group);
        }
    }

    let mut rng = DetRng::seed_from_u64(11);
    let mut bi_b = BiLstm::new(&mut rng, 1, hidden);
    let mut head_b = Dense::new(&mut rng, 2 * hidden, 1, Activation::Identity);
    let mut opt_b = Adam::new(0.01);
    let mut ws = BiRecurrentWorkspace::new();
    let mut hb = Matrix::default();
    let mut gb = Matrix::default();
    for _ in 0..2 {
        for chunk in (0..windows.len()).collect::<Vec<_>>().chunks(CHUNK) {
            let mut group = Stack(&mut bi_b, &mut head_b);
            group.zero_grad();
            let n = chunk.len();
            ws.stage(n, steps, 1, hidden);
            for (s, &i) in chunk.iter().enumerate() {
                for (t, v) in windows[i].iter().enumerate() {
                    ws.set_input(s, t, std::slice::from_ref(v));
                }
            }
            group.0.forward_batch(&mut ws);
            hb.resize(n, 2 * hidden);
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
            opt_b.step(&mut group);
        }
    }

    assert_eq!(flat(&mut bi_a), flat(&mut bi_b), "BiLSTM params diverged");
    assert_eq!(flat(&mut head_a), flat(&mut head_b), "head params diverged");

    let mut cache = BiLstmInferenceCache::default();
    for w in &windows {
        let seq: Vec<Vec<f64>> = w.iter().map(|&v| vec![v]).collect();
        let (h_ref, _) = bi_a.forward_sequence(&seq);
        let h = bi_b.forward_inference_cached(w, 1, &mut cache);
        assert_eq!(h_ref.as_slice(), h, "bi-directional output diverged");
    }
}

#[test]
fn conv_training_steps_batched_equals_per_sample_bitwise() {
    let (windows, _) = dataset(13, 8, 0xC3);
    let (oc, k) = (3, 2);
    let t_out = windows[0].len() - k + 1;

    let mut rng = DetRng::seed_from_u64(13);
    let mut conv_a = Conv1d::new(&mut rng, 1, oc, k, Activation::Relu);
    let mut opt_a = Adam::new(0.01);
    let mut rng = DetRng::seed_from_u64(13);
    let mut conv_b = Conv1d::new(&mut rng, 1, oc, k, Activation::Relu);
    let mut opt_b = Adam::new(0.01);
    let mut ws = ConvWorkspace::new();

    for _ in 0..3 {
        for chunk in (0..windows.len()).collect::<Vec<_>>().chunks(CHUNK) {
            // Per-sample reference. The synthetic upstream gradient is a
            // deterministic function of position (structured zeros again).
            conv_a.zero_grad();
            for &i in chunk {
                let (y, tape) = conv_a.forward(&[windows[i].clone()]);
                let g: Vec<Vec<f64>> = (0..oc)
                    .map(|c| {
                        (0..t_out)
                            .map(|t| {
                                if (c + t + i) % 4 == 0 {
                                    0.0
                                } else {
                                    y[c][t] - 0.25
                                }
                            })
                            .collect()
                    })
                    .collect();
                conv_a.backward(&tape, &g);
            }
            conv_a.clip_grad_norm(5.0);
            opt_a.step(&mut conv_a);

            // Batched candidate, same windows and same upstream grads.
            conv_b.zero_grad();
            let n = chunk.len();
            conv_b.stage_batch(&mut ws, n, windows[0].len());
            for (s, &i) in chunk.iter().enumerate() {
                ws.input_mut(s).copy_from_slice(&windows[i]);
            }
            conv_b.forward_batch(&mut ws);
            for (s, &i) in chunk.iter().enumerate() {
                for t in 0..t_out {
                    let row: Vec<f64> = ws.output_row(s, t).to_vec();
                    let grow = ws.grad_output_row_mut(s, t);
                    for (c, g) in grow.iter_mut().enumerate() {
                        *g = if (c + t + i) % 4 == 0 {
                            0.0
                        } else {
                            row[c] - 0.25
                        };
                    }
                }
            }
            conv_b.backward_batch_weights_only(&mut ws);
            conv_b.clip_grad_norm(5.0);
            opt_b.step(&mut conv_b);
        }
    }

    assert_eq!(
        flat(&mut conv_a),
        flat(&mut conv_b),
        "Conv1d params diverged"
    );
}
