//! Finite-difference gradient checking for [`Network`] implementations.
//!
//! Manual-backprop code has exactly one failure mode that silently ruins
//! everything downstream: a wrong gradient. This module packages the
//! central-difference check used throughout this crate's tests as a public
//! utility, so anyone adding a custom layer can verify it the same way.

use crate::network::Network;

/// Outcome of a gradient check.
#[derive(Debug, Clone, PartialEq)]
pub struct GradCheckReport {
    /// Parameters checked.
    pub checked: usize,
    /// Largest absolute difference between analytic and numeric gradients.
    pub max_abs_error: f64,
    /// Index (into the flat parameter vector) of the worst parameter.
    pub worst_index: usize,
}

/// Checks the analytic gradients currently stored in `network` against
/// central finite differences of `loss`.
///
/// The caller is responsible for having run the forward + backward pass
/// that populated the gradients (and for `loss` recomputing the *same*
/// scalar loss from scratch — typically a closure over the same inputs
/// and targets). `indices` selects which flat-parameter entries to probe;
/// probing all of them is O(2·|θ|) loss evaluations, so tests usually
/// sample a handful.
///
/// A probe whose analytic or numeric gradient is NaN counts as the worst
/// error: the report then carries `max_abs_error = NaN`, which fails any
/// `max_abs_error < tol` check.
///
/// # Panics
/// Panics when an index is out of range.
pub fn check_gradients<N: Network>(
    network: &mut N,
    loss: impl Fn(&mut N) -> f64,
    indices: &[usize],
    step: f64,
) -> GradCheckReport {
    let flat = network.flat_params();
    let mut grads = Vec::with_capacity(flat.len());
    network.visit_params(&mut |_p, g| grads.extend_from_slice(g));
    assert_eq!(flat.len(), grads.len(), "params/grads disagree");

    let mut max_abs_error: f64 = 0.0;
    let mut worst_index = 0;
    for &idx in indices {
        assert!(idx < flat.len(), "gradcheck index {idx} out of range");
        let mut up = flat.clone();
        up[idx] += step;
        network.load_flat_params(&up);
        let lu = loss(network);
        let mut down = flat.clone();
        down[idx] -= step;
        network.load_flat_params(&down);
        let ld = loss(network);
        let numeric = (lu - ld) / (2.0 * step);
        let err = (numeric - grads[idx]).abs();
        // `err > NaN` is false, so the first NaN is kept once recorded.
        if err > max_abs_error || (err.is_nan() && !max_abs_error.is_nan()) {
            max_abs_error = err;
            worst_index = idx;
        }
    }
    network.load_flat_params(&flat);
    GradCheckReport {
        checked: indices.len(),
        max_abs_error,
        worst_index,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::loss::{mse_loss, mse_loss_grad};
    use crate::mlp::Mlp;
    use eadrl_rng::DetRng;

    /// Evenly spaced probe indices covering a parameter vector.
    fn probe_indices(param_count: usize, probes: usize) -> Vec<usize> {
        let probes = probes.min(param_count);
        (0..probes)
            .map(|i| i * (param_count - 1) / probes.max(1))
            .collect()
    }

    #[test]
    fn mlp_gradients_pass_the_check() {
        let mut rng = DetRng::seed_from_u64(3);
        let mut mlp = Mlp::new(&mut rng, &[3, 5, 2], Activation::Tanh, Activation::Identity);
        let x = [0.3, -0.7, 0.5];
        let target = [1.0, -0.5];
        let y = mlp.forward(&x);
        let g = mse_loss_grad(&y, &target);
        mlp.zero_grad();
        mlp.forward(&x);
        mlp.backward(&g);

        let n = mlp.param_count();
        let indices = probe_indices(n, 12);
        let report = check_gradients(
            &mut mlp,
            |net| mse_loss(&net.forward_inference(&x), &target),
            &indices,
            1e-6,
        );
        assert!(report.max_abs_error <= 1e-5, "{report:?}");
        assert_eq!(report.checked, 12);
    }

    #[test]
    fn corrupted_gradients_fail_the_check() {
        let mut rng = DetRng::seed_from_u64(4);
        let mut mlp = Mlp::new(&mut rng, &[2, 3, 1], Activation::Tanh, Activation::Identity);
        let x = [0.5, -0.5];
        let target = [2.0];
        let y = mlp.forward(&x);
        let g = mse_loss_grad(&y, &target);
        mlp.backward(&g);
        // Sabotage: add garbage to every gradient.
        mlp.visit_params(&mut |_p, grads| {
            for v in grads.iter_mut() {
                *v += 1.0;
            }
        });
        let n = mlp.param_count();
        let report = check_gradients(
            &mut mlp,
            |net| mse_loss(&net.forward_inference(&x), &target),
            &probe_indices(n, 6),
            1e-6,
        );
        assert!(report.max_abs_error > 1e-5);
        assert!(report.max_abs_error > 0.5);
    }

    #[test]
    fn nan_gradients_fail_the_check() {
        let mut rng = DetRng::seed_from_u64(5);
        let mut mlp = Mlp::new(&mut rng, &[2, 3, 1], Activation::Tanh, Activation::Identity);
        let x = [0.5, -0.5];
        let target = [2.0];
        let y = mlp.forward(&x);
        let g = mse_loss_grad(&y, &target);
        mlp.backward(&g);
        let loss = |net: &mut Mlp| mse_loss(&net.forward_inference(&x), &target);
        let n = mlp.param_count();
        let indices = probe_indices(n, 6);
        assert!(check_gradients(&mut mlp, loss, &indices, 1e-6).max_abs_error < 1e-5);

        // A NaN numeric gradient (the loss itself is NaN) fails.
        let report = check_gradients(&mut mlp, |_| f64::NAN, &indices, 1e-6);
        assert!(report.max_abs_error.is_nan(), "{report:?}");
        assert_eq!(report.worst_index, indices[0]);

        // A NaN analytic gradient at one probe fails, even though the
        // probes after it are accurate.
        let bad = indices[2];
        let mut offset = 0;
        mlp.visit_params(&mut |_p, grads| {
            if (offset..offset + grads.len()).contains(&bad) {
                grads[bad - offset] = f64::NAN;
            }
            offset += grads.len();
        });
        let report = check_gradients(&mut mlp, loss, &indices, 1e-6);
        assert!(report.max_abs_error.is_nan(), "{report:?}");
        assert_eq!(report.worst_index, bad);
    }

    #[test]
    fn per_sample_and_batched_checks_agree_bitwise() {
        use eadrl_linalg::Matrix;

        let mut rng = DetRng::seed_from_u64(3);
        let mut mlp = Mlp::new(&mut rng, &[3, 5, 2], Activation::Tanh, Activation::Identity);
        let xs = [[0.3, -0.7, 0.5], [0.9, 0.1, -0.2]];
        let targets = [[1.0, -0.5], [0.0, 0.25]];
        let total_loss = |net: &mut Mlp| -> f64 {
            xs.iter()
                .zip(targets.iter())
                .map(|(x, t)| mse_loss(&net.forward_inference(x), t))
                .sum()
        };

        // Per-sample path: forward/backward each row in order.
        mlp.zero_grad();
        let mut grad_rows = Vec::new();
        for (x, t) in xs.iter().zip(targets.iter()) {
            let y = mlp.forward(x);
            let g = mse_loss_grad(&y, t);
            mlp.backward(&g);
            grad_rows.push(g);
        }
        let indices = probe_indices(mlp.param_count(), 12);
        let per_sample = check_gradients(&mut mlp, total_loss, &indices, 1e-6);
        assert!(per_sample.max_abs_error <= 1e-5, "{per_sample:?}");

        // Batched path over the same rows, same loss, same probes.
        let input = Matrix::from_rows(&xs.iter().map(|x| x.to_vec()).collect::<Vec<_>>()).unwrap();
        let gout = Matrix::from_rows(&grad_rows).unwrap();
        mlp.zero_grad();
        mlp.forward_batch(&input);
        mlp.backward_batch(&gout);
        let batched = check_gradients(&mut mlp, total_loss, &indices, 1e-6);
        assert!(batched.max_abs_error <= 1e-5, "{batched:?}");
        assert_eq!(
            per_sample, batched,
            "batched gradcheck must reproduce the per-sample report bitwise"
        );
    }

    #[test]
    fn lstm_fused_batched_backward_passes_the_check() {
        use crate::lstm::{Lstm, LstmInferenceCache, RecurrentWorkspace};

        let mut rng = DetRng::seed_from_u64(11);
        let mut lstm = Lstm::new(&mut rng, 1, 4);
        let windows: Vec<Vec<f64>> = (0..3)
            .map(|i| (0..5).map(|t| ((i * 5 + t) as f64 * 0.37).sin()).collect())
            .collect();

        // Populate the gradients through the fused batched BPTT path,
        // with upstream gradient dL/dh = h, i.e. L = Σ_s ½‖h_last‖².
        let mut ws = RecurrentWorkspace::new();
        ws.stage(windows.len(), 5, 1, 4);
        for (s, w) in windows.iter().enumerate() {
            for (t, v) in w.iter().enumerate() {
                ws.set_input(s, t, std::slice::from_ref(v));
            }
        }
        lstm.zero_grad();
        lstm.forward_batch(&mut ws);
        let grad: Vec<f64> = ws.h_last().to_vec();
        lstm.backward_batch_last(&grad, &mut ws, false);

        let loss = |net: &mut Lstm| -> f64 {
            let mut cache = LstmInferenceCache::default();
            windows
                .iter()
                .map(|w| {
                    let h = net.forward_inference_cached(w, 1, &mut cache);
                    0.5 * h.iter().map(|v| v * v).sum::<f64>()
                })
                .sum()
        };
        let indices = probe_indices(lstm.param_count(), 16);
        let report = check_gradients(&mut lstm, loss, &indices, 1e-6);
        assert!(report.max_abs_error <= 1e-5, "{report:?}");
        assert_eq!(report.checked, 16);
    }

    #[test]
    fn conv_fused_batched_backward_passes_the_check() {
        use crate::conv::{Conv1d, ConvInferenceCache, ConvWorkspace};

        let mut rng = DetRng::seed_from_u64(12);
        let mut conv = Conv1d::new(&mut rng, 1, 3, 2, Activation::Tanh);
        let windows: Vec<Vec<f64>> = (0..2)
            .map(|i| (0..6).map(|t| ((i * 6 + t) as f64 * 0.53).cos()).collect())
            .collect();
        let t_out = 6 - 2 + 1;

        // Fused im2col forward + weights-only backward, with upstream
        // gradient dL/dy = y, i.e. L = Σ ½‖y‖² over the whole batch.
        let mut ws = ConvWorkspace::new();
        conv.stage_batch(&mut ws, windows.len(), 6);
        for (s, w) in windows.iter().enumerate() {
            ws.input_mut(s).copy_from_slice(w);
        }
        conv.zero_grad();
        conv.forward_batch(&mut ws);
        for s in 0..windows.len() {
            for t in 0..t_out {
                let y: Vec<f64> = ws.output_row(s, t).to_vec();
                ws.grad_output_row_mut(s, t).copy_from_slice(&y);
            }
        }
        conv.backward_batch_weights_only(&mut ws);

        let loss = |net: &mut Conv1d| -> f64 {
            let mut cache = ConvInferenceCache::default();
            windows
                .iter()
                .map(|w| {
                    let y = net.forward_inference_cached(w, &mut cache);
                    0.5 * y.iter().map(|v| v * v).sum::<f64>()
                })
                .sum()
        };
        let indices = probe_indices(conv.param_count(), 9);
        let report = check_gradients(&mut conv, loss, &indices, 1e-6);
        assert!(report.max_abs_error <= 1e-5, "{report:?}");
    }
}
