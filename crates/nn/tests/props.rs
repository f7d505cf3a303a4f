//! Property-based tests for the neural-network substrate.

use eadrl_linalg::Matrix;
use eadrl_nn::{Activation, Adam, Dense, Lstm, LstmInferenceCache, Mlp, Network};
use eadrl_ptest::prelude::*;
use eadrl_rng::DetRng;

/// Deterministic input rows for the batch-equivalence properties.
fn random_rows(rng: &mut DetRng, batch: usize, dim: usize) -> Vec<Vec<f64>> {
    (0..batch)
        .map(|_| (0..dim).map(|_| rng.random_range(-2.0..2.0)).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn dense_gradients_match_finite_differences(
        seed in 0u64..1000,
        input in prop::collection::vec(-2.0f64..2.0, 3),
    ) {
        let mut rng = DetRng::seed_from_u64(seed);
        let mut layer = Dense::new(&mut rng, 3, 2, Activation::Tanh);
        layer.forward(&input);
        let gin = layer.backward(&[1.0, -0.5]);
        let loss = |l: &Dense, x: &[f64]| -> f64 {
            let y = l.forward_inference(x);
            y[0] - 0.5 * y[1]
        };
        let h = 1e-6;
        for i in 0..3 {
            let mut up = input.clone();
            up[i] += h;
            let mut dn = input.clone();
            dn[i] -= h;
            let numeric = (loss(&layer, &up) - loss(&layer, &dn)) / (2.0 * h);
            prop_assert!((numeric - gin[i]).abs() < 1e-5);
        }
    }

    #[test]
    fn mlp_flat_param_roundtrip_preserves_outputs(
        seed in 0u64..1000,
        input in prop::collection::vec(-3.0f64..3.0, 4),
    ) {
        let mut rng = DetRng::seed_from_u64(seed);
        let mut a = Mlp::new(&mut rng, &[4, 6, 2], Activation::Relu, Activation::Identity);
        let mut rng2 = DetRng::seed_from_u64(seed.wrapping_add(1));
        let mut b = Mlp::new(&mut rng2, &[4, 6, 2], Activation::Relu, Activation::Identity);
        b.load_flat_params(&a.flat_params());
        prop_assert_eq!(a.forward_inference(&input), b.forward_inference(&input));
    }

    #[test]
    fn clip_grad_norm_enforces_the_bound(
        seed in 0u64..1000,
        grad in prop::collection::vec(-100.0f64..100.0, 2),
        bound in 0.1f64..10.0,
    ) {
        let mut rng = DetRng::seed_from_u64(seed);
        let mut mlp = Mlp::new(&mut rng, &[2, 4, 2], Activation::Tanh, Activation::Identity);
        mlp.forward(&[1.0, -1.0]);
        mlp.backward(&grad);
        mlp.clip_grad_norm(bound);
        prop_assert!(mlp.grad_norm() <= bound + 1e-9);
    }

    #[test]
    fn adam_steps_keep_parameters_finite(
        seed in 0u64..1000,
        targets in prop::collection::vec(-10.0f64..10.0, 1..8),
    ) {
        let mut rng = DetRng::seed_from_u64(seed);
        let mut mlp = Mlp::new(&mut rng, &[1, 4, 1], Activation::Tanh, Activation::Identity);
        let mut opt = Adam::new(0.05);
        for (i, &t) in targets.iter().enumerate() {
            mlp.zero_grad();
            let y = mlp.forward(&[i as f64 / 4.0]);
            mlp.backward(&[2.0 * (y[0] - t)]);
            opt.step(&mut mlp);
        }
        prop_assert!(mlp.flat_params().iter().all(|p| p.is_finite()));
    }

    #[test]
    fn soft_update_interpolates(seed in 0u64..1000, tau in 0.0f64..1.0) {
        let mut rng = DetRng::seed_from_u64(seed);
        let mut net = Mlp::new(&mut rng, &[2, 3, 1], Activation::Relu, Activation::Identity);
        let before = net.flat_params();
        let source: Vec<f64> = before.iter().map(|v| v + 1.0).collect();
        net.soft_update_from(&source, tau);
        for ((b, s), a) in before.iter().zip(source.iter()).zip(net.flat_params().iter()) {
            let expect = tau * s + (1.0 - tau) * b;
            prop_assert!((a - expect).abs() < 1e-12);
        }
    }

    /// The batch contract, bitwise: `forward_batch(rows)` must equal
    /// `rows.map(forward)` for random shapes and batch sizes, through both
    /// a single layer and a deep MLP (ReLU exercises the exact-zero
    /// sparsity fast path in the GEMM kernels).
    #[test]
    fn forward_batch_is_bitwise_map_of_forward(
        seed in 0u64..1000,
        batch in 1usize..9,
        in_dim in 1usize..7,
        hidden in 1usize..9,
        out_dim in 1usize..5,
    ) {
        let mut rng = DetRng::seed_from_u64(seed);
        let rows = random_rows(&mut rng, batch, in_dim);
        let input = Matrix::from_rows(&rows).unwrap();

        let mut dense = Dense::new(&mut rng, in_dim, out_dim, Activation::Relu);
        let per: Vec<Vec<f64>> = rows.iter().map(|x| dense.forward(x)).collect();
        let out = dense.forward_batch(&input);
        for (r, expect) in per.iter().enumerate() {
            let got: Vec<u64> = out.row(r).iter().map(|v| v.to_bits()).collect();
            let want: Vec<u64> = expect.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(got, want, "dense row {}", r);
        }

        let mut mlp = Mlp::new(&mut rng, &[in_dim, hidden, out_dim], Activation::Relu, Activation::Identity);
        let per: Vec<Vec<f64>> = rows.iter().map(|x| mlp.forward(x)).collect();
        let out = mlp.forward_batch(&input);
        for (r, expect) in per.iter().enumerate() {
            let got: Vec<u64> = out.row(r).iter().map(|v| v.to_bits()).collect();
            let want: Vec<u64> = expect.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(got, want, "mlp row {}", r);
        }
    }

    /// Batched backward must leave gradient buffers bitwise equal to
    /// per-sample forward/backward pairs run in row order.
    #[test]
    fn backward_batch_accumulates_bitwise_per_sample_grads(
        seed in 0u64..1000,
        batch in 1usize..9,
        in_dim in 1usize..6,
        out_dim in 1usize..5,
    ) {
        let mut rng = DetRng::seed_from_u64(seed);
        let rows = random_rows(&mut rng, batch, in_dim);
        let grads = random_rows(&mut rng, batch, out_dim);

        let mut per = Mlp::new(&mut rng, &[in_dim, 5, out_dim], Activation::Tanh, Activation::Identity);
        let mut bat = per.clone();

        let mut per_gin = Vec::new();
        for (x, g) in rows.iter().zip(grads.iter()) {
            per.forward(x);
            per_gin.push(per.backward(g));
        }

        let input = Matrix::from_rows(&rows).unwrap();
        let gout = Matrix::from_rows(&grads).unwrap();
        bat.forward_batch(&input);
        let gin = bat.backward_batch(&gout);
        for (r, expect) in per_gin.iter().enumerate() {
            let got: Vec<u64> = gin.row(r).iter().map(|v| v.to_bits()).collect();
            let want: Vec<u64> = expect.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(got, want, "grad_input row {}", r);
        }

        let mut pg = Vec::new();
        per.visit_params(&mut |_p, g| pg.extend(g.iter().map(|v| v.to_bits())));
        let mut bg = Vec::new();
        bat.visit_params(&mut |_p, g| bg.extend(g.iter().map(|v| v.to_bits())));
        prop_assert_eq!(pg, bg, "parameter gradients diverged");

        // The input-only backward must return the same input-gradient bits
        // while leaving every parameter gradient untouched.
        let mut io = bat.clone();
        io.zero_grad();
        io.forward_batch(&input);
        let gin_io = io.backward_batch_input_only(&gout);
        for (r, expect) in per_gin.iter().enumerate() {
            let got: Vec<u64> = gin_io.row(r).iter().map(|v| v.to_bits()).collect();
            let want: Vec<u64> = expect.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(got, want, "input-only grad_input row {}", r);
        }
        let mut untouched = true;
        io.visit_params(&mut |_p, g| untouched &= g.iter().all(|&v| v == 0.0));
        prop_assert!(untouched, "input-only backward wrote parameter gradients");

        // The weights-only backward must accumulate bitwise-identical
        // parameter gradients (it merely skips the discarded layer-0
        // input gradient).
        let mut wo = bat.clone();
        wo.zero_grad();
        wo.forward_batch(&input);
        wo.backward_batch_weights_only(&gout);
        let mut wg = Vec::new();
        wo.visit_params(&mut |_p, g| wg.extend(g.iter().map(|v| v.to_bits())));
        prop_assert_eq!(wg, bg, "weights-only parameter gradients diverged");
    }

    #[test]
    fn lstm_is_deterministic_and_finite(
        seed in 0u64..1000,
        inputs in prop::collection::vec(-5.0f64..5.0, 1..12),
    ) {
        let mut rng = DetRng::seed_from_u64(seed);
        let lstm = Lstm::new(&mut rng, 1, 4);
        let a = lstm.forward_inference_cached(&inputs, 1, &mut LstmInferenceCache::default()).to_vec();
        let b = lstm.forward_inference_cached(&inputs, 1, &mut LstmInferenceCache::default()).to_vec();
        prop_assert_eq!(&a, &b);
        prop_assert!(a.iter().all(|v| v.is_finite()));
        // Hidden states are bounded by the tanh output gate.
        prop_assert!(a.iter().all(|v| v.abs() <= 1.0));
    }
}
