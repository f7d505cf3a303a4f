//! Property-based tests over cross-crate invariants.

use eadrl::core::baselines::{
    Clus, Demsc, Ewa, FixedShare, MlPol, Ogd, SlidingWindowEnsemble, StaticEnsemble, TopSel,
};
use eadrl::core::env::normalize_window;
use eadrl::core::experiment::sanitize_predictions;
use eadrl::core::Combiner;
use eadrl::rl::ActionSquash;
use eadrl::timeseries::metrics::{mae, rmse};
use eadrl::timeseries::transform::{difference, undifference, Scaler, ZScoreScaler};
use eadrl_ptest::prelude::*;

fn finite_vec(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_linear_combiner_emits_simplex_weights(
        stream in prop::collection::vec(
            (finite_vec(3..4), -100.0f64..100.0), 1..40),
    ) {
        let combiners: Vec<Box<dyn Combiner>> = vec![
            Box::new(StaticEnsemble::new()),
            Box::new(SlidingWindowEnsemble::new(5)),
            Box::new(Ewa::new(0.5)),
            Box::new(FixedShare::new(0.5, 0.05)),
            Box::new(Ogd::new(0.5)),
            Box::new(MlPol::new()),
            Box::new(TopSel::new(5, 0.5)),
            Box::new(Clus::new(5, 2, 0)),
            Box::new(Demsc::new(5, 0.5, 2, 0)),
        ];
        for mut c in combiners {
            for (preds, actual) in &stream {
                c.observe(preds, *actual);
                let w = c.weights(3);
                prop_assert_eq!(w.len(), 3);
                let sum: f64 = w.iter().sum();
                prop_assert!((sum - 1.0).abs() < 1e-6,
                    "{}: weights sum to {sum}", c.name());
                prop_assert!(w.iter().all(|&x| x >= -1e-9),
                    "{}: negative weight", c.name());
            }
        }
    }

    #[test]
    fn squash_outputs_are_valid_simplex_points(
        raw in finite_vec(1..20),
        scale in 0.5f64..10.0,
    ) {
        for squash in [ActionSquash::Softmax, ActionSquash::BoundedSoftmax { scale }] {
            let y = squash.forward(&raw);
            prop_assert_eq!(y.len(), raw.len());
            prop_assert!((y.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            prop_assert!(y.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn normalize_window_is_shift_and_scale_invariant(
        window in prop::collection::vec(-1e3f64..1e3, 2..20),
        shift in -1e3f64..1e3,
        scale in 0.1f64..100.0,
    ) {
        let base = normalize_window(&window);
        let transformed: Vec<f64> = window.iter().map(|v| v * scale + shift).collect();
        let normed = normalize_window(&transformed);
        for (a, b) in base.iter().zip(normed.iter()) {
            // Invariance only holds when the window is not (near-)constant.
            let spread = window.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
                - window.iter().cloned().fold(f64::INFINITY, f64::min);
            if spread > 1e-6 {
                prop_assert!((a - b).abs() < 1e-6, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn sanitize_predictions_bounds_everything(
        mut preds in prop::collection::vec(finite_vec(1..6), 1..20),
        reference in prop::collection::vec(-1e3f64..1e3, 2..50),
    ) {
        // Make rows rectangular.
        let m = preds.iter().map(Vec::len).min().unwrap_or(1);
        for row in preds.iter_mut() {
            row.truncate(m);
        }
        sanitize_predictions(&mut preds, &reference);
        let lo = reference.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = reference.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let range = (hi - lo).max(1e-9);
        for row in &preds {
            for &v in row {
                prop_assert!(v.is_finite());
                prop_assert!(v >= lo - 3.0 * range - 1e-9);
                prop_assert!(v <= hi + 3.0 * range + 1e-9);
            }
        }
    }

    #[test]
    fn zscore_scaler_roundtrips(values in prop::collection::vec(-1e6f64..1e6, 1..100)) {
        let scaler = ZScoreScaler::fit(&values);
        for &v in &values {
            let back = scaler.inverse(scaler.transform(v));
            prop_assert!((back - v).abs() < 1e-6 * v.abs().max(1.0));
        }
    }

    #[test]
    fn difference_roundtrips(
        values in prop::collection::vec(-1e4f64..1e4, 3..60),
        d in 1usize..3,
    ) {
        prop_assume!(values.len() > d);
        let diffed = difference(&values, d);
        let rebuilt = undifference(&values[..d], &diffed, d);
        prop_assert_eq!(rebuilt.len(), values.len() - d);
        for (a, b) in rebuilt.iter().zip(values[d..].iter()) {
            prop_assert!((a - b).abs() < 1e-9 * b.abs().max(1.0));
        }
    }

    #[test]
    fn rmse_dominates_mae(
        pairs in prop::collection::vec((-1e4f64..1e4, -1e4f64..1e4), 1..60),
    ) {
        let (actual, predicted): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
        let r = rmse(&actual, &predicted);
        let m = mae(&actual, &predicted);
        // Jensen: RMSE >= MAE always.
        prop_assert!(r >= m - 1e-9, "rmse {r} < mae {m}");
    }
}
