//! The online-combination interface shared by EA-DRL and all baselines.

use eadrl_linalg::vector::dot;
use eadrl_timeseries::window::StepRing;

/// An online ensemble-combination method.
///
/// The evaluation protocol drives every method through the same loop:
///
/// 1. [`Combiner::warm_up`] once, with the base models' rolling one-step
///    predictions over a held-out validation tail of the training set
///    (this is where EA-DRL trains its policy, Stacking fits its
///    meta-learner, SWE seeds its error window, …);
/// 2. for each online step: [`Combiner::combine`] with the current model
///    predictions, then [`Combiner::observe`] with the realized actual.
///
/// The default [`Combiner::combine`] forms the paper's linearly weighted
/// ensemble (Eq. 1): it computes [`Combiner::weights`] once and hands them
/// to [`Combiner::combine_with`], whose default is the dot product.
/// Non-linear methods such as Stacking override `combine_with`.
///
/// ```
/// use eadrl_core::baselines::SlidingWindowEnsemble;
/// use eadrl_core::Combiner;
///
/// let mut swe = SlidingWindowEnsemble::new(5);
/// // Model 0 keeps being right; SWE shifts weight onto it.
/// for _ in 0..5 {
///     swe.observe(&[1.0, 4.0], 1.0);
/// }
/// let w = swe.weights(2);
/// assert!(w[0] > 0.9);
/// assert!((swe.combine(&[2.0, 10.0]) - 2.0).abs() < 1.0);
/// ```
pub trait Combiner: Send {
    /// Method name as used in the paper's tables (e.g. `"SWE"`).
    fn name(&self) -> &str;

    /// One-off calibration on validation predictions.
    ///
    /// `preds[t][i]` is model `i`'s forecast for validation step `t`;
    /// `actuals[t]` the realized value.
    fn warm_up(&mut self, preds: &[Vec<f64>], actuals: &[f64]);

    /// Current convex combination weights over the `m` models.
    fn weights(&mut self, m: usize) -> Vec<f64>;

    /// Combines one step's model predictions into the ensemble forecast.
    fn combine(&mut self, preds: &[f64]) -> f64 {
        let w = self.weights(preds.len());
        self.combine_with(&w, preds)
    }

    /// Combines one step's model predictions under `weights`, the vector
    /// [`Combiner::weights`] returned for this step: their dot product.
    fn combine_with(&self, weights: &[f64], preds: &[f64]) -> f64 {
        dot(weights, preds)
    }

    /// Reveals the realized value for the step just combined, along with
    /// the model predictions for that step.
    fn observe(&mut self, preds: &[f64], actual: f64);
}

/// Drives a combiner over an online segment and returns its ensemble
/// forecasts (one per step of `preds`).
pub fn run_combiner(combiner: &mut dyn Combiner, preds: &[Vec<f64>], actuals: &[f64]) -> Vec<f64> {
    assert_eq!(preds.len(), actuals.len(), "preds/actuals misaligned");
    let mut out = Vec::with_capacity(preds.len());
    for (p, &a) in preds.iter().zip(actuals.iter()) {
        out.push(combiner.combine(p));
        combiner.observe(p, a);
    }
    out
}

/// Like [`run_combiner`], but additionally records the weight vector the
/// combiner used at every step — the raw material for weight-trajectory
/// analyses (how fast does a method move mass between models around a
/// drift?). Each step computes its weights once, as
/// [`Combiner::combine`] does, so the forecasts equal [`run_combiner`]'s
/// bit for bit.
pub fn run_combiner_traced(
    combiner: &mut dyn Combiner,
    preds: &[Vec<f64>],
    actuals: &[f64],
) -> (Vec<f64>, Vec<Vec<f64>>) {
    assert_eq!(preds.len(), actuals.len(), "preds/actuals misaligned");
    let mut out = Vec::with_capacity(preds.len());
    let mut traces = Vec::with_capacity(preds.len());
    for (p, &a) in preds.iter().zip(actuals.iter()) {
        let w = combiner.weights(p.len());
        out.push(combiner.combine_with(&w, p));
        traces.push(w);
        combiner.observe(p, a);
    }
    (out, traces)
}

/// Summary of how much a weight trajectory moves over time: the mean L1
/// distance between consecutive weight vectors (0 = static combiner).
pub fn weight_churn(traces: &[Vec<f64>]) -> f64 {
    if traces.len() < 2 {
        return 0.0;
    }
    let total: f64 = traces
        .windows(2)
        .map(|w| {
            w[0].iter()
                .zip(w[1].iter())
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>()
        })
        .sum();
    total / (traces.len() - 1) as f64
}

/// Shared helper: inverse-error weights `w_i ∝ 1 / (e_i + ε)`, the SWE
/// recipe applied to any per-model error vector.
pub fn inverse_error_weights(errors: &[f64]) -> Vec<f64> {
    let eps = 1e-9;
    let inv: Vec<f64> = errors
        .iter()
        .map(|e| 1.0 / (e.abs().max(0.0) + eps))
        .collect();
    let sum: f64 = inv.iter().sum();
    if sum > 0.0 && sum.is_finite() {
        inv.into_iter().map(|v| v / sum).collect()
    } else {
        vec![1.0 / errors.len() as f64; errors.len()]
    }
}

/// A bounded history of `(predictions, actual)` pairs with rolling
/// per-model RMSE — the "recent performance over a time sliding-window"
/// machinery that SWE, Top.sel, Clus and DEMSC share.
#[derive(Debug, Clone)]
pub struct SlidingErrorWindow {
    history: StepRing,
}

impl SlidingErrorWindow {
    /// Creates a window of the given length.
    ///
    /// # Panics
    /// Panics when `window == 0`.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "sliding window must be positive");
        SlidingErrorWindow {
            history: StepRing::new(window),
        }
    }

    /// Adds one step, evicting the oldest beyond the window. The evicted
    /// step's row allocation is reused, so a saturated window records
    /// steps without allocating.
    pub fn push(&mut self, preds: &[f64], actual: f64) {
        self.history.record(preds, actual);
    }

    /// Number of stored steps.
    pub fn len(&self) -> usize {
        self.history.len()
    }

    /// True when no step has been stored.
    pub fn is_empty(&self) -> bool {
        self.history.is_empty()
    }

    /// Per-model RMSE over the stored window; `None` when empty.
    pub fn model_rmse(&self, m: usize) -> Option<Vec<f64>> {
        if self.history.is_empty() {
            return None;
        }
        let mut sse = vec![0.0; m];
        for (preds, actual) in self.history.iter() {
            for (s, &p) in sse.iter_mut().zip(preds.iter()) {
                let e = p - actual;
                *s += e * e;
            }
        }
        let n = self.history.len() as f64;
        Some(sse.into_iter().map(|s| (s / n).sqrt()).collect())
    }

    /// The stored prediction vectors for model `i` (for clustering).
    pub fn model_track(&self, i: usize) -> Vec<f64> {
        self.history.iter().map(|(p, _)| p[i]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::all_baselines;
    use crate::{AdaptiveEaDrl, EaDrlConfig, EaDrlPolicy, RefreshTrigger};

    /// Trivial combiner for the runner tests: always uniform weights,
    /// counting how often they were asked for.
    #[derive(Default)]
    struct Uniform {
        weight_calls: usize,
    }

    impl Combiner for Uniform {
        fn name(&self) -> &str {
            "uniform"
        }

        fn warm_up(&mut self, _preds: &[Vec<f64>], _actuals: &[f64]) {}

        fn weights(&mut self, m: usize) -> Vec<f64> {
            self.weight_calls += 1;
            vec![1.0 / m as f64; m]
        }

        fn observe(&mut self, _preds: &[f64], _actual: f64) {}
    }

    #[test]
    fn run_combiner_averages_predictions() {
        let preds = vec![vec![1.0, 3.0], vec![2.0, 4.0]];
        let actuals = [2.0, 3.0];
        let out = run_combiner(&mut Uniform::default(), &preds, &actuals);
        assert_eq!(out, vec![2.0, 3.0]);
    }

    #[test]
    fn traced_run_matches_untraced_and_records_weights() {
        let preds = vec![vec![1.0, 3.0]; 4];
        let actuals = [2.0; 4];
        let plain = run_combiner(&mut Uniform::default(), &preds, &actuals);
        let mut counted = Uniform::default();
        let (traced, weights) = run_combiner_traced(&mut counted, &preds, &actuals);
        assert_eq!(plain, traced);
        // One weighting per step serves both the trace and the forecast.
        assert_eq!(counted.weight_calls, 4);
        assert_eq!(weights.len(), 4);
        assert!(weights.iter().all(|w| w == &vec![0.5, 0.5]));
        assert_eq!(weight_churn(&weights), 0.0);
    }

    /// Model 0 accurate before the flip at step 140, model 1 after it,
    /// model 2 never.
    fn regime_stream() -> (Vec<Vec<f64>>, Vec<f64>) {
        let actuals: Vec<f64> = (0..200)
            .map(|t| (t as f64 / 6.0).sin() * 3.0 + 10.0)
            .collect();
        let preds = actuals
            .iter()
            .enumerate()
            .map(|(t, &a)| {
                let w = ((t * 7) % 13) as f64 / 13.0 - 0.5;
                if t < 140 {
                    vec![a + 0.1 * w, a + 2.5 + w, a - 7.0]
                } else {
                    vec![a + 2.5 - w, a + 0.1 * w, a - 7.0]
                }
            })
            .collect();
        (preds, actuals)
    }

    /// Every shipped combiner, fresh: the baselines, the EA-DRL policy
    /// and its refreshing variants.
    fn every_combiner() -> Vec<Box<dyn Combiner>> {
        let config = EaDrlConfig {
            omega: 6,
            episodes: 8,
            max_iter: 40,
            restarts: 1,
            ..Default::default()
        };
        let mut all = all_baselines(10, 3);
        all.push(Box::new(EaDrlPolicy::new(config.clone())));
        all.push(Box::new(AdaptiveEaDrl::new(
            config.clone(),
            RefreshTrigger::Periodic { period: 50 },
            60,
        )));
        all.push(Box::new(AdaptiveEaDrl::new(
            config,
            RefreshTrigger::DriftDetected {
                delta: 0.1,
                lambda: 5.0,
            },
            60,
        )));
        all
    }

    #[test]
    fn every_combiner_forecasts_the_same_bits_traced_or_not() {
        let (preds, actuals) = regime_stream();
        let (warm_p, online_p) = preds.split_at(80);
        let (warm_a, online_a) = actuals.split_at(80);
        for (mut plain, mut traced) in every_combiner().into_iter().zip(every_combiner()) {
            plain.warm_up(warm_p, warm_a);
            traced.warm_up(warm_p, warm_a);
            let out = run_combiner(plain.as_mut(), online_p, online_a);
            let (traced_out, weights) = run_combiner_traced(traced.as_mut(), online_p, online_a);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&out), bits(&traced_out), "{}", plain.name());
            assert_eq!(weights.len(), online_p.len(), "{}", plain.name());
        }
    }

    #[test]
    fn weight_churn_measures_movement() {
        let traces = vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![0.0, 1.0]];
        // Step 1: L1 = 2; step 2: L1 = 0 -> mean 1.
        assert!((weight_churn(&traces) - 1.0).abs() < 1e-12);
        assert_eq!(weight_churn(&[]), 0.0);
    }

    #[test]
    fn inverse_error_weights_favor_accurate_models() {
        let w = inverse_error_weights(&[0.1, 1.0, 10.0]);
        assert!(w[0] > w[1] && w[1] > w[2]);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_error_weights_survive_zero_error() {
        let w = inverse_error_weights(&[0.0, 1.0]);
        assert!(w[0] > 0.99);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sliding_window_evicts_and_scores() {
        let mut w = SlidingErrorWindow::new(2);
        w.push(&[1.0, 5.0], 1.0); // errors 0, 4
        w.push(&[2.0, 1.0], 1.0); // errors 1, 0
        w.push(&[3.0, 1.0], 1.0); // errors 2, 0 (evicts first)
        assert_eq!(w.len(), 2);
        let rmse = w.model_rmse(2).unwrap();
        assert!((rmse[0] - ((1.0 + 4.0) / 2.0_f64).sqrt()).abs() < 1e-12);
        assert_eq!(rmse[1], 0.0);
        assert_eq!(w.model_track(0), vec![2.0, 3.0]);
        let actuals: Vec<f64> = w.history.iter().map(|(_, a)| *a).collect();
        assert_eq!(actuals, vec![1.0, 1.0]);
    }

    #[test]
    fn empty_window_has_no_rmse() {
        let w = SlidingErrorWindow::new(3);
        assert!(w.model_rmse(2).is_none());
        assert!(w.is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_window_panics() {
        let _ = SlidingErrorWindow::new(0);
    }
}
