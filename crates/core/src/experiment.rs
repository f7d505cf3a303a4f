//! The paper's evaluation protocol (§III): 75/25 split, pool fitting,
//! warm-up on a validation tail, online rolling one-step evaluation with
//! per-method timing.

use crate::combiner::{run_combiner, Combiner};
use crate::eadrl::{policy_split, POLICY_TAIL};
use crate::parallel::{fit_pool, prediction_matrix, report_faults, rolling_column};
use eadrl_models::Forecaster;
use eadrl_timeseries::metrics::rmse;
use std::time::Instant;

/// Train fraction of the full series (the paper's 75/25 split).
const TRAIN_RATIO: f64 = 0.75;

/// The paper's evaluation protocol: the first 75 % of a series trains,
/// the rest is forecast online, and the training part is split like
/// [`EaDrl::fit`](crate::EaDrl::fit)'s at the default `val_fraction`:
/// the pool fits the first 75 % of it, the combiners warm up on the
/// rest.
#[derive(Debug, Clone, Copy, Default)]
pub struct EvaluationProtocol;

/// One method's outcome on one dataset.
#[derive(Debug, Clone)]
pub struct MethodResult {
    /// Method name (paper label, e.g. `"EA-DRL"`, `"SWE"`, `"ARIMA"`).
    pub name: String,
    /// Test-set RMSE of the rolling one-step forecasts.
    pub rmse: f64,
    /// The per-step forecasts (aligned with the evaluation's
    /// `test_actuals`), kept for the Bayesian pairwise tests.
    pub predictions: Vec<f64>,
    /// Wall-clock seconds spent producing the online forecasts only
    /// (warm-up / offline training excluded — Table III semantics).
    pub online_seconds: f64,
    /// Wall-clock seconds spent in warm-up (policy training for EA-DRL,
    /// meta-learner fitting for Stacking, …).
    pub warmup_seconds: f64,
}

/// All methods' outcomes on one dataset.
#[derive(Debug, Clone)]
pub struct DatasetEvaluation {
    /// Dataset name.
    pub dataset: String,
    /// The realized test values every method was scored against.
    pub test_actuals: Vec<f64>,
    /// Per-method results.
    pub results: Vec<MethodResult>,
    /// Pool members dropped because the series was too short for them.
    pub dropped_models: Vec<String>,
    /// Number of pool members actually used.
    pub pool_size: usize,
}

impl DatasetEvaluation {
    /// The result for a given method name, if present.
    pub fn result(&self, name: &str) -> Option<&MethodResult> {
        self.results.iter().find(|r| r.name == name)
    }

    /// Method names ranked by RMSE (best first).
    pub fn ranking(&self) -> Vec<&str> {
        let mut idx: Vec<usize> = (0..self.results.len()).collect();
        idx.sort_by(|&a, &b| {
            self.results[a]
                .rmse
                .partial_cmp(&self.results[b].rmse)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        idx.into_iter()
            .map(|i| self.results[i].name.as_str())
            .collect()
    }
}

/// The inputs every combination method of one protocol run shares,
/// built by [`EvaluationProtocol::prepare`]: the split of the series,
/// the fitted pool and its two sanitized rolling prediction matrices.
pub struct Prepared<'a> {
    /// The training part of the series (the first 75 %).
    pub train: &'a [f64],
    /// The test part the online methods forecast.
    pub test: &'a [f64],
    /// The validation tail of `train` the combiners warm up on; the
    /// pool is fitted on the part of `train` before it.
    pub warm_part: &'a [f64],
    /// The members that fitted the fit part, in pool order.
    pub pool: Vec<Box<dyn Forecaster>>,
    /// The names of the members the series could not support.
    pub dropped: Vec<String>,
    /// The pool's rolling forecasts over `warm_part`, one row per step,
    /// sanitized against the fit part (`train` before `warm_part`).
    pub warm_preds: Vec<Vec<f64>>,
    /// The pool's rolling forecasts over `test` after `train`, one row
    /// per step, sanitized against `train`.
    pub online_preds: Vec<Vec<f64>>,
}

/// Multi-horizon evaluation of a recursive forecaster (Algorithm 1's
/// `N_f`-step use case): from every admissible origin in `test`, forecast
/// `max_horizon` steps recursively and accumulate the RMSE per horizon.
///
/// Returns `rmse[h]` for horizons `1..=max_horizon` (so index 0 is the
/// one-step error). Origins step through the test segment with the given
/// `stride` so the cost stays controllable on long tests.
pub fn multi_horizon_rmse(
    model: &mut crate::eadrl::EaDrl,
    train: &[f64],
    test: &[f64],
    max_horizon: usize,
    stride: usize,
) -> Vec<f64> {
    assert!(max_horizon >= 1, "need at least horizon 1");
    let stride = stride.max(1);
    let mut sse = vec![0.0; max_horizon];
    let mut counts = vec![0usize; max_horizon];
    let mut origin = 0;
    while origin + max_horizon <= test.len() {
        let mut history = Vec::with_capacity(train.len() + origin);
        history.extend_from_slice(train);
        history.extend_from_slice(&test[..origin]);
        let forecast = model.forecast(&history, max_horizon);
        for (h, (&f, &a)) in forecast
            .iter()
            .zip(test[origin..origin + max_horizon].iter())
            .enumerate()
        {
            let e = f - a;
            sse[h] += e * e;
            counts[h] += 1;
        }
        origin += stride;
    }
    sse.iter()
        .zip(counts.iter())
        .map(|(&s, &c)| {
            if c > 0 {
                (s / c as f64).sqrt()
            } else {
                f64::NAN
            }
        })
        .collect()
}

/// Clamps base-model predictions into a sane envelope around the training
/// range: `[lo - 3·range, hi + 3·range]`, with non-finite values replaced
/// by the envelope midpoint.
///
/// A single numerically misbehaving pool member (e.g. a mis-specified
/// model on a pathological series) would otherwise poison every linear
/// combiner; reference implementations get the same guard from their
/// underlying libraries' parameter constraints.
pub fn sanitize_predictions(preds: &mut [Vec<f64>], reference: &[f64]) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &v in reference {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if !lo.is_finite() || !hi.is_finite() {
        return;
    }
    let range = (hi - lo).max(1e-9);
    let (floor, ceil) = (lo - 3.0 * range, hi + 3.0 * range);
    let mid = 0.5 * (lo + hi);
    let mut replaced = 0usize;
    let mut cells = 0usize;
    for row in preds.iter_mut() {
        for v in row.iter_mut() {
            cells += 1;
            if !v.is_finite() {
                *v = mid;
                replaced += 1;
            } else {
                *v = v.clamp(floor, ceil);
            }
        }
    }
    // Only non-finite repair is reported: range clamps are routine and an
    // event per fit would pollute the clean-path telemetry baselines.
    if replaced > 0 {
        eadrl_obs::event(
            "eadrl.sanitize",
            eadrl_obs::Level::Warn,
            &[
                ("context", "prediction_matrix".into()),
                ("replaced", replaced.into()),
                ("len", cells.into()),
            ],
        );
    }
}

impl EvaluationProtocol {
    /// Splits `series` into train and test and `train` into fit and
    /// validation parts, fits `pool` on the fit part in parallel
    /// (dropping the members the series cannot support) and walks the
    /// fitted pool over the validation part and the test part.
    pub fn prepare<'a>(&self, series: &'a [f64], pool: Vec<Box<dyn Forecaster>>) -> Prepared<'a> {
        let cut = ((series.len() as f64) * TRAIN_RATIO).round() as usize;
        let (train, test) = series.split_at(cut.min(series.len().saturating_sub(2)));
        let (fit_part, warm_part) = policy_split(train, POLICY_TAIL);
        let (pool, dropped) = fit_pool(pool, fit_part);
        let mut warm_preds = prediction_matrix(&pool, fit_part, warm_part);
        let mut online_preds = prediction_matrix(&pool, train, test);
        sanitize_predictions(&mut warm_preds, fit_part);
        sanitize_predictions(&mut online_preds, train);
        Prepared {
            train,
            test,
            warm_part,
            pool,
            dropped,
            warm_preds,
            online_preds,
        }
    }

    /// Runs the full protocol on one series.
    ///
    /// * `pool` — base models for the ensemble methods (fitted here on the
    ///   fit segment; members that fail to fit are dropped),
    /// * `standalone` — individually-evaluated forecasters (ARIMA, RF, …;
    ///   fitted here on the full training set),
    /// * `combiners` — the aggregation methods under test (including the
    ///   EA-DRL policy), warm-started on the validation tail.
    pub fn evaluate(
        &self,
        dataset: &str,
        series: &[f64],
        pool: Vec<Box<dyn Forecaster>>,
        standalone: Vec<(String, Box<dyn Forecaster>)>,
        combiners: Vec<Box<dyn Combiner>>,
    ) -> DatasetEvaluation {
        let data = self.prepare(series, pool);
        let (train, test, warm_part) = (data.train, data.test, data.warm_part);

        let mut results = Vec::new();

        // --- Standalone forecasters, fitted on the full training set.
        // Each method is self-contained, so the whole fit + rolling
        // evaluation runs as one parallel task; the Table III wall-clock
        // is measured inside the task, exactly as the serial loop did.
        // The walk is the pool's (`rolling_column`), and faulted steps
        // are reported after the merge, as `prediction_matrix` does.
        let standalone_results = eadrl_par::par_map(standalone, |(label, mut model)| {
            if model.fit(train).is_err() {
                return None;
            }
            // eadrl-lint: allow(determinism): wall-clock here IS the measurement — Table III reports computation time
            let start = Instant::now();
            let (preds, faults) = rolling_column(model.as_ref(), train, test);
            let online_seconds = start.elapsed().as_secs_f64();
            let result = MethodResult {
                name: label,
                rmse: rmse(test, &preds),
                predictions: preds,
                online_seconds,
                warmup_seconds: 0.0,
            };
            Some((result, faults))
        });
        match standalone_results {
            Ok(rows) => {
                for (result, faults) in rows.into_iter().flatten() {
                    report_faults("standalone", &result.name, faults, test.len());
                    results.push(result);
                }
            }
            // Only a panicking `fit` gets here (the walk catches the
            // calls'); report the batch and keep the sweep alive.
            Err(err) => {
                eadrl_obs::warn(
                    "par.panic",
                    &[("context", format!("{err}").as_str().into())],
                );
            }
        }

        // --- Combination methods over the shared pool predictions, one
        // parallel task per method (they only read the shared matrices).
        let combiner_results = eadrl_par::par_map(combiners, |mut combiner| {
            // eadrl-lint: allow(determinism): wall-clock here IS the measurement — Table III reports warm-up time
            let warm_start = Instant::now();
            combiner.warm_up(&data.warm_preds, warm_part);
            let warmup_seconds = warm_start.elapsed().as_secs_f64();
            // eadrl-lint: allow(determinism): wall-clock here IS the measurement — Table III reports online time
            let start = Instant::now();
            let preds = run_combiner(combiner.as_mut(), &data.online_preds, test);
            let online_seconds = start.elapsed().as_secs_f64();
            MethodResult {
                name: combiner.name().to_string(),
                rmse: rmse(test, &preds),
                predictions: preds,
                online_seconds,
                warmup_seconds,
            }
        });
        match combiner_results {
            Ok(rows) => results.extend(rows),
            Err(err) => {
                eadrl_obs::warn(
                    "par.panic",
                    &[("context", format!("{err}").as_str().into())],
                );
            }
        }

        DatasetEvaluation {
            dataset: dataset.to_string(),
            test_actuals: test.to_vec(),
            results,
            pool_size: data.pool.len(),
            dropped_models: data.dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::{SlidingWindowEnsemble, StaticEnsemble};
    use eadrl_models::{auto_regressive, Naive, SeasonalNaive};

    fn series() -> Vec<f64> {
        (0..320)
            .map(|t| (2.0 * std::f64::consts::PI * t as f64 / 16.0).sin() * 5.0 + 30.0)
            .collect()
    }

    fn pool() -> Vec<Box<dyn Forecaster>> {
        vec![
            Box::new(Naive),
            Box::new(SeasonalNaive::new(16)),
            Box::new(auto_regressive(5, 1e-3)),
        ]
    }

    #[test]
    fn protocol_produces_results_for_all_methods() {
        let eval = EvaluationProtocol.evaluate(
            "sine",
            &series(),
            pool(),
            vec![("Naive".into(), Box::new(Naive))],
            vec![
                Box::new(StaticEnsemble::new()),
                Box::new(SlidingWindowEnsemble::new(10)),
            ],
        );
        assert_eq!(eval.results.len(), 3);
        assert_eq!(eval.pool_size, 3);
        assert!(eval.dropped_models.is_empty());
        assert_eq!(eval.test_actuals.len(), 80);
        for r in &eval.results {
            assert_eq!(r.predictions.len(), 80);
            assert!(r.rmse.is_finite());
            assert!(r.online_seconds >= 0.0);
        }
    }

    #[test]
    fn ensemble_beats_naive_on_seasonal_data() {
        let eval = EvaluationProtocol.evaluate(
            "sine",
            &series(),
            pool(),
            vec![("Naive".into(), Box::new(Naive))],
            vec![Box::new(SlidingWindowEnsemble::new(10))],
        );
        let naive = eval.result("Naive").unwrap().rmse;
        let swe = eval.result("SWE").unwrap().rmse;
        assert!(swe < naive, "SWE {swe} vs Naive {naive}");
    }

    #[test]
    fn ranking_orders_by_rmse() {
        let eval = EvaluationProtocol.evaluate(
            "sine",
            &series(),
            pool(),
            vec![("Naive".into(), Box::new(Naive))],
            vec![Box::new(SlidingWindowEnsemble::new(10))],
        );
        let ranking = eval.ranking();
        assert_eq!(ranking.len(), 2);
        let best = eval.result(ranking[0]).unwrap().rmse;
        let worst = eval.result(ranking[1]).unwrap().rmse;
        assert!(best <= worst);
    }

    #[test]
    fn multi_horizon_errors_grow_with_horizon() {
        use crate::eadrl::{EaDrl, EaDrlConfig};
        let s = series();
        let (train, test) = s.split_at(240);
        let config = EaDrlConfig {
            omega: 6,
            episodes: 8,
            restarts: 1,
            ..Default::default()
        };
        let mut model = EaDrl::new(pool(), config);
        model.fit(train).unwrap();
        let horizons = multi_horizon_rmse(&mut model, train, test, 6, 4);
        assert_eq!(horizons.len(), 6);
        assert!(horizons.iter().all(|h| h.is_finite()));
        // Recursive forecasting compounds errors: the six-step error must
        // exceed the one-step error on this noisy-free seasonal series by
        // at most a sane factor, and generally h1 <= h6.
        assert!(
            horizons[0] <= horizons[5] * 1.5 + 1e-9,
            "h1 = {} vs h6 = {}",
            horizons[0],
            horizons[5]
        );
    }

    #[test]
    #[should_panic(expected = "horizon 1")]
    fn zero_horizon_panics() {
        use crate::eadrl::{EaDrl, EaDrlConfig};
        let s = series();
        let (train, test) = s.split_at(240);
        let mut model = EaDrl::new(pool(), EaDrlConfig::default());
        let _ = model.fit(train);
        let _ = multi_horizon_rmse(&mut model, train, test, 0, 1);
    }

    #[test]
    fn unfittable_pool_members_are_reported() {
        let mut p = pool();
        p.push(Box::new(SeasonalNaive::new(50_000)));
        let eval = EvaluationProtocol.evaluate("sine", &series(), p, vec![], vec![]);
        assert_eq!(eval.pool_size, 3);
        assert_eq!(eval.dropped_models.len(), 1);
    }
}
