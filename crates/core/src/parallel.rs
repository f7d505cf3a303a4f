//! Parallel pool operations: base-model fitting and the rolling
//! pool-prediction matrix, routed through `eadrl-par`.
//!
//! Both operations are embarrassingly parallel across pool members and
//! deterministic per member (every base model is seeded by its own
//! configuration, never by a generator shared across members), so the
//! index-merged [`eadrl_par::par_map`] makes the parallel output
//! bitwise identical to the serial one at every `EADRL_PAR_THREADS`
//! setting — `crates/core/tests/par_determinism.rs` is the differential
//! proof.

use crate::guard::Member;
use eadrl_models::{fallback_forecast, Forecaster};
use eadrl_obs::Level;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Fits every pool member on `fit_part` in parallel, preserving pool
/// order. Returns the fitted members plus the names of the members the
/// series could not support (also in pool order). A member whose `fit`
/// panics is dropped individually — its name is captured before the
/// call, so the drop report stays precise even though the panicked
/// model itself is discarded — instead of taking down the whole sweep.
pub fn fit_pool(
    pool: Vec<Box<dyn Forecaster>>,
    fit_part: &[f64],
) -> (Vec<Box<dyn Forecaster>>, Vec<String>) {
    let fitted = eadrl_par::par_map(pool, |mut model| {
        let name = model.name().to_string();
        match catch_unwind(AssertUnwindSafe(|| model.fit(fit_part))) {
            Ok(Ok(())) => Ok(model),
            Ok(Err(_)) => Err(name),
            Err(_) => Err(format!("{name} (fit panicked)")),
        }
    });
    let mut kept = Vec::new();
    let mut dropped = Vec::new();
    match fitted {
        Ok(results) => {
            for outcome in results {
                match outcome {
                    Ok(model) => kept.push(model),
                    Err(name) => dropped.push(name),
                }
            }
        }
        Err(err) => {
            // Unreachable with the per-member catch above unless `name`
            // or a destructor panics; keep the sweep alive regardless.
            eadrl_obs::warn(
                "par.panic",
                &[("context", format!("{err}").as_str().into())],
            );
            dropped.push(format!("pool batch lost: {err}"));
        }
    }
    (kept, dropped)
}

/// Rolling one-step prediction matrix `preds[t][i]` of a fitted pool
/// over `segment`, with the preceding history given by `train`: model
/// `i`'s forecast of `segment[t]` from `train` and `segment[..t]`. Each
/// member is walked through the guard's per-member call, so ARIMA/ETS
/// fold one revealed value per step and a faulted step carries the
/// history fallback; a member with faulted steps is reported in one
/// `eadrl.degraded` event. The columns are computed in parallel across
/// the pool, then merged by pool index and transposed into per-step
/// rows.
pub fn prediction_matrix(
    pool: &[Box<dyn Forecaster>],
    train: &[f64],
    segment: &[f64],
) -> Vec<Vec<f64>> {
    let refs: Vec<&dyn Forecaster> = pool.iter().map(AsRef::as_ref).collect();
    let per_model = match eadrl_par::par_map(refs, |model| rolling_column(model, train, segment)) {
        Ok(columns) => columns,
        Err(err) => {
            eadrl_obs::event(
                "par.panic",
                Level::Warn,
                &[("context", format!("{err}").as_str().into())],
            );
            // Serial fallback keeps the forecast path alive; with the
            // guarded call inside `rolling_column` this is only reachable
            // through a panicking destructor.
            pool.iter()
                .map(|m| rolling_column(m.as_ref(), train, segment))
                .collect()
        }
    };
    // Fault telemetry is emitted *after* the index-ordered merge, never
    // from inside a worker, so it follows every event the members'
    // calls emitted, at any `EADRL_PAR_THREADS` setting.
    for (model, (column, faults)) in pool.iter().zip(&per_model) {
        report_faults("prediction_matrix", model.name(), *faults, column.len());
    }
    let mut rows = Vec::with_capacity(segment.len());
    for t in 0..segment.len() {
        let mut row = Vec::with_capacity(per_model.len());
        for (column, _) in &per_model {
            row.push(column[t]);
        }
        rows.push(row);
    }
    rows
}

/// Member `model`'s rolling one-step forecasts over `segment`: step `t`
/// forecasts `segment[t]` from `train` followed by `segment[..t]`, the
/// paper's online protocol for base models. Each step is one guarded
/// member call, and one member slot serves the whole walk, so a member
/// with a serving state folds one revealed value per step. A step whose
/// call faulted carries the history fallback instead of poisoning the
/// column. Returns the column and its fault count.
pub(crate) fn rolling_column(
    model: &dyn Forecaster,
    train: &[f64],
    segment: &[f64],
) -> (Vec<f64>, usize) {
    let mut member = Member::Unknown;
    let mut history = Vec::with_capacity(train.len() + segment.len());
    history.extend_from_slice(train);
    let mut column = Vec::with_capacity(segment.len());
    let mut faults = 0usize;
    for &actual in segment {
        let value = member.call(model, &history, None).unwrap_or_else(|_| {
            faults += 1;
            fallback_forecast(&history)
        });
        column.push(value);
        history.push(actual);
    }
    (column, faults)
}

/// Reports a walked column with `faults` faulted steps out of `steps`
/// as one `eadrl.degraded` event; a clean column emits nothing.
pub(crate) fn report_faults(context: &str, model: &str, faults: usize, steps: usize) {
    if faults > 0 {
        eadrl_obs::event(
            "eadrl.degraded",
            Level::Warn,
            &[
                ("context", context.into()),
                ("model", model.into()),
                ("faults", faults.into()),
                ("steps", steps.into()),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eadrl_models::{
        auto_regressive, Arima, Ets, EtsKind, ModelError, Naive, SeasonalNaive, SeriesState,
    };
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn series(n: usize) -> Vec<f64> {
        (0..n)
            .map(|t| (2.0 * std::f64::consts::PI * t as f64 / 12.0).sin() * 4.0 + 10.0)
            .collect()
    }

    fn pool() -> Vec<Box<dyn Forecaster>> {
        vec![
            Box::new(Naive),
            Box::new(SeasonalNaive::new(12)),
            Box::new(auto_regressive(4, 1e-3)),
        ]
    }

    #[test]
    fn fit_pool_keeps_order_and_reports_drops() {
        let s = series(120);
        let mut p = pool();
        p.push(Box::new(SeasonalNaive::new(100_000)));
        let (kept, dropped) = fit_pool(p, &s);
        assert_eq!(kept.len(), 3);
        assert_eq!(kept[0].name(), "Naive");
        assert_eq!(dropped, vec!["SeasonalNaive".to_string()]);
    }

    /// Misbehaving member for hardening tests: panics in `fit` and/or
    /// emits NaN every `nan_every`-th prediction.
    #[derive(Debug, Clone)]
    struct Misbehaving {
        panic_on_fit: bool,
        nan_every: usize,
    }

    impl Forecaster for Misbehaving {
        fn name(&self) -> &str {
            "Misbehaving"
        }
        fn fit(&mut self, _s: &[f64]) -> Result<(), eadrl_models::ModelError> {
            if self.panic_on_fit {
                panic!("injected fit panic");
            }
            Ok(())
        }
        fn predict_next(&self, history: &[f64]) -> f64 {
            if self.nan_every > 0 && history.len().is_multiple_of(self.nan_every) {
                f64::NAN
            } else {
                history.last().copied().unwrap_or(0.0) + 1.0
            }
        }
        fn box_clone(&self) -> Box<dyn Forecaster> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn panicking_fit_drops_only_the_offender() {
        let s = series(120);
        let mut p = pool();
        p.push(Box::new(Misbehaving {
            panic_on_fit: true,
            nan_every: 0,
        }));
        let (kept, dropped) = fit_pool(p, &s);
        assert_eq!(kept.len(), 3, "healthy members survive a peer's panic");
        assert_eq!(dropped, vec!["Misbehaving (fit panicked)".to_string()]);
    }

    #[test]
    fn non_finite_prediction_steps_fall_back_instead_of_poisoning() {
        let s = series(150);
        let (train, seg) = s.split_at(120);
        let faulty: Vec<Box<dyn Forecaster>> = vec![
            Box::new(Naive),
            Box::new(Misbehaving {
                panic_on_fit: false,
                nan_every: 7,
            }),
        ];
        let rows = prediction_matrix(&faulty, train, seg);
        assert_eq!(rows.len(), seg.len());
        for (t, row) in rows.iter().enumerate() {
            assert!(
                row.iter().all(|v| v.is_finite()),
                "non-finite entry leaked at step {t}: {row:?}"
            );
        }
    }

    #[test]
    fn matrix_matches_per_step_predict_next_bitwise() {
        let s = series(150);
        let (train, seg) = s.split_at(120);
        let mut p = pool();
        p.push(Box::new(Arima::new(2, 1, 1)));
        p.push(Box::new(Ets::new(EtsKind::HoltWinters { period: 12 })));
        let (kept, dropped) = fit_pool(p, train);
        assert!(dropped.is_empty(), "{dropped:?}");
        let rows = prediction_matrix(&kept, train, seg);
        assert_eq!(rows.len(), seg.len());
        for (t, row) in rows.iter().enumerate() {
            for (i, model) in kept.iter().enumerate() {
                let per_call = model.predict_next(&s[..120 + t]);
                assert_eq!(row[i].to_bits(), per_call.to_bits(), "model {i} step {t}");
            }
        }
    }

    /// What a [`Counting`] member was asked.
    #[derive(Debug, Default)]
    struct Counts {
        inquiries: AtomicUsize,
        calls: AtomicUsize,
        states: AtomicUsize,
        folded: AtomicUsize,
    }

    impl Counts {
        fn read(&self) -> [usize; 4] {
            [&self.inquiries, &self.calls, &self.states, &self.folded]
                .map(|n| n.load(Ordering::SeqCst))
        }
    }

    /// Forecasts the last value, counting cost inquiries and calls; a
    /// `stateful` one serves from a state that counts what it folds.
    struct Counting {
        counts: Arc<Counts>,
        stateful: bool,
    }

    #[derive(Debug)]
    struct LastValue {
        last: f64,
        counts: Arc<Counts>,
    }

    impl Forecaster for Counting {
        fn name(&self) -> &str {
            "Counting"
        }
        fn fit(&mut self, _s: &[f64]) -> Result<(), ModelError> {
            Ok(())
        }
        fn predict_next(&self, history: &[f64]) -> f64 {
            self.counts.calls.fetch_add(1, Ordering::SeqCst);
            fallback_forecast(history)
        }
        fn cost_hint_us(&self) -> Option<u64> {
            self.counts.inquiries.fetch_add(1, Ordering::SeqCst);
            None
        }
        fn series_state(&self) -> Option<Box<dyn SeriesState>> {
            if !self.stateful {
                return None;
            }
            self.counts.states.fetch_add(1, Ordering::SeqCst);
            Some(Box::new(LastValue {
                last: 0.0,
                counts: Arc::clone(&self.counts),
            }))
        }
        fn box_clone(&self) -> Box<dyn Forecaster> {
            unreachable!("test double is never cloned")
        }
    }

    impl SeriesState for LastValue {
        fn reset(&mut self) {
            self.last = 0.0;
        }
        fn fold(&mut self, values: &[f64]) {
            self.counts.folded.fetch_add(values.len(), Ordering::SeqCst);
            self.last = values.last().copied().unwrap_or(self.last);
        }
        fn predict(&self) -> f64 {
            self.last
        }
    }

    #[test]
    fn the_walk_asks_each_cost_once_and_calls_or_folds_once_per_step() {
        let s = series(150);
        let (train, seg) = s.split_at(120);
        let per_call = Arc::new(Counts::default());
        let folding = Arc::new(Counts::default());
        let pool: Vec<Box<dyn Forecaster>> = vec![
            Box::new(Counting {
                counts: Arc::clone(&per_call),
                stateful: false,
            }),
            Box::new(Counting {
                counts: Arc::clone(&folding),
                stateful: true,
            }),
        ];
        let rows = prediction_matrix(&pool, train, seg);
        for (t, row) in rows.iter().enumerate() {
            let last = s[120 + t - 1];
            assert_eq!(row, &[last, last], "step {t}");
        }
        // [inquiries, calls, states, folded values]: 30 steps, one cost
        // inquiry each; the per-call member is called once per step, the
        // stateful one folds the 120 training values, then one per step.
        assert_eq!(per_call.read(), [30, 30, 0, 0]);
        assert_eq!(folding.read(), [30, 0, 1, 120 + 29]);
    }
}
