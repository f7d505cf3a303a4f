//! The [`Forecaster`] trait shared by every base model.

/// Errors produced while fitting a model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// The training series is too short for the model's configuration.
    SeriesTooShort {
        /// Observations required.
        needed: usize,
        /// Observations provided.
        got: usize,
    },
    /// An internal numerical routine failed (singular system, no
    /// convergence, …).
    Numerical {
        /// Human-readable context.
        context: String,
    },
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::SeriesTooShort { needed, got } => {
                write!(f, "series too short: need {needed} observations, got {got}")
            }
            ModelError::Numerical { context } => write!(f, "numerical failure: {context}"),
        }
    }
}

impl std::error::Error for ModelError {}

/// Errors surfaced by the checked prediction path
/// ([`Forecaster::try_predict_next`]).
///
/// `predict_next` itself is infallible by contract — implementations fall
/// back rather than fail — but a *misbehaving* member (numerical blow-up,
/// contract violation, injected fault) can still emit a non-finite value
/// or overrun the serving deadline. The checked path classifies those so
/// the serving guard (`eadrl-core`'s `PoolGuard`) can mask the member
/// instead of letting one bad output poison the ensemble dot product.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PredictError {
    /// The model returned NaN or ±Inf; `bits` preserves the exact payload
    /// for diagnostics (NaN payloads are otherwise lost in formatting).
    NonFinite {
        /// Raw IEEE-754 bits of the offending output.
        bits: u64,
    },
    /// The model's declared per-call cost exceeds the serving budget.
    ///
    /// Enforcement is deterministic by design: the cost comes from
    /// [`Forecaster::cost_hint_us`], never from a wall clock — clock
    /// reads on the forecast path would break the repo's bitwise
    /// reproducibility contract (see the `determinism` lint). Real
    /// latency overruns are caught offline by the `eadrl-prof` trace
    /// gate; this variant lets budget policy be tested and enforced
    /// deterministically.
    BudgetExceeded {
        /// Declared per-call cost in microseconds.
        cost_us: u64,
        /// The serving budget it exceeded.
        budget_us: u64,
    },
}

impl std::fmt::Display for PredictError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PredictError::NonFinite { bits } => {
                write!(f, "non-finite forecast: {}", f64::from_bits(*bits))
            }
            PredictError::BudgetExceeded { cost_us, budget_us } => {
                write!(f, "per-call cost {cost_us}µs exceeds budget {budget_us}µs")
            }
        }
    }
}

impl std::error::Error for PredictError {}

/// A one-step-ahead univariate forecaster.
///
/// The contract mirrors how the paper uses base models:
///
/// 1. [`Forecaster::fit`] trains on the (75 %) training prefix once,
///    offline;
/// 2. [`Forecaster::predict_next`] is called repeatedly online with the
///    history observed so far (training values plus any test values already
///    revealed) and returns the forecast for the next step.
///
/// `predict_next` must never panic on short histories — implementations
/// fall back to the last observed value (or the training mean) when they
/// cannot produce a proper forecast, because a pool member that panics
/// would take the whole ensemble down.
///
/// `Send + Sync` because the pool's hot paths (fitting, the rolling
/// prediction matrix) fan out across `eadrl-par` workers: fitting moves
/// each boxed member into a worker, prediction shares `&dyn Forecaster`
/// across threads. `predict_next(&self)` therefore must not use interior
/// mutability — a fitted model is immutable while predicting.
///
/// # Serving state
///
/// A model whose forecast is a forward recursion over the whole history
/// (ARIMA's innovation filter, ETS smoothing) also offers a
/// [`SeriesState`] through [`Forecaster::series_state`], so a server
/// that sees the same series grow one value per step folds in only the
/// new values instead of re-running the recursion from `t = 0`:
///
/// * the **caller owns the state**, one per (fitted model, series); the
///   model stays immutable and knows nothing of its states;
/// * folding `history` into a fresh state and calling
///   [`SeriesState::predict`] returns exactly `predict_next(history)`,
///   bit for bit, and folding it in several pieces gives the same bits
///   as folding it at once; the implementing models define
///   `predict_next` that way, so each recursion is written once;
/// * a state is only valid for the values it folded: when the next
///   history does not extend them bit for bit (a sliding window, a
///   rewritten value, a shorter input) the caller resets it and folds
///   the whole history; after a refit it asks for a new state;
/// * wrappers that intercept `predict_next` (fault injectors, timers)
///   must not forward this method, so that they keep seeing every call.
///
/// `eadrl-core`'s guard is the only owner: `PoolGuard` keeps one state
/// per member on both serving paths (and, while the history slides by
/// one value per step, a second one that it folds ahead on a helper
/// thread), and every rolling prediction matrix walk keeps one per
/// member for its whole walk.
pub trait Forecaster: Send + Sync {
    /// Human-readable unique name, e.g. `"ARIMA(2,1,1)"`.
    fn name(&self) -> &str;

    /// Fits the model on a training series (oldest first).
    fn fit(&mut self, series: &[f64]) -> Result<(), ModelError>;

    /// Predicts the value following `history` (oldest first). `history`
    /// always contains at least one value.
    fn predict_next(&self, history: &[f64]) -> f64;

    /// Checked prediction: like [`Forecaster::predict_next`] but classifies
    /// a non-finite output as [`PredictError::NonFinite`] instead of
    /// returning it. The serving guard calls this (under `catch_unwind`)
    /// so one misbehaving pool member degrades gracefully instead of
    /// poisoning the ensemble. The default implementation is correct for
    /// every well-behaved model; override only to surface richer errors.
    fn try_predict_next(&self, history: &[f64]) -> Result<f64, PredictError> {
        let value = self.predict_next(history);
        if value.is_finite() {
            Ok(value)
        } else {
            Err(PredictError::NonFinite {
                bits: value.to_bits(),
            })
        }
    }

    /// Declared worst-case per-call cost in microseconds, if the model
    /// knows one. `None` (the default) opts out of deterministic
    /// latency-budget enforcement — the guard never clocks calls (that
    /// would break bitwise reproducibility); it only compares this
    /// self-declared figure against the configured budget.
    fn cost_hint_us(&self) -> Option<u64> {
        None
    }

    /// A fresh serving state for one series, for a model whose forecast
    /// reads the whole history (see "Serving state" above). `None`, the
    /// default, means the model forecasts from each call's history; so
    /// do unfitted models.
    fn series_state(&self) -> Option<Box<dyn SeriesState>> {
        None
    }

    /// Clones the fitted model into a box (object-safe clone).
    fn box_clone(&self) -> Box<dyn Forecaster>;
}

/// The running state of a fitted model's forecast recursion over one
/// series, created by [`Forecaster::series_state`].
///
/// `Send + Sync` so a server that owns states keeps its auto traits.
pub trait SeriesState: Send + Sync + std::fmt::Debug {
    /// Forgets every folded value, keeping the buffers.
    fn reset(&mut self);

    /// Folds `values`, the next observations of the series (oldest
    /// first), into the state.
    fn fold(&mut self, values: &[f64]);

    /// The forecast of the value after everything folded so far: the
    /// same bits as the model's `predict_next` over those values.
    fn predict(&self) -> f64;
}

impl Clone for Box<dyn Forecaster> {
    fn clone(&self) -> Self {
        self.box_clone()
    }
}

/// Fallback forecast used by implementations on degenerate input: the last
/// observed value, or 0.0 for an empty history.
pub fn fallback_forecast(history: &[f64]) -> f64 {
    history.last().copied().unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal forecaster for trait-level tests: predicts the mean of the
    /// training series.
    #[derive(Debug, Clone)]
    struct MeanModel {
        mean: f64,
    }

    impl Forecaster for MeanModel {
        fn name(&self) -> &str {
            "Mean"
        }

        fn fit(&mut self, series: &[f64]) -> Result<(), ModelError> {
            if series.is_empty() {
                return Err(ModelError::SeriesTooShort { needed: 1, got: 0 });
            }
            self.mean = series.iter().sum::<f64>() / series.len() as f64;
            Ok(())
        }

        fn predict_next(&self, _history: &[f64]) -> f64 {
            self.mean
        }

        fn box_clone(&self) -> Box<dyn Forecaster> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn boxed_clone_preserves_state() {
        let mut m = MeanModel { mean: 0.0 };
        m.fit(&[1.0, 2.0, 3.0]).unwrap();
        let boxed: Box<dyn Forecaster> = Box::new(m);
        let cloned = boxed.clone();
        assert_eq!(cloned.predict_next(&[9.0]), 2.0);
        assert_eq!(cloned.name(), "Mean");
    }

    #[test]
    fn fallback_is_last_value() {
        assert_eq!(fallback_forecast(&[1.0, 7.0]), 7.0);
        assert_eq!(fallback_forecast(&[]), 0.0);
    }

    #[test]
    fn fit_error_on_empty_series() {
        let mut m = MeanModel { mean: 0.0 };
        assert!(matches!(
            m.fit(&[]),
            Err(ModelError::SeriesTooShort { needed: 1, got: 0 })
        ));
    }

    #[test]
    fn try_predict_next_passes_finite_values_through() {
        let mut m = MeanModel { mean: 0.0 };
        m.fit(&[1.0, 3.0]).unwrap();
        assert_eq!(m.try_predict_next(&[5.0]), Ok(2.0));
    }

    #[test]
    fn try_predict_next_classifies_non_finite_output() {
        struct NanModel;
        impl Forecaster for NanModel {
            fn name(&self) -> &str {
                "NaN"
            }
            fn fit(&mut self, _s: &[f64]) -> Result<(), ModelError> {
                Ok(())
            }
            fn predict_next(&self, _h: &[f64]) -> f64 {
                f64::NAN
            }
            fn box_clone(&self) -> Box<dyn Forecaster> {
                Box::new(NanModel)
            }
        }
        match NanModel.try_predict_next(&[1.0]) {
            Err(PredictError::NonFinite { bits }) => {
                assert!(f64::from_bits(bits).is_nan());
            }
            other => panic!("expected NonFinite, got {other:?}"),
        }
        assert_eq!(NanModel.cost_hint_us(), None);
    }

    #[test]
    fn predict_error_display_is_informative() {
        let e = PredictError::NonFinite {
            bits: f64::INFINITY.to_bits(),
        };
        assert!(e.to_string().contains("inf"));
        let e2 = PredictError::BudgetExceeded {
            cost_us: 900,
            budget_us: 250,
        };
        assert!(e2.to_string().contains("900"));
        assert!(e2.to_string().contains("250"));
    }

    #[test]
    fn error_display_is_informative() {
        let e = ModelError::SeriesTooShort { needed: 10, got: 3 };
        assert!(e.to_string().contains("10"));
        let e2 = ModelError::Numerical {
            context: "singular gram".into(),
        };
        assert!(e2.to_string().contains("singular gram"));
    }
}
