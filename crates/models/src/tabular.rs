//! Window-to-forecaster adapter shared by all regression-family models.
//!
//! The paper turns each series into a supervised problem by time-delay
//! embedding with dimension k ("Regression models are … applied after using
//! time series embedding to dimension k"). [`Windowed`] packages that
//! recipe once: fit a [`TabularModel`] on embedded, z-scored windows and
//! forecast from the most recent window, so every tree/kernel/neural
//! regressor in this crate only implements plain tabular fit/predict.

use crate::forecaster::{fallback_forecast, Forecaster, ModelError};
use eadrl_timeseries::embedding::embed;
use eadrl_timeseries::transform::{Scaler, ZScoreScaler};

/// A tabular regressor mapping fixed-length feature vectors to a scalar.
pub trait TabularModel: Send + Sync + Clone {
    /// Fits on rows of features with aligned targets.
    fn fit(&mut self, inputs: &[Vec<f64>], targets: &[f64]) -> Result<(), ModelError>;

    /// Predicts the target for one feature vector.
    fn predict(&self, input: &[f64]) -> f64;
}

/// Adapts a [`TabularModel`] into a [`Forecaster`] via time-delay embedding.
///
/// On `fit`, the training series is z-scored, embedded with dimension `k`,
/// and handed to the inner model. On `predict_next`, the last `k` history
/// values are scaled, fed through the model, and the output is un-scaled.
/// Histories shorter than `k` fall back to the last observed value.
#[derive(Debug, Clone)]
pub struct Windowed<M: TabularModel> {
    name: String,
    k: usize,
    scaler: Option<ZScoreScaler>,
    model: M,
    fitted: bool,
}

impl<M: TabularModel> Windowed<M> {
    /// Wraps `model` with embedding dimension `k`.
    ///
    /// # Panics
    /// Panics when `k == 0`.
    pub fn new(name: impl Into<String>, k: usize, model: M) -> Self {
        assert!(k > 0, "embedding dimension must be positive");
        Windowed {
            name: name.into(),
            k,
            scaler: None,
            model,
            fitted: false,
        }
    }

    /// Immutable access to the inner model (post-fit inspection in tests).
    pub fn inner(&self) -> &M {
        &self.model
    }
}

impl<M: TabularModel + 'static> Forecaster for Windowed<M> {
    fn name(&self) -> &str {
        &self.name
    }

    fn fit(&mut self, series: &[f64]) -> Result<(), ModelError> {
        // Require a handful of supervised examples beyond the window.
        let needed = self.k + 8;
        if series.len() < needed {
            return Err(ModelError::SeriesTooShort {
                needed,
                got: series.len(),
            });
        }
        let scaler = ZScoreScaler::fit(series);
        let scaled = scaler.transform_all(series);
        let emb = embed(&scaled, self.k);
        self.model.fit(&emb.inputs, &emb.targets)?;
        self.scaler = Some(scaler);
        self.fitted = true;
        Ok(())
    }

    fn predict_next(&self, history: &[f64]) -> f64 {
        let (Some(scaler), true) = (self.scaler.as_ref(), self.fitted) else {
            return fallback_forecast(history);
        };
        if history.len() < self.k {
            return fallback_forecast(history);
        }
        let window: Vec<f64> = history[history.len() - self.k..]
            .iter()
            .map(|&v| scaler.transform(v))
            .collect();
        let pred = self.model.predict(&window);
        let out = scaler.inverse(pred);
        if out.is_finite() {
            out
        } else {
            fallback_forecast(history)
        }
    }

    fn box_clone(&self) -> Box<dyn Forecaster> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Predicts the mean of the window (for adapter-level tests).
    #[derive(Debug, Clone, Default)]
    struct WindowMean;

    impl TabularModel for WindowMean {
        fn fit(&mut self, _inputs: &[Vec<f64>], _targets: &[f64]) -> Result<(), ModelError> {
            Ok(())
        }

        fn predict(&self, input: &[f64]) -> f64 {
            input.iter().sum::<f64>() / input.len() as f64
        }
    }

    #[test]
    fn fit_requires_enough_data() {
        let mut w = Windowed::new("wm", 5, WindowMean);
        assert!(w.fit(&[1.0; 10]).is_err());
        assert!(w.fit(&[1.0; 13]).is_ok());
    }

    #[test]
    fn unfitted_model_falls_back() {
        let w = Windowed::new("wm", 3, WindowMean);
        assert_eq!(w.predict_next(&[1.0, 2.0, 3.0, 4.0]), 4.0);
    }

    #[test]
    fn short_history_falls_back() {
        let mut w = Windowed::new("wm", 5, WindowMean);
        w.fit(&(0..30).map(|i| i as f64).collect::<Vec<_>>())
            .unwrap();
        assert_eq!(w.predict_next(&[7.0]), 7.0);
    }

    #[test]
    fn scaling_roundtrips_through_prediction() {
        // WindowMean on a constant series must predict that constant.
        let series = vec![42.0; 40];
        let mut w = Windowed::new("wm", 5, WindowMean);
        w.fit(&series).unwrap();
        let p = w.predict_next(&series);
        assert!((p - 42.0).abs() < 1e-9, "got {p}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_embedding_panics() {
        let _ = Windowed::new("wm", 0, WindowMean);
    }
}
