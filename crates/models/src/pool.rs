//! Construction of the paper's 43-model heterogeneous pool.

use crate::forecaster::Forecaster;
use crate::gbm::gradient_boosting;
use crate::gp::gaussian_process;
use crate::linear::auto_regressive;
use crate::mars::mars;
use crate::neural::{
    bilstm_forecaster, cnn_lstm_forecaster, conv_lstm_forecaster, lstm_forecaster, mlp_forecaster,
};
use crate::pcr::pcr;
use crate::pls_model::pls;
use crate::ppr::projection_pursuit;
use crate::svr::{svr_linear, svr_rbf};
use crate::tree::{decision_tree, random_forest};
use crate::{
    arima::Arima,
    ets::{Ets, EtsKind},
};

/// Size of [`standard_pool`] — the paper's pool has 43 members.
pub const STANDARD_POOL_SIZE: usize = 43;

/// The sixteen base-model families of the paper's pool (§III, "Single
/// base models set-up").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelFamily {
    /// Autoregressive integrated moving average.
    Arima,
    /// Exponential smoothing (SES / Holt / Holt–Winters).
    Ets,
    /// Gradient boosting machines.
    Gbm,
    /// Gaussian-process regression.
    GaussianProcess,
    /// Support-vector regression.
    Svr,
    /// Random-forest regression.
    RandomForest,
    /// Projection-pursuit regression.
    ProjectionPursuit,
    /// Multivariate adaptive regression splines.
    Mars,
    /// Principal-component regression.
    Pcr,
    /// Decision-tree regression.
    DecisionTree,
    /// Partial-least-squares regression.
    Pls,
    /// Multilayer perceptron.
    Mlp,
    /// Long short-term memory network.
    Lstm,
    /// Bidirectional LSTM.
    BiLstm,
    /// CNN-feature-extractor LSTM.
    CnnLstm,
    /// Convolutional (patch-input) LSTM.
    ConvLstm,
    /// Anything not matching a known family prefix (custom user models).
    Other,
}

impl ModelFamily {
    /// Classifies a model by its [`crate::Forecaster::name`] prefix.
    pub fn of(model_name: &str) -> ModelFamily {
        // Longest-prefix rules: check the compound names first.
        const RULES: [(&str, ModelFamily); 17] = [
            ("CNN-LSTM", ModelFamily::CnnLstm),
            ("Conv-LSTM", ModelFamily::ConvLstm),
            ("BiLSTM", ModelFamily::BiLstm),
            ("StLSTM", ModelFamily::Lstm),
            ("LSTM", ModelFamily::Lstm),
            ("ARIMA", ModelFamily::Arima),
            ("ETS", ModelFamily::Ets),
            ("GBM", ModelFamily::Gbm),
            ("GP", ModelFamily::GaussianProcess),
            ("SVR", ModelFamily::Svr),
            ("RFR", ModelFamily::RandomForest),
            ("PPR", ModelFamily::ProjectionPursuit),
            ("MARS", ModelFamily::Mars),
            ("PCR", ModelFamily::Pcr),
            ("DT", ModelFamily::DecisionTree),
            ("PLS", ModelFamily::Pls),
            ("MLP", ModelFamily::Mlp),
        ];
        for (prefix, family) in RULES {
            if model_name.starts_with(prefix) {
                return family;
            }
        }
        ModelFamily::Other
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            ModelFamily::Arima => "ARIMA",
            ModelFamily::Ets => "ETS",
            ModelFamily::Gbm => "GBM",
            ModelFamily::GaussianProcess => "Gaussian process",
            ModelFamily::Svr => "SVR",
            ModelFamily::RandomForest => "Random forest",
            ModelFamily::ProjectionPursuit => "Projection pursuit",
            ModelFamily::Mars => "MARS",
            ModelFamily::Pcr => "PCR",
            ModelFamily::DecisionTree => "Decision tree",
            ModelFamily::Pls => "PLS",
            ModelFamily::Mlp => "MLP",
            ModelFamily::Lstm => "LSTM",
            ModelFamily::BiLstm => "Bi-LSTM",
            ModelFamily::CnnLstm => "CNN-LSTM",
            ModelFamily::ConvLstm => "Conv-LSTM",
            ModelFamily::Other => "other",
        }
    }
}

/// Builds the 43-model pool used throughout the paper's evaluation:
/// every one of the 16 families ("Single base models set-up", §III),
/// instantiated with varied hyper-parameters ("Using different parameter
/// settings for each approach, we generate a pool of 43 single base
/// models").
///
/// * `k` — embedding dimension for the regression families (paper: 5),
/// * `season` — seasonal period handed to Holt–Winters (pick the series'
///   natural period, e.g. [`eadrl_timeseries::Frequency::default_season`]),
/// * `seed` — base RNG seed for the stochastic members.
///
/// ```
/// use eadrl_models::{standard_pool, STANDARD_POOL_SIZE};
/// let pool = standard_pool(5, 24, 42);
/// assert_eq!(pool.len(), STANDARD_POOL_SIZE); // the paper's 43 models
/// ```
pub fn standard_pool(k: usize, season: usize, seed: u64) -> Vec<Box<dyn Forecaster>> {
    let season = season.max(2);
    let mut pool: Vec<Box<dyn Forecaster>> = vec![
        // ARIMA — 5 configurations.
        Box::new(Arima::new(1, 0, 0)),
        Box::new(Arima::new(2, 0, 1)),
        Box::new(Arima::new(1, 1, 1)),
        Box::new(Arima::new(2, 1, 2)),
        Box::new(Arima::new(5, 0, 0)),
        // ETS — 3.
        Box::new(Ets::new(EtsKind::Simple)),
        Box::new(Ets::new(EtsKind::Holt)),
        Box::new(Ets::new(EtsKind::HoltWinters { period: season })),
        // GBM — 3.
        Box::new(gradient_boosting(k, 60, 2, 0.1)),
        Box::new(gradient_boosting(k, 100, 3, 0.05)),
        Box::new(gradient_boosting(k, 40, 4, 0.2)),
        // GP — 3.
        Box::new(gaussian_process(k, 0.5, 1e-2, 150)),
        Box::new(gaussian_process(k, 1.0, 1e-2, 150)),
        Box::new(gaussian_process(k, 2.0, 1e-2, 150)),
        // SVR — 3.
        Box::new(svr_linear(k, 10.0, 0.01)),
        Box::new(svr_rbf(k, 10.0, 0.01, 0.5, seed ^ 0x51)),
        Box::new(svr_rbf(k, 10.0, 0.01, 2.0, seed ^ 0x52)),
        // RFR — 3.
        Box::new(random_forest(k, 15, 6, seed ^ 0x61)),
        Box::new(random_forest(k, 30, 8, seed ^ 0x62)),
        Box::new(random_forest(k, 10, 4, seed ^ 0x63)),
        // PPR — 2.
        Box::new(projection_pursuit(k, 2, seed ^ 0x71)),
        Box::new(projection_pursuit(k, 4, seed ^ 0x72)),
        // MARS — 2.
        Box::new(mars(k, 8)),
        Box::new(mars(k, 15)),
        // PCR — 2.
        Box::new(pcr(k, 2)),
        Box::new(pcr(k, 4)),
        // DT — 3.
        Box::new(decision_tree(k, 3, 4)),
        Box::new(decision_tree(k, 6, 3)),
        Box::new(decision_tree(k, 10, 2)),
        // PLS — 2.
        Box::new(pls(k, 2)),
        Box::new(pls(k, 4)),
        // MLP — 3.
        Box::new(mlp_forecaster(k, vec![8], 40, seed ^ 0x81)),
        Box::new(mlp_forecaster(k, vec![16], 40, seed ^ 0x82)),
        Box::new(mlp_forecaster(k, vec![16, 8], 40, seed ^ 0x83)),
        // LSTM — 3.
        Box::new(lstm_forecaster(k, 4, 30, seed ^ 0x91)),
        Box::new(lstm_forecaster(k, 8, 30, seed ^ 0x92)),
        Box::new(lstm_forecaster(k, 12, 30, seed ^ 0x93)),
        // Bi-LSTM — 2.
        Box::new(bilstm_forecaster(k, 4, 25, seed ^ 0xa1)),
        Box::new(bilstm_forecaster(k, 8, 25, seed ^ 0xa2)),
        // CNN-LSTM — 2.
        Box::new(cnn_lstm_forecaster(k, 4, 2, 8, 30, seed ^ 0xb1)),
        Box::new(cnn_lstm_forecaster(k, 8, 3, 8, 30, seed ^ 0xb2)),
        // Conv-LSTM — 2.
        Box::new(conv_lstm_forecaster(k, 2, 8, 30, seed ^ 0xc1)),
        Box::new(conv_lstm_forecaster(k, 3, 8, 30, seed ^ 0xc2)),
    ];
    debug_assert_eq!(pool.len(), STANDARD_POOL_SIZE);
    pool.truncate(STANDARD_POOL_SIZE);
    pool
}

/// A small, fast pool (8 models, one per broad family group) for tests,
/// examples and quick experiment runs.
pub fn quick_pool(k: usize, season: usize, seed: u64) -> Vec<Box<dyn Forecaster>> {
    let season = season.max(2);
    vec![
        Box::new(Arima::new(1, 0, 0)),
        Box::new(Ets::new(EtsKind::HoltWinters { period: season })),
        Box::new(auto_regressive(k, 1e-3)),
        Box::new(gradient_boosting(k, 40, 3, 0.1)),
        Box::new(random_forest(k, 10, 6, seed ^ 0x1)),
        Box::new(decision_tree(k, 6, 3)),
        Box::new(mlp_forecaster(k, vec![8], 30, seed ^ 0x2)),
        Box::new(lstm_forecaster(k, 6, 20, seed ^ 0x3)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use eadrl_timeseries::metrics::rmse;

    #[test]
    fn standard_pool_has_43_members_with_unique_names() {
        let pool = standard_pool(5, 12, 0);
        assert_eq!(pool.len(), STANDARD_POOL_SIZE);
        let mut names: Vec<&str> = pool.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), STANDARD_POOL_SIZE, "duplicate model names");
    }

    #[test]
    fn quick_pool_fits_and_forecasts_seasonal_series() {
        let series: Vec<f64> = (0..260)
            .map(|t| (2.0 * std::f64::consts::PI * t as f64 / 12.0).sin() * 5.0 + 20.0)
            .collect();
        let (train, test) = series.split_at(200);
        let mut pool = quick_pool(5, 12, 7);
        for model in pool.iter_mut() {
            model
                .fit(train)
                .unwrap_or_else(|e| panic!("{} failed: {e}", model.name()));
        }
        // Every member should clearly beat a terrible constant forecast.
        for model in &pool {
            let preds: Vec<f64> = (train.len()..series.len())
                .map(|t| model.predict_next(&series[..t]))
                .collect();
            let err = rmse(test, &preds);
            assert!(
                err < 5.0,
                "{} rmse {err} (amplitude 5 sine should be learnable)",
                model.name()
            );
        }
    }

    #[test]
    fn standard_pool_spans_all_sixteen_families() {
        let pool = standard_pool(5, 12, 0);
        let mut families: std::collections::HashSet<ModelFamily> =
            pool.iter().map(|m| ModelFamily::of(m.name())).collect();
        families.remove(&ModelFamily::Other);
        assert_eq!(families.len(), 16, "families: {families:?}");
    }

    #[test]
    fn family_classification_handles_compound_names() {
        assert_eq!(
            ModelFamily::of("CNN-LSTM(c=4,k=2,h=8)"),
            ModelFamily::CnnLstm
        );
        assert_eq!(ModelFamily::of("Conv-LSTM(p=2,h=8)"), ModelFamily::ConvLstm);
        assert_eq!(ModelFamily::of("LSTM(h=8)"), ModelFamily::Lstm);
        assert_eq!(ModelFamily::of("BiLSTM(h=4)"), ModelFamily::BiLstm);
        assert_eq!(ModelFamily::of("GP(ℓ=0.5)"), ModelFamily::GaussianProcess);
        assert_eq!(ModelFamily::of("SomethingCustom"), ModelFamily::Other);
        assert_eq!(ModelFamily::Arima.label(), "ARIMA");
    }

    #[test]
    fn pool_members_are_cloneable() {
        let pool = quick_pool(5, 12, 0);
        let cloned: Vec<Box<dyn Forecaster>> = pool.iter().map(|m| m.box_clone()).collect();
        assert_eq!(cloned.len(), pool.len());
    }
}
