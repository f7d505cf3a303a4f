//! Base forecasting models of the EA-DRL reproduction.
//!
//! The paper builds its ensemble from a heterogeneous pool of 43 base models
//! spanning 16 families (§III, "Single base models set-up"): ARIMA, ETS,
//! GBM, Gaussian processes, SVR, random forests, projection-pursuit
//! regression, MARS, principal-component regression, decision trees,
//! partial-least-squares regression, MLP, LSTM, Bi-LSTM, CNN-LSTM and
//! Conv-LSTM. Every family is implemented here from scratch on top of
//! `eadrl-linalg` and `eadrl-nn`; [`pool::standard_pool`] assembles the
//! 43-member pool from varied hyper-parameter settings, mirroring the
//! paper's construction.
//!
//! All models implement the [`Forecaster`] trait: fit on a training series,
//! then produce one-step-ahead forecasts from a recent-history slice.
//! Regression-family models are adapted through [`tabular::Windowed`],
//! which embeds the series with time-delay dimension k = 5 (the paper's
//! embedding) and z-scores the windows.
#![forbid(unsafe_code)]

pub mod arima;
pub mod ets;
pub mod forecaster;
pub mod gbm;
pub mod gp;
pub mod linear;
pub mod mars;
pub mod naive;
pub mod neural;
pub mod pcr;
pub mod pls_model;
pub mod pool;
pub mod ppr;
pub mod svr;
pub mod tabular;
pub mod tree;

pub use arima::Arima;
pub use ets::{Ets, EtsKind};
pub use forecaster::{fallback_forecast, Forecaster, ModelError, PredictError, SeriesState};
pub use gbm::gradient_boosting;
pub use gp::gaussian_process;
pub use linear::auto_regressive;
pub use mars::mars;
pub use naive::{DriftNaive, Naive, SeasonalNaive};
pub use neural::{
    bilstm_forecaster, cnn_lstm_forecaster, conv_lstm_forecaster, lstm_forecaster, mlp_forecaster,
    stacked_lstm_forecaster,
};
pub use pcr::pcr;
pub use pls_model::pls;
pub use pool::{quick_pool, standard_pool, ModelFamily, STANDARD_POOL_SIZE};
pub use ppr::projection_pursuit;
pub use svr::{svr_linear, svr_rbf};
pub use tabular::{TabularModel, Windowed};
pub use tree::{decision_tree, random_forest};

/// The paper's embedding dimension for regression-family base models.
pub const DEFAULT_EMBEDDING: usize = 5;
