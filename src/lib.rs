//! # EA-DRL — Actor-Critic Ensemble Aggregation for Time-Series Forecasting
//!
//! A from-scratch Rust reproduction of *"An Actor-Critic Ensemble
//! Aggregation Model for Time-Series Forecasting"* (Saadallah, Tavakol &
//! Morik, ICDE 2021).
//!
//! EA-DRL treats the weighting of a linear forecast ensemble as a
//! continuous-control reinforcement-learning problem: a DDPG actor-critic
//! learns, offline, which convex combination of 43 heterogeneous base
//! forecasters to use given a window of the ensemble's own recent outputs;
//! online, predicting the weights is a single actor forward pass.
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! * [`linalg`] — dense linear algebra (LU/Cholesky/QR, Jacobi eigen, PCA,
//!   PLS),
//! * [`timeseries`] — series containers, embedding, metrics, drift
//!   detection,
//! * [`datasets`] — seeded synthetic versions of the paper's 20 series,
//! * [`nn`] — a minimal neural-network library (dense, LSTM, conv1d, Adam),
//! * [`models`] — the 16 base-forecaster families and the 43-model pool,
//! * [`rl`] — replay buffers (uniform & diversity sampling), DDPG,
//! * [`rng`] — the repo-owned deterministic RNG behind every seed,
//! * [`par`] — the deterministic std-only thread pool behind every
//!   parallel hot path (`EADRL_PAR_THREADS`),
//! * [`core`] — EA-DRL itself plus every baseline combiner,
//! * [`eval`] — Bayesian correlated t-test, Bayes sign test, rank tables,
//! * [`obs`] — zero-dependency telemetry (spans, metrics, JSONL events),
//! * [`prof`] — trace-driven profiler over `obs` traces (span-tree
//!   attribution, flamegraph export, worker utilization, latency diff).
//!
//! ## Quickstart
//!
//! ```
//! use eadrl::core::{EaDrl, EaDrlConfig};
//! use eadrl::models::quick_pool;
//! use eadrl::datasets::{generate, DatasetId};
//!
//! // A synthetic half-hourly taxi-demand series (Table I, dataset 9).
//! let series = generate(DatasetId::TaxiDemand1, 400, 42);
//! let (train, test) = series.split(0.75);
//!
//! // Small pool + short training schedule so the doc-test stays fast.
//! let mut config = EaDrlConfig::default();
//! config.omega = 6;
//! config.episodes = 5;
//! config.max_iter = 30;
//! let mut model = EaDrl::new(quick_pool(5, 48, 7), config);
//! model.fit(train).unwrap();
//!
//! let forecast = model.forecast(train, test.len());
//! assert_eq!(forecast.len(), test.len());
//! assert!(forecast.iter().all(|v| v.is_finite()));
//! ```
#![forbid(unsafe_code)]

pub use eadrl_core as core;
pub use eadrl_datasets as datasets;
pub use eadrl_eval as eval;
pub use eadrl_linalg as linalg;
pub use eadrl_models as models;
pub use eadrl_nn as nn;
pub use eadrl_obs as obs;
pub use eadrl_par as par;
pub use eadrl_prof as prof;
pub use eadrl_rl as rl;
pub use eadrl_rng as rng;
pub use eadrl_timeseries as timeseries;
