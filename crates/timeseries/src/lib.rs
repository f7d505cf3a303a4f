//! Time-series substrate for the EA-DRL reproduction.
//!
//! Provides the containers and primitives every other crate builds on:
//!
//! * [`TimeSeries`] — a named univariate series with a sampling frequency,
//! * [`embedding`] — time-delay embedding (the paper embeds every series
//!   with dimension k = 5 before feeding regression-style base models),
//! * [`metrics`] — RMSE / NRMSE / MAE / MAPE / sMAPE / R²,
//! * [`transform`] — z-score and min-max scalers, differencing,
//! * [`stats`] — autocorrelation, partial autocorrelation, rolling moments,
//! * [`drift`] — Page–Hinkley and adaptive-window drift detectors (used by
//!   the DEMSC baseline's informed update mechanism),
//! * [`sanitize`] — non-finite/gap repair for serving-path input
//!   histories (forward-fill policy, documented in the module),
//! * [`window`] — fixed-capacity sliding windows (`SlideWindow`,
//!   `StepRing`) backing every serving-loop ring buffer with amortized
//!   O(1), allocation-free slides.
#![forbid(unsafe_code)]

pub mod decompose;
pub mod drift;
pub mod embedding;
pub mod io;
pub mod metrics;
pub mod sanitize;
pub mod series;
pub mod stats;
pub mod transform;
pub mod window;

pub use decompose::{decompose_additive, Decomposition};
pub use drift::{AdaptiveWindowDetector, PageHinkley};
pub use embedding::{embed, sliding_windows, Embedded};
pub use io::{read_csv_column, read_csv_file, write_csv, IoError};
pub use metrics::{mae, mape, mse, nrmse, r2, rmse, smape};
pub use sanitize::{sanitize_series, SanitizeStats};
pub use series::{Frequency, TimeSeries};
pub use transform::{difference, undifference, MinMaxScaler, Scaler, ZScoreScaler};
pub use window::{SlideWindow, StepRing};
