//! EA-DRL: actor-critic ensemble aggregation for time-series forecasting.
//!
//! This crate is the paper's primary contribution, built on the substrates
//! in the sibling crates:
//!
//! * [`env::EnsembleEnv`] — the MDP of §II-B: states are ω-length windows
//!   of the ensemble's own outputs, actions are the m-dimensional weight
//!   vectors, the transition is deterministic, and the reward is the
//!   rank-based signal of Eq. 3 (with the 1 − NRMSE alternative of
//!   Figure 2a available for the ablation);
//! * [`eadrl::EaDrl`] — the end-to-end model: a pool of base forecasters,
//!   offline DDPG policy learning, and the online forecasting procedure of
//!   Algorithm 1;
//! * [`combiner::Combiner`] — the interface shared by EA-DRL and every
//!   baseline aggregation method of the evaluation (SE, SWE, EWA, FS, OGD,
//!   MLPOL, Stacking, Clus, Top.sel, DEMSC);
//! * [`experiment`] — the evaluation protocol of §III: 75/25 split, pool
//!   fitting, warm-up on a validation tail, online rolling evaluation.
#![forbid(unsafe_code)]

pub mod baselines;
pub mod combiner;
pub mod eadrl;
pub mod env;
pub mod experiment;
pub mod guard;
pub mod online;
pub mod parallel;
pub mod persist;

pub use combiner::{run_combiner, run_combiner_traced, weight_churn, Combiner};
pub use eadrl::{weight_entropy, EaDrl, EaDrlConfig, EaDrlPolicy, OnlineState};
pub use env::{EnsembleEnv, RewardKind};
pub use experiment::{
    multi_horizon_rmse, sanitize_predictions, DatasetEvaluation, EvaluationProtocol, MethodResult,
    Prepared,
};
pub use guard::{renormalize_over_active, FaultClass, GuardConfig, GuardedSweep, PoolGuard};
pub use online::{AdaptiveEaDrl, RefreshStrategy, RefreshTrigger};
pub use parallel::{fit_pool, prediction_matrix};
pub use persist::{PersistError, PolicySnapshot};
