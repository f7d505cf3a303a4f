//! The four workloads: their inputs, their set-up and the two serving
//! paths they exercise.
//!
//! Every workload trains on the first [`TRAIN_LEN`] values of a seeded
//! `BikeRentals` series (hourly, season 24) with the paper's 43-model
//! pool and `EaDrlConfig::default()`, then serves one-step forecasts.
//! The program sees only the generated values.

use crate::faults::{self, FaultPlan};
use crate::layers::{Recorder, Timed};
use eadrl_core::{
    fit_pool, prediction_matrix, renormalize_over_active, sanitize_predictions, AdaptiveEaDrl,
    Combiner, EaDrl, EaDrlConfig, PoolGuard, RefreshStrategy, RefreshTrigger,
};
use eadrl_datasets::{generate, DatasetId};
use eadrl_linalg::vector::dot;
use eadrl_models::{fallback_forecast, standard_pool, Forecaster, ModelError};
use eadrl_timeseries::sanitize::sanitize_series;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Training prefix length: 360 values fit the pool, 120 train the policy.
pub const TRAIN_LEN: usize = 480;
/// Serving window of the fixed-size workloads.
pub const WINDOW: usize = 512;
/// Steps per statistics block of the workloads without refresh; see
/// [`crate::serve::Pass::across_blocks`].
pub const BLOCK: usize = 1000;
/// Online steps between policy refreshes (and between regime shifts) in
/// `drift_refresh`, which is also its statistics block: one refresh per
/// block.
pub const REFRESH_EVERY: usize = 250;
/// Steps a regime shift precedes its refresh, so the refresh buffer
/// holds both regimes.
pub const SHIFT_LEAD: usize = 60;
/// Refresh buffer of `drift_refresh` (recent steps a refresh trains on).
pub const REFRESH_BUFFER: usize = 120;
/// Training episodes of each warm-start refresh in `drift_refresh`.
pub const REFRESH_EPISODES: usize = 10;

/// Which serving path and input shape a workload uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `EaDrl::predict_next` over the trailing [`WINDOW`] values.
    Window,
    /// `EaDrl::predict_next` over the whole history, growing by one
    /// value per step.
    Growing,
    /// [`Kind::Window`] with three fault-injected members.
    Faults,
    /// The refresh pipeline over the trailing window of a series whose
    /// regime shifts [`SHIFT_LEAD`] steps before every periodic
    /// warm-start refresh.
    Drift,
}

/// One workload: a name, an arrival rate and a kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Stable name, cited by `BENCHMARK.json` and later changes.
    pub name: &'static str,
    /// Open-loop arrival rate, steps per second.
    pub rate: f64,
    /// Serving path and input shape.
    pub kind: Kind,
}

/// Every workload, in the order `--workload all` runs them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "serve_w512",
        rate: 2000.0,
        kind: Kind::Window,
    },
    Workload {
        name: "serve_growing",
        rate: 500.0,
        kind: Kind::Growing,
    },
    Workload {
        name: "serve_faults",
        rate: 2000.0,
        kind: Kind::Faults,
    },
    Workload {
        name: "drift_refresh",
        rate: 250.0,
        kind: Kind::Drift,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// Steps served in a run of `seconds` seconds.
    pub fn steps(&self, seconds: f64) -> usize {
        (self.rate * seconds).round().max(1.0) as usize
    }
}

/// The generated inputs of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Data {
    /// The whole series; step `i` forecasts `values[first + i]`.
    pub values: Vec<f64>,
    /// Index of the first served value.
    first: usize,
    /// Steps served.
    pub steps: usize,
    /// Trailing window length, or `None` for the whole history.
    pub window: Option<usize>,
    /// Steps per statistics block.
    pub block: usize,
}

impl Data {
    /// Generates the inputs of `steps` steps of workload kind `kind`.
    pub fn generate(kind: Kind, seed: u64, steps: usize) -> Data {
        let (first, window) = match kind {
            Kind::Growing => (TRAIN_LEN, None),
            _ => (WINDOW, Some(WINDOW)),
        };
        let mut values = generate(DatasetId::BikeRentals, first + steps, seed)
            .values()
            .to_vec();
        if kind == Kind::Drift {
            // Alternate between the raw regime and one with a 1.6× higher
            // level, so every refresh retrains on a changed regime.
            for (i, v) in values[first..].iter_mut().enumerate() {
                if shifted(i) {
                    *v = *v * 1.6 + 40.0;
                }
            }
        }
        Data {
            values,
            first,
            steps,
            window,
            block: if kind == Kind::Drift {
                REFRESH_EVERY
            } else {
                BLOCK
            },
        }
    }

    /// The training prefix.
    pub fn train(&self) -> &[f64] {
        &self.values[..TRAIN_LEN]
    }

    /// The history step `i` forecasts from.
    pub fn history(&self, i: usize) -> &[f64] {
        let end = self.first + i;
        let start = self.window.map_or(0, |w| end.saturating_sub(w));
        &self.values[start..end]
    }

    /// The value step `i` forecasts.
    pub fn actual(&self, i: usize) -> f64 {
        self.values[self.first + i]
    }
}

/// True when `drift_refresh`'s step `i` forecasts a value of the shifted
/// regime.
pub fn shifted(i: usize) -> bool {
    ((i + SHIFT_LEAD) / REFRESH_EVERY) % 2 == 1
}

/// A fitted server of either serving path. One lives per run and is
/// never moved while serving, so its size does not matter.
#[allow(clippy::large_enum_variant)]
pub enum Server {
    /// The guarded frozen-policy path, `EaDrl::predict_next`.
    Frozen(EaDrl),
    /// The refresh pipeline.
    Adaptive(RefreshServer),
}

impl Server {
    /// Serves one forecast from `history`.
    pub fn step(&mut self, history: &[f64]) -> f64 {
        match self {
            Server::Frozen(model) => model.predict_next(history),
            Server::Adaptive(server) => server.step(history),
        }
    }

    /// The weights the policy would serve now (one actor forward pass;
    /// the next step recomputes them, so probing changes no forecast).
    pub fn weights(&mut self) -> Vec<f64> {
        match self {
            Server::Frozen(model) => model.current_weights(),
            Server::Adaptive(server) => server.policy.weights(server.pool.len()),
        }
    }

    /// The degradation guard's member health.
    pub fn guard(&self) -> &PoolGuard {
        match self {
            Server::Frozen(model) => model.guard(),
            Server::Adaptive(server) => &server.guard,
        }
    }

    /// Faults the guard has seen, over every pool member.
    pub fn guard_faults(&self) -> u64 {
        let (guard, m) = match self {
            Server::Frozen(model) => (model.guard(), model.n_models()),
            Server::Adaptive(server) => (&server.guard, server.pool.len()),
        };
        (0..m).map(|i| guard.total_faults(i)).sum()
    }

    /// Policy refreshes deployed so far.
    pub fn refreshes(&self) -> usize {
        match self {
            Server::Frozen(_) => 0,
            Server::Adaptive(server) => server.policy.refreshes(),
        }
    }

    /// Time the last step spent observing the previous actual, which
    /// includes any refresh it triggered.
    pub fn last_observe(&self) -> Duration {
        match self {
            Server::Frozen(_) => Duration::ZERO,
            Server::Adaptive(server) => server.last_observe,
        }
    }
}

/// The public pipeline that composes online policy refresh today:
/// `sanitize_series` → `PoolGuard::sweep` → `AdaptiveEaDrl` weights →
/// dot product. Each step first observes the previous step's actual (the
/// newest history value), so a refresh blocks the step that reveals it.
/// Refreshes warm-start from the deployed policy and train
/// [`REFRESH_EPISODES`] episodes on the serving thread.
pub struct RefreshServer {
    pool: Vec<Box<dyn Forecaster>>,
    guard: PoolGuard,
    policy: AdaptiveEaDrl,
    pending: Option<Vec<f64>>,
    last_observe: Duration,
}

impl RefreshServer {
    /// Fits the pool and warms the policy up exactly as `EaDrl::fit`
    /// does on a clean training series.
    pub fn fit(
        pool: Vec<Box<dyn Forecaster>>,
        config: EaDrlConfig,
        trigger: RefreshTrigger,
        train: &[f64],
    ) -> Result<RefreshServer, ModelError> {
        let val_fraction = config.val_fraction.clamp(0.05, 0.5);
        let fit_len = ((train.len() as f64) * (1.0 - val_fraction)).round() as usize;
        let (fit_part, val_part) = train.split_at(fit_len.min(train.len()));
        let (pool, _dropped) = fit_pool(pool, fit_part);
        if pool.is_empty() {
            return Err(ModelError::SeriesTooShort {
                needed: 20,
                got: train.len(),
            });
        }
        let mut preds = prediction_matrix(&pool, fit_part, val_part);
        sanitize_predictions(&mut preds, fit_part);
        let guard = PoolGuard::new(config.guard.clone(), pool.len());
        let mut policy = AdaptiveEaDrl::new(config, trigger, REFRESH_BUFFER).with_strategy(
            RefreshStrategy::WarmStart {
                episodes: REFRESH_EPISODES,
            },
        );
        policy.warm_up(&preds, val_part);
        Ok(RefreshServer {
            pool,
            guard,
            policy,
            pending: None,
            last_observe: Duration::ZERO,
        })
    }

    /// Observes the previous step's actual, then serves one forecast.
    pub fn step(&mut self, history: &[f64]) -> f64 {
        if let (Some(values), Some(&actual)) = (self.pending.take(), history.last()) {
            let start = Instant::now();
            self.policy.observe(&values, actual);
            self.last_observe = start.elapsed();
        }
        let sanitized = sanitize_series(history);
        let history = sanitized
            .as_ref()
            .map_or(history, |(fixed, _)| fixed.as_slice());
        let sweep = self.guard.sweep(&self.pool, history);
        let w = self.policy.weights(self.pool.len());
        let forecast = if sweep.all_active {
            dot(&w, &sweep.values)
        } else if sweep.active.iter().any(|&a| a) {
            dot(&renormalize_over_active(&w, &sweep.active), &sweep.values)
        } else {
            fallback_forecast(history)
        };
        self.pending = Some(sweep.values);
        forecast
    }
}

/// The serving configuration of every workload.
pub fn config(seed: u64) -> EaDrlConfig {
    let mut config = EaDrlConfig::default();
    config.ddpg.seed = seed;
    config
}

/// Builds and fits the server of workload kind `kind` on `data` from
/// `pool`. With a recorder, every member (fault injector included) is
/// wrapped in [`Timed`]. Returns the server and its fault plan, disarmed.
pub fn set_up(
    kind: Kind,
    pool: Vec<Box<dyn Forecaster>>,
    config: EaDrlConfig,
    data: &Data,
    recorder: Option<&Arc<Recorder>>,
) -> Result<(Server, FaultPlan), ModelError> {
    let (pool, plan) = match kind {
        Kind::Faults => {
            let faults = faults::plan(config.ddpg.seed, pool.len(), data.steps);
            FaultPlan::wrap(pool, &faults)
        }
        _ => (pool, FaultPlan::default()),
    };
    let pool = match recorder {
        Some(recorder) => Timed::wrap_pool(pool, recorder),
        None => pool,
    };
    let server = match kind {
        // A periodic trigger refreshes on the same steps for every seed;
        // the Page–Hinkley trigger fired 2 to 4 times per run, sometimes
        // back to back, so seeds differed in the work measured.
        Kind::Drift => {
            let trigger = RefreshTrigger::Periodic {
                period: REFRESH_EVERY,
            };
            Server::Adaptive(RefreshServer::fit(pool, config, trigger, data.train())?)
        }
        _ => {
            let mut model = EaDrl::new(pool, config);
            model.fit(data.train())?;
            Server::Frozen(model)
        }
    };
    Ok((server, plan))
}

/// The paper's pool for `seed`: `standard_pool(5, 24, seed)`.
pub fn paper_pool(seed: u64) -> Vec<Box<dyn Forecaster>> {
    standard_pool(5, 24, seed)
}
