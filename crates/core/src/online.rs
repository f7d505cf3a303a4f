//! Online policy refresh — the paper's first future-work direction.
//!
//! §III-B: *"One potential future research direction would be to
//! investigate the impact of an online update of the policy, for instance
//! in a periodic manner, or in an informed fashion following a
//! drift-detection mechanism in the data and/or the performance of the
//! ensemble."*
//!
//! [`AdaptiveEaDrl`] implements both variants on top of [`EaDrlPolicy`]:
//! it maintains a sliding buffer of recent `(predictions, actual)` pairs
//! and re-runs the offline policy learning on that buffer either every
//! `period` steps ([`RefreshTrigger::Periodic`]) or when a Page–Hinkley
//! test on the ensemble's absolute error signals drift
//! ([`RefreshTrigger::DriftDetected`]).

use crate::combiner::Combiner;
use crate::eadrl::{EaDrlConfig, EaDrlPolicy, Training};
use eadrl_obs::Level;
use eadrl_timeseries::drift::PageHinkley;
use eadrl_timeseries::sanitize::sanitize_series;
use eadrl_timeseries::window::StepRing;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Maximum policy-learning attempts per online refresh (1 initial try +
/// bounded retries with a deterministically bumped seed). A refresh that
/// panics — e.g. a corrupted buffer driving the DDPG training into a
/// numerical edge case — must never take down the serving loop, and a
/// bounded number of re-seeded retries recovers the transient cases.
const REFRESH_ATTEMPTS: u64 = 3;

/// When to re-learn the combination policy online.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RefreshTrigger {
    /// Never refresh — behaves exactly like the paper's frozen EA-DRL.
    Never,
    /// Refresh every `period` online steps.
    Periodic {
        /// Steps between refreshes.
        period: usize,
    },
    /// Refresh when a Page–Hinkley test on the ensemble's absolute error
    /// fires (`delta` tolerance, `lambda` threshold).
    DriftDetected {
        /// Page–Hinkley magnitude tolerance.
        delta: f64,
        /// Page–Hinkley detection threshold.
        lambda: f64,
    },
}

/// How a triggered refresh retrains the policy.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum RefreshStrategy {
    /// Every refresh rebuilds a fresh [`EaDrlPolicy`] and replays the
    /// full multi-restart offline training — the original (and default)
    /// behaviour, byte-identical to earlier releases.
    #[default]
    Cold,
    /// Train the deployed actor on for `episodes` episodes instead of
    /// the full restart sweep — typically several times cheaper per
    /// refresh. The untouched actor and the static weightings compete
    /// with its checkpoints. A retry after a caught panic falls back to
    /// a cold start with the bumped seed, as does a refresh before any
    /// policy is deployed or after the pool width changes.
    WarmStart {
        /// Refinement episodes per refresh (compare
        /// [`EaDrlConfig::episodes`] for the cold path).
        episodes: usize,
    },
}

/// EA-DRL with online policy refresh.
///
/// Usable anywhere a [`Combiner`] is expected; when no refresh ever
/// triggers it is behaviourally identical to [`EaDrlPolicy`].
pub struct AdaptiveEaDrl {
    config: EaDrlConfig,
    trigger: RefreshTrigger,
    strategy: RefreshStrategy,
    policy: EaDrlPolicy,
    /// Sliding buffer of recent steps used as the refresh training data.
    history: StepRing,
    /// Reusable staging area for the refresh training matrix — the
    /// history rows are copied into these buffers in place instead of
    /// cloning a fresh matrix per refresh.
    staged_preds: Vec<Vec<f64>>,
    staged_actuals: Vec<f64>,
    detector: Option<PageHinkley>,
    steps_since_refresh: usize,
    refreshes: usize,
}

impl AdaptiveEaDrl {
    /// Creates an adaptive EA-DRL.
    ///
    /// `buffer_len` bounds the sliding window of recent observations that
    /// a refresh trains on; it must comfortably exceed
    /// `config.omega + 2` for the refresh to be able to build an
    /// environment (smaller buffers simply skip refreshing).
    pub fn new(config: EaDrlConfig, trigger: RefreshTrigger, buffer_len: usize) -> Self {
        let detector = match trigger {
            RefreshTrigger::DriftDetected { delta, lambda } => {
                Some(PageHinkley::new(delta, lambda))
            }
            _ => None,
        };
        AdaptiveEaDrl {
            policy: EaDrlPolicy::new(config.clone()),
            config,
            trigger,
            strategy: RefreshStrategy::Cold,
            history: StepRing::new(buffer_len.max(8)),
            staged_preds: Vec::new(),
            staged_actuals: Vec::new(),
            detector,
            steps_since_refresh: 0,
            refreshes: 0,
        }
    }

    /// Selects how refreshes retrain (builder style); the default is
    /// [`RefreshStrategy::Cold`].
    pub fn with_strategy(mut self, strategy: RefreshStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Number of online policy refreshes performed so far.
    pub fn refreshes(&self) -> usize {
        self.refreshes
    }

    /// Forces a policy refresh on the current buffer, outside any
    /// trigger schedule — an operational hook (and the refresh-latency
    /// benchmark's entry point). Subject to the same buffer-size checks,
    /// panic recovery and strategy as a triggered refresh.
    pub fn refresh_now(&mut self) {
        self.refresh("manual");
    }

    /// The currently deployed policy.
    pub fn policy(&self) -> &EaDrlPolicy {
        &self.policy
    }

    fn push_history(&mut self, preds: &[f64], actual: f64) {
        // The ring reuses the evicted slot's row allocation, so a
        // saturated buffer records steps without the old per-step
        // `to_vec` + O(n) shift.
        self.history.record(preds, actual);
    }

    fn refresh(&mut self, cause: &str) {
        // Not enough recent data to rebuild the environment.
        let skip = || {
            eadrl_obs::warn(
                "eadrl.online.refresh.skipped",
                &[
                    ("cause", cause.into()),
                    ("buffer_len", self.history.len().into()),
                    ("needed", (self.config.omega + 3).into()),
                ],
            );
        };
        if self.history.len() <= self.config.omega + 2 {
            skip();
            return;
        }
        let _span = eadrl_obs::span("eadrl.online.refresh");
        // Stage the training matrix into the persistent buffers: row
        // allocations from earlier refreshes are rewritten in place
        // instead of cloning every history row again.
        let mut preds = std::mem::take(&mut self.staged_preds);
        let mut actuals = std::mem::take(&mut self.staged_actuals);
        while preds.len() < self.history.len() {
            preds.push(Vec::new());
        }
        preds.truncate(self.history.len());
        actuals.clear();
        for (row, (p, a)) in preds.iter_mut().zip(self.history.iter()) {
            row.clear();
            row.extend_from_slice(p);
            actuals.push(*a);
        }
        // A live buffer can carry non-finite entries (faulty members, gap
        // bursts); repair it before it reaches policy learning. A buffer
        // with no finite actual at all cannot train anything.
        match sanitize_series(&actuals) {
            None => {}
            Some((fixed, stats)) => {
                eadrl_obs::event(
                    "eadrl.sanitize",
                    Level::Warn,
                    &[
                        ("context", "refresh_buffer".into()),
                        ("replaced", stats.replaced.into()),
                        ("leading", stats.leading.into()),
                        ("len", stats.len.into()),
                    ],
                );
                if stats.replaced == stats.len {
                    skip();
                    self.staged_preds = preds;
                    self.staged_actuals = actuals;
                    return;
                }
                actuals.clear();
                actuals.extend_from_slice(&fixed);
            }
        }
        crate::experiment::sanitize_predictions(&mut preds, &actuals);
        // Bounded retry: each retry after a caught panic bumps the DDPG
        // seed deterministically, so it explores a different trajectory
        // instead of replaying the failure. A `WarmStart` refresh trains
        // the deployed actor on at attempt 0 only, when there is one.
        let strategy_name = match self.strategy {
            RefreshStrategy::Cold => "cold",
            RefreshStrategy::WarmStart { .. } => "warm_start",
        };
        let mut deployed = false;
        let mut attempts = 0u64;
        let mut cold_restart = false;
        for attempt in 0..REFRESH_ATTEMPTS {
            attempts = attempt + 1;
            let mut config = self.config.clone();
            config.ddpg.seed = config.ddpg.seed.wrapping_add(7919 * attempt);
            let training = match (self.strategy, &self.policy.actor) {
                (RefreshStrategy::WarmStart { episodes }, Some(actor)) if attempt == 0 => {
                    Training::WarmStart {
                        actor: actor.clone(),
                        episodes,
                    }
                }
                (RefreshStrategy::WarmStart { .. }, _) => {
                    cold_restart = true;
                    Training::Restarts
                }
                (RefreshStrategy::Cold, _) => Training::Restarts,
            };
            let was_warm = matches!(training, Training::WarmStart { .. });
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let _span = eadrl_obs::span("eadrl.online.select");
                let mut next = EaDrlPolicy::new(config);
                next.deploy_selection(&preds, &actuals, training)
                    .then_some(next)
            }));
            match outcome {
                Ok(Some(next)) => {
                    self.policy = next;
                    self.refreshes += 1;
                    deployed = true;
                    break;
                }
                // A warm start that declines (the pool width changed
                // under the deployed actor) is exactly the case a cold
                // restart handles — fall through to the next attempt,
                // which always goes cold. A cold selection that declines
                // signals a data-size problem, not a transient: retrying
                // with a new seed cannot help, so stop.
                Ok(None) => {
                    if !was_warm {
                        break;
                    }
                }
                Err(_) => {
                    eadrl_obs::event(
                        "eadrl.degraded",
                        Level::Warn,
                        &[
                            ("context", "refresh".into()),
                            ("attempt", attempt.into()),
                            ("cause", cause.into()),
                        ],
                    );
                }
            }
        }
        eadrl_obs::event(
            "eadrl.online.refresh",
            Level::Info,
            &[
                ("cause", cause.into()),
                ("buffer_len", self.history.len().into()),
                ("deployed", deployed.into()),
                ("attempts", attempts.into()),
                ("refreshes_total", self.refreshes.into()),
                ("strategy", strategy_name.into()),
                ("restart", cold_restart.into()),
            ],
        );
        self.staged_preds = preds;
        self.staged_actuals = actuals;
        self.steps_since_refresh = 0;
        if let Some(d) = self.detector.as_mut() {
            d.reset();
        }
    }
}

impl Combiner for AdaptiveEaDrl {
    fn name(&self) -> &str {
        match self.trigger {
            RefreshTrigger::Never => "EA-DRL",
            RefreshTrigger::Periodic { .. } => "EA-DRL+periodic",
            RefreshTrigger::DriftDetected { .. } => "EA-DRL+drift",
        }
    }

    fn warm_up(&mut self, preds: &[Vec<f64>], actuals: &[f64]) {
        self.policy.warm_up(preds, actuals);
        // Seed the refresh buffer with the tail of the warm-up stream.
        let start = preds.len().saturating_sub(self.history.capacity());
        for (p, &a) in preds[start..].iter().zip(actuals[start..].iter()) {
            self.history.record(p, a);
        }
    }

    fn weights(&mut self, m: usize) -> Vec<f64> {
        self.policy.weights(m)
    }

    fn observe(&mut self, preds: &[f64], actual: f64) {
        // Error signal for the drift detector uses the current weighting.
        // Only the drift trigger consumes it, so the other triggers skip
        // the actor forward pass (and its weight-vector allocation)
        // entirely. Computed before `policy.observe` advances the window,
        // matching the order the serial implementation used.
        let forecast = match self.trigger {
            RefreshTrigger::DriftDetected { .. } => {
                let w = self.policy.weights(preds.len());
                Some(w.iter().zip(preds.iter()).map(|(w, p)| w * p).sum::<f64>())
            }
            _ => None,
        };
        self.policy.observe(preds, actual);
        self.push_history(preds, actual);
        self.steps_since_refresh += 1;

        let cause = match self.trigger {
            RefreshTrigger::Never => None,
            RefreshTrigger::Periodic { period } => {
                (self.steps_since_refresh >= period.max(1)).then_some("periodic")
            }
            RefreshTrigger::DriftDetected { .. } => {
                let forecast = forecast.unwrap_or(f64::NAN);
                let fired = actual.is_finite()
                    && self
                        .detector
                        .as_mut()
                        .map(|d| d.update((forecast - actual).abs()))
                        .unwrap_or(false);
                if fired {
                    eadrl_obs::event(
                        "eadrl.online.drift",
                        Level::Info,
                        &[
                            ("abs_error", (forecast - actual).abs().into()),
                            ("steps_since_refresh", self.steps_since_refresh.into()),
                        ],
                    );
                }
                fired.then_some("drift")
            }
        };
        if let Some(cause) = cause {
            self.refresh(cause);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combiner::run_combiner;
    use eadrl_timeseries::metrics::rmse;

    fn quick_config() -> EaDrlConfig {
        EaDrlConfig {
            omega: 6,
            episodes: 8,
            max_iter: 40,
            restarts: 1,
            ..Default::default()
        }
    }

    /// Model 0 accurate before the flip, model 1 after, model 2 never.
    fn regime_stream(n: usize, flip: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let actuals: Vec<f64> = (0..n)
            .map(|t| (t as f64 / 6.0).sin() * 3.0 + 10.0)
            .collect();
        let preds = actuals
            .iter()
            .enumerate()
            .map(|(t, &a)| {
                let w = ((t * 7) % 13) as f64 / 13.0 - 0.5;
                if t < flip {
                    vec![a + 0.1 * w, a + 2.5 + w, a - 7.0]
                } else {
                    vec![a + 2.5 - w, a + 0.1 * w, a - 7.0]
                }
            })
            .collect();
        (preds, actuals)
    }

    #[test]
    fn never_trigger_matches_frozen_policy() {
        let (preds, actuals) = regime_stream(200, 400); // no flip in range
        let (wp, op) = preds.split_at(80);
        let (wa, oa) = actuals.split_at(80);
        let mut frozen = EaDrlPolicy::new(quick_config());
        frozen.warm_up(wp, wa);
        let frozen_out = run_combiner(&mut frozen, op, oa);

        let mut adaptive = AdaptiveEaDrl::new(quick_config(), RefreshTrigger::Never, 60);
        adaptive.warm_up(wp, wa);
        let adaptive_out = run_combiner(&mut adaptive, op, oa);
        assert_eq!(frozen_out, adaptive_out);
        assert_eq!(adaptive.refreshes(), 0);
    }

    #[test]
    fn periodic_refresh_fires_on_schedule() {
        let (preds, actuals) = regime_stream(220, 500);
        let (wp, op) = preds.split_at(80);
        let (wa, oa) = actuals.split_at(80);
        let mut adaptive =
            AdaptiveEaDrl::new(quick_config(), RefreshTrigger::Periodic { period: 40 }, 70);
        adaptive.warm_up(wp, wa);
        run_combiner(&mut adaptive, op, oa);
        // 140 online steps / 40 = 3 refreshes.
        assert_eq!(adaptive.refreshes(), 3);
    }

    #[test]
    fn drift_refresh_recovers_after_regime_flip() {
        let (preds, actuals) = regime_stream(320, 200);
        let (wp, op) = preds.split_at(100);
        let (wa, oa) = actuals.split_at(100);

        let mut frozen = EaDrlPolicy::new(quick_config());
        frozen.warm_up(wp, wa);
        let frozen_out = run_combiner(&mut frozen, op, oa);

        let mut adaptive = AdaptiveEaDrl::new(
            quick_config(),
            RefreshTrigger::DriftDetected {
                delta: 0.05,
                lambda: 6.0,
            },
            80,
        );
        adaptive.warm_up(wp, wa);
        let adaptive_out = run_combiner(&mut adaptive, op, oa);

        assert!(adaptive.refreshes() >= 1, "drift never triggered a refresh");
        // Post-flip segment (flip at absolute 200 = online step 100).
        let frozen_post = rmse(&oa[120..], &frozen_out[120..]);
        let adaptive_post = rmse(&oa[120..], &adaptive_out[120..]);
        assert!(
            adaptive_post < frozen_post,
            "refresh did not help after drift: adaptive {adaptive_post:.3} vs frozen {frozen_post:.3}"
        );
    }

    #[test]
    fn tiny_buffer_skips_refresh_gracefully() {
        let (preds, actuals) = regime_stream(150, 60);
        let (wp, op) = preds.split_at(60);
        let (wa, oa) = actuals.split_at(60);
        let mut adaptive =
            AdaptiveEaDrl::new(quick_config(), RefreshTrigger::Periodic { period: 10 }, 8);
        adaptive.warm_up(wp, wa);
        let out = run_combiner(&mut adaptive, op, oa);
        assert!(out.iter().all(|v| v.is_finite()));
        assert_eq!(
            adaptive.refreshes(),
            0,
            "8-step buffer cannot retrain ω=6 policy"
        );
    }

    #[test]
    fn warm_start_falls_back_to_cold_when_pool_width_changes() {
        let (preds, actuals) = regime_stream(200, 500);
        let (wp, op) = preds.split_at(100);
        let (wa, oa) = actuals.split_at(100);
        let warm_episodes = 4;
        let mut adaptive = AdaptiveEaDrl::new(quick_config(), RefreshTrigger::Never, 30)
            .with_strategy(RefreshStrategy::WarmStart {
                episodes: warm_episodes,
            });
        adaptive.warm_up(wp, wa);
        // The pool shrinks under the deployed 3-model policy: saturate
        // the refresh buffer with 2-model steps, then force a refresh.
        for (p, &a) in op.iter().zip(oa.iter()) {
            adaptive.observe(&p[..2], a);
        }
        adaptive.refresh_now();
        assert_eq!(
            adaptive.refreshes(),
            1,
            "refresh must deploy via the cold fallback"
        );
        // The deployed policy came out of a full cold warm_up (8
        // episodes), not the 4-episode warm refinement the deployed actor
        // could no longer support.
        assert_eq!(adaptive.policy().learning_curve().len(), 8);
        let w = adaptive.weights(2);
        assert_eq!(w.len(), 2);
        assert!(w.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn corrupted_buffer_quarantines_refresh_and_keeps_serving() {
        let (preds, actuals) = regime_stream(160, 500);
        let (wp, op) = preds.split_at(100);
        let (wa, oa) = actuals.split_at(100);
        let mut adaptive = AdaptiveEaDrl::new(quick_config(), RefreshTrigger::Never, 30)
            .with_strategy(RefreshStrategy::WarmStart { episodes: 4 });
        adaptive.warm_up(wp, wa);
        // Ragged rows survive sanitization and panic inside the
        // environment constructor — on the warm attempt and on every
        // cold retry alike. The refresh must quarantine the failure
        // (no deployment) without taking down serving.
        for (i, (p, &a)) in op.iter().zip(oa.iter()).enumerate() {
            if i % 3 == 0 {
                adaptive.observe(&p[..2], a);
            } else {
                adaptive.observe(p, a);
            }
        }
        adaptive.refresh_now();
        assert_eq!(
            adaptive.refreshes(),
            0,
            "a corrupted buffer must never deploy a policy"
        );
        let w = adaptive.weights(3);
        assert!(w.iter().all(|v| v.is_finite()));
        assert!((adaptive.combine(&[1.0, 2.0, 3.0])).is_finite());
    }

    #[test]
    fn names_distinguish_variants() {
        assert_eq!(
            AdaptiveEaDrl::new(quick_config(), RefreshTrigger::Never, 50).name(),
            "EA-DRL"
        );
        assert_eq!(
            AdaptiveEaDrl::new(quick_config(), RefreshTrigger::Periodic { period: 5 }, 50).name(),
            "EA-DRL+periodic"
        );
        assert_eq!(
            AdaptiveEaDrl::new(
                quick_config(),
                RefreshTrigger::DriftDetected {
                    delta: 0.1,
                    lambda: 5.0
                },
                50
            )
            .name(),
            "EA-DRL+drift"
        );
    }
}
