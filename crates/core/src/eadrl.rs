//! The EA-DRL model: offline policy learning, online forecasting
//! (Algorithm 1 of the paper).

use crate::combiner::Combiner;
use crate::env::{normalize_window, EnsembleEnv, RewardKind};
use crate::guard::{renormalize_over_active, GuardConfig, PoolGuard};
use crate::persist::PolicySnapshot;
use eadrl_linalg::vector::dot;
use eadrl_models::{fallback_forecast, Forecaster, ModelError};
use eadrl_obs::Level;
use eadrl_rl::{ActionSquash, DdpgAgent, DdpgConfig, EpisodeStats, SamplingStrategy};
use eadrl_timeseries::sanitize::sanitize_series;
use eadrl_timeseries::window::SlideWindow;

/// Shannon entropy of a weight vector (natural log) — 0 for a one-hot
/// weighting, `ln m` for the uniform one. A telemetry-facing summary of
/// how concentrated the ensemble currently is.
pub fn weight_entropy(weights: &[f64]) -> f64 {
    weights
        .iter()
        .filter(|&&w| w > 0.0)
        .map(|&w| -w * w.ln())
        .sum()
}

/// What advances the policy's state window online.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnlineState {
    /// The window advances with the ensemble's own outputs — identical to
    /// the training-time MDP transition (§II-B), so the online state
    /// distribution matches what the policy was trained on. Default.
    EnsembleOutputs,
    /// The window advances with realized values when available (§II-E's
    /// "let state s be X^ω"), falling back to ensemble outputs in
    /// recursive multi-step forecasting.
    Observed,
}

/// Hyper-parameters of EA-DRL.
///
/// Defaults follow the paper's reported model selection: window ω = 10,
/// discount γ = 0.9, learning rate α = 0.01, `max.ep` = `max.iter` = 100,
/// rank reward (Eq. 3) and median-split diversity replay sampling (Eq. 4).
#[derive(Debug, Clone)]
pub struct EaDrlConfig {
    /// State window length ω.
    pub omega: usize,
    /// Training episodes (`max.ep`).
    pub episodes: usize,
    /// Maximum environment steps per episode (`max.iter`).
    pub max_iter: usize,
    /// Reward definition.
    pub reward: RewardKind,
    /// Fraction of the training series held out as the policy-learning
    /// validation segment.
    pub val_fraction: f64,
    /// Independent training restarts; the actor with the best greedy
    /// validation RMSE across all restarts is kept (the paper tunes
    /// EA-DRL "by model selection" — this is that selection).
    pub restarts: usize,
    /// Informed actor initialization: start the policy at the
    /// performance-based weighting `softmax(-T · e_i / min_j e_j)` over the
    /// validation errors `e_i` (T = 8, `INIT_TEMPERATURE`), by setting the
    /// actor's output bias. DDPG then refines the weighting and adds the
    /// state dependence. Cold starts must otherwise discover a 43-way
    /// concentrated weight vector from undirected noise — a needle-in-a-
    /// haystack exploration problem on short validation segments.
    pub informed_init: bool,
    /// Online state-window semantics.
    pub online_state: OnlineState,
    /// Graceful-degradation policy for the online serving path (per-model
    /// `catch_unwind`, non-finite masking, quarantine/re-entry) — see
    /// [`crate::guard`].
    pub guard: GuardConfig,
    /// Underlying DDPG configuration (γ, learning rates, sampling, nets).
    pub ddpg: DdpgConfig,
}

impl Default for EaDrlConfig {
    fn default() -> Self {
        EaDrlConfig {
            omega: 10,
            episodes: 50,
            max_iter: 100,
            reward: RewardKind::Rank { normalize: true },
            val_fraction: 0.25,
            restarts: 2,
            informed_init: true,
            online_state: OnlineState::EnsembleOutputs,
            guard: GuardConfig::default(),
            ddpg: DdpgConfig {
                gamma: 0.9,
                actor_lr: 0.01,
                critic_lr: 0.01,
                tau: 0.01,
                batch_size: 32,
                buffer_capacity: 10_000,
                sampling: SamplingStrategy::Diversity,
                hidden: vec![32, 32],
                squash: ActionSquash::Softmax,
                noise_sigma: 0.3,
                actor_logit_reg: 1e-3,
                seed: 0,
            },
        }
    }
}

/// Sharpness of the informed initialization (higher = more mass on the
/// validation-best models).
const INIT_TEMPERATURE: f64 = 8.0;

/// Greedy-rollout evaluation cadence (episodes) for checkpointing.
const EVAL_EVERY: usize = 5;

/// Fraction of the validation segment held out from the training
/// environment and used *only* to score checkpoints. Selecting on data
/// the policy trained on promotes overfit checkpoints; this tail measures
/// generalization.
const SELECTION_HOLDOUT: f64 = 0.4;

/// Relative holdout-RMSE improvement a *trained* checkpoint must show over
/// the best static candidate to be deployed. Trained checkpoints get many
/// more selection attempts than the handful of static candidates, so
/// without a margin the winner's curse lets noisy checkpoints displace
/// robust static weightings.
const SELECTION_MARGIN: f64 = 0.08;

/// The learned combination policy, usable as a [`Combiner`].
///
/// `warm_up` phrases the validation predictions as an [`EnsembleEnv`] and
/// trains the DDPG agent offline; afterwards `weights` is a single actor
/// forward pass — this is why the paper's online phase is cheap (Table III).
pub struct EaDrlPolicy {
    config: EaDrlConfig,
    agent: Option<DdpgAgent>,
    /// Unscaled window of recent ensemble outputs (state of §II-B).
    window: SlideWindow,
    last_weights: Vec<f64>,
    learning_curve: Vec<EpisodeStats>,
}

impl EaDrlPolicy {
    /// Creates an untrained policy.
    pub fn new(config: EaDrlConfig) -> Self {
        let window = SlideWindow::new(config.omega.max(1));
        EaDrlPolicy {
            config,
            agent: None,
            window,
            last_weights: Vec::new(),
            learning_curve: Vec::new(),
        }
    }

    /// Per-episode average rewards from the offline training phase — the
    /// learning curve plotted in the paper's Figure 2.
    pub fn learning_curve(&self) -> &[EpisodeStats] {
        &self.learning_curve
    }

    /// The configuration in use.
    pub fn config(&self) -> &EaDrlConfig {
        &self.config
    }

    /// True once `warm_up` has trained the agent.
    pub fn is_trained(&self) -> bool {
        self.agent.is_some()
    }

    /// Captures the deployed actor for persistence; `None` before training.
    pub fn snapshot(&mut self) -> Option<PolicySnapshot> {
        let omega = self.config.omega;
        let window = self.window.to_vec();
        let agent = self.agent.as_mut()?;
        Some(PolicySnapshot {
            omega,
            action_dim: agent.action_dim(),
            hidden: agent.config().hidden.clone(),
            squash: agent.config().squash,
            params: agent.actor_params(),
            window,
        })
    }

    /// Rebuilds a deployable policy from a snapshot. The snapshot's
    /// topology (ω, hidden sizes, squash) overrides the corresponding
    /// fields of `config`; everything else (e.g. online-state semantics)
    /// comes from `config`.
    pub fn restore(mut config: EaDrlConfig, snapshot: &PolicySnapshot) -> EaDrlPolicy {
        config.omega = snapshot.omega;
        config.ddpg.hidden = snapshot.hidden.clone();
        config.ddpg.squash = snapshot.squash;
        let mut agent = DdpgAgent::new(snapshot.omega, snapshot.action_dim, config.ddpg.clone());
        agent.load_actor_params(&snapshot.params);
        let mut window = SlideWindow::new(config.omega.max(1));
        window.assign(&snapshot.window);
        EaDrlPolicy {
            config,
            agent: Some(agent),
            window,
            last_weights: Vec::new(),
            learning_curve: Vec::new(),
        }
    }

    fn scaled_state(&self) -> Option<Vec<f64>> {
        if self.window.len() < self.config.omega {
            return None;
        }
        Some(normalize_window(
            &self.window[self.window.len() - self.config.omega..],
        ))
    }

    fn push_output(&mut self, value: f64) {
        self.window.slide(value);
    }

    /// Advances the state window with the ensemble value actually served.
    ///
    /// The degraded serving path uses this instead of
    /// [`Combiner::observe`]: under masking the served value is a
    /// renormalized combination over the surviving members, which the
    /// raw-weight dot product inside `observe` would not reproduce.
    pub(crate) fn observe_served(&mut self, served: f64) {
        self.push_output(served);
    }

    /// Continues training the deployed actor on a fresh validation
    /// segment — the warm-start path of the online refresh.
    ///
    /// Where `warm_up` spawns fresh restarts, `refine` keeps the current
    /// actor (typically restored from a [`PolicySnapshot`] of the serving
    /// policy) and runs `episodes` additional training episodes against
    /// the new segment, with the same holdout split, checkpoint selection
    /// and static informed-weighting candidates. The untouched deployed
    /// actor competes as the episode-0 checkpoint, so on the holdout the
    /// refinement can only keep or improve the RMSE, never regress it.
    ///
    /// Returns `true` when the refinement ran (a trained agent and a
    /// long-enough segment with matching pool width); `false` leaves the
    /// policy exactly as it was, signalling the caller to fall back to a
    /// cold `warm_up`.
    pub fn refine(&mut self, preds: &[Vec<f64>], actuals: &[f64], episodes: usize) -> bool {
        let _span = eadrl_obs::span("eadrl.warm_up");
        let omega = self.config.omega;
        if actuals.len() <= omega + 1 || preds.is_empty() {
            eadrl_obs::warn(
                "eadrl.warm_up.skipped",
                &[("val_len", actuals.len().into()), ("omega", omega.into())],
            );
            return false;
        }
        let m = preds[0].len();
        let Some(mut agent) = self.agent.take() else {
            return false;
        };
        if agent.action_dim() != m {
            // The pool width changed under the deployed policy; the old
            // actor cannot score this matrix.
            self.agent = Some(agent);
            return false;
        }
        let head_len = ((preds.len() as f64) * (1.0 - SELECTION_HOLDOUT)).round() as usize;
        let head_len = head_len.clamp(omega + 2, preds.len());
        let mut env = EnsembleEnv::new(
            preds[..head_len].to_vec(),
            actuals[..head_len].to_vec(),
            omega,
            self.config.reward,
            self.config.max_iter,
        );
        let init_score = greedy_rollout_rmse(&agent, preds, actuals, omega, head_len);
        let mut best = (init_score, agent.actor_params());
        let mut best_source = String::from("snapshot");
        // The static candidates derisk the refinement exactly as they
        // derisk the offline warm-up: the informed weighting, recomputed
        // on the fresh segment, competes with the untouched and the
        // refined actor on the same holdout. They cost four greedy
        // rollouts — no training episodes.
        if self.config.informed_init {
            for temperature in [3.0, 6.0, 10.0, 15.0] {
                let mut candidate = DdpgAgent::new(omega, m, self.config.ddpg.clone());
                let bias = informed_logits(preds, actuals, temperature, self.config.ddpg.squash);
                candidate.init_actor_output_bias(&bias);
                let score = greedy_rollout_rmse(&candidate, preds, actuals, omega, head_len);
                eadrl_obs::event(
                    "eadrl.candidate",
                    Level::Debug,
                    &[
                        ("temperature", temperature.into()),
                        ("holdout_rmse", score.into()),
                    ],
                );
                if score < best.0 {
                    best = (score, candidate.actor_params());
                    best_source = format!("static(T={temperature})");
                }
            }
        }
        let mut curve = Vec::with_capacity(episodes);
        for episode in 0..episodes {
            curve.push(agent.run_episode(&mut env, true));
            if (episode + 1) % EVAL_EVERY == 0 || episode + 1 == episodes {
                let score = greedy_rollout_rmse(&agent, preds, actuals, omega, head_len);
                if score < best.0 {
                    best = (score, agent.actor_params());
                    best_source = String::from("warm_start");
                }
            }
        }
        self.learning_curve = curve;
        eadrl_obs::event(
            "eadrl.selection",
            Level::Info,
            &[
                ("source", best_source.as_str().into()),
                ("holdout_rmse", best.0.into()),
                ("deployed", true.into()),
            ],
        );
        agent.load_actor_params(&best.1);
        self.agent = Some(agent);
        self.window.assign(&actuals[actuals.len() - omega..]);
        true
    }
}

impl Combiner for EaDrlPolicy {
    fn name(&self) -> &str {
        "EA-DRL"
    }

    fn warm_up(&mut self, preds: &[Vec<f64>], actuals: &[f64]) {
        let _span = eadrl_obs::span("eadrl.warm_up");
        let omega = self.config.omega;
        if actuals.len() <= omega + 1 || preds.is_empty() {
            eadrl_obs::warn(
                "eadrl.warm_up.skipped",
                &[("val_len", actuals.len().into()), ("omega", omega.into())],
            );
            return; // Too little data to train; stay uniform.
        }
        let m = preds[0].len();
        // Split the validation segment: the head trains the policy, the
        // tail scores checkpoints (generalization-based model selection).
        let head_len = ((preds.len() as f64) * (1.0 - SELECTION_HOLDOUT)).round() as usize;
        let head_len = head_len.clamp(omega + 2, preds.len());
        // Model selection: several independent DDPG trainings, with the
        // actor checkpointed at its best greedy RMSE on the held-out tail.
        // DDPG's performance oscillates between episodes, so "last actor"
        // is routinely worse than "best actor seen".
        let mut best: Option<(f64, Vec<f64>)> = None;
        let mut best_source = String::from("none");
        let mut selected_agent = None;
        // Static candidates: the informed weighting at several sharpness
        // levels, each expressed as an actor whose output bias encodes the
        // weighting. These derisk the RL training — if no trained
        // checkpoint beats the best static weighting on the holdout, EA-DRL
        // deploys that weighting (still a policy network, still Algorithm 1).
        if self.config.informed_init {
            for temperature in [3.0, 6.0, 10.0, 15.0] {
                let mut agent = DdpgAgent::new(omega, m, self.config.ddpg.clone());
                let bias = informed_logits(preds, actuals, temperature, self.config.ddpg.squash);
                agent.init_actor_output_bias(&bias);
                let score = greedy_rollout_rmse(&agent, preds, actuals, omega, head_len);
                eadrl_obs::event(
                    "eadrl.candidate",
                    Level::Debug,
                    &[
                        ("temperature", temperature.into()),
                        ("holdout_rmse", score.into()),
                    ],
                );
                if best.as_ref().is_none_or(|(b, _)| score < *b) {
                    best = Some((score, agent.actor_params()));
                    best_source = format!("static(T={temperature})");
                    selected_agent = Some(agent);
                }
            }
        }
        self.learning_curve.clear();
        // Each restart is a pure function of its index (the DDPG seed is
        // derived from it), so the restarts fan out over the deterministic
        // worker pool: static index-ordered chunks, per-worker telemetry
        // buffered and flushed in restart order after the join (so the
        // trace reads exactly like the old serial loop), and the merge
        // below walks the results in restart order — winner selection is
        // bitwise identical at every `EADRL_PAR_THREADS`.
        let config = &self.config;
        let restart_results = eadrl_par::par_map_indexed(
            (0..config.restarts.max(1)).collect::<Vec<usize>>(),
            |_, restart| {
                let mut env = EnsembleEnv::new(
                    preds[..head_len].to_vec(),
                    actuals[..head_len].to_vec(),
                    omega,
                    config.reward,
                    config.max_iter,
                );
                let mut ddpg = config.ddpg.clone();
                ddpg.seed = ddpg.seed.wrapping_add(1000 * restart as u64);
                let squash = ddpg.squash;
                let mut agent = DdpgAgent::new(omega, m, ddpg);
                if config.informed_init {
                    let bias = informed_logits(preds, actuals, INIT_TEMPERATURE, squash);
                    agent.init_actor_output_bias(&bias);
                }
                let mut curve = Vec::with_capacity(config.episodes);
                // Episode-0 checkpoint: the informed initialization itself
                // competes in the selection.
                let init_score = greedy_rollout_rmse(&agent, preds, actuals, omega, head_len);
                let mut restart_best = (init_score, agent.actor_params());
                for episode in 0..config.episodes {
                    curve.push(agent.run_episode(&mut env, true));
                    if (episode + 1) % EVAL_EVERY == 0 || episode + 1 == config.episodes {
                        let score = greedy_rollout_rmse(&agent, preds, actuals, omega, head_len);
                        if score < restart_best.0 {
                            restart_best = (score, agent.actor_params());
                        }
                    }
                }
                eadrl_obs::event(
                    "eadrl.restart",
                    Level::Info,
                    &[
                        ("restart", restart.into()),
                        ("init_rmse", init_score.into()),
                        ("holdout_rmse", restart_best.0.into()),
                    ],
                );
                (curve, restart_best, agent)
            },
        );
        // A restart that panics must surface as a panic here — the online
        // refresh path wraps warm_up in catch_unwind and relies on that
        // contract for its bounded-retry recovery. `resume_unwind`
        // re-raises the worker's own panic (caught at the par boundary
        // only to preserve merge ordering) instead of originating a new
        // one, so callers observe the same unwind the serial loop raised.
        let restart_results = match restart_results {
            Ok(results) => results,
            Err(err) => std::panic::resume_unwind(Box::new(err.to_string())),
        };
        for (restart, (curve, (score, params), mut agent)) in
            restart_results.into_iter().enumerate()
        {
            // The learning curve documents the (first restart's) training
            // run regardless of which candidate is deployed.
            if self.learning_curve.is_empty() {
                self.learning_curve = curve;
            }
            if best
                .as_ref()
                .is_none_or(|(b, _)| score < *b * (1.0 - SELECTION_MARGIN))
            {
                agent.load_actor_params(&params);
                best = Some((score, params));
                best_source = format!("restart({restart})");
                selected_agent = Some(agent);
            }
        }
        if let Some(agent) = selected_agent {
            self.agent = Some(agent);
        }
        eadrl_obs::event(
            "eadrl.selection",
            Level::Info,
            &[
                ("source", best_source.as_str().into()),
                (
                    "holdout_rmse",
                    best.as_ref().map(|(s, _)| *s).unwrap_or(f64::NAN).into(),
                ),
                ("deployed", self.agent.is_some().into()),
            ],
        );
        // Seed the online window with the latest actual values.
        self.window.assign(&actuals[actuals.len() - omega..]);
    }

    fn weights(&mut self, m: usize) -> Vec<f64> {
        let w = match (&self.agent, self.scaled_state()) {
            (Some(agent), Some(state)) => agent.act(&state),
            _ => vec![1.0 / m as f64; m],
        };
        self.last_weights.clear();
        self.last_weights.extend_from_slice(&w);
        eadrl_obs::event_with("eadrl.weights", Level::Debug, || {
            vec![
                ("weights".to_string(), w.as_slice().into()),
                ("entropy".to_string(), weight_entropy(&w).into()),
                ("trained".to_string(), self.agent.is_some().into()),
            ]
        });
        w
    }

    fn observe(&mut self, preds: &[f64], actual: f64) {
        // With `OnlineState::Observed` (§II-E's reading) the realized
        // value advances the window when available; the default
        // `EnsembleOutputs` matches the training-time transition (§II-B),
        // which keeps the online state distribution in-domain for the
        // policy network and measures slightly better end-to-end.
        if self.config.online_state == OnlineState::Observed && actual.is_finite() {
            self.push_output(actual);
            return;
        }
        // The cached weighting is read in place — no per-step clone. The
        // uniform fallback multiplies each prediction by the same
        // `1.0 / m` factor a materialized uniform vector would hold, in
        // `dot`'s summation order, so the result is bitwise unchanged.
        let ens = if self.last_weights.len() == preds.len() {
            dot(&self.last_weights, preds)
        } else {
            let u = 1.0 / preds.len() as f64;
            preds.iter().map(|p| u * p).sum()
        };
        self.push_output(ens);
    }
}

/// Raw-logit targets for the informed actor initialization: per-model
/// validation RMSEs are mapped to `z_i = -T · e_i / min_j e_j`, centered,
/// and inverted through the squash so that `squash(z_raw) = softmax(z)`.
fn informed_logits(
    preds: &[Vec<f64>],
    actuals: &[f64],
    temperature: f64,
    squash: ActionSquash,
) -> Vec<f64> {
    let m = preds[0].len();
    let mut sse = vec![0.0; m];
    for (p, &a) in preds.iter().zip(actuals.iter()) {
        for (s, &v) in sse.iter_mut().zip(p.iter()) {
            let e = v - a;
            *s += e * e;
        }
    }
    let errs: Vec<f64> = sse
        .iter()
        .map(|s| (s / preds.len().max(1) as f64).sqrt())
        .collect();
    let best = errs
        .iter()
        .cloned()
        .fold(f64::INFINITY, f64::min)
        .max(1e-12);
    let mut z: Vec<f64> = errs.iter().map(|e| -temperature * e / best).collect();
    let mean = z.iter().sum::<f64>() / m as f64;
    for v in z.iter_mut() {
        *v -= mean;
    }
    match squash {
        ActionSquash::BoundedSoftmax { scale } => {
            // Invert softmax(scale·tanh(raw)) = softmax(z): raw = atanh(z/scale).
            // When the target logits exceed the representable band, rescale
            // them affinely (clamping would flatten the ordering among the
            // best models, which is exactly the resolution that matters).
            let band = 0.95 * scale;
            let max_abs = z.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
            if max_abs > band {
                let f = band / max_abs;
                for v in z.iter_mut() {
                    *v *= f;
                }
            }
            z.iter()
                .map(|&v| {
                    let r = (v / scale).clamp(-0.999, 0.999);
                    0.5 * ((1.0 + r) / (1.0 - r)).ln()
                })
                .collect()
        }
        // Plain softmax (and anything else): the logits pass through.
        _ => z,
    }
}

/// RMSE of the greedy (noise-free) policy replayed over the validation
/// segment, advancing the state window with the ensemble's own outputs.
/// The rollout starts at `omega` (so the window is well-formed), but only
/// the steps at or beyond `score_from` count toward the returned RMSE —
/// pass the training/holdout boundary to score generalization only.
fn greedy_rollout_rmse(
    agent: &DdpgAgent,
    preds: &[Vec<f64>],
    actuals: &[f64],
    omega: usize,
    score_from: usize,
) -> f64 {
    let mut window = SlideWindow::new(omega);
    window.assign(&actuals[..omega]);
    let mut out = Vec::new();
    let mut truth = Vec::new();
    for t in omega..actuals.len() {
        let state = normalize_window(&window);
        let w = agent.act(&state);
        let ens: f64 = preds[t].iter().zip(w.iter()).map(|(p, wi)| p * wi).sum();
        if t >= score_from.min(actuals.len().saturating_sub(1)) {
            out.push(ens);
            truth.push(actuals[t]);
        }
        window.slide(ens);
    }
    eadrl_timeseries::metrics::rmse(&truth, &out)
}

/// The complete EA-DRL forecaster: a pool of heterogeneous base models plus
/// the learned aggregation policy.
pub struct EaDrl {
    pool: Vec<Box<dyn Forecaster>>,
    dropped: Vec<String>,
    policy: EaDrlPolicy,
    guard: PoolGuard,
    fitted: bool,
}

impl EaDrl {
    /// Creates an EA-DRL model over the given base-model pool.
    ///
    /// # Panics
    /// Panics on an empty pool.
    pub fn new(pool: Vec<Box<dyn Forecaster>>, config: EaDrlConfig) -> Self {
        assert!(!pool.is_empty(), "EA-DRL needs a non-empty model pool");
        let guard = PoolGuard::new(config.guard.clone(), pool.len());
        EaDrl {
            pool,
            dropped: Vec::new(),
            policy: EaDrlPolicy::new(config),
            guard,
            fitted: false,
        }
    }

    /// Fits the pool and learns the combination policy offline.
    ///
    /// The training series is split `1 - val_fraction` / `val_fraction`;
    /// base models fit on the prefix, their rolling one-step predictions
    /// over the suffix become the policy-learning environment. Pool members
    /// that cannot fit (series too short for their configuration) are
    /// dropped and reported via [`EaDrl::dropped_models`].
    pub fn fit(&mut self, train: &[f64]) -> Result<(), ModelError> {
        let _span = eadrl_obs::span("eadrl.fit");
        // Repair gaps/non-finite values before any model sees the series
        // (forward-fill policy — see `eadrl_timeseries::sanitize`). A
        // fully non-finite series cannot be repaired meaningfully.
        let sanitized = sanitize_series(train);
        let train: &[f64] = match &sanitized {
            None => train,
            Some((fixed, stats)) => {
                eadrl_obs::event(
                    "eadrl.sanitize",
                    Level::Warn,
                    &[
                        ("context", "fit".into()),
                        ("replaced", stats.replaced.into()),
                        ("leading", stats.leading.into()),
                        ("len", stats.len.into()),
                    ],
                );
                if stats.replaced == stats.len {
                    return Err(ModelError::Numerical {
                        context: "training series has no finite values".into(),
                    });
                }
                fixed
            }
        };
        let val_fraction = self.policy.config.val_fraction.clamp(0.05, 0.5);
        let fit_len = ((train.len() as f64) * (1.0 - val_fraction)).round() as usize;
        let omega = self.policy.config.omega;
        if fit_len < 20 || train.len() - fit_len < omega + 2 {
            return Err(ModelError::SeriesTooShort {
                needed: 20 + omega + 2,
                got: train.len(),
            });
        }
        let (fit_part, val_part) = train.split_at(fit_len);

        // Fit the pool in parallel, dropping members the series cannot
        // support. Per-member fitting is independent (each model is
        // seeded by its own configuration), so the fan-out is bitwise
        // equivalent to the old serial loop at any thread count.
        self.dropped.clear();
        let (kept, dropped) = crate::parallel::fit_pool(std::mem::take(&mut self.pool), fit_part);
        self.dropped = dropped;
        if kept.is_empty() {
            return Err(ModelError::SeriesTooShort {
                needed: 20,
                got: train.len(),
            });
        }
        self.pool = kept;

        // Rolling one-step predictions over the validation suffix.
        let mut preds = self.validation_predictions(fit_part, val_part);
        crate::experiment::sanitize_predictions(&mut preds, fit_part);

        eadrl_obs::event_with("eadrl.fit.pool", Level::Info, || {
            vec![
                ("kept".to_string(), self.pool.len().into()),
                ("dropped".to_string(), self.dropped.len().into()),
                ("dropped_names".to_string(), self.dropped.join(",").into()),
                ("train_len".to_string(), train.len().into()),
                ("val_len".to_string(), val_part.len().into()),
            ]
        });
        self.policy.warm_up(&preds, val_part);
        // Health tracking starts fresh for the fitted pool.
        self.guard.reset(self.pool.len());
        self.fitted = true;
        Ok(())
    }

    fn validation_predictions(&self, fit_part: &[f64], val_part: &[f64]) -> Vec<Vec<f64>> {
        crate::parallel::prediction_matrix(&self.pool, fit_part, val_part)
    }

    /// One-step-ahead forecast given the observed history (Algorithm 1's
    /// inner step). Advances the policy's internal state window with the
    /// ensemble output.
    ///
    /// This is the hardened serving path: the input history is repaired
    /// (forward fill over gaps/non-finite values), every pool member runs
    /// under the degradation guard (`catch_unwind`, non-finite masking,
    /// quarantine — see [`crate::guard`]), and the returned forecast is
    /// finite whenever the history contains at least one finite value.
    /// On a fault-free step the arithmetic is identical, in order, to
    /// the unguarded loop, so clean runs stay byte-for-byte reproducible.
    pub fn predict_next(&mut self, history: &[f64]) -> f64 {
        let _span = eadrl_obs::span_at(Level::Debug, "eadrl.predict_next");
        let sanitized = sanitize_series(history);
        let history: &[f64] = match &sanitized {
            None => history,
            Some((fixed, stats)) => {
                eadrl_obs::event(
                    "eadrl.sanitize",
                    Level::Warn,
                    &[
                        ("context", "predict_history".into()),
                        ("replaced", stats.replaced.into()),
                        ("leading", stats.leading.into()),
                        ("len", stats.len.into()),
                    ],
                );
                fixed
            }
        };
        let sweep = self.guard.sweep(&self.pool, history);
        let w = self.policy.weights(self.pool.len());
        if sweep.all_active {
            // Fault-free fast path: bit-identical to the historical
            // unguarded combination (same dot, same observe).
            let ens = dot(&w, &sweep.values);
            self.policy.observe(&sweep.values, f64::NAN);
            return ens;
        }
        let effective = renormalize_over_active(&w, &sweep.active);
        let survivors = sweep.active.iter().filter(|&&a| a).count();
        let ens = if survivors == 0 {
            // Whole pool masked: degrade to the documented history
            // fallback rather than serving garbage.
            fallback_forecast(history)
        } else {
            dot(&effective, &sweep.values)
        };
        eadrl_obs::event_with("eadrl.degraded", Level::Warn, || {
            let faulted: Vec<f64> = sweep.faults.iter().map(|(i, _)| *i as f64).collect();
            let classes: Vec<String> = sweep
                .faults
                .iter()
                .map(|(_, c)| c.as_str().to_string())
                .collect();
            let quarantined: Vec<f64> =
                self.guard.quarantined().iter().map(|&i| i as f64).collect();
            vec![
                ("survivors".to_string(), survivors.into()),
                ("pool".to_string(), self.pool.len().into()),
                ("faulted".to_string(), faulted.as_slice().into()),
                ("classes".to_string(), classes.join(",").into()),
                ("quarantined".to_string(), quarantined.as_slice().into()),
                ("weights".to_string(), effective.as_slice().into()),
                ("forecast".to_string(), ens.into()),
            ]
        });
        self.policy.observe_served(ens);
        ens
    }

    /// Forecasts the next `n` values recursively (Algorithm 1): each
    /// prediction is appended to the working history before the next step.
    pub fn forecast(&mut self, history: &[f64], n: usize) -> Vec<f64> {
        let mut extended = history.to_vec();
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let next = self.predict_next(&extended);
            extended.push(next);
            out.push(next);
        }
        out
    }

    /// The current ensemble weights (one actor forward pass).
    pub fn current_weights(&mut self) -> Vec<f64> {
        let m = self.pool.len();
        self.policy.weights(m)
    }

    /// Names of the (retained) pool members.
    pub fn model_names(&self) -> Vec<&str> {
        self.pool.iter().map(|m| m.name()).collect()
    }

    /// Pool members dropped at fit time (series too short for them).
    pub fn dropped_models(&self) -> &[String] {
        &self.dropped
    }

    /// Number of active base models.
    pub fn n_models(&self) -> usize {
        self.pool.len()
    }

    /// The offline learning curve (paper Figure 2).
    pub fn learning_curve(&self) -> &[EpisodeStats] {
        self.policy.learning_curve()
    }

    /// Immutable access to the learned policy.
    pub fn policy(&self) -> &EaDrlPolicy {
        &self.policy
    }

    /// Indices of pool members currently quarantined by the degradation
    /// guard (empty on a healthy pool).
    pub fn quarantined_models(&self) -> Vec<usize> {
        self.guard.quarantined()
    }

    /// Immutable access to the degradation guard's health state.
    pub fn guard(&self) -> &PoolGuard {
        &self.guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eadrl_models::{auto_regressive, Naive, SeasonalNaive};

    fn seasonal_series(n: usize) -> Vec<f64> {
        (0..n)
            .map(|t| (2.0 * std::f64::consts::PI * t as f64 / 12.0).sin() * 5.0 + 20.0)
            .collect()
    }

    fn tiny_pool() -> Vec<Box<dyn Forecaster>> {
        vec![
            Box::new(Naive),
            Box::new(SeasonalNaive::new(12)),
            Box::new(auto_regressive(5, 1e-3)),
        ]
    }

    fn quick_config(seed: u64) -> EaDrlConfig {
        EaDrlConfig {
            omega: 6,
            episodes: 15,
            max_iter: 40,
            ..Default::default()
        }
        .with_seed(seed)
    }

    impl EaDrlConfig {
        fn with_seed(mut self, seed: u64) -> Self {
            self.ddpg.seed = seed;
            self
        }
    }

    #[test]
    fn fit_trains_policy_and_keeps_pool() {
        let series = seasonal_series(300);
        let mut model = EaDrl::new(tiny_pool(), quick_config(1));
        model.fit(&series[..240]).unwrap();
        assert_eq!(model.n_models(), 3);
        assert!(model.dropped_models().is_empty());
        assert!(model.policy().is_trained());
        assert_eq!(model.learning_curve().len(), 15);
    }

    #[test]
    fn weights_are_a_distribution() {
        let series = seasonal_series(300);
        let mut model = EaDrl::new(tiny_pool(), quick_config(2));
        model.fit(&series[..240]).unwrap();
        let w = model.current_weights();
        assert_eq!(w.len(), 3);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(w.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn one_step_forecast_is_reasonable() {
        let series = seasonal_series(300);
        let mut model = EaDrl::new(tiny_pool(), quick_config(3));
        model.fit(&series[..240]).unwrap();
        let pred = model.predict_next(&series[..240]);
        let truth = series[240];
        // The pool contains a seasonal-naive member that is near-exact, so
        // any sensible weighting lands close.
        assert!((pred - truth).abs() < 5.0, "pred {pred} truth {truth}");
    }

    #[test]
    fn multi_step_forecast_has_right_length_and_stays_finite() {
        let series = seasonal_series(300);
        let mut model = EaDrl::new(tiny_pool(), quick_config(4));
        model.fit(&series[..240]).unwrap();
        let preds = model.forecast(&series[..240], 20);
        assert_eq!(preds.len(), 20);
        assert!(preds.iter().all(|p| p.is_finite()));
        // Stays within a sane band around the series level.
        assert!(preds.iter().all(|p| (*p - 20.0).abs() < 15.0));
    }

    #[test]
    fn unfit_pool_members_are_dropped() {
        let mut pool = tiny_pool();
        // A seasonal-naive with an absurd period cannot fit on 240 points.
        pool.push(Box::new(SeasonalNaive::new(100_000)));
        let series = seasonal_series(300);
        let mut model = EaDrl::new(pool, quick_config(5));
        model.fit(&series[..240]).unwrap();
        assert_eq!(model.n_models(), 3);
        assert_eq!(model.dropped_models().len(), 1);
    }

    #[test]
    fn too_short_series_is_error() {
        let mut model = EaDrl::new(tiny_pool(), quick_config(6));
        assert!(model.fit(&seasonal_series(25)).is_err());
    }

    #[test]
    fn untrained_policy_is_uniform() {
        let mut policy = EaDrlPolicy::new(EaDrlConfig::default());
        assert!(!policy.is_trained());
        let w = policy.weights(4);
        assert_eq!(w, vec![0.25; 4]);
    }

    #[test]
    fn snapshot_restore_reproduces_the_policy_exactly() {
        let series = seasonal_series(300);
        let mut pool = tiny_pool();
        for m in pool.iter_mut() {
            m.fit(&series[..200]).unwrap();
        }
        // Train a policy through the combiner interface.
        let preds: Vec<Vec<f64>> = (200..260)
            .map(|t| pool.iter().map(|m| m.predict_next(&series[..t])).collect())
            .collect();
        let actuals = series[200..260].to_vec();
        let mut original = EaDrlPolicy::new(quick_config(3));
        original.warm_up(&preds, &actuals);
        assert!(original.is_trained());

        let snap = original.snapshot().expect("trained policy snapshots");
        let mut buf = Vec::new();
        snap.write(&mut buf).unwrap();
        let back = crate::persist::PolicySnapshot::read(buf.as_slice()).unwrap();
        let mut restored = EaDrlPolicy::restore(quick_config(3), &back);

        // Same weights now, and same weights after identical observations.
        assert_eq!(original.weights(3), restored.weights(3));
        for (p, &a) in preds.iter().zip(actuals.iter()) {
            original.observe(p, a);
            restored.observe(p, a);
        }
        assert_eq!(original.weights(3), restored.weights(3));
    }

    #[test]
    fn untrained_policy_has_no_snapshot() {
        let mut policy = EaDrlPolicy::new(EaDrlConfig::default());
        assert!(policy.snapshot().is_none());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_pool_panics() {
        let _ = EaDrl::new(Vec::new(), EaDrlConfig::default());
    }
}
