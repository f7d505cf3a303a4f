//! The EA-DRL model: offline policy learning, online forecasting
//! (Algorithm 1 of the paper).

use crate::combiner::Combiner;
use crate::env::{normalize_window, EnsembleEnv, RewardKind};
use crate::guard::{renormalize_over_active, GuardConfig, PoolGuard};
use crate::persist::PolicySnapshot;
use eadrl_linalg::vector::dot;
use eadrl_models::{fallback_forecast, Forecaster, ModelError};
use eadrl_nn::{Mlp, Network};
use eadrl_obs::Level;
use eadrl_rl::{
    actor_network, ActionSquash, DdpgAgent, DdpgConfig, EpisodeStats, SamplingStrategy,
};
use eadrl_rng::DetRng;
use eadrl_timeseries::sanitize::{sanitize_series, SanitizeStats};
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
    /// validation segment, clamped to 5–50 %.
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
            val_fraction: POLICY_TAIL,
            restarts: 2,
            informed_init: true,
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

/// The paper's policy-learning tail: the last 25 % of a training series
/// trains the policy, the rest fits the pool. [`EaDrlConfig::default`]'s
/// `val_fraction` and [`crate::EvaluationProtocol`] both read it.
pub(crate) const POLICY_TAIL: f64 = 0.25;

/// Splits a training series into the prefix the pool fits on and the
/// policy-learning tail of `val_fraction` of it (clamped to 5–50 %),
/// leaving the prefix at most `len - 2` values long.
pub(crate) fn policy_split(train: &[f64], val_fraction: f64) -> (&[f64], &[f64]) {
    let tail = val_fraction.clamp(0.05, 0.5);
    let fit_len = ((train.len() as f64) * (1.0 - tail)).round() as usize;
    train.split_at(fit_len.min(train.len().saturating_sub(2)))
}

/// Repairs `series` with [`sanitize_series`] and reports a repair as one
/// Warn `eadrl.sanitize` event tagged with `context` (`fit`,
/// `predict_history` or `refresh_buffer`). `None`, reporting nothing,
/// when the series is clean.
pub(crate) fn sanitize_reported(
    series: &[f64],
    context: &str,
) -> Option<(Vec<f64>, SanitizeStats)> {
    let (fixed, stats) = sanitize_series(series)?;
    eadrl_obs::event(
        "eadrl.sanitize",
        Level::Warn,
        &[
            ("context", context.into()),
            ("replaced", stats.replaced.into()),
            ("leading", stats.leading.into()),
            ("len", stats.len.into()),
        ],
    );
    Some((fixed, stats))
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

/// Relative holdout-RMSE improvement a restart's best checkpoint must show
/// over the best contender so far to be deployed. Restarts get many more
/// selection attempts than the handful of static candidates, so without a
/// margin the winner's curse lets noisy checkpoints displace robust static
/// weightings.
const SELECTION_MARGIN: f64 = 0.08;

/// The learned combination policy, usable as a [`Combiner`].
///
/// `warm_up` phrases the validation predictions as an [`EnsembleEnv`],
/// trains DDPG offline and deploys the selected actor; afterwards
/// `weights` is a single actor forward pass — this is why the paper's
/// online phase is cheap (Table III).
pub struct EaDrlPolicy {
    config: EaDrlConfig,
    /// The deployed actor network, squashed by `config.ddpg.squash`;
    /// `None` until a selection deploys one. A warm-start refresh trains
    /// it on.
    pub(crate) actor: Option<Mlp>,
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
            actor: None,
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

    /// True once a selection has deployed an actor.
    pub fn is_trained(&self) -> bool {
        self.actor.is_some()
    }

    /// Captures the deployed actor for persistence; `None` before training.
    pub fn snapshot(&mut self) -> Option<PolicySnapshot> {
        let actor = self.actor.as_mut()?;
        Some(PolicySnapshot {
            omega: self.config.omega,
            action_dim: actor.out_dim(),
            hidden: self.config.ddpg.hidden.clone(),
            squash: self.config.ddpg.squash,
            params: actor.flat_params(),
            window: self.window.to_vec(),
        })
    }

    /// Rebuilds a deployable policy from a snapshot. The snapshot's
    /// topology (ω, hidden sizes, squash) overrides the corresponding
    /// fields of `config`; everything else comes from `config`.
    ///
    /// # Panics
    /// Panics when `snapshot.params` does not hold the parameter count of
    /// the actor `[omega, hidden…, action_dim]`. [`PolicySnapshot::read`]
    /// rejects such a snapshot, so only a hand-built one can panic here.
    pub fn restore(mut config: EaDrlConfig, snapshot: &PolicySnapshot) -> EaDrlPolicy {
        config.omega = snapshot.omega;
        config.ddpg.hidden = snapshot.hidden.clone();
        config.ddpg.squash = snapshot.squash;
        let mut actor = initial_actor(snapshot.omega, snapshot.action_dim, &config.ddpg);
        actor.load_flat_params(&snapshot.params);
        let mut policy = EaDrlPolicy::new(config);
        policy.actor = Some(actor);
        policy.window.assign(&snapshot.window);
        policy
    }

    /// Runs [`select`] with this policy's config and deploys the winner,
    /// seeding the online window with the latest actual values. `false`,
    /// deploying nothing, when the selection declines.
    pub(crate) fn deploy_selection(
        &mut self,
        preds: &[Vec<f64>],
        actuals: &[f64],
        training: Training,
    ) -> bool {
        let Some(selection) = select(&self.config, preds, actuals, training) else {
            return false;
        };
        eadrl_obs::event(
            "eadrl.selection",
            Level::Info,
            &[
                ("source", selection.source.as_str().into()),
                ("holdout_rmse", selection.holdout_rmse.into()),
                ("deployed", true.into()),
            ],
        );
        self.actor = Some(selection.actor);
        self.learning_curve = selection.curve;
        self.window
            .assign(&actuals[actuals.len() - self.config.omega..]);
        true
    }

    fn scaled_state(&self) -> Option<Vec<f64>> {
        if self.window.len() < self.config.omega {
            return None;
        }
        Some(normalize_window(
            &self.window[self.window.len() - self.config.omega..],
        ))
    }

    /// Advances the state window with the ensemble value actually served.
    ///
    /// [`EaDrl::predict_next`] uses this instead of
    /// [`Combiner::observe`], which would compute the served value
    /// again: on a clean step it is the same dot product, and under
    /// masking it is a renormalized combination over the surviving
    /// members, which the raw-weight dot product inside `observe` would
    /// not reproduce.
    pub(crate) fn observe_served(&mut self, served: f64) {
        self.window.slide(served);
    }
}

impl Combiner for EaDrlPolicy {
    fn name(&self) -> &str {
        "EA-DRL"
    }

    fn warm_up(&mut self, preds: &[Vec<f64>], actuals: &[f64]) {
        let _span = eadrl_obs::span("eadrl.warm_up");
        // A segment too short to train leaves the policy as it was
        // (uniform when untrained).
        self.deploy_selection(preds, actuals, Training::Restarts);
    }

    fn weights(&mut self, m: usize) -> Vec<f64> {
        let w = match (&self.actor, self.scaled_state()) {
            (Some(actor), Some(state)) => {
                let raw = actor.forward_inference(&state);
                self.config.ddpg.squash.forward(&raw)
            }
            _ => vec![1.0 / m as f64; m],
        };
        self.last_weights.clear();
        self.last_weights.extend_from_slice(&w);
        eadrl_obs::event_with("eadrl.weights", Level::Debug, || {
            vec![
                ("weights".to_string(), w.as_slice().into()),
                ("entropy".to_string(), weight_entropy(&w).into()),
                ("trained".to_string(), self.actor.is_some().into()),
            ]
        });
        w
    }

    fn observe(&mut self, preds: &[f64], _actual: f64) {
        // The window advances with the ensemble's own output, the
        // training-time transition (§II-B), so the online state stays in
        // the distribution the policy was trained on; the realized value
        // is not read. The cached weighting is read in place — no
        // per-step clone. The uniform fallback multiplies each prediction
        // by the same `1.0 / m` factor a materialized uniform vector would
        // hold, in `dot`'s summation order, so the result is bitwise
        // unchanged.
        let ens = if self.last_weights.len() == preds.len() {
            dot(&self.last_weights, preds)
        } else {
            let u = 1.0 / preds.len() as f64;
            preds.iter().map(|p| u * p).sum()
        };
        self.window.slide(ens);
    }
}

/// The initial actor of a [`DdpgAgent`] built from `ddpg`, without the
/// agent's critic, targets and replay buffer.
fn initial_actor(state_dim: usize, action_dim: usize, ddpg: &DdpgConfig) -> Mlp {
    let mut rng = DetRng::seed_from_u64(ddpg.seed);
    actor_network(&mut rng, state_dim, action_dim, &ddpg.hidden)
}

/// What a selection trains beside its untrained contenders.
pub(crate) enum Training {
    /// [`EaDrlConfig::restarts`] fresh trainings: the fit, a cold refresh.
    Restarts,
    /// The deployed actor, trained on for `episodes`: a warm refresh.
    WarmStart { actor: Mlp, episodes: usize },
}

/// A selection's deployed actor, its source (`snapshot`, `static(T=…)`,
/// `restart(k)` or `warm_start`) and holdout RMSE, and the learning
/// curve of its training run (restart 0's, or the warm run's).
struct Selection {
    actor: Mlp,
    source: String,
    holdout_rmse: f64,
    curve: Vec<EpisodeStats>,
}

/// A validation segment split once for selection: the head trains the
/// policy, the tail (`SELECTION_HOLDOUT`) scores every contender.
struct Holdout<'a> {
    preds: &'a [Vec<f64>],
    actuals: &'a [f64],
    omega: usize,
    head_len: usize,
}

impl Holdout<'_> {
    /// The training environment over the head.
    fn env(&self, config: &EaDrlConfig) -> EnsembleEnv {
        EnsembleEnv::new(
            self.preds[..self.head_len].to_vec(),
            self.actuals[..self.head_len].to_vec(),
            self.omega,
            config.reward,
            config.max_iter,
        )
    }

    /// RMSE over the tail of the greedy policy `act` replayed from step ω,
    /// its window advanced with the ensemble's own outputs.
    fn rmse(&self, act: impl Fn(&[f64]) -> Vec<f64>) -> f64 {
        let (omega, preds, actuals) = (self.omega, self.preds, self.actuals);
        let score_from = self.head_len.min(actuals.len().saturating_sub(1));
        let mut window = SlideWindow::new(omega);
        window.assign(&actuals[..omega]);
        let (mut out, mut truth) = (Vec::new(), Vec::new());
        for t in omega..actuals.len() {
            let w = act(&normalize_window(&window));
            let ens: f64 = preds[t].iter().zip(w.iter()).map(|(p, wi)| p * wi).sum();
            if t >= score_from {
                out.push(ens);
                truth.push(actuals[t]);
            }
            window.slide(ens);
        }
        eadrl_timeseries::metrics::rmse(&truth, &out)
    }

    /// Trains `agent` for `episodes`, handing `checkpoint` its holdout
    /// RMSE every `EVAL_EVERY` episodes and after the last: DDPG
    /// oscillates, so the last actor is often not the best one seen.
    fn train(
        &self,
        agent: &mut DdpgAgent,
        env: &mut EnsembleEnv,
        episodes: usize,
        mut checkpoint: impl FnMut(f64, &mut DdpgAgent),
    ) -> Vec<EpisodeStats> {
        let mut curve = Vec::with_capacity(episodes);
        for episode in 0..episodes {
            curve.push(agent.run_episode(env, true));
            if (episode + 1) % EVAL_EVERY == 0 || episode + 1 == episodes {
                let score = self.rmse(|s| agent.act(s));
                checkpoint(score, agent);
            }
        }
        curve
    }
}

/// The policy selection behind both the fit and the online refresh, the
/// paper's "tuned by model selection" (DESIGN.md §4.5). Untrained
/// contenders are scored first, each kept only if it beats the best so
/// far: a warm refresh's deployed actor (`snapshot`), then the informed
/// weighting at four temperatures (`static(T=…)`, one actor of the config
/// seed with four output biases). Then the trained ones, checkpointed
/// every `EVAL_EVERY` episodes: fresh restarts, which must beat the best
/// by `SELECTION_MARGIN`, or the deployed actor trained on in a fresh
/// agent (`warm_start`). `None` when the segment is too short or the
/// deployed actor no longer fits the pool's width.
fn select(
    config: &EaDrlConfig,
    preds: &[Vec<f64>],
    actuals: &[f64],
    training: Training,
) -> Option<Selection> {
    let omega = config.omega;
    if actuals.len() <= omega + 1 || preds.is_empty() {
        eadrl_obs::warn(
            "eadrl.warm_up.skipped",
            &[("val_len", actuals.len().into()), ("omega", omega.into())],
        );
        return None;
    }
    let m = preds[0].len();
    let head_len = ((preds.len() as f64) * (1.0 - SELECTION_HOLDOUT)).round() as usize;
    let holdout = Holdout {
        preds,
        actuals,
        omega,
        head_len: head_len.clamp(omega + 2, preds.len()),
    };
    // The greedy action of an untrained contender, as `DdpgAgent::act`.
    let act =
        |actor: &Mlp, state: &[f64]| config.ddpg.squash.forward(&actor.forward_inference(state));
    // The best contender so far: holdout RMSE, actor parameters, source.
    let mut best: Option<(f64, Vec<f64>, String)> = None;
    let warm = match training {
        Training::Restarts => None,
        Training::WarmStart {
            mut actor,
            episodes,
        } => {
            if actor.out_dim() != m {
                return None;
            }
            let params = actor.flat_params();
            let mut agent = DdpgAgent::new(omega, m, config.ddpg.clone());
            agent.load_actor_params(&params);
            // Built before any static is scored: a ragged buffer fails here.
            let env = holdout.env(config);
            let score = holdout.rmse(|s| act(&actor, s));
            best = Some((score, params, String::from("snapshot")));
            Some((agent, env, episodes))
        }
    };
    let mut actor = initial_actor(omega, m, &config.ddpg);
    if config.informed_init {
        for temperature in [3.0, 6.0, 10.0, 15.0] {
            let bias = informed_logits(preds, actuals, temperature, config.ddpg.squash);
            if let Some(layer) = actor.final_layer_mut() {
                layer.bias_mut().copy_from_slice(&bias);
            }
            let score = holdout.rmse(|s| act(&actor, s));
            eadrl_obs::event(
                "eadrl.candidate",
                Level::Debug,
                &[
                    ("temperature", temperature.into()),
                    ("holdout_rmse", score.into()),
                ],
            );
            if best.as_ref().is_none_or(|(b, ..)| score < *b) {
                let source = format!("static(T={temperature})");
                best = Some((score, actor.flat_params(), source));
            }
        }
    }
    let curve = match warm {
        Some((mut agent, mut env, episodes)) => {
            holdout.train(&mut agent, &mut env, episodes, |score, agent| {
                if best.as_ref().is_none_or(|(b, ..)| score < *b) {
                    best = Some((score, agent.actor_params(), String::from("warm_start")));
                }
            })
        }
        None => {
            // Each restart is a pure function of its index, and the pool
            // flushes telemetry and merges in restart order: the winner is
            // bitwise identical at every `EADRL_PAR_THREADS`.
            let restarts = eadrl_par::par_map_indexed(
                (0..config.restarts.max(1)).collect::<Vec<usize>>(),
                |_, restart| {
                    let mut env = holdout.env(config);
                    let mut ddpg = config.ddpg.clone();
                    ddpg.seed = ddpg.seed.wrapping_add(1000 * restart as u64);
                    let mut agent = DdpgAgent::new(omega, m, ddpg);
                    if config.informed_init {
                        let squash = config.ddpg.squash;
                        let bias = informed_logits(preds, actuals, INIT_TEMPERATURE, squash);
                        agent.init_actor_output_bias(&bias);
                    }
                    // Episode-0 checkpoint: the initialization competes too.
                    let init_rmse = holdout.rmse(|s| agent.act(s));
                    let mut restart_best = (init_rmse, agent.actor_params());
                    let curve =
                        holdout.train(&mut agent, &mut env, config.episodes, |score, agent| {
                            if score < restart_best.0 {
                                restart_best = (score, agent.actor_params());
                            }
                        });
                    eadrl_obs::event(
                        "eadrl.restart",
                        Level::Info,
                        &[
                            ("restart", restart.into()),
                            ("init_rmse", init_rmse.into()),
                            ("holdout_rmse", restart_best.0.into()),
                        ],
                    );
                    (curve, restart_best)
                },
            );
            // A restart's own panic re-raises here, so the refresh's
            // `catch_unwind` sees it and retries.
            let restarts = match restarts {
                Ok(results) => results,
                Err(err) => std::panic::resume_unwind(Box::new(err.to_string())),
            };
            let mut first_curve = None;
            for (restart, (curve, (score, params))) in restarts.into_iter().enumerate() {
                first_curve.get_or_insert(curve);
                if best
                    .as_ref()
                    .is_none_or(|(b, ..)| score < *b * (1.0 - SELECTION_MARGIN))
                {
                    best = Some((score, params, format!("restart({restart})")));
                }
            }
            first_curve.unwrap_or_default()
        }
    };
    let (holdout_rmse, params, source) = best?;
    actor.load_flat_params(&params);
    Some(Selection {
        actor,
        source,
        holdout_rmse,
        curve,
    })
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

/// The complete EA-DRL forecaster: a pool of heterogeneous base models plus
/// the learned aggregation policy.
pub struct EaDrl {
    pool: Vec<Box<dyn Forecaster>>,
    dropped: Vec<String>,
    policy: EaDrlPolicy,
    guard: PoolGuard,
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
        }
    }

    /// Fits the pool and learns the combination policy offline.
    ///
    /// The training series is split `1 - val_fraction` / `val_fraction`,
    /// the split [`EvaluationProtocol`](crate::EvaluationProtocol) makes
    /// at the default fraction. Base models fit on the prefix; their
    /// rolling one-step predictions over the suffix become the
    /// policy-learning environment. Pool members that cannot fit (series
    /// too short for their configuration) are dropped and reported via
    /// [`EaDrl::dropped_models`].
    pub fn fit(&mut self, train: &[f64]) -> Result<(), ModelError> {
        let _span = eadrl_obs::span("eadrl.fit");
        // Repair gaps/non-finite values before any model sees the series
        // (forward-fill policy — see `eadrl_timeseries::sanitize`). A
        // fully non-finite series cannot be repaired meaningfully.
        let sanitized = sanitize_reported(train, "fit");
        let train: &[f64] = match &sanitized {
            None => train,
            Some((_, stats)) if stats.replaced == stats.len => {
                return Err(ModelError::Numerical {
                    context: "training series has no finite values".into(),
                });
            }
            Some((fixed, _)) => fixed,
        };
        let (fit_part, val_part) = policy_split(train, self.policy.config.val_fraction);
        let omega = self.policy.config.omega;
        if fit_part.len() < 20 || val_part.len() < omega + 2 {
            return Err(ModelError::SeriesTooShort {
                needed: 20 + omega + 2,
                got: train.len(),
            });
        }

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
        let mut preds = crate::parallel::prediction_matrix(&self.pool, fit_part, val_part);
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
        Ok(())
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
        let sanitized = sanitize_reported(history, "predict_history");
        let history: &[f64] = sanitized.as_ref().map_or(history, |(fixed, _)| fixed);
        let sweep = self.guard.sweep(&self.pool, history);
        let w = self.policy.weights(self.pool.len());
        if sweep.all_active {
            // Fault-free fast path: bit-identical to the historical
            // unguarded combination (the same dot, which the window
            // advances with).
            let ens = dot(&w, &sweep.values);
            self.policy.observe_served(ens);
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
