//! Deep deterministic policy gradient (Lillicrap et al.), from scratch.

use crate::env::Environment;
use crate::noise::OrnsteinUhlenbeck;
use crate::replay::{ReplayBuffer, SamplingStrategy, Transition};
use crate::squash::ActionSquash;
use eadrl_linalg::Matrix;
use eadrl_nn::{Activation, Adam, Mlp, Network};
use eadrl_obs::{Counter, Gauge, Histogram, Level};
use eadrl_par::{Placement, Sidecar};
use eadrl_rng::DetRng;
use std::sync::Arc;

/// Hyper-parameters of the DDPG agent.
///
/// Defaults follow the paper's EA-DRL setup where stated (γ = 0.9,
/// learning rate α = 0.01, diversity sampling) and the original DDPG
/// elsewhere (τ = 0.001 Polyak updates, OU exploration noise).
#[derive(Debug, Clone)]
pub struct DdpgConfig {
    /// Discount factor γ.
    pub gamma: f64,
    /// Actor learning rate.
    pub actor_lr: f64,
    /// Critic learning rate.
    pub critic_lr: f64,
    /// Polyak soft-update coefficient τ.
    pub tau: f64,
    /// Mini-batch size `N`.
    pub batch_size: usize,
    /// Replay capacity `N_max`.
    pub buffer_capacity: usize,
    /// Replay sampling strategy (the paper's contribution is `Diversity`).
    pub sampling: SamplingStrategy,
    /// Hidden-layer sizes shared by actor and critic.
    pub hidden: Vec<usize>,
    /// Output map from raw actor output to the action space.
    pub squash: ActionSquash,
    /// OU noise scale σ (θ is fixed at 0.15).
    pub noise_sigma: f64,
    /// L2 weight decay on the raw actor output (logits), applied inside
    /// the actor update. Keeps the pre-squash logits from drifting into
    /// saturation, where the squash Jacobian — and with it all learning —
    /// vanishes. 0 disables.
    pub actor_logit_reg: f64,
    /// RNG seed (initialization, noise, replay sampling).
    pub seed: u64,
}

impl Default for DdpgConfig {
    fn default() -> Self {
        DdpgConfig {
            gamma: 0.9,
            actor_lr: 0.01,
            critic_lr: 0.01,
            tau: 0.01,
            batch_size: 32,
            buffer_capacity: 10_000,
            sampling: SamplingStrategy::Diversity,
            hidden: vec![64, 64],
            squash: ActionSquash::Softmax,
            noise_sigma: 0.2,
            actor_logit_reg: 1e-3,
            seed: 0,
        }
    }
}

/// Per-episode training statistics (the y-axis of the paper's Figure 2 is
/// `avg_reward`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpisodeStats {
    /// Sum of rewards over the episode.
    pub total_reward: f64,
    /// Steps taken.
    pub steps: usize,
    /// `total_reward / steps` (0 for an empty episode — see
    /// [`EpisodeStats::from_sums`]).
    pub avg_reward: f64,
    /// Mean critic TD loss over the episode's gradient updates (`NaN`
    /// when no update ran, e.g. while the replay buffer fills up or in
    /// greedy evaluation).
    pub critic_loss: f64,
    /// Mean actor objective (the critic's `Q(s, π(s))` estimate under the
    /// current policy) over the episode's updates; `NaN` when no update
    /// ran.
    pub actor_objective: f64,
}

impl EpisodeStats {
    /// Builds the stats from episode sums, enforcing the empty-episode
    /// contract: a zero-step episode has `avg_reward == 0` (never
    /// `NaN`/`Inf`), and emits a `ddpg.episode.empty` warning event so
    /// the degenerate environment is visible in traces.
    pub fn from_sums(
        total_reward: f64,
        steps: usize,
        critic_loss: f64,
        actor_objective: f64,
    ) -> EpisodeStats {
        let avg_reward = if steps > 0 {
            total_reward / steps as f64
        } else {
            eadrl_obs::warn(
                "ddpg.episode.empty",
                &[("total_reward", total_reward.into())],
            );
            0.0
        };
        EpisodeStats {
            total_reward,
            steps,
            avg_reward,
            critic_loss,
            actor_objective,
        }
    }
}

/// Diagnostics from one DDPG gradient update.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateStats {
    /// Mean squared TD error `(Q(s,a) - y)²` over the mini-batch.
    pub critic_loss: f64,
    /// Mean critic estimate `Q(s, π(s))` under the current policy — the
    /// quantity the actor ascends.
    pub actor_objective: f64,
    /// Global L2 norm of the critic gradients before clipping; only
    /// computed when debug-level telemetry is enabled.
    pub critic_grad_norm: Option<f64>,
    /// Global L2 norm of the actor gradients before clipping; only
    /// computed when debug-level telemetry is enabled.
    pub actor_grad_norm: Option<f64>,
}

/// Cached handles into the global metrics registry, resolved once per
/// agent so hot-path recording skips the registry lock.
struct DdpgTelemetry {
    episodes: Arc<Counter>,
    updates: Arc<Counter>,
    buffer_occupancy: Arc<Gauge>,
    episode_avg_reward: Arc<Histogram>,
    critic_loss: Arc<Histogram>,
}

impl DdpgTelemetry {
    fn new() -> DdpgTelemetry {
        DdpgTelemetry {
            episodes: eadrl_obs::counter("ddpg.episodes"),
            updates: eadrl_obs::counter("ddpg.updates"),
            buffer_occupancy: eadrl_obs::gauge("ddpg.replay.occupancy"),
            episode_avg_reward: eadrl_obs::histogram("ddpg.episode.avg_reward"),
            critic_loss: eadrl_obs::histogram("ddpg.critic_loss"),
        }
    }
}

/// Persistent minibatch staging buffers for the update.
///
/// Reshaped in place every update, so after the first update at a given
/// batch size the assembly performs no heap allocations.
#[derive(Debug, Default)]
struct UpdateBuffers {
    /// Sampled states (`n x state_dim`) — the actor's input batch.
    states: Matrix,
    /// `[state | action]` rows (`n x (state_dim + action_dim)`) — the
    /// critic's TD-update input.
    sa: Matrix,
    /// `[state | π(state)]` rows — the critic's input in the actor update.
    pi_sa: Matrix,
    /// Per-sample scalar gradients fed into the critic (`n x 1`).
    grad_q: Matrix,
    /// Per-sample raw-action gradients fed into the actor (`n x action_dim`).
    grad_raw: Matrix,
}

/// The target networks and everything their two steps read and write.
/// Neither step reads anything else of the agent, so both run as
/// [`Sidecar`] jobs: the Bellman-target pass beside the critic and actor
/// forwards of the same update, and the Polyak step, posted at the end
/// of an update, beside whatever the caller does until its next update.
struct TargetPass {
    /// Target actor `π'`.
    actor: Mlp,
    /// Target critic `Q'`.
    critic: Mlp,
    /// Sampled next-states (`n x state_dim`) — the target actor's input.
    next_states: Matrix,
    /// `[next_state | π'(next_state)]` rows — the target critic's input.
    next_sa: Matrix,
    /// Sampled rewards, in batch order.
    rewards: Vec<f64>,
    /// Sampled terminal flags, in batch order.
    dones: Vec<bool>,
    /// Bellman targets `y`, in batch order (the job's output).
    targets: Vec<f64>,
    /// The online actor's parameters after an update, for its Polyak step.
    actor_params: Vec<f64>,
    /// The online critic's parameters after an update, for its Polyak step.
    critic_params: Vec<f64>,
    /// The next run is the Polyak step, not a target pass.
    polyak_due: bool,
    gamma: f64,
    tau: f64,
    squash: ActionSquash,
}

impl eadrl_par::Job for TargetPass {
    /// The Polyak step `θ' ← τθ + (1−τ)θ'` when one is due, otherwise the
    /// batched Bellman targets `y = r + γ·Q'(s', π'(s'))` (just `r` at a
    /// terminal).
    fn run(&mut self) {
        if std::mem::take(&mut self.polyak_due) {
            let _phase = eadrl_obs::span_at(Level::Trace, "ddpg.polyak");
            self.actor.soft_update_from(&self.actor_params, self.tau);
            self.critic.soft_update_from(&self.critic_params, self.tau);
            return;
        }
        let _phase = eadrl_obs::span_at(Level::Trace, "ddpg.targets");
        let (n, sd) = (self.next_states.rows(), self.next_states.cols());
        self.actor.forward_batch(&self.next_states);
        let ad = self.actor.batch_output().cols();
        self.next_sa.resize(n, sd + ad);
        for s in 0..n {
            let row = self.next_sa.row_mut(s);
            let (row_s, row_a) = row.split_at_mut(sd);
            row_s.copy_from_slice(self.next_states.row(s));
            // Squash straight into the staged minibatch row — no
            // per-sample Vec.
            self.squash
                .forward_into(self.actor.batch_output().row(s), row_a);
        }
        self.critic.forward_batch(&self.next_sa);
        self.targets.clear();
        for s in 0..n {
            let q_next = self.critic.batch_output()[(s, 0)];
            let y = self.rewards[s]
                + if self.dones[s] {
                    0.0
                } else {
                    self.gamma * q_next
                };
            self.targets.push(y); // eadrl-lint: allow(hot-path-alloc): push into a cleared, capacity-retaining Vec — allocation-free at steady state
        }
    }
}

/// The DDPG agent: actor + critic networks, their targets, a replay buffer
/// and an exploration-noise process.
pub struct DdpgAgent {
    config: DdpgConfig,
    actor: Mlp,
    critic: Mlp,
    /// The target networks with their staging, as a job: each update
    /// runs the Bellman-target pass on the sidecar's helper thread
    /// while this thread runs the forwards that do not need it, and
    /// posts its Polyak step there last.
    target_pass: Sidecar<TargetPass>,
    actor_opt: Adam,
    critic_opt: Adam,
    buffer: ReplayBuffer,
    noise: OrnsteinUhlenbeck,
    rng: DetRng,
    state_dim: usize,
    action_dim: usize,
    updates: u64,
    telemetry: DdpgTelemetry,
    bufs: UpdateBuffers,
}

impl DdpgAgent {
    /// Creates an agent for the given state/action dimensions.
    pub fn new(state_dim: usize, action_dim: usize, config: DdpgConfig) -> Self {
        DdpgAgent::with_placement(state_dim, action_dim, config, Placement::Auto)
    }

    /// [`DdpgAgent::new`] with the target pass pinned inline or to the
    /// helper thread. A test hook: both paths compute the same bits, and
    /// every production agent uses [`Placement::Auto`].
    #[doc(hidden)]
    pub fn with_placement(
        state_dim: usize,
        action_dim: usize,
        config: DdpgConfig,
        placement: Placement,
    ) -> Self {
        let mut rng = DetRng::seed_from_u64(config.seed);
        let mut actor_sizes = vec![state_dim];
        actor_sizes.extend(&config.hidden);
        actor_sizes.push(action_dim);
        let actor = Mlp::new(
            &mut rng,
            &actor_sizes,
            Activation::Relu,
            Activation::Identity,
        )
        .with_small_final_layer(&mut rng, 3e-3);
        let mut critic_sizes = vec![state_dim + action_dim];
        critic_sizes.extend(&config.hidden);
        critic_sizes.push(1);
        let critic = Mlp::new(
            &mut rng,
            &critic_sizes,
            Activation::Relu,
            Activation::Identity,
        )
        .with_small_final_layer(&mut rng, 3e-3);
        let job = TargetPass {
            actor: actor.clone(),
            critic: critic.clone(),
            next_states: Matrix::default(),
            next_sa: Matrix::default(),
            rewards: Vec::new(),
            dones: Vec::new(),
            targets: Vec::new(),
            actor_params: Vec::new(),
            critic_params: Vec::new(),
            polyak_due: false,
            gamma: config.gamma,
            tau: config.tau,
            squash: config.squash,
        };
        let target_pass = Sidecar::with_placement(job, placement);
        let noise = OrnsteinUhlenbeck::new(action_dim, 0.0, 0.15, config.noise_sigma);
        DdpgAgent {
            actor_opt: Adam::new(config.actor_lr),
            critic_opt: Adam::new(config.critic_lr),
            buffer: ReplayBuffer::new(config.buffer_capacity),
            noise,
            rng,
            state_dim,
            action_dim,
            updates: 0,
            telemetry: DdpgTelemetry::new(),
            bufs: UpdateBuffers::default(),
            actor,
            critic,
            target_pass,
            config,
        }
    }

    /// The agent's configuration.
    pub fn config(&self) -> &DdpgConfig {
        &self.config
    }

    /// Number of gradient updates performed so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// State dimensionality the agent was built for.
    pub fn state_dim(&self) -> usize {
        self.state_dim
    }

    /// Action dimensionality the agent was built for.
    pub fn action_dim(&self) -> usize {
        self.action_dim
    }

    /// Deterministic (greedy) action for `state`.
    pub fn act(&self, state: &[f64]) -> Vec<f64> {
        debug_assert_eq!(state.len(), self.state_dim);
        let raw = self.actor.forward_inference(state);
        self.config.squash.forward(&raw)
    }

    /// Exploratory action: OU noise added to the raw actor output before
    /// the squash, so squashed actions stay inside the action space.
    pub fn act_exploratory(&mut self, state: &[f64]) -> Vec<f64> {
        let mut raw = self.actor.forward_inference(state);
        let noise = self.noise.sample(&mut self.rng);
        for (r, n) in raw.iter_mut().zip(noise.iter()) {
            *r += n;
        }
        self.config.squash.forward(&raw)
    }

    /// Stores a transition in the replay buffer.
    pub fn observe(&mut self, transition: Transition) {
        self.buffer.push(transition);
    }

    /// Runs one DDPG update (critic regression + deterministic policy
    /// gradient + Polyak target updates) and returns its diagnostics.
    /// No-op (returning `None`) until the buffer holds at least one
    /// batch.
    pub fn update(&mut self) -> Option<UpdateStats> {
        let n = self.config.batch_size;
        if self.buffer.len() < n {
            return None;
        }
        let _span = eadrl_obs::span_at(Level::Trace, "ddpg.update");
        let stats = self.update_batched();
        self.updates += 1;
        self.telemetry.updates.inc();
        self.telemetry.critic_loss.record(stats.critic_loss);
        Some(stats)
    }

    /// Minibatch-as-matrix update: the sampled transitions are staged into
    /// the persistent [`UpdateBuffers`] matrices and the target pass's
    /// staging once, and every network runs one batched forward/backward
    /// per update. Gradients accumulate through the GEMM kernels in sample
    /// order, so the result is bitwise-identical to the original
    /// transition-at-a-time loop (kept as the test reference).
    ///
    /// Phase order: land the previous update's Polyak step; stage; start
    /// the Bellman-target pass on the sidecar; the critic forward on
    /// `[s|a]` and the actor forward plus squash on `s` (neither reads a
    /// target network); join; the TD loss and the critic update; the
    /// actor update; post the Polyak step last. Each phase reads the same
    /// values in the same order whichever thread ran the sidecar's jobs,
    /// so both paths compute the same bits.
    fn update_batched(&mut self) -> UpdateStats {
        let n = self.config.batch_size;
        let sd = self.state_dim;
        let ad = self.action_dim;

        // ---- Stage the minibatch (one RNG draw; the drawn transitions
        // are copied straight into the reused matrices — no per-transition
        // clones). Joining first lands the previous update's Polyak step.
        let mut job = self.target_pass.join();
        {
            let _phase = eadrl_obs::span_at(Level::Trace, "ddpg.stage");
            let batch = self.buffer.sample(n, self.config.sampling, &mut self.rng);
            self.bufs.states.resize(n, sd);
            self.bufs.sa.resize(n, sd + ad);
            job.next_states.resize(n, sd);
            job.rewards.resize(n, 0.0);
            job.dones.resize(n, false);
            for (s, t) in batch.iter().enumerate() {
                self.bufs.states.row_mut(s).copy_from_slice(&t.state);
                let row = self.bufs.sa.row_mut(s);
                row[..sd].copy_from_slice(&t.state);
                row[sd..].copy_from_slice(&t.action);
                job.next_states.row_mut(s).copy_from_slice(&t.next_state);
                job.rewards[s] = t.reward;
                job.dones[s] = t.done;
            }
        }
        drop(job);

        // ---- Bellman targets via the target networks, beside the two
        // forwards below.
        self.target_pass.start();
        self.critic.zero_grad();
        {
            let _phase = eadrl_obs::span_at(Level::Trace, "critic.forward");
            self.critic.forward_batch(&self.bufs.sa);
        }
        self.actor.zero_grad();
        {
            let _phase = eadrl_obs::span_at(Level::Trace, "actor.forward");
            self.actor.forward_batch(&self.bufs.states);
        }
        {
            let _phase = eadrl_obs::span_at(Level::Trace, "squash.forward");
            self.bufs.pi_sa.resize(n, sd + ad);
            for s in 0..n {
                let row = self.bufs.pi_sa.row_mut(s);
                let (row_s, row_a) = row.split_at_mut(sd);
                row_s.copy_from_slice(self.bufs.states.row(s));
                self.config
                    .squash
                    .forward_into(self.actor.batch_output().row(s), row_a);
            }
        }
        let mut target = self.target_pass.join();

        // ---- Critic update: minimize (Q(s,a) - y)² with Bellman targets.
        let mut critic_loss = 0.0;
        {
            let _phase = eadrl_obs::span_at(Level::Trace, "critic.backward");
            self.bufs.grad_q.resize(n, 1);
            for s in 0..n {
                let err = self.critic.batch_output()[(s, 0)] - target.targets[s];
                critic_loss += err * err / n as f64;
                self.bufs.grad_q[(s, 0)] = 2.0 * err / n as f64;
            }
            // Nothing sits below the critic's first layer — skip its
            // input-gradient GEMM (parameter gradients are bitwise identical).
            self.critic.backward_batch_weights_only(&self.bufs.grad_q);
        }
        let critic_grad_norm = eadrl_obs::enabled(Level::Debug).then(|| self.critic.grad_norm());
        {
            let _phase = eadrl_obs::span_at(Level::Trace, "ddpg.optimizer");
            self.critic.clip_grad_norm(5.0);
            self.critic_opt.step(&mut self.critic);
        }

        // ---- Actor update: ascend ∇_θ Q(s, π_θ(s)), from the actor
        // forward above (the actor has not changed since).
        let mut actor_objective = 0.0;
        {
            let _phase = eadrl_obs::span_at(Level::Trace, "critic.grad_input");
            self.critic.forward_batch(&self.bufs.pi_sa);
            self.bufs.grad_q.resize(n, 1);
            for s in 0..n {
                actor_objective += self.critic.batch_output()[(s, 0)] / n as f64;
                // dQ/d(input) with loss = -Q / n (gradient ascent on Q).
                self.bufs.grad_q[(s, 0)] = -1.0 / n as f64;
            }
            // The critic is differentiated only to reach the action inputs —
            // its own weight gradients would be scratch, so the input-only
            // backward skips computing them altogether.
            self.critic.backward_batch_input_only(&self.bufs.grad_q);
        }
        {
            let _phase = eadrl_obs::span_at(Level::Trace, "squash.backward");
            self.bufs.grad_raw.resize(n, ad);
            let reg = self.config.actor_logit_reg;
            for s in 0..n {
                let raw = self.actor.batch_output().row(s);
                let action = &self.bufs.pi_sa.row(s)[sd..];
                let grad_action = &self.critic.batch_grad_input().row(s)[sd..];
                let grad_raw = self.bufs.grad_raw.row_mut(s);
                self.config
                    .squash
                    .backward_into(raw, action, grad_action, grad_raw);
                // Logit weight decay: keeps the actor out of squash saturation.
                if reg > 0.0 {
                    for (g, &r) in grad_raw.iter_mut().zip(raw.iter()) {
                        *g += reg * r / n as f64;
                    }
                }
            }
        }
        {
            let _phase = eadrl_obs::span_at(Level::Trace, "actor.backward");
            self.actor.backward_batch_weights_only(&self.bufs.grad_raw);
        }
        let actor_grad_norm = eadrl_obs::enabled(Level::Debug).then(|| self.actor.grad_norm());
        {
            let _phase = eadrl_obs::span_at(Level::Trace, "ddpg.optimizer");
            self.actor.clip_grad_norm(5.0);
            self.actor_opt.step(&mut self.actor);
        }

        // ---- Polyak soft target updates, posted last: the online
        // parameters are snapshotted into the job's persistent buffers
        // ([`Network::flat_params_into`], allocation-free at steady state)
        // and the step runs on the sidecar while the caller moves on; the
        // next access to the target networks joins it.
        self.actor.flat_params_into(&mut target.actor_params);
        self.critic.flat_params_into(&mut target.critic_params);
        target.polyak_due = true;
        drop(target);
        self.target_pass.start();
        UpdateStats {
            critic_loss,
            actor_objective,
            critic_grad_norm,
            actor_grad_norm,
        }
    }

    /// Runs one episode on `env`. With `train = true` the agent explores,
    /// stores transitions and updates after every step; otherwise it acts
    /// greedily without learning.
    pub fn run_episode(&mut self, env: &mut dyn Environment, train: bool) -> EpisodeStats {
        let _span = eadrl_obs::span_at(Level::Debug, "ddpg.episode");
        let mut state = env.reset();
        self.noise.reset();
        let mut total_reward = 0.0;
        let mut steps = 0usize;
        let mut critic_loss_sum = 0.0;
        let mut actor_objective_sum = 0.0;
        let mut grad_norm_sums = (0.0, 0.0);
        let mut grad_norm_count = 0u64;
        let mut n_updates = 0u64;
        loop {
            let action = if train {
                self.act_exploratory(&state)
            } else {
                self.act(&state)
            };
            let (next_state, reward, done) = env.step(&action);
            total_reward += reward;
            steps += 1;
            if train {
                self.observe(Transition {
                    state: state.clone(),
                    action,
                    reward,
                    next_state: next_state.clone(),
                    done,
                });
                if let Some(stats) = self.update() {
                    critic_loss_sum += stats.critic_loss;
                    actor_objective_sum += stats.actor_objective;
                    n_updates += 1;
                    if let (Some(c), Some(a)) = (stats.critic_grad_norm, stats.actor_grad_norm) {
                        grad_norm_sums.0 += c;
                        grad_norm_sums.1 += a;
                        grad_norm_count += 1;
                    }
                }
            }
            state = next_state;
            if done {
                break;
            }
        }
        let (critic_loss, actor_objective) = if n_updates > 0 {
            (
                critic_loss_sum / n_updates as f64,
                actor_objective_sum / n_updates as f64,
            )
        } else {
            (f64::NAN, f64::NAN)
        };
        let stats = EpisodeStats::from_sums(total_reward, steps, critic_loss, actor_objective);
        self.telemetry.episodes.inc();
        self.telemetry.episode_avg_reward.record(stats.avg_reward);
        self.telemetry
            .buffer_occupancy
            .set(self.buffer.len() as f64);
        eadrl_obs::event_with("ddpg.episode", Level::Info, || {
            let mut fields: Vec<(String, eadrl_obs::Value)> = vec![
                ("train".to_string(), train.into()),
                ("total_reward".to_string(), stats.total_reward.into()),
                ("steps".to_string(), stats.steps.into()),
                ("avg_reward".to_string(), stats.avg_reward.into()),
                ("critic_loss".to_string(), stats.critic_loss.into()),
                ("actor_objective".to_string(), stats.actor_objective.into()),
                ("updates_total".to_string(), self.updates.into()),
                ("buffer_len".to_string(), self.buffer.len().into()),
                ("buffer_capacity".to_string(), self.buffer.capacity().into()),
                (
                    "buffer_above_median".to_string(),
                    self.buffer.above_median_fraction().into(),
                ),
                ("noise_sigma".to_string(), self.config.noise_sigma.into()),
            ];
            if grad_norm_count > 0 {
                fields.push((
                    "critic_grad_norm".to_string(),
                    (grad_norm_sums.0 / grad_norm_count as f64).into(),
                ));
                fields.push((
                    "actor_grad_norm".to_string(),
                    (grad_norm_sums.1 / grad_norm_count as f64).into(),
                ));
            }
            fields
        });
        stats
    }

    /// Trains for `episodes` episodes and returns the per-episode stats —
    /// the learning curve of the paper's Figure 2.
    pub fn train(&mut self, env: &mut dyn Environment, episodes: usize) -> Vec<EpisodeStats> {
        let _span = eadrl_obs::span("ddpg.train");
        (0..episodes).map(|_| self.run_episode(env, true)).collect()
    }

    /// Sets the actor's output-layer bias (and mirrors it into the target
    /// actor): with near-zero final-layer weights, this makes the initial
    /// policy emit `squash(bias)` in every state — an *informed
    /// initialization* that lets training start from a known-good action.
    ///
    /// # Panics
    /// Panics when `bias` does not match the action dimension.
    pub fn init_actor_output_bias(&mut self, bias: &[f64]) {
        assert_eq!(bias.len(), self.action_dim, "bias/action dim mismatch");
        let mut target = self.target_pass.join();
        for net in [&mut self.actor, &mut target.actor] {
            if let Some(layer) = net.final_layer_mut() {
                layer.bias_mut().copy_from_slice(bias);
            }
        }
    }

    /// Greedy evaluation: runs `episodes` noise-free episodes without
    /// learning and returns the mean per-step reward.
    pub fn evaluate(&mut self, env: &mut dyn Environment, episodes: usize) -> f64 {
        let episodes = episodes.max(1);
        let mut total = 0.0;
        let mut steps = 0usize;
        for _ in 0..episodes {
            let stats = self.run_episode(env, false);
            total += stats.total_reward;
            steps += stats.steps;
        }
        if steps > 0 {
            total / steps as f64
        } else {
            0.0
        }
    }

    /// Snapshot of the actor's parameters (for best-checkpoint selection).
    pub fn actor_params(&mut self) -> Vec<f64> {
        self.actor.flat_params()
    }

    /// Restores actor parameters from [`DdpgAgent::actor_params`].
    pub fn load_actor_params(&mut self, params: &[f64]) {
        self.actor.load_flat_params(params);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::test_envs::PointMass;

    fn concat(a: &[f64], b: &[f64]) -> Vec<f64> {
        let mut v = Vec::with_capacity(a.len() + b.len());
        v.extend_from_slice(a);
        v.extend_from_slice(b);
        v
    }

    /// The reference the batched update is compared against: the original
    /// transition-at-a-time update loop, plus the parameter snapshots the
    /// comparison reads.
    impl DdpgAgent {
        fn update_per_sample(&mut self) -> UpdateStats {
            let n = self.config.batch_size;
            let batch: Vec<Transition> = self
                .buffer
                .sample(n, self.config.sampling, &mut self.rng)
                .iter()
                .cloned()
                .collect();

            // ---- Critic update: minimize (Q(s,a) - y)² with Bellman targets.
            let mut targets = Vec::with_capacity(n);
            let mut target_nets = self.target_pass.join();
            for t in &batch {
                let raw_next = target_nets.actor.forward_inference(&t.next_state);
                let a_next = self.config.squash.forward(&raw_next);
                let q_next = target_nets
                    .critic
                    .forward_inference(&concat(&t.next_state, &a_next))[0];
                let y = t.reward
                    + if t.done {
                        0.0
                    } else {
                        self.config.gamma * q_next
                    };
                targets.push(y);
            }
            self.critic.zero_grad();
            let mut critic_loss = 0.0;
            for (t, &y) in batch.iter().zip(targets.iter()) {
                let q = self.critic.forward(&concat(&t.state, &t.action))[0];
                let err = q - y;
                critic_loss += err * err / n as f64;
                let g = 2.0 * err / n as f64;
                self.critic.backward(&[g]);
            }
            // Gradient norms are only interesting to traces; skip the extra
            // parameter sweep unless debug telemetry is on.
            let critic_grad_norm =
                eadrl_obs::enabled(Level::Debug).then(|| self.critic.grad_norm());
            self.critic.clip_grad_norm(5.0);
            self.critic_opt.step(&mut self.critic);

            // ---- Actor update: ascend ∇_θ Q(s, π_θ(s)).
            self.actor.zero_grad();
            self.critic.zero_grad(); // scratch space for input gradients
            let mut actor_objective = 0.0;
            for t in &batch {
                let raw = self.actor.forward(&t.state);
                let action = self.config.squash.forward(&raw);
                let q = self.critic.forward(&concat(&t.state, &action));
                actor_objective += q[0] / n as f64;
                // dQ/d(input) with loss = -Q / n (gradient ascent on Q).
                let grad_in = self.critic.backward(&[-1.0 / n as f64]);
                let grad_action = &grad_in[self.state_dim..];
                let mut grad_raw = self.config.squash.backward(&raw, &action, grad_action);
                // Logit weight decay: keeps the actor out of squash saturation.
                let reg = self.config.actor_logit_reg;
                if reg > 0.0 {
                    for (g, &r) in grad_raw.iter_mut().zip(raw.iter()) {
                        *g += reg * r / n as f64;
                    }
                }
                self.actor.backward(&grad_raw);
            }
            let actor_grad_norm = eadrl_obs::enabled(Level::Debug).then(|| self.actor.grad_norm());
            self.actor.clip_grad_norm(5.0);
            self.actor_opt.step(&mut self.actor);
            self.critic.zero_grad(); // discard scratch gradients

            let tau = self.config.tau;
            let actor = self.actor.flat_params();
            target_nets.actor.soft_update_from(&actor, tau);
            let critic = self.critic.flat_params();
            target_nets.critic.soft_update_from(&critic, tau);
            UpdateStats {
                critic_loss,
                actor_objective,
                critic_grad_norm,
                actor_grad_norm,
            }
        }

        fn critic_params(&mut self) -> Vec<f64> {
            self.critic.flat_params()
        }

        /// The target networks' parameters, actor then critic.
        fn target_params(&mut self) -> Vec<f64> {
            let mut target = self.target_pass.join();
            let mut v = target.actor.flat_params();
            v.extend(target.critic.flat_params());
            v
        }
    }

    fn small_config(squash: ActionSquash) -> DdpgConfig {
        DdpgConfig {
            gamma: 0.9,
            actor_lr: 0.005,
            critic_lr: 0.01,
            tau: 0.02,
            batch_size: 32,
            buffer_capacity: 5_000,
            sampling: SamplingStrategy::Uniform,
            hidden: vec![24],
            squash,
            noise_sigma: 0.3,
            actor_logit_reg: 0.0,
            seed: 7,
        }
    }

    #[test]
    fn actions_respect_squash() {
        let agent = DdpgAgent::new(
            3,
            4,
            DdpgConfig {
                squash: ActionSquash::Softmax,
                ..small_config(ActionSquash::Softmax)
            },
        );
        let a = agent.act(&[0.1, -0.2, 0.3]);
        assert_eq!(a.len(), 4);
        assert!((a.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(a.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn update_is_noop_until_buffer_filled() {
        let mut agent = DdpgAgent::new(1, 1, small_config(ActionSquash::Tanh));
        agent.update();
        assert_eq!(agent.updates(), 0);
        for _ in 0..agent.config().batch_size {
            agent.observe(Transition {
                state: vec![0.0],
                action: vec![0.0],
                reward: 0.0,
                next_state: vec![0.0],
                done: false,
            });
        }
        agent.update();
        assert_eq!(agent.updates(), 1);
    }

    #[test]
    fn ddpg_learns_point_mass_control() {
        let mut env = PointMass::new(1.0, 25);
        let mut agent = DdpgAgent::new(1, 1, small_config(ActionSquash::Tanh));
        let stats = agent.train(&mut env, 50);
        let early: f64 = stats[..5].iter().map(|s| s.avg_reward).sum::<f64>() / 5.0;
        let late: f64 = stats[45..].iter().map(|s| s.avg_reward).sum::<f64>() / 5.0;
        assert!(
            late > early,
            "no improvement: early {early:.4}, late {late:.4}"
        );
        // A greedy rollout should end near the target.
        let eval = agent.run_episode(&mut env, false);
        assert!(
            eval.avg_reward > -0.5,
            "greedy policy still poor: {}",
            eval.avg_reward
        );
    }

    #[test]
    fn training_is_seed_deterministic() {
        let run = || {
            let mut env = PointMass::new(0.5, 10);
            let mut agent = DdpgAgent::new(1, 1, small_config(ActionSquash::Tanh));
            agent.train(&mut env, 5);
            agent.act(&[0.3])[0]
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn exploratory_actions_differ_from_greedy() {
        let mut agent = DdpgAgent::new(1, 1, small_config(ActionSquash::Tanh));
        let greedy = agent.act(&[0.0]);
        let explore = agent.act_exploratory(&[0.0]);
        assert_ne!(greedy, explore);
    }

    #[test]
    fn critic_learns_to_prefer_good_actions() {
        let mut env = PointMass::new(1.0, 25);
        let mut agent = DdpgAgent::new(1, 1, small_config(ActionSquash::Tanh));
        agent.train(&mut env, 40);
        // From the start state, moving toward the target should be valued
        // higher than moving away.
        let toward = agent.critic.forward_inference(&[0.0, 1.0])[0];
        let away = agent.critic.forward_inference(&[0.0, -1.0])[0];
        assert!(
            toward > away,
            "critic should prefer moving toward the target: {toward} vs {away}"
        );
    }

    #[test]
    fn evaluate_reports_noise_free_performance() {
        let mut env = PointMass::new(1.0, 15);
        let mut agent = DdpgAgent::new(1, 1, small_config(ActionSquash::Tanh));
        agent.train(&mut env, 30);
        let a = agent.evaluate(&mut env, 3);
        let b = agent.evaluate(&mut env, 3);
        // Greedy evaluation is deterministic in a deterministic env.
        assert_eq!(a, b);
        assert!(a.is_finite());
    }

    #[test]
    fn empty_episode_contract_and_telemetry_events() {
        use eadrl_obs::{Level, NoopSink, RingSink, Value};
        let sink = Arc::new(RingSink::new(4096));
        eadrl_obs::set_sink(sink.clone());
        eadrl_obs::set_level(Some(Level::Info));

        // Zero-step episodes: avg_reward is 0 — never NaN/Inf — and the
        // degenerate case surfaces as a warning event.
        let stats = EpisodeStats::from_sums(0.0, 0, f64::NAN, f64::NAN);
        assert_eq!(stats.avg_reward, 0.0);
        assert_eq!(stats.steps, 0);
        assert_eq!(sink.events_named("ddpg.episode.empty").len(), 1);

        // Training emits one info-level event per episode, and once the
        // buffer holds a batch the critic loss becomes finite.
        let mut env = PointMass::new(0.5, 10);
        let mut agent = DdpgAgent::new(1, 1, small_config(ActionSquash::Tanh));
        let episodes = 5;
        agent.train(&mut env, episodes);
        let events = sink.events_named("ddpg.episode");
        assert!(
            events.len() >= episodes,
            "expected >= {episodes} episode events, got {}",
            events.len()
        );
        let finite_losses = events
            .iter()
            .filter(|e| matches!(e.get("critic_loss"), Some(Value::F64(v)) if v.is_finite()))
            .count();
        assert!(
            finite_losses > 0,
            "episodes with updates must report a finite critic loss"
        );

        eadrl_obs::set_level(None);
        eadrl_obs::set_sink(Arc::new(NoopSink));
    }

    #[test]
    fn update_stats_report_losses() {
        let mut env = PointMass::new(0.5, 40);
        let mut agent = DdpgAgent::new(1, 1, small_config(ActionSquash::Tanh));
        // Fill the buffer with one long episode, then update directly.
        agent.run_episode(&mut env, true);
        let stats = agent.update().expect("buffer holds a batch");
        assert!(stats.critic_loss.is_finite() && stats.critic_loss >= 0.0);
        assert!(stats.actor_objective.is_finite());
        // Debug telemetry is off, so grad norms are skipped.
        assert!(stats.critic_grad_norm.is_none());
        assert!(stats.actor_grad_norm.is_none());
    }

    #[test]
    fn diversity_sampling_also_trains() {
        let mut env = PointMass::new(1.0, 20);
        let cfg = DdpgConfig {
            sampling: SamplingStrategy::Diversity,
            ..small_config(ActionSquash::Tanh)
        };
        let mut agent = DdpgAgent::new(1, 1, cfg);
        let stats = agent.train(&mut env, 20);
        assert_eq!(stats.len(), 20);
        assert!(agent.updates() > 0);
        assert!(stats.iter().all(|s| s.avg_reward.is_finite()));
    }

    // ---- Differential test of the batched update against the
    // transition-at-a-time reference. The determinism contract requires
    // the batched update to be *bitwise* equivalent, not just numerically
    // close: after any number of updates on identical replay contents,
    // both hold identical parameters (actor, critic, and both Polyak
    // targets) and report identical `UpdateStats`.
    //
    // The batch size is deliberately not a power of two so that the
    // `x / n as f64` mean-reduction terms cannot silently be replaced by
    // a reciprocal multiply (which rounds differently).

    const STATE_DIM: usize = 3;
    const ACTION_DIM: usize = 4;

    fn differential_agent(sampling: SamplingStrategy) -> DdpgAgent {
        DdpgAgent::new(
            STATE_DIM,
            ACTION_DIM,
            DdpgConfig {
                gamma: 0.9,
                actor_lr: 0.005,
                critic_lr: 0.01,
                tau: 0.02,
                // Non-power-of-2: 1/33 is inexact, so any reciprocal-multiply
                // shortcut in the batched path would change low-order bits.
                batch_size: 33,
                buffer_capacity: 1_000,
                sampling,
                hidden: vec![16, 8],
                squash: ActionSquash::Softmax,
                noise_sigma: 0.2,
                // Non-zero so the actor's logit-regularisation term is part of
                // the comparison.
                actor_logit_reg: 1e-3,
                seed: 11,
            },
        )
    }

    /// Deterministic synthetic replay contents: both agents observe the same
    /// transition stream, including occasional terminal transitions so the
    /// `done` branch of the Bellman target is exercised.
    fn fill_buffer(agent: &mut DdpgAgent, transitions: usize) {
        let mut rng = DetRng::seed_from_u64(404);
        for i in 0..transitions {
            let state: Vec<f64> = (0..STATE_DIM)
                .map(|_| rng.random_range(-1.0..1.0))
                .collect();
            let next_state: Vec<f64> = (0..STATE_DIM)
                .map(|_| rng.random_range(-1.0..1.0))
                .collect();
            let mut action: Vec<f64> = (0..ACTION_DIM)
                .map(|_| rng.random_range(0.0..1.0))
                .collect();
            let sum: f64 = action.iter().sum();
            for a in action.iter_mut() {
                *a /= sum;
            }
            agent.observe(Transition {
                state,
                action,
                reward: rng.random_range(-1.0..1.0),
                next_state,
                done: i % 7 == 0,
            });
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn assert_batched_matches_per_sample(sampling: SamplingStrategy) {
        let mut batched = differential_agent(sampling);
        let mut per_sample = differential_agent(sampling);
        fill_buffer(&mut batched, 120);
        fill_buffer(&mut per_sample, 120);

        for step in 0..8 {
            let sb = batched.update().expect("buffer is filled");
            let sp = per_sample.update_per_sample();
            assert_eq!(
                sb.critic_loss.to_bits(),
                sp.critic_loss.to_bits(),
                "critic_loss diverged at update {step} ({sampling:?}): \
                 batched {} vs per-sample {}",
                sb.critic_loss,
                sp.critic_loss,
            );
            assert_eq!(
                sb.actor_objective.to_bits(),
                sp.actor_objective.to_bits(),
                "actor_objective diverged at update {step} ({sampling:?}): \
                 batched {} vs per-sample {}",
                sb.actor_objective,
                sp.actor_objective,
            );
            assert_eq!(
                bits(&batched.actor_params()),
                bits(&per_sample.actor_params()),
                "actor parameters diverged at update {step} ({sampling:?})"
            );
            assert_eq!(
                bits(&batched.critic_params()),
                bits(&per_sample.critic_params()),
                "critic parameters diverged at update {step} ({sampling:?})"
            );
            assert_eq!(
                bits(&batched.target_params()),
                bits(&per_sample.target_params()),
                "target parameters diverged at update {step} ({sampling:?})"
            );
        }

        // The updated policies act identically too.
        let probe = [0.25, -0.5, 0.75];
        assert_eq!(
            bits(&batched.act(&probe)),
            bits(&per_sample.act(&probe)),
            "greedy actions diverged ({sampling:?})"
        );
    }

    #[test]
    fn batched_updates_match_per_sample_bitwise_uniform() {
        assert_batched_matches_per_sample(SamplingStrategy::Uniform);
    }

    #[test]
    fn batched_updates_match_per_sample_bitwise_diversity() {
        assert_batched_matches_per_sample(SamplingStrategy::Diversity);
    }

    /// FNV-1a over the bit patterns of `values`.
    fn fnv_bits(values: &[f64]) -> u64 {
        values.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
            v.to_bits().to_le_bytes().iter().fold(h, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        })
    }

    /// One synthetic transition at the paper's shape: the state is ω
    /// recent values, the action a softmax point over the pool, and the
    /// reward is rank-valued (`k / m`, as the normalized Eq. 3 reward),
    /// so the replay median sits on ties.
    fn paper_transition(rng: &mut DetRng, sd: usize, ad: usize, i: usize) -> Transition {
        let state: Vec<f64> = (0..sd).map(|_| rng.random_range(-1.0..1.0)).collect();
        let next_state: Vec<f64> = (0..sd).map(|_| rng.random_range(-1.0..1.0)).collect();
        let mut action: Vec<f64> = (0..ad).map(|_| rng.random_range(0.0..1.0)).collect();
        let sum: f64 = action.iter().sum();
        for a in action.iter_mut() {
            *a /= sum;
        }
        let rank = rng.random_range(1..ad + 1);
        Transition {
            state,
            action,
            reward: rank as f64 / ad as f64,
            next_state,
            done: i.is_multiple_of(11),
        }
    }

    #[test]
    fn paper_shape_updates_match_golden_digests() {
        // State ω = 10, a 43-member pool, batch 32 and diversity
        // sampling over a 200-slot buffer that wraps while it trains:
        // 100 transitions up front, then one push before each of the
        // 300 updates. The digests (actor, critic, both targets, and
        // every update's critic loss and actor objective) were recorded
        // in release and debug builds before the GEMM kernels gained
        // their SIMD twins and the replay buffer its maintained median.
        // The target pass runs inline and on the sidecar's helper in
        // turn; both must reproduce the digests.
        const SD: usize = 10;
        const AD: usize = 43;
        for placement in [Placement::Inline, Placement::Helper] {
            let mut agent = DdpgAgent::with_placement(
                SD,
                AD,
                DdpgConfig {
                    buffer_capacity: 200,
                    noise_sigma: 0.3,
                    hidden: vec![32, 32],
                    seed: 0x0e4d,
                    ..DdpgConfig::default()
                },
                placement,
            );
            let mut rng = DetRng::seed_from_u64(0x9a9e);
            for i in 0..100 {
                agent.observe(paper_transition(&mut rng, SD, AD, i));
            }
            let mut stats = Vec::with_capacity(600);
            for i in 100..400 {
                agent.observe(paper_transition(&mut rng, SD, AD, i));
                let s = agent.update().expect("buffer holds a batch");
                stats.push(s.critic_loss);
                stats.push(s.actor_objective);
            }
            assert_eq!(
                agent.target_pass.has_helper(),
                placement == Placement::Helper,
                "{placement:?}"
            );
            let got = (
                fnv_bits(&agent.actor_params()),
                fnv_bits(&agent.critic_params()),
                fnv_bits(&agent.target_params()),
                fnv_bits(&stats),
            );
            assert_eq!(
                got,
                (
                    0xc642_c1fa_4960_eef1,
                    0x024a_91be_d40f_a180,
                    0xd132_0e95_66cf_8053,
                    0x62c1_9ea3_06c7_0520,
                ),
                "{placement:?}: got {got:#x?}"
            );
        }
    }
}
