//! The EA-DRL MDP (§II-B of the paper).

use eadrl_rl::Environment;
use eadrl_timeseries::metrics::nrmse;
use eadrl_timeseries::window::SlideWindow;

/// Normalizes a state window relative to its own mean and standard
/// deviation, so the policy sees a level- and scale-free shape.
///
/// The paper does not specify the state normalization; window-relative
/// standardization is chosen because several evaluation series (stock
/// indices, drifting demand) wander far from the training level online,
/// and a fixed global scaler would push the policy network out of its
/// training distribution exactly when adaptivity matters most.
pub fn normalize_window(window: &[f64]) -> Vec<f64> {
    if window.is_empty() {
        return Vec::new();
    }
    let mean = window.iter().sum::<f64>() / window.len() as f64;
    let var = window.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / window.len() as f64;
    let std = var.sqrt().max(1e-9);
    window.iter().map(|v| (v - mean) / std).collect()
}

/// Reward definition for the ensemble environment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RewardKind {
    /// The paper's Eq. 3: `r_t = m + 1 - ρ(ensemble)`, where ρ is the
    /// ensemble's rank (1 = most accurate) among the m base models plus
    /// the ensemble itself, by absolute one-step error. With
    /// `normalize = true` the reward is divided by `m` so it lies in
    /// `(0, 1]` regardless of pool size.
    Rank {
        /// Divide by `m` (keeps critic targets O(1) for any pool size).
        normalize: bool,
    },
    /// The Figure-2a ablation: `r_t = 1 - NRMSE` of the ensemble computed
    /// with the current weights over the trailing window `X^ω`. The paper
    /// shows DDPG fails to converge with this reward because the error
    /// magnitude tracks the time-varying structure of the series.
    OneMinusNrmse,
    /// The paper's future-work extension (§III-B: "adding a
    /// diversity-related measure in the formulation of the reward"):
    /// the normalized rank reward plus `lambda` times the normalized
    /// entropy of the weight vector, rewarding combinations that keep
    /// several diverse members in play instead of collapsing onto one.
    RankWithDiversity {
        /// Weight of the entropy bonus (0 recovers the plain rank reward).
        lambda: f64,
    },
}

/// Entropy of a weight vector normalized to `[0, 1]` (1 = uniform) over
/// the weights above 1e-12; the diversity bonus of
/// [`RewardKind::RankWithDiversity`]. Not [`crate::weight_entropy`], the
/// `eadrl.weights` telemetry value, which reports unnormalized nats over
/// every positive weight.
fn normalized_entropy(weights: &[f64]) -> f64 {
    if weights.len() < 2 {
        return 0.0;
    }
    let h: f64 = weights
        .iter()
        .filter(|&&w| w > 1e-12)
        .map(|&w| -w * w.ln())
        .sum();
    h / (weights.len() as f64).ln()
}

/// The ensemble-aggregation environment.
///
/// * **State** (`ω`-dimensional): the window of the ensemble's own recent
///   outputs `{x̂_{t-ω+1}, …, x̂_t}` (z-scored for the networks). The
///   window is seeded with actual values at episode start.
/// * **Action** (`m`-dimensional): the convex weight vector applied to the
///   base models' next-step predictions (Eq. 1).
/// * **Transition**: deterministic — append the new ensemble output, drop
///   the oldest.
/// * **Reward**: [`RewardKind`].
///
/// The environment replays a fixed validation segment: `predictions[t][i]`
/// is base model `i`'s one-step forecast of `actuals[t]`. Episodes start at
/// `t = ω` and run for at most `max_steps` steps or until the segment ends.
pub struct EnsembleEnv {
    predictions: Vec<Vec<f64>>,
    actuals: Vec<f64>,
    omega: usize,
    m: usize,
    reward: RewardKind,
    max_steps: usize,
    /// Unscaled window of ensemble outputs.
    window: SlideWindow,
    cursor: usize,
    steps_in_episode: usize,
}

impl EnsembleEnv {
    /// Builds the environment over a validation segment.
    ///
    /// # Panics
    /// Panics when the segment is shorter than `ω + 2` steps, when shapes
    /// are inconsistent, or when `omega == 0`.
    pub fn new(
        predictions: Vec<Vec<f64>>,
        actuals: Vec<f64>,
        omega: usize,
        reward: RewardKind,
        max_steps: usize,
    ) -> Self {
        assert!(omega > 0, "omega must be positive");
        assert_eq!(
            predictions.len(),
            actuals.len(),
            "predictions/actuals misaligned"
        );
        assert!(
            actuals.len() > omega + 1,
            "validation segment too short: {} steps for omega {omega}",
            actuals.len()
        );
        let m = predictions.first().map_or(0, Vec::len);
        assert!(m > 0, "need at least one base model");
        assert!(
            predictions.iter().all(|p| p.len() == m),
            "ragged prediction matrix"
        );
        EnsembleEnv {
            predictions,
            actuals,
            omega,
            m,
            reward,
            max_steps: max_steps.max(1),
            window: SlideWindow::new(omega),
            cursor: 0,
            steps_in_episode: 0,
        }
    }

    /// Number of base models `m`.
    pub fn n_models(&self) -> usize {
        self.m
    }

    fn scaled_window(&self) -> Vec<f64> {
        normalize_window(&self.window)
    }

    fn rank_reward(&self, ensemble_err: f64, t: usize, normalize: bool) -> f64 {
        // ρ = 1 + number of strictly better base models; reward = m+1-ρ.
        let better = self.predictions[t]
            .iter()
            .map(|&p| (p - self.actuals[t]).abs())
            .filter(|&e| e < ensemble_err)
            .count();
        let rho = 1 + better;
        let r = (self.m + 1 - rho) as f64;
        if normalize {
            r / self.m as f64
        } else {
            r
        }
    }

    fn nrmse_reward(&self, action: &[f64], t: usize) -> f64 {
        // Ensemble computed with the *current* weights over X^ω (the
        // trailing ω steps ending at t), per the paper's Figure-2a setup.
        let start = (t + 1).saturating_sub(self.omega);
        let mut ens = Vec::with_capacity(t + 1 - start);
        for step in start..=t {
            let e: f64 = self.predictions[step]
                .iter()
                .zip(action.iter())
                .map(|(p, w)| p * w)
                .sum();
            ens.push(e);
        }
        1.0 - nrmse(&self.actuals[start..=t], &ens)
    }
}

impl Environment for EnsembleEnv {
    fn state_dim(&self) -> usize {
        self.omega
    }

    fn action_dim(&self) -> usize {
        self.m
    }

    fn reset(&mut self) -> Vec<f64> {
        // Seed the window with actual values: the "perfect ensemble" past.
        self.window.assign(&self.actuals[..self.omega]);
        self.cursor = self.omega;
        self.steps_in_episode = 0;
        self.scaled_window()
    }

    fn step(&mut self, action: &[f64]) -> (Vec<f64>, f64, bool) {
        debug_assert_eq!(action.len(), self.m, "action dimension");
        let t = self.cursor;
        let ensemble: f64 = self.predictions[t]
            .iter()
            .zip(action.iter())
            .map(|(p, w)| p * w)
            .sum();
        let reward = match self.reward {
            RewardKind::Rank { normalize } => {
                let err = (ensemble - self.actuals[t]).abs();
                self.rank_reward(err, t, normalize)
            }
            RewardKind::OneMinusNrmse => self.nrmse_reward(action, t),
            RewardKind::RankWithDiversity { lambda } => {
                let err = (ensemble - self.actuals[t]).abs();
                self.rank_reward(err, t, true) + lambda * normalized_entropy(action)
            }
        };
        // Deterministic transition: slide the ensemble-output window.
        self.window.slide(ensemble);
        self.cursor += 1;
        self.steps_in_episode += 1;
        let done = self.cursor >= self.actuals.len() || self.steps_in_episode >= self.max_steps;
        (self.scaled_window(), reward, done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two models: one perfect, one bad, over a simple ramp.
    fn fixture() -> EnsembleEnv {
        let actuals: Vec<f64> = (0..20).map(|t| t as f64).collect();
        let predictions: Vec<Vec<f64>> = (0..20).map(|t| vec![t as f64, t as f64 + 10.0]).collect();
        EnsembleEnv::new(
            predictions,
            actuals,
            4,
            RewardKind::Rank { normalize: false },
            100,
        )
    }

    #[test]
    fn dimensions_are_reported() {
        let env = fixture();
        assert_eq!(env.state_dim(), 4);
        assert_eq!(env.action_dim(), 2);
        assert_eq!(env.n_models(), 2);
        assert_eq!(env.actuals.len(), 20);
    }

    #[test]
    fn reset_seeds_window_with_actuals() {
        let mut env = fixture();
        let s = env.reset();
        assert_eq!(s.len(), 4);
        // Scaled window of actuals [0,1,2,3] — strictly increasing.
        assert!(s.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn perfect_weighting_earns_top_rank_reward() {
        let mut env = fixture();
        env.reset();
        // All weight on the perfect model: ensemble error 0, rank 1 (the
        // perfect base model is not *strictly* better), reward = m+1-1 = 2.
        let (_, r, _) = env.step(&[1.0, 0.0]);
        assert_eq!(r, 2.0);
    }

    #[test]
    fn bad_weighting_earns_bottom_rank_reward() {
        let mut env = fixture();
        env.reset();
        // All weight on the bad model: both the perfect model is strictly
        // better; the bad model itself ties. rank = 2, reward = 1.
        let (_, r, _) = env.step(&[0.0, 1.0]);
        assert_eq!(r, 1.0);
    }

    #[test]
    fn normalized_rank_reward_is_in_unit_interval() {
        let actuals: Vec<f64> = (0..30).map(|t| t as f64).collect();
        let predictions: Vec<Vec<f64>> = (0..30)
            .map(|t| vec![t as f64, t as f64 + 1.0, t as f64 - 2.0])
            .collect();
        let mut env = EnsembleEnv::new(
            predictions,
            actuals,
            5,
            RewardKind::Rank { normalize: true },
            100,
        );
        env.reset();
        for _ in 0..10 {
            let (_, r, done) = env.step(&[0.3, 0.3, 0.4]);
            assert!(r > 0.0 && r <= 1.0, "r = {r}");
            if done {
                break;
            }
        }
    }

    #[test]
    fn transition_appends_ensemble_output() {
        let mut env = fixture();
        env.reset();
        env.step(&[0.0, 1.0]); // ensemble = actual + 10 at t = 4 → 14
                               // Unscaled window is now [1, 2, 3, 14].
        assert_eq!(env.window.as_slice(), &[1.0, 2.0, 3.0, 14.0]);
    }

    #[test]
    fn episode_ends_at_segment_end() {
        let mut env = fixture();
        env.reset();
        let mut steps = 0;
        loop {
            let (_, _, done) = env.step(&[0.5, 0.5]);
            steps += 1;
            if done {
                break;
            }
        }
        assert_eq!(steps, 16); // 20 - omega
    }

    #[test]
    fn max_steps_caps_episode() {
        let actuals: Vec<f64> = (0..50).map(|t| t as f64).collect();
        let predictions: Vec<Vec<f64>> = (0..50).map(|t| vec![t as f64]).collect();
        let mut env = EnsembleEnv::new(
            predictions,
            actuals,
            4,
            RewardKind::Rank { normalize: true },
            5,
        );
        env.reset();
        let mut steps = 0;
        loop {
            let (_, _, done) = env.step(&[1.0]);
            steps += 1;
            if done {
                break;
            }
        }
        assert_eq!(steps, 5);
    }

    #[test]
    fn nrmse_reward_prefers_good_weights() {
        let actuals: Vec<f64> = (0..20).map(|t| (t as f64 * 0.7).sin() * 5.0).collect();
        let predictions: Vec<Vec<f64>> = actuals.iter().map(|&a| vec![a, a + 8.0]).collect();
        let mut env = EnsembleEnv::new(
            predictions.clone(),
            actuals.clone(),
            4,
            RewardKind::OneMinusNrmse,
            100,
        );
        env.reset();
        let (_, r_good, _) = env.step(&[1.0, 0.0]);
        let mut env2 = EnsembleEnv::new(predictions, actuals, 4, RewardKind::OneMinusNrmse, 100);
        env2.reset();
        let (_, r_bad, _) = env2.step(&[0.0, 1.0]);
        assert!(r_good > r_bad, "good {r_good} vs bad {r_bad}");
        assert!((r_good - 1.0).abs() < 1e-9, "perfect weights → reward 1");
    }

    #[test]
    fn diversity_reward_prefers_spread_weights_at_equal_accuracy() {
        // Two identical perfect models: rank component is identical for
        // any weighting, so the entropy bonus decides.
        let actuals: Vec<f64> = (0..20).map(|t| t as f64).collect();
        let predictions: Vec<Vec<f64>> = actuals.iter().map(|&a| vec![a, a]).collect();
        let mk = || {
            let mut env = EnsembleEnv::new(
                predictions.clone(),
                actuals.clone(),
                4,
                RewardKind::RankWithDiversity { lambda: 0.5 },
                100,
            );
            env.reset();
            env
        };
        let (_, r_uniform, _) = mk().step(&[0.5, 0.5]);
        let (_, r_onehot, _) = mk().step(&[1.0, 0.0]);
        assert!(r_uniform > r_onehot, "{r_uniform} vs {r_onehot}");
        // With lambda = 0 both collapse to the plain normalized rank.
        let mut env0 = EnsembleEnv::new(
            predictions.clone(),
            actuals.clone(),
            4,
            RewardKind::RankWithDiversity { lambda: 0.0 },
            100,
        );
        env0.reset();
        let (_, r0, _) = env0.step(&[1.0, 0.0]);
        assert_eq!(r0, r_onehot);
    }

    #[test]
    fn normalized_entropy_extremes() {
        assert!((normalized_entropy(&[0.5, 0.5]) - 1.0).abs() < 1e-12);
        assert_eq!(normalized_entropy(&[1.0, 0.0]), 0.0);
        assert_eq!(normalized_entropy(&[1.0]), 0.0);
        let quarter = normalized_entropy(&[0.25; 4]);
        assert!((quarter - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn short_segment_panics() {
        let _ = EnsembleEnv::new(
            vec![vec![1.0]; 5],
            vec![1.0; 5],
            5,
            RewardKind::OneMinusNrmse,
            10,
        );
    }
}
