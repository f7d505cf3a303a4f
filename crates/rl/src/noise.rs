//! Exploration noise for continuous actions.

use eadrl_rng::DetRng;

/// Ornstein–Uhlenbeck process — the temporally correlated noise DDPG uses
/// for exploration in physical-control tasks:
/// `x ← x + θ (μ - x) + σ N(0, 1)`.
#[derive(Debug, Clone)]
pub struct OrnsteinUhlenbeck {
    mu: f64,
    theta: f64,
    sigma: f64,
    state: Vec<f64>,
}

impl OrnsteinUhlenbeck {
    /// Standard DDPG parameters are `theta = 0.15`, `sigma = 0.2`.
    pub fn new(dim: usize, mu: f64, theta: f64, sigma: f64) -> Self {
        OrnsteinUhlenbeck {
            mu,
            theta,
            sigma,
            state: vec![mu; dim],
        }
    }

    /// Next noise vector.
    pub fn sample(&mut self, rng: &mut DetRng) -> Vec<f64> {
        for x in self.state.iter_mut() {
            *x += self.theta * (self.mu - *x) + self.sigma * gaussian(rng);
        }
        self.state.clone()
    }

    /// Restores the mean state (called at episode boundaries).
    pub fn reset(&mut self) {
        for x in self.state.iter_mut() {
            *x = self.mu;
        }
    }
}

fn gaussian(rng: &mut DetRng) -> f64 {
    let u1: f64 = rng.random::<f64>().max(1e-12);
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ou_reverts_to_mean() {
        let mut ou = OrnsteinUhlenbeck::new(1, 0.0, 0.15, 0.0); // no noise
        ou.state[0] = 10.0;
        let mut rng = DetRng::seed_from_u64(0);
        for _ in 0..100 {
            ou.sample(&mut rng);
        }
        assert!(ou.state[0].abs() < 0.01, "state = {}", ou.state[0]);
    }

    #[test]
    fn ou_is_temporally_correlated() {
        let mut ou = OrnsteinUhlenbeck::new(1, 0.0, 0.15, 0.2);
        let mut rng = DetRng::seed_from_u64(1);
        let samples: Vec<f64> = (0..500).map(|_| ou.sample(&mut rng)[0]).collect();
        // Lag-1 autocorrelation of OU with theta = 0.15 is ≈ 0.85.
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var: f64 = samples.iter().map(|x| (x - mean) * (x - mean)).sum();
        let cov: f64 = samples
            .windows(2)
            .map(|w| (w[0] - mean) * (w[1] - mean))
            .sum();
        assert!(cov / var > 0.6, "autocorr = {}", cov / var);
    }

    #[test]
    fn ou_reset_restores_mean() {
        let mut ou = OrnsteinUhlenbeck::new(3, 0.5, 0.15, 0.2);
        let mut rng = DetRng::seed_from_u64(2);
        ou.sample(&mut rng);
        ou.reset();
        assert_eq!(ou.state, vec![0.5; 3]);
    }

    #[test]
    fn noise_vectors_have_requested_dimension() {
        let mut rng = DetRng::seed_from_u64(8);
        let mut ou = OrnsteinUhlenbeck::new(7, 0.0, 0.15, 0.2);
        assert_eq!(ou.sample(&mut rng).len(), 7);
    }
}
