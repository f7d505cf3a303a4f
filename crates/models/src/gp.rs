//! Gaussian-process regression with an RBF kernel.

use crate::forecaster::ModelError;
use crate::tabular::{TabularModel, Windowed};
use eadrl_linalg::vector::sq_dist;
use eadrl_linalg::{Cholesky, Matrix};

/// Exact GP regression with a squared-exponential kernel
/// `k(a,b) = σ_f² exp(-||a-b||² / (2ℓ²))` and observation noise `σ_n²`.
///
/// Training cost is cubic in the number of points, so the fit subsamples
/// (evenly, keeping temporal coverage) to at most `max_points` inducing
/// points — the classic subset-of-data approximation.
#[derive(Debug, Clone)]
pub struct GpRegressor {
    length_scale: f64,
    signal_var: f64,
    noise_var: f64,
    max_points: usize,
    train_x: Vec<Vec<f64>>,
    /// `K⁻¹ y` over the retained points.
    alpha: Vec<f64>,
    y_mean: f64,
}

impl GpRegressor {
    /// Creates an unfitted GP.
    pub fn new(length_scale: f64, noise_var: f64, max_points: usize) -> Self {
        GpRegressor {
            length_scale: length_scale.max(1e-6),
            signal_var: 1.0,
            noise_var: noise_var.max(1e-9),
            max_points: max_points.max(8),
            train_x: Vec::new(),
            alpha: Vec::new(),
            y_mean: 0.0,
        }
    }

    fn kernel(&self, a: &[f64], b: &[f64]) -> f64 {
        self.signal_var * (-sq_dist(a, b) / (2.0 * self.length_scale * self.length_scale)).exp()
    }
}

impl TabularModel for GpRegressor {
    fn fit(&mut self, inputs: &[Vec<f64>], targets: &[f64]) -> Result<(), ModelError> {
        if inputs.is_empty() || inputs.len() != targets.len() {
            return Err(ModelError::SeriesTooShort {
                needed: 1,
                got: inputs.len(),
            });
        }
        // Even subsample to max_points for tractability.
        let n = inputs.len();
        let stride = n.div_ceil(self.max_points);
        let keep: Vec<usize> = (0..n).step_by(stride.max(1)).collect();
        self.train_x = keep.iter().map(|&i| inputs[i].clone()).collect();
        let y: Vec<f64> = keep.iter().map(|&i| targets[i]).collect();
        self.y_mean = y.iter().sum::<f64>() / y.len() as f64;
        let centered: Vec<f64> = y.iter().map(|v| v - self.y_mean).collect();

        let m = self.train_x.len();
        let mut k = Matrix::zeros(m, m);
        for i in 0..m {
            for j in i..m {
                let v = self.kernel(&self.train_x[i], &self.train_x[j]);
                k[(i, j)] = v;
                k[(j, i)] = v;
            }
            k[(i, i)] += self.noise_var;
        }
        // Jitter escalation when the kernel matrix is near-singular.
        let mut jitter = 0.0;
        let ch = loop {
            let mut kj = k.clone();
            if jitter > 0.0 {
                kj.add_diagonal(jitter);
            }
            match Cholesky::new(&kj) {
                Ok(ch) => break ch,
                Err(_) if jitter < 1.0 => {
                    // eadrl-lint: allow(no-float-eq): sentinel test — jitter is exactly 0.0 only before the first escalation
                    jitter = if jitter == 0.0 { 1e-8 } else { jitter * 10.0 };
                }
                Err(e) => {
                    return Err(ModelError::Numerical {
                        context: format!("GP kernel not PD: {e}"),
                    })
                }
            }
        };
        self.alpha = ch.solve(&centered).map_err(|e| ModelError::Numerical {
            context: e.to_string(),
        })?;
        Ok(())
    }

    fn predict(&self, input: &[f64]) -> f64 {
        if self.train_x.is_empty() {
            return 0.0;
        }
        let k_star: f64 = self
            .train_x
            .iter()
            .zip(self.alpha.iter())
            .map(|(x, &a)| self.kernel(input, x) * a)
            .sum();
        self.y_mean + k_star
    }
}

/// A GP forecaster over embedded windows (paper family **GP**).
pub fn gaussian_process(
    k: usize,
    length_scale: f64,
    noise_var: f64,
    max_points: usize,
) -> Windowed<GpRegressor> {
    Windowed::new(
        format!("GP(ℓ={length_scale})"),
        k,
        GpRegressor::new(length_scale, noise_var, max_points),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forecaster::Forecaster;

    #[test]
    fn interpolates_smooth_function() {
        let inputs: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64 / 10.0]).collect();
        let targets: Vec<f64> = inputs.iter().map(|x| x[0].sin()).collect();
        let mut gp = GpRegressor::new(1.0, 1e-4, 100);
        gp.fit(&inputs, &targets).unwrap();
        for (x, t) in inputs.iter().zip(targets.iter()).step_by(7) {
            assert!((gp.predict(x) - t).abs() < 0.05, "at {x:?}");
        }
        // Interpolation between points stays close too.
        assert!((gp.predict(&[1.05]) - 1.05_f64.sin()).abs() < 0.05);
    }

    #[test]
    fn reverts_to_mean_far_from_data() {
        let inputs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 * 0.1]).collect();
        let targets: Vec<f64> = inputs.iter().map(|x| 5.0 + x[0]).collect();
        let mean = targets.iter().sum::<f64>() / targets.len() as f64;
        let mut gp = GpRegressor::new(0.5, 1e-3, 50);
        gp.fit(&inputs, &targets).unwrap();
        // 100 length-scales away: the kernel vanishes, prediction = mean.
        assert!((gp.predict(&[100.0]) - mean).abs() < 1e-6);
    }

    #[test]
    fn subsampling_caps_points() {
        let inputs: Vec<Vec<f64>> = (0..500).map(|i| vec![i as f64]).collect();
        let targets: Vec<f64> = (0..500).map(|i| i as f64).collect();
        let mut gp = GpRegressor::new(10.0, 1e-2, 60);
        gp.fit(&inputs, &targets).unwrap();
        assert!(gp.train_x.len() <= 64, "kept {}", gp.train_x.len());
    }

    #[test]
    fn duplicate_points_survive_via_jitter() {
        let inputs: Vec<Vec<f64>> = vec![vec![1.0]; 20];
        let targets = vec![3.0; 20];
        let mut gp = GpRegressor::new(1.0, 1e-12, 50);
        gp.fit(&inputs, &targets).unwrap();
        assert!((gp.predict(&[1.0]) - 3.0).abs() < 1e-3);
    }

    #[test]
    fn gp_forecaster_tracks_sine() {
        let series: Vec<f64> = (0..160)
            .map(|t| (2.0 * std::f64::consts::PI * t as f64 / 20.0).sin() * 2.0)
            .collect();
        let mut m = gaussian_process(5, 1.0, 1e-3, 120);
        m.fit(&series).unwrap();
        let truth = (2.0 * std::f64::consts::PI * 160.0 / 20.0).sin() * 2.0;
        assert!((m.predict_next(&series) - truth).abs() < 0.5);
    }

    #[test]
    fn unfitted_predicts_zero() {
        let gp = GpRegressor::new(1.0, 1e-3, 10);
        assert_eq!(gp.predict(&[1.0]), 0.0);
    }

    #[test]
    fn higher_noise_shrinks_fit_toward_mean() {
        // Alternating targets around mean 0: with huge observation noise
        // the GP should barely leave the prior mean.
        let inputs: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 * 0.2]).collect();
        let targets: Vec<f64> = (0..30)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let fit_amp = |noise: f64| {
            let mut gp = GpRegressor::new(0.3, noise, 50);
            gp.fit(&inputs, &targets).unwrap();
            inputs
                .iter()
                .map(|x| gp.predict(x).abs())
                .fold(0.0_f64, f64::max)
        };
        let crisp = fit_amp(1e-4);
        let mushy = fit_amp(100.0);
        assert!(crisp > 0.8, "low noise should interpolate: {crisp}");
        assert!(mushy < 0.2, "high noise should flatten: {mushy}");
    }
}
