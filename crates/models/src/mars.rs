//! Multivariate adaptive regression splines (simplified forward pass).

use crate::forecaster::ModelError;
use crate::tabular::{TabularModel, Windowed};
use eadrl_linalg::{ridge, Matrix};

/// A hinge basis function `max(0, ±(x_j - t))`.
#[derive(Debug, Clone, Copy)]
struct Hinge {
    feature: usize,
    knot: f64,
    /// `+1` for `max(0, x - t)`, `-1` for `max(0, t - x)`.
    sign: f64,
}

impl Hinge {
    fn eval(&self, x: &[f64]) -> f64 {
        (self.sign * (x[self.feature] - self.knot)).max(0.0)
    }
}

/// Forward-stagewise MARS: greedily adds reflected hinge pairs that most
/// reduce residual SSE, then refits all coefficients jointly by ridge
/// least squares. (The backward pruning pass of full MARS is omitted; the
/// ridge refit plays the same overfitting-control role at this scale.)
#[derive(Debug, Clone)]
pub struct MarsRegressor {
    max_terms: usize,
    knots_per_feature: usize,
    basis: Vec<Hinge>,
    /// `[intercept, coef per basis]`.
    coef: Vec<f64>,
}

impl MarsRegressor {
    /// Creates an unfitted MARS model adding at most `max_terms` hinge
    /// functions.
    pub fn new(max_terms: usize) -> Self {
        MarsRegressor {
            max_terms: max_terms.max(2),
            knots_per_feature: 7,
            basis: Vec::new(),
            coef: Vec::new(),
        }
    }

    fn design(&self, inputs: &[Vec<f64>]) -> Result<Matrix, ModelError> {
        let rows: Vec<Vec<f64>> = inputs
            .iter()
            .map(|x| {
                let mut r = Vec::with_capacity(self.basis.len() + 1);
                r.push(1.0);
                r.extend(self.basis.iter().map(|h| h.eval(x)));
                r
            })
            .collect();
        Matrix::from_rows(&rows).map_err(|e| ModelError::Numerical {
            context: format!("MARS design matrix: {e}"),
        })
    }
}

impl TabularModel for MarsRegressor {
    fn fit(&mut self, inputs: &[Vec<f64>], targets: &[f64]) -> Result<(), ModelError> {
        if inputs.len() < 4 || inputs.len() != targets.len() {
            return Err(ModelError::SeriesTooShort {
                needed: 4,
                got: inputs.len(),
            });
        }
        let dim = inputs[0].len();
        self.basis.clear();

        // Candidate knots: per-feature quantiles of the training inputs.
        let mut candidates: Vec<Hinge> = Vec::new();
        for feature in 0..dim {
            let mut vals: Vec<f64> = inputs.iter().map(|x| x[feature]).collect();
            vals.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            for q in 1..=self.knots_per_feature {
                let idx = q * (vals.len() - 1) / (self.knots_per_feature + 1);
                let knot = vals[idx];
                candidates.push(Hinge {
                    feature,
                    knot,
                    sign: 1.0,
                });
                candidates.push(Hinge {
                    feature,
                    knot,
                    sign: -1.0,
                });
            }
        }

        // Greedy forward selection on residual SSE.
        let mean = targets.iter().sum::<f64>() / targets.len() as f64;
        let mut residuals: Vec<f64> = targets.iter().map(|t| t - mean).collect();
        while self.basis.len() < self.max_terms {
            let mut best: Option<(usize, f64, f64)> = None; // (cand idx, beta, sse)
            for (ci, h) in candidates.iter().enumerate() {
                // Univariate LS fit of residual on this hinge.
                let mut num = 0.0;
                let mut den = 0.0;
                for (x, &r) in inputs.iter().zip(residuals.iter()) {
                    let v = h.eval(x);
                    num += v * r;
                    den += v * v;
                }
                if den < 1e-12 {
                    continue;
                }
                let beta = num / den;
                let sse: f64 = inputs
                    .iter()
                    .zip(residuals.iter())
                    .map(|(x, &r)| {
                        let e = r - beta * h.eval(x);
                        e * e
                    })
                    .sum();
                if best.is_none_or(|(_, _, b)| sse < b) {
                    best = Some((ci, beta, sse));
                }
            }
            let current_sse: f64 = residuals.iter().map(|r| r * r).sum();
            match best {
                Some((ci, beta, sse)) if sse < current_sse * (1.0 - 1e-6) => {
                    let h = candidates[ci];
                    for (x, r) in inputs.iter().zip(residuals.iter_mut()) {
                        *r -= beta * h.eval(x);
                    }
                    self.basis.push(h);
                }
                _ => break,
            }
        }

        // Joint ridge refit of all coefficients.
        let x = self.design(inputs)?;
        self.coef = ridge(&x, targets, 1e-6).map_err(|e| ModelError::Numerical {
            context: e.to_string(),
        })?;
        Ok(())
    }

    fn predict(&self, input: &[f64]) -> f64 {
        if self.coef.is_empty() {
            return 0.0;
        }
        self.coef[0]
            + self
                .basis
                .iter()
                .zip(self.coef[1..].iter())
                .map(|(h, c)| c * h.eval(input))
                .sum::<f64>()
    }
}

/// A MARS forecaster over embedded windows (paper family **MARS**).
pub fn mars(k: usize, max_terms: usize) -> Windowed<MarsRegressor> {
    Windowed::new(
        format!("MARS(t={max_terms})"),
        k,
        MarsRegressor::new(max_terms),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forecaster::Forecaster;

    #[test]
    fn fits_piecewise_linear_function() {
        // y = max(0, x - 0.5): literally one hinge.
        let inputs: Vec<Vec<f64>> = (0..80).map(|i| vec![i as f64 / 40.0 - 1.0]).collect();
        let targets: Vec<f64> = inputs.iter().map(|x| (x[0] - 0.5).max(0.0)).collect();
        let mut m = MarsRegressor::new(6);
        m.fit(&inputs, &targets).unwrap();
        for (x, t) in inputs.iter().zip(targets.iter()).step_by(13) {
            assert!(
                (m.predict(x) - t).abs() < 0.06,
                "at {x:?}: {}",
                m.predict(x)
            );
        }
    }

    #[test]
    fn term_budget_is_respected() {
        let inputs: Vec<Vec<f64>> = (0..60)
            .map(|i| vec![(i as f64 / 10.0).sin(), (i as f64 / 7.0).cos()])
            .collect();
        let targets: Vec<f64> = inputs.iter().map(|x| x[0] * x[1]).collect();
        let mut m = MarsRegressor::new(4);
        m.fit(&inputs, &targets).unwrap();
        assert!(m.basis.len() <= 4);
    }

    #[test]
    fn constant_targets_stop_early() {
        let inputs: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64]).collect();
        let targets = vec![2.0; 30];
        let mut m = MarsRegressor::new(10);
        m.fit(&inputs, &targets).unwrap();
        assert_eq!(m.basis.len(), 0);
        assert!((m.predict(&[100.0]) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn mars_forecaster_on_seasonal_series() {
        let series: Vec<f64> = (0..200)
            .map(|t| (2.0 * std::f64::consts::PI * t as f64 / 16.0).sin() * 4.0 + 30.0)
            .collect();
        let mut m = mars(5, 12);
        m.fit(&series).unwrap();
        let truth = (2.0 * std::f64::consts::PI * 200.0 / 16.0).sin() * 4.0 + 30.0;
        assert!((m.predict_next(&series) - truth).abs() < 1.5);
    }

    #[test]
    fn too_few_samples_is_error() {
        let mut m = MarsRegressor::new(3);
        assert!(m.fit(&[vec![1.0]], &[1.0]).is_err());
    }
}
