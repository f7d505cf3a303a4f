//! Gradient boosting machines with regression-tree base learners
//! (Friedman's least-squares boosting).

use crate::forecaster::ModelError;
use crate::tabular::{TabularModel, Windowed};
use crate::tree::TreeRegressor;

/// Least-squares gradient boosting: starts from the target mean and
/// repeatedly fits a shallow CART tree to the current residuals, adding it
/// with shrinkage `learning_rate`.
#[derive(Debug, Clone)]
pub struct GbmRegressor {
    n_rounds: usize,
    max_depth: usize,
    learning_rate: f64,
    base: f64,
    trees: Vec<TreeRegressor>,
}

impl GbmRegressor {
    /// Creates an unfitted booster.
    pub fn new(n_rounds: usize, max_depth: usize, learning_rate: f64) -> Self {
        GbmRegressor {
            n_rounds: n_rounds.max(1),
            max_depth: max_depth.max(1),
            learning_rate: learning_rate.clamp(1e-4, 1.0),
            base: 0.0,
            trees: Vec::new(),
        }
    }
}

impl TabularModel for GbmRegressor {
    fn fit(&mut self, inputs: &[Vec<f64>], targets: &[f64]) -> Result<(), ModelError> {
        if inputs.is_empty() || inputs.len() != targets.len() {
            return Err(ModelError::SeriesTooShort {
                needed: 1,
                got: inputs.len(),
            });
        }
        self.base = targets.iter().sum::<f64>() / targets.len() as f64;
        self.trees.clear();
        let mut residuals: Vec<f64> = targets.iter().map(|t| t - self.base).collect();
        for _ in 0..self.n_rounds {
            let mut tree = TreeRegressor::new(self.max_depth, 3);
            tree.fit(inputs, &residuals)?;
            // Update residuals; stop early once they are essentially zero.
            let mut max_abs: f64 = 0.0;
            for (r, x) in residuals.iter_mut().zip(inputs.iter()) {
                *r -= self.learning_rate * tree.predict(x);
                max_abs = max_abs.max(r.abs());
            }
            self.trees.push(tree);
            if max_abs < 1e-10 {
                break;
            }
        }
        Ok(())
    }

    fn predict(&self, input: &[f64]) -> f64 {
        self.base + self.learning_rate * self.trees.iter().map(|t| t.predict(input)).sum::<f64>()
    }
}

/// A GBM forecaster over embedded windows (paper family **GBM**).
pub fn gradient_boosting(
    k: usize,
    n_rounds: usize,
    max_depth: usize,
    learning_rate: f64,
) -> Windowed<GbmRegressor> {
    Windowed::new(
        format!("GBM(n={n_rounds},d={max_depth},lr={learning_rate})"),
        k,
        GbmRegressor::new(n_rounds, max_depth, learning_rate),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forecaster::Forecaster;

    #[test]
    fn boosting_reduces_training_error_over_rounds() {
        let inputs: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64 / 10.0]).collect();
        let targets: Vec<f64> = inputs.iter().map(|x| x[0].sin() * 3.0).collect();
        let err = |rounds: usize| {
            let mut g = GbmRegressor::new(rounds, 2, 0.3);
            g.fit(&inputs, &targets).unwrap();
            inputs
                .iter()
                .zip(targets.iter())
                .map(|(x, t)| (g.predict(x) - t).powi(2))
                .sum::<f64>()
        };
        let e1 = err(1);
        let e20 = err(20);
        let e100 = err(100);
        assert!(e20 < e1);
        assert!(e100 <= e20);
        assert!(e100 < 0.1 * e1, "e1={e1}, e100={e100}");
    }

    #[test]
    fn zero_rounds_clamps_to_one() {
        let g = GbmRegressor::new(0, 2, 0.1);
        assert_eq!(g.n_rounds, 1);
    }

    #[test]
    fn constant_targets_converge_immediately() {
        let inputs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let targets = vec![7.5; 20];
        let mut g = GbmRegressor::new(50, 3, 0.5);
        g.fit(&inputs, &targets).unwrap();
        // Early stopping on zero residuals.
        assert!(g.trees.len() <= 2);
        assert!((g.predict(&[5.0]) - 7.5).abs() < 1e-9);
    }

    #[test]
    fn gbm_forecaster_fits_trend_cycle() {
        let series: Vec<f64> = (0..250)
            .map(|t| 0.02 * t as f64 + (2.0 * std::f64::consts::PI * t as f64 / 24.0).sin() * 4.0)
            .collect();
        let mut m = gradient_boosting(5, 80, 3, 0.1);
        m.fit(&series).unwrap();
        let pred = m.predict_next(&series);
        let truth = 0.02 * 250.0 + (2.0 * std::f64::consts::PI * 250.0 / 24.0).sin() * 4.0;
        assert!((pred - truth).abs() < 1.5, "pred {pred} truth {truth}");
    }

    #[test]
    fn unfitted_predicts_zero_base() {
        let g = GbmRegressor::new(10, 2, 0.1);
        assert_eq!(g.predict(&[1.0]), 0.0);
    }
}
