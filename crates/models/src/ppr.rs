//! Projection-pursuit regression (Friedman & Stuetzle).

use crate::forecaster::ModelError;
use crate::tabular::{TabularModel, Windowed};
use eadrl_linalg::vector::{dot, norm2};
use eadrl_rng::DetRng;

/// One additive ridge term: a unit projection direction plus a cubic
/// polynomial ridge function fitted to the projected residuals.
#[derive(Debug, Clone)]
struct RidgeTerm {
    direction: Vec<f64>,
    /// Polynomial coefficients `c0 + c1 z + c2 z² + c3 z³`.
    poly: [f64; 4],
}

impl RidgeTerm {
    fn eval(&self, x: &[f64]) -> f64 {
        let z = dot(&self.direction, x);
        self.poly[0] + z * (self.poly[1] + z * (self.poly[2] + z * self.poly[3]))
    }
}

/// Projection-pursuit regression: a stagewise sum of ridge functions
/// `Σ_j g_j(w_j · x)`.
///
/// Each stage searches candidate unit directions (coordinate axes plus
/// random directions), fits a cubic ridge function along each by least
/// squares, keeps the direction with the lowest residual SSE, and deflates
/// the residuals. This is the classic PPR recipe with a polynomial
/// smoother standing in for the supersmoother.
#[derive(Debug, Clone)]
pub struct PprRegressor {
    n_terms: usize,
    n_candidates: usize,
    seed: u64,
    mean: f64,
    terms: Vec<RidgeTerm>,
}

impl PprRegressor {
    /// Creates an unfitted PPR model with `n_terms` ridge terms.
    pub fn new(n_terms: usize, seed: u64) -> Self {
        PprRegressor {
            n_terms: n_terms.max(1),
            n_candidates: 24,
            seed,
            mean: 0.0,
            terms: Vec::new(),
        }
    }

    /// Least-squares cubic fit of `res ~ poly(z)`; returns `(poly, sse)`.
    #[allow(clippy::needless_range_loop)] // parallel 4x4 Gaussian elimination
    fn fit_ridge(z: &[f64], res: &[f64]) -> ([f64; 4], f64) {
        // Normal equations for the 4-coefficient polynomial.
        let n = z.len();
        let mut ata = [[0.0_f64; 4]; 4];
        let mut atb = [0.0_f64; 4];
        for i in 0..n {
            let powers = [1.0, z[i], z[i] * z[i], z[i] * z[i] * z[i]];
            for a in 0..4 {
                atb[a] += powers[a] * res[i];
                for b in 0..4 {
                    ata[a][b] += powers[a] * powers[b];
                }
            }
        }
        // Tiny ridge for stability, then Gaussian elimination on the 4x4.
        for (a, row) in ata.iter_mut().enumerate() {
            row[a] += 1e-9;
        }
        let mut m = ata;
        let mut b = atb;
        for col in 0..4 {
            // Partial pivot.
            let mut piv = col;
            for r in col + 1..4 {
                if m[r][col].abs() > m[piv][col].abs() {
                    piv = r;
                }
            }
            m.swap(col, piv);
            b.swap(col, piv);
            if m[col][col].abs() < 1e-30 {
                return ([0.0; 4], f64::INFINITY);
            }
            for r in col + 1..4 {
                let f = m[r][col] / m[col][col];
                for c in col..4 {
                    m[r][c] -= f * m[col][c];
                }
                b[r] -= f * b[col];
            }
        }
        let mut poly = [0.0_f64; 4];
        for col in (0..4).rev() {
            let mut s = b[col];
            for c in col + 1..4 {
                s -= m[col][c] * poly[c];
            }
            poly[col] = s / m[col][col];
        }
        let sse: f64 = (0..n)
            .map(|i| {
                let p = poly[0] + z[i] * (poly[1] + z[i] * (poly[2] + z[i] * poly[3]));
                (res[i] - p) * (res[i] - p)
            })
            .sum();
        (poly, sse)
    }
}

impl TabularModel for PprRegressor {
    fn fit(&mut self, inputs: &[Vec<f64>], targets: &[f64]) -> Result<(), ModelError> {
        if inputs.is_empty() || inputs.len() != targets.len() {
            return Err(ModelError::SeriesTooShort {
                needed: 1,
                got: inputs.len(),
            });
        }
        let dim = inputs[0].len();
        let mut rng = DetRng::seed_from_u64(self.seed);
        self.mean = targets.iter().sum::<f64>() / targets.len() as f64;
        let mut residuals: Vec<f64> = targets.iter().map(|t| t - self.mean).collect();
        self.terms.clear();

        for _ in 0..self.n_terms {
            // Candidate directions: coordinate axes + random unit vectors.
            let mut candidates: Vec<Vec<f64>> = (0..dim)
                .map(|j| {
                    let mut e = vec![0.0; dim];
                    e[j] = 1.0;
                    e
                })
                .collect();
            for _ in 0..self.n_candidates {
                let mut d: Vec<f64> = (0..dim).map(|_| rng.random_range(-1.0..1.0)).collect();
                let n = norm2(&d);
                if n > 1e-9 {
                    for v in d.iter_mut() {
                        *v /= n;
                    }
                    candidates.push(d);
                }
            }
            let mut best: Option<(RidgeTerm, f64)> = None;
            for dir in candidates {
                let z: Vec<f64> = inputs.iter().map(|x| dot(&dir, x)).collect();
                let (poly, sse) = Self::fit_ridge(&z, &residuals);
                if sse.is_finite() && best.as_ref().is_none_or(|(_, b)| sse < *b) {
                    best = Some((
                        RidgeTerm {
                            direction: dir,
                            poly,
                        },
                        sse,
                    ));
                }
            }
            let Some((term, _)) = best else { break };
            for (r, x) in residuals.iter_mut().zip(inputs.iter()) {
                *r -= term.eval(x);
            }
            self.terms.push(term);
        }
        Ok(())
    }

    fn predict(&self, input: &[f64]) -> f64 {
        self.mean + self.terms.iter().map(|t| t.eval(input)).sum::<f64>()
    }
}

/// A PPR forecaster over embedded windows (paper family **PPR**).
pub fn projection_pursuit(k: usize, n_terms: usize, seed: u64) -> Windowed<PprRegressor> {
    Windowed::new(
        format!("PPR(t={n_terms})"),
        k,
        PprRegressor::new(n_terms, seed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forecaster::Forecaster;

    #[test]
    fn single_term_fits_cubic_along_axis() {
        let inputs: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64 / 30.0 - 1.0, 0.0]).collect();
        let targets: Vec<f64> = inputs.iter().map(|x| x[0].powi(3) - x[0]).collect();
        let mut ppr = PprRegressor::new(1, 1);
        ppr.fit(&inputs, &targets).unwrap();
        for (x, t) in inputs.iter().zip(targets.iter()).step_by(11) {
            assert!((ppr.predict(x) - t).abs() < 0.05, "at {x:?}");
        }
    }

    #[test]
    fn more_terms_reduce_error_on_additive_function() {
        let inputs: Vec<Vec<f64>> = (0..100)
            .map(|i| {
                let t = i as f64 / 50.0 - 1.0;
                vec![t, (i % 10) as f64 / 5.0 - 1.0]
            })
            .collect();
        let targets: Vec<f64> = inputs
            .iter()
            .map(|x| x[0].powi(2) + 0.5 * x[1].powi(3))
            .collect();
        let sse = |terms: usize| {
            let mut ppr = PprRegressor::new(terms, 5);
            ppr.fit(&inputs, &targets).unwrap();
            inputs
                .iter()
                .zip(targets.iter())
                .map(|(x, t)| (ppr.predict(x) - t).powi(2))
                .sum::<f64>()
        };
        assert!(sse(3) < sse(1));
    }

    #[test]
    fn deterministic_given_seed() {
        let inputs: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![i as f64 * 0.1, -(i as f64) * 0.05])
            .collect();
        let targets: Vec<f64> = inputs.iter().map(|x| x[0] * x[1]).collect();
        let mut a = PprRegressor::new(2, 9);
        let mut b = PprRegressor::new(2, 9);
        a.fit(&inputs, &targets).unwrap();
        b.fit(&inputs, &targets).unwrap();
        assert_eq!(a.predict(&[0.5, 0.5]), b.predict(&[0.5, 0.5]));
    }

    #[test]
    fn ppr_forecaster_runs_on_series() {
        let series: Vec<f64> = (0..150)
            .map(|t| (t as f64 / 8.0).sin() * 3.0 + 20.0)
            .collect();
        let mut m = projection_pursuit(5, 2, 3);
        m.fit(&series).unwrap();
        let p = m.predict_next(&series);
        assert!(p.is_finite());
        assert!((p - 20.0).abs() < 6.0);
    }

    #[test]
    fn unfitted_predicts_zero_mean() {
        let ppr = PprRegressor::new(2, 0);
        assert_eq!(ppr.predict(&[1.0, 2.0]), 0.0);
    }
}
