//! ARIMA(p, d, q) fitted with the Hannan–Rissanen two-stage procedure.

use crate::forecaster::{fallback_forecast, Forecaster, ModelError, SeriesState};
use eadrl_linalg::{ridge, Matrix};
use eadrl_timeseries::transform::difference;

/// Differenced values a serving state holds before it moves the newest
/// `max(p, q)` of them to the front of its buffers.
const LAG_BLOCK: usize = 1024;

/// An ARIMA(p, d, q) forecaster.
///
/// Fitting follows Hannan–Rissanen:
///
/// 1. difference the series `d` times;
/// 2. fit a long autoregression by least squares to estimate the
///    innovation sequence;
/// 3. regress each value on its `p` lags and `q` lagged innovations.
///
/// One-step forecasting filters the fitted model over the observed history
/// to reconstruct the innovations, predicts the next differenced value and
/// integrates back `d` times. The filter is a forward recursion, so
/// [`Forecaster::series_state`] offers it as a [`SeriesState`] that folds
/// in one value per served step; `predict_next` folds a fresh one.
#[derive(Debug, Clone)]
pub struct Arima {
    name: String,
    p: usize,
    d: usize,
    q: usize,
    /// `[intercept, phi_1..phi_p, theta_1..theta_q]`.
    coef: Vec<f64>,
    /// Winsorization bound for filtered innovations (set at fit time).
    innovation_cap: f64,
    fitted: bool,
}

impl Arima {
    /// Creates an unfitted ARIMA(p, d, q).
    ///
    /// # Panics
    /// Panics when `p + q == 0` (a pure-integration model forecasts
    /// nothing) or `d > 2`.
    pub fn new(p: usize, d: usize, q: usize) -> Self {
        assert!(p + q > 0, "ARIMA requires p + q > 0");
        assert!(d <= 2, "ARIMA supports d <= 2");
        Arima {
            name: format!("ARIMA({p},{d},{q})"),
            p,
            d,
            q,
            coef: Vec::new(),
            innovation_cap: f64::INFINITY,
            fitted: false,
        }
    }

    /// `(p, d, q)` orders.
    pub fn orders(&self) -> (usize, usize, usize) {
        (self.p, self.d, self.q)
    }

    /// Fitted `[intercept, phi_1..phi_p, theta_1..theta_q]` (empty before
    /// fitting).
    pub fn coefficients(&self) -> &[f64] {
        &self.coef
    }

    /// Bound the innovation filter clamps each innovation to (set at fit
    /// time).
    pub fn innovation_cap(&self) -> f64 {
        self.innovation_cap
    }

    fn diff_all(&self, series: &[f64]) -> Vec<f64> {
        let mut w = series.to_vec();
        for _ in 0..self.d {
            w = difference(&w, 1);
        }
        w
    }

    /// Long-AR residual estimation (stage 1 of Hannan–Rissanen).
    fn long_ar_residuals(w: &[f64], order: usize) -> Option<Vec<f64>> {
        if w.len() <= order + 2 {
            return None;
        }
        let rows: Vec<Vec<f64>> = (order..w.len())
            .map(|t| {
                let mut r = Vec::with_capacity(order + 1);
                r.push(1.0);
                for lag in 1..=order {
                    r.push(w[t - lag]);
                }
                r
            })
            .collect();
        let targets: Vec<f64> = w[order..].to_vec();
        let x = Matrix::from_rows(&rows).ok()?;
        let beta = ridge(&x, &targets, 1e-8).ok()?;
        // Residuals aligned to w (zeros for the first `order` entries).
        let mut resid = vec![0.0; w.len()];
        for (row_idx, t) in (order..w.len()).enumerate() {
            let pred: f64 = rows[row_idx]
                .iter()
                .zip(beta.iter())
                .map(|(a, b)| a * b)
                .sum();
            resid[t] = w[t] - pred;
        }
        Some(resid)
    }
}

impl Forecaster for Arima {
    fn name(&self) -> &str {
        &self.name
    }

    fn fit(&mut self, series: &[f64]) -> Result<(), ModelError> {
        let long_order = (self.p + self.q + 4).max(8);
        let needed = self.d + long_order + self.p.max(self.q) + 8;
        if series.len() < needed {
            return Err(ModelError::SeriesTooShort {
                needed,
                got: series.len(),
            });
        }
        let w = self.diff_all(series);
        let resid = Self::long_ar_residuals(&w, long_order).ok_or(ModelError::Numerical {
            context: "long-AR stage failed".into(),
        })?;

        // Stage 2: regress w_t on p lags of w and q lags of resid.
        let start = long_order.max(self.p).max(self.q);
        let rows: Vec<Vec<f64>> = (start..w.len())
            .map(|t| {
                let mut r = Vec::with_capacity(1 + self.p + self.q);
                r.push(1.0);
                for lag in 1..=self.p {
                    r.push(w[t - lag]);
                }
                for lag in 1..=self.q {
                    r.push(resid[t - lag]);
                }
                r
            })
            .collect();
        let targets: Vec<f64> = w[start..].to_vec();
        let x = Matrix::from_rows(&rows).map_err(|e| ModelError::Numerical {
            context: e.to_string(),
        })?;
        self.coef = ridge(&x, &targets, 1e-8).map_err(|e| ModelError::Numerical {
            context: e.to_string(),
        })?;
        // Enforce (approximate) invertibility of the MA part: the
        // innovation filter in `ArimaState` recurses on its own output, so |θ| ≥ 1 diverges exponentially over long histories.
        // R's arima() enforces this via constrained optimization; clamping
        // is the lightweight equivalent.
        for theta in self.coef[1 + self.p..].iter_mut() {
            *theta = theta.clamp(-0.9, 0.9);
        }
        // Innovation cap for the filter: a few sigmas of the differenced
        // series, so a mis-specified model stays bounded.
        let w_mean = w.iter().sum::<f64>() / w.len() as f64;
        let w_std =
            (w.iter().map(|v| (v - w_mean) * (v - w_mean)).sum::<f64>() / w.len() as f64).sqrt();
        self.innovation_cap = (6.0 * w_std).max(1e-6);
        self.fitted = true;
        Ok(())
    }

    fn predict_next(&self, history: &[f64]) -> f64 {
        if !self.fitted {
            return fallback_forecast(history);
        }
        let mut state = ArimaState::new(self);
        state.fold(history);
        state.predict()
    }

    fn series_state(&self) -> Option<Box<dyn SeriesState>> {
        if !self.fitted {
            return None;
        }
        Some(Box::new(ArimaState::new(self)))
    }

    fn box_clone(&self) -> Box<dyn Forecaster> {
        Box::new(self.clone())
    }
}

/// A fitted ARIMA's innovation filter over one series: the `d`-times
/// differenced values `w`, their innovations `e` and the integration
/// levels, advanced one history value at a time.
#[derive(Debug)]
struct ArimaState {
    p: usize,
    d: usize,
    q: usize,
    /// The model's `[intercept, phi_1..phi_p, theta_1..theta_q]`.
    coef: Vec<f64>,
    innovation_cap: f64,
    /// History values folded.
    n: usize,
    /// The newest history value (0.0 before any) and the newest first
    /// difference: the levels a forecast integrates back.
    levels: [f64; 2],
    /// `w` and `e`, slot `s` holding w-index `base + s`. Slots fill by
    /// index up to the buffer length; then the newest `max(p, q)` move
    /// to the front, so the filter reads its lags as `w[s - lag]` and no
    /// value is shifted per step.
    w: Vec<f64>,
    e: Vec<f64>,
    base: usize,
    len: usize,
}

impl ArimaState {
    fn new(model: &Arima) -> Self {
        let slots = model.p.max(model.q) + LAG_BLOCK;
        ArimaState {
            p: model.p,
            d: model.d,
            q: model.q,
            coef: model.coef.clone(),
            innovation_cap: model.innovation_cap,
            n: 0,
            levels: [0.0; 2],
            w: vec![0.0; slots],
            e: vec![0.0; slots],
            base: 0,
            len: 0,
        }
    }
}

/// The filter's working view of an [`ArimaState`] during one fold: locals
/// and disjoint slices, so the per-value loop keeps them in registers.
struct Filter<'a> {
    coef: &'a [f64],
    p: usize,
    q: usize,
    cap: f64,
    w: &'a mut [f64],
    e: &'a mut [f64],
    base: usize,
    len: usize,
}

impl Filter<'_> {
    /// Filters the next differenced value: stores it and its innovation.
    #[inline(always)]
    fn advance(&mut self, value: f64) {
        if self.len == self.w.len() {
            let from = self.len - self.p.max(self.q);
            self.w.copy_within(from..self.len, 0);
            self.e.copy_within(from..self.len, 0);
            self.base += from;
            self.len -= from;
        }
        let (p, s) = (self.p, self.len);
        let t = self.base + s;
        self.w[s] = value;
        self.e[s] = if t < p {
            0.0
        } else {
            let mut pred = self.coef[0];
            for lag in 1..=p {
                pred += self.coef[lag] * self.w[s - lag];
            }
            for lag in 1..=self.q {
                if t >= lag {
                    pred += self.coef[p + lag] * self.e[s - lag];
                }
            }
            (value - pred).clamp(-self.cap, self.cap)
        };
        self.len = s + 1;
    }
}

impl SeriesState for ArimaState {
    fn reset(&mut self) {
        self.n = 0;
        self.levels = [0.0; 2];
        self.base = 0;
        self.len = 0;
    }

    fn fold(&mut self, values: &[f64]) {
        let mut f = Filter {
            coef: &self.coef,
            p: self.p,
            q: self.q,
            cap: self.innovation_cap,
            w: &mut self.w,
            e: &mut self.e,
            base: self.base,
            len: self.len,
        };
        let (mut n, mut levels) = (self.n, self.levels);
        // The first `d` values of the series only seed the differences.
        match self.d {
            0 => {
                for &x in values {
                    f.advance(x);
                    levels[0] = x;
                }
                n += values.len();
            }
            1 => {
                for &x in values {
                    if n > 0 {
                        f.advance(x - levels[0]);
                    }
                    levels[0] = x;
                    n += 1;
                }
            }
            _ => {
                for &x in values {
                    if n > 0 {
                        let first = x - levels[0];
                        if n > 1 {
                            f.advance(first - levels[1]);
                        }
                        levels[1] = first;
                    }
                    levels[0] = x;
                    n += 1;
                }
            }
        }
        (self.base, self.len) = (f.base, f.len);
        (self.n, self.levels) = (n, levels);
    }

    fn predict(&self) -> f64 {
        let fallback = self.levels[0];
        if self.n < self.d + self.p.max(self.q) + 2 {
            return fallback;
        }
        // One-step-ahead forecast of the differenced series; every lag
        // exists past the guard above.
        let (p, s) = (self.p, self.len);
        let mut pred = self.coef[0];
        for lag in 1..=p {
            pred += self.coef[lag] * self.w[s - lag];
        }
        for lag in 1..=self.q {
            pred += self.coef[p + lag] * self.e[s - lag];
        }
        // Integrate back d times, innermost level first.
        let out = match self.d {
            0 => pred,
            1 => pred + self.levels[0],
            _ => pred + self.levels[1] + self.levels[0],
        };
        if out.is_finite() {
            out
        } else {
            fallback
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ar1(phi: f64, c: f64, n: usize, seed: u64) -> Vec<f64> {
        // Deterministic LCG noise keeps the test hermetic.
        let mut state = seed;
        let mut noise = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut s = vec![c / (1.0 - phi)];
        for t in 1..n {
            let prev = s[t - 1];
            s.push(c + phi * prev + 0.3 * noise());
        }
        s
    }

    #[test]
    fn recovers_ar1_coefficient() {
        let s = ar1(0.7, 1.0, 600, 42);
        let mut m = Arima::new(1, 0, 0);
        m.fit(&s).unwrap();
        assert!((m.coef[1] - 0.7).abs() < 0.1, "phi = {}", m.coef[1]);
    }

    #[test]
    fn forecasts_ar1_one_step() {
        let s = ar1(0.8, 0.5, 500, 7);
        let mut m = Arima::new(1, 0, 0);
        m.fit(&s).unwrap();
        let pred = m.predict_next(&s);
        let expected = m.coef[0] + m.coef[1] * s[s.len() - 1];
        assert!((pred - expected).abs() < 1e-9);
    }

    #[test]
    fn differencing_handles_linear_trend() {
        // x_t = 2t + AR noise: ARIMA(1,1,0) should forecast the next step
        // close to last + 2.
        let base = ar1(0.3, 0.0, 300, 9);
        let s: Vec<f64> = base
            .iter()
            .enumerate()
            .map(|(t, v)| 2.0 * t as f64 + v)
            .collect();
        let mut m = Arima::new(1, 1, 0);
        m.fit(&s).unwrap();
        let pred = m.predict_next(&s);
        let naive_trend = s[s.len() - 1] + 2.0;
        assert!(
            (pred - naive_trend).abs() < 1.0,
            "pred {pred} vs {naive_trend}"
        );
    }

    #[test]
    fn ma_component_is_fitted() {
        let s = ar1(0.5, 0.2, 500, 3);
        let mut m = Arima::new(1, 0, 1);
        m.fit(&s).unwrap();
        assert_eq!(m.coef.len(), 3);
        assert!(m.predict_next(&s).is_finite());
    }

    #[test]
    fn short_series_is_error_and_fallback_works() {
        let mut m = Arima::new(2, 1, 1);
        assert!(m.fit(&[1.0, 2.0, 3.0]).is_err());
        // Unfitted: falls back to last value.
        assert_eq!(m.predict_next(&[5.0, 6.0]), 6.0);
    }

    #[test]
    #[should_panic(expected = "p + q > 0")]
    fn degenerate_orders_panic() {
        let _ = Arima::new(0, 1, 0);
    }

    #[test]
    fn orders_accessor() {
        assert_eq!(Arima::new(2, 1, 1).orders(), (2, 1, 1));
    }

    #[test]
    fn fitted_arima_leaves_white_residuals_on_ar_data() {
        use eadrl_timeseries::stats::ljung_box;
        let s = ar1(0.8, 0.5, 600, 13);
        let mut m = Arima::new(1, 0, 0);
        m.fit(&s).unwrap();
        // One-step rolling residuals over the second half.
        let residuals: Vec<f64> = (300..s.len())
            .map(|t| s[t] - m.predict_next(&s[..t]))
            .collect();
        let q = ljung_box(&residuals, 10).unwrap();
        // Raw series is strongly autocorrelated; residuals should not be.
        let q_raw = ljung_box(&s[300..], 10).unwrap();
        assert!(q < 0.2 * q_raw, "residual Q {q} vs raw Q {q_raw}");
    }
}
