//! Exponential-smoothing forecasters (SES, Holt, additive Holt–Winters).

use crate::forecaster::{fallback_forecast, Forecaster, ModelError, SeriesState};

/// The exponential-smoothing variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EtsKind {
    /// Simple exponential smoothing (level only).
    Simple,
    /// Holt's linear trend method (level + trend).
    Holt,
    /// Additive Holt–Winters (level + trend + seasonal) with the given
    /// period.
    HoltWinters {
        /// Seasonal period in observations.
        period: usize,
    },
}

/// An ETS forecaster whose smoothing parameters are selected by grid search
/// on one-step-ahead training SSE (the standard automatic-ETS approach at
/// laptop scale).
///
/// The smoothing recursion runs in one place, a [`SeriesState`] that folds
/// the series in one value at a time: `fit` scores each grid point by the
/// state's SSE, `predict_next` folds a fresh state over the history, and
/// [`Forecaster::series_state`] hands one to a server that folds in only
/// the newest value per step.
#[derive(Debug, Clone)]
pub struct Ets {
    name: String,
    kind: EtsKind,
    alpha: f64,
    beta: f64,
    gamma: f64,
    fitted: bool,
}

impl Ets {
    /// Creates an unfitted ETS model.
    ///
    /// # Panics
    /// Panics for a Holt–Winters period < 2.
    pub fn new(kind: EtsKind) -> Self {
        if let EtsKind::HoltWinters { period } = kind {
            assert!(period >= 2, "Holt-Winters period must be >= 2");
        }
        let name = match kind {
            EtsKind::Simple => "ETS(SES)".to_string(),
            EtsKind::Holt => "ETS(Holt)".to_string(),
            EtsKind::HoltWinters { period } => format!("ETS(HW,{period})"),
        };
        Ets {
            name,
            kind,
            alpha: 0.3,
            beta: 0.1,
            gamma: 0.1,
            fitted: false,
        }
    }

    /// Selected `(alpha, beta, gamma)` after fitting.
    pub fn params(&self) -> (f64, f64, f64) {
        (self.alpha, self.beta, self.gamma)
    }

    /// The exponential-smoothing variant.
    pub fn kind(&self) -> EtsKind {
        self.kind
    }

    /// One-step SSE of the smoothing recursion over `series` with the
    /// given parameters.
    fn sse(&self, series: &[f64], alpha: f64, beta: f64, gamma: f64) -> f64 {
        let mut state = EtsState::new(self.kind, alpha, beta, gamma);
        state.fold(series);
        state.sse
    }
}

impl Forecaster for Ets {
    fn name(&self) -> &str {
        &self.name
    }

    fn fit(&mut self, series: &[f64]) -> Result<(), ModelError> {
        let needed = match self.kind {
            EtsKind::HoltWinters { period } => (2 * period).max(10),
            _ => 10,
        };
        if series.len() < needed {
            return Err(ModelError::SeriesTooShort {
                needed,
                got: series.len(),
            });
        }
        // Coarse grid search over smoothing parameters.
        let grid = [0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9];
        let beta_grid: &[f64] = match self.kind {
            EtsKind::Simple => &[0.0],
            _ => &[0.01, 0.05, 0.1, 0.3],
        };
        let gamma_grid: &[f64] = match self.kind {
            EtsKind::HoltWinters { .. } => &[0.05, 0.1, 0.3],
            _ => &[0.0],
        };
        let mut best = (f64::INFINITY, 0.3, 0.1, 0.1);
        for &a in &grid {
            for &b in beta_grid {
                for &g in gamma_grid {
                    let sse = self.sse(series, a, b, g);
                    if sse < best.0 {
                        best = (sse, a, b, g);
                    }
                }
            }
        }
        self.alpha = best.1;
        self.beta = best.2;
        self.gamma = best.3;
        self.fitted = true;
        Ok(())
    }

    fn predict_next(&self, history: &[f64]) -> f64 {
        if !self.fitted {
            return fallback_forecast(history);
        }
        let mut state = EtsState::new(self.kind, self.alpha, self.beta, self.gamma);
        state.fold(history);
        state.predict()
    }

    fn series_state(&self) -> Option<Box<dyn SeriesState>> {
        if !self.fitted {
            return None;
        }
        Some(Box::new(EtsState::new(
            self.kind, self.alpha, self.beta, self.gamma,
        )))
    }

    fn box_clone(&self) -> Box<dyn Forecaster> {
        Box::new(self.clone())
    }
}

/// The smoothing recursion of one ETS variant over one series, advanced
/// one history value at a time, with the one-step SSE of the pass.
///
/// Holt–Winters initializes its level, trend and seasonal terms from the
/// first two seasons. Until the series has two seasons it forecasts as
/// Holt and buffers the values; on the value that completes the second
/// season it initializes and replays that season through the seasonal
/// recursion.
#[derive(Debug)]
struct EtsState {
    kind: EtsKind,
    alpha: f64,
    beta: f64,
    gamma: f64,
    /// History values folded.
    n: usize,
    /// The newest history value (0.0 before any): the fallback forecast.
    last: f64,
    level: f64,
    trend: f64,
    /// One-step squared errors summed over the pass; `fit` scores by it.
    sse: f64,
    /// Holt–Winters: the first two seasons (`2 × period` slots).
    head: Vec<f64>,
    /// Holt–Winters: the seasonal terms (`period` slots).
    seasonal: Vec<f64>,
    /// Holt–Winters: seasonal index of the next value.
    sidx: usize,
}

impl EtsState {
    fn new(kind: EtsKind, alpha: f64, beta: f64, gamma: f64) -> Self {
        let period = match kind {
            EtsKind::HoltWinters { period } => period,
            _ => 0,
        };
        EtsState {
            kind,
            alpha,
            beta,
            gamma,
            n: 0,
            last: 0.0,
            level: 0.0,
            trend: 0.0,
            sse: 0.0,
            head: vec![0.0; 2 * period],
            seasonal: vec![0.0; period],
            sidx: 0,
        }
    }

    fn fold_simple(&mut self, values: &[f64]) {
        let mut rest = values;
        if self.n == 0 {
            if let Some((&first, tail)) = values.split_first() {
                self.level = first;
                rest = tail;
            }
        }
        let alpha = self.alpha;
        let (mut level, mut sse) = (self.level, self.sse);
        for &x in rest {
            let err = x - level;
            sse += err * err;
            level += alpha * err;
        }
        self.level = level;
        self.sse = sse;
        self.n += values.len();
    }

    fn fold_holt(&mut self, values: &[f64]) {
        let (alpha, beta) = (self.alpha, self.beta);
        let (mut level, mut trend, mut sse) = (self.level, self.trend, self.sse);
        // The first value sets the level, the second the initial trend.
        let (first, rest) = values.split_at(2usize.saturating_sub(self.n).min(values.len()));
        for &x in first {
            if self.n == 0 {
                level = x;
                trend = 0.0;
            } else {
                trend = x - level;
                holt_step(x, alpha, beta, &mut level, &mut trend, &mut sse);
            }
            self.n += 1;
        }
        for &x in rest {
            holt_step(x, alpha, beta, &mut level, &mut trend, &mut sse);
        }
        self.level = level;
        self.trend = trend;
        self.sse = sse;
        self.n += rest.len();
    }

    fn fold_holt_winters(&mut self, values: &[f64], period: usize) {
        let mut rest = values;
        let seasons = 2 * period;
        let params = (self.alpha, self.beta, self.gamma);
        if self.n < seasons {
            let take = (seasons - self.n).min(values.len());
            self.head[self.n..self.n + take].copy_from_slice(&values[..take]);
            if self.n + take < seasons {
                // Still short of two seasons: forecast as Holt.
                self.fold_holt(values);
                return;
            }
            // Initialize level/trend from the first two seasons and the
            // seasonal terms from first-season deviations, then run the
            // second season through the recursion.
            let s1: f64 = self.head[..period].iter().sum::<f64>() / period as f64;
            let s2: f64 = self.head[period..seasons].iter().sum::<f64>() / period as f64;
            self.level = s1;
            self.trend = (s2 - s1) / period as f64;
            self.sse = 0.0;
            for (s, &x) in self.seasonal.iter_mut().zip(&self.head[..period]) {
                *s = x - s1;
            }
            self.sidx = 0;
            hw_pass(
                &self.head[period..seasons],
                params,
                &mut self.seasonal,
                &mut self.sidx,
                [&mut self.level, &mut self.trend, &mut self.sse],
            );
            self.n = seasons;
            rest = &values[take..];
        }
        hw_pass(
            rest,
            params,
            &mut self.seasonal,
            &mut self.sidx,
            [&mut self.level, &mut self.trend, &mut self.sse],
        );
        self.n += rest.len();
    }
}

/// Runs additive Holt–Winters over `values`, the first of which has
/// seasonal index `sidx`; advances `sidx` and `[level, trend, sse]`.
fn hw_pass(
    values: &[f64],
    (alpha, beta, gamma): (f64, f64, f64),
    seasonal: &mut [f64],
    sidx: &mut usize,
    [level, trend, sse]: [&mut f64; 3],
) {
    let period = seasonal.len();
    let (mut l, mut b, mut e2, mut i) = (*level, *trend, *sse, *sidx);
    for &x in values {
        let season = seasonal[i];
        let forecast = l + b + season;
        let err = x - forecast;
        e2 += err * err;
        let new_level = alpha * (x - season) + (1.0 - alpha) * (l + b);
        b = beta * (new_level - l) + (1.0 - beta) * b;
        seasonal[i] = gamma * (x - new_level) + (1.0 - gamma) * season;
        l = new_level;
        i += 1;
        if i == period {
            i = 0;
        }
    }
    (*level, *trend, *sse, *sidx) = (l, b, e2, i);
}

/// One Holt step on observation `x`.
#[inline(always)]
fn holt_step(x: f64, alpha: f64, beta: f64, level: &mut f64, trend: &mut f64, sse: &mut f64) {
    let forecast = *level + *trend;
    let err = x - forecast;
    *sse += err * err;
    let new_level = alpha * x + (1.0 - alpha) * (*level + *trend);
    *trend = beta * (new_level - *level) + (1.0 - beta) * *trend;
    *level = new_level;
}

impl SeriesState for EtsState {
    fn reset(&mut self) {
        self.n = 0;
        self.last = 0.0;
        self.level = 0.0;
        self.trend = 0.0;
        self.sse = 0.0;
        self.sidx = 0;
    }

    fn fold(&mut self, values: &[f64]) {
        let Some(&newest) = values.last() else {
            return;
        };
        match self.kind {
            EtsKind::Simple => self.fold_simple(values),
            EtsKind::Holt => self.fold_holt(values),
            EtsKind::HoltWinters { period } => self.fold_holt_winters(values, period),
        }
        self.last = newest;
    }

    fn predict(&self) -> f64 {
        if self.n < 2 {
            return self.last;
        }
        let forecast = match self.kind {
            EtsKind::Simple => self.level,
            EtsKind::HoltWinters { period } if self.n >= 2 * period => {
                self.level + self.trend + self.seasonal[self.sidx]
            }
            _ => self.level + self.trend,
        };
        if forecast.is_finite() {
            forecast
        } else {
            self.last
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ses_on_constant_series_predicts_constant() {
        let s = vec![4.0; 30];
        let mut m = Ets::new(EtsKind::Simple);
        m.fit(&s).unwrap();
        assert!((m.predict_next(&s) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn ses_picks_high_alpha_for_random_walk_like_data() {
        // Alternating large jumps: recent value matters most.
        let mut s = vec![0.0];
        let mut state = 11u64;
        for _ in 0..200 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let step = ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0;
            s.push(s.last().unwrap() + step);
        }
        let mut m = Ets::new(EtsKind::Simple);
        m.fit(&s).unwrap();
        assert!(m.params().0 >= 0.5, "alpha = {}", m.params().0);
    }

    #[test]
    fn holt_extrapolates_linear_trend() {
        let s: Vec<f64> = (0..60).map(|t| 3.0 * t as f64 + 5.0).collect();
        let mut m = Ets::new(EtsKind::Holt);
        m.fit(&s).unwrap();
        let pred = m.predict_next(&s);
        assert!((pred - (3.0 * 60.0 + 5.0)).abs() < 0.5, "pred {pred}");
    }

    #[test]
    fn holt_winters_tracks_seasonal_pattern() {
        let s: Vec<f64> = (0..96)
            .map(|t| 10.0 + [0.0, 5.0, 8.0, 5.0, 0.0, -5.0, -8.0, -5.0][t % 8])
            .collect();
        let mut m = Ets::new(EtsKind::HoltWinters { period: 8 });
        m.fit(&s).unwrap();
        let pred = m.predict_next(&s);
        let truth = 10.0 + 0.0; // t = 96 -> phase 0
        assert!((pred - truth).abs() < 1.0, "pred {pred} truth {truth}");
    }

    #[test]
    fn holt_winters_degrades_gracefully_on_short_history() {
        let mut m = Ets::new(EtsKind::HoltWinters { period: 12 });
        let s: Vec<f64> = (0..40).map(|t| t as f64).collect();
        m.fit(&s).unwrap();
        // Online: history shorter than 2 periods still forecasts.
        let pred = m.predict_next(&s[..20]);
        assert!(pred.is_finite());
    }

    #[test]
    fn fit_length_requirement() {
        let mut m = Ets::new(EtsKind::Simple);
        assert!(m.fit(&[1.0; 5]).is_err());
        let mut hw = Ets::new(EtsKind::HoltWinters { period: 24 });
        assert!(hw.fit(&[1.0; 40]).is_err());
    }

    #[test]
    #[should_panic(expected = "period must be >= 2")]
    fn tiny_period_panics() {
        let _ = Ets::new(EtsKind::HoltWinters { period: 1 });
    }
}
