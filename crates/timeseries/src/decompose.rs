//! Classical additive decomposition: trend + seasonal + remainder.
//!
//! A lightweight STL stand-in used for dataset diagnostics (e.g. verifying
//! that the synthetic generators in `eadrl-datasets` carry the seasonal
//! structure their Table I originals are described with) and available to
//! library users for feature engineering.

/// An additive decomposition `x_t = trend_t + seasonal_t + remainder_t`.
#[derive(Debug, Clone, PartialEq)]
pub struct Decomposition {
    /// Centered-moving-average trend (endpoints padded with the nearest
    /// computable value).
    pub trend: Vec<f64>,
    /// Phase-mean seasonal component, zero-centered, repeating with the
    /// requested period.
    pub seasonal: Vec<f64>,
    /// What is left: `x - trend - seasonal`.
    pub remainder: Vec<f64>,
    /// The seasonal period used.
    pub period: usize,
}

impl Decomposition {
    /// Seasonal strength in `[0, 1]` (Hyndman's `F_s`): how much of the
    /// detrended variance the seasonal component explains.
    pub fn seasonal_strength(&self) -> f64 {
        let var = |xs: &[f64]| {
            if xs.len() < 2 {
                return 0.0;
            }
            let m = xs.iter().sum::<f64>() / xs.len() as f64;
            xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
        };
        let detrended: Vec<f64> = self
            .seasonal
            .iter()
            .zip(self.remainder.iter())
            .map(|(s, r)| s + r)
            .collect();
        let vd = var(&detrended);
        if vd < 1e-300 {
            return 0.0;
        }
        (1.0 - var(&self.remainder) / vd).clamp(0.0, 1.0)
    }
}

/// Decomposes `series` additively with seasonal `period`.
///
/// Returns `None` when the series is shorter than two full periods or
/// `period < 2` (no seasonal structure to estimate).
pub fn decompose_additive(series: &[f64], period: usize) -> Option<Decomposition> {
    let n = series.len();
    if period < 2 || n < 2 * period {
        return None;
    }

    // 1. Trend: centered moving average of width `period` (standard
    //    even/odd handling: even periods use a 2×MA).
    let mut trend = vec![f64::NAN; n];
    if period % 2 == 1 {
        let half = period / 2;
        for t in half..n - half {
            let window = &series[t - half..=t + half];
            trend[t] = window.iter().sum::<f64>() / period as f64;
        }
    } else {
        let half = period / 2;
        for t in half..n - half {
            // 2×MA: average of the two staggered period-wide windows.
            let first: f64 = series[t - half..t + half].iter().sum::<f64>() / period as f64;
            let second: f64 = series[t - half + 1..=t + half].iter().sum::<f64>() / period as f64;
            trend[t] = 0.5 * (first + second);
        }
    }
    // Pad the endpoints with the nearest computed trend value.
    let first_valid = trend.iter().position(|v| !v.is_nan())?;
    let last_valid = trend.iter().rposition(|v| !v.is_nan())?;
    for t in 0..first_valid {
        trend[t] = trend[first_valid];
    }
    for v in trend.iter_mut().skip(last_valid + 1) {
        *v = f64::NAN; // placeholder, fixed below
    }
    let last_value = trend[last_valid];
    for v in trend.iter_mut().skip(last_valid + 1) {
        *v = last_value;
    }

    // 2. Seasonal: phase means of the detrended series, centered to zero.
    let mut phase_sum = vec![0.0; period];
    let mut phase_count = vec![0usize; period];
    for t in 0..n {
        let d = series[t] - trend[t];
        phase_sum[t % period] += d;
        phase_count[t % period] += 1;
    }
    let mut phase_mean: Vec<f64> = phase_sum
        .iter()
        .zip(phase_count.iter())
        .map(|(&s, &c)| if c > 0 { s / c as f64 } else { 0.0 })
        .collect();
    let grand = phase_mean.iter().sum::<f64>() / period as f64;
    for p in phase_mean.iter_mut() {
        *p -= grand;
    }
    let seasonal: Vec<f64> = (0..n).map(|t| phase_mean[t % period]).collect();

    // 3. Remainder.
    let remainder: Vec<f64> = (0..n).map(|t| series[t] - trend[t] - seasonal[t]).collect();

    Some(Decomposition {
        trend,
        seasonal,
        remainder,
        period,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic(n: usize, period: usize, amp: f64, slope: f64) -> Vec<f64> {
        (0..n)
            .map(|t| {
                slope * t as f64
                    + amp * (2.0 * std::f64::consts::PI * t as f64 / period as f64).sin()
            })
            .collect()
    }

    #[test]
    fn components_add_back_to_the_series() {
        let s = synthetic(120, 12, 5.0, 0.1);
        let d = decompose_additive(&s, 12).unwrap();
        for (t, &v) in s.iter().enumerate() {
            let rebuilt = d.trend[t] + d.seasonal[t] + d.remainder[t];
            assert!((rebuilt - v).abs() < 1e-9, "t = {t}");
        }
    }

    #[test]
    fn recovers_seasonal_amplitude() {
        let s = synthetic(240, 12, 5.0, 0.0);
        let d = decompose_additive(&s, 12).unwrap();
        let max_season = d.seasonal.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!((max_season - 5.0).abs() < 0.3, "amplitude {max_season}");
        assert!(d.seasonal_strength() > 0.95);
    }

    #[test]
    fn recovers_trend_slope() {
        let s = synthetic(240, 12, 2.0, 0.5);
        let d = decompose_additive(&s, 12).unwrap();
        // Interior trend should increase ~0.5 per step.
        let slope = (d.trend[200] - d.trend[40]) / 160.0;
        assert!((slope - 0.5).abs() < 0.02, "slope {slope}");
    }

    #[test]
    fn odd_period_works_too() {
        let s = synthetic(140, 7, 3.0, 0.0);
        let d = decompose_additive(&s, 7).unwrap();
        assert!(d.seasonal_strength() > 0.9);
        assert_eq!(d.period, 7);
    }

    #[test]
    fn pure_noise_has_weak_structure() {
        // Deterministic pseudo-noise via an LCG.
        let mut state = 9u64;
        let s: Vec<f64> = (0..200)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
            })
            .collect();
        let d = decompose_additive(&s, 12).unwrap();
        assert!(d.seasonal_strength() < 0.35, "{}", d.seasonal_strength());
    }

    #[test]
    fn degenerate_inputs_return_none() {
        assert!(decompose_additive(&[1.0; 10], 1).is_none());
        assert!(decompose_additive(&[1.0; 10], 6).is_none());
        assert!(decompose_additive(&[], 4).is_none());
    }

    #[test]
    fn constant_series_has_zero_strengths() {
        let s = vec![5.0; 60];
        let d = decompose_additive(&s, 6).unwrap();
        assert_eq!(d.seasonal_strength(), 0.0);
        assert!(d.remainder.iter().all(|r| r.abs() < 1e-9));
    }
}
