//! Autocorrelation, the Ljung–Box statistic and rolling means.

/// Sample autocorrelation function up to `max_lag` (inclusive); index 0 is
/// always 1.0. Returns an empty vector for series shorter than 2.
pub fn acf(series: &[f64], max_lag: usize) -> Vec<f64> {
    let n = series.len();
    if n < 2 {
        return Vec::new();
    }
    let mean = series.iter().sum::<f64>() / n as f64;
    let denom: f64 = series.iter().map(|v| (v - mean) * (v - mean)).sum();
    if denom < 1e-300 {
        // Constant series: define ACF as 1 at lag 0, 0 elsewhere.
        let mut out = vec![0.0; max_lag.min(n - 1) + 1];
        out[0] = 1.0;
        return out;
    }
    let max_lag = max_lag.min(n - 1);
    (0..=max_lag)
        .map(|lag| {
            let num: f64 = (lag..n)
                .map(|t| (series[t] - mean) * (series[t - lag] - mean))
                .sum();
            num / denom
        })
        .collect()
}

/// Ljung–Box portmanteau statistic for residual autocorrelation up to
/// `max_lag`: `Q = n(n+2) Σ_k ρ_k² / (n-k)`.
///
/// Under the white-noise null, `Q` is approximately χ² with `max_lag`
/// degrees of freedom; as a rule of thumb, `Q` far above `max_lag`
/// (roughly `max_lag + 2√(2·max_lag)`) indicates leftover structure.
/// Returns `None` for series shorter than `max_lag + 2`.
pub fn ljung_box(residuals: &[f64], max_lag: usize) -> Option<f64> {
    let n = residuals.len();
    if max_lag == 0 || n < max_lag + 2 {
        return None;
    }
    let rho = acf(residuals, max_lag);
    let nf = n as f64;
    let q = nf
        * (nf + 2.0)
        * (1..=max_lag)
            .map(|k| rho[k] * rho[k] / (nf - k as f64))
            .sum::<f64>();
    Some(q)
}

/// Rolling mean with window `w`; output is `len - w + 1` long (empty when
/// the series is shorter than `w` or `w == 0`).
pub fn rolling_mean(series: &[f64], w: usize) -> Vec<f64> {
    if w == 0 || series.len() < w {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(series.len() - w + 1);
    let mut sum: f64 = series[..w].iter().sum();
    out.push(sum / w as f64);
    for t in w..series.len() {
        sum += series[t] - series[t - w];
        out.push(sum / w as f64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acf_lag_zero_is_one() {
        let s = [1.0, 3.0, 2.0, 5.0, 4.0];
        let a = acf(&s, 2);
        assert!((a[0] - 1.0).abs() < 1e-12);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn acf_of_alternating_series_is_negative_at_lag_one() {
        let s: Vec<f64> = (0..50)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let a = acf(&s, 1);
        assert!(a[1] < -0.9);
    }

    #[test]
    fn acf_of_constant_series() {
        let a = acf(&[5.0; 10], 3);
        assert_eq!(a[0], 1.0);
        assert_eq!(a[1], 0.0);
    }

    #[test]
    fn ljung_box_separates_noise_from_structure() {
        // White-ish noise via an LCG: Q should be small (≈ max_lag).
        let mut state = 77u64;
        let noise: Vec<f64> = (0..400)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
            })
            .collect();
        let q_noise = ljung_box(&noise, 10).unwrap();
        assert!(q_noise < 25.0, "white noise Q = {q_noise}");

        // A strongly autocorrelated series: Q should blow past the
        // critical region.
        let s: Vec<f64> = (0..400).map(|t| (t as f64 / 10.0).sin()).collect();
        let q_struct = ljung_box(&s, 10).unwrap();
        assert!(q_struct > 100.0, "structured Q = {q_struct}");
    }

    #[test]
    fn ljung_box_degenerate_inputs() {
        assert!(ljung_box(&[1.0; 5], 10).is_none());
        assert!(ljung_box(&[1.0; 100], 0).is_none());
    }

    #[test]
    fn rolling_mean_matches_manual() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(rolling_mean(&s, 2), vec![1.5, 2.5, 3.5]);
        assert!(rolling_mean(&s, 5).is_empty());
        assert!(rolling_mean(&s, 0).is_empty());
    }

    #[test]
    fn short_series_edge_cases() {
        assert!(acf(&[1.0], 3).is_empty());
    }
}
