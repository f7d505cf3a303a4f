//! Scaling and differencing transforms.

/// A fitted, invertible element-wise transform.
pub trait Scaler {
    /// Transforms one value.
    fn transform(&self, value: f64) -> f64;
    /// Inverts the transform.
    fn inverse(&self, value: f64) -> f64;

    /// Transforms a whole slice into a new vector.
    fn transform_all(&self, values: &[f64]) -> Vec<f64> {
        values.iter().map(|&v| self.transform(v)).collect()
    }
}

/// Standardizes to zero mean and unit variance.
///
/// Degenerate (constant) inputs get `std = 1` so the transform stays
/// invertible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZScoreScaler {
    mean: f64,
    std: f64,
}

impl ZScoreScaler {
    /// Fits on the given values.
    pub fn fit(values: &[f64]) -> Self {
        if values.is_empty() {
            return ZScoreScaler {
                mean: 0.0,
                std: 1.0,
            };
        }
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / values.len() as f64;
        let std = var.sqrt();
        ZScoreScaler {
            mean,
            std: if std > 1e-12 { std } else { 1.0 },
        }
    }

    /// Fitted mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }
}

impl Scaler for ZScoreScaler {
    fn transform(&self, value: f64) -> f64 {
        (value - self.mean) / self.std
    }

    fn inverse(&self, value: f64) -> f64 {
        value * self.std + self.mean
    }
}

/// Rescales linearly to `[0, 1]` over the fitted range.
///
/// Constant inputs map to 0.5 (and invert back exactly).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MinMaxScaler {
    min: f64,
    range: f64,
}

impl MinMaxScaler {
    /// Fits on the given values.
    pub fn fit(values: &[f64]) -> Self {
        if values.is_empty() {
            return MinMaxScaler {
                min: 0.0,
                range: 1.0,
            };
        }
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &v in values {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        let range = hi - lo;
        if range > 1e-12 {
            MinMaxScaler { min: lo, range }
        } else {
            // Constant input: shift so that transform(x) = 0.5.
            MinMaxScaler {
                min: lo - 0.5,
                range: 1.0,
            }
        }
    }
}

impl Scaler for MinMaxScaler {
    fn transform(&self, value: f64) -> f64 {
        (value - self.min) / self.range
    }

    fn inverse(&self, value: f64) -> f64 {
        value * self.range + self.min
    }
}

/// First-order differencing with lag `d`: output `y_t = x_t - x_{t-d}`.
/// The result is `d` values shorter than the input. `d == 0` returns the
/// input unchanged.
pub fn difference(values: &[f64], d: usize) -> Vec<f64> {
    if d == 0 {
        return values.to_vec();
    }
    if values.len() <= d {
        return Vec::new();
    }
    (d..values.len())
        .map(|t| values[t] - values[t - d])
        .collect()
}

/// Inverts [`difference`]: given the last `d` original values (`seed`,
/// oldest first) and the differenced tail, reconstructs the original-scale
/// values that follow the seed.
pub fn undifference(seed: &[f64], diffed: &[f64], d: usize) -> Vec<f64> {
    if d == 0 {
        return diffed.to_vec();
    }
    assert!(
        seed.len() >= d,
        "undifference needs at least d={d} seed values, got {}",
        seed.len()
    );
    let mut history: Vec<f64> = seed[seed.len() - d..].to_vec();
    let mut out = Vec::with_capacity(diffed.len());
    for (t, &dv) in diffed.iter().enumerate() {
        let base = history[t]; // value d steps earlier
        let v = base + dv;
        history.push(v);
        out.push(v);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zscore_roundtrip_and_moments() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        let s = ZScoreScaler::fit(&v);
        let t = s.transform_all(&v);
        let mean: f64 = t.iter().sum::<f64>() / t.len() as f64;
        assert!(mean.abs() < 1e-12);
        for (a, b) in v.iter().zip(&t) {
            assert!((a - s.inverse(*b)).abs() < 1e-12);
        }
    }

    #[test]
    fn zscore_constant_input_is_safe() {
        let s = ZScoreScaler::fit(&[7.0, 7.0, 7.0]);
        assert_eq!(s.transform(7.0), 0.0);
        assert_eq!(s.inverse(0.0), 7.0);
        assert_eq!(s.std, 1.0);
    }

    #[test]
    fn minmax_maps_to_unit_interval() {
        let v = [10.0, 20.0, 30.0];
        let s = MinMaxScaler::fit(&v);
        assert_eq!(s.transform(10.0), 0.0);
        assert_eq!(s.transform(30.0), 1.0);
        assert_eq!(s.transform(20.0), 0.5);
        assert_eq!(s.inverse(0.5), 20.0);
    }

    #[test]
    fn minmax_constant_input_maps_to_half() {
        let s = MinMaxScaler::fit(&[3.0, 3.0]);
        assert_eq!(s.transform(3.0), 0.5);
        assert_eq!(s.inverse(0.5), 3.0);
    }

    #[test]
    fn difference_lag_one() {
        let v = [1.0, 3.0, 6.0, 10.0];
        assert_eq!(difference(&v, 1), vec![2.0, 3.0, 4.0]);
        assert_eq!(difference(&v, 0), v.to_vec());
        assert!(difference(&[1.0], 2).is_empty());
    }

    #[test]
    fn difference_seasonal_lag() {
        let v = [1.0, 2.0, 4.0, 5.0]; // lag 2: 4-1=3, 5-2=3
        assert_eq!(difference(&v, 2), vec![3.0, 3.0]);
    }

    #[test]
    fn undifference_roundtrip() {
        let v = [1.0, 3.0, 6.0, 10.0, 15.0];
        for d in 1..=2usize {
            let diffed = difference(&v, d);
            let rebuilt = undifference(&v[..d], &diffed, d);
            assert_eq!(rebuilt, v[d..].to_vec(), "d = {d}");
        }
    }

    #[test]
    #[should_panic(expected = "seed")]
    fn undifference_requires_seed() {
        undifference(&[1.0], &[1.0], 2);
    }
}
