//! Univariate time-series container.

/// Sampling frequency of a series, mirroring the cadences in the paper's
/// Table I (daily, hourly, half-hourly, 10-minute).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Frequency {
    /// One observation per day (water consumption, river flow).
    Daily,
    /// One observation per hour (bike sharing, weather, solar).
    Hourly,
    /// One observation per 30 minutes (taxi demand).
    HalfHourly,
    /// One observation per 10 minutes (NH4, appliance energy, stocks).
    TenMinutes,
    /// Anything else / synthetic.
    Other,
}

impl Frequency {
    /// A natural seasonal period for the frequency (observations per cycle):
    /// weekly for daily data, daily for intraday data.
    pub fn default_season(self) -> usize {
        match self {
            Frequency::Daily => 7,
            Frequency::Hourly => 24,
            Frequency::HalfHourly => 48,
            Frequency::TenMinutes => 144,
            Frequency::Other => 12,
        }
    }
}

/// A named univariate time series.
///
/// Values are stored oldest-first. The container is intentionally small:
/// everything analytic lives in the sibling modules and operates on slices,
/// so models can work on windows without copying.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    name: String,
    frequency: Frequency,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Creates a series from its values.
    pub fn new(name: impl Into<String>, frequency: Frequency, values: Vec<f64>) -> Self {
        TimeSeries {
            name: name.into(),
            frequency,
            values,
        }
    }

    /// Series name (e.g. `"Taxi Demand 1"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sampling frequency.
    pub fn frequency(&self) -> Frequency {
        self.frequency
    }

    /// The observations, oldest first.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the series has no observations.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Appends one observation (online setting).
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    /// Splits into `(train, test)` slices at the given train ratio.
    ///
    /// The paper uses a 75 % / 25 % split. `ratio` is clamped to `[0, 1]`.
    pub fn split(&self, ratio: f64) -> (&[f64], &[f64]) {
        let ratio = ratio.clamp(0.0, 1.0);
        let cut = (self.values.len() as f64 * ratio).round() as usize;
        let cut = cut.min(self.values.len());
        (&self.values[..cut], &self.values[cut..])
    }

    /// Minimum value; `None` when empty or all-NaN.
    pub fn min(&self) -> Option<f64> {
        self.values
            .iter()
            .copied()
            .filter(|v| !v.is_nan())
            .fold(None, |m, v| Some(m.map_or(v, |m: f64| m.min(v))))
    }

    /// Maximum value; `None` when empty or all-NaN.
    pub fn max(&self) -> Option<f64> {
        self.values
            .iter()
            .copied()
            .filter(|v| !v.is_nan())
            .fold(None, |m, v| Some(m.map_or(v, |m: f64| m.max(v))))
    }

    /// Arithmetic mean; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        eadrl_linalg_mean(&self.values)
    }

    /// Population standard deviation; 0.0 for fewer than two values.
    pub fn std_dev(&self) -> f64 {
        if self.values.len() < 2 {
            return 0.0;
        }
        let m = self.mean();
        (self.values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / self.values.len() as f64)
            .sqrt()
    }
}

// Tiny local mean to avoid a dependency cycle with eadrl-linalg (timeseries
// sits below models in the dependency graph and deliberately does not pull
// the linalg crate in).
fn eadrl_linalg_mean(a: &[f64]) -> f64 {
    if a.is_empty() {
        0.0
    } else {
        a.iter().sum::<f64>() / a.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(values: Vec<f64>) -> TimeSeries {
        TimeSeries::new("test", Frequency::Other, values)
    }

    #[test]
    fn split_respects_paper_ratio() {
        let s = ts((0..100).map(|i| i as f64).collect());
        let (train, test) = s.split(0.75);
        assert_eq!(train.len(), 75);
        assert_eq!(test.len(), 25);
        assert_eq!(train[74], 74.0);
        assert_eq!(test[0], 75.0);
    }

    #[test]
    fn split_clamps_ratio() {
        let s = ts(vec![1.0, 2.0, 3.0]);
        assert_eq!(s.split(2.0).0.len(), 3);
        assert_eq!(s.split(-1.0).0.len(), 0);
    }

    #[test]
    fn push_extends_series() {
        let mut s = ts(vec![1.0]);
        s.push(2.0);
        assert_eq!(s.values(), &[1.0, 2.0]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn summary_statistics() {
        let s = ts(vec![2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_series_edge_cases() {
        let s = ts(vec![]);
        assert!(s.is_empty());
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
    }

    #[test]
    fn default_seasons_match_cadence() {
        assert_eq!(Frequency::Daily.default_season(), 7);
        assert_eq!(Frequency::Hourly.default_season(), 24);
        assert_eq!(Frequency::HalfHourly.default_season(), 48);
        assert_eq!(Frequency::TenMinutes.default_season(), 144);
    }
}
