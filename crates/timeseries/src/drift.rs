//! Concept-drift detection.
//!
//! The DEMSC baseline ("drift-aware combination of Top.sel and Clus") only
//! re-runs its expensive clustering/selection machinery when a drift is
//! detected in the stream of model errors, and the online policy refresh
//! can fire on the same signal. [`PageHinkley`] provides that
//! informed-update mechanism for both.

/// Page–Hinkley test for detecting increases in the mean of a stream.
///
/// Classic formulation: maintain the cumulative deviation of observations
/// from their running mean (minus a tolerance `delta`), and signal drift
/// when it exceeds its running minimum by more than `lambda`.
#[derive(Debug, Clone)]
pub struct PageHinkley {
    delta: f64,
    lambda: f64,
    count: usize,
    running_mean: f64,
    cumulative: f64,
    min_cumulative: f64,
}

impl PageHinkley {
    /// Creates a detector.
    ///
    /// * `delta` — magnitude tolerance (small positive; absorbs noise),
    /// * `lambda` — detection threshold (larger = fewer, later detections).
    pub fn new(delta: f64, lambda: f64) -> Self {
        PageHinkley {
            delta,
            lambda,
            count: 0,
            running_mean: 0.0,
            cumulative: 0.0,
            min_cumulative: 0.0,
        }
    }

    /// Feeds one observation; returns `true` when drift is signalled.
    /// On detection the detector resets itself.
    ///
    /// Non-finite observations are ignored without touching any state: a
    /// single NaN error sample would otherwise poison the running mean
    /// and silence the detector forever — exactly the failure mode the
    /// serving path's degradation harness injects.
    pub fn update(&mut self, value: f64) -> bool {
        if !value.is_finite() {
            return false;
        }
        self.count += 1;
        self.running_mean += (value - self.running_mean) / self.count as f64;
        self.cumulative += value - self.running_mean - self.delta;
        self.min_cumulative = self.min_cumulative.min(self.cumulative);
        if self.cumulative - self.min_cumulative > self.lambda {
            self.reset();
            true
        } else {
            false
        }
    }

    /// Clears all internal state.
    pub fn reset(&mut self) {
        self.count = 0;
        self.running_mean = 0.0;
        self.cumulative = 0.0;
        self.min_cumulative = 0.0;
    }

    /// Number of observations since the last reset.
    pub fn observations(&self) -> usize {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_hinkley_silent_on_stationary_stream() {
        let mut ph = PageHinkley::new(0.05, 5.0);
        for i in 0..500 {
            let v = if i % 2 == 0 { 0.9 } else { 1.1 }; // mean 1, tiny wiggle
            assert!(!ph.update(v), "false positive at {i}");
        }
        assert_eq!(ph.observations(), 500);
    }

    #[test]
    fn page_hinkley_detects_mean_increase() {
        let mut ph = PageHinkley::new(0.05, 5.0);
        for _ in 0..100 {
            assert!(!ph.update(1.0));
        }
        let mut detected = false;
        for _ in 0..100 {
            if ph.update(3.0) {
                detected = true;
                break;
            }
        }
        assert!(detected, "drift not detected after mean shift");
        // Detector reset after detection.
        assert_eq!(ph.observations(), 0);
    }

    #[test]
    fn page_hinkley_reset_clears_state() {
        let mut ph = PageHinkley::new(0.0, 1.0);
        ph.update(10.0);
        ph.reset();
        assert_eq!(ph.observations(), 0);
    }

    #[test]
    fn non_finite_observations_do_not_poison_detectors() {
        let mut ph = PageHinkley::new(0.05, 5.0);
        for _ in 0..50 {
            ph.update(1.0);
        }
        assert!(!ph.update(f64::NAN));
        assert!(!ph.update(f64::INFINITY));
        assert_eq!(ph.observations(), 50, "non-finite values must not count");
        // The detector still works after the bad samples.
        let mut detected = false;
        for _ in 0..100 {
            if ph.update(3.0) {
                detected = true;
                break;
            }
        }
        assert!(detected, "NaN input disabled Page–Hinkley");
    }
}
