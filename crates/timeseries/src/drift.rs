//! Concept-drift detectors.
//!
//! The DEMSC baseline ("drift-aware combination of Top.sel and Clus") only
//! re-runs its expensive clustering/selection machinery when a drift is
//! detected in the stream of model errors. These detectors provide that
//! informed-update mechanism.

use crate::window::SlideWindow;

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

/// A simple adaptive-window (ADWIN-flavoured) mean-shift detector.
///
/// Keeps a bounded window of recent values; on each update it tests every
/// split of the window into "old | recent" halves and signals drift when
/// the two sub-window means differ by more than a Hoeffding-style bound.
/// On detection the older half is dropped, so the window adapts.
#[derive(Debug, Clone)]
pub struct AdaptiveWindowDetector {
    window: SlideWindow,
    confidence: f64,
}

impl AdaptiveWindowDetector {
    /// Creates a detector with window capacity `max_len` and confidence
    /// parameter `confidence` in `(0, 1)` (smaller = more sensitive bound
    /// denominator; typical value 0.002 as in ADWIN).
    pub fn new(max_len: usize, confidence: f64) -> Self {
        AdaptiveWindowDetector {
            window: SlideWindow::new(max_len.max(4)),
            confidence: confidence.clamp(1e-6, 0.999),
        }
    }

    /// Feeds one observation; returns `true` when a mean shift is detected.
    ///
    /// Non-finite observations are ignored without entering the window
    /// (same rationale as [`PageHinkley::update`]: one NaN would make
    /// every sub-window mean NaN and disable detection permanently).
    pub fn update(&mut self, value: f64) -> bool {
        if !value.is_finite() {
            return false;
        }
        self.window.slide(value);
        let n = self.window.len();
        if n < 8 {
            return false;
        }
        // Range of the window normalizes the Hoeffding bound.
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &v in self.window.iter() {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        let range = (hi - lo).max(1e-12);
        let total: f64 = self.window.iter().sum();
        let mut left_sum = 0.0;
        for split in 4..(n - 3) {
            left_sum += self.window[split - 1];
            if split == 4 {
                // left_sum currently only holds element 3; rebuild properly.
                left_sum = self.window[..split].iter().sum();
            }
            let n0 = split as f64;
            let n1 = (n - split) as f64;
            let mean0 = left_sum / n0;
            let mean1 = (total - left_sum) / n1;
            let m = 1.0 / (1.0 / n0 + 1.0 / n1);
            let eps = range * ((1.0 / (2.0 * m)) * (4.0 * n as f64 / self.confidence).ln()).sqrt();
            if (mean0 - mean1).abs() > eps {
                // Drop the stale half and signal.
                self.window.advance(split);
                return true;
            }
        }
        false
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
    fn adaptive_window_detects_level_shift() {
        let mut d = AdaptiveWindowDetector::new(200, 0.002);
        for _ in 0..100 {
            assert!(!d.update(0.0));
        }
        let mut detected = false;
        for _ in 0..100 {
            if d.update(10.0) {
                detected = true;
                break;
            }
        }
        assert!(detected);
        // After drift the stale half is dropped.
        assert!(d.window.len() < 200);
    }

    #[test]
    fn adaptive_window_silent_on_constant_stream() {
        let mut d = AdaptiveWindowDetector::new(100, 0.002);
        for i in 0..300 {
            assert!(!d.update(5.0), "false positive at {i}");
        }
        let mean = d.window.iter().sum::<f64>() / d.window.len() as f64;
        assert!((mean - 5.0).abs() < 1e-12);
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

        let mut d = AdaptiveWindowDetector::new(100, 0.002);
        for _ in 0..50 {
            d.update(0.0);
        }
        assert!(!d.update(f64::NAN));
        assert_eq!(d.window.len(), 50, "NaN must not enter the window");
        let mut detected = false;
        for _ in 0..100 {
            if d.update(10.0) {
                detected = true;
                break;
            }
        }
        assert!(detected, "NaN input disabled the adaptive window");
    }

    #[test]
    fn adaptive_window_caps_length() {
        let mut d = AdaptiveWindowDetector::new(50, 0.002);
        for i in 0..500 {
            d.update((i % 3) as f64);
        }
        assert!(d.window.len() <= 50);
    }
}
