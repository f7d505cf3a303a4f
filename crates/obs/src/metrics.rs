//! Lock-free metrics primitives and the process-wide registry.
//!
//! All primitives are safe to hammer from many threads: counters and
//! gauges are single atomics, histograms are arrays of atomic buckets
//! (log-spaced, ~2.2 % relative resolution) so recording never takes a
//! lock.

use crate::event::{Event, EventKind, Level};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge (stored as `f64` bits).
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the current value.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Histogram layout: `SUB` log-spaced buckets per power of two, covering
/// `2^-OCTAVE_MIN .. 2^OCTAVE_MAX`. 16 sub-buckets per octave bound the
/// relative quantile error by `2^(1/32) - 1 ≈ 2.2 %`.
const SUB: usize = 16;
const OCTAVES_BELOW: i32 = 40; // down to ~9e-13
const OCTAVES_ABOVE: i32 = 40; // up to ~1e12
const BUCKETS: usize = ((OCTAVES_BELOW + OCTAVES_ABOVE) as usize) * SUB;

/// A streaming histogram over positive magnitudes with approximate
/// quantiles. Values `<= 0` (and non-finite values) are tallied in a
/// side count and surface as the recorded minimum in quantile queries —
/// losses, durations, norms and entropies are all non-negative, so the
/// side count stays a corner case.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    nonpos: AtomicU64,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
    buckets: Vec<AtomicU64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            nonpos: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

fn bucket_index(v: f64) -> usize {
    let idx = ((v.log2() + OCTAVES_BELOW as f64) * SUB as f64).floor();
    idx.clamp(0.0, (BUCKETS - 1) as f64) as usize
}

fn bucket_value(idx: usize) -> f64 {
    // Geometric midpoint of the bucket.
    ((idx as f64 + 0.5) / SUB as f64 - OCTAVES_BELOW as f64).exp2()
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one observation.
    pub fn record(&self, v: f64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        if !v.is_finite() || v <= 0.0 {
            self.nonpos.fetch_add(1, Ordering::Relaxed);
            if v.is_finite() {
                self.update_extremes(v);
                self.add_to_sum(v);
            }
            return;
        }
        self.update_extremes(v);
        self.add_to_sum(v);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    fn add_to_sum(&self, v: f64) {
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    fn update_extremes(&self, v: f64) {
        let mut cur = self.min_bits.load(Ordering::Relaxed);
        while v < f64::from_bits(cur) {
            match self.min_bits.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        let mut cur = self.max_bits.load(Ordering::Relaxed);
        while v > f64::from_bits(cur) {
            match self.max_bits.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of the finite recorded observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Mean of the finite recorded observations (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            f64::NAN
        } else {
            self.sum() / n as f64
        }
    }

    /// Smallest finite observation (`NaN` when empty).
    pub fn min(&self) -> f64 {
        let v = f64::from_bits(self.min_bits.load(Ordering::Relaxed));
        if v.is_finite() {
            v
        } else {
            f64::NAN
        }
    }

    /// Largest finite observation (`NaN` when empty).
    pub fn max(&self) -> f64 {
        let v = f64::from_bits(self.max_bits.load(Ordering::Relaxed));
        if v.is_finite() {
            v
        } else {
            f64::NAN
        }
    }

    /// Approximate `q`-quantile (`0 <= q <= 1`), `NaN` when empty.
    /// Relative error is bounded by the bucket resolution (~2.2 %).
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return f64::NAN;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * (total - 1) as f64).round() as u64;
        let mut seen = self.nonpos.load(Ordering::Relaxed);
        if target < seen {
            // The non-positive side count sits below every bucket.
            let lo = self.min();
            return if lo.is_finite() { lo.min(0.0) } else { 0.0 };
        }
        for (idx, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if target < seen {
                // Clamp the bucket midpoint to the observed extremes so
                // tail quantiles never exceed the recorded range.
                return bucket_value(idx).clamp(self.min().min(self.max()), self.max());
            }
        }
        self.max()
    }

    /// A consistent summary of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            mean: self.mean(),
            min: self.min(),
            max: self.max(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }
}

/// Point-in-time histogram summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of finite observations.
    pub sum: f64,
    /// Mean of finite observations.
    pub mean: f64,
    /// Smallest finite observation.
    pub min: f64,
    /// Largest finite observation.
    pub max: f64,
    /// Median estimate.
    pub p50: f64,
    /// 90th-percentile estimate.
    pub p90: f64,
    /// 99th-percentile estimate.
    pub p99: f64,
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A named collection of metrics. Handles are `Arc`s: look them up once
/// and cache them on hot paths.
#[derive(Default)]
pub struct Registry {
    map: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter registered under `name`, created on first use.
    ///
    /// # Panics
    /// Panics when `name` is already registered as a different kind.
    // eadrl-lint: allow(panic-reachable): kind-mismatch registration is a programmer error, documented under # Panics
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.map.lock().unwrap();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric '{name}' already registered with a different kind"),
        }
    }

    /// The gauge registered under `name`, created on first use.
    ///
    /// # Panics
    /// Panics when `name` is already registered as a different kind.
    // eadrl-lint: allow(panic-reachable): kind-mismatch registration is a programmer error, documented under # Panics
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.map.lock().unwrap();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric '{name}' already registered with a different kind"),
        }
    }

    /// The histogram registered under `name`, created on first use.
    ///
    /// # Panics
    /// Panics when `name` is already registered as a different kind.
    // eadrl-lint: allow(panic-reachable): kind-mismatch registration is a programmer error, documented under # Panics
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.map.lock().unwrap();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric '{name}' already registered with a different kind"),
        }
    }

    /// One [`EventKind::Metric`] event per registered metric, in name
    /// order — the exportable state of the registry.
    // eadrl-lint: allow(unreachable-pub): no caller outside tests yet; ROADMAP item 5's server health snapshot builds on it
    // eadrl-lint: allow(panic-reachable): lock poisoning requires a prior panic elsewhere; aborting is the correct response
    pub fn snapshot_events(&self) -> Vec<Event> {
        let map = self.map.lock().unwrap();
        map.iter()
            .map(|(name, metric)| {
                let e = Event::new(name.clone(), EventKind::Metric, Level::Info);
                match metric {
                    Metric::Counter(c) => e.field("type", "counter").field("value", c.get()),
                    Metric::Gauge(g) => e.field("type", "gauge").field("value", g.get()),
                    Metric::Histogram(h) => {
                        let s = h.snapshot();
                        e.field("type", "histogram")
                            .field("count", s.count)
                            .field("sum", s.sum)
                            .field("mean", s.mean)
                            .field("min", s.min)
                            .field("max", s.max)
                            .field("p50", s.p50)
                            .field("p90", s.p90)
                            .field("p99", s.p99)
                    }
                }
            })
            .collect()
    }
}

static REGISTRY: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry.
pub fn global_registry() -> &'static Registry {
    REGISTRY.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(-2.5);
        assert_eq!(g.get(), -2.5);
    }

    #[test]
    fn histogram_summary_statistics_are_exact() {
        let h = Histogram::new();
        for v in [1.0, 2.0, 3.0, 4.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 10.0).abs() < 1e-12);
        assert!((h.mean() - 2.5).abs() < 1e-12);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 4.0);
    }

    #[test]
    fn histogram_quantiles_bound_relative_error() {
        let h = Histogram::new();
        // 10_000 evenly spaced values in (0, 1].
        let n = 10_000;
        for i in 1..=n {
            h.record(i as f64 / n as f64);
        }
        for (q, truth) in [(0.5, 0.5), (0.9, 0.9), (0.99, 0.99)] {
            let est = h.quantile(q);
            let rel = (est - truth).abs() / truth;
            assert!(rel < 0.03, "q{q}: estimate {est} vs {truth} (rel {rel})");
        }
    }

    #[test]
    fn histogram_handles_wide_dynamic_range() {
        let h = Histogram::new();
        for exp in -20..=20 {
            h.record((exp as f64).exp2());
        }
        let p50 = h.quantile(0.5);
        assert!((p50 - 1.0).abs() / 1.0 < 0.05, "p50 {p50}");
        assert!(h.quantile(1.0) <= h.max());
        assert!(h.quantile(0.0) >= h.min() * 0.95);
    }

    #[test]
    fn histogram_tolerates_nonpositive_and_nonfinite() {
        let h = Histogram::new();
        h.record(0.0);
        h.record(-1.0);
        h.record(f64::NAN);
        h.record(2.0);
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), -1.0);
        assert_eq!(h.max(), 2.0);
        assert!(h.quantile(0.0) <= 0.0);
        assert!(h.quantile(1.0) <= 2.0);
    }

    #[test]
    fn empty_histogram_is_nan() {
        let h = Histogram::new();
        assert!(h.quantile(0.5).is_nan());
        assert!(h.mean().is_nan());
        assert!(h.min().is_nan());
    }

    #[test]
    fn registry_reuses_handles_and_snapshots() {
        let r = Registry::new();
        r.counter("a").add(2);
        r.counter("a").inc();
        r.gauge("b").set(1.5);
        r.histogram("c").record(3.0);
        assert_eq!(r.counter("a").get(), 3);
        let events = r.snapshot_events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].name, "a");
        assert_eq!(events[0].kind, EventKind::Metric);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn registry_kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }
}
