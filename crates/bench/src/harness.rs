//! Repo-owned micro-benchmark harness behind `cargo bench`.
//!
//! The bench targets in `benches/` measure the quantities discussed in
//! the paper's runtime sections (Table III latencies, training cost).
//! This module is the engine: it calibrates an iteration count per
//! benchmark, collects timed samples, and prints a per-benchmark
//! summary — real measurements with `std::time` alone, no external
//! benchmarking framework (`std::time` is fair game here: `crates/bench`
//! is one of the two crates where the `determinism` lint permits
//! wall-clock reads, because runtime *is* the measured quantity).
//!
//! Scope is deliberately small compared to a statistical benchmarking
//! suite: no outlier classification, no regression tracking against
//! saved baselines — median/mean/min over a fixed sample count, printed
//! to stdout. The numbers feed the relative comparisons in
//! `EXPERIMENTS.md` (EA-DRL forward pass vs. baseline weight updates),
//! which depend on ratios between benchmarks run on the same machine,
//! not on absolute wall-clock claims.
//!
//! ```no_run
//! use eadrl_bench::harness::Harness;
//! use std::hint::black_box;
//!
//! let mut h = Harness::default().sample_size(20);
//! let mut group = h.benchmark_group("example");
//! group.bench_function("sum", |b| {
//!     b.iter(|| black_box((0..1000u64).sum::<u64>()))
//! });
//! group.finish();
//! ```

use std::time::{Duration, Instant};

/// Top-level bench configuration and entry point (one per bench
/// binary). Construct with [`Harness::default`], adjust via the
/// builder methods, then open [`benchmark_group`](Self::benchmark_group)s.
#[derive(Debug, Clone)]
pub struct Harness {
    measurement_time: Duration,
    warm_up_time: Duration,
    sample_size: usize,
}

impl Default for Harness {
    /// 2 s of measurement and 0.5 s of warm-up per benchmark, 20
    /// samples — the budget every bench target in this workspace uses.
    fn default() -> Self {
        Harness {
            measurement_time: Duration::from_secs(2),
            warm_up_time: Duration::from_millis(500),
            sample_size: 20,
        }
    }
}

impl Harness {
    /// Total measured time budget per benchmark (split across samples).
    #[must_use]
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    /// Time spent running the routine before measurement starts, which
    /// also calibrates the per-sample iteration count.
    #[must_use]
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up_time = d;
        self
    }

    /// Number of timed samples per benchmark.
    #[must_use]
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Opens a named group of related benchmarks; results print as
    /// `group/benchmark` lines.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> Group<'_> {
        let name = name.into();
        println!("\n## {name}");
        Group {
            harness: self,
            name,
            sample_size: None,
            completed: Vec::new(),
        }
    }
}

/// A named set of benchmarks sharing the harness budget.
#[derive(Debug)]
pub struct Group<'a> {
    harness: &'a mut Harness,
    name: String,
    sample_size: Option<usize>,
    completed: Vec<(String, Summary)>,
}

impl Group<'_> {
    /// Overrides the harness sample count for this group (used by the
    /// slow whole-episode benchmarks).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n.max(1));
        self
    }

    /// Measures `f`'s routine and prints one summary line.
    pub fn bench_function(
        &mut self,
        id: impl Into<String>,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let mut bencher = Bencher {
            measurement_time: self.harness.measurement_time,
            warm_up_time: self.harness.warm_up_time,
            sample_size: self.sample_size.unwrap_or(self.harness.sample_size),
            result: None,
        };
        f(&mut bencher);
        let id = id.into();
        match bencher.result {
            Some(m) => {
                println!("{}/{}  {}", self.name, id, m.render());
                self.completed.push((id, m.summary()));
            }
            None => println!(
                "{}/{}  (no measurement: bencher closure never called iter)",
                self.name, id,
            ),
        }
        self
    }

    /// Summaries of the benchmarks completed so far, in run order —
    /// for bench binaries that also emit a machine-readable report.
    pub fn measurements(&self) -> &[(String, Summary)] {
        &self.completed
    }

    /// Marks the group complete, returning every benchmark's summary in
    /// run order (call sites that only want the printed table may drop
    /// the return value).
    pub fn finish(self) -> Vec<(String, Summary)> {
        self.completed
    }
}

/// Median of the benchmark named `id` among a finished group's rows; NaN
/// when it is missing, so a gate comparing it fails.
pub fn median_ns(rows: &[(String, Summary)], id: &str) -> f64 {
    rows.iter()
        .find(|(name, _)| name == id)
        .map_or(f64::NAN, |(_, s)| s.median_ns)
}

/// Public per-iteration timing summary of one benchmark, in
/// nanoseconds — what [`Group::finish`] hands back for JSON reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median per-iteration time.
    pub median_ns: f64,
    /// Mean per-iteration time.
    pub mean_ns: f64,
    /// Fastest sample's per-iteration time.
    pub min_ns: f64,
}

/// Per-iteration timing summary, in nanoseconds.
#[derive(Debug, Clone, Copy)]
struct Measurement {
    median_ns: f64,
    mean_ns: f64,
    min_ns: f64,
    samples: usize,
    iters_per_sample: u64,
}

impl Measurement {
    fn summary(&self) -> Summary {
        Summary {
            median_ns: self.median_ns,
            mean_ns: self.mean_ns,
            min_ns: self.min_ns,
        }
    }

    fn render(&self) -> String {
        format!(
            "median {:>10}  mean {:>10}  min {:>10}  ({} samples x {} iters)",
            fmt_ns(self.median_ns),
            fmt_ns(self.mean_ns),
            fmt_ns(self.min_ns),
            self.samples,
            self.iters_per_sample,
        )
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Handed to each benchmark closure; call [`iter`](Self::iter) or
/// [`iter_batched`](Self::iter_batched) exactly once with the routine
/// to measure.
#[derive(Debug)]
pub struct Bencher {
    measurement_time: Duration,
    warm_up_time: Duration,
    sample_size: usize,
    result: Option<Measurement>,
}

impl Bencher {
    /// Measures `routine` directly: warm-up calibrates how many calls
    /// fit in one sample, then each sample times that many calls.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        // Warm-up doubles as calibration: count how many calls fit in
        // the warm-up window (at least one call always runs).
        let warm_start = Instant::now();
        let mut warm_calls: u64 = 0;
        loop {
            std::hint::black_box(routine());
            warm_calls += 1;
            if warm_start.elapsed() >= self.warm_up_time {
                break;
            }
        }
        let est_ns = warm_start.elapsed().as_nanos() as f64 / warm_calls as f64;

        // Split the measurement budget evenly across samples.
        let target_sample_ns = self.measurement_time.as_nanos() as f64 / self.sample_size as f64;
        let iters = ((target_sample_ns / est_ns.max(1.0)).round() as u64).max(1);

        let mut per_iter_ns = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(routine());
            }
            per_iter_ns.push(start.elapsed().as_nanos() as f64 / iters as f64);
        }
        self.result = Some(summarize(&mut per_iter_ns, iters));
    }

    /// Measures `routine` on a fresh input from `setup` each sample;
    /// `setup` time is excluded. Meant for routines that consume or
    /// mutate their input (model fits, full training episodes), which
    /// are milliseconds-scale, so each sample times a single call.
    pub fn iter_batched<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
    ) {
        // One warm-up invocation to populate caches and page in code.
        std::hint::black_box(routine(setup()));

        let mut per_iter_ns = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let input = setup();
            let start = Instant::now();
            std::hint::black_box(routine(input));
            per_iter_ns.push(start.elapsed().as_nanos() as f64);
        }
        self.result = Some(summarize(&mut per_iter_ns, 1));
    }
}

fn summarize(per_iter_ns: &mut [f64], iters: u64) -> Measurement {
    per_iter_ns.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = per_iter_ns.len();
    let median_ns = if n % 2 == 1 {
        per_iter_ns[n / 2]
    } else {
        0.5 * (per_iter_ns[n / 2 - 1] + per_iter_ns[n / 2])
    };
    Measurement {
        median_ns,
        mean_ns: per_iter_ns.iter().sum::<f64>() / n as f64,
        min_ns: per_iter_ns[0],
        samples: n,
        iters_per_sample: iters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_measures_and_reports() {
        let mut h = Harness::default()
            .measurement_time(Duration::from_millis(50))
            .warm_up_time(Duration::from_millis(5))
            .sample_size(5);
        let mut group = h.benchmark_group("harness_selftest");
        let mut calls = 0u64;
        group.bench_function("counting", |b| {
            b.iter(|| {
                calls += 1;
                std::hint::black_box(calls)
            })
        });
        assert_eq!(group.measurements().len(), 1);
        let summaries = group.finish();
        assert!(calls > 5, "routine should run many times, ran {calls}");
        assert_eq!(summaries[0].0, "counting");
        assert!(summaries[0].1.min_ns <= summaries[0].1.median_ns);
        assert!(summaries[0].1.median_ns > 0.0);
    }

    #[test]
    fn iter_batched_runs_setup_per_sample() {
        let mut h = Harness::default()
            .measurement_time(Duration::from_millis(10))
            .warm_up_time(Duration::from_millis(1))
            .sample_size(4);
        let mut group = h.benchmark_group("harness_selftest_batched");
        let mut setups = 0u64;
        group.bench_function("batched", |b| {
            b.iter_batched(
                || {
                    setups += 1;
                    vec![1u64; 16]
                },
                |v| v.iter().sum::<u64>(),
            )
        });
        group.finish();
        // One warm-up setup + one per sample.
        assert_eq!(setups, 5);
    }

    #[test]
    fn group_sample_size_override_wins() {
        let mut h = Harness::default()
            .measurement_time(Duration::from_millis(10))
            .warm_up_time(Duration::from_millis(1))
            .sample_size(7);
        let mut group = h.benchmark_group("override");
        group.sample_size(3);
        let mut setups = 0u64;
        group.bench_function("x", |b| {
            b.iter_batched(|| setups += 1, |()| std::hint::black_box(0u64))
        });
        assert_eq!(setups, 4); // warm-up + 3 samples
    }

    #[test]
    fn formatting_picks_sensible_units() {
        assert_eq!(fmt_ns(12.3), "12.3 ns");
        assert_eq!(fmt_ns(12_300.0), "12.300 us");
        assert_eq!(fmt_ns(12_300_000.0), "12.300 ms");
        assert_eq!(fmt_ns(2_500_000_000.0), "2.500 s");
    }
}
