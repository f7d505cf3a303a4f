//! Repo-owned micro-benchmark harness behind `cargo bench`.
//!
//! A bench target in `benches/` declares its cases and its gates; this
//! module does the rest. It picks the measurement budget, calibrates an
//! iteration count per case, collects timed samples, prints a summary
//! line per case, writes the row report and checks the gates — real
//! measurements with `std::time` alone, no external benchmarking
//! framework (`std::time` is fair game here: `crates/bench` is one of the
//! two crates where the `determinism` lint permits wall-clock reads,
//! because runtime *is* the measured quantity).
//!
//! Every bench target takes the same flags (combinable), read by
//! [`Harness::new`]:
//! - `--quick`   the CI smoke budget: 300 ms of measurement, 100 ms of
//!   warm-up and 10 samples per case, instead of 2 s, 500 ms and 20;
//! - `--json`    print the row report on stdout after the summary lines;
//! - `--out <p>` write the row report to the file `<p>` (a relative path
//!   resolves against the workspace root, because cargo runs bench
//!   binaries from the package directory);
//! - `--check`   evaluate the declared [`Gate`]s and exit 1 if one fails.
//!
//! The row report is one JSON document with one row per finished case,
//! in run order:
//!
//! ```text
//! {"bench":"refresh","cores":2,"rows":[{"case":"refresh_latency/cold","median_ns":83596364.5},…]}
//! ```
//!
//! `median_ns` is the median time of one call of the routine the case
//! times, whatever that routine does (an epoch, 100 DDPG updates, one
//! cold lint run). Descriptive scalars such as the kernels' `simd` may sit
//! beside `rows`; derived ratios may not — a report carries measurements,
//! and a reader divides two rows.
//!
//! Scope is deliberately small compared to a statistical benchmarking
//! suite: no outlier classification and no regression tracking against
//! saved baselines, just median/mean/min over a fixed sample count.
//!
//! ```no_run
//! use eadrl_bench::harness::{Gate, Harness};
//! use std::hint::black_box;
//!
//! let mut h = Harness::new("example");
//! let mut group = h.benchmark_group("sum");
//! group.bench_function("iter", |b| {
//!     b.iter(|| black_box((0..1000u64).sum::<u64>()))
//! });
//! group.bench_function("formula", |b| {
//!     b.iter(|| black_box(999 * 1000 / 2u64))
//! });
//! h.finish(&[Gate::at_most("sum/formula", "sum/iter")]);
//! ```

use eadrl_obs::json::JsonValue;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// How long each case is measured.
#[derive(Debug, Clone, Copy)]
struct Budget {
    /// Total measured time per case, split across the samples.
    measurement: Duration,
    /// Time spent running the routine before measuring, which also
    /// calibrates the per-sample iteration count.
    warm_up: Duration,
    /// Timed samples per case.
    samples: usize,
}

/// The budget of a full run, which the committed reports use.
const FULL: Budget = Budget {
    measurement: Duration::from_secs(2),
    warm_up: Duration::from_millis(500),
    samples: 20,
};

/// The `--quick` budget of CI smoke runs.
const QUICK: Budget = Budget {
    measurement: Duration::from_millis(300),
    warm_up: Duration::from_millis(100),
    samples: 10,
};

/// One bench binary's measurements, report and gates. Construct with
/// [`Harness::new`], open [`benchmark_group`](Self::benchmark_group)s,
/// then [`finish`](Self::finish).
#[derive(Debug)]
pub struct Harness {
    bench: &'static str,
    budget: Budget,
    json: bool,
    check: bool,
    out: Option<PathBuf>,
    scalars: Vec<(String, JsonValue)>,
    /// `(group/function, median_ns)` per finished case, in run order.
    rows: Vec<(String, f64)>,
}

impl Harness {
    /// The harness of the bench target `bench` (the report's `"bench"`
    /// field), configured from the command line: `--quick`, `--json`,
    /// `--out <p>` and `--check` (see the module docs).
    pub fn new(bench: &'static str) -> Harness {
        let args: Vec<String> = std::env::args().collect();
        let has = |flag: &str| args.iter().any(|a| a == flag);
        let out = args
            .iter()
            .position(|a| a == "--out")
            .and_then(|i| args.get(i + 1))
            .map(|raw| workspace_path(raw));
        Harness {
            bench,
            budget: if has("--quick") { QUICK } else { FULL },
            json: has("--json"),
            check: has("--check"),
            out,
            scalars: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// A flagless harness whose cases finish in milliseconds, for tests.
    #[cfg(test)]
    fn tiny() -> Harness {
        Harness {
            bench: "selftest",
            budget: Budget {
                measurement: Duration::from_millis(10),
                warm_up: Duration::from_millis(1),
                samples: 4,
            },
            json: false,
            check: false,
            out: None,
            scalars: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Opens a named group of related cases; each case's row is
    /// `group/function`.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> Group<'_> {
        let name = name.into();
        println!("\n## {name}");
        Group {
            harness: self,
            name,
        }
    }

    /// Adds a descriptive scalar beside the report's rows, such as which
    /// compiled kernel copy ran. Never a ratio of two rows.
    pub fn describe(&mut self, key: &str, value: impl Into<JsonValue>) {
        self.scalars.push((key.to_string(), value.into()));
    }

    /// Ends the run: writes the row report to `--out`, prints it under
    /// `--json` and, under `--check`, prints every gate's verdict and
    /// exits 1 if one failed. Exits 1 as well when `--out` cannot be
    /// written.
    pub fn finish(self, gates: &[Gate]) {
        let doc = self.report();
        if let Some(path) = &self.out {
            if let Err(e) = std::fs::write(path, format!("{doc}\n")) {
                eprintln!("failed to write {}: {e}", path.display());
                std::process::exit(1);
            }
            eprintln!("wrote {}", path.display());
        }
        if self.json {
            println!("{doc}");
        }
        if !self.check {
            return;
        }
        let mut failed = false;
        for verdict in gates.iter().map(|g| g.verdict(&self.rows)) {
            match verdict {
                Ok(text) => eprintln!("check passed: {text}"),
                Err(text) => {
                    eprintln!("check FAILED: {text}");
                    failed = true;
                }
            }
        }
        if failed {
            std::process::exit(1);
        }
    }

    /// The row report: `{"bench","cores",<scalars>,"rows":[{"case","median_ns"}]}`.
    fn report(&self) -> String {
        let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
        let rows = self
            .rows
            .iter()
            .map(|(case, ns)| {
                JsonValue::Obj(vec![
                    ("case".to_string(), case.as_str().into()),
                    ("median_ns".to_string(), (*ns).into()),
                ])
            })
            .collect();
        let mut doc = vec![
            ("bench".to_string(), self.bench.into()),
            ("cores".to_string(), cores.into()),
        ];
        doc.extend(self.scalars.iter().cloned());
        doc.push(("rows".to_string(), JsonValue::Arr(rows)));
        JsonValue::Obj(doc).to_json()
    }
}

/// `raw` as given when absolute, else under the workspace root.
fn workspace_path(raw: &str) -> PathBuf {
    let path = PathBuf::from(raw);
    if path.is_absolute() {
        return path;
    }
    match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(dir) => PathBuf::from(dir).join("../..").join(path),
        Err(_) => path,
    }
}

/// A `--check` gate over the finished rows: a case's median must not
/// exceed another case's median, or a fixed budget. A tie passes; a
/// missing case or a NaN median fails.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    case: &'static str,
    limit: Limit,
}

#[derive(Debug, Clone, Copy)]
enum Limit {
    Case(&'static str),
    Budget(Duration),
}

impl Gate {
    /// `case` ≤ `other`: `case`'s median must not exceed `other`'s.
    pub const fn at_most(case: &'static str, other: &'static str) -> Gate {
        Gate {
            case,
            limit: Limit::Case(other),
        }
    }

    /// `case` ≤ `budget`: `case`'s median must not exceed `budget`.
    pub const fn within(case: &'static str, budget: Duration) -> Gate {
        Gate {
            case,
            limit: Limit::Budget(budget),
        }
    }

    /// `Ok` with the comparison when the gate holds over `rows`, `Err`
    /// with it when not.
    fn verdict(&self, rows: &[(String, f64)]) -> Result<String, String> {
        let median = |case: &str| rows.iter().find(|(c, _)| c == case).map(|&(_, ns)| ns);
        let value = median(self.case);
        let (limit_name, limit) = match self.limit {
            Limit::Case(other) => (other, median(other)),
            Limit::Budget(budget) => ("budget", Some(budget.as_nanos() as f64)),
        };
        let show = |ns: Option<f64>| ns.map_or_else(|| "missing".to_string(), fmt_ns);
        let text = format!(
            "{} ({}) <= {limit_name} ({})",
            self.case,
            show(value),
            show(limit),
        );
        match (value, limit) {
            (Some(v), Some(l)) if v <= l => Ok(text),
            _ => Err(text),
        }
    }
}

/// A named set of cases sharing the harness budget.
#[derive(Debug)]
pub struct Group<'a> {
    harness: &'a mut Harness,
    name: String,
}

impl Group<'_> {
    /// Measures `f`'s routine, prints one summary line and records the
    /// `group/id` row.
    pub fn bench_function(
        &mut self,
        id: impl Into<String>,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let mut bencher = Bencher {
            budget: self.harness.budget,
            result: None,
        };
        f(&mut bencher);
        let case = format!("{}/{}", self.name, id.into());
        match bencher.result {
            Some(m) => {
                println!("{case}  {}", m.render());
                self.harness.rows.push((case, m.median_ns));
            }
            None => println!("{case}  (no measurement: bencher closure never called iter)"),
        }
        self
    }
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

/// Handed to each case's closure; call [`iter`](Self::iter),
/// [`iter_batched`](Self::iter_batched) or [`once`](Self::once) exactly
/// once with the routine to measure.
#[derive(Debug)]
pub struct Bencher {
    budget: Budget,
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
            if warm_start.elapsed() >= self.budget.warm_up {
                break;
            }
        }
        let est_ns = warm_start.elapsed().as_nanos() as f64 / warm_calls as f64;

        // Split the measurement budget evenly across samples.
        let samples = self.budget.samples;
        let target_sample_ns = self.budget.measurement.as_nanos() as f64 / samples as f64;
        let iters = ((target_sample_ns / est_ns.max(1.0)).round() as u64).max(1);

        let mut per_iter_ns = Vec::with_capacity(samples);
        for _ in 0..samples {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(routine());
            }
            per_iter_ns.push(start.elapsed().as_nanos() as f64 / iters as f64);
        }
        self.result = Some(summarize(&mut per_iter_ns, iters));
    }

    /// Measures `routine` on a fresh input from `setup` each sample.
    /// Meant for routines that mutate their input (model fits, full
    /// training episodes), which are milliseconds-scale, so each sample
    /// times a single call. Only the call is timed: `setup` runs before
    /// the clock starts, and the input, which the routine borrows, and
    /// the routine's output are dropped after it stops, as in
    /// [`once`](Self::once).
    pub fn iter_batched<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(&mut I) -> O,
    ) {
        // One warm-up invocation to populate caches and page in code.
        std::hint::black_box(routine(&mut setup()));

        let samples = self.budget.samples;
        let mut per_iter_ns = Vec::with_capacity(samples);
        for _ in 0..samples {
            let mut input = setup();
            let start = Instant::now();
            let out = std::hint::black_box(routine(&mut input));
            per_iter_ns.push(start.elapsed().as_nanos() as f64);
            drop((input, out));
        }
        self.result = Some(summarize(&mut per_iter_ns, 1));
    }

    /// Times a single call of `routine` with no warm-up: a cold-start
    /// cost, which warm-up and repeated samples would hide. Run such a
    /// case first, while the process's caches are as cold as a fresh
    /// invocation's. The routine's output is dropped after the clock
    /// stops, so tearing it down is not part of the time.
    pub fn once<O>(&mut self, routine: impl FnOnce() -> O) {
        let start = Instant::now();
        let out = std::hint::black_box(routine());
        let ns = start.elapsed().as_nanos() as f64;
        drop(out);
        self.result = Some(summarize(&mut [ns], 1));
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
    use eadrl_obs::json::parse;

    /// Whether `gate` holds over rows made of `cases`.
    fn holds(gate: Gate, cases: &[(&str, f64)]) -> bool {
        let rows: Vec<(String, f64)> = cases.iter().map(|&(c, ns)| (c.to_string(), ns)).collect();
        gate.verdict(&rows).is_ok()
    }

    #[test]
    fn iter_batched_times_neither_teardown() {
        /// Sleeps 5 ms when dropped.
        struct SlowDrop;
        impl Drop for SlowDrop {
            fn drop(&mut self) {
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        let mut b = Bencher {
            budget: Harness::tiny().budget,
            result: None,
        };
        b.iter_batched(|| SlowDrop, |_input| SlowDrop);
        let m = b.result.expect("iter_batched records a measurement");
        assert_eq!(m.samples, 4);
        assert!(
            m.median_ns < 1e6,
            "a drop was timed: median {} ns",
            m.median_ns
        );
    }

    #[test]
    fn iter_measures_and_reports() {
        let mut h = Harness::tiny();
        let mut b = Bencher {
            budget: h.budget,
            result: None,
        };
        let mut calls = 0u64;
        b.iter(|| {
            calls += 1;
            std::hint::black_box(calls)
        });
        assert!(calls > 5, "routine should run many times, ran {calls}");
        let m = b.result.expect("iter records a measurement");
        assert!(m.min_ns <= m.median_ns);
        assert!(m.median_ns > 0.0);

        h.benchmark_group("harness_selftest")
            .bench_function("counting", |b| b.iter(|| std::hint::black_box(1u64)));
        assert_eq!(h.rows.len(), 1);
        assert_eq!(h.rows[0].0, "harness_selftest/counting");
        assert!(h.rows[0].1 > 0.0);
    }

    #[test]
    fn iter_batched_runs_setup_per_sample() {
        let mut h = Harness::tiny();
        let mut setups = 0u64;
        h.benchmark_group("harness_selftest_batched")
            .bench_function("batched", |b| {
                b.iter_batched(
                    || {
                        setups += 1;
                        vec![1u64; 16]
                    },
                    |v| v.iter().sum::<u64>(),
                )
            });
        // One warm-up setup + one per sample.
        assert_eq!(setups, 5);
        assert_eq!(h.rows.len(), 1);
    }

    #[test]
    fn once_runs_the_routine_exactly_once() {
        let mut h = Harness::tiny();
        let mut calls = 0u64;
        h.benchmark_group("cold").bench_function("run", |b| {
            b.once(|| {
                calls += 1;
                std::thread::sleep(Duration::from_millis(1));
            })
        });
        assert_eq!(calls, 1);
        assert!(h.rows[0].1 >= 1e6, "one 1 ms call, got {} ns", h.rows[0].1);
    }

    #[test]
    fn report_holds_bench_cores_and_one_row_per_case_in_run_order() {
        let mut h = Harness::tiny();
        let mut group = h.benchmark_group("g1");
        group.bench_function("b", |b| b.iter(|| std::hint::black_box(1u64)));
        group.bench_function("a", |b| b.iter(|| std::hint::black_box(2u64)));
        h.benchmark_group("g0")
            .bench_function("skipped", |_| {})
            .bench_function("c", |b| b.iter_batched(|| 3u64, |x| *x + 1));
        h.describe("simd", "portable");

        let doc = parse(&h.report()).expect("the report is valid JSON");
        assert_eq!(
            doc.get("bench").and_then(JsonValue::as_str),
            Some("selftest")
        );
        let cores = doc.get("cores").and_then(JsonValue::as_f64).expect("cores");
        assert_eq!(cores.fract(), 0.0, "cores is an integer");
        assert_eq!(
            doc.get("simd").and_then(JsonValue::as_str),
            Some("portable")
        );
        let rows = doc.get("rows").and_then(JsonValue::as_arr).expect("rows");
        let cases: Vec<&str> = rows
            .iter()
            .filter_map(|r| r.get("case").and_then(JsonValue::as_str))
            .collect();
        // A case whose closure never timed anything has no row.
        assert_eq!(cases, ["g1/b", "g1/a", "g0/c"]);
        for row in rows {
            let ns = row.get("median_ns").and_then(JsonValue::as_f64);
            assert!(ns.is_some_and(|ns| ns > 0.0), "{row}");
        }
    }

    #[test]
    fn case_gate_fails_on_a_slower_case_nan_or_a_missing_case_and_passes_a_tie() {
        let gate = Gate::at_most("g/new", "g/old");
        assert!(holds(gate, &[("g/new", 5.0), ("g/old", 9.0)]));
        assert!(holds(gate, &[("g/new", 9.0), ("g/old", 9.0)]));
        assert!(!holds(gate, &[("g/new", 9.5), ("g/old", 9.0)]));
        assert!(!holds(gate, &[("g/new", f64::NAN), ("g/old", 9.0)]));
        assert!(!holds(gate, &[("g/new", 5.0), ("g/old", f64::NAN)]));
        assert!(!holds(gate, &[("g/old", 9.0)]));
        assert!(!holds(gate, &[("g/new", 5.0)]));
        let verdict = gate.verdict(&[]);
        assert!(
            verdict.as_ref().is_err_and(|t| t.contains("missing")),
            "{verdict:?}"
        );
    }

    #[test]
    fn budget_gate_fails_over_budget() {
        let gate = Gate::within("lint/cold", Duration::from_millis(5));
        assert!(holds(gate, &[("lint/cold", 4.9e6)]));
        assert!(holds(gate, &[("lint/cold", 5e6)]));
        assert!(!holds(gate, &[("lint/cold", 5.1e6)]));
        assert!(!holds(gate, &[("lint/cold", f64::NAN)]));
        assert!(!holds(gate, &[]));
    }

    #[test]
    fn formatting_picks_sensible_units() {
        assert_eq!(fmt_ns(12.3), "12.3 ns");
        assert_eq!(fmt_ns(12_300.0), "12.300 us");
        assert_eq!(fmt_ns(12_300_000.0), "12.300 ms");
        assert_eq!(fmt_ns(2_500_000_000.0), "2.500 s");
    }
}
