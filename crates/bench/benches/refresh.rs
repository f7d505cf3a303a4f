//! Benchmarks for the online-refresh and serving hot paths: the parallel
//! restart sweep inside `EaDrlPolicy::warm_up`, cold vs warm-start
//! `AdaptiveEaDrl` refresh latency, and the ring-buffered sliding windows
//! against the `Vec::remove(0)` shifts they replaced.
//!
//! Takes the harness flags (`--quick`, `--json`, `--out <p>`, `--check`;
//! see [`eadrl_bench::harness`]). `--check` fails if a warm-start refresh
//! is slower than a cold refresh, or a ring buffer is slower than the
//! shifted-Vec equivalent at w = 256 (the perf regression gates wired
//! into CI).
//!
//! The restart-scaling group reports warm-up latency at
//! `EADRL_PAR_THREADS` ∈ {1, 2, 4} and is *not* gated: on a single-core
//! runner all thread counts collapse onto one worker and the honest
//! number is ~1.0x (see `EXPERIMENTS.md` for the multi-core protocol).
//! Nor is the 16-wide window: at serving-size windows both paths take
//! tens of nanoseconds and the comparison is noise-bound. The 256-wide
//! groups are where `remove(0)`'s O(n) shift must lose to the ring.

use eadrl_bench::harness::{Gate, Harness};
use eadrl_core::{
    AdaptiveEaDrl, Combiner, EaDrlConfig, EaDrlPolicy, RefreshStrategy, RefreshTrigger,
};
use eadrl_timeseries::window::{SlideWindow, StepRing};
use std::hint::black_box;

/// Warm-up stream length (validation steps feeding `warm_up`).
const WARM_STEPS: usize = 120;
/// Online steps used to saturate the refresh buffer.
const ONLINE_STEPS: usize = 80;
/// Pool width of the synthetic prediction matrix.
const MODELS: usize = 5;
/// Refinement episodes of the warm-start strategy under test.
const WARM_EPISODES: usize = 2;

/// Warm-start refresh at most cold latency; rings at least match shifts.
const GATES: [Gate; 3] = [
    Gate::at_most("refresh_latency/warm_start", "refresh_latency/cold"),
    Gate::at_most("window_slide_w256/ring", "window_slide_w256/vec_shift"),
    Gate::at_most("history_record_w256/ring", "history_record_w256/vec_shift"),
];

fn bench_config() -> EaDrlConfig {
    EaDrlConfig {
        omega: 6,
        episodes: 8,
        max_iter: 40,
        restarts: 2,
        ..Default::default()
    }
}

/// Deterministic synthetic stream: `MODELS` forecasters of staggered
/// quality around a seasonal level (same family as the core tests).
fn stream(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let actuals: Vec<f64> = (0..n)
        .map(|t| (t as f64 / 6.0).sin() * 3.0 + 10.0)
        .collect();
    let preds = actuals
        .iter()
        .enumerate()
        .map(|(t, &a)| {
            let w = ((t * 7) % 13) as f64 / 13.0 - 0.5;
            (0..MODELS)
                .map(|i| a + 0.1 * (i as f64 + 1.0) * w + 0.4 * i as f64)
                .collect()
        })
        .collect();
    (preds, actuals)
}

/// Offline warm-up latency at several `EADRL_PAR_THREADS` settings, with
/// `restarts = 4` so the sweep has work to fan out.
fn bench_restart_scaling(c: &mut Harness) {
    let (preds, actuals) = stream(WARM_STEPS);
    let mut config = bench_config();
    config.restarts = 4;
    let mut group = c.benchmark_group("warm_up_restarts4");
    for threads in [1usize, 2, 4] {
        std::env::set_var(eadrl_par::THREADS_ENV, threads.to_string());
        group.bench_function(format!("threads{threads}"), |b| {
            b.iter_batched(
                || EaDrlPolicy::new(config.clone()),
                |mut policy| {
                    policy.warm_up(&preds, &actuals);
                    black_box(policy.is_trained())
                },
            );
        });
    }
    std::env::remove_var(eadrl_par::THREADS_ENV);
}

/// An adaptive combiner with a trained policy and a saturated refresh
/// buffer — the state a triggered refresh sees in serving.
fn primed_adaptive(strategy: RefreshStrategy) -> AdaptiveEaDrl {
    let (preds, actuals) = stream(WARM_STEPS + ONLINE_STEPS);
    let (wp, op) = preds.split_at(WARM_STEPS);
    let (wa, oa) = actuals.split_at(WARM_STEPS);
    let mut adaptive = AdaptiveEaDrl::new(bench_config(), RefreshTrigger::Never, ONLINE_STEPS)
        .with_strategy(strategy);
    adaptive.warm_up(wp, wa);
    for (p, &a) in op.iter().zip(oa.iter()) {
        adaptive.observe(p, a);
    }
    adaptive
}

/// Cold vs warm-start refresh latency on the same buffer. Each sample
/// times one `refresh_now` (retrain + deploy) on a persistent combiner —
/// exactly the pause a serving loop takes when a trigger fires.
fn bench_refresh_latency(c: &mut Harness) {
    let mut group = c.benchmark_group("refresh_latency");
    let mut cold = primed_adaptive(RefreshStrategy::Cold);
    group.bench_function("cold", |b| {
        b.iter(|| {
            cold.refresh_now();
            black_box(cold.refreshes())
        });
    });
    let mut warm = primed_adaptive(RefreshStrategy::WarmStart {
        episodes: WARM_EPISODES,
    });
    group.bench_function("warm_start", |b| {
        b.iter(|| {
            warm.refresh_now();
            black_box(warm.refreshes())
        });
    });
}

/// Ring-buffered sliding windows against the shifted-Vec equivalents
/// they replaced, at serving-representative and stress window sizes.
fn bench_window_slide(c: &mut Harness, window: usize, steps: usize) {
    let mut group = c.benchmark_group(format!("window_slide_w{window}"));
    group.bench_function("vec_shift", |b| {
        let mut buf: Vec<f64> = (0..window).map(|i| i as f64).collect();
        b.iter(|| {
            for i in 0..steps {
                buf.push(i as f64);
                if buf.len() > window {
                    buf.remove(0);
                }
            }
            black_box(buf[0])
        });
    });
    group.bench_function("ring", |b| {
        let mut ring = SlideWindow::new(window);
        ring.assign(&(0..window).map(|i| i as f64).collect::<Vec<f64>>());
        b.iter(|| {
            for i in 0..steps {
                ring.slide(i as f64);
            }
            black_box(ring[0])
        });
    });
}

/// `(preds, actual)` history recording: the old `to_vec` + shift against
/// `StepRing::record`'s slot reuse.
fn bench_history_record(c: &mut Harness, window: usize, steps: usize) {
    let preds: Vec<f64> = (0..MODELS).map(|i| i as f64).collect();
    let mut group = c.benchmark_group(format!("history_record_w{window}"));
    group.bench_function("vec_shift", |b| {
        let mut buf: Vec<(Vec<f64>, f64)> = Vec::new();
        b.iter(|| {
            for i in 0..steps {
                buf.push((preds.to_vec(), i as f64));
                if buf.len() > window {
                    buf.remove(0);
                }
            }
            black_box(buf.len())
        });
    });
    group.bench_function("ring", |b| {
        let mut ring = StepRing::new(window);
        b.iter(|| {
            for i in 0..steps {
                ring.record(&preds, i as f64);
            }
            black_box(ring.len())
        });
    });
}

fn main() {
    let mut h = Harness::new("refresh");
    bench_restart_scaling(&mut h);
    bench_refresh_latency(&mut h);
    bench_window_slide(&mut h, 16, 512);
    bench_window_slide(&mut h, 256, 512);
    bench_history_record(&mut h, 256, 512);
    h.finish(&GATES);
}
