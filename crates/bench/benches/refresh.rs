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
//! Nor are the paper-scale rows, at `EADRL_PAR_THREADS` ∈ {1, 2}: a warm
//! refresh over 43-member rows from `standard_pool(5, 24, 42)` on
//! BikeRentals (buffer 120, 10 episodes), whose DDPG target pass runs on
//! the sidecar at two threads, and the 43-model pool fit on 360 values,
//! whose members the workers claim one at a time. A one-core runner has
//! no second core for either.
//! Nor is the 16-wide window: at serving-size windows both paths take
//! tens of nanoseconds and the comparison is noise-bound. The 256-wide
//! groups are where `remove(0)`'s O(n) shift must lose to the ring.

use eadrl_bench::harness::{Gate, Harness};
use eadrl_core::{
    fit_pool, prediction_matrix, AdaptiveEaDrl, Combiner, EaDrlConfig, EaDrlPolicy,
    RefreshStrategy, RefreshTrigger,
};
use eadrl_datasets::{generate, DatasetId};
use eadrl_models::standard_pool;
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
                |policy| {
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

/// Values the paper-scale pool is fitted on.
const PAPER_FIT: usize = 360;
/// Refresh buffer of the paper-scale refresh (serve_bench's `drift_refresh`).
const PAPER_BUFFER: usize = 120;
/// Warm-start episodes of the paper-scale refresh.
const PAPER_EPISODES: usize = 10;

/// BikeRentals, long enough for the fit plus a warm-up segment and a
/// full refresh buffer after it.
fn paper_series() -> Vec<f64> {
    generate(DatasetId::BikeRentals, PAPER_FIT + 2 * PAPER_BUFFER, 42)
        .values()
        .to_vec()
}

/// The 43-model fit on 360 values, per thread count: the workers claim
/// members one at a time, so the nine recurrent members at the end of
/// the pool spread over both workers.
fn bench_fit_pool_paper(c: &mut Harness, series: &[f64]) {
    let mut group = c.benchmark_group("fit_pool_paper");
    for threads in [1usize, 2] {
        std::env::set_var(eadrl_par::THREADS_ENV, threads.to_string());
        group.bench_function(format!("threads{threads}"), |b| {
            b.iter_batched(
                || standard_pool(5, 24, 42),
                |pool| fit_pool(std::mem::take(pool), &series[..PAPER_FIT]),
            );
        });
    }
    std::env::remove_var(eadrl_par::THREADS_ENV);
}

/// A warm-start refresh over 43-member prediction rows, per thread
/// count: at two threads each DDPG update's target pass runs on the
/// sidecar. The combiner is built under the row's thread count, because
/// an agent's sidecar decides its placement at its first job.
fn bench_refresh_paper(c: &mut Harness, series: &[f64]) {
    let (fit_part, rest) = series.split_at(PAPER_FIT);
    let (pool, _dropped) = fit_pool(standard_pool(5, 24, 42), fit_part);
    let preds = prediction_matrix(&pool, fit_part, rest);
    let (wp, op) = preds.split_at(PAPER_BUFFER);
    let (wa, oa) = rest.split_at(PAPER_BUFFER);
    let mut group = c.benchmark_group("refresh_latency");
    for threads in [1usize, 2] {
        std::env::set_var(eadrl_par::THREADS_ENV, threads.to_string());
        let mut adaptive =
            AdaptiveEaDrl::new(EaDrlConfig::default(), RefreshTrigger::Never, PAPER_BUFFER)
                .with_strategy(RefreshStrategy::WarmStart {
                    episodes: PAPER_EPISODES,
                });
        adaptive.warm_up(wp, wa);
        for (p, &a) in op.iter().zip(oa.iter()) {
            adaptive.observe(p, a);
        }
        group.bench_function(format!("warm_start_paper/threads{threads}"), |b| {
            b.iter(|| {
                adaptive.refresh_now();
                black_box(adaptive.refreshes())
            });
        });
    }
    std::env::remove_var(eadrl_par::THREADS_ENV);
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
    let series = paper_series();
    bench_refresh_paper(&mut h, &series);
    bench_fit_pool_paper(&mut h, &series);
    bench_window_slide(&mut h, 16, 512);
    bench_window_slide(&mut h, 256, 512);
    bench_history_record(&mut h, 256, 512);
    h.finish(&GATES);
}
