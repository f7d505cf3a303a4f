//! Telemetry-overhead benchmark: the batched DDPG update workload run
//! under three observability settings —
//!
//! * `off`         — level `None`: every span/event call is a level
//!   check and nothing else (the production default);
//! * `info_coarse` — level `Info`: fit/episode-grained spans only; the
//!   per-update phase spans stay disabled;
//! * `trace_full`  — level `Trace`: full profiling instrumentation
//!   (DDPG phase spans + nn kernel spans), written through a
//!   [`JsonlSink`] backed by `io::sink()` so the cost measured is
//!   event construction + serialization, not disk.
//!
//! Each row times [`UPDATES_PER_RUN`] updates. The interesting numbers
//! are the ratios of the rows: `info_coarse / off` is the cost of leaving
//! coarse telemetry on in production, `trace_full / off` is the price of
//! a full profiling run. Committed as `BENCH_obs.json` and documented in
//! EXPERIMENTS.md.
//!
//! Takes the harness flags (`--quick`, `--json`, `--out <p>`; see
//! [`eadrl_bench::harness`]) and declares no gates.

use eadrl_bench::harness::Harness;
use eadrl_obs::{JsonlSink, Level};
use eadrl_rl::{ActionSquash, DdpgAgent, DdpgConfig, SamplingStrategy, Transition};
use eadrl_rng::DetRng;
use std::hint::black_box;

const STATE_DIM: usize = 10;
const ACTION_DIM: usize = 10;

/// Consecutive updates timed per sample (fresh seeded agent each
/// sample, so every sample does identical deterministic work).
const UPDATES_PER_RUN: usize = 50;

fn seeded_agent() -> DdpgAgent {
    let mut agent = DdpgAgent::new(
        STATE_DIM,
        ACTION_DIM,
        DdpgConfig {
            sampling: SamplingStrategy::Uniform,
            batch_size: 64,
            hidden: vec![32, 32],
            squash: ActionSquash::BoundedSoftmax { scale: 6.0 },
            seed: 42,
            ..Default::default()
        },
    );
    let mut rng = DetRng::seed_from_u64(99);
    for i in 0..256 {
        let state: Vec<f64> = (0..STATE_DIM)
            .map(|_| rng.random_range(-1.0..1.0))
            .collect();
        let next_state: Vec<f64> = (0..STATE_DIM)
            .map(|_| rng.random_range(-1.0..1.0))
            .collect();
        let mut action: Vec<f64> = (0..ACTION_DIM)
            .map(|_| rng.random_range(0.0..1.0))
            .collect();
        let sum: f64 = action.iter().sum();
        for a in action.iter_mut() {
            *a /= sum;
        }
        agent.observe(Transition {
            state: &state,
            action: &action,
            reward: rng.random_range(-1.0..1.0),
            next_state: &next_state,
            done: i % 9 == 0,
        });
    }
    agent
}

/// Benches `UPDATES_PER_RUN` batched updates under one telemetry mode.
/// The level (and, for enabled levels, a null-device JSONL sink) is
/// installed before measuring and reset afterwards.
fn bench_modes(c: &mut Harness) {
    let modes: [(&str, Option<Level>); 3] = [
        ("off", None),
        ("info_coarse", Some(Level::Info)),
        ("trace_full", Some(Level::Trace)),
    ];
    let mut group = c.benchmark_group("ddpg_update_batch64_telemetry");
    for (label, level) in modes {
        group.bench_function(label, |b| {
            eadrl_obs::set_sink(std::sync::Arc::new(JsonlSink::new(Box::new(
                std::io::sink(),
            ))));
            eadrl_obs::set_level(level);
            b.iter_batched(seeded_agent, |agent| {
                for _ in 0..UPDATES_PER_RUN {
                    agent.update();
                }
                black_box(agent.updates())
            });
            eadrl_obs::set_level(None);
        });
    }
}

fn main() {
    let mut h = Harness::new("obs_overhead");
    bench_modes(&mut h);
    h.finish(&[]);
}
