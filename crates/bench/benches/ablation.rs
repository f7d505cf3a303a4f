//! Ablation microbenchmarks for the design decisions called out in
//! DESIGN.md: reward computation (rank vs NRMSE), action squash variants,
//! and the window size ω.

use eadrl_bench::harness::Harness;
use eadrl_bench::{build_pool, Scale};
use eadrl_core::experiment::sanitize_predictions;
use eadrl_core::{fit_pool, prediction_matrix, EnsembleEnv, RewardKind};
use eadrl_datasets::{generate, DatasetId};
use eadrl_rl::{ActionSquash, Environment};
use std::hint::black_box;

fn prepared(reward: RewardKind, omega: usize) -> EnsembleEnv {
    let scale = Scale::full();
    let series = generate(DatasetId::BikeRentals, scale.series_len, scale.seed);
    let cut = (series.len() as f64 * 0.75).round() as usize;
    let train = &series.values()[..cut];
    let fit_len = (train.len() as f64 * 0.75).round() as usize;
    let (fit_part, warm_part) = train.split_at(fit_len);
    let (pool, _) = fit_pool(build_pool(scale, 24), fit_part);
    let mut preds = prediction_matrix(&pool, fit_part, warm_part);
    sanitize_predictions(&mut preds, fit_part);
    EnsembleEnv::new(preds, warm_part.to_vec(), omega, reward, 1_000_000)
}

fn bench_rewards(c: &mut Harness) {
    let mut group = c.benchmark_group("env_step_reward");
    for (label, reward) in [
        ("rank_eq3", RewardKind::Rank { normalize: true }),
        ("one_minus_nrmse", RewardKind::OneMinusNrmse),
    ] {
        group.bench_function(label, |b| {
            let mut env = prepared(reward, 10);
            let m = env.action_dim();
            let action = vec![1.0 / m as f64; m];
            env.reset();
            b.iter(|| {
                let (_, r, done) = env.step(black_box(&action));
                if done {
                    env.reset();
                }
                black_box(r)
            });
        });
    }
    group.finish();
}

fn bench_squash(c: &mut Harness) {
    let raw: Vec<f64> = (0..43).map(|i| (i as f64 * 0.37).sin() * 2.0).collect();
    let mut group = c.benchmark_group("action_squash");
    for (label, squash) in [
        ("softmax", ActionSquash::Softmax),
        (
            "bounded_softmax",
            ActionSquash::BoundedSoftmax { scale: 6.0 },
        ),
        ("tanh", ActionSquash::Tanh),
    ] {
        group.bench_function(format!("{label}_forward"), |b| {
            b.iter(|| black_box(squash.forward(black_box(&raw))))
        });
        let out = squash.forward(&raw);
        let grad = vec![0.1; raw.len()];
        group.bench_function(format!("{label}_backward"), |b| {
            b.iter(|| black_box(squash.backward(black_box(&raw), &out, &grad)))
        });
    }
    group.finish();
}

fn bench_omega_sweep(c: &mut Harness) {
    let mut group = c.benchmark_group("env_step_omega");
    for omega in [5usize, 10, 20, 40] {
        group.bench_function(format!("{omega}"), |b| {
            let mut env = prepared(RewardKind::Rank { normalize: true }, omega);
            let m = env.action_dim();
            let action = vec![1.0 / m as f64; m];
            env.reset();
            b.iter(|| {
                let (s, _, done) = env.step(black_box(&action));
                if done {
                    env.reset();
                }
                black_box(s.len())
            });
        });
    }
    group.finish();
}

fn main() {
    let mut h = Harness::default()
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
        .sample_size(20);
    bench_rewards(&mut h);
    bench_squash(&mut h);
    bench_omega_sweep(&mut h);
}
