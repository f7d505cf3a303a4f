//! Benchmarks for the offline training phase (Q3's wall-clock comparison):
//! one DDPG update and one full episode under the two replay-sampling
//! strategies of the paper.

use eadrl_bench::harness::Harness;
use eadrl_bench::{build_pool, Scale, OMEGA};
use eadrl_core::experiment::sanitize_predictions;
use eadrl_core::{fit_pool, prediction_matrix, EnsembleEnv, RewardKind};
use eadrl_datasets::{generate, DatasetId};
use eadrl_rl::{ActionSquash, DdpgAgent, DdpgConfig, Environment, SamplingStrategy, Transition};
use std::hint::black_box;

fn prepared_env(reward: RewardKind) -> (Vec<Vec<f64>>, Vec<f64>, EnsembleEnv) {
    let scale = Scale::full();
    let series = generate(DatasetId::SolarRadiation, scale.series_len, scale.seed);
    let cut = (series.len() as f64 * 0.75).round() as usize;
    let train = &series.values()[..cut];
    let fit_len = (train.len() as f64 * 0.75).round() as usize;
    let (fit_part, warm_part) = train.split_at(fit_len);
    let (pool, _) = fit_pool(build_pool(scale, 24), fit_part);
    let mut preds = prediction_matrix(&pool, fit_part, warm_part);
    sanitize_predictions(&mut preds, fit_part);
    let env = EnsembleEnv::new(preds.clone(), warm_part.to_vec(), OMEGA, reward, 100);
    (preds, warm_part.to_vec(), env)
}

fn agent_for(env: &EnsembleEnv, sampling: SamplingStrategy) -> DdpgAgent {
    let config = DdpgConfig {
        sampling,
        hidden: vec![32, 32],
        squash: ActionSquash::BoundedSoftmax { scale: 6.0 },
        seed: 42,
        ..Default::default()
    };
    DdpgAgent::new(env.state_dim(), env.action_dim(), config)
}

fn bench_training(c: &mut Harness) {
    let (_preds, _actuals, mut env) = prepared_env(RewardKind::Rank { normalize: true });

    // Per-update cost with a filled buffer, per sampling strategy.
    let mut group = c.benchmark_group("ddpg_update");
    for (label, sampling) in [
        ("diversity_sampling", SamplingStrategy::Diversity),
        ("uniform_sampling", SamplingStrategy::Uniform),
    ] {
        group.bench_function(label, |b| {
            let mut agent = agent_for(&env, sampling);
            // Fill the buffer with plausible transitions.
            let state = env.reset();
            let mut s = state;
            for _ in 0..256 {
                let a = agent.act_exploratory(&s);
                let (ns, r, done) = env.step(&a);
                agent.observe(Transition {
                    state: s.clone(),
                    action: a,
                    reward: r,
                    next_state: ns.clone(),
                    done,
                });
                s = if done { env.reset() } else { ns };
            }
            b.iter(|| {
                agent.update();
                black_box(agent.updates())
            });
        });
    }
    group.finish();

    // Full-episode cost (environment replay + updates each step).
    let mut group = c.benchmark_group("ddpg_episode");
    group.sample_size(10);
    for (label, sampling) in [
        ("diversity_sampling", SamplingStrategy::Diversity),
        ("uniform_sampling", SamplingStrategy::Uniform),
    ] {
        group.bench_function(label, |b| {
            let template = agent_for(&env, sampling);
            let (state_dim, action_dim) = (env.state_dim(), env.action_dim());
            let config = template.config().clone();
            b.iter_batched(
                || DdpgAgent::new(state_dim, action_dim, config.clone()),
                |mut agent| {
                    let stats = agent.run_episode(&mut env, true);
                    black_box(stats.total_reward)
                },
            )
        });
    }
    group.finish();
}

fn main() {
    let mut h = Harness::default()
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
        .sample_size(20);
    bench_training(&mut h);
}
