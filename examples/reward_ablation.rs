//! Reward ablation (the paper's Q2 / Figure 2): train the same DDPG agent
//! with the rank-based reward of Eq. 3 and with the naive `1 - NRMSE`
//! reward, and watch only the former converge.
//!
//! ```text
//! cargo run --release --example reward_ablation
//! ```

use eadrl::core::{fit_pool, prediction_matrix, EnsembleEnv, RewardKind};
use eadrl::datasets::{generate, DatasetId};
use eadrl::models::quick_pool;
use eadrl::rl::{DdpgAgent, DdpgConfig};

fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let range = (hi - lo).max(1e-12);
    values
        .iter()
        .map(|v| BARS[(((v - lo) / range) * 7.0).round() as usize])
        .collect()
}

fn main() {
    // Prepare a validation segment of base-model predictions.
    let series = generate(DatasetId::SolarRadiation, 480, 42);
    let (train, _) = series.split(0.75);
    let fit_len = (train.len() as f64 * 0.75).round() as usize;
    let (fit_part, warm_part) = train.split_at(fit_len);
    let (pool, _) = fit_pool(quick_pool(5, 24, 42), fit_part);
    let preds = prediction_matrix(&pool, fit_part, warm_part);

    println!(
        "training DDPG on {} ({} models, {} validation steps)\n",
        series.name(),
        pool.len(),
        warm_part.len()
    );

    for (label, reward) in [
        (
            "rank reward (Eq. 3)      ",
            RewardKind::Rank { normalize: true },
        ),
        ("1 - NRMSE reward (Fig 2a)", RewardKind::OneMinusNrmse),
    ] {
        let mut env = EnsembleEnv::new(preds.clone(), warm_part.to_vec(), 10, reward, 100);
        let mut agent = DdpgAgent::new(
            10,
            pool.len(),
            DdpgConfig {
                gamma: 0.9,
                actor_lr: 0.01,
                critic_lr: 0.01,
                hidden: vec![32, 32],
                squash: eadrl::rl::ActionSquash::BoundedSoftmax { scale: 6.0 },
                seed: 42,
                ..Default::default()
            },
        );
        let stats = agent.train(&mut env, 60);
        let curve: Vec<f64> = stats.iter().map(|s| s.avg_reward).collect();
        let early = curve[..10].iter().sum::<f64>() / 10.0;
        let late = curve[50..].iter().sum::<f64>() / 10.0;
        println!("{label}  {}", sparkline(&curve));
        println!(
            "{label}  early avg {early:.3} -> late avg {late:.3} ({})\n",
            if late > early + 0.02 {
                "improves - converging"
            } else {
                "flat - not converging"
            }
        );
    }
    println!(
        "The paper's Q2 answer: the reward choice is critical — error-\n\
         magnitude rewards track the series' own time-varying scale, while\n\
         the rank reward is stationary and lets the actor-critic converge."
    );
}
