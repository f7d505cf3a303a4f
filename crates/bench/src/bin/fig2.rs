//! Regenerates **Figure 2**: DDPG learning curves under the two reward
//! definitions — (a) `1 - NRMSE`, which the paper shows failing to
//! converge, and (b) the rank-based reward of Eq. 3, which converges.
//!
//! Prints both curves as CSV columns plus terminal sparklines.
//!
//! ```text
//! cargo run -p eadrl-bench --release --bin fig2 [-- --quick]
//! ```

use eadrl_bench::{build_pool, json_output, mean_std, print_json_report, sparkline, Scale, OMEGA};
use eadrl_core::{fit_pool, prediction_matrix, EnsembleEnv, RewardKind};
use eadrl_datasets::{generate, DatasetId};
use eadrl_obs::json::JsonValue;
use eadrl_rl::{DdpgAgent, DdpgConfig, EpisodeStats, SamplingStrategy};

fn curve_json(curve: &[EpisodeStats]) -> JsonValue {
    JsonValue::Arr(
        curve
            .iter()
            .enumerate()
            .map(|(i, s)| {
                JsonValue::Obj(vec![
                    ("episode".to_string(), (i + 1).into()),
                    ("avg_reward".to_string(), s.avg_reward.into()),
                    ("critic_loss".to_string(), s.critic_loss.into()),
                    ("actor_objective".to_string(), s.actor_objective.into()),
                ])
            })
            .collect(),
    )
}

fn learning_curve(
    preds: &[Vec<f64>],
    actuals: &[f64],
    reward: RewardKind,
    episodes: usize,
    seed: u64,
) -> Vec<EpisodeStats> {
    let mut env = EnsembleEnv::new(preds.to_vec(), actuals.to_vec(), OMEGA, reward, 100);
    let config = DdpgConfig {
        gamma: 0.9,
        actor_lr: 0.01,
        critic_lr: 0.01,
        sampling: SamplingStrategy::Diversity,
        hidden: vec![32, 32],
        seed,
        ..Default::default()
    };
    let mut agent = DdpgAgent::new(OMEGA, preds[0].len(), config);
    agent.train(&mut env, episodes)
}

fn main() {
    let scale = Scale::from_args();
    let episodes = scale.episodes.max(30);
    // The paper's Figure 2 is plotted on one representative dataset; we use
    // Taxi Demand 1 (half-hourly, drifting) as ours.
    let series = generate(DatasetId::TaxiDemand1, scale.series_len, scale.seed);
    let cut = (series.len() as f64 * 0.75).round() as usize;
    let train = &series.values()[..cut];
    let fit_len = (train.len() as f64 * 0.75).round() as usize;
    let (fit_part, warm_part) = train.split_at(fit_len);
    let season = series.frequency().default_season().min(series.len() / 4);
    let (pool, _) = fit_pool(build_pool(scale, season), fit_part);
    let preds = prediction_matrix(&pool, fit_part, warm_part);

    eprintln!(
        "Training DDPG on {} ({} models, {} validation steps, {} episodes)...",
        series.name(),
        pool.len(),
        warm_part.len(),
        episodes
    );
    let nrmse_curve = learning_curve(
        &preds,
        warm_part,
        RewardKind::OneMinusNrmse,
        episodes,
        scale.seed,
    );
    let rank_curve = learning_curve(
        &preds,
        warm_part,
        RewardKind::Rank { normalize: true },
        episodes,
        scale.seed,
    );

    if json_output() {
        print_json_report(
            "fig2",
            vec![
                ("dataset".to_string(), series.name().into()),
                ("episodes".to_string(), episodes.into()),
                ("nrmse_curve".to_string(), curve_json(&nrmse_curve)),
                ("rank_curve".to_string(), curve_json(&rank_curve)),
            ],
        );
        return;
    }

    println!("Figure 2 - learning curves of the actor-critic under two rewards.");
    println!(
        "Columns: episode, avg_reward_fig2a(1-NRMSE), critic_loss_fig2a,\n         avg_reward_fig2b(rank), critic_loss_fig2b\n"
    );
    for (i, (a, b)) in nrmse_curve.iter().zip(rank_curve.iter()).enumerate() {
        println!(
            "{},{:.4},{:.4},{:.4},{:.4}",
            i + 1,
            a.avg_reward,
            a.critic_loss,
            b.avg_reward,
            b.critic_loss
        );
    }

    let a_vals: Vec<f64> = nrmse_curve.iter().map(|s| s.avg_reward).collect();
    let b_vals: Vec<f64> = rank_curve.iter().map(|s| s.avg_reward).collect();
    println!("\nFig 2a (reward = 1 - NRMSE): {}", sparkline(&a_vals));
    println!("Fig 2b (reward = Eq. 3 rank): {}", sparkline(&b_vals));

    // Convergence summary: compare first-quarter vs last-quarter rewards.
    let q = (episodes / 4).max(1);
    let (a_early, _) = mean_std(&a_vals[..q]);
    let (a_late, a_late_std) = mean_std(&a_vals[a_vals.len() - q..]);
    let (b_early, _) = mean_std(&b_vals[..q]);
    let (b_late, b_late_std) = mean_std(&b_vals[b_vals.len() - q..]);
    println!("\nFig 2a: early avg {a_early:.4} -> late avg {a_late:.4} (late std {a_late_std:.4})");
    println!("Fig 2b: early avg {b_early:.4} -> late avg {b_late:.4} (late std {b_late_std:.4})");
    println!(
        "Paper's claim: the rank reward improves and stabilizes; the NRMSE\nreward tracks the series' time-varying error magnitude and fails to\nconverge."
    );
}
