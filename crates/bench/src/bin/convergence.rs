//! Regenerates the paper's **Q3** result (§III, "On improving the
//! convergence"): the median-split diversity sampling of Eq. 4 reaches a
//! stable reward plateau in fewer episodes than the uniform replay
//! sampling of the original DDPG, and correspondingly less wall-clock.
//!
//! ```text
//! cargo run -p eadrl-bench --release --bin convergence [-- --quick]
//! ```

use eadrl_bench::{build_pool, json_output, mean_std, print_json_report, sparkline, Scale, OMEGA};
use eadrl_core::{fit_pool, prediction_matrix, EnsembleEnv, RewardKind};
use eadrl_datasets::{generate, DatasetId};
use eadrl_eval::render_table;
use eadrl_rl::{ActionSquash, DdpgAgent, DdpgConfig, SamplingStrategy};
use std::time::Instant;

/// Final plateau level: mean reward over the last quarter of episodes.
fn plateau(rewards: &[f64]) -> f64 {
    let q = (rewards.len() / 4).max(1);
    let (m, _) = mean_std(&rewards[rewards.len() - q..]);
    m
}

/// Episodes until the 5-episode running mean first reaches `threshold`
/// (the episode budget when it never does). Measuring speed *to a common
/// performance level* — not stability around any plateau — is what the
/// paper's "number of required episodes for convergence" compares.
fn episodes_to_reach(rewards: &[f64], threshold: f64) -> usize {
    let window = 5usize;
    for start in 0..rewards.len().saturating_sub(window - 1) {
        let w = &rewards[start..start + window];
        let mean = w.iter().sum::<f64>() / window as f64;
        if mean >= threshold {
            return start + window;
        }
    }
    rewards.len()
}

fn run(
    preds: &[Vec<f64>],
    actuals: &[f64],
    sampling: SamplingStrategy,
    episodes: usize,
    seed: u64,
) -> (Vec<f64>, f64) {
    let mut env = EnsembleEnv::new(
        preds.to_vec(),
        actuals.to_vec(),
        OMEGA,
        RewardKind::Rank { normalize: true },
        100,
    );
    let config = DdpgConfig {
        sampling,
        hidden: vec![32, 32],
        // Bounded softmax as in the EA-DRL configuration, so cold-start
        // training actually progresses instead of saturating (see the
        // squash docs); the sampling comparison is then meaningful.
        squash: ActionSquash::BoundedSoftmax { scale: 6.0 },
        seed,
        ..Default::default()
    };
    let mut agent = DdpgAgent::new(OMEGA, preds[0].len(), config);
    let start = Instant::now();
    let stats = agent.train(&mut env, episodes);
    let secs = start.elapsed().as_secs_f64();
    (stats.iter().map(|s| s.avg_reward).collect(), secs)
}

fn main() {
    let scale = Scale::from_args();
    let episodes = (scale.episodes * 2).max(60);
    let mut rows = Vec::new();
    let mut json_rows: Vec<eadrl_obs::json::JsonValue> = Vec::new();
    let mut div_eps = Vec::new();
    let mut uni_eps = Vec::new();
    let mut div_secs = Vec::new();
    let mut uni_secs = Vec::new();

    // A few representative datasets keep the runtime reasonable while
    // still averaging over different series characters.
    let datasets = [
        DatasetId::TaxiDemand1,
        DatasetId::SolarRadiation,
        DatasetId::StockDax,
    ];
    let seeds: &[u64] = if scale.quick_pool {
        &[42]
    } else {
        &[42, 1042, 2042]
    };
    for id in datasets {
        let series = generate(id, scale.series_len, scale.seed);
        let cut = (series.len() as f64 * 0.75).round() as usize;
        let train = &series.values()[..cut];
        let fit_len = (train.len() as f64 * 0.75).round() as usize;
        let (fit_part, warm_part) = train.split_at(fit_len);
        let season = series.frequency().default_season().min(series.len() / 4);
        let (pool, _) = fit_pool(build_pool(scale, season), fit_part);
        let preds = prediction_matrix(&pool, fit_part, warm_part);

        // Average episodes-to-target over several training seeds: single
        // DDPG runs are too noisy to compare sampling strategies.
        let mut de_sum = 0.0;
        let mut ue_sum = 0.0;
        let mut dsec_sum = 0.0;
        let mut usec_sum = 0.0;
        let mut last_div = Vec::new();
        let mut last_uni = Vec::new();
        for &seed in seeds {
            let (div_curve, dsec) = run(
                &preds,
                warm_part,
                SamplingStrategy::Diversity,
                episodes,
                seed,
            );
            let (uni_curve, usec) =
                run(&preds, warm_part, SamplingStrategy::Uniform, episodes, seed);
            let target = 0.97 * plateau(&div_curve).max(plateau(&uni_curve));
            de_sum += episodes_to_reach(&div_curve, target) as f64;
            ue_sum += episodes_to_reach(&uni_curve, target) as f64;
            dsec_sum += dsec;
            usec_sum += usec;
            last_div = div_curve;
            last_uni = uni_curve;
        }
        let k = seeds.len() as f64;
        let (de, ue) = (de_sum / k, ue_sum / k);
        let (dsec, usec) = (dsec_sum / k, usec_sum / k);
        div_eps.push(de);
        uni_eps.push(ue);
        div_secs.push(dsec);
        uni_secs.push(usec);
        eprintln!("  {:<28} diversity {}", series.name(), sparkline(&last_div));
        eprintln!("  {:<28} uniform   {}", series.name(), sparkline(&last_uni));
        json_rows.push(eadrl_obs::json::JsonValue::Obj(vec![
            ("dataset".to_string(), series.name().into()),
            ("episodes_to_convergence_diversity".to_string(), de.into()),
            ("episodes_to_convergence_uniform".to_string(), ue.into()),
            ("train_seconds_diversity".to_string(), dsec.into()),
            ("train_seconds_uniform".to_string(), usec.into()),
        ]));
        rows.push(vec![
            series.name().to_string(),
            format!("{de:.1}"),
            format!("{ue:.1}"),
            format!("{dsec:.2}"),
            format!("{usec:.2}"),
        ]);
    }

    if json_output() {
        let (dm, _) = mean_std(&div_eps);
        let (um, _) = mean_std(&uni_eps);
        print_json_report(
            "convergence",
            vec![
                ("episodes".to_string(), episodes.into()),
                (
                    "datasets".to_string(),
                    eadrl_obs::json::JsonValue::Arr(json_rows),
                ),
                ("avg_episodes_diversity".to_string(), dm.into()),
                ("avg_episodes_uniform".to_string(), um.into()),
            ],
        );
        return;
    }

    println!("\nQ3 - convergence: diversity (Eq. 4) vs uniform replay sampling\n");
    println!(
        "{}",
        render_table(
            &[
                "Dataset",
                "eps-to-conv (div)",
                "eps-to-conv (uni)",
                "train s (div)",
                "train s (uni)"
            ],
            &rows,
        )
    );
    let (dm, _) = mean_std(&div_eps);
    let (um, _) = mean_std(&uni_eps);
    let (ds, _) = mean_std(&div_secs);
    let (us, _) = mean_std(&uni_secs);
    println!("Average episodes to convergence: diversity {dm:.1} vs uniform {um:.1}");
    println!("Average offline training time:   diversity {ds:.2}s vs uniform {us:.2}s");
    println!(
        "Paper: diversity sampling converged in ~100 episodes vs >250 for\nuniform (offline wall-clock ~300 min vs ~735 min on their testbed)."
    );
}
