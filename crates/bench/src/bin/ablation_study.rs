//! Ablation study over EA-DRL's design decisions (DESIGN.md §4) and the
//! paper's future-work extensions: each variant is evaluated on eight
//! datasets against the ten baseline combiners, reporting the average
//! rank (1 = best of 11) and mean test RMSE ratio to the default EA-DRL.
//!
//! ```text
//! cargo run -p eadrl-bench --release --bin ablation_study [-- --quick]
//! ```

use eadrl_bench::{build_pool, json_output, print_json_report, Scale, OMEGA};
use eadrl_core::baselines::all_baselines;
use eadrl_core::{
    run_combiner, AdaptiveEaDrl, Combiner, EaDrlConfig, EaDrlPolicy, EvaluationProtocol,
    RefreshTrigger, RewardKind,
};
use eadrl_datasets::{generate, DatasetId};
use eadrl_eval::render_table;
use eadrl_rl::{ActionSquash, SamplingStrategy};
use eadrl_timeseries::metrics::rmse;

struct Prepared {
    name: String,
    warm_preds: Vec<Vec<f64>>,
    warm_actuals: Vec<f64>,
    online_preds: Vec<Vec<f64>>,
    online_actuals: Vec<f64>,
    baseline_rmses: Vec<f64>,
}

fn prepare(id: DatasetId, scale: Scale) -> Prepared {
    let series = generate(id, scale.series_len, scale.seed);
    let season = series.frequency().default_season().min(series.len() / 4);
    let data = EvaluationProtocol.prepare(series.values(), build_pool(scale, season));

    let baseline_rmses = all_baselines(OMEGA, scale.seed)
        .into_iter()
        .map(|mut c| {
            c.warm_up(&data.warm_preds, data.warm_part);
            let out = run_combiner(c.as_mut(), &data.online_preds, data.test);
            rmse(data.test, &out)
        })
        .collect();

    Prepared {
        name: series.name().to_string(),
        warm_actuals: data.warm_part.to_vec(),
        online_actuals: data.test.to_vec(),
        warm_preds: data.warm_preds,
        online_preds: data.online_preds,
        baseline_rmses,
    }
}

fn base_config(scale: Scale) -> EaDrlConfig {
    eadrl_bench::eadrl_config(scale)
}

fn run_variant(prepared: &Prepared, combiner: &mut dyn Combiner) -> f64 {
    combiner.warm_up(&prepared.warm_preds, &prepared.warm_actuals);
    let out = run_combiner(combiner, &prepared.online_preds, &prepared.online_actuals);
    rmse(&prepared.online_actuals, &out)
}

fn main() {
    let scale = Scale::from_args();
    let datasets = [
        DatasetId::WaterConsumption,
        DatasetId::BikeRentals,
        DatasetId::RiverFlow,
        DatasetId::SolarRadiation,
        DatasetId::TaxiDemand1,
        DatasetId::Nh4Concentration,
        DatasetId::EnergyTempOut,
        DatasetId::StockCac,
    ];
    eprintln!("preparing {} datasets...", datasets.len());
    let prepared: Vec<Prepared> = datasets.iter().map(|&id| prepare(id, scale)).collect();

    type Builder = Box<dyn Fn(EaDrlConfig) -> Box<dyn Combiner>>;
    let policy = |f: fn(&mut EaDrlConfig)| -> Builder {
        Box::new(move |mut cfg: EaDrlConfig| {
            f(&mut cfg);
            Box::new(EaDrlPolicy::new(cfg))
        })
    };
    let variants: Vec<(&str, Builder)> = vec![
        ("default", policy(|_| {})),
        (
            "reward: rank (raw Eq.3)",
            policy(|c| {
                c.reward = RewardKind::Rank { normalize: false };
            }),
        ),
        (
            "reward: 1 - NRMSE",
            policy(|c| {
                c.reward = RewardKind::OneMinusNrmse;
            }),
        ),
        (
            "reward: rank + diversity",
            policy(|c| {
                c.reward = RewardKind::RankWithDiversity { lambda: 0.2 };
            }),
        ),
        (
            "sampling: uniform",
            policy(|c| {
                c.ddpg.sampling = SamplingStrategy::Uniform;
            }),
        ),
        (
            "squash: bounded softmax",
            policy(|c| {
                c.ddpg.squash = ActionSquash::BoundedSoftmax { scale: 6.0 };
            }),
        ),
        (
            "no informed init",
            policy(|c| {
                c.informed_init = false;
            }),
        ),
        ("pool pruned to 25%", policy(|_| {})), // handled below via trained-policy path
        (
            "online refresh: periodic",
            Box::new(|cfg: EaDrlConfig| {
                Box::new(AdaptiveEaDrl::new(
                    cfg,
                    RefreshTrigger::Periodic { period: 40 },
                    90,
                ))
            }),
        ),
        (
            "online refresh: drift",
            Box::new(|cfg: EaDrlConfig| {
                Box::new(AdaptiveEaDrl::new(
                    cfg,
                    RefreshTrigger::DriftDetected {
                        delta: 0.05,
                        lambda: 8.0,
                    },
                    90,
                ))
            }),
        ),
    ];

    let mut default_rmses: Vec<f64> = Vec::new();
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut json_rows: Vec<eadrl_obs::json::JsonValue> = Vec::new();
    for (label, builder) in &variants {
        let mut ranks = Vec::new();
        let mut ratios = Vec::new();
        for (di, p) in prepared.iter().enumerate() {
            let e = if *label == "pool pruned to 25%" {
                // Pruning removes the worst 75 % of columns by warm-up RMSE
                // before policy learning (future-work hook).
                let m = p.warm_preds[0].len();
                let keep = (m as f64 * 0.25).ceil() as usize;
                let mut sse = vec![0.0; m];
                for (row, &a) in p.warm_preds.iter().zip(p.warm_actuals.iter()) {
                    for (s, &v) in sse.iter_mut().zip(row.iter()) {
                        let err = v - a;
                        *s += err * err;
                    }
                }
                let mut order: Vec<usize> = (0..m).collect();
                order.sort_by(|&a, &b| sse[a].partial_cmp(&sse[b]).unwrap());
                let mut selected = order[..keep].to_vec();
                selected.sort_unstable();
                let shrink = |rows: &[Vec<f64>]| -> Vec<Vec<f64>> {
                    rows.iter()
                        .map(|r| selected.iter().map(|&i| r[i]).collect())
                        .collect()
                };
                let warm = shrink(&p.warm_preds);
                let online = shrink(&p.online_preds);
                let mut c = EaDrlPolicy::new(base_config(scale));
                c.warm_up(&warm, &p.warm_actuals);
                let out = run_combiner(&mut c, &online, &p.online_actuals);
                rmse(&p.online_actuals, &out)
            } else {
                let mut combiner = builder(base_config(scale));
                run_variant(p, combiner.as_mut())
            };
            if *label == "default" {
                default_rmses.push(e);
            }
            let rank = 1 + p.baseline_rmses.iter().filter(|&&b| b < e).count();
            ranks.push(rank as f64);
            ratios.push(e / default_rmses[di].max(1e-12));
        }
        let avg_rank = ranks.iter().sum::<f64>() / ranks.len() as f64;
        let avg_ratio = ratios.iter().sum::<f64>() / ratios.len() as f64;
        eprintln!("  {label:<26} rank {avg_rank:.2} ratio {avg_ratio:.3}");
        json_rows.push(eadrl_obs::json::JsonValue::Obj(vec![
            ("variant".to_string(), (*label).into()),
            ("avg_rank".to_string(), avg_rank.into()),
            ("rmse_ratio".to_string(), avg_ratio.into()),
        ]));
        rows.push(vec![
            label.to_string(),
            format!("{avg_rank:.2}"),
            format!("{avg_ratio:.3}"),
        ]);
    }

    if json_output() {
        print_json_report(
            "ablation_study",
            vec![
                (
                    "datasets".to_string(),
                    eadrl_obs::json::JsonValue::Arr(
                        prepared.iter().map(|p| p.name.as_str().into()).collect(),
                    ),
                ),
                (
                    "variants".to_string(),
                    eadrl_obs::json::JsonValue::Arr(json_rows),
                ),
            ],
        );
        return;
    }

    println!("\nAblation study - EA-DRL variants vs the 10 baseline combiners");
    println!("(avg rank of 11, lower is better; RMSE ratio vs default EA-DRL)\n");
    println!(
        "{}",
        render_table(&["Variant", "Avg rank /11", "RMSE vs default"], &rows)
    );
    println!(
        "Datasets: {}",
        prepared
            .iter()
            .map(|p| p.name.as_str())
            .collect::<Vec<_>>()
            .join(", ")
    );
}
