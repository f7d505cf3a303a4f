//! Regenerates **Table III**: empirical online-runtime comparison between
//! EA-DRL and DEMSC. The measured phase is the real-time prediction loop
//! only (base-model one-step forecasts + weight computation + combination);
//! EA-DRL's policy training and DEMSC's warm-up are excluded, exactly as
//! in the paper.
//!
//! ```text
//! cargo run -p eadrl-bench --release --bin table3 [-- --quick]
//! ```

use eadrl_bench::{
    build_pool, demsc_combiner, eadrl_config, mean_std, time_combination_only, time_online, Scale,
};
use eadrl_core::{Combiner, EaDrlPolicy, EvaluationProtocol};
use eadrl_datasets::{generate, DatasetId};
use eadrl_eval::render_table;

fn main() {
    let scale = Scale::from_args();
    let mut eadrl_times = Vec::new();
    let mut demsc_times = Vec::new();
    let mut eadrl_comb = Vec::new();
    let mut demsc_comb = Vec::new();

    for id in DatasetId::all() {
        let series = generate(id, scale.series_len, scale.seed);
        let season = series.frequency().default_season().min(series.len() / 4);
        let data = EvaluationProtocol.prepare(series.values(), build_pool(scale, season));
        let (warm_preds, warm_part) = (&data.warm_preds, data.warm_part);

        // EA-DRL: policy trained offline (untimed), online loop timed.
        let mut eadrl = EaDrlPolicy::new(eadrl_config(scale));
        eadrl.warm_up(warm_preds, warm_part);
        eadrl_times.push(time_online(&mut eadrl, &data.pool, data.train, data.test));

        // DEMSC: committee selection warm-started (untimed), online loop
        // (including drift-triggered re-selection) timed.
        let mut demsc = demsc_combiner(scale.seed);
        demsc.warm_up(warm_preds, warm_part);
        demsc_times.push(time_online(&mut demsc, &data.pool, data.train, data.test));

        // Combination-only timing (pool predictions precomputed): this is
        // where the two methods actually differ.
        let mut eadrl2 = EaDrlPolicy::new(eadrl_config(scale));
        eadrl2.warm_up(warm_preds, warm_part);
        eadrl_comb.push(time_combination_only(
            &mut eadrl2,
            &data.online_preds,
            data.test,
            20,
        ));
        let mut demsc2 = demsc_combiner(scale.seed);
        demsc2.warm_up(warm_preds, warm_part);
        demsc_comb.push(time_combination_only(
            &mut demsc2,
            &data.online_preds,
            data.test,
            20,
        ));

        eprintln!(
            "  [{:>2}/20] {:<28} EA-DRL {:.3}s  DEMSC {:.3}s",
            id.number(),
            series.name(),
            eadrl_times.last().unwrap(),
            demsc_times.last().unwrap(),
        );
    }

    let (ea_mean, ea_std) = mean_std(&eadrl_times);
    let (de_mean, de_std) = mean_std(&demsc_times);
    let (eac_mean, eac_std) = mean_std(&eadrl_comb);
    let (dec_mean, dec_std) = mean_std(&demsc_comb);
    println!("\nTable III - empirical online runtime comparison (per dataset)\n");
    println!(
        "{}",
        render_table(
            &["Method", "Online incl. pool (s)", "Combination only (s)"],
            &[
                vec![
                    "EA-DRL".to_string(),
                    format!("{ea_mean:.4} ± {ea_std:.4}"),
                    format!("{eac_mean:.6} ± {eac_std:.6}"),
                ],
                vec![
                    "DEMSC".to_string(),
                    format!("{de_mean:.4} ± {de_std:.4}"),
                    format!("{dec_mean:.6} ± {dec_std:.6}"),
                ],
            ],
        )
    );
    println!(
        "DEMSC / EA-DRL ratio: end-to-end {:.2}x, combination-only {:.2}x\n(paper, end-to-end on their testbed: 67.97 / 37.93 = 1.79x; the pool\nforecasts dominate our end-to-end loop, so the method difference shows\nin the combination-only column)",
        de_mean / ea_mean.max(1e-12),
        dec_mean / eac_mean.max(1e-12)
    );
}
