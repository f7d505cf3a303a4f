//! Taxi-demand scenario: compare EA-DRL against the combination baselines
//! on a drifting demand series — the motivating workload of the paper's
//! BRIGHT lineage (dynamic ensembles for taxi networks).
//!
//! ```text
//! cargo run --release --example taxi_demand
//! ```

use eadrl::core::baselines::all_baselines;
use eadrl::core::{run_combiner, EaDrlConfig, EaDrlPolicy, EvaluationProtocol};
use eadrl::datasets::{generate, DatasetId};
use eadrl::models::standard_pool;
use eadrl::timeseries::metrics::{mae, rmse};

fn main() {
    for id in [DatasetId::TaxiDemand1, DatasetId::TaxiDemand2] {
        let series = generate(id, 480, 42);
        // Fit the paper's 43-model pool on the fit segment and walk it
        // over the warm-up and online segments.
        let data = EvaluationProtocol::default().prepare(series.values(), standard_pool(5, 48, 42));
        println!(
            "== {} (pool of {} models) ==",
            series.name(),
            data.pool.len()
        );

        // All combination methods plus EA-DRL.
        let mut combiners = all_baselines(10, 42);
        combiners.push(Box::new(EaDrlPolicy::new(EaDrlConfig::default())));

        let mut rows: Vec<(String, f64, f64)> = Vec::new();
        for mut combiner in combiners {
            combiner.warm_up(&data.warm_preds, data.warm_part);
            let out = run_combiner(combiner.as_mut(), &data.online_preds, data.test);
            rows.push((
                combiner.name().to_string(),
                rmse(data.test, &out),
                mae(data.test, &out),
            ));
        }
        rows.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
        println!("{:<10} {:>8} {:>8}", "method", "RMSE", "MAE");
        for (name, r, m) in &rows {
            let marker = if name == "EA-DRL" {
                "  <-- this paper"
            } else {
                ""
            };
            println!("{name:<10} {r:>8.3} {m:>8.3}{marker}");
        }
        println!();
    }
}
