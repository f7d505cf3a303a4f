//! Tour of the base-model zoo: fit all 43 members of the paper's pool on
//! one dataset and print a per-model leaderboard of rolling one-step RMSE,
//! grouped by family. A direct view of the "heterogeneous pool whose
//! members' relative accuracy varies" that EA-DRL exploits.
//!
//! ```text
//! cargo run --release --example model_zoo
//! ```

use eadrl::core::{fit_pool, prediction_matrix};
use eadrl::datasets::{generate, DatasetId};
use eadrl::models::{standard_pool, ModelFamily};
use eadrl::timeseries::metrics::rmse;

fn main() {
    let series = generate(DatasetId::BikeRentals, 480, 42);
    let (train, test) = series.split(0.75);
    println!(
        "fitting the 43-model pool on {:?} ({} train / {} test)...\n",
        series.name(),
        train.len(),
        test.len()
    );

    let (pool, skipped) = fit_pool(standard_pool(5, 24, 42), train);
    for label in &skipped {
        println!("  {label:<26} (skipped: series too short)");
    }
    let preds = prediction_matrix(&pool, train, test);
    let mut results: Vec<(String, &'static str, f64)> = pool
        .iter()
        .enumerate()
        .map(|(i, model)| {
            let column: Vec<f64> = preds.iter().map(|row| row[i]).collect();
            let family = ModelFamily::of(model.name()).label();
            (model.name().to_string(), family, rmse(test, &column))
        })
        .collect();

    results.sort_by(|a, b| a.2.partial_cmp(&b.2).unwrap());
    println!("{:<26} {:<18} {:>9}", "model", "family", "RMSE");
    for (name, fam, err) in &results {
        println!("{name:<26} {fam:<18} {err:>9.3}");
    }

    // Spread statistics: the pool diversity EA-DRL feeds on.
    let best = results.first().expect("non-empty pool");
    let worst = results.last().expect("non-empty pool");
    println!(
        "\nbest {} ({:.3}) vs worst {} ({:.3}) - a {:.1}x spread across the pool",
        best.0,
        best.2,
        worst.0,
        worst.2,
        worst.2 / best.2
    );
}
