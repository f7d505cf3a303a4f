//! Quickstart: train EA-DRL on a synthetic taxi-demand series and forecast.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use eadrl::core::{EaDrl, EaDrlConfig};
use eadrl::datasets::{generate, DatasetId};
use eadrl::models::quick_pool;
use eadrl::timeseries::metrics::rmse;

fn main() {
    // 1. Data: a half-hourly taxi-demand series with daily seasonality and
    //    a mid-series demand drift (synthetic stand-in for Table I, id 9).
    let series = generate(DatasetId::TaxiDemand1, 480, 42);
    let (train, test) = series.split(0.75);
    println!(
        "dataset: {} ({} observations, {} train / {} test)",
        series.name(),
        series.len(),
        train.len(),
        test.len()
    );

    // 2. Model: a pool of heterogeneous base forecasters plus the EA-DRL
    //    aggregation policy. `quick_pool` is the fast 8-model pool; swap in
    //    `standard_pool` for the paper's 43 models.
    let pool = quick_pool(5, 48, 7);
    let config = EaDrlConfig {
        episodes: 30, // keep the example snappy
        ..Default::default()
    };
    let mut model = EaDrl::new(pool, config);

    // 3. Offline phase: fit the pool, learn the combination policy.
    model.fit(train).expect("series is long enough");
    println!(
        "pool: {} models ({} dropped), policy trained over {} episodes",
        model.n_models(),
        model.dropped_models().len(),
        model.learning_curve().len()
    );

    // 4. Current ensemble weights (one actor forward pass).
    let weights = model.current_weights();
    let names = model.model_names();
    let mut ranked: Vec<(&str, f64)> = names.iter().copied().zip(weights).collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    println!("\ntop ensemble weights:");
    for (name, w) in ranked.iter().take(4) {
        println!("  {name:<22} {w:.3}");
    }

    // 5. Online phase (Algorithm 1): forecast the whole test horizon
    //    recursively, then score against the truth.
    let forecast = model.forecast(train, test.len());
    println!(
        "\nrecursive {}-step forecast RMSE: {:.3}",
        test.len(),
        rmse(test, &forecast)
    );

    // One-step-ahead rolling forecasts (truth revealed after each step)
    // are what the paper's Table II evaluates:
    let mut history = train.to_vec();
    let mut one_step = Vec::with_capacity(test.len());
    for &actual in test {
        one_step.push(model.predict_next(&history));
        history.push(actual);
    }
    println!(
        "rolling one-step forecast RMSE:  {:.3}",
        rmse(test, &one_step)
    );
}
