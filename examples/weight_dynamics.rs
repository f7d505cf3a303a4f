//! Weight dynamics: trace every combiner's weight vector through the
//! online phase and compare how much mass each method moves per step
//! (`weight_churn`). EA-DRL's frozen policy sits at one extreme; the
//! step-wise online aggregators at the other.
//!
//! ```text
//! cargo run --release --example weight_dynamics
//! ```

use eadrl::core::baselines::all_baselines;
use eadrl::core::{
    run_combiner_traced, weight_churn, EaDrlConfig, EaDrlPolicy, EvaluationProtocol,
};
use eadrl::datasets::{generate, DatasetId};
use eadrl::models::quick_pool;
use eadrl::timeseries::metrics::rmse;

fn main() {
    let series = generate(DatasetId::TaxiDemand1, 480, 42);
    let data = EvaluationProtocol::default().prepare(series.values(), quick_pool(5, 48, 42));

    let mut methods = all_baselines(10, 42);
    methods.push(Box::new(EaDrlPolicy::new(EaDrlConfig::default())));

    println!(
        "{} online steps on {:?}, pool of {}\n",
        data.test.len(),
        series.name(),
        data.pool.len()
    );
    println!(
        "{:<10} {:>8} {:>12}   dominant model weight over time",
        "method", "RMSE", "churn/step"
    );
    let mut rows = Vec::new();
    for mut method in methods {
        method.warm_up(&data.warm_preds, data.warm_part);
        let (out, traces) = run_combiner_traced(method.as_mut(), &data.online_preds, data.test);
        let churn = weight_churn(&traces);
        // Track the weight of whichever model dominates on average.
        let m = traces[0].len();
        let mut avg = vec![0.0; m];
        for w in &traces {
            for (a, &v) in avg.iter_mut().zip(w.iter()) {
                *a += v;
            }
        }
        let champ = avg
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap_or(0);
        let spark: String = traces
            .iter()
            .step_by(traces.len() / 30 + 1)
            .map(|w| {
                const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
                BARS[((w[champ] * 7.0).round() as usize).min(7)]
            })
            .collect();
        rows.push((
            method.name().to_string(),
            rmse(data.test, &out),
            churn,
            spark,
        ));
    }
    rows.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    for (name, err, churn, spark) in rows {
        println!("{name:<10} {err:>8.3} {churn:>12.4}   {spark}");
    }
    println!(
        "\nchurn = mean L1 weight movement per step. 0 means a frozen\n\
         weighting (EA-DRL's deployed policy); high churn means the method\n\
         re-weights aggressively after every observation."
    );
}
