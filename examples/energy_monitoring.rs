//! Energy-monitoring scenario: run EA-DRL across the six appliance-energy
//! channels of Table I (datasets 12–17), the paper's largest domain, and
//! summarize who wins per channel.
//!
//! ```text
//! cargo run --release --example energy_monitoring
//! ```

use eadrl::core::baselines::{Demsc, MlPol, SlidingWindowEnsemble, StaticEnsemble};
use eadrl::core::{run_combiner, Combiner, EaDrlConfig, EaDrlPolicy, EvaluationProtocol};
use eadrl::datasets::{generate, DatasetId};
use eadrl::models::quick_pool;
use eadrl::timeseries::metrics::rmse;

fn main() {
    let channels = [
        DatasetId::EnergyHumidity3,
        DatasetId::EnergyHumidity4,
        DatasetId::EnergyHumidity5,
        DatasetId::EnergyTempOut,
        DatasetId::EnergyWindSpeed,
        DatasetId::EnergyDewPoint,
    ];

    println!(
        "{:<18} {:>8} {:>8} {:>8} {:>8} {:>8}   winner",
        "channel", "EA-DRL", "SE", "SWE", "MLPOL", "DEMSC"
    );
    let mut eadrl_wins = 0;
    for id in channels {
        let series = generate(id, 480, 42);
        let data = EvaluationProtocol.prepare(series.values(), quick_pool(5, 144, 42));

        let mut methods: Vec<Box<dyn Combiner>> = vec![
            Box::new(EaDrlPolicy::new(EaDrlConfig::default())),
            Box::new(StaticEnsemble::new()),
            Box::new(SlidingWindowEnsemble::new(10)),
            Box::new(MlPol::new()),
            Box::new(Demsc::new(10, 0.25, 4, 42)),
        ];
        let mut scores = Vec::new();
        for c in methods.iter_mut() {
            c.warm_up(&data.warm_preds, data.warm_part);
            let out = run_combiner(c.as_mut(), &data.online_preds, data.test);
            scores.push((c.name().to_string(), rmse(data.test, &out)));
        }
        let winner = scores
            .iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap()
            .0
            .clone();
        if winner == "EA-DRL" {
            eadrl_wins += 1;
        }
        println!(
            "{:<18} {:>8.4} {:>8.4} {:>8.4} {:>8.4} {:>8.4}   {winner}",
            series.name(),
            scores[0].1,
            scores[1].1,
            scores[2].1,
            scores[3].1,
            scores[4].1,
        );
    }
    println!(
        "\nEA-DRL wins {eadrl_wins}/{} energy channels outright",
        channels.len()
    );
}
