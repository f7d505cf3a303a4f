//! Extending the library: plug a *custom* base forecaster into the EA-DRL
//! pool. Anything implementing `Forecaster` (or `TabularModel` + the
//! `Windowed` adapter) can join the ensemble.
//!
//! ```text
//! cargo run --release --example custom_model
//! ```

use eadrl::core::{EaDrl, EaDrlConfig};
use eadrl::datasets::{generate, DatasetId};
use eadrl::models::{quick_pool, Forecaster, ModelError, TabularModel, Windowed};
use eadrl::timeseries::metrics::rmse;

/// A custom tabular regressor: predicts the median of the window — robust
/// to the bursty outliers in the precipitation series.
#[derive(Debug, Clone, Default)]
struct WindowMedian;

impl TabularModel for WindowMedian {
    fn fit(&mut self, _inputs: &[Vec<f64>], _targets: &[f64]) -> Result<(), ModelError> {
        Ok(()) // nothing to learn
    }

    fn predict(&self, input: &[f64]) -> f64 {
        let mut v = input.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let n = v.len();
        if n % 2 == 1 {
            v[n / 2]
        } else {
            0.5 * (v[n / 2 - 1] + v[n / 2])
        }
    }
}

/// A custom direct `Forecaster`: exponentially decaying mean with a fixed
/// rate (no fitting, pure recursion over the history).
#[derive(Debug, Clone)]
struct DecayingMean {
    alpha: f64,
}

impl Forecaster for DecayingMean {
    fn name(&self) -> &str {
        "DecayingMean"
    }

    fn fit(&mut self, series: &[f64]) -> Result<(), ModelError> {
        if series.is_empty() {
            return Err(ModelError::SeriesTooShort { needed: 1, got: 0 });
        }
        Ok(())
    }

    fn predict_next(&self, history: &[f64]) -> f64 {
        let mut level = history.first().copied().unwrap_or(0.0);
        for &x in &history[1..] {
            level += self.alpha * (x - level);
        }
        level
    }

    fn box_clone(&self) -> Box<dyn Forecaster> {
        Box::new(self.clone())
    }
}

fn main() {
    let series = generate(DatasetId::Precipitation, 480, 42);
    let (train, test) = series.split(0.75);

    // Standard quick pool, extended with the two custom members.
    let mut pool = quick_pool(5, 24, 42);
    pool.push(Box::new(Windowed::new("WindowMedian", 5, WindowMedian)));
    pool.push(Box::new(DecayingMean { alpha: 0.25 }));

    let config = EaDrlConfig {
        episodes: 25,
        ..Default::default()
    };
    let mut model = EaDrl::new(pool, config);
    model.fit(train).expect("fit");

    println!(
        "pool with custom members ({} models): {:?}",
        model.n_models(),
        model.model_names()
    );
    let weights = model.current_weights();
    for (name, w) in model.model_names().iter().zip(weights.iter()) {
        println!("  {name:<22} weight {w:.3}");
    }

    let mut history = train.to_vec();
    let mut preds = Vec::with_capacity(test.len());
    for &actual in test {
        preds.push(model.predict_next(&history));
        history.push(actual);
    }
    println!(
        "\n{}: rolling one-step RMSE = {:.4} over {} test steps",
        series.name(),
        rmse(test, &preds),
        test.len()
    );
}
