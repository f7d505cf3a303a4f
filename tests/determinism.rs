//! Reproducibility: the entire pipeline is a pure function of its seeds.

use eadrl::core::{EaDrl, EaDrlConfig};
use eadrl::datasets::{generate, DatasetId};
use eadrl::models::{quick_pool, standard_pool};

fn run_pipeline(seed: u64) -> Vec<f64> {
    let series = generate(DatasetId::TaxiDemand2, 360, seed);
    let (train, test) = series.split(0.75);
    let mut config = EaDrlConfig {
        omega: 8,
        episodes: 8,
        restarts: 1,
        ..Default::default()
    };
    config.ddpg.seed = seed;
    let mut model = EaDrl::new(quick_pool(5, 48, seed), config);
    model.fit(train).unwrap();
    let mut history = train.to_vec();
    let mut out = Vec::new();
    for &actual in test.iter().take(25) {
        out.push(model.predict_next(&history));
        history.push(actual);
    }
    out
}

#[test]
fn identical_seeds_give_bitwise_identical_forecasts() {
    assert_eq!(run_pipeline(42), run_pipeline(42));
}

#[test]
fn different_seeds_give_different_forecasts() {
    assert_ne!(run_pipeline(1), run_pipeline(2));
}

#[test]
fn dataset_generation_is_stable_across_calls() {
    for id in DatasetId::all() {
        let a = generate(id, 250, 7);
        let b = generate(id, 250, 7);
        assert_eq!(a.values(), b.values(), "{id:?}");
    }
}

#[test]
fn standard_pool_construction_is_deterministic() {
    let a = standard_pool(5, 24, 9);
    let b = standard_pool(5, 24, 9);
    let names_a: Vec<&str> = a.iter().map(|m| m.name()).collect();
    let names_b: Vec<&str> = b.iter().map(|m| m.name()).collect();
    assert_eq!(names_a, names_b);
    assert_eq!(a.len(), 43);
}

#[test]
fn fitted_pool_models_predict_deterministically() {
    let series = generate(DatasetId::EnergyHumidity4, 320, 3);
    let (train, _) = series.split(0.75);
    let fit = |seed: u64| -> Vec<f64> {
        let mut pool = quick_pool(5, 144, seed);
        pool.retain_mut(|m| m.fit(train).is_ok());
        pool.iter().map(|m| m.predict_next(train)).collect()
    };
    assert_eq!(fit(5), fit(5));
}
