//! Determinism smoke test through the telemetry layer: running the
//! quickstart-style pipeline twice with the same seed must produce
//! byte-identical predictions AND byte-identical `eadrl.weights` event
//! payloads (the convex weight vectors the actor emits per prediction).
//! This is the end-to-end counterpart of the `determinism` lint rule:
//! if nondeterminism (clock reads, hash iteration, uninitialized state)
//! leaks into the forecast path, the bit patterns diverge here.

use eadrl::core::{EaDrl, EaDrlConfig};
use eadrl::datasets::{generate, DatasetId};
use eadrl::models::quick_pool;
use eadrl::obs::{Level, RingSink, Value};
use std::sync::Arc;

/// Runs the pipeline once and returns (prediction bits, weight-vector
/// bits per `eadrl.weights` event).
fn run_once(seed: u64) -> (Vec<u64>, Vec<Vec<u64>>) {
    let sink = Arc::new(RingSink::new(4096));
    eadrl::obs::set_sink(sink.clone());
    eadrl::obs::set_level(Some(Level::Debug));

    let series = generate(DatasetId::TaxiDemand2, 360, seed);
    let (train, test) = series.split(0.75);
    let mut config = EaDrlConfig {
        omega: 8,
        episodes: 6,
        restarts: 1,
        ..Default::default()
    };
    config.ddpg.seed = seed;
    let mut model = EaDrl::new(quick_pool(5, 48, seed), config);
    model.fit(train).expect("fit");

    let mut history = train.to_vec();
    let mut pred_bits = Vec::new();
    for &actual in test.iter().take(15) {
        pred_bits.push(model.predict_next(&history).to_bits());
        history.push(actual);
    }

    let weight_bits: Vec<Vec<u64>> = sink
        .events_named("eadrl.weights")
        .iter()
        .filter_map(|e| {
            e.fields.iter().find_map(|(k, v)| match (k.as_str(), v) {
                ("weights", Value::F64s(w)) => Some(w.iter().map(|x| x.to_bits()).collect()),
                _ => None,
            })
        })
        .collect();
    assert!(
        !weight_bits.is_empty(),
        "expected eadrl.weights events at debug level"
    );
    (pred_bits, weight_bits)
}

#[test]
fn quickstart_pipeline_is_bitwise_deterministic_including_telemetry() {
    let (preds_a, weights_a) = run_once(11);
    let (preds_b, weights_b) = run_once(11);
    assert_eq!(preds_a, preds_b, "predictions must be byte-identical");
    assert_eq!(
        weights_a, weights_b,
        "weight-vector telemetry must be byte-identical"
    );
}
