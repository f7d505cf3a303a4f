//! Differential proof that parallelism never changes results: the full
//! training + online-forecast pipeline and the multi-method evaluation
//! protocol are run at `EADRL_PAR_THREADS` ∈ {1, 2, 8} and every run
//! must be bitwise identical — predictions, the `eadrl.weights`
//! telemetry payloads, and the whole metric table. The serial run
//! (1 thread) is the reference; any scheduling, chunking, or
//! merge-order bug in `eadrl-par` or its call sites diverges here.
//!
//! Everything lives in ONE `#[test]` because the thread count comes
//! from an environment variable: tests in one binary may run
//! concurrently, and `set_var` must not race another assertion.

use eadrl_core::baselines::{SlidingWindowEnsemble, StaticEnsemble};
use eadrl_core::{Combiner, EaDrl, EaDrlConfig, EvaluationProtocol};
use eadrl_datasets::{generate, DatasetId};
use eadrl_models::{auto_regressive, quick_pool, Forecaster, Naive, SeasonalNaive};
use eadrl_obs::{Level, RingSink, Value};
use std::sync::Arc;

/// One pipeline run: EA-DRL fit + 15 online predictions, capturing the
/// prediction bits and the actor's `eadrl.weights` payload bits.
fn run_pipeline(seed: u64) -> (Vec<u64>, Vec<Vec<u64>>) {
    let sink = Arc::new(RingSink::new(4096));
    eadrl_obs::set_sink(sink.clone());
    eadrl_obs::set_level(Some(Level::Debug));

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

/// One evaluation-protocol run over a small pool, two combiners and one
/// standalone model: per-method (name, rmse bits, prediction bits,
/// dropped members). Timings are excluded — wall-clock is the one field
/// the determinism contract does not cover.
fn run_evaluation(seed: u64) -> Vec<(String, u64, Vec<u64>)> {
    let series = generate(DatasetId::WaterConsumption, 320, seed);
    let pool: Vec<Box<dyn Forecaster>> = vec![
        Box::new(Naive),
        Box::new(SeasonalNaive::new(24)),
        Box::new(auto_regressive(5, 1e-3)),
        // A member the series cannot support: the dropped-model report
        // must also be thread-count-independent.
        Box::new(SeasonalNaive::new(100_000)),
    ];
    let standalone: Vec<(String, Box<dyn Forecaster>)> =
        vec![("AR".to_string(), Box::new(auto_regressive(5, 1e-3)))];
    let combiners: Vec<Box<dyn Combiner>> = vec![
        Box::new(StaticEnsemble::new()),
        Box::new(SlidingWindowEnsemble::new(10)),
    ];
    let eval = EvaluationProtocol.evaluate(
        "par-differential",
        series.values(),
        pool,
        standalone,
        combiners,
    );
    assert_eq!(eval.dropped_models, vec!["SeasonalNaive".to_string()]);
    eval.results
        .into_iter()
        .map(|r| {
            (
                r.name,
                r.rmse.to_bits(),
                r.predictions.iter().map(|p| p.to_bits()).collect(),
            )
        })
        .collect()
}

#[test]
fn pipeline_and_metric_table_are_bitwise_identical_at_1_2_and_8_threads() {
    let mut runs = Vec::new();
    for threads in ["1", "2", "8"] {
        std::env::set_var(eadrl_par::THREADS_ENV, threads);
        runs.push((threads, run_pipeline(11), run_evaluation(11)));
    }
    std::env::remove_var(eadrl_par::THREADS_ENV);

    let (_, (ref_preds, ref_weights), ref_table) = &runs[0];
    assert_eq!(
        ref_table.len(),
        3,
        "1 standalone + 2 combiners must all report"
    );
    for (threads, (preds, weights), table) in &runs[1..] {
        assert_eq!(
            preds, ref_preds,
            "predictions diverged from serial at {threads} threads"
        );
        assert_eq!(
            weights, ref_weights,
            "eadrl.weights telemetry diverged from serial at {threads} threads"
        );
        assert_eq!(
            table, ref_table,
            "metric table diverged from serial at {threads} threads"
        );
    }
}
