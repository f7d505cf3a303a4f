//! Benchmarks for representative base-model families: fit cost and
//! one-step prediction cost (these dominate the end-to-end online
//! loop — see the Table III discussion), plus the pool prediction
//! matrix at 1 vs 4 `eadrl-par` workers and the rolling-history
//! allocation strategy. Pass `--json` to also print a machine-readable
//! `pool_matrix_bench` report with the measured serial/parallel medians.

use eadrl_bench::harness::{Harness, Summary};
use eadrl_bench::{json_output, print_json_report};
use eadrl_datasets::{generate, DatasetId};
use eadrl_models::{
    auto_regressive, decision_tree, gaussian_process, gradient_boosting, lstm_forecaster,
    mlp_forecaster, quick_pool, random_forest, rolling_forecast, Arima, Ets, EtsKind, Forecaster,
};
use std::hint::black_box;

fn models() -> Vec<(&'static str, Box<dyn Forecaster>)> {
    vec![
        (
            "arima_2_1_1",
            Box::new(Arima::new(2, 1, 1)) as Box<dyn Forecaster>,
        ),
        (
            "ets_holt_winters",
            Box::new(Ets::new(EtsKind::HoltWinters { period: 24 })),
        ),
        ("ar_ridge", Box::new(auto_regressive(5, 1e-3))),
        ("decision_tree_d6", Box::new(decision_tree(5, 6, 3))),
        ("random_forest_15x6", Box::new(random_forest(5, 15, 6, 42))),
        ("gbm_60x2", Box::new(gradient_boosting(5, 60, 2, 0.1))),
        (
            "gp_subset150",
            Box::new(gaussian_process(5, 1.0, 1e-2, 150)),
        ),
        ("mlp_h16", Box::new(mlp_forecaster(5, vec![16], 40, 42))),
        ("lstm_h8", Box::new(lstm_forecaster(5, 8, 30, 42))),
    ]
}

fn bench_fit(c: &mut Harness) {
    let series = generate(DatasetId::BikeRentals, 480, 42);
    let train = &series.values()[..270];
    let mut group = c.benchmark_group("model_fit");
    group.sample_size(10);
    for (name, model) in models() {
        group.bench_function(name, |b| {
            b.iter_batched(
                || model.box_clone(),
                |mut m| {
                    m.fit(black_box(train)).unwrap();
                    black_box(m.name().len())
                },
            )
        });
    }
    group.finish();
}

fn bench_predict(c: &mut Harness) {
    let series = generate(DatasetId::BikeRentals, 480, 42);
    let train = &series.values()[..360];
    let mut group = c.benchmark_group("model_predict_next");
    for (name, mut model) in models() {
        model.fit(&train[..270]).unwrap();
        group.bench_function(name, |b| {
            b.iter(|| black_box(model.predict_next(black_box(train))))
        });
    }
    group.finish();
}

/// The pool prediction matrix at an explicit worker count — the same
/// column-parallel construction as `eadrl_core::parallel`, but pinned to
/// `threads` instead of reading `EADRL_PAR_THREADS`, so the 1-vs-4
/// comparison is immune to the environment.
fn matrix_with(
    threads: usize,
    pool: &[Box<dyn Forecaster>],
    train: &[f64],
    segment: &[f64],
) -> Vec<Vec<f64>> {
    let refs: Vec<&dyn Forecaster> = pool.iter().map(AsRef::as_ref).collect();
    let per_model = eadrl_par::par_map_with(threads, refs, |m| rolling_forecast(m, train, segment))
        .expect("rolling_forecast must not panic");
    (0..segment.len())
        .map(|t| per_model.iter().map(|p| p[t]).collect())
        .collect()
}

/// Serial vs 4-worker pool prediction matrix. With `--json`, emits the
/// `pool_matrix_bench` report recording both medians and the speedup —
/// the artifact backing the parallelism claims (the ratio is only
/// meaningful on a multi-core host; on one core the two entries
/// measure the pool's scheduling overhead instead).
fn bench_pool_matrix(c: &mut Harness) {
    let series = generate(DatasetId::BikeRentals, 480, 42);
    let (train, segment) = series.values().split_at(360);
    let (pool, _) = eadrl_core::fit_pool(quick_pool(5, 24, 42), train);
    let mut group = c.benchmark_group("pool_matrix");
    group.sample_size(10);
    group.bench_function("serial_1_worker", |b| {
        b.iter(|| black_box(matrix_with(1, &pool, train, segment)))
    });
    group.bench_function("par_4_workers", |b| {
        b.iter(|| black_box(matrix_with(4, &pool, train, segment)))
    });
    let summaries = group.finish();
    if json_output() {
        let get = |id: &str| -> Summary {
            summaries
                .iter()
                .find(|(name, _)| name == id)
                .map(|(_, s)| *s)
                .unwrap_or(Summary {
                    median_ns: f64::NAN,
                    mean_ns: f64::NAN,
                    min_ns: f64::NAN,
                })
        };
        let serial = get("serial_1_worker");
        let par = get("par_4_workers");
        print_json_report(
            "pool_matrix_bench",
            vec![
                ("pool_size".to_string(), pool.len().into()),
                ("segment_len".to_string(), segment.len().into()),
                ("serial_median_ns".to_string(), serial.median_ns.into()),
                ("par4_median_ns".to_string(), par.median_ns.into()),
                (
                    "speedup_serial_over_par4".to_string(),
                    (serial.median_ns / par.median_ns).into(),
                ),
            ],
        );
    }
}

/// The rolling-history allocation fix, before vs after: the old code
/// started from `train.to_vec()` (capacity == len) so every revealed
/// actual could re-grow and re-copy the buffer; the fixed
/// `rolling_forecast` sizes the buffer for the whole walk up front.
fn bench_rolling_alloc(c: &mut Harness) {
    let series = generate(DatasetId::BikeRentals, 480, 42);
    let (train, segment) = series.values().split_at(360);
    let mut model = auto_regressive(5, 1e-3);
    model.fit(train).unwrap();
    let mut group = c.benchmark_group("rolling_alloc");
    group.bench_function("regrow_per_step", |b| {
        b.iter(|| {
            let mut history = train.to_vec();
            let mut out = Vec::new();
            for &actual in segment {
                out.push(model.predict_next(&history));
                history.push(actual);
            }
            black_box(out)
        })
    });
    group.bench_function("prealloc_whole_walk", |b| {
        b.iter(|| black_box(rolling_forecast(&model, train, segment)))
    });
    group.finish();
}

fn main() {
    let mut h = Harness::default()
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
        .sample_size(20);
    bench_fit(&mut h);
    bench_predict(&mut h);
    bench_pool_matrix(&mut h);
    bench_rolling_alloc(&mut h);
}
