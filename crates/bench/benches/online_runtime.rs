//! Microbenchmarks behind Table III: the per-step online cost of EA-DRL's
//! policy inference versus the adaptive baselines' weight updates.

use eadrl_bench::harness::Harness;
use eadrl_bench::{build_pool, eadrl_config, Scale, OMEGA};
use eadrl_core::baselines::{Demsc, SlidingWindowEnsemble};
use eadrl_core::experiment::sanitize_predictions;
use eadrl_core::{fit_pool, prediction_matrix, Combiner, EaDrlPolicy};
use eadrl_datasets::{generate, DatasetId};
use std::hint::black_box;

struct Fixture {
    warm_preds: Vec<Vec<f64>>,
    warm_actuals: Vec<f64>,
    online_preds: Vec<Vec<f64>>,
    online_actuals: Vec<f64>,
}

fn fixture() -> Fixture {
    let scale = Scale {
        episodes: 10,
        ..Scale::full()
    };
    let series = generate(DatasetId::TaxiDemand1, scale.series_len, scale.seed);
    let cut = (series.len() as f64 * 0.75).round() as usize;
    let (train, test) = series.values().split_at(cut);
    let fit_len = (train.len() as f64 * 0.75).round() as usize;
    let (fit_part, warm_part) = train.split_at(fit_len);
    let (pool, _) = fit_pool(build_pool(scale, 48), fit_part);
    let mut warm_preds = prediction_matrix(&pool, fit_part, warm_part);
    let mut online_preds = prediction_matrix(&pool, train, test);
    sanitize_predictions(&mut warm_preds, fit_part);
    sanitize_predictions(&mut online_preds, train);
    Fixture {
        warm_preds,
        warm_actuals: warm_part.to_vec(),
        online_preds,
        online_actuals: test.to_vec(),
    }
}

fn bench_online(c: &mut Harness) {
    let fx = fixture();
    let scale = Scale {
        episodes: 10,
        ..Scale::full()
    };

    let mut eadrl = EaDrlPolicy::new(eadrl_config(scale));
    eadrl.warm_up(&fx.warm_preds, &fx.warm_actuals);
    let mut demsc = Demsc::new(OMEGA, 0.25, 4, scale.seed);
    demsc.warm_up(&fx.warm_preds, &fx.warm_actuals);
    let mut swe = SlidingWindowEnsemble::new(OMEGA);
    swe.warm_up(&fx.warm_preds, &fx.warm_actuals);

    let m = fx.online_preds[0].len();
    let mut group = c.benchmark_group("online_weights");
    group.bench_function("eadrl_policy_forward", |b| {
        b.iter(|| black_box(eadrl.weights(black_box(m))))
    });
    group.bench_function("demsc_weights", |b| {
        b.iter(|| black_box(demsc.weights(black_box(m))))
    });
    group.bench_function("swe_weights", |b| {
        b.iter(|| black_box(swe.weights(black_box(m))))
    });
    group.finish();

    let mut group = c.benchmark_group("online_full_segment");
    group.sample_size(20);
    group.bench_function("eadrl_combine_120_steps", |b| {
        b.iter_batched(
            || {
                let mut p = EaDrlPolicy::new(eadrl_config(scale));
                p.warm_up(&fx.warm_preds, &fx.warm_actuals);
                p
            },
            |mut p| {
                for (preds, &a) in fx.online_preds.iter().zip(fx.online_actuals.iter()) {
                    black_box(p.combine(preds));
                    p.observe(preds, a);
                }
            },
        )
    });
    group.bench_function("demsc_combine_120_steps", |b| {
        b.iter_batched(
            || {
                let mut d = Demsc::new(OMEGA, 0.25, 4, scale.seed);
                d.warm_up(&fx.warm_preds, &fx.warm_actuals);
                d
            },
            |mut d| {
                for (preds, &a) in fx.online_preds.iter().zip(fx.online_actuals.iter()) {
                    black_box(d.combine(preds));
                    d.observe(preds, a);
                }
            },
        )
    });
    group.finish();
}

fn main() {
    let mut h = Harness::default()
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
        .sample_size(20);
    bench_online(&mut h);
}
