//! Cross-crate integration: the full EA-DRL pipeline from synthetic data
//! through pool fitting, policy learning and online forecasting.

use eadrl::core::{EaDrl, EaDrlConfig};
use eadrl::datasets::{generate, DatasetId};
use eadrl::models::{quick_pool, Forecaster, Naive};
use eadrl::timeseries::metrics::rmse;

fn quick_config(episodes: usize) -> EaDrlConfig {
    EaDrlConfig {
        omega: 8,
        episodes,
        max_iter: 60,
        restarts: 1,
        ..Default::default()
    }
}

#[test]
fn eadrl_beats_naive_on_seasonal_demand() {
    // Hourly bike rentals: a strong daily cycle with bursty noise, where
    // a last-value forecast is clearly beatable.
    let series = generate(DatasetId::BikeRentals, 420, 11);
    let (train, test) = series.split(0.75);

    let mut model = EaDrl::new(quick_pool(5, 24, 11), quick_config(15));
    model.fit(train).unwrap();

    let mut naive = Naive;
    naive.fit(train).unwrap();

    let mut history = train.to_vec();
    let mut ea = Vec::new();
    let mut nv = Vec::new();
    for &actual in test {
        ea.push(model.predict_next(&history));
        nv.push(naive.predict_next(&history));
        history.push(actual);
    }
    let (ea_rmse, nv_rmse) = (rmse(test, &ea), rmse(test, &nv));
    assert!(
        ea_rmse < nv_rmse,
        "EA-DRL {ea_rmse:.3} should beat Naive {nv_rmse:.3} on seasonal data"
    );
}

#[test]
fn weights_remain_a_distribution_throughout_online_use() {
    let series = generate(DatasetId::BikeRentals, 380, 3);
    let (train, test) = series.split(0.75);
    let mut model = EaDrl::new(quick_pool(5, 24, 3), quick_config(10));
    model.fit(train).unwrap();

    let mut history = train.to_vec();
    for &actual in test.iter().take(40) {
        let w = model.current_weights();
        assert_eq!(w.len(), model.n_models());
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9, "sum(w) != 1");
        assert!(
            w.iter().all(|&x| (0.0..=1.0).contains(&x)),
            "w out of range"
        );
        let _ = model.predict_next(&history);
        history.push(actual);
    }
}

#[test]
fn learning_curve_is_recorded_and_finite() {
    let series = generate(DatasetId::SolarRadiation, 380, 9);
    let (train, _) = series.split(0.75);
    let mut model = EaDrl::new(quick_pool(5, 24, 9), quick_config(12));
    model.fit(train).unwrap();
    let curve = model.learning_curve();
    assert_eq!(curve.len(), 12);
    assert!(curve
        .iter()
        .all(|s| s.avg_reward.is_finite() && s.steps > 0));
}

#[test]
fn recursive_forecast_is_plausible_on_smooth_series() {
    // Strongly persistent humidity channel: multi-step forecasts should
    // stay inside a generous band around the series range.
    let series = generate(DatasetId::EnergyHumidity3, 400, 13);
    let (train, test) = series.split(0.75);
    let mut model = EaDrl::new(quick_pool(5, 144, 13), quick_config(10));
    model.fit(train).unwrap();
    let forecast = model.forecast(train, 30);
    assert_eq!(forecast.len(), 30);
    let lo = series.min().unwrap();
    let hi = series.max().unwrap();
    let band = (hi - lo).max(1.0);
    assert!(
        forecast.iter().all(|&f| f > lo - band && f < hi + band),
        "multi-step forecast left the plausible band: {forecast:?}"
    );
    let _ = test;
}
