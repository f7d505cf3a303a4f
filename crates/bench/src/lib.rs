//! Shared experiment harness for the EA-DRL reproduction.
//!
//! The binaries in `src/bin` regenerate the paper's tables and figures;
//! this library holds the pieces they share: experiment scaling, the
//! 20-dataset sweep, method construction (the 16 standalone + combination
//! methods of Table II) and the online-runtime measurement of Table III.
#![forbid(unsafe_code)]

use eadrl_core::baselines::{all_baselines, Demsc};
use eadrl_core::{
    Combiner, DatasetEvaluation, EaDrlConfig, EaDrlPolicy, EvaluationProtocol, GuardConfig,
    PoolGuard,
};
use eadrl_datasets::{catalog, generate, DatasetId};
use eadrl_models::{
    gradient_boosting, lstm_forecaster, quick_pool, random_forest, stacked_lstm_forecaster,
    standard_pool, Arima, Forecaster,
};
use eadrl_obs::json::JsonValue;
use eadrl_obs::Level;
use eadrl_timeseries::TimeSeries;
use std::time::Instant;

pub mod harness;

/// The combination window used throughout the paper's Table II (ω = 10).
pub const OMEGA: usize = 10;

/// Experiment sizing. `full()` approximates the paper's setup at a scale a
/// single CPU core finishes in minutes; `quick()` is for smoke runs.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Observations generated per dataset.
    pub series_len: usize,
    /// EA-DRL training episodes (`max.ep`; the paper uses 100).
    pub episodes: usize,
    /// Use the 8-model quick pool instead of the 43-model standard pool.
    pub quick_pool: bool,
    /// Base RNG seed.
    pub seed: u64,
}

impl Scale {
    /// Paper-faithful configuration (43-model pool). The episode budget is
    /// 50 rather than the paper's 100: our validation segments are shorter
    /// than theirs, and calibration showed longer training only feeds the
    /// checkpoint-selection winner's curse (see `EXPERIMENTS.md`).
    pub fn full() -> Self {
        Scale {
            series_len: 480,
            episodes: 50,
            quick_pool: false,
            seed: 42,
        }
    }

    /// Reduced configuration for smoke runs (`--quick`).
    pub fn quick() -> Self {
        Scale {
            series_len: 300,
            episodes: 15,
            quick_pool: true,
            seed: 42,
        }
    }

    /// Parses `--quick` from CLI arguments.
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "--quick") {
            Scale::quick()
        } else {
            Scale::full()
        }
    }
}

/// True when `--json` was passed: the experiment binaries then print one
/// machine-readable JSON document on stdout instead of the human tables
/// (progress still goes to stderr either way).
pub fn json_output() -> bool {
    std::env::args().any(|a| a == "--json")
}

/// Prints a one-document JSON report to stdout: `{"report": <kind>,
/// <fields>...}`. The schema rides on the same zero-dependency JSON
/// writer the telemetry layer uses, so reports and traces stay mutually
/// parseable.
pub fn print_json_report(kind: &str, mut fields: Vec<(String, JsonValue)>) {
    let mut obj: Vec<(String, JsonValue)> = vec![("report".to_string(), kind.into())];
    obj.append(&mut fields);
    println!("{}", JsonValue::Obj(obj).to_json());
}

/// Generates all 20 series of Table I at the given scale.
pub fn all_series(scale: Scale) -> Vec<TimeSeries> {
    DatasetId::all()
        .into_iter()
        .map(|id| generate(id, scale.series_len, scale.seed))
        .collect()
}

/// Builds the base-model pool for one dataset.
pub fn build_pool(scale: Scale, season: usize) -> Vec<Box<dyn Forecaster>> {
    if scale.quick_pool {
        quick_pool(5, season, scale.seed)
    } else {
        standard_pool(5, season, scale.seed)
    }
}

/// The individually evaluated forecasters of Table II
/// (ARIMA, RF, GBM, LSTM, StLSTM).
pub fn standalone_models(seed: u64) -> Vec<(String, Box<dyn Forecaster>)> {
    vec![
        (
            "ARIMA".to_string(),
            Box::new(Arima::new(2, 1, 1)) as Box<dyn Forecaster>,
        ),
        (
            "RF".to_string(),
            Box::new(random_forest(5, 30, 8, seed ^ 0x11)),
        ),
        (
            "GBM".to_string(),
            Box::new(gradient_boosting(5, 100, 3, 0.05)),
        ),
        (
            "LSTM".to_string(),
            Box::new(lstm_forecaster(5, 8, 30, seed ^ 0x12)),
        ),
        (
            "StLSTM".to_string(),
            Box::new(stacked_lstm_forecaster(5, 8, 8, 30, seed ^ 0x13)),
        ),
    ]
}

/// The paper's EA-DRL configuration (ω = 10, γ = 0.9, α = 0.01, rank
/// reward, diversity sampling), with the episode budget from `scale`.
pub fn eadrl_config(scale: Scale) -> EaDrlConfig {
    let mut config = EaDrlConfig {
        omega: OMEGA,
        episodes: scale.episodes,
        max_iter: 100,
        ..Default::default()
    };
    config.ddpg.seed = scale.seed;
    config
}

/// All combination methods of Table II: the ten baselines plus EA-DRL.
pub fn all_combiners(scale: Scale) -> Vec<Box<dyn Combiner>> {
    let mut combiners = all_baselines(OMEGA, scale.seed);
    combiners.push(Box::new(EaDrlPolicy::new(eadrl_config(scale))));
    combiners
}

/// Evaluates every Table II method on one dataset.
pub fn evaluate_dataset(id: DatasetId, scale: Scale) -> DatasetEvaluation {
    let series = generate(id, scale.series_len, scale.seed);
    let season = series
        .frequency()
        .default_season()
        .min(scale.series_len / 4);
    EvaluationProtocol.evaluate(
        series.name(),
        series.values(),
        build_pool(scale, season),
        standalone_models(scale.seed),
        all_combiners(scale),
    )
}

/// Runs the full 20-dataset sweep, printing progress to stderr and
/// emitting one `bench.dataset` telemetry event per dataset.
///
/// Datasets are independent (each builds its own pool and combiners from
/// `scale`), so the sweep fans out one parallel task per dataset via
/// `eadrl-par`; results come back in Table I order regardless of which
/// dataset finishes first, and the progress lines carry the dataset
/// number because their arrival order is scheduling-dependent.
pub fn evaluate_all(scale: Scale) -> Vec<DatasetEvaluation> {
    let _span = eadrl_obs::span("bench.sweep");
    let sweep = eadrl_par::par_map(DatasetId::all().to_vec(), |id| {
        let start = Instant::now();
        let eval = evaluate_dataset(id, scale);
        let seconds = start.elapsed().as_secs_f64();
        let best = eval.ranking().first().copied().unwrap_or("-").to_string();
        eadrl_obs::event(
            "bench.dataset",
            Level::Info,
            &[
                ("dataset", eval.dataset.as_str().into()),
                ("number", id.number().into()),
                ("pool_size", eval.pool_size.into()),
                ("best_method", best.as_str().into()),
                ("seconds", seconds.into()),
            ],
        );
        eprintln!(
            "  [{:>2}/20] {:<28} pool={} best={} ({seconds:.1}s)",
            id.number(),
            eval.dataset,
            eval.pool_size,
            best,
        );
        eval
    });
    match sweep {
        Ok(evals) => evals,
        Err(err) => {
            // A panicking evaluation is a bug; fall back to the serial
            // sweep so the failing dataset panics visibly in-thread.
            eadrl_obs::warn(
                "par.panic",
                &[("context", format!("{err}").as_str().into())],
            );
            DatasetId::all()
                .into_iter()
                .map(|id| evaluate_dataset(id, scale))
                .collect()
        }
    }
}

/// Wall-clock seconds for the *online* phase of one combination method on
/// one dataset: base-model one-step predictions plus weight computation
/// and combination for every test step — the Table III measurement. The
/// pool is swept by the serving guard, as `EaDrl::predict_next` sweeps
/// it. The combiner must already be warmed up; the pool must already be
/// fitted.
pub fn time_online(
    combiner: &mut dyn Combiner,
    pool: &[Box<dyn Forecaster>],
    train: &[f64],
    test: &[f64],
) -> f64 {
    let start = Instant::now();
    let mut guard = PoolGuard::new(GuardConfig::default(), pool.len());
    let mut history = train.to_vec();
    for &actual in test {
        let preds = guard.sweep(pool, &history).values;
        let _forecast = combiner.combine(&preds);
        combiner.observe(&preds, actual);
        history.push(actual);
    }
    start.elapsed().as_secs_f64()
}

/// Wall-clock seconds for the *combination-only* online work of a method:
/// weight computation, combination and state update per test step, with
/// the base-model predictions precomputed outside the timed region. This
/// isolates exactly the work that differs between methods (the pool
/// forecasts are identical for all of them).
pub fn time_combination_only(
    combiner: &mut dyn Combiner,
    preds: &[Vec<f64>],
    actuals: &[f64],
    repeats: usize,
) -> f64 {
    let start = Instant::now();
    for _ in 0..repeats.max(1) {
        for (p, &a) in preds.iter().zip(actuals.iter()) {
            let _forecast = combiner.combine(p);
            combiner.observe(p, a);
        }
    }
    start.elapsed().as_secs_f64() / repeats.max(1) as f64
}

/// Builds a DEMSC combiner with the paper-aligned defaults used in the
/// runtime comparison.
pub fn demsc_combiner(seed: u64) -> Demsc {
    Demsc::new(OMEGA, 0.25, 4, seed)
}

/// Mean and population standard deviation.
pub fn mean_std(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / values.len() as f64;
    (mean, var.sqrt())
}

/// Dataset metadata passthrough for the Table I binary.
pub fn table1_rows() -> Vec<(usize, String, String, String, String)> {
    catalog()
        .into_iter()
        .map(|spec| {
            (
                spec.id.number(),
                spec.name.to_string(),
                spec.source.to_string(),
                format!("{:?}", spec.frequency),
                spec.characteristics.to_string(),
            )
        })
        .collect()
}

/// A crude ASCII sparkline for learning curves in terminal output.
pub fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let range = (hi - lo).max(1e-12);
    values
        .iter()
        .map(|v| BARS[(((v - lo) / range) * 7.0).round() as usize])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_evaluates_one_dataset() {
        let eval = evaluate_dataset(DatasetId::WaterConsumption, Scale::quick());
        // 5 standalone + 11 combiners.
        assert_eq!(eval.results.len(), 16);
        assert!(eval.results.iter().all(|r| r.rmse.is_finite()));
        assert!(eval.result("EA-DRL").is_some());
        assert!(eval.result("DEMSC").is_some());
    }

    #[test]
    fn sparkline_maps_extremes() {
        let s = sparkline(&[0.0, 1.0]);
        assert_eq!(s.chars().count(), 2);
        assert_eq!(s.chars().next(), Some('▁'));
        assert_eq!(s.chars().last(), Some('█'));
    }

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[2.0, 4.0]);
        assert_eq!(m, 3.0);
        assert_eq!(s, 1.0);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
    }

    #[test]
    fn table1_has_twenty_rows() {
        let rows = table1_rows();
        assert_eq!(rows.len(), 20);
        assert_eq!(rows[0].1, "Water consumption");
    }
}
