//! Graceful-degradation regression suite for the hardened serving path.
//!
//! The load-bearing regression here is NaN poisoning: before the guard,
//! a single pool member returning NaN made `dot(weights, predictions)`
//! NaN — and since the served value feeds back into the policy's
//! history, every later forecast too. These tests drive `EaDrl` with
//! deliberately misbehaving in-process members (no `eadrl-sim`
//! dependency: core must prove its own contract) and pin the documented
//! behaviour: finite output, quarantine entry and re-entry, weight
//! renormalization over survivors, and fit-time panic containment.
//!
//! Fault schedules key off `history.len()`, not call counters: fit-time
//! probes only ever see histories shorter than the training series, so
//! a threshold at the training length cleanly — and deterministically —
//! scopes the fault to the serving phase.

use eadrl_core::{EaDrl, EaDrlConfig};
use eadrl_models::{auto_regressive, Forecaster, ModelError, Naive, SeasonalNaive};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Serializes the tests that install a process-global telemetry sink.
static SINK_LOCK: Mutex<()> = Mutex::new(());

const TRAIN_LEN: usize = 240;

fn seasonal_series(n: usize) -> Vec<f64> {
    (0..n)
        .map(|t| (2.0 * std::f64::consts::PI * t as f64 / 12.0).sin() * 5.0 + 20.0)
        .collect()
}

fn healthy_pool() -> Vec<Box<dyn Forecaster>> {
    vec![
        Box::new(Naive),
        Box::new(SeasonalNaive::new(12)),
        Box::new(auto_regressive(5, 1e-3)),
    ]
}

fn fast_config() -> EaDrlConfig {
    let mut config = EaDrlConfig {
        omega: 8,
        episodes: 5,
        restarts: 1,
        ..EaDrlConfig::default()
    };
    config.ddpg.seed = 23;
    config.guard.quarantine_after = 2;
    config.guard.reentry_clean_calls = 4;
    config
}

/// Returns NaN on every serve-phase call (clean during fit).
#[derive(Debug, Clone)]
struct NanFromLen {
    from_len: usize,
}

impl Forecaster for NanFromLen {
    fn name(&self) -> &str {
        "NanFromLen"
    }
    fn fit(&mut self, _series: &[f64]) -> Result<(), ModelError> {
        Ok(())
    }
    fn predict_next(&self, history: &[f64]) -> f64 {
        if history.len() >= self.from_len {
            f64::NAN
        } else {
            history.last().copied().unwrap_or(0.0)
        }
    }
    fn box_clone(&self) -> Box<dyn Forecaster> {
        Box::new(self.clone())
    }
}

/// Panics while `from_len <= history.len() < from_len + burst`, clean
/// otherwise — a transient outage that should quarantine and then earn
/// re-entry.
#[derive(Debug, Clone)]
struct PanicBurst {
    from_len: usize,
    burst: usize,
}

impl Forecaster for PanicBurst {
    fn name(&self) -> &str {
        "PanicBurst"
    }
    fn fit(&mut self, _series: &[f64]) -> Result<(), ModelError> {
        Ok(())
    }
    fn predict_next(&self, history: &[f64]) -> f64 {
        if history.len() >= self.from_len && history.len() < self.from_len + self.burst {
            panic!("degradation-test injected panic");
        }
        history.last().copied().unwrap_or(0.0)
    }
    fn box_clone(&self) -> Box<dyn Forecaster> {
        Box::new(self.clone())
    }
}

/// Panics in `fit` — the member must be dropped without sinking the pool.
#[derive(Debug, Clone)]
struct FitBomb;

impl Forecaster for FitBomb {
    fn name(&self) -> &str {
        "FitBomb"
    }
    fn fit(&mut self, _series: &[f64]) -> Result<(), ModelError> {
        panic!("degradation-test injected fit panic");
    }
    fn predict_next(&self, history: &[f64]) -> f64 {
        history.last().copied().unwrap_or(0.0)
    }
    fn box_clone(&self) -> Box<dyn Forecaster> {
        Box::new(self.clone())
    }
}

/// Swallows the expected panic reports so the suite's output stays
/// readable; real panics still reach the default hook via the payload
/// filter.
fn quiet_expected_panics() {
    use std::sync::Once;
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let message = info
                .payload()
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| info.payload().downcast_ref::<String>().map(String::as_str));
            if message.is_some_and(|m| m.contains("degradation-test injected")) {
                return;
            }
            previous(info);
        }));
    });
}

#[test]
fn nan_member_no_longer_poisons_the_ensemble() {
    let series = seasonal_series(TRAIN_LEN + 20);
    let mut pool = healthy_pool();
    pool.push(Box::new(NanFromLen {
        from_len: TRAIN_LEN,
    }));
    let nan_index = pool.len() - 1;

    let mut model = EaDrl::new(pool, fast_config());
    model.fit(&series[..TRAIN_LEN]).expect("fit");

    let mut history = series[..TRAIN_LEN].to_vec();
    for &actual in &series[TRAIN_LEN..] {
        let forecast = model.predict_next(&history);
        assert!(
            forecast.is_finite(),
            "NaN member poisoned the ensemble at step {}",
            history.len() - TRAIN_LEN
        );
        history.push(actual);
    }

    // Every serve-phase call faulted, so the member must be quarantined…
    assert_eq!(model.guard().quarantined(), vec![nan_index]);
    // …and the effective weights renormalized over the survivors.
    let weights = model.current_weights();
    assert!(weights.iter().all(|w| w.is_finite() && *w >= 0.0));
    assert!((weights.iter().sum::<f64>() - 1.0).abs() < 1e-9);
}

#[test]
fn panic_burst_quarantines_then_reenters() {
    quiet_expected_panics();
    let series = seasonal_series(TRAIN_LEN + 20);
    let mut pool = healthy_pool();
    pool.push(Box::new(PanicBurst {
        from_len: TRAIN_LEN,
        burst: 3,
    }));
    let bomb_index = pool.len() - 1;

    let mut model = EaDrl::new(pool, fast_config());
    model.fit(&series[..TRAIN_LEN]).expect("fit");

    let mut history = series[..TRAIN_LEN].to_vec();
    let mut was_quarantined = false;
    for &actual in &series[TRAIN_LEN..] {
        let forecast = model.predict_next(&history);
        assert!(forecast.is_finite(), "panic leaked a non-finite forecast");
        was_quarantined |= model.guard().quarantined().contains(&bomb_index);
        history.push(actual);
    }
    assert!(
        was_quarantined,
        "three consecutive panics never tripped quarantine"
    );
    assert!(
        model.guard().quarantined().is_empty(),
        "member did not re-enter after the burst ended: {:?}",
        model.guard().quarantined()
    );
    assert!(model.guard().total_faults(bomb_index) >= 3);
}

#[test]
fn non_finite_history_is_sanitized_with_telemetry() {
    let _serialize = SINK_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let sink = std::sync::Arc::new(eadrl_obs::RingSink::new(4096));
    eadrl_obs::set_sink(sink.clone());
    eadrl_obs::set_level(Some(eadrl_obs::Level::Warn));

    let series = seasonal_series(TRAIN_LEN);
    let mut model = EaDrl::new(healthy_pool(), fast_config());
    model.fit(&series).expect("fit");

    let mut history = series.clone();
    history[40] = f64::NAN;
    history[41] = f64::INFINITY;
    let forecast = model.predict_next(&history);

    eadrl_obs::set_level(None);
    eadrl_obs::set_sink(std::sync::Arc::new(eadrl_obs::NoopSink));

    assert!(
        forecast.is_finite(),
        "gap in history leaked into the output"
    );
    let sanitize_events = sink.events_named("eadrl.sanitize");
    assert!(
        !sanitize_events.is_empty(),
        "history repair must be visible in telemetry"
    );
}

#[test]
fn fit_panic_drops_the_offender_and_keeps_serving() {
    quiet_expected_panics();
    let series = seasonal_series(TRAIN_LEN + 10);
    let mut pool = healthy_pool();
    pool.push(Box::new(FitBomb));

    let mut model = EaDrl::new(pool, fast_config());
    model
        .fit(&series[..TRAIN_LEN])
        .expect("fit survives a member's panic");
    assert_eq!(model.n_models(), 3, "only the bomb is dropped");
    assert!(
        model
            .dropped_models()
            .iter()
            .any(|name| name.contains("FitBomb")),
        "drop report must name the panicking member: {:?}",
        model.dropped_models()
    );

    let mut history = series[..TRAIN_LEN].to_vec();
    for &actual in &series[TRAIN_LEN..] {
        assert!(model.predict_next(&history).is_finite());
        history.push(actual);
    }
}

#[test]
fn total_member_outage_falls_back_instead_of_crashing() {
    quiet_expected_panics();
    let series = seasonal_series(TRAIN_LEN + 6);
    // Every member dead during serving: the documented behaviour is the
    // history fallback, not a panic and not NaN.
    let pool: Vec<Box<dyn Forecaster>> = vec![
        Box::new(NanFromLen {
            from_len: TRAIN_LEN,
        }),
        Box::new(PanicBurst {
            from_len: TRAIN_LEN,
            burst: 100,
        }),
    ];
    let mut model = EaDrl::new(pool, fast_config());
    model.fit(&series[..TRAIN_LEN]).expect("fit");

    let mut history = series[..TRAIN_LEN].to_vec();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut forecasts = Vec::new();
        for &actual in &series[TRAIN_LEN..] {
            forecasts.push(model.predict_next(&history));
            history.push(actual);
        }
        forecasts
    }));
    let forecasts = outcome.expect("total outage must not escape as a panic");
    assert!(
        forecasts.iter().all(|f| f.is_finite()),
        "outage fallback leaked non-finite forecasts: {forecasts:?}"
    );
}
