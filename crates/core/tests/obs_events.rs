//! End-to-end telemetry contract: fitting and serving an EA-DRL model
//! with a ring-buffer sink installed must produce the documented event
//! stream (one `ddpg.episode` per configured episode, an `eadrl.fit`
//! span, per-step `eadrl.weights` vectors), and a warm-start refresh
//! must train under its own span, not under the fit's `eadrl.warm_up`.
//! Each input repair (the training series, a served history, a refresh
//! buffer) reports itself as exactly one `eadrl.sanitize` warning. A
//! guard's fold-ahead job reports one trace span per job, flushed at the
//! sweep that joins it, wherever two threads and two cores are free.
//!
//! The sink and level are process-global, so every test in this binary
//! holds [`OBS`] while it records.

use eadrl_core::{
    AdaptiveEaDrl, Combiner, EaDrl, EaDrlConfig, GuardConfig, PoolGuard, RefreshStrategy,
    RefreshTrigger,
};
use eadrl_models::{auto_regressive, Arima, Ets, EtsKind, Forecaster, Naive, SeasonalNaive};
use eadrl_obs::{Event, EventKind, Level, NoopSink, RingSink, Value};
use std::sync::{Arc, Mutex, MutexGuard};

/// Serializes the tests' use of the process-global sink and level.
static OBS: Mutex<()> = Mutex::new(());

fn lock_obs() -> MutexGuard<'static, ()> {
    OBS.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Runs `f` with a fresh ring sink installed at debug level and returns
/// the sink.
fn record(f: impl FnOnce()) -> Arc<RingSink> {
    let sink = Arc::new(RingSink::new(65_536));
    eadrl_obs::set_sink(sink.clone());
    eadrl_obs::set_level(Some(Level::Debug));
    f();
    eadrl_obs::set_level(None);
    eadrl_obs::set_sink(Arc::new(NoopSink));
    sink
}

fn seasonal_series(n: usize) -> Vec<f64> {
    (0..n)
        .map(|t| (2.0 * std::f64::consts::PI * t as f64 / 12.0).sin() * 5.0 + 20.0)
        .collect()
}

fn tiny_pool() -> Vec<Box<dyn Forecaster>> {
    vec![
        Box::new(Naive),
        Box::new(SeasonalNaive::new(12)),
        Box::new(auto_regressive(5, 1e-3)),
    ]
}

#[test]
fn fit_and_predict_emit_the_documented_event_stream() {
    let _obs = lock_obs();
    let sink = Arc::new(RingSink::new(65_536));
    eadrl_obs::set_sink(sink.clone());
    eadrl_obs::set_level(Some(Level::Debug));

    let mut config = EaDrlConfig {
        omega: 6,
        episodes: 10,
        max_iter: 40,
        restarts: 1,
        ..Default::default()
    };
    config.ddpg.seed = 17;
    let episodes = config.episodes;
    let restarts = config.restarts;

    let series = seasonal_series(300);
    let mut model = EaDrl::new(tiny_pool(), config);
    model.fit(&series[..240]).unwrap();
    let _ = model.forecast(&series[..240], 5);

    eadrl_obs::set_level(None);
    eadrl_obs::set_sink(Arc::new(NoopSink));

    // ≥ 1 ddpg.episode event per configured episode (restarts multiply).
    let episode_events: Vec<_> = sink
        .events_named("ddpg.episode")
        .into_iter()
        .filter(|e| e.kind == EventKind::Event)
        .collect();
    assert!(
        episode_events.len() >= episodes * restarts,
        "expected >= {} ddpg.episode events, got {}",
        episodes * restarts,
        episode_events.len()
    );
    for e in &episode_events {
        assert!(matches!(e.get("avg_reward"), Some(Value::F64(v)) if v.is_finite()));
    }

    // The fit span closed and reported a duration.
    let fit_spans: Vec<_> = sink
        .events()
        .into_iter()
        .filter(|e| e.kind == EventKind::Span && e.name == "eadrl.fit")
        .collect();
    assert_eq!(fit_spans.len(), 1, "exactly one eadrl.fit span");
    assert!(matches!(
        fit_spans[0].get("duration_us"),
        Some(Value::U64(_))
    ));

    // Span paths nest: the episode spans ran inside the fit's warm-up,
    // and none under the refresh's selection span.
    let fit_episode_spans = episode_spans(&sink);
    assert!(
        !fit_episode_spans.is_empty(),
        "debug level records episode spans"
    );
    for path in &fit_episode_spans {
        assert!(
            path.starts_with("eadrl.fit/eadrl.warm_up/") && !path.contains("eadrl.online.select"),
            "a fit's episode span must nest under eadrl.fit/eadrl.warm_up: {path}"
        );
    }

    // Selection and pool bookkeeping happened.
    assert_eq!(sink.events_named("eadrl.selection").len(), 1);
    assert_eq!(sink.events_named("eadrl.fit.pool").len(), 1);
    assert!(sink.events_named("eadrl.restart").len() >= restarts);

    // Serving: one weights vector and one predict_next span per step.
    let weight_events = sink.events_named("eadrl.weights");
    assert!(weight_events.len() >= 5, "5 forecast steps emit weights");
    for e in weight_events.iter().rev().take(5) {
        let Some(Value::F64s(w)) = e.get("weights") else {
            panic!("weights field missing: {e:?}");
        };
        assert_eq!(w.len(), model.n_models());
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-6);
        assert!(matches!(e.get("entropy"), Some(Value::F64(v)) if v.is_finite()));
    }
    let predict_spans: Vec<_> = sink
        .events_named("eadrl.predict_next")
        .into_iter()
        .filter(|e| e.kind == EventKind::Span)
        .collect();
    assert!(predict_spans.len() >= 5, "predict_next spans per step");

    // Prediction latency landed in the global histogram.
    assert!(eadrl_obs::histogram("eadrl.predict_next.duration_us").count() >= 5);

    // A warm-start refresh trains under its own span.
    let mut config = EaDrlConfig {
        omega: 6,
        episodes: 4,
        max_iter: 40,
        restarts: 1,
        ..Default::default()
    };
    config.ddpg.seed = 17;
    let warm_episodes = 3;
    let values = seasonal_series(200);
    let preds: Vec<Vec<f64>> = values
        .iter()
        .enumerate()
        .map(|(t, &a)| vec![a + 0.1 * (t % 3) as f64, a + 1.5, a - 4.0])
        .collect();
    let mut adaptive = AdaptiveEaDrl::new(config, RefreshTrigger::Never, 60).with_strategy(
        RefreshStrategy::WarmStart {
            episodes: warm_episodes,
        },
    );
    adaptive.warm_up(&preds[..100], &values[..100]);
    for (p, &a) in preds[100..].iter().zip(&values[100..]) {
        adaptive.observe(p, a);
    }
    sink.clear();
    eadrl_obs::set_sink(sink.clone());
    eadrl_obs::set_level(Some(Level::Debug));
    adaptive.refresh_now();
    eadrl_obs::set_level(None);
    eadrl_obs::set_sink(Arc::new(NoopSink));
    assert_eq!(adaptive.refreshes(), 1, "the warm refresh deploys");
    assert_eq!(
        episode_spans(&sink),
        vec!["eadrl.online.refresh/eadrl.online.select/ddpg.episode"; warm_episodes],
        "a warm refresh's episodes nest under its own selection span"
    );
}

#[test]
fn each_input_repair_emits_one_sanitize_warning() {
    let _obs = lock_obs();
    let config = || {
        let mut config = EaDrlConfig {
            omega: 6,
            episodes: 4,
            max_iter: 40,
            restarts: 1,
            ..Default::default()
        };
        config.ddpg.seed = 17;
        config
    };

    // A training series with a leading gap and a two-value gap.
    let mut train = seasonal_series(240);
    for i in [0, 50, 51] {
        train[i] = f64::NAN;
    }
    let mut model = EaDrl::new(tiny_pool(), config());
    let sink = record(|| model.fit(&train).unwrap());
    assert_one_sanitize(&sink, "fit", 3, 1, 240);

    // A served history with a gap at its tail.
    let mut history = seasonal_series(240);
    history[237] = f64::INFINITY;
    history[238] = f64::NAN;
    let sink = record(|| assert!(model.predict_next(&history).is_finite()));
    assert_one_sanitize(&sink, "predict_history", 2, 0, 240);

    // A refresh buffer holding one non-finite actual.
    let values = seasonal_series(200);
    let preds: Vec<Vec<f64>> = values
        .iter()
        .map(|&a| vec![a + 0.3, a + 1.5, a - 4.0])
        .collect();
    let mut adaptive = AdaptiveEaDrl::new(config(), RefreshTrigger::Never, 60);
    adaptive.warm_up(&preds[..100], &values[..100]);
    for (t, (p, &a)) in preds[100..].iter().zip(&values[100..]).enumerate() {
        adaptive.observe(p, if t == 70 { f64::NAN } else { a });
    }
    let sink = record(|| adaptive.refresh_now());
    assert_one_sanitize(&sink, "refresh_buffer", 1, 0, 60);
    assert_eq!(adaptive.refreshes(), 1, "the repaired buffer trains");
}

/// Asserts that `sink` holds exactly one `eadrl.sanitize` event: a
/// warning whose fields are, in order, `context`, `replaced`, `leading`
/// and `len` with the given values.
fn assert_one_sanitize(sink: &RingSink, context: &str, replaced: u64, leading: u64, len: u64) {
    let events: Vec<Event> = sink.events_named("eadrl.sanitize");
    assert_eq!(events.len(), 1, "{context}: {events:?}");
    let event = &events[0];
    assert_eq!((event.kind, event.level), (EventKind::Event, Level::Warn));
    let want = [
        ("context", Value::Str(context.to_string())),
        ("replaced", Value::U64(replaced)),
        ("leading", Value::U64(leading)),
        ("len", Value::U64(len)),
    ];
    let got: Vec<(&str, &Value)> = event.fields.iter().map(|(k, v)| (k.as_str(), v)).collect();
    let want: Vec<(&str, &Value)> = want.iter().map(|(k, v)| (*k, v)).collect();
    assert_eq!(got, want, "{context}");
}

/// The span paths of every `ddpg.episode` span recorded so far.
fn episode_spans(sink: &RingSink) -> Vec<String> {
    sink.events()
        .into_iter()
        .filter(|e| e.kind == EventKind::Span && e.name.ends_with("/ddpg.episode"))
        .map(|e| e.name)
        .collect()
}

#[test]
fn each_fold_ahead_job_reports_one_trace_span_at_its_join() {
    let _obs = lock_obs();
    let series = seasonal_series(300);
    let mut pool: Vec<Box<dyn Forecaster>> = vec![
        Box::new(Arima::new(1, 1, 1)),
        Box::new(Naive),
        Box::new(Ets::new(EtsKind::Holt)),
    ];
    for model in &mut pool {
        model.fit(&series[..200]).expect("fits");
    }
    let mut guard = PoolGuard::new(GuardConfig::default(), pool.len());
    // The sidecar's placement rule: one core or one thread folds nothing
    // ahead.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let folds_ahead = eadrl_par::thread_count() >= 2 && cores >= 2;
    let sink = Arc::new(RingSink::new(65_536));
    eadrl_obs::set_sink(sink.clone());
    eadrl_obs::set_level(Some(Level::Trace));
    // A fresh window, then nine slides, each of which starts a job that
    // the next slide joins; the last window again leaves the ninth job
    // unjoined until the guard drops.
    for end in 200..210 {
        guard.sweep(&pool, &series[end - 100..end]);
    }
    guard.sweep(&pool, &series[109..209]);
    eadrl_obs::set_level(None);
    eadrl_obs::set_sink(Arc::new(NoopSink));
    drop(guard);
    let events = sink.events();
    let jobs: Vec<&Event> = events
        .iter()
        .filter(|e| e.kind == EventKind::Span && e.name == "core.guard.fold_ahead")
        .collect();
    let joined = if folds_ahead { 8 } else { 0 };
    assert_eq!(jobs.len(), joined);
    for job in jobs {
        let field = |key: &str| job.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        assert_eq!(
            field("values"),
            Some(&Value::U64(99)),
            "all but the oldest value"
        );
        assert_eq!(field("states"), Some(&Value::U64(2)), "ARIMA and ETS");
    }
    let waits = events
        .iter()
        .filter(|e| e.kind == EventKind::Span && e.name == "par.sidecar.wait")
        .count();
    assert_eq!(waits, joined, "one join per joined job");
}
