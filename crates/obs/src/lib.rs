//! # eadrl-obs — zero-dependency telemetry for the EA-DRL workspace
//!
//! Observability primitives used across training, online serving and
//! the bench suite, built on `std` only:
//!
//! * **Metrics** ([`metrics`]) — lock-free counters and gauges, plus
//!   streaming log-bucketed histograms with p50/p90/p99 snapshots, kept
//!   in a process-wide [`metrics::Registry`].
//! * **Spans** ([`mod@span`]) — RAII scoped timers with hierarchical
//!   `/`-joined names (`eadrl.fit/ddpg.episode/ddpg.update`).
//! * **Events & sinks** ([`mod@event`], [`sink`]) — structured events with a
//!   stable JSONL wire format, routed to a no-op sink (default), an
//!   in-memory ring buffer (tests) or a JSONL file/stderr stream.
//!
//! ## Enabling telemetry
//!
//! Telemetry is off by default and costs one relaxed atomic load per
//! guarded call site. Turn it on programmatically:
//!
//! ```
//! use std::sync::Arc;
//! let sink = Arc::new(eadrl_obs::RingSink::new(1024));
//! eadrl_obs::set_sink(sink.clone());
//! eadrl_obs::set_level(Some(eadrl_obs::Level::Debug));
//! ```
//!
//! or through the environment (first telemetry touch reads it once):
//!
//! ```text
//! EADRL_OBS=jsonl                  # JSONL to stderr, debug level
//! EADRL_OBS=jsonl:trace.jsonl@info # JSONL to a file, info level
//! ```
//!
//! ## Event levels used by the workspace
//!
//! | level | what |
//! |-------|------|
//! | warn  | contract violations (`ddpg.episode.empty`) |
//! | info  | fit/episode/refresh-grained progress |
//! | debug | per-step weight vectors, `predict_next` spans |
//! | trace | per-minibatch `ddpg.update` spans |
#![forbid(unsafe_code)]

pub mod config;
pub mod context;
pub mod event;
pub mod json;
pub mod metrics;
pub mod schema;
pub mod sink;
pub mod span;

pub use config::{ObsConfig, SinkTarget};
pub use context::{current_span_path, thread_id, worker_context, WorkerContext};
pub use event::{Event, EventKind, Level, Value};
pub use metrics::{global_registry, Counter, Gauge, Histogram, HistogramSnapshot, Registry};
pub use schema::ObsSchema;
pub use sink::{EventSink, JsonlSink, NoopSink, RingSink};
pub use span::Span;

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

// Packed level: 0 = off, otherwise Level discriminant + 1.
const LEVEL_OFF: u8 = 0;

struct Obs {
    level: AtomicU8,
    sink: RwLock<Arc<dyn EventSink>>,
}

fn level_to_u8(level: Option<Level>) -> u8 {
    match level {
        None => LEVEL_OFF,
        Some(Level::Error) => 1,
        Some(Level::Warn) => 2,
        Some(Level::Info) => 3,
        Some(Level::Debug) => 4,
        Some(Level::Trace) => 5,
    }
}

fn obs() -> &'static Obs {
    static OBS: OnceLock<Obs> = OnceLock::new();
    OBS.get_or_init(|| {
        let state = Obs {
            level: AtomicU8::new(LEVEL_OFF),
            sink: RwLock::new(Arc::new(NoopSink)),
        };
        apply_config(&state, &ObsConfig::from_env());
        state
    })
}

// eadrl-lint: allow(panic-reachable): lock poisoning requires a prior panic elsewhere; aborting is the correct response
fn apply_config(state: &Obs, config: &ObsConfig) {
    let sink: Arc<dyn EventSink> = match &config.target {
        SinkTarget::Noop => Arc::new(NoopSink),
        SinkTarget::Stderr => Arc::new(JsonlSink::stderr()),
        SinkTarget::File(path) => match JsonlSink::file(path) {
            Ok(s) => Arc::new(s),
            Err(err) => {
                eprintln!(
                    "eadrl-obs: cannot open {}: {err}; telemetry disabled",
                    path.display()
                );
                Arc::new(NoopSink)
            }
        },
    };
    *state.sink.write().unwrap() = sink;
    state
        .level
        .store(level_to_u8(config.level), Ordering::Release);
}

/// Installs a configuration (sink + level), replacing the current one.
pub fn init(config: &ObsConfig) {
    apply_config(obs(), config);
}

/// Replaces the event sink, leaving the level untouched.
// eadrl-lint: allow(panic-reachable): lock poisoning requires a prior panic elsewhere; aborting is the correct response
pub fn set_sink(sink: Arc<dyn EventSink>) {
    *obs().sink.write().unwrap() = sink;
}

/// Sets the maximum emitted level; `None` disables event emission.
pub fn set_level(level: Option<Level>) {
    obs().level.store(level_to_u8(level), Ordering::Release);
}

/// The current maximum emitted level (`None` when off).
pub fn level() -> Option<Level> {
    match obs().level.load(Ordering::Acquire) {
        1 => Some(Level::Error),
        2 => Some(Level::Warn),
        3 => Some(Level::Info),
        4 => Some(Level::Debug),
        5 => Some(Level::Trace),
        _ => None,
    }
}

/// True when events at `level` would currently be emitted. This is the
/// cheap guard to wrap expensive field computation in:
///
/// ```
/// if eadrl_obs::enabled(eadrl_obs::Level::Debug) {
///     // compute gradient norms, emit event ...
/// }
/// ```
#[inline]
pub fn enabled(level: Level) -> bool {
    obs().level.load(Ordering::Relaxed) >= level_to_u8(Some(level))
}

/// Sends an already-built event to the sink if its level is enabled.
/// Inside a buffering [`worker_context`], the event is captured on the
/// current thread instead (the pool replays it via [`emit_batch`]).
// eadrl-lint: allow(panic-reachable): lock poisoning requires a prior panic elsewhere; aborting is the correct response
pub fn emit(event: Event) {
    if !enabled(event.level) {
        return;
    }
    if context::buffer_push(&event) {
        return;
    }
    obs().sink.read().unwrap().emit(&event);
}

/// Replays a batch of already-level-checked events (a worker buffer) to
/// the sink, preserving their order. Called by `eadrl-par` after joining
/// its workers, one batch per worker in worker-index order. When the
/// calling thread is itself inside a buffering [`worker_context`] (a
/// nested pool), the batch lands in that outer buffer instead.
// eadrl-lint: allow(panic-reachable): lock poisoning requires a prior panic elsewhere; aborting is the correct response
pub fn emit_batch(events: Vec<Event>) {
    if events.is_empty() {
        return;
    }
    if context::buffer_extend(&events) {
        return;
    }
    let sink = obs().sink.read().unwrap();
    for event in &events {
        sink.emit(event);
    }
}

/// Emits a point event with fields, e.g.
/// `eadrl_obs::event("ddpg.episode", Level::Info, &[("reward", r.into())])`.
/// Field values are only cloned when the level is enabled — but prefer
/// [`event_with`] when *computing* the fields is itself expensive.
pub fn event(name: &str, level: Level, fields: &[(&str, Value)]) {
    if !enabled(level) {
        return;
    }
    let mut e = Event::new(name, EventKind::Event, level);
    for (k, v) in fields {
        e = e.field(k, v.clone());
    }
    emit(e);
}

/// Emits a point event whose fields are built lazily — the closure runs
/// only when `level` is enabled.
pub fn event_with(name: &str, level: Level, build: impl FnOnce() -> Vec<(String, Value)>) {
    if !enabled(level) {
        return;
    }
    let mut e = Event::new(name, EventKind::Event, level);
    e.fields = build();
    emit(e);
}

/// Emits a warning event (contract violations, degraded behaviour).
pub fn warn(name: &str, fields: &[(&str, Value)]) {
    event(name, Level::Warn, fields);
}

/// Starts an info-level span. Bind it: `let _span = eadrl_obs::span("eadrl.fit");`.
pub fn span(name: &'static str) -> Span {
    Span::enter(name)
}

/// Starts a span at an explicit level.
pub fn span_at(level: Level, name: &'static str) -> Span {
    Span::enter_at(level, name)
}

/// A counter from the global registry.
pub fn counter(name: &str) -> Arc<Counter> {
    global_registry().counter(name)
}

/// A gauge from the global registry.
pub fn gauge(name: &str) -> Arc<Gauge> {
    global_registry().gauge(name)
}

/// A histogram from the global registry.
pub fn histogram(name: &str) -> Arc<Histogram> {
    global_registry().histogram(name)
}

/// Snapshots every metric in the global registry as metric-kind events
/// and emits them at info level (useful at the end of a run).
// eadrl-lint: allow(unreachable-pub): no caller yet; ROADMAP item 5's server health snapshot emits through it
pub fn emit_metrics_snapshot() {
    for e in global_registry().snapshot_events() {
        emit(e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global level/sink are process-wide; keep every mutation of them
    // inside this one test to avoid cross-test interference.
    #[test]
    fn global_pipeline_gates_by_level() {
        let sink = Arc::new(RingSink::new(64));
        set_sink(sink.clone());
        set_level(Some(Level::Info));
        assert!(enabled(Level::Warn));
        assert!(enabled(Level::Info));
        assert!(!enabled(Level::Debug));
        assert_eq!(level(), Some(Level::Info));

        event("lib.test.visible", Level::Info, &[("n", 1u64.into())]);
        event("lib.test.hidden", Level::Debug, &[]);
        let mut ran = false;
        event_with("lib.test.lazy.hidden", Level::Trace, || {
            ran = true;
            vec![]
        });
        assert!(!ran, "lazy fields must not be built when disabled");

        {
            let _outer = span("lib.test.outer");
            let _inner = span_at(Level::Debug, "lib.test.inner");
            assert!(_outer.is_recording());
            assert!(!_inner.is_recording());
        }

        let names: Vec<String> = sink.events().into_iter().map(|e| e.name).collect();
        assert!(names.contains(&"lib.test.visible".to_string()));
        assert!(names.contains(&"lib.test.outer".to_string()));
        assert!(!names.iter().any(|n| n.contains("hidden")));
        assert!(!names.iter().any(|n| n.contains("inner")));

        // Span duration landed in the global histogram.
        let h = histogram("lib.test.outer.duration_us");
        assert!(h.count() >= 1);

        // Reset so other binaries/tests in this process see the default.
        set_level(None);
        set_sink(Arc::new(NoopSink));
    }
}
