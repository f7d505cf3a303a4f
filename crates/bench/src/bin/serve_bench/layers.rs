//! The traced run: per-member timing shims, spans kept in memory, and the
//! per-layer metrics derived from them.
//!
//! Spans are recorded only around calls the benchmark makes: each pool
//! member is wrapped in [`Timed`], the serving loop times each step, and
//! two side probes time `sanitize_series` and the actor's forward pass on
//! the same inputs outside the step. Layer names follow the crates and
//! modules the time is spent in.

use crate::faults::FaultPlan;
use crate::serve::{micros, percentile, Pass};
use crate::workload::Server;
use eadrl_models::{Forecaster, ModelError, ModelFamily, PredictError};
use eadrl_obs::{Event, EventKind, Level};
use eadrl_timeseries::sanitize::sanitize_series;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The sixteen model families of the paper's pool with their layer
/// names.
pub const FAMILIES: [(ModelFamily, &str); 16] = [
    (ModelFamily::Arima, "arima"),
    (ModelFamily::Ets, "ets"),
    (ModelFamily::Gbm, "gbm"),
    (ModelFamily::GaussianProcess, "gp"),
    (ModelFamily::Svr, "svr"),
    (ModelFamily::RandomForest, "rf"),
    (ModelFamily::ProjectionPursuit, "ppr"),
    (ModelFamily::Mars, "mars"),
    (ModelFamily::Pcr, "pcr"),
    (ModelFamily::DecisionTree, "dt"),
    (ModelFamily::Pls, "pls"),
    (ModelFamily::Mlp, "mlp"),
    (ModelFamily::Lstm, "lstm"),
    (ModelFamily::BiLstm, "bilstm"),
    (ModelFamily::CnnLstm, "cnn_lstm"),
    (ModelFamily::ConvLstm, "conv_lstm"),
];

/// Family slots: the sixteen families plus one for custom members, which
/// the paper's pool does not have and no layer metric reports.
const SLOTS: usize = FAMILIES.len() + 1;

/// Sampled steps: every `SAMPLE_EVERY`-th step (plus every refresh step)
/// is written to the JSONL trace.
const SAMPLE_EVERY: usize = 100;

/// The slot of a pool member, from its name.
pub fn family_slot(name: &str) -> usize {
    let family = ModelFamily::of(name);
    FAMILIES
        .iter()
        .position(|(f, _)| *f == family)
        .unwrap_or(FAMILIES.len())
}

fn family_label(slot: usize) -> &'static str {
    FAMILIES.get(slot).map_or("other", |(_, label)| label)
}

/// One timed member call.
#[derive(Debug, Clone, Copy)]
pub struct Call {
    /// Family slot of the member.
    pub slot: usize,
    /// `fit` (true) or a prediction.
    pub fit: bool,
    /// Call start.
    pub start: Instant,
    /// Call end (also reached by unwinding).
    pub end: Instant,
    /// `eadrl-obs` thread id of the caller (`eadrl-par` workers are 1+).
    pub thread: u64,
}

/// Where [`Timed`] members record their calls.
#[derive(Debug, Default)]
pub struct Recorder {
    calls: Mutex<Vec<Call>>,
}

impl Recorder {
    fn push(&self, call: Call) {
        // Runs inside a destructor, possibly while unwinding: a poisoned
        // lock loses the record instead of panicking again.
        if let Ok(mut calls) = self.calls.lock() {
            calls.push(call);
        }
    }

    /// Moves every recorded call into `out` (cleared first).
    pub fn drain_into(&self, out: &mut Vec<Call>) {
        out.clear();
        if let Ok(mut calls) = self.calls.lock() {
            out.append(&mut calls);
        }
    }
}

/// A forwarding [`Forecaster`] that times every call of the wrapped
/// member, including calls that panic.
pub struct Timed {
    inner: Box<dyn Forecaster>,
    slot: usize,
    recorder: Arc<Recorder>,
}

impl Timed {
    /// Wraps every member of `pool`.
    pub fn wrap_pool(
        pool: Vec<Box<dyn Forecaster>>,
        recorder: &Arc<Recorder>,
    ) -> Vec<Box<dyn Forecaster>> {
        pool.into_iter()
            .map(|inner| {
                Box::new(Timed {
                    slot: family_slot(inner.name()),
                    inner,
                    recorder: Arc::clone(recorder),
                }) as Box<dyn Forecaster>
            })
            .collect()
    }
}

/// Records its call when dropped, which unwinding also does.
struct CallTimer<'a> {
    recorder: &'a Recorder,
    slot: usize,
    fit: bool,
    start: Instant,
}

impl<'a> CallTimer<'a> {
    fn start(recorder: &'a Recorder, slot: usize, fit: bool) -> CallTimer<'a> {
        CallTimer {
            recorder,
            slot,
            fit,
            start: Instant::now(),
        }
    }
}

impl Drop for CallTimer<'_> {
    fn drop(&mut self) {
        self.recorder.push(Call {
            slot: self.slot,
            fit: self.fit,
            start: self.start,
            end: Instant::now(),
            thread: eadrl_obs::thread_id(),
        });
    }
}

impl Forecaster for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn fit(&mut self, series: &[f64]) -> Result<(), ModelError> {
        let _timer = CallTimer::start(&self.recorder, self.slot, true);
        self.inner.fit(series)
    }

    fn predict_next(&self, history: &[f64]) -> f64 {
        let _timer = CallTimer::start(&self.recorder, self.slot, false);
        self.inner.predict_next(history)
    }

    fn try_predict_next(&self, history: &[f64]) -> Result<f64, PredictError> {
        let _timer = CallTimer::start(&self.recorder, self.slot, false);
        self.inner.try_predict_next(history)
    }

    fn cost_hint_us(&self) -> Option<u64> {
        self.inner.cost_hint_us()
    }

    fn box_clone(&self) -> Box<dyn Forecaster> {
        Box::new(Timed {
            inner: self.inner.box_clone(),
            slot: self.slot,
            recorder: Arc::clone(&self.recorder),
        })
    }
}

/// A named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Accumulates one traced run: set-up spans, per-step member time,
/// probes, and the sampled spans of the JSONL trace.
pub struct Tracer {
    recorder: Arc<Recorder>,
    epoch: Instant,
    epoch_wall_us: u64,
    calls: Vec<Call>,
    predict: [Duration; SLOTS],
    fit: [Duration; SLOTS],
    setup_pool: Duration,
    setup_policy: Duration,
    serve_self: Duration,
    sanitize: Duration,
    weights: Duration,
    steps: usize,
    quarantined_max: usize,
    events: Vec<Event>,
}

impl Tracer {
    /// A tracer reading `recorder`.
    pub fn new(recorder: Arc<Recorder>) -> Tracer {
        Tracer {
            recorder,
            epoch: Instant::now(),
            epoch_wall_us: eadrl_obs::event::now_us(),
            calls: Vec::new(),
            predict: [Duration::ZERO; SLOTS],
            fit: [Duration::ZERO; SLOTS],
            setup_pool: Duration::ZERO,
            setup_policy: Duration::ZERO,
            serve_self: Duration::ZERO,
            sanitize: Duration::ZERO,
            weights: Duration::ZERO,
            steps: 0,
            quarantined_max: 0,
            events: Vec::new(),
        }
    }

    fn span(&mut self, name: String, start: Instant, end: Instant, thread: u64) {
        let mut event = Event::new(name, EventKind::Span, Level::Info).field(
            "duration_us",
            round_us(end.saturating_duration_since(start)),
        );
        event.ts_us = self.epoch_wall_us + round_us(end.saturating_duration_since(self.epoch));
        event.thread = thread;
        self.events.push(event);
    }

    /// Accounts the set-up that ran from `begin` to `end`: member fit
    /// time per family, and the split into pool work (up to the last
    /// member call) and policy warm-up (the rest).
    pub fn after_setup(&mut self, begin: Instant, end: Instant) {
        let mut calls = std::mem::take(&mut self.calls);
        self.recorder.drain_into(&mut calls);
        let pool_end = calls
            .iter()
            .map(|c| c.end)
            .max()
            .unwrap_or(begin)
            .clamp(begin, end);
        for call in calls.iter().filter(|c| c.fit) {
            self.fit[call.slot] += call.end - call.start;
            let name = format!("setup/setup.pool/models.{}.fit", family_label(call.slot));
            self.span(name, call.start, call.end, call.thread);
        }
        self.setup_pool = pool_end - begin;
        self.setup_policy = end - pool_end;
        self.span("setup/setup.pool".into(), begin, pool_end, 0);
        self.span("setup/setup.policy".into(), pool_end, end, 0);
        self.span("setup".into(), begin, end, 0);
        calls.clear();
        self.calls = calls;
    }

    /// Accounts serving step `i` (`begin`..`end`) and runs the side
    /// probes on the same input.
    pub fn after_step(
        &mut self,
        i: usize,
        begin: Instant,
        end: Instant,
        refreshed: bool,
        server: &mut Server,
        history: &[f64],
    ) {
        let mut calls = std::mem::take(&mut self.calls);
        self.recorder.drain_into(&mut calls);
        let sampled = i.is_multiple_of(SAMPLE_EVERY) || refreshed;
        let mut members = Duration::ZERO;
        for call in &calls {
            let d = call.end - call.start;
            self.predict[call.slot] += d;
            members += d;
            if sampled {
                let name = format!("core.serve.step/models.{}.predict", family_label(call.slot));
                self.span(name, call.start, call.end, call.thread);
            }
        }
        self.calls = calls;
        let refresh = if refreshed {
            server.last_observe()
        } else {
            Duration::ZERO
        };
        self.serve_self += (end - begin).saturating_sub(members + refresh);
        self.steps += 1;
        if refreshed {
            self.span(
                "core.serve.step/core.online.refresh".into(),
                begin,
                begin + refresh,
                0,
            );
        }
        if sampled {
            self.span("core.serve.step".into(), begin, end, 0);
        }

        let t0 = Instant::now();
        black_box(sanitize_series(black_box(history)));
        let t1 = Instant::now();
        black_box(server.weights());
        let t2 = Instant::now();
        self.sanitize += t1 - t0;
        self.weights += t2 - t1;
        if sampled {
            self.span("timeseries.sanitize".into(), t0, t1, 0);
            self.span("core.policy.weights".into(), t1, t2, 0);
        }
        self.quarantined_max = self.quarantined_max.max(server.guard().quarantined().len());
    }

    /// The per-layer metrics of the traced pass. `untraced_p50_us` is the
    /// same workload's median latency with tracing off.
    pub fn layers(
        &self,
        pass: &Pass,
        server: &Server,
        plan: &FaultPlan,
        untraced_p50_us: f64,
    ) -> Vec<Metric> {
        let steps = self.steps.max(1) as f64;
        let per_step_us = |d: Duration| micros(d) / steps;
        let mut out = Vec::new();
        for (slot, (_, family)) in FAMILIES.iter().enumerate() {
            out.push(Metric::new(
                format!("models.{family}.predict_us"),
                per_step_us(self.predict[slot]),
                "us",
            ));
        }
        for (slot, (_, family)) in FAMILIES.iter().enumerate() {
            out.push(Metric::new(
                format!("models.{family}.fit_ms"),
                self.fit[slot].as_secs_f64() * 1e3,
                "ms",
            ));
        }
        let refresh_ms: f64 = pass.refresh_ms.iter().sum();
        let service_ms: f64 = pass.service_us.iter().sum::<f64>() / 1e3;
        out.extend([
            Metric::new("setup.pool_s", self.setup_pool.as_secs_f64(), "s"),
            Metric::new("setup.policy_s", self.setup_policy.as_secs_f64(), "s"),
            Metric::new("core.serve.self_us", per_step_us(self.serve_self), "us"),
            Metric::new("timeseries.sanitize_us", per_step_us(self.sanitize), "us"),
            Metric::new("core.policy.weights_us", per_step_us(self.weights), "us"),
            Metric::new("models.faults", plan.injected() as f64, "count"),
            Metric::new("core.guard.faults", server.guard_faults() as f64, "count"),
            Metric::new(
                "core.guard.quarantined_max",
                self.quarantined_max as f64,
                "count",
            ),
            Metric::new(
                "core.online.refreshes",
                pass.refresh_ms.len() as f64,
                "count",
            ),
            Metric::new(
                "core.online.refresh_ms_p50",
                percentile(&pass.refresh_ms, 0.5),
                "ms",
            ),
            Metric::new(
                "core.online.refresh_ms_max",
                percentile(&pass.refresh_ms, 1.0),
                "ms",
            ),
            Metric::new(
                "core.online.refresh_busy_share",
                refresh_ms / service_ms.max(f64::MIN_POSITIVE),
                "ratio",
            ),
            Metric::new(
                "serve.queue_wait_us_p99",
                percentile(&pass.wait_us, 0.99),
                "us",
            ),
            Metric::new("serve.backlog_max", pass.backlog_max as f64, "count"),
            Metric::new(
                "trace.overhead_ratio",
                pass.latency(0.5) / untraced_p50_us.max(f64::MIN_POSITIVE),
                "ratio",
            ),
        ]);
        out
    }

    /// The kept spans as JSONL in the `eadrl-obs` wire format, readable
    /// by `obs_report tree`.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for event in &self.events {
            out.push_str(&event.to_json_line());
            out.push('\n');
        }
        out
    }
}

fn round_us(d: Duration) -> u64 {
    ((d.as_nanos() + 500) / 1000) as u64
}
