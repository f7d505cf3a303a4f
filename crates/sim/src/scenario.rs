//! Chaos scenarios: seeded end-to-end runs of the serving path under a
//! fault plan.
//!
//! A [`Scenario`] pins everything that can influence the run — dataset
//! seed, pool seed, fault plan, guard policy — so the same scenario
//! replays bit-identically on every machine and at every
//! `EADRL_PAR_THREADS` setting. The runner drives the full Algorithm-1
//! life cycle: offline fit (pool fitting + policy learning) followed by
//! the online serve loop, with gap bursts injected into the observed
//! history, and optionally a drift-triggered online-refresh phase
//! ([`run_refresh_scenario`]). Telemetry is captured in a process-global
//! sink, so scenario runs are serialized behind a module lock — callers
//! can invoke them from concurrently running tests without telemetry
//! cross-talk.
//!
//! [`run_unhardened`] drives the same faults through a deliberately
//! naive serving loop (no guard, no sanitization) — the committed
//! regression proof that the fault plans *would* break an unhardened
//! pipeline. CI runs it inverted: the build fails if the unhardened
//! loop ever stops producing violations.

use crate::fault::FaultPlan;
use crate::invariants::{check_run, InvariantReport};
use crate::proxy::{quiet_injected_panics, FaultyForecaster};
use eadrl_core::online::{AdaptiveEaDrl, RefreshStrategy, RefreshTrigger};
use eadrl_core::{Combiner, EaDrl, EaDrlConfig};
use eadrl_datasets::{generate, DatasetId};
use eadrl_models::{quick_pool, Forecaster};
use eadrl_obs::{Event, Level, RingSink};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard};

/// Serializes scenario runs: telemetry capture swaps the process-global
/// sink, so two concurrent runs would interleave their event streams.
static SCENARIO_LOCK: Mutex<()> = Mutex::new(());

/// A fully pinned chaos scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name (telemetry + report labels).
    pub name: String,
    /// The fault plan to inject.
    pub plan: FaultPlan,
    /// Synthetic series length (split 75/25 into train/serve).
    pub series_len: usize,
    /// Online serving steps (capped by the test split length).
    pub serve_steps: usize,
    /// Seed for the dataset, the pool, and the policy.
    pub seed: u64,
    /// Deterministic per-call latency budget for the guard, if any.
    pub latency_budget_us: Option<u64>,
}

impl Scenario {
    /// A scenario with the standard harness sizing (360-point series,
    /// 30 serving steps).
    pub fn new(name: &str, plan: FaultPlan, seed: u64) -> Scenario {
        Scenario {
            name: name.to_string(),
            plan,
            series_len: 360,
            serve_steps: 30,
            seed,
            latency_budget_us: None,
        }
    }
}

/// Everything a scenario run produced.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// The scenario name.
    pub name: String,
    /// Served forecasts, in order.
    pub forecasts: Vec<f64>,
    /// Raw bit patterns of the forecasts (golden-test currency).
    pub forecast_bits: Vec<u64>,
    /// The run's full ordered telemetry.
    pub events: Vec<Event>,
    /// `eadrl.quarantine` enter events observed.
    pub quarantine_enters: usize,
    /// `eadrl.quarantine` exit events observed.
    pub quarantine_exits: usize,
    /// `eadrl.degraded` events observed (serving + fit + refresh paths).
    pub degraded_events: usize,
    /// `eadrl.sanitize` events observed.
    pub sanitize_events: usize,
    /// The invariant audit.
    pub report: InvariantReport,
}

impl ScenarioOutcome {
    /// Audits a run's forecasts against its telemetry and counts the
    /// degradation events. `violations`, the runner's own findings,
    /// follow the invariant audit's.
    fn audit(
        name: String,
        forecasts: Vec<f64>,
        events: Vec<Event>,
        violations: Vec<String>,
    ) -> ScenarioOutcome {
        let mut report = check_run(&forecasts, &events);
        report.violations.extend(violations);
        ScenarioOutcome {
            name,
            forecast_bits: forecasts.iter().map(|f| f.to_bits()).collect(),
            forecasts,
            quarantine_enters: count_quarantine(&events, "enter"),
            quarantine_exits: count_quarantine(&events, "exit"),
            degraded_events: count_named(&events, "eadrl.degraded"),
            sanitize_events: count_named(&events, "eadrl.sanitize"),
            report,
            events,
        }
    }

    /// A compact deterministic fingerprint of the telemetry stream:
    /// `EventKind::Event` names with their payload bits folded in
    /// emission order (FNV-1a). Two runs of the same scenario must
    /// agree on it — including across `EADRL_PAR_THREADS` settings.
    ///
    /// Span and metric records are excluded entirely: span payloads
    /// carry wall-clock durations, and the *number* of `par.worker`
    /// spans legitimately tracks the worker count. Event-kind records
    /// are the deterministic contract (workers buffer them and the
    /// harness emits after the index-ordered merge).
    pub fn telemetry_fingerprint(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |byte: u8| {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        };
        for event in &self.events {
            if event.kind != eadrl_obs::EventKind::Event {
                continue;
            }
            for b in event.name.bytes() {
                mix(b);
            }
            for (key, value) in &event.fields {
                for b in key.bytes() {
                    mix(b);
                }
                let folded: Vec<u64> = match value {
                    eadrl_obs::Value::F64(x) => vec![x.to_bits()],
                    eadrl_obs::Value::F64s(xs) => xs.iter().map(|x| x.to_bits()).collect(),
                    eadrl_obs::Value::U64(x) => vec![*x],
                    eadrl_obs::Value::I64(x) => vec![*x as u64],
                    eadrl_obs::Value::Bool(x) => vec![u64::from(*x)],
                    eadrl_obs::Value::Str(s) => {
                        for b in s.bytes() {
                            mix(b);
                        }
                        Vec::new()
                    }
                };
                for x in folded {
                    for b in x.to_le_bytes() {
                        mix(b);
                    }
                }
            }
        }
        hash
    }
}

/// The standard guard-equipped configuration every scenario serves with:
/// fast policy learning, aggressive quarantine (2 consecutive faults)
/// and quick re-entry (4 clean probes) so short runs exercise the full
/// health state machine.
fn scenario_config(scenario: &Scenario) -> EaDrlConfig {
    let mut config = EaDrlConfig {
        omega: 8,
        episodes: 6,
        restarts: 1,
        ..EaDrlConfig::default()
    };
    config.ddpg.seed = scenario.seed;
    config.guard.quarantine_after = 2;
    config.guard.reentry_clean_calls = 4;
    config.guard.latency_budget_us = scenario.latency_budget_us;
    config
}

fn build_pool(scenario: &Scenario) -> Vec<Box<dyn Forecaster>> {
    quick_pool(5, 48, scenario.seed)
        .into_iter()
        .enumerate()
        .map(|(i, model)| match scenario.plan.fault_for(i) {
            Some(kind) => Box::new(FaultyForecaster::new(
                model,
                kind,
                scenario.plan.substream(i),
            )) as Box<dyn Forecaster>,
            None => model,
        })
        .collect()
}

/// Starts a run: takes the scenario lock, which the caller holds for
/// the whole run, and captures telemetry at debug level.
fn capture() -> (MutexGuard<'static, ()>, Arc<RingSink>) {
    let lock = SCENARIO_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    quiet_injected_panics();
    let sink = Arc::new(RingSink::new(65_536));
    eadrl_obs::set_sink(sink.clone());
    eadrl_obs::set_level(Some(Level::Debug));
    (lock, sink)
}

fn count_named(events: &[Event], name: &str) -> usize {
    events.iter().filter(|e| e.name == name).count()
}

fn count_quarantine(events: &[Event], action: &str) -> usize {
    events
        .iter()
        .filter(|e| {
            e.name == "eadrl.quarantine"
                && e.fields.iter().any(|(k, v)| {
                    k == "action" && matches!(v, eadrl_obs::Value::Str(s) if s == action)
                })
        })
        .count()
}

/// Runs the offline-fit → online-serve scenario under the hardened
/// pipeline and audits the invariants.
pub fn run_scenario(scenario: &Scenario) -> ScenarioOutcome {
    let (_lock, sink) = capture();
    let series = generate(DatasetId::TaxiDemand2, scenario.series_len, scenario.seed);
    let (train, test) = series.split(0.75);
    let mut model = EaDrl::new(build_pool(scenario), scenario_config(scenario));

    let mut forecasts = Vec::new();
    let mut violations = Vec::new();
    match model.fit(train) {
        Ok(()) => {
            let mut history = train.to_vec();
            for (step, &actual) in test.iter().take(scenario.serve_steps).enumerate() {
                forecasts.push(model.predict_next(&history));
                // Gap bursts: the runner observes NaN instead of the
                // actual — the sanitizer must absorb it downstream.
                if scenario.plan.gapped(step) {
                    history.push(f64::NAN);
                } else {
                    history.push(actual);
                }
            }
        }
        Err(e) => violations.push(format!("offline fit failed: {e}")),
    }
    ScenarioOutcome::audit(scenario.name.clone(), forecasts, sink.events(), violations)
}

/// The refresh scenarios' policy: the standard configuration at ω = 6.
fn refresh_config(scenario: &Scenario) -> EaDrlConfig {
    let mut config = scenario_config(scenario);
    config.omega = 6;
    config
}

/// Warms `adaptive` up on the first third of a three-member regime
/// stream over the scenario's series and serves the rest, observing NaN
/// on the plan's gap steps; returns the served forecasts. Member 0
/// tracks the series before the mid-series flip, member 1 after, member
/// 2 never — the regime change Page–Hinkley must catch. On the `outage`
/// steps member 2 drops out of the row the refresh buffer observes.
fn serve_regime_stream(
    scenario: &Scenario,
    adaptive: &mut AdaptiveEaDrl,
    outage: Range<usize>,
) -> Vec<f64> {
    let series = generate(DatasetId::TaxiDemand2, scenario.series_len, scenario.seed);
    let values = series.values();
    let flip = values.len() / 2;
    let preds: Vec<Vec<f64>> = values
        .iter()
        .enumerate()
        .map(|(t, &a)| {
            let wobble = ((t * 7) % 13) as f64 / 13.0 - 0.5;
            if t < flip {
                vec![a + 0.1 * wobble, a + 2.5 + wobble, a - 7.0]
            } else {
                vec![a + 2.5 - wobble, a + 0.1 * wobble, a - 7.0]
            }
        })
        .collect();
    let warm = values.len() / 3;
    adaptive.warm_up(&preds[..warm], &values[..warm]);

    let mut forecasts = Vec::new();
    for (step, (p, &a)) in preds[warm..].iter().zip(values[warm..].iter()).enumerate() {
        let w = adaptive.weights(p.len());
        forecasts.push(w.iter().zip(p.iter()).map(|(wi, pi)| wi * pi).sum());
        let observed = if scenario.plan.gapped(step) {
            f64::NAN
        } else {
            a
        };
        let row = if outage.contains(&step) { &p[..2] } else { p };
        adaptive.observe(row, observed);
    }
    forecasts
}

/// Runs the drift-triggered online-refresh phase under faults: a
/// regime-flipping prediction stream drives an [`AdaptiveEaDrl`] whose
/// observed actuals suffer the plan's gap bursts. Assert-ready outcome:
/// the detector must survive the gaps (non-finite errors are ignored,
/// the refresh buffer is sanitized) and still refresh after the flip.
pub fn run_refresh_scenario(scenario: &Scenario) -> ScenarioOutcome {
    let (_lock, sink) = capture();
    let mut adaptive = AdaptiveEaDrl::new(
        refresh_config(scenario),
        RefreshTrigger::DriftDetected {
            delta: 0.05,
            lambda: 6.0,
        },
        80,
    );
    let forecasts = serve_regime_stream(scenario, &mut adaptive, 0..0);

    let mut violations = Vec::new();
    if adaptive.refreshes() == 0 {
        violations.push("drift-triggered refresh never fired across a regime flip".to_string());
    }
    ScenarioOutcome::audit(scenario.name.clone(), forecasts, sink.events(), violations)
}

/// Runs the warm-start online-refresh phase with a fault landing in the
/// middle of the refresh pipeline itself: a periodic [`RefreshStrategy::
/// WarmStart`] schedule meets a member outage that leaves ragged rows in
/// the refresh buffer. Every retraining attempt over the corrupted
/// window — the warm refinement and its cold fallbacks alike — panics
/// inside the environment constructor. The audit requires the serving
/// loop to quarantine those failures (panics caught, `eadrl.degraded`
/// emitted, nothing deployed), to keep forecasting finitely throughout,
/// to record the cold fallback in the `eadrl.online.refresh` telemetry,
/// and to deploy again on the first refresh over a clean buffer.
pub fn run_warm_refresh_scenario(scenario: &Scenario) -> ScenarioOutcome {
    let (_lock, sink) = capture();
    let buffer = 60;
    let mut adaptive = AdaptiveEaDrl::new(
        refresh_config(scenario),
        RefreshTrigger::Periodic { period: 40 },
        buffer,
    )
    .with_strategy(RefreshStrategy::WarmStart { episodes: 4 });
    // The mid-refresh fault: member 2 drops out for ten steps, so the
    // buffer carries truncated (ragged) rows for the next `buffer`
    // steps. The periodic refreshes at steps 39 and 79 both see the
    // corruption; the one at step 119 trains on a clean window again.
    let forecasts = serve_regime_stream(scenario, &mut adaptive, 35..45);

    let events = sink.events();
    let mut violations = Vec::new();
    let refresh_degraded = events
        .iter()
        .filter(|e| {
            e.name == "eadrl.degraded"
                && e.fields.iter().any(|(k, v)| {
                    k == "context" && matches!(v, eadrl_obs::Value::Str(s) if s == "refresh")
                })
        })
        .count();
    if refresh_degraded == 0 {
        violations
            .push("ragged buffer rows never surfaced as quarantined refresh attempts".to_string());
    }
    let cold_fallbacks = events
        .iter()
        .filter(|e| {
            e.name == "eadrl.online.refresh"
                && e.fields
                    .iter()
                    .any(|(k, v)| k == "restart" && matches!(v, eadrl_obs::Value::Bool(true)))
        })
        .count();
    if cold_fallbacks == 0 {
        violations
            .push("warm-start refresh never recorded a cold fallback in telemetry".to_string());
    }
    if adaptive.refreshes() == 0 {
        violations.push("no refresh deployed after the corrupted rows left the buffer".to_string());
    }
    ScenarioOutcome::audit(scenario.name.clone(), forecasts, events, violations)
}

/// Drives the scenario's faults through a deliberately naive serving
/// loop — no guard, no sanitization, no quarantine — and audits the same
/// invariants. This is the regression fixture proving the fault plans
/// have teeth: it must keep producing violations (CI runs it inverted).
pub fn run_unhardened(scenario: &Scenario) -> ScenarioOutcome {
    let (_lock, sink) = capture();
    let series = generate(DatasetId::TaxiDemand2, scenario.series_len, scenario.seed);
    let (train, test) = series.split(0.75);
    let mut forecasts = Vec::new();
    let mut violations = Vec::new();

    let crashed = catch_unwind(AssertUnwindSafe(|| {
        let mut pool = build_pool(scenario);
        pool.retain_mut(|model| model.fit(train).is_ok());
        let weight = 1.0 / pool.len().max(1) as f64;
        let mut history = train.to_vec();
        for (step, &actual) in test.iter().take(scenario.serve_steps).enumerate() {
            // The naive combination: uniform dot product, no masking.
            let ens: f64 = pool
                .iter()
                .map(|model| weight * model.predict_next(&history))
                .sum();
            forecasts.push(ens);
            if scenario.plan.gapped(step) {
                history.push(f64::NAN);
            } else {
                history.push(actual);
            }
        }
    }))
    .is_err();
    if crashed {
        violations.push("unhardened serving loop crashed on an injected panic".to_string());
    }
    ScenarioOutcome::audit(
        format!("{} (unhardened)", scenario.name),
        forecasts,
        sink.events(),
        violations,
    )
}

/// The standard chaos suite: every fault class the guard handles, plus
/// the drift-refresh phase (run it with [`run_refresh_scenario`]).
pub fn standard_scenarios() -> Vec<Scenario> {
    let mixed = FaultPlan::parse(
        "seed 7\n\
         model 1 panic_every 4\n\
         model 3 nonfinite_every 3 nan\n\
         model 6 fail_fit\n\
         gap 12 3\n",
    )
    .expect("static plan parses");
    // The burst on model 4 starts just after the ~68 fit-phase calls a
    // 360-point scenario makes (the rolling prediction matrix probes the
    // validation segment), so it lands early in the serve phase: two
    // consecutive faults trip quarantine, the burst ends, and four clean
    // probes later the member re-enters — the full health round trip.
    let recovery = FaultPlan::parse(
        "seed 11\n\
         model 2 panic_at 2\n\
         model 4 nonfinite_burst 70 6 inf\n\
         model 5 stale_from 5\n",
    )
    .expect("static plan parses");
    let budget = FaultPlan::parse(
        "seed 13\n\
         model 0 slow_every 2 cost 900\n\
         model 7 flaky 0.3\n\
         gap 5 2\n\
         gap 20 4\n",
    )
    .expect("static plan parses");
    let mut scenarios = vec![
        Scenario::new("mixed-faults", mixed, 101),
        Scenario::new("quarantine-recovery", recovery, 202),
        Scenario::new("budget-and-flaky", budget, 303),
    ];
    scenarios[2].latency_budget_us = Some(500);
    scenarios
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(name: &str, plan_text: &str, seed: u64) -> Scenario {
        let mut scenario = Scenario::new(name, FaultPlan::parse(plan_text).expect("plan"), seed);
        scenario.series_len = 240;
        scenario.serve_steps = 16;
        scenario
    }

    #[test]
    fn clean_scenario_upholds_invariants_with_no_degradation() {
        let outcome = run_scenario(&tiny("clean", "seed 1\n", 5));
        assert!(outcome.report.passed(), "{:?}", outcome.report.violations);
        assert_eq!(outcome.quarantine_enters, 0);
        assert_eq!(outcome.degraded_events, 0);
        assert_eq!(outcome.sanitize_events, 0, "clean runs emit no sanitize");
        assert_eq!(outcome.forecasts.len(), 16);
    }

    #[test]
    fn faulty_scenario_degrades_gracefully_and_passes_audit() {
        // `nonfinite_every 1` faults every call — the consecutive streak
        // `quarantine_after: 2` needs (periodic faults with n >= 2 always
        // have clean calls in between and never quarantine).
        let outcome = run_scenario(&tiny(
            "faulty",
            "seed 2\nmodel 1 panic_every 3\nmodel 3 nonfinite_every 1 nan\ngap 6 2\n",
            6,
        ));
        assert!(outcome.report.passed(), "{:?}", outcome.report.violations);
        assert!(
            outcome.degraded_events > 0,
            "faults must surface in telemetry"
        );
        assert!(
            outcome.quarantine_enters > 0,
            "persistent faults quarantine"
        );
        assert!(outcome.sanitize_events > 0, "gap burst must trigger repair");
    }

    #[test]
    fn scenario_runs_are_bitwise_reproducible() {
        let scenario = tiny(
            "repro",
            "seed 3\nmodel 2 panic_every 4\nmodel 5 flaky 0.4\ngap 4 2\n",
            7,
        );
        let a = run_scenario(&scenario);
        let b = run_scenario(&scenario);
        assert_eq!(a.forecast_bits, b.forecast_bits);
        assert_eq!(a.telemetry_fingerprint(), b.telemetry_fingerprint());
    }

    #[test]
    fn unhardened_loop_violates_under_the_standard_plans() {
        for scenario in standard_scenarios() {
            let mut scenario = scenario;
            scenario.series_len = 240;
            scenario.serve_steps = 16;
            let outcome = run_unhardened(&scenario);
            assert!(
                !outcome.report.passed(),
                "plan `{}` no longer breaks the naive loop — fault injection lost its teeth",
                outcome.name
            );
        }
    }

    #[test]
    fn refresh_scenario_survives_gap_bursts_and_refreshes() {
        let mut scenario = tiny("refresh", "seed 4\ngap 30 4\n", 9);
        scenario.series_len = 300;
        let outcome = run_refresh_scenario(&scenario);
        assert!(outcome.report.passed(), "{:?}", outcome.report.violations);
        assert!(outcome.forecasts.iter().all(|f| f.is_finite()));
    }

    #[test]
    fn warm_refresh_scenario_quarantines_mid_refresh_faults() {
        let mut scenario = tiny("warm-refresh", "seed 6\ngap 50 3\n", 15);
        scenario.series_len = 360;
        let outcome = run_warm_refresh_scenario(&scenario);
        assert!(outcome.report.passed(), "{:?}", outcome.report.violations);
        assert!(outcome.forecasts.iter().all(|f| f.is_finite()));
        // The corrupted-buffer refreshes must have been caught (warm
        // attempt + cold retries each emit a degraded event) without
        // taking down the stream.
        assert!(
            outcome.degraded_events >= 3,
            "expected quarantined refresh attempts, saw {}",
            outcome.degraded_events
        );
    }

    #[test]
    fn warm_refresh_scenario_is_bitwise_reproducible() {
        let mut scenario = tiny("warm-repro", "seed 6\ngap 50 3\n", 15);
        scenario.series_len = 360;
        let a = run_warm_refresh_scenario(&scenario);
        let b = run_warm_refresh_scenario(&scenario);
        assert_eq!(a.forecast_bits, b.forecast_bits);
        assert_eq!(a.telemetry_fingerprint(), b.telemetry_fingerprint());
    }
}
