//! Serving-path invariants checked over a chaos run.
//!
//! A scenario run produces a forecast stream plus the ordered telemetry
//! captured by a [`eadrl_obs::RingSink`]; [`check_run`] audits both
//! against the degradation contract:
//!
//! 1. **Finite output** — every served forecast is finite, whatever was
//!    injected upstream.
//! 2. **Valid simplex** — every `eadrl.weights` payload is a convex
//!    weight vector (entries in `[0, 1]`, summing to 1).
//! 3. **Quarantine exclusion** — in every degraded serving step, the
//!    members listed as quarantined carry exactly zero effective weight,
//!    and the effective weights either form a simplex over the
//!    survivors or are all-zero (total-outage fallback).
//! 4. **Ordered quarantine telemetry** — per member, `enter`/`exit`
//!    transitions strictly alternate starting with `enter` (an exit
//!    without a prior enter, or a double enter, means health bookkeeping
//!    desynced from the event stream).

use eadrl_obs::{Event, Value};

/// Tolerance for simplex sums (weights pass through softmax and one
/// renormalizing division; anything beyond 1e-6 is a real bug, not
/// rounding).
const SIMPLEX_TOL: f64 = 1e-6;

/// The audit result for one run.
#[derive(Debug, Clone, Default)]
pub struct InvariantReport {
    /// Human-readable violations; empty means the run upheld the
    /// degradation contract.
    pub violations: Vec<String>,
    /// Event-kind records in the run's telemetry: the records
    /// `ScenarioOutcome::telemetry_fingerprint` hashes. Span and metric
    /// records are not counted, because a parallel map records one
    /// `par.worker` span per worker, so their number follows the thread
    /// count.
    pub checked_events: usize,
    /// Forecast steps inspected.
    pub checked_steps: usize,
}

impl InvariantReport {
    /// True when no invariant was violated.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

fn field_f64s<'e>(event: &'e Event, key: &str) -> Option<&'e [f64]> {
    event
        .fields
        .iter()
        .find_map(|(k, v)| match (k.as_str(), v) {
            (k2, Value::F64s(xs)) if k2 == key => Some(xs.as_slice()),
            _ => None,
        })
}

fn field_str<'e>(event: &'e Event, key: &str) -> Option<&'e str> {
    event
        .fields
        .iter()
        .find_map(|(k, v)| match (k.as_str(), v) {
            (k2, Value::Str(s)) if k2 == key => Some(s.as_str()),
            _ => None,
        })
}

fn field_u64(event: &Event, key: &str) -> Option<u64> {
    event
        .fields
        .iter()
        .find_map(|(k, v)| match (k.as_str(), v) {
            (k2, Value::U64(x)) if k2 == key => Some(*x),
            _ => None,
        })
}

fn check_simplex(weights: &[f64], what: &str, violations: &mut Vec<String>) {
    let sum: f64 = weights.iter().sum();
    if (sum - 1.0).abs() > SIMPLEX_TOL {
        violations.push(format!("{what}: weights sum to {sum}, not 1"));
    }
    for (i, &w) in weights.iter().enumerate() {
        if !w.is_finite() || !(-SIMPLEX_TOL..=1.0 + SIMPLEX_TOL).contains(&w) {
            violations.push(format!("{what}: weight[{i}] = {w} outside [0, 1]"));
        }
    }
}

/// Audits one run. `forecasts` is the served forecast stream, `events`
/// the full ordered telemetry of the run.
pub fn check_run(forecasts: &[f64], events: &[Event]) -> InvariantReport {
    let mut report = InvariantReport {
        checked_steps: forecasts.len(),
        checked_events: events
            .iter()
            .filter(|e| e.kind == eadrl_obs::EventKind::Event)
            .count(),
        ..InvariantReport::default()
    };
    let violations = &mut report.violations;

    for (step, &f) in forecasts.iter().enumerate() {
        if !f.is_finite() {
            violations.push(format!("forecast[{step}] = {f} is not finite"));
        }
    }

    // Per-member quarantine state machine replayed from the event stream.
    let mut quarantined: std::collections::BTreeMap<u64, bool> = std::collections::BTreeMap::new();
    for (pos, event) in events.iter().enumerate() {
        match event.name.as_str() {
            "eadrl.weights" => {
                if let Some(w) = field_f64s(event, "weights") {
                    check_simplex(w, &format!("eadrl.weights #{pos}"), violations);
                }
            }
            "eadrl.quarantine" => {
                let index = field_u64(event, "index").unwrap_or(u64::MAX);
                let action = field_str(event, "action").unwrap_or("");
                let state = quarantined.entry(index).or_insert(false);
                match action {
                    "enter" => {
                        if *state {
                            violations.push(format!(
                                "quarantine #{pos}: double enter for member {index}"
                            ));
                        }
                        *state = true;
                    }
                    "exit" => {
                        if !*state {
                            violations.push(format!(
                                "quarantine #{pos}: exit without enter for member {index}"
                            ));
                        }
                        *state = false;
                    }
                    other => {
                        violations.push(format!("quarantine #{pos}: unknown action `{other}`"));
                    }
                }
            }
            "eadrl.degraded" => {
                // Only serving-step events carry effective weights; the
                // fit-path and refresh-path variants are counted but have
                // no simplex payload to audit.
                let Some(weights) = field_f64s(event, "weights") else {
                    continue;
                };
                let all_zero = weights.iter().all(|&w| w == 0.0);
                if !all_zero {
                    check_simplex(weights, &format!("eadrl.degraded #{pos}"), violations);
                }
                if let Some(qlist) = field_f64s(event, "quarantined") {
                    for &qi in qlist {
                        let i = qi as usize;
                        match weights.get(i) {
                            Some(&w) if w != 0.0 => violations.push(format!(
                                "eadrl.degraded #{pos}: quarantined member {i} \
                                 holds weight {w}"
                            )),
                            None => violations.push(format!(
                                "eadrl.degraded #{pos}: quarantined index {i} \
                                 outside the weight vector"
                            )),
                            _ => {}
                        }
                    }
                }
                if let Some(forecast) =
                    event
                        .fields
                        .iter()
                        .find_map(|(k, v)| match (k.as_str(), v) {
                            ("forecast", Value::F64(x)) => Some(*x),
                            _ => None,
                        })
                {
                    if !forecast.is_finite() {
                        violations.push(format!(
                            "eadrl.degraded #{pos}: served forecast {forecast} is not finite"
                        ));
                    }
                }
            }
            _ => {}
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use eadrl_obs::{EventKind, Level};

    fn event(name: &str, fields: Vec<(&str, Value)>) -> Event {
        let mut e = Event::new(name, EventKind::Event, Level::Warn);
        for (k, v) in fields {
            e = e.field(k, v);
        }
        e
    }

    #[test]
    fn clean_run_passes() {
        let events = vec![event(
            "eadrl.weights",
            vec![("weights", vec![0.25, 0.75].into())],
        )];
        let report = check_run(&[1.0, 2.0], &events);
        assert!(report.passed(), "{:?}", report.violations);
        assert_eq!(report.checked_steps, 2);
    }

    #[test]
    fn non_finite_forecast_is_flagged() {
        let report = check_run(&[1.0, f64::NAN], &[]);
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0].contains("forecast[1]"));
    }

    #[test]
    fn broken_simplex_is_flagged() {
        let events = vec![event(
            "eadrl.weights",
            vec![("weights", vec![0.9, 0.9].into())],
        )];
        assert!(!check_run(&[], &events).passed());
    }

    #[test]
    fn quarantined_member_with_weight_is_flagged() {
        let events = vec![event(
            "eadrl.degraded",
            vec![
                ("weights", vec![0.5, 0.5].into()),
                ("quarantined", vec![1.0].into()),
            ],
        )];
        let report = check_run(&[], &events);
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0].contains("holds weight"));
    }

    #[test]
    fn quarantine_transitions_must_alternate() {
        let enter = || {
            event(
                "eadrl.quarantine",
                vec![("index", Value::U64(3)), ("action", "enter".into())],
            )
        };
        let exit = || {
            event(
                "eadrl.quarantine",
                vec![("index", Value::U64(3)), ("action", "exit".into())],
            )
        };
        assert!(check_run(&[], &[enter(), exit(), enter()]).passed());
        assert!(!check_run(&[], &[exit()]).passed(), "exit without enter");
        assert!(
            !check_run(&[], &[enter(), enter()]).passed(),
            "double enter"
        );
    }

    #[test]
    fn all_zero_degraded_weights_are_the_outage_sentinel() {
        let events = vec![event(
            "eadrl.degraded",
            vec![
                ("weights", vec![0.0, 0.0].into()),
                ("quarantined", vec![0.0, 1.0].into()),
                ("forecast", Value::F64(3.5)),
            ],
        )];
        assert!(check_run(&[], &events).passed());
    }
}
