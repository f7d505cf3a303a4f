//! Deterministic fault-injection harness for the EA-DRL serving path.
//!
//! Production ensembles meet inputs and pool members that the paper's
//! clean benchmark protocol never shows them: models that panic, emit
//! NaN/±Inf, wedge on stale outputs, or blow their latency budget, and
//! history streams with gap bursts. This crate injects exactly those
//! failures, *deterministically*, and audits that the serving path
//! degrades the way `eadrl-core`'s guard promises:
//!
//! * [`fault`] — declarative [`FaultPlan`]s: a committed, line-oriented
//!   text format naming which pool member misbehaves and how, plus gap
//!   bursts in the observed history. All stochastic faults draw from
//!   plan-seeded [`eadrl_rng::DetRng`] substreams keyed by call index —
//!   never ambient entropy — so every scenario replays bit-identically
//!   at every thread count.
//! * [`proxy`] — [`FaultyForecaster`], the fault-injecting wrapper
//!   around any [`eadrl_models::Forecaster`], and the quiet panic hook
//!   that keeps expected injected panics out of the test output.
//! * [`scenario`] — seeded end-to-end chaos runs (offline fit → online
//!   serve → drift-triggered refresh) plus the deliberately unhardened
//!   serving loop CI runs *inverted* to prove the fault plans still
//!   have teeth.
//! * [`invariants`] — the degradation contract audited over each run:
//!   finite outputs, valid weight simplexes, quarantined members
//!   carrying zero weight, ordered quarantine transitions.
//!
//! Like `eadrl-ptest` and `eadrl-lint`, this is a tool crate: it is a
//! dev-dependency of the workspace tests, never a dependency of the
//! production crates.
#![forbid(unsafe_code)]

pub mod fault;
pub mod invariants;
pub mod proxy;
pub mod scenario;

pub use fault::{FaultKind, FaultPlan, GapBurst, ModelFault, NonFinite, PlanParseError};
pub use invariants::{check_run, InvariantReport};
pub use proxy::{quiet_injected_panics, FaultyForecaster, INJECTED_PANIC_PREFIX};
pub use scenario::{
    run_refresh_scenario, run_scenario, run_unhardened, run_warm_refresh_scenario,
    standard_scenarios, Scenario, ScenarioOutcome,
};
