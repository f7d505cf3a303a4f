//! Golden chaos run: the committed fault plan
//! (`crates/sim/plans/chaos_quickstart.plan`) driven through the
//! hardened quickstart-shaped pipeline must (a) uphold every
//! degradation invariant, (b) actually exercise quarantine and history
//! repair — a chaos test that stops injecting is worse than none — and
//! (c) reproduce byte-identically: same forecast bits, the same
//! telemetry fingerprint and the same checked event count on a rerun
//! and at `EADRL_PAR_THREADS` 1 vs 4.

use eadrl_sim::{run_scenario, FaultPlan, Scenario};

const PLAN: &str = include_str!("../crates/sim/plans/chaos_quickstart.plan");

/// Runs the golden scenario under `threads` workers and returns the
/// run's byte-level identity (forecast bits + telemetry fingerprint)
/// and the event count `chaos run` prints.
fn run_with_threads(threads: &str) -> (Vec<u64>, u64, usize) {
    std::env::set_var(eadrl::par::THREADS_ENV, threads);
    let plan = FaultPlan::parse(PLAN).expect("committed plan must parse");
    let outcome = run_scenario(&Scenario::new("chaos-quickstart", plan, 17));

    assert!(
        outcome.report.passed(),
        "degradation invariants violated at {threads} threads: {:?}",
        outcome.report.violations
    );
    assert!(
        outcome.forecasts.iter().all(|f| f.is_finite()),
        "non-finite forecast escaped the guard"
    );
    assert!(
        outcome.quarantine_enters > 0,
        "the always-NaN member must trip quarantine — did the plan lose its teeth?"
    );
    assert!(
        outcome.degraded_events > 0,
        "faulted steps must surface as eadrl.degraded telemetry"
    );
    assert!(
        outcome.sanitize_events > 0,
        "the gap burst must trigger history repair"
    );
    (
        outcome.forecast_bits.clone(),
        outcome.telemetry_fingerprint(),
        outcome.report.checked_events,
    )
}

#[test]
fn golden_chaos_run_is_byte_identical_across_reruns_and_thread_counts() {
    let first = run_with_threads("1");
    let rerun = run_with_threads("1");
    let parallel = run_with_threads("4");
    std::env::remove_var(eadrl::par::THREADS_ENV);

    assert_eq!(
        first, rerun,
        "same plan, same seed, same thread count — the rerun must match bitwise"
    );
    assert_eq!(
        (&first.0, first.1),
        (&parallel.0, parallel.1),
        "forecast bits / telemetry fingerprint leaked the thread count"
    );
    assert_eq!(
        first.2, parallel.2,
        "the checked event count leaked the thread count"
    );
}
