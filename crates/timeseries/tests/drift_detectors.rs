//! Drift-detector contract tests: Page–Hinkley gates DEMSC's expensive
//! re-clustering and the online-refresh trigger, so both its silence
//! (no false alarms on stationary streams) and its latency (bounded
//! reaction to a step change) are load-bearing. Detection is pure
//! sequential arithmetic, so the firing step must also be independent
//! of the `EADRL_PAR_THREADS` setting — pinned here because the online
//! serving loop that hosts the detector does run the pool in parallel.

use eadrl_rng::DetRng;
use eadrl_timeseries::drift::PageHinkley;

/// A seeded stationary stream: uniform noise in `[center - amp, center + amp)`.
fn stationary(n: usize, center: f64, amp: f64, seed: u64) -> Vec<f64> {
    let mut rng = DetRng::seed_from_u64(seed);
    (0..n)
        .map(|_| center + rng.random_range(-amp..amp))
        .collect()
}

/// Stationary noise around `1.0` that steps to `3.0` at `flip`.
fn step_change(n: usize, flip: usize, seed: u64) -> Vec<f64> {
    let mut stream = stationary(n, 1.0, 0.1, seed);
    for v in stream.iter_mut().skip(flip) {
        *v += 2.0;
    }
    stream
}

#[test]
fn no_false_firing_over_10k_stationary_points() {
    let stream = stationary(10_000, 1.0, 0.1, 42);
    let mut ph = PageHinkley::new(0.05, 5.0);
    for (i, &v) in stream.iter().enumerate() {
        assert!(!ph.update(v), "Page-Hinkley false alarm at point {i}");
    }
    assert_eq!(ph.observations(), 10_000);
}

#[test]
fn step_change_is_detected_within_a_latency_bound() {
    let flip = 500;
    let stream = step_change(700, flip, 7);

    let mut ph = PageHinkley::new(0.05, 5.0);
    let ph_fired = stream.iter().position(|&v| ph.update(v));
    let ph_at = ph_fired.expect("Page-Hinkley must catch a 2-sigma-e-scale step");
    assert!(
        ph_at >= flip,
        "fired at {ph_at}, before the change at {flip}"
    );
    assert!(
        ph_at < flip + 50,
        "Page-Hinkley took {} points to react",
        ph_at - flip
    );
}

#[test]
fn detectors_rearm_after_firing() {
    // Two regime changes; a detector that fails to reset after the first
    // either never fires again or carries poisoned state into regime 2.
    let mut stream = step_change(700, 500, 11);
    stream.extend(stationary(200, 3.0, 0.1, 12));
    stream.extend(stationary(200, 6.0, 0.1, 13));

    let mut ph = PageHinkley::new(0.05, 5.0);
    let mut fires = Vec::new();
    for (i, &v) in stream.iter().enumerate() {
        if ph.update(v) {
            fires.push(i);
            // Detection resets the detector's state completely.
            assert_eq!(ph.observations(), 0, "no reset after firing at {i}");
        }
    }
    assert!(
        fires.iter().any(|i| (500..700).contains(i)),
        "first shift missed: {fires:?}"
    );
    assert!(
        fires.iter().any(|&i| i >= 900),
        "detector did not re-arm for the second shift: {fires:?}"
    );
}

#[test]
fn firing_steps_are_identical_across_thread_counts() {
    let fire_steps = |threads: &str| -> Vec<usize> {
        std::env::set_var(eadrl_par::THREADS_ENV, threads);
        let stream = step_change(700, 500, 21);
        let mut ph = PageHinkley::new(0.05, 5.0);
        let mut fires = Vec::new();
        for (i, &v) in stream.iter().enumerate() {
            if ph.update(v) {
                fires.push(i);
            }
        }
        fires
    };

    let serial = fire_steps("1");
    let parallel = fire_steps("4");
    std::env::remove_var(eadrl_par::THREADS_ENV);
    assert!(!serial.is_empty());
    assert_eq!(
        serial, parallel,
        "drift firing steps must not depend on the worker count"
    );
}
