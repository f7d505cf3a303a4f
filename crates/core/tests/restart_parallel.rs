//! Differential proof that the parallel restart sweep never changes the
//! trained policy: `EaDrlPolicy::warm_up` with several restarts is run at
//! `EADRL_PAR_THREADS` ∈ {1, 4} and the post-warm-up snapshot bits, the
//! online predictions, the `eadrl.weights` telemetry payloads, and the
//! per-restart `eadrl.restart` events (order included) must all be
//! bitwise identical. The serial run (1 thread) is the reference.
//!
//! The same binary then exercises the warm-start refresh path: a
//! drift-triggered `WarmStart` refresh must still recover after a regime
//! flip (the RMSE bound the cold path established) while running far
//! fewer training episodes per refresh.
//!
//! Last, four policy selections are pinned against committed golden
//! digests at both thread counts: a cold warm-up with and without the
//! informed initialization, a warm-start refresh, and the warm refresh
//! that falls back to a cold retry when the pool width changes.
//!
//! Everything lives in ONE `#[test]` because the thread count comes from
//! an environment variable: tests in one binary may run concurrently,
//! and `set_var` must not race another assertion.

use eadrl_core::{
    run_combiner, run_combiner_traced, AdaptiveEaDrl, Combiner, EaDrlConfig, EaDrlPolicy,
    RefreshStrategy, RefreshTrigger,
};
use eadrl_obs::{Event, EventKind, Level, RingSink, Value};
use eadrl_timeseries::metrics::rmse;
use std::sync::Arc;

fn quick_config(restarts: usize) -> EaDrlConfig {
    EaDrlConfig {
        omega: 6,
        episodes: 8,
        max_iter: 40,
        restarts,
        ..Default::default()
    }
}

/// Model 0 accurate before the flip, model 1 after, model 2 never.
fn regime_stream(n: usize, flip: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let actuals: Vec<f64> = (0..n)
        .map(|t| (t as f64 / 6.0).sin() * 3.0 + 10.0)
        .collect();
    let preds = actuals
        .iter()
        .enumerate()
        .map(|(t, &a)| {
            let w = ((t * 7) % 13) as f64 / 13.0 - 0.5;
            if t < flip {
                vec![a + 0.1 * w, a + 2.5 + w, a - 7.0]
            } else {
                vec![a + 2.5 - w, a + 0.1 * w, a - 7.0]
            }
        })
        .collect();
    (preds, actuals)
}

/// One warm-up + online run at the current thread count, capturing every
/// bit the determinism contract covers.
struct RunCapture {
    snapshot_bits: (Vec<u64>, Vec<u64>),
    prediction_bits: Vec<u64>,
    weight_payload_bits: Vec<Vec<u64>>,
    restart_events: Vec<String>,
}

fn run_warm_up() -> RunCapture {
    let sink = Arc::new(RingSink::new(4096));
    eadrl_obs::set_sink(sink.clone());
    eadrl_obs::set_level(Some(Level::Debug));

    let (preds, actuals) = regime_stream(260, 500); // no flip in range
    let (wp, op) = preds.split_at(120);
    let (wa, oa) = actuals.split_at(120);

    let mut policy = EaDrlPolicy::new(quick_config(4));
    policy.warm_up(wp, wa);
    let snapshot = policy.snapshot().expect("trained policy must snapshot");
    let snapshot_bits = (
        snapshot.params.iter().map(|p| p.to_bits()).collect(),
        snapshot.window.iter().map(|w| w.to_bits()).collect(),
    );

    let out = run_combiner(&mut policy, op, oa);
    let prediction_bits = out.iter().map(|p| p.to_bits()).collect();

    let weight_payload_bits: Vec<Vec<u64>> = sink
        .events_named("eadrl.weights")
        .iter()
        .filter_map(|e| {
            e.fields.iter().find_map(|(k, v)| match (k.as_str(), v) {
                ("weights", Value::F64s(w)) => Some(w.iter().map(|x| x.to_bits()).collect()),
                _ => None,
            })
        })
        .collect();
    assert!(
        !weight_payload_bits.is_empty(),
        "expected eadrl.weights events at debug level"
    );
    // Debug-formatting of f64 round-trips, so this captures both the
    // payload bits and the field order of every per-restart event.
    let restart_events = sink
        .events_named("eadrl.restart")
        .iter()
        .map(|e| format!("{:?}", e.fields))
        .collect();
    RunCapture {
        snapshot_bits,
        prediction_bits,
        weight_payload_bits,
        restart_events,
    }
}

#[test]
fn parallel_restarts_and_warm_start_refresh_match_serial_contract() {
    // --- Part 1: serial vs parallel restart sweep, bit for bit. ---
    let mut runs = Vec::new();
    for threads in ["1", "4"] {
        std::env::set_var(eadrl_par::THREADS_ENV, threads);
        runs.push((threads, run_warm_up()));
    }
    std::env::remove_var(eadrl_par::THREADS_ENV);

    let (_, reference) = &runs[0];
    assert_eq!(
        reference.restart_events.len(),
        4,
        "one eadrl.restart event per restart"
    );
    for (i, ev) in reference.restart_events.iter().enumerate() {
        assert!(
            ev.contains(&format!("(\"restart\", U64({i}))")),
            "restart events must flush in restart order, got {ev} at {i}"
        );
    }
    for (threads, run) in &runs[1..] {
        assert_eq!(
            run.snapshot_bits, reference.snapshot_bits,
            "policy snapshot diverged from serial at {threads} threads"
        );
        assert_eq!(
            run.prediction_bits, reference.prediction_bits,
            "predictions diverged from serial at {threads} threads"
        );
        assert_eq!(
            run.weight_payload_bits, reference.weight_payload_bits,
            "eadrl.weights telemetry diverged from serial at {threads} threads"
        );
        assert_eq!(
            run.restart_events, reference.restart_events,
            "eadrl.restart telemetry diverged from serial at {threads} threads"
        );
    }

    // --- Part 2: warm-start refresh still recovers from drift, with a
    // fraction of the training episodes per refresh. ---
    let (preds, actuals) = regime_stream(320, 200);
    let (wp, op) = preds.split_at(100);
    let (wa, oa) = actuals.split_at(100);

    let mut frozen = EaDrlPolicy::new(quick_config(1));
    frozen.warm_up(wp, wa);
    let frozen_out = run_combiner(&mut frozen, op, oa);

    let warm_episodes = 6;
    let mut adaptive = AdaptiveEaDrl::new(
        quick_config(1),
        RefreshTrigger::DriftDetected {
            delta: 0.05,
            lambda: 6.0,
        },
        60,
    )
    .with_strategy(RefreshStrategy::WarmStart {
        episodes: warm_episodes,
    });
    adaptive.warm_up(wp, wa);
    let adaptive_out = run_combiner(&mut adaptive, op, oa);

    assert!(
        adaptive.refreshes() >= 1,
        "drift never triggered a warm-start refresh"
    );
    // Each warm-start refresh trained `warm_episodes` episodes, not the
    // full offline schedule — the policy's learning curve records the
    // last refinement run.
    assert_eq!(
        adaptive.policy().learning_curve().len(),
        warm_episodes,
        "warm-start refresh must run only the configured refinement episodes"
    );
    // Post-flip segment (flip at absolute 200 = online step 100): the
    // same recovery bound the cold-strategy drift test enforces.
    let frozen_post = rmse(&oa[120..], &frozen_out[120..]);
    let adaptive_post = rmse(&oa[120..], &adaptive_out[120..]);
    assert!(
        adaptive_post < frozen_post,
        "warm-start refresh did not help after drift: adaptive {adaptive_post:.3} vs frozen {frozen_post:.3}"
    );

    // --- Part 3: four selections, pinned bit for bit at both thread
    // counts against digests recorded before the selection code was
    // refactored. ---
    for threads in ["1", "4"] {
        std::env::set_var(eadrl_par::THREADS_ENV, threads);
        let runs = [
            cold_selection(true),
            cold_selection(false),
            warm_refresh_selection(),
            width_fallback_selection(),
        ];
        for (run, (case, golden)) in runs.iter().zip(GOLDEN) {
            assert_eq!(run, golden, "{case} selection moved at {threads} threads");
        }
    }
    std::env::remove_var(eadrl_par::THREADS_ENV);
}

/// The committed selection digests. Read a line as: the deployed actor
/// (`actor=`, FNV-1a of its parameter bits; `served=`, of the weights it
/// serves over a fixed probe segment), every `eadrl.selection` in order
/// as `source@holdout-RMSE bits`, the count and FNV-1a of the
/// `eadrl.candidate` and `eadrl.restart` payloads in emission order, and
/// the deployed policy's learning-curve length.
const GOLDEN: [(&str, &str); 4] = [
    (
        "cold_informed",
        "actor=3c6f9906f3661b60 selections=[static(T=3)@3f9e149b715dbc7e] \
         payloads=8:f95103a5b293b20b curve=8",
    ),
    (
        "cold_uninformed",
        "actor=f3ab4a1454e99327 selections=[restart(1)@3fa049ea9fa0ebcf] \
         payloads=4:6a9f89144a22ea21 curve=8",
    ),
    (
        "warm_refresh",
        "served=7c27a7f9e121068d \
         selections=[restart(0)@3ff44f65e7afb28a,warm_start@3fef6338715fffc2] \
         payloads=1:856c9be99afd3128 curve=6",
    ),
    (
        "width_fallback",
        "served=6e13eb12239493cc \
         selections=[static(T=3)@3f9d867c0dd68c60,static(T=3)@3f9e6c1dedaaf9ca] \
         payloads=10:39977406d853694b curve=8",
    ),
];

fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv_f64s(values: &[f64]) -> u64 {
    values
        .iter()
        .fold(FNV_OFFSET, |h, v| fnv(h, &v.to_bits().to_le_bytes()))
}

/// Captures every event of `run` at debug level.
fn capture<R>(run: impl FnOnce() -> R) -> (R, Vec<Event>) {
    let sink = Arc::new(RingSink::new(1 << 16));
    eadrl_obs::set_sink(sink.clone());
    eadrl_obs::set_level(Some(Level::Debug));
    let out = run();
    eadrl_obs::set_level(None);
    eadrl_obs::set_sink(Arc::new(eadrl_obs::NoopSink));
    assert_eq!(sink.dropped(), 0, "the capture ring overflowed");
    (out, sink.events())
}

/// One line of [`GOLDEN`]: `actor` names the deployed actor's digest.
fn selection_digest(actor: String, events: &[Event], curve_len: usize) -> String {
    let selections: Vec<String> = events
        .iter()
        .filter(|e| e.kind == EventKind::Event && e.name == "eadrl.selection")
        .map(|e| match (e.get("source"), e.get("holdout_rmse")) {
            (Some(Value::Str(source)), Some(Value::F64(rmse))) => {
                format!("{source}@{:016x}", rmse.to_bits())
            }
            other => panic!("malformed eadrl.selection: {other:?}"),
        })
        .collect();
    let mut payloads = 0;
    let mut hash = FNV_OFFSET;
    for e in events.iter().filter(|e| {
        e.kind == EventKind::Event && (e.name == "eadrl.candidate" || e.name == "eadrl.restart")
    }) {
        payloads += 1;
        hash = fnv(hash, e.name.as_bytes());
        for (key, value) in &e.fields {
            hash = fnv(hash, key.as_bytes());
            hash = match value {
                Value::F64(x) => fnv(hash, &x.to_bits().to_le_bytes()),
                Value::U64(x) => fnv(hash, &x.to_le_bytes()),
                other => panic!("unexpected {key} payload {other:?}"),
            };
        }
    }
    format!(
        "{actor} selections=[{}] payloads={payloads}:{hash:016x} curve={curve_len}",
        selections.join(",")
    )
}

/// A cold `warm_up` with four restarts, with or without the informed
/// initialization (which alone adds the static candidates).
fn cold_selection(informed_init: bool) -> String {
    let (preds, actuals) = regime_stream(120, 500);
    let config = EaDrlConfig {
        informed_init,
        ..quick_config(4)
    };
    let (mut policy, events) = capture(|| {
        let mut policy = EaDrlPolicy::new(config);
        policy.warm_up(&preds, &actuals);
        policy
    });
    let snapshot = policy.snapshot().expect("a cold warm-up deploys");
    selection_digest(
        format!("actor={:016x}", fnv_f64s(&snapshot.params)),
        &events,
        policy.learning_curve().len(),
    )
}

/// The weights an adaptive policy serves over a fixed probe segment.
/// `AdaptiveEaDrl` lends its policy only by shared reference, and a
/// snapshot flattens the actor through `&mut`, so the refresh cases pin
/// the deployed actor through what it serves.
fn served_digest(adaptive: &mut AdaptiveEaDrl, preds: &[Vec<f64>], actuals: &[f64]) -> String {
    let (out, weights) = run_combiner_traced(adaptive, preds, actuals);
    let flat: Vec<f64> = weights.into_iter().flatten().chain(out).collect();
    format!("served={:016x}", fnv_f64s(&flat))
}

/// A warm-start refresh forced after a regime flip, on a policy whose
/// warm-up deployed a trained restart (no informed initialization, so
/// no static candidate competes with the refined actor either).
fn warm_refresh_selection() -> String {
    let (preds, actuals) = regime_stream(300, 150);
    let config = EaDrlConfig {
        informed_init: false,
        ..quick_config(1)
    };
    let (mut adaptive, events) = capture(|| {
        let mut adaptive = AdaptiveEaDrl::new(config, RefreshTrigger::Never, 60)
            .with_strategy(RefreshStrategy::WarmStart { episodes: 6 });
        adaptive.warm_up(&preds[..100], &actuals[..100]);
        run_combiner(&mut adaptive, &preds[100..220], &actuals[100..220]);
        adaptive.refresh_now();
        adaptive
    });
    assert_eq!(adaptive.refreshes(), 1, "the warm refresh deploys");
    let curve_len = adaptive.policy().learning_curve().len();
    selection_digest(
        served_digest(&mut adaptive, &preds[220..], &actuals[220..]),
        &events,
        curve_len,
    )
}

/// The pool shrinks under a deployed warm-start policy, so the warm
/// attempt declines and the refresh deploys from a cold retry.
fn width_fallback_selection() -> String {
    let (preds, actuals) = regime_stream(200, 500);
    let (mut adaptive, events) = capture(|| {
        let mut adaptive = AdaptiveEaDrl::new(quick_config(1), RefreshTrigger::Never, 30)
            .with_strategy(RefreshStrategy::WarmStart { episodes: 4 });
        adaptive.warm_up(&preds[..100], &actuals[..100]);
        for (p, &a) in preds[100..].iter().zip(&actuals[100..]) {
            adaptive.observe(&p[..2], a);
        }
        adaptive.refresh_now();
        adaptive
    });
    let refresh = events
        .iter()
        .rfind(|e| e.kind == EventKind::Event && e.name == "eadrl.online.refresh")
        .expect("the refresh reports");
    assert_eq!(refresh.get("attempts"), Some(&Value::U64(2)));
    assert_eq!(refresh.get("restart"), Some(&Value::Bool(true)));
    assert_eq!(adaptive.refreshes(), 1, "the cold retry deploys");
    let curve_len = adaptive.policy().learning_curve().len();
    let probe: Vec<Vec<f64>> = preds[160..].iter().map(|p| p[..2].to_vec()).collect();
    selection_digest(
        served_digest(&mut adaptive, &probe, &actuals[160..]),
        &events,
        curve_len,
    )
}
