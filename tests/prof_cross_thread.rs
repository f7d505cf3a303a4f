//! Cross-thread-count profiler golden test: the same seeded quickstart
//! run, traced at `EADRL_PAR_THREADS=1` and `=4`, must produce the
//! **identical** shape-stable span-tree table — same paths, same call
//! counts, in the same order (timestamps and durations are wall-clock
//! and excluded by construction). Worker spans inherit the caller's
//! span path and `TreeOptions::shape_stable` collapses the per-chunk
//! `par.worker` spans, which are the only thread-count-dependent part
//! of a trace; if instrumentation ever leaks the thread count into the
//! tree shape, this test pins it down.
//!
//! The trace round-trips through the JSONL wire format on the way to
//! the profiler, so this also exercises the exact path CI uses
//! (`trace file → obs_report`).

use eadrl::core::{EaDrl, EaDrlConfig};
use eadrl::datasets::{generate, DatasetId};
use eadrl::models::quick_pool;
use eadrl::obs::{Level, RingSink};
use eadrl::prof::{SpanTree, Trace, TreeOptions};
use std::sync::Arc;

/// Runs the quickstart pipeline under `threads` workers at trace level
/// and returns the shape-stable `(path, count)` table.
fn profile_with_threads(threads: &str) -> Vec<(String, u64)> {
    std::env::set_var(eadrl::par::THREADS_ENV, threads);
    let sink = Arc::new(RingSink::new(1 << 17));
    eadrl::obs::set_sink(sink.clone());
    eadrl::obs::set_level(Some(Level::Trace));

    let series = generate(DatasetId::TaxiDemand2, 240, 11);
    let (train, test) = series.split(0.75);
    let mut config = EaDrlConfig {
        omega: 8,
        episodes: 3,
        restarts: 1,
        ..Default::default()
    };
    config.ddpg.seed = 11;
    let mut model = EaDrl::new(quick_pool(4, 48, 11), config);
    model.fit(train).expect("fit");
    let mut history = train.to_vec();
    for &actual in test.iter().take(5) {
        model.predict_next(&history);
        history.push(actual);
    }

    eadrl::obs::set_level(None);
    assert_eq!(sink.dropped(), 0, "ring must not overflow, or counts lie");

    // Round-trip through the wire format, exactly like `obs_report`.
    let jsonl: String = sink
        .events()
        .iter()
        .map(|e| e.to_json_line())
        .collect::<Vec<_>>()
        .join("\n");
    let trace = Trace::from_jsonl(&jsonl);
    assert!(!trace.is_truncated(), "round-tripped trace must be clean");
    SpanTree::build(&trace, &TreeOptions::shape_stable()).shape()
}

#[test]
fn span_tree_table_is_identical_across_thread_counts() {
    let serial = profile_with_threads("1");
    let parallel = profile_with_threads("4");
    std::env::remove_var(eadrl::par::THREADS_ENV);

    assert!(!serial.is_empty(), "trace-level run must produce spans");
    assert_eq!(
        serial, parallel,
        "shape-stable span tree (paths + counts) must not depend on the thread count"
    );

    // The table must actually reach the new instrumentation: batched
    // DDPG phase spans, nn kernel spans, and the parallel map itself.
    for needle in [
        "ddpg.targets",
        "critic.forward",
        "nn.forward_batch",
        "par.map",
    ] {
        assert!(
            serial
                .iter()
                .any(|(path, _)| path.split('/').any(|seg| seg == needle)),
            "expected a span path containing '{needle}' in {serial:?}"
        );
    }
}
