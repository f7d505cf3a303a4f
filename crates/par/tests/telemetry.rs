//! The worker-telemetry contract: events emitted inside `par_map` tasks
//! come out of the sink in input-index order at every thread count,
//! worker spans nest under the caller's span path, and every worker
//! event carries its `thread = 1 + worker index` attribution.
//!
//! Everything lives in ONE `#[test]` because the global sink and level
//! are process-wide state.

use eadrl_obs::{Event, EventKind, Level, RingSink, Value};
use eadrl_par::par_map_indexed_with;
use std::sync::Arc;

fn u64_field(event: &Event, key: &str) -> Option<u64> {
    match event.get(key) {
        Some(Value::U64(v)) => Some(*v),
        Some(Value::F64(v)) => Some(*v as u64),
        _ => None,
    }
}

/// One traced run: N items, each emitting a debug event carrying its
/// input index. Returns the captured events.
fn traced_run(threads: usize, n: usize) -> Vec<Event> {
    let sink = Arc::new(RingSink::new(4096));
    eadrl_obs::set_sink(sink.clone());
    eadrl_obs::set_level(Some(Level::Debug));
    {
        let _root = eadrl_obs::span("eadrl.fit");
        let out = par_map_indexed_with(threads, (0..n as u64).collect(), |i, x| {
            // eadrl-lint: allow(obs-event-schema): synthetic test-only event name, never emitted by the library
            eadrl_obs::event("par.test.item", Level::Debug, &[("index", i.into())]);
            x * 2
        })
        .expect("no panics");
        assert_eq!(out, (0..n as u64).map(|x| x * 2).collect::<Vec<_>>());
    }
    eadrl_obs::set_level(None);
    eadrl_obs::set_sink(Arc::new(eadrl_obs::NoopSink));
    assert_eq!(sink.dropped(), 0, "trace must not truncate");
    sink.events()
}

#[test]
fn worker_events_are_ordered_nested_and_attributed() {
    const N: usize = 23;
    for threads in [1, 2, 4, 8] {
        let events = traced_run(threads, N);

        // Item events arrive in input-index order: each item's events
        // are buffered on their own and flushed by input index.
        let indices: Vec<u64> = events
            .iter()
            .filter(|e| e.name_matches("par.test.item"))
            .map(|e| u64_field(e, "index").expect("index field"))
            .collect();
        assert_eq!(
            indices,
            (0..N as u64).collect::<Vec<_>>(),
            "threads={threads}: item events out of input order"
        );

        // Item events nest under the inherited caller path, identically
        // at every thread count.
        for e in events.iter().filter(|e| e.name_matches("par.test.item")) {
            assert_eq!(
                e.name, "par.test.item",
                "threads={threads}: point events keep their own name"
            );
        }

        // Worker spans nest under eadrl.fit/par.map — not orphaned roots.
        let worker_spans: Vec<&Event> = events
            .iter()
            .filter(|e| e.kind == EventKind::Span && e.name_matches("par.worker"))
            .collect();
        let expected_workers = threads.min(N);
        assert_eq!(
            worker_spans.len(),
            expected_workers,
            "threads={threads}: one worker span per worker"
        );
        let mut seen_items = 0u64;
        for span in &worker_spans {
            assert_eq!(
                span.name, "eadrl.fit/par.map/par.worker",
                "threads={threads}: worker span must inherit the caller path"
            );
            let w = u64_field(span, "worker").expect("worker field");
            assert_eq!(
                span.thread,
                w + 1,
                "threads={threads}: thread attribution is 1 + worker index"
            );
            seen_items += u64_field(span, "items").expect("items field");
        }
        assert_eq!(
            seen_items, N as u64,
            "threads={threads}: the workers ran every item once"
        );

        // The par.map span closes after the flush, on the main thread.
        let map_span = events
            .iter()
            .find(|e| e.kind == EventKind::Span && e.name == "eadrl.fit/par.map")
            .expect("par.map span present");
        assert_eq!(map_span.thread, 0);
        assert_eq!(u64_field(map_span, "items"), Some(N as u64));
        assert_eq!(
            u64_field(map_span, "workers"),
            Some(expected_workers as u64)
        );
    }

    // Same thread count, two runs: identical event-name sequence
    // (timestamps aside, the trace is deterministic). Which worker
    // claimed an item is a scheduling fact, like a timestamp, so the
    // `thread` stamps are checked for consistency, not equality.
    let names =
        |events: &[Event]| -> Vec<String> { events.iter().map(|e| e.name.clone()).collect() };
    assert_eq!(names(&traced_run(4, N)), names(&traced_run(4, N)));
    let events = traced_run(4, N);
    for span in events
        .iter()
        .filter(|e| e.kind == EventKind::Span && e.name_matches("par.worker"))
    {
        let ran = events
            .iter()
            .filter(|e| e.name_matches("par.test.item") && e.thread == span.thread)
            .count() as u64;
        assert_eq!(
            u64_field(span, "items"),
            Some(ran),
            "a worker's item count matches the item events stamped with its thread"
        );
    }

    // Across thread counts, the only shape difference is the number of
    // par.worker spans: with those collapsed, the traces agree.
    let collapse = |events: &[Event]| -> Vec<String> {
        events
            .iter()
            .filter(|e| !e.name_matches("par.worker"))
            .map(|e| e.name.clone())
            .collect()
    };
    assert_eq!(collapse(&traced_run(1, N)), collapse(&traced_run(4, N)));
}
