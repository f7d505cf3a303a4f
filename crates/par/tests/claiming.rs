//! Claiming under panics, as a property over random panicking-index sets
//! and thread counts 1–8: the reported index is the smallest panicking
//! one, no item runs twice, every item is dropped exactly once
//! (unclaimed ones with the batch), and the items' buffered events come
//! out in input order, up to and including the panicking item.
//!
//! The property sets the process-wide sink and level, so it lives alone
//! in this binary.

use eadrl_obs::{Level, RingSink, Value};
use eadrl_par::{par_map_indexed_with, ParError};
use eadrl_ptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Bumps the shared counter once when dropped, wherever that happens:
/// inside the task, or with the unclaimed rest of a stopped batch.
struct Counted<'a>(&'a AtomicUsize);

impl Drop for Counted<'_> {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn claiming_reports_the_smallest_panicking_index(
        n in 1usize..40,
        threads in 1usize..9,
        panicking in prop::collection::vec(0usize..48, 0..4),
    ) {
        let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let drops = AtomicUsize::new(0);
        let items: Vec<Counted> = (0..n).map(|_| Counted(&drops)).collect();
        let sink = Arc::new(RingSink::new(1024));
        eadrl_obs::set_sink(sink.clone());
        eadrl_obs::set_level(Some(Level::Debug));
        let out = par_map_indexed_with(threads, items, |i, item| {
            runs[i].fetch_add(1, Ordering::SeqCst);
            eadrl_obs::event("par.test.claim", Level::Debug, &[("index", i.into())]);
            assert!(!panicking.contains(&i), "fail {i}");
            drop(item);
            i
        });
        eadrl_obs::set_level(None);
        prop_assert_eq!(sink.dropped(), 0);
        let flushed: Vec<u64> = sink
            .events_named("par.test.claim")
            .iter()
            .filter_map(|e| match e.get("index") {
                Some(Value::U64(v)) => Some(*v),
                _ => None,
            })
            .collect();
        let smallest = panicking.iter().copied().filter(|&i| i < n).min();
        match (smallest, out) {
            (Some(p), Err(ParError::Panic { index, .. })) => {
                prop_assert_eq!(index, p);
                prop_assert_eq!(flushed, (0..=p as u64).collect::<Vec<_>>());
                for (i, r) in runs.iter().enumerate().take(p + 1) {
                    prop_assert_eq!(r.load(Ordering::SeqCst), 1, "item {} at or below the panic", i);
                }
            }
            (None, Ok(values)) => {
                prop_assert_eq!(values, (0..n).collect::<Vec<_>>());
                prop_assert_eq!(flushed, (0..n as u64).collect::<Vec<_>>());
            }
            (expected, got) => prop_assert!(false, "expected a panic at {:?}, got {:?}", expected, got),
        }
        for (i, r) in runs.iter().enumerate() {
            prop_assert!(r.load(Ordering::SeqCst) <= 1, "item {} ran twice", i);
        }
        prop_assert_eq!(drops.load(Ordering::SeqCst), n, "every item dropped exactly once");
    }
}
