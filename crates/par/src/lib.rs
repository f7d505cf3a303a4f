//! # eadrl-par — deterministic std-only thread pool
//!
//! A zero-dependency parallel map whose output is **bitwise identical**
//! to the serial computation at every thread count. The workspace's
//! embarrassingly parallel hot paths — base-model pool fitting, the
//! rolling pool-prediction matrix, the 16-method evaluation loop, the
//! Bayes-sign-test Monte-Carlo chains — all funnel through [`par_map`],
//! so the repo's determinism contract (frozen `eadrl_rng::DetRng`
//! stream, byte-identical quickstart outputs) survives parallelism.
//!
//! ## Determinism model
//!
//! [`par_map`] applies a pure-per-item function to each element of an
//! owned `Vec` and merges results **strictly by input index**. Work is
//! split into contiguous chunks, one per worker, with a *static*
//! assignment (no work stealing): which item runs on which thread is a
//! function of `(items.len(), workers)` only, never of timing. Because
//! `f` receives ownership of its item and may not share mutable state
//! (the `Fn` + [`Sync`] bounds enforce this), the result for item `i`
//! cannot depend on scheduling — so the merged output equals the serial
//! `items.into_iter().map(f).collect()` bit for bit.
//!
//! Code that draws randomness inside `f` must derive its generator from
//! the item index (`DetRng::substream` — state and
//! index in, stream out), never from a generator threaded *across*
//! items; `crates/core/tests/par_determinism.rs` and this crate's
//! property suite enforce the contract end to end.
//!
//! ## Thread count
//!
//! `EADRL_PAR_THREADS` selects the worker count; unset (or unparsable)
//! falls back to [`std::thread::available_parallelism`]. `1` forces the
//! serial fallback, which runs **the identical code path** (same
//! chunking, same per-item panic containment, same index merge) on the
//! calling thread — there is no separate serial implementation to drift
//! out of sync. [`par_map_with`] pins the count explicitly (used by the
//! differential tests so they need no env mutation).
//!
//! ## Panic containment
//!
//! A panic inside `f` is caught at the owning worker, the batch is
//! abandoned, and [`par_map`] returns [`ParError::Panic`] carrying the
//! *originating input index* — the smallest panicking index across
//! workers, so even the error is deterministic. Workers are scoped
//! threads ([`std::thread::scope`]): every worker is joined before
//! `par_map` returns, no thread outlives the call, and the pool is
//! trivially usable for the next call (there is no poisoned state to
//! clear). Items not yet processed when a batch is abandoned are
//! dropped normally (no leaks — asserted by the fault-injection tests).
//!
//! ## Telemetry
//!
//! Each call opens a `par.map` span (debug: `items`, `workers`,
//! `chunk`); each worker runs its chunk inside a `par.worker` span
//! (debug: `worker`, `items`, `queue_wait_us` — the spawn-to-start
//! latency), and a contained panic emits `par.panic` (warn: `index`).
//! Counters `par.maps_total` / `par.tasks_total` accumulate in the
//! global registry.
//!
//! Worker telemetry is **deterministically ordered**: every worker runs
//! under an [`eadrl_obs::worker_context`] that (a) stamps its events
//! with `thread = 1 + worker index`, (b) inherits the caller's span
//! path so worker spans nest under `par.map` instead of becoming
//! orphaned roots, and (c) buffers events thread-locally. After the
//! join, buffers are flushed in worker-index order — since chunks are
//! contiguous and ascending, the flushed trace is ordered exactly like
//! the serial one, at every thread count. The serial fallback runs the
//! identical context + buffer path inline.
#![forbid(unsafe_code)]

use eadrl_obs::Level;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Environment variable selecting the worker count ("1" = serial).
pub const THREADS_ENV: &str = "EADRL_PAR_THREADS";

/// Failure of a parallel batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParError {
    /// The mapped function panicked on the item at `index` (the
    /// smallest panicking input index — deterministic across thread
    /// counts and interleavings).
    Panic {
        /// Input index of the item whose closure panicked.
        index: usize,
        /// Panic payload, when it was a `&str`/`String` message.
        message: String,
    },
    /// A worker thread terminated without delivering its results and
    /// without a caught panic. Not reachable through the public API
    /// (workers catch all unwinds); kept so the merge step can report
    /// the condition instead of panicking if an internal invariant is
    /// ever broken.
    WorkerLost {
        /// Input index of the first item with no result.
        index: usize,
    },
}

impl std::fmt::Display for ParError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParError::Panic { index, message } => {
                write!(
                    f,
                    "parallel task panicked at input index {index}: {message}"
                )
            }
            ParError::WorkerLost { index } => {
                write!(f, "worker delivered no result for input index {index}")
            }
        }
    }
}

impl std::error::Error for ParError {}

/// Resolves the worker count: `EADRL_PAR_THREADS` when set to a
/// positive integer, otherwise [`std::thread::available_parallelism`]
/// (and 1 if even that is unavailable).
#[must_use]
pub fn thread_count() -> usize {
    match std::env::var(THREADS_ENV) {
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eadrl_obs::warn("par.threads.invalid", &[("raw", raw.as_str().into())]);
                default_threads()
            }
        },
        Err(_) => default_threads(),
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Parallel map with deterministic, serial-identical output: applies
/// `f` to every item and returns the results in input order. Worker
/// count comes from [`thread_count`].
///
/// # Errors
/// [`ParError::Panic`] when `f` panics on some item (smallest such
/// input index).
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Result<Vec<R>, ParError>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    par_map_with(thread_count(), items, f)
}

/// [`par_map`] with an explicit worker count (bypasses the
/// environment). `threads == 1` runs the identical code path serially
/// on the calling thread.
///
/// # Errors
/// [`ParError::Panic`] when `f` panics on some item.
pub fn par_map_with<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Result<Vec<R>, ParError>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    par_map_indexed_with(threads, items, |_, item| f(item))
}

/// Index-aware parallel map: `f` receives `(input_index, item)`. This
/// is the right entry point for stochastic tasks — derive the task's
/// RNG from the index (`eadrl_rng::DetRng::substream`) and the draw
/// stream is independent of the thread count.
///
/// # Errors
/// [`ParError::Panic`] when `f` panics on some item.
pub fn par_map_indexed<T, R, F>(items: Vec<T>, f: F) -> Result<Vec<R>, ParError>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    par_map_indexed_with(thread_count(), items, f)
}

/// [`par_map_indexed`] with an explicit worker count.
///
/// # Errors
/// [`ParError::Panic`] when `f` panics on some item.
pub fn par_map_indexed_with<T, R, F>(
    threads: usize,
    items: Vec<T>,
    f: F,
) -> Result<Vec<R>, ParError>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let workers = threads.clamp(1, n.max(1));
    let mut span = eadrl_obs::span_at(Level::Debug, "par.map");
    span.record("items", n.into());
    span.record("workers", workers.into());
    span.record("chunk", n.div_ceil(workers.max(1)).into());
    eadrl_obs::counter("par.maps_total").inc();
    eadrl_obs::counter("par.tasks_total").add(n as u64);
    if n == 0 {
        return Ok(Vec::new());
    }
    // Captured once, before any worker runs: the span path workers
    // inherit (so their spans nest here identically at every thread
    // count) and whether their telemetry should be buffered at all.
    let parent_path = eadrl_obs::current_span_path();
    let buffer = eadrl_obs::level().is_some();

    // Static contiguous chunking: worker w owns items
    // [w*base + min(w, extra) ..], sizes differing by at most one.
    // The assignment depends only on (n, workers), never on timing.
    let base = n / workers;
    let extra = n % workers;
    let mut chunks: Vec<Vec<(usize, T)>> = Vec::with_capacity(workers);
    let mut iter = items.into_iter().enumerate();
    for w in 0..workers {
        let len = base + usize::from(w < extra);
        chunks.push(iter.by_ref().take(len).collect());
    }

    let outcomes: Vec<ChunkOutcome<R>> = if workers == 1 {
        // Serial fallback: the identical per-chunk code path (context,
        // buffering, span, containment), run inline — no spawn.
        chunks
            .into_iter()
            .enumerate()
            .map(|(w, chunk)| {
                let (outcome, events) =
                    run_chunk(w, chunk, &f, None, parent_path.as_deref(), buffer);
                eadrl_obs::emit_batch(events);
                outcome
            })
            .collect()
    } else {
        // Debug-gated so the clock is never read when telemetry is off
        // (which also keeps this crate runnable under Miri isolation).
        // eadrl-lint: allow(determinism): queue-wait telemetry only — the timestamp never reaches a result
        let spawned_at = eadrl_obs::enabled(Level::Debug).then(std::time::Instant::now);
        let batches: Vec<(ChunkOutcome<R>, Vec<eadrl_obs::Event>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .into_iter()
                .enumerate()
                .map(|(w, chunk)| {
                    let f = &f;
                    let parent = parent_path.as_deref();
                    scope.spawn(move || run_chunk(w, chunk, f, spawned_at, parent, buffer))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| {
                        (
                            ChunkOutcome {
                                results: Vec::new(),
                                panic: None,
                            },
                            Vec::new(),
                        )
                    })
                })
                .collect()
        });
        // Flush worker buffers in worker-index order: chunks are
        // contiguous ascending, so this equals the serial trace order.
        batches
            .into_iter()
            .map(|(outcome, events)| {
                eadrl_obs::emit_batch(events);
                outcome
            })
            .collect()
    };

    // Merge strictly by input index. Chunks are contiguous and ordered,
    // so this is a flatten — slots make the invariant explicit and turn
    // any violation into a typed error rather than wrong output.
    let mut first_panic: Option<(usize, String)> = None;
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for outcome in outcomes {
        if let Some((index, message)) = outcome.panic {
            let sooner = first_panic.as_ref().is_none_or(|(i, _)| index < *i);
            if sooner {
                first_panic = Some((index, message));
            }
        }
        for (index, value) in outcome.results {
            slots[index] = Some(value);
        }
    }
    if let Some((index, message)) = first_panic {
        eadrl_obs::warn("par.panic", &[("index", index.into())]);
        return Err(ParError::Panic { index, message });
    }
    let mut out = Vec::with_capacity(n);
    for (index, slot) in slots.into_iter().enumerate() {
        match slot {
            Some(value) => out.push(value),
            None => return Err(ParError::WorkerLost { index }),
        }
    }
    Ok(out)
}

/// What one worker hands back: results for its chunk prefix, plus the
/// panic that interrupted it, if any.
struct ChunkOutcome<R> {
    results: Vec<(usize, R)>,
    panic: Option<(usize, String)>,
}

/// Runs one worker's chunk inside an [`eadrl_obs::worker_context`] and a
/// `par.worker` span, returning the outcome plus the worker's buffered
/// telemetry (empty when `buffer` is off). A contained item panic still
/// returns the buffer — the trace up to the failure is kept.
fn run_chunk<T, R, F>(
    worker: usize,
    chunk: Vec<(usize, T)>,
    f: &F,
    spawned_at: Option<std::time::Instant>,
    parent_path: Option<&str>,
    buffer: bool,
) -> (ChunkOutcome<R>, Vec<eadrl_obs::Event>)
where
    F: Fn(usize, T) -> R,
{
    let mut ctx = eadrl_obs::worker_context(worker as u64 + 1, parent_path, buffer);
    let outcome = {
        let mut span = eadrl_obs::span_at(Level::Debug, "par.worker");
        span.record("worker", worker.into());
        span.record("items", chunk.len().into());
        if span.is_recording() {
            let queue_wait_us = spawned_at.map_or(0, |t| t.elapsed().as_micros() as u64);
            span.record("queue_wait_us", queue_wait_us.into());
        }
        run_items(chunk, f)
    };
    let events = ctx.take_buffered();
    (outcome, events)
}

fn run_items<T, R, F>(chunk: Vec<(usize, T)>, f: &F) -> ChunkOutcome<R>
where
    F: Fn(usize, T) -> R,
{
    let mut results = Vec::with_capacity(chunk.len());
    for (index, item) in chunk {
        match catch_unwind(AssertUnwindSafe(|| f(index, item))) {
            Ok(value) => results.push((index, value)),
            Err(payload) => {
                // Abandon the rest of the chunk: the remaining items
                // drop here, the completed prefix is still reported so
                // the caller sees a consistent (index → result) map.
                return ChunkOutcome {
                    results,
                    panic: Some((index, panic_message(payload.as_ref()))),
                };
            }
        }
    }
    ChunkOutcome {
        results,
        panic: None,
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_input_order_at_every_thread_count() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [1, 2, 3, 8, 200] {
            let got = par_map_with(threads, items.clone(), |x| x * x + 1).expect("no panics");
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let got: Vec<u64> = par_map_with(4, Vec::<u64>::new(), |x| x).expect("no panics");
        assert!(got.is_empty());
    }

    #[test]
    fn single_item_runs_serially() {
        let got = par_map_with(8, vec![41u64], |x| x + 1).expect("no panics");
        assert_eq!(got, vec![42]);
    }

    #[test]
    fn indexed_variant_sees_input_indices() {
        let got = par_map_indexed_with(3, vec!["a", "b", "c", "d"], |i, s| format!("{i}{s}"))
            .expect("no panics");
        assert_eq!(got, vec!["0a", "1b", "2c", "3d"]);
    }

    #[test]
    fn panic_is_contained_with_smallest_index() {
        // Two panicking items in different chunks: index 2 must win
        // regardless of which worker finishes first.
        for threads in [1, 2, 4] {
            let err = par_map_with(threads, (0..16u64).collect(), |x| {
                assert!(x != 2 && x != 11, "boom at {x}");
                x
            })
            .expect_err("must fail");
            assert_eq!(
                err,
                ParError::Panic {
                    index: 2,
                    message: "boom at 2".to_string()
                },
                "threads={threads}"
            );
        }
    }

    #[test]
    fn pool_is_usable_after_a_panic() {
        let _ = par_map_with(4, vec![1u64], |_| -> u64 { panic!("once") });
        let got = par_map_with(4, vec![1u64, 2, 3], |x| x * 10).expect("pool must stay usable");
        assert_eq!(got, vec![10, 20, 30]);
    }

    #[test]
    fn thread_count_is_at_least_one() {
        assert!(thread_count() >= 1);
    }
}
