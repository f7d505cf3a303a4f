//! # eadrl-par — deterministic std-only thread pool
//!
//! A zero-dependency parallel map whose output is **bitwise identical**
//! to the serial computation at every thread count, and a [`Sidecar`]
//! that overlaps one owner's job with the owner's own work. The
//! workspace's embarrassingly parallel hot paths — base-model pool
//! fitting, the rolling pool-prediction matrix, the 16-method
//! evaluation loop, the Bayes-sign-test Monte-Carlo chains — all funnel
//! through [`par_map`]; the DDPG update runs its Bellman-target pass on
//! a sidecar. The repo's determinism contract (frozen
//! `eadrl_rng::DetRng` stream, byte-identical quickstart outputs)
//! survives both.
//!
//! ## Determinism model
//!
//! [`par_map`] applies a pure-per-item function to each element of an
//! owned `Vec` and merges results **strictly by input index**. Workers
//! claim items one at a time from one shared queue, in ascending index
//! order, so a worker that drew cheap items takes the next one instead
//! of idling while another works through a costly run (the pool fit's
//! nine recurrent members sit together at the end of the pool). Which
//! worker ran which item depends on timing; nothing else does. Because
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
//! claiming loop, same per-item panic containment and telemetry
//! buffering, same index merge) on the calling thread — there is no
//! separate serial implementation to drift out of sync. [`par_map_with`]
//! pins the count explicitly (used by the differential tests so they
//! need no env mutation).
//!
//! ## Panic containment
//!
//! A panic inside `f` is caught at the worker that ran the item, and
//! [`par_map`] returns [`ParError::Panic`] carrying the *originating
//! input index*. Once any item has panicked, no worker claims another.
//! The reported index is still the smallest panicking one, at every
//! thread count: claims ascend, so every item below a panicking index
//! was claimed before it, and a claimed item always runs to completion
//! (or to its own contained panic). Items past the reported index that
//! a worker had already claimed are discarded with their telemetry, so
//! the failing batch's trace is the serial one. Workers are scoped
//! threads ([`std::thread::scope`]): every worker is joined before
//! `par_map` returns, no thread outlives the call, and the pool is
//! trivially usable for the next call (there is no poisoned state to
//! clear). Items never claimed are dropped with the queue (no leaks —
//! asserted by the fault-injection tests and a drop-counting property).
//!
//! ## Telemetry
//!
//! Each call opens a `par.map` span (debug: `items`, `workers`); each
//! worker runs inside a `par.worker` span (debug: `worker`, `items` it
//! claimed, `queue_wait_us` — the spawn-to-start latency), and a
//! contained panic emits `par.panic` (warn: `index`). Counters
//! `par.maps_total` / `par.tasks_total` accumulate in the global
//! registry.
//!
//! Worker telemetry is **deterministically ordered**: every worker runs
//! under an [`eadrl_obs::worker_context`] that (a) stamps its events
//! with `thread = 1 + worker index`, (b) inherits the caller's span
//! path so worker spans nest under `par.map` instead of becoming
//! orphaned roots, and (c) buffers events thread-locally. Each item's
//! events are taken from the buffer as the item finishes and flushed
//! after the join **in input-index order**, then the `par.worker` spans
//! in worker order — so the flushed trace is ordered exactly like the
//! serial one at every thread count. The `thread` stamp on an item's
//! events records which worker claimed it, a scheduling fact like a
//! timestamp. The serial fallback runs the identical context + buffer
//! path inline.
//!
//! ## Sidecar
//!
//! A [`Sidecar`] is a persistent helper thread for one owner's [`Job`]:
//! the owner stages the job's inputs, calls [`Sidecar::start`], does
//! work that does not need the job, and takes it back with
//! [`Sidecar::join`]. Any access to the job goes through `join`, which
//! first settles a job still in flight, so an owner may also start a
//! job and return, leaving it to land at its next access (the DDPG
//! update posts its Polyak step that way). The job value lives behind a
//! mutex in the sidecar for its whole life, so no borrowed data crosses
//! threads and no `unsafe` is needed. The contract:
//!
//! * **Placement.** The helper is used only when [`thread_count`] and
//!   [`std::thread::available_parallelism`] are both at least 2 and the
//!   caller is not a worker of a multi-worker [`par_map`] (such a batch
//!   already fills the cores); otherwise every job runs inline at
//!   `join`, through the same claim-and-run code. There is no knob:
//!   `EADRL_PAR_THREADS=1` makes every job inline.
//! * **Spin, then park.** The helper is spawned at the owner's first
//!   job it may take and joined when the owner drops. After each job it
//!   spins a bounded number of iterations (no clock is read) and then
//!   parks; a thread spawn costs ~95 µs and a parked thread's wake-up
//!   ~50 µs on a 2-core VM, so back-to-back jobs of ~60 µs need a
//!   thread that persists and is awake.
//! * **Steal-back.** `start` posts the job; whichever of the helper and
//!   the caller at `join` claims it first runs it. A job the helper has
//!   not claimed by `join` runs on the caller, so a descheduled helper
//!   never costs more than running inline.
//! * **Panics** are caught where the job ran and re-raised on the caller
//!   at `join` with [`std::panic::resume_unwind`], carrying the original
//!   payload; the job stays in the sidecar.
//! * **Telemetry.** The job runs under the caller's thread id and the
//!   span path current at `start`, buffered, and its events are flushed
//!   at `join`; the caller's wait is a `par.sidecar.wait` span. Both
//!   placements emit the same trace shape.
//!
//! A job's result must not depend on which thread ran it: it owns
//! everything it reads and writes.
#![forbid(unsafe_code)]

use eadrl_obs::Level;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

mod sidecar;

pub use sidecar::{Job, JobGuard, Placement, Sidecar};

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
    eadrl_obs::counter("par.maps_total").inc();
    eadrl_obs::counter("par.tasks_total").add(n as u64);
    if n == 0 {
        return Ok(Vec::new());
    }
    // Captured once, before any worker runs: the span path workers
    // inherit (so their spans nest here identically at every thread
    // count) and whether their telemetry should be buffered at all.
    let parent_path = eadrl_obs::current_span_path();
    let batch = Batch {
        queue: Mutex::new(items.into_iter().enumerate()),
        first_panic: AtomicUsize::new(usize::MAX),
        parent_path: parent_path.as_deref(),
        buffer: eadrl_obs::level().is_some(),
    };

    let outcomes: Vec<WorkerOutcome<R>> = if workers == 1 {
        // Serial fallback: the identical worker loop (context, claiming,
        // per-item buffering, containment), run inline — no spawn.
        vec![batch.run_worker(0, &f, None)]
    } else {
        // Debug-gated so the clock is never read when telemetry is off
        // (which also keeps this crate runnable under Miri isolation).
        // eadrl-lint: allow(determinism): queue-wait telemetry only — the timestamp never reaches a result
        let spawned_at = eadrl_obs::enabled(Level::Debug).then(std::time::Instant::now);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let (f, batch) = (&f, &batch);
                    scope.spawn(move || {
                        POOL_WORKER.with(|flag| flag.set(true));
                        batch.run_worker(w, f, spawned_at)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| WorkerOutcome::default()))
                .collect()
        })
    };
    // Items nobody claimed (the batch stopped at a panic) drop here.
    drop(batch);

    // Merge strictly by input index. Only items at or below the smallest
    // panicking index count: every one of them was claimed (claims
    // ascend) and finished, whatever the thread count, while items past
    // it ran only if a worker happened to claim them first.
    let mut slots: Vec<Option<ItemOutcome<R>>> = (0..n).map(|_| None).collect();
    let mut worker_events = Vec::with_capacity(workers);
    for outcome in outcomes {
        for item in outcome.items {
            let index = item.index;
            slots[index] = Some(item);
        }
        worker_events.push(outcome.events);
    }
    let stop = slots
        .iter()
        .flatten()
        .find(|item| item.result.is_err())
        .map_or(n, |item| item.index + 1);
    let mut out = Vec::with_capacity(stop);
    let mut failure = None;
    for (index, slot) in slots.into_iter().enumerate().take(stop) {
        let Some(item) = slot else {
            failure.get_or_insert(ParError::WorkerLost { index });
            continue;
        };
        // Each item's telemetry flushes in input order: the trace reads
        // like the serial one at every thread count.
        eadrl_obs::emit_batch(item.events);
        match item.result {
            Ok(value) => out.push(value),
            Err(message) => failure = Some(ParError::Panic { index, message }),
        }
    }
    for events in worker_events {
        eadrl_obs::emit_batch(events);
    }
    match failure {
        Some(err) => {
            if let ParError::Panic { index, .. } = err {
                eadrl_obs::warn("par.panic", &[("index", index.into())]);
            }
            Err(err)
        }
        None => Ok(out),
    }
}

thread_local! {
    /// Set on the threads a multi-worker [`par_map`] spawns, for their
    /// whole (scoped) life: a [`Sidecar`] started there runs its jobs
    /// inline, because the batch already fills the cores.
    static POOL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// True on a worker thread of a multi-worker [`par_map`].
fn in_pool_worker() -> bool {
    POOL_WORKER.with(std::cell::Cell::get)
}

/// The state one batch's workers share: the claim queue, the smallest
/// panicking index seen so far, and the telemetry context they inherit.
struct Batch<'p, T> {
    /// Unclaimed items, in input order. Claims ascend.
    queue: Mutex<std::iter::Enumerate<std::vec::IntoIter<T>>>,
    /// Smallest panicking index seen (`usize::MAX` while none has).
    first_panic: AtomicUsize,
    parent_path: Option<&'p str>,
    buffer: bool,
}

/// One finished item: its result (or panic message) and the telemetry
/// it emitted, which the merge flushes in input order.
struct ItemOutcome<R> {
    index: usize,
    result: Result<R, String>,
    events: Vec<eadrl_obs::Event>,
}

/// What one worker hands back: the items it ran, plus its own
/// `par.worker` span (empty when telemetry is off).
struct WorkerOutcome<R> {
    items: Vec<ItemOutcome<R>>,
    events: Vec<eadrl_obs::Event>,
}

impl<R> Default for WorkerOutcome<R> {
    fn default() -> Self {
        WorkerOutcome {
            items: Vec::new(),
            events: Vec::new(),
        }
    }
}

impl<T> Batch<'_, T> {
    /// Claims the next item, or `None` once the queue is empty or some
    /// item has panicked: every later claim would lie past the
    /// panicking index, so it could not change the reported one.
    fn claim(&self) -> Option<(usize, T)> {
        if self.first_panic.load(Ordering::Acquire) != usize::MAX {
            return None;
        }
        self.queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .next()
    }

    /// One worker's loop inside an [`eadrl_obs::worker_context`] and a
    /// `par.worker` span: claim, run under `catch_unwind`, take the
    /// item's buffered telemetry, repeat. A claimed item always runs to
    /// completion (or to its contained panic).
    fn run_worker<R, F>(
        &self,
        worker: usize,
        f: &F,
        spawned_at: Option<std::time::Instant>,
    ) -> WorkerOutcome<R>
    where
        F: Fn(usize, T) -> R,
    {
        let mut ctx = eadrl_obs::worker_context(worker as u64 + 1, self.parent_path, self.buffer);
        let mut items = Vec::new();
        {
            let mut span = eadrl_obs::span_at(Level::Debug, "par.worker");
            span.record("worker", worker.into());
            if span.is_recording() {
                let queue_wait_us = spawned_at.map_or(0, |t| t.elapsed().as_micros() as u64);
                span.record("queue_wait_us", queue_wait_us.into());
            }
            while let Some((index, item)) = self.claim() {
                let result = catch_unwind(AssertUnwindSafe(|| f(index, item)))
                    .map_err(|payload| panic_message(payload.as_ref()));
                if result.is_err() {
                    self.first_panic.fetch_min(index, Ordering::AcqRel);
                }
                items.push(ItemOutcome {
                    index,
                    result,
                    events: ctx.take_buffered(),
                });
            }
            span.record("items", items.len().into());
        }
        let events = ctx.take_buffered();
        WorkerOutcome { items, events }
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
