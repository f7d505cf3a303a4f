//! The [`Sidecar`]: a persistent helper thread for one owner's job. Its
//! contract (placement, spin-then-park, steal-back, panics, telemetry)
//! is in the crate docs, section *Sidecar*.
//!
//! A job is posted by `start` and claimed by exactly one of the helper
//! and the caller at `join` (a compare-and-swap on `phase`). The claimer
//! runs it holding the slot's mutex and then marks it done; while a job
//! is in flight the caller touches the slot only through `join`.

use eadrl_obs::{Event, Level};
use std::any::Any;
use std::ops::{Deref, DerefMut};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Work a [`Sidecar`] runs. The job owns everything it reads and
/// writes; its result must not depend on which thread runs it.
pub trait Job: Send + 'static {
    /// Runs the job once, in place.
    fn run(&mut self);
}

/// Where a [`Sidecar`] may run its jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// The rule every production owner uses: the helper when the thread
    /// count and the machine both allow two threads (crate docs).
    Auto,
    /// Every job runs inline at `join`.
    Inline,
    /// As `Auto`, but as if the machine had a second core: tests pin the
    /// helper path with it on a one-core runner.
    Helper,
}

/// Iterations the helper spins after a job before it parks. At
/// 10–50 ns per iteration this covers the ~0.2 ms between two DDPG
/// updates; a longer gap parks, which costs one wake-up.
const HELPER_SPINS: u32 = 1 << 14;
/// Iterations the caller spins at `join` before it starts yielding.
const JOIN_SPINS: u32 = 1 << 12;

const IDLE: u8 = 0;
const POSTED: u8 = 1;
const CLAIMED: u8 = 2;
const DONE: u8 = 3;

/// The job and what travels with it between `start` and `join`.
struct Slot<J> {
    job: J,
    /// The caller's thread id and span path at `start`; `None` when
    /// telemetry was off then, and the job's events are dropped.
    parent: Option<(u64, Option<String>)>,
    events: Vec<Event>,
    panic: Option<Box<dyn Any + Send>>,
}

struct Shared<J> {
    /// `IDLE` → `POSTED` (start) → `CLAIMED` (helper or caller) → `DONE`.
    /// `start` stores `POSTED` with `Release` after staging the slot, and
    /// the claimer's compare-and-swap acquires it; `run_claimed` stores
    /// `DONE` with `Release` after it releases the slot, and `finish`
    /// acquires it. The slot's mutex orders the job data as well.
    phase: AtomicU8,
    slot: Mutex<Slot<J>>,
    shutdown: AtomicBool,
    /// Test hook: while set, the helper claims nothing.
    held: AtomicBool,
}

/// A persistent helper thread for one owner's [`Job`] (crate docs, *Sidecar*).
pub struct Sidecar<J: Job> {
    shared: Arc<Shared<J>>,
    helper: Option<JoinHandle<()>>,
    placement: Placement,
    /// Whether this machine and thread count allow the helper; decided
    /// at the first job.
    eligible: Option<bool>,
    /// A job was started and not yet joined.
    in_flight: bool,
}

impl<J: Job> Sidecar<J> {
    /// A sidecar owning `job`, with the production placement rule. No
    /// thread starts until the first job.
    pub fn new(job: J) -> Sidecar<J> {
        Sidecar::with_placement(job, Placement::Auto)
    }

    /// A sidecar with an explicit [`Placement`].
    pub fn with_placement(job: J, placement: Placement) -> Sidecar<J> {
        Sidecar {
            shared: Arc::new(Shared {
                phase: AtomicU8::new(IDLE),
                slot: Mutex::new(Slot {
                    job,
                    parent: None,
                    events: Vec::new(),
                    panic: None,
                }),
                shutdown: AtomicBool::new(false),
                held: AtomicBool::new(false),
            }),
            helper: None,
            placement,
            eligible: None,
            in_flight: false,
        }
    }

    /// Starts the job: hands it to the helper, or leaves it for the next
    /// [`Sidecar::join`] when the sidecar runs inline. A job still in
    /// flight is joined first.
    pub fn start(&mut self) {
        drop(self.join());
        let to_helper = self.ensure_helper();
        {
            let mut slot = lock(&self.shared.slot);
            slot.parent = eadrl_obs::level()
                .is_some()
                .then(|| (eadrl_obs::thread_id(), eadrl_obs::current_span_path()));
        }
        self.shared.phase.store(POSTED, Ordering::Release);
        self.in_flight = true;
        if let (true, Some(helper)) = (to_helper, &self.helper) {
            helper.thread().unpark();
        }
    }

    /// Waits for the job in flight, or runs it here if the helper has not
    /// claimed it, flushes its telemetry, and returns the job; with no
    /// job in flight it returns the job at once. A panic inside the job
    /// resumes here with its original payload, and the job stays in the
    /// sidecar.
    pub fn join(&mut self) -> JobGuard<'_, J> {
        if std::mem::take(&mut self.in_flight) {
            if let Some(payload) = finish(&self.shared) {
                resume_unwind(payload);
            }
        }
        JobGuard(lock(&self.shared.slot))
    }

    /// Whether the helper thread has been spawned.
    pub fn has_helper(&self) -> bool {
        self.helper.is_some()
    }

    /// Test hook: while `held`, the helper claims no job, so `join`
    /// always takes the job back.
    pub fn hold_helper(&self, held: bool) {
        self.shared.held.store(held, Ordering::Release);
    }

    /// Whether this job may go to the helper, spawning the helper at the
    /// first such job; `false` runs the job inline at `join`.
    fn ensure_helper(&mut self) -> bool {
        if crate::in_pool_worker() {
            return false;
        }
        let placement = self.placement;
        let eligible = *self.eligible.get_or_insert_with(|| match placement {
            Placement::Auto => crate::thread_count() >= 2 && crate::default_threads() >= 2,
            Placement::Inline => false,
            Placement::Helper => true,
        });
        if eligible && self.helper.is_none() {
            let shared = Arc::clone(&self.shared);
            // One spawn per sidecar, at its first job; a failed spawn
            // leaves the sidecar inline for good.
            self.helper = std::thread::Builder::new()
                .name("eadrl-sidecar".into())
                .spawn(move || helper_loop(&shared))
                .ok();
            self.eligible = Some(self.helper.is_some());
        }
        eligible && self.helper.is_some()
    }
}

impl<J: Job> Drop for Sidecar<J> {
    fn drop(&mut self) {
        // A job still in flight finishes first; its panic, if any, is
        // dropped with it (a panic in `drop` could abort an unwind).
        if std::mem::take(&mut self.in_flight) {
            drop(finish(&self.shared));
        }
        if let Some(helper) = self.helper.take() {
            self.shared.shutdown.store(true, Ordering::Release);
            helper.thread().unpark();
            // The helper catches every job panic, so it exits cleanly.
            let _ = helper.join();
        }
    }
}

/// Exclusive access to a sidecar's joined job.
pub struct JobGuard<'a, J>(MutexGuard<'a, Slot<J>>);

impl<J> Deref for JobGuard<'_, J> {
    type Target = J;
    fn deref(&self) -> &J {
        &self.0.job
    }
}

impl<J> DerefMut for JobGuard<'_, J> {
    fn deref_mut(&mut self) -> &mut J {
        &mut self.0.job
    }
}

/// Locks the slot, recovering it from poisoning: a job's own panic is
/// caught inside the lock and poisons nothing, so only a caller that
/// panicked while holding a [`JobGuard`] poisons it, and that leaves the
/// job's data as structurally valid as any half-finished update.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The caller's half of `join`: claim the job if it is still posted and
/// run it here, otherwise wait for the helper; then flush the job's
/// telemetry and return its panic, if any. The `par.sidecar.wait` span
/// times only the wait, so a job run here adds its own time, not twice.
fn finish<J: Job>(shared: &Shared<J>) -> Option<Box<dyn Any + Send>> {
    let ran_here = claim(shared);
    if ran_here {
        run_claimed(shared);
    }
    {
        let mut wait = eadrl_obs::span_at(Level::Trace, "par.sidecar.wait");
        wait.record("ran_here", ran_here.into());
        let mut spins = 0;
        while shared.phase.load(Ordering::Acquire) != DONE {
            if spins < JOIN_SPINS {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
    shared.phase.store(IDLE, Ordering::Release);
    let mut slot = lock(&shared.slot);
    if !slot.events.is_empty() {
        eadrl_obs::emit_batch(std::mem::take(&mut slot.events));
    }
    slot.panic.take()
}

fn claim<J>(shared: &Shared<J>) -> bool {
    shared
        .phase
        .compare_exchange(POSTED, CLAIMED, Ordering::AcqRel, Ordering::Acquire)
        .is_ok()
}

/// Runs a claimed job under the caller's telemetry context, catching
/// its panic; the same code on the helper and on the caller. The job's
/// events are always buffered, and kept only when telemetry was on at
/// `start`: a job started untraced leaves no events, whenever and
/// wherever it runs.
fn run_claimed<J: Job>(shared: &Shared<J>) {
    {
        let mut guard = lock(&shared.slot);
        let slot = &mut *guard;
        let (id, path) = slot
            .parent
            .as_ref()
            .map_or((eadrl_obs::thread_id(), None), |(id, path)| {
                (*id, path.as_deref())
            });
        let mut ctx = eadrl_obs::worker_context(id, path, true);
        let job = &mut slot.job;
        slot.panic = catch_unwind(AssertUnwindSafe(|| job.run())).err();
        let events = ctx.take_buffered();
        drop(ctx);
        if slot.parent.is_some() {
            slot.events = events;
        }
    }
    shared.phase.store(DONE, Ordering::Release);
}

/// The helper's loop: claim posted jobs, spin a while after each, then
/// park until the next `start` or the owner's drop.
fn helper_loop<J: Job>(shared: &Shared<J>) {
    let mut spins = 0;
    while !shared.shutdown.load(Ordering::Acquire) {
        if shared.phase.load(Ordering::Acquire) == POSTED
            && !shared.held.load(Ordering::Acquire)
            && claim(shared)
        {
            run_claimed(shared);
            spins = 0;
        } else if spins < HELPER_SPINS {
            spins += 1;
            std::hint::spin_loop();
        } else {
            std::thread::park();
        }
    }
}
