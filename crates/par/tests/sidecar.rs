//! The sidecar contract: a job's panic reaches the caller with its
//! original payload, dropping the owner joins the helper (and a job
//! still in flight), a job the helper has not claimed runs on the
//! caller, no helper starts inside a multi-worker `par_map` or at
//! `EADRL_PAR_THREADS=1`, and a job's spans nest under the caller's span
//! path on either thread.
//!
//! The placements are pinned per sidecar (`Placement::Helper` runs the
//! helper path on a one-core runner too); only the `EADRL_PAR_THREADS`
//! test reads the environment. Where a test needs the job to run on the
//! helper, it waits until the job has begun before it joins, so the
//! caller cannot take it back. The telemetry test filters the shared
//! sink by its own event names.

use eadrl_obs::{EventKind, Level, RingSink};
use eadrl_par::{par_map_with, Job, Placement, Sidecar};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::ThreadId;

/// Counts its runs and records the thread that ran the last one;
/// panics with `"boom {runs}"` on the run named by `panic_on`.
struct Probe {
    runs: u64,
    ran_on: Option<ThreadId>,
    panic_on: Option<u64>,
    token: Arc<()>,
    begun: Arc<AtomicU64>,
}

impl Probe {
    fn new() -> Probe {
        Probe {
            runs: 0,
            ran_on: None,
            panic_on: None,
            token: Arc::new(()),
            begun: Arc::new(AtomicU64::new(0)),
        }
    }
}

impl Job for Probe {
    fn run(&mut self) {
        self.begun.fetch_add(1, Ordering::SeqCst);
        self.runs += 1;
        self.ran_on = Some(std::thread::current().id());
        assert!(self.panic_on != Some(self.runs), "boom {}", self.runs);
    }
}

/// Starts the job; on the helper placement, returns only once the
/// helper has begun it, so the next `join` waits instead of taking the
/// job back.
fn start_on<J: Job>(sidecar: &mut Sidecar<J>, placement: Placement, begun: &AtomicU64) {
    let before = begun.load(Ordering::SeqCst);
    sidecar.start();
    while placement == Placement::Helper && begun.load(Ordering::SeqCst) == before {
        std::thread::yield_now();
    }
}

#[test]
fn a_job_panic_reaches_the_caller_with_its_payload_and_keeps_the_job() {
    for placement in [Placement::Inline, Placement::Helper] {
        let mut sidecar = Sidecar::with_placement(
            Probe {
                panic_on: Some(2),
                ..Probe::new()
            },
            placement,
        );
        let begun = Arc::clone(&sidecar.join().begun);
        sidecar.start();
        sidecar.join();
        start_on(&mut sidecar, placement, &begun);
        let payload = catch_unwind(AssertUnwindSafe(|| {
            sidecar.join();
        }))
        .expect_err("the second run panics");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("boom 2"),
            "{placement:?}: the original payload, not a wrapper"
        );
        // The job stayed in the sidecar and the sidecar still works.
        let job = sidecar.join();
        assert_eq!(job.runs, 2, "{placement:?}");
        assert_eq!(
            job.ran_on == Some(std::thread::current().id()),
            placement == Placement::Inline,
            "{placement:?}: the panic crossed threads on the helper"
        );
        drop(job);
        sidecar.start();
        assert_eq!(sidecar.join().runs, 3, "{placement:?}");
    }
}

#[test]
fn dropping_the_owner_joins_the_helper() {
    for in_flight in [false, true] {
        let mut sidecar = Sidecar::with_placement(Probe::new(), Placement::Helper);
        let token = Arc::clone(&sidecar.join().token);
        for _ in 0..20 {
            sidecar.start();
            sidecar.join();
        }
        assert!(sidecar.has_helper());
        assert_eq!(sidecar.join().runs, 20);
        if in_flight {
            sidecar.start();
        }
        drop(sidecar);
        // The helper held the shared job; once it is joined, only the
        // test's clone of the token is left.
        assert_eq!(Arc::strong_count(&token), 1, "a helper outlived its owner");
    }
}

#[test]
fn start_and_join_settle_a_job_left_in_flight() {
    for placement in [Placement::Inline, Placement::Helper] {
        let mut sidecar = Sidecar::with_placement(Probe::new(), placement);
        sidecar.start();
        // A second start joins the first job before posting again.
        sidecar.start();
        assert_eq!(sidecar.join().runs, 2, "{placement:?}");
        assert_eq!(sidecar.join().runs, 2, "{placement:?}: nothing in flight");
    }
}

#[test]
fn a_job_the_helper_has_not_claimed_runs_on_the_caller() {
    let mut sidecar = Sidecar::with_placement(Probe::new(), Placement::Helper);
    sidecar.start();
    sidecar.join();
    assert!(sidecar.has_helper());
    sidecar.hold_helper(true);
    for round in 1..=5 {
        sidecar.start();
        let job = sidecar.join();
        assert_eq!(
            job.ran_on,
            Some(std::thread::current().id()),
            "round {round}: a held helper claims nothing, so the caller runs the job"
        );
    }
    sidecar.hold_helper(false);
    sidecar.start();
    assert_eq!(sidecar.join().runs, 7);
}

#[test]
fn inline_placement_never_spawns_and_runs_on_the_caller() {
    let mut sidecar = Sidecar::with_placement(Probe::new(), Placement::Inline);
    for _ in 0..3 {
        sidecar.start();
        assert_eq!(sidecar.join().ran_on, Some(std::thread::current().id()));
    }
    assert!(!sidecar.has_helper());
}

#[test]
fn no_helper_starts_inside_a_multi_worker_par_map() {
    let inside = |threads: usize| {
        par_map_with(threads, vec![(); 4], |()| {
            let mut sidecar = Sidecar::with_placement(Probe::new(), Placement::Helper);
            sidecar.start();
            let here = sidecar.join().ran_on == Some(std::thread::current().id());
            (sidecar.has_helper(), here)
        })
        .expect("no panics")
    };
    for (helper, here) in inside(2) {
        assert!(
            !helper && here,
            "a pool worker runs its sidecar jobs inline"
        );
    }
    // The serial fallback runs on the caller, which is no pool worker.
    for (helper, _) in inside(1) {
        assert!(
            helper,
            "a serial map leaves the sidecar free to use its helper"
        );
    }
}

#[test]
fn one_thread_runs_every_job_inline() {
    std::env::set_var(eadrl_par::THREADS_ENV, "1");
    let mut sidecar = Sidecar::new(Probe::new());
    sidecar.start();
    assert_eq!(sidecar.join().ran_on, Some(std::thread::current().id()));
    std::env::remove_var(eadrl_par::THREADS_ENV);
    assert!(!sidecar.has_helper());
}

/// Emits one span and one event per run.
struct Traced {
    begun: Arc<AtomicU64>,
}

impl Job for Traced {
    fn run(&mut self) {
        self.begun.fetch_add(1, Ordering::SeqCst);
        // eadrl-lint: allow(obs-event-schema): synthetic test-only span name, never emitted by the library
        let _span = eadrl_obs::span_at(Level::Trace, "par.test.job");
        // eadrl-lint: allow(obs-event-schema): synthetic test-only event name, never emitted by the library
        eadrl_obs::event("par.test.job_event", Level::Debug, &[]);
    }
}

#[test]
fn job_spans_nest_under_the_caller_span_path_on_either_thread() {
    let sink = Arc::new(RingSink::new(4096));
    eadrl_obs::set_sink(sink.clone());
    let mut shapes = Vec::new();
    for placement in [Placement::Inline, Placement::Helper] {
        let begun = Arc::new(AtomicU64::new(0));
        let job = Traced {
            begun: Arc::clone(&begun),
        };
        let mut sidecar = Sidecar::with_placement(job, placement);
        // Started untraced, joined traced: the job leaves no events on
        // either thread, however late it ran.
        sidecar.start();
        eadrl_obs::set_level(Some(Level::Trace));
        sidecar.join();
        {
            let _outer = eadrl_obs::span_at(Level::Debug, "par.test.outer");
            start_on(&mut sidecar, placement, &begun);
            eadrl_obs::event("par.test.caller_event", Level::Debug, &[]);
            sidecar.join();
        }
        let shape: Vec<(String, EventKind, u64)> = sink
            .events()
            .into_iter()
            .filter(|e| e.name.contains("par.test."))
            .map(|e| (e.name, e.kind, e.thread))
            .collect();
        sink.clear();
        shapes.push(shape);
        eadrl_obs::set_level(None);
    }
    eadrl_obs::set_sink(Arc::new(eadrl_obs::NoopSink));
    let expect = vec![
        ("par.test.caller_event".to_string(), EventKind::Event, 0),
        (
            "par.test.outer/par.sidecar.wait".to_string(),
            EventKind::Span,
            0,
        ),
        ("par.test.job_event".to_string(), EventKind::Event, 0),
        (
            "par.test.outer/par.test.job".to_string(),
            EventKind::Span,
            0,
        ),
        ("par.test.outer".to_string(), EventKind::Span, 0),
    ];
    assert_eq!(
        shapes[0], expect,
        "inline: flushed at join, under the caller"
    );
    assert_eq!(shapes[1], expect, "helper: the same trace shape");
}
