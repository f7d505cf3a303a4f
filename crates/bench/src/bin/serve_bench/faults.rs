//! Seeded fault injection for the `serve_faults` workload.
//!
//! Three pool members are wrapped in a [`FaultInjector`]. Whether a call
//! faults is a pure function of the seed and of the member's call count
//! since the plan was armed, so a rerun with the same seed faults on
//! exactly the same calls and walks the guard through the same quarantine
//! transitions. Faults are armed only after set-up: fitting and the
//! policy's validation matrix see the healthy members, so `serve_faults`
//! deploys the same policy as `serve_w512`.

use eadrl_models::{Forecaster, ModelError};
use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Once};

/// Panic payload of an injected fault. The quiet panic hook recognises
/// it by type, so injected panics stay off stderr while every other
/// panic still reaches the default hook.
#[derive(Debug)]
pub struct InjectedPanic;

/// When a wrapped member faults, by call index since arming.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Returns NaN on about one call in seven (a seeded hash of the call
    /// index).
    Nan {
        /// Hash seed.
        seed: u64,
    },
    /// Panics on `len` consecutive calls once every `every` calls: long
    /// enough to enter quarantine, then recovers and re-enters.
    Bursts {
        /// Calls between burst starts.
        every: u64,
        /// Consecutive panicking calls per burst.
        len: u64,
        /// Call index of the first burst.
        offset: u64,
    },
    /// Panics on every call from call `at` on: the member dies.
    DiesAt {
        /// First panicking call.
        at: u64,
    },
}

impl Fault {
    /// True when call `call` (0-based, counted from arming) faults.
    pub fn fires(self, call: u64) -> bool {
        match self {
            Fault::Nan { seed } => {
                splitmix64(seed ^ call.wrapping_mul(0x9E37_79B9_7F4A_7C15)).is_multiple_of(7)
            }
            Fault::Bursts { every, len, offset } => {
                call >= offset && (call - offset) % every.max(1) < len
            }
            Fault::DiesAt { at } => call >= at,
        }
    }
}

/// The `serve_faults` schedule for a pool of `m` members served for
/// `steps` steps: (member index, fault). Members sit at fixed quarters of
/// the pool so the serving cost the faults remove does not depend on the
/// seed; the seed drives when they fault.
pub fn plan(seed: u64, m: usize, steps: usize) -> [(usize, Fault); 3] {
    let offset = splitmix64(seed ^ 0xB0B5) % 500;
    [
        (m / 4, Fault::Nan { seed }),
        (
            m / 2,
            Fault::Bursts {
                every: 500,
                len: 5,
                offset,
            },
        ),
        (
            3 * m / 4,
            Fault::DiesAt {
                at: (steps / 2) as u64,
            },
        ),
    ]
}

/// State one injector shares with the benchmark: the arming switch and
/// the exact count of faults injected.
#[derive(Debug, Default)]
struct FaultState {
    armed: AtomicBool,
    calls: AtomicU64,
    injected: AtomicU64,
}

/// The armed-or-not injectors of one server.
#[derive(Debug, Default)]
pub struct FaultPlan {
    states: Vec<Arc<FaultState>>,
}

impl FaultPlan {
    /// Wraps the planned members of `pool` in injectors; the plan starts
    /// disarmed.
    pub fn wrap(
        pool: Vec<Box<dyn Forecaster>>,
        faults: &[(usize, Fault)],
    ) -> (Vec<Box<dyn Forecaster>>, FaultPlan) {
        install_quiet_hook();
        let mut plan = FaultPlan::default();
        let pool = pool
            .into_iter()
            .enumerate()
            .map(|(i, member)| match faults.iter().find(|(at, _)| *at == i) {
                Some(&(_, fault)) => {
                    let state = Arc::new(FaultState::default());
                    plan.states.push(Arc::clone(&state));
                    Box::new(FaultInjector {
                        inner: member,
                        fault,
                        state,
                    }) as Box<dyn Forecaster>
                }
                None => member,
            })
            .collect();
        (pool, plan)
    }

    /// Starts injecting; call counts start at zero here.
    pub fn arm(&self) {
        for state in &self.states {
            state.armed.store(true, Ordering::SeqCst);
        }
    }

    /// Faults injected so far, over every wrapped member.
    pub fn injected(&self) -> u64 {
        self.states
            .iter()
            .map(|s| s.injected.load(Ordering::SeqCst))
            .sum()
    }
}

/// A pool member that faults on the calls its [`Fault`] selects once
/// armed, and otherwise forwards to the wrapped model.
struct FaultInjector {
    inner: Box<dyn Forecaster>,
    fault: Fault,
    state: Arc<FaultState>,
}

impl Forecaster for FaultInjector {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn fit(&mut self, series: &[f64]) -> Result<(), ModelError> {
        self.inner.fit(series)
    }

    fn predict_next(&self, history: &[f64]) -> f64 {
        if self.state.armed.load(Ordering::SeqCst) {
            let call = self.state.calls.fetch_add(1, Ordering::SeqCst);
            if self.fault.fires(call) {
                self.state.injected.fetch_add(1, Ordering::SeqCst);
                if matches!(self.fault, Fault::Nan { .. }) {
                    return f64::NAN;
                }
                std::panic::panic_any(InjectedPanic);
            }
        }
        self.inner.predict_next(history)
    }

    fn cost_hint_us(&self) -> Option<u64> {
        self.inner.cost_hint_us()
    }

    fn box_clone(&self) -> Box<dyn Forecaster> {
        Box::new(FaultInjector {
            inner: self.inner.box_clone(),
            fault: self.fault,
            state: Arc::clone(&self.state),
        })
    }
}

/// True when a panic payload is an injected fault.
pub fn is_injected(payload: &(dyn Any + Send)) -> bool {
    payload.is::<InjectedPanic>()
}

/// Installs (once per process) a panic hook that drops injected panics
/// and hands every other panic to the previously installed hook.
pub fn install_quiet_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !is_injected(info.payload()) {
                previous(info);
            }
        }));
    });
}

/// SplitMix64 finalizer: a cheap, well-mixed hash for fault schedules.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
