//! The fault-injecting forecaster proxy.
//!
//! [`FaultyForecaster`] wraps any [`Forecaster`] and misbehaves exactly
//! as its [`FaultKind`] dictates — panicking, emitting non-finite
//! values, wedging on a stale output, declaring budget-busting costs —
//! while delegating every clean call to the wrapped model. All fault
//! scheduling is keyed off per-proxy call counters (and, for
//! probabilistic faults, a plan-seeded [`eadrl_rng::DetRng`] substream
//! indexed by call number), so a scenario replays bit-identically at
//! any thread count.
//!
//! Injected panics carry the [`INJECTED_PANIC_PREFIX`] marker;
//! [`quiet_injected_panics`] installs a filtering panic hook (once per
//! process) that swallows exactly those payloads so chaos runs don't
//! spray expected backtraces over the test output, while every real
//! panic still reaches the previous hook.

use crate::fault::FaultKind;
use eadrl_models::{Forecaster, ModelError};
use eadrl_rng::DetRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Once;

/// Marker prefix carried by every panic this crate injects; the quiet
/// hook filters on it and the tests assert on it.
pub const INJECTED_PANIC_PREFIX: &str = "eadrl-sim fault:";

/// Installs (once per process) a panic hook that suppresses the default
/// stderr report for panics injected by this crate and delegates every
/// other panic to the previously installed hook. Safe to call from any
/// number of tests or scenario runs.
pub fn quiet_injected_panics() {
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let message = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied());
            // The warm-refresh scenario corrupts the refresh buffer with
            // ragged rows, so the environment constructor's assert is an
            // injected-and-expected panic there too (always caught by
            // the refresh path's `catch_unwind`).
            if message.is_some_and(|m| {
                m.contains(INJECTED_PANIC_PREFIX) || m.contains("ragged prediction matrix")
            }) {
                return;
            }
            previous(info);
        }));
    });
}

fn injected_panic(context: &str, call: u64) -> ! {
    panic!("{INJECTED_PANIC_PREFIX} injected {context} (call {call})");
}

/// A pool member wrapped in a deterministic fault injector.
///
/// Reports the wrapped model's name, so drop/quarantine telemetry reads
/// exactly as it would in production.
pub struct FaultyForecaster {
    inner: Box<dyn Forecaster>,
    kind: FaultKind,
    /// Substream driving probabilistic faults; forked per call index.
    rng_base: DetRng,
    /// Prediction calls served so far.
    calls: AtomicU64,
    /// Cost inquiries served so far (budget faults key off these: the
    /// guard asks for the cost *before* predicting, and a budget-faulted
    /// call never reaches `predict_next`).
    inquiries: AtomicU64,
    /// Bits of the last clean output (stale faults replay this).
    last_good: AtomicU64,
}

impl FaultyForecaster {
    /// Wraps `inner` with the given fault, drawing probabilistic faults
    /// from `rng_base` (take it from [`crate::fault::FaultPlan::substream`]).
    pub fn new(inner: Box<dyn Forecaster>, kind: FaultKind, rng_base: DetRng) -> Self {
        FaultyForecaster {
            inner,
            kind,
            rng_base,
            calls: AtomicU64::new(0),
            inquiries: AtomicU64::new(0),
            last_good: AtomicU64::new(0.0_f64.to_bits()),
        }
    }
}

impl Forecaster for FaultyForecaster {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn fit(&mut self, series: &[f64]) -> Result<(), ModelError> {
        if self.kind == FaultKind::FailFit {
            injected_panic("fit panic", 0);
        }
        self.inner.fit(series)
    }

    fn predict_next(&self, history: &[f64]) -> f64 {
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        match self.kind {
            FaultKind::PanicAtCall { call: k } if call == k => {
                injected_panic("predict panic", call)
            }
            FaultKind::PanicEveryNth { n } if (call + 1).is_multiple_of(n) => {
                injected_panic("periodic predict panic", call)
            }
            FaultKind::NonFiniteEveryNth { n, value } if (call + 1).is_multiple_of(n) => {
                return value.value();
            }
            FaultKind::NonFiniteBurst { from, len, value } if call >= from && call < from + len => {
                return value.value();
            }
            FaultKind::StaleFromCall { call: k } if call >= k => {
                return f64::from_bits(self.last_good.load(Ordering::Relaxed));
            }
            // Keyed by call index, not by draw order: bit-identical
            // whatever interleaving the surrounding harness uses.
            FaultKind::Flaky { p } if self.rng_base.substream(call).random_bool(p) => {
                return f64::NAN;
            }
            _ => {}
        }
        let value = self.inner.predict_next(history);
        if value.is_finite() {
            self.last_good.store(value.to_bits(), Ordering::Relaxed);
        }
        value
    }

    fn cost_hint_us(&self) -> Option<u64> {
        if let FaultKind::SlowEveryNth { n, cost_us } = self.kind {
            let inquiry = self.inquiries.fetch_add(1, Ordering::Relaxed);
            if (inquiry + 1).is_multiple_of(n) {
                return Some(cost_us);
            }
        }
        self.inner.cost_hint_us()
    }

    fn box_clone(&self) -> Box<dyn Forecaster> {
        Box::new(FaultyForecaster {
            inner: self.inner.box_clone(),
            kind: self.kind,
            rng_base: self.rng_base.clone(),
            calls: AtomicU64::new(self.calls.load(Ordering::Relaxed)),
            inquiries: AtomicU64::new(self.inquiries.load(Ordering::Relaxed)),
            last_good: AtomicU64::new(self.last_good.load(Ordering::Relaxed)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, NonFinite};
    use eadrl_models::Naive;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn wrap(kind: FaultKind) -> FaultyForecaster {
        let plan = FaultPlan {
            seed: 7,
            ..FaultPlan::default()
        };
        FaultyForecaster::new(Box::new(Naive), kind, plan.substream(0))
    }

    #[test]
    fn clean_calls_delegate_to_the_inner_model() {
        let f = wrap(FaultKind::PanicAtCall { call: 99 });
        assert_eq!(f.predict_next(&[1.0, 2.0]), 2.0); // Naive = last value
        assert_eq!(f.name(), "Naive");
        assert_eq!(f.calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn panic_fires_exactly_on_the_scheduled_call() {
        quiet_injected_panics();
        let f = wrap(FaultKind::PanicAtCall { call: 1 });
        assert_eq!(f.predict_next(&[3.0]), 3.0);
        let caught = catch_unwind(AssertUnwindSafe(|| f.predict_next(&[3.0])));
        let payload = caught.unwrap_err();
        let message = payload.downcast_ref::<String>().unwrap();
        assert!(message.starts_with(INJECTED_PANIC_PREFIX), "{message}");
        assert_eq!(f.predict_next(&[3.0]), 3.0, "panic is transient");
    }

    #[test]
    fn periodic_faults_follow_the_period() {
        let f = wrap(FaultKind::NonFiniteEveryNth {
            n: 3,
            value: NonFinite::Inf,
        });
        let outs: Vec<f64> = (0..6).map(|_| f.predict_next(&[5.0])).collect();
        assert!(outs[0].is_finite() && outs[1].is_finite());
        assert_eq!(outs[2], f64::INFINITY);
        assert!(outs[3].is_finite() && outs[4].is_finite());
        assert_eq!(outs[5], f64::INFINITY);
    }

    #[test]
    fn burst_fault_is_consecutive_then_recovers() {
        let f = wrap(FaultKind::NonFiniteBurst {
            from: 2,
            len: 3,
            value: NonFinite::Nan,
        });
        let outs: Vec<f64> = (0..7).map(|_| f.predict_next(&[5.0])).collect();
        assert!(outs[0].is_finite() && outs[1].is_finite());
        assert!(outs[2].is_nan() && outs[3].is_nan() && outs[4].is_nan());
        assert!(outs[5].is_finite() && outs[6].is_finite(), "burst ends");
    }

    #[test]
    fn stale_fault_freezes_the_last_clean_output() {
        let f = wrap(FaultKind::StaleFromCall { call: 2 });
        assert_eq!(f.predict_next(&[1.0]), 1.0);
        assert_eq!(f.predict_next(&[2.0]), 2.0);
        assert_eq!(f.predict_next(&[9.0]), 2.0, "wedged on last clean value");
        assert_eq!(f.predict_next(&[7.0]), 2.0);
    }

    #[test]
    fn slow_fault_declares_cost_on_schedule_without_touching_predictions() {
        let f = wrap(FaultKind::SlowEveryNth { n: 2, cost_us: 900 });
        assert_eq!(f.cost_hint_us(), None);
        assert_eq!(f.cost_hint_us(), Some(900));
        assert_eq!(f.cost_hint_us(), None);
        assert_eq!(f.predict_next(&[4.0]), 4.0);
    }

    #[test]
    fn flaky_fault_is_reproducible_per_call_index() {
        let a = wrap(FaultKind::Flaky { p: 0.5 });
        let b = wrap(FaultKind::Flaky { p: 0.5 });
        let outs_a: Vec<u64> = (0..32).map(|_| a.predict_next(&[1.0]).to_bits()).collect();
        let outs_b: Vec<u64> = (0..32).map(|_| b.predict_next(&[1.0]).to_bits()).collect();
        assert_eq!(outs_a, outs_b, "same plan seed, same fault schedule");
        assert!(
            outs_a.iter().any(|&bits| f64::from_bits(bits).is_nan()),
            "p=0.5 over 32 calls should fault at least once"
        );
        assert!(
            outs_a.iter().any(|&bits| f64::from_bits(bits).is_finite()),
            "p=0.5 over 32 calls should also succeed"
        );
    }

    #[test]
    fn fail_fit_panics_with_the_marker() {
        quiet_injected_panics();
        let mut f = wrap(FaultKind::FailFit);
        let caught = catch_unwind(AssertUnwindSafe(|| f.fit(&[1.0, 2.0, 3.0])));
        assert!(caught.is_err());
    }
}
