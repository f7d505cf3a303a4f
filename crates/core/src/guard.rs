//! Graceful degradation for the online serving path.
//!
//! Ensemble methods are valuable precisely because members fail
//! independently — but the naive Algorithm-1 loop assumes every pooled
//! forecaster always returns a finite value: one panicking or
//! NaN-emitting member poisons the weighted sum for every subsequent
//! request. [`PoolGuard`] makes member failures independent in practice:
//!
//! * every per-model call runs under `catch_unwind` with non-finite
//!   output detection (via [`Forecaster::try_predict_next`]) and an
//!   optional deterministic latency budget
//!   ([`Forecaster::cost_hint_us`] vs [`GuardConfig::latency_budget_us`]
//!   — never a wall clock, which would break bitwise reproducibility);
//! * a faulted member is masked for the step (its weight is
//!   redistributed over the survivors) and after
//!   [`GuardConfig::quarantine_after`] consecutive faults it is
//!   **quarantined**: excluded from the combination but still probed
//!   each step, re-entering after
//!   [`GuardConfig::reentry_clean_calls`] consecutive clean probes;
//! * every masking decision is observable: `eadrl.degraded` (per
//!   degraded step, with the effective weights actually served) and
//!   `eadrl.quarantine` (enter/exit transitions) telemetry events.
//!
//! The guard is *pay-per-fault*: on a fault-free step it performs the
//! identical arithmetic in the identical order as the unguarded loop,
//! and emits no additional telemetry — the committed quickstart
//! baselines stay byte-identical.
//!
//! # Serving state
//!
//! The guard also owns the [`SeriesState`] of every member that offers
//! one ([`Forecaster::series_state`]: ARIMA and the ETS kinds), so a
//! member whose forecast reads the whole history does constant work per
//! step while the history grows:
//!
//! * it keeps a copy of the history it last swept; when a step's history
//!   extends that copy **bit for bit** (compared with `to_bits`, since
//!   `-0.0 == 0.0`), each state folds in only the values it has not seen
//!   and predicts;
//! * any other history (a sliding window, a rewritten value, a shorter
//!   input) resets every state, which then folds the whole history —
//!   the same work as a per-call `predict_next`;
//! * each member keeps its own count of folded values: a member skipped
//!   for its budget is not called and catches up on its next call, a
//!   quarantined one keeps folding while it is probed;
//! * a state whose fold or predict panics is dropped and rebuilt from
//!   the full history on the member's next call; [`PoolGuard::reset`]
//!   (refit) and `clone` start without states.
//!
//! A state serves the bits of the member's `predict_next`, so the path
//! never changes a served value. Members without a state are called per
//! step as before.
//!
//! The same per-member call walks every rolling prediction matrix: each
//! [`crate::prediction_matrix`] worker keeps one member's slot for its
//! whole walk, whose history grows by one revealed value per step, so
//! ARIMA/ETS fold one value per step there too.

use eadrl_models::{fallback_forecast, Forecaster, PredictError, SeriesState};
use eadrl_obs::Level;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// How a guarded call failed — the classification recorded in
/// `eadrl.degraded` / `eadrl.quarantine` telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// The model panicked; caught by the per-call `catch_unwind`.
    Panic,
    /// The model returned NaN or ±Inf.
    NonFinite,
    /// The model's declared per-call cost exceeds the serving budget.
    BudgetExceeded,
}

impl FaultClass {
    /// Stable lowercase label used in telemetry fields.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultClass::Panic => "panic",
            FaultClass::NonFinite => "non_finite",
            FaultClass::BudgetExceeded => "budget_exceeded",
        }
    }
}

/// Degradation policy knobs.
#[derive(Debug, Clone)]
pub struct GuardConfig {
    /// Consecutive faulted calls after which a member is quarantined.
    /// Before the threshold a faulted member is only masked for the
    /// faulting step (transient glitches should not cost a member its
    /// seat). `1` quarantines on first fault.
    pub quarantine_after: u32,
    /// Consecutive clean probe calls a quarantined member must produce
    /// to re-enter the combination. Quarantined members are still
    /// called every step — the probe result is discarded — so recovery
    /// is observed on live traffic without risking the forecast.
    pub reentry_clean_calls: u32,
    /// Optional deterministic per-call latency budget (µs), enforced
    /// against [`Forecaster::cost_hint_us`]. `None` disables budget
    /// enforcement; models that do not declare a cost are never
    /// budget-faulted.
    pub latency_budget_us: Option<u64>,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig {
            quarantine_after: 3,
            reentry_clean_calls: 8,
            latency_budget_us: None,
        }
    }
}

/// Per-member health state.
#[derive(Debug, Clone, Default)]
struct MemberHealth {
    fault_streak: u32,
    clean_streak: u32,
    quarantined: bool,
    total_faults: u64,
}

/// The outcome of one guarded pool sweep: per-member values with the
/// members that may take part in this step's combination.
#[derive(Debug, Clone)]
pub struct GuardedSweep {
    /// One value per pool member. Faulted members carry the documented
    /// fallback (last finite history value) so downstream state updates
    /// stay finite; their `active` flag is `false`.
    pub values: Vec<f64>,
    /// `active[i]` — member `i` produced a clean value this step *and*
    /// is not quarantined; only active members may receive weight.
    pub active: Vec<bool>,
    /// Indices that faulted on this step, with their classification.
    pub faults: Vec<(usize, FaultClass)>,
    /// True when every member is active (the fast, telemetry-free path).
    pub all_active: bool,
}

/// One member's side of the guard, and the one place that calls a
/// fitted member on a series: its serving slot (see "Serving state"
/// above), the `catch_unwind` around the call and the fault class.
/// [`PoolGuard`] keeps one per member across its sweeps; each
/// [`crate::prediction_matrix`] worker keeps one for its whole walk.
#[derive(Debug)]
pub(crate) enum Member {
    /// Not asked for a state yet: a new member, or one whose state
    /// panicked.
    Unknown,
    /// The member forecasts from each call's history.
    PerCall,
    /// The member's state and the number of history values it folded.
    Folding {
        state: Box<dyn SeriesState>,
        folded: usize,
    },
}

impl Member {
    /// One guarded call of `model` on `history`: through the member's
    /// state when it has one, else `try_predict_next` on the whole
    /// history. `history` must extend the values the state folded so
    /// far; a caller whose next history does not first calls
    /// [`Member::rewind`]. Asks for the declared cost exactly once.
    pub(crate) fn call(
        &mut self,
        model: &dyn Forecaster,
        history: &[f64],
        budget_us: Option<u64>,
    ) -> Result<f64, FaultClass> {
        if let Member::Unknown = self {
            match catch_unwind(AssertUnwindSafe(|| model.series_state())) {
                Ok(Some(state)) => *self = Member::Folding { state, folded: 0 },
                Ok(None) => *self = Member::PerCall,
                Err(_) => return Err(FaultClass::Panic),
            }
        }
        // One cost inquiry per call on both paths, budget or not: a
        // member's declared cost may depend on how often it was asked.
        let cost_us = model.cost_hint_us();
        if matches!((budget_us, cost_us), (Some(budget), Some(cost)) if cost > budget) {
            return Err(FaultClass::BudgetExceeded);
        }
        let Member::Folding { state, folded } = self else {
            // A fitted model is immutable while predicting (Forecaster
            // contract), so observing it after a caught panic cannot
            // expose broken state.
            return match catch_unwind(AssertUnwindSafe(|| model.try_predict_next(history))) {
                Ok(Ok(value)) => Ok(value),
                Ok(Err(PredictError::NonFinite { .. })) => Err(FaultClass::NonFinite),
                Ok(Err(PredictError::BudgetExceeded { .. })) => Err(FaultClass::BudgetExceeded),
                Err(_) => Err(FaultClass::Panic),
            };
        };
        let unseen = &history[*folded..];
        match catch_unwind(AssertUnwindSafe(|| {
            state.fold(unseen);
            state.predict()
        })) {
            Ok(value) => {
                *folded = history.len();
                if value.is_finite() {
                    Ok(value)
                } else {
                    Err(FaultClass::NonFinite)
                }
            }
            Err(_) => {
                // A half-folded state is unusable: rebuild it next call.
                *self = Member::Unknown;
                Err(FaultClass::Panic)
            }
        }
    }

    /// Forgets every value the state folded.
    fn rewind(&mut self) {
        if let Member::Folding { state, folded } = self {
            state.reset();
            *folded = 0;
        }
    }
}

/// Tracks pool-member health across serving steps and executes the
/// guarded per-model calls. Owned by [`crate::EaDrl`]; the pool itself
/// stays outside so borrows remain simple.
#[derive(Debug)]
pub struct PoolGuard {
    config: GuardConfig,
    health: Vec<MemberHealth>,
    members: Vec<Member>,
    /// The history of the last sweep, which the members' states folded.
    seen: Vec<f64>,
}

/// A clone starts without serving states, which rebuild on its first
/// sweep.
impl Clone for PoolGuard {
    fn clone(&self) -> Self {
        PoolGuard::with_health(self.config.clone(), self.health.clone())
    }
}

impl PoolGuard {
    /// Creates a guard for a pool of `m` members.
    pub fn new(config: GuardConfig, m: usize) -> Self {
        PoolGuard::with_health(config, vec![MemberHealth::default(); m])
    }

    fn with_health(config: GuardConfig, health: Vec<MemberHealth>) -> Self {
        let members = health.iter().map(|_| Member::Unknown).collect();
        PoolGuard {
            config,
            health,
            members,
            seen: Vec::new(),
        }
    }

    /// Resets health tracking and drops the serving states for a
    /// (re)fitted pool of `m` members.
    pub fn reset(&mut self, m: usize) {
        *self = PoolGuard::new(self.config.clone(), m);
    }

    /// Indices currently quarantined (ascending).
    pub fn quarantined(&self) -> Vec<usize> {
        self.health
            .iter()
            .enumerate()
            .filter(|(_, h)| h.quarantined)
            .map(|(i, _)| i)
            .collect()
    }

    /// Total faults observed for member `i` since the last reset.
    pub fn total_faults(&self, i: usize) -> u64 {
        self.health.get(i).map_or(0, |h| h.total_faults)
    }

    /// Calls every pool member once under the guard and updates health.
    ///
    /// `history` is the (already sanitized) input passed to each model.
    pub fn sweep(&mut self, pool: &[Box<dyn Forecaster>], history: &[f64]) -> GuardedSweep {
        let substitute = fallback_forecast(history);
        self.track(pool.len(), history);
        let budget_us = self.config.latency_budget_us;
        let mut values = Vec::with_capacity(pool.len());
        let mut active = Vec::with_capacity(pool.len());
        let mut faults = Vec::new();
        for (i, model) in pool.iter().enumerate() {
            match self.members[i].call(model.as_ref(), history, budget_us) {
                Ok(value) => {
                    let in_quarantine = self.record_clean(i, model.name());
                    values.push(value);
                    active.push(!in_quarantine);
                }
                Err(class) => {
                    self.record_fault(i, model.name(), class);
                    faults.push((i, class));
                    values.push(substitute);
                    active.push(false);
                }
            }
        }
        let all_active = active.iter().all(|&a| a);
        GuardedSweep {
            values,
            active,
            faults,
            all_active,
        }
    }

    /// Compares `history` with the last swept one: if it extends it bit
    /// for bit, the states keep what they folded; otherwise every state
    /// rewinds. Then remembers `history`.
    fn track(&mut self, m: usize, history: &[f64]) {
        if self.members.len() != m {
            // Another pool width: the states start over.
            self.members = (0..m).map(|_| Member::Unknown).collect();
            self.seen.clear();
        }
        if self.members.iter().all(|s| matches!(s, Member::PerCall)) {
            // No member folds: nothing to compare against.
            return;
        }
        let known = self.seen.len();
        if known <= history.len() && same_bits(&self.seen, &history[..known]) {
            self.seen.extend_from_slice(&history[known..]);
            return;
        }
        self.members.iter_mut().for_each(Member::rewind);
        self.seen.clear();
        self.seen.extend_from_slice(history);
    }

    /// Records a clean call; returns `true` while the member remains
    /// quarantined (probe succeeded but re-entry not yet earned).
    fn record_clean(&mut self, i: usize, name: &str) -> bool {
        let reentry = self.config.reentry_clean_calls.max(1);
        let h = &mut self.health[i];
        h.fault_streak = 0;
        if !h.quarantined {
            return false;
        }
        h.clean_streak += 1;
        if h.clean_streak >= reentry {
            h.quarantined = false;
            h.clean_streak = 0;
            eadrl_obs::event(
                "eadrl.quarantine",
                Level::Warn,
                &[
                    ("model", name.into()),
                    ("index", i.into()),
                    ("action", "exit".into()),
                    ("clean_calls", u64::from(reentry).into()),
                    ("total_faults", self.health[i].total_faults.into()),
                ],
            );
            return false;
        }
        true
    }

    fn record_fault(&mut self, i: usize, name: &str, class: FaultClass) {
        let threshold = self.config.quarantine_after.max(1);
        let h = &mut self.health[i];
        h.total_faults += 1;
        h.clean_streak = 0;
        h.fault_streak = h.fault_streak.saturating_add(1);
        if !h.quarantined && h.fault_streak >= threshold {
            h.quarantined = true;
            eadrl_obs::event(
                "eadrl.quarantine",
                Level::Warn,
                &[
                    ("model", name.into()),
                    ("index", i.into()),
                    ("action", "enter".into()),
                    ("class", class.as_str().into()),
                    ("fault_streak", u64::from(h.fault_streak).into()),
                    ("total_faults", h.total_faults.into()),
                ],
            );
        }
    }
}

/// True when `a` and `b` hold the same bits. Chunked so the inner loop
/// vectorizes; returns at the first differing chunk.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    const CHUNK: usize = 64;
    a.len() == b.len()
        && a.chunks(CHUNK).zip(b.chunks(CHUNK)).all(|(x, y)| {
            x.iter()
                .zip(y)
                .fold(0u64, |acc, (u, v)| acc | (u.to_bits() ^ v.to_bits()))
                == 0
        })
}

/// Renormalizes `weights` over the active members.
///
/// Returns the effective simplex actually served: masked members get
/// exactly `0.0`; the surviving mass is rescaled to sum to 1. When the
/// surviving mass is numerically negligible the survivors share uniform
/// weight (the policy's opinion carries no information about them).
/// When *no* member is active, every weight is `0.0` — the caller must
/// fall back to a history-based forecast.
pub fn renormalize_over_active(weights: &[f64], active: &[bool]) -> Vec<f64> {
    let survivors = active.iter().filter(|&&a| a).count();
    if survivors == 0 {
        return vec![0.0; weights.len()];
    }
    let mass: f64 = weights
        .iter()
        .zip(active.iter())
        .filter(|(_, &a)| a)
        .map(|(w, _)| w.max(0.0))
        .sum();
    if mass > 1e-12 && mass.is_finite() {
        weights
            .iter()
            .zip(active.iter())
            .map(|(w, &a)| if a { w.max(0.0) / mass } else { 0.0 })
            .collect()
    } else {
        let uniform = 1.0 / survivors as f64;
        active
            .iter()
            .map(|&a| if a { uniform } else { 0.0 })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eadrl_models::ModelError;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Scripted test double: panics / returns NaN on chosen calls.
    struct Scripted {
        name: String,
        outputs: Vec<f64>, // cycled; NaN entries fault, f64::MAX panics
        calls: std::sync::atomic::AtomicUsize,
        cost: Option<u64>,
        inquiries: Arc<AtomicUsize>,
    }

    impl Scripted {
        fn new(outputs: Vec<f64>) -> Self {
            Scripted {
                name: "Scripted".into(),
                outputs,
                calls: std::sync::atomic::AtomicUsize::new(0),
                cost: None,
                inquiries: Arc::default(),
            }
        }
    }

    impl Forecaster for Scripted {
        fn name(&self) -> &str {
            &self.name
        }
        fn fit(&mut self, _s: &[f64]) -> Result<(), ModelError> {
            Ok(())
        }
        fn predict_next(&self, _h: &[f64]) -> f64 {
            let i = self
                .calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let v = self.outputs[i % self.outputs.len()];
            if v == f64::MAX {
                panic!("scripted panic");
            }
            v
        }
        fn cost_hint_us(&self) -> Option<u64> {
            self.inquiries.fetch_add(1, Ordering::SeqCst);
            self.cost
        }
        fn box_clone(&self) -> Box<dyn Forecaster> {
            unreachable!("test double is never cloned")
        }
    }

    fn boxed(outputs: Vec<f64>) -> Box<dyn Forecaster> {
        Box::new(Scripted::new(outputs))
    }

    #[test]
    fn clean_sweep_keeps_everyone_active() {
        let pool = vec![boxed(vec![1.0]), boxed(vec![2.0])];
        let mut guard = PoolGuard::new(GuardConfig::default(), 2);
        let sweep = guard.sweep(&pool, &[5.0]);
        assert!(sweep.all_active);
        assert_eq!(sweep.values, vec![1.0, 2.0]);
        assert!(sweep.faults.is_empty());
        assert!(guard.quarantined().is_empty());
    }

    #[test]
    fn nan_output_is_masked_and_substituted() {
        let pool = vec![boxed(vec![1.0]), boxed(vec![f64::NAN])];
        let mut guard = PoolGuard::new(GuardConfig::default(), 2);
        let sweep = guard.sweep(&pool, &[5.0, 7.0]);
        assert!(!sweep.all_active);
        assert_eq!(sweep.values, vec![1.0, 7.0]); // last history value
        assert_eq!(sweep.active, vec![true, false]);
        assert_eq!(sweep.faults, vec![(1, FaultClass::NonFinite)]);
    }

    #[test]
    fn panicking_member_is_caught_and_quarantined_after_threshold() {
        let pool = vec![boxed(vec![1.0]), boxed(vec![f64::MAX])];
        let config = GuardConfig {
            quarantine_after: 2,
            ..GuardConfig::default()
        };
        let mut guard = PoolGuard::new(config, 2);
        let s1 = guard.sweep(&pool, &[3.0]);
        assert_eq!(s1.faults, vec![(1, FaultClass::Panic)]);
        assert!(guard.quarantined().is_empty(), "one fault is transient");
        guard.sweep(&pool, &[3.0]);
        assert_eq!(guard.quarantined(), vec![1]);
        assert_eq!(guard.total_faults(1), 2);
    }

    #[test]
    fn quarantined_member_reenters_after_clean_probes() {
        // Faults twice, then recovers forever.
        let pool = vec![boxed(vec![f64::NAN, f64::NAN, 4.0, 4.0, 4.0, 4.0])];
        let config = GuardConfig {
            quarantine_after: 2,
            reentry_clean_calls: 3,
            latency_budget_us: None,
        };
        let mut guard = PoolGuard::new(config, 1);
        guard.sweep(&pool, &[1.0]);
        guard.sweep(&pool, &[1.0]);
        assert_eq!(guard.quarantined(), vec![0]);
        // Three clean probes: still quarantined during the first two.
        assert_eq!(guard.sweep(&pool, &[1.0]).active, vec![false]);
        assert_eq!(guard.sweep(&pool, &[1.0]).active, vec![false]);
        let back = guard.sweep(&pool, &[1.0]);
        assert_eq!(back.active, vec![true], "third clean probe re-enters");
        assert!(guard.quarantined().is_empty());
    }

    #[test]
    fn declared_cost_over_budget_is_a_fault() {
        let mut slow = Scripted::new(vec![1.0]);
        slow.cost = Some(10_000);
        let pool: Vec<Box<dyn Forecaster>> = vec![Box::new(slow), boxed(vec![2.0])];
        let config = GuardConfig {
            latency_budget_us: Some(500),
            ..GuardConfig::default()
        };
        let mut guard = PoolGuard::new(config, 2);
        let sweep = guard.sweep(&pool, &[9.0]);
        assert_eq!(sweep.faults, vec![(0, FaultClass::BudgetExceeded)]);
        assert_eq!(sweep.active, vec![false, true]);
    }

    /// Shared script of the stateful double: counts the states it built
    /// and the values they folded, and scripts a panicking fold, NaN
    /// forecasts and a declared cost.
    #[derive(Debug, Default)]
    struct Script {
        states: AtomicUsize,
        folded: AtomicUsize,
        folds: AtomicUsize,
        /// The 1-based fold call that panics (0: none).
        panic_on_fold: AtomicUsize,
        /// Forecasts that come out NaN before the clean ones.
        nan_predicts: AtomicUsize,
        /// Declared per-call cost in µs (0: none declared).
        cost: AtomicU64,
        /// Times the declared cost was asked for.
        inquiries: AtomicUsize,
    }

    impl Script {
        fn folded(&self) -> usize {
            self.folded.load(Ordering::SeqCst)
        }

        fn states(&self) -> usize {
            self.states.load(Ordering::SeqCst)
        }
    }

    /// Stateful test double: forecasts the sum of the history.
    struct Summing(Arc<Script>);

    #[derive(Debug)]
    struct SumState {
        sum: f64,
        script: Arc<Script>,
    }

    fn sum(history: &[f64]) -> f64 {
        history.iter().fold(0.0, |acc, &x| acc + x)
    }

    impl Forecaster for Summing {
        fn name(&self) -> &str {
            "Summing"
        }
        fn fit(&mut self, _s: &[f64]) -> Result<(), ModelError> {
            Ok(())
        }
        fn predict_next(&self, history: &[f64]) -> f64 {
            sum(history)
        }
        fn cost_hint_us(&self) -> Option<u64> {
            self.0.inquiries.fetch_add(1, Ordering::SeqCst);
            Some(self.0.cost.load(Ordering::SeqCst)).filter(|&c| c > 0)
        }
        fn series_state(&self) -> Option<Box<dyn SeriesState>> {
            self.0.states.fetch_add(1, Ordering::SeqCst);
            Some(Box::new(SumState {
                sum: 0.0,
                script: Arc::clone(&self.0),
            }))
        }
        fn box_clone(&self) -> Box<dyn Forecaster> {
            unreachable!("test double is never cloned")
        }
    }

    impl SeriesState for SumState {
        fn reset(&mut self) {
            self.sum = 0.0;
        }
        fn fold(&mut self, values: &[f64]) {
            let call = self.script.folds.fetch_add(1, Ordering::SeqCst) + 1;
            if call == self.script.panic_on_fold.load(Ordering::SeqCst) {
                panic!("scripted fold panic");
            }
            self.script.folded.fetch_add(values.len(), Ordering::SeqCst);
            for &x in values {
                self.sum += x;
            }
        }
        fn predict(&self) -> f64 {
            let nan = &self.script.nan_predicts;
            if nan.load(Ordering::SeqCst) > 0 {
                nan.fetch_sub(1, Ordering::SeqCst);
                return f64::NAN;
            }
            self.sum
        }
    }

    fn summing(script: &Arc<Script>) -> Box<dyn Forecaster> {
        Box::new(Summing(Arc::clone(script)))
    }

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64 * 0.5).collect()
    }

    #[test]
    fn a_growing_history_folds_only_the_new_values() {
        let script = Arc::new(Script::default());
        let pool = vec![summing(&script), boxed(vec![2.0])];
        let mut guard = PoolGuard::new(GuardConfig::default(), 2);
        let h = ramp(40);
        for end in 1..=40 {
            let sweep = guard.sweep(&pool, &h[..end]);
            assert_eq!(sweep.values, vec![sum(&h[..end]), 2.0]);
            assert_eq!(script.folded(), end, "one new value per step");
        }
        assert_eq!(script.states(), 1);
    }

    #[test]
    fn a_panicking_fold_drops_the_state_and_rebuilds_from_the_full_history() {
        let script = Arc::new(Script::default());
        script.panic_on_fold.store(3, Ordering::SeqCst);
        let pool = vec![summing(&script), boxed(vec![1.0])];
        let mut guard = PoolGuard::new(GuardConfig::default(), 2);
        let h = ramp(12);
        guard.sweep(&pool, &h[..4]);
        guard.sweep(&pool, &h[..5]);
        let faulted = guard.sweep(&pool, &h[..6]);
        assert_eq!(faulted.faults, vec![(0, FaultClass::Panic)]);
        assert_eq!(faulted.values[0], h[5], "substitute is the last value");
        assert_eq!(guard.total_faults(0), 1);
        assert_eq!(script.folded(), 5, "the panicking fold folded nothing");
        // The next step builds a fresh state over the whole history.
        let rebuilt = guard.sweep(&pool, &h[..7]);
        assert!(rebuilt.all_active);
        assert_eq!(rebuilt.values[0].to_bits(), sum(&h[..7]).to_bits());
        assert_eq!((script.states(), script.folded()), (2, 5 + 7));
        let next = guard.sweep(&pool, &h[..8]);
        assert_eq!(next.values[0].to_bits(), sum(&h[..8]).to_bits());
        assert_eq!(script.folded(), 5 + 7 + 1);
    }

    #[test]
    fn a_history_that_does_not_extend_the_last_one_rebuilds_the_states() {
        let script = Arc::new(Script::default());
        let pool = vec![summing(&script)];
        let mut guard = PoolGuard::new(GuardConfig::default(), 1);
        let mut last = 0;
        let mut step = |guard: &mut PoolGuard, history: &[f64]| {
            let sweep = guard.sweep(&pool, history);
            assert_eq!(sweep.values[0].to_bits(), sum(history).to_bits());
            let folded = script.folded() - last;
            last = script.folded();
            folded
        };
        let h = ramp(20);
        assert_eq!(step(&mut guard, &h[..8]), 8);
        assert_eq!(step(&mut guard, &h[..9]), 1);
        // An earlier value rewritten.
        let mut rewritten = h[..10].to_vec();
        rewritten[2] = 99.0;
        assert_eq!(step(&mut guard, &rewritten), 10);
        // 0.0 rewritten as -0.0, which `==` would call equal.
        assert_eq!(step(&mut guard, &[1.0, 0.0, 2.0]), 3);
        assert_eq!(step(&mut guard, &[1.0, -0.0, 2.0, 3.0]), 4);
        // A shorter history, then a slid window.
        assert_eq!(step(&mut guard, &[1.0, -0.0]), 2);
        assert_eq!(step(&mut guard, &h[..8]), 8);
        assert_eq!(step(&mut guard, &h[1..9]), 8);
        // The same history again folds nothing.
        assert_eq!(step(&mut guard, &h[1..9]), 0);
        assert_eq!(script.states(), 1, "rebuilds reset the state in place");
    }

    #[test]
    fn reset_and_clone_start_without_states() {
        let script = Arc::new(Script::default());
        let pool = vec![summing(&script)];
        let mut guard = PoolGuard::new(GuardConfig::default(), 1);
        let h = ramp(10);
        guard.sweep(&pool, &h[..5]);
        let mut cloned = guard.clone();
        cloned.sweep(&pool, &h[..6]);
        assert_eq!((script.states(), script.folded()), (2, 5 + 6));
        guard.reset(1);
        let sweep = guard.sweep(&pool, &h[..6]);
        assert_eq!(sweep.values[0].to_bits(), sum(&h[..6]).to_bits());
        assert_eq!((script.states(), script.folded()), (3, 5 + 6 + 6));
    }

    #[test]
    fn a_budget_skipped_member_catches_up_from_its_own_count() {
        let skipped = Arc::new(Script::default());
        let steady = Arc::new(Script::default());
        let pool = vec![summing(&skipped), summing(&steady)];
        let config = GuardConfig {
            latency_budget_us: Some(100),
            ..GuardConfig::default()
        };
        let mut guard = PoolGuard::new(config, 2);
        let h = ramp(10);
        guard.sweep(&pool, &h[..4]);
        skipped.cost.store(500, Ordering::SeqCst);
        for end in [5, 6] {
            let sweep = guard.sweep(&pool, &h[..end]);
            assert_eq!(sweep.faults, vec![(0, FaultClass::BudgetExceeded)]);
        }
        assert_eq!((skipped.folded(), steady.folded()), (4, 6));
        skipped.cost.store(0, Ordering::SeqCst);
        let sweep = guard.sweep(&pool, &h[..7]);
        assert!(sweep.all_active);
        assert_eq!(sweep.values[0].to_bits(), sum(&h[..7]).to_bits());
        assert_eq!(skipped.folded(), 7, "folds the three values it missed");
        assert_eq!(skipped.states(), 1);
    }

    #[test]
    fn every_call_asks_for_the_declared_cost_once() {
        // Fault injectors declare costs that depend on how often they
        // were asked, so both paths ask exactly once per call.
        for budget in [None, Some(100)] {
            let script = Arc::new(Script::default());
            let per_call = Scripted::new(vec![1.0]);
            let asked = Arc::clone(&per_call.inquiries);
            let pool: Vec<Box<dyn Forecaster>> = vec![summing(&script), Box::new(per_call)];
            let config = GuardConfig {
                latency_budget_us: budget,
                ..GuardConfig::default()
            };
            let mut guard = PoolGuard::new(config, 2);
            let h = ramp(5);
            for end in 1..=5 {
                guard.sweep(&pool, &h[..end]);
            }
            assert_eq!(script.inquiries.load(Ordering::SeqCst), 5);
            assert_eq!(asked.load(Ordering::SeqCst), 5);
        }
    }

    #[test]
    fn a_quarantined_member_keeps_folding_while_probed() {
        let script = Arc::new(Script::default());
        script.nan_predicts.store(2, Ordering::SeqCst);
        let pool = vec![summing(&script), boxed(vec![1.0])];
        let config = GuardConfig {
            quarantine_after: 2,
            reentry_clean_calls: 3,
            latency_budget_us: None,
        };
        let mut guard = PoolGuard::new(config, 2);
        let h = ramp(10);
        guard.sweep(&pool, &h[..3]);
        guard.sweep(&pool, &h[..4]);
        assert_eq!(guard.quarantined(), vec![0]);
        for end in [5, 6] {
            let probe = guard.sweep(&pool, &h[..end]);
            assert_eq!(probe.active, vec![false, true]);
            assert_eq!(probe.values[0].to_bits(), sum(&h[..end]).to_bits());
            assert_eq!(script.folded(), end);
        }
        let back = guard.sweep(&pool, &h[..7]);
        assert_eq!(back.active, vec![true, true]);
        assert_eq!((script.states(), script.folded()), (1, 7));
    }

    #[test]
    fn renormalization_preserves_simplex_over_survivors() {
        let w = [0.5, 0.3, 0.2];
        let eff = renormalize_over_active(&w, &[true, false, true]);
        assert_eq!(eff[1], 0.0);
        assert!((eff.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((eff[0] - 0.5 / 0.7).abs() < 1e-12);

        // Zero surviving mass -> uniform over survivors.
        let eff = renormalize_over_active(&[0.0, 1.0], &[true, false]);
        assert_eq!(eff, vec![1.0, 0.0]);

        // Nobody active -> all-zero sentinel.
        let eff = renormalize_over_active(&[0.5, 0.5], &[false, false]);
        assert_eq!(eff, vec![0.0, 0.0]);
    }
}
