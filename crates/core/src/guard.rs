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
//! * when a step's history slides that copy by exactly one value (same
//!   length, the copy without its oldest value is the history without
//!   its newest), the guard starts a fold-ahead job on its [`Sidecar`]
//!   before the member calls: a second state per folding member resets
//!   and folds the history without its oldest value on the helper thread
//!   while the caller serves the step. If the next history is that input
//!   plus one value, the second states become the live ones and fold
//!   only the newest value;
//! * any other history (a rewritten value, a slide by more than one, a
//!   shorter input, a slide with no job ready) resets every state, which
//!   then folds the whole history, the same work as a per-call
//!   `predict_next`. A history that did not slide by one leaves the job
//!   in flight to finish unused: it touches only its own copy of the
//!   input and its second states, and the sidecar's next `join` or
//!   `start` settles it;
//! * each member keeps its own count of folded values: a member skipped
//!   for its budget is not called and catches up on its next call, a
//!   quarantined one keeps folding while it is probed;
//! * a state whose fold or predict panics is dropped and rebuilt from
//!   the full history on the member's next call. A second state whose
//!   fold ahead panicked is dropped too, and its member rewinds as if
//!   nothing had been folded ahead, so a fold that panics again on the
//!   same values faults that call once;
//!   [`PoolGuard::reset`] (refit) and `clone` start without states;
//! * where the sidecar would run its job inline (one core,
//!   `EADRL_PAR_THREADS=1`, inside a multi-worker `par_map`) the guard
//!   folds nothing ahead: the job would only add a copy and a compare.
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
use eadrl_par::{Job, Placement, Sidecar};
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

/// The fold-ahead job (see "Serving state" above): every member's second
/// state, folded over the last swept history without its oldest value.
struct FoldAhead {
    /// The values every second state folds.
    input: Vec<f64>,
    /// One per pool member, in pool order.
    shadows: Vec<Shadow>,
}

/// One member's second state in the fold-ahead job.
#[derive(Default)]
struct Shadow {
    /// A folding member's second state; `None` for the other members.
    state: Option<Box<dyn SeriesState>>,
    /// The last run folded the job's input into `state` without a panic.
    folded: bool,
}

impl Job for FoldAhead {
    /// Resets every second state and folds the input into it, each under
    /// its own `catch_unwind`, so a panicking state marks only itself
    /// and nothing reaches the sidecar.
    fn run(&mut self) {
        let mut span = eadrl_obs::span_at(Level::Trace, "core.guard.fold_ahead");
        let input = &self.input;
        let mut states = 0u64;
        for shadow in &mut self.shadows {
            if let Some(state) = shadow.state.as_deref_mut() {
                states += 1;
                // Called by trait path, so the hot-path lint follows the
                // `SeriesState` impls rather than every method so named.
                shadow.folded = catch_unwind(AssertUnwindSafe(|| {
                    SeriesState::reset(state);
                    SeriesState::fold(state, input);
                }))
                .is_ok();
            }
        }
        span.record("values", input.len().into());
        span.record("states", states.into());
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
    /// Folds the members' second states ahead on a helper thread.
    ahead: Sidecar<FoldAhead>,
    /// The placement `ahead` was made with, for clones and resets.
    placement: Placement,
    /// The job in `ahead` was started over `seen` without its oldest
    /// value and not used since.
    posted: bool,
}

/// A clone starts without serving states, which rebuild on its first
/// sweep.
impl Clone for PoolGuard {
    fn clone(&self) -> Self {
        PoolGuard::with_health(self.config.clone(), self.health.clone(), self.placement)
    }
}

impl PoolGuard {
    /// Creates a guard for a pool of `m` members.
    pub fn new(config: GuardConfig, m: usize) -> Self {
        PoolGuard::with_placement(config, m, Placement::Auto)
    }

    /// [`PoolGuard::new`] with the fold-ahead job pinned inline or to the
    /// helper thread, for the unit tests: both serve the same bits, and
    /// an inline guard folds nothing ahead.
    fn with_placement(config: GuardConfig, m: usize, placement: Placement) -> Self {
        PoolGuard::with_health(config, vec![MemberHealth::default(); m], placement)
    }

    fn with_health(config: GuardConfig, health: Vec<MemberHealth>, placement: Placement) -> Self {
        let members = health.iter().map(|_| Member::Unknown).collect();
        let job = FoldAhead {
            input: Vec::new(),
            shadows: health.iter().map(|_| Shadow::default()).collect(),
        };
        PoolGuard {
            config,
            health,
            members,
            seen: Vec::new(),
            ahead: Sidecar::with_placement(job, placement),
            placement,
            posted: false,
        }
    }

    /// Resets health tracking and drops the serving states for a
    /// (re)fitted pool of `m` members.
    pub fn reset(&mut self, m: usize) {
        *self = PoolGuard::with_placement(self.config.clone(), m, self.placement);
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
        self.track(pool, history);
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

    /// Compares `history` with the last swept one and readies every state
    /// for it (see "Serving state" above): an extending history keeps
    /// what the states folded, a history slid by one value takes the
    /// folded-ahead second states, any other rewinds every state. Then
    /// remembers `history`, and after a slide starts the next fold-ahead
    /// job.
    fn track(&mut self, pool: &[Box<dyn Forecaster>], history: &[f64]) {
        if self.members.len() != pool.len() {
            // Another pool width: the states start over.
            self.members = (0..pool.len()).map(|_| Member::Unknown).collect();
            self.seen.clear();
            self.posted = false;
            let mut job = self.ahead.join();
            job.shadows.clear();
            job.shadows.resize_with(pool.len(), Shadow::default);
        }
        if self.members.iter().all(|s| matches!(s, Member::PerCall)) {
            // No member folds: nothing to compare against.
            return;
        }
        let known = self.seen.len();
        if known <= history.len() && same_bits(&self.seen, &history[..known]) {
            self.posted = false;
            self.seen.extend_from_slice(&history[known..]);
            return;
        }
        // Without a helper nothing is folded ahead, so a slide rewinds
        // like any other history and needs no compare.
        let slid = known == history.len()
            && known >= 2
            && self.ahead.spawn_helper()
            && same_bits(&self.seen[1..], &history[..known - 1]);
        if !slid {
            self.posted = false;
            self.members.iter_mut().for_each(Member::rewind);
            self.seen.clear();
            self.seen.extend_from_slice(history);
            return;
        }
        let ready = std::mem::take(&mut self.posted);
        {
            let mut job = self.ahead.join();
            for (member, shadow) in self.members.iter_mut().zip(job.shadows.iter_mut()) {
                take_shadow(member, shadow, ready, known - 1);
            }
        }
        self.seen.copy_within(1.., 0);
        self.seen[known - 1] = history[known - 1];
        self.post_ahead(pool);
    }

    /// Starts the fold-ahead job over `seen` without its oldest value,
    /// with a second state for every folding member. A member's first
    /// second state comes from its model, on this thread; a member whose
    /// state panicked keeps its second state while it rebuilds.
    fn post_ahead(&mut self, pool: &[Box<dyn Forecaster>]) {
        {
            let mut guard = self.ahead.join();
            let job = &mut *guard;
            job.input.clear();
            job.input.extend_from_slice(&self.seen[1..]);
            for ((member, shadow), model) in self.members.iter().zip(&mut job.shadows).zip(pool) {
                match member {
                    Member::PerCall => shadow.state = None,
                    Member::Folding { .. } if shadow.state.is_none() => {
                        shadow.state = catch_unwind(AssertUnwindSafe(|| model.series_state()))
                            .ok()
                            .flatten();
                    }
                    Member::Folding { .. } | Member::Unknown => {}
                }
            }
        }
        self.ahead.start();
        self.posted = true;
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

/// Readies one member for a history slid by one value: a second state
/// folded ahead (`ready`) over the history's first `folded` values
/// becomes the live state; without one the member's state rewinds. A
/// second state whose fold panicked may be half-folded, so it is
/// dropped.
fn take_shadow(member: &mut Member, shadow: &mut Shadow, ready: bool, folded: usize) {
    let Member::Folding {
        state,
        folded: count,
    } = member
    else {
        return;
    };
    if !shadow.folded {
        shadow.state = None;
    }
    match shadow.state.as_mut() {
        Some(second) if ready => {
            std::mem::swap(state, second);
            *count = folded;
        }
        _ => member.rewind(),
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
    use eadrl_models::{Arima, Ets, EtsKind, ModelError, Naive};
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

    /// Shared script of the stateful doubles: counts the states they
    /// built and the values those folded, and scripts panicking folds,
    /// NaN forecasts and a declared cost.
    #[derive(Debug, Default)]
    struct Script {
        states: AtomicUsize,
        folded: AtomicUsize,
        folds: AtomicUsize,
        /// The 1-based fold call that panics (0: none).
        panic_on_fold: AtomicUsize,
        /// The bits of a value: every fold of more than one value that
        /// starts with it panics, so the panic repeats on the same values
        /// (0: none).
        panic_from: AtomicU64,
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

        fn folds(&self) -> usize {
            self.folds.load(Ordering::SeqCst)
        }

        fn states(&self) -> usize {
            self.states.load(Ordering::SeqCst)
        }
    }

    /// Puts a member and its states behind a script's dials; its
    /// `predict_next` is the member's own.
    struct Rigged {
        inner: Box<dyn Forecaster>,
        script: Arc<Script>,
    }

    #[derive(Debug)]
    struct RiggedState {
        inner: Box<dyn SeriesState>,
        script: Arc<Script>,
    }

    impl Forecaster for Rigged {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn fit(&mut self, series: &[f64]) -> Result<(), ModelError> {
            self.inner.fit(series)
        }
        fn predict_next(&self, history: &[f64]) -> f64 {
            self.inner.predict_next(history)
        }
        fn cost_hint_us(&self) -> Option<u64> {
            self.script.inquiries.fetch_add(1, Ordering::SeqCst);
            Some(self.script.cost.load(Ordering::SeqCst)).filter(|&c| c > 0)
        }
        fn series_state(&self) -> Option<Box<dyn SeriesState>> {
            let inner = self.inner.series_state()?;
            self.script.states.fetch_add(1, Ordering::SeqCst);
            Some(Box::new(RiggedState {
                inner,
                script: Arc::clone(&self.script),
            }))
        }
        fn box_clone(&self) -> Box<dyn Forecaster> {
            unreachable!("test double is never cloned")
        }
    }

    impl SeriesState for RiggedState {
        fn reset(&mut self) {
            self.inner.reset();
        }
        fn fold(&mut self, values: &[f64]) {
            let script = &self.script;
            let call = script.folds.fetch_add(1, Ordering::SeqCst) + 1;
            let from = script.panic_from.load(Ordering::SeqCst);
            if call == script.panic_on_fold.load(Ordering::SeqCst)
                || (from != 0 && values.len() > 1 && values[0].to_bits() == from)
            {
                panic!("scripted fold panic");
            }
            script.folded.fetch_add(values.len(), Ordering::SeqCst);
            self.inner.fold(values);
        }
        fn predict(&self) -> f64 {
            let nan = &self.script.nan_predicts;
            if nan.load(Ordering::SeqCst) > 0 {
                nan.fetch_sub(1, Ordering::SeqCst);
                return f64::NAN;
            }
            self.inner.predict()
        }
    }

    fn rigged(inner: Box<dyn Forecaster>, script: &Arc<Script>) -> Box<dyn Forecaster> {
        Box::new(Rigged {
            inner,
            script: Arc::clone(script),
        })
    }

    /// Stateful member that forecasts the sum of the history.
    struct Sum;

    #[derive(Debug)]
    struct SumState(f64);

    fn sum(history: &[f64]) -> f64 {
        history.iter().fold(0.0, |acc, &x| acc + x)
    }

    impl Forecaster for Sum {
        fn name(&self) -> &str {
            "Sum"
        }
        fn fit(&mut self, _s: &[f64]) -> Result<(), ModelError> {
            Ok(())
        }
        fn predict_next(&self, history: &[f64]) -> f64 {
            sum(history)
        }
        fn series_state(&self) -> Option<Box<dyn SeriesState>> {
            Some(Box::new(SumState(0.0)))
        }
        fn box_clone(&self) -> Box<dyn Forecaster> {
            unreachable!("test double is never cloned")
        }
    }

    impl SeriesState for SumState {
        fn reset(&mut self) {
            self.0 = 0.0;
        }
        fn fold(&mut self, values: &[f64]) {
            for &x in values {
                self.0 += x;
            }
        }
        fn predict(&self) -> f64 {
            self.0
        }
    }

    fn summing(script: &Arc<Script>) -> Box<dyn Forecaster> {
        rigged(Box::new(Sum), script)
    }

    /// A guard whose fold-ahead job runs inline, so it folds nothing
    /// ahead and its state and fold counts hold at every thread count.
    fn inline(config: GuardConfig, m: usize) -> PoolGuard {
        PoolGuard::with_placement(config, m, Placement::Inline)
    }

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64 * 0.5).collect()
    }

    #[test]
    fn a_growing_history_folds_only_the_new_values() {
        let script = Arc::new(Script::default());
        let pool = vec![summing(&script), boxed(vec![2.0])];
        let mut guard = inline(GuardConfig::default(), 2);
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
        let mut guard = inline(GuardConfig::default(), 2);
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
        let mut guard = inline(GuardConfig::default(), 1);
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
        let mut guard = inline(GuardConfig::default(), 1);
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
        let mut guard = inline(config, 2);
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
            let mut guard = inline(config, 2);
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
        let mut guard = inline(config, 2);
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

    /// A guard whose fold-ahead job goes to a pinned helper thread. While
    /// `held`, the helper claims nothing, so each job runs at the next
    /// sweep's join, before its member calls, and fold counts are exact.
    fn pinned(config: GuardConfig, m: usize, held: bool) -> PoolGuard {
        let guard = PoolGuard::with_placement(config, m, Placement::Helper);
        guard.ahead.hold_helper(held);
        guard
    }

    /// A generated series and a pool fitted on its first 360 values: an
    /// ARIMA behind `scripts[0]`, an ETS behind `scripts[1]` and a member
    /// without a state.
    fn fitted_pool(scripts: [&Arc<Script>; 2]) -> (Vec<Box<dyn Forecaster>>, Vec<f64>) {
        let values = eadrl_datasets::generate(eadrl_datasets::DatasetId::BikeRentals, 1200, 7)
            .values()
            .to_vec();
        let mut pool = vec![
            rigged(Box::new(Arima::new(2, 1, 1)), scripts[0]),
            rigged(
                Box::new(Ets::new(EtsKind::HoltWinters { period: 24 })),
                scripts[1],
            ),
            Box::new(Naive),
        ];
        for model in &mut pool {
            model.fit(&values[..360]).expect("fits");
        }
        (pool, values)
    }

    /// Sweeps `guard` over `history` and checks each member's value, bit
    /// for bit, against its `predict_next`, or the fallback where it
    /// faulted.
    fn sweep_checked(
        guard: &mut PoolGuard,
        pool: &[Box<dyn Forecaster>],
        history: &[f64],
    ) -> GuardedSweep {
        let sweep = guard.sweep(pool, history);
        for (i, model) in pool.iter().enumerate() {
            let expected = if sweep.faults.iter().any(|&(f, _)| f == i) {
                fallback_forecast(history)
            } else {
                model.predict_next(history)
            };
            assert_eq!(
                sweep.values[i].to_bits(),
                expected.to_bits(),
                "{} over {} values",
                model.name(),
                history.len()
            );
        }
        sweep
    }

    /// The trailing `len` values before `end`.
    fn window(values: &[f64], end: usize, len: usize) -> &[f64] {
        &values[end - len..end]
    }

    /// Sweeps the trailing `len` values before each of `ends`; every
    /// member must be active and match.
    fn slide(
        guard: &mut PoolGuard,
        pool: &[Box<dyn Forecaster>],
        values: &[f64],
        ends: impl IntoIterator<Item = usize>,
        len: usize,
    ) {
        for end in ends {
            let sweep = sweep_checked(guard, pool, window(values, end, len));
            assert!(sweep.all_active, "no member may fault");
        }
    }

    #[test]
    fn a_slid_history_takes_the_state_folded_ahead_and_folds_one_value() {
        let script = Arc::new(Script::default());
        let pool = vec![summing(&script), boxed(vec![2.0])];
        let mut guard = pinned(GuardConfig::default(), 2, true);
        let h = ramp(30);
        let step = |guard: &mut PoolGuard, history: &[f64]| {
            let (folds, folded) = (script.folds(), script.folded());
            let sweep = guard.sweep(&pool, history);
            assert!(sweep.all_active);
            assert_eq!(sweep.values[0].to_bits(), sum(history).to_bits());
            (script.folds() - folds, script.folded() - folded)
        };
        assert_eq!(step(&mut guard, &h[..8]), (1, 8));
        // The first slide has nothing folded ahead: the state rewinds.
        assert_eq!(step(&mut guard, &h[1..9]), (1, 8));
        // Every later slide: seven values ahead, then the newest one.
        for start in 2..20 {
            assert_eq!(step(&mut guard, &h[start..start + 8]), (2, 7 + 1));
        }
        assert_eq!(script.states(), 2, "one live and one second state");
        // A growing history leaves the job in flight unused, which the
        // held helper never runs, and extends the live state.
        assert_eq!(step(&mut guard, &h[19..28]), (1, 1));
        assert_eq!(step(&mut guard, &h[19..29]), (1, 1));
        // The next slide's join settles the stale job (seven values) and
        // rewinds, as there is nothing ready.
        assert_eq!(step(&mut guard, &h[20..30]), (2, 7 + 10));
        assert_eq!(script.states(), 2);
    }

    #[test]
    fn real_members_match_predict_next_across_slides_and_switches_folded_ahead() {
        for held in [false, true] {
            let (arima, ets) = (Arc::new(Script::default()), Arc::new(Script::default()));
            let (pool, v) = fitted_pool([&arima, &ets]);
            let mut guard = pinned(GuardConfig::default(), pool.len(), held);
            slide(&mut guard, &pool, &v, 600..680, 512);
            // Extended by one value, then sliding at the new length.
            slide(&mut guard, &pool, &v, 680..700, 513);
            // Slid by two values at a time, then by one again.
            slide(&mut guard, &pool, &v, (701..720).step_by(2), 513);
            slide(&mut guard, &pool, &v, 720..740, 513);
            // An earlier value rewritten, then sliding again.
            let mut rewritten = window(&v, 740, 513).to_vec();
            rewritten[200] += 1.0;
            assert!(sweep_checked(&mut guard, &pool, &rewritten).all_active);
            slide(&mut guard, &pool, &v, 741..760, 513);
            // A shorter input, the same window twice, then sliding on.
            slide(&mut guard, &pool, &v, [770, 780, 780], 300);
            slide(&mut guard, &pool, &v, 781..800, 300);
            assert_eq!((arima.states(), ets.states()), (2, 2), "held: {held}");
        }
    }

    #[test]
    fn a_fold_ahead_that_panics_once_leaves_its_member_to_rewind() {
        let script = Arc::new(Script::default());
        // Folds 1 and 2 are the caller's; fold 3 is the first job's.
        script.panic_on_fold.store(3, Ordering::SeqCst);
        let pool = vec![summing(&script), boxed(vec![1.0])];
        let mut guard = pinned(GuardConfig::default(), 2, true);
        let h = ramp(20);
        let mut step = |start: usize| {
            let (folds, folded) = (script.folds(), script.folded());
            let sweep = guard.sweep(&pool, &h[start..start + 8]);
            assert!(sweep.all_active, "a fold ahead faults no call itself");
            assert_eq!(
                sweep.values[0].to_bits(),
                sum(&h[start..start + 8]).to_bits()
            );
            (script.folds() - folds, script.folded() - folded)
        };
        assert_eq!(step(0), (1, 8));
        assert_eq!(step(1), (1, 8));
        // The job's fold panicked: its second state is dropped, and the
        // member folds its whole window as with nothing folded ahead.
        assert_eq!(step(2), (2, 8));
        for start in 3..12 {
            assert_eq!(step(start), (2, 7 + 1));
        }
        assert_eq!(script.states(), 3, "the dropped second state replaced");
    }

    #[test]
    fn a_fold_ahead_that_panics_again_on_the_caller_faults_once_and_rebuilds() {
        for held in [false, true] {
            let (arima, ets) = (Arc::new(Script::default()), Arc::new(Script::default()));
            let (pool, v) = fitted_pool([&arima, &ets]);
            // Every fold whose window starts at v[99] panics: the job that
            // step 610 starts over its window without v[98], and the
            // caller's fold at step 611, the one step whose 512-value
            // window starts there.
            assert_eq!(v[80..200].iter().filter(|x| **x == v[99]).count(), 1);
            arima.panic_from.store(v[99].to_bits(), Ordering::SeqCst);
            let mut guard = pinned(GuardConfig::default(), pool.len(), held);
            slide(&mut guard, &pool, &v, 600..611, 512);
            let faulted = sweep_checked(&mut guard, &pool, window(&v, 611, 512));
            assert_eq!(faulted.faults, vec![(0, FaultClass::Panic)], "held: {held}");
            // The member rebuilds from the full window on its next call.
            slide(&mut guard, &pool, &v, 612..640, 512);
            assert_eq!(guard.total_faults(0), 1);
            assert_eq!(arima.states(), 4, "both states of the member rebuilt");
            assert_eq!(ets.states(), 2);
        }
    }

    #[test]
    fn budget_skipped_and_quarantined_members_match_across_folds_ahead() {
        let config = GuardConfig {
            quarantine_after: 2,
            reentry_clean_calls: 3,
            latency_budget_us: Some(100),
        };
        for held in [false, true] {
            let (skipped, sick) = (Arc::new(Script::default()), Arc::new(Script::default()));
            let (pool, v) = fitted_pool([&skipped, &sick]);
            let mut guard = pinned(config.clone(), pool.len(), held);
            let mut step = |end: usize| sweep_checked(&mut guard, &pool, window(&v, end, 512));
            for end in 600..620 {
                assert!(step(end).all_active);
            }
            skipped.cost.store(500, Ordering::SeqCst);
            for end in 620..625 {
                assert_eq!(step(end).faults, vec![(0, FaultClass::BudgetExceeded)]);
            }
            // Skipped five times, the member sits out two clean probes too.
            skipped.cost.store(0, Ordering::SeqCst);
            for end in 625..627 {
                let sweep = step(end);
                assert!(sweep.faults.is_empty() && !sweep.active[0]);
            }
            for end in 627..640 {
                assert!(step(end).all_active);
            }
            sick.nan_predicts.store(2, Ordering::SeqCst);
            for end in 640..642 {
                assert_eq!(step(end).faults, vec![(1, FaultClass::NonFinite)]);
            }
            // Two probes stay out of the combination, with the member's bits.
            for end in 642..644 {
                let sweep = step(end);
                assert!(sweep.faults.is_empty() && !sweep.active[1]);
            }
            for end in 644..670 {
                assert!(step(end).all_active);
            }
            assert!(guard.quarantined().is_empty());
            assert_eq!((skipped.states(), sick.states()), (2, 2), "held: {held}");
        }
    }

    #[test]
    fn a_growing_history_starts_no_fold_ahead() {
        let script = Arc::new(Script::default());
        let pool = vec![summing(&script)];
        let mut guard = pinned(GuardConfig::default(), 1, true);
        let h = ramp(41);
        for end in 1..=40 {
            guard.sweep(&pool, &h[..end]);
        }
        assert_eq!(
            (script.states(), script.folds(), script.folded()),
            (1, 40, 40)
        );
        // The control: a slide makes the second state.
        guard.sweep(&pool, &h[1..41]);
        assert_eq!(script.states(), 2);
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
