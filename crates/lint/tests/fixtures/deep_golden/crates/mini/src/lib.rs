//! Golden fixture for the deep (call-graph) analysis. Never compiled —
//! parsed only, by `tests/deep_golden.rs`. Exercises trait dispatch,
//! closures inside a `par_map`-style combinator, a free fn shadowing a
//! trait-method name, and a cross-module `use`.
//!
//! Hand-computed expectations (see the test for the exact assertions):
//!
//! * `mini::evaluate`     — panics-via `evaluate -> Risky::score -> .unwrap()`
//! * `mini::evaluate_all` — panics-via `evaluate_all -> util::helper -> util::deep -> .expect()`
//! * `mini::helper`       — panics-via `helper -> deep -> .expect()`
//! * `mini::score` (the `shadow` free fn) and `mini::call_free` — safe:
//!   the bare call in `shadow.rs` must resolve module-locally, not into
//!   the `Model` implementors.
//!
//! The bin `src/bin/tool.rs` reaches every pub fn here, and `roots.rs`
//! holds the `unreachable-pub` cases: only `roots::only_own_tests` is
//! reported.

pub mod roots;
pub mod shadow;
pub mod util;

use crate::util::helper;

/// An ensemble member.
pub trait Model {
    /// Scores one input.
    fn score(&self, x: f64) -> f64;
}

/// A member that cannot panic.
pub struct Safe;

impl Model for Safe {
    fn score(&self, x: f64) -> f64 {
        x * 2.0
    }
}

/// A member whose score unwraps.
pub struct Risky;

impl Model for Risky {
    fn score(&self, x: f64) -> f64 {
        checked(x).unwrap()
    }
}

fn checked(x: f64) -> Option<f64> {
    if x.is_finite() {
        Some(x)
    } else {
        None
    }
}

/// Trait dispatch: the conservative graph reaches every implementor,
/// so the panic inside `Risky::score` must surface here.
pub fn evaluate(m: &dyn Model, x: f64) -> f64 {
    m.score(x)
}

/// Closure inside a `par_map`-style combinator: the `helper` call in
/// the closure body is attributed to this enclosing fn.
pub fn evaluate_all(xs: &[f64]) -> Vec<f64> {
    par_map(xs, |x| helper(*x))
}

fn par_map<T, R>(items: &[T], f: impl Fn(&T) -> R) -> Vec<R> {
    items.iter().map(f).collect()
}
