//! Repo-owned property-testing harness.
//!
//! The workspace's property suites state algebraic laws ("LU solve
//! satisfies the system", "ranks sum to the triangular number") and
//! check them against many randomly generated inputs. This crate is the
//! engine behind those suites: composable [`Strategy`] values describe
//! input distributions, and the [`proptest!`] macro turns a block of
//! `fn name(x in strategy)` definitions into ordinary `#[test]`
//! functions that run each body over `cases` generated inputs.
//!
//! The macro surface is deliberately proptest-compatible (`proptest!`,
//! `prop_assert!`, `prop_assert_eq!`, `prop_assume!`,
//! `prop::collection::vec`, `Strategy::prop_map`) so the suites read
//! like standard Rust property tests, but the implementation is this
//! repo's own, built on [`eadrl_rng::DetRng`] and `std` alone — no
//! external framework, no build-time dependency surface.
//!
//! # Determinism
//!
//! Case generation is seeded from the test's module path and name, so a
//! failing case reproduces exactly on every machine and every rerun:
//! the failure report's case number plus the frozen [`DetRng`] stream
//! pin the offending input forever. The flip side — documented rather
//! than hidden — is that reruns never explore fresh inputs; raise
//! `ProptestConfig::with_cases` when a law deserves a wider sweep.
//!
//! # Differences from a full property-testing framework
//!
//! * **No shrinking.** A failure reports the complete generated input
//!   (inputs here are small vectors and scalars, so minimization adds
//!   little); the deterministic seed makes the case trivially
//!   re-runnable under a debugger.
//! * **Strategies are sampling rules only** — uniform ranges, fixed- or
//!   ranged-length vectors, tuples, and `prop_map` transforms cover
//!   every suite in this workspace.
//!
//! # Example
//!
//! ```
//! use eadrl_ptest::prelude::*;
//!
//! proptest! {
//!     #![proptest_config(ProptestConfig::with_cases(32))]
//!
//!     // In a test module, also put `#[test]` on each property.
//!     fn sum_is_order_independent(v in prop::collection::vec(-10.0f64..10.0, 1..8)) {
//!         let forward: f64 = v.iter().sum();
//!         let backward: f64 = v.iter().rev().sum();
//!         prop_assert!((forward - backward).abs() < 1e-9);
//!     }
//! }
//! # sum_is_order_independent();
//! ```
#![forbid(unsafe_code)]

use eadrl_rng::DetRng;

/// How many cases a [`proptest!`] block runs per property, and the
/// reject budget that [`prop_assume!`] draws on.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated inputs each property is checked against.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` inputs per property.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    /// 64 cases — enough to exercise branch structure in CI without
    /// dominating suite runtime; laws that warrant more say so
    /// explicitly via [`ProptestConfig::with_cases`].
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Why a single generated case did not pass. Produced by the
/// `prop_assert*` / `prop_assume!` macros; consumed by the harness.
#[derive(Debug)]
pub enum TestCaseError {
    /// The property is violated for this input: the test fails.
    Fail(String),
    /// The input does not satisfy a precondition
    /// ([`prop_assume!`]): the case is discarded and regenerated.
    Reject,
}

impl TestCaseError {
    /// Builds the failure variant; used by the assertion macros.
    #[must_use]
    pub fn fail(msg: String) -> Self {
        TestCaseError::Fail(msg)
    }
}

/// A rule for generating random values of `Self::Value`.
///
/// Implemented for numeric ranges (uniform), tuples of strategies, and
/// the combinators in [`collection`]; arbitrary derived strategies come
/// from [`Strategy::prop_map`].
pub trait Strategy {
    /// The type of generated values. `Debug` so failing cases can be
    /// reported verbatim.
    type Value: std::fmt::Debug;

    /// Generates one value.
    fn generate(&self, rng: &mut DetRng) -> Self::Value;

    /// A strategy that generates from `self` and pipes the value
    /// through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        U: std::fmt::Debug,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

/// The [`Strategy::prop_map`] combinator.
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, U, F> Strategy for Map<S, F>
where
    S: Strategy,
    U: std::fmt::Debug,
    F: Fn(S::Value) -> U,
{
    type Value = U;

    fn generate(&self, rng: &mut DetRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

impl Strategy for core::ops::Range<f64> {
    type Value = f64;

    /// Uniform in `[start, end)`.
    fn generate(&self, rng: &mut DetRng) -> f64 {
        rng.random_range(self.start..self.end)
    }
}

impl Strategy for core::ops::Range<f32> {
    type Value = f32;

    /// Uniform in `[start, end)`.
    fn generate(&self, rng: &mut DetRng) -> f32 {
        rng.random_range(self.start..self.end)
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;

            /// Uniform in `[start, end)`.
            fn generate(&self, rng: &mut DetRng) -> $t {
                rng.random_range(self.clone())
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;

            /// Uniform in `[start, end]`.
            fn generate(&self, rng: &mut DetRng) -> $t {
                rng.random_range(self.clone())
            }
        }
    )*}
}
int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            /// Generates each component in order.
            fn generate(&self, rng: &mut DetRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*}
}
tuple_strategy! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

/// Strategies over collections.
pub mod collection {
    use super::{DetRng, Strategy};

    /// Length specification for [`vec()`]: a fixed `usize` or a
    /// half-open `Range<usize>` sampled per case.
    #[derive(Debug, Clone, Copy)]
    pub enum SizeRange {
        /// Exactly this many elements.
        Fixed(usize),
        /// Uniformly drawn length in `[min, max)`.
        Between(usize, usize),
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange::Fixed(n)
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            SizeRange::Between(r.start, r.end)
        }
    }

    /// The strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut DetRng) -> Vec<S::Value> {
            let len = match self.size {
                SizeRange::Fixed(n) => n,
                SizeRange::Between(lo, hi) => rng.random_range(lo..hi),
            };
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }

    /// A `Vec` whose elements come from `elem` and whose length is
    /// given by `size` (a fixed `usize` or a `Range<usize>`).
    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }
}

/// Derives the deterministic per-test seed from its fully qualified
/// name (FNV-1a). Public for the [`proptest!`] expansion, not for
/// direct use.
#[doc(hidden)]
#[must_use]
pub fn seed_rng_for(test_path: &str) -> DetRng {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in test_path.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    DetRng::seed_from_u64(h)
}

/// Runs one property over `config.cases` generated inputs.
///
/// `gen` produces the input tuple; `run` checks it. Rejected cases
/// ([`prop_assume!`]) are regenerated without counting toward the case
/// budget, up to 64 rejects per accepted case, after which the
/// precondition is considered unsatisfiable and the test fails.
/// Public for the [`proptest!`] expansion, not for direct use.
#[doc(hidden)]
pub fn run_property<V: std::fmt::Debug>(
    test_path: &str,
    names: &str,
    config: &ProptestConfig,
    gen: impl Fn(&mut DetRng) -> V,
    run: impl Fn(&V) -> Result<(), TestCaseError>,
) {
    let mut rng = seed_rng_for(test_path);
    let mut accepted: u32 = 0;
    let mut rejected: u64 = 0;
    let reject_budget = u64::from(config.cases) * 64;
    while accepted < config.cases {
        let values = gen(&mut rng);
        match run(&values) {
            Ok(()) => accepted += 1,
            Err(TestCaseError::Reject) => {
                rejected += 1;
                assert!(
                    rejected <= reject_budget,
                    "property '{test_path}' rejected {rejected} inputs for {accepted} \
                     accepted — the prop_assume! precondition is effectively unsatisfiable",
                );
            }
            Err(TestCaseError::Fail(msg)) => {
                panic!(
                    "property '{test_path}' failed at case {accepted}: {msg}\n\
                     inputs {names} =\n{values:#?}\n\
                     (deterministic: rerun this test to replay the identical case)",
                );
            }
        }
    }
}

/// Declares property tests.
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(48))]
///
///     #[test]
///     fn law(x in 0.0f64..1.0, v in prop::collection::vec(0u64..9, 1..5)) {
///         prop_assert!(x < 1.0);
///     }
/// }
/// ```
///
/// Each `fn` becomes a plain `#[test]` running its body over generated
/// inputs; the optional `#![proptest_config(..)]` header applies to
/// every property in the block.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { config = $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Expansion target of [`proptest!`]; not part of the public surface.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = $cfg:expr;
     $( $(#[$meta:meta])* fn $name:ident ( $($pat:pat in $strat:expr),+ $(,)? ) $body:block )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                $crate::run_property(
                    concat!(module_path!(), "::", stringify!($name)),
                    stringify!(($($pat),+)),
                    &config,
                    |rng| ($($crate::Strategy::generate(&($strat), rng),)+),
                    |values| {
                        let ($($pat),+,) = ::core::clone::Clone::clone(values);
                        $body
                        Ok(())
                    },
                );
            }
        )*
    };
}

/// Asserts a condition inside a [`proptest!`] body; on failure the
/// harness reports the generated inputs and panics.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::fail(
                concat!("assertion failed: ", stringify!($cond)).to_string(),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err(
                $crate::TestCaseError::fail(format!($($fmt)+)),
            );
        }
    };
}

/// Asserts equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), l, r,
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, $($fmt)+);
    }};
}

/// Discards the current case when its precondition does not hold; the
/// harness regenerates a fresh input instead of failing.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

/// The one-line import for property suites:
/// `use eadrl_ptest::prelude::*;`.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assume, proptest, ProptestConfig, Strategy, TestCaseError,
    };

    /// Namespace mirror so call sites read `prop::collection::vec`.
    pub mod prop {
        pub use crate::collection;
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::seed_rng_for;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn float_ranges_respect_bounds(x in -3.0f64..7.0) {
            prop_assert!((-3.0..7.0).contains(&x));
        }

        #[test]
        fn vec_lengths_respect_the_size_range(
            v in prop::collection::vec(0u64..100, 2..9),
        ) {
            prop_assert!((2..9).contains(&v.len()), "bad len {}", v.len());
            prop_assert!(v.iter().all(|&e| e < 100));
        }

        #[test]
        fn fixed_length_vecs_are_exact(v in prop::collection::vec(-1.0f64..1.0, 5)) {
            prop_assert_eq!(v.len(), 5);
        }

        #[test]
        fn tuples_and_nested_vecs_compose(
            rows in prop::collection::vec(prop::collection::vec(0.0f64..1.0, 3), 1..4),
            pair in (0usize..10, -1.0f64..1.0),
        ) {
            prop_assert!(rows.iter().all(|r| r.len() == 3));
            prop_assert!(pair.0 < 10);
        }

        #[test]
        fn prop_map_transforms_values(
            doubled in (0u64..50).prop_map(|x| x * 2),
        ) {
            prop_assert_eq!(doubled % 2, 0);
            prop_assert!(doubled < 100);
        }

        #[test]
        fn assume_discards_without_failing(x in 0u64..100) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }

        #[test]
        fn mut_bindings_are_supported(mut v in prop::collection::vec(0u64..5, 1..6)) {
            v.push(7);
            prop_assert_eq!(*v.last().expect("just pushed"), 7);
        }
    }

    proptest! {
        #[test]
        #[should_panic(expected = "failed at case")]
        fn failing_properties_panic_with_the_inputs(x in 0u64..10) {
            prop_assert!(x > 100, "x was {x}");
        }

        #[test]
        #[should_panic(expected = "effectively unsatisfiable")]
        fn impossible_assumptions_exhaust_the_reject_budget(x in 0u64..10) {
            prop_assume!(x > 100);
        }
    }

    #[test]
    fn seeds_are_stable_per_test_name() {
        let mut a = seed_rng_for("crate::mod::test_a");
        let mut b = seed_rng_for("crate::mod::test_a");
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = seed_rng_for("crate::mod::test_b");
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn generation_is_deterministic_across_runs() {
        use crate::Strategy;
        let strat = crate::collection::vec(0.0f64..1.0, 2..6);
        let mut r1 = seed_rng_for("det");
        let mut r2 = seed_rng_for("det");
        for _ in 0..32 {
            assert_eq!(strat.generate(&mut r1), strat.generate(&mut r2));
        }
    }
}
