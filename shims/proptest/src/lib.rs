//! Offline stand-in for `proptest`.
//!
//! Implements the subset of proptest's API this workspace's property
//! tests use: the [`proptest!`] macro, [`Strategy`] with `prop_map`,
//! ranges / [`Just`] / tuples / [`collection::vec`] / [`prop_oneof!`] /
//! [`any`], and the `prop_assert*` family. Unlike upstream proptest,
//! cases are sampled from a deterministic per-test seed (derived from
//! the test name) and failing inputs are not shrunk. A failing case is
//! re-sampled from its seed and re-panics with the test name, the case
//! index, the seed, the `Debug` of every input and the original message
//! (so `#[should_panic(expected = ...)]` still matches).

use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};
use std::rc::Rc;

use rand::{Rng, RngCore, SeedableRng};

/// The generator handed to strategies while sampling a case.
pub type TestRng = rand::rngs::StdRng;

/// Per-test configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        let cases = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64);
        ProptestConfig { cases }
    }
}

/// The result type property bodies produce (via early `prop_assume!`
/// returns); the runner ignores the payload.
pub type TestCaseResult = Result<(), ()>;

/// A recipe for generating random values of one type.
pub trait Strategy {
    /// The generated type.
    type Value: Debug;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O: Debug, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Erases the strategy type (used by [`prop_oneof!`]).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Rc::new(self))
    }
}

/// A type-erased, cheaply clonable strategy.
pub struct BoxedStrategy<T>(Rc<dyn Strategy<Value = T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<T: Debug> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        self.0.sample(rng)
    }
}

/// Always produces a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone + Debug>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;

    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// The result of [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O: Debug, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn sample(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

macro_rules! range_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
range_strategies!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

macro_rules! tuple_strategies {
    ($(($($name:ident : $idx:tt),+)),+) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )+};
}
tuple_strategies!(
    (A: 0),
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
    (A: 0, B: 1, C: 2, D: 3),
    (A: 0, B: 1, C: 2, D: 3, E: 4),
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5),
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6),
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7)
);

/// Types with a canonical whole-domain strategy, used by [`any`].
pub trait Arbitrary: Sized + Debug {
    /// Draws one value from the type's full domain.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! int_arbitrary {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// The strategy returned by [`any`].
#[derive(Debug)]
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T> Clone for Any<T> {
    fn clone(&self) -> Self {
        Any(std::marker::PhantomData)
    }
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Strategy over the full domain of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Weighted choice among boxed alternatives — the engine behind
/// [`prop_oneof!`].
pub struct OneOf<T> {
    choices: Vec<(u32, BoxedStrategy<T>)>,
}

impl<T> Clone for OneOf<T> {
    fn clone(&self) -> Self {
        OneOf {
            choices: self.choices.clone(),
        }
    }
}

impl<T: Debug> Strategy for OneOf<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        let total: u32 = self.choices.iter().map(|(w, _)| w).sum();
        let mut r = rng.gen_range(0..total);
        for (w, s) in &self.choices {
            if r < *w {
                return s.sample(rng);
            }
            r -= w;
        }
        unreachable!("weights sum covered above")
    }
}

/// Builds a [`OneOf`] from `(weight, strategy)` pairs.
///
/// # Panics
///
/// Panics if `choices` is empty or all weights are zero.
pub fn one_of<T>(choices: Vec<(u32, BoxedStrategy<T>)>) -> OneOf<T> {
    assert!(
        choices.iter().map(|(w, _)| w).sum::<u32>() > 0,
        "prop_oneof! needs at least one positively weighted choice"
    );
    OneOf { choices }
}

/// Collection strategies, mirroring `proptest::collection`.
pub mod collection {
    use super::{Rng, Strategy, TestRng};
    use std::fmt::Debug;
    use std::ops::Range;

    /// Generates `Vec`s with lengths drawn from `size` and elements from
    /// `element`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S>
    where
        S::Value: Debug,
    {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.clone());
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// Strategy for `Vec`s of `element` with length in `size`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }
}

/// Sampling helpers, mirroring `proptest::sample`.
pub mod sample {
    use super::{Arbitrary, RngCore, TestRng};

    /// A position into a not-yet-known collection; resolve with
    /// [`Index::index`].
    #[derive(Debug, Clone, Copy)]
    pub struct Index(u64);

    impl Index {
        /// Maps this abstract position into `0..len`.
        ///
        /// # Panics
        ///
        /// Panics if `len` is zero.
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "cannot index an empty collection");
            (self.0 % len as u64) as usize
        }
    }

    impl Arbitrary for Index {
        fn arbitrary(rng: &mut TestRng) -> Self {
            Index(rng.next_u64())
        }
    }
}

/// The case-loop driver used by the generated test functions.
pub mod runner {
    use super::{ProptestConfig, SeedableRng, TestRng};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn fnv1a(name: &str) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    /// Runs `case` for each configured case with a per-test
    /// deterministic seed sequence. A case that panics is re-panicked
    /// with `describe`'s account of its inputs, re-sampled from the same
    /// seed, so passing cases pay nothing for the report.
    pub fn run<F, D>(config: &ProptestConfig, name: &str, mut case: F, describe: D)
    where
        F: FnMut(&mut TestRng),
        D: Fn(&mut TestRng) -> String,
    {
        let base = fnv1a(name);
        for i in 0..config.cases {
            let seed = base ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut rng = TestRng::seed_from_u64(seed);
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| case(&mut rng))) {
                let message = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("(non-string panic payload)");
                let inputs = describe(&mut TestRng::seed_from_u64(seed));
                panic!(
                    "property {name} failed at case {i} (seed {seed:#018x}, not shrunk)\n\
                     inputs:\n{inputs}{message}"
                );
            }
        }
    }
}

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running the body over sampled inputs.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_items! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            cfg = <$crate::ProptestConfig as ::std::default::Default>::default();
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (
        cfg = $cfg:expr;
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            #[allow(clippy::redundant_closure_call)]
            fn $name() {
                let config = $cfg;
                $crate::runner::run(
                    &config,
                    stringify!($name),
                    |rng| {
                        $(let $arg = $crate::Strategy::sample(&($strat), rng);)+
                        let outcome: $crate::TestCaseResult = (|| {
                            { $body }
                            ::std::result::Result::Ok(())
                        })();
                        let _ = outcome;
                    },
                    |rng| {
                        let mut inputs = ::std::string::String::new();
                        $(
                            inputs.push_str(&::std::format!(
                                "  {} = {:?}\n",
                                stringify!($arg),
                                $crate::Strategy::sample(&($strat), rng),
                            ));
                        )+
                        inputs
                    },
                );
            }
        )*
    };
}

/// Weighted or unweighted choice among strategies producing one type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:literal => $strat:expr),+ $(,)?) => {
        $crate::one_of(vec![
            $(($weight as u32, $crate::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::one_of(vec![
            $((1u32, $crate::Strategy::boxed($strat))),+
        ])
    };
}

/// Skips the current case when the precondition does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Ok(());
        }
    };
}

/// Asserts inside a property body (no shrinking: fails the test
/// immediately).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Equality assertion inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Inequality assertion inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// The glob-import surface, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseResult,
    };

    /// Module-style access (`prop::sample::Index`, `prop::collection`).
    pub mod prop {
        pub use crate::collection;
        pub use crate::sample;
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn small_even() -> impl Strategy<Value = u32> {
        (0u32..100).prop_map(|v| v * 2)
    }

    proptest! {
        #[test]
        fn mapped_values_hold_invariant(v in small_even()) {
            prop_assert_eq!(v % 2, 0);
            prop_assert!(v < 200);
        }

        #[test]
        fn tuples_and_vecs(
            (a, b) in (0u8..10, 5i64..8),
            xs in crate::collection::vec(0u64..4, 2..6),
        ) {
            prop_assert!(a < 10);
            prop_assert!((5..8).contains(&b));
            prop_assert!((2..6).contains(&xs.len()));
            prop_assert!(xs.iter().all(|&x| x < 4));
        }

        #[test]
        fn assume_skips(v in 0u32..10) {
            prop_assume!(v >= 5);
            prop_assert!(v >= 5);
        }

        #[test]
        fn index_resolves(at in any::<prop::sample::Index>()) {
            let pos = at.index(7);
            prop_assert!(pos < 7);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(3))]

        #[test]
        fn oneof_mixes_heterogeneous_arms(v in prop_oneof![
            2 => (0i64..10).prop_map(|x| x),
            1 => Just(-1i64),
        ]) {
            prop_assert!(v == -1 || (0..10).contains(&v));
        }
    }

    proptest! {
        // No `#[test]`: run, and expected to fail, by the test below.
        fn never_empty(
            xs in crate::collection::vec(0u8..4, 1..3),
            (tag, n) in (Just(7u8), 0i64..1),
        ) {
            prop_assert!(xs.is_empty(), "never empty: tag {}, n {}", tag, n);
        }
    }

    #[test]
    fn failing_case_reports_its_inputs() {
        let payload = std::panic::catch_unwind(never_empty).expect_err("every case fails");
        let report = payload
            .downcast_ref::<String>()
            .expect("a formatted report");
        let first = "property never_empty failed at case 0 (seed 0x";
        assert!(report.starts_with(first), "{report}");
        assert!(report.contains("\ninputs:\n  xs = ["), "{report}");
        assert!(report.contains("]\n  (tag, n) = (7, 0)\n"), "{report}");
        // The original message survives, so `should_panic(expected)` matches.
        assert!(report.ends_with("never empty: tag 7, n 0"), "{report}");
    }

    #[test]
    fn oneof_unweighted_covers_all_arms() {
        use rand::SeedableRng;
        let s = prop_oneof![Just(1u8), Just(2u8), Just(3u8)];
        let mut rng = crate::TestRng::seed_from_u64(5);
        let mut seen = [false; 3];
        for _ in 0..100 {
            seen[(s.sample(&mut rng) - 1) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
