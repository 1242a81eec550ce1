//! Offline stand-in for the `proptest` crate.
//!
//! The build container cannot reach crates.io, so this workspace vendors
//! the subset of the proptest API its property tests use: the `proptest!`
//! macro, `Strategy` with `prop_map`/`prop_flat_map`, range and tuple
//! strategies, `any`, `Just`, `prop_oneof!`, `collection::vec`, and
//! `sample::select`.
//!
//! Semantics: each test case draws fresh random inputs from a generator
//! seeded by the test's fully-qualified name and case index, so runs are
//! deterministic and reproducible. There is **no shrinking** — on failure
//! the offending inputs are printed verbatim instead.

use std::fmt;
use std::rc::Rc;

/// Error raised by `prop_assert!`-style macros inside a property body.
#[derive(Debug, Clone)]
pub struct TestCaseError(pub String);

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<String> for TestCaseError {
    fn from(s: String) -> Self {
        TestCaseError(s)
    }
}

impl From<&str> for TestCaseError {
    fn from(s: &str) -> Self {
        TestCaseError(s.to_string())
    }
}

/// Per-test configuration (`#![proptest_config(..)]`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Configuration running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Deterministic test-case generator (SplitMix64 core).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Generator for case `case` of the test named `name`.
    pub fn for_case(name: &str, case: u64) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng {
            state: h ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// Next raw 64-bit word.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "TestRng::below(0)");
        self.next_u64() % n
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A source of random values of one type — the sampling core of
/// proptest's `Strategy`.
pub trait Strategy {
    /// Type of value produced.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps produced values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Feeds produced values into a strategy-returning `f` and samples
    /// the result.
    fn prop_flat_map<U: Strategy, F: Fn(Self::Value) -> U>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }

    /// Retries sampling until `f` accepts the value (up to a fixed retry
    /// budget; panics if the filter rejects everything).
    fn prop_filter<F: Fn(&Self::Value) -> bool>(self, whence: &'static str, f: F) -> Filter<Self, F>
    where
        Self: Sized,
    {
        Filter {
            inner: self,
            f,
            whence,
        }
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Rc::new(move |rng: &mut TestRng| self.sample(rng)))
    }
}

/// Type-erased strategy.
#[derive(Clone)]
pub struct BoxedStrategy<V>(Rc<dyn Fn(&mut TestRng) -> V>);

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;

    fn sample(&self, rng: &mut TestRng) -> V {
        (self.0)(rng)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn sample(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U: Strategy, F: Fn(S::Value) -> U> Strategy for FlatMap<S, F> {
    type Value = U::Value;

    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (self.f)(self.inner.sample(rng)).sample(rng)
    }
}

/// See [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    inner: S,
    f: F,
    whence: &'static str,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;

    fn sample(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..1000 {
            let v = self.inner.sample(rng);
            if (self.f)(&v) {
                return v;
            }
        }
        panic!("prop_filter exhausted retries: {}", self.whence);
    }
}

/// Strategy producing one fixed (cloned) value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice between boxed alternatives (`prop_oneof!`).
pub struct Union<V> {
    arms: Vec<BoxedStrategy<V>>,
}

impl<V> Union<V> {
    /// Builds a union; panics on an empty arm list.
    pub fn new(arms: Vec<BoxedStrategy<V>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;

    fn sample(&self, rng: &mut TestRng) -> V {
        let i = rng.below(self.arms.len() as u64) as usize;
        self.arms[i].sample(rng)
    }
}

/// Values with a canonical "arbitrary" strategy (`any::<T>()`).
pub trait Arbitrary: Sized {
    /// Draws one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arb_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f32 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        (rng.unit_f64() * 2.0 - 1.0) as f32 * 1.0e3
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        (rng.unit_f64() * 2.0 - 1.0) * 1.0e6
    }
}

/// Strategy wrapper returned by [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

/// The canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = (rng.next_u64() as u128) % span;
                (self.start as i128 + v as i128) as $t
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let v = (rng.next_u64() as u128) % span;
                (lo as i128 + v as i128) as $t
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_float_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                self.start + (self.end - self.start) * rng.unit_f64() as $t
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                lo + (hi - lo) * rng.unit_f64() as $t
            }
        }
    )*};
}

impl_float_range_strategy!(f32, f64);

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6)
    (A.0, B.1, C.2, D.3, E.4, F.5, G.6, H.7)
}

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Length specification accepted by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // inclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// Strategy producing `Vec`s of `element` with a length in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64 + 1;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Sampling strategies (`proptest::sample`).
pub mod sample {
    use super::{Strategy, TestRng};

    /// Strategy choosing one element of `options` uniformly.
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "sample::select on empty options");
        Select { options }
    }

    /// See [`select`].
    pub struct Select<T: Clone> {
        options: Vec<T>,
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;

        fn sample(&self, rng: &mut TestRng) -> T {
            self.options[rng.below(self.options.len() as u64) as usize].clone()
        }
    }
}

/// Everything a property test file typically imports.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError,
    };
}

/// Skips the current property case unless `cond` holds. Without
/// shrinking there is no rejection bookkeeping — the case just passes
/// vacuously, as upstream proptest does when the assumption fails.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Ok(());
        }
    };
}

/// Fails the current property case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::from(format!(
                "assertion failed: {} at {}:{}",
                stringify!($cond),
                file!(),
                line!()
            )));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err($crate::TestCaseError::from(format!(
                "assertion failed: {} ({}) at {}:{}",
                stringify!($cond),
                format!($($fmt)*),
                file!(),
                line!()
            )));
        }
    };
}

/// Fails the current property case unless the operands compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (left, right) = (&$a, &$b);
        if !(left == right) {
            return Err($crate::TestCaseError::from(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?} at {}:{}",
                stringify!($a),
                stringify!($b),
                left,
                right,
                file!(),
                line!()
            )));
        }
    }};
}

/// Fails the current property case when the operands compare equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (left, right) = (&$a, &$b);
        if left == right {
            return Err($crate::TestCaseError::from(format!(
                "assertion failed: `{} != {}`\n  both: {:?} at {}:{}",
                stringify!($a),
                stringify!($b),
                left,
                file!(),
                line!()
            )));
        }
    }};
}

/// Uniform choice among strategies that produce one common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

/// Declares property tests: each `#[test] fn name(arg in strategy, ..)`
/// runs `cases` times with freshly sampled inputs.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $crate::proptest! {
            @impl ($cfg)
            $( $(#[$meta])* fn $name($($arg in $strat),+) $body )*
        }
    };
    (
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $crate::proptest! {
            @impl ($crate::ProptestConfig::default())
            $( $(#[$meta])* fn $name($($arg in $strat),+) $body )*
        }
    };
    (
        @impl ($cfg:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::ProptestConfig = $cfg;
                let __name = concat!(module_path!(), "::", stringify!($name));
                for __case in 0..__config.cases {
                    let mut __rng = $crate::TestRng::for_case(__name, u64::from(__case));
                    $(let $arg = $crate::Strategy::sample(&($strat), &mut __rng);)+
                    let __result: ::std::result::Result<(), $crate::TestCaseError> =
                        (|| { $body Ok(()) })();
                    if let Err(e) = __result {
                        panic!(
                            "proptest case {}/{} of `{}` failed: {}\n  inputs: {}",
                            __case + 1,
                            __config.cases,
                            __name,
                            e,
                            [$(format!("{} = {:?}", stringify!($arg), $arg)),+].join(", "),
                        );
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_bounded(x in 3usize..10, y in -1.0f32..1.0, z in 1u8..=7) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((-1.0..1.0).contains(&y));
            prop_assert!((1..=7).contains(&z));
        }

        #[test]
        fn vec_lengths(v in crate::collection::vec(0u64..5, 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(v.iter().all(|&x| x < 5));
        }

        #[test]
        fn oneof_and_select(
            a in prop_oneof![Just(1usize), (10usize..20).prop_map(|v| v)],
            b in crate::sample::select(vec![4usize, 8]),
        ) {
            prop_assert!(a == 1 || (10..20).contains(&a));
            prop_assert!(b == 4 || b == 8);
        }

        #[test]
        fn flat_map_dependent(pair in (1usize..4).prop_flat_map(|n|
            crate::collection::vec(0usize..10, n).prop_map(move |v| (n, v))
        )) {
            prop_assert_eq!(pair.0, pair.1.len());
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = crate::TestRng::for_case("x", 0);
        let mut b = crate::TestRng::for_case("x", 0);
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
