//! Offline stand-in for the `proptest` crate.
//!
//! The build environment cannot reach a crates.io registry, so the
//! workspace vendors the subset of proptest it uses: the [`proptest!`]
//! macro, `prop_assert*` macros, [`Strategy`] with `prop_map`, `any::<T>()`,
//! integer/float range strategies, tuple strategies and
//! [`collection::vec`]. Cases are sampled from a deterministic
//! per-test-function seed; there is **no shrinking** — a failing case
//! reports its case index and seed instead.
//!
//! Two environment variables turn the fixed suite into a soak (see
//! [`run_settings`]): `PROPTEST_CASES` overrides every block's case count
//! and `PROPTEST_SEED` is mixed into every per-test seed. Unset, every
//! property checks exactly the cases it always did.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// Run-time configuration for a [`proptest!`] block.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases each property is checked against.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

/// A failed property case (carried out of the test body by `prop_assert*`).
#[derive(Debug, Clone)]
pub struct TestCaseError(pub String);

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Deterministic SplitMix64 case generator.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Builds a generator from a seed.
    pub fn from_seed(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next pseudo-random word.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// FNV-1a over a string — used by [`proptest!`] to derive a stable
/// per-test seed from the test's module path and name.
pub const fn fnv1a(s: &str) -> u64 {
    let bytes = s.as_bytes();
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    let mut i = 0;
    while i < bytes.len() {
        hash ^= bytes[i] as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        i += 1;
    }
    hash
}

/// The case count and base seed a [`proptest!`] property runs with.
///
/// `cases` is the block's configured count and `seed` the property's own
/// seed (an [`fnv1a`] of its path). `cases_override` and `seed_override`
/// are the values of `PROPTEST_CASES` and `PROPTEST_SEED`, if set: the
/// first replaces the count, the second is mixed into the seed, so every
/// soak seed checks a different set of cases for every property. With
/// both `None` the block's count and the property's seed come back
/// unchanged.
///
/// # Panics
///
/// Panics when an override is not a decimal integer.
///
/// ```
/// let (cases, seed) = proptest::run_settings(24, 0xfeed, None, None);
/// assert_eq!((cases, seed), (24, 0xfeed));
/// let (cases, seed) = proptest::run_settings(24, 0xfeed, Some("256"), Some("9"));
/// assert_eq!(cases, 256);
/// assert_ne!(seed, 0xfeed);
/// ```
pub fn run_settings(
    cases: u32,
    seed: u64,
    cases_override: Option<&str>,
    seed_override: Option<&str>,
) -> (u32, u64) {
    let cases = cases_override.map_or(cases, |value| {
        value
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("PROPTEST_CASES={value:?} is not a case count"))
    });
    let seed = seed_override.map_or(seed, |value| {
        let soak: u64 = value
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("PROPTEST_SEED={value:?} is not a seed"));
        seed ^ TestRng::from_seed(soak).next_u64()
    });
    (cases, seed)
}

/// A generator of test values.
pub trait Strategy {
    /// The value type produced.
    type Value;

    /// Samples one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps the produced values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

/// Strategy returned by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Samples an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            #[allow(clippy::cast_possible_truncation)]
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_f64()
    }
}

impl<T: Arbitrary> Arbitrary for Option<T> {
    fn arbitrary(rng: &mut TestRng) -> Self {
        if rng.next_u64() & 1 == 1 {
            Some(T::arbitrary(rng))
        } else {
            None
        }
    }
}

/// Strategy for any value of `T` (see [`any`]).
#[derive(Debug, Clone)]
pub struct Any<T>(PhantomData<T>);

/// The canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! impl_range_strategy_int {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                let off = (u128::from(rng.next_u64()) % span) as i128;
                (self.start as i128 + off) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let off = (u128::from(rng.next_u64()) % span) as i128;
                (lo as i128 + off) as $t
            }
        }
    )*};
}
impl_range_strategy_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}
impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// A length range for collection strategies.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { lo: n, hi: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            Self {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            Self {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// Strategy for `Vec<S::Value>` with a length drawn from a [`SizeRange`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Builds a [`VecStrategy`].
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let span = (self.size.hi - self.size.lo) as u64 + 1;
            let len = self.size.lo + (rng.next_u64() % span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Everything a property test file normally imports.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Arbitrary, Just,
        ProptestConfig, Strategy, TestCaseError,
    };
}

/// Asserts a condition inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError(format!(
                "assertion failed: {} at {}:{}",
                stringify!($cond),
                file!(),
                line!()
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError(format!($($fmt)+)));
        }
    };
}

/// Skips the current case when the assumption does not hold. The stub
/// discards the case instead of resampling, which only thins the case
/// count slightly for realistic assumption densities.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::core::result::Result::Ok(());
        }
    };
}

/// Asserts two expressions are equal inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: `{:?} == {:?}` at {}:{}",
            l,
            r,
            file!(),
            line!()
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, $($fmt)+);
    }};
}

/// Asserts two expressions differ inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l != r,
            "assertion failed: `{:?} != {:?}` at {}:{}",
            l,
            r,
            file!(),
            line!()
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, $($fmt)+);
    }};
}

/// Declares property tests: each `fn name(arg in strategy, ...) { body }`
/// item expands to a `#[test]` running `body` against sampled inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr)
      $( $(#[$meta:meta])*
         fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
      )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let soak_seed = ::std::env::var("PROPTEST_SEED").ok();
                let (cases, seed) = $crate::run_settings(
                    config.cases,
                    $crate::fnv1a(concat!(module_path!(), "::", stringify!($name))),
                    ::std::env::var("PROPTEST_CASES").ok().as_deref(),
                    soak_seed.as_deref(),
                );
                for case in 0..cases {
                    let case_seed =
                        seed ^ u64::from(case).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    let mut rng = $crate::TestRng::from_seed(case_seed);
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                    let outcome: ::core::result::Result<(), $crate::TestCaseError> =
                        (|| {
                            $body
                            ::core::result::Result::Ok(())
                        })();
                    if let ::core::result::Result::Err(err) = outcome {
                        panic!(
                            "property {} failed on case {} of {} (case seed {:#x}, PROPTEST_SEED={}): {}",
                            stringify!($name),
                            case,
                            cases,
                            case_seed,
                            soak_seed.as_deref().unwrap_or("unset"),
                            err
                        );
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_hold(x in 3usize..10, y in 1u64..=4, f in 0.25f64..0.75) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((1..=4).contains(&y));
            prop_assert!((0.25..0.75).contains(&f));
        }

        #[test]
        fn vec_and_tuple_strategies(
            v in crate::collection::vec(any::<bool>(), 2..5),
            pair in (0usize..3, any::<u8>()),
        ) {
            prop_assert!(v.len() >= 2 && v.len() < 5);
            prop_assert!(pair.0 < 3);
        }

        #[test]
        fn prop_map_applies(n in (0u64..8).prop_map(|v| v * 2)) {
            prop_assert_eq!(n % 2, 0);
            prop_assert_ne!(n, 17);
        }
    }

    #[test]
    fn soak_overrides_change_only_what_they_name() {
        let seed = crate::fnv1a("module::property");
        // Unset: the block's count and the property's own seed.
        assert_eq!(crate::run_settings(24, seed, None, None), (24, seed));
        // A case count replaces the block's and leaves the seed alone.
        assert_eq!(
            crate::run_settings(24, seed, Some(" 256 "), None),
            (256, seed)
        );
        // A soak seed moves every property's seed, reproducibly, and two
        // soak seeds (or two properties under one) never collide.
        let (cases, soaked) = crate::run_settings(24, seed, None, Some("41"));
        assert_eq!(cases, 24);
        assert_ne!(soaked, seed);
        assert_eq!(crate::run_settings(24, seed, None, Some("41")).1, soaked);
        assert_ne!(crate::run_settings(24, seed, None, Some("42")).1, soaked);
        let other = crate::fnv1a("module::other");
        assert_ne!(crate::run_settings(24, other, None, Some("41")).1, soaked);
        assert_ne!(crate::run_settings(24, seed, None, Some("0")).1, seed);
    }

    #[test]
    #[should_panic(expected = "PROPTEST_CASES")]
    fn a_malformed_case_count_is_refused() {
        crate::run_settings(24, 1, Some("many"), None);
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = crate::TestRng::from_seed(9);
        let mut b = crate::TestRng::from_seed(9);
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
