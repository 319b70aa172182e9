//! Offline stand-in for the `proptest` crate (the subset this
//! workspace uses).
//!
//! The container has no crates.io access, so the workspace replaces
//! external dependencies with API-compatible shims (see
//! `compat/README.md`). This one implements randomized property
//! testing with the same surface syntax as upstream `proptest`:
//!
//! * [`Strategy`] with `prop_map`/`boxed`, implemented for integer
//!   ranges, tuples, and collections ([`collection::vec`]),
//! * `proptest! { ... }` with an optional
//!   `#![proptest_config(ProptestConfig::with_cases(N))]` header,
//! * `prop_oneof!`, `prop_assert!`, `prop_assert_eq!`,
//!   `prop_assert_ne!`, and a [`prelude`] exporting the `prop` alias.
//!
//! Differences from upstream: no shrinking (a failing case panics with
//! the generated inputs unreduced) and no persisted failure seeds. Each
//! test's seed is derived from its name, so runs are deterministic.

use std::ops::{Range, RangeInclusive};
use std::rc::Rc;

pub mod test_runner {
    /// Deterministic generator driving value generation (SplitMix64).
    #[derive(Debug, Clone)]
    pub struct TestRng(u64);

    impl TestRng {
        pub fn new(seed: u64) -> Self {
            TestRng(seed)
        }

        pub fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }
    }
}

use test_runner::TestRng;

/// Derives a per-test seed from the test's name (deterministic runs).
#[doc(hidden)]
pub fn __seed_for(name: &str) -> u64 {
    // FNV-1a.
    let mut h = 0xcbf29ce484222325u64;
    for b in name.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100000001b3);
    }
    h
}

/// Reads `CLEAN_TEST_SEED` (default 0). XORed into every per-test seed,
/// so the default run stays byte-identical to the name-derived schedule
/// while any failure is reproducible by exporting the printed value.
#[doc(hidden)]
pub fn __env_seed() -> u64 {
    std::env::var("CLEAN_TEST_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Drop guard that prints the failing test's seed and a one-line repro
/// command if the property body panics.
#[doc(hidden)]
pub struct __SeedGuard {
    pub name: &'static str,
    pub env_seed: u64,
    pub case: u32,
}

impl Drop for __SeedGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let short = self.name.rsplit("::").next().unwrap_or(self.name);
            eprintln!(
                "proptest failure in {} (case {}, CLEAN_TEST_SEED={})\n\
                 repro: CLEAN_TEST_SEED={} cargo test {short}",
                self.name, self.case, self.env_seed, self.env_seed
            );
        }
    }
}

/// Controls how many cases each property runs.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// A recipe for generating values of `Self::Value`.
pub trait Strategy {
    type Value;

    /// Generates one value.
    fn new_value(&self, rng: &mut TestRng) -> Self::Value;

    /// Transforms generated values with `f`.
    fn prop_map<O, F>(self, f: F) -> strategy::Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        strategy::Map { inner: self, f }
    }

    /// Erases the strategy's concrete type.
    fn boxed(self) -> strategy::BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
    {
        strategy::BoxedStrategy(Rc::new(move |rng: &mut TestRng| self.new_value(rng)))
    }
}

pub mod strategy {
    use super::{Strategy, TestRng};
    use std::rc::Rc;

    /// See [`Strategy::prop_map`].
    #[derive(Clone)]
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn new_value(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.new_value(rng))
        }
    }

    /// See [`Strategy::boxed`].
    pub struct BoxedStrategy<V>(pub(crate) Rc<dyn Fn(&mut TestRng) -> V>);

    impl<V> Clone for BoxedStrategy<V> {
        fn clone(&self) -> Self {
            BoxedStrategy(Rc::clone(&self.0))
        }
    }

    impl<V> Strategy for BoxedStrategy<V> {
        type Value = V;
        fn new_value(&self, rng: &mut TestRng) -> V {
            (self.0)(rng)
        }
    }

    /// Uniform choice between alternative strategies (`prop_oneof!`).
    pub struct Union<V>(Vec<BoxedStrategy<V>>);

    impl<V> Union<V> {
        pub fn new(arms: Vec<BoxedStrategy<V>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union(arms)
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn new_value(&self, rng: &mut TestRng) -> V {
            let idx = (rng.next_u64() % self.0.len() as u64) as usize;
            self.0[idx].new_value(rng)
        }
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty strategy range");
                let span = (hi - lo) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo + (rng.next_u64() % (span + 1)) as $t
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn new_value(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty strategy range");
        // 53-bit uniform in [0, 1), scaled into the range.
        let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.start + (self.end - self.start) * unit
    }
}

macro_rules! impl_tuple_strategy {
    ($($s:ident),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            #[allow(non_snake_case)]
            fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                let ($($s,)+) = self;
                ($($s.new_value(rng),)+)
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

pub mod bool {
    use super::{Strategy, TestRng};

    /// Strategy yielding uniformly random booleans.
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    impl Strategy for Any {
        type Value = bool;
        fn new_value(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    pub const ANY: Any = Any;
}

pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Element-count bound for [`vec()`]; converts from `usize` (exact
    /// length) and from half-open/inclusive ranges.
    #[derive(Debug, Clone, Copy)]
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
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// See [`vec()`].
    #[derive(Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn new_value(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo + (rng.next_u64() % (span + 1)) as usize;
            (0..len).map(|_| self.element.new_value(rng)).collect()
        }
    }

    /// Generates vectors whose elements come from `element` and whose
    /// length falls within `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

pub mod prelude {
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
    pub use crate::{ProptestConfig, Strategy};

    /// Alias module mirroring `proptest::prelude::prop`.
    pub mod prop {
        pub use crate::bool;
        pub use crate::collection;
        pub use crate::strategy;
    }
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! { cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    (cfg = $cfg:expr;
     $($(#[$meta:meta])*
       fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let env_seed = $crate::__env_seed();
                let mut rng = $crate::test_runner::TestRng::new(
                    $crate::__seed_for(concat!(module_path!(), "::", stringify!($name)))
                        ^ env_seed,
                );
                for __case in 0..config.cases {
                    let mut __guard = $crate::__SeedGuard {
                        name: concat!(module_path!(), "::", stringify!($name)),
                        env_seed,
                        case: __case,
                    };
                    $(let $pat = $crate::Strategy::new_value(&($strat), &mut rng);)+
                    $body
                    __guard.case = __case; // keep the guard alive past the body
                }
            }
        )*
    };
}

#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            panic!("property failed: {}", stringify!($cond));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            panic!($($fmt)+);
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(, $($fmt:tt)+)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "property failed: {:?} != {:?}{}",
            l,
            r,
            $crate::__ctx!($($($fmt)+)?)
        );
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(, $($fmt:tt)+)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l != r,
            "property failed: {:?} == {:?}{}",
            l,
            r,
            $crate::__ctx!($($($fmt)+)?)
        );
    }};
}

#[doc(hidden)]
#[macro_export]
macro_rules! __ctx {
    () => {
        String::new()
    };
    ($($fmt:tt)+) => {
        format!(": {}", format!($($fmt)+))
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn composite() -> impl Strategy<Value = (u32, bool)> {
        (0u32..100, prop::bool::ANY)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Ranges stay in bounds.
        #[test]
        fn ranges_in_bounds(x in 3u16..=9, y in 0usize..10) {
            prop_assert!((3..=9).contains(&x));
            prop_assert!(y < 10, "y={} escaped", y);
        }

        /// Vec strategy respects length bounds; map applies.
        #[test]
        fn vec_and_map(v in prop::collection::vec((0u8..4).prop_map(|b| b * 2), 1..6)) {
            prop_assert!(!v.is_empty() && v.len() < 6);
            prop_assert!(v.iter().all(|b| b % 2 == 0 && *b < 8));
        }

        /// Oneof picks only listed alternatives; tuples compose.
        #[test]
        fn oneof_and_tuple(choice in prop_oneof![(0u32..1).prop_map(|_| "a"), (0u32..1).prop_map(|_| "b")], pair in composite()) {
            prop_assert!(choice == "a" || choice == "b");
            prop_assert!(pair.0 < 100);
        }
    }

    #[test]
    #[should_panic(expected = "property failed")]
    fn assert_eq_reports_failure() {
        let run = || -> () {
            prop_assert_eq!(1u8, 2u8);
        };
        run();
    }
}
