//! Offline, deterministic mini-proptest.
//!
//! The build environment has no registry access, so the real proptest
//! cannot be fetched. This shim implements the subset of its API the
//! workspace's property tests use — `proptest!`, `prop_oneof!`,
//! `prop_assert!`/`prop_assert_eq!`, `Strategy` with `prop_map`, integer
//! ranges, tuples, `Just`, `any`, `prop::collection::vec`, and
//! `ProptestConfig::with_cases` — over a seeded SplitMix64 generator.
//!
//! Differences from the real crate, both deliberate:
//!
//! * **Fully deterministic.** Cases derive from a fixed seed mixed with the
//!   test name, so failures reproduce bit-for-bit on every run — the same
//!   reproducibility contract the simulator itself keeps (DESIGN.md §5).
//! * **No shrinking.** A failing case panics with its inputs via the
//!   `prop_assert*` message instead of searching for a minimal one.

/// Test-runner types (`ProptestConfig`, the RNG driving generation).
pub mod test_runner {
    /// Runner configuration; only `cases` is modeled.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of generated cases per test.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` cases per test.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            // The real default (256) makes the heavier machine-level
            // properties slow in debug CI; 96 keeps good coverage while
            // staying fast, and determinism means reruns add nothing.
            ProptestConfig { cases: 96 }
        }
    }

    /// SplitMix64 — the same generator family the simulator uses.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// A generator seeded from the test name, so distinct tests draw
        /// distinct but reproducible streams.
        pub fn deterministic(name: &str) -> Self {
            let mut seed = 0x5ec0_d15e_c0d1_5eedu64;
            for b in name.bytes() {
                seed = mix64(seed ^ u64::from(b));
            }
            TestRng { state: seed }
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            mix64(self.state)
        }

        /// Uniform value in `[0, bound)`; `bound` must be positive.
        pub fn next_below(&mut self, bound: u64) -> u64 {
            debug_assert!(bound > 0);
            ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
        }
    }

    fn mix64(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Value-generation strategies.
pub mod strategy {
    use super::test_runner::TestRng;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Type-erases the strategy (used by `prop_oneof!`).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Box::new(move |rng| self.generate(rng)))
        }
    }

    /// Always yields a clone of the given value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;
        fn generate(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// See [`Strategy::boxed`].
    pub struct BoxedStrategy<V>(Box<dyn Fn(&mut TestRng) -> V>);

    impl<V> Strategy for BoxedStrategy<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            (self.0)(rng)
        }
    }

    /// Uniform choice among equally-weighted alternatives (`prop_oneof!`).
    pub struct Union<V> {
        arms: Vec<BoxedStrategy<V>>,
    }

    impl<V> Union<V> {
        /// Builds a union; `arms` must be non-empty.
        pub fn new(arms: Vec<BoxedStrategy<V>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            let i = rng.next_below(self.arms.len() as u64) as usize;
            self.arms[i].generate(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as u64) - (self.start as u64);
                    self.start + (rng.next_below(span) as $t)
                }
            }
        )*};
    }
    int_range_strategy!(u8, u16, u32, u64, usize);

    macro_rules! tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[expect(non_snake_case, reason = "the bindings reuse the type parameters' names")]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }
    tuple_strategy!(A);
    tuple_strategy!(A, B);
    tuple_strategy!(A, B, C);
    tuple_strategy!(A, B, C, D);
}

/// `any::<T>()` support for the primitive types the tests draw.
pub mod arbitrary {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;

    /// Types with a full-range uniform generator.
    pub trait Arbitrary {
        /// Draws one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arb_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    arb_int!(u8, u16, u32, u64, usize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// The strategy returned by [`any`].
    pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

    impl<T: Arbitrary> Strategy for AnyStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// A strategy over the whole domain of `T`.
    pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
        AnyStrategy(std::marker::PhantomData)
    }
}

/// Sub-strategies addressed as `prop::...` (collections).
pub mod prop {
    /// Collection strategies (`prop::collection::vec`).
    pub mod collection {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;
        use std::ops::Range;

        /// The strategy returned by [`vec()`].
        pub struct VecStrategy<S> {
            element: S,
            size: Range<usize>,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
                let span = (self.size.end - self.size.start).max(1) as u64;
                let len = self.size.start + rng.next_below(span) as usize;
                (0..len).map(|_| self.element.generate(rng)).collect()
            }
        }

        /// A vector of `size.start..size.end` elements drawn from `element`.
        pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
            VecStrategy { element, size }
        }
    }
}

/// One-glob import mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::prop;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

/// Equal-weight choice among strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

/// Assertion inside a `proptest!` body (panics; no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Equality assertion inside a `proptest!` body (panics; no shrinking).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Defines `#[test]` functions whose arguments are drawn from strategies.
///
/// Supports the real macro's surface as used in this workspace: an optional
/// leading `#![proptest_config(...)]`, doc comments/attributes on each test,
/// and `name in strategy` bindings.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            cfg = <$crate::test_runner::ProptestConfig as Default>::default();
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let mut rng = $crate::test_runner::TestRng::deterministic(stringify!($name));
            for _case in 0..config.cases {
                $(let $arg = $crate::strategy::Strategy::generate(&$strat, &mut rng);)+
                $body
            }
        }
    )*};
}
