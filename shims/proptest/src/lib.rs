//! Offline shim for `proptest` (1.x API subset).
//!
//! A deterministic mini property-testing runner: each `#[test]` inside a
//! [`proptest!`] block runs `ProptestConfig::cases` generated cases. Case
//! inputs derive from a splitmix64 stream seeded by the test's name and
//! the case index, so failures reproduce exactly across runs — there is
//! no shrinking, the failing inputs are printed instead.
//!
//! Supported strategy surface (what this workspace uses): integer and
//! float ranges, tuples of strategies, [`collection::vec`],
//! [`sample::select`], and [`any`] for primitives.

pub mod strategy {
    use crate::test_runner::TestRng;

    /// A generator of values of type `Value`.
    pub trait Strategy {
        type Value;
        fn generate(&self, rng: &mut TestRng) -> Self::Value;
    }

    macro_rules! uint_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let width = (self.end as u128) - (self.start as u128);
                    self.start + ((rng.next_u64() as u128 % width) as $t)
                }
            }
        )*};
    }
    uint_range_strategy!(u8, u16, u32, u64, usize);

    macro_rules! sint_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let width = (self.end as i128 - self.start as i128) as u128;
                    (self.start as i128 + (rng.next_u64() as u128 % width) as i128) as $t
                }
            }
        )*};
    }
    sint_range_strategy!(i8, i16, i32, i64, isize);

    impl Strategy for core::ops::Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            let u = rng.unit_f64();
            let v = self.start + u * (self.end - self.start);
            if v >= self.end {
                self.start
            } else {
                v
            }
        }
    }

    impl Strategy for core::ops::Range<f32> {
        type Value = f32;
        fn generate(&self, rng: &mut TestRng) -> f32 {
            ((self.start as f64)..(self.end as f64)).generate(rng) as f32
        }
    }

    macro_rules! tuple_strategy {
        ($(($($n:tt $S:ident),+))*) => {$(
            impl<$($S: Strategy),+> Strategy for ($($S,)+) {
                type Value = ($($S::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$n.generate(rng),)+)
                }
            }
        )*};
    }
    tuple_strategy! {
        (0 A)
        (0 A, 1 B)
        (0 A, 1 B, 2 C)
        (0 A, 1 B, 2 C, 3 D)
    }

    /// Strategy for "any value" of a primitive type; see [`crate::any`].
    pub struct Any<T> {
        _marker: core::marker::PhantomData<T>,
    }

    impl<T> Default for Any<T> {
        fn default() -> Self {
            Any {
                _marker: core::marker::PhantomData,
            }
        }
    }

    macro_rules! any_uint {
        ($($t:ty),*) => {$(
            impl Strategy for Any<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    any_uint!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Any<bool> {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Strategy for Any<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            // Finite, sign-symmetric, spanning many magnitudes.
            let mag = rng.unit_f64() * 80.0 - 40.0; // exponent in [-40, 40)
            let mantissa = rng.unit_f64() * 2.0 - 1.0;
            mantissa * mag.exp2()
        }
    }

    impl Strategy for Any<f32> {
        type Value = f32;
        fn generate(&self, rng: &mut TestRng) -> f32 {
            Any::<f64>::default().generate(rng) as f32
        }
    }
}

/// Strategy for any value of `T` (primitives only in this shim).
pub fn any<T>() -> strategy::Any<T>
where
    strategy::Any<T>: strategy::Strategy,
{
    strategy::Any::default()
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    pub struct VecStrategy<S> {
        element: S,
        size: core::ops::Range<usize>,
    }

    /// `prop::collection::vec(element, size_range)`.
    pub fn vec<S: Strategy>(element: S, size: core::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = self.size.clone().generate(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod sample {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::borrow::Cow;

    pub struct Select<T: Clone + 'static> {
        values: Cow<'static, [T]>,
    }

    /// `prop::sample::select(values)`: one of `values`, uniformly.
    pub fn select<T: Clone + 'static>(values: impl Into<Cow<'static, [T]>>) -> Select<T> {
        let values = values.into();
        assert!(!values.is_empty(), "select from an empty set");
        Select { values }
    }

    impl<T: Clone + 'static> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = (0..self.values.len()).generate(rng);
            self.values[i].clone()
        }
    }
}

pub mod test_runner {
    /// Per-test configuration; only `cases` is meaningful in the shim.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 32 }
        }
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    /// Deterministic splitmix64 stream for one test case.
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Derive the RNG for `(test name, case index)` — stable across runs.
        pub fn for_case(test_name: &str, case: u32) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in test_name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            TestRng {
                state: h ^ (u64::from(case).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            }
        }

        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

/// The proptest entry macro: wraps `#[test] fn name(arg in strategy, ..) { .. }`
/// items into plain `#[test]` functions running `cases` generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { @cfg ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { @cfg ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (@cfg ($cfg:expr)) => {};
    (@cfg ($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            for case in 0..config.cases {
                let mut __rng =
                    $crate::test_runner::TestRng::for_case(stringify!($name), case);
                $(let $arg =
                    $crate::strategy::Strategy::generate(&($strat), &mut __rng);)*
                $body
            }
        }
        $crate::__proptest_items! { @cfg ($cfg) $($rest)* }
    };
}

/// `prop_assert!` — panics on failure (no shrinking in the shim).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// `prop_assert_eq!` — panics on failure (no shrinking in the shim).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// `prop_assert_ne!` — panics on failure (no shrinking in the shim).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

pub mod prelude {
    pub use crate as prop;
    pub use crate::strategy::Strategy;
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{any, prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn ranges_and_vecs(
            n in 3u32..10,
            xs in prop::collection::vec((0u32..4, -1.0f64..1.0), 1..20),
        ) {
            prop_assert!((3..10).contains(&n));
            prop_assert!(!xs.is_empty() && xs.len() < 20);
            for (a, b) in xs {
                prop_assert!(a < 4);
                prop_assert!((-1.0..1.0).contains(&b));
            }
        }

        #[test]
        fn select_draws_from_the_set(x in prop::sample::select(&[2u32, 3, u32::MAX][..])) {
            prop_assert!([2, 3, u32::MAX].contains(&x));
        }

        #[test]
        fn any_is_finite(x in any::<f64>(), b in any::<bool>(), byte in any::<u8>()) {
            prop_assert!(x.is_finite());
            prop_assert!(u8::from(b) <= 1);
            let _ = byte;
        }
    }

    #[test]
    fn deterministic_across_runs() {
        use crate::strategy::Strategy;
        let s = crate::collection::vec(0u64..1000, 5..6);
        let mut r1 = crate::test_runner::TestRng::for_case("t", 3);
        let mut r2 = crate::test_runner::TestRng::for_case("t", 3);
        assert_eq!(s.generate(&mut r1), s.generate(&mut r2));
    }
}
