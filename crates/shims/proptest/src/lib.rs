//! In-tree stand-in for the `proptest` crate (see DESIGN.md, "Hermetic
//! build").
//!
//! Implements the subset the workspace's property tests use: the
//! `proptest!` macro, `prop_assert!`/`prop_assert_eq!`, `any::<T>()`,
//! range and tuple strategies, `Just`, `prop_oneof!`, `prop_map`,
//! `proptest::collection::{vec, btree_set}`, and simple
//! `[class]{m,n}`-style string patterns. Cases are generated from a
//! deterministic per-test RNG (seeded by the test name), so runs are
//! reproducible; there is no shrinking.

#![deny(clippy::unwrap_used, clippy::expect_used)]
// The `proptest!` doc example necessarily shows `#[test]` inside the
// macro input; those functions are compiled (not run) by the doctest.
#![allow(clippy::test_attr_in_doctest)]

/// Deterministic RNG and config.
pub mod test_runner {
    /// SplitMix64: tiny, uniform, deterministic.
    #[derive(Debug, Clone)]
    pub struct TestRng(u64);

    impl TestRng {
        /// Seeded from a test name (stable across runs and platforms).
        pub fn deterministic(name: &str) -> Self {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            TestRng(h)
        }

        /// Next 64 uniform bits.
        pub fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, bound)`; `bound` must be nonzero.
        pub fn below(&mut self, bound: u64) -> u64 {
            self.next_u64() % bound
        }

        /// Uniform in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// Per-proptest-block configuration.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of generated cases per test.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 32 }
        }
    }
}

/// Strategies: composable random-value generators.
pub mod strategy {
    use crate::test_runner::TestRng;

    /// A generator of values of type `Self::Value`.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draw one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Transform generated values.
        fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
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

    /// Always yields a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Full-range strategy for a primitive; see [`crate::prelude::any`].
    pub struct Any<T>(pub(crate) std::marker::PhantomData<T>);

    /// Types with a canonical full-range strategy.
    pub trait Arbitrary {
        /// Draw an unconstrained value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    impl_arbitrary_int!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    macro_rules! impl_range_strategy_int {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let off = (rng.next_u64() as u128) % span;
                    (self.start as i128 + off as i128) as $t
                }
            }
        )*};
    }
    impl_range_strategy_int!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

    impl Strategy for std::ops::Range<f64> {
        type Value = f64;
        fn sample(&self, rng: &mut TestRng) -> f64 {
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident : $i:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$i.sample(rng),)+)
                }
            }
        )*};
    }
    impl_tuple_strategy! {
        (A: 0)
        (A: 0, B: 1)
        (A: 0, B: 1, C: 2)
        (A: 0, B: 1, C: 2, D: 3)
        (A: 0, B: 1, C: 2, D: 3, E: 4)
        (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5)
    }

    /// Boxed, object-safe strategy (used by `prop_oneof!`).
    pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

    impl<V> Strategy for BoxedStrategy<V> {
        type Value = V;
        fn sample(&self, rng: &mut TestRng) -> V {
            (**self).sample(rng)
        }
    }

    /// Box a strategy, erasing its concrete type.
    pub fn boxed<S: Strategy + 'static>(s: S) -> BoxedStrategy<S::Value> {
        Box::new(s)
    }

    /// Uniform choice among alternatives (see `prop_oneof!`).
    pub struct Union<V> {
        options: Vec<BoxedStrategy<V>>,
    }

    impl<V> Union<V> {
        /// Build from boxed alternatives (at least one).
        pub fn new(options: Vec<BoxedStrategy<V>>) -> Self {
            assert!(
                !options.is_empty(),
                "prop_oneof! needs at least one alternative"
            );
            Union { options }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn sample(&self, rng: &mut TestRng) -> V {
            let i = rng.below(self.options.len() as u64) as usize;
            self.options[i].sample(rng)
        }
    }

    /// `&str` patterns act as string strategies for the pattern subset
    /// `[class]{m,n}` (character class with ranges, counted repetition).
    impl Strategy for &'static str {
        type Value = String;
        fn sample(&self, rng: &mut TestRng) -> String {
            let (chars, lo, hi) = parse_pattern(self);
            let len = lo + rng.below((hi - lo + 1) as u64) as usize;
            (0..len)
                .map(|_| chars[rng.below(chars.len() as u64) as usize])
                .collect()
        }
    }

    /// Parse `[class]{m,n}` into (alphabet, min, max).
    fn parse_pattern(pat: &str) -> (Vec<char>, usize, usize) {
        let unsupported = || -> ! {
            panic!(
                "proptest shim: only `[class]{{m,n}}` string patterns are supported, got {pat:?}"
            )
        };
        let rest = pat.strip_prefix('[').unwrap_or_else(|| unsupported());
        let close = rest.find(']').unwrap_or_else(|| unsupported());
        let class: Vec<char> = rest[..close].chars().collect();
        let mut alphabet = Vec::new();
        let mut k = 0;
        while k < class.len() {
            // `a-z` range when `-` sits between two chars; a leading or
            // trailing `-` is literal.
            if k + 2 < class.len() && class[k + 1] == '-' {
                let (a, b) = (class[k], class[k + 2]);
                assert!(a <= b, "bad char range in pattern {pat:?}");
                for c in a..=b {
                    alphabet.push(c);
                }
                k += 3;
            } else {
                alphabet.push(class[k]);
                k += 1;
            }
        }
        let rep = &rest[close + 1..];
        let rep = rep.strip_prefix('{').unwrap_or_else(|| unsupported());
        let rep = rep.strip_suffix('}').unwrap_or_else(|| unsupported());
        let (lo, hi) = match rep.split_once(',') {
            Some((a, b)) => (
                a.trim().parse().unwrap_or_else(|_| unsupported()),
                b.trim().parse().unwrap_or_else(|_| unsupported()),
            ),
            None => {
                let n: usize = rep.trim().parse().unwrap_or_else(|_| unsupported());
                (n, n)
            }
        };
        assert!(!alphabet.is_empty() && lo <= hi, "bad pattern {pat:?}");
        (alphabet, lo, hi)
    }
}

/// Collection strategies.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Length specifications accepted by [`vec()`] / [`btree_set`]: a
    /// `Range<usize>` or an exact `usize`.
    pub trait IntoSizeRange {
        /// The half-open length range.
        fn into_size_range(self) -> std::ops::Range<usize>;
    }

    impl IntoSizeRange for std::ops::Range<usize> {
        fn into_size_range(self) -> std::ops::Range<usize> {
            self
        }
    }

    impl IntoSizeRange for usize {
        fn into_size_range(self) -> std::ops::Range<usize> {
            self..self + 1
        }
    }

    /// `Vec` of `len in range` elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, len: impl IntoSizeRange) -> VecStrategy<S> {
        VecStrategy {
            element,
            len: len.into_size_range(),
        }
    }

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        len: std::ops::Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let n = self.len.clone().sample(rng);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// `BTreeSet` with `len in range` distinct elements (best effort:
    /// if the element domain is too small, the set may come up short of
    /// the drawn target but never empty when `range.start > 0`).
    pub fn btree_set<S>(element: S, len: impl IntoSizeRange) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy {
            element,
            len: len.into_size_range(),
        }
    }

    /// Strategy returned by [`btree_set`].
    pub struct BTreeSetStrategy<S> {
        element: S,
        len: std::ops::Range<usize>,
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        type Value = std::collections::BTreeSet<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let target = self.len.clone().sample(rng).max(self.len.start.max(1));
            let mut out = std::collections::BTreeSet::new();
            let mut attempts = 0;
            while out.len() < target && attempts < target * 20 {
                out.insert(self.element.sample(rng));
                attempts += 1;
            }
            out
        }
    }
}

/// The usual glob import.
pub mod prelude {
    pub use crate::strategy::{Arbitrary, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};

    /// Full-range strategy for a primitive type.
    pub fn any<T: Arbitrary>() -> crate::strategy::Any<T> {
        crate::strategy::Any(std::marker::PhantomData)
    }
}

/// Choose uniformly among alternative strategies of one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![$($crate::strategy::boxed($s)),+])
    };
}

/// Assert inside a `proptest!` body; failure reports the failing case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::core::result::Result::Err(
                format!("prop_assert failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err(
                format!("prop_assert failed: {}: {}", stringify!($cond), format!($($fmt)+)));
        }
    };
}

/// Equality assert inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (l, r) = (&$a, &$b);
        if !(l == r) {
            return ::core::result::Result::Err(
                format!("prop_assert_eq failed: {:?} != {:?}", l, r));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$a, &$b);
        if !(l == r) {
            return ::core::result::Result::Err(
                format!("prop_assert_eq failed: {:?} != {:?}: {}", l, r, format!($($fmt)+)));
        }
    }};
}

/// Define deterministic property tests.
///
/// ```
/// use proptest::prelude::*;
///
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(8))]
///     #[test]
///     fn add_commutes(a in 0i64..100, b in 0i64..100) {
///         prop_assert_eq!(a + b, b + a);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { $crate::test_runner::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($cfg:expr; $( $(#[$meta:meta])* fn $name:ident ( $($arg:pat_param in $strat:expr),+ $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                let mut rng =
                    $crate::test_runner::TestRng::deterministic(concat!(module_path!(), "::", stringify!($name)));
                // A tuple of strategies is itself a strategy producing a
                // tuple; sample it whole to bind all arguments at once.
                let strategies = ( $($strat,)+ );
                for case in 0..config.cases {
                    let ($($arg,)+) =
                        $crate::strategy::Strategy::sample(&strategies, &mut rng);
                    let outcome: ::core::result::Result<(), String> = (|| {
                        $body
                        ::core::result::Result::Ok(())
                    })();
                    if let ::core::result::Result::Err(msg) = outcome {
                        panic!("proptest case {}/{} failed: {}", case + 1, config.cases, msg);
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
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn ranges_respect_bounds(a in -5i64..5, b in 0usize..3, c in 0.0f64..1.0) {
            prop_assert!((-5..5).contains(&a));
            prop_assert!(b < 3);
            prop_assert!((0.0..1.0).contains(&c), "c = {}", c);
        }

        #[test]
        fn collections_and_patterns(
            v in crate::collection::vec(0u32..10, 1..8),
            s in crate::collection::btree_set(0u64..100, 1..10),
            t in "[a-c]{2,4}",
        ) {
            prop_assert!(!v.is_empty() && v.len() < 8);
            prop_assert!(!s.is_empty());
            prop_assert!(t.len() >= 2 && t.len() <= 4);
            prop_assert!(t.chars().all(|c| ('a'..='c').contains(&c)));
        }

        #[test]
        fn oneof_and_map(x in prop_oneof![Just(1i64), (10i64..20).prop_map(|v| v * 2)]) {
            prop_assert!(x == 1 || (20..40).contains(&x));
        }
    }

    #[test]
    fn deterministic_across_runs() {
        use crate::strategy::Strategy;
        let mut r1 = crate::test_runner::TestRng::deterministic("seed");
        let mut r2 = crate::test_runner::TestRng::deterministic("seed");
        let s = 0u64..1000;
        for _ in 0..100 {
            assert_eq!(s.sample(&mut r1), s.sample(&mut r2));
        }
    }
}
