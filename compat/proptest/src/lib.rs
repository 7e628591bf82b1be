//! Offline API-compatible subset of `proptest` 1.
//!
//! Covers exactly what this workspace's property tests use: the
//! [`proptest!`] macro, `prop_assert*` / [`prop_assume!`], [`Strategy`](strategy::Strategy)
//! with `prop_map`, `any::<T>()`, numeric-range and tuple strategies,
//! `collection::vec` and `sample::subsequence`.
//!
//! Differences from the real crate, by design:
//! - **No shrinking.** A failing case panics with the generated inputs in
//!   scope; rerun under a debugger or add a regression test.
//! - **Deterministic.** The RNG seed is derived from the test function
//!   name, so a property test generates the same cases on every run and
//!   platform (this repo requires a deterministic test suite).

pub mod collection;
pub mod sample;
pub mod strategy;
pub mod test_runner;

/// What `use proptest::prelude::*` is expected to bring into scope.
pub mod prelude {
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Declares deterministic property tests.
///
/// Supports the upstream surface used in this repo:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn my_prop(x in 0u8..16, v in proptest::collection::vec(any::<u8>(), 0..32)) {
///         prop_assert!(x < 16);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_impl {
    (($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident ( $($arg:pat in $strat:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::test_runner::ProptestConfig = $cfg;
            let mut __rng = $crate::test_runner::TestRng::from_name(stringify!($name));
            let mut __accepted: u32 = 0;
            let mut __attempts: u32 = 0;
            while __accepted < __cfg.cases {
                __attempts += 1;
                assert!(
                    __attempts <= __cfg.cases.saturating_mul(20).saturating_add(100),
                    "proptest (offline subset): too many rejected cases in {}",
                    stringify!($name),
                );
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __rng);)+
                let __outcome: ::core::result::Result<(), $crate::test_runner::Rejected> =
                    (move || {
                        $body
                        ::core::result::Result::Ok(())
                    })();
                if __outcome.is_ok() {
                    __accepted += 1;
                }
            }
        }
    )*};
}

/// Like `assert!`, inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Like `assert_eq!`, inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Like `assert_ne!`, inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// Rejects the current case (it is regenerated, not counted as run).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(, $($rest:tt)*)?) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::Rejected);
        }
    };
}
