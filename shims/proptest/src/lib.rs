//! Offline mini-[`proptest`](https://proptest-rs.github.io/proptest/):
//! a small, real property-testing engine exposing exactly the API surface
//! this workspace's `proptest_*.rs` suites use.
//!
//! The build environment has no network access, so the real crate cannot
//! be fetched; rather than disable the property suites, this shim runs
//! them for real with deterministic seeded generation. Differences from
//! upstream proptest, in decreasing order of importance:
//!
//! * **no shrinking** — a failing case reports its seed and case number
//!   (reproduce by setting `REGQ_PROPTEST_SEED`), not a minimized input;
//! * **deterministic by default** — the per-test seed is derived from the
//!   test name, so CI runs are reproducible; set `REGQ_PROPTEST_SEED` to
//!   explore a different stream;
//! * **regex strategies** support the one shape used here, `.{m,n}`.
//!
//! Supported surface: [`proptest!`], [`prop_assert!`], [`prop_assert_eq!`],
//! [`prop_assume!`], [`prop_oneof!`], `ProptestConfig::with_cases`,
//! ranges / tuples / a `.{m,n}` `&str` regex as strategies,
//! `prop::collection::vec`, [`strategy::Just`], `any::<bool>()`,
//! `prop_map` / `prop_filter`.

#![deny(missing_docs)]

pub mod arbitrary;
pub mod collection;
pub mod regex;
pub mod strategy;
pub mod test_runner;

/// One-stop imports mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestCaseResult};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };

    /// Namespace mirror so `prop::collection::vec(..)` resolves.
    pub mod prop {
        pub use crate::collection;
    }
}

/// The `proptest! { ... }` test-suite macro.
///
/// Accepts an optional `#![proptest_config(expr)]` header followed by
/// `#[test]` functions whose arguments are drawn from strategies with the
/// `name in strategy` syntax.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)]
     $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                let mut runner =
                    $crate::test_runner::TestRunner::new(stringify!($name), config);
                runner.run(|rng| {
                    $(
                        let $arg =
                            $crate::strategy::Strategy::new_value(&($strat), rng)?;
                    )+
                    let body_result: $crate::test_runner::TestCaseResult =
                        (|| { $body ::std::result::Result::Ok(()) })();
                    body_result
                });
            }
        )*
    };
    ($($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $crate::proptest! {
            #![proptest_config($crate::test_runner::ProptestConfig::default())]
            $($(#[$meta])* fn $name($($arg in $strat),+) $body)*
        }
    };
}

/// Fail the current test case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// Fail the current test case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}\n{}",
            stringify!($left),
            stringify!($right),
            l,
            r,
            format!($($fmt)*)
        );
    }};
}

/// Fail the current test case unless `left != right`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            l
        );
    }};
}

/// Discard the current case (does not count as a failure) unless `cond`.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::reject(
                concat!("assume failed: ", stringify!($cond)),
            ));
        }
    };
}

/// Choose uniformly between several strategies for the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}
