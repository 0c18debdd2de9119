//! The [`Strategy`] trait and core combinators.

use crate::test_runner::{TestCaseError, TestRng};
use rand::RngExt;

/// How many times a `prop_filter` retries locally before rejecting the
/// whole case back to the runner.
const FILTER_RETRIES: usize = 32;

/// A recipe for generating values of `Self::Value`.
///
/// Unlike real proptest there is no value tree / shrinking: a strategy
/// simply draws a fresh value from the runner's RNG. `Err(Reject)` asks
/// the runner to discard the case and try another.
pub trait Strategy {
    /// The type of values this strategy generates.
    type Value;

    /// Draw one value.
    fn new_value(&self, rng: &mut TestRng) -> Result<Self::Value, TestCaseError>;

    /// Transform generated values with `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Keep only values satisfying `pred`; `whence` labels rejections.
    fn prop_filter<F>(self, whence: &'static str, pred: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter {
            inner: self,
            whence,
            pred,
        }
    }

    /// Type-erase the strategy (used by [`prop_oneof!`](crate::prop_oneof)).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Box::new(self))
    }
}

/// A type-erased strategy.
pub struct BoxedStrategy<T>(Box<dyn Strategy<Value = T>>);

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn new_value(&self, rng: &mut TestRng) -> Result<T, TestCaseError> {
        self.0.new_value(rng)
    }
}

/// Always produces a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn new_value(&self, _rng: &mut TestRng) -> Result<T, TestCaseError> {
        Ok(self.0.clone())
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, U, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;
    fn new_value(&self, rng: &mut TestRng) -> Result<U, TestCaseError> {
        self.inner.new_value(rng).map(&self.f)
    }
}

/// Strategy returned by [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    inner: S,
    whence: &'static str,
    pred: F,
}

impl<S, F> Strategy for Filter<S, F>
where
    S: Strategy,
    F: Fn(&S::Value) -> bool,
{
    type Value = S::Value;
    fn new_value(&self, rng: &mut TestRng) -> Result<S::Value, TestCaseError> {
        for _ in 0..FILTER_RETRIES {
            let v = self.inner.new_value(rng)?;
            if (self.pred)(&v) {
                return Ok(v);
            }
        }
        Err(TestCaseError::reject(self.whence))
    }
}

/// Uniform choice among boxed strategies of one value type.
pub struct Union<T>(Vec<BoxedStrategy<T>>);

impl<T> Union<T> {
    /// Build from the strategies produced by `prop_oneof!`.
    pub fn new(options: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one option");
        Union(options)
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn new_value(&self, rng: &mut TestRng) -> Result<T, TestCaseError> {
        let idx = rng.random_range(0..self.0.len());
        self.0[idx].new_value(rng)
    }
}

macro_rules! range_strategy {
    (float: $($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> Result<$t, TestCaseError> {
                Ok(rng.random_range(self.start..self.end))
            }
        }
    )*};
    (int: $($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> Result<$t, TestCaseError> {
                Ok(rng.random_range(self.start..self.end))
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> Result<$t, TestCaseError> {
                Ok(rng.random_range(*self.start()..=*self.end()))
            }
        }
    )*};
}

range_strategy!(float: f64);
range_strategy!(int: u64, usize, u32, i64, i32);

macro_rules! tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn new_value(&self, rng: &mut TestRng) -> Result<Self::Value, TestCaseError> {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                Ok(($($name.new_value(rng)?,)+))
            }
        }
    };
}

tuple_strategy!(A);
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);

impl Strategy for &'static str {
    type Value = String;
    /// A `&str` strategy is interpreted as a generation *regex*,
    /// matching real proptest. See [`crate::regex`] for the one
    /// supported shape.
    fn new_value(&self, rng: &mut TestRng) -> Result<String, TestCaseError> {
        crate::regex::generate(self, rng).map_err(TestCaseError::fail)
    }
}
