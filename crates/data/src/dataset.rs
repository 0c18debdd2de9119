//! The materialized relation `B` of `(x, u)` pairs (paper Definition 3 ff.).
//!
//! Row-major flat storage: the feature block is one contiguous `Vec<f64>`
//! (`n·d` entries), outputs a second `Vec<f64>`. This is the layout the
//! store crate's access paths scan, so a full selection pass touches memory
//! sequentially.

use crate::error::DataError;
use crate::function::DataFunction;
use crate::rng::sample_gaussian;
use rand::{Rng, RngExt};

/// Options for materializing a dataset from a [`DataFunction`].
#[derive(Debug, Clone, Copy)]
pub struct SampleOptions {
    /// Std-dev of Gaussian noise added to each stored feature *after* the
    /// target is computed from the clean input (models measurement noise on
    /// the predictors — the paper's R2 adds `N(0,1)` feature noise).
    pub feature_noise_std: f64,
    /// Std-dev of Gaussian noise added to the stored target.
    pub target_noise_std: f64,
    /// Scale outputs to `[0, 1]`. Uses the function's analytic
    /// [`DataFunction::output_range`] when available, otherwise the range of
    /// the generated batch. (The paper scales all attributes to `[0, 1]` for
    /// R1 and reports R2 errors on a unit scale.)
    pub normalize_output: bool,
}

impl Default for SampleOptions {
    fn default() -> Self {
        SampleOptions {
            feature_noise_std: 0.0,
            target_noise_std: 0.0,
            normalize_output: true,
        }
    }
}

/// An in-memory dataset `B = {(x_i, u_i)}` with `x_i ∈ R^d`, `u_i ∈ R`.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    dim: usize,
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl Dataset {
    /// Empty dataset of input dimension `dim`.
    pub fn new(dim: usize) -> Self {
        assert!(dim >= 1, "dimension must be at least 1");
        Dataset {
            dim,
            xs: Vec::new(),
            ys: Vec::new(),
        }
    }

    /// Empty dataset with reserved capacity for `n` rows.
    pub fn with_capacity(dim: usize, n: usize) -> Self {
        assert!(dim >= 1, "dimension must be at least 1");
        Dataset {
            dim,
            xs: Vec::with_capacity(n * dim),
            ys: Vec::with_capacity(n),
        }
    }

    /// Append one `(x, u)` row.
    ///
    /// # Errors
    /// [`DataError::DimensionMismatch`] if `x.len() != dim`.
    pub fn push(&mut self, x: &[f64], u: f64) -> Result<(), DataError> {
        if x.len() != self.dim {
            return Err(DataError::DimensionMismatch {
                expected: self.dim,
                actual: x.len(),
            });
        }
        self.xs.extend_from_slice(x);
        self.ys.push(u);
        Ok(())
    }

    /// Input dimensionality `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows `n`.
    #[inline]
    pub fn len(&self) -> usize {
        self.ys.len()
    }

    /// `true` when the dataset has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ys.is_empty()
    }

    /// Feature vector of row `i`.
    #[inline]
    pub fn x(&self, i: usize) -> &[f64] {
        &self.xs[i * self.dim..(i + 1) * self.dim]
    }

    /// Output value of row `i`.
    #[inline]
    pub fn y(&self, i: usize) -> f64 {
        self.ys[i]
    }

    /// The contiguous row-major feature block.
    #[inline]
    pub fn xs_flat(&self) -> &[f64] {
        &self.xs
    }

    /// All output values.
    #[inline]
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }

    /// Iterator over `(x_i, u_i)` rows.
    pub fn iter(&self) -> impl Iterator<Item = (&[f64], f64)> + '_ {
        self.xs.chunks_exact(self.dim).zip(self.ys.iter().copied())
    }

    /// `(min, max)` of the output column.
    ///
    /// # Errors
    /// [`DataError::Empty`] on an empty dataset.
    pub fn output_bounds(&self) -> Result<(f64, f64), DataError> {
        if self.is_empty() {
            return Err(DataError::Empty);
        }
        let lo = self.ys.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = self.ys.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Ok((lo, hi))
    }

    /// Materialize `n` rows by sampling the function's domain uniformly.
    ///
    /// Targets are computed from the *clean* inputs; noise (per
    /// [`SampleOptions`]) is then applied to the stored copies. With
    /// `normalize_output`, targets are affinely mapped to `[0, 1]`.
    pub fn from_function<F: DataFunction + ?Sized, R: Rng + ?Sized>(
        f: &F,
        n: usize,
        opts: SampleOptions,
        rng: &mut R,
    ) -> Dataset {
        let d = f.dim();
        let domain = f.domain();
        let mut ds = Dataset::with_capacity(d, n);
        let mut x = vec![0.0; d];
        for _ in 0..n {
            for (xi, (lo, hi)) in x.iter_mut().zip(domain.iter()) {
                *xi = rng.random_range(*lo..*hi);
            }
            let mut u = f.eval(&x);
            if opts.target_noise_std > 0.0 {
                u = sample_gaussian(rng, u, opts.target_noise_std);
            }
            if opts.feature_noise_std > 0.0 {
                for xi in x.iter_mut() {
                    *xi = sample_gaussian(rng, *xi, opts.feature_noise_std);
                }
            }
            ds.xs.extend_from_slice(&x);
            ds.ys.push(u);
        }
        if opts.normalize_output {
            let (lo, hi) = match f.output_range() {
                Some(r) => r,
                None => ds.output_bounds().expect("n >= 1 when normalizing"),
            };
            let span = hi - lo;
            if span > 0.0 {
                for y in ds.ys.iter_mut() {
                    *y = (*y - lo) / span;
                }
            }
        }
        ds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::FnFunction;
    use crate::generators::Rosenbrock;
    use crate::rng::seeded;

    #[test]
    fn push_and_access_round_trip() {
        let mut ds = Dataset::new(2);
        ds.push(&[1.0, 2.0], 3.0).unwrap();
        ds.push(&[4.0, 5.0], 6.0).unwrap();
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.x(1), &[4.0, 5.0]);
        assert_eq!(ds.y(0), 3.0);
        let rows: Vec<_> = ds.iter().collect();
        assert_eq!(rows[1], (&[4.0, 5.0][..], 6.0));
    }

    #[test]
    fn push_rejects_wrong_dimension() {
        let mut ds = Dataset::new(3);
        assert!(matches!(
            ds.push(&[1.0], 0.0),
            Err(DataError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn bounds_of_empty_dataset_error() {
        let ds = Dataset::new(2);
        assert!(matches!(ds.output_bounds(), Err(DataError::Empty)));
    }

    #[test]
    fn from_function_samples_inside_domain() {
        let f = FnFunction::new("lin", 2, vec![(-1.0, 1.0), (2.0, 3.0)], |x| x[0] + x[1]);
        let mut rng = seeded(1);
        let ds = Dataset::from_function(
            &f,
            500,
            SampleOptions {
                normalize_output: false,
                ..Default::default()
            },
            &mut rng,
        );
        assert_eq!(ds.len(), 500);
        for (x, u) in ds.iter() {
            assert!((-1.0..=1.0).contains(&x[0]) && (2.0..=3.0).contains(&x[1]));
            // Target equals the clean function of the stored features (no noise).
            assert!((u - (x[0] + x[1])).abs() < 1e-12);
        }
    }

    #[test]
    fn normalize_output_maps_to_unit_interval() {
        let f = Rosenbrock::new(2);
        let mut rng = seeded(2);
        let ds = Dataset::from_function(&f, 1000, SampleOptions::default(), &mut rng);
        let (lo, hi) = ds.output_bounds().unwrap();
        assert!(lo >= 0.0, "lo = {lo}");
        assert!(hi <= 1.0, "hi = {hi}");
    }

    #[test]
    fn target_noise_perturbs_outputs() {
        let f = FnFunction::unit_box("const", 1, |_| 0.5);
        let mut rng = seeded(3);
        let ds = Dataset::from_function(
            &f,
            200,
            SampleOptions {
                target_noise_std: 0.1,
                normalize_output: false,
                ..Default::default()
            },
            &mut rng,
        );
        let distinct = ds.ys().iter().filter(|&&y| (y - 0.5).abs() > 1e-9).count();
        assert!(distinct > 150, "noise had no effect");
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let f = Rosenbrock::new(2);
        let a = Dataset::from_function(&f, 50, SampleOptions::default(), &mut seeded(9));
        let b = Dataset::from_function(&f, 50, SampleOptions::default(), &mut seeded(9));
        assert_eq!(a, b);
    }
}
