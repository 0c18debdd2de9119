//! `PLR` — piecewise linear regression via Multivariate Adaptive Regression
//! Splines (Friedman, *Annals of Statistics* 19(1), 1991).
//!
//! This is the paper's strongest accuracy baseline (run through the ARESLab
//! Matlab toolbox in the original evaluation) and, per the paper's §VI
//! setup, is configured with:
//!
//! * the **forward pass capped** at a given number of basis functions
//!   (mapped from the LLM prototype count `K`), and
//! * the **GCV penalty per knot set to 3**.
//!
//! The model is `û(x) = Σ_m c_m B_m(x)` where `B₀ ≡ 1` and every other
//! basis function is a product of hinge functions
//! `h(x) = max(0, ±(x_v − t))`. The forward pass greedily adds hinge
//! *pairs* that maximally reduce SSR; the backward pass prunes terms by
//! generalized cross-validation:
//!
//! ```text
//! GCV(M) = (SSR/n) / (1 − C(M)/n)²,   C(M) = M + penalty·(M − 1)/2
//! ```
//!
//! Candidate fits reuse cached Gram blocks (`O(n·m)` per candidate rather
//! than `O(n·m²)`), which keeps per-query PLR tractable for the Fig. 12
//! sweep — though still orders of magnitude slower than LLM prediction,
//! which is the paper's point.

use crate::fit::GoodnessOfFit;
use regq_data::Dataset;
use regq_linalg::{Cholesky, LinalgError, Matrix};

/// Direction of a hinge function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HingeDir {
    /// `max(0, x_v − t)`.
    Plus,
    /// `max(0, t − x_v)`.
    Minus,
}

/// One hinge factor `max(0, ±(x_var − knot))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hinge {
    /// Input variable index.
    pub var: usize,
    /// Knot location `t`.
    pub knot: f64,
    /// Hinge direction.
    pub dir: HingeDir,
}

impl Hinge {
    #[inline]
    fn eval(&self, x: &[f64]) -> f64 {
        let v = match self.dir {
            HingeDir::Plus => x[self.var] - self.knot,
            HingeDir::Minus => self.knot - x[self.var],
        };
        v.max(0.0)
    }
}

/// A basis function: product of hinges (empty product = intercept).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BasisFunction {
    /// Hinge factors; empty for the intercept term.
    pub hinges: Vec<Hinge>,
}

impl BasisFunction {
    /// Interaction degree (number of hinge factors).
    pub fn degree(&self) -> usize {
        self.hinges.len()
    }

    /// `true` if the basis already involves `var`.
    pub fn uses_var(&self, var: usize) -> bool {
        self.hinges.iter().any(|h| h.var == var)
    }

    /// Evaluate the product of hinges at `x`.
    #[inline]
    pub fn eval(&self, x: &[f64]) -> f64 {
        let mut v = 1.0;
        for h in &self.hinges {
            v *= h.eval(x);
            if v == 0.0 {
                return 0.0;
            }
        }
        v
    }
}

/// MARS hyper-parameters (paper defaults baked in).
#[derive(Debug, Clone, Copy)]
pub struct MarsParams {
    /// Maximum number of basis functions including the intercept that the
    /// forward pass may build. The paper maps its LLM prototype count `K`
    /// to this cap via [`MarsParams::for_k_models`].
    pub max_terms: usize,
    /// GCV penalty per knot (paper: 3).
    pub gcv_penalty: f64,
    /// Maximum interaction degree (1 = additive, axis-aligned piecewise
    /// planes — the ARESLab default used by the paper).
    pub max_degree: usize,
    /// Candidate knots per variable (quantile-subsampled from the data).
    pub max_knots_per_dim: usize,
    /// Forward pass stops when the best relative SSR improvement over one
    /// step falls below this.
    pub min_improvement: f64,
}

impl Default for MarsParams {
    fn default() -> Self {
        MarsParams {
            max_terms: 21,
            gcv_penalty: 3.0,
            max_degree: 1,
            max_knots_per_dim: 32,
            min_improvement: 1e-6,
        }
    }
}

impl MarsParams {
    /// Paper §VI: "we set its maximum numbers of the automatically
    /// discovered linear models (in the forward building phase) to K".
    /// `K` local linear pieces need about `K − 1` interior knots, i.e.
    /// `2(K − 1)` hinge terms plus the intercept.
    pub fn for_k_models(k: usize) -> Self {
        MarsParams {
            max_terms: (2 * k.saturating_sub(1) + 1).max(3),
            ..Default::default()
        }
    }
}

/// A fitted MARS model.
#[derive(Debug, Clone)]
pub struct MarsModel {
    /// Basis functions; index 0 is always the intercept.
    pub basis: Vec<BasisFunction>,
    /// Coefficient per basis function.
    pub coeffs: Vec<f64>,
    /// In-sample goodness of fit after the backward pass.
    pub fit: GoodnessOfFit,
    /// GCV score of the selected model.
    pub gcv: f64,
    dim: usize,
}

impl MarsModel {
    /// Predict `û(x)`.
    pub fn predict(&self, x: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), self.dim);
        self.basis
            .iter()
            .zip(self.coeffs.iter())
            .map(|(b, c)| c * b.eval(x))
            .sum()
    }

    /// Number of basis functions (including the intercept).
    pub fn n_basis(&self) -> usize {
        self.basis.len()
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }
}

/// The MARS fitter.
///
/// # Example
///
/// ```
/// use regq_data::Dataset;
/// use regq_exact::{Mars, MarsParams};
///
/// // y = |x - 0.5| is exactly representable with one hinge pair.
/// let mut ds = Dataset::new(1);
/// for i in 0..=100 {
///     let x = i as f64 / 100.0;
///     ds.push(&[x], (x - 0.5f64).abs()).unwrap();
/// }
/// let ids: Vec<usize> = (0..ds.len()).collect();
/// let model = Mars::fit(&ds, &ids, MarsParams::default()).unwrap();
/// assert!(model.fit.fvu < 1e-8);
/// assert!((model.predict(&[0.25]) - 0.25).abs() < 1e-4);
/// ```
pub struct Mars;

impl Mars {
    /// Fit a MARS model over rows `ids` of `ds`.
    ///
    /// # Errors
    /// [`LinalgError::Empty`] on an empty selection; solver errors propagate
    /// if even the intercept-only model cannot be fit (cannot happen for
    /// non-empty finite data).
    pub fn fit(ds: &Dataset, ids: &[usize], params: MarsParams) -> Result<MarsModel, LinalgError> {
        if ids.is_empty() {
            return Err(LinalgError::Empty);
        }
        let n = ids.len();
        let d = ds.dim();
        let y: Vec<f64> = ids.iter().map(|&i| ds.y(i)).collect();
        let yty: f64 = y.iter().map(|v| v * v).sum();

        let knots = candidate_knots(ds, ids, params.max_knots_per_dim);

        // Column cache: design columns for current basis functions.
        let mut basis = vec![BasisFunction::default()];
        let mut cols: Vec<Vec<f64>> = vec![vec![1.0; n]];

        let mut fwd = ForwardState::new(&cols, &y, yty);
        let tss = {
            let mean = y.iter().sum::<f64>() / n as f64;
            y.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>()
        };
        let mut current_ssr = fwd.ssr(&cols, &y).unwrap_or(tss);

        // ---- Forward pass ----
        while basis.len() + 2 <= params.max_terms {
            let mut best: Option<Candidate> = None;
            for (pi, parent) in basis.iter().enumerate() {
                if parent.degree() >= params.max_degree {
                    continue;
                }
                for (var, var_knots) in knots.iter().enumerate() {
                    if parent.uses_var(var) {
                        continue;
                    }
                    for &t in var_knots {
                        let (cplus, cminus) = hinge_pair_columns(ds, ids, &cols[pi], var, t);
                        // Degenerate hinge (all zeros on the data): skip.
                        if is_zero(&cplus) && is_zero(&cminus) {
                            continue;
                        }
                        if let Some(ssr) = fwd.ssr_with_pair(&cols, &y, &cplus, &cminus) {
                            if best.as_ref().is_none_or(|b| ssr < b.ssr) {
                                best = Some(Candidate {
                                    parent: pi,
                                    var,
                                    knot: t,
                                    ssr,
                                    cplus,
                                    cminus,
                                });
                            }
                        }
                    }
                }
            }
            let Some(cand) = best else { break };
            let improvement = (current_ssr - cand.ssr) / tss.max(f64::MIN_POSITIVE);
            if !improvement.is_finite() || improvement < params.min_improvement {
                break;
            }
            // Commit the pair.
            let parent = basis[cand.parent].clone();
            for (dir, col) in [(HingeDir::Plus, cand.cplus), (HingeDir::Minus, cand.cminus)] {
                let mut b = parent.clone();
                b.hinges.push(Hinge {
                    var: cand.var,
                    knot: cand.knot,
                    dir,
                });
                basis.push(b);
                fwd.push_column(&cols, &col, &y);
                cols.push(col);
            }
            current_ssr = cand.ssr;
        }

        // ---- Backward pass ----
        let selected = backward_pass(&cols, &y, n, params.gcv_penalty)?;
        let kept_basis: Vec<BasisFunction> =
            selected.kept.iter().map(|&i| basis[i].clone()).collect();
        let kept_cols: Vec<Vec<f64>> = selected.kept.iter().map(|&i| cols[i].clone()).collect();
        let coeffs = solve_ols_cols(&kept_cols, &y)?;

        let predicted: Vec<f64> = (0..n)
            .map(|r| {
                kept_cols
                    .iter()
                    .zip(coeffs.iter())
                    .map(|(c, b)| b * c[r])
                    .sum()
            })
            .collect();
        let fit = GoodnessOfFit::evaluate(&y, &predicted).expect("non-empty");
        Ok(MarsModel {
            basis: kept_basis,
            coeffs,
            fit,
            gcv: selected.gcv,
            dim: d,
        })
    }
}

struct Candidate {
    parent: usize,
    var: usize,
    knot: f64,
    ssr: f64,
    cplus: Vec<f64>,
    cminus: Vec<f64>,
}

fn is_zero(col: &[f64]) -> bool {
    col.iter().all(|&v| v == 0.0)
}

/// Quantile-subsampled candidate knots per variable over the selection.
fn candidate_knots(ds: &Dataset, ids: &[usize], max_per_dim: usize) -> Vec<Vec<f64>> {
    let d = ds.dim();
    let mut out = Vec::with_capacity(d);
    for var in 0..d {
        let mut vals: Vec<f64> = ids.iter().map(|&i| ds.x(i)[var]).collect();
        vals.sort_by(|a, b| a.partial_cmp(b).expect("finite feature"));
        vals.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        // Drop the extremes: a knot at the boundary creates an all-zero
        // hinge on one side.
        if vals.len() > 2 {
            vals = vals[1..vals.len() - 1].to_vec();
        } else {
            vals.clear();
        }
        if vals.len() > max_per_dim {
            let step = vals.len() as f64 / max_per_dim as f64;
            vals = (0..max_per_dim)
                .map(|k| vals[(k as f64 * step) as usize])
                .collect();
        }
        out.push(vals);
    }
    out
}

/// Columns for the hinge pair `parent · max(0, ±(x_var − t))`.
fn hinge_pair_columns(
    ds: &Dataset,
    ids: &[usize],
    parent_col: &[f64],
    var: usize,
    t: f64,
) -> (Vec<f64>, Vec<f64>) {
    let n = ids.len();
    let mut cp = Vec::with_capacity(n);
    let mut cm = Vec::with_capacity(n);
    for (r, &i) in ids.iter().enumerate() {
        let xv = ds.x(i)[var];
        let p = parent_col[r];
        cp.push(p * (xv - t).max(0.0));
        cm.push(p * (t - xv).max(0.0));
    }
    (cp, cm)
}

/// Cached Gram state for fast candidate evaluation in the forward pass.
///
/// Maintains `G = BᵀB` and `Bᵀy` for the committed columns `B`; scoring a
/// candidate pair `(u, v)` only needs the border blocks (`Bᵀu`, `Bᵀv`,
/// `uᵀu`, `uᵀv`, `vᵀv`, `uᵀy`, `vᵀy`), each `O(n·m)`/`O(n)`.
struct ForwardState {
    gram: Vec<Vec<f64>>, // lower-triangular-ish full storage, m x m
    bty: Vec<f64>,
    yty: f64,
}

impl ForwardState {
    fn new(cols: &[Vec<f64>], y: &[f64], yty: f64) -> Self {
        let m = cols.len();
        let mut gram = vec![vec![0.0; m]; m];
        let mut bty = vec![0.0; m];
        for i in 0..m {
            for j in i..m {
                let v = dot(&cols[i], &cols[j]);
                gram[i][j] = v;
                gram[j][i] = v;
            }
            bty[i] = dot(&cols[i], y);
        }
        ForwardState { gram, bty, yty }
    }

    fn push_column(&mut self, cols: &[Vec<f64>], new_col: &[f64], y: &[f64]) {
        let m = self.gram.len();
        let mut row = Vec::with_capacity(m + 1);
        for c in cols.iter() {
            row.push(dot(c, new_col));
        }
        row.push(dot(new_col, new_col));
        for (i, g) in self.gram.iter_mut().enumerate() {
            g.push(row[i]);
        }
        self.gram.push(row);
        self.bty.push(dot(new_col, y));
    }

    /// SSR of the OLS fit on the current columns.
    fn ssr(&self, _cols: &[Vec<f64>], _y: &[f64]) -> Option<f64> {
        let m = self.gram.len();
        let mut g = Matrix::zeros(m, m);
        for i in 0..m {
            for j in 0..m {
                g[(i, j)] = self.gram[i][j];
            }
        }
        ssr_from_normal_equations(&g, &self.bty, self.yty)
    }

    /// SSR of the OLS fit on current columns plus the candidate pair.
    fn ssr_with_pair(&self, cols: &[Vec<f64>], y: &[f64], u: &[f64], v: &[f64]) -> Option<f64> {
        let m = self.gram.len();
        let mut g = Matrix::zeros(m + 2, m + 2);
        for i in 0..m {
            for j in 0..m {
                g[(i, j)] = self.gram[i][j];
            }
        }
        let mut rhs = Vec::with_capacity(m + 2);
        rhs.extend_from_slice(&self.bty);
        for (k, c) in [u, v].into_iter().enumerate() {
            for (i, col) in cols.iter().enumerate() {
                let val = dot(col, c);
                g[(i, m + k)] = val;
                g[(m + k, i)] = val;
            }
            rhs.push(dot(c, y));
        }
        let uu = dot(u, u);
        let vv = dot(v, v);
        let uv = dot(u, v);
        g[(m, m)] = uu;
        g[(m + 1, m + 1)] = vv;
        g[(m, m + 1)] = uv;
        g[(m + 1, m)] = uv;
        ssr_from_normal_equations(&g, &rhs, self.yty)
    }
}

#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    regq_linalg::vector::dot(a, b)
}

/// `SSR = yᵀy − cᵀ(Bᵀy)` where `c` solves the (ridged) normal equations.
/// Returns `None` when the system is numerically singular even with ridge.
fn ssr_from_normal_equations(gram: &Matrix, bty: &[f64], yty: f64) -> Option<f64> {
    let solve = |g: &Matrix| -> Option<Vec<f64>> {
        Cholesky::factor(g).ok().and_then(|ch| ch.solve(bty).ok())
    };
    let coeffs = solve(gram).or_else(|| {
        let n = gram.rows();
        let mean_diag = (0..n).map(|i| gram[(i, i)]).sum::<f64>() / n as f64;
        let mut ridged = gram.clone();
        ridged.add_diagonal((mean_diag * 1e-10).max(1e-300));
        solve(&ridged)
    })?;
    let explained: f64 = coeffs.iter().zip(bty.iter()).map(|(c, b)| c * b).sum();
    // Clamp tiny negative values from cancellation.
    Some((yty - explained).max(0.0))
}

/// Solve OLS on explicit columns, with the same ridge fallback.
fn solve_ols_cols(cols: &[Vec<f64>], y: &[f64]) -> Result<Vec<f64>, LinalgError> {
    let m = cols.len();
    let mut g = Matrix::zeros(m, m);
    let mut bty = vec![0.0; m];
    for i in 0..m {
        for j in i..m {
            let v = dot(&cols[i], &cols[j]);
            g[(i, j)] = v;
            g[(j, i)] = v;
        }
        bty[i] = dot(&cols[i], y);
    }
    match Cholesky::factor(&g) {
        Ok(ch) => ch.solve(&bty),
        Err(_) => {
            let mean_diag = (0..m).map(|i| g[(i, i)]).sum::<f64>() / m as f64;
            g.add_diagonal((mean_diag * 1e-10).max(1e-300));
            Cholesky::factor(&g)?.solve(&bty)
        }
    }
}

struct BackwardSelection {
    kept: Vec<usize>,
    gcv: f64,
}

/// Friedman's backward deletion: from the full forward model, repeatedly
/// drop the non-intercept term whose removal minimizes SSR, scoring every
/// visited subset by GCV and returning the best one.
fn backward_pass(
    cols: &[Vec<f64>],
    y: &[f64],
    n: usize,
    penalty: f64,
) -> Result<BackwardSelection, LinalgError> {
    let yty: f64 = y.iter().map(|v| v * v).sum();
    let full: Vec<usize> = (0..cols.len()).collect();

    let subset_ssr = |subset: &[usize]| -> Option<f64> {
        let m = subset.len();
        let mut g = Matrix::zeros(m, m);
        let mut bty = vec![0.0; m];
        for (a, &i) in subset.iter().enumerate() {
            for (b, &j) in subset.iter().enumerate().skip(a) {
                let v = dot(&cols[i], &cols[j]);
                g[(a, b)] = v;
                g[(b, a)] = v;
            }
            bty[a] = dot(&cols[i], y);
        }
        ssr_from_normal_equations(&g, &bty, yty)
    };

    let gcv_of = |ssr: f64, m: usize| -> f64 {
        let c = m as f64 + penalty * (m as f64 - 1.0) / 2.0;
        if c >= n as f64 {
            f64::INFINITY
        } else {
            let denom = 1.0 - c / n as f64;
            (ssr / n as f64) / (denom * denom)
        }
    };

    let mut current = full;
    let mut best_kept = current.clone();
    let full_ssr = subset_ssr(&current).ok_or(LinalgError::Empty)?;
    let mut best_gcv = gcv_of(full_ssr, current.len());

    while current.len() > 1 {
        // Find the deletion with the smallest SSR after removal.
        let mut best_del: Option<(usize, f64)> = None;
        for (pos, &idx) in current.iter().enumerate() {
            if idx == 0 {
                continue; // never drop the intercept
            }
            let mut trial = current.clone();
            trial.remove(pos);
            if let Some(ssr) = subset_ssr(&trial) {
                if best_del.is_none_or(|(_, s)| ssr < s) {
                    best_del = Some((pos, ssr));
                }
            }
        }
        let Some((pos, ssr)) = best_del else { break };
        current.remove(pos);
        let g = gcv_of(ssr, current.len());
        if g < best_gcv {
            best_gcv = g;
            best_kept = current.clone();
        }
    }
    Ok(BackwardSelection {
        kept: best_kept,
        gcv: best_gcv,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;
    use regq_data::generators::PiecewiseLinear1d;
    use regq_data::rng::seeded;
    use regq_data::DataFunction;

    fn all_ids(ds: &Dataset) -> Vec<usize> {
        (0..ds.len()).collect()
    }

    fn sampled_1d<F: DataFunction>(f: &F, n: usize, seed: u64) -> Dataset {
        let mut rng = seeded(seed);
        let mut ds = Dataset::new(1);
        let (lo, hi) = f.domain()[0];
        for _ in 0..n {
            let x = rng.random_range(lo..hi);
            ds.push(&[x], f.eval(&[x])).unwrap();
        }
        ds
    }

    #[test]
    fn hinge_eval_is_one_sided() {
        let h = Hinge {
            var: 0,
            knot: 0.5,
            dir: HingeDir::Plus,
        };
        assert!((h.eval(&[0.7]) - 0.2).abs() < 1e-12);
        assert_eq!(h.eval(&[0.3]), 0.0);
        let h = Hinge {
            var: 0,
            knot: 0.5,
            dir: HingeDir::Minus,
        };
        assert!((h.eval(&[0.3]) - 0.2).abs() < 1e-12);
        assert_eq!(h.eval(&[0.7]), 0.0);
    }

    #[test]
    fn intercept_basis_is_constant_one() {
        let b = BasisFunction::default();
        assert_eq!(b.eval(&[42.0, -1.0]), 1.0);
        assert_eq!(b.degree(), 0);
    }

    #[test]
    fn fits_exact_line_with_intercept_only_shape() {
        // y = 2 + 3x: MARS should achieve ~zero SSR; the backward pass may
        // keep hinge terms, but predictions must be exact.
        let mut ds = Dataset::new(1);
        for i in 0..50 {
            let x = i as f64 / 10.0;
            ds.push(&[x], 2.0 + 3.0 * x).unwrap();
        }
        let m = Mars::fit(&ds, &all_ids(&ds), MarsParams::default()).unwrap();
        assert!(m.fit.fvu < 1e-6, "fvu = {}", m.fit.fvu);
        for i in 0..50 {
            let x = i as f64 / 10.0;
            assert!((m.predict(&[x]) - (2.0 + 3.0 * x)).abs() < 1e-4);
        }
    }

    #[test]
    fn recovers_single_knee() {
        // y = max(0, x - 0.5): one hinge, exactly representable.
        let mut ds = Dataset::new(1);
        for i in 0..=100 {
            let x = i as f64 / 100.0;
            ds.push(&[x], (x - 0.5f64).max(0.0)).unwrap();
        }
        let m = Mars::fit(&ds, &all_ids(&ds), MarsParams::default()).unwrap();
        assert!(m.fit.fvu < 1e-8, "fvu = {}", m.fit.fvu);
        // Prediction at the knee and off-knee points.
        assert!(m.predict(&[0.25]).abs() < 1e-4);
        assert!((m.predict(&[0.75]) - 0.25).abs() < 1e-4);
    }

    #[test]
    fn recovers_zigzag_segments() {
        let f = PiecewiseLinear1d::zigzag();
        let ds = sampled_1d(&f, 400, 3);
        let m = Mars::fit(&ds, &all_ids(&ds), MarsParams::default()).unwrap();
        assert!(m.fit.cod > 0.99, "cod = {}", m.fit.cod);
        // Slopes near the true segment slopes at probe points (central
        // differences well inside a segment).
        let probe = |t: f64| (m.predict(&[t + 0.01]) - m.predict(&[t - 0.01])) / 0.02;
        assert!(
            (probe(0.1) - 2.8).abs() < 0.3,
            "slope at 0.1: {}",
            probe(0.1)
        );
        assert!(
            (probe(0.4) + 2.0).abs() < 0.3,
            "slope at 0.4: {}",
            probe(0.4)
        );
    }

    #[test]
    fn max_terms_caps_forward_pass() {
        let f = PiecewiseLinear1d::zigzag();
        let ds = sampled_1d(&f, 300, 5);
        let params = MarsParams {
            max_terms: 3, // intercept + one hinge pair
            ..Default::default()
        };
        let m = Mars::fit(&ds, &all_ids(&ds), params).unwrap();
        assert!(m.n_basis() <= 3);
    }

    #[test]
    fn for_k_models_maps_to_terms() {
        assert_eq!(MarsParams::for_k_models(1).max_terms, 3);
        assert_eq!(MarsParams::for_k_models(4).max_terms, 7);
        assert_eq!(MarsParams::for_k_models(6).max_terms, 11);
    }

    #[test]
    fn higher_penalty_prunes_more() {
        let f = PiecewiseLinear1d::zigzag();
        let ds = sampled_1d(&f, 300, 7);
        let lenient = Mars::fit(
            &ds,
            &all_ids(&ds),
            MarsParams {
                gcv_penalty: 0.5,
                ..Default::default()
            },
        )
        .unwrap();
        let strict = Mars::fit(
            &ds,
            &all_ids(&ds),
            MarsParams {
                gcv_penalty: 50.0,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(strict.n_basis() <= lenient.n_basis());
    }

    #[test]
    fn constant_target_yields_intercept_model() {
        let mut ds = Dataset::new(2);
        let mut rng = seeded(9);
        for _ in 0..60 {
            ds.push(
                &[rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)],
                5.0,
            )
            .unwrap();
        }
        let m = Mars::fit(&ds, &all_ids(&ds), MarsParams::default()).unwrap();
        assert!((m.predict(&[0.5, 0.5]) - 5.0).abs() < 1e-9);
        assert_eq!(m.n_basis(), 1, "constant data needs only the intercept");
    }

    #[test]
    fn empty_selection_errors() {
        let ds = Dataset::new(1);
        assert!(matches!(
            Mars::fit(&ds, &[], MarsParams::default()),
            Err(LinalgError::Empty)
        ));
    }

    #[test]
    fn additive_2d_surface() {
        // y = |x1 - 0.5| + max(0, x2 - 0.3): additive piecewise-linear.
        let mut ds = Dataset::new(2);
        let mut rng = seeded(11);
        for _ in 0..500 {
            let x1: f64 = rng.random_range(0.0..1.0);
            let x2: f64 = rng.random_range(0.0..1.0);
            ds.push(&[x1, x2], (x1 - 0.5).abs() + (x2 - 0.3).max(0.0))
                .unwrap();
        }
        let m = Mars::fit(&ds, &all_ids(&ds), MarsParams::default()).unwrap();
        assert!(m.fit.cod > 0.98, "cod = {}", m.fit.cod);
    }

    #[test]
    fn interaction_degree_two_beats_additive_on_product() {
        // y = x1 * x2 requires an interaction term.
        let mut ds = Dataset::new(2);
        let mut rng = seeded(13);
        for _ in 0..400 {
            let x1: f64 = rng.random_range(0.0..1.0);
            let x2: f64 = rng.random_range(0.0..1.0);
            ds.push(&[x1, x2], x1 * x2).unwrap();
        }
        let additive = Mars::fit(&ds, &all_ids(&ds), MarsParams::default()).unwrap();
        let interact = Mars::fit(
            &ds,
            &all_ids(&ds),
            MarsParams {
                max_degree: 2,
                max_terms: 31,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            interact.fit.fvu <= additive.fit.fvu + 1e-12,
            "interaction {} vs additive {}",
            interact.fit.fvu,
            additive.fit.fvu
        );
    }

    #[test]
    fn gcv_of_selected_model_is_finite() {
        let f = PiecewiseLinear1d::zigzag();
        let ds = sampled_1d(&f, 100, 17);
        let m = Mars::fit(&ds, &all_ids(&ds), MarsParams::default()).unwrap();
        assert!(m.gcv.is_finite());
        assert!(m.gcv >= 0.0);
    }
}
