//! Uniform-grid access path.
//!
//! Partitions the data bounding box into `cells_per_dim^d` buckets. A ball
//! query visits only the buckets intersecting the ball's bounding box and
//! re-checks each candidate point exactly. With the paper's workloads
//! (radii ≈ 10–20 % of the domain) this touches a small constant fraction
//! of buckets.
//!
//! Grid size is capped so the bucket directory never dominates memory in
//! higher dimensions (`d > 6` falls back to very coarse grids; use
//! [`crate::KdTree`] there).

use crate::index::{AccessPathKind, SpatialIndex};
use crate::norms::Norm;
use regq_data::Dataset;
use std::sync::Arc;

/// Uniform grid over the dataset's bounding box.
#[derive(Debug, Clone)]
pub struct GridIndex {
    data: Arc<Dataset>,
    lo: Vec<f64>,
    /// Reciprocal cell width per dimension (0 for degenerate dims).
    inv_width: Vec<f64>,
    cells_per_dim: usize,
    /// CSR-style bucket storage: `bucket_of[cell]..bucket_of[cell+1]` into `ids`.
    offsets: Vec<u32>,
    ids: Vec<u32>,
    /// Feature rows copied in `ids` order: each bucket owns a contiguous
    /// dimension-strided block for the batched membership kernel
    /// ([`Norm::within_batch`]). Doubles feature memory — the classic
    /// index space/time trade.
    bucket_xs: Vec<f64>,
}

impl GridIndex {
    /// Total bucket budget: grids never allocate more than this many cells.
    const MAX_CELLS: usize = 1 << 20;

    /// Build with an automatically chosen resolution
    /// (`~(n)^(1/d)` cells per dimension, capped by the bucket budget).
    pub fn build(data: Arc<Dataset>) -> Self {
        let n = data.len().max(1);
        let d = data.dim();
        let ideal = (n as f64).powf(1.0 / d as f64).ceil() as usize;
        let cap = (Self::MAX_CELLS as f64).powf(1.0 / d as f64).floor() as usize;
        let cells = ideal.clamp(1, cap.max(1));
        Self::with_resolution(data, cells)
    }

    /// Build with `cells_per_dim` cells along each dimension.
    ///
    /// # Panics
    /// Panics if the total cell count would exceed the bucket budget.
    pub fn with_resolution(data: Arc<Dataset>, cells_per_dim: usize) -> Self {
        let d = data.dim();
        let cells_per_dim = cells_per_dim.max(1);
        let total = cells_per_dim
            .checked_pow(d as u32)
            .filter(|&t| t <= Self::MAX_CELLS)
            .unwrap_or_else(|| panic!("grid of {cells_per_dim}^{d} cells exceeds budget"));

        let (lo, inv_width) = if data.is_empty() {
            (vec![0.0; d], vec![0.0; d])
        } else {
            let bounds = data.feature_bounds().expect("non-empty");
            let lo: Vec<f64> = bounds.iter().map(|b| b.0).collect();
            let inv_width: Vec<f64> = bounds
                .iter()
                .map(|b| {
                    let w = (b.1 - b.0) / cells_per_dim as f64;
                    if w > 0.0 {
                        1.0 / w
                    } else {
                        0.0
                    }
                })
                .collect();
            (lo, inv_width)
        };

        // Counting sort of rows into buckets (CSR layout).
        let mut counts = vec![0u32; total + 1];
        let cell_of = |x: &[f64]| -> usize {
            let mut c = 0usize;
            for k in 0..d {
                let raw = ((x[k] - lo[k]) * inv_width[k]) as isize;
                let idx = raw.clamp(0, cells_per_dim as isize - 1) as usize;
                c = c * cells_per_dim + idx;
            }
            c
        };
        for i in 0..data.len() {
            counts[cell_of(data.x(i)) + 1] += 1;
        }
        for k in 1..=total {
            counts[k] += counts[k - 1];
        }
        let mut ids = vec![0u32; data.len()];
        let mut cursor = counts.clone();
        for i in 0..data.len() {
            let c = cell_of(data.x(i));
            ids[cursor[c] as usize] = i as u32;
            cursor[c] += 1;
        }
        let mut bucket_xs = Vec::with_capacity(data.len() * d);
        for &id in &ids {
            bucket_xs.extend_from_slice(data.x(id as usize));
        }

        GridIndex {
            data,
            lo,
            inv_width,
            cells_per_dim,
            offsets: counts,
            ids,
            bucket_xs,
        }
    }

    #[inline]
    fn cell_coord(&self, dim: usize, v: f64) -> isize {
        (((v - self.lo[dim]) * self.inv_width[dim]) as isize)
            .clamp(0, self.cells_per_dim as isize - 1)
    }

    /// Cells per dimension (diagnostics).
    pub fn resolution(&self) -> usize {
        self.cells_per_dim
    }
}

impl SpatialIndex for GridIndex {
    fn visit_ball(
        &self,
        center: &[f64],
        radius: f64,
        norm: Norm,
        visit: &mut dyn FnMut(usize, &[f64], f64),
    ) {
        debug_assert_eq!(center.len(), self.data.dim());
        if self.data.is_empty() {
            return;
        }
        let d = self.data.dim();
        // Bounding box of the ball in cell coordinates. The Lp ball for any
        // p >= 1 is contained in the Linf box of the same radius, so this
        // candidate set is a superset for every norm.
        let mut lo_cell = vec![0isize; d];
        let mut hi_cell = vec![0isize; d];
        for k in 0..d {
            lo_cell[k] = self.cell_coord(k, center[k] - radius);
            hi_cell[k] = self.cell_coord(k, center[k] + radius);
        }
        // Odometer walk over the cell hyper-rectangle.
        let mut cur = lo_cell.clone();
        loop {
            let mut cell = 0usize;
            for &c in cur.iter() {
                cell = cell * self.cells_per_dim + c as usize;
            }
            let (s, e) = (self.offsets[cell] as usize, self.offsets[cell + 1] as usize);
            // Batched membership over the bucket's contiguous row block.
            let rows = &self.bucket_xs[s * d..e * d];
            norm.within_batch(center, rows, d, radius, &mut |r| {
                let id = self.ids[s + r] as usize;
                visit(id, self.data.x(id), self.data.y(id));
            });
            // Advance odometer.
            let mut k = d;
            loop {
                if k == 0 {
                    return;
                }
                k -= 1;
                if cur[k] < hi_cell[k] {
                    cur[k] += 1;
                    for (c, l) in cur.iter_mut().zip(lo_cell.iter()).skip(k + 1) {
                        *c = *l;
                    }
                    break;
                }
            }
        }
    }

    fn dataset(&self) -> &Arc<Dataset> {
        &self.data
    }

    fn kind(&self) -> AccessPathKind {
        AccessPathKind::Grid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear_scan::LinearScan;
    use rand::RngExt;
    use regq_data::rng::seeded;

    fn random_dataset(n: usize, d: usize, seed: u64) -> Arc<Dataset> {
        let mut rng = seeded(seed);
        let mut ds = Dataset::new(d);
        for _ in 0..n {
            let x: Vec<f64> = (0..d).map(|_| rng.random_range(0.0..1.0)).collect();
            ds.push(&x, 0.0).unwrap();
        }
        Arc::new(ds)
    }

    fn sorted(mut v: Vec<usize>) -> Vec<usize> {
        v.sort_unstable();
        v
    }

    #[test]
    fn matches_linear_scan_on_random_data() {
        let data = random_dataset(400, 2, 11);
        let grid = GridIndex::build(data.clone());
        let scan = LinearScan::new(data);
        let mut rng = seeded(13);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for _ in 0..60 {
            let c: Vec<f64> = (0..2).map(|_| rng.random_range(-0.2..1.2)).collect();
            let r = rng.random_range(0.0..0.5);
            for norm in [Norm::L1, Norm::L2, Norm::LInf] {
                grid.query_ball(&c, r, norm, &mut got);
                scan.query_ball(&c, r, norm, &mut want);
                assert_eq!(sorted(got.clone()), want, "norm {norm:?} r {r} c {c:?}");
            }
        }
    }

    #[test]
    fn empty_dataset_returns_nothing() {
        let grid = GridIndex::build(Arc::new(Dataset::new(3)));
        let mut out = vec![5];
        grid.query_ball(&[0.0, 0.0, 0.0], 1.0, Norm::L2, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn query_far_outside_bounding_box() {
        let data = random_dataset(100, 2, 1);
        let grid = GridIndex::build(data);
        let mut out = Vec::new();
        grid.query_ball(&[50.0, 50.0], 0.5, Norm::L2, &mut out);
        assert!(out.is_empty());
        // A huge radius from far away still finds everything.
        grid.query_ball(&[50.0, 50.0], 100.0, Norm::L2, &mut out);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn degenerate_single_value_dimension() {
        let mut ds = Dataset::new(2);
        for i in 0..20 {
            ds.push(&[0.5, i as f64 / 20.0], 0.0).unwrap();
        }
        let grid = GridIndex::build(Arc::new(ds));
        let mut out = Vec::new();
        grid.query_ball(&[0.5, 0.5], 0.25, Norm::L2, &mut out);
        assert!(!out.is_empty());
        for &id in &out {
            assert!((grid.dataset().x(id)[1] - 0.5).abs() <= 0.25 + 1e-12);
        }
    }

    #[test]
    fn explicit_resolution_respected() {
        let data = random_dataset(100, 2, 2);
        let grid = GridIndex::with_resolution(data, 4);
        assert_eq!(grid.resolution(), 4);
    }

    #[test]
    #[should_panic(expected = "exceeds budget")]
    fn oversized_grid_panics() {
        let data = random_dataset(10, 3, 2);
        let _ = GridIndex::with_resolution(data, 4096);
    }

    #[test]
    fn five_dimensional_grid_works() {
        let data = random_dataset(300, 5, 21);
        let grid = GridIndex::build(data.clone());
        let scan = LinearScan::new(data);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let c = [0.5; 5];
        for r in [0.1, 0.3, 0.7] {
            grid.query_ball(&c, r, Norm::L2, &mut got);
            scan.query_ball(&c, r, Norm::L2, &mut want);
            assert_eq!(sorted(got.clone()), want);
        }
    }
}
