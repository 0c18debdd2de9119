//! Full-scan access path — the universal baseline.

use crate::index::{AccessPathKind, SpatialIndex};
use crate::norms;
use regq_data::Dataset;
use std::sync::Arc;

/// Sequential scan over the contiguous feature block. `O(n·d)` per query,
/// zero build cost, works for any dimension.
#[derive(Debug, Clone)]
pub struct LinearScan {
    data: Arc<Dataset>,
}

impl LinearScan {
    /// Wrap a dataset snapshot.
    pub fn new(data: Arc<Dataset>) -> Self {
        LinearScan { data }
    }
}

impl SpatialIndex for LinearScan {
    fn visit_ball(&self, center: &[f64], radius: f64, mut visit: impl FnMut(usize, &[f64], f64)) {
        debug_assert_eq!(center.len(), self.data.dim());
        let d = self.data.dim();
        let ys = self.data.ys();
        let xs = self.data.xs_flat();
        // The dataset's feature block is already the contiguous
        // dimension-strided layout the batched membership kernel wants.
        norms::within_batch(center, xs, d, radius, &mut |i| {
            visit(i, &xs[i * d..(i + 1) * d], ys[i]);
        });
    }

    fn dataset(&self) -> &Arc<Dataset> {
        &self.data
    }

    fn kind(&self) -> AccessPathKind {
        AccessPathKind::Scan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_points() -> Arc<Dataset> {
        // 5x5 integer grid in [0,4]^2.
        let mut ds = Dataset::new(2);
        for i in 0..5 {
            for j in 0..5 {
                ds.push(&[i as f64, j as f64], (i * 5 + j) as f64).unwrap();
            }
        }
        Arc::new(ds)
    }

    #[test]
    fn ball_around_center_point() {
        let scan = LinearScan::new(grid_points());
        let mut out = Vec::new();
        // Radius 1 around (2,2): center + 4 axis neighbours.
        scan.query_ball(&[2.0, 2.0], 1.0, &mut out);
        assert_eq!(out.len(), 5);
        // Radius 1.5 reaches the diagonals too: the full 3x3 block.
        scan.query_ball(&[2.0, 2.0], 1.5, &mut out);
        assert_eq!(out.len(), 9);
    }

    #[test]
    fn empty_ball_returns_nothing() {
        let scan = LinearScan::new(grid_points());
        let mut out = vec![99];
        scan.query_ball(&[-10.0, -10.0], 0.5, &mut out);
        assert!(out.is_empty(), "out must be cleared then left empty");
    }

    #[test]
    fn whole_domain_ball_returns_everything() {
        let scan = LinearScan::new(grid_points());
        let mut out = Vec::new();
        scan.query_ball(&[2.0, 2.0], 100.0, &mut out);
        assert_eq!(out, (0..25).collect::<Vec<_>>());
    }

    #[test]
    fn count_matches_query_len() {
        let scan = LinearScan::new(grid_points());
        let mut out = Vec::new();
        for r in [0.0, 0.5, 1.0, 2.0, 3.5] {
            scan.query_ball(&[1.5, 2.5], r, &mut out);
            assert_eq!(out.len(), scan.count_ball(&[1.5, 2.5], r));
        }
    }

    #[test]
    fn fold_ball_accumulates_during_the_scan() {
        let scan = LinearScan::new(grid_points());
        // Sum of u over the 3x3 block around (2,2).
        let sum = scan.fold_ball(&[2.0, 2.0], 1.5, 0.0, |acc, _, _, y| *acc += y);
        let mut out = Vec::new();
        scan.query_ball(&[2.0, 2.0], 1.5, &mut out);
        let want: f64 = out.iter().map(|&i| scan.dataset().y(i)).sum();
        assert_eq!(sum, want);
    }

    #[test]
    fn visit_order_is_ascending_ids() {
        let scan = LinearScan::new(grid_points());
        let mut prev = None;
        scan.visit_ball(&[2.0, 2.0], 10.0, |id, _, _| {
            if let Some(p) = prev {
                assert!(id > p);
            }
            prev = Some(id);
        });
        assert_eq!(prev, Some(24));
    }

    #[test]
    fn boundary_point_is_included() {
        let scan = LinearScan::new(grid_points());
        let mut out = Vec::new();
        scan.query_ball(&[0.0, 0.0], 1.0, &mut out);
        // (0,0), (0,1), (1,0) — (1,1) is at distance sqrt(2) > 1.
        assert_eq!(out.len(), 3);
    }
}
