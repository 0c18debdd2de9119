//! # regq-store
//!
//! In-memory column store and spatial access paths — the "DBMS" substrate
//! the paper runs its exact baselines on (PostgreSQL with a B-tree on `x` in
//! the original evaluation).
//!
//! The selection operator is the paper's Definition 3 with `p = 2`, the
//! geometry the model's overlap predicate is defined in: given a query
//! center `x ∈ R^d` and radius `θ`, return every row `i` of the relation
//! with `‖x_i − x‖₂ ≤ θ` (a *distance near neighbor* / radius selection).
//! Two access paths implement it:
//!
//! * [`KdTree`] — static balanced k-d tree whose traversal skips a
//!   subtree whose cell lies outside the ball and takes one whose cell
//!   lies inside without a distance test, so a query's cost follows the
//!   ball's boundary; sub-linear for selective balls in low dimension.
//!   The production path: every exact fallback, `COUNT(*)` and training
//!   query runs on it.
//! * [`LinearScan`] — sequential scan over the contiguous feature block,
//!   `O(n·d)` per query; the reference the kd-tree is tested against and
//!   the scan column of the paper's Fig. 12.
//!
//! Both return *identical* row sets for every centre and every radius —
//! negative, zero, `NaN` and infinite included (property-tested).

#![deny(missing_docs)]

pub mod index;
pub mod kd_tree;
pub mod linear_scan;
pub mod norms;
pub mod relation;

pub use index::{AccessPathKind, SpatialIndex};
pub use kd_tree::KdTree;
pub use linear_scan::LinearScan;
pub use relation::Relation;
