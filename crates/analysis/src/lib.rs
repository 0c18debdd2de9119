//! # regq-analysis
//!
//! In-tree static analysis for the regq workspace: a source-level
//! invariant linter plus an exhaustive schedule checker for the
//! hazard-slot epoch protocol. `cargo run -p regq_analysis -- check` runs
//! both and fails the build on any violation — the same xtask-style
//! self-policing that engine codebases carry in-tree when external
//! tooling (Miri, loom, dylint) is unavailable, as it is under this
//! repository's offline shim policy (`shims/README.md`).
//!
//! Two halves:
//!
//! * [`rules`] + [`scanner`] — a hand-rolled Rust-source scanner (no
//!   dependencies, no parser) that enforces the machine-checkable project
//!   invariants: `// SAFETY:` adjacency and an allowlisted-module
//!   registry for every `unsafe`; `//! atomics:` audit headers (or
//!   per-site `// RELAXED:` notes) for every `Ordering::Relaxed`; and the
//!   PR-8 panic policy (`// INVARIANT:` grammar) for non-test
//!   `unwrap`/`expect` on hot-path modules. The rules and their
//!   annotation grammar are documented in `docs/INVARIANTS.md`.
//! * [`schedule`] — a deterministic, memoized DFS over **all**
//!   interleavings of a modeled hazard-slot protocol (announce /
//!   validate / publish / free / reclaim as explicit atomic steps on a
//!   virtual cell), asserting no use-after-free and the
//!   `retained ≤ pinned readers + 1` memory bound across every schedule
//!   for 2–3 readers × 2–3 publishes — upgrading the scripted
//!   interleavings of PR 6 to full model coverage, with counterexample
//!   traces when a (deliberately seeded) protocol mutant breaks.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod rules;
pub mod scanner;
pub mod schedule;

pub use rules::{lint_dir, lint_source, Finding, Registry, RuleId};
pub use schedule::{explore, Config, Explored, Protocol, Violation, ViolationKind};

use std::path::{Path, PathBuf};

/// Locate the workspace root from the compiled-in manifest directory
/// (`crates/analysis` → two levels up). The binary is always invoked via
/// `cargo run -p regq_analysis`, so the source tree is present.
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/analysis sits two levels below the workspace root")
        .to_path_buf()
}

/// Lint the whole workspace against [`Registry::workspace`].
pub fn lint_workspace() -> std::io::Result<Vec<Finding>> {
    lint_dir(&workspace_root(), &Registry::workspace())
}
