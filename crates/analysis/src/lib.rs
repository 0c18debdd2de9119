//! # regq-analysis
//!
//! In-tree static analysis for the regq workspace: a source-level
//! invariant linter. `cargo run -p regq_analysis -- check` lints the
//! workspace and fails the build on any finding — the same xtask-style
//! self-policing that engine codebases carry in-tree when external
//! tooling (Miri, dylint) is unavailable, as it is under this
//! repository's offline shim policy (`shims/README.md`).
//!
//! [`rules`] + [`scanner`] are a hand-rolled Rust-source scanner (no
//! dependencies, no parser) that enforces the machine-checkable project
//! invariants: `// SAFETY:` adjacency and an allowlisted-module registry
//! for every `unsafe`; `//! atomics:` audit headers (or per-site
//! `// RELAXED:` notes) for every `Ordering::Relaxed`; and the panic
//! policy (`// INVARIANT:` grammar) for non-test `unwrap`/`expect` on
//! hot-path modules. The rules and their annotation grammar are
//! documented in `docs/INVARIANTS.md`.
//!
//! The hazard-slot protocol of `regq_serve`'s `SnapshotCell` is checked
//! elsewhere, on the real cell: `crates/serve/tests/schedules.rs`.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod rules;
pub mod scanner;

pub use rules::{lint_dir, lint_source, Finding, Registry, RuleId};

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
