//! End-to-end tests for the `regq_analysis` binary: seeded fixture trees
//! that must fail each rule (exit 1, rule name in the report), a
//! compliant tree that must pass, the real workspace staying green, and
//! the schedule checker's pinned exhaustive count.
//!
//! Fixture sources are authored inline and written to
//! `CARGO_TARGET_TMPDIR` at test time. Inline (rather than `.rs` files on
//! disk) keeps the violating `unsafe` tokens inside string literals,
//! which the scanner's literal-blanking ignores — so the fixtures cannot
//! themselves trip the workspace lint they exist to test.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_regq_analysis"))
}

/// Write `src` at `rel` under a fresh fixture root named `case`.
fn fixture(case: &str, files: &[(&str, &str)]) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(case);
    if root.exists() {
        std::fs::remove_dir_all(&root).unwrap();
    }
    for (rel, src) in files {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, src).unwrap();
    }
    root
}

fn lint(root: &Path) -> Output {
    bin()
        .args(["lint", "--root"])
        .arg(root)
        .output()
        .expect("spawn regq_analysis")
}

fn assert_finding(out: &Output, rule: &str) {
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "expected exit 1, got {out:?}");
    assert!(
        stdout.contains(&format!("[{rule}]")),
        "expected a [{rule}] finding in:\n{stdout}"
    );
}

#[test]
fn unsafe_without_safety_fixture_fails() {
    let root = fixture(
        "bad_unsafe_no_safety",
        &[(
            "crates/serve/src/cell.rs",
            "pub fn f(p: *mut u8) { unsafe { p.write(0) } }\n",
        )],
    );
    assert_finding(&lint(&root), "unsafe-safety");
}

#[test]
fn unsafe_outside_registry_fixture_fails() {
    let root = fixture(
        "bad_unsafe_registry",
        &[(
            "crates/core/src/model.rs",
            "// SAFETY: p is valid for writes.\npub fn f(p: *mut u8) { unsafe { p.write(0) } }\n",
        )],
    );
    assert_finding(&lint(&root), "unsafe-registry");
}

#[test]
fn bare_relaxed_fixture_fails() {
    let root = fixture(
        "bad_relaxed",
        &[(
            "crates/serve/src/shard.rs",
            "use std::sync::atomic::{AtomicU64, Ordering};\n\
             pub fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n",
        )],
    );
    assert_finding(&lint(&root), "relaxed-audit");
}

#[test]
fn bare_unwrap_on_hot_path_fixture_fails() {
    let root = fixture(
        "bad_panic",
        &[(
            "crates/serve/src/shard.rs",
            "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
        )],
    );
    assert_finding(&lint(&root), "panic-policy");
}

#[test]
fn compliant_fixture_passes() {
    let root = fixture(
        "good_tree",
        &[
            (
                "crates/serve/src/cell.rs",
                "//! atomics: single counter, audited.\n\
                 use std::sync::atomic::{AtomicU64, Ordering};\n\
                 pub fn tick(c: &AtomicU64) -> u64 { c.fetch_add(1, Ordering::Relaxed) }\n\
                 pub fn read(p: *const u8) -> u8 {\n\
                 \x20   // SAFETY: caller passes a pointer into a live allocation.\n\
                 \x20   unsafe { *p }\n\
                 }\n\
                 pub fn first(v: &[u8]) -> u8 {\n\
                 \x20   // INVARIANT: callers never pass an empty slice.\n\
                 \x20   v.first().copied().expect(\"non-empty\")\n\
                 }\n",
            ),
            (
                // Off the hot path: unwrap is fine here.
                "crates/bench/src/lib.rs",
                "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
            ),
        ],
    );
    let out = lint(&root);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "expected clean lint:\n{stdout}");
    assert!(stdout.contains("invariant lint: clean"));
}

/// The real workspace must stay green — this is the same gate CI runs
/// (`--fast` keeps the debug-build schedule battery to the pinned 2×2
/// point; CI runs the full grid in `--release`).
#[test]
fn check_is_green_on_the_real_workspace() {
    let out = bin().args(["check", "--fast"]).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "check failed:\n{stdout}");
    assert!(stdout.contains("invariant lint: clean"), "{stdout}");
    assert!(stdout.contains("check: ok"), "{stdout}");
    // The four seeded mutants must each have been caught.
    assert_eq!(stdout.matches(": caught").count(), 4, "{stdout}");
}

/// The exhaustive 2 readers × 2 publishes interleaving count, end to end
/// through the CLI (the count itself is pinned in the library and
/// re-asserted by `check`).
#[test]
fn schedules_reports_the_pinned_two_by_two_count() {
    let out = bin()
        .args([
            "schedules",
            "--readers",
            "2",
            "--publishes",
            "2",
            "--reads",
            "1",
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(
        stdout.contains(&regq_analysis::schedule::TWO_BY_TWO_SCHEDULES.to_string()),
        "expected the pinned count in:\n{stdout}"
    );
}

#[test]
fn usage_error_exits_two() {
    let out = bin().arg("frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}
