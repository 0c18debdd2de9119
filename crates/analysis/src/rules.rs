//! The machine-checkable project invariants, and the registry that scopes
//! them.
//!
//! Each rule is deliberately narrow enough to be enforced by the
//! [`crate::scanner`]'s line channels — no type information, no macro
//! expansion — so a violation is always attributable to a single line and
//! the fix is always local (annotate with the documented grammar, move the
//! code into the registry, or restructure). `docs/INVARIANTS.md` is the
//! prose counterpart of this module: the annotation grammar, the rationale
//! per rule, and how to extend the registry live there.
//!
//! | rule | requirement |
//! |------|-------------|
//! | [`RuleId::UnsafeSafety`] | every `unsafe` token carries an adjacent `// SAFETY:` comment |
//! | [`RuleId::UnsafeRegistry`] | `unsafe` only appears in registry-allowlisted files |
//! | [`RuleId::RelaxedAudit`] | `Ordering::Relaxed` requires an `//! atomics:` module header or an adjacent `// RELAXED:` justification |
//! | [`RuleId::PanicPolicy`] | non-test `.unwrap()` / `.expect(` in hot-path registry files carries an adjacent `// INVARIANT:` comment |

use crate::scanner::{
    self, code_token_sites, has_adjacent_marker, has_module_header, test_regions, Line,
};
use std::fmt;
use std::path::{Path, PathBuf};

/// Which invariant a [`Finding`] violates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuleId {
    /// An `unsafe` token without an adjacent `// SAFETY:` comment.
    UnsafeSafety,
    /// An `unsafe` token in a file outside [`Registry::unsafe_allowlist`].
    UnsafeRegistry,
    /// An `Ordering::Relaxed` in a module with no `//! atomics:` header
    /// and no per-site `// RELAXED:` justification.
    RelaxedAudit,
    /// A non-test `.unwrap()` / `.expect(` in a hot-path registry file
    /// without an adjacent `// INVARIANT:` comment.
    PanicPolicy,
}

impl RuleId {
    /// Stable short name used in reports and CI logs.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::UnsafeSafety => "unsafe-safety",
            RuleId::UnsafeRegistry => "unsafe-registry",
            RuleId::RelaxedAudit => "relaxed-audit",
            RuleId::PanicPolicy => "panic-policy",
        }
    }
}

/// One rule violation at one source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path (`/`-separated).
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The violated rule.
    pub rule: RuleId,
    /// Human-readable explanation with the expected fix.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path,
            self.line,
            self.rule.name(),
            self.message
        )
    }
}

/// The scoping registry: which files each rule applies to. Paths are
/// workspace-relative with `/` separators; see `docs/INVARIANTS.md` for
/// how (and when) to extend each list.
#[derive(Debug, Clone)]
pub struct Registry {
    /// Files permitted to contain `unsafe` at all. Everything here is
    /// expected to be a self-contained unsafety kernel with its protocol
    /// documented in module docs (today: the hazard-slot cell and the
    /// runtime-dispatched AVX2 distance kernels).
    pub unsafe_allowlist: Vec<String>,
    /// Hot-path sources under the PR-8 panic policy: every non-test
    /// `.unwrap()` / `.expect(` must be typed away, counted, or annotated
    /// `// INVARIANT:`. An entry ending in `/` covers every file below
    /// that directory (a new or renamed file cannot leave the policy);
    /// any other entry names one file.
    pub panic_policy: Vec<String>,
    /// Path prefixes never scanned (build artifacts).
    pub skip_prefixes: Vec<String>,
}

impl Registry {
    /// The registry for this workspace.
    pub fn workspace() -> Self {
        let own = |v: &[&str]| v.iter().map(|s| s.to_string()).collect();
        Registry {
            unsafe_allowlist: own(&[
                "crates/serve/src/cell.rs",
                "crates/linalg/src/simd.rs",
                "crates/core/tests/served_allocations.rs",
                "crates/core/tests/trainer_allocations.rs",
                "crates/exact/tests/exact_allocations.rs",
                "crates/sql/tests/front_door_allocations.rs",
            ]),
            panic_policy: own(&[
                "crates/serve/src/",
                "crates/core/src/snapshot.rs",
                "crates/core/src/predict.rs",
                "crates/core/src/arena.rs",
                "crates/core/src/model.rs",
                "crates/core/src/confidence.rs",
                "crates/core/src/overlap.rs",
            ]),
            skip_prefixes: own(&["target/"]),
        }
    }

    fn skipped(&self, rel: &str) -> bool {
        self.skip_prefixes.iter().any(|p| rel.starts_with(p))
    }

    fn in_list(list: &[String], rel: &str) -> bool {
        list.iter().any(|p| p == rel)
    }

    fn under_panic_policy(&self, rel: &str) -> bool {
        self.panic_policy
            .iter()
            .any(|p| p == rel || (p.ends_with('/') && rel.starts_with(p.as_str())))
    }
}

/// `true` for files whose *every* line is test/bench/example code: under
/// a `tests/`, `benches/`, or `examples/` directory.
fn is_test_file(rel: &str) -> bool {
    rel.split('/')
        .any(|seg| seg == "tests" || seg == "benches" || seg == "examples")
}

/// Lint one source text as if it lived at `rel` (workspace-relative).
/// This is the single entry point both the directory walker and the
/// fixture tests use, so fixtures exercise exactly the production path.
pub fn lint_source(rel: &str, src: &str, registry: &Registry) -> Vec<Finding> {
    if registry.skipped(rel) {
        return Vec::new();
    }
    let lines = scanner::scan(src);
    let in_test = test_regions(&lines);
    let file_is_test = is_test_file(rel);
    let mut findings = Vec::new();

    rule_unsafe(rel, &lines, registry, &mut findings);
    if !file_is_test {
        rule_relaxed(rel, &lines, &in_test, &mut findings);
        rule_panic_policy(rel, &lines, &in_test, registry, &mut findings);
    }
    findings.sort_by(|a, b| (a.line, a.rule.name()).cmp(&(b.line, b.rule.name())));
    findings
}

/// Rules `unsafe-registry` + `unsafe-safety`. Enforced in test code too:
/// an undocumented `unsafe` in a test is as suspect as one in the
/// library, and the allowlist is the audit surface either way.
fn rule_unsafe(rel: &str, lines: &[Line], registry: &Registry, findings: &mut Vec<Finding>) {
    let allowlisted = Registry::in_list(&registry.unsafe_allowlist, rel);
    for (idx, _) in code_token_sites(lines, "unsafe") {
        if !allowlisted {
            findings.push(Finding {
                path: rel.to_string(),
                line: idx + 1,
                rule: RuleId::UnsafeRegistry,
                message: "`unsafe` outside the allowlisted module registry; add the file to \
                          Registry::unsafe_allowlist (docs/INVARIANTS.md) or remove the unsafety"
                    .to_string(),
            });
        }
        if !has_adjacent_marker(lines, idx, "SAFETY:") {
            findings.push(Finding {
                path: rel.to_string(),
                line: idx + 1,
                rule: RuleId::UnsafeSafety,
                message: "`unsafe` without an adjacent `// SAFETY:` comment stating the \
                          invariant that makes it sound"
                    .to_string(),
            });
        }
    }
}

/// Rule `relaxed-audit`.
fn rule_relaxed(rel: &str, lines: &[Line], in_test: &[bool], findings: &mut Vec<Finding>) {
    if has_module_header(lines, "atomics:") {
        return;
    }
    for (idx, _) in code_token_sites(lines, "Relaxed") {
        if in_test[idx] {
            continue;
        }
        if !lines[idx].code.contains("Ordering::Relaxed") {
            continue;
        }
        if has_adjacent_marker(lines, idx, "RELAXED:") {
            continue;
        }
        findings.push(Finding {
            path: rel.to_string(),
            line: idx + 1,
            rule: RuleId::RelaxedAudit,
            message: "`Ordering::Relaxed` in a module without an `//! atomics:` audit header; \
                      add the header (after auditing every atomic in the module) or justify \
                      this site with an adjacent `// RELAXED:` comment"
                .to_string(),
        });
    }
}

/// Rule `panic-policy`.
fn rule_panic_policy(
    rel: &str,
    lines: &[Line],
    in_test: &[bool],
    registry: &Registry,
    findings: &mut Vec<Finding>,
) {
    if !registry.under_panic_policy(rel) {
        return;
    }
    for (idx, line) in lines.iter().enumerate() {
        if in_test[idx] {
            continue;
        }
        let hits = line.code.matches(".unwrap()").count() + line.code.matches(".expect(").count();
        if hits == 0 {
            continue;
        }
        if has_adjacent_marker(lines, idx, "INVARIANT:") {
            continue;
        }
        findings.push(Finding {
            path: rel.to_string(),
            line: idx + 1,
            rule: RuleId::PanicPolicy,
            message: "non-test `.unwrap()`/`.expect(` on a hot-path module without an adjacent \
                      `// INVARIANT:` comment; type the failure, count it, or state the local \
                      invariant that rules it out"
                .to_string(),
        });
    }
}

/// Recursively collect every `.rs` file under `root`, returning
/// workspace-relative `/`-separated paths, deterministically sorted.
fn rust_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<_> = std::fs::read_dir(&dir)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        entries.sort();
        for path in entries {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() {
                if name == "target" || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Lint every Rust source under `root` against `registry`. Findings come
/// back sorted by path then line.
pub fn lint_dir(root: &Path, registry: &Registry) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for path in rust_sources(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        if registry.skipped(&rel) {
            continue;
        }
        let src = std::fs::read_to_string(&path)?;
        findings.extend(lint_source(&rel, &src, registry));
    }
    findings.sort_by_key(|f| (f.path.clone(), f.line));
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg() -> Registry {
        Registry::workspace()
    }

    #[test]
    fn unsafe_in_allowlisted_file_with_safety_passes() {
        let src = "// SAFETY: pointer from Box::into_raw, freed once.\nunsafe { drop(Box::from_raw(p)) }\n";
        assert!(lint_source("crates/serve/src/cell.rs", src, &reg()).is_empty());
    }

    #[test]
    fn unsafe_without_safety_fails() {
        let src = "unsafe { drop(Box::from_raw(p)) }\n";
        let f = lint_source("crates/serve/src/cell.rs", src, &reg());
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RuleId::UnsafeSafety);
    }

    #[test]
    fn unsafe_outside_registry_fails_even_with_safety() {
        let src = "// SAFETY: totally fine, trust me.\nunsafe { x() }\n";
        let f = lint_source("crates/core/src/model.rs", src, &reg());
        assert!(f.iter().any(|f| f.rule == RuleId::UnsafeRegistry));
    }

    #[test]
    fn unsafe_in_string_or_comment_is_ignored() {
        let src = "let s = \"unsafe\"; // unsafe in comment\n";
        assert!(lint_source("crates/core/src/model.rs", src, &reg()).is_empty());
    }

    #[test]
    fn relaxed_needs_header_or_site_note() {
        let bare = "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n";
        let f = lint_source("crates/serve/src/shard.rs", bare, &reg());
        assert!(f.iter().any(|f| f.rule == RuleId::RelaxedAudit));

        let with_header = format!("//! atomics: counters only, no cross-field ordering.\n{bare}");
        assert!(lint_source("crates/serve/src/shard.rs", &with_header, &reg()).is_empty());

        let with_site =
            "fn f(c: &AtomicU64) {\n    // RELAXED: monotonic counter, read for display only.\n    c.fetch_add(1, Ordering::Relaxed);\n}\n";
        assert!(lint_source("crates/serve/src/shard.rs", with_site, &reg()).is_empty());
    }

    #[test]
    fn relaxed_in_test_code_is_exempt() {
        let src =
            "#[cfg(test)]\nmod tests {\n    fn t(c: &AtomicU64) { c.load(Ordering::Relaxed); }\n}\n";
        assert!(lint_source("crates/serve/src/shard.rs", src, &reg()).is_empty());
    }

    #[test]
    fn panic_policy_only_applies_to_registry_files() {
        let src = "fn f(x: Option<u8>) { x.unwrap(); }\n";
        // The serve crate is covered by prefix (a file the registry has
        // never heard of is still under the policy); core files by name.
        for hot in [
            "crates/serve/src/shard.rs",
            "crates/serve/src/not_written_yet.rs",
            "crates/core/src/arena.rs",
            "crates/core/src/model.rs",
        ] {
            let f = lint_source(hot, src, &reg());
            assert!(f.iter().any(|f| f.rule == RuleId::PanicPolicy), "{hot}");
        }
        assert!(lint_source("crates/data/src/csv.rs", src, &reg()).is_empty());
        assert!(lint_source("crates/core/src/persist.rs", src, &reg()).is_empty());
    }

    #[test]
    fn panic_policy_accepts_invariant_annotation_and_skips_tests() {
        let ok = "fn f(x: Option<u8>) {\n    // INVARIANT: set in the constructor, never cleared.\n    x.unwrap();\n}\n";
        assert!(lint_source("crates/serve/src/shard.rs", ok, &reg()).is_empty());
        let test = "#[cfg(test)]\nmod tests {\n    fn t(x: Option<u8>) { x.unwrap(); }\n}\n";
        assert!(lint_source("crates/serve/src/shard.rs", test, &reg()).is_empty());
    }

    #[test]
    fn unwrap_or_else_is_not_a_panic_site() {
        let src = "fn f(m: &Mutex<u8>) { m.lock().unwrap_or_else(PoisonError::into_inner); }\n";
        assert!(lint_source("crates/serve/src/shard.rs", src, &reg()).is_empty());
    }

    #[test]
    fn test_directory_files_are_exempt_from_non_unsafe_rules() {
        let src = "fn t(x: Option<u8>) { x.unwrap(); let _ = Ordering::Relaxed; }\n";
        assert!(lint_source("crates/serve/tests/smoke.rs", src, &reg()).is_empty());
    }
}
