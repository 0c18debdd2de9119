//! The two source rules no compiler lint states, over every `.rs` file in
//! the repository (`target/` and dot-directories skipped):
//!
//! * a file that uses `Ordering::Relaxed` opens with an `//! atomics:`
//!   header auditing every atomic in it;
//! * every `unsafe fn` carries a `// SAFETY:` comment above it (its
//!   attributes and doc comments may sit in between).
//!
//! Lines that start with `//` are comments and never match. Every other
//! source rule is a lint level in the workspace manifest
//! (`docs/INVARIANTS.md`). The needles are built with `concat!` so that
//! this file does not trip its own rules.

use std::path::{Path, PathBuf};

const RELAXED: &str = concat!("Ordering::", "Relaxed");
const UNSAFE: &str = concat!("un", "safe");

/// Every `.rs` file below `dir`, skipping `target/` and dot-directories.
fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable directory") {
        let path = entry.expect("readable entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                rust_sources(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

fn is_comment(line: &str) -> bool {
    line.trim_start().starts_with("//")
}

fn declares_unsafe_fn(line: &str) -> bool {
    let words: Vec<&str> = line.split_whitespace().collect();
    words.windows(2).any(|w| w[0] == UNSAFE && w[1] == "fn")
}

/// Whether the lines above `at` — comments and attributes, up to the
/// first other line — hold a `// SAFETY:` comment.
fn safety_note_above(lines: &[&str], at: usize) -> bool {
    lines[..at]
        .iter()
        .rev()
        .map(|l| l.trim_start())
        .take_while(|l| l.starts_with("//") || l.starts_with("#["))
        .any(|l| l.starts_with("// SAFETY:"))
}

/// The rule violations in one source text, as `line: rule` strings. The
/// `//! atomics:` header counts inside the file's opening `//!` block.
fn violations(src: &str) -> Vec<String> {
    let lines: Vec<&str> = src.lines().collect();
    let header = lines
        .iter()
        .take_while(|l| l.starts_with("//!"))
        .any(|l| l.starts_with("//! atomics:"));
    let mut found = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if is_comment(line) {
            continue;
        }
        if !header && line.contains(RELAXED) {
            found.push(format!(
                "{}: {RELAXED} in a file without an `//! atomics:` header",
                i + 1
            ));
        }
        if declares_unsafe_fn(line) && !safety_note_above(&lines, i) {
            found.push(format!(
                "{}: {UNSAFE} fn without a `// SAFETY:` comment above it",
                i + 1
            ));
        }
    }
    found
}

#[test]
fn every_source_file_keeps_the_source_rules() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_sources(root, &mut files);
    assert!(files.len() > 50, "found only {} sources", files.len());
    let mut report = Vec::new();
    for path in files {
        let src = std::fs::read_to_string(&path).expect("readable source");
        let rel = path.strip_prefix(root).unwrap_or(&path).display();
        report.extend(violations(&src).into_iter().map(|v| format!("{rel}:{v}")));
    }
    assert!(report.is_empty(), "{}", report.join("\n"));
}

#[test]
fn each_rule_fires_on_a_violation() {
    let relaxed = format!("fn f(c: &AtomicU64) -> u64 {{\n    c.load({RELAXED})\n}}\n");
    assert_eq!(violations(&relaxed).len(), 1);
    assert!(violations(&format!("//! atomics: one counter.\n{relaxed}")).is_empty());
    assert_eq!(
        violations(&format!("{relaxed}//! atomics: too late.\n")).len(),
        1
    );
    assert!(violations(&format!("// {RELAXED} in a comment\n")).is_empty());

    let bare = format!("#[inline]\npub {UNSAFE} fn f() {{}}\n");
    assert_eq!(violations(&bare).len(), 1);
    assert_eq!(violations(&format!("// Not a note.\n{bare}")).len(), 1);
    assert_eq!(
        violations(&format!("// SAFETY: a note.\nfn g() {{}}\n{bare}")).len(),
        1
    );
    assert!(violations(&format!("// SAFETY: the contract.\n/// Docs.\n{bare}")).is_empty());
}
