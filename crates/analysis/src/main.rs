//! `cargo run -p regq_analysis -- <command>` — the CI entry point for the
//! in-tree invariant linter.
//!
//! Commands:
//!
//! * `check` — lint the workspace.
//! * `lint [--root <dir>]` — lint an arbitrary tree (fixture directories
//!   in tests); the workspace without `--root`.
//!
//! Exit status: 0 when the lint is clean, 1 on any finding, 2 on usage
//! errors.

use regq_analysis::{lint_dir, workspace_root, Registry};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => lint(None),
        Some("lint") => lint(parse_flag(&args, "--root").map(PathBuf::from)),
        _ => {
            eprintln!("usage: regq_analysis <check | lint [--root DIR]>");
            ExitCode::from(2)
        }
    }
}

fn parse_flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn lint(root: Option<PathBuf>) -> ExitCode {
    let root = root.unwrap_or_else(workspace_root);
    let findings = match lint_dir(&root, &Registry::workspace()) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: cannot lint {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    for f in &findings {
        println!("{f}");
    }
    if findings.is_empty() {
        println!("invariant lint: clean");
        ExitCode::SUCCESS
    } else {
        println!("invariant lint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}
