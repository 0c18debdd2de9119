//! Host facts that qualify a timing: core count, CPU model, load, peak
//! memory. Read from `/proc`; absent files read as unknown, never fatal.

use crate::json::{obj, Json};
use std::process::Command;

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// 1-minute load average.
pub fn loadavg() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/loadavg").ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let v = proc_field("/proc/self/status", "VmHWM")?;
    let kb: f64 = v.split_whitespace().next()?.parse().ok()?;
    Some(kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The fingerprint recorded beside a full run. Spawns `rustc` and `git`,
/// so only the `run` command calls it — never a measured child.
pub fn fingerprint() -> Json {
    let unknown = || "unknown".to_string();
    obj([
        ("nproc", (nproc() as f64).into()),
        (
            "cpu_model",
            proc_field("/proc/cpuinfo", "model name")
                .unwrap_or_else(unknown)
                .into(),
        ),
        ("avx2", regq_linalg::simd::avx2_available().into()),
        (
            "rustc",
            command_line("rustc", &["-V"])
                .unwrap_or_else(unknown)
                .into(),
        ),
        (
            "git_commit",
            command_line("git", &["rev-parse", "HEAD"])
                .unwrap_or_else(unknown)
                .into(),
        ),
    ])
}
