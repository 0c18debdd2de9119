//! The full command (`run`), the ledger it writes, `BENCHMARK.json`, and
//! `compare` between two ledgers.

use crate::host;
use crate::json::{obj, Json};
use crate::spec::{Better, WorkloadSpec, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Seconds one driver run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

/// `BENCHMARK.json`, in exactly the schema the benchmark contract fixes.
/// What the contract has no key for (layers, expected interactions, host
/// fingerprint, recorded numbers) is in the ledger instead.
pub fn manifest() -> Json {
    let strs = |v: &[&str]| Json::Arr(v.iter().map(|s| (*s).into()).collect());
    obj([
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
                "bench",
            ]),
        ),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", (RUN_SECONDS as f64).into()),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| obj([("name", w.name.into()), ("why", w.why.into())]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", m.name.into()),
                            ("unit", m.unit.into()),
                            ("better", m.better.as_str().into()),
                            ("bound", m.bound.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", m.name.into()),
                            ("unit", m.unit.into()),
                            ("better", m.better.as_str().into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The metric definitions the ledger carries beside the numbers.
fn definitions() -> (Json, Json) {
    let e2e = END_TO_END
        .iter()
        .map(|m| {
            obj([
                ("name", m.name.into()),
                ("unit", m.unit.into()),
                ("better", m.better.as_str().into()),
                ("bound", m.bound.into()),
                ("exact", m.exact.into()),
                ("meaning", m.meaning.into()),
            ])
        })
        .collect();
    let layers = PER_LAYER
        .iter()
        .map(|m| {
            obj([
                ("name", m.name.into()),
                ("unit", m.unit.into()),
                ("better", m.better.as_str().into()),
                ("layer", m.layer.into()),
                ("exact", m.exact.into()),
                ("how", m.how.into()),
                ("moves", m.moves.into()),
            ])
        })
        .collect();
    (Json::Arr(e2e), Json::Arr(layers))
}

/// What the runs of one workload add up to.
#[derive(Default)]
struct WorkloadLedger {
    /// `(name, unit, one value per run)`, in report order.
    metrics: Vec<(String, String, Vec<f64>)>,
    warnings: Vec<String>,
    attempted: f64,
    failed: f64,
}

pub struct RunArgs {
    pub workloads: Vec<&'static WorkloadSpec>,
    pub seed: u64,
    pub seconds: f64,
    pub scale: f64,
    /// Full passes over the workloads; `compare` needs several to tell
    /// a move from the run-to-run spread.
    pub runs: usize,
    pub out_dir: PathBuf,
    /// Ledger path; defaults to `<out_dir>/ledger-seed<seed>.json`.
    pub ledger: Option<PathBuf>,
}

/// Run every selected workload, each in a process of its own so peak
/// memory and allocator state do not leak between them, and write the
/// ledger. Returns the number of failed statements.
///
/// # Errors
/// A child that cannot be spawned, exits non-zero without failures of its
/// own, or prints no result; an unwritable ledger.
pub fn run(args: &RunArgs) -> Result<u64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let load_start = host::loadavg();
    let mut failed_total = 0u64;
    let mut ledgers: Vec<WorkloadLedger> = args
        .workloads
        .iter()
        .map(|_| WorkloadLedger::default())
        .collect();
    for run in 0..args.runs {
        for (w, ledger) in args.workloads.iter().zip(&mut ledgers) {
            println!("== run {} of {}: {}", run + 1, args.runs, w.name);
            let out = Command::new(&exe)
                .arg("bench")
                .args(["--workload", w.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--scale", &args.scale.to_string()])
                .args(["--trace", "both"])
                .arg("--out")
                .arg(&args.out_dir)
                .output()
                .map_err(|e| format!("cannot spawn {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let mut lines: Vec<&str> = stdout.lines().collect();
            let last = lines
                .pop()
                .ok_or_else(|| format!("{}: no output", w.name))?;
            for l in &lines {
                println!("{l}");
                if l.starts_with("WARNING") {
                    ledger.warnings.push(format!("run {}: {l}", run + 1));
                }
            }
            let result = Json::parse(last).map_err(|e| format!("{}: result line: {e}", w.name))?;
            let num = |k: &str| result.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            ledger.attempted += num("attempted");
            ledger.failed += num("failed");
            failed_total += num("failed") as u64;
            let metrics = result
                .get("metrics")
                .and_then(Json::as_obj)
                .ok_or_else(|| format!("{}: result has no metrics", w.name))?;
            for (name, m) in metrics {
                let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                match ledger.metrics.iter_mut().find(|(n, _, _)| n == name) {
                    Some((_, _, values)) => values.push(value),
                    None => ledger
                        .metrics
                        .push((name.clone(), unit.to_string(), vec![value])),
                }
            }
        }
    }

    let (e2e_defs, layer_defs) = definitions();
    let mut host_facts = match host::fingerprint() {
        Json::Obj(pairs) => pairs,
        _ => Vec::new(),
    };
    let load = |l: Option<f64>| l.map_or(Json::Null, Json::Num);
    host_facts.push(("loadavg_start".into(), load(load_start)));
    host_facts.push(("loadavg_end".into(), load(host::loadavg())));
    let doc = obj([
        ("benchmark", "regq-benchmark".into()),
        ("seed", (args.seed as f64).into()),
        ("seconds", args.seconds.into()),
        ("scale", args.scale.into()),
        ("runs", (args.runs as f64).into()),
        ("host", Json::Obj(host_facts)),
        (
            "workloads",
            Json::Arr(
                args.workloads
                    .iter()
                    .zip(ledgers)
                    .map(|(w, l)| {
                        let (attempted, failed) = (l.attempted, l.failed);
                        obj([
                            ("name", w.name.into()),
                            ("why", w.why.into()),
                            ("attempted", attempted.into()),
                            ("failed", failed.into()),
                            ("fail_share", (failed / attempted.max(1.0)).into()),
                            (
                                "warnings",
                                Json::Arr(l.warnings.into_iter().map(Json::Str).collect()),
                            ),
                            (
                                "metrics",
                                Json::Obj(
                                    l.metrics
                                        .into_iter()
                                        .map(|(name, unit, values)| {
                                            (
                                                name,
                                                obj([
                                                    ("unit", unit.into()),
                                                    (
                                                        "values",
                                                        Json::Arr(
                                                            values
                                                                .into_iter()
                                                                .map(Json::Num)
                                                                .collect(),
                                                        ),
                                                    ),
                                                ]),
                                            )
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("end_to_end", e2e_defs),
        ("per_layer", layer_defs),
    ]);
    let path = args
        .ledger
        .clone()
        .unwrap_or_else(|| args.out_dir.join(format!("ledger-seed{}.json", args.seed)));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("ledger written to {}", path.display());
    Ok(failed_total)
}

fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |p: f64| {
        let x = p * (v.len() - 1) as f64;
        let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (x - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

fn ledger_values(doc: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    doc.get("workloads")?
        .as_arr()?
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(workload))?
        .get("metrics")?
        .get(metric)?
        .get("values")?
        .as_arr()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

/// Compare ledger `b` (the change) against ledger `a` (the base): one row
/// per (workload, end-to-end metric). With `exact`, every count and
/// accuracy metric must also be bit-identical (same commit, same seed).
/// Returns the number of regressions plus inexact repeats.
///
/// # Errors
/// Unreadable or malformed ledgers.
pub fn compare(a: &Path, b: &Path, exact: bool) -> Result<usize, String> {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{}: {e}", p.display()))
            .and_then(|t| Json::parse(&t).map_err(|e| format!("{}: {e}", p.display())))
    };
    let (a, b) = (read(a)?, read(b)?);
    let mut bad = 0;
    println!(
        "{:<24} {:<12} {:>14} {:>14} {:>9} {:>7} {:>7}  verdict",
        "workload", "metric", "base median", "change median", "ratio", "spread", "bound"
    );
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (
                ledger_values(&a, w.name, m.name),
                ledger_values(&b, w.name, m.name),
            ) else {
                continue;
            };
            let ((a1, am, a3), (b1, bm, b3)) = (quartiles(&va), quartiles(&vb));
            let worse_by = match m.better {
                Better::Lower => (bm - am) / am,
                Better::Higher => (am - bm) / am,
            };
            let spread = ((a3 - a1) / am).max((b3 - b1) / bm);
            let all_better = match m.better {
                Better::Lower => vb.iter().all(|x| va.iter().all(|y| x < y)),
                Better::Higher => vb.iter().all(|x| va.iter().all(|y| x > y)),
            };
            let verdict = if spread > m.bound && !all_better {
                "unresolved"
            } else if worse_by > m.bound {
                bad += 1;
                "regressed"
            } else {
                "ok"
            };
            println!(
                "{:<24} {:<12} {am:>14.4} {bm:>14.4} {:>9.4} {spread:>7.4} {:>7.2}  {verdict} (change/base, base = {am:.4} {})",
                w.name,
                m.name,
                bm / am,
                m.bound,
                m.unit
            );
        }
        if !exact {
            continue;
        }
        let repeats = END_TO_END
            .iter()
            .filter(|m| m.exact)
            .map(|m| m.name)
            .chain(PER_LAYER.iter().filter(|m| m.exact).map(|m| m.name));
        for name in repeats {
            let (va, vb) = (
                ledger_values(&a, w.name, name),
                ledger_values(&b, w.name, name),
            );
            let same = match (&va, &vb) {
                (Some(x), Some(y)) => {
                    x.iter().chain(y).all(|v| v.to_bits() == x[0].to_bits()) && !x.is_empty()
                }
                _ => false,
            };
            if !same {
                bad += 1;
                println!("{:<24} {name}: not bit-identical: {va:?} vs {vb:?}", w.name);
            }
        }
    }
    if exact && bad == 0 {
        println!("every count and accuracy metric repeats bit for bit");
    }
    Ok(bad)
}
