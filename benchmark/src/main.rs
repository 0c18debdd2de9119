//! `regq-benchmark bench|run|compare` — see `benchmark/README.md`.

use regq_benchmark::bench::{self, Options, Trace};
use regq_benchmark::report::{self, RunArgs, RUN_SECONDS};
use regq_benchmark::spec::{self, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  regq-benchmark bench --workload <name> --seed <n> --seconds <s> --trace <0|1|both> [--scale <f>] [--out <dir>]
  regq-benchmark run (--all | --workload <name>)... [--seed <n>] [--seconds <s>] [--scale <f>] [--runs <n>] [--out <dir>] [--ledger <file>]
  regq-benchmark compare <base.json> <change.json> [--exact]";

/// `--flag value` pairs and bare words of a command line.
struct Args {
    flags: Vec<(String, String)>,
    words: Vec<String>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut out = Args {
            flags: Vec::new(),
            words: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(flag @ ("all" | "exact")) => out.flags.push((flag.into(), String::new())),
                Some(flag) => {
                    let value = it.next().ok_or(format!("--{flag} needs a value"))?;
                    out.flags.push((flag.into(), value.clone()));
                }
                None => out.words.push(a.clone()),
            }
        }
        Ok(out)
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }

    fn all<'a>(&'a self, flag: &'a str) -> impl Iterator<Item = &'a str> {
        self.flags
            .iter()
            .filter(move |(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.all(flag).last() {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{flag}: cannot read '{v}'")),
        }
    }
}

fn workload(name: &str) -> Result<&'static spec::WorkloadSpec, String> {
    spec::workload(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload '{name}'; one of {names:?}")
    })
}

fn positive(flag: &str, v: f64) -> Result<f64, String> {
    if v.is_finite() && v > 0.0 {
        Ok(v)
    } else {
        Err(format!("--{flag} must be positive, got {v}"))
    }
}

fn main_inner() -> Result<ExitCode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = argv.split_first().ok_or(USAGE)?;
    let args = Args::parse(rest)?;
    let out_dir = PathBuf::from(args.parsed("out", "benchmark/out".to_string())?);
    let seconds = positive("seconds", args.parsed("seconds", RUN_SECONDS as f64)?)?;
    let scale = positive("scale", args.parsed("scale", 1.0)?)?;
    let seed = args.parsed("seed", 7u64)?;
    let failed = match command.as_str() {
        "bench" => {
            let name = args
                .all("workload")
                .last()
                .ok_or("--workload is required")?;
            let trace = match args.all("trace").last().unwrap_or("0") {
                "0" => Trace::Off,
                "1" => Trace::On,
                "both" => Trace::Both,
                other => return Err(format!("--trace: 0, 1 or both, got '{other}'")),
            };
            let outcome = bench::run(&Options {
                workload: workload(name)?,
                seed,
                seconds,
                scale,
                trace,
                out_dir,
            });
            for l in &outcome.lines {
                println!("{l}");
            }
            outcome.failed
        }
        "run" => {
            let workloads = if args.has("all") {
                WORKLOADS.iter().collect()
            } else {
                args.all("workload")
                    .map(workload)
                    .collect::<Result<Vec<_>, _>>()?
            };
            if workloads.is_empty() {
                return Err("run: --all or --workload <name>".into());
            }
            if args.has("all") {
                std::fs::write("BENCHMARK.json", report::manifest().pretty())
                    .map_err(|e| format!("BENCHMARK.json: {e}"))?;
                println!("BENCHMARK.json written");
            }
            report::run(&RunArgs {
                workloads,
                seed,
                seconds,
                scale,
                runs: args.parsed("runs", 1usize)?.max(1),
                out_dir,
                ledger: args.all("ledger").last().map(PathBuf::from),
            })?
        }
        "compare" => match args.words.as_slice() {
            [a, b] => report::compare(a.as_ref(), b.as_ref(), args.has("exact"))? as u64,
            _ => return Err(USAGE.into()),
        },
        _ => return Err(USAGE.into()),
    };
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    main_inner().unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::from(2)
    })
}
