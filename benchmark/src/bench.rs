//! One workload, one process: set up, measure, verify, optionally trace,
//! and print every metric by name and unit, the result object last.

use crate::fixture::{self, Fixture};
use crate::host;
use crate::json::{obj, Json};
use crate::measure::{self, quantile_us, Composed};
use crate::oracle;
use crate::spec::{Kind, WorkloadSpec, DRIFT_PHASES, END_TO_END, PER_LAYER, TABLE};
use crate::trace;
use regq_serve::RouterStats;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Which metric set a run reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trace {
    /// `--trace 0`: the end-to-end metrics, from the untraced run alone.
    Off,
    /// `--trace 1`: the per-layer metrics (the untraced run still comes
    /// first: its counters are the per-layer counts, its time the base of
    /// the tracing overhead).
    On,
    /// Both sets, for the full report.
    Both,
}

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: &'static WorkloadSpec,
    pub seed: u64,
    /// Sizes the measured phase: a statement count of `seconds ×
    /// statements_per_second`, which lasts about `seconds` on the
    /// reference host.
    pub seconds: f64,
    /// Below 1 shrinks training streams and pools (smoke tests only;
    /// numbers at another scale are not comparable).
    pub scale: f64,
    pub trace: Trace,
    /// Where `trace-<workload>.json` goes.
    pub out_dir: PathBuf,
}

/// Rounds per run, each a set-up followed by its share of the replicas;
/// `setup_s` is composed from the set-ups' least-disturbed parts.
const SETUPS: usize = 3;
/// Fewest passes over a pool.
const MIN_REPLICAS: usize = 3;
/// Sessions the drift stream is fed to (fresh ones, and last the
/// fixture's own); the stream is this fraction of the budget.
pub const DRIFT_REPLICAS: usize = 5;
/// Statements executed before the clock starts, so lazy set-up (reader
/// slots, scratch buffers, allocator arenas) is not timed.
const WARMUP_STATEMENTS: usize = 2_048;
/// Window of the drift recovery measure, and the share of the
/// pre-relocation model share that counts as recovered.
const RECOVERY_WINDOW: usize = 500;
const RECOVERY_FRACTION: f64 = 0.7;
/// Load average above which something else is competing for the two
/// cores: the benchmark's own single thread accounts for 1.0 of it, so the
/// 1.0 the issue proposed would fire on every run after the first.
const BUSY_LOAD: f64 = 1.5;

pub struct Outcome {
    /// Report lines, the result object last.
    pub lines: Vec<String>,
    pub failed: u64,
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Statements until the windowed model share regains
/// [`RECOVERY_FRACTION`] of its pre-relocation value, median over the
/// relocations to a fresh region (A→B, B→C, C→D); and the model share of
/// the second lap. A phase that never recovers counts its full length.
fn drift_recovery(flags: &[u8], phase_len: usize) -> (f64, f64) {
    let share = |s: &[u8]| s.iter().map(|&f| f64::from(f)).sum::<f64>() / s.len().max(1) as f64;
    let window = RECOVERY_WINDOW.min(phase_len / 4).max(1);
    let recoveries = (1..DRIFT_PHASES / 2)
        .map(|r| {
            let start = r * phase_len;
            let target = RECOVERY_FRACTION * share(&flags[start - window..start]);
            flags[start..start + phase_len]
                .chunks(window)
                .position(|w| share(w) >= target)
                .map_or(phase_len, |k| (k + 1) * window) as f64
        })
        .collect();
    (
        median(recoveries),
        share(&flags[DRIFT_PHASES / 2 * phase_len..]),
    )
}

/// Report lines on the composed run's latencies and on how even its
/// throughput was; `steady` workloads warn when a segment stands out.
fn describe(run: &Composed, sorted: &[u32], per_call: usize, steady: bool) -> Vec<String> {
    let mut seg: Vec<f64> = run
        .segment_rates()
        .into_iter()
        .map(|r| r * per_call as f64)
        .collect();
    seg.sort_by(f64::total_cmp);
    // The highest percentile with at least ten samples beyond it.
    let beyond = 10.min(sorted.len() - 1);
    let pmax_rank = sorted.len() - 1 - beyond;
    let seg_median = seg[seg.len() / 2];
    let mut lines = vec![
        format!(
            "  latency over {} calls of {per_call} statement(s): pmax_us {:.3} at rank {pmax_rank} (p{:.4}), max {:.3} us",
            sorted.len(),
            f64::from(sorted[pmax_rank]) / 1e3,
            100.0 * pmax_rank as f64 / sorted.len() as f64,
            f64::from(sorted[sorted.len() - 1]) / 1e3,
        ),
        format!(
            "  qps over {} segments: q1 {:.1} median {seg_median:.1} q3 {:.1} (min {:.1} max {:.1})",
            seg.len(),
            seg[seg.len() / 4],
            seg[seg.len() * 3 / 4],
            seg[0],
            seg[seg.len() - 1],
        ),
    ];
    if steady
        && seg
            .iter()
            .any(|s| (s - seg_median).abs() > 0.15 * seg_median)
    {
        lines.push(
            "WARNING: a segment's qps is more than 15% off the median; this run was disturbed"
                .into(),
        );
    }
    lines
}

/// Run one workload and report.
pub fn run(opts: &Options) -> Outcome {
    let spec = opts.workload;
    let mut lines = vec![format!(
        "workload {} seed {} seconds {} scale {} nproc {} load {:.2}",
        spec.name,
        opts.seed,
        opts.seconds,
        opts.scale,
        host::nproc(),
        host::loadavg().unwrap_or(f64::NAN),
    )];
    if host::loadavg().is_some_and(|l| l > BUSY_LOAD) {
        lines.push(format!(
            "WARNING: 1-minute load average above {BUSY_LOAD} at start"
        ));
    }

    // The run is a few identical rounds, each a set-up followed by its share
    // of the measured replicas, so that the set-ups and the replicas are
    // both spread over the whole run: a disturbance that lasts for seconds
    // then falls on some of each, not on all of either. `setup_s` is not
    // reported by a traced-only run: one round suffices.
    let rounds = if opts.trace == Trace::On { 1 } else { SETUPS };
    let budget = opts.seconds * spec.statements_per_second;
    let drift = spec.kind == Kind::LiveDrift;
    let mut fx = Fixture::build(spec, opts.scale);
    let mut setups = vec![fx.setup.clone()];
    // The fixture is the same in every round, and so is the traffic.
    let traffic = fixture::traffic(&fx, opts.seed, opts.scale, budget as usize / DRIFT_REPLICAS);
    let per_call = traffic.per_call;
    let calls = traffic.calls.len();
    let statements = traffic.statements();
    // The budget is spent as identical replicas: passes over the pool, or
    // the drift stream fed to that many fresh sessions.
    let replica_count = if drift {
        DRIFT_REPLICAS
    } else {
        (budget as usize / statements).max(MIN_REPLICAS)
    };
    let mut replicas = Vec::with_capacity(replica_count);
    // The router's counters before and after each round's replicas. On the
    // drift workload they cover the last replica alone, which has the
    // fixture's session to itself; the others run on sessions of their own.
    let mut counted: Vec<(RouterStats, RouterStats)> = Vec::new();
    for round in 0..rounds {
        if round > 0 {
            fx = Fixture::build(spec, opts.scale);
            setups.push(fx.setup.clone());
        }
        let router = fx.session.router(TABLE).expect("the table is registered");
        let upto = replica_count * (round + 1) / rounds;
        if drift {
            // The stream is stateful and starts as set-up left it: no
            // warm-up, and a session per replica.
            while replicas.len() < upto {
                if replicas.len() + 1 < replica_count {
                    replicas.push(measure::run(&fx.fresh_session(), &traffic));
                } else {
                    let before = router.stats();
                    replicas.push(measure::run(&fx.session, &traffic));
                    counted.push((before, router.stats()));
                }
            }
        } else {
            for c in 0..calls.min(WARMUP_STATEMENTS / per_call) {
                std::hint::black_box(traffic.send(&fx.session, c).ok());
            }
            let before = router.stats();
            while replicas.len() < upto {
                replicas.push(measure::run(&fx.session, &traffic));
            }
            counted.push((before, router.stats()));
        }
    }
    let router = fx.session.router(TABLE).expect("the table is registered");
    // Composed like the measured phase: every set-up does the same parts
    // in the same order, and the host only ever adds time to one.
    let setup_s: f64 = (0..fx.setup.parts.len())
        .map(|i| {
            setups
                .iter()
                .map(|s| s.parts[i])
                .fold(f64::INFINITY, f64::min)
        })
        .sum();
    lines.push(format!(
        "  set-ups {:?} s, composed {setup_s:.3} s; K = {}",
        setups
            .iter()
            .map(|s| (s.total_s * 1e3).round() / 1e3)
            .collect::<Vec<_>>(),
        fx.model.k()
    ));
    // A chunk lasts about 2 ms (one script on the batch workload): long
    // against the clock, short against a disturbance, whose quiet intervals
    // it has to fit into.
    let chunk_calls = ((0.002 * spec.statements_per_second) as usize / per_call).max(1);
    let composed = measure::compose(&replicas, chunk_calls);
    let first = &replicas[0];
    let v = if drift {
        oracle::verify(&fx, &fx.fresh_session(), &traffic, &first.nulls)
    } else {
        oracle::verify(&fx, &fx.session, &traffic, &first.nulls)
    };
    let diverged = replicas.iter().any(|r| r.outcome() != first.outcome());
    let errors: usize = replicas.iter().map(|r| r.errors.len()).sum();
    let failed = (errors + v.wrong + usize::from(diverged)) as u64;
    let attempted = statements * replicas.len();
    lines.push(format!(
        "  measured {attempted} statements as {} replicas of {calls} calls; a replica took {:.3} s, the composed run {:.3} s ({:.1} % of the time was disturbance)",
        replicas.len(),
        composed.raw_wall_s,
        composed.wall_s,
        100.0 * composed.disturbance(),
    ));
    lines.push(format!(
        "  verified {} sample answers ({} AVG and {} LINREG model answers scored), {} confirmed NULL",
        v.checked, v.q1_scored, v.q2_scored, v.nulls_confirmed
    ));
    if composed.disturbance() > 0.15 {
        lines.push("WARNING: more than 15% of the measured time was disturbance".into());
    }
    if diverged {
        lines.push("FAILED replicas of a deterministic workload disagree on their routes".into());
    }
    for (i, e) in replicas.iter().flat_map(|r| &r.errors).take(5) {
        lines.push(format!("FAILED statement {i}: {e}"));
    }
    lines.extend(v.notes.iter().map(|n| format!("FAILED {n}")));
    lines.push(format!(
        "  {:<40} {:>16.6} ratio  ({failed} of {attempted})",
        "fail_share",
        failed as f64 / attempted as f64,
    ));

    let mut sorted = composed.lat_ns.clone();
    sorted.sort_unstable();
    let mut metrics: Vec<(&'static str, &'static str, f64)> = Vec::new();
    if opts.trace != Trace::On {
        lines.extend(describe(&composed, &sorted, per_call, !drift));
        let values = BTreeMap::from([
            ("setup_s", setup_s),
            ("qps", statements as f64 / composed.wall_s),
            ("p50_us", quantile_us(&sorted, 0.50)),
            (
                "model_share",
                first.model as f64 / first.answers().max(1) as f64,
            ),
            ("q1_nrmse", v.q1_nrmse),
            ("q2_fvu", v.q2_fvu),
            ("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0)),
        ]);
        metrics.extend(END_TO_END.iter().map(|m| (m.name, m.unit, values[m.name])));
    }
    if opts.trace != Trace::Off {
        let t = trace::run(&fx, &traffic, &composed, opts.seed);
        lines.extend(t.waterfall.iter().map(|l| format!("  {l}")));
        let mut values = t.metrics;
        let (recovery, lap2) = match traffic.phase_len {
            Some(phase_len) => drift_recovery(&first.model_flags, phase_len),
            None => (0.0, 0.0),
        };
        let delta = |f: fn(&RouterStats) -> u64| {
            counted.iter().map(|(a, b)| f(b) - f(a)).sum::<u64>() as f64
        };
        let skipped = delta(|s| s.blocks_skipped);
        let verified = delta(|s| s.blocks_verified);
        values.extend([
            ("sql.statements", attempted as f64),
            ("sql.null_answers", v.nulls_confirmed as f64),
            ("sql.errors", failed as f64),
            ("serve.model_served", delta(|s| s.model_served)),
            ("serve.exact_served", delta(|s| s.exact_served)),
            ("serve.degraded_served", delta(|s| s.degraded_served)),
            ("serve.feedback_enqueued", delta(|s| s.feedback_enqueued)),
            ("serve.feedback_fed", delta(|s| s.feedback_fed)),
            ("serve.feedback_dropped", delta(|s| s.feedback_dropped)),
            ("serve.publishes", delta(|s| s.publishes)),
            (
                "serve.retained",
                counted[counted.len() - 1].1.retained as f64,
            ),
            ("serve.trainer_restarts", delta(|s| s.trainer_restarts)),
            ("serve.blocks_screened", delta(|s| s.blocks_screened)),
            ("serve.blocks_skipped", skipped),
            ("serve.blocks_verified", verified),
            (
                "serve.block_skip_rate",
                skipped / (skipped + verified).max(1.0),
            ),
            ("core.k_start", fx.model.k() as f64),
            (
                "core.k_end",
                router.merged_model().map_or(0, |m| m.k()) as f64,
            ),
            ("store.index_build_s", fx.setup.index_build_s),
            ("store.rows", fx.data.len() as f64),
            ("data.generate_s", fx.setup.generate_s),
            ("workload.train_s", fx.setup.train_s),
            ("workload.train_examples", fx.setup.train_examples as f64),
            (
                "workload.train_query_time_fraction",
                fx.setup.train_query_time_fraction,
            ),
            ("p99_us", quantile_us(&sorted, 0.99)),
            ("drift.recovery_queries", recovery),
            ("drift.lap2_model_share", lap2),
        ]);
        metrics.extend(PER_LAYER.iter().map(|m| (m.name, m.unit, values[m.name])));
        let path = opts.out_dir.join(format!("trace-{}.json", spec.name));
        let written = std::fs::create_dir_all(&opts.out_dir)
            .and_then(|()| std::fs::write(&path, t.file.pretty()));
        match written {
            Ok(()) => lines.push(format!("  spans written to {}", path.display())),
            Err(e) => lines.push(format!("WARNING: cannot write {}: {e}", path.display())),
        }
    }

    for (name, unit, value) in &metrics {
        lines.push(format!("  {name:<40} {value:>16.6} {unit}"));
    }
    if host::loadavg().is_some_and(|l| l > BUSY_LOAD) {
        lines.push(format!(
            "WARNING: 1-minute load average above {BUSY_LOAD} at end"
        ));
    }
    lines.push(format!(
        "  load at end {:.2}",
        host::loadavg().unwrap_or(f64::NAN)
    ));
    let result = obj([
        ("correct", (failed == 0).into()),
        ("attempted", (attempted as f64).into()),
        ("failed", (failed as f64).into()),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|(name, unit, value)| {
                        (
                            name.to_string(),
                            obj([("value", (*value).into()), ("unit", (*unit).into())]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    lines.push(result.compact());
    Outcome { lines, failed }
}
