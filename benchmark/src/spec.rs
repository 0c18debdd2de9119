//! What the benchmark is: the four workloads and every metric name, unit,
//! direction and bound. `BENCHMARK.json`, the ledger, the printed report
//! and `compare` are all generated from these tables, so a name cannot
//! mean two things in two places.

/// Which traffic shape a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Scalar `USING MODEL` statements against a frozen model.
    ScalarModel,
    /// 64-statement `USING AUTO` scripts against a frozen, sharded model.
    BatchAuto,
    /// One pass of scalar `USING AUTO` statements against a live model
    /// while the hot query region relocates.
    LiveDrift,
}

/// Statements per `execute_batch` script on the batch workload.
pub const SCRIPT_LEN: usize = 64;
/// Phases of the drift stream: regions `A B C D A B C D`.
pub const DRIFT_PHASES: usize = 8;
/// The one table every workload registers.
pub const TABLE: &str = "t";

/// One workload: its fixture, its traffic and why it exists.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    pub name: &'static str,
    /// One line, copied into `BENCHMARK.json`.
    pub why: &'static str,
    pub kind: Kind,
    pub dim: usize,
    pub rows: usize,
    /// Vigilance coefficient `a` of `ModelConfig::with_vigilance`.
    pub vigilance: f64,
    pub train_queries: usize,
    pub shards: usize,
    /// Statements in the pool (scripts × 64 on the batch workload); the
    /// drift workload has no pool, its stream length follows `--seconds`.
    pub pool_statements: usize,
    /// Statements budgeted per second of `--seconds`: the run measures a
    /// **fixed statement count** (`seconds × this`, rounded to whole
    /// passes), never a fixed duration, so every counter repeats exactly
    /// for a seed. Calibrated on the reference host so that the measured
    /// phase lasts about `--seconds`.
    pub statements_per_second: f64,
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "sql_model_smallk",
        why: "Prediction phase at paper-typical K~40: parse+bind+route+guard dominate, the kernel is minor; SQL/serve orchestration work shows here, kernel and exact-engine work must not.",
        kind: Kind::ScalarModel,
        dim: 2,
        rows: 100_000,
        vigilance: 0.1,
        train_queries: 20_000,
        shards: 1,
        pool_statements: 200_000,
        statements_per_second: 400_000.0,
    },
    WorkloadSpec {
        name: "sql_model_largek",
        why: "Same scalar USING MODEL path at K~3.5k: screening + AoSoA kernel dominate; kernel, layout and plan-choice work shows here, a parser win must not move it by more than 10%.",
        kind: Kind::ScalarModel,
        dim: 4,
        rows: 200_000,
        vigilance: 0.05,
        train_queries: 100_000,
        shards: 1,
        pool_statements: 25_000,
        statements_per_second: 34_000.0,
    },
    WorkloadSpec {
        name: "sql_auto_batch_sharded",
        why: "Same model over 4 shards, 64-statement USING AUTO scripts: QxK tiles, one gate per run, cross-shard fusion, batched feedback; batch/sharded serving can move opposite to scalar serving.",
        kind: Kind::BatchAuto,
        dim: 4,
        rows: 200_000,
        vigilance: 0.05,
        train_queries: 100_000,
        shards: 4,
        pool_statements: 500 * SCRIPT_LEN,
        statements_per_second: 29_000.0,
    },
    WorkloadSpec {
        name: "sql_auto_live_drift",
        why: "Writes beside reads: the hot region relocates A B C D A B C D, confidence drops, exact fallbacks feed the live trainer, snapshots republish, share recovers; trainer/publish/exact cost shows here.",
        kind: Kind::LiveDrift,
        dim: 4,
        rows: 200_000,
        vigilance: 0.1,
        train_queries: 60_000,
        shards: 1,
        pool_statements: 0,
        statements_per_second: 100_000.0,
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see. Every one is reported by every
/// workload and is never 0.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// Counts and accuracies repeat bit for bit for a seed; timings do not.
    pub exact: bool,
    pub meaning: &'static str,
}

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        exact: false,
        meaning: "dataset generation + index build + training + registration + oracle build; composed from the least-disturbed parts of the run's three set-ups",
    },
    EndToEnd {
        name: "qps",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
        exact: false,
        meaning: "statements completed / wall of the composed closed-loop run",
    },
    EndToEnd {
        name: "p50_us",
        unit: "us",
        better: Lower,
        bound: 0.25,
        exact: false,
        meaning: "median call latency (call = 1 statement; 1 script of 64 on sql_auto_batch_sharded)",
    },
    EndToEnd {
        name: "model_share",
        unit: "ratio",
        better: Higher,
        bound: 0.05,
        exact: true,
        meaning: "answers with Route::Model / answers: the share of statements that touched no data",
    },
    EndToEnd {
        name: "q1_nrmse",
        unit: "ratio",
        better: Lower,
        bound: 0.25,
        exact: true,
        meaning: "RMSE of model-served AVG vs the oracle over the target's standard deviation, on the verification sample",
    },
    EndToEnd {
        name: "q2_fvu",
        unit: "ratio",
        better: Lower,
        bound: 0.25,
        exact: true,
        meaning: "fraction of variance unexplained by the served LINREG list on the subspace rows, median over the sample",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        bound: 0.05,
        exact: false,
        meaning: "VmHWM of the workload's process",
    },
];

/// A metric of one layer (layer = crate), measured from outside by timing
/// calls into its public functions. Informational: no bound.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub layer: &'static str,
    /// Repeats bit for bit for a seed.
    pub exact: bool,
    pub how: &'static str,
    /// The (end-to-end metric, workload) it is expected to move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    exact: bool,
    how: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        layer,
        exact,
        how,
        moves,
    }
}

const COUNT_MOVES: &str = "model_share on every workload; recovery_queries on sql_auto_live_drift";
const PRUNE_MOVES: &str = "qps on sql_model_largek and sql_auto_batch_sharded";

pub const PER_LAYER: [PerLayer; 51] = [
    layer("sql.parse_us", "us", Lower, "regq_sql", false, "regq_sql::parse / parse_script, per statement", "p50_us, qps on sql_model_smallk (half the call or more); <= 10% on sql_model_largek"),
    layer("sql.bind_us", "us", Lower, "regq_sql", false, "Session::execute_statement(s) minus the ShardRouter call beneath it, per statement", "p50_us, qps on sql_model_smallk"),
    layer("sql.statements", "count", Higher, "regq_sql", true, "statements attempted in the counted pass", "denominator of fail_share"),
    layer("sql.null_answers", "count", Lower, "regq_sql", true, "EmptySubspace answers the oracle confirms (count 0); not failures", "fail_share"),
    layer("sql.errors", "count", Lower, "regq_sql", true, "errors other than confirmed NULL, plus wrong answers", "fail_share"),
    layer("serve.route_us", "us", Lower, "regq_serve", false, "ShardRouter::{q1,q2}{_model,,_batch} minus core predict minus exact call, per statement", "p50_us on sql_model_smallk; qps on sql_auto_batch_sharded (fusion over 4 parts)"),
    layer("serve.cell_read_us", "us", Lower, "regq_serve", false, "SnapshotCell::with_snapshot, then tls_reader().enter()/get/drop as the router does per call", "p50_us on sql_model_smallk"),
    layer("serve.feedback_us", "us", Lower, "regq_serve", false, "ShardRouter::q1_exact minus ExactEngine::q1 on a side router at the fixture's model (enqueue + inline pump + amortised publish)", "qps, p99_us on sql_auto_live_drift"),
    layer("serve.publish_us", "us", Lower, "regq_serve", false, "ShardRouter::publish_now() on a side router at the fixture's K", "p99_us on sql_auto_live_drift"),
    layer("serve.model_served", "count", Higher, "regq_serve", true, "RouterStats delta over the counted pass", COUNT_MOVES),
    layer("serve.exact_served", "count", Lower, "regq_serve", true, "RouterStats delta over the counted pass", COUNT_MOVES),
    layer("serve.degraded_served", "count", Lower, "regq_serve", true, "RouterStats delta over the counted pass", COUNT_MOVES),
    layer("serve.feedback_enqueued", "count", Higher, "regq_serve", true, "RouterStats delta over the counted pass", COUNT_MOVES),
    layer("serve.feedback_fed", "count", Higher, "regq_serve", true, "RouterStats delta over the counted pass", COUNT_MOVES),
    layer("serve.feedback_dropped", "count", Lower, "regq_serve", true, "RouterStats delta over the counted pass", COUNT_MOVES),
    layer("serve.publishes", "count", Lower, "regq_serve", true, "RouterStats delta over the counted pass", "p99_us on sql_auto_live_drift"),
    layer("serve.retained", "count", Lower, "regq_serve", true, "RouterStats::retained after the counted pass", "peak_rss_mb"),
    layer("serve.trainer_restarts", "count", Lower, "regq_serve", true, "RouterStats delta over the counted pass", "model_share on sql_auto_live_drift"),
    layer("serve.blocks_screened", "count", Lower, "regq_serve", true, "RouterStats delta over the counted pass", PRUNE_MOVES),
    layer("serve.blocks_skipped", "count", Higher, "regq_serve", true, "RouterStats delta over the counted pass", PRUNE_MOVES),
    layer("serve.blocks_verified", "count", Lower, "regq_serve", true, "RouterStats delta over the counted pass", PRUNE_MOVES),
    layer("serve.block_skip_rate", "ratio", Higher, "regq_serve", true, "blocks_skipped / (blocks_skipped + blocks_verified)", PRUNE_MOVES),
    layer("core.predict_q1_us", "us", Lower, "regq_core", false, "ServingSnapshot::predict_q1_with_confidence_pruned on a snapshot of router.merged_model(), AVG statements", "p50_us, qps on sql_model_largek"),
    layer("core.predict_q2_us", "us", Lower, "regq_core", false, "ServingSnapshot::predict_q2_with_confidence_pruned, LINREG statements", "p50_us, qps on sql_model_largek"),
    layer("core.predict_q1_unpruned_us", "us", Lower, "regq_core", false, "ServingSnapshot::predict_q1_with_confidence on the same queries: the plan-choice gap", "sql_model_smallk vs sql_model_largek (opposite signs today)"),
    layer("core.predict_q1_batch_us", "us", Lower, "regq_core", false, "ServingSnapshot::predict_q1_with_confidence_batch_pruned in batches of 64, per statement", "qps on sql_auto_batch_sharded"),
    layer("core.overlap_set_size", "count", Lower, "regq_core", true, "mean ServingSnapshot::overlap_set_into length on the sampled queries", "explains q2_fvu and core.predict_q2_us"),
    layer("core.k_start", "count", Lower, "regq_core", true, "merged_model().k() before the counted pass", "explains core.predict_*"),
    layer("core.k_end", "count", Lower, "regq_core", true, "merged_model().k() after the counted pass", "explains core.predict_* on sql_auto_live_drift"),
    layer("core.train_step_us", "us", Lower, "regq_core", false, "LlmModel::train_step on an unfrozen clone with precomputed (q, y)", "qps on sql_auto_live_drift; setup_s"),
    layer("core.capture_us", "us", Lower, "regq_core", false, "ServingSnapshot::capture + layout()", "p99_us on sql_auto_live_drift"),
    layer("linalg.scan_us", "us", Lower, "regq_linalg", false, "pack_quads_aosoa once, then a full-arena sq_dists4_aosoa scan per query", "floor of core.predict_q1_us on sql_model_largek"),
    layer("linalg.scan_flops", "flop", Lower, "regq_linalg", true, "computed, not measured: 3*K*d per query", "explains linalg.scan_us"),
    layer("linalg.scan_bytes", "B", Lower, "regq_linalg", true, "computed, not measured: 8*K*d per query", "explains linalg.scan_us"),
    layer("linalg.avx2", "bool", Higher, "regq_linalg", true, "simd::avx2_available(), a host fact", "-"),
    layer("exact.q1_us", "us", Lower, "regq_exact", false, "ExactEngine::q1 on the workload's exact-routed queries (a pool sample where none are)", "p99_us, qps on sql_auto_live_drift; setup_s everywhere"),
    layer("exact.q1_reg_fused_us", "us", Lower, "regq_exact", false, "ExactEngine::q1_reg_fused on the same queries", "p99_us, qps on sql_auto_live_drift"),
    layer("exact.q1_moments_us", "us", Lower, "regq_exact", false, "ExactEngine::q1_moments on the same queries", "p99_us, qps on sql_auto_live_drift"),
    layer("exact.rows_per_query", "count", Lower, "regq_exact", true, "mean Relation::count on the same queries", "explains exact.*_us"),
    layer("store.count_us", "us", Lower, "regq_store", false, "Relation::count on the same queries (traversal without aggregation)", "qps on sql_auto_live_drift"),
    layer("store.index_build_s", "s", Lower, "regq_store", false, "ExactEngine::new over the kd-tree access path", "setup_s"),
    layer("store.rows", "count", Higher, "regq_store", true, "rows in the table", "setup_s"),
    layer("data.generate_s", "s", Lower, "regq_data", false, "Dataset::from_function", "setup_s"),
    layer("workload.train_s", "s", Lower, "regq_workload", false, "the Fig. 2 training loop (train_from_engine; the drift fixture's loop also trains the moments head)", "setup_s"),
    layer("workload.train_examples", "count", Higher, "regq_workload", true, "(query, answer) pairs the model consumed", "setup_s"),
    layer("workload.train_query_time_fraction", "ratio", Higher, "regq_workload", false, "share of training time spent executing queries on the exact engine (the paper's >= 99% claim)", "setup_s"),
    layer("trace.residual_share", "ratio", Lower, "harness", false, "share of the traced execute time its child spans do not account for", "-"),
    layer("trace.overhead_share", "ratio", Lower, "harness", false, "(traced - untraced per-statement time) / untraced on the traced statements", "-"),
    layer("p99_us", "us", Lower, "harness", false, "99th percentile call latency of the composed run; an end-to-end figure kept out of the gated list because its spread across seeds on the reference host (0.18 on sql_model_smallk) is wider than a bound can be", "every workload"),
    layer("drift.recovery_queries", "count", Lower, "harness", true, "sql_auto_live_drift only: median over relocations to a fresh region of statements until the 500-statement windowed model_share regains 70% of its pre-relocation value", "an end-to-end metric of the drift workload; 0 elsewhere"),
    layer("drift.lap2_model_share", "ratio", Higher, "harness", true, "sql_auto_live_drift only: model_share over the second lap A B C D (retention of what the first lap learned)", "an end-to-end metric of the drift workload; 0 elsewhere"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// The name and unit alphabets the benchmark contract fixes.
    fn valid(s: &str, max: usize, extra: &str) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(valid(n, 64, "_.-"), "name {n}");
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric());
        }
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used once");
        for u in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(valid(u, 16, "_/%.-"), "unit {u}");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert_eq!(END_TO_END[0].name, "setup_s");
    }
}
