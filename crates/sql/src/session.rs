//! The SQL session: a catalog of tables (shard routers over exact
//! backends) and registered models, plus the executor routing statements.
//!
//! Every table is backed by a [`ShardRouter`] (one shard until
//! `SET SHARDS n` says otherwise): `USING EXACT` forces the DBMS route,
//! `USING MODEL` forces the published snapshots, and `USING AUTO` lets
//! the router gate per query on its confidence score — falling back to
//! exact execution (and feeding the shard trainers) below the threshold.
//! That holds for every aggregate but `COUNT(*)`: the router also holds
//! the variance head of the table's moments model as a snapshot, so `VAR`
//! is resolved by the same pruned driver and passes the same gate.
//! Executions take `&self` and the session is `Send + Sync`, so one
//! session serves any number of threads concurrently; the serve path is
//! lock-free (see `regq_serve`). Resharding ([`Session::set_shards`],
//! or `SET SHARDS n [FOR table]` through
//! [`Session::execute_command`]) takes `&mut self` and preserves the
//! merged model bit-for-bit.

use crate::ast::{Aggregate, CommandRef, ExecMode, Statement, StatementRef};
use crate::parser::{ParseError, Parser};
use regq_core::moments::MomentsModel;
use regq_core::{CoreError, LlmModel, LocalModel, Query};
use regq_exact::ExactEngine;
use regq_linalg::LinalgError;
use regq_serve::{FaultPlan, Route, RoutePolicy, ServeError, Served, ShardRouter};
use std::collections::HashMap;
use std::fmt;

/// Errors from statement execution.
#[derive(Debug)]
pub enum SqlError {
    /// The statement failed to parse.
    Parse(ParseError),
    /// `FROM` names a table that is not registered.
    UnknownTable(String),
    /// The query center's dimensionality does not match the table.
    DimensionMismatch {
        /// Table the statement targeted.
        table: String,
        /// The table's input dimensionality.
        expected: usize,
        /// The statement's vector length.
        actual: usize,
    },
    /// `USING MODEL` on a table with no registered model.
    NoModel(String),
    /// `VAR(u) USING MODEL` needs a registered moments model.
    NoMomentsModel(String),
    /// The selection was empty (SQL NULL result for AVG/VAR/LINREG).
    EmptySubspace,
    /// Model-side failure.
    Model(CoreError),
    /// Exact-engine numerical failure.
    Numeric(LinalgError),
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlError::Parse(e) => write!(f, "{e}"),
            SqlError::UnknownTable(t) => write!(f, "unknown table '{t}'"),
            SqlError::DimensionMismatch {
                table,
                expected,
                actual,
            } => write!(
                f,
                "table '{table}' has {expected} input dimensions, query center has {actual}"
            ),
            SqlError::NoModel(t) => {
                write!(f, "no model registered for table '{t}' (USING MODEL)")
            }
            SqlError::NoMomentsModel(t) => write!(
                f,
                "no moments model registered for table '{t}' (VAR … USING MODEL)"
            ),
            SqlError::EmptySubspace => write!(f, "empty subspace (NULL)"),
            SqlError::Model(e) => write!(f, "model error: {e}"),
            SqlError::Numeric(e) => write!(f, "numeric error: {e}"),
        }
    }
}

impl std::error::Error for SqlError {
    /// Thread the underlying cause so serving layers can report routed
    /// failures structurally (`anyhow`-style chains, log scrubbers)
    /// instead of leaking `fmt::Debug` dumps.
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SqlError::Parse(e) => Some(e),
            SqlError::Model(e) => Some(e),
            SqlError::Numeric(e) => Some(e),
            SqlError::UnknownTable(_)
            | SqlError::DimensionMismatch { .. }
            | SqlError::NoModel(_)
            | SqlError::NoMomentsModel(_)
            | SqlError::EmptySubspace => None,
        }
    }
}

impl From<ParseError> for SqlError {
    fn from(e: ParseError) -> Self {
        SqlError::Parse(e)
    }
}

/// The value produced by a statement.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryValue {
    /// `AVG(u)` / `VAR(u)` result.
    Scalar(f64),
    /// `COUNT(*)` result.
    Count(usize),
    /// `LINREG(u)` result: one or more local linear models. Exact
    /// execution returns exactly one (the subspace OLS fit); model-served
    /// execution returns the paper's list `S`.
    Regression(Vec<LocalModel>),
}

impl fmt::Display for QueryValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryValue::Scalar(v) => write!(f, "{v:.6}"),
            QueryValue::Count(n) => write!(f, "{n}"),
            QueryValue::Regression(models) => {
                for (i, m) in models.iter().enumerate() {
                    if i > 0 {
                        writeln!(f)?;
                    }
                    write!(f, "u ≈ {:.4}", m.intercept)?;
                    for (j, b) in m.slope.iter().enumerate() {
                        write!(
                            f,
                            " {} {:.4}·x{}",
                            if *b >= 0.0 { "+" } else { "-" },
                            b.abs(),
                            j + 1
                        )?;
                    }
                    if models.len() > 1 {
                        write!(f, "   [weight {:.2}]", m.weight)?;
                    }
                }
                Ok(())
            }
        }
    }
}

/// Result of executing a statement: the value plus how it was produced
/// (per-query route and confidence reporting).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutput {
    /// The answer.
    pub value: QueryValue,
    /// Which backend produced it.
    pub route: Route,
    /// Confidence score that drove (or would drive) the routing decision;
    /// `None` when no snapshot was consulted.
    pub confidence: Option<f64>,
    /// Version of the model snapshot consulted, if any.
    pub snapshot_version: Option<u64>,
    /// `true` when this query's own feedback example was dropped by the
    /// serving fabric (bounded queue full / trainer lock contended) — the
    /// answer itself is unaffected, but the example did not train anyone.
    pub feedback_dropped: bool,
}

impl QueryOutput {
    fn exact(value: QueryValue) -> Self {
        QueryOutput {
            value,
            route: Route::Exact,
            confidence: None,
            snapshot_version: None,
            feedback_dropped: false,
        }
    }

    fn served(s: Served<QueryValue>) -> Self {
        QueryOutput {
            value: s.value,
            route: s.route,
            confidence: s.score,
            snapshot_version: s.snapshot_version,
            feedback_dropped: s.feedback_dropped,
        }
    }

    /// The scalar value, if this output is one.
    pub fn scalar(&self) -> Option<f64> {
        match self.value {
            QueryValue::Scalar(v) => Some(v),
            _ => None,
        }
    }

    /// The count value, if this output is one.
    pub fn count(&self) -> Option<usize> {
        match self.value {
            QueryValue::Count(n) => Some(n),
            _ => None,
        }
    }

    /// The regression list, if this output is one.
    pub fn regression(&self) -> Option<&[LocalModel]> {
        match &self.value {
            QueryValue::Regression(m) => Some(m),
            _ => None,
        }
    }
}

impl fmt::Display for QueryOutput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.value.fmt(f)
    }
}

/// A catalog of named tables with optional trained models, executing
/// statements of the dialect through per-table [`ShardRouter`]s.
#[derive(Default)]
pub struct Session {
    tables: HashMap<String, ShardRouter>,
}

impl Session {
    /// Empty session.
    pub fn new() -> Self {
        Session::default()
    }

    /// Register (or replace) a table backed by an exact engine, with the
    /// default [`RoutePolicy`].
    pub fn register_table(&mut self, name: impl Into<String>, engine: ExactEngine) {
        self.register_table_with_policy(name, engine, RoutePolicy::default());
    }

    /// Register (or replace) a table with an explicit routing policy for
    /// its `USING AUTO` statements.
    pub fn register_table_with_policy(
        &mut self,
        name: impl Into<String>,
        engine: ExactEngine,
        policy: RoutePolicy,
    ) {
        self.tables
            .insert(name.into(), ShardRouter::new(engine, policy, 1));
    }

    /// Re-shard a table's serve/train fabric in place (`SET SHARDS n FOR
    /// table`). The merged model survives bit-for-bit; pending queued
    /// feedback is drained into the trainers first.
    ///
    /// # Errors
    /// [`SqlError::UnknownTable`] when the table is not registered.
    pub fn set_shards(&mut self, table: &str, shards: usize) -> Result<(), SqlError> {
        self.router_mut(table)?.set_shards(shards);
        Ok(())
    }

    /// Attach a trained model to a table (enables `USING MODEL` and the
    /// model route of `USING AUTO`); publishes the model's first snapshot.
    ///
    /// # Errors
    /// [`SqlError::UnknownTable`] when the table is not registered;
    /// [`SqlError::DimensionMismatch`] when model and table disagree.
    pub fn register_model(&mut self, table: &str, model: LlmModel) -> Result<(), SqlError> {
        let router = self.router_mut(table)?;
        let expected = router.exact_engine().relation().dim();
        if model.dim() != expected {
            return Err(SqlError::DimensionMismatch {
                table: table.to_string(),
                expected,
                actual: model.dim(),
            });
        }
        router.attach_model(model);
        Ok(())
    }

    /// Attach a trained moments model (enables `VAR(u) … USING MODEL` and
    /// the model route of `VAR(u) … USING AUTO`).
    ///
    /// # Errors
    /// Same as [`Session::register_model`].
    pub fn register_moments_model(
        &mut self,
        table: &str,
        model: MomentsModel,
    ) -> Result<(), SqlError> {
        let router = self.router_mut(table)?;
        let expected = router.exact_engine().relation().dim();
        if model.mean_head().dim() != expected {
            return Err(SqlError::DimensionMismatch {
                table: table.to_string(),
                expected,
                actual: model.mean_head().dim(),
            });
        }
        router.attach_moments(model);
        Ok(())
    }

    /// Registered table names (sorted).
    pub fn tables(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.tables.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// Bound a table's per-shard feedback queues to `capacity` examples
    /// (administrative knob; see
    /// [`ShardRouter::set_queue_capacity`]).
    ///
    /// # Errors
    /// [`SqlError::UnknownTable`] when the table is not registered.
    pub fn set_feedback_queue_capacity(
        &mut self,
        table: &str,
        capacity: usize,
    ) -> Result<(), SqlError> {
        self.router_mut(table)?.set_queue_capacity(capacity);
        Ok(())
    }

    /// Arm a deterministic [`FaultPlan`] on a table's serve fabric
    /// (testing/chaos knob; see [`ShardRouter::set_fault_plan`]).
    /// Statements keep executing through the fault schedule: supervised
    /// recovery is counted in the router's stats, and deadline- or
    /// pressure-degraded answers surface as [`Route::Degraded`] on
    /// [`QueryOutput::route`] exactly as the router reports them.
    ///
    /// # Errors
    /// [`SqlError::UnknownTable`] when the table is not registered.
    pub fn set_fault_plan(&mut self, table: &str, plan: FaultPlan) -> Result<(), SqlError> {
        self.router_mut(table)?.set_fault_plan(plan);
        Ok(())
    }

    /// The shard router backing a table (routing stats, merged-model
    /// access, manual pump/publish).
    ///
    /// Scope note: `model_served` / `exact_served` / `degraded_served`
    /// count `AVG`/`LINREG` answers in every mode. `VAR` passes the same
    /// router gate (threshold, deadline/pressure degradation, feedback)
    /// over the moments model's variance-head snapshot, and `COUNT(*)` is
    /// the one session-level operator (cardinality needs the data by
    /// definition); neither moves a route counter, though a consulted
    /// `VAR` moves the `blocks_*` pruning counters and an exact one still
    /// feeds the trainers.
    pub fn router(&self, table: &str) -> Option<&ShardRouter> {
        self.tables.get(table)
    }

    fn router_mut(&mut self, table: &str) -> Result<&mut ShardRouter, SqlError> {
        self.tables
            .get_mut(table)
            .ok_or_else(|| SqlError::UnknownTable(table.to_string()))
    }

    /// Parse and execute one command: `SELECT …` statements return
    /// `Some(output)`, administration directives (`SET SHARDS n
    /// [FOR table]`) apply their effect and return `None`.
    ///
    /// # Errors
    /// See [`SqlError`]; `SET SHARDS` on an unknown table is
    /// [`SqlError::UnknownTable`].
    pub fn execute_command(&mut self, sql: &str) -> Result<Option<QueryOutput>, SqlError> {
        match Parser::new(sql).command()? {
            CommandRef::Query(stmt) => self.run(stmt).map(Some),
            CommandRef::SetShards { shards, table } => {
                match table {
                    Some(t) => self.set_shards(t, shards)?,
                    None => {
                        for router in self.tables.values_mut() {
                            router.set_shards(shards);
                        }
                    }
                }
                Ok(None)
            }
        }
    }

    /// Parse and execute one statement. The statement is never built as
    /// an owned [`Statement`]: its table name stays a slice of `sql` and
    /// its centre moves into the bound query, so a warm model-served call
    /// allocates that centre and whatever the answer owns, nothing else.
    ///
    /// # Errors
    /// See [`SqlError`].
    pub fn execute(&self, sql: &str) -> Result<QueryOutput, SqlError> {
        self.run(Parser::new(sql).statement()?)
    }

    /// Parse and execute a `';'`-separated multi-statement script,
    /// returning one output per statement in order.
    ///
    /// Maximal runs of consecutive statements with the same table, the
    /// same aggregate (`AVG` or `LINREG`) and `USING AUTO` execute
    /// through the router's batched serving path
    /// ([`ShardRouter::q1_batch`] / [`ShardRouter::q2_batch`]): one
    /// snapshot-guard resolution and the blocked Q×K distance kernels
    /// for the whole run, with the exact-fallback answers fed back in
    /// one batched offer. Per-statement outputs are bit-identical to
    /// executing the statements one by one against the same snapshots;
    /// a run additionally sees **one consistent snapshot version**
    /// (a scalar loop may straddle a republish). Everything else —
    /// `VAR`, `COUNT`, forced `EXACT`/`MODEL` modes, table switches —
    /// executes statement-at-a-time in place.
    ///
    /// The whole script is one all-or-nothing call: the first failing
    /// statement aborts it with that statement's error. An empty script
    /// returns an empty vec.
    ///
    /// # Errors
    /// See [`SqlError`]; a dimensionality mismatch anywhere in a batched
    /// run surfaces as the same typed [`SqlError::DimensionMismatch`]
    /// the scalar path produces, before any statement in the run
    /// executes.
    pub fn execute_batch(&self, sql: &str) -> Result<Vec<QueryOutput>, SqlError> {
        self.run_script(Parser::new(sql).script()?)
    }

    /// Execute already-parsed statements with the same run-batching as
    /// [`Session::execute_batch`].
    ///
    /// # Errors
    /// See [`Session::execute_batch`].
    pub fn execute_statements(&self, stmts: &[Statement]) -> Result<Vec<QueryOutput>, SqlError> {
        self.run_script(stmts.iter().map(StatementRef::from).collect())
    }

    /// Execute an already-parsed statement: the same bind and the same
    /// `(aggregate, mode)` dispatch as [`Session::execute`].
    ///
    /// # Errors
    /// See [`SqlError`]. A hand-built statement whose ball the parser
    /// would have rejected (non-finite coordinate, `θ ≤ 0`) is a typed
    /// [`SqlError::Model`] under every aggregate, `COUNT(*)` included.
    pub fn execute_statement(&self, stmt: &Statement) -> Result<QueryOutput, SqlError> {
        self.run(stmt.into())
    }

    /// The script executor behind [`Session::execute_batch`] and
    /// [`Session::execute_statements`].
    fn run_script(&self, stmts: Vec<StatementRef<'_>>) -> Result<Vec<QueryOutput>, SqlError> {
        let mut out = Vec::with_capacity(stmts.len());
        let mut stmts = stmts.into_iter().peekable();
        while let Some(s) = stmts.next() {
            let (aggregate, mode, table) = (s.aggregate, s.mode, s.table);
            let batchable =
                mode == ExecMode::Auto && matches!(aggregate, Aggregate::Avg | Aggregate::LinReg);
            let same_run = |t: &StatementRef<'_>| {
                batchable && t.mode == mode && t.aggregate == aggregate && t.table == table
            };
            if !stmts.peek().is_some_and(same_run) {
                out.push(self.run(s)?);
                continue;
            }
            // One table per run: the first statement's router serves it,
            // and every statement binds before any executes.
            let (router, first) = self.bind(s)?;
            let mut queries = vec![first];
            while let Some(t) = stmts.next_if(same_run) {
                queries.push(self.bind(t)?.1);
            }
            let serve_err = |e| convert_serve_error(aggregate, table, e);
            match aggregate {
                Aggregate::Avg => {
                    for served in router.q1_batch(&queries).map_err(serve_err)? {
                        out.push(QueryOutput::served(served.map_value(QueryValue::Scalar)));
                    }
                }
                Aggregate::LinReg => {
                    for served in router.q2_batch(&queries).map_err(serve_err)? {
                        out.push(QueryOutput::served(
                            served.map_value(QueryValue::Regression),
                        ));
                    }
                }
                _ => unreachable!("only AVG/LINREG runs are batched"),
            }
        }
        Ok(out)
    }

    /// Bind a statement to the catalog — the one step between a parsed
    /// statement and a router call, under both executors: the router
    /// behind `FROM`, and the statement's ball as a validated [`Query`]
    /// of the table's dimensionality, which takes over its centre.
    fn bind(&self, stmt: StatementRef<'_>) -> Result<(&ShardRouter, Query), SqlError> {
        let router = self
            .tables
            .get(stmt.table)
            .ok_or_else(|| SqlError::UnknownTable(stmt.table.to_owned()))?;
        let expected = router.exact_engine().relation().dim();
        if stmt.center.len() != expected {
            return Err(SqlError::DimensionMismatch {
                table: stmt.table.to_owned(),
                expected,
                actual: stmt.center.len(),
            });
        }
        let q = Query::new(stmt.center, stmt.radius).map_err(SqlError::Model)?;
        Ok((router, q))
    }

    /// Bind and execute one statement: one `(aggregate, mode)` dispatch
    /// onto the table's router, so every answer but `COUNT(*)` passes the
    /// same gate, deadline/pressure degradation and feedback seam.
    fn run(&self, stmt: StatementRef<'_>) -> Result<QueryOutput, SqlError> {
        let (aggregate, mode, table) = (stmt.aggregate, stmt.mode, stmt.table);
        let (router, q) = self.bind(stmt)?;

        // COUNT requires the data by definition; the model never sees
        // cardinalities. Route to the exact engine regardless of mode.
        if aggregate == Aggregate::Count {
            let n = router.exact_engine().relation().count(&q.center, q.radius);
            return Ok(QueryOutput::exact(QueryValue::Count(n)));
        }

        let scalar = |s: Served<f64>| s.map_value(QueryValue::Scalar);
        let list = |s: Served<Vec<LocalModel>>| s.map_value(QueryValue::Regression);
        match (aggregate, mode) {
            (Aggregate::Avg, ExecMode::Exact) => router.q1_exact(&q).map(scalar),
            (Aggregate::Avg, ExecMode::Model) => router.q1_model(&q).map(scalar),
            (Aggregate::Avg, ExecMode::Auto) => router.q1(&q).map(scalar),
            (Aggregate::LinReg, ExecMode::Exact) => router.q2_exact(&q).map(list),
            (Aggregate::LinReg, ExecMode::Model) => router.q2_model(&q).map(list),
            (Aggregate::LinReg, ExecMode::Auto) => router.q2(&q).map(list),
            (Aggregate::Var, ExecMode::Exact) => router.var_exact(&q).map(scalar),
            (Aggregate::Var, ExecMode::Model) => router.var_model(&q).map(scalar),
            (Aggregate::Var, ExecMode::Auto) => router.var(&q).map(scalar),
            (Aggregate::Count, _) => unreachable!("handled above"),
        }
        .map(QueryOutput::served)
        .map_err(|e| convert_serve_error(aggregate, table, e))
    }
}

/// A router error in the statement's terms: the missing model of a `VAR`
/// is the moments model.
fn convert_serve_error(aggregate: Aggregate, table: &str, e: ServeError) -> SqlError {
    match e {
        ServeError::NoModel if aggregate == Aggregate::Var => {
            SqlError::NoMomentsModel(table.to_owned())
        }
        ServeError::NoModel => SqlError::NoModel(table.to_owned()),
        ServeError::EmptySubspace => SqlError::EmptySubspace,
        ServeError::Model(c) => SqlError::Model(c),
        ServeError::Numeric(n) => SqlError::Numeric(n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_script;
    use rand::RngExt;
    use regq_core::moments::MomentPair;
    use regq_core::ModelConfig;
    use regq_data::generators::GasSensorSurrogate;
    use regq_data::rng::seeded;
    use regq_data::{Dataset, SampleOptions};
    use regq_store::AccessPathKind;
    use std::sync::Arc;

    /// The table's rows plus a Q1 model and a moments model trained on
    /// them.
    fn trained_parts() -> (Arc<Dataset>, LlmModel, MomentsModel) {
        let field = GasSensorSurrogate::new(2, 3);
        let mut rng = seeded(1);
        let ds = Dataset::from_function(&field, 20_000, SampleOptions::default(), &mut rng);
        let data = Arc::new(ds);
        let engine = ExactEngine::new(Arc::clone(&data), AccessPathKind::KdTree);

        // Train a model + a moments model on the engine.
        let mut cfg = ModelConfig::with_vigilance(2, 0.15);
        cfg.gamma = 1e-3;
        let mut model = LlmModel::new(cfg.clone()).unwrap();
        let mut moments = MomentsModel::new(cfg).unwrap();
        for _ in 0..30_000 {
            let c = vec![rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)];
            let r = rng.random_range(0.05..0.2);
            if let Some(mo) = engine.q1_moments(&c, r) {
                let q = Query::new_unchecked(c, r);
                let done_a = model.train_step(&q, mo.mean).unwrap().converged;
                let done_b = moments
                    .train_step(
                        &q,
                        MomentPair {
                            mean: mo.mean,
                            variance: mo.variance,
                        },
                    )
                    .unwrap();
                if done_a && done_b {
                    break;
                }
            }
        }
        (data, model, moments)
    }

    fn session_over(
        data: &Arc<Dataset>,
        model: LlmModel,
        moments: MomentsModel,
        policy: RoutePolicy,
    ) -> Session {
        let engine = ExactEngine::new(Arc::clone(data), AccessPathKind::KdTree);
        let mut s = Session::new();
        s.register_table_with_policy("readings", engine, policy);
        s.register_model("readings", model).unwrap();
        s.register_moments_model("readings", moments).unwrap();
        s
    }

    fn session_with_model() -> Session {
        let (data, model, moments) = trained_parts();
        session_over(&data, model, moments, RoutePolicy::default())
    }

    #[test]
    fn exact_avg_matches_engine() {
        let s = session_with_model();
        let out = s
            .execute("SELECT AVG(u) FROM readings WHERE DIST(x, [0.5, 0.5]) <= 0.2")
            .unwrap();
        assert_eq!(out.route, Route::Exact);
        assert!(out.scalar().expect("scalar").is_finite());
    }

    #[test]
    fn model_avg_is_close_to_exact() {
        let s = session_with_model();
        let exact = s
            .execute("SELECT AVG(u) FROM readings WHERE DIST(x, [0.5, 0.5]) <= 0.15")
            .unwrap();
        let model = s
            .execute("SELECT AVG(u) FROM readings WHERE DIST(x, [0.5, 0.5]) <= 0.15 USING MODEL")
            .unwrap();
        let (e, m) = (exact.scalar().unwrap(), model.scalar().unwrap());
        assert!((e - m).abs() < 0.15, "exact {e} vs model {m}");
        assert_eq!(model.route, Route::Model);
        assert!(model.confidence.is_some(), "model route reports its score");
        assert!(model.snapshot_version.is_some());
    }

    #[test]
    fn deadline_degraded_routes_surface_through_sql() {
        let field = GasSensorSurrogate::new(2, 3);
        let mut rng = seeded(21);
        let ds = Dataset::from_function(&field, 20_000, SampleOptions::default(), &mut rng);
        let engine = ExactEngine::new(Arc::new(ds), AccessPathKind::KdTree);
        let mut cfg = ModelConfig::with_vigilance(2, 0.15);
        cfg.gamma = 1e-3;
        let mut model = LlmModel::new(cfg).unwrap();
        for _ in 0..30_000 {
            let c = vec![rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)];
            let r = rng.random_range(0.05..0.2);
            if let Some(y) = engine.q1(&c, r) {
                if model
                    .train_step(&Query::new_unchecked(c, r), y)
                    .unwrap()
                    .converged
                {
                    break;
                }
            }
        }
        let mut s = Session::new();
        // Everything falls below the threshold; the deadline budget plus
        // a standing exact-cost hint forces the degraded serve.
        s.register_table_with_policy(
            "readings",
            engine,
            RoutePolicy {
                confidence_threshold: 2.0,
                deadline_us: Some(50.0),
                ..RoutePolicy::default()
            },
        );
        s.register_model("readings", model).unwrap();
        s.set_fault_plan("readings", FaultPlan::new().with_exact_cost_hint_us(1e6))
            .unwrap();
        let out = s
            .execute("SELECT AVG(u) FROM readings WHERE DIST(x, [0.5, 0.5]) <= 0.15 USING AUTO")
            .unwrap();
        assert_eq!(out.route, Route::Degraded, "degraded must never be silent");
        assert!(out.confidence.is_some() && out.snapshot_version.is_some());
        // Snapshot answer: bit-identical to the forced model route.
        let forced = s
            .execute("SELECT AVG(u) FROM readings WHERE DIST(x, [0.5, 0.5]) <= 0.15 USING MODEL")
            .unwrap();
        assert_eq!(
            out.scalar().unwrap().to_bits(),
            forced.scalar().unwrap().to_bits()
        );
        assert_eq!(s.router("readings").unwrap().stats().degraded_served, 1);
        // Unknown tables still error.
        assert!(matches!(
            s.set_fault_plan("nope", FaultPlan::new()),
            Err(SqlError::UnknownTable(_))
        ));
    }

    #[test]
    fn count_star_works_in_every_mode() {
        let s = session_with_model();
        let a = s
            .execute("SELECT COUNT(*) FROM readings WHERE DIST(x, [0.5, 0.5]) <= 0.2")
            .unwrap();
        let b = s
            .execute("SELECT COUNT(*) FROM readings WHERE DIST(x, [0.5, 0.5]) <= 0.2 USING MODEL")
            .unwrap();
        let c = s
            .execute("SELECT COUNT(*) FROM readings WHERE DIST(x, [0.5, 0.5]) <= 0.2 USING AUTO")
            .unwrap();
        let (ca, cb, cc) = (a.count().unwrap(), b.count().unwrap(), c.count().unwrap());
        assert_eq!(ca, cb);
        assert_eq!(ca, cc);
        assert!(ca > 10);
        assert_eq!(b.route, Route::Exact, "COUNT always runs on the data");
    }

    #[test]
    fn linreg_exact_returns_single_model_and_model_mode_a_list() {
        let s = session_with_model();
        let exact = s
            .execute("SELECT LINREG(u) FROM readings WHERE DIST(x, [0.5, 0.5]) <= 0.2")
            .unwrap();
        let ms = exact.regression().expect("regression");
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].slope.len(), 2);

        let served = s
            .execute("SELECT LINREG(u) FROM readings WHERE DIST(x, [0.5, 0.5]) <= 0.2 USING MODEL")
            .unwrap();
        let list = served.regression().expect("regression");
        assert!(!list.is_empty());
        let wsum: f64 = list.iter().map(|m| m.weight).sum();
        assert!((wsum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn var_exact_and_model_agree_roughly() {
        let s = session_with_model();
        let e = s
            .execute("SELECT VAR(u) FROM readings WHERE DIST(x, [0.5, 0.5]) <= 0.2")
            .unwrap();
        let m = s
            .execute("SELECT VAR(u) FROM readings WHERE DIST(x, [0.5, 0.5]) <= 0.2 USING MODEL")
            .unwrap();
        let (ev, mv) = (e.scalar().unwrap(), m.scalar().unwrap());
        assert!(ev >= 0.0 && mv >= 0.0);
        assert!((ev - mv).abs() < 0.1, "exact {ev} vs model {mv}");
        assert_eq!(m.route, Route::Model);
    }

    #[test]
    fn auto_mode_reports_route_and_score_per_query() {
        let s = session_with_model();
        // A query far outside the trained region but selecting plenty of
        // data must fall back to exact execution with the low score
        // reported; the served answer equals the exact one.
        let low = s
            .execute("SELECT AVG(u) FROM readings WHERE DIST(x, [30.0, 30.0]) <= 50.0 USING AUTO")
            .unwrap();
        assert_eq!(low.route, Route::Exact);
        let score = low.confidence.expect("snapshot was consulted");
        assert!(score < 1.0);
        let exact = s
            .execute("SELECT AVG(u) FROM readings WHERE DIST(x, [30.0, 30.0]) <= 50.0")
            .unwrap();
        assert_eq!(low.scalar().unwrap(), exact.scalar().unwrap());

        // Probe at the most mature prototype's own subspace: the score
        // clears the default threshold and the model serves.
        let model = s.router("readings").unwrap().merged_model().unwrap();
        let protos = model.prototypes();
        let p = protos.iter().max_by_key(|p| p.updates).unwrap();
        let sql = format!(
            "SELECT AVG(u) FROM readings WHERE DIST(x, [{}, {}]) <= {} USING AUTO",
            p.center[0], p.center[1], p.radius
        );
        let high = s.execute(&sql).unwrap();
        assert_eq!(high.route, Route::Model, "score {:?}", high.confidence);
        assert!(high.confidence.unwrap() >= 0.3);

        // VAR auto mode routes too (moments head gate).
        let var = s
            .execute("SELECT VAR(u) FROM readings WHERE DIST(x, [30.0, 30.0]) <= 50.0 USING AUTO")
            .unwrap();
        assert_eq!(var.route, Route::Exact);
    }

    fn var_sql(c: &[f64], r: f64, mode: &str) -> String {
        format!(
            "SELECT VAR(u) FROM readings WHERE DIST(x, [{}, {}]) <= {r} USING {mode}",
            c[0], c[1]
        )
    }

    #[test]
    fn var_auto_is_the_router_gate_over_the_moments_heads() {
        let (data, model, moments) = trained_parts();
        let policy = RoutePolicy::default();
        let mut s = session_over(&data, model, moments.clone(), policy);
        let engine = ExactEngine::new(Arc::clone(&data), AccessPathKind::KdTree);
        // In-distribution probes (every prototype's own subspace, random
        // training-shaped balls) and out-of-distribution ones (far, wide,
        // tiny) that still select rows.
        let mut probes: Vec<(Vec<f64>, f64)> = moments
            .mean_head()
            .prototypes()
            .into_iter()
            .map(|p| (p.center, p.radius))
            .collect();
        let mut rng = seeded(77);
        for _ in 0..40 {
            let c = vec![rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)];
            probes.push((c, rng.random_range(0.05..0.2)));
        }
        probes.extend([
            (vec![30.0, 30.0], 50.0),
            (vec![1.6, 1.6], 1.2),
            (vec![-0.4, 0.5], 0.6),
            (vec![0.5, 0.5], 3.0),
            (vec![0.5, 0.5], 0.02),
        ]);
        let mut reference = Vec::new();
        for shards in [1usize, 4] {
            if shards > 1 {
                s.execute_command("SET SHARDS 4").unwrap();
            }
            let mut routes = [0usize; 2];
            for (i, (c, r)) in probes.iter().enumerate() {
                let out = s.execute(&var_sql(c, *r, "AUTO")).unwrap();
                // Reference gate: the variance head if the mean head's
                // score clears the threshold, else the exact moments.
                let q = Query::new_unchecked(c.clone(), *r);
                let score = moments.mean_head().confidence(&q).unwrap().score;
                let (want, route) = if score >= policy.confidence_threshold {
                    let v = moments.second_head().predict_q1(&q).unwrap().max(0.0);
                    (v, Route::Model)
                } else {
                    (engine.q1_moments(c, *r).unwrap().variance, Route::Exact)
                };
                assert_eq!(out.route, route, "probe {i} (score {score})");
                assert_eq!(out.scalar().unwrap().to_bits(), want.to_bits(), "probe {i}");
                assert_eq!(out.confidence.map(f64::to_bits), Some(score.to_bits()));
                assert_eq!(
                    out.snapshot_version,
                    Some(moments.mean_head().steps()),
                    "a consulted moments model reports its version"
                );
                routes[usize::from(route == Route::Exact)] += 1;
                // Resharding leaves every VAR answer bit-identical.
                if shards == 1 {
                    reference.push(out);
                } else {
                    assert_eq!(out, reference[i], "probe {i} changed at 4 shards");
                }
            }
            assert!(routes[0] > 0 && routes[1] > 0, "both routes: {routes:?}");
        }
        // Forced modes answer from the same two sources.
        let (c, r) = &probes[0];
        let q = Query::new_unchecked(c.clone(), *r);
        let forced = s.execute(&var_sql(c, *r, "MODEL")).unwrap();
        let head = moments.second_head().predict_q1(&q).unwrap().max(0.0);
        assert_eq!(forced.scalar().unwrap().to_bits(), head.to_bits());
        let forced = s.execute(&var_sql(c, *r, "EXACT")).unwrap();
        let truth = engine.q1_moments(c, *r).unwrap().variance;
        assert_eq!(forced.scalar().unwrap().to_bits(), truth.to_bits());
        assert_eq!((forced.route, forced.confidence), (Route::Exact, None));
        // The route counters stay the snapshot heads' (the ledger's smoke
        // test equates them with the answered `AVG` + `LINREG` statements).
        let st = s.router("readings").unwrap().stats();
        assert_eq!(
            (st.model_served, st.exact_served, st.degraded_served),
            (0, 0, 0)
        );
    }

    #[test]
    fn var_degrades_under_the_deadline_like_every_other_answer() {
        let (data, model, moments) = trained_parts();
        // Everything falls below the threshold; the deadline budget plus
        // a standing exact-cost hint refuses the exact fallback.
        let policy = RoutePolicy {
            confidence_threshold: 2.0,
            deadline_us: Some(50.0),
            ..RoutePolicy::default()
        };
        let mut s = session_over(&data, model, moments, policy);
        let sql = var_sql(&[0.5, 0.5], 0.15, "AUTO");
        let exact = s.execute(&sql).unwrap();
        assert_eq!(exact.route, Route::Exact, "no cost estimate yet: exact");
        s.set_fault_plan("readings", FaultPlan::new().with_exact_cost_hint_us(1e6))
            .unwrap();
        let fed = |s: &Session| s.router("readings").unwrap().stats().feedback_enqueued;
        let fed_before = fed(&s);
        let out = s.execute(&sql).unwrap();
        assert_eq!(out.route, Route::Degraded, "degraded must never be silent");
        assert!(out.confidence.is_some() && out.snapshot_version.is_some());
        assert_eq!(fed(&s), fed_before, "a degraded serve has no label to feed");
        // The degraded value is the forced model route's, bit for bit.
        let forced = s.execute(&var_sql(&[0.5, 0.5], 0.15, "MODEL")).unwrap();
        assert_eq!(
            out.scalar().unwrap().to_bits(),
            forced.scalar().unwrap().to_bits()
        );
        assert_eq!(forced.route, Route::Model);
    }

    #[test]
    fn var_without_a_trained_moments_model_routes_exact_or_errors_typed() {
        let (data, model, _) = trained_parts();
        let untrained = MomentsModel::new(ModelConfig::with_vigilance(2, 0.15)).unwrap();
        let s = session_over(&data, model, untrained, RoutePolicy::default());
        // AUTO: an untrained head predicts nothing — exact, no score.
        let out = s.execute(&var_sql(&[0.5, 0.5], 0.2, "AUTO")).unwrap();
        assert_eq!((out.route, out.confidence), (Route::Exact, None));
        assert_eq!(out.snapshot_version, None);
        // MODEL: the typed model-side error, not "no moments model".
        assert!(matches!(
            s.execute(&var_sql(&[0.5, 0.5], 0.2, "MODEL")),
            Err(SqlError::Model(CoreError::EmptyModel))
        ));
    }

    #[test]
    fn unknown_table_and_dimension_errors() {
        let s = session_with_model();
        assert!(matches!(
            s.execute("SELECT AVG(u) FROM nope WHERE DIST(x, [0.5, 0.5]) <= 0.2"),
            Err(SqlError::UnknownTable(_))
        ));
        assert!(matches!(
            s.execute("SELECT AVG(u) FROM readings WHERE DIST(x, [0.5]) <= 0.2"),
            Err(SqlError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn hand_built_statements_are_validated_when_bound() {
        // The parser cannot produce these; `execute_statement` is public.
        let s = session_with_model();
        for (center, radius) in [
            (vec![0.5, 0.5], -1.0),
            (vec![0.5, 0.5], 0.0),
            (vec![f64::NAN, 0.5], 0.2),
            (vec![0.5, 0.5], f64::INFINITY),
        ] {
            for aggregate in [Aggregate::Avg, Aggregate::Var, Aggregate::Count] {
                let stmt = Statement {
                    aggregate,
                    table: "readings".into(),
                    center: center.clone(),
                    radius,
                    mode: ExecMode::Auto,
                };
                assert!(
                    matches!(s.execute_statement(&stmt), Err(SqlError::Model(_))),
                    "{stmt:?}"
                );
                let run = [stmt.clone(), stmt];
                assert!(matches!(
                    s.execute_statements(&run),
                    Err(SqlError::Model(_))
                ));
            }
        }
    }

    #[test]
    fn empty_subspace_is_null() {
        let s = session_with_model();
        assert!(matches!(
            s.execute("SELECT AVG(u) FROM readings WHERE DIST(x, [50.0, 50.0]) <= 0.01"),
            Err(SqlError::EmptySubspace)
        ));
        // But the model extrapolates without data.
        assert!(s
            .execute("SELECT AVG(u) FROM readings WHERE DIST(x, [50.0, 50.0]) <= 0.01 USING MODEL")
            .is_ok());
    }

    #[test]
    fn model_mode_without_model_errors() {
        let field = GasSensorSurrogate::new(2, 3);
        let mut rng = seeded(9);
        let ds = Dataset::from_function(&field, 1_000, SampleOptions::default(), &mut rng);
        let mut s = Session::new();
        s.register_table("t", ExactEngine::new(Arc::new(ds), AccessPathKind::Scan));
        assert!(matches!(
            s.execute("SELECT AVG(u) FROM t WHERE DIST(x, [0.5, 0.5]) <= 0.2 USING MODEL"),
            Err(SqlError::NoModel(_))
        ));
        assert!(matches!(
            s.execute("SELECT VAR(u) FROM t WHERE DIST(x, [0.5, 0.5]) <= 0.2 USING MODEL"),
            Err(SqlError::NoMomentsModel(_))
        ));
        // AUTO without a model degrades gracefully to exact execution.
        let out = s
            .execute("SELECT AVG(u) FROM t WHERE DIST(x, [0.5, 0.5]) <= 0.2 USING AUTO")
            .unwrap();
        assert_eq!(out.route, Route::Exact);
        assert_eq!(out.confidence, None);
    }

    #[test]
    fn register_model_validates_dimension() {
        let field = GasSensorSurrogate::new(2, 3);
        let mut rng = seeded(10);
        let ds = Dataset::from_function(&field, 100, SampleOptions::default(), &mut rng);
        let mut s = Session::new();
        s.register_table("t", ExactEngine::new(Arc::new(ds), AccessPathKind::Scan));
        let wrong_dim = LlmModel::new(ModelConfig::paper_defaults(3)).unwrap();
        assert!(matches!(
            s.register_model("t", wrong_dim),
            Err(SqlError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn output_display_formats() {
        assert_eq!(QueryValue::Scalar(0.5).to_string(), "0.500000");
        assert_eq!(QueryValue::Count(42).to_string(), "42");
        let reg = QueryValue::Regression(vec![LocalModel {
            intercept: 1.0,
            slope: vec![2.0, -3.0].into(),
            prototype: 0,
            weight: 1.0,
            center: vec![0.0, 0.0].into(),
            radius: 0.1,
        }]);
        let text = reg.to_string();
        assert!(text.contains("u ≈ 1.0000"));
        assert!(text.contains("+ 2.0000·x1"));
        assert!(text.contains("- 3.0000·x2"));
        // QueryOutput displays its value.
        let out = QueryOutput::exact(QueryValue::Count(7));
        assert_eq!(out.to_string(), "7");
    }

    #[test]
    fn tables_listing_is_sorted() {
        let field = GasSensorSurrogate::new(1, 3);
        let mk = || {
            let ds = Dataset::from_function(&field, 10, SampleOptions::default(), &mut seeded(1));
            ExactEngine::new(Arc::new(ds), AccessPathKind::Scan)
        };
        let mut s = Session::new();
        s.register_table("zeta", mk());
        s.register_table("alpha", mk());
        assert_eq!(s.tables(), vec!["alpha", "zeta"]);
    }

    #[test]
    fn set_shards_command_preserves_model_answers() {
        let mut s = session_with_model();
        let sql = "SELECT AVG(u) FROM readings WHERE DIST(x, [0.5, 0.5]) <= 0.15 USING MODEL";
        let before = s.execute(sql).unwrap();
        assert!(s
            .execute_command("SET SHARDS 4 FOR readings;")
            .unwrap()
            .is_none());
        assert_eq!(s.router("readings").unwrap().shards(), 4);
        let after = s.execute(sql).unwrap();
        assert_eq!(before, after, "resharding changed a model-served answer");
        // Table-less form applies to every table; queries still flow
        // through the command surface.
        assert!(s.execute_command("SET SHARDS 2").unwrap().is_none());
        assert_eq!(s.router("readings").unwrap().shards(), 2);
        let out = s
            .execute_command("SELECT COUNT(*) FROM readings WHERE DIST(x, [0.5, 0.5]) <= 0.2")
            .unwrap()
            .expect("queries produce output");
        assert!(out.count().unwrap() > 10);
        assert!(matches!(
            s.execute_command("SET SHARDS 2 FOR nope"),
            Err(SqlError::UnknownTable(_))
        ));
    }

    #[test]
    fn feedback_drops_surface_on_query_outputs() {
        // An injected overflow burst on the second and third offers makes
        // those exact-routed queries lose their example — deterministically
        // — and the drop must be visible on the output that caused it.
        let field = GasSensorSurrogate::new(2, 3);
        let mut rng = seeded(12);
        let ds = Dataset::from_function(&field, 5_000, SampleOptions::default(), &mut rng);
        let engine = ExactEngine::new(Arc::new(ds), AccessPathKind::KdTree);
        let mut model = LlmModel::new(ModelConfig::with_vigilance(2, 0.15)).unwrap();
        model
            .train_step(&Query::new_unchecked(vec![0.5, 0.5], 0.1), 1.0)
            .unwrap();
        let mut moments = MomentsModel::new(ModelConfig::with_vigilance(2, 0.15)).unwrap();
        moments
            .train_step(
                &Query::new_unchecked(vec![0.5, 0.5], 0.1),
                MomentPair {
                    mean: 1.0,
                    variance: 0.1,
                },
            )
            .unwrap();
        let mut s = Session::new();
        s.register_table("readings", engine);
        s.register_model("readings", model).unwrap();
        s.register_moments_model("readings", moments).unwrap();
        s.set_feedback_queue_capacity("readings", 1).unwrap();
        let burst = FaultPlan::new().inject(regq_serve::FaultKind::QueueOverflow, &[2, 3]);
        s.set_fault_plan("readings", burst).unwrap();
        let sql = "SELECT AVG(u) FROM readings WHERE DIST(x, [0.5, 0.5]) <= 0.2 USING EXACT";
        let first = s.execute(sql).unwrap();
        assert!(!first.feedback_dropped, "first example fits the queue");
        let second = s.execute(sql).unwrap();
        assert!(second.feedback_dropped, "overflow: drop must surface");
        assert_eq!(s.router("readings").unwrap().stats().feedback_dropped, 1);
        // VAR's exact path reports drops too (it feeds the same fabric).
        let var = s
            .execute("SELECT VAR(u) FROM readings WHERE DIST(x, [0.5, 0.5]) <= 0.2")
            .unwrap();
        assert!(var.feedback_dropped);
        assert!(matches!(
            s.set_feedback_queue_capacity("nope", 1),
            Err(SqlError::UnknownTable(_))
        ));
    }

    #[test]
    fn session_is_send_and_sync() {
        fn assert_bounds<T: Send + Sync>() {}
        assert_bounds::<Session>();
    }

    #[test]
    fn concurrent_executions_share_one_session() {
        let s = session_with_model();
        let reference = s
            .execute("SELECT AVG(u) FROM readings WHERE DIST(x, [0.5, 0.5]) <= 0.15 USING MODEL")
            .unwrap();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        s.execute(
                            "SELECT AVG(u) FROM readings \
                             WHERE DIST(x, [0.5, 0.5]) <= 0.15 USING MODEL",
                        )
                        .unwrap()
                    })
                })
                .collect();
            for h in handles {
                assert_eq!(h.join().unwrap(), reference);
            }
        });
    }

    #[test]
    fn error_sources_thread_the_cause() {
        use std::error::Error as _;
        let s = session_with_model();
        let parse_err = s.execute("this is not sql").unwrap_err();
        assert!(parse_err.source().is_some(), "parse cause must thread");
        let null_err = s
            .execute("SELECT AVG(u) FROM readings WHERE DIST(x, [50.0, 50.0]) <= 0.01")
            .unwrap_err();
        assert!(null_err.source().is_none(), "NULL has no deeper cause");
        assert!(matches!(null_err, SqlError::EmptySubspace));
    }

    /// A frozen-policy session (feedback off) so scalar replay between
    /// batch calls cannot retrain the model under the comparison.
    fn frozen_session_with_model() -> Session {
        let s = session_with_model();
        let mut frozen = Session::new();
        let router = s.router("readings").unwrap();
        let data = Arc::clone(router.exact_engine().relation().dataset());
        let engine = ExactEngine::new(data, AccessPathKind::KdTree);
        let model = router.merged_model().unwrap();
        frozen.register_table_with_policy(
            "readings",
            engine,
            RoutePolicy {
                feedback: false,
                ..RoutePolicy::default()
            },
        );
        frozen.register_model("readings", model).unwrap();
        frozen
    }

    #[test]
    fn execute_batch_matches_statement_at_a_time() {
        let s = frozen_session_with_model();
        let model = s.router("readings").unwrap().merged_model().unwrap();
        let protos = model.prototypes();
        let p = protos.iter().max_by_key(|p| p.updates).unwrap();
        // A script mixing a batchable AVG AUTO run (model hit + exact
        // fallback), a batchable LINREG AUTO run, and statements the
        // batcher must pass through untouched (COUNT, forced EXACT).
        let script = format!(
            "SELECT AVG(u) FROM readings WHERE DIST(x, [{cx}, {cy}]) <= {r} USING AUTO;
             SELECT AVG(u) FROM readings WHERE DIST(x, [30.0, 30.0]) <= 50.0 USING AUTO;
             SELECT AVG(u) FROM readings WHERE DIST(x, [0.5, 0.5]) <= 0.3 USING AUTO;
             SELECT LINREG(u) FROM readings WHERE DIST(x, [{cx}, {cy}]) <= {r} USING AUTO;
             SELECT LINREG(u) FROM readings WHERE DIST(x, [30.0, 30.0]) <= 50.0 USING AUTO;
             SELECT COUNT(*) FROM readings WHERE DIST(x, [0.5, 0.5]) <= 0.3;
             SELECT AVG(u) FROM readings WHERE DIST(x, [0.5, 0.5]) <= 0.3 USING EXACT;",
            cx = p.center[0],
            cy = p.center[1],
            r = p.radius
        );
        let batched = s.execute_batch(&script).unwrap();
        assert_eq!(batched.len(), 7);
        let stmts = parse_script(&script).unwrap();
        for (stmt, got) in stmts.iter().zip(&batched) {
            assert_eq!(*got, s.execute_statement(stmt).unwrap());
        }
        // The run really exercised both routes.
        assert_eq!(batched[0].route, Route::Model);
        assert_eq!(batched[1].route, Route::Exact);
        assert!(batched[5].count().unwrap() > 0);
    }

    #[test]
    fn execute_batch_edge_cases_are_typed() {
        let s = frozen_session_with_model();
        // Empty script: empty result, no panic.
        assert!(s.execute_batch("").unwrap().is_empty());
        // A dimension mismatch inside a batched run is the same typed
        // error the scalar path produces, before anything executes.
        let err = s
            .execute_batch(
                "SELECT AVG(u) FROM readings WHERE DIST(x, [0.5, 0.5]) <= 0.3 USING AUTO;
                 SELECT AVG(u) FROM readings WHERE DIST(x, [0.5, 0.5, 0.5]) <= 0.3 USING AUTO;",
            )
            .unwrap_err();
        match err {
            SqlError::DimensionMismatch {
                table,
                expected,
                actual,
            } => {
                assert_eq!((table.as_str(), expected, actual), ("readings", 2, 3));
            }
            other => panic!("expected DimensionMismatch, got {other:?}"),
        }
        // Unknown table in a run.
        let err = s
            .execute_batch(
                "SELECT AVG(u) FROM nope WHERE DIST(x, [0.5]) <= 0.3 USING AUTO;
                 SELECT AVG(u) FROM nope WHERE DIST(x, [0.6]) <= 0.3 USING AUTO;",
            )
            .unwrap_err();
        assert!(matches!(err, SqlError::UnknownTable(t) if t == "nope"));
        // A singleton "run" goes through the scalar executor and behaves
        // identically.
        let one = s
            .execute_batch(
                "SELECT AVG(u) FROM readings WHERE DIST(x, [0.5, 0.5]) <= 0.3 USING AUTO",
            )
            .unwrap();
        assert_eq!(one.len(), 1);
        assert_eq!(
            one[0],
            s.execute("SELECT AVG(u) FROM readings WHERE DIST(x, [0.5, 0.5]) <= 0.3 USING AUTO")
                .unwrap()
        );
    }
}
