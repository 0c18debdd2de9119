//! The SQL session: a catalog of tables (routers over exact backends) and
//! registered models, plus the executor routing statements.
//!
//! Every table is backed by a [`ShardRouter`]: `USING EXACT` forces the
//! DBMS route, `USING MODEL` forces the published snapshot, and `USING
//! AUTO` lets the router gate per query on its confidence score — falling
//! back to exact execution (and feeding the table's one trainer) below
//! the threshold.
//! That holds for every aggregate but `COUNT(*)`: the router also holds
//! the variance head of the table's moments model as a snapshot, so `VAR`
//! is resolved by the same pruned driver and passes the same gate.
//! Executions take `&self` and the session is `Send + Sync`, so one
//! session serves any number of threads concurrently; the serve path is
//! lock-free (see `regq_serve`). `SET SHARDS n [FOR table]` is accepted
//! by [`Session::execute_command`] and has no effect: a table trains one
//! model.

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
    /// router: its bounded feedback queue was full (or an injected
    /// [`regq_serve::FaultKind::QueueOverflow`] burst said so). A busy
    /// trainer drops nothing — the example stays queued for the next
    /// drain. The answer itself is unaffected, but the example did not
    /// train anyone.
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
            .insert(name.into(), ShardRouter::new(engine, policy));
    }

    /// Attach a trained model to a table (enables `USING MODEL` and the
    /// model route of `USING AUTO`); publishes the model's first snapshot.
    ///
    /// # Errors
    /// [`SqlError::UnknownTable`] when the table is not registered;
    /// [`SqlError::DimensionMismatch`] when model and table disagree.
    pub fn register_model(&mut self, table: &str, model: LlmModel) -> Result<(), SqlError> {
        self.router_for_model(table, model.dim())?
            .attach_model(model);
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
        self.router_for_model(table, model.head().dim())?
            .attach_moments(model);
        Ok(())
    }

    /// Registered table names (sorted).
    pub fn tables(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.tables.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// Bound a table's feedback queue to `capacity` examples
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

    /// Arm a deterministic [`FaultPlan`] on a table's router
    /// (testing/chaos knob; see [`ShardRouter::set_fault_plan`]).
    /// Statements keep executing through the fault schedule: supervised
    /// recovery is counted in the router's stats, and a label an
    /// overflow burst drops surfaces as [`QueryOutput::feedback_dropped`]
    /// exactly as the router reports it.
    ///
    /// # Errors
    /// [`SqlError::UnknownTable`] when the table is not registered.
    pub fn set_fault_plan(&mut self, table: &str, plan: FaultPlan) -> Result<(), SqlError> {
        self.router_mut(table)?.set_fault_plan(plan);
        Ok(())
    }

    /// The router backing a table (routing stats, the trainer's model,
    /// manual pump/publish).
    ///
    /// Scope note: `model_served` / `exact_served` count `AVG`/`LINREG`
    /// answers in every mode. `VAR` passes the same router gate
    /// (threshold, feedback) over a snapshot of the moments model's one
    /// head, taken when it was registered, and `COUNT(*)` is the one
    /// session-level operator (cardinality needs the data by
    /// definition); neither moves a route counter, though a consulted
    /// `VAR` moves the `blocks_*` pruning counters and an exact one still
    /// feeds the trainer.
    pub fn router(&self, table: &str) -> Option<&ShardRouter> {
        self.tables.get(table)
    }

    fn router_mut(&mut self, table: &str) -> Result<&mut ShardRouter, SqlError> {
        self.tables
            .get_mut(table)
            .ok_or_else(|| SqlError::UnknownTable(table.to_string()))
    }

    /// The router of `table`, once a model of dimension `dim` fits it.
    fn router_for_model(&mut self, table: &str, dim: usize) -> Result<&mut ShardRouter, SqlError> {
        let router = self.router_mut(table)?;
        let expected = router.exact_engine().relation().dim();
        if dim != expected {
            return Err(SqlError::DimensionMismatch {
                table: table.to_string(),
                expected,
                actual: dim,
            });
        }
        Ok(router)
    }

    /// Parse and execute one command: `SELECT …` statements return
    /// `Some(output)`; `SET SHARDS n [FOR table]` is validated and returns
    /// `None` with no effect (see [`crate::Command::SetShards`]).
    ///
    /// # Errors
    /// See [`SqlError`]; `SET SHARDS` on an unknown table is
    /// [`SqlError::UnknownTable`].
    pub fn execute_command(&mut self, sql: &str) -> Result<Option<QueryOutput>, SqlError> {
        match Parser::new(sql).command()? {
            CommandRef::Query(stmt) => self.run(stmt).map(Some),
            CommandRef::SetShards { table, .. } => {
                if let Some(t) = table {
                    self.router_mut(t)?;
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
    /// snapshot-guard resolution for the whole run, each statement
    /// resolved through the snapshot's block layout and fused — a run
    /// with enough query × prototype pairs split into contiguous runs of
    /// statements, one per core — and the exact-fallback answers fed back
    /// through the router's one gate loop and feedback door, as executing
    /// the statements one by one feeds them: the same labels offered in
    /// the same order. Per-statement outputs are bit-identical to
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
    /// same gate and feedback seam.
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
    use rand::RngExt;
    use regq_core::moments::MomentPair;
    use regq_core::ModelConfig;
    use regq_data::generators::GasSensorSurrogate;
    use regq_data::rng::seeded;
    use regq_data::{Dataset, SampleOptions};
    use regq_store::AccessPathKind;
    use std::sync::Arc;

    /// A `readings` table with a model and a moments model trained on it.
    fn session_with_model() -> Session {
        let field = GasSensorSurrogate::new(2, 3);
        let mut rng = seeded(1);
        let ds = Dataset::from_function(&field, 20_000, SampleOptions::default(), &mut rng);
        let engine = ExactEngine::new(Arc::new(ds), AccessPathKind::KdTree);

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
        let mut s = Session::new();
        s.register_table("readings", engine);
        s.register_model("readings", model).unwrap();
        s.register_moments_model("readings", moments).unwrap();
        s
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
        assert!(matches!(
            s.set_fault_plan("nope", FaultPlan::new()),
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
}
