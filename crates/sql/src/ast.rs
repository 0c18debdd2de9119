//! Abstract syntax of the regq SQL dialect: the owned [`Statement`] /
//! [`Command`] of the public surface, and the crate's borrowed twins that
//! the text entry points execute without copying the table name.

/// Aggregate requested by the `SELECT` clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregate {
    /// `AVG(u)` — the paper's Q1 mean-value query.
    Avg,
    /// `LINREG(u)` — the paper's Q2 linear-regression query.
    LinReg,
    /// `VAR(u)` — conditional variance (moments extension E-1).
    Var,
    /// `COUNT(*)` — selection cardinality `n_θ(x)`.
    Count,
}

impl std::fmt::Display for Aggregate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Aggregate::Avg => write!(f, "AVG(u)"),
            Aggregate::LinReg => write!(f, "LINREG(u)"),
            Aggregate::Var => write!(f, "VAR(u)"),
            Aggregate::Count => write!(f, "COUNT(*)"),
        }
    }
}

/// Execution route.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Execute on the relation (selection + aggregate) — the default.
    #[default]
    Exact,
    /// Serve from the trained model with zero data access.
    Model,
    /// Confidence-gated hybrid routing (`USING AUTO`): serve from the
    /// model when its confidence score clears the session's route policy,
    /// fall back to exact execution otherwise — the paper's desideratum
    /// D2 as a statement-level mode.
    Auto,
}

/// One parsed statement:
/// `SELECT <agg> FROM <table> WHERE DIST(x, [c…]) <= θ [USING EXACT|MODEL|AUTO];`
#[derive(Debug, Clone, PartialEq)]
pub struct Statement {
    /// Requested aggregate.
    pub aggregate: Aggregate,
    /// Table name (case-sensitive identifier).
    pub table: String,
    /// Query center `x`.
    pub center: Vec<f64>,
    /// Query radius `θ`.
    pub radius: f64,
    /// Exact, model-served or confidence-gated execution.
    pub mode: ExecMode,
}

/// One parsed command: a query statement, or a session-administration
/// directive.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// An ordinary `SELECT …` statement.
    Query(Statement),
    /// `SET SHARDS <n> [FOR <table>];` — accepted and validated, with no
    /// effect: a table trains one model, so there is nothing to split.
    /// The command stays in the grammar because the benchmark's fixture
    /// for `sql_auto_batch_sharded` still issues it.
    SetShards {
        /// Requested shard count (`>= 1`, enforced by the parser).
        shards: usize,
        /// Target table; `None` applies to every registered table.
        table: Option<String>,
    },
}

/// A [`Statement`] as the parser yields it and the session executes it:
/// the table name borrows from the SQL text, and the centre — the one
/// allocation of a parse — moves on into the bound query.
pub(crate) struct StatementRef<'a> {
    pub(crate) aggregate: Aggregate,
    pub(crate) table: &'a str,
    pub(crate) center: Vec<f64>,
    pub(crate) radius: f64,
    pub(crate) mode: ExecMode,
}

impl StatementRef<'_> {
    pub(crate) fn into_owned(self) -> Statement {
        Statement {
            aggregate: self.aggregate,
            table: self.table.to_owned(),
            center: self.center,
            radius: self.radius,
            mode: self.mode,
        }
    }
}

impl<'a> From<&'a Statement> for StatementRef<'a> {
    /// Borrows the table name and copies the centre (a query owns its
    /// centre).
    fn from(s: &'a Statement) -> Self {
        StatementRef {
            aggregate: s.aggregate,
            table: &s.table,
            center: s.center.clone(),
            radius: s.radius,
            mode: s.mode,
        }
    }
}

/// A [`Command`] whose table names borrow from the SQL text.
pub(crate) enum CommandRef<'a> {
    Query(StatementRef<'a>),
    SetShards {
        shards: usize,
        table: Option<&'a str>,
    },
}

impl CommandRef<'_> {
    pub(crate) fn into_owned(self) -> Command {
        match self {
            CommandRef::Query(s) => Command::Query(s.into_owned()),
            CommandRef::SetShards { shards, table } => Command::SetShards {
                shards,
                table: table.map(str::to_owned),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_mode_is_exact() {
        assert_eq!(ExecMode::default(), ExecMode::Exact);
    }

    #[test]
    fn aggregate_display() {
        assert_eq!(Aggregate::Avg.to_string(), "AVG(u)");
        assert_eq!(Aggregate::LinReg.to_string(), "LINREG(u)");
        assert_eq!(Aggregate::Var.to_string(), "VAR(u)");
        assert_eq!(Aggregate::Count.to_string(), "COUNT(*)");
    }
}
