//! Abstract syntax of the regq SQL dialect.

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
    /// `SET SHARDS <n> [FOR <table>];` — re-shard one table's serve/train
    /// fabric (or every table's, without `FOR`).
    SetShards {
        /// Requested shard count (`>= 1`, enforced by the parser).
        shards: usize,
        /// Target table; `None` applies to every registered table.
        table: Option<String>,
    },
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
