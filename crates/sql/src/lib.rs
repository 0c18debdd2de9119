//! # regq-sql
//!
//! A declarative front end for the `regq` engines — the in-DBMS face of
//! the paper. The paper's Appendix IV specifies SQL syntax for its Q1/Q2
//! queries (the appendix itself is no longer retrievable, so this dialect
//! is reconstructed from the queries' semantics: a radius selection
//! `DIST(x, [c…]) <= θ` under one aggregate per statement):
//!
//! ```sql
//! -- Q1: mean of the output attribute within a radius selection
//! SELECT AVG(u) FROM readings WHERE DIST(x, [0.4, 0.6]) <= 0.1;
//!
//! -- Q2: the (list of) linear regression model(s) within the selection
//! SELECT LINREG(u) FROM readings WHERE DIST(x, [0.4, 0.6]) <= 0.1;
//!
//! -- moments & cardinality
//! SELECT VAR(u)   FROM readings WHERE DIST(x, [0.4, 0.6]) <= 0.1;
//! SELECT COUNT(*) FROM readings WHERE DIST(x, [0.4, 0.6]) <= 0.1;
//!
//! -- serve from the trained model instead of touching the data
//! SELECT AVG(u) FROM readings WHERE DIST(x, [0.4, 0.6]) <= 0.1 USING MODEL;
//!
//! -- confidence-gated hybrid routing: model when trustworthy, DBMS else
//! SELECT AVG(u) FROM readings WHERE DIST(x, [0.4, 0.6]) <= 0.1 USING AUTO;
//! ```
//!
//! `USING EXACT` (the default) routes to [`regq_exact::ExactEngine`];
//! `USING MODEL` routes to the published model snapshot and never touches
//! the relation — the paper's prediction-phase deployment; `USING AUTO`
//! executes through the table's [`regq_serve::ShardRouter`], serving the
//! snapshot's answer when its confidence score clears the route policy
//! and falling back to exact execution (which feeds the online trainer)
//! otherwise. Every [`QueryOutput`] reports the route taken,
//! the confidence score, the snapshot version consulted and whether the
//! query's own feedback example was dropped.
//!
//! [`Session::execute_command`] also accepts `SET SHARDS n [FOR table]`,
//! which is validated and has no effect ([`Command::SetShards`]).
//!
//! ## Modules
//! * [`ast`] — statements and aggregates;
//! * [`parser`] — expectation-driven recursive descent with positioned
//!   errors: the grammar tests the text at its cursor against what comes
//!   next, and tokens are scanned only to describe an error;
//! * [`session`] — catalog (tables + models) and the executor.
//!
//! The text doors ([`Session::execute`], [`Session::execute_batch`],
//! [`Session::execute_command`]) execute the parser's statement as it
//! comes: its table name still borrowed from the SQL text, its centre —
//! allocated once, at its final size — moved into the bound query. A warm
//! `USING MODEL` `AVG` therefore allocates that centre and nothing else
//! (`tests/front_door_allocations.rs`). The owned doors
//! ([`Session::execute_statement`], [`Session::execute_statements`]) run
//! the same bind and dispatch on a [`Statement`] the caller built.

#![deny(missing_docs)]

pub mod ast;
pub mod parser;
pub mod session;

pub use ast::{Aggregate, Command, ExecMode, Statement};
pub use parser::{parse, parse_command, parse_script};
pub use session::{QueryOutput, QueryValue, Session, SqlError};
