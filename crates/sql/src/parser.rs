//! One-pass scanner-parser for the regq SQL dialect.
//!
//! Grammar (keywords case-insensitive, identifiers case-sensitive):
//!
//! ```text
//! command   := statement | set_shards
//! statement := SELECT aggregate FROM ident
//!              WHERE DIST '(' ident ',' vector ')' '<=' number
//!              [USING (EXACT | MODEL | AUTO)] [';']
//! set_shards:= SET SHARDS number [FOR ident] [';']
//! aggregate := AVG '(' ident ')' | LINREG '(' ident ')'
//!            | VAR '(' ident ')' | COUNT '(' '*' ')'
//! vector    := '[' number (',' number)* ']'
//! ```
//!
//! There is no token stream: the parser scans the input on demand into
//! one token of lookahead that borrows its text from the input, and
//! builds the [`Statement`] / [`Command`] directly. The only heap a
//! successful parse touches is what the returned value keeps (the table
//! name, the centre, a script's statement list). Scanning on demand also
//! fixes the error order: whatever is wrong first in the text — a bad
//! character, a misplaced token, a rejected value — is what is reported,
//! at the byte offset where it starts.

use crate::ast::{Aggregate, Command, ExecMode, Statement};
use std::fmt;

/// Parse error with byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Byte offset of the token (or character) that was rejected.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// A lexical token; words and punctuation are slices of the input
/// (keywords are matched case-insensitively where the grammar expects
/// one).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Token<'a> {
    Word(&'a str),
    Number(f64),
    /// One of `(` `)` `[` `]` `,` `;` `*` `<=`.
    Punct(&'a str),
    Eof,
}

// The lookahead is copied out of the parser, never cloned: a `Copy` token
// cannot own a `String`, so scanning cannot allocate.
const _: () = {
    const fn assert_copy<T: Copy>() {}
    assert_copy::<Token<'_>>()
};

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Word(text) | Token::Punct(text) => write!(f, "'{text}'"),
            Token::Number(n) => write!(f, "number {n}"),
            Token::Eof => write!(f, "end of input"),
        }
    }
}

struct Parser<'a> {
    input: &'a str,
    /// The lookahead token and the byte offset it starts at.
    peek: Token<'a>,
    offset: usize,
    /// Byte offset just past the lookahead, where scanning resumes.
    /// Everything before it is ASCII, so it is always a char boundary.
    next: usize,
}

impl<'a> Parser<'a> {
    /// A parser with the first token of `input` under the cursor.
    fn new(input: &'a str) -> Result<Self, ParseError> {
        let mut p = Parser {
            input,
            peek: Token::Eof,
            offset: 0,
            next: 0,
        };
        p.advance()?;
        Ok(p)
    }

    /// An error at the lookahead token.
    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.offset,
            message: message.into(),
        }
    }

    /// Consume the lookahead: scan the next token of the input into its
    /// place. At the end of input the lookahead stays [`Token::Eof`].
    fn advance(&mut self) -> Result<(), ParseError> {
        let bytes = self.input.as_bytes();
        let mut i = self.next;
        while matches!(bytes.get(i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            i += 1;
        }
        self.offset = i;
        let mut end = i + 1;
        self.peek = match bytes.get(i) {
            None => {
                end = i;
                Token::Eof
            }
            Some(b'(' | b')' | b'[' | b']' | b',' | b';' | b'*') => {
                Token::Punct(&self.input[i..end])
            }
            Some(b'<') if bytes.get(end) == Some(&b'=') => {
                end += 1;
                Token::Punct(&self.input[i..end])
            }
            Some(b'<') => {
                return Err(
                    self.error("expected '<=' (only inclusive radius predicates are supported)")
                )
            }
            Some(b'-' | b'+' | b'0'..=b'9' | b'.') => {
                // Scientific notation: a sign continues the literal only
                // right after an exponent marker ("3-2" is 3 then -2).
                while bytes.get(end).is_some_and(|&b| match b {
                    b'0'..=b'9' | b'.' | b'e' | b'E' => true,
                    b'-' | b'+' => matches!(bytes[end - 1], b'e' | b'E'),
                    _ => false,
                }) {
                    end += 1;
                }
                let text = &self.input[i..end];
                Token::Number(
                    text.parse()
                        .map_err(|e| self.error(format!("malformed number '{text}': {e}")))?,
                )
            }
            Some(b'a'..=b'z' | b'A'..=b'Z' | b'_') => {
                while bytes
                    .get(end)
                    .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_')
                {
                    end += 1;
                }
                Token::Word(&self.input[i..end])
            }
            Some(_) => {
                // INVARIANT: `i < len` (this arm saw a byte) and `i` is a
                // char boundary (see `next`), so a character starts here.
                let c = self.input[i..].chars().next().expect("a char starts at i");
                return Err(self.error(format!("unexpected character '{c}'")));
            }
        };
        self.next = end;
        Ok(())
    }

    /// Consume the punctuation `punct`, or fail naming it.
    fn expect(&mut self, punct: &str) -> Result<(), ParseError> {
        if self.peek != Token::Punct(punct) {
            return Err(self.error(format!("expected '{punct}', found {}", self.peek)));
        }
        self.advance()
    }

    /// Consume the keyword `kw` if it is next (case-insensitive match).
    fn eat_keyword(&mut self, kw: &str) -> Result<bool, ParseError> {
        let hit = matches!(self.peek, Token::Word(w) if w.eq_ignore_ascii_case(kw));
        if hit {
            self.advance()?;
        }
        Ok(hit)
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if !self.eat_keyword(kw)? {
            return Err(self.error(format!("expected keyword {kw}, found {}", self.peek)));
        }
        Ok(())
    }

    /// The word under the cursor, **not yet consumed**: callers that
    /// validate it reject it at its own offset, then [`Parser::advance`].
    fn word(&self, what: &str) -> Result<&'a str, ParseError> {
        match self.peek {
            Token::Word(w) => Ok(w),
            other => Err(self.error(format!("expected {what}, found {other}"))),
        }
    }

    /// Consume an identifier.
    fn ident(&mut self, what: &str) -> Result<&'a str, ParseError> {
        let w = self.word(what)?;
        self.advance()?;
        Ok(w)
    }

    /// The finite numeric literal under the cursor, not yet consumed
    /// (see [`Parser::word`]).
    fn number(&self, what: &str) -> Result<f64, ParseError> {
        match self.peek {
            // A literal like 1e999 scans fine but overflows f64 to
            // infinity; reject it here so no non-finite value ever
            // reaches the engines (Query validation would otherwise
            // surface it later as a confusing model-side error).
            Token::Number(n) if !n.is_finite() => {
                Err(self.error(format!("{what} overflows f64 (not finite)")))
            }
            Token::Number(n) => Ok(n),
            other => Err(self.error(format!("expected {what}, found {other}"))),
        }
    }

    fn aggregate(&mut self) -> Result<Aggregate, ParseError> {
        let name = self.word("an aggregate (AVG, LINREG, VAR, COUNT)")?;
        let agg = if name.eq_ignore_ascii_case("AVG") {
            Aggregate::Avg
        } else if name.eq_ignore_ascii_case("LINREG") {
            Aggregate::LinReg
        } else if name.eq_ignore_ascii_case("VAR") {
            Aggregate::Var
        } else if name.eq_ignore_ascii_case("COUNT") {
            Aggregate::Count
        } else {
            return Err(self.error(format!(
                "unknown aggregate '{name}' (expected AVG, LINREG, VAR or COUNT)"
            )));
        };
        self.advance()?;
        self.expect("(")?;
        if agg == Aggregate::Count {
            self.expect("*")?;
        } else {
            self.ident("the output attribute name")?;
        }
        self.expect(")")?;
        Ok(agg)
    }

    fn vector(&mut self) -> Result<Vec<f64>, ParseError> {
        self.expect("[")?;
        let mut out = Vec::new();
        loop {
            out.push(self.number("a vector component")?);
            self.advance()?;
            if self.peek != Token::Punct(",") {
                break;
            }
            self.advance()?;
        }
        self.expect("]")?;
        Ok(out)
    }

    /// One statement, leaving the separator/EOF tail to the caller
    /// (shared by the single-statement and script surfaces).
    fn statement_body(&mut self) -> Result<Statement, ParseError> {
        self.expect_keyword("SELECT")?;
        let aggregate = self.aggregate()?;
        self.expect_keyword("FROM")?;
        let table = self.ident("a table name")?.to_string();
        self.expect_keyword("WHERE")?;
        self.expect_keyword("DIST")?;
        self.expect("(")?;
        self.ident("the input attribute name")?;
        self.expect(",")?;
        let center = self.vector()?;
        self.expect(")")?;
        self.expect("<=")?;
        let radius = self.number("the radius")?;
        if radius <= 0.0 {
            return Err(self.error(format!("radius must be positive, got {radius}")));
        }
        self.advance()?;

        let mut mode = ExecMode::Exact;
        if self.eat_keyword("USING")? {
            let which = self.word("EXACT, MODEL or AUTO")?;
            mode = if which.eq_ignore_ascii_case("EXACT") {
                ExecMode::Exact
            } else if which.eq_ignore_ascii_case("MODEL") {
                ExecMode::Model
            } else if which.eq_ignore_ascii_case("AUTO") {
                ExecMode::Auto
            } else {
                return Err(self.error(format!(
                    "unknown execution mode '{which}' (expected EXACT, MODEL or AUTO)"
                )));
            };
            self.advance()?;
        }
        Ok(Statement {
            aggregate,
            table,
            center,
            radius,
            mode,
        })
    }

    /// The optional `';'` and the end of input that close a single
    /// command.
    fn end(&mut self) -> Result<(), ParseError> {
        if self.peek == Token::Punct(";") {
            self.advance()?;
        }
        match self.peek {
            Token::Eof => Ok(()),
            other => Err(self.error(format!("unexpected trailing {other}"))),
        }
    }

    fn statement(&mut self) -> Result<Statement, ParseError> {
        let stmt = self.statement_body()?;
        self.end()?;
        Ok(stmt)
    }

    /// A `';'`-separated script of statements (empty segments — leading,
    /// trailing or doubled separators — are skipped).
    fn script(&mut self) -> Result<Vec<Statement>, ParseError> {
        let mut out = Vec::new();
        loop {
            while self.peek == Token::Punct(";") {
                self.advance()?;
            }
            if self.peek == Token::Eof {
                return Ok(out);
            }
            out.push(self.statement_body()?);
            if !matches!(self.peek, Token::Punct(";") | Token::Eof) {
                return Err(self.error(format!(
                    "expected ';' between statements, found {}",
                    self.peek
                )));
            }
        }
    }

    /// `SET SHARDS <n> [FOR <table>]` — the leading `SET` is already
    /// consumed.
    fn set_shards(&mut self) -> Result<Command, ParseError> {
        self.expect_keyword("SHARDS")?;
        let n = self.number("the shard count")?;
        if n < 1.0 || n.fract() != 0.0 || n > 4096.0 {
            return Err(self.error(format!(
                "shard count must be an integer in 1..=4096, got {n}"
            )));
        }
        self.advance()?;
        let mut table = None;
        if self.eat_keyword("FOR")? {
            table = Some(self.ident("a table name")?.to_string());
        }
        self.end()?;
        Ok(Command::SetShards {
            shards: n as usize,
            table,
        })
    }

    fn command(&mut self) -> Result<Command, ParseError> {
        if self.eat_keyword("SET")? {
            return self.set_shards();
        }
        self.statement().map(Command::Query)
    }
}

/// Parse one statement of the dialect.
///
/// # Example
///
/// ```
/// use regq_sql::{parse, Aggregate, ExecMode};
///
/// let stmt = parse(
///     "SELECT AVG(u) FROM readings WHERE DIST(x, [0.4, 0.6]) <= 0.1 USING MODEL;",
/// ).unwrap();
/// assert_eq!(stmt.aggregate, Aggregate::Avg);
/// assert_eq!(stmt.table, "readings");
/// assert_eq!(stmt.center, vec![0.4, 0.6]);
/// assert_eq!(stmt.mode, ExecMode::Model);
/// ```
///
/// # Errors
/// [`ParseError`] with the byte offset of the first offending token or
/// character.
pub fn parse(input: &str) -> Result<Statement, ParseError> {
    Parser::new(input)?.statement()
}

/// Parse a `';'`-separated multi-statement script into its statements
/// (the batched execution surface — [`crate::Session::execute_batch`]
/// routes consecutive same-shaped statements through the blocked batch
/// kernels). An empty script parses to an empty vec.
///
/// # Example
///
/// ```
/// use regq_sql::parse_script;
///
/// let stmts = parse_script(
///     "SELECT AVG(u) FROM t WHERE DIST(x, [0.1]) <= 0.2 USING AUTO;
///      SELECT AVG(u) FROM t WHERE DIST(x, [0.7]) <= 0.2 USING AUTO;",
/// ).unwrap();
/// assert_eq!(stmts.len(), 2);
/// ```
///
/// # Errors
/// [`ParseError`], as for [`parse`].
pub fn parse_script(input: &str) -> Result<Vec<Statement>, ParseError> {
    Parser::new(input)?.script()
}

/// Parse one command: a statement, or an administration directive such as
/// `SET SHARDS 4 FOR readings;`.
///
/// # Errors
/// [`ParseError`], as for [`parse`].
pub fn parse_command(input: &str) -> Result<Command, ParseError> {
    Parser::new(input)?.command()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_q1() {
        let s = parse("SELECT AVG(u) FROM readings WHERE DIST(x, [0.4, 0.6]) <= 0.1;").unwrap();
        assert_eq!(s.aggregate, Aggregate::Avg);
        assert_eq!(s.table, "readings");
        assert_eq!(s.center, vec![0.4, 0.6]);
        assert_eq!(s.radius, 0.1);
        assert_eq!(s.mode, ExecMode::Exact);
    }

    #[test]
    fn parses_q2_with_model_mode() {
        let s = parse("select linreg(u) from t where dist(x, [1.0]) <= 0.5 using model").unwrap();
        assert_eq!(s.aggregate, Aggregate::LinReg);
        assert_eq!(s.mode, ExecMode::Model);
        assert_eq!(s.center, vec![1.0]);
    }

    #[test]
    fn parses_auto_mode() {
        let s = parse("SELECT AVG(u) FROM t WHERE DIST(x, [0.4, 0.6]) <= 0.1 USING AUTO;").unwrap();
        assert_eq!(s.mode, ExecMode::Auto);
        let s = parse("select linreg(u) from t where dist(x, [1.0]) <= 0.5 using auto").unwrap();
        assert_eq!(s.mode, ExecMode::Auto);
    }

    #[test]
    fn parses_count_star_and_var() {
        let c = parse("SELECT COUNT(*) FROM t WHERE DIST(x, [0.0]) <= 1.0").unwrap();
        assert_eq!(c.aggregate, Aggregate::Count);
        let v = parse("SELECT VAR(u) FROM t WHERE DIST(x, [0.0]) <= 1.0").unwrap();
        assert_eq!(v.aggregate, Aggregate::Var);
    }

    #[test]
    fn keywords_are_case_insensitive_identifiers_are_not() {
        let s = parse("SeLeCt AvG(u) FrOm MyTable WhErE dIsT(x, [0.5]) <= 0.2").unwrap();
        assert_eq!(s.table, "MyTable");
    }

    #[test]
    fn negative_center_components_parse() {
        let s = parse("SELECT AVG(u) FROM t WHERE DIST(x, [-9.5, 3.0]) <= 1.0").unwrap();
        assert_eq!(s.center, vec![-9.5, 3.0]);
    }

    #[test]
    fn rejects_unknown_aggregate() {
        let err = parse("SELECT SUM(u) FROM t WHERE DIST(x, [0.0]) <= 1.0").unwrap_err();
        assert!(err.message.contains("unknown aggregate"));
    }

    #[test]
    fn rejects_non_positive_radius() {
        let err = parse("SELECT AVG(u) FROM t WHERE DIST(x, [0.0]) <= 0.0").unwrap_err();
        assert!(err.message.contains("radius must be positive"));
    }

    #[test]
    fn rejects_overflowing_literals() {
        // 1e999 lexes as f64 infinity: must be a parse error, not a
        // model-side validation failure downstream.
        let err = parse("SELECT AVG(u) FROM t WHERE DIST(x, [0.0]) <= 1e999").unwrap_err();
        assert!(err.message.contains("overflows"), "{}", err.message);
        let err = parse("SELECT AVG(u) FROM t WHERE DIST(x, [1e999]) <= 1.0").unwrap_err();
        assert!(err.message.contains("overflows"), "{}", err.message);
    }

    #[test]
    fn rejects_missing_pieces() {
        assert!(parse("SELECT AVG(u) FROM t").is_err());
        assert!(parse("SELECT AVG(u) WHERE DIST(x, [0.0]) <= 1.0").is_err());
        assert!(parse("AVG(u) FROM t WHERE DIST(x, [0.0]) <= 1.0").is_err());
        assert!(parse("SELECT AVG(u) FROM t WHERE DIST(x, []) <= 1.0").is_err());
    }

    #[test]
    fn rejects_unknown_mode_and_trailing_tokens() {
        let err =
            parse("SELECT AVG(u) FROM t WHERE DIST(x, [0.0]) <= 1.0 USING MAGIC").unwrap_err();
        assert!(err.message.contains("unknown execution mode"));
        let err = parse("SELECT AVG(u) FROM t WHERE DIST(x, [0.0]) <= 1.0; garbage").unwrap_err();
        assert!(err.message.contains("trailing"));
    }

    #[test]
    fn count_requires_star() {
        assert!(parse("SELECT COUNT(u) FROM t WHERE DIST(x, [0.0]) <= 1.0").is_err());
    }

    #[test]
    fn parses_set_shards() {
        assert_eq!(
            parse_command("SET SHARDS 4;").unwrap(),
            Command::SetShards {
                shards: 4,
                table: None
            }
        );
        assert_eq!(
            parse_command("set shards 2 for readings").unwrap(),
            Command::SetShards {
                shards: 2,
                table: Some("readings".into())
            }
        );
        // Ordinary statements still come through the command surface.
        let Command::Query(s) =
            parse_command("SELECT AVG(u) FROM t WHERE DIST(x, [0.0]) <= 1.0").unwrap()
        else {
            panic!("expected a query command");
        };
        assert_eq!(s.aggregate, Aggregate::Avg);
    }

    #[test]
    fn rejects_bad_shard_counts() {
        assert!(parse_command("SET SHARDS 0").is_err());
        assert!(parse_command("SET SHARDS 2.5").is_err());
        assert!(parse_command("SET SHARDS -1").is_err());
        assert!(parse_command("SET SHARDS 5000").is_err());
        assert!(parse_command("SET SHARDS 2 garbage").is_err());
        assert!(parse_command("SET RHO 2").is_err());
    }

    #[test]
    fn parse_script_splits_statements_and_skips_empty_segments() {
        let stmts = parse_script(
            ";;SELECT AVG(u) FROM t WHERE DIST(x, [0.1]) <= 0.2 USING AUTO;
              SELECT LINREG(u) FROM t WHERE DIST(x, [0.5]) <= 0.3;;
              SELECT COUNT(*) FROM t WHERE DIST(x, [0.0]) <= 1.0",
        )
        .unwrap();
        assert_eq!(stmts.len(), 3);
        assert_eq!(stmts[0].aggregate, Aggregate::Avg);
        assert_eq!(stmts[0].mode, ExecMode::Auto);
        assert_eq!(stmts[1].aggregate, Aggregate::LinReg);
        assert_eq!(stmts[2].aggregate, Aggregate::Count);
        assert!(parse_script("").unwrap().is_empty());
        assert!(parse_script(" ; ; ").unwrap().is_empty());
    }

    #[test]
    fn parse_script_requires_separators() {
        let err = parse_script(
            "SELECT AVG(u) FROM t WHERE DIST(x, [0.1]) <= 0.2
             SELECT AVG(u) FROM t WHERE DIST(x, [0.2]) <= 0.2",
        )
        .unwrap_err();
        assert!(err.message.contains("expected ';'"), "{}", err.message);
    }

    /// `sql` marks the expected error position with a `^` (not a character
    /// of the dialect); the statement without the marker must be rejected
    /// exactly there, with exactly `message`.
    fn assert_rejected_at(sql: &str, message: &str) {
        let offset = sql.find('^').expect("mark the expected offset with ^");
        let sql = sql.replacen('^', "", 1);
        let want = ParseError {
            offset,
            message: message.into(),
        };
        assert_eq!(parse_command(&sql), Err(want.clone()), "{sql:?}");
        // The statement surfaces share the grammar up to the closing `';'`,
        // where a script goes on (same place, its own message).
        if !sql.trim_start().to_ascii_uppercase().starts_with("SET") {
            assert_eq!(parse(&sql), Err(want), "{sql:?}");
            assert_eq!(parse_script(&sql).unwrap_err().offset, offset, "{sql:?}");
        }
    }

    #[test]
    fn error_offsets_are_meaningful() {
        // A rejected value is reported at its own first byte, not at
        // whatever follows it.
        assert_rejected_at(
            "SELECT AVG(u) FROM t WHERE DIST(x, [0.0]) <= ^-1.0",
            "radius must be positive, got -1",
        );
        assert_rejected_at(
            "SELECT AVG(u) FROM t WHERE DIST(x, [0.0]) <= ^0 USING MODEL;",
            "radius must be positive, got 0",
        );
        assert_rejected_at(
            "SELECT ^SUM(u) FROM t WHERE DIST(x, [0.0]) <= 1.0",
            "unknown aggregate 'SUM' (expected AVG, LINREG, VAR or COUNT)",
        );
        assert_rejected_at(
            "SELECT AVG(u) FROM t WHERE DIST(x, [0.0]) <= 1.0 USING ^MAGIC",
            "unknown execution mode 'MAGIC' (expected EXACT, MODEL or AUTO)",
        );
        for bad in ["0", "2.5", "-1", "5000"] {
            assert_rejected_at(
                &format!("SET SHARDS ^{bad} FOR t"),
                &format!("shard count must be an integer in 1..=4096, got {bad}"),
            );
        }
        assert_rejected_at(
            "SELECT AVG(u) FROM t WHERE DIST(x, [^1e999]) <= 1.0",
            "a vector component overflows f64 (not finite)",
        );
        // Grammar errors point at the unexpected token; a missing one is
        // reported where the input ends.
        assert_rejected_at("^AVG(u) FROM t", "expected keyword SELECT, found 'AVG'");
        assert_rejected_at("SELECT AVG^", "expected '(', found end of input");
        assert_rejected_at(
            "SELECT COUNT(^u) FROM t WHERE DIST(x, [0.0]) <= 1.0",
            "expected '*', found 'u'",
        );
        assert_rejected_at(
            "SELECT AVG(u) FROM t WHERE DIST(x, [0.0]) <= 1.0; ^garbage",
            "unexpected trailing 'garbage'",
        );
        assert_rejected_at("SET ^RHO 2", "expected keyword SHARDS, found 'RHO'");
    }

    #[test]
    fn the_first_offender_is_reported_whatever_its_kind() {
        // Scanning is on demand: a bad character late in the text does not
        // pre-empt the grammar error before it — nor the other way round.
        assert_rejected_at(
            "SELECT ^SUM(u) FROM t WHERE # DIST(x, [0.0]) <= 1.0",
            "unknown aggregate 'SUM' (expected AVG, LINREG, VAR or COUNT)",
        );
        assert_rejected_at("SELECT AVG(u) ^# FROM WHERE", "unexpected character '#'");
        assert_rejected_at(
            "SELECT AVG(u) FROM t WHERE DIST(x, [0.0]) <= ^-1 #",
            "radius must be positive, got -1",
        );
    }

    // ---- Lexical cases (the scanner has no surface of its own) ----------

    #[test]
    fn scans_a_full_statement() {
        let want = Statement {
            aggregate: Aggregate::Avg,
            table: "t".into(),
            center: vec![0.4, 0.6],
            radius: 0.1,
            mode: ExecMode::Exact,
        };
        let spaced = "SELECT AVG(u) FROM t WHERE DIST(x, [0.4, 0.6]) <= 0.1;";
        assert_eq!(parse(spaced), Ok(want.clone()));
        // Whitespace is only ever needed between two words.
        let dense = "SELECT\tAVG(u)FROM\r\nt WHERE DIST(x,[0.4,0.6])<=0.1;";
        assert_eq!(parse(dense), Ok(want));
    }

    #[test]
    fn scans_numbers_including_negative_and_scientific() {
        let s = parse("SELECT AVG(u) FROM t WHERE DIST(x, [-0.5, 1e-3, +2.5E2, .5, 5.]) <= 1e0");
        let s = s.unwrap();
        assert_eq!(s.center, vec![-0.5, 1e-3, 250.0, 0.5, 5.0]);
        assert_eq!(s.radius, 1.0);
    }

    #[test]
    fn a_sign_continues_a_number_only_inside_its_exponent() {
        // "3 -2" and "3-2" both scan as 3 then -2 (no arithmetic in this
        // dialect, but the scanner must split them sensibly).
        assert_rejected_at(
            "SELECT AVG(u) FROM t WHERE DIST(x, [3 ^-2]) <= 1.0",
            "expected ']', found number -2",
        );
        assert_rejected_at(
            "SELECT AVG(u) FROM t WHERE DIST(x, [3^-2]) <= 1.0",
            "expected ']', found number -2",
        );
    }

    #[test]
    fn rejects_bare_less_than() {
        assert_rejected_at(
            "SELECT AVG(u) FROM t WHERE DIST(x, [0.0]) ^< 1.0",
            "expected '<=' (only inclusive radius predicates are supported)",
        );
        assert_rejected_at(
            "SELECT AVG(u) FROM t WHERE DIST(x, [0.0]) ^<",
            "expected '<=' (only inclusive radius predicates are supported)",
        );
    }

    #[test]
    fn rejects_unknown_characters() {
        assert_rejected_at("SELECT ^#", "unexpected character '#'");
    }

    #[test]
    fn non_ascii_characters_are_reported_as_themselves() {
        // The offset is the byte offset of the character's first byte.
        for c in ['é', '🦀'] {
            let message = format!("unexpected character '{c}'");
            assert_rejected_at(&format!("^{c}"), &message);
            assert_rejected_at(&format!("SELECT ^{c}"), &message);
            assert_rejected_at(
                &format!("SELECT AVG(u) FROM t WHERE DIST(x, [0.0^{c}]) <= 1.0"),
                &message,
            );
            // Multi-byte characters before the error still count in bytes.
            let sql = format!("SELECT AVG(u) FROM t{c} WHERE");
            let err = parse(&sql).unwrap_err();
            assert_eq!((err.offset, err.message), (20, message));
        }
    }

    #[test]
    fn rejects_malformed_numbers() {
        assert_rejected_at(
            "SELECT AVG(u) FROM t WHERE DIST(x, [^1.2.3]) <= 1.0",
            "malformed number '1.2.3': invalid float literal",
        );
        for bad in ["-", "+", ".", "1e", "1e+", "--1"] {
            let sql = format!("SELECT AVG(u) FROM t WHERE DIST(x, [0.0]) <= {bad}");
            let err = parse(&sql).unwrap_err();
            assert_eq!(err.offset, 45, "{sql:?}");
            assert!(err.message.starts_with("malformed number '"), "{sql:?}");
        }
    }

    #[test]
    fn offsets_point_at_token_starts() {
        assert_rejected_at("^SELEC AVG", "expected keyword SELECT, found 'SELEC'");
        assert_rejected_at(
            "SELECT ^AVX",
            "unknown aggregate 'AVX' (expected AVG, LINREG, VAR or COUNT)",
        );
        assert_rejected_at(
            "  SELECT\n\t^7",
            "expected an aggregate (AVG, LINREG, VAR, COUNT), found number 7",
        );
    }

    #[test]
    fn star_and_brackets() {
        assert_rejected_at(
            "SELECT COUNT(*) FROM t WHERE DIST(x, [ ^]) <= 1.0",
            "expected a vector component, found ']'",
        );
        assert_rejected_at(
            "SELECT COUNT(*) FROM t WHERE DIST(x, ^* ]) <= 1.0",
            "expected '[', found '*'",
        );
        assert_rejected_at(
            "SELECT COUNT(*) FROM t WHERE DIST(x, [0.5^[) <= 1.0",
            "expected ']', found '['",
        );
    }
}
