//! Expectation-driven recursive descent for the regq SQL dialect.
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
//! The grammar always knows what comes next, so there are no tokens: one
//! cursor skips whitespace and tests the text there against the one thing
//! expected — a keyword by a case-insensitive compare (not followed by an
//! identifier character), punctuation by a byte compare. Only identifiers
//! and numbers are scanned. The token scanner runs only when an
//! expectation fails, to describe what is there instead, so the first
//! offender in the text — a bad character, a misplaced token, a rejected
//! value — is what is reported, at the byte offset where it starts.
//!
//! A parse borrows its table name from the input and allocates the centre
//! once, at its final size. The session executes that; [`parse`],
//! [`parse_script`] and [`parse_command`] build owned values from it.

use crate::ast::{Aggregate, Command, CommandRef, ExecMode, Statement, StatementRef};
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

/// Every error is built here, off the accepting path.
#[cold]
fn error_at(offset: usize, message: String) -> ParseError {
    ParseError { offset, message }
}

/// What an error reports as found where something else was expected;
/// words and punctuation are slices of the input.
enum Token<'a> {
    Word(&'a str),
    Number(f64),
    /// One of `(` `)` `[` `]` `,` `;` `*` `<=`.
    Punct(&'a str),
    Eof,
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Word(text) | Token::Punct(text) => write!(f, "'{text}'"),
            Token::Number(n) => write!(f, "number {n}"),
            Token::Eof => write!(f, "end of input"),
        }
    }
}

/// Whether `b` continues an identifier (or a keyword).
fn is_word_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// One past the identifier starting at `end`.
fn word_end(bytes: &[u8], mut end: usize) -> usize {
    while bytes.get(end).copied().is_some_and(is_word_byte) {
        end += 1;
    }
    end
}

/// The numeric literal starting at `start` and the offset one past it. A
/// sign continues a literal only right after an exponent marker ("3-2" is
/// 3 then -2).
fn scan_number(input: &str, start: usize) -> Result<(f64, usize), ParseError> {
    let bytes = input.as_bytes();
    let mut end = start + 1;
    while bytes.get(end).is_some_and(|&b| match b {
        b'0'..=b'9' | b'.' | b'e' | b'E' => true,
        b'-' | b'+' => matches!(bytes[end - 1], b'e' | b'E'),
        _ => false,
    }) {
        end += 1;
    }
    let text = &input[start..end];
    match text.parse() {
        Ok(n) => Ok((n, end)),
        Err(e) => Err(error_at(start, format!("malformed number '{text}': {e}"))),
    }
}

/// The token starting at `at` (a char boundary past any whitespace), or
/// the error for text that starts none.
fn token_at(input: &str, at: usize) -> Result<Token<'_>, ParseError> {
    let bytes = input.as_bytes();
    Ok(match bytes.get(at) {
        None => Token::Eof,
        Some(b'(' | b')' | b'[' | b']' | b',' | b';' | b'*') => Token::Punct(&input[at..at + 1]),
        Some(b'<') if bytes.get(at + 1) == Some(&b'=') => Token::Punct(&input[at..at + 2]),
        Some(b'<') => {
            let message = "expected '<=' (only inclusive radius predicates are supported)";
            return Err(error_at(at, message.into()));
        }
        Some(b'-' | b'+' | b'0'..=b'9' | b'.') => Token::Number(scan_number(input, at)?.0),
        Some(b'a'..=b'z' | b'A'..=b'Z' | b'_') => Token::Word(&input[at..word_end(bytes, at)]),
        Some(_) => {
            // INVARIANT: `at < len` (this arm saw a byte) and `at` is a
            // char boundary, so a character starts here.
            let c = input[at..].chars().next().expect("a char starts at `at`");
            return Err(error_at(at, format!("unexpected character '{c}'")));
        }
    })
}

pub(crate) struct Parser<'a> {
    input: &'a str,
    /// The cursor. Everything before it was consumed and is ASCII, so it
    /// is always a char boundary.
    pos: usize,
}

impl<'a> Parser<'a> {
    pub(crate) fn new(input: &'a str) -> Self {
        Parser { input, pos: 0 }
    }

    /// Move the cursor past whitespace and return the bytes from there.
    fn rest(&mut self) -> &'a [u8] {
        let bytes = self.input.as_bytes();
        while matches!(bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
        &bytes[self.pos..]
    }

    /// An unmet expectation: the scanner's own error when no token starts
    /// at the cursor, else `message` about the token that does.
    #[cold]
    fn unexpected(&self, message: impl FnOnce(Token<'_>) -> String) -> ParseError {
        match token_at(self.input, self.pos) {
            Ok(found) => error_at(self.pos, message(found)),
            Err(e) => e,
        }
    }

    /// Consume the punctuation `punct` if it is next.
    fn eat(&mut self, punct: &str) -> bool {
        let hit = self.rest().starts_with(punct.as_bytes());
        self.pos += if hit { punct.len() } else { 0 };
        hit
    }

    /// Consume the punctuation `punct`, or fail naming it.
    fn expect(&mut self, punct: &str) -> Result<(), ParseError> {
        if self.eat(punct) {
            return Ok(());
        }
        Err(self.unexpected(|found| format!("expected '{punct}', found {found}")))
    }

    /// Consume the keyword `kw` if it is next: its letters in any case,
    /// not followed by an identifier character.
    fn eat_keyword(&mut self, kw: &str) -> bool {
        let rest = self.rest();
        // `kw` is upper-case letters: clearing bit 5 folds only a letter.
        let hit = rest.len() >= kw.len()
            && rest.iter().zip(kw.bytes()).all(|(&b, k)| (b & !0x20) == k)
            && !rest.get(kw.len()).copied().is_some_and(is_word_byte);
        self.pos += if hit { kw.len() } else { 0 };
        hit
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_keyword(kw) {
            return Ok(());
        }
        Err(self.unexpected(|found| format!("expected keyword {kw}, found {found}")))
    }

    /// Consume an identifier; `what` names it in the error.
    fn ident(&mut self, what: &str) -> Result<&'a str, ParseError> {
        if !matches!(self.rest().first(), Some(b'a'..=b'z' | b'A'..=b'Z' | b'_')) {
            return Err(self.unexpected(|found| format!("expected {what}, found {found}")));
        }
        let start = self.pos;
        self.pos = word_end(self.input.as_bytes(), start);
        Ok(&self.input[start..self.pos])
    }

    /// Consume whichever keyword of `choices` is next; any other word is
    /// rejected at its own offset with `unknown(word)`.
    fn choice<T: Copy>(
        &mut self,
        what: &str,
        choices: &[(&str, T)],
        unknown: impl FnOnce(&str) -> String,
    ) -> Result<T, ParseError> {
        if let Some(&(_, value)) = choices.iter().find(|(kw, _)| self.eat_keyword(kw)) {
            return Ok(value);
        }
        let word = self.ident(what)?;
        Err(error_at(self.pos - word.len(), unknown(word)))
    }

    /// Consume a finite numeric literal, returned with its offset so the
    /// caller can reject its value there.
    fn number(&mut self, what: &str) -> Result<(usize, f64), ParseError> {
        if !matches!(self.rest().first(), Some(b'-' | b'+' | b'0'..=b'9' | b'.')) {
            return Err(self.unexpected(|found| format!("expected {what}, found {found}")));
        }
        let start = self.pos;
        let (n, end) = scan_number(self.input, start)?;
        // 1e999 scans fine but is infinite: no such value may go further.
        if !n.is_finite() {
            let message = format!("{what} overflows f64 (not finite)");
            return Err(error_at(start, message));
        }
        self.pos = end;
        Ok((start, n))
    }

    fn aggregate(&mut self) -> Result<Aggregate, ParseError> {
        let agg = self.choice(
            "an aggregate (AVG, LINREG, VAR, COUNT)",
            &[
                ("AVG", Aggregate::Avg),
                ("LINREG", Aggregate::LinReg),
                ("VAR", Aggregate::Var),
                ("COUNT", Aggregate::Count),
            ],
            |name| format!("unknown aggregate '{name}' (expected AVG, LINREG, VAR or COUNT)"),
        )?;
        self.expect("(")?;
        if agg == Aggregate::Count {
            self.expect("*")?;
        } else {
            self.ident("the output attribute name")?;
        }
        self.expect(")")?;
        Ok(agg)
    }

    /// The execution mode after `USING`.
    fn mode(&mut self) -> Result<ExecMode, ParseError> {
        let modes = [
            ("EXACT", ExecMode::Exact),
            ("MODEL", ExecMode::Model),
            ("AUTO", ExecMode::Auto),
        ];
        self.choice("EXACT, MODEL or AUTO", &modes, |which| {
            format!("unknown execution mode '{which}' (expected EXACT, MODEL or AUTO)")
        })
    }

    fn vector(&mut self) -> Result<Vec<f64>, ParseError> {
        self.expect("[")?;
        // Sized once: a vector that parses has one component more than
        // it has commas before its ']'.
        let inside = self.rest().split(|&b| b == b']').next().unwrap_or_default();
        let mut out = Vec::with_capacity(1 + inside.iter().filter(|&&b| b == b',').count());
        loop {
            out.push(self.number("a vector component")?.1);
            if !self.eat(",") {
                break;
            }
        }
        self.expect("]")?;
        Ok(out)
    }

    /// One statement, leaving the separator/EOF tail to the caller
    /// (shared by the single-statement and script surfaces).
    fn statement_body(&mut self) -> Result<StatementRef<'a>, ParseError> {
        self.expect_keyword("SELECT")?;
        let aggregate = self.aggregate()?;
        self.expect_keyword("FROM")?;
        let table = self.ident("a table name")?;
        self.expect_keyword("WHERE")?;
        self.expect_keyword("DIST")?;
        self.expect("(")?;
        self.ident("the input attribute name")?;
        self.expect(",")?;
        let center = self.vector()?;
        self.expect(")")?;
        self.expect("<=")?;
        let (at, radius) = self.number("the radius")?;
        if radius <= 0.0 {
            return Err(error_at(
                at,
                format!("radius must be positive, got {radius}"),
            ));
        }
        let mode = self.eat_keyword("USING").then(|| self.mode());
        let mode = mode.transpose()?.unwrap_or_default();
        Ok(StatementRef {
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
        self.eat(";");
        if self.rest().is_empty() {
            return Ok(());
        }
        Err(self.unexpected(|found| format!("unexpected trailing {found}")))
    }

    pub(crate) fn statement(&mut self) -> Result<StatementRef<'a>, ParseError> {
        let stmt = self.statement_body()?;
        self.end().map(|()| stmt)
    }

    /// A `';'`-separated script of statements (empty segments — leading,
    /// trailing or doubled separators — are skipped).
    pub(crate) fn script(&mut self) -> Result<Vec<StatementRef<'a>>, ParseError> {
        let mut out = Vec::new();
        loop {
            while self.eat(";") {}
            if self.rest().is_empty() {
                return Ok(out);
            }
            out.push(self.statement_body()?);
            if !(self.rest().is_empty() || self.rest().starts_with(b";")) {
                return Err(self.unexpected(|found| {
                    format!("expected ';' between statements, found {found}")
                }));
            }
        }
    }

    /// `SET SHARDS <n> [FOR <table>]` — the leading `SET` is already
    /// consumed.
    fn set_shards(&mut self) -> Result<CommandRef<'a>, ParseError> {
        self.expect_keyword("SHARDS")?;
        let (at, n) = self.number("the shard count")?;
        if n < 1.0 || n.fract() != 0.0 || n > 4096.0 {
            let message = format!("shard count must be an integer in 1..=4096, got {n}");
            return Err(error_at(at, message));
        }
        let table = self.eat_keyword("FOR").then(|| self.ident("a table name"));
        let table = table.transpose()?;
        self.end()?;
        Ok(CommandRef::SetShards {
            shards: n as usize,
            table,
        })
    }

    pub(crate) fn command(&mut self) -> Result<CommandRef<'a>, ParseError> {
        if self.eat_keyword("SET") {
            return self.set_shards();
        }
        self.statement().map(CommandRef::Query)
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
    Parser::new(input).statement().map(StatementRef::into_owned)
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
    let stmts = Parser::new(input).script()?;
    Ok(stmts.into_iter().map(StatementRef::into_owned).collect())
}

/// Parse one command: a statement, or an administration directive such as
/// `SET SHARDS 4 FOR readings;`.
///
/// # Errors
/// [`ParseError`], as for [`parse`].
pub fn parse_command(input: &str) -> Result<Command, ParseError> {
    Parser::new(input).command().map(CommandRef::into_owned)
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
