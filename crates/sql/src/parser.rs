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
//! The accepting path is one pass over the text. A numeric literal of up
//! to 15 digits without an exponent is converted in the loop that finds
//! its end, to the bits `str::parse` gives (any other literal goes to
//! `str::parse`). The centre is read in place and copied once into a
//! `Vec` of its size, the one allocation of a parse (a centre of more
//! than 8 components is counted first). A failed step records its error
//! and returns `None`, so no error value is passed along. On a 2-vCPU
//! Xeon host that took a `sql_model_smallk` statement's parse from ≈ 195
//! to ≈ 127 ns (d = 2; 258 → 152 at d = 4), and the workload from
//! ≈ 1.46 M to ≈ 1.69 M statements/s (`p50_us` 0.65 → 0.555), every
//! answer bit for bit.
//!
//! A parse borrows its table name from the input. The session executes
//! that; [`parse`], [`parse_script`] and [`parse_command`] build owned
//! values from it.

use crate::ast::{Aggregate, Command, CommandRef, ExecMode, Statement, StatementRef};
use std::fmt;
use std::num::ParseFloatError;

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

/// The error for the literal `input[start..end]`, which `str::parse`
/// rejected with `e`.
#[cold]
fn malformed(input: &str, start: usize, end: usize, e: ParseFloatError) -> ParseError {
    let text = &input[start..end];
    error_at(start, format!("malformed number '{text}': {e}"))
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
#[inline(always)]
fn is_word_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// One past the identifier starting at `end`.
#[inline(always)]
fn word_end(bytes: &[u8], mut end: usize) -> usize {
    while bytes.get(end).copied().is_some_and(is_word_byte) {
        end += 1;
    }
    end
}

/// `10^k` for `k ≤ 15`, every one exact in `f64`.
const POW10: [f64; 16] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
];

/// The numeric literal starting at `start` (one of `-+0-9.`), read as
/// `str::parse` reads it, and the offset one past it. A sign continues a
/// literal only right after an exponent marker ("3-2" is 3 then -2).
///
/// A literal `[+-]digits[.digits]` of 1 to 15 digits is converted in the
/// loop that finds its end: the integer of its digits (below `10^15 <
/// 2^53`) over `10^k` for its `k` fraction digits. Both are exact in
/// `f64`, and one IEEE division of exact operands rounds the exact
/// quotient correctly, as `str::parse` does (Clinger's fast path): the
/// same bits. Any other literal — an exponent, 16 digits or more, a
/// second dot, no digit — goes to `str::parse`.
#[inline(always)]
fn scan_number(input: &str, start: usize) -> (Result<f64, ParseFloatError>, usize) {
    let bytes = input.as_bytes();
    let negative = bytes[start] == b'-';
    let mut end = start + usize::from(matches!(bytes[start], b'-' | b'+'));
    let (mut mantissa, mut digits, mut before_dot) = (0u64, 0usize, None);
    while let Some(&b) = bytes.get(end) {
        match b {
            b'0'..=b'9' => {
                // Wraps only past 19 digits, far beyond the fast path.
                mantissa = mantissa.wrapping_mul(10).wrapping_add(u64::from(b - b'0'));
                digits += 1;
            }
            b'.' if before_dot.is_none() => before_dot = Some(digits),
            _ => break,
        }
        end += 1;
    }
    if (1..=15).contains(&digits) && !matches!(bytes.get(end), Some(b'.' | b'e' | b'E')) {
        let n = mantissa as f64 / POW10[digits - before_dot.unwrap_or(digits)];
        return (Ok(if negative { -n } else { n }), end);
    }
    // Any other literal: the rest of it, as the scan has always ended it.
    while bytes.get(end).is_some_and(|&b| match b {
        b'0'..=b'9' | b'.' | b'e' | b'E' => true,
        b'-' | b'+' => matches!(bytes[end - 1], b'e' | b'E'),
        _ => false,
    }) {
        end += 1;
    }
    (input[start..end].parse(), end)
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
        Some(b'-' | b'+' | b'0'..=b'9' | b'.') => match scan_number(input, at) {
            (Ok(n), _) => Token::Number(n),
            (Err(e), end) => return Err(malformed(input, at, end, e)),
        },
        Some(b'a'..=b'z' | b'A'..=b'Z' | b'_') => Token::Word(&input[at..word_end(bytes, at)]),
        Some(_) => {
            // INVARIANT: `at < len` (this arm saw a byte) and `at` is a
            // char boundary, so a character starts here.
            let c = input[at..].chars().next().expect("a char starts at `at`");
            return Err(error_at(at, format!("unexpected character '{c}'")));
        }
    })
}

/// Components a centre is read into in place before its `Vec` is made;
/// a wider centre is counted first.
const INLINE_CENTER: usize = 8;

/// The steps of a parse return `None` when they fail, after [`fail`] or
/// [`unexpected`] recorded why; the entry points turn that into the
/// `Err`. So the accepting path passes no error value along.
///
/// [`fail`]: Parser::fail
/// [`unexpected`]: Parser::unexpected
pub(crate) struct Parser<'a> {
    input: &'a str,
    /// The cursor. Everything before it was consumed and is ASCII, so it
    /// is always a char boundary.
    pos: usize,
    /// Why the step that returned `None` failed.
    error: Option<ParseError>,
}

impl<'a> Parser<'a> {
    pub(crate) fn new(input: &'a str) -> Self {
        Parser {
            input,
            pos: 0,
            error: None,
        }
    }

    /// Move the cursor past whitespace and return the bytes from there.
    #[inline(always)]
    fn rest(&mut self) -> &'a [u8] {
        let bytes = self.input.as_bytes();
        while matches!(bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
        &bytes[self.pos..]
    }

    /// `step`'s value, or the error it recorded.
    fn finish<T>(&mut self, step: Option<T>) -> Result<T, ParseError> {
        step.ok_or_else(|| self.recorded())
    }

    #[cold]
    fn recorded(&mut self) -> ParseError {
        // INVARIANT: a step returns `None` only through `fail`, which
        // records its error first.
        self.error.take().expect("a failed step records its error")
    }

    /// Fail the parse with `error`.
    #[cold]
    fn fail<T>(&mut self, error: ParseError) -> Option<T> {
        self.error = Some(error);
        None
    }

    /// An unmet expectation: the scanner's own error when no token starts
    /// at the cursor, else `message` about the token that does.
    #[cold]
    fn unexpected<T>(&mut self, message: impl FnOnce(Token<'_>) -> String) -> Option<T> {
        let error = match token_at(self.input, self.pos) {
            Ok(found) => error_at(self.pos, message(found)),
            Err(e) => e,
        };
        self.fail(error)
    }

    /// Consume the punctuation `punct` if it is next.
    #[inline(always)]
    fn eat(&mut self, punct: &str) -> bool {
        let hit = self.rest().starts_with(punct.as_bytes());
        self.pos += if hit { punct.len() } else { 0 };
        hit
    }

    /// Consume the punctuation `punct`, or fail naming it.
    #[inline(always)]
    fn expect(&mut self, punct: &str) -> Option<()> {
        if self.eat(punct) {
            return Some(());
        }
        self.unexpected(|found| format!("expected '{punct}', found {found}"))
    }

    /// Consume the keyword `kw` if it is next: its letters in any case,
    /// not followed by an identifier character.
    #[inline(always)]
    fn eat_keyword(&mut self, kw: &str) -> bool {
        let rest = self.rest();
        // `kw` is upper-case letters: clearing bit 5 folds only a letter.
        let hit = rest.len() >= kw.len()
            && rest.iter().zip(kw.bytes()).all(|(&b, k)| (b & !0x20) == k)
            && !rest.get(kw.len()).copied().is_some_and(is_word_byte);
        self.pos += if hit { kw.len() } else { 0 };
        hit
    }

    #[inline(always)]
    fn expect_keyword(&mut self, kw: &str) -> Option<()> {
        if self.eat_keyword(kw) {
            return Some(());
        }
        self.unexpected(|found| format!("expected keyword {kw}, found {found}"))
    }

    /// Consume an identifier; `what` names it in the error.
    #[inline(always)]
    fn ident(&mut self, what: &str) -> Option<&'a str> {
        if !matches!(self.rest().first(), Some(b'a'..=b'z' | b'A'..=b'Z' | b'_')) {
            return self.unexpected(|found| format!("expected {what}, found {found}"));
        }
        let start = self.pos;
        self.pos = word_end(self.input.as_bytes(), start);
        Some(&self.input[start..self.pos])
    }

    /// Consume whichever keyword of `choices` is next; any other word is
    /// rejected at its own offset with `unknown(word)`.
    #[inline(always)]
    fn choice<T: Copy>(
        &mut self,
        what: &str,
        choices: &[(&str, T)],
        unknown: impl FnOnce(&str) -> String,
    ) -> Option<T> {
        if let Some(&(_, value)) = choices.iter().find(|(kw, _)| self.eat_keyword(kw)) {
            return Some(value);
        }
        let word = self.ident(what)?;
        self.fail(error_at(self.pos - word.len(), unknown(word)))
    }

    /// Consume a finite numeric literal, returned with its offset so the
    /// caller can reject its value there.
    #[inline(always)]
    fn number(&mut self, what: &str) -> Option<(usize, f64)> {
        if !matches!(self.rest().first(), Some(b'-' | b'+' | b'0'..=b'9' | b'.')) {
            return self.unexpected(|found| format!("expected {what}, found {found}"));
        }
        let start = self.pos;
        match scan_number(self.input, start) {
            (Ok(n), end) if n.is_finite() => {
                self.pos = end;
                Some((start, n))
            }
            // 1e999 scans fine but is infinite: no such value may go further.
            (Ok(_), _) => {
                let message = format!("{what} overflows f64 (not finite)");
                self.fail(error_at(start, message))
            }
            (Err(e), end) => self.fail(malformed(self.input, start, end, e)),
        }
    }

    #[inline(always)]
    fn aggregate(&mut self) -> Option<Aggregate> {
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
        Some(agg)
    }

    /// The execution mode after `USING`.
    #[inline(always)]
    fn mode(&mut self) -> Option<ExecMode> {
        let modes = [
            ("EXACT", ExecMode::Exact),
            ("MODEL", ExecMode::Model),
            ("AUTO", ExecMode::Auto),
        ];
        self.choice("EXACT, MODEL or AUTO", &modes, |which| {
            format!("unknown execution mode '{which}' (expected EXACT, MODEL or AUTO)")
        })
    }

    /// The centre: read in place up to [`INLINE_CENTER`] components and
    /// copied once into a `Vec` of its size; a wider one is sized by its
    /// commas first (a vector that parses has one component more than it
    /// has commas before its `]`). One allocation either way.
    #[inline(always)]
    fn vector(&mut self) -> Option<Vec<f64>> {
        self.expect("[")?;
        let mut inline = [0.0; INLINE_CENTER];
        for len in 1..=INLINE_CENTER {
            inline[len - 1] = self.number("a vector component")?.1;
            if !self.eat(",") {
                self.expect("]")?;
                return Some(inline[..len].to_vec());
            }
        }
        let inside = self.rest().split(|&b| b == b']').next().unwrap_or_default();
        let commas = inside.iter().filter(|&&b| b == b',').count();
        let mut out = Vec::with_capacity(INLINE_CENTER + 1 + commas);
        out.extend_from_slice(&inline);
        loop {
            out.push(self.number("a vector component")?.1);
            if !self.eat(",") {
                break;
            }
        }
        self.expect("]")?;
        Some(out)
    }

    /// One statement, leaving the separator/EOF tail to the caller
    /// (shared by the single-statement and script surfaces).
    #[inline(always)]
    fn statement_body(&mut self) -> Option<StatementRef<'a>> {
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
            let message = format!("radius must be positive, got {radius}");
            return self.fail(error_at(at, message));
        }
        let mode = if self.eat_keyword("USING") {
            self.mode()?
        } else {
            ExecMode::default()
        };
        Some(StatementRef {
            aggregate,
            table,
            center,
            radius,
            mode,
        })
    }

    /// The optional `';'` and the end of input that close a single
    /// command.
    #[inline(always)]
    fn end(&mut self) -> Option<()> {
        self.eat(";");
        if self.rest().is_empty() {
            return Some(());
        }
        self.unexpected(|found| format!("unexpected trailing {found}"))
    }

    pub(crate) fn statement(&mut self) -> Result<StatementRef<'a>, ParseError> {
        let stmt = self.statement_body().and_then(|s| self.end().map(|()| s));
        self.finish(stmt)
    }

    /// A `';'`-separated script of statements (empty segments — leading,
    /// trailing or doubled separators — are skipped).
    pub(crate) fn script(&mut self) -> Result<Vec<StatementRef<'a>>, ParseError> {
        let stmts = self.statements();
        self.finish(stmts)
    }

    fn statements(&mut self) -> Option<Vec<StatementRef<'a>>> {
        let mut out = Vec::new();
        loop {
            while self.eat(";") {}
            if self.rest().is_empty() {
                return Some(out);
            }
            out.push(self.statement_body()?);
            if !(self.rest().is_empty() || self.rest().starts_with(b";")) {
                return self
                    .unexpected(|found| format!("expected ';' between statements, found {found}"));
            }
        }
    }

    /// `SET SHARDS <n> [FOR <table>]` — the leading `SET` is already
    /// consumed.
    fn set_shards(&mut self) -> Option<CommandRef<'a>> {
        self.expect_keyword("SHARDS")?;
        let (at, n) = self.number("the shard count")?;
        if n < 1.0 || n.fract() != 0.0 || n > 4096.0 {
            let message = format!("shard count must be an integer in 1..=4096, got {n}");
            return self.fail(error_at(at, message));
        }
        let table = if self.eat_keyword("FOR") {
            Some(self.ident("a table name")?)
        } else {
            None
        };
        self.end()?;
        Some(CommandRef::SetShards {
            shards: n as usize,
            table,
        })
    }

    pub(crate) fn command(&mut self) -> Result<CommandRef<'a>, ParseError> {
        let command = if self.eat_keyword("SET") {
            self.set_shards()
        } else {
            let stmt = self.statement_body();
            stmt.and_then(|s| self.end().map(|()| CommandRef::Query(s)))
        };
        self.finish(command)
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
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

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

    // ---- Literals against `str::parse` ----------------------------------
    //
    // The suites above compare the entry points with each other through one
    // parser; a literal converted wrongly would pass them all. Here every
    // literal is held to the standard library's own reading of it.

    /// `literal` as the only centre component and as the radius: the bits
    /// `str::parse` gives it, or the error the scanner reports for it at its
    /// own first byte — malformed, not finite, or (a radius) not positive.
    fn converts_like_str_parse(literal: &str) -> Result<(), TestCaseError> {
        let component = format!("SELECT AVG(u) FROM t WHERE DIST(x, [{literal}]) <= 1");
        let radius = format!("SELECT AVG(u) FROM t WHERE DIST(x, [0]) <= {literal}");
        for (sql, at, is_radius) in [(component, 36, false), (radius, 43, true)] {
            let what = ["a vector component", "the radius"][usize::from(is_radius)];
            let want = match literal.parse::<f64>() {
                Err(e) => Err(format!("malformed number '{literal}': {e}")),
                Ok(v) if !v.is_finite() => Err(format!("{what} overflows f64 (not finite)")),
                Ok(v) if is_radius && v <= 0.0 => Err(format!("radius must be positive, got {v}")),
                Ok(v) => Ok(v.to_bits()),
            };
            let got = match parse(&sql) {
                Ok(s) if is_radius => Ok(s.radius.to_bits()),
                Ok(s) => Ok(s.center[0].to_bits()),
                Err(e) if e.offset == at => Err(e.message),
                Err(e) => Err(format!("{e} (want byte {at})")),
            };
            prop_assert_eq!(got, want, "{:?}", sql);
        }
        Ok(())
    }

    /// A literal in the scanner's alphabet: an optional sign, 0 to 20
    /// digits (leading zeros likely) with a dot anywhere or none, and an
    /// optional `e±k` exponent. Never empty, and never starting with the
    /// exponent marker (that is a word).
    fn literal(rng: &mut StdRng) -> String {
        let digit = |rng: &mut StdRng| char::from_digit(rng.random_range(0..10u32), 10).unwrap();
        let mut s = String::new();
        if let Some(sign) = [None, Some('-'), Some('+')][rng.random_range(0..3usize)] {
            s.push(sign);
        }
        let digits = rng.random_range(0..=20usize);
        let dot = rng.random_range(0..=digits + 1); // past the digits: none
        let zeros = rng.random_range(0..=digits.min(4));
        for i in 0..=digits {
            if i == dot {
                s.push('.');
            }
            if i < zeros {
                s.push('0');
            } else if i < digits {
                s.push(digit(rng));
            }
        }
        if s.is_empty() {
            s.push('.');
        } else if rng.random_range(0..4usize) == 0 {
            s.push(['e', 'E'][rng.random_range(0..2usize)]);
            s.push_str(["", "-", "+"][rng.random_range(0..3usize)]);
            for _ in 0..rng.random_range(0..4usize) {
                s.push(digit(rng));
            }
        }
        s
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn generated_literals_convert_like_str_parse(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..16 {
                converts_like_str_parse(&literal(&mut rng))?;
            }
        }
    }

    #[test]
    fn boundary_literals_convert_like_str_parse() {
        for literal in [
            // 15 digits: the last the scan converts itself.
            "123456789012345",
            "999999999999999",
            "-99999999999999.9",
            ".999999999999999",
            "0.00000000000001",
            // 16 digits: past it, including ones an f64 integer cannot hold.
            "1234567890123456",
            "9007199254740993",
            "-0.000000000000001",
            "900719925474099.3",
            "90071992547409.93", // its digits past 2^53: a 16-digit fast path rounds twice
            "0.1000000000000001",
            "9999999999999999",
            // Forms without digits on one side of the dot, signs, zeros.
            "5.",
            ".5",
            "+.5",
            "-.5",
            "-0",
            "+0",
            "-0.0",
            "00000000000000000000000001",
            "0.10000000000000001",
            // Malformed.
            ".",
            "-",
            "+.",
            "1e",
            "1e+",
            "1.2.3",
            "1.5.",
            // Exponents: underflow to zero (not positive), overflow (not
            // finite).
            "1e-400",
            "-1e-400",
            "1e999",
            "-1e999",
            "2.5E2",
            "1e-3",
        ] {
            converts_like_str_parse(literal).unwrap();
        }
    }
}
