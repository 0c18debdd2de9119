//! Property tests for the SQL front door: a grammar-aware fuzzer. Commands
//! generated from the grammar parse to exactly their components however
//! they are spelled; the same commands mutated, and arbitrary text, hold
//! all three entry points to one contract — total, errors positioned
//! inside the input, the surfaces consistent with each other.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use regq_sql::parser::ParseError;
use regq_sql::{parse, parse_command, parse_script, Aggregate, Command, ExecMode, Statement};

// ---- Grammar-aware generation ---------------------------------------------

/// One token of a generated command; the renderer may re-case a keyword
/// but must leave every other text alone.
struct Tok {
    text: String,
    keyword: bool,
}

fn kw(text: &str) -> Tok {
    Tok {
        text: text.into(),
        keyword: true,
    }
}

fn lit(text: impl Into<String>) -> Tok {
    Tok {
        text: text.into(),
        keyword: false,
    }
}

fn pick<'a, T>(rng: &mut StdRng, from: &'a [T]) -> &'a T {
    &from[rng.random_range(0..from.len())]
}

/// An identifier — one in four a keyword: the grammar is positional, so a
/// table may be called `FROM`.
fn ident(rng: &mut StdRng) -> String {
    const KEYWORDS: &[&str] = &[
        "SELECT", "from", "Where", "DIST", "using", "EXACT", "model", "AUTO", "avg", "VAR",
        "LINREG", "count", "SET", "shards", "FOR",
    ];
    const HEAD: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_";
    const TAIL: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_0123456789";
    if rng.random_range(0..4usize) == 0 {
        return pick(rng, KEYWORDS).to_string();
    }
    let mut s = String::from(*pick(rng, HEAD) as char);
    for _ in 0..rng.random_range(0..13usize) {
        s.push(*pick(rng, TAIL) as char);
    }
    s
}

/// A finite numeric literal in one of the lexical forms the dialect
/// accepts, with the value it denotes.
fn number(rng: &mut StdRng, positive: bool) -> (String, f64) {
    let magnitude = rng.random_range(0.001..100.0f64);
    let text = match rng.random_range(0..7usize) {
        0 => format!("{magnitude:?}"),
        1 => format!("{magnitude:e}"),
        2 => format!("{:E}", magnitude * 1e-6),
        3 => format!("{}", rng.random_range(1..5000u32)),
        4 => format!("{}.", rng.random_range(1..50u32)),
        5 => format!(".{}", rng.random_range(1..1000u32)),
        _ => format!(
            "{}e+{}",
            rng.random_range(1..10u32),
            rng.random_range(0..3u32)
        ),
    };
    let text = match rng.random_range(0..4usize) {
        0 if !positive => format!("-{text}"),
        1 => format!("+{text}"),
        _ => text,
    };
    let value = text.parse().expect("generated literals are well formed");
    (text, value)
}

fn statement(rng: &mut StdRng) -> (Vec<Tok>, Statement) {
    let (name, aggregate) = *pick(
        rng,
        &[
            ("AVG", Aggregate::Avg),
            ("LINREG", Aggregate::LinReg),
            ("VAR", Aggregate::Var),
            ("COUNT", Aggregate::Count),
        ],
    );
    let argument = if aggregate == Aggregate::Count {
        "*".to_string()
    } else {
        ident(rng)
    };
    let table = ident(rng);
    let mut toks = vec![kw("SELECT"), kw(name), lit("("), lit(argument), lit(")")];
    toks.extend([kw("FROM"), lit(table.as_str()), kw("WHERE"), kw("DIST")]);
    toks.extend([lit("("), lit(ident(rng)), lit(","), lit("[")]);
    let mut center = Vec::new();
    for i in 0..rng.random_range(1..=8usize) {
        if i > 0 {
            toks.push(lit(","));
        }
        let (text, value) = number(rng, false);
        toks.push(lit(text));
        center.push(value);
    }
    let (radius_text, radius) = number(rng, true);
    toks.extend([lit("]"), lit(")"), lit("<="), lit(radius_text)]);
    let (using, mode) = *pick(
        rng,
        &[
            (None, ExecMode::Exact),
            (Some("EXACT"), ExecMode::Exact),
            (Some("MODEL"), ExecMode::Model),
            (Some("AUTO"), ExecMode::Auto),
        ],
    );
    if let Some(which) = using {
        toks.extend([kw("USING"), kw(which)]);
    }
    let value = Statement {
        aggregate,
        table,
        center,
        radius,
        mode,
    };
    (toks, value)
}

fn set_shards(rng: &mut StdRng) -> (Vec<Tok>, Command) {
    let shards = rng.random_range(1..=4096usize);
    let count = match rng.random_range(0..3usize) {
        0 => format!("{shards}.0"),
        1 => format!("+{shards}"),
        _ => shards.to_string(),
    };
    let mut toks = vec![kw("SET"), kw("SHARDS"), lit(count)];
    let table = rng.random::<bool>().then(|| ident(rng));
    if let Some(t) = &table {
        toks.extend([kw("FOR"), lit(t.as_str())]);
    }
    (toks, Command::SetShards { shards, table })
}

fn whitespace(rng: &mut StdRng, at_least_one: bool) -> String {
    let n = rng.random_range(usize::from(at_least_one)..=2);
    (0..n)
        .map(|_| *pick(rng, &[' ', ' ', '\t', '\n', '\r']))
        .collect()
}

/// Spell `toks` as text: random keyword case, random whitespace wherever
/// the lexer allows any (at least one character between two tokens that
/// would otherwise run together).
fn render(toks: &[Tok], rng: &mut StdRng) -> String {
    let runs_on = |c: char| c.is_ascii_alphanumeric() || "_.+-".contains(c);
    let mut out = whitespace(rng, false);
    for t in toks {
        let glued = out.ends_with(runs_on) && t.text.starts_with(runs_on);
        out.push_str(&whitespace(rng, glued));
        if !t.keyword {
            out.push_str(&t.text);
            continue;
        }
        let style = rng.random_range(0..3usize);
        out.extend(t.text.chars().map(|c| match style {
            0 => c,
            1 => c.to_ascii_lowercase(),
            _ if rng.random::<bool>() => c.to_ascii_lowercase(),
            _ => c,
        }));
    }
    out.push_str(&whitespace(rng, false));
    out
}

/// The optional `';'` closing a single command.
fn terminator(rng: &mut StdRng) -> String {
    if rng.random::<bool>() {
        return String::new();
    }
    format!(";{}", whitespace(rng, false))
}

/// One to three character-level mutations: delete, insert (punctuation of
/// the dialect, stray lexer bait, multi-byte characters), truncate, swap,
/// duplicate a span.
fn mutate(sql: &str, rng: &mut StdRng) -> String {
    const INSERTS: &[char] = &[
        '#', '<', '=', '[', ']', '(', ')', ',', ';', '*', '.', 'e', 'E', '+', '-', ' ', '7', 'é',
        'λ', '中', '🦀',
    ];
    let mut cs: Vec<char> = sql.chars().collect();
    for _ in 0..rng.random_range(1..=3usize) {
        let at = rng.random_range(0..=cs.len());
        match rng.random_range(0..5usize) {
            0 if at < cs.len() => {
                cs.remove(at);
            }
            1 => cs.insert(at, *pick(rng, INSERTS)),
            2 => cs.truncate(at),
            3 if at < cs.len() => {
                let other = rng.random_range(0..cs.len());
                cs.swap(at, other);
            }
            _ => {
                let end = (at + rng.random_range(1..12usize)).min(cs.len());
                let span = cs[at..end].to_vec();
                let to = rng.random_range(0..=cs.len());
                cs.splice(to..to, span);
            }
        }
    }
    cs.into_iter().collect()
}

// ---- The contract every input is held to -----------------------------------

/// The canonical spelling of an accepted statement (`Statement` has no
/// `Display` of its own; its aggregate does).
fn to_sql(s: &Statement) -> String {
    let center: Vec<String> = s.center.iter().map(|c| format!("{c:?}")).collect();
    let mode = match s.mode {
        ExecMode::Exact => "EXACT",
        ExecMode::Model => "MODEL",
        ExecMode::Auto => "AUTO",
    };
    format!(
        "SELECT {} FROM {} WHERE DIST(x, [{}]) <= {:?} USING {mode};",
        s.aggregate,
        s.table,
        center.join(", "),
        s.radius
    )
}

fn check_error(input: &str, e: &ParseError) -> Result<(), TestCaseError> {
    prop_assert!(
        e.offset <= input.len() && input.is_char_boundary(e.offset),
        "offset {} is not a position in {input:?} ({})",
        e.offset,
        e.message
    );
    prop_assert!(!e.message.is_empty());
    Ok(())
}

fn check_statement(s: &Statement) -> Result<(), TestCaseError> {
    prop_assert!(!s.center.is_empty() && s.center.iter().all(|c| c.is_finite()));
    prop_assert!(s.radius > 0.0 && s.radius.is_finite());
    prop_assert_eq!(parse(&to_sql(s)), Ok(s.clone()), "canonical spelling");
    Ok(())
}

/// What must hold for *any* input, well formed or not: the three entry
/// points are total, agree with each other wherever their grammars
/// coincide, point their errors inside the input, and accept only
/// statements that survive a round trip through their canonical spelling.
fn check_input(input: &str) -> Result<(), TestCaseError> {
    let one = parse(input);
    let script = parse_script(input);
    let command = parse_command(input);
    for e in [
        one.as_ref().err(),
        script.as_ref().err(),
        command.as_ref().err(),
    ]
    .into_iter()
    .flatten()
    {
        check_error(input, e)?;
    }
    match &one {
        Ok(s) => {
            check_statement(s)?;
            prop_assert_eq!(&script, &Ok(vec![s.clone()]), "{input:?}");
            prop_assert_eq!(&command, &Ok(Command::Query(s.clone())), "{input:?}");
        }
        Err(e) => {
            // The command surface differs from `parse` only behind a
            // leading `SET`.
            let first_word = input
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .find(|w| !w.is_empty());
            if !first_word.is_some_and(|w| w.eq_ignore_ascii_case("SET")) {
                prop_assert_eq!(command.as_ref().err(), Some(e), "{input:?}");
            }
        }
    }
    for s in script.iter().flatten() {
        check_statement(s)?;
    }
    if let Ok(Command::SetShards { shards, .. }) = command {
        prop_assert!((1..=4096).contains(&shards));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Arbitrary text, multi-byte characters included: never a panic, and
    /// whatever comes out is held to [`check_input`].
    #[test]
    fn parser_is_total(input in ".{0,200}") {
        check_input(&input)?;
    }

    /// Commands generated from the grammar parse to exactly their value,
    /// whatever the keyword case, the inter-token whitespace or the
    /// closing `';'`, through every entry point that accepts them.
    #[test]
    fn generated_commands_parse_to_their_value_however_spelled(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (toks, value) = statement(&mut rng);
        for _ in 0..2 {
            let sql = render(&toks, &mut rng) + &terminator(&mut rng);
            prop_assert_eq!(parse(&sql), Ok(value.clone()), "{sql:?}");
            check_input(&sql)?;
        }
        let (toks, value) = set_shards(&mut rng);
        for _ in 0..2 {
            let sql = render(&toks, &mut rng) + &terminator(&mut rng);
            prop_assert_eq!(parse_command(&sql), Ok(value.clone()), "{sql:?}");
            prop_assert!(parse(&sql).is_err() && parse_script(&sql).is_err());
            check_input(&sql)?;
        }
    }

    /// `parse_script("a; b; …")` is `[parse(a), parse(b), …]`, with empty
    /// segments anywhere.
    #[test]
    fn a_script_is_its_statements_in_order(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut script = String::new();
        let mut values = Vec::new();
        for _ in 0..rng.random_range(0..5usize) {
            let (toks, value) = statement(&mut rng);
            let sql = render(&toks, &mut rng);
            prop_assert_eq!(parse(&sql), Ok(value.clone()), "{sql:?}");
            for _ in 0..rng.random_range(0..3usize) {
                script.push(';');
            }
            script.push_str(&sql);
            script.push(';');
            values.push(value);
        }
        // Trailing separators are optional (the last statement's included).
        match rng.random_range(0..3usize) {
            0 => drop(script.pop()),
            1 => script.push_str(" ;\n;"),
            _ => {}
        }
        prop_assert_eq!(parse_script(&script), Ok(values), "{script:?}");
        check_input(&script)?;
    }

    /// Mutated commands and scripts: whatever comes out is held to
    /// [`check_input`].
    #[test]
    fn mutated_commands_are_rejected_or_accepted_consistently(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let sql = match rng.random_range(0..4usize) {
            0 => render(&set_shards(&mut rng).0, &mut rng) + &terminator(&mut rng),
            1 => {
                let a = render(&statement(&mut rng).0, &mut rng);
                let b = render(&statement(&mut rng).0, &mut rng);
                format!("{a};{b}")
            }
            _ => render(&statement(&mut rng).0, &mut rng) + &terminator(&mut rng),
        };
        for _ in 0..4 {
            check_input(&mutate(&sql, &mut rng))?;
        }
    }
}
