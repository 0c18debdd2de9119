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

// ---- The entry points agree -------------------------------------------------
//
// `Session::execute`, `execute_command` and `execute_batch` bind the parser's
// borrowed statement directly; `execute_statement(s)` take what the public
// `parse` / `parse_command` / `parse_script` return. Twin sessions, built
// identically and driven in lockstep — one through each door — must answer
// every text alike, bit for bit or with the same typed error, and move their
// routers' counters alike, over frozen and live models at 1 and 4 shards.

mod lockstep {
    use super::*;
    use regq_core::moments::{MomentPair, MomentsModel};
    use regq_core::{LlmModel, ModelConfig, Query};
    use regq_data::generators::GasSensorSurrogate;
    use regq_data::rng::seeded;
    use regq_data::{Dataset, SampleOptions};
    use regq_exact::ExactEngine;
    use regq_serve::RoutePolicy;
    use regq_sql::{Session, SqlError};
    use regq_store::AccessPathKind;
    use std::sync::{Arc, OnceLock};

    /// A 2-d table `t` and the model and moments model trained on it.
    fn trained() -> &'static (Arc<Dataset>, LlmModel, MomentsModel) {
        static TRAINED: OnceLock<(Arc<Dataset>, LlmModel, MomentsModel)> = OnceLock::new();
        TRAINED.get_or_init(|| {
            let field = GasSensorSurrogate::new(2, 3);
            let mut rng = seeded(11);
            let ds = Dataset::from_function(&field, 3_000, SampleOptions::default(), &mut rng);
            let data = Arc::new(ds);
            let engine = ExactEngine::new(Arc::clone(&data), AccessPathKind::KdTree);
            let cfg = ModelConfig::with_vigilance(2, 0.15);
            let mut model = LlmModel::new(cfg.clone()).unwrap();
            let mut moments = MomentsModel::new(cfg).unwrap();
            for _ in 0..1_000 {
                let c = vec![rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)];
                let r = rng.random_range(0.05..0.2);
                if let Some(mo) = engine.q1_moments(&c, r) {
                    let q = Query::new_unchecked(c, r);
                    model.train_step(&q, mo.mean).unwrap();
                    let pair = MomentPair {
                        mean: mo.mean,
                        variance: mo.variance,
                    };
                    moments.train_step(&q, pair).unwrap();
                }
            }
            (data, model, moments)
        })
    }

    /// One fabric: the table over a frozen or a live model (feedback on, a
    /// publish every 8 examples), at `shards` shards.
    fn session(live: bool, shards: usize) -> Session {
        let (data, model, moments) = trained();
        let mut model = model.clone();
        if live {
            model.unfreeze();
        } else {
            model.freeze();
        }
        let policy = RoutePolicy {
            publish_interval: 8,
            ..RoutePolicy::default()
        };
        let engine = ExactEngine::new(Arc::clone(data), AccessPathKind::KdTree);
        let mut s = Session::new();
        s.register_table_with_policy("t", engine, policy);
        s.register_model("t", model).unwrap();
        s.register_moments_model("t", moments.clone()).unwrap();
        s.set_shards("t", shards).unwrap();
        s
    }

    /// The three text doors.
    #[derive(Debug, Clone, Copy)]
    enum Door {
        Execute,
        Command,
        Batch,
    }

    /// `fast` takes `text` through `door`, `slow` through the public parse
    /// and the owned executors; both must come out the same.
    fn step(
        text: &str,
        door: Door,
        fast: &mut Session,
        slow: &mut Session,
    ) -> Result<(), TestCaseError> {
        // `Debug` prints every `f64` so that it reads back to the same
        // bits, and every error with its variant and payload.
        let (got, want) = match door {
            Door::Execute => (
                format!("{:?}", fast.execute(text)),
                format!(
                    "{:?}",
                    parse(text)
                        .map_err(SqlError::from)
                        .and_then(|s| slow.execute_statement(&s))
                ),
            ),
            Door::Command => {
                let want = match parse_command(text) {
                    Err(e) => Err(SqlError::from(e)),
                    Ok(Command::Query(s)) => slow.execute_statement(&s).map(Some),
                    Ok(Command::SetShards { shards, table }) => {
                        let tables = match table {
                            Some(t) => vec![t],
                            None => slow.tables().iter().map(|t| t.to_string()).collect(),
                        };
                        tables
                            .iter()
                            .try_for_each(|t| slow.set_shards(t, shards))
                            .map(|()| None)
                    }
                };
                (
                    format!("{:?}", fast.execute_command(text)),
                    format!("{want:?}"),
                )
            }
            Door::Batch => (
                format!("{:?}", fast.execute_batch(text)),
                format!(
                    "{:?}",
                    parse_script(text)
                        .map_err(SqlError::from)
                        .and_then(|v| slow.execute_statements(&v))
                ),
            ),
        };
        prop_assert_eq!(got, want, "{:?} through {:?}", text, door);
        let stats = |s: &Session| s.router("t").unwrap().stats();
        prop_assert_eq!(stats(fast), stats(slow), "{:?} through {:?}", text, door);
        Ok(())
    }

    /// A coordinate: in the table's unit square half of the time, any of
    /// the generator's literals otherwise.
    fn coordinate(rng: &mut StdRng) -> String {
        if rng.random::<bool>() {
            format!("{:.4}", rng.random_range(0.0..1.0))
        } else {
            number(rng, false).0
        }
    }

    /// A generated statement aimed at the session, with its centre's
    /// dimension: usually the table `t` and a 2-d centre, sometimes a
    /// radius that selects rows; otherwise as generated (an unknown table,
    /// a 1- or 3-d centre, any radius).
    fn aimed(rng: &mut StdRng) -> (Vec<Tok>, usize) {
        let (mut toks, _) = statement(rng);
        if rng.random_range(0..6usize) > 0 {
            toks[6] = lit("t"); // SELECT agg ( arg ) FROM <table>
        }
        let dim = [1, 2, 2, 2, 2, 2, 2, 2, 2, 3][rng.random_range(0..10usize)];
        recentre(&mut toks, dim, rng);
        if rng.random::<bool>() {
            let close = toks.iter().position(|t| t.text == "]").unwrap();
            toks[close + 3] = lit(format!("{:.3}", rng.random_range(0.02..0.3)));
            // ] ) <= r
        }
        (toks, dim)
    }

    /// Replace the centre between `[` and `]` with `dim` coordinates.
    fn recentre(toks: &mut Vec<Tok>, dim: usize, rng: &mut StdRng) {
        let open = toks.iter().position(|t| t.text == "[").unwrap();
        let close = toks.iter().position(|t| t.text == "]").unwrap();
        let mut center = Vec::new();
        for i in 0..dim {
            if i > 0 {
                center.push(lit(","));
            }
            center.push(lit(coordinate(rng)));
        }
        toks.splice(open + 1..close, center);
    }

    /// One text and the door it goes through: a statement through any
    /// door, a script of one statement re-centred a few times (batchable
    /// when it is `AUTO` `AVG`/`LINREG`; `AUTO` half the time), or a
    /// `SET SHARDS` command.
    fn input(rng: &mut StdRng) -> (String, Door) {
        match rng.random_range(0..8usize) {
            0..=4 => {
                let sql = render(&aimed(rng).0, rng) + &terminator(rng);
                let door = [Door::Execute, Door::Command, Door::Batch][rng.random_range(0..3usize)];
                (sql, door)
            }
            5 | 6 => {
                let (mut toks, dim) = aimed(rng);
                if rng.random::<bool>() {
                    toks.truncate(toks.iter().position(|t| t.text == "<=").unwrap() + 2);
                    toks.extend([kw("USING"), kw("AUTO")]);
                }
                let mut script = String::new();
                for _ in 0..rng.random_range(2..6usize) {
                    script += &render(&toks, rng);
                    script.push(';');
                    recentre(&mut toks, dim, rng);
                }
                (script, Door::Batch)
            }
            _ => {
                // Past the eight shards a consultation keeps in place, too.
                let (mut toks, _) = set_shards(rng);
                toks[2] = lit([1, 2, 4, 9][rng.random_range(0..4usize)].to_string());
                if toks.len() > 3 && rng.random::<bool>() {
                    toks[4] = lit("t");
                }
                (render(&toks, rng) + &terminator(rng), Door::Command)
            }
        }
    }

    /// Drive `inputs` through twin sessions of each of the four fabrics.
    fn lockstep(inputs: &[(String, Door)]) -> Result<(), TestCaseError> {
        for live in [false, true] {
            for shards in [1usize, 4] {
                let (mut fast, mut slow) = (session(live, shards), session(live, shards));
                for (text, door) in inputs {
                    step(text, *door, &mut fast, &mut slow)?;
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Generated statements, scripts and commands, however spelled.
        #[test]
        fn the_text_doors_answer_as_the_owned_ones(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let inputs: Vec<_> = (0..16).map(|_| input(&mut rng)).collect();
            lockstep(&inputs)?;
        }
    }

    #[test]
    fn hostile_texts_fail_alike_through_every_door() {
        let wide: Vec<String> = (0..64).map(|i| format!("{:.3}", i as f64 / 64.0)).collect();
        let ball = |center: &str, radius: &str| {
            format!("SELECT AVG(u) FROM t WHERE DIST(x, [{center}]) <= {radius} USING AUTO")
        };
        let texts = [
            "SELECT AVG(u) FROM nope WHERE DIST(x, [0.5, 0.5]) <= 0.1 USING MODEL".to_string(),
            ball("0.5", "0.1"),
            ball("0.5, 0.5, 0.5", "0.1"),
            ball(&wide.join(", "), "0.1"),
            ball("0.5, 0.5", "0"),
            ball("0.5, 0.5", "-0.25"),
            ball("0.5, 0.5", "1e999"),
            ball("1e999, 0.5", "0.1"),
            ball("0.5, 0.5", "0.1; garbage"),
            ball("0.5, 0.5", "0.1 é"),
            ball("0.5, 0.5🦀", "0.1"),
            "SELECT VAR(u) FROM tλ WHERE DIST(x, [0.5, 0.5]) <= 0.1".to_string(),
            "SELECT VAR(u) FROM t WHERE DIST(x, [50.0, 50.0]) <= 0.01".to_string(),
            "SELECT COUNT(*) FROM t WHERE DIST(x, [50.0, 50.0]) <= 0.01".to_string(),
            "SELECT LINREG(u) FROM t WHERE DIST(x, [50.0, 50.0]) <= 0.01 USING MODEL".to_string(),
            // A dimension mismatch inside a batchable run.
            format!(
                "{}; {}",
                ball("0.5, 0.5", "0.3"),
                ball("0.5, 0.5, 0.5", "0.3")
            ),
            format!("{}; {}", ball("0.2, 0.8", "0.2"), ball("0.7, 0.3", "0.2")),
            "SET SHARDS 4 FOR nope".to_string(),
            "SET SHARDS 0".to_string(),
            String::new(),
        ];
        let mut inputs = Vec::new();
        for text in texts {
            for door in [Door::Execute, Door::Command, Door::Batch] {
                inputs.push((text.clone(), door));
            }
        }
        lockstep(&inputs).unwrap();
    }
}
