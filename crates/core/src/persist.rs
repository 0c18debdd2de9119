//! Versioned plain-text persistence for trained models.
//!
//! A production deployment trains once against the DBMS (hours of query
//! execution, per the paper's §VI-B cost breakdown) and then serves
//! predictions indefinitely — so the learned parameter set must survive
//! restarts. The format is a line-oriented text file:
//!
//! ```text
//! regq-llm v1
//! dim <d> a <a> gamma <g> window <w> schedule <s> steps <t> frozen <0|1> k <K> quiet <q> [rho <r>]
//! proto <updates> <radius> <y> <b_theta> | <center...> | <b_x...>
//! ...
//! ```
//!
//! `quiet` is the convergence window's count, so a reloaded model freezes
//! on the step the saved one would have; a file without it (written
//! before the field existed) loads with a count of 0. Floats are written
//! with `{:?}` (shortest round-trip representation), so save → load is
//! bit-exact. Every line ends in `\n` and the header states
//! the prototype count, so a file cut at any byte short of its full
//! length fails to load; a damaged byte ends in a typed [`CoreError`] or
//! in a model whose parameters are all finite (the corruption battery in
//! this module's tests).

use crate::config::{ModelConfig, SlopeUpdate};
use crate::error::CoreError;
use crate::model::LlmModel;
use crate::prototype::Prototype;
use crate::schedule::LearningSchedule;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

const MAGIC: &str = "regq-llm v1";

fn schedule_tag(s: &LearningSchedule) -> String {
    match s {
        LearningSchedule::HyperbolicPerPrototype => "hyp-proto".to_string(),
        LearningSchedule::HyperbolicGlobal => "hyp-global".to_string(),
        LearningSchedule::Constant(eta) => format!("const:{eta:?}"),
    }
}

fn slope_tag(s: &SlopeUpdate) -> String {
    match s {
        SlopeUpdate::Normalized { epsilon } => format!("nlms:{epsilon:?}"),
        SlopeUpdate::Raw => "raw".to_string(),
    }
}

fn parse_slope(tag: &str) -> Result<SlopeUpdate, CoreError> {
    match tag {
        "raw" => Ok(SlopeUpdate::Raw),
        other => {
            if let Some(eps) = other.strip_prefix("nlms:") {
                let epsilon: f64 = eps
                    .parse()
                    .map_err(|e| CoreError::Persist(format!("bad NLMS epsilon: {e}")))?;
                Ok(SlopeUpdate::Normalized { epsilon })
            } else {
                Err(CoreError::Persist(format!("unknown slope rule '{other}'")))
            }
        }
    }
}

fn parse_schedule(tag: &str) -> Result<LearningSchedule, CoreError> {
    match tag {
        "hyp-proto" => Ok(LearningSchedule::HyperbolicPerPrototype),
        "hyp-global" => Ok(LearningSchedule::HyperbolicGlobal),
        other => {
            if let Some(eta) = other.strip_prefix("const:") {
                let eta: f64 = eta
                    .parse()
                    .map_err(|e| CoreError::Persist(format!("bad constant rate: {e}")))?;
                Ok(LearningSchedule::Constant(eta))
            } else {
                Err(CoreError::Persist(format!("unknown schedule '{other}'")))
            }
        }
    }
}

/// Save a model to `path`.
///
/// # Errors
/// [`CoreError::Persist`] wrapping any IO failure.
pub fn save_model(model: &LlmModel, path: &Path) -> Result<(), CoreError> {
    let (c, arena) = (model.config(), model.arena());
    let io = |e: std::io::Error| CoreError::Persist(e.to_string());
    let file = std::fs::File::create(path).map_err(io)?;
    let mut w = BufWriter::new(file);
    writeln!(w, "{MAGIC}").map_err(io)?;
    write!(
        w,
        "dim {} a {:?} gamma {:?} window {} schedule {} slope {} cpow {:?} steps {} frozen {} k {} quiet {}",
        c.dim,
        c.vigilance_coeff,
        c.gamma,
        c.convergence_window,
        schedule_tag(&c.schedule),
        slope_tag(&c.slope_update),
        c.coeff_rate_power,
        model.steps(),
        u8::from(model.is_frozen()),
        arena.len(),
        model.quiet_steps(),
    )
    .map_err(io)?;
    if let Some(rho) = c.vigilance_override {
        write!(w, " rho {rho:?}").map_err(io)?;
    }
    writeln!(w).map_err(io)?;
    // Stream straight from the arena views — no owned snapshot.
    for p in arena.iter() {
        write!(
            w,
            "proto {} {:?} {:?} {:?} |",
            p.updates, p.radius, p.y, p.b_theta
        )
        .map_err(io)?;
        for v in p.center {
            write!(w, " {v:?}").map_err(io)?;
        }
        write!(w, " |").map_err(io)?;
        for v in p.b_x {
            write!(w, " {v:?}").map_err(io)?;
        }
        writeln!(w).map_err(io)?;
    }
    w.flush().map_err(io)
}

/// Load a model saved by [`save_model`].
///
/// # Errors
/// [`CoreError::Persist`] on IO/format problems — a line without its
/// terminating newline included, so a file cut anywhere short of its full
/// length is rejected rather than read as a model with a shortened last
/// value; [`CoreError::NonFinite`] on a NaN or infinite prototype
/// parameter (`1e999` parses, to `inf`); configuration and dimension
/// invariants are re-validated on load. Nothing is allocated from a
/// count the file states: a corrupt `k` costs a comparison, not memory.
pub fn load_model(path: &Path) -> Result<LlmModel, CoreError> {
    let file = std::fs::File::open(path).map_err(|e| CoreError::Persist(e.to_string()))?;
    read_model(BufReader::new(file))
}

/// Read the next line into `line` (terminator stripped); `false` at end
/// of input. A last line that ends without `\n` is a truncated file.
fn next_line(reader: &mut impl BufRead, line: &mut String) -> Result<bool, CoreError> {
    line.clear();
    let read = reader
        .read_line(line)
        .map_err(|e| CoreError::Persist(e.to_string()))?;
    if read == 0 {
        return Ok(false);
    }
    if line.pop() != Some('\n') {
        return Err(CoreError::Persist(
            "unterminated last line (truncated file?)".into(),
        ));
    }
    Ok(true)
}

/// [`load_model`] over any reader — the whole format, no file system.
fn read_model(mut reader: impl BufRead) -> Result<LlmModel, CoreError> {
    let mut line = String::new();
    if !next_line(&mut reader, &mut line)? {
        return Err(CoreError::Persist("empty file".into()));
    }
    if line.trim() != MAGIC {
        return Err(CoreError::Persist(format!(
            "bad magic '{}', expected '{MAGIC}'",
            line.trim()
        )));
    }

    let mut header = String::new();
    if !next_line(&mut reader, &mut header)? {
        return Err(CoreError::Persist("missing header".into()));
    }
    let tokens: Vec<&str> = header.split_whitespace().collect();
    let mut fields = std::collections::HashMap::new();
    let mut i = 0;
    while i + 1 < tokens.len() {
        fields.insert(tokens[i], tokens[i + 1]);
        i += 2;
    }
    let get = |k: &str| -> Result<&str, CoreError> {
        fields
            .get(k)
            .copied()
            .ok_or_else(|| CoreError::Persist(format!("missing header field '{k}'")))
    };
    let parse_f = |k: &str| -> Result<f64, CoreError> {
        get(k)?
            .parse()
            .map_err(|e| CoreError::Persist(format!("bad float for '{k}': {e}")))
    };
    let parse_u = |k: &str| -> Result<u64, CoreError> {
        get(k)?
            .parse()
            .map_err(|e| CoreError::Persist(format!("bad int for '{k}': {e}")))
    };

    let dim = parse_u("dim")? as usize;
    let config = ModelConfig {
        dim,
        vigilance_coeff: parse_f("a")?,
        vigilance_override: match fields.get("rho") {
            Some(v) => Some(
                v.parse()
                    .map_err(|e| CoreError::Persist(format!("bad rho: {e}")))?,
            ),
            None => None,
        },
        gamma: parse_f("gamma")?,
        convergence_window: parse_u("window")? as usize,
        schedule: parse_schedule(get("schedule")?)?,
        slope_update: parse_slope(get("slope")?)?,
        coeff_rate_power: parse_f("cpow")?,
    };
    let steps = parse_u("steps")?;
    let frozen = parse_u("frozen")? != 0;
    let k = parse_u("k")?;
    let quiet = match fields.get("quiet") {
        Some(_) => parse_u("quiet")? as usize,
        None => 0,
    };

    // Grown by the lines actually read, never sized from `k`.
    let mut prototypes = Vec::new();
    let mut line_no = 2usize;
    while next_line(&mut reader, &mut line)? {
        line_no += 1;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let body = line
            .strip_prefix("proto ")
            .ok_or_else(|| CoreError::Persist(format!("line {line_no}: expected 'proto'")))?;
        let mut sections = body.split('|');
        let head: Vec<&str> = sections
            .next()
            .ok_or_else(|| CoreError::Persist("missing proto head".into()))?
            .split_whitespace()
            .collect();
        if head.len() != 4 {
            return Err(CoreError::Persist(format!(
                "line {line_no}: proto head needs 4 fields"
            )));
        }
        let parse = |s: &str| -> Result<f64, CoreError> {
            s.parse()
                .map_err(|e| CoreError::Persist(format!("bad float '{s}': {e}")))
        };
        let updates: u64 = head[0]
            .parse()
            .map_err(|e| CoreError::Persist(format!("bad updates: {e}")))?;
        let radius = parse(head[1])?;
        let y = parse(head[2])?;
        let b_theta = parse(head[3])?;
        let center: Vec<f64> = sections
            .next()
            .ok_or_else(|| CoreError::Persist("missing center section".into()))?
            .split_whitespace()
            .map(parse)
            .collect::<Result<_, _>>()?;
        let b_x: Vec<f64> = sections
            .next()
            .ok_or_else(|| CoreError::Persist("missing slope section".into()))?
            .split_whitespace()
            .map(parse)
            .collect::<Result<_, _>>()?;
        let finite = [radius, y, b_theta].iter().all(|v| v.is_finite())
            && regq_linalg::vector::all_finite(&center)
            && regq_linalg::vector::all_finite(&b_x);
        if !finite {
            return Err(CoreError::NonFinite {
                location: "persisted prototype",
            });
        }
        prototypes.push(Prototype {
            center,
            radius,
            y,
            b_x,
            b_theta,
            updates,
        });
    }
    if prototypes.len() as u64 != k {
        return Err(CoreError::Persist(format!(
            "expected {k} prototypes, found {}",
            prototypes.len()
        )));
    }
    LlmModel::from_parts(config, prototypes, steps, quiet, frozen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("regq-persist-{}-{name}", std::process::id()));
        p
    }

    fn trained_model(seed: u64) -> LlmModel {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = LlmModel::new(ModelConfig::paper_defaults(3)).unwrap();
        let stream = (0..8_000).map(|_| {
            let c: Vec<f64> = (0..3).map(|_| rng.random_range(0.0..1.0)).collect();
            let y = c[0] - 2.0 * c[1] + 0.3 * c[2];
            (Query::new_unchecked(c, rng.random_range(0.05..0.2)), y)
        });
        m.fit_stream(stream).unwrap();
        m
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let m = trained_model(1);
        let path = tmp("roundtrip.model");
        save_model(&m, &path).unwrap();
        let loaded = load_model(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(m.k(), loaded.k());
        assert_eq!(m.steps(), loaded.steps());
        assert_eq!(m.is_frozen(), loaded.is_frozen());
        assert_eq!(m.config(), loaded.config());
        assert_eq!(m.prototypes(), loaded.prototypes());
    }

    /// The convergence window survives save → load and the restart path
    /// (`snapshot().to_model()`): with every step quiet (γ = 1e9), a model
    /// five steps in and its two copies freeze on the same further step; a
    /// file written before the count was saved restarts the window.
    #[test]
    fn the_convergence_window_survives_save_load_and_restore() {
        let mut cfg = ModelConfig::paper_defaults(1);
        cfg.gamma = 1e9;
        let pairs: Vec<(Query, f64)> = (0..30)
            .map(|i| {
                (
                    Query::new_unchecked(vec![(i % 7) as f64 * 0.1], 0.1),
                    i as f64,
                )
            })
            .collect();
        let mut original = LlmModel::new(cfg).unwrap();
        for (q, y) in &pairs[..5] {
            original.train_step(q, *y).unwrap();
        }
        let path = tmp("window.model");
        save_model(&original, &path).unwrap();
        let (reloaded, text) = (load_model(&path), std::fs::read_to_string(&path));
        std::fs::remove_file(&path).ok();
        let legacy = text.unwrap().replace(" quiet 4", "");
        let freezes_at = |mut m: LlmModel| {
            let mut steps = pairs[5..].iter();
            steps.position(|(q, y)| m.train_step(q, *y).unwrap().converged)
        };
        let restored = original.snapshot().to_model().unwrap();
        assert_eq!(freezes_at(original), Some(5), "window 10, 4 quiet so far");
        assert_eq!(freezes_at(reloaded.unwrap()), Some(5));
        assert_eq!(freezes_at(restored), Some(5));
        assert_eq!(freezes_at(read_model(legacy.as_bytes()).unwrap()), Some(9));
    }

    #[test]
    fn loaded_model_predicts_identically() {
        let m = trained_model(2);
        let path = tmp("predict.model");
        save_model(&m, &path).unwrap();
        let loaded = load_model(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let c: Vec<f64> = (0..3).map(|_| rng.random_range(0.0..1.0)).collect();
            let q = Query::new_unchecked(c, rng.random_range(0.01..0.5));
            assert_eq!(m.predict_q1(&q).unwrap(), loaded.predict_q1(&q).unwrap());
        }
    }

    #[test]
    fn loaded_model_captures_a_bit_exact_snapshot() {
        // Guard for the serving split: what a model publishes must survive
        // a restart bit-for-bit — parameters, version and probe-grid
        // predictions (Q1, Q2 list, confidence).
        let m = trained_model(7);
        let snap = m.snapshot();
        let path = tmp("snapshot.model");
        save_model(&m, &path).unwrap();
        let loaded = load_model(&path).unwrap().snapshot();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.k(), snap.k());
        assert_eq!(loaded.version(), snap.version());
        assert_eq!(loaded.is_frozen(), snap.is_frozen());
        assert_eq!(loaded.config(), snap.config());
        assert_eq!(loaded.prototypes(), snap.prototypes());
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..60 {
            let c: Vec<f64> = (0..3).map(|_| rng.random_range(-0.5..1.5)).collect();
            let q = Query::new_unchecked(c, rng.random_range(0.01..0.5));
            assert_eq!(
                snap.predict_q1_with_confidence(&q),
                loaded.predict_q1_with_confidence(&q)
            );
            assert_eq!(
                snap.predict_q2_with_confidence(&q),
                loaded.predict_q2_with_confidence(&q)
            );
        }
    }

    #[test]
    fn vigilance_override_round_trips() {
        let mut cfg = ModelConfig::paper_defaults(2);
        cfg.vigilance_override = Some(4.25);
        let mut m = LlmModel::new(cfg).unwrap();
        m.train_step(&Query::new_unchecked(vec![0.1, 0.2], 0.3), 1.0)
            .unwrap();
        let path = tmp("override.model");
        save_model(&m, &path).unwrap();
        let loaded = load_model(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.config().vigilance_override, Some(4.25));
    }

    #[test]
    fn constant_schedule_round_trips() {
        let mut cfg = ModelConfig::paper_defaults(1);
        cfg.schedule = LearningSchedule::Constant(0.125);
        let mut m = LlmModel::new(cfg).unwrap();
        m.train_step(&Query::new_unchecked(vec![0.5], 0.1), 2.0)
            .unwrap();
        let path = tmp("schedule.model");
        save_model(&m, &path).unwrap();
        let loaded = load_model(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.config().schedule, LearningSchedule::Constant(0.125));
    }

    #[test]
    fn bad_magic_is_rejected() {
        let path = tmp("badmagic.model");
        std::fs::write(&path, "not-a-model\n").unwrap();
        let err = load_model(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, CoreError::Persist(_)));
    }

    #[test]
    fn truncated_file_is_rejected() {
        let m = trained_model(4);
        let path = tmp("truncated.model");
        save_model(&m, &path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        let cut: String = content.lines().take(3).map(|l| format!("{l}\n")).collect();
        std::fs::write(&path, cut).unwrap();
        let err = load_model(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(matches!(err, CoreError::Persist(_)));
    }

    // --- Corruption battery: a damaged file ends in a typed error or in
    // --- a model that answers finitely — never a panic, never an
    // --- allocation sized by a count the file states.

    /// A small trained model (a few dozen prototypes: every byte length
    /// and thousands of flips stay cheap) and probe balls over its domain.
    fn small_model() -> (LlmModel, Vec<Query>) {
        let mut rng = StdRng::seed_from_u64(40);
        let mut m = LlmModel::new(ModelConfig::with_vigilance(2, 0.06)).unwrap();
        for _ in 0..600 {
            let c: Vec<f64> = (0..2).map(|_| rng.random_range(0.0..1.0)).collect();
            // Small slopes and answers, so the file holds two-digit
            // exponents (one flipped sign away from an overflow).
            let y = 1e-11 * c[0] - 3e-15 * c[1];
            m.train_step(&Query::new_unchecked(c, rng.random_range(0.05..0.2)), y)
                .unwrap();
        }
        let probes = (0..6)
            .map(|i| Query::new_unchecked(vec![0.1 + 0.15 * i as f64, 0.8 - 0.1 * i as f64], 0.12))
            .collect();
        (m, probes)
    }

    fn saved_bytes(name: &str, save: impl FnOnce(&Path) -> Result<(), CoreError>) -> Vec<u8> {
        let path = tmp(name);
        save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        bytes
    }

    /// Load `bytes`; `false` on a typed error. A model that loads must
    /// capture and answer every probe finitely, scalar and served. A
    /// panic anywhere fails the test naming `what`.
    fn loads_and_answers(bytes: &[u8], probes: &[Query], what: &str) -> bool {
        let outcome = std::panic::catch_unwind(|| {
            let model: LlmModel = match read_model(bytes) {
                Ok(model) => model,
                Err(_) => return false,
            };
            let snap = model.snapshot();
            let mut counters = crate::arena::ScreenCounters::default();
            for q in probes.iter().filter(|_| model.k() > 0) {
                assert!(model.predict_q1(q).unwrap().is_finite());
                let (y, conf) = snap
                    .predict_q1_with_confidence_pruned(q, &mut counters)
                    .unwrap();
                assert!(y.is_finite() && conf.score.is_finite());
                let (list, _) = snap
                    .predict_q2_with_confidence_pruned(q, &mut counters)
                    .unwrap();
                assert!(!list.is_empty());
                for m in &list {
                    assert!(m.intercept.is_finite() && m.weight.is_finite());
                    assert!(regq_linalg::vector::all_finite(&m.slope));
                }
            }
            true
        });
        outcome.unwrap_or_else(|_| panic!("{what}: panicked instead of returning an error"))
    }

    #[test]
    fn corrupt_files_end_in_a_typed_error_or_a_finite_model() {
        let (m, probes) = small_model();
        let bytes = saved_bytes("battery.model", |p| save_model(&m, p));
        assert!(loads_and_answers(&bytes, &probes, "intact file"));
        let header_end = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        let header_end = header_end
            + bytes[header_end..]
                .iter()
                .position(|&b| b == b'\n')
                .unwrap()
            + 1;

        // Cut at every byte length: every line ends in its newline
        // and the header states the line count, so nothing short of
        // the whole file loads.
        for cut in 0..bytes.len() {
            assert!(
                !loads_and_answers(&bytes[..cut], &probes, &format!("cut at {cut}")),
                "cut at {cut} of {} loaded",
                bytes.len()
            );
        }

        // One byte replaced: every offset of the two header lines,
        // and a seeded sample of the rest, each against bytes that
        // mean something to the format and one that means nothing.
        let alphabet = b"0123456789-+.eE |\n\tinfNa\0\xff";
        let mut rng = StdRng::seed_from_u64(41);
        let mut sites: Vec<(usize, u8)> = Vec::new();
        for at in 0..header_end {
            for _ in 0..3 {
                sites.push((at, alphabet[rng.random_range(0..alphabet.len())]));
            }
        }
        while sites.len() < header_end * 3 + 2_500 {
            let at = rng.random_range(header_end..bytes.len());
            let with = if rng.random_range(0..4usize) == 0 {
                rng.random_range(0..=255u32) as u8
            } else {
                alphabet[rng.random_range(0..alphabet.len())]
            };
            sites.push((at, with));
        }
        let (mut flipped, mut loaded) = (0usize, 0usize);
        let mut damaged = bytes.clone();
        for (at, with) in sites {
            if bytes[at] == with {
                continue;
            }
            damaged[at] = with;
            flipped += 1;
            let what = format!("byte {at}: {:?} -> {:?}", bytes[at] as char, with as char);
            loaded += usize::from(loads_and_answers(&damaged, &probes, &what));
            damaged[at] = bytes[at];
        }
        assert!(flipped >= 2_000, "only {flipped} flips ran");
        // Both ends are exercised: a changed digit is still a model,
        // a changed separator is not.
        assert!(
            loaded > 0 && loaded < flipped,
            "{loaded} of {flipped} loaded"
        );
    }

    #[test]
    fn corrupt_counts_cost_a_comparison_not_an_allocation() {
        let (m, probes) = small_model();
        let text = String::from_utf8(saved_bytes("counts.model", |p| save_model(&m, p))).unwrap();
        let k_field = format!(" k {}", m.k());
        assert!(text.contains(&k_field));
        let huge = u64::MAX.to_string();
        for (from, to) in [
            (k_field.as_str(), format!(" k {huge}")),
            (k_field.as_str(), " k 1000000000000000".to_string()),
            (k_field.as_str(), format!(" k {huge}0")),
            ("dim 2 ", format!("dim {huge} ")),
            ("dim 2 ", "dim 0 ".to_string()),
        ] {
            let damaged = text.replacen(from, &to, 1);
            assert!(
                !loads_and_answers(damaged.as_bytes(), &probes, &to),
                "'{to}' loaded"
            );
        }
        // Counts no prototype contradicts are carried, not allocated: an
        // empty codebook of any stated dimension, any window, any step
        // count loads — and captures — without sizing anything by them.
        let header = text.lines().nth(1).unwrap();
        let empty = format!(
            "{MAGIC}\n{}\n",
            header
                .replacen(&k_field, " k 0", 1)
                .replacen("dim 2 ", "dim 1000000000000000 ", 1)
                .replacen("window 10 ", &format!("window {huge} "), 1)
        );
        assert!(loads_and_answers(
            empty.as_bytes(),
            &probes,
            "empty codebook, huge counts"
        ));
        // An exponent that overflows parses — to `inf` — and is refused.
        let first = text.lines().nth(2).unwrap();
        let radius = first.split_whitespace().nth(2).unwrap();
        let damaged = text.replacen(&format!(" {radius} "), " 1e999 ", 1);
        assert_eq!(
            read_model(damaged.as_bytes()).unwrap_err(),
            CoreError::NonFinite {
                location: "persisted prototype"
            }
        );
    }

    #[test]
    fn missing_file_is_persist_error() {
        assert!(matches!(
            load_model(Path::new("/nonexistent/m.model")),
            Err(CoreError::Persist(_))
        ));
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        fn query_strategy(d: usize) -> impl Strategy<Value = Query> {
            (prop::collection::vec(-1.0..2.0f64, d), 0.01..0.8f64)
                .prop_map(|(c, r)| Query::new_unchecked(c, r))
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Guard for the struct-of-arrays layout change: a trained
            /// model must predict **identically** after a save/load round
            /// trip, probed on a fixed grid of query balls (Q1, Q2 and
            /// data value). A silent reordering of the packed coefficient
            /// blocks would round-trip the textual fields yet shift which
            /// slope row each prototype serves — the probe grid catches
            /// exactly that.
            #[test]
            fn round_trip_predicts_identically_on_probe_grid(
                pairs in prop::collection::vec((query_strategy(2), -5.0..5.0f64), 1..80),
                case in 0u64..10_000,
            ) {
                let mut m = LlmModel::new(ModelConfig::paper_defaults(2)).unwrap();
                for (q, y) in &pairs {
                    m.train_step(q, *y).unwrap();
                }
                let path = std::env::temp_dir().join(format!(
                    "regq-persist-grid-{}-{case}.model",
                    std::process::id()
                ));
                save_model(&m, &path).unwrap();
                let loaded = load_model(&path).unwrap();
                std::fs::remove_file(&path).ok();
                for i in 0..5 {
                    for j in 0..5 {
                        let c = vec![i as f64 * 0.5 - 0.5, j as f64 * 0.5 - 0.5];
                        for theta in [0.05, 0.2, 0.6] {
                            let q = Query::new_unchecked(c.clone(), theta);
                            prop_assert_eq!(
                                m.predict_q1(&q).unwrap(),
                                loaded.predict_q1(&q).unwrap()
                            );
                            prop_assert_eq!(
                                m.predict_q2(&q).unwrap(),
                                loaded.predict_q2(&q).unwrap()
                            );
                            prop_assert_eq!(
                                m.predict_value(&q, &c).unwrap(),
                                loaded.predict_value(&q, &c).unwrap()
                            );
                        }
                    }
                }
            }
        }
    }
}
