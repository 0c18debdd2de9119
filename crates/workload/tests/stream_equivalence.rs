//! The training stream, executed a chunk at a time, against the loop it
//! replaced.
//!
//! [`train_from_engine`] draws a chunk of queries, runs their exact Q1s as
//! one ordered batch (`ExactEngine::q1_batch`, the kd-tree's build-leaf
//! order) and feeds the pairs to the model in draw order; when training
//! stops inside a chunk it rewinds the RNG to the chunk's start and draws
//! the queries up to the stopping one again. [`reference`] below is the
//! loop before that — draw one ball, execute it, feed it — kept verbatim
//! as the specification. Nothing but this file calls it.
//!
//! Neither may be observable. Every non-timing [`StreamReport`] field
//! (the `Γ` trace by its bits), the error when there is one, every arena
//! bit of the final model with its step count and frozen flag, and the
//! next 16 draws of the RNG must equal the reference's, over
//!
//! * convergence at the first, a middle and the last query of a chunk
//!   (a first call of the right length puts the chunk boundaries there);
//! * budgets 0, 1, B − 1, B, B + 1 and 3B + 7, called one after another
//!   on the same model and generator;
//! * tables where every subspace is empty: no rows, and rows outside the
//!   query domain;
//! * a `train_step` error in mid-chunk: a NaN target in one row, and a
//!   model whose dimension is not the table's over a table most balls
//!   miss;
//! * the scan and the kd-tree, d ∈ {1, 2, 4, 9}.

use rand::{Rng, RngExt};
use regq_core::{CoreError, LlmModel, ModelConfig, Query};
use regq_data::generators::GasSensorSurrogate;
use regq_data::rng::{seeded, SeededRng};
use regq_data::{DataFunction, Dataset, SampleOptions};
use regq_exact::ExactEngine;
use regq_store::AccessPathKind;
use regq_workload::{train_from_engine, QueryGenerator, StreamReport};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Queries per chunk of `train_from_engine`'s stream (a unit test in
/// `stream.rs` pins the constant to this value).
const B: usize = 2048;

const PATHS: [AccessPathKind; 2] = [AccessPathKind::Scan, AccessPathKind::KdTree];

/// The Fig. 2 loop one query at a time, as it read before chunking — the
/// oracle.
fn reference<R: Rng + ?Sized>(
    model: &mut LlmModel,
    engine: &ExactEngine,
    gen: &QueryGenerator,
    max_queries: usize,
    rng: &mut R,
) -> Result<StreamReport, CoreError> {
    let mut report = StreamReport {
        issued: 0,
        consumed: 0,
        skipped_empty: 0,
        converged: false,
        prototypes: 0,
        gamma_trace: Vec::new(),
        query_exec_time: Duration::ZERO,
        model_update_time: Duration::ZERO,
    };
    while report.issued < max_queries {
        let q: Query = gen.generate(rng);
        report.issued += 1;

        let t0 = Instant::now();
        let answer = engine.q1(&q.center, q.radius);
        report.query_exec_time += t0.elapsed();

        let Some(y) = answer else {
            report.skipped_empty += 1;
            continue;
        };

        let t1 = Instant::now();
        let out = model.train_step(&q, y)?;
        report.model_update_time += t1.elapsed();

        report.consumed += 1;
        report.gamma_trace.push(out.gamma_j.max(out.gamma_h));
        if out.converged {
            report.converged = true;
            break;
        }
    }
    report.prototypes = model.k();
    report.converged = model.is_frozen();
    Ok(report)
}

type Trainer = fn(
    &mut LlmModel,
    &ExactEngine,
    &QueryGenerator,
    usize,
    &mut SeededRng,
) -> Result<StreamReport, CoreError>;

/// A report without its timings, the `Γ` trace by its bits.
type Fields = (usize, usize, usize, bool, usize, Vec<u64>);

fn fields(r: &StreamReport) -> Fields {
    let trace = r.gamma_trace.iter().map(|g| g.to_bits()).collect();
    (
        r.issued,
        r.consumed,
        r.skipped_empty,
        r.converged,
        r.prototypes,
        trace,
    )
}

/// What a sequence of calls leaves behind.
struct Run {
    /// One per call, up to and including the first error.
    results: Vec<Result<Fields, CoreError>>,
    model: LlmModel,
    next_draws: [u64; 16],
}

/// `train` called with each budget of `calls` in turn, on one model and
/// one RNG seeded with `seed`; stops after the first error.
fn run(
    train: Trainer,
    cfg: &ModelConfig,
    engine: &ExactEngine,
    gen: &QueryGenerator,
    calls: &[usize],
    seed: u64,
) -> Run {
    let mut model = LlmModel::new(cfg.clone()).unwrap();
    let mut rng = seeded(seed);
    let mut results = Vec::new();
    for &budget in calls {
        let result = train(&mut model, engine, gen, budget, &mut rng);
        let failed = result.is_err();
        results.push(result.map(|r| fields(&r)));
        if failed {
            break;
        }
    }
    let next_draws = std::array::from_fn(|_| rng.random::<u64>());
    Run {
        results,
        model,
        next_draws,
    }
}

/// Every parameter of every prototype, by its bits.
fn arena_bits(model: &LlmModel) -> Vec<Vec<u64>> {
    let arena = model.arena();
    (0..arena.len())
        .map(|k| {
            let p = arena.view(k);
            let mut bits: Vec<u64> = p.center.iter().map(|x| x.to_bits()).collect();
            bits.extend(p.b_x.iter().map(|x| x.to_bits()));
            bits.extend([p.radius, p.y, p.b_theta].map(f64::to_bits));
            bits.push(p.updates);
            bits
        })
        .collect()
}

/// Run the stream and the reference on the same calls and assert every
/// observable equal; returns the reference's run.
fn assert_same(
    cfg: &ModelConfig,
    engine: &ExactEngine,
    gen: &QueryGenerator,
    calls: &[usize],
    seed: u64,
    ctx: &str,
) -> Run {
    let got = run(
        train_from_engine::<SeededRng>,
        cfg,
        engine,
        gen,
        calls,
        seed,
    );
    let want = run(reference::<SeededRng>, cfg, engine, gen, calls, seed);
    assert_eq!(got.results, want.results, "{ctx}: reports");
    assert_eq!(got.model.k(), want.model.k(), "{ctx}: K");
    assert_eq!(
        arena_bits(&got.model),
        arena_bits(&want.model),
        "{ctx}: arena"
    );
    assert_eq!(got.model.steps(), want.model.steps(), "{ctx}: steps");
    assert_eq!(
        got.model.is_frozen(),
        want.model.is_frozen(),
        "{ctx}: frozen"
    );
    assert_eq!(got.next_draws, want.next_draws, "{ctx}: RNG");
    want
}

/// `n` rows of the gas-sensor surface in `d` dimensions.
fn surface(d: usize, n: usize, seed: u64) -> (Dataset, GasSensorSurrogate) {
    let f = GasSensorSurrogate::new(d, seed);
    let ds = Dataset::from_function(&f, n, SampleOptions::default(), &mut seeded(seed));
    (ds, f)
}

/// Unit-cube balls whose mean radius grows with `d`, so that a good share
/// of them hold rows at every dimension.
fn unit_balls(f: &GasSensorSurrogate) -> QueryGenerator {
    QueryGenerator::for_function(f, 0.1 * f.dim() as f64)
}

/// Chunk positions the stop is placed at: first, middle, last.
const POSITIONS: [usize; 3] = [0, B / 2, B - 1];

/// Calls that put the reference's stopping query — the `stop`-th draw,
/// counting from 1 — at chunk position `p` of the stream's second call.
fn calls_stopping_at(stop: usize, p: usize) -> Vec<usize> {
    assert!(stop > p, "stop {stop} comes too early for position {p}");
    let first = (stop - 1 - p) % B;
    vec![first, usize::MAX]
}

/// The first draw, counting from 1, of `gen`'s stream under `seed` whose
/// query satisfies `pred`.
fn first_draw(gen: &QueryGenerator, seed: u64, pred: impl Fn(&Query) -> bool) -> usize {
    let mut rng = seeded(seed);
    1 + (0..).position(|_| pred(&gen.generate(&mut rng))).unwrap()
}

#[test]
fn every_budget_feeds_the_pairs_one_query_at_a_time_would() {
    let calls = [0, 1, B - 1, B, B + 1, 3 * B + 7];
    for d in [1usize, 2, 4, 9] {
        let (ds, f) = surface(d, 3_000, d as u64);
        let gen = unit_balls(&f);
        let mut cfg = ModelConfig::paper_defaults(d);
        cfg.gamma = 1e-300; // never converges: every budget is spent
        let data = Arc::new(ds);
        for path in PATHS {
            let engine = ExactEngine::new(data.clone(), path);
            let ctx = format!("d {d} {path}");
            let want = assert_same(&cfg, &engine, &gen, &calls, 40 + d as u64, &ctx);
            let issued: Vec<usize> = want.results.iter().map(|r| r.as_ref().unwrap().0).collect();
            assert_eq!(issued, calls, "{ctx}");
            let fed = want
                .results
                .iter()
                .map(|r| r.as_ref().unwrap().1)
                .sum::<usize>();
            assert!(
                fed > 1_000 && want.model.k() > 1,
                "{ctx}: a stream that trains"
            );
        }
    }
}

#[test]
fn convergence_at_the_first_middle_and_last_query_of_a_chunk() {
    let (ds, f) = surface(2, 5_000, 3);
    let data = Arc::new(ds);
    let gen = unit_balls(&f);
    let mut cfg = ModelConfig::paper_defaults(2);
    cfg.gamma = 3e-3; // converges after more than one chunk
    for path in PATHS {
        let engine = ExactEngine::new(data.clone(), path);
        // Where the reference converges, in one call.
        let once = assert_same(&cfg, &engine, &gen, &[usize::MAX], 9, &format!("{path}"));
        let (stop, _, _, converged, ..) = once.results[0].clone().unwrap();
        assert!(converged, "{path}: no convergence");
        for p in POSITIONS {
            let calls = calls_stopping_at(stop, p);
            let ctx = format!("{path}: converges at chunk position {p}");
            let want = assert_same(&cfg, &engine, &gen, &calls, 9, &ctx);
            let second = want.results[1].as_ref().unwrap();
            assert!(second.3 && (second.0 - 1) % B == p, "{ctx}: {second:?}");
        }
    }
}

#[test]
fn tables_where_every_subspace_is_empty() {
    let budget = 3 * B + 7;
    for d in [1usize, 4] {
        let f = GasSensorSurrogate::new(d, 1);
        let gen = unit_balls(&f);
        // No rows at all, and rows far outside the query domain.
        let mut far = Dataset::new(d);
        for i in 0..500 {
            far.push(&vec![10.0 + i as f64; d], i as f64).unwrap();
        }
        for (name, ds) in [("no rows", Dataset::new(d)), ("far rows", far)] {
            let data = Arc::new(ds);
            for path in PATHS {
                let engine = ExactEngine::new(data.clone(), path);
                let ctx = format!("{name} d {d} {path}");
                let cfg = ModelConfig::paper_defaults(d);
                let want = assert_same(&cfg, &engine, &gen, &[budget, 5], 3, &ctx);
                let first = want.results[0].as_ref().unwrap();
                assert_eq!((first.0, first.1, first.2), (budget, 0, budget), "{ctx}");
                assert_eq!(want.model.k(), 0, "{ctx}");
            }
        }
    }
}

#[test]
fn a_train_step_error_in_mid_chunk_leaves_what_the_loop_left() {
    // A NaN target: the first ball that holds its row averages to NaN,
    // which `train_step` refuses. A corner row, so that ball comes after
    // more than one chunk.
    let (ds, _) = surface(2, 2_000, 5);
    let mut poisoned = Dataset::new(2);
    for (x, u) in ds.iter() {
        poisoned.push(x, u).unwrap();
    }
    poisoned.push(&[1.0, 0.0], f64::NAN).unwrap();
    let gen = QueryGenerator::new(vec![(0.0, 1.0); 2], 0.015, 0.0, 1.0);
    let mut cfg = ModelConfig::paper_defaults(2);
    cfg.gamma = 1e-300; // never converges: the refusal ends the stream
    let data = Arc::new(poisoned);
    for path in PATHS {
        let engine = ExactEngine::new(data.clone(), path);
        let stop = first_draw(&gen, 12, |q| {
            engine.q1(&q.center, q.radius).is_some_and(f64::is_nan)
        });
        assert!(stop >= B, "{path}: refusal at draw {stop}, too early");
        let once = assert_same(&cfg, &engine, &gen, &[usize::MAX], 12, &format!("{path}"));
        let [Err(CoreError::NonFinite { .. })] = &once.results[..] else {
            panic!("{path}: expected one NaN refusal, got {:?}", once.results);
        };
        for p in POSITIONS {
            let ctx = format!("{path}: NaN refused at chunk position {p}");
            let want = assert_same(&cfg, &engine, &gen, &calls_stopping_at(stop, p), 12, &ctx);
            assert!(want.results.last().unwrap().is_err(), "{ctx}");
        }
    }

    // A model of the wrong dimension over a table most balls miss: the
    // first ball that holds a row is refused.
    let mut corner = Dataset::new(2);
    for i in 0..40 {
        corner.push(&[0.99 + i as f64 * 1e-4, 0.99], 1.0).unwrap();
    }
    let gen = QueryGenerator::new(vec![(0.0, 1.0); 2], 0.02, 0.0, 1.0);
    let data = Arc::new(corner);
    for path in PATHS {
        let engine = ExactEngine::new(data.clone(), path);
        let stop = first_draw(&gen, 13, |q| engine.q1(&q.center, q.radius).is_some());
        let ctx = format!("{path}: dimension mismatch at draw {stop}");
        let p = (stop - 1) % B;
        assert!(p != 0 && p != B - 1, "{ctx}: not mid-chunk");
        let want = assert_same(
            &ModelConfig::paper_defaults(3),
            &engine,
            &gen,
            &[4 * B],
            13,
            &ctx,
        );
        let [Err(CoreError::DimensionMismatch { .. })] = &want.results[..] else {
            panic!("{ctx}: expected one refusal, got {:?}", want.results);
        };
    }
}
