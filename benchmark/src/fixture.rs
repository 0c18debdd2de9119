//! Fixtures (table, trained model, registered session, oracle) and the
//! statement traffic of each workload.
//!
//! A fixture is the same on every run: the table's rows and the training
//! stream come from [`FIXTURE_SEED`], the way the paper's R1 is one fixed
//! table. `--seed` drives the traffic — the only thing the program under
//! test receives — so that two seeds differ in their statements and not in
//! the model's K or accuracy.
//!
//! The program under test receives only SQL text. Numbers in the text are
//! written with four decimals, as an analyst would type them, and the
//! oracle's copy of each query is read back from that same text, so both
//! sides see the same `f64`s without sharing a parser.

use crate::spec::{Kind, WorkloadSpec, DRIFT_PHASES, SCRIPT_LEN, TABLE};
use rand::RngExt;
use regq_core::moments::{MomentPair, MomentsModel};
use regq_core::{LlmModel, ModelConfig, Query};
use regq_data::generators::GasSensorSurrogate;
use regq_data::{seeded, Dataset, SampleOptions, SeededRng};
use regq_exact::ExactEngine;
use regq_sql::{Aggregate, QueryOutput, Session, SqlError};
use regq_store::AccessPathKind;
use regq_workload::{train_from_engine, QueryGenerator};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Structural seed of the R1 surrogate field.
const FIELD_SEED: u64 = 3;
/// Seed of the table's rows and of the training stream.
const FIXTURE_SEED: u64 = 7;
/// `γ` small enough that training never converges early: every fixture
/// consumes its full training stream, and the drift model stays live.
const NEVER_CONVERGE: f64 = 1e-12;
/// Training queries per timed chunk of set-up (≈ 0.1 s).
const TRAIN_CHUNK: usize = 2_000;
/// A batch-pool statement needs this many rows in its ball, so that the
/// exact `LINREG` fallback is well conditioned (a script is all-or-nothing:
/// one NULL or singular fit aborts it).
const MIN_BALL_ROWS: usize = 32;

/// Where set-up time went.
#[derive(Debug, Clone, Default)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub index_build_s: f64,
    pub train_s: f64,
    /// Sum of `parts`.
    pub total_s: f64,
    /// Generation, index build, each training chunk, registration: the
    /// same work in the same order on every set-up.
    pub parts: Vec<f64>,
    pub train_examples: usize,
    pub train_query_time_fraction: f64,
}

pub struct Fixture {
    pub spec: &'static WorkloadSpec,
    pub field: GasSensorSurrogate,
    pub data: Arc<Dataset>,
    /// The model as registered (frozen, except on the drift workload).
    pub model: LlmModel,
    pub moments: Option<MomentsModel>,
    pub session: Session,
    /// Independent linear-scan engine over the same rows.
    pub oracle: ExactEngine,
    pub setup: SetupTimes,
}

/// The drift workload's four hot regions: the quadrants of the first two
/// dimensions, A B C D = (low, low) (high, low) (low, high) (high, high),
/// the other dimensions spanning the table. Centres keep a 0.1 margin to
/// the domain's edge, so the smallest ball lies wholly inside it.
fn region_generator(dim: usize, region: usize) -> QueryGenerator {
    let bounds = (0..dim)
        .map(|i| match (i, (region % 4) >> i & 1) {
            (0 | 1, 0) => (0.1, 0.5),
            (0 | 1, _) => (0.5, 0.9),
            _ => (0.1, 0.9),
        })
        .collect();
    QueryGenerator::new(bounds, 0.12, 0.03, 0.25)
}

/// Radius floor of the drift stream: with the table's density a ball this
/// wide holds tens of rows, so no statement is NULL or singular.
const DRIFT_MIN_RADIUS: f64 = 0.08;

impl Fixture {
    /// Build the whole fixture, timing each part. `scale` shrinks the
    /// training stream (smoke tests); the table keeps its full size.
    pub fn build(spec: &'static WorkloadSpec, scale: f64) -> Fixture {
        let field = GasSensorSurrogate::new(spec.dim, FIELD_SEED);
        let mut rng = seeded(FIXTURE_SEED);

        let t = Instant::now();
        let data = Arc::new(Dataset::from_function(
            &field,
            spec.rows,
            SampleOptions::default(),
            &mut rng,
        ));
        let generate_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let engine = ExactEngine::new(Arc::clone(&data), AccessPathKind::KdTree);
        let index_build_s = t.elapsed().as_secs_f64();

        // Training runs in chunks, each timed: the same stream and the same
        // model as one call, but a chunk a disturbance fell on can be told
        // from the others (`SetupTimes::parts`).
        let train_queries = ((spec.train_queries as f64 * scale) as usize).max(64);
        let mut cfg = ModelConfig::with_vigilance(spec.dim, spec.vigilance);
        cfg.gamma = NEVER_CONVERGE;
        let mut model = LlmModel::new(cfg.clone()).expect("valid model config");
        let mut moments = (spec.kind == Kind::LiveDrift)
            .then(|| MomentsModel::new(cfg).expect("valid model config"));
        let gen = match moments {
            Some(_) => region_generator(spec.dim, 0),
            None => QueryGenerator::for_function(&field, 0.1),
        };
        let mut parts = vec![generate_s, index_build_s];
        let (mut train_examples, mut exec_s, mut update_s) = (0, 0.0, 0.0);
        let mut left = train_queries;
        while left > 0 {
            let n = left.min(TRAIN_CHUNK);
            left -= n;
            let t = Instant::now();
            let (consumed, exec, update) = match moments.as_mut() {
                Some(head) => train_with_moments(&mut model, head, &engine, &gen, n, &mut rng),
                None => {
                    let r = train_from_engine(&mut model, &engine, &gen, n, &mut rng)
                        .expect("training on matching dimensions cannot fail");
                    (
                        r.consumed,
                        r.query_exec_time.as_secs_f64(),
                        r.model_update_time.as_secs_f64(),
                    )
                }
            };
            parts.push(t.elapsed().as_secs_f64());
            train_examples += consumed;
            exec_s += exec;
            update_s += update;
        }
        if moments.is_none() {
            model.freeze();
        }
        let train_s = parts[2..].iter().sum();

        let t = Instant::now();
        let session = register(spec, engine, &model, moments.as_ref());
        let oracle = ExactEngine::new(Arc::clone(&data), AccessPathKind::Scan);
        parts.push(t.elapsed().as_secs_f64());
        Fixture {
            spec,
            field,
            data,
            model,
            moments,
            session,
            oracle,
            setup: SetupTimes {
                generate_s,
                index_build_s,
                train_s,
                total_s: parts.iter().sum(),
                parts,
                train_examples,
                train_query_time_fraction: exec_s / (exec_s + update_s).max(f64::MIN_POSITIVE),
            },
        }
    }

    /// Another session over the same rows and the same trained model, in
    /// the state the measured one started from.
    pub fn fresh_session(&self) -> Session {
        self.session_with(&self.model)
    }

    /// A session over the same rows holding `model` instead.
    pub fn session_with(&self, model: &LlmModel) -> Session {
        let engine = ExactEngine::new(Arc::clone(&self.data), AccessPathKind::KdTree);
        register(self.spec, engine, model, self.moments.as_ref())
    }
}

fn register(
    spec: &WorkloadSpec,
    engine: ExactEngine,
    model: &LlmModel,
    moments: Option<&MomentsModel>,
) -> Session {
    let mut session = Session::new();
    session.register_table(TABLE, engine);
    session
        .register_model(TABLE, model.clone())
        .expect("model and table share a dimension");
    if let Some(m) = moments {
        session
            .register_moments_model(TABLE, m.clone())
            .expect("moments model and table share a dimension");
    }
    if spec.shards > 1 {
        session
            .execute_command(&format!("SET SHARDS {} FOR {TABLE}", spec.shards))
            .expect("SET SHARDS on a registered table");
    }
    session
}

/// The Fig. 2 loop with a variance head trained alongside (one exact
/// traversal feeds both), accounted like `train_from_engine`: examples
/// consumed, seconds executing queries, seconds updating the models.
fn train_with_moments(
    model: &mut LlmModel,
    head: &mut MomentsModel,
    engine: &ExactEngine,
    gen: &QueryGenerator,
    queries: usize,
    rng: &mut SeededRng,
) -> (usize, f64, f64) {
    let (mut exec, mut update) = (0.0f64, 0.0f64);
    let mut consumed = 0usize;
    for _ in 0..queries {
        let q = gen.generate(rng);
        let t = Instant::now();
        let answer = engine.q1_moments(&q.center, q.radius);
        exec += t.elapsed().as_secs_f64();
        let Some(m) = answer else { continue };
        let t = Instant::now();
        model
            .train_step(&q, m.mean)
            .expect("query and model share a dimension");
        head.train_step(
            &q,
            MomentPair {
                mean: m.mean,
                variance: m.variance,
            },
        )
        .expect("query and model share a dimension");
        update += t.elapsed().as_secs_f64();
        consumed += 1;
    }
    (consumed, exec, update)
}

/// The statements of one run, in call order, kept as flat arrays.
pub struct Traffic {
    pub dim: usize,
    pub aggs: Vec<Aggregate>,
    pub centers: Vec<f64>,
    pub radii: Vec<f64>,
    /// SQL text of each call: one statement, or a `;`-joined script.
    pub calls: Vec<String>,
    /// Statements per call.
    pub per_call: usize,
    /// Drift only: statements per region phase.
    pub phase_len: Option<usize>,
}

impl Traffic {
    pub fn statements(&self) -> usize {
        self.aggs.len()
    }

    pub fn center(&self, i: usize) -> &[f64] {
        &self.centers[i * self.dim..(i + 1) * self.dim]
    }

    pub fn query(&self, i: usize) -> Query {
        Query::new_unchecked(self.center(i).to_vec(), self.radii[i])
    }

    /// Send call `c` outside any clock: one statement, or one script.
    ///
    /// # Errors
    /// Whatever the session answers.
    pub fn send(&self, session: &Session, c: usize) -> Result<Vec<QueryOutput>, SqlError> {
        if self.per_call == 1 {
            session.execute(&self.calls[c]).map(|o| vec![o])
        } else {
            session.execute_batch(&self.calls[c])
        }
    }

    /// Append one statement's numbers (already rounded to the text form)
    /// and return its SQL.
    fn push(&mut self, agg: Aggregate, q: &Query, using: &str) -> String {
        let mut sql = format!("SELECT {agg} FROM {TABLE} WHERE DIST(x, [");
        for (i, c) in q.center.iter().enumerate() {
            if i > 0 {
                sql.push_str(", ");
            }
            write!(sql, "{c}").expect("writing to a String cannot fail");
        }
        write!(sql, "]) <= {} USING {using}", q.radius).expect("writing to a String cannot fail");
        self.aggs.push(agg);
        self.centers.extend_from_slice(&q.center);
        self.radii.push(q.radius);
        sql
    }
}

/// Round to the four decimals the SQL text carries.
fn typed(v: f64) -> f64 {
    format!("{v:.4}")
        .parse()
        .expect("a formatted float parses back")
}

fn typed_query(q: Query, min_radius: f64) -> Query {
    Query::new_unchecked(
        q.center.into_iter().map(typed).collect(),
        typed(q.radius).max(min_radius),
    )
}

fn pick(rng: &mut SeededRng, mix: &[(Aggregate, f64)]) -> Aggregate {
    let mut u: f64 = rng.random_range(0.0..1.0);
    for (agg, share) in mix {
        if u < *share {
            return *agg;
        }
        u -= share;
    }
    mix[mix.len() - 1].0
}

const MODEL_MIX: [(Aggregate, f64); 2] = [(Aggregate::Avg, 0.7), (Aggregate::LinReg, 0.3)];
const DRIFT_MIX: [(Aggregate, f64); 4] = [
    (Aggregate::Avg, 0.5),
    (Aggregate::LinReg, 0.3),
    (Aggregate::Var, 0.1),
    (Aggregate::Count, 0.1),
];

/// Generate the workload's statements. `drift_statements` sizes the drift
/// stream (the other workloads replay a pool of fixed size).
pub fn traffic(fx: &Fixture, seed: u64, scale: f64, drift_statements: usize) -> Traffic {
    let spec = fx.spec;
    let mut rng = seeded(seed);
    let per_call = if spec.kind == Kind::BatchAuto {
        SCRIPT_LEN
    } else {
        1
    };
    let mut t = Traffic {
        dim: spec.dim,
        aggs: Vec::new(),
        centers: Vec::new(),
        radii: Vec::new(),
        calls: Vec::new(),
        per_call,
        phase_len: None,
    };
    let pool = ((spec.pool_statements as f64 * scale) as usize).max(16 * per_call);
    match spec.kind {
        Kind::ScalarModel => {
            let gen = QueryGenerator::for_function(&fx.field, 0.1);
            for _ in 0..pool {
                let q = typed_query(gen.generate(&mut rng), 0.0001);
                let agg = pick(&mut rng, &MODEL_MIX);
                let sql = t.push(agg, &q, "MODEL");
                t.calls.push(sql);
            }
        }
        Kind::BatchAuto => {
            let gen = QueryGenerator::for_function(&fx.field, 0.1);
            let rel = fx
                .session
                .router(TABLE)
                .expect("the table is registered")
                .exact_engine()
                .relation();
            for s in 0..pool / SCRIPT_LEN {
                // Exactly 30 % `LINREG` scripts, evenly spread: a script's
                // latency depends on its aggregate, and with the share left
                // to chance `p50_us` would follow it from seed to seed.
                let agg = if (s + 1) * 3 / 10 > s * 3 / 10 {
                    Aggregate::LinReg
                } else {
                    Aggregate::Avg
                };
                let mut script = String::new();
                let mut n = 0;
                while n < SCRIPT_LEN {
                    let q = typed_query(gen.generate(&mut rng), 0.0001);
                    if rel.count(&q.center, q.radius) < MIN_BALL_ROWS {
                        continue;
                    }
                    let sql = t.push(agg, &q, "AUTO");
                    script.push_str(&sql);
                    script.push_str(";\n");
                    n += 1;
                }
                t.calls.push(script);
            }
        }
        Kind::LiveDrift => {
            let phase_len = (drift_statements / DRIFT_PHASES).max(64);
            t.phase_len = Some(phase_len);
            for phase in 0..DRIFT_PHASES {
                let gen = region_generator(spec.dim, phase);
                for _ in 0..phase_len {
                    let q = typed_query(gen.generate(&mut rng), DRIFT_MIN_RADIUS);
                    let agg = pick(&mut rng, &DRIFT_MIX);
                    let sql = t.push(agg, &q, "AUTO");
                    t.calls.push(sql);
                }
            }
        }
    }
    t
}
