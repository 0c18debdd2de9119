//! The traced run: where the microseconds of a call go, layer by layer.
//!
//! This change may not instrument the program, so nesting is obtained by
//! executing the same statements at each depth through public entry
//! points — `Session::execute(sql)` ⊃ {`parse`, `execute_statement` ⊃
//! {router call ⊃ {core predict | exact call ⊃ store count}}} — one span
//! per chunk of 256 consecutive statements per depth, so sub-µs calls are
//! not drowned by the clock. A layer's self time is its span minus the
//! spans nested in it. On the stateful drift workload a replay would
//! train twice, so only the real split `parse` → `execute_statement` is
//! spanned in-stream; everything beneath comes from side measurements on
//! clones of the model at each phase boundary.

use crate::fixture::{Fixture, Traffic};
use crate::json::{obj, Json};
use crate::measure::Composed;
use crate::spec::{Kind, TABLE};
use regq_core::{LlmModel, Query, ScreenCounters, ServingSnapshot};
use regq_exact::ExactEngine;
use regq_linalg::simd::{pack_quads_aosoa, sq_dists4_aosoa};
use regq_serve::{Route, SnapshotCell};
use regq_sql::{parse, parse_script, Aggregate, ExecMode, Session, Statement};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Statements per span.
const CHUNK: usize = 256;
/// Pool workloads trace every 16th call, or more where the pool is small.
const STRIDE: usize = 16;
const MIN_TRACED_STATEMENTS: usize = 5_000;
/// Queries per side measurement.
const SIDE_QUERIES: usize = 256;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub agg: &'static str,
    /// First statement of the chunk, and how many the span covers.
    pub first_statement: usize,
    pub statements: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Time `f` as one span and return its id with `f`'s result.
    fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        (agg, first_statement, statements): (&'static str, usize, usize),
        f: impl FnOnce() -> R,
    ) -> (usize, R) {
        let start = self.origin.elapsed();
        let out = f();
        let end = self.origin.elapsed();
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            name,
            agg,
            first_statement,
            statements,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
        });
        (id, out)
    }

    /// Total seconds under spans named `name` (of aggregate `agg`, if given).
    fn total(&self, name: &str, agg: Option<&str>) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && agg.is_none_or(|a| s.agg == a))
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    fn statements(&self, name: &str, agg: Option<&str>) -> usize {
        self.spans
            .iter()
            .filter(|s| s.name == name && agg.is_none_or(|a| s.agg == a))
            .map(|s| s.statements)
            .sum()
    }

    fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    obj([
                        ("id", (s.id as f64).into()),
                        ("parent", s.parent.map_or(Json::Null, |p| (p as f64).into())),
                        ("name", s.name.into()),
                        ("agg", s.agg.into()),
                        ("first_statement", (s.first_statement as f64).into()),
                        ("statements", (s.statements as f64).into()),
                        ("start_ns", (s.start_ns as f64).into()),
                        ("end_ns", (s.end_ns as f64).into()),
                    ])
                })
                .collect(),
        )
    }
}

/// What the traced run produced.
pub struct TraceResult {
    /// Per-layer metrics by name (timings only; counts come from the
    /// measured phase).
    pub metrics: BTreeMap<&'static str, f64>,
    /// The waterfall, as lines for the report.
    pub waterfall: Vec<String>,
    /// Span file content.
    pub file: Json,
}

fn agg_name(a: Aggregate) -> &'static str {
    match a {
        Aggregate::Avg => "AVG",
        Aggregate::LinReg => "LINREG",
        Aggregate::Var => "VAR",
        Aggregate::Count => "COUNT",
    }
}

/// Microseconds per item of one timed loop over `items`.
fn time_us<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let t = Instant::now();
    for item in items {
        f(item);
    }
    t.elapsed().as_secs_f64() * 1e6 / items.len() as f64
}

/// Unit costs of the layers beneath the router, measured from outside on
/// `model` (the fixture's, or a clone taken mid-stream on the drift
/// workload). `model_qs` are queries the model serves, `exact_qs` queries
/// that went (or would go) to the exact engine.
fn unit_costs(
    fx: &Fixture,
    engine: &ExactEngine,
    model: &LlmModel,
    model_qs: &[Query],
    exact_qs: &[Query],
) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let snap = model.snapshot();
    let mut counters = ScreenCounters::default();

    m.insert(
        "core.predict_q1_us",
        time_us(model_qs, |q| {
            black_box(
                snap.predict_q1_with_confidence_pruned(q, &mut counters)
                    .ok(),
            );
        }),
    );
    m.insert(
        "core.predict_q2_us",
        time_us(model_qs, |q| {
            black_box(
                snap.predict_q2_with_confidence_pruned(q, &mut counters)
                    .ok(),
            );
        }),
    );
    m.insert(
        "core.predict_q1_unpruned_us",
        time_us(model_qs, |q| {
            black_box(snap.predict_q1_with_confidence(q).ok());
        }),
    );
    let batches: Vec<&[Query]> = model_qs.chunks(crate::spec::SCRIPT_LEN).collect();
    m.insert(
        "core.predict_q1_batch_us",
        time_us(&batches, |b| {
            black_box(
                snap.predict_q1_with_confidence_batch_pruned(b, &mut counters)
                    .ok(),
            );
        }) * batches.len() as f64
            / model_qs.len().max(1) as f64,
    );
    let mut set = Vec::new();
    let mut members = 0usize;
    for q in model_qs {
        snap.overlap_set_into(q, &mut set);
        members += set.len();
    }
    m.insert(
        "core.overlap_set_size",
        members as f64 / model_qs.len().max(1) as f64,
    );

    // A frozen model ignores examples; the trainer's cost at this K is
    // what an unfrozen clone pays.
    let pairs: Vec<(&Query, f64)> = exact_qs
        .iter()
        .filter_map(|q| engine.q1(&q.center, q.radius).map(|y| (q, y)))
        .collect();
    let mut trainee = model.clone();
    trainee.unfreeze();
    m.insert(
        "core.train_step_us",
        time_us(&pairs, |(q, y)| {
            black_box(trainee.train_step(q, *y).ok());
        }),
    );
    m.insert(
        "core.capture_us",
        time_us(&[(); 5], |()| {
            black_box(ServingSnapshot::capture(model).layout().num_blocks());
        }),
    );

    // The floor of an unpruned resolution: every prototype's distance,
    // nothing else.
    let (k, d) = (snap.k(), snap.dim());
    let mut rows = snap.arena().centers().to_vec();
    rows.resize(k.next_multiple_of(4) * d, f64::INFINITY);
    let mut aosoa = Vec::new();
    pack_quads_aosoa(&rows, d, &mut aosoa);
    m.insert(
        "linalg.scan_us",
        time_us(model_qs, |q| {
            let mut acc = 0.0;
            for quad in aosoa.chunks_exact(4 * d) {
                let [a, b, c, e] = sq_dists4_aosoa(&q.center, quad);
                acc += a.min(b).min(c.min(e));
            }
            black_box(acc);
        }),
    );
    m.insert("linalg.scan_flops", (3 * k * d) as f64);
    m.insert("linalg.scan_bytes", (8 * k * d) as f64);

    m.insert(
        "exact.q1_us",
        time_us(exact_qs, |q| {
            black_box(engine.q1(&q.center, q.radius));
        }),
    );
    m.insert(
        "exact.q1_reg_fused_us",
        time_us(exact_qs, |q| {
            black_box(engine.q1_reg_fused(&q.center, q.radius).ok());
        }),
    );
    m.insert(
        "exact.q1_moments_us",
        time_us(exact_qs, |q| {
            black_box(engine.q1_moments(&q.center, q.radius));
        }),
    );
    let mut rows_seen = 0usize;
    m.insert(
        "store.count_us",
        time_us(exact_qs, |q| {
            rows_seen += black_box(engine.relation().count(&q.center, q.radius));
        }),
    );
    m.insert(
        "exact.rows_per_query",
        rows_seen as f64 / exact_qs.len().max(1) as f64,
    );

    // What every routed call pays to pin the current snapshot.
    let cell = SnapshotCell::with_snapshot(snap.clone());
    m.insert(
        "serve.cell_read_us",
        time_us(&[(); 16_384], |()| {
            let mut reader = cell.tls_reader();
            let guard = reader.enter();
            black_box(guard.get().map(ServingSnapshot::k));
        }),
    );

    // The orchestration above the kernel, on a side session holding this
    // model: executor minus router is the bind, router minus predict the
    // routing (guards, gate, counters). Forced to the model route, so
    // nothing is fed back and the replay leaves the side model as it is.
    let side = fx.session_with(model);
    let side_router = side.router(TABLE).expect("the table is registered");
    let stmts: Vec<Statement> = model_qs
        .iter()
        .map(|q| Statement {
            aggregate: Aggregate::Avg,
            table: TABLE.to_string(),
            center: q.center.clone(),
            radius: q.radius,
            mode: ExecMode::Model,
        })
        .collect();
    let executor = time_us(&stmts, |s| {
        black_box(side.execute_statement(s).ok());
    });
    let routed = time_us(model_qs, |q| {
        black_box(side_router.q1_model(q).ok());
    });
    m.insert("sql.bind_us", (executor - routed).max(0.0));
    m.insert(
        "serve.route_us",
        (routed - m["core.predict_q1_us"]).max(0.0),
    );

    // Feedback = what the fabric adds to an exact answer: enqueue, the
    // inline pump (train_step when the model is live) and its share of
    // the periodic publish.
    let with_feedback = time_us(exact_qs, |q| {
        black_box(side_router.q1_exact(q).ok());
    });
    let without = time_us(exact_qs, |q| {
        black_box(side_router.exact_engine().q1(&q.center, q.radius));
    });
    m.insert("serve.feedback_us", (with_feedback - without).max(0.0));
    m.insert(
        "serve.publish_us",
        time_us(&[(); 5], |()| {
            black_box(side_router.publish_now());
        }),
    );
    m
}

fn sample_queries(traffic: &Traffic, ids: impl Iterator<Item = usize>) -> Vec<Query> {
    ids.take(SIDE_QUERIES).map(|i| traffic.query(i)).collect()
}

/// Trace the workload after its measured phase (`measured`), on the
/// fixture's own session for the frozen workloads and on a fresh session
/// for the drift stream.
pub fn run(fx: &Fixture, traffic: &Traffic, measured: &Composed, seed: u64) -> TraceResult {
    let mut tracer = Tracer::new();
    let (mut metrics, waterfall) = match fx.spec.kind {
        Kind::LiveDrift => trace_stream(fx, traffic, measured, &mut tracer),
        _ => trace_pool(fx, traffic, measured, &mut tracer),
    };
    metrics.insert(
        "linalg.avx2",
        f64::from(u8::from(regq_linalg::simd::avx2_available())),
    );
    let file = obj([
        ("workload", fx.spec.name.into()),
        ("seed", (seed as f64).into()),
        ("chunk_statements", (CHUNK as f64).into()),
        (
            "waterfall",
            Json::Arr(waterfall.iter().map(|l| l.as_str().into()).collect()),
        ),
        ("spans", tracer.to_json()),
    ]);
    TraceResult {
        metrics,
        waterfall,
        file,
    }
}

/// Replay a sample of the pool at each depth (frozen workloads).
fn trace_pool(
    fx: &Fixture,
    traffic: &Traffic,
    measured: &Composed,
    tracer: &mut Tracer,
) -> (BTreeMap<&'static str, f64>, Vec<String>) {
    let session = &fx.session;
    let router = session.router(TABLE).expect("the table is registered");
    let engine = router.exact_engine();
    let model = router
        .merged_model()
        .expect("the fixture registered a model");
    let snap = model.snapshot();
    let per_call = traffic.per_call;
    let batch = fx.spec.kind == Kind::BatchAuto;

    let calls = traffic.calls.len();
    let mut stride = STRIDE;
    while stride > 1 && calls / stride * per_call < MIN_TRACED_STATEMENTS {
        stride /= 2;
    }
    // Spans are homogeneous: AVG calls first, then LINREG calls.
    let mut subset: Vec<usize> = (0..calls).step_by(stride).collect();
    subset.sort_by_key(|&c| traffic.aggs[c * per_call] != Aggregate::Avg);

    let mut counters = ScreenCounters::default();
    let mut exact_routed: Vec<usize> = Vec::new();
    let chunk_calls = (CHUNK / per_call).max(1);
    let mut start = 0;
    while start < subset.len() {
        let agg = traffic.aggs[subset[start] * per_call];
        let mut end = start;
        while end < subset.len()
            && end - start < chunk_calls
            && traffic.aggs[subset[end] * per_call] == agg
        {
            end += 1;
        }
        let chunk = &subset[start..end];
        start = end;
        let tag = (agg_name(agg), chunk[0] * per_call, chunk.len() * per_call);
        let queries: Vec<Vec<Query>> = chunk
            .iter()
            .map(|&c| {
                (c * per_call..(c + 1) * per_call)
                    .map(|i| traffic.query(i))
                    .collect()
            })
            .collect();

        // The pool is larger than the caches and the sample strides over
        // it, so whichever depth runs first would pay for cold text that
        // the others find warm. An untimed lap at depth 0 puts every
        // depth on the same footing; what the untraced run pays for cold
        // text shows in `trace.overhead_share`.
        for &c in chunk {
            black_box(traffic.send(session, c).ok());
        }
        // Depth 0: SQL text in, answer out. Routes are kept (one byte a
        // statement) to know which statements reach the exact engine.
        let (root, routes) = tracer.span("execute", None, tag, || {
            let mut routes: Vec<Route> = Vec::with_capacity(chunk.len() * per_call);
            for &c in chunk {
                if batch {
                    if let Ok(outs) = session.execute_batch(&traffic.calls[c]) {
                        routes.extend(outs.iter().map(|o| o.route));
                    }
                } else if let Ok(o) = session.execute(&traffic.calls[c]) {
                    routes.push(o.route);
                }
            }
            routes
        });
        // Depth 1: the two halves of `execute`. The parse span drops what
        // it parsed, as `execute` does; the executor's input is parsed
        // again outside any span.
        tracer.span("parse", Some(root), tag, || {
            for &c in chunk {
                if batch {
                    black_box(parse_script(&traffic.calls[c]).ok());
                } else {
                    black_box(parse(&traffic.calls[c]).ok());
                }
            }
        });
        let parsed: Vec<Vec<Statement>> = chunk
            .iter()
            .map(|&c| {
                if batch {
                    parse_script(&traffic.calls[c]).expect("generated SQL parses")
                } else {
                    vec![parse(&traffic.calls[c]).expect("generated SQL parses")]
                }
            })
            .collect();
        let (es, ()) = tracer.span("execute_statement", Some(root), tag, || {
            for stmts in &parsed {
                if batch {
                    black_box(session.execute_statements(stmts).ok());
                } else {
                    black_box(session.execute_statement(&stmts[0]).ok());
                }
            }
        });
        // Depth 2: the router call beneath the executor.
        let mode = parsed[0][0].mode;
        let (rt, ()) = tracer.span("router", Some(es), tag, || {
            for qs in &queries {
                match (batch, agg, mode) {
                    (true, Aggregate::Avg, _) => drop(black_box(router.q1_batch(qs))),
                    (true, _, _) => drop(black_box(router.q2_batch(qs))),
                    (false, Aggregate::Avg, ExecMode::Model) => {
                        drop(black_box(router.q1_model(&qs[0])));
                    }
                    (false, Aggregate::Avg, _) => drop(black_box(router.q1(&qs[0]))),
                    (false, _, ExecMode::Model) => drop(black_box(router.q2_model(&qs[0]))),
                    (false, _, _) => drop(black_box(router.q2(&qs[0]))),
                }
            }
        });
        // Depth 3: the model's answer on the merged snapshot …
        tracer.span("predict", Some(rt), tag, || {
            for qs in &queries {
                match (batch, agg) {
                    (true, Aggregate::Avg) => drop(black_box(
                        snap.predict_q1_with_confidence_batch_pruned(qs, &mut counters),
                    )),
                    (true, _) => drop(black_box(
                        snap.predict_q2_with_confidence_batch_pruned(qs, &mut counters),
                    )),
                    (false, Aggregate::Avg) => drop(black_box(
                        snap.predict_q1_with_confidence_pruned(&qs[0], &mut counters),
                    )),
                    (false, _) => drop(black_box(
                        snap.predict_q2_with_confidence_pruned(&qs[0], &mut counters),
                    )),
                }
            }
        });
        // … and the exact engine's, for the statements that fell back.
        let fell_back: Vec<usize> = chunk
            .iter()
            .flat_map(|&c| c * per_call..(c + 1) * per_call)
            .zip(&routes)
            .filter(|(_, r)| **r == Route::Exact)
            .map(|(i, _)| i)
            .collect();
        if !fell_back.is_empty() {
            let qs: Vec<Query> = fell_back.iter().map(|&i| traffic.query(i)).collect();
            let tag = (tag.0, tag.1, qs.len());
            let (ex, ()) = tracer.span("exact", Some(rt), tag, || {
                for q in &qs {
                    if agg == Aggregate::Avg {
                        black_box(engine.q1(&q.center, q.radius));
                    } else {
                        black_box(engine.q1_reg_fused(&q.center, q.radius).ok());
                    }
                }
            });
            tracer.span("count", Some(ex), tag, || {
                for q in &qs {
                    black_box(engine.relation().count(&q.center, q.radius));
                }
            });
        }
        exact_routed.extend(fell_back);
    }

    let traced = tracer.statements("execute", None);
    let per_stmt = |secs: f64| secs * 1e6 / traced as f64;
    let t = |name: &str| tracer.total(name, None);
    let (execute, parse_t, es, rt) = (
        t("execute"),
        t("parse"),
        t("execute_statement"),
        t("router"),
    );
    let (predict, exact, count) = (t("predict"), t("exact"), t("count"));
    // Self times; a child measured larger than its parent is an
    // inconsistency of the replay and is charged to the residual, not
    // hidden by clamping.
    let remainders = [es - rt, rt - predict - exact, exact - count];
    let inconsistency: f64 = remainders.iter().map(|r| (-r).max(0.0)).sum();
    let residual = ((execute - parse_t - es).abs() + inconsistency) / execute;

    // Untraced time of the same calls, from the measured phase.
    let untraced_call_us = subset
        .iter()
        .map(|&c| f64::from(measured.lat_ns[c]))
        .sum::<f64>()
        / 1e3
        / subset.len() as f64;
    let traced_call_us = execute * 1e6 / subset.len() as f64;

    let model_qs = sample_queries(
        traffic,
        subset
            .iter()
            .map(|&c| c * per_call)
            .filter(|&i| traffic.aggs[i] == Aggregate::Avg),
    );
    let exact_qs = if exact_routed.len() >= 64 {
        sample_queries(traffic, exact_routed.iter().copied())
    } else {
        sample_queries(traffic, subset.iter().map(|&c| c * per_call))
    };
    let mut m = unit_costs(fx, engine, &model, &model_qs, &exact_qs);
    m.insert("sql.parse_us", per_stmt(parse_t));
    m.insert("sql.bind_us", per_stmt(es - rt));
    m.insert("serve.route_us", per_stmt(rt - predict - exact));
    // The spans cover the whole sample; they take precedence over the
    // side measurement of the same call.
    let per_agg = |name: &str, agg: &str| {
        tracer.total(name, Some(agg)) * 1e6 / tracer.statements(name, Some(agg)).max(1) as f64
    };
    if batch {
        m.insert("core.predict_q1_batch_us", per_agg("predict", "AVG"));
    } else {
        m.insert("core.predict_q1_us", per_agg("predict", "AVG"));
        m.insert("core.predict_q2_us", per_agg("predict", "LINREG"));
    }
    m.insert("trace.residual_share", residual);
    m.insert(
        "trace.overhead_share",
        (traced_call_us - untraced_call_us) / untraced_call_us,
    );

    let share = |secs: f64| 100.0 * secs / execute;
    let mut w = vec![format!(
        "waterfall, us per statement over {traced} traced statements ({} calls, every {stride}th)",
        subset.len()
    )];
    let mut line = |depth: usize, label: &str, secs: f64| {
        w.push(format!(
            "  {:indent$}{label:<28} {:>10.3} us {:>6.1} %",
            "",
            per_stmt(secs) + 0.0,
            share(secs) + 0.0,
            indent = 2 * depth
        ));
    };
    line(0, "execute", execute);
    line(1, "parse", parse_t);
    line(1, "execute_statement", es);
    line(2, "bind (self)", es - rt);
    line(2, "router", rt);
    line(3, "route (self)", rt - predict - exact);
    line(3, "predict", predict);
    line(3, "exact", exact);
    line(4, "aggregate (self)", exact - count);
    line(4, "count", count);
    line(1, "unattributed", execute - parse_t - es);
    w.push(format!(
        "  AVG call {:.3} us, of which predict {:.3} us; LINREG call {:.3} us, of which predict {:.3} us",
        per_agg("execute", "AVG") * per_call as f64,
        per_agg("predict", "AVG") * per_call as f64,
        per_agg("execute", "LINREG") * per_call as f64,
        per_agg("predict", "LINREG") * per_call as f64,
    ));
    (m, w)
}

/// Trace the drift stream on a fresh session: the real `parse` →
/// `execute_statement` split in-stream, unit costs at phase boundaries.
fn trace_stream(
    fx: &Fixture,
    traffic: &Traffic,
    measured: &Composed,
    tracer: &mut Tracer,
) -> (BTreeMap<&'static str, f64>, Vec<String>) {
    let session: Session = fx.fresh_session();
    let router = session.router(TABLE).expect("the table is registered");
    let engine = router.exact_engine();
    let phase_len = traffic.phase_len.expect("the drift stream has phases");
    let n = traffic.statements();

    let mut sums: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut phases = 0usize;
    // Seconds the exact engine, the feedback path and publishes account
    // for, from routed counts × the phase's unit costs.
    let mut write_side_s = 0.0;
    let mut first = 0;
    while first < n {
        let phase_end = (first / phase_len + 1) * phase_len;
        let mut routes: Vec<Option<Route>> = Vec::with_capacity(phase_len);
        while first < phase_end.min(n) {
            let last = (first + CHUNK).min(phase_end).min(n);
            let tag = ("MIX", first, last - first);
            // No parent: the stream's root is the pair of spans.
            let (_, parsed) = tracer.span("parse", None, tag, || {
                traffic.calls[first..last]
                    .iter()
                    .map(|sql| parse(sql).expect("generated SQL parses"))
                    .collect::<Vec<Statement>>()
            });
            let (_, chunk_routes) = tracer.span("execute_statement", None, tag, || {
                parsed
                    .iter()
                    .map(|s| session.execute_statement(s).ok().map(|o| o.route))
                    .collect::<Vec<_>>()
            });
            routes.extend(chunk_routes);
            first = last;
        }
        // Phase boundary: unit costs at the model the stream has reached.
        let base = phase_end - phase_len;
        let routed = |want: Route, agg: Option<Aggregate>| {
            routes
                .iter()
                .enumerate()
                .filter(move |(i, r)| {
                    **r == Some(want) && agg.is_none_or(|a| traffic.aggs[base + i] == a)
                })
                .map(move |(i, _)| base + i)
        };
        let model_qs = sample_queries(traffic, routed(Route::Model, Some(Aggregate::Avg)));
        let exact_qs = sample_queries(traffic, routed(Route::Exact, None));
        let model = router
            .merged_model()
            .expect("the fixture registered a model");
        let costs = unit_costs(fx, engine, &model, &model_qs, &exact_qs);
        for (agg, cost) in [
            (Aggregate::Avg, "exact.q1_us"),
            (Aggregate::LinReg, "exact.q1_reg_fused_us"),
            (Aggregate::Var, "exact.q1_moments_us"),
            (Aggregate::Count, "store.count_us"),
        ] {
            let fed = if agg == Aggregate::Count {
                0.0
            } else {
                costs["serve.feedback_us"]
            };
            write_side_s +=
                routed(Route::Exact, Some(agg)).count() as f64 * (costs[cost] + fed) * 1e-6;
        }
        for (k, v) in costs {
            *sums.entry(k).or_default() += v;
        }
        phases += 1;
    }
    let mut m: BTreeMap<&'static str, f64> = sums
        .into_iter()
        .map(|(k, v)| (k, v / phases as f64))
        .collect();

    let (parse_t, es) = (
        tracer.total("parse", None),
        tracer.total("execute_statement", None),
    );
    let traced = parse_t + es;
    // Like against like: one stream as it ran, against the mean of the
    // measured replicas as they ran (not against the composed run, which
    // has had its disturbed stretches replaced).
    let untraced = measured.raw_wall_s;
    m.insert("sql.parse_us", parse_t * 1e6 / n as f64);
    m.insert("trace.residual_share", (untraced - traced).abs() / untraced);
    m.insert("trace.overhead_share", (traced - untraced) / untraced);

    let w = vec![
        format!("waterfall, us per statement over the {n}-statement stream (traced on a fresh session)"),
        format!("  {:<30} {:>10.3} us", "execute (untraced run)", untraced * 1e6 / n as f64),
        format!("  {:<30} {:>10.3} us", "parse + execute_statement", traced * 1e6 / n as f64),
        format!("    {:<28} {:>10.3} us {:>6.1} %", "parse", parse_t * 1e6 / n as f64, 100.0 * parse_t / traced),
        format!("    {:<28} {:>10.3} us {:>6.1} %", "execute_statement", es * 1e6 / n as f64, 100.0 * es / traced),
        format!(
            "      {:<26} {:>10.3} us {:>6.1} %  (exact-routed counts x unit costs at each phase boundary)",
            "exact + feedback + publish",
            write_side_s * 1e6 / n as f64,
            100.0 * write_side_s / traced
        ),
    ];
    (m, w)
}
