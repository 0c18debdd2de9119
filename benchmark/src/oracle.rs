//! Output check against an independent linear-scan engine.
//!
//! Exact-routed answers must equal the oracle's to 1e-9 relative; a NULL
//! is accepted only where the oracle counts zero rows; model-routed
//! answers are scored (`q1_nrmse`, `q2_fvu`), not compared.

use crate::fixture::{Fixture, Traffic};
use regq_core::LocalModel;
use regq_linalg::vector::sq_dist;
use regq_serve::Route;
use regq_sql::{Aggregate, QueryOutput, QueryValue, Session};

/// Relative tolerance for exact-routed answers: the kd-tree and the scan
/// sum the same rows in different orders.
const TOLERANCE: f64 = 1e-9;

#[derive(Debug, Default)]
pub struct Verdict {
    /// Sample answers compared or scored.
    pub checked: usize,
    /// Exact-routed answers that disagree with the oracle, plus NULLs the
    /// oracle does not confirm.
    pub wrong: usize,
    /// NULL answers the oracle confirms (count 0).
    pub nulls_confirmed: usize,
    pub q1_nrmse: f64,
    pub q2_fvu: f64,
    /// Model-served AVG / LINREG answers behind the two scores.
    pub q1_scored: usize,
    pub q2_scored: usize,
    /// The first few disagreements, for the report.
    pub notes: Vec<String>,
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= TOLERANCE * a.abs().max(b.abs()).max(1.0)
}

/// Rows of a ball that `list_fvu` scores: a wide ball is thinned to about
/// this many (every n-th row), which estimates the same ratio at a bounded
/// cost per answer.
const FVU_ROWS: usize = 512;

/// Fraction of variance unexplained by the list `s` over the ball's rows,
/// each row predicted by the list member whose centre is nearest (the
/// paper's region attribution). `None` when the rows' variance is nil.
fn list_fvu(fx: &Fixture, center: &[f64], radius: f64, s: &[LocalModel]) -> Option<f64> {
    let ids = fx.oracle.relation().select(center, radius);
    if ids.len() < 2 || s.is_empty() {
        return None;
    }
    let ids: Vec<usize> = ids
        .iter()
        .copied()
        .step_by(ids.len().div_ceil(FVU_ROWS))
        .collect();
    let mean = ids.iter().map(|&i| fx.data.y(i)).sum::<f64>() / ids.len() as f64;
    let (mut ssr, mut tss) = (0.0, 0.0);
    for &i in &ids {
        let (x, u) = (fx.data.x(i), fx.data.y(i));
        let (mut nearest, mut best) = (&s[0], f64::INFINITY);
        for m in s {
            let d = sq_dist(x, &m.center);
            if d < best {
                (nearest, best) = (m, d);
            }
        }
        ssr += (u - nearest.predict(x)).powi(2);
        tss += (u - mean).powi(2);
    }
    (tss > 1e-9 * ids.len() as f64).then(|| ssr / tss)
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Scalar calls between sampled ones are `calls / this`; `LINREG` calls
/// are sampled four times as densely, because `q2_fvu` is a median over a
/// heavy-tailed ratio and needs the larger sample to repeat across seeds.
const SAMPLE_STATEMENTS: usize = 2_048;

/// Verify the workload in an untimed pass of its own, checking each
/// sampled answer as it arrives (nothing is kept, so the measured loop
/// carries no sample and the process no pile of answers).
///
/// The frozen workloads answer a statement the same whatever came before,
/// so only the sampled calls are executed, on the measured session. The
/// drift stream is stateful: pass a fresh session, and every call is
/// executed so that the sampled ones see the state the measured replicas
/// saw. `nulls` are the NULL answers of a measured replica; all are checked.
pub fn verify(fx: &Fixture, session: &Session, traffic: &Traffic, nulls: &[usize]) -> Verdict {
    let mut v = Verdict::default();
    let rel = fx.oracle.relation();
    for &i in nulls {
        if rel.count(traffic.center(i), traffic.radii[i]) == 0 {
            v.nulls_confirmed += 1;
        } else {
            v.note(i, "NULL answer but the oracle finds rows".into());
        }
    }
    let target_std = {
        let ys = fx.data.ys();
        let mean = ys.iter().sum::<f64>() / ys.len() as f64;
        (ys.iter().map(|y| (y - mean).powi(2)).sum::<f64>() / ys.len() as f64).sqrt()
    };
    let per_call = traffic.per_call;
    let every = (traffic.calls.len() * per_call / SAMPLE_STATEMENTS).max(1);
    let stateful = traffic.phase_len.is_some();
    let (mut sq_err, mut fvus) = (0.0, Vec::new());
    for c in 0..traffic.calls.len() {
        let every = match traffic.aggs[c * per_call] {
            Aggregate::LinReg => (every / 4).max(1),
            _ => every,
        };
        let sampled = c % every == 0;
        if !sampled && !stateful {
            continue;
        }
        // Errors and NULLs are the measured replicas' to count; replicas
        // that disagree with each other fail the run by themselves.
        let Ok(outs) = traffic.send(session, c) else {
            continue;
        };
        if sampled {
            for (k, out) in outs.iter().enumerate() {
                v.check(fx, traffic, c * per_call + k, out, &mut sq_err, &mut fvus);
            }
        }
    }
    v.q1_nrmse = if v.q1_scored == 0 {
        0.0
    } else {
        (sq_err / v.q1_scored as f64).sqrt() / target_std
    };
    v.q2_scored = fvus.len();
    v.q2_fvu = median(fvus);
    v
}

impl Verdict {
    fn note(&mut self, i: usize, what: String) {
        self.wrong += 1;
        if self.notes.len() < 5 {
            self.notes.push(format!("statement {i}: {what}"));
        }
    }

    /// Compare one exact-routed answer with the oracle's, or score one
    /// model-routed answer.
    fn check(
        &mut self,
        fx: &Fixture,
        traffic: &Traffic,
        i: usize,
        out: &QueryOutput,
        sq_err: &mut f64,
        fvus: &mut Vec<f64>,
    ) {
        let rel = fx.oracle.relation();
        let (c, r) = (traffic.center(i), traffic.radii[i]);
        self.checked += 1;
        let served_by_model = out.route != Route::Exact;
        match (traffic.aggs[i], &out.value) {
            (Aggregate::Count, QueryValue::Count(n)) => {
                let truth = rel.count(c, r);
                if *n != truth {
                    self.note(i, format!("COUNT {n}, oracle {truth}"));
                }
            }
            (Aggregate::Avg, QueryValue::Scalar(y)) => {
                // Where the ball is empty the model extrapolates and there
                // is no truth to score against.
                let Some(truth) = fx.oracle.q1(c, r) else {
                    if !served_by_model {
                        self.note(i, "exact AVG over an empty ball".into());
                    }
                    return;
                };
                if served_by_model {
                    *sq_err += (y - truth).powi(2);
                    self.q1_scored += 1;
                } else if !close(*y, truth) {
                    self.note(i, format!("AVG {y}, oracle {truth}"));
                }
            }
            (Aggregate::Var, QueryValue::Scalar(y)) => {
                if served_by_model {
                    if !y.is_finite() {
                        self.note(i, format!("model VAR {y}"));
                    }
                    return;
                }
                match fx.oracle.q1_moments(c, r) {
                    Some(m) if close(*y, m.variance) => {}
                    Some(m) => self.note(i, format!("VAR {y}, oracle {}", m.variance)),
                    None => self.note(i, "exact VAR over an empty ball".into()),
                }
            }
            (Aggregate::LinReg, QueryValue::Regression(list)) => {
                if served_by_model {
                    fvus.extend(list_fvu(fx, c, r, list));
                    return;
                }
                match (fx.oracle.q1_reg_fused(c, r), list.as_slice()) {
                    (Ok(fit), [m]) => {
                        let same = close(m.intercept, fit.model.intercept)
                            && m.slope.len() == fit.model.slope.len()
                            && m.slope
                                .iter()
                                .zip(&fit.model.slope)
                                .all(|(a, b)| close(*a, *b));
                        if !same {
                            self.note(i, "LINREG differs from the oracle's fit".into());
                        }
                    }
                    (Ok(_), _) => self.note(i, "exact LINREG is not a single model".into()),
                    (Err(e), _) => self.note(i, format!("oracle LINREG failed: {e}")),
                }
            }
            (agg, value) => self.note(i, format!("{agg} answered with {value:?}")),
        }
    }
}
