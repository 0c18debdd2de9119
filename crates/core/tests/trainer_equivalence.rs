//! Algorithm 1 as printed — and the trainer pinned to it bit for bit.
//!
//! [`Reference`] below is the oracle of the training side: one
//! straight-line step, exactly as the paper's Algorithm 1 and Theorem 4
//! read. The winner comes from [`PrototypeArena::winner`] — its
//! definition, one joint distance per row; a vigilance violation spawns
//! a prototype at the query; otherwise the winner's centre, radius,
//! intercept and slopes move against the pre-update residual `q − w_j`,
//! held in a vector; the step's `Γ_J`, `Γ_H` feed the convergence window.
//! Nothing but this file calls it.
//!
//! [`LlmModel`] finds the same winner on a live `BlockLayout` instead —
//! bounds that skip whole blocks, the served block kernel, a
//! lexicographic `(distance, index)` merge, blocks appended to and split
//! as the codebook grows — and recomputes the residual instead of storing
//! it. Neither may be observable: every [`StepOutcome`] (index, spawn
//! flag, both `Γ` bits, convergence) and the final arena (every parameter
//! bit) must equal the oracle's, over
//!
//! * every dimension `d ∈ 1..=9` — each AVX2 arm of the block kernel
//!   (`d ≤ 8` specialised) and the generic one;
//! * vigilances giving `K` from 1 to more than 2,000, so blocks fill and
//!   split many times;
//! * repeated queries, and lattice-aligned queries whose joint distances
//!   to two prototypes tie exactly — across blocks as well as inside one;
//! * convergence windows that close, freezing the model on the oracle's
//!   step — for a Q1 model and for a [`MomentsModel`]'s variance head,
//!   which trains through the same `train_step`;
//! * a `freeze` → `unfreeze` and a `persist` save → load in mid-stream,
//!   after which a layout rebuilt from scratch must continue the same
//!   step sequence;
//! * hostile parts: prototypes with a NaN centre coordinate or an
//!   infinite radius, handed to `from_parts` and spread over several
//!   blocks.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use regq_core::config::SlopeUpdate;
use regq_core::moments::MomentPair;
use regq_core::{
    persist, LlmModel, ModelConfig, MomentsModel, Prototype, PrototypeArena, Query, StepOutcome,
};
use regq_linalg::vector;

/// Algorithm 1, one straight-line step at a time — the oracle.
struct Reference {
    config: ModelConfig,
    arena: PrototypeArena,
    global_step: u64,
    quiet_steps: usize,
    frozen: bool,
}

impl Reference {
    fn new(config: ModelConfig) -> Self {
        Self::from_parts(config, &[], 0, false)
    }

    fn from_parts(config: ModelConfig, protos: &[Prototype], steps: u64, frozen: bool) -> Self {
        Reference {
            arena: PrototypeArena::from_prototypes(config.dim, protos),
            config,
            global_step: steps,
            quiet_steps: 0,
            frozen,
        }
    }

    fn step(&mut self, q: &Query, y: f64) -> StepOutcome {
        let rho = self.config.rho();
        // Initialisation: the first pair is the first prototype.
        if self.arena.is_empty() {
            self.arena.push_query(&q.center, q.radius);
            self.global_step += 1;
            return StepOutcome {
                winner: 0,
                spawned: true,
                gamma_j: rho,
                gamma_h: 0.0,
                converged: false,
            };
        }
        // The winner: argmin over k of the joint distance ‖q − w_k‖.
        let (j, sq) = self.arena.winner(&q.center, q.radius).unwrap();
        self.global_step += 1;
        if self.frozen {
            return StepOutcome {
                winner: j,
                spawned: false,
                gamma_j: 0.0,
                gamma_h: 0.0,
                converged: true,
            };
        }
        let (gamma_j, gamma_h, winner, spawned) = if sq.sqrt() <= rho {
            // Theorem 4, against the pre-update residual q − w_j.
            let updates = self.arena.updates(j);
            let eta = self.config.schedule.rate(updates, self.global_step);
            let eta_c = self.config.schedule.coeff_rate(
                updates,
                self.global_step,
                self.config.coeff_rate_power,
            );
            let dq: Vec<f64> = q
                .center
                .iter()
                .zip(self.arena.center(j))
                .map(|(x, c)| x - c)
                .collect();
            let dtheta = q.radius - self.arena.radius(j);
            let dq_sq = vector::dot(&dq, &dq) + dtheta * dtheta;
            let err = y
                - self.arena.y(j)
                - vector::dot(self.arena.b_x(j), &dq)
                - self.arena.b_theta(j) * dtheta;
            let slope_scale = match self.config.slope_update {
                SlopeUpdate::Normalized { epsilon } => eta_c * err / (epsilon + dq_sq),
                SlopeUpdate::Raw => eta_c * err,
            };
            let p = self.arena.view_mut(j);
            // Δw_j = η (q − w_j).
            vector::axpy(eta, &dq, p.center);
            *p.radius += eta * dtheta;
            // Δb_j = η_c e (q − w_j) (normalised), Δy_j = η_c e.
            let delta_b: Vec<f64> = dq.iter().map(|dqi| slope_scale * dqi).collect();
            for (b, delta) in p.b_x.iter_mut().zip(&delta_b) {
                *b += delta;
            }
            let delta_btheta = slope_scale * dtheta;
            *p.b_theta += delta_btheta;
            let delta_y = eta_c * err;
            *p.y += delta_y;
            *p.updates += 1;
            // Γ_J = ‖Δw_j‖, Γ_H = ‖Δb_j‖ + |Δy_j| — only the winner moved.
            let b_disp_sq = vector::dot(&delta_b, &delta_b) + delta_btheta * delta_btheta;
            (
                eta * dq_sq.sqrt(),
                b_disp_sq.sqrt() + delta_y.abs(),
                j,
                false,
            )
        } else {
            // Vigilance violated: a new prototype at q.
            self.arena.push_query(&q.center, q.radius);
            (rho, 0.0, self.arena.len() - 1, true)
        };
        if gamma_j.max(gamma_h) <= self.config.gamma {
            self.quiet_steps += 1;
            self.frozen |= self.quiet_steps >= self.config.convergence_window;
        } else {
            self.quiet_steps = 0;
        }
        StepOutcome {
            winner,
            spawned,
            gamma_j,
            gamma_h,
            converged: self.frozen,
        }
    }
}

/// Every field, the two `Γ`s by their bits.
fn assert_outcome(got: StepOutcome, want: StepOutcome, ctx: &str) {
    let bits = |o: StepOutcome| {
        (
            o.winner,
            o.spawned,
            o.gamma_j.to_bits(),
            o.gamma_h.to_bits(),
            o.converged,
        )
    };
    assert_eq!(bits(got), bits(want), "{ctx}");
}

/// Every parameter of every prototype, by its bits (NaN payloads too).
fn assert_arena(got: &PrototypeArena, want: &PrototypeArena, ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: K");
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for k in 0..want.len() {
        let (g, w) = (got.view(k), want.view(k));
        assert_eq!(bits(g.center), bits(w.center), "{ctx}: centre {k}");
        assert_eq!(bits(g.b_x), bits(w.b_x), "{ctx}: slope {k}");
        assert_eq!(
            bits(&[g.radius, g.y, g.b_theta]),
            bits(&[w.radius, w.y, w.b_theta]),
            "{ctx}: prototype {k}"
        );
        assert_eq!(g.updates, w.updates, "{ctx}: updates {k}");
    }
}

/// `n` training pairs over the unit cube of dimension `d`: uniform balls;
/// every 5th a lattice-aligned one (centre on a 1/8 grid, radius 1/8) —
/// prototypes spawned there sit at exactly tied joint distances from the
/// lattice queries between them; every 7th a repeat of an earlier pair.
fn stream(d: usize, n: usize, seed: u64) -> Vec<(Query, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pairs: Vec<(Query, f64)> = Vec::with_capacity(n);
    for i in 0..n {
        if i % 7 == 6 {
            let again = pairs[rng.random_range(0..pairs.len())].clone();
            pairs.push(again);
            continue;
        }
        let (center, radius) = if i % 5 == 4 {
            let c = (0..d).map(|_| rng.random_range(0..=8u32) as f64 / 8.0);
            (c.collect::<Vec<f64>>(), 0.125)
        } else {
            let c = (0..d).map(|_| rng.random_range(0.0..1.0));
            (c.collect(), rng.random_range(0.05..0.15))
        };
        let y = center.iter().map(|c| (3.0 * c).sin()).sum::<f64>() + radius;
        pairs.push((Query::new_unchecked(center, radius), y));
    }
    pairs
}

/// Train `model` and `reference` on the same pairs, asserting every
/// outcome equal.
fn run(model: &mut LlmModel, reference: &mut Reference, pairs: &[(Query, f64)], ctx: &str) {
    for (i, (q, y)) in pairs.iter().enumerate() {
        let got = model.train_step(q, *y).unwrap();
        assert_outcome(got, reference.step(q, *y), &format!("{ctx} step {i}"));
    }
    assert_arena(model.arena(), &reference.arena, ctx);
    assert_eq!(model.steps(), reference.global_step, "{ctx}: steps");
    assert_eq!(model.is_frozen(), reference.frozen, "{ctx}: frozen");
}

#[test]
fn every_dimension_and_codebook_size_trains_like_the_oracle() {
    // `a = 1` keeps one prototype (ρ covers the cube); the smaller
    // vigilances fill and split blocks at every d. γ is tiny so the
    // convergence window never closes and every pair is a training step.
    for d in 1..=9usize {
        for (a, n) in [(1.0, 300usize), (0.12, 1_500), (0.03, 2_500)] {
            let mut cfg = ModelConfig::with_vigilance(d, a);
            cfg.gamma = 1e-300;
            let mut model = LlmModel::new(cfg.clone()).unwrap();
            let mut reference = Reference::new(cfg);
            let pairs = stream(d, n, (100 * d) as u64 + n as u64);
            run(&mut model, &mut reference, &pairs, &format!("d={d} a={a}"));
            if a == 1.0 {
                assert_eq!(model.k(), 1, "d={d}");
            }
        }
    }
    // K past 2,000: dozens of blocks, each filled and split many times.
    let mut cfg = ModelConfig::with_vigilance(2, 0.008);
    cfg.gamma = 1e-300;
    let (mut model, mut reference) = (LlmModel::new(cfg.clone()).unwrap(), Reference::new(cfg));
    run(
        &mut model,
        &mut reference,
        &stream(2, 7_000, 5),
        "d=2 large K",
    );
    assert!(model.k() >= 2_000, "K = {}", model.k());
}

#[test]
fn convergence_freezes_on_the_same_step() {
    // Paper defaults: the window closes, the model freezes (dropping its
    // layout) and later pairs are answered frozen — on the same step as
    // the oracle.
    for d in [1usize, 3] {
        let cfg = ModelConfig::paper_defaults(d);
        let mut model = LlmModel::new(cfg.clone()).unwrap();
        let mut reference = Reference::new(cfg);
        run(
            &mut model,
            &mut reference,
            &stream(d, 30_000, 9),
            "defaults",
        );
        assert!(model.is_frozen(), "d={d}: the stream must converge");
    }
}

/// A 1-D lattice stream, all balls of radius `0.1`: `points` shuffled
/// spawns at `i·h`; then every midpoint `(i + ½)·h` in shuffled order —
/// exactly `h/2` from both neighbours, a tie of joint distances bit for
/// bit, which the vigilance `0.75·h` makes an update of the lower-index
/// neighbour (arena indices are unrelated to position, so the lower index
/// sits in either block when the neighbours straddle a block boundary,
/// and in either slot order inside one); then `(i + 0.4)·h` and
/// `(i + 0.6)·h` for every `i`, shuffled — just past a row the midpoints
/// pulled a quarter step out of its block's rows' former span, where a
/// box that did not follow the row would be bounded beyond the row's
/// true distance and skipped.
fn lattice_stream(points: usize, seed: u64) -> Vec<(Query, f64)> {
    let h = 1.0 / (points - 1) as f64;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut shuffled = |n: usize| {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, rng.random_range(0..=i));
        }
        v
    };
    let (lattice, mids, past) = (
        shuffled(points),
        shuffled(points - 1),
        shuffled(2 * points - 2),
    );
    let ball = |x: f64| (Query::new_unchecked(vec![x], 0.1), x * x);
    let mut pairs: Vec<(Query, f64)> = lattice.iter().map(|&i| ball(i as f64 * h)).collect();
    pairs.extend(mids.iter().map(|&i| ball((i as f64 + 0.5) * h)));
    let offset = |j: usize| [0.4, 0.6][j % 2];
    pairs.extend(past.iter().map(|&j| ball(((j / 2) as f64 + offset(j)) * h)));
    pairs
}

#[test]
fn exact_ties_and_rows_moved_across_a_block_boundary() {
    for (points, seed) in [(513usize, 1u64), (1025, 2), (257, 3)] {
        let h = 1.0 / (points - 1) as f64;
        let mut cfg = ModelConfig::with_vigilance(1, 0.25);
        cfg.vigilance_override = Some(0.75 * h);
        cfg.gamma = 1e-300;
        let mut model = LlmModel::new(cfg.clone()).unwrap();
        let mut reference = Reference::new(cfg);
        let pairs = lattice_stream(points, seed);
        run(
            &mut model,
            &mut reference,
            &pairs,
            &format!("lattice {points}"),
        );
        assert!(model.k() >= points, "every lattice point spawned");
    }
}

#[test]
fn the_moments_head_trains_and_converges_like_the_oracle() {
    // Default γ: the variance head's window closes (at d = 1 within the
    // stream), and it must freeze on the oracle's step.
    for d in [1usize, 4, 9] {
        let cfg = ModelConfig::with_vigilance(d, 0.05);
        let mut moments = MomentsModel::new(cfg.clone()).unwrap();
        let mut reference = Reference::new(cfg);
        for (i, (q, y)) in stream(d, 2_000, 40 + d as u64).iter().enumerate() {
            let pair = MomentPair {
                mean: *y,
                variance: 0.1 + y * y,
            };
            let want = reference.step(q, pair.variance).converged;
            assert_eq!(moments.train_step(q, pair).unwrap(), want, "d={d} step {i}");
        }
        let head = moments.head();
        assert_arena(head.arena(), &reference.arena, &format!("head d={d}"));
        assert_eq!(head.steps(), reference.global_step, "d={d}: steps");
        assert_eq!(head.is_frozen(), reference.frozen, "d={d}: frozen");
        assert!(d > 1 || head.is_frozen(), "the window closes at d = 1");
    }
}

#[test]
fn a_rebuilt_layout_continues_the_same_step_sequence() {
    let dir = std::env::temp_dir();
    for d in [2usize, 5] {
        let mut cfg = ModelConfig::with_vigilance(d, 0.04);
        cfg.gamma = 1e-300;
        let pairs = stream(d, 4_500, 70 + d as u64);
        let (first, rest) = pairs.split_at(1_500);
        let (second, third) = rest.split_at(1_500);
        let mut model = LlmModel::new(cfg.clone()).unwrap();
        let mut reference = Reference::new(cfg);
        run(&mut model, &mut reference, first, "before freeze");

        // Frozen: no layout; steps are answered from the definition and
        // change nothing. Unfrozen: the layout is rebuilt from the arena.
        model.freeze();
        reference.frozen = true;
        run(&mut model, &mut reference, &first[..50], "frozen");
        model.unfreeze();
        (reference.frozen, reference.quiet_steps) = (false, 0);
        run(&mut model, &mut reference, second, "after unfreeze");

        // Saved and loaded: `from_parts` rebuilds the layout (and the
        // convergence window restarts — it is not persisted).
        let path = dir.join(format!(
            "regq-trainer-equivalence-{}-{d}.model",
            std::process::id()
        ));
        persist::save_model(&model, &path).unwrap();
        let mut model = persist::load_model(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        reference.quiet_steps = 0;
        assert_arena(model.arena(), &reference.arena, "loaded");
        run(&mut model, &mut reference, third, "after load");
    }
}

#[test]
fn hostile_parts_train_like_the_scan() {
    // A NaN centre coordinate, an infinite centre coordinate, an infinite
    // radius — every 23rd of 400 prototypes, so they sit in several
    // blocks. Such a row is never the winner (its joint distance is NaN
    // or ∞ and never below a finite best), its block is verified for
    // every query, and training around it is the oracle's, bit for bit.
    let d = 2;
    let mut rng = StdRng::seed_from_u64(17);
    let protos: Vec<Prototype> = (0..400)
        .map(|k| {
            let mut center: Vec<f64> = (0..d).map(|_| rng.random_range(0.0..1.0)).collect();
            let mut radius = rng.random_range(0.05..0.15);
            match (k % 23, k / 23 % 3) {
                (0, 0) => center[1] = f64::NAN,
                (0, 1) => center[0] = f64::INFINITY,
                (0, _) => radius = f64::INFINITY,
                _ => {}
            }
            Prototype {
                center,
                radius,
                y: 0.5,
                b_x: vec![0.0; d],
                b_theta: 0.0,
                updates: 3,
            }
        })
        .collect();
    let mut cfg = ModelConfig::with_vigilance(d, 0.01);
    cfg.gamma = 1e-300;
    let mut model = LlmModel::from_parts(cfg.clone(), protos.clone(), 400, 0, false).unwrap();
    let mut reference = Reference::from_parts(cfg, &protos, 400, false);
    run(&mut model, &mut reference, &stream(d, 3_000, 19), "hostile");
    assert!(
        model.k() > 1_000,
        "K = {}: the poisoned blocks split",
        model.k()
    );
}
