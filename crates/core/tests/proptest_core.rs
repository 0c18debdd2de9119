//! Property-based tests for the model invariants.

use proptest::prelude::*;
use regq_core::{overlap_degree, LlmModel, ModelConfig, Query};

fn query_strategy(d: usize) -> impl Strategy<Value = Query> {
    (prop::collection::vec(-1.0..2.0f64, d), 0.01..0.8f64)
        .prop_map(|(c, r)| Query::new_unchecked(c, r))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// δ is symmetric and confined to [0, 1]; δ(q, q) = 1.
    #[test]
    fn overlap_degree_axioms(a in query_strategy(3), b in query_strategy(3)) {
        let dab = overlap_degree(&a, &b);
        let dba = overlap_degree(&b, &a);
        prop_assert!((dab - dba).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&dab));
        prop_assert!((overlap_degree(&a, &a) - 1.0).abs() < 1e-12);
    }

    /// Joint query distance satisfies the triangle inequality (it is the
    /// Euclidean metric on R^{d+1}).
    #[test]
    fn query_distance_triangle(a in query_strategy(2),
                               b in query_strategy(2),
                               c in query_strategy(2)) {
        prop_assert!(a.dist(&c) <= a.dist(&b) + b.dist(&c) + 1e-9);
    }

    /// Training on arbitrary finite pairs keeps every model parameter
    /// finite, and predictions stay finite for arbitrary probe queries.
    #[test]
    fn training_preserves_finiteness(
        pairs in prop::collection::vec((query_strategy(2), -100.0..100.0f64), 1..200),
        probe in query_strategy(2),
    ) {
        let mut m = LlmModel::new(ModelConfig::paper_defaults(2)).unwrap();
        for (q, y) in &pairs {
            m.train_step(q, *y).unwrap();
        }
        for p in m.prototypes() {
            prop_assert!(p.center.iter().all(|v| v.is_finite()));
            prop_assert!(p.radius.is_finite() && p.y.is_finite());
            prop_assert!(p.b_x.iter().all(|v| v.is_finite()));
            prop_assert!(p.b_theta.is_finite());
        }
        prop_assert!(m.predict_q1(&probe).unwrap().is_finite());
        for lm in m.predict_q2(&probe).unwrap() {
            prop_assert!(lm.intercept.is_finite());
            prop_assert!(lm.slope.iter().all(|v| v.is_finite()));
        }
    }

    /// When every query lands within ρ of the first one, the codebook never
    /// grows past K = 1 (vigilance is the only growth trigger).
    #[test]
    fn vigilance_bounds_growth(offsets in prop::collection::vec((-0.1..0.1f64, -0.1..0.1f64), 1..50)) {
        let cfg = ModelConfig::paper_defaults(2); // ρ ≈ 0.60
        let rho = cfg.rho();
        let mut m = LlmModel::new(cfg).unwrap();
        let base = Query::new_unchecked(vec![0.5, 0.5], 0.1);
        m.train_step(&base, 1.0).unwrap();
        for (dx, dy) in offsets {
            // Offsets are ≤ √(0.02) ≈ 0.14 « ρ even after prototype drift
            // (the prototype stays inside the convex hull of its queries).
            let q = Query::new_unchecked(vec![0.5 + dx, 0.5 + dy], 0.1);
            prop_assert!(q.sq_dist_parts(&[0.5, 0.5], 0.1).sqrt() < rho);
            m.train_step(&q, 1.0).unwrap();
        }
        prop_assert_eq!(m.k(), 1);
    }

    /// Q1 prediction is a convex combination of the overlapping LLM
    /// evaluations: it lies inside their [min, max] envelope.
    #[test]
    fn q1_is_convex_combination(
        pairs in prop::collection::vec((query_strategy(2), -10.0..10.0f64), 20..100),
        probe in query_strategy(2),
    ) {
        let mut m = LlmModel::new(ModelConfig::paper_defaults(2)).unwrap();
        for (q, y) in &pairs {
            m.train_step(q, *y).unwrap();
        }
        let mut w = Vec::new();
        m.overlap_set_into(&probe, &mut w);
        if w.is_empty() {
            return Ok(());
        }
        let evals: Vec<f64> = w
            .iter()
            .map(|&(k, _)| m.arena().eval(k, &probe.center, probe.radius))
            .collect();
        let lo = evals.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = evals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let pred = m.predict_q1(&probe).unwrap();
        prop_assert!(pred >= lo - 1e-9 && pred <= hi + 1e-9,
                     "pred {pred} outside envelope [{lo}, {hi}]");
    }

    /// Persistence round-trips arbitrary trained models exactly.
    #[test]
    fn persist_round_trip(
        pairs in prop::collection::vec((query_strategy(2), -5.0..5.0f64), 1..60),
        seed in 0u64..1000,
    ) {
        let mut m = LlmModel::new(ModelConfig::paper_defaults(2)).unwrap();
        for (q, y) in &pairs {
            m.train_step(q, *y).unwrap();
        }
        let path = std::env::temp_dir().join(format!(
            "regq-proptest-{}-{seed}.model",
            std::process::id()
        ));
        regq_core::persist::save_model(&m, &path).unwrap();
        let loaded = regq_core::persist::load_model(&path).unwrap();
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(m.prototypes(), loaded.prototypes());
        prop_assert_eq!(m.config(), loaded.config());
    }
}
