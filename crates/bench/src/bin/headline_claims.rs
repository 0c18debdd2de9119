//! "Table H" — the headline scalar claims of the paper's §VI text,
//! measured on this reproduction:
//!
//! * `|T| ≈ 5300` pairs to convergence at γ = 0.01;
//! * `K = (92, 450)` prototypes for d = (2, 5) at a = 0.25 (R2);
//! * average returned list size `|S| = 4.62` with variance 3.88 (R1);
//! * Q1 prediction ≈ 0.18 ms/query, Q2 ≈ 0.56 ms/query, flat in n;
//! * 99.62 % of training wall-clock spent executing queries;
//! * 10⁵–10⁶× speedup over exact execution (at the paper's 10¹⁰ rows; the
//!   separation measured here is at in-memory sizes).
//!
//! Run: `cargo run --release -p regq-bench --bin headline_claims`

use regq_bench as bench;
use regq_bench::Family;
use regq_data::rng::seeded;
use regq_linalg::OnlineStats;
use regq_workload::eval::{
    evaluate_q1, time_q1_exact, time_q1_llm, time_q2_llm, time_q2_reg_exact,
};

fn main() {
    println!("claim\tpaper\tmeasured\tcontext");

    for (family, d) in [
        (Family::R1, 2usize),
        (Family::R1, 5),
        (Family::R2, 2),
        (Family::R2, 5),
    ] {
        let t = bench::train(
            family,
            d,
            bench::default_rows(),
            0.25,
            0.01,
            bench::default_train_budget(),
            13,
        );
        let paper_t = "~5300";
        println!(
            "|T| to converge\t{}\t{} (converged={})\t{family} d={d}",
            paper_t, t.report.consumed, t.report.converged
        );
        let paper_k = match (family, d) {
            (Family::R2, 2) => "92",
            (Family::R2, 5) => "450",
            _ => "-",
        };
        println!("K at a=0.25\t{}\t{}\t{family} d={d}", paper_k, t.model.k());
        println!(
            "training time in queries\t99.62%\t{:.2}%\t{family} d={d}",
            t.report.query_time_fraction() * 100.0
        );

        let mut rng = seeded(130 + d as u64);
        let queries = t.gen.generate_many(200, &mut rng);
        let q1_llm = time_q1_llm(&t.model, &queries);
        let q2_llm = time_q2_llm(&t.model, &queries);
        println!(
            "Q1 prediction latency\t~0.18 ms\t{:.4} ms\t{family} d={d}",
            q1_llm.mean_ms()
        );
        println!(
            "Q2 prediction latency\t~0.56 ms\t{:.4} ms\t{family} d={d}",
            q2_llm.mean_ms()
        );
        let q1_exact = time_q1_exact(&t.engine, &queries);
        let q2_exact = time_q2_reg_exact(&t.engine, &queries);
        println!(
            "Q1 speedup vs exact\t1e5-1e6x @1e10 rows\t{:.0}x @{} rows (kd-tree)\t{family} d={d}",
            q1_exact.mean_ms() / q1_llm.mean_ms().max(1e-12),
            t.engine.relation().len()
        );
        println!(
            "Q2 speedup vs exact REG\t1e6x @1e10 rows\t{:.0}x @{} rows (kd-tree)\t{family} d={d}",
            q2_exact.mean_ms() / q2_llm.mean_ms().max(1e-12),
            t.engine.relation().len()
        );

        // |S| statistics (paper reports them for R1). |S| scales with K,
        // so it is also measured at a finer vigilance (a = 0.1) whose K is
        // closer to the paper's codebook sizes.
        if family == Family::R1 {
            let mut s_stats = OnlineStats::new();
            for q in t.gen.generate_many(1_000, &mut rng) {
                let s = t.model.predict_q2(&q).expect("trained");
                s_stats.push(s.len() as f64);
            }
            println!(
                "avg |S| per Q2 (a=0.25, K={})\t4.62 (var 3.88)\t{:.2} (var {:.2})\t{family} d={d}",
                t.model.k(),
                s_stats.mean(),
                s_stats.variance()
            );
            let fine = bench::train(
                family,
                d,
                bench::default_rows(),
                0.1,
                2e-3,
                bench::default_train_budget(),
                13,
            );
            let mut fine_stats = OnlineStats::new();
            for q in fine.gen.generate_many(1_000, &mut rng) {
                let s = fine.model.predict_q2(&q).expect("trained");
                fine_stats.push(s.len() as f64);
            }
            println!(
                "avg |S| per Q2 (a=0.10, K={})\t4.62 (var 3.88)\t{:.2} (var {:.2})\t{family} d={d}",
                fine.model.k(),
                fine_stats.mean(),
                fine_stats.variance()
            );
            let eval = evaluate_q1(&t.model, &t.engine, &t.gen, 2_000, &mut rng);
            println!(
                "Q1 RMSE at defaults\t0.02-0.06\t{:.4}\t{family} d={d}",
                eval.rmse
            );
        }
        println!();
    }
}
