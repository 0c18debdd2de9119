//! Rewrites `REPRODUCTION.md` at the workspace root: every row of
//! `regq_workload::reproduce::TABLE` at every seed.
//!
//! Run: `cargo run --release -p regq_workload --bin reproduce`

use regq_workload::reproduce::{render, Lab, SEEDS, TABLE};
use std::time::Instant;

fn main() {
    let mut runs = vec![Vec::new(); TABLE.len()];
    for seed in SEEDS {
        let t0 = Instant::now();
        let mut lab = Lab::new(seed);
        for (row, series) in TABLE.iter().zip(&mut runs) {
            series.push(lab.series(row));
        }
        eprintln!("seed {seed}: {:.1} s", t0.elapsed().as_secs_f64());
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../REPRODUCTION.md");
    std::fs::write(path, render(&runs)).expect("REPRODUCTION.md is writable");
}
