//! The paper's claims, asserted on the rows `REPRODUCTION.md` reports.
//!
//! Each test runs its figure's rows of `regq_workload::reproduce::TABLE`
//! through the same experiment functions and claim predicates the
//! `reproduce` driver uses, at the primary seed, and asserts each claim
//! holds — or, for a row marked as a miss, that it still fails, so a row
//! that changes either way is a failing test until the table and the file
//! are regenerated.

use regq::workload::reproduce::{Lab, PRIMARY_SEED, TABLE};

fn assert_claims(figure: &str) {
    let mut lab = Lab::new(PRIMARY_SEED);
    let rows: Vec<_> = TABLE.iter().filter(|r| r.figure == figure).collect();
    assert!(!rows.is_empty(), "no rows for {figure}");
    for row in rows {
        let check = row.claim.check(&lab.series(row));
        assert_eq!(
            check.holds, !row.miss,
            "{figure}, {:?} d = {}: {} — {}",
            row.family, row.d, row.claim, check.detail
        );
    }
}

/// Fig. 10 (right): K never rises as the vigilance coefficient a grows.
#[test]
fn fig10_k_decreases_with_vigilance_coefficient() {
    assert_claims("Fig. 10 (right)");
}

/// Fig. 7: Q1 RMSE grows as a → 1 (coarser quantization).
#[test]
fn fig7_rmse_grows_with_vigilance_coefficient() {
    assert_claims("Fig. 7");
}

/// Fig. 8: Q1 RMSE is stable in the test-set size |V|.
#[test]
fn fig8_rmse_stable_in_test_size() {
    assert_claims("Fig. 8");
}

/// Fig. 9: median FVU PLR < LLM < global REG while K > 1.
#[test]
fn fig9_fvu_ordering_and_limit() {
    assert_claims("Fig. 9");
}

/// Fig. 11: LLM (no data access) and PLR beat the global REG on data values.
#[test]
fn fig11_data_value_ordering() {
    assert_claims("Fig. 11");
}

/// Fig. 12: exact execution grows with the table, the model's does not.
#[test]
fn fig12_scalability_shape() {
    assert_claims("Fig. 12");
}

/// Fig. 13: a larger mean radius µ_θ gives a lower Q1 RMSE and fewer
/// training pairs to converge.
#[test]
fn fig13_radius_tradeoff_direction() {
    assert_claims("Figs. 13–14");
}

/// §VI-C: training wall-clock is dominated by exact query execution.
#[test]
fn training_cost_breakdown_matches_paper_shape() {
    assert_claims("Table H (costs)");
}
