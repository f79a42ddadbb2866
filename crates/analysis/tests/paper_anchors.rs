//! Paper-anchor tests: closed-form quantities the paper states outright,
//! checked against the analysis layer.

use bitsync_analysis::kde::Kde;
use bitsync_analysis::propagation::{effective_outdegree, rounds_to_cover};
use bitsync_analysis::stats::Summary;

#[test]
fn section_4b_round_arithmetic() {
    // "a block could be received by all reachable nodes in five rounds
    //  (8^5 > 10K)" and "up to 14 rounds (2^14 > 10K)".
    assert_eq!(rounds_to_cover(10_000, 8.0), 5);
    assert_eq!(rounds_to_cover(10_000, 2.0), 14);
    assert!(8f64.powi(5) > 10_000.0);
    assert!(8f64.powi(4) < 10_000.0);
    assert!(2f64.powi(14) > 10_000.0);
    assert!(2f64.powi(13) < 10_000.0);
}

#[test]
fn figure6_average_is_consistent_with_renewal_model() {
    // The paper's measured average outdegree (6.67 of 8) should be
    // attainable by the renewal model at its measured 11.2% success rate
    // for plausible drop intervals.
    let mut hit = false;
    for drop_secs in [120.0, 180.0, 240.0, 300.0, 600.0] {
        let d = effective_outdegree(8.0, 0.112, 5.0, 0.5, drop_secs);
        if (d - 6.67).abs() < 0.7 {
            hit = true;
        }
    }
    assert!(hit, "no plausible drop interval reproduces 6.67");
}

#[test]
fn figure1_summary_arithmetic() {
    // Sanity on the 2019/2020 split the paper reports: mean of a mixture
    // moves by the weight of the moved mass.
    // 1050 = 50 × 21 keeps the residue classes balanced.
    let y2019: Vec<f64> = (0..1050)
        .map(|i| 0.7202 + ((i % 21) as f64 - 10.0) * 0.004)
        .collect();
    let s = Summary::of(&y2019).unwrap();
    assert!((s.mean - 0.7202).abs() < 1e-6);
    let kde = Kde::fit(&y2019).unwrap();
    let mode = kde.mode(0.0, 1.0, 2000);
    assert!((mode - 0.7202).abs() < 0.03, "mode {mode}");
}

#[test]
fn addr_mix_fractions_sum() {
    // 14.9% + 85.1% — the §IV-B split — must be a complete partition.
    assert!((0.149f64 + 0.851 - 1.0).abs() < 1e-12);
}
