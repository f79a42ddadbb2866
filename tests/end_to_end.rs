//! End-to-end tests: every paper experiment runs at quick scale and its
//! headline result points the same direction as the paper's.

use bitsync_core::experiments::{
    ablation, census, relay, resync, rounds, stability, success_rate, sweep, sync_kde,
};
use bitsync_core::sim::Instruments;

#[test]
fn paper_pipeline_end_to_end() {
    let ins = Instruments::default();
    // §IV-B closed form.
    let r = rounds::run(1, 15, &ins);
    assert_eq!(r.rounds_at_8, 5);
    assert_eq!(r.rounds_at_2, 14);

    // Figure 7: most connection attempts fail.
    let sr = success_rate::run(&success_rate::SuccessRateConfig::quick(1), &ins);
    assert!(sr.mean_rate() < 0.5, "success rate {}", sr.mean_rate());

    // Figure 6: outgoing connections are unstable.
    let st = stability::run(&stability::StabilityConfig::quick(1), &ins);
    assert!(st.below_eight_fraction > 0.0);
    assert!(st.summary.mean < 9.0);
}

#[test]
fn census_pipeline_end_to_end() {
    let ins = Instruments::default();
    let c = census::run(&census::CensusExperimentConfig::quick(2), &ins);
    // §IV-A: the unreachable network dwarfs the reachable one.
    assert!(c.unreachable_ratio() > 3.0);
    // §IV-B: ADDR gossip is dominated by unreachable addresses.
    assert!(c.campaign.reachable_addr_fraction() < 0.35);
    // Figure 8: every ground-truth flooder is detected, nothing else.
    let truth: std::collections::HashSet<_> = c
        .network
        .reachable
        .iter()
        .filter(|n| n.malicious)
        .map(|n| n.addr)
        .collect();
    let detected: std::collections::HashSet<_> = c.malicious.iter().map(|(a, _)| *a).collect();
    assert_eq!(truth, detected);
    // Figure 12/13: churn exists and lifetimes are finite.
    assert!(c.matrix.daily_departure_fraction() > 0.0);
    assert!(c.matrix.mean_lifetime_days() > 0.0);
}

#[test]
#[ignore = "slowest quick-scale run; exercised by the release CI job"]
fn relay_experiment_end_to_end() {
    let ins = Instruments::default();
    let r = relay::run(&relay::RelayConfig::quick(3), &ins);
    let blocks = r.block_summary().expect("blocks");
    let txs = r.tx_summary().expect("txs");
    // Figures 10/11 shape: delays are bounded, blocks at least as slow as
    // transactions on average, with a tail above the mean.
    assert!(blocks.mean >= txs.mean);
    assert!(blocks.max >= blocks.mean);
    assert!(blocks.max < 120.0, "block tail {}", blocks.max);
}

#[test]
fn churn_comparison_end_to_end() {
    let ins = Instruments::default();
    let cmp = sync_kde::run(&sync_kde::SyncScenarioConfig::quick(4), &ins);
    // Figure 1 direction: doubled churn does not improve synchronization.
    assert!(cmp.y2020.summary.mean <= cmp.y2019.summary.mean + 0.03);
    // §IV-D direction: more departures under the 2020 regime.
    assert!(cmp.y2020.total_departures >= cmp.y2019.total_departures);
}

#[test]
fn resync_experiment_end_to_end() {
    let ins = Instruments::default();
    let r = resync::run(&resync::ResyncConfig::quick(5), &ins);
    assert!(r.relay_ready_secs.is_some(), "node never recovered");
}

#[test]
#[ignore = "slowest quick-scale run; exercised by the release CI job"]
fn ablation_end_to_end() {
    let ins = Instruments::default();
    let cells = ablation::cells(&ablation::AblationConfig::quick(6));
    let arm = |which| {
        let (arm, cell) = cells.iter().find(|(a, _)| *a == which).expect("arm");
        ablation::assemble(*arm, sweep::run(cell, &ins))
    };
    let base = arm(ablation::Arm::Baseline);
    let all = arm(ablation::Arm::AllProposals);
    // §V direction: the combined refinements do not hurt synchronization
    // or connectivity.
    assert!(all.mean_sync_fraction >= base.mean_sync_fraction - 0.1);
    assert!(all.mean_outdegree >= base.mean_outdegree - 1.0);
}
