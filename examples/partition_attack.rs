//! Partition attack: plan a BGP hijack over the live AS histogram
//! (§IV-A1), apply it, and watch the network split and heal.
//!
//! ```sh
//! cargo run --release -p bitsync-core --example partition_attack
//! ```

use bitsync_core::analysis::{plan_hijack, target_shift, AsConcentration};
use bitsync_core::experiments::partition::{run, PartitionConfig};
use bitsync_core::net::{AsModel, NodeClass};
use bitsync_core::sim::rng::SimRng;
use bitsync_core::sim::Instruments;

fn main() {
    // First, the planning view the paper argues about: the same 50% goal
    // needs different targets depending on which population you count.
    let model = AsModel::from_paper();
    let mut rng = SimRng::seed_from(7);
    let reachable = AsConcentration::from_asns(
        (0..10_000).map(|_| model.sample(NodeClass::Reachable, &mut rng)),
    );
    let responsive = AsConcentration::from_asns(
        (0..10_000).map(|_| model.sample(NodeClass::UnreachableResponsive, &mut rng)),
    );
    println!(
        "hijack plan for 50%: {} ASes (reachable view) vs {} ASes (responsive view)",
        plan_hijack(&reachable, 0.5).targets.len(),
        plan_hijack(&responsive, 0.5).targets.len()
    );
    let shift = target_shift(4134, &reachable, &responsive);
    println!(
        "AS4134: rank {:?} / {:.2}% of reachable, but rank {:?} / {:.2}% of responsive (paper: 20th vs 1st)",
        shift.rank_reachable, shift.pct_reachable, shift.rank_responsive, shift.pct_responsive
    );

    // Then the attack itself, end to end on a running network.
    println!("\nrunning the attack on a live 120-node network...");
    let r = run(&PartitionConfig::scaled(7), &Instruments::default());
    println!(
        "hijacked {} ASes → isolated {} nodes ({:.0}%)",
        r.hijacked_asns.len(),
        r.isolated_nodes,
        r.isolated_fraction * 100.0
    );
    println!(
        "sync: {:.0}% before → {:.0}% during ({} majority blocks) → {:.0}% after healing",
        r.sync_before * 100.0,
        r.sync_during * 100.0,
        r.blocks_during,
        r.sync_after * 100.0
    );
}
