//! The §IV-A1 routing-attack experiment: hijack the top ASes of a chosen
//! population view and watch synchronization split.
//!
//! The paper's point: a partition plan built from the *reachable* view only
//! (prior work) mis-ranks targets once *responsive* unreachable nodes are
//! acknowledged — e.g. AS4134 hosts 0.76% of reachable nodes but 6.18% of
//! responsive ones. Here we evaluate the attack end-to-end on the live
//! simulated topology: apply the hijack, keep mining on the majority side,
//! and measure how far behind the isolated side falls.

use crate::experiments::registry::{Experiment, Scale};
use bitsync_analysis::as_concentration::AsConcentration;
use bitsync_analysis::routing::plan_hijack;
use bitsync_json::{ToJson, Value};
use bitsync_node::world::{World, WorldConfig};
use bitsync_sim::time::{SimDuration, SimTime};
use bitsync_sim::Instruments;

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct PartitionConfig {
    /// Random seed.
    pub seed: u64,
    /// Reachable network size.
    pub n_reachable: usize,
    /// Attack duration.
    pub attack: SimDuration,
    /// Healing observation window after the partition lifts.
    pub heal: SimDuration,
    /// Block interval.
    pub block_interval: SimDuration,
}

impl PartitionConfig {
    /// Default scaled scenario.
    pub fn scaled(seed: u64) -> Self {
        PartitionConfig {
            seed,
            n_reachable: 120,
            attack: SimDuration::from_hours(3),
            heal: SimDuration::from_hours(1),
            block_interval: SimDuration::from_secs(300),
        }
    }

    /// Fast test variant.
    pub fn quick(seed: u64) -> Self {
        PartitionConfig {
            n_reachable: 40,
            attack: SimDuration::from_hours(1),
            heal: SimDuration::from_mins(30),
            block_interval: SimDuration::from_secs(120),
            ..Self::scaled(seed)
        }
    }
}

/// Partition-attack outcome.
#[derive(Clone, Debug)]
pub struct PartitionResult {
    /// ASes hijacked.
    pub hijacked_asns: Vec<u32>,
    /// Reachable nodes isolated by the hijack.
    pub isolated_nodes: usize,
    /// Fraction of the reachable network isolated.
    pub isolated_fraction: f64,
    /// Network-wide sync fraction just before the attack.
    pub sync_before: f64,
    /// Sync fraction at the end of the attack window (isolated nodes fall
    /// behind the majority chain).
    pub sync_during: f64,
    /// Sync fraction after the heal window.
    pub sync_after: f64,
    /// Blocks the majority side mined during the partition.
    pub blocks_during: u64,
}

impl ToJson for PartitionResult {
    fn to_json(&self) -> Value {
        Value::object()
            .with("hijacked_asns", self.hijacked_asns.clone())
            .with("isolated_nodes", self.isolated_nodes)
            .with("isolated_fraction", self.isolated_fraction)
            .with("sync_before", self.sync_before)
            .with("sync_during", self.sync_during)
            .with("sync_after", self.sync_after)
            .with("blocks_during", self.blocks_during)
    }
}

/// Fraction of nodes the hijack should isolate (paper: 50%).
const ISOLATE_FRACTION: f64 = 0.5;
/// Warm-up before the attack.
const WARMUP: SimDuration = SimDuration::from_mins(30);

/// Runs the partition attack with its world reporting into `ins`;
/// timeseries rows are labelled with the phase (`before`, `attack`,
/// `heal`).
pub fn run(cfg: &PartitionConfig, ins: &Instruments) -> PartitionResult {
    let mut world = World::new(WorldConfig {
        seed: cfg.seed,
        n_reachable: cfg.n_reachable,
        n_unreachable_full: cfg.n_reachable / 6,
        n_phantoms: 800,
        seed_reachable: 32,
        seed_phantoms: 60,
        block_interval: Some(cfg.block_interval),
        // Connections rotate on the scale of minutes-to-hours; without
        // rotation a healed route would never be rediscovered because all
        // outbound slots stay filled with same-side peers.
        connection_mean_lifetime: Some(SimDuration::from_mins(8)),
        ..WorldConfig::default()
    });
    world.attach(ins);
    ins.sampler.set_ctx(Some("before"));
    world.run_until(SimTime::ZERO + WARMUP);
    let sync_before = world.sync_fraction();

    // Plan the hijack greedily over the live AS histogram.
    let asns = world
        .online_ids()
        .into_iter()
        .filter(|id| world.meta[id.0 as usize].reachable)
        .map(|id| world.meta[id.0 as usize].asn)
        .collect::<Vec<_>>();
    let reachable_total = asns.len();
    let conc = AsConcentration::from_asns(asns);
    let plan = plan_hijack(&conc, ISOLATE_FRACTION);

    let h0 = world.best_height();
    world.apply_partition(plan.targets.iter().copied());
    let isolated_nodes = world.isolated_count();
    ins.sampler.set_ctx(Some("attack"));
    world.run_for(cfg.attack);
    let sync_during = world.sync_fraction();
    let blocks_during = world.best_height() - h0;

    world.lift_partition();
    ins.sampler.set_ctx(Some("heal"));
    world.run_for(cfg.heal);
    let sync_after = world.sync_fraction();

    PartitionResult {
        hijacked_asns: plan.targets,
        isolated_nodes,
        isolated_fraction: isolated_nodes as f64 / reachable_total.max(1) as f64,
        sync_before,
        sync_during,
        sync_after,
        blocks_during,
    }
}

/// Registry row for the §IV-A1 routing-attack experiment.
pub const EXPERIMENT: Experiment = Experiment {
    name: "partition",
    artifact: "partition",
    paper_targets: &["§IV-A1 routing attack on the live topology"],
    run: |scale, seed, ins| {
        let cfg = match scale {
            Scale::Quick => PartitionConfig::quick(seed),
            _ => PartitionConfig::scaled(seed),
        };
        let r = run(&cfg, ins);
        (r.to_json(), crate::report::render_partition(&r))
    },
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_splits_and_heals() {
        let r = run(&PartitionConfig::quick(41), &Instruments::default());
        // The greedy plan isolates roughly the requested half.
        assert!(
            r.isolated_fraction > 0.3 && r.isolated_fraction < 0.75,
            "isolated {}",
            r.isolated_fraction
        );
        assert!(r.blocks_during > 0, "majority side stopped mining");
        // Synchronization collapses during the attack (isolated nodes are
        // stuck behind the majority tip)...
        assert!(
            r.sync_during <= 1.0 - r.isolated_fraction + 0.15,
            "during {} with isolated {}",
            r.sync_during,
            r.isolated_fraction
        );
        // ...and recovers once routing heals.
        assert!(
            r.sync_after > r.sync_during,
            "no healing: after {} during {}",
            r.sync_after,
            r.sync_during
        );
    }
}
