//! The §IV-B propagation-rounds argument, validated against the simulator:
//! the closed form says covering 10K nodes takes 5 rounds at outdegree 8
//! and 14 at outdegree 2; the simulation measures the actual hop count a
//! block needs to blanket a scaled network.

use crate::experiments::registry::{Experiment, Scale};
use bitsync_analysis::propagation::{effective_outdegree, rounds_to_cover};
use bitsync_json::{ToJson, Value};
use bitsync_node::world::{World, WorldConfig};
use bitsync_sim::time::{SimDuration, SimTime};
use bitsync_sim::Instruments;

/// Output of the propagation analysis.
#[derive(Clone, Debug)]
pub struct RoundsResult {
    /// Closed-form rounds at outdegree 8 over 10K nodes (paper: 5).
    pub rounds_at_8: u32,
    /// Closed-form rounds at outdegree 2 (paper: 14).
    pub rounds_at_2: u32,
    /// Effective outdegree under the paper's 11.2% success rate.
    pub effective_outdegree: f64,
    /// Rounds at that degraded outdegree.
    pub rounds_at_effective: u32,
    /// Simulated: seconds for one block to reach every reachable node in a
    /// healthy scaled network.
    pub sim_full_coverage_secs: Option<u64>,
    /// Simulated network size used.
    pub sim_nodes: usize,
}

impl ToJson for RoundsResult {
    fn to_json(&self) -> Value {
        Value::object()
            .with("rounds_at_8", self.rounds_at_8)
            .with("rounds_at_2", self.rounds_at_2)
            .with("effective_outdegree", self.effective_outdegree)
            .with("rounds_at_effective", self.rounds_at_effective)
            .with("sim_full_coverage_secs", self.sim_full_coverage_secs)
            .with("sim_nodes", self.sim_nodes)
    }
}

/// Runs the closed form plus a simulation cross-check whose world reports
/// into `ins` (timeseries rows labelled `crosscheck`).
pub fn run(seed: u64, sim_nodes: usize, ins: &Instruments) -> RoundsResult {
    let eff = effective_outdegree(8.0, 0.112, 5.0, 0.5, 240.0);
    let mut result = RoundsResult {
        rounds_at_8: rounds_to_cover(10_000, 8.0),
        rounds_at_2: rounds_to_cover(10_000, 2.0),
        effective_outdegree: eff,
        rounds_at_effective: rounds_to_cover(10_000, eff.max(2.0)),
        sim_full_coverage_secs: None,
        sim_nodes,
    };

    // Simulation cross-check: one block, measure time to full coverage.
    let mut world = World::new(WorldConfig {
        seed,
        n_reachable: sim_nodes,
        n_unreachable_full: 0,
        n_phantoms: sim_nodes * 4,
        seed_phantoms: 30,
        seed_reachable: 24,
        block_interval: Some(SimDuration::from_secs(600)),
        ..WorldConfig::default()
    });
    ins.sampler.set_ctx(Some("crosscheck"));
    world.attach(ins);
    // Let the mesh form, then wait for a block and watch coverage.
    world.run_until(SimTime::from_secs(300));
    let h0 = world.best_height();
    let mut mined_at = None;
    for s in 300..4_000u64 {
        world.run_until(SimTime::from_secs(s));
        if mined_at.is_none() && world.best_height() > h0 {
            mined_at = Some(s);
        }
        if let Some(m) = mined_at {
            let target = world.best_height();
            let covered = world
                .online_ids()
                .iter()
                .filter(|id| world.node(**id).is_some_and(|n| n.chain.height() >= target))
                .count();
            if covered == world.online_ids().len() {
                result.sim_full_coverage_secs = Some(s - m);
                break;
            }
        }
    }
    result
}

/// Registry row for the §IV-B propagation-rounds analysis.
pub const EXPERIMENT: Experiment = Experiment {
    name: "rounds",
    artifact: "rounds",
    paper_targets: &["§IV-B propagation rounds (8^5 vs 2^14)"],
    run: |scale, seed, ins| {
        let sim_nodes = if scale == Scale::Quick { 20 } else { 60 };
        let r = run(seed, sim_nodes, ins);
        (r.to_json(), crate::report::render_rounds(&r))
    },
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_matches_paper() {
        let r = run(1, 20, &Instruments::default());
        assert_eq!(r.rounds_at_8, 5);
        assert_eq!(r.rounds_at_2, 14);
        assert!(r.effective_outdegree < 8.0);
        assert!(r.rounds_at_effective >= 5);
    }

    #[test]
    fn simulated_block_covers_network() {
        let r = run(2, 20, &Instruments::default());
        let secs = r.sim_full_coverage_secs.expect("block never covered");
        // A 20-node healthy mesh should blanket in seconds, not minutes.
        assert!(secs <= 120, "coverage took {secs}s");
    }
}
