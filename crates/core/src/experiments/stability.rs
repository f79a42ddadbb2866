//! Figure 6: stability of a node's outgoing connections.
//!
//! The paper ran a fresh Bitcoin Core 0.20.1 node for 260 seconds and
//! logged its connection count once per second over RPC: the count swung
//! between 2 and 10 (8 outbound slots plus up to 2 feelers), averaged 6.67,
//! and sat below 8 for ~60% of the time.

use crate::experiments::registry::{Experiment, Scale};
use crate::experiments::sweep::{self, Cell, Run};
use bitsync_analysis::Summary;
use bitsync_json::{ToJson, Value};
use bitsync_node::world::WorldConfig;
use bitsync_node::NodeId;
use bitsync_sim::time::SimDuration;
use bitsync_sim::Instruments;

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct StabilityConfig {
    /// Random seed.
    pub seed: u64,
    /// Warm-up before sampling starts (the paper's node had been running).
    pub warmup: SimDuration,
    /// Sampling window (paper: 260 s).
    pub window_secs: u64,
    /// Mean per-connection lifetime driving the drop process.
    pub connection_mean_lifetime: SimDuration,
    /// World size.
    pub n_reachable: usize,
    /// Phantom pollution of the address book.
    pub n_phantoms: usize,
    /// Phantoms seeded per node.
    pub seed_phantoms: usize,
    /// Reachable addresses seeded per node.
    pub seed_reachable: usize,
}

impl StabilityConfig {
    /// Paper-shaped defaults: address books ~11% reachable, drops every
    /// couple of minutes per connection.
    pub fn paper(seed: u64) -> Self {
        StabilityConfig {
            seed,
            warmup: SimDuration::from_secs(600),
            window_secs: 260,
            connection_mean_lifetime: SimDuration::from_secs(150),
            n_reachable: 80,
            n_phantoms: 4_000,
            seed_phantoms: 250,
            seed_reachable: 32,
        }
    }

    /// Full-scale variant: the paper's window and lifetimes over an
    /// address book polluted at the full census ratio (as
    /// `SuccessRateConfig::full`, the per-node book is what matters).
    pub fn full(seed: u64) -> Self {
        StabilityConfig {
            n_phantoms: 40_000,
            seed_phantoms: 2_500,
            ..Self::paper(seed)
        }
    }

    /// Smaller, faster variant for tests.
    pub fn quick(seed: u64) -> Self {
        StabilityConfig {
            warmup: SimDuration::from_secs(180),
            n_reachable: 40,
            n_phantoms: 800,
            seed_phantoms: 120,
            ..Self::paper(seed)
        }
    }
}

/// Figure 6 output.
#[derive(Clone, Debug)]
pub struct StabilityResult {
    /// Connection count sampled once per second.
    pub series: Vec<usize>,
    /// Summary of the series.
    pub summary: Summary,
    /// Fraction of samples strictly below the 8 outbound slots.
    pub below_eight_fraction: f64,
    /// Smallest observed count.
    pub min: usize,
    /// Largest observed count (feelers can push this to 10).
    pub max: usize,
}

impl ToJson for StabilityResult {
    fn to_json(&self) -> Value {
        Value::object()
            .with("series", self.series.clone())
            .with("summary", &self.summary)
            .with("below_eight_fraction", self.below_eight_fraction)
            .with("min", self.min)
            .with("max", self.max)
    }
}

/// The one world, sampled once per second over the window: the observed
/// node 0's outgoing connection count.
pub fn cell(cfg: &StabilityConfig) -> Cell<usize> {
    Cell {
        ctx: None,
        world: WorldConfig {
            seed: cfg.seed,
            n_reachable: cfg.n_reachable,
            n_unreachable_full: 0,
            n_phantoms: cfg.n_phantoms,
            seed_phantoms: cfg.seed_phantoms,
            seed_reachable: cfg.seed_reachable,
            connection_mean_lifetime: Some(cfg.connection_mean_lifetime),
            instrument: Some(0),
            ..WorldConfig::default()
        },
        warmup: cfg.warmup,
        duration: SimDuration::from_secs(cfg.window_secs),
        every: SimDuration::from_secs(1),
        probe: |world| world.node(NodeId(0)).map_or(0, |n| n.outgoing_count()),
        convergence_grace: None,
    }
}

/// The Figure 6 result from the cell's run.
pub fn assemble(run: Run<usize>) -> StabilityResult {
    let series = run.samples;
    let as_f64: Vec<f64> = series.iter().map(|&c| c as f64).collect();
    let summary = Summary::of(&as_f64).expect("non-empty series");
    let below = series.iter().filter(|&&c| c < 8).count();
    StabilityResult {
        below_eight_fraction: below as f64 / series.len() as f64,
        min: *series.iter().min().expect("non-empty"),
        max: *series.iter().max().expect("non-empty"),
        summary,
        series,
    }
}

/// Runs the Figure 6 experiment with its world reporting into `ins`.
pub fn run(cfg: &StabilityConfig, ins: &Instruments) -> StabilityResult {
    assemble(sweep::run(&cell(cfg), ins))
}

/// Registry row for the Figure 6 connection-stability experiment.
pub const EXPERIMENT: Experiment = Experiment {
    name: "fig6",
    artifact: "fig6_stability",
    paper_targets: &["Fig. 6 connection stability"],
    run: |scale, seed, ins| {
        let cfg = match scale {
            Scale::Quick => StabilityConfig::quick(seed),
            Scale::Scaled => StabilityConfig::paper(seed),
            Scale::Full => StabilityConfig::full(seed),
        };
        let r = run(&cfg, ins);
        (r.to_json(), crate::report::render_fig6(&r))
    },
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connection_count_is_unstable_and_bounded() {
        let result = run(&StabilityConfig::quick(7), &Instruments::default());
        assert_eq!(result.series.len(), 260);
        // Bounded by 8 outbound slots + feelers + one in-flight dial.
        assert!(result.max <= 11, "max {}", result.max);
        // The paper's key qualitative findings: the count varies, and it
        // spends a substantial share of time below the full 8 slots.
        assert!(result.min < result.max, "series is flat");
        assert!(
            result.below_eight_fraction > 0.0,
            "never below 8: {:?}",
            result.summary
        );
        assert!(result.summary.mean < 9.0, "{:?}", result.summary);
    }
}
