//! The §V ablation: do the paper's three proposed Bitcoin Core refinements
//! improve synchronization under 2020-level churn?
//!
//! Arms:
//! 1. **baseline** — Bitcoin Core 0.20 behaviour;
//! 2. **tried-only ADDR** — `GETADDR` answered from the `tried` table only;
//! 3. **17-day horizon** — `tried` eviction horizon reduced 30 → 17 days;
//! 4. **priority relay** — block-bearing messages jump send queues and
//!    outbound peers are served first;
//! 5. **all** — the full proposal.
//!
//! Metrics per arm: outgoing-connection success rate, mean effective
//! outdegree, mean block relay delay, and mean synchronization fraction.

use crate::experiments::registry::{Experiment, Scale};
use crate::experiments::success_rate::RunCounts;
use crate::experiments::sweep::{self, Cell, Run};
use bitsync_addrman::AddrManConfig;
use bitsync_json::{ToJson, Value};
use bitsync_net::churn::ChurnConfig;
use bitsync_node::config::NodeConfig;
use bitsync_node::world::{World, WorldConfig};
use bitsync_sim::time::SimDuration;
use bitsync_sim::Instruments;

/// One ablation arm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arm {
    /// Unmodified Bitcoin Core 0.20.
    Baseline,
    /// §V refinement (a): ADDR from `tried` only.
    TriedOnlyAddr,
    /// §V refinement (b): 17-day `tried` horizon.
    ShortHorizon,
    /// §V refinement (c): prioritized block relay.
    PriorityRelay,
    /// All three refinements together.
    AllProposals,
}

impl Arm {
    /// All arms in report order.
    pub fn all() -> [Arm; 5] {
        [
            Arm::Baseline,
            Arm::TriedOnlyAddr,
            Arm::ShortHorizon,
            Arm::PriorityRelay,
            Arm::AllProposals,
        ]
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Arm::Baseline => "baseline (Core 0.20)",
            Arm::TriedOnlyAddr => "tried-only ADDR",
            Arm::ShortHorizon => "17-day tried horizon",
            Arm::PriorityRelay => "priority block relay",
            Arm::AllProposals => "all three refinements",
        }
    }

    /// The node configuration of this arm.
    pub fn node_config(self) -> NodeConfig {
        let mut cfg = NodeConfig::bitcoin_core();
        match self {
            Arm::Baseline => {}
            Arm::TriedOnlyAddr => {
                cfg.addrman = AddrManConfig {
                    getaddr_from_tried_only: true,
                    ..AddrManConfig::bitcoin_core()
                };
            }
            Arm::ShortHorizon => {
                cfg.addrman = AddrManConfig {
                    horizon_days: 17,
                    ..AddrManConfig::bitcoin_core()
                };
            }
            Arm::PriorityRelay => {
                cfg.priority_relay = true;
            }
            Arm::AllProposals => {
                cfg = NodeConfig::paper_proposal();
            }
        }
        cfg
    }
}

/// Ablation scenario parameters.
#[derive(Clone, Debug)]
pub struct AblationConfig {
    /// Random seed (identical across arms).
    pub seed: u64,
    /// Reachable network size.
    pub n_reachable: usize,
    /// Scenario duration.
    pub duration: SimDuration,
    /// Churn model (2020-level by default).
    pub churn: ChurnConfig,
    /// Churn acceleration factor, as in the sync scenario.
    pub churn_speedup: f64,
    /// Warm-up before measurement starts.
    pub warmup: SimDuration,
}

impl AblationConfig {
    /// Default scaled scenario.
    pub fn scaled(seed: u64) -> Self {
        AblationConfig {
            seed,
            n_reachable: 100,
            duration: SimDuration::from_hours(24),
            churn: ChurnConfig::paper_2020(),
            churn_speedup: 24.0,
            warmup: SimDuration::from_hours(1),
        }
    }

    /// Fast test variant.
    pub fn quick(seed: u64) -> Self {
        AblationConfig {
            n_reachable: 30,
            duration: SimDuration::from_hours(2),
            churn_speedup: 48.0,
            warmup: SimDuration::from_mins(20),
            ..Self::scaled(seed)
        }
    }
}

/// One arm's measured outcomes.
#[derive(Clone, Debug)]
pub struct ArmResult {
    /// Which arm.
    pub arm: Arm,
    /// Aggregate outgoing-connection success rate over all online nodes.
    pub connection_success_rate: f64,
    /// Mean outbound connections per online reachable node at the end.
    pub mean_outdegree: f64,
    /// Mean block relay delay at the instrumented node, seconds.
    pub mean_block_relay_secs: Option<f64>,
    /// Mean synchronization fraction over the run.
    pub mean_sync_fraction: f64,
}

impl ToJson for ArmResult {
    fn to_json(&self) -> Value {
        Value::object()
            .with("arm", format!("{:?}", self.arm))
            .with("connection_success_rate", self.connection_success_rate)
            .with("mean_outdegree", self.mean_outdegree)
            .with("mean_block_relay_secs", self.mean_block_relay_secs)
            .with("mean_sync_fraction", self.mean_sync_fraction)
    }
}

/// The full ablation output.
#[derive(Clone, Debug)]
pub struct AblationResult {
    /// One result per arm, in [`Arm::all`] order.
    pub arms: Vec<ArmResult>,
}

impl ToJson for AblationResult {
    fn to_json(&self) -> Value {
        Value::object().with("arms", self.arms.iter().collect::<Vec<_>>())
    }
}

/// One cell per arm in [`Arm::all`] order, rows labelled [`Arm::label`],
/// sampling [`World::sync_fraction`] every 10 minutes.
pub fn cells(cfg: &AblationConfig) -> Vec<(Arm, Cell<f64>)> {
    let cell = |arm: Arm| Cell {
        ctx: Some(arm.label().to_string()),
        world: WorldConfig {
            node_cfg: arm.node_config(),
            n_reachable: cfg.n_reachable,
            n_unreachable_full: cfg.n_reachable / 5,
            n_phantoms: 3_000,
            churn: Some(cfg.churn.sped_up(cfg.churn_speedup)),
            ..sweep::mesh(cfg.seed)
        },
        warmup: cfg.warmup,
        duration: cfg.duration,
        every: SimDuration::from_mins(10),
        probe: World::sync_fraction,
        convergence_grace: None,
    };
    Arm::all().map(|arm| (arm, cell(arm))).into()
}

/// One arm's result from its cell's run.
pub fn assemble(arm: Arm, run: Run<f64>) -> ArmResult {
    let world = &run.world;
    let mut dials = RunCounts::default();
    for id in world.online_ids() {
        let stats = world.node(id).expect("online").stats;
        dials.attempts += stats.attempts;
        dials.successes += stats.successes;
    }
    ArmResult {
        arm,
        connection_success_rate: dials.rate(),
        mean_outdegree: world.mean_outdegree(|m| m.reachable),
        mean_block_relay_secs: sweep::mean_block_relay_secs(world),
        mean_sync_fraction: sweep::mean_min(&run.samples).0,
    }
}

/// Runs every arm, all reporting into the one `ins`.
pub fn run(cfg: &AblationConfig, ins: &Instruments) -> AblationResult {
    let measure = |(arm, cell): (Arm, Cell<f64>)| assemble(arm, sweep::run(&cell, ins));
    let arms = cells(cfg).into_iter().map(measure).collect();
    AblationResult { arms }
}

/// Registry row for the §V refinement ablation.
pub const EXPERIMENT: Experiment = Experiment {
    name: "ablation",
    artifact: "ablation",
    paper_targets: &["§V proposed refinements"],
    run: |scale, seed, ins| {
        let cfg = match scale {
            Scale::Quick => AblationConfig::quick(seed),
            _ => AblationConfig::scaled(seed),
        };
        let r = run(&cfg, ins);
        (r.to_json(), crate::report::render_ablation(&r))
    },
};

#[cfg(test)]
mod tests {
    use super::*;

    /// Also checks the arms' counters are per-cell deltas of the shared
    /// recorder ([`sweep::check_per_cell_deltas`]), and the §V direction:
    /// the combined refinements do not hurt synchronization or
    /// connectivity.
    #[test]
    fn all_arms_produce_metrics() {
        let cells = cells(&AblationConfig::quick(31));
        let (arms, _) = sweep::check_per_cell_deltas(cells, assemble);
        assert_eq!(arms.len(), 5);
        for arm in &arms {
            assert!(arm.connection_success_rate > 0.0, "{:?}", arm.arm);
            assert!(arm.mean_outdegree > 0.0, "{:?}", arm.arm);
            assert!(arm.mean_sync_fraction > 0.0, "{:?}", arm.arm);
        }
        let [base, .., all] = &arms[..] else {
            unreachable!("five arms")
        };
        assert_eq!((base.arm, all.arm), (Arm::Baseline, Arm::AllProposals));
        assert!(
            all.mean_sync_fraction >= base.mean_sync_fraction - 0.1,
            "sync: all {} vs baseline {}",
            all.mean_sync_fraction,
            base.mean_sync_fraction
        );
        assert!(
            all.mean_outdegree >= base.mean_outdegree - 1.0,
            "outdegree: all {} vs baseline {}",
            all.mean_outdegree,
            base.mean_outdegree
        );
    }

    fn arm_result(cfg: &AblationConfig, arm: Arm) -> ArmResult {
        let (_, cell) = cells(cfg)
            .into_iter()
            .find(|(a, _)| *a == arm)
            .expect("arm");
        assemble(arm, sweep::run(&cell, &Instruments::default()))
    }

    #[test]
    fn tried_only_addr_improves_success_rate() {
        let cfg = AblationConfig::quick(32);
        let base = arm_result(&cfg, Arm::Baseline);
        let tried = arm_result(&cfg, Arm::TriedOnlyAddr);
        // The §V claim: serving only tried (verified-reachable) addresses
        // raises the outgoing-connection success rate. Allow noise but
        // require no regression beyond it.
        assert!(
            tried.connection_success_rate >= base.connection_success_rate * 0.9,
            "tried-only {} vs baseline {}",
            tried.connection_success_rate,
            base.connection_success_rate
        );
    }
}
