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
use crate::experiments::sweep;
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

/// Runs one arm with its world reporting into `ins`; timeseries rows are
/// labelled with [`Arm::label`].
pub fn run_arm(cfg: &AblationConfig, arm: Arm, ins: &Instruments) -> ArmResult {
    ins.sampler.set_ctx(Some(arm.label()));
    let mut world = World::new(WorldConfig {
        seed: cfg.seed,
        node_cfg: arm.node_config(),
        n_reachable: cfg.n_reachable,
        n_unreachable_full: cfg.n_reachable / 5,
        n_phantoms: 3_000,
        seed_phantoms: 200,
        seed_reachable: 32,
        churn: Some(cfg.churn.sped_up(cfg.churn_speedup)),
        block_interval: Some(SimDuration::from_secs(600)),
        tx_rate: 0.2,
        ibd_fresh_mean: Some(SimDuration::from_mins(30)),
        instrument: Some(0),
        ..WorldConfig::default()
    });
    world.attach(ins);

    let every = SimDuration::from_mins(10);
    let sync_samples = sweep::sample_run(
        &mut world,
        cfg.warmup,
        cfg.duration,
        every,
        World::sync_fraction,
    );

    let mut attempts = 0u64;
    let mut successes = 0u64;
    let mut outdegree = 0usize;
    let mut reachable_online = 0usize;
    for id in world.online_ids() {
        let node = world.node(id).expect("online");
        attempts += node.stats.attempts;
        successes += node.stats.successes;
        if world.meta[id.0 as usize].reachable {
            outdegree += node.outbound_count();
            reachable_online += 1;
        }
    }
    ArmResult {
        arm,
        connection_success_rate: if attempts == 0 {
            0.0
        } else {
            successes as f64 / attempts as f64
        },
        mean_outdegree: if reachable_online == 0 {
            0.0
        } else {
            outdegree as f64 / reachable_online as f64
        },
        mean_block_relay_secs: sweep::mean_block_relay_secs(&world),
        mean_sync_fraction: sweep::mean_min(&sync_samples).0,
    }
}

/// Runs every arm with the same seed, all reporting into the one `ins`.
pub fn run(cfg: &AblationConfig, ins: &Instruments) -> AblationResult {
    AblationResult {
        arms: Arm::all().iter().map(|&a| run_arm(cfg, a, ins)).collect(),
    }
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

    #[test]
    fn all_arms_produce_metrics() {
        let result = run(&AblationConfig::quick(31), &Instruments::default());
        assert_eq!(result.arms.len(), 5);
        for arm in &result.arms {
            assert!(arm.connection_success_rate > 0.0, "{:?}", arm.arm);
            assert!(arm.mean_outdegree > 0.0, "{:?}", arm.arm);
            assert!(arm.mean_sync_fraction > 0.0, "{:?}", arm.arm);
        }
    }

    #[test]
    fn tried_only_addr_improves_success_rate() {
        let cfg = AblationConfig::quick(32);
        let base = run_arm(&cfg, Arm::Baseline, &Instruments::default());
        let tried = run_arm(&cfg, Arm::TriedOnlyAddr, &Instruments::default());
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
