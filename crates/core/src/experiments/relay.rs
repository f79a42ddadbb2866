//! Figures 10 and 11: round-robin relay delay at an instrumented node.
//!
//! The paper configured a reachable node with 8 outbound and 17 inbound
//! connections and measured, from `debug.log` (1-second granularity), the
//! gap between receiving a block/transaction and relaying it to the *last*
//! connection. Blocks: mean 1.39 s, max 17 s. Transactions: mean 0.45 s,
//! max 8 s. The delay is produced by the round-robin send loop serializing
//! on one socket-writer budget (Figure 9).

use crate::experiments::registry::{Experiment, Scale};
use bitsync_analysis::Summary;
use bitsync_json::{ToJson, Value};
use bitsync_node::config::NodeConfig;
use bitsync_node::world::{World, WorldConfig};
use bitsync_node::NodeId;
use bitsync_sim::time::{SimDuration, SimTime};
use bitsync_sim::Instruments;

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct RelayConfig {
    /// Random seed.
    pub seed: u64,
    /// Outbound connections of the instrumented node (paper: 8).
    pub n_outbound: usize,
    /// Inbound connections (paper: 17).
    pub n_inbound: usize,
    /// Measurement duration (paper: 2 days).
    pub duration: SimDuration,
    /// Expected block interval.
    pub block_interval: SimDuration,
    /// Network transaction rate per second.
    pub tx_rate: f64,
    /// Upload bandwidth of every node, bytes/s.
    pub upload_bandwidth: f64,
    /// Fraction of peers negotiating compact blocks (full blocks for the
    /// rest are what stretches the socket writer).
    pub compact_fraction: f64,
    /// Node behaviour (swap in `NodeConfig::paper_proposal()` for the §V
    /// ablation).
    pub node_cfg: NodeConfig,
}

impl RelayConfig {
    /// Paper-shaped defaults (duration shortened; the arrival processes
    /// are stationary so a few hours already give stable statistics).
    pub fn paper(seed: u64) -> Self {
        RelayConfig {
            seed,
            n_outbound: 8,
            n_inbound: 17,
            duration: SimDuration::from_hours(6),
            block_interval: SimDuration::from_secs(600),
            tx_rate: 7.0,
            upload_bandwidth: 1_000_000.0,
            compact_fraction: 0.96,
            node_cfg: NodeConfig::bitcoin_core(),
        }
    }

    /// Fast test variant.
    pub fn quick(seed: u64) -> Self {
        RelayConfig {
            duration: SimDuration::from_mins(40),
            block_interval: SimDuration::from_secs(120),
            tx_rate: 1.0,
            ..Self::paper(seed)
        }
    }
}

/// Figures 10/11 output.
#[derive(Clone, Debug)]
pub struct RelayResult {
    /// Per-block relay delays (seconds, 1-second quantized).
    pub block_delays: Vec<u64>,
    /// Per-transaction relay delays (seconds).
    pub tx_delays: Vec<u64>,
}

impl RelayResult {
    /// Summary of the block delays (paper: mean 1.39 s, max 17 s).
    pub fn block_summary(&self) -> Option<Summary> {
        Summary::of(
            &self
                .block_delays
                .iter()
                .map(|&d| d as f64)
                .collect::<Vec<_>>(),
        )
    }

    /// Summary of the transaction delays (paper: mean 0.45 s, max 8 s).
    pub fn tx_summary(&self) -> Option<Summary> {
        Summary::of(&self.tx_delays.iter().map(|&d| d as f64).collect::<Vec<_>>())
    }
}

impl ToJson for RelayResult {
    fn to_json(&self) -> Value {
        Value::object()
            .with("block_delays", self.block_delays.clone())
            .with("tx_delays", self.tx_delays.clone())
            .with(
                "block_summary",
                self.block_summary().as_ref().map(ToJson::to_json),
            )
            .with(
                "tx_summary",
                self.tx_summary().as_ref().map(ToJson::to_json),
            )
    }
}

/// Runs the relay-delay experiment from a forced 8-out/17-in star topology.
/// The world reports into `ins`: the per-hop relay-delay histogram, relay
/// origin/recv/send trace events, and — the hub being relay-instrumented —
/// windowed relay-delay quantiles in every timeseries row.
pub fn run(cfg: &RelayConfig, ins: &Instruments) -> RelayResult {
    let n_nodes = 1 + cfg.n_outbound + cfg.n_inbound;
    let mut node_cfg = cfg.node_cfg.clone();
    node_cfg.upload_bandwidth = cfg.upload_bandwidth;
    // The star is forced, as in the paper's configured test node, but
    // nothing stops organic dialing: the connect tick and the feeler still
    // run, so the leaves dial each other (quick `relay` completes 339 dials).
    // ROADMAP item 2, "Figs 10/11 run on the topology the code says they
    // run on", makes the topology a decision.
    let mut world = World::new(WorldConfig {
        seed: cfg.seed,
        node_cfg,
        n_reachable: n_nodes,
        n_unreachable_full: 0,
        n_phantoms: 0,
        seed_reachable: 0,
        seed_phantoms: 0,
        block_interval: Some(cfg.block_interval),
        tx_rate: cfg.tx_rate,
        compact_fraction: cfg.compact_fraction,
        instrument: Some(0),
        ..WorldConfig::default()
    });
    world.attach(ins);
    let hub = NodeId(0);
    for i in 0..cfg.n_outbound {
        world.force_connect(hub, NodeId(1 + i as u32));
    }
    for i in 0..cfg.n_inbound {
        world.force_connect(NodeId(1 + (cfg.n_outbound + i) as u32), hub);
    }
    world.run_until(SimTime::ZERO + cfg.duration);

    let mut block_delays = Vec::new();
    let mut tx_delays = Vec::new();
    for (is_block, delay) in world.relay_delays() {
        if is_block {
            block_delays.push(delay);
        } else {
            tx_delays.push(delay);
        }
    }
    block_delays.sort_unstable();
    tx_delays.sort_unstable();
    RelayResult {
        block_delays,
        tx_delays,
    }
}

/// Registry row for the Figures 10/11 relay-delay experiment.
pub const EXPERIMENT: Experiment = Experiment {
    name: "relay",
    artifact: "fig10_11_relay",
    paper_targets: &["Fig. 10 block relay delay", "Fig. 11 tx relay delay"],
    run: |scale, seed, ins| {
        let cfg = match scale {
            Scale::Quick => RelayConfig::quick(seed),
            _ => RelayConfig::paper(seed),
        };
        let r = run(&cfg, ins);
        (r.to_json(), crate::report::render_fig10_11(&r))
    },
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_block_and_tx_delays() {
        let result = run(&RelayConfig::quick(5), &Instruments::default());
        assert!(
            result.block_delays.len() >= 5,
            "blocks {}",
            result.block_delays.len()
        );
        assert!(
            result.tx_delays.len() >= 100,
            "txs {}",
            result.tx_delays.len()
        );
    }

    #[test]
    fn blocks_slower_than_transactions() {
        let result = run(&RelayConfig::quick(6), &Instruments::default());
        let b = result.block_summary().unwrap();
        let t = result.tx_summary().unwrap();
        // The paper's headline shape: block relay (often a full block to
        // some peers) is slower than tx relay, and both have a bounded tail.
        assert!(b.mean >= t.mean, "block {} < tx {}", b.mean, t.mean);
        assert!(b.max >= b.mean);
        assert!(b.max < 120.0, "block tail {}", b.max);
    }

    #[test]
    fn priority_refinement_reduces_block_delay() {
        let base = run(&RelayConfig::quick(7), &Instruments::default());
        let mut prop_cfg = RelayConfig::quick(7);
        prop_cfg.node_cfg = NodeConfig::paper_proposal();
        let prop = run(&prop_cfg, &Instruments::default());
        let b0 = base.block_summary().unwrap().mean;
        let b1 = prop.block_summary().unwrap().mean;
        assert!(
            b1 <= b0 + 0.25,
            "priority relay did not help: base {b0}, proposal {b1}"
        );
    }
}
