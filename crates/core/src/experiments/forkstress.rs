//! The fork-stress experiment: chain-layer fault intensity × resilience.
//!
//! Where [`resilience`](super::resilience) stresses the network layer
//! (drops, delays, floods), this sweep stresses the *chain* layer with the
//! reorg-storm preset (the plane of [`Fault::ReorgStorms`]): competing miners
//! producing sibling blocks, stale solo producers extending private
//! chains, and partition-then-heal schedules timed to force reorg storms
//! when the halves reunite. Per `(intensity, resilience)` cell it measures
//! the honest synchronized fraction during the storm, then *ends* the
//! faults ([`World::end_faults`]) and clocks how long the surviving
//! population takes to collapse back onto a single chain
//! ([`World::check_convergence`]) — alongside the maximum observed fork
//! depth and the reorg/fault-block counters. The zero-intensity
//! resilience-off cell is the §IV baseline the report's sync deltas are
//! taken against.

use crate::experiments::registry::{Experiment, Scale};
use crate::experiments::sweep;
use bitsync_json::{ToJson, Value};
use bitsync_node::config::NodeConfig;
use bitsync_node::world::{metric, World, WorldConfig};
use bitsync_sim::fault::{Fault, FaultConfig};
use bitsync_sim::time::SimDuration;
use bitsync_sim::Instruments;

/// Sweep parameters.
#[derive(Clone, Debug)]
pub struct ForkStressConfig {
    /// Random seed (identical across cells).
    pub seed: u64,
    /// Reachable network size.
    pub n_reachable: usize,
    /// Unreachable-but-responsive full nodes.
    pub n_unreachable_full: usize,
    /// Phantom (dead) addresses seeding dial failures.
    pub n_phantoms: usize,
    /// The full-intensity chain fault plane; each sweep point runs
    /// `base_fault.scaled(intensity)`.
    pub base_fault: FaultConfig,
    /// Sweep points, each in `0..=1`; include 0.0 for the baseline.
    pub intensities: Vec<f64>,
    /// Warm-up before measurement starts.
    pub warmup: SimDuration,
    /// Measured storm duration.
    pub duration: SimDuration,
    /// Sampling interval for the sync time series.
    pub sample_every: SimDuration,
    /// How long after `end_faults` the population gets to converge.
    pub convergence_grace: SimDuration,
}

impl ForkStressConfig {
    /// Default scaled scenario. No churn and no ADDR flooders: the sweep
    /// isolates the chain-layer fault domain.
    pub fn scaled(seed: u64) -> Self {
        ForkStressConfig {
            seed,
            n_reachable: 60,
            n_unreachable_full: 12,
            n_phantoms: 800,
            base_fault: Fault::ReorgStorms.plane_config(),
            intensities: vec![0.0, 0.5, 1.0],
            warmup: SimDuration::from_mins(30),
            duration: SimDuration::from_hours(4),
            sample_every: SimDuration::from_mins(15),
            convergence_grace: SimDuration::from_hours(2),
        }
    }

    /// Fast test variant.
    pub fn quick(seed: u64) -> Self {
        ForkStressConfig {
            n_reachable: 24,
            n_unreachable_full: 4,
            n_phantoms: 200,
            intensities: vec![0.0, 1.0],
            warmup: SimDuration::from_mins(20),
            duration: SimDuration::from_mins(90),
            convergence_grace: SimDuration::from_hours(1),
            ..Self::scaled(seed)
        }
    }
}

/// One `(intensity, resilience)` cell's measured outcomes.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// Fault-plane intensity in `0..=1`.
    pub intensity: f64,
    /// Whether the resilience layer was enabled.
    pub resilience: bool,
    /// Mean synchronization fraction over honest online reachable nodes
    /// during the storm.
    pub mean_sync_fraction: f64,
    /// Worst sampled synchronization fraction.
    pub min_sync_fraction: f64,
    /// Whether the population reached a single chain within the grace
    /// window after faults ended.
    pub converged: bool,
    /// Seconds from `end_faults` to single-chain convergence, when it
    /// happened.
    pub convergence_secs: Option<f64>,
    /// Deepest reorg any node performed (blocks disconnected).
    pub max_fork_depth: u64,
    /// Total reorg operations across the population (`chain.reorgs`).
    pub reorgs: u64,
    /// Sibling blocks minted by the competing-miner channel.
    pub competing_blocks: u64,
    /// Private-chain blocks minted by the solo-miner channel.
    pub solo_blocks: u64,
    /// Peers discouraged-banned for misbehavior (`node.peer.banned`).
    pub peers_banned: u64,
    /// Established links the fault plane severed
    /// (`fault.connection_flaps`).
    pub connection_flaps: u64,
}

impl ToJson for CellResult {
    fn to_json(&self) -> Value {
        Value::object()
            .with("intensity", self.intensity)
            .with("resilience", self.resilience)
            .with("mean_sync_fraction", self.mean_sync_fraction)
            .with("min_sync_fraction", self.min_sync_fraction)
            .with("converged", self.converged)
            .with("convergence_secs", self.convergence_secs)
            .with("max_fork_depth", self.max_fork_depth)
            .with("reorgs", self.reorgs)
            .with("competing_blocks", self.competing_blocks)
            .with("solo_blocks", self.solo_blocks)
            .with("peers_banned", self.peers_banned)
            .with("connection_flaps", self.connection_flaps)
    }
}

/// The full sweep output: cells in `(intensity, resilience)` order,
/// resilience-off first within each intensity.
#[derive(Clone, Debug)]
pub struct ForkStressResult {
    /// One result per cell.
    pub cells: Vec<CellResult>,
}

impl ToJson for ForkStressResult {
    fn to_json(&self) -> Value {
        Value::object().with("cells", self.cells.iter().collect::<Vec<_>>())
    }
}

impl ForkStressResult {
    /// The §IV reference cell: zero intensity, resilience off.
    pub fn baseline(&self) -> &CellResult {
        &self.cells[0]
    }
}

/// Runs one cell with its world reporting into `ins`; timeseries rows are
/// labelled with the cell (`i<intensity>/res_{on,off}`).
pub fn run_cell(
    cfg: &ForkStressConfig,
    intensity: f64,
    resilience: bool,
    ins: &Instruments,
) -> CellResult {
    ins.sampler.set_ctx(Some(&format!(
        "i{intensity}/res_{}",
        if resilience { "on" } else { "off" }
    )));
    let mut world = World::new(WorldConfig {
        seed: cfg.seed,
        node_cfg: if resilience {
            NodeConfig::resilient()
        } else {
            NodeConfig::bitcoin_core()
        },
        n_reachable: cfg.n_reachable,
        n_malicious: 0,
        n_unreachable_full: cfg.n_unreachable_full,
        n_phantoms: cfg.n_phantoms,
        seed_phantoms: 200.min(cfg.n_phantoms),
        seed_reachable: 32,
        churn: None,
        block_interval: Some(SimDuration::from_secs(600)),
        tx_rate: 0.2,
        ibd_fresh_mean: Some(SimDuration::from_mins(30)),
        instrument: Some(0),
        fault: cfg.base_fault.scaled(intensity),
        ..WorldConfig::default()
    });
    world.attach(ins);

    let deltas = sweep::counter_deltas(
        &ins.metrics,
        [
            metric::REORGS,
            metric::FAULT_COMPETING_BLOCKS,
            metric::FAULT_SOLO_BLOCKS,
            metric::PEER_BANNED,
            metric::FAULT_CONN_FLAPS,
        ],
    );
    let sync_samples = sweep::sample_run(
        &mut world,
        cfg.warmup,
        cfg.duration,
        cfg.sample_every,
        World::honest_sync_fraction,
    );
    // Storm over: stop the weather and clock the recovery.
    world.end_faults();
    let convergence = world.check_convergence(cfg.convergence_grace);
    let [reorgs, competing_blocks, solo_blocks, peers_banned, connection_flaps] = deltas();

    let (mean_sync_fraction, min_sync_fraction) = sweep::mean_min(&sync_samples);
    CellResult {
        intensity,
        resilience,
        mean_sync_fraction,
        min_sync_fraction: min_sync_fraction.min(1.0),
        converged: convergence.is_some(),
        convergence_secs: convergence.map(|d| d.as_secs_f64()),
        max_fork_depth: world.max_reorg_depth(),
        reorgs,
        competing_blocks,
        solo_blocks,
        peers_banned,
        connection_flaps,
    }
}

/// Runs the full sweep with the same seed in every cell, all reporting
/// into the one `ins`, cells in sweep order: each intensity in turn, off
/// before on.
pub fn run(cfg: &ForkStressConfig, ins: &Instruments) -> ForkStressResult {
    ForkStressResult {
        cells: sweep::grid(&cfg.intensities, |intensity, resilience| {
            run_cell(cfg, intensity, resilience, ins)
        }),
    }
}

/// Registry row for the fork-stress sweep.
pub const EXPERIMENT: Experiment = Experiment {
    name: "forkstress",
    artifact: "forkstress",
    paper_targets: &["§IV sync degradation under chain-layer fork/reorg storms"],
    run: |scale, seed, ins| {
        let cfg = match scale {
            Scale::Quick => ForkStressConfig::quick(seed),
            _ => ForkStressConfig::scaled(seed),
        };
        let r = run(&cfg, ins);
        (r.to_json(), crate::report::render_forkstress(&r))
    },
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_all_cells_in_order() {
        let cfg = ForkStressConfig::quick(81);
        let r = run(&cfg, &Instruments::default());
        assert_eq!(r.cells.len(), cfg.intensities.len() * 2);
        assert_eq!(r.baseline().intensity, 0.0);
        assert!(!r.baseline().resilience);
        for c in &r.cells {
            assert!(c.mean_sync_fraction >= 0.0 && c.mean_sync_fraction <= 1.0);
        }
    }

    /// Cells share one recorder, so each must report its own contribution:
    /// the per-cell counters add up to the recorder's totals, and a cell's
    /// numbers do not depend on what ran before it.
    #[test]
    fn counters_are_per_cell_deltas_of_the_shared_recorder() {
        let cfg = ForkStressConfig::quick(81);
        let ins = Instruments::default();
        let swept = run(&cfg, &ins);
        let total = |field: fn(&CellResult) -> u64| swept.cells.iter().map(field).sum::<u64>();
        let recorded = |name| ins.metrics.counter(name);
        assert!(recorded(metric::REORGS) > 0, "storm produced no reorgs");
        assert_eq!(total(|c| c.reorgs), recorded(metric::REORGS));
        assert_eq!(
            total(|c| c.competing_blocks),
            recorded(metric::FAULT_COMPETING_BLOCKS)
        );
        assert_eq!(
            total(|c| c.solo_blocks),
            recorded(metric::FAULT_SOLO_BLOCKS)
        );

        let last = swept.cells.last().expect("cells");
        let alone = run_cell(
            &cfg,
            last.intensity,
            last.resilience,
            &Instruments::default(),
        );
        assert_eq!(alone.to_json().to_string(), last.to_json().to_string());
    }

    #[test]
    fn storm_forces_forks_and_recovery_converges() {
        let cfg = ForkStressConfig::quick(82);
        let calm = run_cell(&cfg, 0.0, false, &Instruments::default());
        let stormy = run_cell(&cfg, 1.0, false, &Instruments::default());
        assert_eq!(calm.competing_blocks + calm.solo_blocks, 0);
        assert!(
            stormy.competing_blocks + stormy.solo_blocks > 0,
            "chain fault channels never fired"
        );
        assert!(stormy.reorgs > 0, "storm produced no reorgs");
        assert!(stormy.max_fork_depth >= 1);
        assert!(calm.converged, "calm population failed to converge");
        assert!(
            stormy.converged,
            "population still split after faults ended"
        );
    }
}
