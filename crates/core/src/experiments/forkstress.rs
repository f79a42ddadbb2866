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
use crate::experiments::sweep::{self, Cell, Run};
use bitsync_json::{ToJson, Value};
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

/// Sampling interval for the sync time series.
const SAMPLE_EVERY: SimDuration = SimDuration::from_mins(15);

/// The sweep's cells ([`sweep::grid`], switch label `res`). Each samples
/// [`World::honest_sync_fraction`], then ends the faults and clocks
/// convergence.
pub fn cells(cfg: &ForkStressConfig) -> sweep::Grid<f64> {
    let base = Cell {
        ctx: None,
        world: WorldConfig {
            n_reachable: cfg.n_reachable,
            n_unreachable_full: cfg.n_unreachable_full,
            n_phantoms: cfg.n_phantoms,
            ..sweep::mesh(cfg.seed)
        },
        warmup: cfg.warmup,
        duration: cfg.duration,
        every: SAMPLE_EVERY,
        probe: World::honest_sync_fraction,
        convergence_grace: Some(cfg.convergence_grace),
    };
    sweep::grid(&base, &cfg.base_fault, &cfg.intensities, "res")
}

/// One cell's result from its run.
pub fn assemble((intensity, resilience): (f64, bool), run: Run<f64>) -> CellResult {
    let (mean_sync_fraction, min_sync_fraction) = sweep::mean_min(&run.samples);
    CellResult {
        intensity,
        resilience,
        mean_sync_fraction,
        min_sync_fraction: min_sync_fraction.min(1.0),
        converged: run.convergence.is_some(),
        convergence_secs: run.convergence.map(|d| d.as_secs_f64()),
        max_fork_depth: run.world.max_reorg_depth(),
        reorgs: run.counter(metric::REORGS),
        competing_blocks: run.counter(metric::FAULT_COMPETING_BLOCKS),
        solo_blocks: run.counter(metric::FAULT_SOLO_BLOCKS),
        peers_banned: run.counter(metric::PEER_BANNED),
        connection_flaps: run.counter(metric::FAULT_CONN_FLAPS),
    }
}

/// Runs the full sweep, all cells reporting into the one `ins`.
pub fn run(cfg: &ForkStressConfig, ins: &Instruments) -> ForkStressResult {
    let measure = |(key, cell): ((f64, bool), Cell<f64>)| assemble(key, sweep::run(&cell, ins));
    let cells = cells(cfg).into_iter().map(measure).collect();
    ForkStressResult { cells }
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
        let (swept, ins) = sweep::check_per_cell_deltas(cells(&cfg), assemble);
        let total = |field: fn(&CellResult) -> u64| swept.iter().map(field).sum::<u64>();
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
        assert_eq!(total(|c| c.peers_banned), recorded(metric::PEER_BANNED));
        assert_eq!(
            total(|c| c.connection_flaps),
            recorded(metric::FAULT_CONN_FLAPS)
        );
    }

    fn cell_result(cfg: &ForkStressConfig, key: (f64, bool)) -> CellResult {
        let (_, cell) = cells(cfg)
            .into_iter()
            .find(|(k, _)| *k == key)
            .expect("cell");
        assemble(key, sweep::run(&cell, &Instruments::default()))
    }

    #[test]
    fn storm_forces_forks_and_recovery_converges() {
        let cfg = ForkStressConfig::quick(82);
        let calm = cell_result(&cfg, (0.0, false));
        let stormy = cell_result(&cfg, (1.0, false));
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
