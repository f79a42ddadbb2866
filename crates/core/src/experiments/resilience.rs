//! The resilience experiment: fault-plane intensity × countermeasures.
//!
//! The paper's root causes are stressors — failed dials, ADDR floods,
//! churn — and §IV measures how far synchronization degrades under them.
//! This experiment turns the question around: with the composable
//! [`FaultConfig`] plane (`sim::fault`) injecting drops, delays, stalled
//! peers, ADDR-flood amplification, and connection flaps at a swept
//! intensity, how much of the damage does Bitcoin Core's countermeasure
//! layer ([`bitsync_node::config::ResilienceConfig`]: misbehavior bans,
//! per-address dial backoff, handshake timeouts, stale-tip recovery) win
//! back?
//!
//! The sweep runs every `intensity × countermeasures∈{off,on}` cell with
//! the same seed. Per cell: mean/minimum synchronization fraction over the
//! *honest* population (stalled and malicious nodes excluded), mean
//! outdegree and its stability (min/mean over samples), mean block relay
//! delay, and the countermeasure/fault counters (`node.peer.banned`,
//! `node.dial.retries`, `node.staletip.rescues`, handshake timeouts,
//! fault drops/flaps). The zero-intensity countermeasures-off cell is the
//! §IV baseline the report's relay-delay deltas are taken against.

use crate::experiments::registry::{Experiment, Scale};
use crate::experiments::sweep::{self, Cell, Run};
use bitsync_json::{ToJson, Value};
use bitsync_net::churn::ChurnConfig;
use bitsync_node::world::{metric, NodeMeta, WorldConfig};
use bitsync_sim::fault::FaultConfig;
use bitsync_sim::time::SimDuration;
use bitsync_sim::Instruments;

/// Sweep parameters.
#[derive(Clone, Debug)]
pub struct ResilienceConfig {
    /// Random seed (identical across cells).
    pub seed: u64,
    /// Reachable network size.
    pub n_reachable: usize,
    /// ADDR flooders among the reachable population.
    pub n_malicious: usize,
    /// Unreachable-but-responsive full nodes.
    pub n_unreachable_full: usize,
    /// Phantom (dead) addresses seeding dial failures.
    pub n_phantoms: usize,
    /// The full-intensity fault plane; each sweep point runs
    /// `base_fault.scaled(intensity)`.
    pub base_fault: FaultConfig,
    /// Sweep points, each in `0..=1`; include 0.0 for the baseline.
    pub intensities: Vec<f64>,
    /// Churn model.
    pub churn: ChurnConfig,
    /// Churn acceleration factor, as in the sync scenario.
    pub churn_speedup: f64,
    /// Warm-up before measurement starts.
    pub warmup: SimDuration,
    /// Measured scenario duration.
    pub duration: SimDuration,
    /// Sampling interval for sync/outdegree time series.
    pub sample_every: SimDuration,
}

impl ResilienceConfig {
    /// The full-intensity stressor mix: lossy jittery links, a fifth of
    /// the reachable population stalled, 4× ADDR-flood amplification, and
    /// a connection flap every minute on average.
    pub fn paper_fault() -> FaultConfig {
        FaultConfig {
            drop_probability: 0.15,
            extra_delay_probability: 0.2,
            extra_delay_max: SimDuration::from_secs(5),
            stall_fraction: 0.2,
            addr_flood_factor: 4.0,
            connection_flap_interval: Some(SimDuration::from_secs(60)),
            ..FaultConfig::off()
        }
    }

    /// Default scaled scenario. Six cells cost roughly one ablation run,
    /// so the world is kept a notch smaller than the ablation's.
    pub fn scaled(seed: u64) -> Self {
        ResilienceConfig {
            seed,
            n_reachable: 80,
            n_malicious: 3,
            n_unreachable_full: 16,
            n_phantoms: 1_500,
            base_fault: Self::paper_fault(),
            intensities: vec![0.0, 0.5, 1.0],
            churn: ChurnConfig::paper_2020(),
            churn_speedup: 24.0,
            warmup: SimDuration::from_mins(30),
            duration: SimDuration::from_hours(6),
            sample_every: SimDuration::from_mins(15),
        }
    }

    /// Fast test variant.
    pub fn quick(seed: u64) -> Self {
        ResilienceConfig {
            n_reachable: 30,
            n_malicious: 2,
            n_unreachable_full: 6,
            n_phantoms: 500,
            intensities: vec![0.0, 1.0],
            churn_speedup: 48.0,
            warmup: SimDuration::from_mins(20),
            duration: SimDuration::from_hours(2),
            ..Self::scaled(seed)
        }
    }
}

/// One `(intensity, countermeasures)` cell's measured outcomes.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// Fault-plane intensity in `0..=1`.
    pub intensity: f64,
    /// Whether the countermeasure layer was enabled.
    pub countermeasures: bool,
    /// Mean synchronization fraction over honest online reachable nodes.
    pub mean_sync_fraction: f64,
    /// Worst sampled synchronization fraction.
    pub min_sync_fraction: f64,
    /// Time-averaged mean outbound connections per honest reachable node.
    pub mean_outdegree: f64,
    /// Outdegree stability: worst sample over the time-averaged mean
    /// (1.0 = perfectly steady).
    pub outdegree_stability: f64,
    /// Mean block relay delay at the instrumented node, seconds.
    pub mean_block_relay_secs: Option<f64>,
    /// Dials deferred by backoff/discouragement (`node.dial.retries`).
    pub dial_retries: u64,
    /// Peers discouraged-banned for misbehavior (`node.peer.banned`).
    pub peers_banned: u64,
    /// Stale-tip rescues: extra outbound slots opened
    /// (`node.staletip.rescues`).
    pub stale_rescues: u64,
    /// Wedged handshakes reaped (`node.handshake.timeouts`).
    pub handshake_timeouts: u64,
    /// Messages the fault plane dropped (`fault.messages_dropped`).
    pub faults_dropped: u64,
    /// Established links the fault plane severed
    /// (`fault.connection_flaps`).
    pub connection_flaps: u64,
}

impl ToJson for CellResult {
    fn to_json(&self) -> Value {
        Value::object()
            .with("intensity", self.intensity)
            .with("countermeasures", self.countermeasures)
            .with("mean_sync_fraction", self.mean_sync_fraction)
            .with("min_sync_fraction", self.min_sync_fraction)
            .with("mean_outdegree", self.mean_outdegree)
            .with("outdegree_stability", self.outdegree_stability)
            .with("mean_block_relay_secs", self.mean_block_relay_secs)
            .with("dial_retries", self.dial_retries)
            .with("peers_banned", self.peers_banned)
            .with("stale_rescues", self.stale_rescues)
            .with("handshake_timeouts", self.handshake_timeouts)
            .with("faults_dropped", self.faults_dropped)
            .with("connection_flaps", self.connection_flaps)
    }
}

/// The full sweep output: cells in `(intensity, countermeasures)` order,
/// countermeasures-off first within each intensity.
#[derive(Clone, Debug)]
pub struct ResilienceResult {
    /// One result per cell.
    pub cells: Vec<CellResult>,
}

impl ToJson for ResilienceResult {
    fn to_json(&self) -> Value {
        Value::object().with("cells", self.cells.iter().collect::<Vec<_>>())
    }
}

impl ResilienceResult {
    /// The §IV reference cell: zero intensity, countermeasures off.
    pub fn baseline(&self) -> &CellResult {
        &self.cells[0]
    }
}

/// The sweep's cells ([`sweep::grid`], switch label `cm`), each sampling
/// the honest synchronized fraction and outdegree.
pub fn cells(cfg: &ResilienceConfig) -> sweep::Grid<(f64, f64)> {
    let base = Cell {
        ctx: None,
        world: WorldConfig {
            n_reachable: cfg.n_reachable,
            n_malicious: cfg.n_malicious,
            n_unreachable_full: cfg.n_unreachable_full,
            n_phantoms: cfg.n_phantoms,
            churn: Some(cfg.churn.sped_up(cfg.churn_speedup)),
            ..sweep::mesh(cfg.seed)
        },
        warmup: cfg.warmup,
        duration: cfg.duration,
        every: cfg.sample_every,
        probe: |world| {
            let outdegree = world.mean_outdegree(NodeMeta::is_honest);
            (world.honest_sync_fraction(), outdegree)
        },
        convergence_grace: None,
    };
    sweep::grid(&base, &cfg.base_fault, &cfg.intensities, "cm")
}

/// One cell's result from its run.
pub fn assemble((intensity, countermeasures): (f64, bool), run: Run<(f64, f64)>) -> CellResult {
    let (sync_samples, outdegree_samples): (Vec<f64>, Vec<f64>) =
        run.samples.iter().copied().unzip();
    let (mean_sync_fraction, min_sync_fraction) = sweep::mean_min(&sync_samples);
    let (mean_outdegree, min_outdegree) = sweep::mean_min(&outdegree_samples);
    CellResult {
        intensity,
        countermeasures,
        mean_sync_fraction,
        min_sync_fraction: min_sync_fraction.min(1.0),
        mean_outdegree,
        outdegree_stability: if mean_outdegree > 0.0 {
            (min_outdegree / mean_outdegree).min(1.0)
        } else {
            0.0
        },
        mean_block_relay_secs: sweep::mean_block_relay_secs(&run.world),
        dial_retries: run.counter(metric::DIAL_RETRIES),
        peers_banned: run.counter(metric::PEER_BANNED),
        stale_rescues: run.counter(metric::STALETIP_RESCUES),
        handshake_timeouts: run.counter(metric::HANDSHAKE_TIMEOUTS),
        faults_dropped: run.counter(metric::FAULT_DROPPED),
        connection_flaps: run.counter(metric::FAULT_CONN_FLAPS),
    }
}

/// Runs the full sweep, all cells reporting into the one `ins`.
pub fn run(cfg: &ResilienceConfig, ins: &Instruments) -> ResilienceResult {
    let measure = |(key, cell): ((f64, bool), Cell<_>)| assemble(key, sweep::run(&cell, ins));
    let cells = cells(cfg).into_iter().map(measure).collect();
    ResilienceResult { cells }
}

/// Registry row for the resilience sweep.
pub const EXPERIMENT: Experiment = Experiment {
    name: "resilience",
    artifact: "resilience",
    paper_targets: &["§IV root causes as a fault plane × Core countermeasures"],
    run: |scale, seed, ins| {
        let cfg = match scale {
            Scale::Quick => ResilienceConfig::quick(seed),
            _ => ResilienceConfig::scaled(seed),
        };
        let r = run(&cfg, ins);
        (r.to_json(), crate::report::render_resilience(&r))
    },
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_all_cells_in_order() {
        let cfg = ResilienceConfig::quick(77);
        let r = run(&cfg, &Instruments::default());
        assert_eq!(r.cells.len(), cfg.intensities.len() * 2);
        assert_eq!(r.baseline().intensity, 0.0);
        assert!(!r.baseline().countermeasures);
        for c in &r.cells {
            assert!(c.mean_sync_fraction >= 0.0 && c.mean_sync_fraction <= 1.0);
            assert!(c.outdegree_stability >= 0.0 && c.outdegree_stability <= 1.0);
        }
    }

    /// Cells share one recorder, so each must report its own contribution:
    /// the per-cell counters add up to the recorder's totals, and a cell's
    /// numbers do not depend on what ran before it.
    #[test]
    fn counters_are_per_cell_deltas_of_the_shared_recorder() {
        let cfg = ResilienceConfig::quick(77);
        let (swept, ins) = sweep::check_per_cell_deltas(cells(&cfg), assemble);
        let total = |field: fn(&CellResult) -> u64| swept.iter().map(field).sum::<u64>();
        let recorded = |name| ins.metrics.counter(name);
        assert!(recorded(metric::FAULT_DROPPED) > 0, "fault plane inactive");
        assert_eq!(total(|c| c.dial_retries), recorded(metric::DIAL_RETRIES));
        assert_eq!(total(|c| c.peers_banned), recorded(metric::PEER_BANNED));
        assert_eq!(
            total(|c| c.stale_rescues),
            recorded(metric::STALETIP_RESCUES)
        );
        assert_eq!(
            total(|c| c.handshake_timeouts),
            recorded(metric::HANDSHAKE_TIMEOUTS)
        );
        assert_eq!(total(|c| c.faults_dropped), recorded(metric::FAULT_DROPPED));
        assert_eq!(
            total(|c| c.connection_flaps),
            recorded(metric::FAULT_CONN_FLAPS)
        );
    }

    fn cell_result(cfg: &ResilienceConfig, key: (f64, bool)) -> CellResult {
        let (_, cell) = cells(cfg)
            .into_iter()
            .find(|(k, _)| *k == key)
            .expect("cell");
        assemble(key, sweep::run(&cell, &Instruments::default()))
    }

    #[test]
    fn faults_fire_and_countermeasures_respond() {
        let cfg = ResilienceConfig::quick(78);
        let stressed_off = cell_result(&cfg, (1.0, false));
        let stressed_on = cell_result(&cfg, (1.0, true));
        assert!(stressed_off.faults_dropped > 0, "fault plane inactive");
        // One switch: off, no countermeasure acts at all.
        assert_eq!(stressed_off.dial_retries, 0);
        assert_eq!(stressed_off.peers_banned, 0);
        assert_eq!(stressed_off.handshake_timeouts, 0);
        assert_eq!(stressed_off.stale_rescues, 0);
        assert!(
            stressed_on.dial_retries > 0,
            "failed dials were never backed off"
        );
        assert!(
            stressed_on.peers_banned > 0,
            "flooders were never discouraged"
        );
        assert!(
            stressed_on.handshake_timeouts > 0,
            "stalled peers were never reaped"
        );
    }

    #[test]
    fn baseline_cell_outperforms_stressed_cell() {
        let cfg = ResilienceConfig::quick(79);
        let clean = cell_result(&cfg, (0.0, false));
        let stressed = cell_result(&cfg, (1.0, false));
        assert!(
            stressed.mean_sync_fraction <= clean.mean_sync_fraction,
            "faults did not hurt: {} vs {}",
            stressed.mean_sync_fraction,
            clean.mean_sync_fraction
        );
    }
}
