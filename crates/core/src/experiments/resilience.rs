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
use bitsync_analysis::Summary;
use bitsync_json::{ToJson, Value};
use bitsync_net::churn::ChurnConfig;
use bitsync_node::config::{NodeConfig, ResilienceConfig as Countermeasures};
use bitsync_node::world::{metric, World, WorldConfig};
use bitsync_sim::fault::FaultConfig;
use bitsync_sim::time::{SimDuration, SimTime};
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
    /// Looks up one cell.
    pub fn cell(&self, intensity: f64, countermeasures: bool) -> &CellResult {
        self.cells
            .iter()
            .find(|c| c.intensity == intensity && c.countermeasures == countermeasures)
            .expect("cell present")
    }

    /// The §IV reference cell: zero intensity, countermeasures off.
    pub fn baseline(&self) -> &CellResult {
        &self.cells[0]
    }
}

/// Mean outbound degree over honest online reachable nodes.
fn honest_outdegree(world: &World) -> f64 {
    let mut total = 0usize;
    let mut online = 0usize;
    for id in world.online_ids() {
        if world.meta[id.0 as usize].is_honest() {
            online += 1;
            total += world.node(id).expect("online").outbound_count();
        }
    }
    if online == 0 {
        0.0
    } else {
        total as f64 / online as f64
    }
}

/// Runs one cell with its world reporting into `ins`; timeseries rows are
/// labelled with the cell (`i<intensity>/cm_{on,off}`).
pub fn run_cell(
    cfg: &ResilienceConfig,
    intensity: f64,
    countermeasures: bool,
    ins: &Instruments,
) -> CellResult {
    ins.sampler.set_ctx(Some(&format!(
        "i{intensity}/cm_{}",
        if countermeasures { "on" } else { "off" }
    )));
    let node_cfg = NodeConfig {
        resilience: if countermeasures {
            Countermeasures::bitcoin_core()
        } else {
            Countermeasures::off()
        },
        ..NodeConfig::bitcoin_core()
    };
    let mut world = World::new(WorldConfig {
        seed: cfg.seed,
        node_cfg,
        n_reachable: cfg.n_reachable,
        n_malicious: cfg.n_malicious,
        n_unreachable_full: cfg.n_unreachable_full,
        n_phantoms: cfg.n_phantoms,
        seed_phantoms: 200.min(cfg.n_phantoms),
        seed_reachable: 32,
        churn: Some(cfg.churn.sped_up(cfg.churn_speedup)),
        block_interval: Some(SimDuration::from_secs(600)),
        tx_rate: 0.2,
        ibd_fresh_mean: Some(SimDuration::from_mins(30)),
        instrument: Some(0),
        fault: cfg.base_fault.scaled(intensity),
        ..WorldConfig::default()
    });
    world.attach(ins);

    // Counter deltas: cells share the experiment recorder, so each cell's
    // contribution is the difference across its run.
    let count0 = |name: &str| ins.metrics.counter(name);
    let before = [
        count0(metric::DIAL_RETRIES),
        count0(metric::PEER_BANNED),
        count0(metric::STALETIP_RESCUES),
        count0(metric::HANDSHAKE_TIMEOUTS),
        count0(metric::FAULT_DROPPED),
        count0(metric::FAULT_CONN_FLAPS),
    ];

    world.run_until(SimTime::ZERO + cfg.warmup);
    let mut sync_samples = Vec::new();
    let mut outdegree_samples = Vec::new();
    let mut t = SimTime::ZERO + cfg.warmup;
    let end = t + cfg.duration;
    while t < end {
        t += cfg.sample_every;
        world.run_until(t);
        sync_samples.push(world.honest_sync_fraction());
        outdegree_samples.push(honest_outdegree(&world));
    }

    let after = [
        count0(metric::DIAL_RETRIES),
        count0(metric::PEER_BANNED),
        count0(metric::STALETIP_RESCUES),
        count0(metric::HANDSHAKE_TIMEOUTS),
        count0(metric::FAULT_DROPPED),
        count0(metric::FAULT_CONN_FLAPS),
    ];
    let delta = |i: usize| after[i] - before[i];

    let block_delays: Vec<f64> = world
        .relay_delays()
        .into_iter()
        .filter(|(is_block, _)| *is_block)
        .map(|(_, d)| d as f64)
        .collect();
    let sync = Summary::of(&sync_samples);
    let outdeg = Summary::of(&outdegree_samples);
    let mean_outdegree = outdeg.as_ref().map(|s| s.mean).unwrap_or(0.0);
    let min_outdegree = outdegree_samples
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    CellResult {
        intensity,
        countermeasures,
        mean_sync_fraction: sync.as_ref().map(|s| s.mean).unwrap_or(0.0),
        min_sync_fraction: sync_samples
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
            .min(1.0),
        mean_outdegree,
        outdegree_stability: if mean_outdegree > 0.0 {
            (min_outdegree / mean_outdegree).min(1.0)
        } else {
            0.0
        },
        mean_block_relay_secs: Summary::of(&block_delays).map(|s| s.mean),
        dial_retries: delta(0),
        peers_banned: delta(1),
        stale_rescues: delta(2),
        handshake_timeouts: delta(3),
        faults_dropped: delta(4),
        connection_flaps: delta(5),
    }
}

/// Runs the full sweep with the same seed in every cell, all reporting
/// into the one `ins`, cells in sweep order.
pub fn run(cfg: &ResilienceConfig, ins: &Instruments) -> ResilienceResult {
    let mut cells = Vec::new();
    for &intensity in &cfg.intensities {
        for countermeasures in [false, true] {
            cells.push(run_cell(cfg, intensity, countermeasures, ins));
        }
    }
    ResilienceResult { cells }
}

/// Registry entry for the resilience sweep.
#[derive(Default)]
pub struct ResilienceExperiment {
    cfg: Option<ResilienceConfig>,
    rendered: Option<String>,
}

impl Experiment for ResilienceExperiment {
    fn name(&self) -> &'static str {
        "resilience"
    }

    fn paper_targets(&self) -> &'static [&'static str] {
        &["§IV root causes as a fault plane × Core countermeasures"]
    }

    fn configure(&mut self, scale: Scale, seed: u64) {
        self.cfg = Some(match scale {
            Scale::Quick => ResilienceConfig::quick(seed),
            _ => ResilienceConfig::scaled(seed),
        });
    }

    fn run(&mut self, ins: &Instruments) -> Value {
        let cfg = self.cfg.as_ref().expect("configure() before run()");
        let r = run(cfg, ins);
        self.rendered = Some(crate::report::render_resilience(&r));
        r.to_json()
    }

    fn rendered(&self) -> Option<String> {
        self.rendered.clone()
    }
}

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

    #[test]
    fn faults_fire_and_countermeasures_respond() {
        let cfg = ResilienceConfig::quick(78);
        let stressed_off = run_cell(&cfg, 1.0, false, &Instruments::default());
        let stressed_on = run_cell(&cfg, 1.0, true, &Instruments::default());
        assert!(stressed_off.faults_dropped > 0, "fault plane inactive");
        assert_eq!(stressed_off.peers_banned, 0);
        assert_eq!(stressed_off.handshake_timeouts, 0);
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
        let clean = run_cell(&cfg, 0.0, false, &Instruments::default());
        let stressed = run_cell(&cfg, 1.0, false, &Instruments::default());
        assert!(
            stressed.mean_sync_fraction <= clean.mean_sync_fraction,
            "faults did not hurt: {} vs {}",
            stressed.mean_sync_fraction,
            clean.mean_sync_fraction
        );
    }
}
