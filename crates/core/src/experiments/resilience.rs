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
use crate::experiments::sweep;
use bitsync_json::{ToJson, Value};
use bitsync_net::churn::ChurnConfig;
use bitsync_node::config::NodeConfig;
use bitsync_node::world::{metric, World, WorldConfig};
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
    let mut world = World::new(WorldConfig {
        seed: cfg.seed,
        node_cfg: if countermeasures {
            NodeConfig::resilient()
        } else {
            NodeConfig::bitcoin_core()
        },
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

    let deltas = sweep::counter_deltas(
        &ins.metrics,
        [
            metric::DIAL_RETRIES,
            metric::PEER_BANNED,
            metric::STALETIP_RESCUES,
            metric::HANDSHAKE_TIMEOUTS,
            metric::FAULT_DROPPED,
            metric::FAULT_CONN_FLAPS,
        ],
    );
    let (sync_samples, outdegree_samples): (Vec<f64>, Vec<f64>) = sweep::sample_run(
        &mut world,
        cfg.warmup,
        cfg.duration,
        cfg.sample_every,
        |w| (w.honest_sync_fraction(), honest_outdegree(w)),
    )
    .into_iter()
    .unzip();
    let [dial_retries, peers_banned, stale_rescues, handshake_timeouts, faults_dropped, connection_flaps] =
        deltas();

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
        mean_block_relay_secs: sweep::mean_block_relay_secs(&world),
        dial_retries,
        peers_banned,
        stale_rescues,
        handshake_timeouts,
        faults_dropped,
        connection_flaps,
    }
}

/// Runs the full sweep with the same seed in every cell, all reporting
/// into the one `ins`, cells in sweep order: each intensity in turn, off
/// before on.
pub fn run(cfg: &ResilienceConfig, ins: &Instruments) -> ResilienceResult {
    ResilienceResult {
        cells: sweep::grid(&cfg.intensities, |intensity, countermeasures| {
            run_cell(cfg, intensity, countermeasures, ins)
        }),
    }
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
        let ins = Instruments::default();
        let swept = run(&cfg, &ins);
        let total = |field: fn(&CellResult) -> u64| swept.cells.iter().map(field).sum::<u64>();
        let recorded = |name| ins.metrics.counter(name);
        assert!(recorded(metric::FAULT_DROPPED) > 0, "fault plane inactive");
        assert_eq!(total(|c| c.peers_banned), recorded(metric::PEER_BANNED));
        assert_eq!(
            total(|c| c.connection_flaps),
            recorded(metric::FAULT_CONN_FLAPS)
        );
        assert_eq!(total(|c| c.faults_dropped), recorded(metric::FAULT_DROPPED));

        let last = swept.cells.last().expect("cells");
        let alone = run_cell(
            &cfg,
            last.intensity,
            last.countermeasures,
            &Instruments::default(),
        );
        assert_eq!(alone.to_json().to_string(), last.to_json().to_string());
    }

    #[test]
    fn faults_fire_and_countermeasures_respond() {
        let cfg = ResilienceConfig::quick(78);
        let stressed_off = run_cell(&cfg, 1.0, false, &Instruments::default());
        let stressed_on = run_cell(&cfg, 1.0, true, &Instruments::default());
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
