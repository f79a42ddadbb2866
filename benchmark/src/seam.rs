//! The seam: every call from the benchmark into the workspace crates lives
//! in this file, so a refactor of `World`, the experiment configs or the
//! instrumentation handles meets the benchmark in exactly one place.
//! `README.md` lists the public items used here.
//!
//! Two halves: the four workloads (built from the experiments' public
//! configs and driven slice by slice so the harness can put a span around
//! every step), and — in [`probes`] — the per-layer micro-probes.

pub use bitsync_json::Value;

use bitsync_analysis::churn::{mean_synchronized_departures, Departure};
use bitsync_analysis::Summary;
use bitsync_core::experiments::ablation::{AblationConfig, AblationResult, Arm, ArmResult};
use bitsync_core::experiments::forkstress::{CellResult, ForkStressConfig, ForkStressResult};
use bitsync_core::experiments::relay::{RelayConfig, RelayResult};
use bitsync_core::experiments::sync_kde::{SyncScenarioConfig, Year, YearResult};
use bitsync_core::report;
use bitsync_json::ToJson;
use bitsync_net::churn::ChurnConfig;
use bitsync_node::config::{NodeConfig, ResilienceConfig};
use bitsync_node::world::{metric, ChurnEvent, World, WorldConfig};
use bitsync_node::NodeId;
use bitsync_sim::metrics::{peak_rss_bytes, Recorder};
use bitsync_sim::time::{SimDuration, SimTime};
use bitsync_sim::timeseries::Sampler;
use bitsync_sim::trace::{Tracer, DEFAULT_TRACE_CAP};

pub mod probes;

/// The four benchmark workloads (see `README.md` for why these four).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// §IV-C round-robin relay on the paper's forced 8-out/17-in star.
    RelayStar,
    /// §IV-B/D dialing, addrman, ADDR gossip and churn; no transactions.
    ChurnMesh,
    /// Gossip-mesh tx relay and churn/dial together (the ablation shape).
    MixedMesh,
    /// Four short fault-plane worlds with tracer and sampler enabled.
    FaultSweepObserved,
}

impl Workload {
    /// All workloads, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::RelayStar,
        Workload::ChurnMesh,
        Workload::MixedMesh,
        Workload::FaultSweepObserved,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RelayStar => "relay_star",
            Workload::ChurnMesh => "churn_mesh",
            Workload::MixedMesh => "mixed_mesh",
            Workload::FaultSweepObserved => "fault_sweep_observed",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Inputs for the layer probes, shaped by this workload: its measured
    /// queue depth, its transactions per block (tx rate × block interval)
    /// and its seeded addrman size (floored at 64 where nothing is seeded).
    pub fn probe_shape(self, seed: u64, queue_depth: u64) -> probes::Shape {
        let (block_txs, addrman_size) = match self {
            Workload::RelayStar => (420, 64),
            Workload::ChurnMesh => (0, 182),
            Workload::MixedMesh => (120, 232),
            Workload::FaultSweepObserved => (120, 232),
        };
        probes::Shape {
            seed,
            queue_depth: queue_depth as usize,
            block_txs,
            addrman_size,
        }
    }

    /// Whether this workload runs with the tracer and sampler enabled.
    pub fn observed(self) -> bool {
        self == Workload::FaultSweepObserved
    }
}

/// Simulated duration of one world: warm-up, then `duration` sampled every
/// `sample_every`, advanced in `slices_per_sample` equal slices per sample
/// so a run yields at least ~100 equal-sim-time spans.
#[derive(Clone, Copy, Debug)]
struct Plan {
    warmup: SimDuration,
    duration: SimDuration,
    sample_every: SimDuration,
    slices_per_sample: u64,
}

impl Plan {
    /// Population, rates and topology come from the experiments' public
    /// configs; only simulated durations are the benchmark's own (sized so
    /// one replay takes about two host seconds — see README "Workloads").
    /// `smoke` divides every duration by 20.
    fn of(workload: Workload, smoke: bool) -> Plan {
        let mins = SimDuration::from_mins;
        let secs = SimDuration::from_secs;
        let plan = match workload {
            Workload::RelayStar => Plan {
                warmup: SimDuration::ZERO,
                duration: secs(90),
                sample_every: secs(90),
                slices_per_sample: 100,
            },
            Workload::ChurnMesh => Plan {
                warmup: mins(40),
                duration: mins(120),
                sample_every: mins(10),
                slices_per_sample: 10,
            },
            Workload::MixedMesh => Plan {
                warmup: mins(3),
                duration: mins(10),
                sample_every: mins(10),
                slices_per_sample: 80,
            },
            Workload::FaultSweepObserved => Plan {
                warmup: mins(3),
                duration: mins(6),
                sample_every: mins(3),
                slices_per_sample: 10,
            },
        };
        if !smoke {
            return plan;
        }
        let cut = |d: SimDuration| secs(d.as_secs() / 20);
        Plan {
            warmup: cut(plan.warmup),
            duration: cut(plan.duration),
            sample_every: cut(plan.sample_every),
            slices_per_sample: plan.slices_per_sample.min(5),
        }
    }

    fn slice(&self) -> SimDuration {
        SimDuration::from_nanos(self.sample_every.as_nanos() / self.slices_per_sample)
    }
}

/// One step of an instance's schedule.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// `run_until(to)` on one world.
    Advance {
        cell: usize,
        to: SimTime,
        /// Take a sync-fraction sample after advancing.
        sample: bool,
        /// First step of this cell: label the sampler rows and take the
        /// counter baselines before advancing.
        first: bool,
    },
    /// Fault sweep only: end the faults and clock convergence.
    Converge { cell: usize },
}

/// What a step was, for span naming.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepKind {
    /// An equal-sim-time slice of `run_until`.
    Slice,
    /// `end_faults` + `check_convergence` (fault sweep only).
    Converge,
}

/// One world of an instance plus what its experiment accumulates on the way.
struct Cell {
    world: World,
    samples: Vec<f64>,
    intensity: f64,
    resilience: bool,
    counters_before: [u64; 5],
    convergence: Option<SimDuration>,
}

/// `relay_star` mines every 60 s, not the paper config's 600 s: a 600-s
/// block almost never falls inside a 90-sim-second window, and a window long
/// enough to hold one costs ~12 host seconds per replay. At 60 s (~420 txs
/// per block) block relay takes about the share of the run (a fifth) that it
/// has in the 6-hour `relay` experiment.
const RELAY_STAR_BLOCK_INTERVAL: SimDuration = SimDuration::from_secs(60);

const FAULT_COUNTERS: [&str; 5] = [
    metric::REORGS,
    metric::FAULT_COMPETING_BLOCKS,
    metric::FAULT_SOLO_BLOCKS,
    metric::PEER_BANNED,
    metric::FAULT_CONN_FLAPS,
];

/// A constructed workload: world(s) built and wired, nothing run yet.
pub struct Instance {
    workload: Workload,
    plan: Plan,
    cells: Vec<Cell>,
    steps: Vec<Step>,
    rec: Recorder,
    tracer: Tracer,
    sampler: Sampler,
}

/// The instance's final counts, read once at extraction.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    /// `sim.events_processed`.
    pub events: u64,
    /// `sim.queue_depth_hwm`.
    pub queue_depth_hwm: u64,
    /// `node.pump.rounds`.
    pub pump_rounds: u64,
    /// `node.pump.messages_flushed`.
    pub pump_flushed: u64,
    /// Pump rounds that flushed nothing (first bucket of the
    /// flushed-per-round histogram).
    pub pump_empty_rounds: u64,
    /// `node.messages_delivered`.
    pub delivered: u64,
    /// `chain.reorgs`.
    pub reorgs: u64,
    /// `fault.messages_dropped`.
    pub fault_dropped: u64,
}

/// The experiments' churn acceleration: lifetimes and gaps divided alike.
fn accelerated(mut churn: ChurnConfig, speedup: f64) -> ChurnConfig {
    churn.mean_lifetime = SimDuration::from_secs_f64(churn.mean_lifetime.as_secs_f64() / speedup);
    churn.mean_offline_gap =
        SimDuration::from_secs_f64(churn.mean_offline_gap.as_secs_f64() / speedup);
    churn
}

impl Instance {
    /// Builds the workload's world(s) for `seed` — the part `setup_s`
    /// times: `World::new`, `attach_*`, `force_connect`.
    pub fn build(workload: Workload, seed: u64, smoke: bool) -> Instance {
        let plan = Plan::of(workload, smoke);
        let rec = Recorder::new();
        let (tracer, sampler) = if workload.observed() {
            (
                Tracer::enabled(DEFAULT_TRACE_CAP),
                Sampler::enabled(SimDuration::from_secs(600)),
            )
        } else {
            (Tracer::disabled(), Sampler::disabled())
        };
        let wire = |cfg: WorldConfig| {
            let mut world = World::new(cfg);
            world.attach_metrics(rec.clone());
            world.attach_tracer(tracer.clone());
            world.attach_sampler(&sampler);
            world
        };
        let cell = |world: World, intensity: f64, resilience: bool| Cell {
            world,
            samples: Vec::new(),
            intensity,
            resilience,
            counters_before: [0; 5],
            convergence: None,
        };
        let cells = match workload {
            Workload::RelayStar => {
                // `relay::run_instrumented`'s forced star.
                let cfg = RelayConfig::paper(seed);
                let mut node_cfg = cfg.node_cfg.clone();
                node_cfg.upload_bandwidth = cfg.upload_bandwidth;
                let mut world = wire(WorldConfig {
                    seed,
                    node_cfg,
                    n_reachable: 1 + cfg.n_outbound + cfg.n_inbound,
                    n_unreachable_full: 0,
                    n_phantoms: 0,
                    seed_reachable: 0,
                    seed_phantoms: 0,
                    block_interval: Some(RELAY_STAR_BLOCK_INTERVAL),
                    tx_rate: cfg.tx_rate,
                    compact_fraction: cfg.compact_fraction,
                    instrument: Some(0),
                    ..WorldConfig::default()
                });
                let hub = NodeId(0);
                for i in 0..cfg.n_outbound {
                    world.force_connect(hub, NodeId(1 + i as u32));
                }
                for i in 0..cfg.n_inbound {
                    world.force_connect(NodeId(1 + (cfg.n_outbound + i) as u32), hub);
                }
                vec![cell(world, 0.0, false)]
            }
            Workload::ChurnMesh => {
                // `SyncScenarioConfig::world_config(Year::Y2020)`.
                let cfg = SyncScenarioConfig::scaled(seed);
                let ibd = SimDuration::from_secs_f64(
                    cfg.ibd_fresh_mean.as_secs_f64() / cfg.churn_speedup,
                );
                let world = wire(WorldConfig {
                    seed,
                    n_reachable: cfg.n_reachable,
                    n_unreachable_full: cfg.n_unreachable_full,
                    n_phantoms: 2_000,
                    seed_phantoms: 150,
                    seed_reachable: 32,
                    churn: Some(accelerated(Year::Y2020.churn(), cfg.churn_speedup)),
                    block_interval: Some(cfg.block_interval),
                    tx_rate: 0.0,
                    ibd_fresh_mean: Some(ibd),
                    permanent_fraction: 0.25,
                    laggard_fraction: cfg.laggard_fraction,
                    ..WorldConfig::default()
                });
                vec![cell(world, 0.0, false)]
            }
            Workload::MixedMesh => {
                // `ablation::run_arm_recorded(Arm::Baseline)`.
                let cfg = AblationConfig::scaled(seed);
                let world = wire(WorldConfig {
                    seed,
                    node_cfg: Arm::Baseline.node_config(),
                    n_reachable: cfg.n_reachable,
                    n_unreachable_full: cfg.n_reachable / 5,
                    n_phantoms: 3_000,
                    seed_phantoms: 200,
                    seed_reachable: 32,
                    churn: Some(accelerated(cfg.churn, cfg.churn_speedup)),
                    block_interval: Some(SimDuration::from_secs(600)),
                    tx_rate: 0.2,
                    ibd_fresh_mean: Some(SimDuration::from_mins(30)),
                    instrument: Some(0),
                    ..WorldConfig::default()
                });
                vec![cell(world, 0.0, false)]
            }
            Workload::FaultSweepObserved => {
                // `forkstress::run_cell_instrumented` for each sweep cell.
                let cfg = ForkStressConfig::quick(seed);
                let mut cells = Vec::new();
                for &intensity in &cfg.intensities {
                    for resilience in [false, true] {
                        let node_cfg = NodeConfig {
                            resilience: if resilience {
                                ResilienceConfig::bitcoin_core()
                            } else {
                                ResilienceConfig::off()
                            },
                            ..NodeConfig::bitcoin_core()
                        };
                        let world = wire(WorldConfig {
                            seed,
                            node_cfg,
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
                        cells.push(cell(world, intensity, resilience));
                    }
                }
                cells
            }
        };

        let mut steps = Vec::new();
        for c in 0..cells.len() {
            let slice = plan.slice();
            let mut t = SimTime::ZERO;
            let mut first = true;
            let mut push = |to: SimTime, sample: bool| {
                steps.push(Step::Advance {
                    cell: c,
                    to,
                    sample,
                    first: std::mem::take(&mut first),
                });
            };
            let warm_end = SimTime::ZERO + plan.warmup;
            while t + slice < warm_end {
                t += slice;
                push(t, false);
            }
            if plan.warmup > SimDuration::ZERO {
                t = warm_end;
                push(t, false);
            }
            let end = warm_end + plan.duration;
            let mut next_sample = warm_end + plan.sample_every;
            while t < end {
                let to = (t + slice).min(next_sample);
                let sample = to == next_sample;
                t = to;
                push(t, sample);
                if sample {
                    next_sample += plan.sample_every;
                }
            }
            if workload == Workload::FaultSweepObserved {
                steps.push(Step::Converge { cell: c });
            }
        }
        Instance {
            workload,
            plan,
            cells,
            steps,
            rec,
            tracer,
            sampler,
        }
    }

    /// Number of steps in the schedule.
    pub fn steps(&self) -> usize {
        self.steps.len()
    }

    /// Number of worlds this instance built.
    pub fn worlds(&self) -> usize {
        self.cells.len()
    }

    /// What step `i` of the schedule is.
    pub fn step_kind(&self, i: usize) -> StepKind {
        match self.steps[i] {
            Step::Advance { .. } => StepKind::Slice,
            Step::Converge { .. } => StepKind::Converge,
        }
    }

    /// Runs step `i` of the schedule.
    pub fn run_step(&mut self, i: usize) {
        match self.steps[i] {
            Step::Advance {
                cell,
                to,
                sample,
                first,
            } => {
                let observed = self.workload.observed();
                let c = &mut self.cells[cell];
                if first && observed {
                    self.sampler.set_ctx(Some(&format!(
                        "i{}/res_{}",
                        c.intensity,
                        if c.resilience { "on" } else { "off" }
                    )));
                    c.counters_before = FAULT_COUNTERS.map(|name| self.rec.counter(name));
                }
                c.world.run_until(to);
                if sample {
                    c.samples.push(if observed {
                        honest_sync_fraction(&c.world)
                    } else {
                        c.world.sync_fraction()
                    });
                }
            }
            Step::Converge { cell } => {
                let grace = ForkStressConfig::quick(0).convergence_grace;
                let c = &mut self.cells[cell];
                c.world.end_faults();
                c.convergence = c.world.check_convergence(grace);
            }
        }
    }

    /// `sim.events_processed` so far — the one count read at every span
    /// boundary.
    pub fn events(&self) -> u64 {
        self.rec.counter(metric::EVENTS_PROCESSED)
    }

    /// Cumulative counts so far, read from the shared [`Recorder`].
    fn counts(&self) -> Counts {
        let rec = &self.rec;
        Counts {
            events: rec.counter(metric::EVENTS_PROCESSED),
            queue_depth_hwm: rec.gauge(metric::QUEUE_DEPTH_HWM).unwrap_or(0.0) as u64,
            pump_rounds: rec.counter(metric::PUMP_ROUNDS),
            pump_flushed: rec.counter(metric::PUMP_FLUSHED),
            pump_empty_rounds: rec
                .histogram(metric::PUMP_FLUSHED_PER_ROUND)
                .and_then(|h| h.bucket_counts().first().copied())
                .unwrap_or(0),
            delivered: rec.counter(metric::MESSAGES_DELIVERED),
            reorgs: rec.counter(metric::REORGS),
            fault_dropped: rec.counter(metric::FAULT_DROPPED),
        }
    }

    /// Dial attempts and successes summed over online nodes' `NodeStats`.
    fn dial_stats(&self) -> (u64, u64) {
        let mut attempts = 0;
        let mut successes = 0;
        for c in &self.cells {
            for id in c.world.online_ids() {
                let node = c.world.node(id).expect("online");
                attempts += node.stats.attempts;
                successes += node.stats.successes;
            }
        }
        (attempts, successes)
    }

    /// What the experiment's own `run_*` computes after its last
    /// `run_until`: the typed result, plus the drained instrumentation logs.
    pub fn extract(self) -> Extracted {
        let counts = self.counts();
        let dial = self.dial_stats();
        let rec = &self.rec;
        let mut cells = self.cells;
        let outcome = match self.workload {
            Workload::RelayStar => {
                let world = &cells[0].world;
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
                Outcome::Relay(RelayResult {
                    block_delays,
                    tx_delays,
                })
            }
            Workload::ChurnMesh => {
                let c = cells.remove(0);
                let departures: Vec<Departure> = c
                    .world
                    .churn_events
                    .iter()
                    .filter_map(|(at, e)| match e {
                        ChurnEvent::Departed { synchronized, .. } => Some(Departure {
                            at_secs: at.as_secs(),
                            synchronized: *synchronized,
                        }),
                        _ => None,
                    })
                    .collect();
                let horizon = (self.plan.warmup + self.plan.duration).as_secs();
                Outcome::Churn(YearResult {
                    year: Year::Y2020,
                    summary: Summary::of(&c.samples).expect("non-empty samples"),
                    sync_samples: c.samples,
                    sync_departures_per_10min: mean_synchronized_departures(
                        &departures,
                        horizon,
                        600,
                    ),
                    total_departures: departures.len(),
                })
            }
            Workload::MixedMesh => {
                let c = &cells[0];
                let world = &c.world;
                let mut outdegree = 0usize;
                let mut reachable_online = 0usize;
                for id in world.online_ids() {
                    if world.meta[id.0 as usize].reachable {
                        outdegree += world.node(id).expect("online").outbound_count();
                        reachable_online += 1;
                    }
                }
                let block_delays: Vec<f64> = world
                    .relay_delays()
                    .into_iter()
                    .filter(|(is_block, _)| *is_block)
                    .map(|(_, d)| d as f64)
                    .collect();
                Outcome::Mixed(AblationResult {
                    arms: vec![ArmResult {
                        arm: Arm::Baseline,
                        connection_success_rate: if dial.0 == 0 {
                            0.0
                        } else {
                            dial.1 as f64 / dial.0 as f64
                        },
                        mean_outdegree: if reachable_online == 0 {
                            0.0
                        } else {
                            outdegree as f64 / reachable_online as f64
                        },
                        mean_block_relay_secs: Summary::of(&block_delays).map(|s| s.mean),
                        mean_sync_fraction: Summary::of(&c.samples).map(|s| s.mean).unwrap_or(0.0),
                    }],
                })
            }
            Workload::FaultSweepObserved => {
                // Cells share the recorder and run one after another, so a
                // cell's contribution ends where the next one's begins.
                let mut ends: Vec<[u64; 5]> =
                    cells.iter().skip(1).map(|c| c.counters_before).collect();
                ends.push(FAULT_COUNTERS.map(|name| rec.counter(name)));
                Outcome::Fault(ForkStressResult {
                    cells: cells
                        .iter()
                        .zip(ends)
                        .map(|(c, after)| {
                            let delta = |i: usize| after[i] - c.counters_before[i];
                            let sync = Summary::of(&c.samples);
                            CellResult {
                                intensity: c.intensity,
                                resilience: c.resilience,
                                mean_sync_fraction: sync.as_ref().map(|s| s.mean).unwrap_or(0.0),
                                min_sync_fraction: c
                                    .samples
                                    .iter()
                                    .copied()
                                    .fold(f64::INFINITY, f64::min)
                                    .min(1.0),
                                converged: c.convergence.is_some(),
                                convergence_secs: c.convergence.map(|d| d.as_secs_f64()),
                                max_fork_depth: c.world.max_reorg_depth(),
                                reorgs: delta(0),
                                competing_blocks: delta(1),
                                solo_blocks: delta(2),
                                peers_banned: delta(3),
                                connection_flaps: delta(4),
                            }
                        })
                        .collect(),
                })
            }
        };
        let trace = self.tracer.take();
        let timeseries = self.sampler.take();
        Extracted {
            outcome,
            counts,
            dial,
            trace_recorded: trace.as_ref().map_or(0, |t| t.total_events()),
            trace_dropped: trace.as_ref().map_or(0, |t| t.total_dropped()),
            timeseries_rows: timeseries.as_ref().map_or(0, |t| t.len() as u64),
        }
    }
}

/// `forkstress`'s private honest-population sync metric.
fn honest_sync_fraction(world: &World) -> f64 {
    let mut online = 0usize;
    let mut synced = 0usize;
    for id in world.online_ids() {
        let m = &world.meta[id.0 as usize];
        if m.reachable && !m.stalled && !m.malicious {
            online += 1;
            if world.is_synchronized(id) {
                synced += 1;
            }
        }
    }
    if online == 0 {
        0.0
    } else {
        synced as f64 / online as f64
    }
}

/// The typed result of one workload run.
pub enum Outcome {
    /// `relay_star`.
    Relay(RelayResult),
    /// `churn_mesh`.
    Churn(YearResult),
    /// `mixed_mesh`.
    Mixed(AblationResult),
    /// `fault_sweep_observed`.
    Fault(ForkStressResult),
}

/// Everything [`Instance::extract`] hands back.
pub struct Extracted {
    /// The experiment result.
    pub outcome: Outcome,
    /// Final cumulative counts.
    pub counts: Counts,
    /// Dial `(attempts, successes)` over nodes online at the end.
    pub dial: (u64, u64),
    /// Events retained plus dropped by the `TraceLog` rings.
    pub trace_recorded: u64,
    /// Events the `TraceLog` rings dropped.
    pub trace_dropped: u64,
    /// Rows in the `TimeseriesLog`.
    pub timeseries_rows: u64,
}

impl Outcome {
    /// What a `repro --json` user gets: the result's pretty-printed JSON
    /// followed by the paper-style text table where one exists.
    pub fn render(&self) -> String {
        let (json, text) = match self {
            Outcome::Relay(r) => (r.to_json(), report::render_fig10_11(r)),
            Outcome::Churn(r) => (r.to_json(), String::new()),
            Outcome::Mixed(r) => (r.to_json(), report::render_ablation(r)),
            Outcome::Fault(r) => (r.to_json(), report::render_forkstress(r)),
        };
        let mut out = json.to_string_pretty();
        out.push('\n');
        out.push_str(&text);
        out
    }

    /// Shape predicates: properties every seed must satisfy, named so a
    /// failure says what broke.
    pub fn shape_checks(&self) -> Vec<(&'static str, bool)> {
        match self {
            // Delays are whole seconds. At 60-s blocks of ~420 transactions
            // a block is relayed faster than the paper's 4 000-tx ones, so
            // the paper's "blocks slower than transactions" is not asserted.
            Outcome::Relay(r) => vec![
                ("tx_delays_non_empty", !r.tx_delays.is_empty()),
                (
                    "tx_mean_below_5s",
                    r.tx_summary().is_some_and(|t| t.mean < 5.0),
                ),
                (
                    "block_delays_at_most_60s",
                    r.block_delays.iter().all(|&d| d <= 60),
                ),
            ],
            Outcome::Churn(r) => vec![(
                "mean_sync_in_0.3_0.95",
                r.summary.mean > 0.3 && r.summary.mean < 0.95,
            )],
            Outcome::Mixed(r) => {
                let arm = &r.arms[0];
                vec![
                    ("mean_sync_gt_0.5", arm.mean_sync_fraction > 0.5),
                    (
                        "success_rate_in_0_1",
                        arm.connection_success_rate > 0.0 && arm.connection_success_rate < 1.0,
                    ),
                ]
            }
            Outcome::Fault(r) => vec![
                ("four_cells", r.cells.len() == 4),
                (
                    "calm_cells_converged",
                    r.cells
                        .iter()
                        .filter(|c| c.intensity == 0.0)
                        .all(|c| c.converged),
                ),
            ],
        }
    }
}

/// SHA-256 over the rendered result and the event count, as lowercase hex.
pub fn digest(rendered: &str, events: u64) -> String {
    let mut h = bitsync_crypto::Sha256::new();
    h.update(rendered.as_bytes());
    h.update(&events.to_le_bytes());
    h.finalize().iter().map(|b| format!("{b:02x}")).collect()
}

/// The probe of the event-queue backend worlds are built on by default.
pub fn default_queue_probe() -> &'static str {
    match bitsync_sim::event::default_backend() {
        bitsync_sim::event::Backend::Wheel => "sim.event.wheel_churn_ns",
        bitsync_sim::event::Backend::Heap => "sim.event.heap_churn_ns",
    }
}

/// The process's peak resident set in MiB (`VmHWM`), if `/proc` has it.
pub fn peak_rss_mib() -> Option<f64> {
    peak_rss_bytes().map(|b| b as f64 / (1024.0 * 1024.0))
}
