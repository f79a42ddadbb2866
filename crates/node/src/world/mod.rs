//! The event-driven world: owns the node population, delivers messages with
//! AS-level latency, resolves dials against ground truth, and drives churn,
//! mining, and transaction workloads.
//!
//! The world is the substitution for the live Bitcoin network the paper
//! measured: every experiment (connection stability, relay delay, sync
//! scenarios) is a configuration of [`World`]. This file holds the config,
//! the struct, its constructor and the one event loop; each mechanism the
//! paper separates is one private submodule, cut where `BENCHMARK.json`'s
//! per-layer metrics cut (DESIGN.md §2 has the file → mechanism → root
//! cause → metrics map).

mod chain;
mod delivery;
mod dial;
mod faults;
mod population;
mod sampling;

pub use bitsync_sim::fault::Fault;
pub use delivery::{RelayRecord, FRESH_RELAY_WINDOW, PUMP_INTERVAL};
pub use dial::{CONNECT_LOOP_INTERVAL, FEELER_INTERVAL};
pub use population::{ChurnEvent, NodeMeta};
pub use sampling::{metric, register_world_histograms};

use crate::config::{NodeConfig, MAX_OUTBOUND};
use crate::node::{Node, PumpBufs};
use crate::peer::NodeId;
use bitsync_chain::{Miner, TxGenerator};
use bitsync_net::churn::ChurnConfig;
use bitsync_net::latency::{LatencyConfig, LatencyModel};
use bitsync_protocol::addr::NetAddr;
use bitsync_protocol::hash::{Hash256, IdMap, IdSet};
use bitsync_protocol::message::Message;
use bitsync_sim::check::Checker;
use bitsync_sim::event::EventQueue;
use bitsync_sim::fault::{FaultConfig, FaultPlane};
use bitsync_sim::metrics::Recorder;
use bitsync_sim::rng::SimRng;
use bitsync_sim::time::{SimDuration, SimTime};
use bitsync_sim::timeseries::Sampler;
use bitsync_sim::trace::Tracer;
use bitsync_sim::Instruments;
use population::PhantomKind;

/// World construction parameters.
#[derive(Clone, Debug)]
pub struct WorldConfig {
    /// Master seed; everything else derives from it.
    pub seed: u64,
    /// Per-node behaviour.
    pub node_cfg: NodeConfig,
    /// Churn process, or `None` for a static network.
    pub churn: Option<ChurnConfig>,
    /// Reachable full nodes instantiated at start.
    pub n_reachable: usize,
    /// Unreachable (NAT'd) full nodes instantiated at start; they dial out
    /// but never accept inbound connections.
    pub n_unreachable_full: usize,
    /// Phantom unreachable addresses circulating in gossip (not
    /// instantiated; dials to them fail).
    pub n_phantoms: usize,
    /// Reachable addresses seeded into each node's addrman ("DNS seeds").
    pub seed_reachable: usize,
    /// Phantom addresses seeded into each node's addrman (prior gossip).
    pub seed_phantoms: usize,
    /// ADDR-flooding malicious nodes among the reachable set.
    pub n_malicious: usize,
    /// Expected block interval, or `None` to disable mining.
    pub block_interval: Option<SimDuration>,
    /// Network-wide transaction injection rate per second (0 = none).
    pub tx_rate: f64,
    /// Fraction of nodes that negotiate compact blocks.
    pub compact_fraction: f64,
    /// Mean initial-block-download time for brand-new arrivals (the paper:
    /// several days to fetch the chain). `None` disables IBD accounting.
    pub ibd_fresh_mean: Option<SimDuration>,
    /// Node to instrument for relay logging, by index into the initial
    /// reachable set.
    pub instrument: Option<usize>,
    /// When set, every established connection gets an exponential lifetime
    /// with this mean (link failures, peer restarts — the drop process
    /// behind Figure 6's instability). `None` = connections only drop with
    /// node departures.
    pub connection_mean_lifetime: Option<SimDuration>,
    /// Fraction of reachable nodes that never churn (the paper's
    /// always-online core; only meaningful when `churn` is set).
    pub permanent_fraction: f64,
    /// Fraction of nodes that persistently report a stale tip (pruned,
    /// stuck, or ancient clients in the real network). They participate in
    /// relay but never count as synchronized — the base unsynchronized
    /// level visible in Bitnodes data on top of the churn-driven part.
    pub laggard_fraction: f64,
    /// Fault-plane intensities ([`FaultConfig::off`] by default). The
    /// plane draws from its own salted random stream, so an inactive
    /// config leaves every other stream — and every golden snapshot —
    /// untouched.
    pub fault: FaultConfig,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            seed: 0,
            node_cfg: NodeConfig::bitcoin_core(),
            churn: None,
            n_reachable: 50,
            n_unreachable_full: 10,
            n_phantoms: 1000,
            seed_reachable: 32,
            seed_phantoms: 200,
            n_malicious: 0,
            block_interval: None,
            tx_rate: 0.0,
            compact_fraction: 0.7,
            ibd_fresh_mean: None,
            instrument: None,
            connection_mean_lifetime: None,
            permanent_fraction: 0.37,
            laggard_fraction: 0.0,
            fault: FaultConfig::off(),
        }
    }
}

/// World events.
#[derive(Clone, Debug)]
enum Ev {
    /// Run one pump round at a node.
    Pump(NodeId),
    /// Outbound-connection maintenance tick.
    ConnectTick(NodeId),
    /// Feeler-connection timer.
    Feeler(NodeId),
    /// A dial resolved.
    DialResult(dial::Dial),
    /// Message arrival.
    Deliver {
        from: NodeId,
        to: NodeId,
        msg: Message,
    },
    /// Mine a block at a random synced node.
    Mine,
    /// Inject a transaction at a random node.
    InjectTx,
    /// A node leaves the network.
    Depart(NodeId),
    /// A brand-new node joins.
    Arrive,
    /// A departed node comes back.
    RejoinNode(NodeId),
    /// A link failure drops an established connection.
    DropConn(NodeId, NodeId),
    /// Fault plane: sever one random established connection, then
    /// reschedule on the plane's exponential clock.
    ConnFlap,
    /// Fault plane: partition-flap schedule edge (`true` = apply a cut,
    /// `false` = heal it).
    PartitionFlap(bool),
    /// Resilience sweep at a node: handshake timeouts + stale-tip check.
    ResilienceTick(NodeId),
}

// The queue's heap sifts 16-byte keys and leaves each `Ev` in a slab entry
// of its own size; its same-instant lane moves `(time, seq)` with the `Ev`,
// one 64-byte cache line. A larger variant makes both move more.
const _: () = assert!(std::mem::size_of::<Ev>() <= 48);

/// The simulation world.
pub struct World {
    /// Configuration it was built from.
    pub cfg: WorldConfig,
    queue: EventQueue<Ev>,
    rng: SimRng,
    latency: LatencyModel,
    /// Node slots; `None` while offline.
    nodes: Vec<Option<Node>>,
    /// The per-node record, by node id (slot-aligned with `nodes`).
    pub meta: Vec<NodeMeta>,
    addr_index: IdMap<NetAddr, NodeId>,
    /// Phantom gossip addresses and their dial behaviour.
    phantoms: IdMap<NetAddr, (PhantomKind, u32)>,
    phantom_list: Vec<NetAddr>,
    /// Every address a reachable node ever had, in spawn order (the DNS
    /// seeds' deterministic sample).
    reachable_addr_list: Vec<NetAddr>,
    miner: Miner,
    txgen: TxGenerator,
    best_height: u64,
    /// Relay log of the instrumented node.
    pub relay_log: IdMap<Hash256, RelayRecord>,
    instrumented: Option<NodeId>,
    /// Churn history.
    pub churn_events: Vec<(SimTime, ChurnEvent)>,
    /// When set, a BGP-hijack partition is active: the listed ASes are cut
    /// off — messages and dials crossing the boundary fail (§IV-A1).
    hijacked_asns: Option<IdSet<u32>>,
    /// Used IPs, to keep generated arrival addresses unique.
    used_ips: IdSet<u32>,
    as_model: bitsync_net::AsModel,
    /// Metrics sink for the event loop and the node pump. Replaceable via
    /// [`World::attach_metrics`] so an experiment can aggregate several
    /// worlds into one recorder.
    pub metrics: Recorder,
    /// The pump and delivery counters of the current
    /// [`World::run_steps`], added to `metrics` when it returns.
    tallies: delivery::Tallies,
    /// What a pump round hands the world, empty between rounds; kept so
    /// no round allocates its buffers.
    pump_bufs: PumpBufs,
    /// Per-event trace sink, disabled by default. Replaceable via
    /// [`World::attach_tracer`]. The only handle a world holds: nodes
    /// hand what it records back in what [`Node::pump`] returns.
    pub tracer: Tracer,
    /// Invariant recorder, disabled by default and owned by this world.
    /// When an enabled one is installed (before running: its conservation
    /// ledger starts from that moment, so sends scheduled earlier would be
    /// seen as unmatched deliveries) the event loop checks time
    /// monotonicity, per-object send/delivery conservation, outdegree caps,
    /// addrman consistency and the peer tables' readiness bits after every
    /// event that can mutate them.
    /// Checks are read-only: an enabled checker never perturbs the
    /// simulation.
    pub checker: Checker,
    /// Time-series sampler, disabled by default. When enabled (via
    /// [`World::attach_sampler`]) [`World::run_until`] splits its run at
    /// tick boundaries and snapshots world gauges each tick. Sampling
    /// never perturbs the simulation or its report metrics: the event
    /// stream is identical and the split sub-runs sum/merge into the
    /// same counter and gauge values.
    pub sampler: Sampler,
    /// Next sampler tick, when a sampler with a cadence is attached.
    next_sample_at: Option<SimTime>,
    /// Events processed as of the previous sampler tick: the start of
    /// the window that the `events_w` gauge and the perf row both count.
    last_sample_events: u64,
    /// Active fault injection, if any (see [`Fault`]).
    fault: Option<Fault>,
    /// The live fault plane, present only when `cfg.fault` is active.
    fault_plane: Option<FaultPlane>,
    /// Deepest reorg observed anywhere, in disconnected blocks.
    max_reorg_depth: u64,
}

impl World {
    /// Builds and boots a world: generates the population, seeds address
    /// books, and schedules the initial timers.
    pub fn new(cfg: WorldConfig) -> Self {
        let mut rng = SimRng::seed_from(cfg.seed);
        let mut pop_rng = rng.fork("population");
        // Every world runs on the 2020 internet latency profile; no
        // experiment ever varied it.
        let latency = LatencyModel::new(
            LatencyConfig::internet_2020(),
            rng.fork("latency").next_u64(),
        );

        let queue = EventQueue::new();
        // The plane's stream is salted off the world seed inside
        // `FaultPlane::new`, so an inactive config changes no draw anywhere.
        let fault_plane = cfg
            .fault
            .is_active()
            .then(|| FaultPlane::new(cfg.fault.clone(), cfg.seed));
        let metrics = Recorder::new();
        register_world_histograms(&metrics);
        let mut world = World {
            queue,
            rng: rng.fork("world"),
            latency,
            nodes: Vec::new(),
            meta: Vec::new(),
            addr_index: IdMap::default(),
            phantoms: IdMap::default(),
            phantom_list: Vec::new(),
            reachable_addr_list: Vec::new(),
            miner: Miner::new(cfg.seed ^ 0xb10c, 10_000),
            txgen: TxGenerator::new(cfg.seed ^ 0x7c5),
            best_height: 0,
            relay_log: IdMap::default(),
            instrumented: cfg.instrument.map(|idx| NodeId(idx as u32)),
            churn_events: Vec::new(),
            hijacked_asns: None,
            used_ips: IdSet::default(),
            as_model: bitsync_net::AsModel::from_paper(),
            metrics,
            tallies: delivery::Tallies::default(),
            pump_bufs: PumpBufs::default(),
            tracer: Tracer::disabled(),
            checker: Checker::disabled(),
            sampler: Sampler::disabled(),
            next_sample_at: None,
            last_sample_events: 0,
            fault: None,
            fault_plane,
            max_reorg_depth: 0,
            cfg,
        };

        world.spawn_phantoms(&mut pop_rng);
        // Reachable nodes (some malicious), then unreachable full nodes.
        let n_reach = world.cfg.n_reachable;
        let n_unreach = world.cfg.n_unreachable_full;
        for i in 0..n_reach + n_unreach {
            let reachable = i < n_reach;
            let malicious = reachable && i >= n_reach.saturating_sub(world.cfg.n_malicious);
            world.spawn_node(reachable, malicious, &mut pop_rng);
        }
        // Seed address books and initial timers.
        for id in (0..world.nodes.len() as u32).map(NodeId) {
            world.seed_addrman(id, &mut pop_rng, true);
            world.boot_node(id, SimTime::ZERO, &mut pop_rng);
        }

        // Global processes.
        world.schedule_mine(SimTime::ZERO);
        world.schedule_tx(SimTime::ZERO);
        world.schedule_fault_flaps();
        world
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.queue.events_processed()
    }

    /// Points the world at an experiment-owned recorder. Metrics recorded
    /// before the switch stay on the old recorder, so attach before running.
    pub fn attach_metrics(&mut self, rec: Recorder) {
        register_world_histograms(&rec);
        self.metrics = rec;
    }

    /// Points the world at an experiment-owned tracer. Like
    /// [`World::attach_metrics`], attach before running: events are
    /// recorded only from this moment on.
    pub fn attach_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Points the world at a time-series sampler. Like
    /// [`World::attach_metrics`], attach before running: the first tick
    /// fires one interval after the current sim time, and this world's
    /// own perf window opens now. A disabled sampler costs one branch
    /// per [`World::run_until`] call and nothing else.
    pub fn attach_sampler(&mut self, sampler: &Sampler) {
        self.sampler = sampler.clone();
        self.next_sample_at = self.sampler.interval().map(|iv| self.now() + iv);
        self.last_sample_events = self.events_processed();
        self.sampler.open_perf_window();
    }

    /// Points the world at every handle of `ins` — the one line that
    /// instruments a world. Attach before running (see the three
    /// `attach_*` methods this is made of).
    pub fn attach(&mut self, ins: &Instruments) {
        self.attach_metrics(ins.metrics.clone());
        self.attach_tracer(ins.tracer.clone());
        self.attach_sampler(&ins.sampler);
    }

    /// Arms one of the two dispatch-rewiring bug injections
    /// ([`Fault::DuplicateDeliveries`], [`Fault::TimeWarpDeliveries`]) so
    /// the invariant layer provably catches it. Every other variant is
    /// configuration, not injection: a fault plane exists only when the
    /// world was built with an active [`WorldConfig::fault`] (stall
    /// assignment and flooder amplification happen at spawn), and
    /// [`Fault::BanReorgPeers`] is `resilience.ban_on_reorg` in the node
    /// config over a reorg-storm plane.
    pub fn inject_fault(&mut self, fault: Fault) {
        self.fault = Some(fault);
    }

    /// Shared access to a node (if online).
    pub fn node(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(id.0 as usize).and_then(|n| n.as_ref())
    }

    fn node_mut(&mut self, id: NodeId) -> Option<&mut Node> {
        self.nodes.get_mut(id.0 as usize).and_then(|n| n.as_mut())
    }

    /// The node behind a timer event, unless it is offline or — fault
    /// plane — its process is frozen: a stalled node pumps nothing (its
    /// queues just grow), opens no connections and probes nothing.
    fn running_node(&mut self, id: NodeId) -> Option<&mut Node> {
        if self.meta[id.0 as usize].stalled {
            return None;
        }
        self.node_mut(id)
    }

    /// Every online node with its record, in id order — the one walk
    /// behind the sync fractions, the producer and flap candidate lists,
    /// the convergence check and the sampler.
    fn online(&self) -> impl Iterator<Item = (NodeId, &NodeMeta, &Node)> + '_ {
        self.nodes
            .iter()
            .zip(&self.meta)
            .enumerate()
            .filter_map(|(i, (node, meta))| Some((NodeId(i as u32), meta, node.as_ref()?)))
    }

    /// Ids of all currently online nodes.
    pub fn online_ids(&self) -> Vec<NodeId> {
        self.online().map(|(id, ..)| id).collect()
    }

    /// Ground truth: is this address a (past or present) reachable node?
    /// The node index keeps every address it was given, so a departed
    /// node still answers.
    fn is_reachable_addr(&self, addr: &NetAddr) -> bool {
        self.addr_index
            .get(addr)
            .is_some_and(|id| self.meta[id.0 as usize].reachable)
    }

    // ------------------------------------------------------------------
    // The event loop
    // ------------------------------------------------------------------

    /// Runs the world until `deadline`, processing every event due before
    /// it. Returns the number of events processed.
    ///
    /// With a sampler attached the run is split at tick boundaries and a
    /// gauge snapshot is taken at each one. The split is invisible to
    /// everything else: the event stream is identical, the sub-runs'
    /// `sim.events_processed` increments sum to the unsplit value, and
    /// the queue-depth high-water marks merge (max) to the unsplit
    /// value — so report JSON is byte-identical with sampling on or off.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let mut total = 0u64;
        if let Some(iv) = self.sampler.interval() {
            while let Some(tick) = self.next_sample_at.filter(|&t| t <= deadline) {
                total += self.run_steps(u64::MAX, tick);
                self.take_sample(tick);
                self.next_sample_at = Some(tick + iv);
            }
        }
        total + self.run_steps(u64::MAX, deadline)
    }

    /// Runs for `d` beyond the current time.
    pub fn run_for(&mut self, d: SimDuration) -> u64 {
        let deadline = self.now() + d;
        self.run_until(deadline)
    }

    /// Runs until `deadline` or until `max_events` events have been
    /// processed, whichever comes first — the fuzzer's bounded runs, where
    /// a random scenario must terminate whatever feedback loops it
    /// contains. Returns the number of events processed. This is the one
    /// event-loop body ([`World::run_until`] runs it with no budget); it
    /// never samples.
    pub fn run_steps(&mut self, max_events: u64, deadline: SimTime) -> u64 {
        let start = self.queue.events_processed();
        let mut depth_hwm = 0usize;
        for _ in 0..max_events {
            let Some((now, ev)) = self.queue.pop_until(deadline) else {
                // Only a drained queue advances the clock to the deadline; a
                // run stopped by the step budget stays at its last event time.
                if self.queue.now() < deadline {
                    self.queue.advance_to(deadline);
                }
                break;
            };
            // +1: the popped event itself was still queued at this instant.
            depth_hwm = depth_hwm.max(self.queue.len() + 1);
            self.dispatch(now, ev);
        }
        let processed = self.queue.events_processed() - start;
        self.metrics.inc(metric::EVENTS_PROCESSED, processed);
        self.tallies.flush_into(&self.metrics);
        if depth_hwm > 0 {
            self.metrics
                .gauge_max(metric::QUEUE_DEPTH_HWM, depth_hwm as f64);
        }
        processed
    }

    fn dispatch(&mut self, now: SimTime, ev: Ev) {
        // TimeWarpDeliveries bug injection: relayable deliveries are
        // handled with a timestamp skewed one second into the past. The
        // queue itself stays monotone (identical across thread counts), so
        // the *only* harness that can catch this is the checker's clock
        // (`Checker::check_time`).
        let now = if self.fault == Some(Fault::TimeWarpDeliveries)
            && matches!(&ev, Ev::Deliver { msg, .. } if delivery::relay_key(msg).is_some())
        {
            SimTime::from_nanos(
                now.as_nanos()
                    .saturating_sub(SimDuration::from_secs(1).as_nanos()),
            )
        } else {
            now
        };
        let checking = self.checker.is_enabled();
        // Which node's tables this event can mutate; its reorgs are
        // drained (and its invariants checked) after the handler so both
        // see the post-event state. A delivery only enqueues, so it changes
        // no chain: its `Pump` observes what the message does. Only the
        // checker looks at the node after a delivery.
        let touched: Option<NodeId> = match &ev {
            Ev::Pump(id) | Ev::ConnectTick(id) | Ev::Feeler(id) | Ev::ResilienceTick(id) => {
                Some(*id)
            }
            Ev::DialResult(dial) => Some(dial.initiator),
            Ev::Deliver { to, .. } if checking => Some(*to),
            _ => None,
        };
        if checking {
            self.checker.check_time(now);
        }
        match ev {
            Ev::Pump(id) => self.on_pump(id, now),
            Ev::ConnectTick(id) => self.on_connect_tick(id, now),
            Ev::Feeler(id) => self.on_feeler(id, now),
            Ev::DialResult(dial) => self.on_dial_result(dial, now),
            Ev::Deliver { from, to, msg } => self.on_deliver(from, to, msg, now),
            Ev::Mine => self.on_mine(now),
            Ev::InjectTx => self.on_inject_tx(now),
            Ev::Depart(id) => self.on_depart(id, now),
            Ev::Arrive => self.on_arrive(now),
            Ev::RejoinNode(id) => self.on_rejoin(id, now),
            Ev::DropConn(a, b) => {
                if self.node(a).is_some_and(|n| n.peers.contains_key(&b)) {
                    self.disconnect_pair(a, b);
                }
            }
            Ev::ConnFlap => self.on_conn_flap(now),
            Ev::PartitionFlap(cut) => self.on_partition_flap(cut, now),
            Ev::ResilienceTick(id) => self.on_resilience_tick(id, now),
        }
        if let Some(id) = touched {
            self.observe_chain(id, now);
            if checking {
                self.check_node_invariants(id, now);
            }
        }
    }

    /// Post-event node checks: outdegree cap, addrman consistency, and the
    /// peer table's readiness bits. Skipped silently when the node went
    /// offline during the event.
    fn check_node_invariants(&mut self, id: NodeId, now: SimTime) {
        let Some(node) = self.nodes[id.0 as usize].as_ref() else {
            return;
        };
        let out = node.outbound_count();
        // The stale-tip countermeasure legitimately grants one slot above
        // the maximum while active.
        let cap = MAX_OUTBOUND + usize::from(node.cfg.resilience.countermeasures);
        self.checker.check(out <= cap, now, "outdegree_cap", || {
            format!("node {} holds {out} outbound connections > cap {cap}", id.0)
        });
        if let Err(msg) = node.addrman.try_check_invariants() {
            self.checker.fail(now, "addrman_consistency", || {
                format!("node {}: {msg}", id.0)
            });
        }
        // Nothing in a world writes a queue behind the table's back, so a
        // bit is set exactly while its queue holds mail (a push that
        // bypassed the table would leave a message the pump never visits).
        // Like the addrman check, only a failure is recorded.
        if let Err(msg) = node.peers.check_readiness() {
            self.checker
                .fail(now, "pump_readiness", || format!("node {}: {msg}", id.0));
        }
    }
}
