//! The event-driven world: owns the node population, delivers messages with
//! AS-level latency, resolves dials against ground truth, and drives churn,
//! mining, and transaction workloads.
//!
//! The world is the substitution for the live Bitcoin network the paper
//! measured: every experiment (connection stability, relay delay, sync
//! scenarios) is a configuration of this struct.

use crate::config::NodeConfig;
use crate::malicious::{AddrFlooder, FloodScale};
use crate::node::{unix_time, Node, NodeRequest, Outgoing};
use crate::peer::{Direction, NodeId};
use bitsync_chain::{Miner, TxGenerator};
use bitsync_net::churn::{ChurnConfig, ChurnModel, Rejoin};
use bitsync_net::latency::{LatencyConfig, LatencyModel};
use bitsync_protocol::addr::{NetAddr, DEFAULT_PORT};
use bitsync_protocol::hash::Hash256;
use bitsync_protocol::message::Message;
use bitsync_sim::check::{Checker, MonotoneClock, ObjectLedger};
use bitsync_sim::event::{Backend, EventQueue};
use bitsync_sim::fault::{FaultConfig, FaultPlane, LinkAction};
use bitsync_sim::metrics::{Recorder, DEFAULT_BUCKETS};
use bitsync_sim::rng::SimRng;
use bitsync_sim::time::{SimDuration, SimTime};
use bitsync_sim::timeseries::Sampler;
use bitsync_sim::trace::{self, Tracer};
use bitsync_sim::Instruments;
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;

/// What a dialed (non-instantiated) address does when probed — ground truth
/// for phantom entries in the gossip mesh.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PhantomKind {
    /// Refuses quickly with a FIN (unreachable but running Bitcoin).
    Responsive,
    /// Drops the SYN: the dialer burns the full connect timeout.
    Silent,
}

/// World construction parameters.
#[derive(Clone, Debug)]
pub struct WorldConfig {
    /// Master seed; everything else derives from it.
    pub seed: u64,
    /// Per-node behaviour.
    pub node_cfg: NodeConfig,
    /// Latency model parameters.
    pub latency: LatencyConfig,
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
    /// Fraction of phantoms that are [`PhantomKind::Responsive`].
    pub phantom_responsive_fraction: f64,
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
    /// Mean resynchronization time for rejoining nodes (paper: 11 min 14 s
    /// measured for a restarted node).
    pub ibd_rejoin_mean: SimDuration,
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
    /// Event-queue backend for this world, or `None` for the process
    /// default. Differential harnesses (the scenario fuzzer) run the same
    /// config on [`Backend::Wheel`] and [`Backend::Heap`] without touching
    /// the process-wide default.
    pub backend: Option<Backend>,
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
            latency: LatencyConfig::internet_2020(),
            churn: None,
            n_reachable: 50,
            n_unreachable_full: 10,
            n_phantoms: 1000,
            phantom_responsive_fraction: 0.277,
            seed_reachable: 32,
            seed_phantoms: 200,
            n_malicious: 0,
            block_interval: None,
            tx_rate: 0.0,
            compact_fraction: 0.7,
            ibd_fresh_mean: None,
            ibd_rejoin_mean: SimDuration::from_secs(674), // 11 min 14 s
            instrument: None,
            connection_mean_lifetime: None,
            permanent_fraction: 0.37,
            laggard_fraction: 0.0,
            backend: None,
            fault: FaultConfig::off(),
        }
    }
}

/// Per-node world metadata.
#[derive(Clone, Debug)]
pub struct NodeMeta {
    /// The node's endpoint.
    pub addr: NetAddr,
    /// Hosting AS.
    pub asn: u32,
    /// Whether the node accepts inbound connections.
    pub reachable: bool,
    /// Whether churn may remove it.
    pub permanent: bool,
    /// Whether it is an ADDR flooder.
    pub malicious: bool,
    /// IBD accounting: the node counts as synchronized only after this.
    pub ibd_until: SimTime,
    /// Whether the node is currently online.
    pub online: bool,
    /// Fault plane: the node accepts TCP connections but never processes
    /// messages, wedging its peers' handshakes (persists across rejoins).
    pub stalled: bool,
}

impl NodeMeta {
    /// Whether the node counts toward the honest-population metrics (sync
    /// fraction, outdegree, convergence): reachable, not spawned stalled,
    /// not an ADDR flooder.
    pub fn is_honest(&self) -> bool {
        self.reachable && !self.stalled && !self.malicious
    }
}

/// Sends later than this after first receipt are initial-block-download
/// serving (a `GETDATA` answer for an old object), not relay of fresh
/// inventory, and are excluded from the Figures 10/11 accounting.
pub const FRESH_RELAY_WINDOW: SimDuration = SimDuration::from_secs(120);

/// One relayed object's timing at the instrumented node (Figures 10/11).
#[derive(Clone, Copy, Debug)]
pub struct RelayRecord {
    /// When the instrumented node first received (or produced) the object.
    pub received: SimTime,
    /// When the last send of the object finished on the socket.
    pub last_sent: Option<SimTime>,
    /// Number of peers it was sent to.
    pub sends: u32,
    /// Block (`true`) or transaction (`false`).
    pub is_block: bool,
}

impl RelayRecord {
    /// The relay delay in whole seconds, quantized the way the paper read
    /// `debug.log` (1-second granularity).
    pub fn delay_secs(&self) -> Option<u64> {
        self.last_sent.map(|s| {
            s.quantize_secs()
                .saturating_since(self.received.quantize_secs())
                .as_secs()
        })
    }
}

/// Per-sender ADDR statistics, ground-truth classified (the §IV-B census
/// and the Figure 8 malicious-peer detection input).
#[derive(Clone, Copy, Debug, Default)]
pub struct AddrSenderStats {
    /// Total ADDR entries this node sent.
    pub total: u64,
    /// Entries whose address belongs to the reachable ground-truth set.
    pub reachable: u64,
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
    /// A dial resolved. `refused` distinguishes a fast refusal (RST/FIN —
    /// somebody answered) from a blackholed timeout; the dial backoff
    /// countermeasure treats them very differently.
    DialResult {
        initiator: NodeId,
        target: NetAddr,
        dir: Direction,
        ok: bool,
        refused: bool,
    },
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

pub use bitsync_sim::fault::Fault;

/// A churn event recorded for analysis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnEvent {
    /// Node went offline. The flag reports whether it was synchronized at
    /// departure (the §IV-D metric).
    Departed {
        /// Which node.
        node: NodeId,
        /// Whether its chain was at the best height and out of IBD.
        synchronized: bool,
    },
    /// Node came online (fresh arrival or rejoin).
    Joined {
        /// Which node.
        node: NodeId,
        /// Whether this was a rejoin of a previously seen address.
        rejoin: bool,
    },
}

/// The simulation world.
pub struct World {
    /// Configuration it was built from.
    pub cfg: WorldConfig,
    queue: EventQueue<Ev>,
    rng: SimRng,
    latency: LatencyModel,
    churn: Option<ChurnModel>,
    /// Node slots; `None` while offline.
    nodes: Vec<Option<Node>>,
    /// Static metadata per node id.
    pub meta: Vec<NodeMeta>,
    addr_index: HashMap<NetAddr, NodeId>,
    /// Phantom gossip addresses and their dial behaviour.
    phantoms: HashMap<NetAddr, (PhantomKind, u32)>,
    phantom_list: Vec<NetAddr>,
    /// Ground-truth set of reachable addresses (for the ADDR census).
    reachable_addrs: HashSet<NetAddr>,
    /// Same addresses as an ordered list (deterministic sampling).
    reachable_addr_list: Vec<NetAddr>,
    /// Whether a pump event is already scheduled per node.
    pump_scheduled: Vec<bool>,
    connect_scheduled: Vec<bool>,
    /// Whether a resilience-tick chain is live per node (survives
    /// depart/rejoin cycles without double-scheduling).
    resilience_scheduled: Vec<bool>,
    miner: Miner,
    txgen: TxGenerator,
    best_height: u64,
    /// Relay log of the instrumented node.
    pub relay_log: HashMap<Hash256, RelayRecord>,
    instrumented: Option<NodeId>,
    /// ADDR census per sender.
    pub addr_senders: HashMap<NodeId, AddrSenderStats>,
    /// Churn history.
    pub churn_events: Vec<(SimTime, ChurnEvent)>,
    /// Stashed address managers of departed nodes: a rejoining node keeps
    /// its `peers.dat`, exactly as Bitcoin Core does across restarts.
    stashed_addrman: HashMap<NodeId, bitsync_addrman::AddrMan>,
    /// When set, a BGP-hijack partition is active: the listed ASes are cut
    /// off — messages and dials crossing the boundary fail (§IV-A1).
    hijacked_asns: Option<HashSet<u32>>,
    /// Used IPs, to keep generated arrival addresses unique.
    used_ips: HashSet<u32>,
    as_model: bitsync_net::AsModel,
    /// Metrics sink for the event loop and the node pump. Replaceable via
    /// [`World::attach_metrics`] so an experiment can aggregate several
    /// worlds into one recorder.
    pub metrics: Recorder,
    /// Per-event trace sink, disabled by default. Replaceable via
    /// [`World::attach_tracer`]; the handle is also cloned into every node
    /// so the pump can trace without going through the world.
    pub tracer: Tracer,
    /// Invariant recorder, disabled by default. When enabled (via
    /// [`World::attach_checker`]) the event loop checks time monotonicity,
    /// per-object send/delivery conservation, outdegree caps, and addrman
    /// consistency after every event that can mutate them. Checks are
    /// read-only: an enabled checker never perturbs the simulation.
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
    /// Events processed as of the previous sampler tick (for the
    /// per-window event count).
    last_sample_events: u64,
    /// Active fault injection, if any (see [`Fault`]).
    fault: Option<Fault>,
    /// The live fault plane, present only when `cfg.fault` is active.
    fault_plane: Option<FaultPlane>,
    /// Send/delivery conservation ledger (maintained only while the
    /// checker is enabled).
    ledger: ObjectLedger,
    /// Event-loop timestamp monotonicity witness.
    clock: MonotoneClock,
    /// Last observed chain height per node slot, for the
    /// `height_regression` invariant (reset when a slot rejoins with a
    /// fresh chain).
    last_heights: Vec<u64>,
    /// Deepest reorg observed anywhere, in disconnected blocks.
    max_reorg_depth: u64,
}

/// Canonical metric names the world reports into its [`Recorder`].
pub mod metric {
    /// Events drained from the simulation queue (counter).
    pub const EVENTS_PROCESSED: &str = "sim.events_processed";
    /// High-water mark of the event-queue depth (gauge).
    pub const QUEUE_DEPTH_HWM: &str = "sim.queue_depth_hwm";
    /// Round-robin pump invocations across all nodes (counter).
    pub const PUMP_ROUNDS: &str = "node.pump.rounds";
    /// Messages flushed onto sockets by the pump (counter).
    pub const PUMP_FLUSHED: &str = "node.pump.messages_flushed";
    /// Messages flushed per pump round (histogram, count buckets).
    pub const PUMP_FLUSHED_PER_ROUND: &str = "node.pump.flushed_per_round";
    /// Per-send relay delay of the instrumented node, seconds (histogram).
    pub const RELAY_DELAY: &str = "node.relay_delay_secs";
    /// Messages delivered over simulated links (counter).
    pub const MESSAGES_DELIVERED: &str = "node.messages_delivered";
    /// Dials deferred by per-address backoff or discouragement (counter).
    pub const DIAL_RETRIES: &str = "node.dial.retries";
    /// Peers banned for crossing the misbehavior threshold (counter).
    pub const PEER_BANNED: &str = "node.peer.banned";
    /// Stale-tip episodes that triggered an extra outbound dial (counter).
    pub const STALETIP_RESCUES: &str = "node.staletip.rescues";
    /// Handshakes aborted by the resilience timeout (counter).
    pub const HANDSHAKE_TIMEOUTS: &str = "node.handshake.timeouts";
    /// Messages dropped by the fault plane (counter).
    pub const FAULT_DROPPED: &str = "fault.messages_dropped";
    /// Messages given extra delay or reorder jitter by the fault plane
    /// (counter).
    pub const FAULT_DELAYED: &str = "fault.messages_delayed";
    /// Connections severed by fault-plane flaps (counter).
    pub const FAULT_CONN_FLAPS: &str = "fault.connection_flaps";
    /// Partition cuts applied by the fault-plane schedule (counter).
    pub const FAULT_PARTITION_FLAPS: &str = "fault.partition_flaps";
    /// Chain reorganizations observed across all nodes (counter).
    pub const REORGS: &str = "chain.reorgs";
    /// Deepest reorg observed, in disconnected blocks (gauge).
    pub const REORG_DEPTH_MAX: &str = "chain.reorg_depth_max";
    /// Sibling blocks minted by the competing-miner fault channel
    /// (counter).
    pub const FAULT_COMPETING_BLOCKS: &str = "fault.competing_blocks";
    /// Stale-tip blocks minted by the solo-miner fault channel (counter).
    pub const FAULT_SOLO_BLOCKS: &str = "fault.solo_blocks";
}

/// Message-count buckets for [`metric::PUMP_FLUSHED_PER_ROUND`].
const PUMP_FLUSH_BUCKETS: [f64; 9] = [0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];

/// Registers the world's histograms on `rec` with their canonical buckets.
///
/// Called by [`World::new`] and [`World::attach_metrics`]; experiments that
/// pre-build a recorder never need to call it directly.
pub fn register_world_histograms(rec: &Recorder) {
    rec.register_histogram(metric::PUMP_FLUSHED_PER_ROUND, &PUMP_FLUSH_BUCKETS);
    rec.register_histogram(metric::RELAY_DELAY, &DEFAULT_BUCKETS);
}

fn new_world_recorder() -> Recorder {
    let rec = Recorder::new();
    register_world_histograms(&rec);
    rec
}

/// The relayable object a message carries: `(hash, is_block)` for block,
/// compact-block, and transaction payloads; `None` for everything else.
fn relay_key(msg: &Message) -> Option<(Hash256, bool)> {
    match msg {
        Message::Block(b) => Some((b.block_hash(), true)),
        Message::CmpctBlock(cb) => Some((cb.block_hash(), true)),
        Message::Tx(tx) => Some((tx.txid(), false)),
        _ => None,
    }
}

impl World {
    /// Builds and boots a world: generates the population, seeds address
    /// books, and schedules the initial timers.
    pub fn new(cfg: WorldConfig) -> Self {
        let mut rng = SimRng::seed_from(cfg.seed);
        let mut pop_rng = rng.fork("population");
        let latency = LatencyModel::new(cfg.latency, rng.fork("latency").next_u64());
        let churn = cfg.churn.map(ChurnModel::new);
        let as_model = bitsync_net::AsModel::from_paper();

        let queue = match cfg.backend {
            Some(backend) => EventQueue::with_backend(backend),
            None => EventQueue::new(),
        };
        // The plane's stream is salted off the world seed inside
        // `FaultPlane::new`, so an inactive config changes no draw anywhere.
        let fault_plane = cfg
            .fault
            .is_active()
            .then(|| FaultPlane::new(cfg.fault.clone(), cfg.seed));
        let mut world = World {
            queue,
            rng: rng.fork("world"),
            latency,
            churn,
            nodes: Vec::new(),
            meta: Vec::new(),
            addr_index: HashMap::new(),
            phantoms: HashMap::new(),
            phantom_list: Vec::new(),
            reachable_addrs: HashSet::new(),
            reachable_addr_list: Vec::new(),
            pump_scheduled: Vec::new(),
            connect_scheduled: Vec::new(),
            resilience_scheduled: Vec::new(),
            miner: Miner::new(cfg.seed ^ 0xb10c, 10_000),
            txgen: TxGenerator::new(cfg.seed ^ 0x7c5),
            best_height: 0,
            relay_log: HashMap::new(),
            instrumented: None,
            addr_senders: HashMap::new(),
            churn_events: Vec::new(),
            stashed_addrman: HashMap::new(),
            hijacked_asns: None,
            used_ips: HashSet::new(),
            as_model,
            metrics: new_world_recorder(),
            tracer: Tracer::disabled(),
            checker: Checker::disabled(),
            sampler: Sampler::disabled(),
            next_sample_at: None,
            last_sample_events: 0,
            fault: None,
            fault_plane,
            ledger: ObjectLedger::new(),
            clock: MonotoneClock::new(),
            last_heights: Vec::new(),
            max_reorg_depth: 0,
            cfg,
        };

        // Phantom gossip addresses.
        for _ in 0..world.cfg.n_phantoms {
            let addr = world.fresh_address(&mut pop_rng);
            let kind = if pop_rng.chance(world.cfg.phantom_responsive_fraction) {
                PhantomKind::Responsive
            } else {
                PhantomKind::Silent
            };
            let class = match kind {
                PhantomKind::Responsive => bitsync_net::NodeClass::UnreachableResponsive,
                PhantomKind::Silent => bitsync_net::NodeClass::UnreachableSilent,
            };
            let asn = world.as_model.sample(class, &mut pop_rng);
            world.phantoms.insert(addr, (kind, asn));
            world.phantom_list.push(addr);
        }

        // Reachable nodes (some malicious), then unreachable full nodes.
        let n_reach = world.cfg.n_reachable;
        let n_unreach = world.cfg.n_unreachable_full;
        for i in 0..n_reach + n_unreach {
            let reachable = i < n_reach;
            let malicious = reachable && i >= n_reach.saturating_sub(world.cfg.n_malicious);
            world.spawn_node(reachable, malicious, &mut pop_rng);
        }
        if let Some(idx) = world.cfg.instrument {
            world.instrumented = Some(NodeId(idx as u32));
        }

        // Seed address books and initial timers.
        for id in 0..world.nodes.len() {
            world.seed_addrman(NodeId(id as u32), &mut pop_rng);
            world.boot_node(NodeId(id as u32), SimTime::ZERO, &mut pop_rng);
        }

        // Global processes.
        if world.cfg.block_interval.is_some() {
            world.schedule_mine(SimTime::ZERO);
        }
        if world.cfg.tx_rate > 0.0 {
            world.schedule_tx(SimTime::ZERO);
        }
        // Fault-plane schedules.
        world.schedule_conn_flap(SimTime::ZERO);
        if let Some(pf) = world
            .fault_plane
            .as_ref()
            .and_then(|p| p.cfg.partition_flap)
        {
            world
                .queue
                .schedule(SimTime::ZERO + pf.period, Ev::PartitionFlap(true));
        }
        world
    }

    fn fresh_address(&mut self, rng: &mut SimRng) -> NetAddr {
        let ip = loop {
            let candidate = rng.below(0xdfff_ffff) as u32 + 0x0100_0000;
            let first = (candidate >> 24) as u8;
            if first == 10 || first == 127 || first >= 224 {
                continue;
            }
            if self.used_ips.insert(candidate) {
                break candidate;
            }
        };
        let port = if rng.chance(0.95) {
            DEFAULT_PORT
        } else {
            1024 + rng.below(60_000) as u16
        };
        NetAddr::from_ipv4(Ipv4Addr::from(ip), port)
    }

    fn spawn_node(&mut self, reachable: bool, malicious: bool, rng: &mut SimRng) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        let addr = self.fresh_address(rng);
        let class = if reachable {
            bitsync_net::NodeClass::Reachable
        } else {
            bitsync_net::NodeClass::UnreachableResponsive
        };
        let asn = self.as_model.sample(class, rng);
        let permanent =
            self.churn.is_none() || (reachable && rng.chance(self.cfg.permanent_fraction));
        let mut node = Node::new(
            id,
            addr,
            reachable,
            self.cfg.node_cfg.clone(),
            rng.next_u64(),
        );
        node.cfg.compact_blocks = rng.chance(self.cfg.compact_fraction);
        node.tracer = self.tracer.clone();
        if malicious {
            let factor = self.cfg.fault.addr_flood_factor.max(1.0);
            let size = ((FloodScale::paper().sample(rng) as f64 * factor) as usize).min(2_000_000);
            let mut flooder = AddrFlooder::generate(size, rng);
            // Amplified flooders violate the 1000-entry ADDR protocol cap,
            // which misbehavior scoring (when enabled) punishes.
            flooder.per_reply = (flooder.per_reply as f64 * factor) as usize;
            node.flooder = Some(flooder);
        }
        self.nodes.push(Some(node));
        let laggard = rng.chance(self.cfg.laggard_fraction);
        // Guarded draw: worlds without the stall channel take no extra
        // randomness here (stream compatibility with older snapshots).
        let stalled = self.cfg.fault.stall_fraction > 0.0
            && reachable
            && !malicious
            && rng.chance(self.cfg.fault.stall_fraction);
        self.meta.push(NodeMeta {
            addr,
            asn,
            reachable,
            permanent,
            malicious,
            ibd_until: if laggard { SimTime::MAX } else { SimTime::ZERO },
            online: true,
            stalled,
        });
        self.addr_index.insert(addr, id);
        if reachable {
            self.reachable_addrs.insert(addr);
            self.reachable_addr_list.push(addr);
        }
        self.pump_scheduled.push(false);
        self.connect_scheduled.push(false);
        self.resilience_scheduled.push(false);
        self.last_heights.push(0);
        id
    }

    fn seed_addrman(&mut self, id: NodeId, rng: &mut SimRng) {
        self.seed_addrman_with(id, rng, true);
    }

    fn seed_addrman_with(&mut self, id: NodeId, rng: &mut SimRng, with_phantoms: bool) {
        let now_unix = unix_time(SimTime::ZERO);
        let self_addr = self.meta[id.0 as usize].addr;
        // DNS-seeded reachable addresses.
        let reach: Vec<NetAddr> = self.reachable_addr_list.clone();
        let picks = rng.sample_indices(reach.len(), self.cfg.seed_reachable.min(reach.len()));
        let source = self_addr;
        let node = self.nodes[id.0 as usize].as_mut().expect("node online");
        for i in picks {
            if reach[i] != self_addr {
                node.addrman.add(reach[i], source, now_unix);
            }
        }
        // Prior-gossip phantoms (initial population only; fresh arrivals
        // bootstrap from DNS seeders, which return reachable addresses, and
        // pick up pollution through ADDR gossip afterwards).
        if with_phantoms {
            let picks = rng.sample_indices(
                self.phantom_list.len(),
                self.cfg.seed_phantoms.min(self.phantom_list.len()),
            );
            for i in picks {
                node.addrman.add(self.phantom_list[i], source, now_unix);
            }
        }
    }

    /// Schedules initial timers for a (re)booted node.
    fn boot_node(&mut self, id: NodeId, now: SimTime, rng: &mut SimRng) {
        let jitter = SimDuration::from_millis(rng.below(1_000));
        self.queue.schedule(now + jitter, Ev::ConnectTick(id));
        self.connect_scheduled[id.0 as usize] = true;
        // Resilience sweep (handshake timeouts, stale-tip detection). The
        // stale-tip clock starts at boot, not at sim epoch.
        let resilience = &self.cfg.node_cfg.resilience;
        if resilience.needs_tick() {
            let tick = resilience.tick_interval;
            if !self.resilience_scheduled[id.0 as usize] {
                self.resilience_scheduled[id.0 as usize] = true;
                self.queue.schedule(now + tick, Ev::ResilienceTick(id));
            }
            if let Some(n) = self.nodes[id.0 as usize].as_mut() {
                n.last_tip_change = now;
            }
        }
        let feeler_offset = SimDuration::from_millis(rng.below(120_000));
        self.queue.schedule(now + feeler_offset, Ev::Feeler(id));
        // Churn: plan the departure.
        if let Some(churn) = &self.churn {
            let permanent = self.meta[id.0 as usize].permanent;
            let mut crng = rng.fork("lifetime");
            if let Some(life) = churn.session_lifetime(permanent, &mut crng) {
                self.queue.schedule(now + life, Ev::Depart(id));
            }
        }
    }

    // ------------------------------------------------------------------
    // Accessors for experiments
    // ------------------------------------------------------------------

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

    /// Points the world (and every current node) at an experiment-owned
    /// tracer. Like [`World::attach_metrics`], attach before running:
    /// events are recorded only from this moment on.
    pub fn attach_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
        for node in self.nodes.iter_mut().flatten() {
            node.tracer = self.tracer.clone();
        }
    }

    /// Points the world at an invariant checker. Like
    /// [`World::attach_metrics`], attach before running: conservation
    /// bookkeeping starts from this moment, so sends scheduled earlier
    /// would be seen as unmatched deliveries.
    pub fn attach_checker(&mut self, checker: Checker) {
        self.checker = checker;
    }

    /// Points the world at a time-series sampler. Like
    /// [`World::attach_metrics`], attach before running: the first tick
    /// fires one interval after the current sim time, and the wall-clock
    /// perf baseline is taken now. A disabled sampler costs one branch
    /// per [`World::run_until`] call and nothing else.
    pub fn attach_sampler(&mut self, sampler: &Sampler) {
        self.sampler = sampler.clone();
        self.next_sample_at = self.sampler.interval().map(|iv| self.now() + iv);
        self.last_sample_events = self.events_processed();
        self.sampler
            .record_perf(self.now(), self.events_processed());
    }

    /// Points the world at every handle of `ins` — the one line that
    /// instruments a world. Attach before running (see the four
    /// `attach_*` methods this is made of).
    pub fn attach(&mut self, ins: &Instruments) {
        self.attach_metrics(ins.metrics.clone());
        self.attach_tracer(ins.tracer.clone());
        self.attach_sampler(&ins.sampler);
        self.attach_checker(ins.checker.clone());
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

    /// Stops every injected *network* fault: the plane is dismantled (no
    /// more drops, delays, flaps, or scheduled partitions) and any active
    /// partition heals. Damage already done — forks, bans, discouragement
    /// windows — remains, as does a node-side misconfiguration armed by a
    /// bug-injection fault: stopping the weather does not patch the
    /// software, which is exactly the distinction the `chain_converged`
    /// invariant probes.
    pub fn end_faults(&mut self) {
        self.fault_plane = None;
        self.cfg.fault = FaultConfig::off();
        self.lift_partition();
    }

    /// Nodes that must agree for the world to count as converged: online,
    /// reachable, unstalled, honest, and past their IBD debt.
    fn convergence_eligible(&self) -> Vec<NodeId> {
        let now = self.now();
        self.online_ids()
            .into_iter()
            .filter(|id| {
                let m = &self.meta[id.0 as usize];
                m.is_honest() && m.ibd_until <= now
            })
            .collect()
    }

    /// Whether every eligible node sits on one single chain: all at the
    /// same best height with the same tip-height hash. Vacuously true
    /// with no eligible nodes. Transiently false while a fresh block
    /// propagates, so poll it rather than asserting at one instant.
    pub fn converged(&self) -> bool {
        let eligible = self.convergence_eligible();
        let Some(target) = eligible
            .iter()
            .filter_map(|id| self.node(*id).map(|n| n.chain.height()))
            .max()
        else {
            return true;
        };
        let mut tip: Option<Hash256> = None;
        for id in eligible {
            let Some(node) = self.node(id) else {
                return false;
            };
            if node.chain.height() < target {
                return false;
            }
            let h = node.chain.hash_at_height(target);
            match (tip, h) {
                (None, Some(hash)) => tip = Some(hash),
                (Some(t), Some(hash)) if t == hash => {}
                _ => return false,
            }
        }
        true
    }

    /// Runs the world forward, sampling every 30 s, until the eligible
    /// nodes converge on a single chain or `grace` elapses. On timeout a
    /// `chain_converged` violation is recorded (when a checker is
    /// attached). Returns the time convergence took, or `None`.
    ///
    /// Call [`World::end_faults`] first: this measures *recovery*, and
    /// the invariant only promises convergence once faults end.
    pub fn check_convergence(&mut self, grace: SimDuration) -> Option<SimDuration> {
        let start = self.now();
        let deadline = start + grace;
        let step = SimDuration::from_secs(30);
        loop {
            if self.converged() {
                return Some(self.now().saturating_since(start));
            }
            if self.now() >= deadline {
                break;
            }
            let next = (self.now() + step).min(deadline);
            self.run_until(next);
        }
        let at = self.now();
        let eligible = self.convergence_eligible();
        let heights: Vec<(u32, u64)> = eligible
            .iter()
            .filter_map(|id| self.node(*id).map(|n| (id.0, n.chain.height())))
            .collect();
        self.checker.fail(at, "chain_converged", || {
            format!(
                "{} eligible nodes still split {} after faults ended: heights {:?}",
                heights.len(),
                grace,
                heights
            )
        });
        None
    }

    /// Shared access to a node (if online).
    pub fn node(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(id.0 as usize).and_then(|n| n.as_ref())
    }

    /// Mutable access to a node (if online).
    pub fn node_mut(&mut self, id: NodeId) -> Option<&mut Node> {
        self.nodes.get_mut(id.0 as usize).and_then(|n| n.as_mut())
    }

    /// Ids of all currently online nodes.
    pub fn online_ids(&self) -> Vec<NodeId> {
        (0..self.nodes.len() as u32)
            .map(NodeId)
            .filter(|id| self.nodes[id.0 as usize].is_some())
            .collect()
    }

    /// The height of the best chain anywhere in the world.
    pub fn best_height(&self) -> u64 {
        self.best_height
    }

    /// Whether a node counts as synchronized: online, past IBD, and at the
    /// best height (the paper's metric).
    pub fn is_synchronized(&self, id: NodeId) -> bool {
        let Some(node) = self.node(id) else {
            return false;
        };
        self.meta[id.0 as usize].ibd_until <= self.now() && node.is_synchronized(self.best_height)
    }

    /// Fraction of online *reachable* nodes that are synchronized (the
    /// quantity whose distribution is Figure 1).
    pub fn sync_fraction(&self) -> f64 {
        self.sync_fraction_where(|m| m.reachable)
    }

    fn sync_fraction_where(&self, counts: impl Fn(&NodeMeta) -> bool) -> f64 {
        let mut online = 0usize;
        let mut synced = 0usize;
        for id in self.online_ids() {
            if counts(&self.meta[id.0 as usize]) {
                online += 1;
                if self.is_synchronized(id) {
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

    /// [`World::sync_fraction`] over the honest population only
    /// ([`NodeMeta::is_honest`]): the fault-plane experiments' metric and
    /// the sampler's `sync_frac` gauge.
    pub fn honest_sync_fraction(&self) -> f64 {
        self.sync_fraction_where(NodeMeta::is_honest)
    }

    /// Ground truth: is this address a (past or present) reachable node?
    pub fn is_reachable_addr(&self, addr: &NetAddr) -> bool {
        self.reachable_addrs.contains(addr)
    }

    /// Relay delays recorded at the instrumented node, in quantized seconds:
    /// `(is_block, delay_secs)` per fully-relayed object.
    pub fn relay_delays(&self) -> Vec<(bool, u64)> {
        self.relay_log
            .values()
            .filter_map(|r| r.delay_secs().map(|d| (r.is_block, d)))
            .collect()
    }

    // ------------------------------------------------------------------
    // The event loop
    // ------------------------------------------------------------------

    /// Whether a link between two ASes crosses an active hijack boundary.
    fn partition_blocks(&self, a: u32, b: u32) -> bool {
        match &self.hijacked_asns {
            Some(set) => set.contains(&a) != set.contains(&b),
            None => false,
        }
    }

    /// Applies a BGP-hijack partition: every existing connection crossing
    /// the boundary between the hijacked ASes and the rest is dropped, and
    /// while the partition is active no message or dial crosses it. This is
    /// the §IV-A1 attack model evaluated on the live topology.
    pub fn apply_partition(&mut self, asns: impl IntoIterator<Item = u32>) {
        let set: HashSet<u32> = asns.into_iter().collect();
        self.hijacked_asns = Some(set);
        // Sever existing cross-boundary connections.
        let ids = self.online_ids();
        let mut to_cut: Vec<(NodeId, NodeId)> = Vec::new();
        for id in ids {
            let my_asn = self.meta[id.0 as usize].asn;
            if let Some(node) = self.node(id) {
                for peer in node.peers.keys() {
                    let peer_asn = self.meta[peer.0 as usize].asn;
                    if self.partition_blocks(my_asn, peer_asn) && id < *peer {
                        to_cut.push((id, *peer));
                    }
                }
            }
        }
        for (a, b) in to_cut {
            self.disconnect_pair(a, b);
        }
    }

    /// Lifts an active partition; routing heals immediately.
    pub fn lift_partition(&mut self) {
        self.hijacked_asns = None;
    }

    /// Online reachable nodes inside the hijacked AS set.
    pub fn isolated_count(&self) -> usize {
        let Some(set) = &self.hijacked_asns else {
            return 0;
        };
        self.online_ids()
            .into_iter()
            .filter(|id| {
                self.meta[id.0 as usize].reachable && set.contains(&self.meta[id.0 as usize].asn)
            })
            .count()
    }

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
        if self.sampler.is_enabled() {
            while let Some(tick) = self.next_sample_at.filter(|&t| t <= deadline) {
                total += self.run_steps(u64::MAX, tick);
                self.take_sample(tick);
                let iv = self
                    .sampler
                    .interval()
                    .expect("enabled sampler has a cadence");
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
        if depth_hwm > 0 {
            self.metrics
                .gauge_max(metric::QUEUE_DEPTH_HWM, depth_hwm as f64);
        }
        processed
    }

    /// Snapshots world gauges into the sampler at tick `at`: honest sync
    /// fraction, outdegree spread, addrman pollution split by table,
    /// chain height, and the queue's depth and per-window event count —
    /// plus whatever windowed counters/histograms accumulated since the
    /// previous tick (dial outcomes, churn, reorgs, fault drops, relay
    /// delay). All sim-derived, hence thread-count invariant; the one
    /// wall-clock observation rides the separate perf side-channel.
    fn take_sample(&mut self, at: SimTime) {
        if !self.sampler.is_enabled() {
            return;
        }
        let mut honest = 0usize;
        let mut outdeg_sum = 0usize;
        let mut outdeg_min = usize::MAX;
        let mut new_total = 0u64;
        let mut new_unreach = 0u64;
        let mut tried_total = 0u64;
        let mut tried_unreach = 0u64;
        for id in self.online_ids() {
            if !self.meta[id.0 as usize].is_honest() {
                continue;
            }
            let Some(node) = self.node(id) else { continue };
            honest += 1;
            let out = node.outbound_count();
            outdeg_sum += out;
            outdeg_min = outdeg_min.min(out);
            for info in node.addrman.iter() {
                let unreach = !self.is_reachable_addr(&info.addr);
                match info.table {
                    bitsync_addrman::Table::New => {
                        new_total += 1;
                        new_unreach += u64::from(unreach);
                    }
                    bitsync_addrman::Table::Tried => {
                        tried_total += 1;
                        tried_unreach += u64::from(unreach);
                    }
                }
            }
        }
        let frac = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        let events = self.queue.events_processed();
        let gauges = [
            ("sync_frac", self.honest_sync_fraction()),
            ("honest_online", honest as f64),
            (
                "outdeg_mean",
                if honest == 0 {
                    0.0
                } else {
                    outdeg_sum as f64 / honest as f64
                },
            ),
            (
                "outdeg_min",
                if honest == 0 { 0.0 } else { outdeg_min as f64 },
            ),
            ("addr_unreach_new", frac(new_unreach, new_total)),
            ("addr_unreach_tried", frac(tried_unreach, tried_total)),
            ("best_height", self.best_height as f64),
            ("queue_depth", self.queue.len() as f64),
            ("events_w", (events - self.last_sample_events) as f64),
        ];
        self.last_sample_events = events;
        self.sampler.record(at, &gauges);
        self.sampler.record_perf(at, events);
    }

    fn dispatch(&mut self, now: SimTime, ev: Ev) {
        // TimeWarpDeliveries bug injection: relayable deliveries are
        // handled with a timestamp skewed one second into the past. The
        // queue itself stays monotone (identical across backends and
        // thread counts), so the *only* harness that can catch this is the
        // checker's MonotoneClock.
        let now = if self.fault == Some(Fault::TimeWarpDeliveries)
            && matches!(&ev, Ev::Deliver { msg, .. } if relay_key(msg).is_some())
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
        // see the post-event state.
        let touched: Option<NodeId> = match &ev {
            Ev::Pump(id) | Ev::ConnectTick(id) | Ev::Feeler(id) | Ev::ResilienceTick(id) => {
                Some(*id)
            }
            Ev::DialResult { initiator, .. } => Some(*initiator),
            Ev::Deliver { to, .. } => Some(*to),
            _ => None,
        };
        if checking {
            let ok = self.clock.observe(now);
            let last = self.clock.last();
            self.checker.check(ok, now, "time_monotone", || {
                format!("event at {now} after the loop reached {last}")
            });
            if let Ev::Deliver { to, msg, .. } = &ev {
                // Conservation: a delivery of a relayable object must
                // be covered by a previously scheduled send.
                if let Some((hash, _)) = relay_key(msg) {
                    let ok = self.ledger.record_delivery(hash.0);
                    let (sends, deliveries) = self.ledger.counts(&hash.0);
                    self.checker.check(ok, now, "deliveries_le_sends", || {
                        format!(
                            "object {hash:?}: {deliveries} deliveries > {sends} sends at node {}",
                            to.0
                        )
                    });
                }
            }
        }
        match ev {
            Ev::Pump(id) => self.on_pump(id, now),
            Ev::ConnectTick(id) => self.on_connect_tick(id, now),
            Ev::Feeler(id) => self.on_feeler(id, now),
            Ev::DialResult {
                initiator,
                target,
                dir,
                ok,
                refused,
            } => self.on_dial_result(initiator, target, dir, ok, refused, now),
            Ev::Deliver { from, to, msg } => {
                self.metrics.inc(metric::MESSAGES_DELIVERED, 1);
                self.on_deliver(from, to, msg, now)
            }
            Ev::Mine => self.on_mine(now),
            Ev::InjectTx => self.on_inject_tx(now),
            Ev::Depart(id) => self.on_depart(id, now),
            Ev::Arrive => self.on_arrive(now, false, None),
            Ev::RejoinNode(id) => self.on_rejoin(id, now),
            Ev::DropConn(a, b) => {
                let still = self.node(a).is_some_and(|n| n.peers.contains_key(&b));
                if still {
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

    /// Drains reorgs the node observed during the event just handled —
    /// tracing and counting each — and enforces the `height_regression`
    /// invariant: a node's best height may only move backwards together
    /// with a recorded reorg event explaining it.
    fn observe_chain(&mut self, id: NodeId, now: SimTime) {
        let slot = id.0 as usize;
        let Some((height, reorgs)) = self.nodes[slot]
            .as_mut()
            .map(|n| (n.chain.height(), n.take_reorgs()))
        else {
            return;
        };
        if !reorgs.is_empty() {
            self.metrics.inc(metric::REORGS, reorgs.len() as u64);
            self.sampler.count("reorg", reorgs.len() as u64);
            for info in &reorgs {
                self.max_reorg_depth = self.max_reorg_depth.max(info.depth());
                self.metrics
                    .gauge_max(metric::REORG_DEPTH_MAX, info.depth() as f64);
                if self.tracer.is_enabled() {
                    self.tracer.reorg(trace::ReorgEvent {
                        at: now,
                        node: id.0,
                        old_tip: info.old_tip.0,
                        new_tip: info.new_tip.0,
                        old_height: info.old_height,
                        new_height: info.new_height,
                        depth: info.depth(),
                    });
                }
            }
        }
        if self.checker.is_enabled() {
            let last = self.last_heights[slot];
            self.checker.check(
                height >= last || !reorgs.is_empty(),
                now,
                "height_regression",
                || {
                    format!(
                        "node {} best height fell {last} -> {height} with no matching reorg event",
                        id.0
                    )
                },
            );
        }
        self.last_heights[slot] = height;
    }

    /// Deepest reorg observed anywhere so far, in disconnected blocks.
    pub fn max_reorg_depth(&self) -> u64 {
        self.max_reorg_depth
    }

    /// Post-event node checks: outdegree cap and addrman consistency.
    /// Skipped silently when the node went offline during the event.
    fn check_node_invariants(&self, id: NodeId, now: SimTime) {
        let Some(node) = self.node(id) else { return };
        let out = node.outbound_count();
        // The stale-tip countermeasure legitimately grants one slot above
        // the configured maximum while active.
        let cap =
            node.cfg.max_outbound + usize::from(node.cfg.resilience.stale_tip_timeout.is_some());
        self.checker.check(out <= cap, now, "outdegree_cap", || {
            format!("node {} holds {out} outbound connections > cap {cap}", id.0)
        });
        if let Err(msg) = node.addrman.try_check_invariants() {
            self.checker.fail(now, "addrman_consistency", || {
                format!("node {}: {msg}", id.0)
            });
        }
    }

    fn schedule_pump(&mut self, id: NodeId, at: SimTime) {
        let slot = id.0 as usize;
        if !self.pump_scheduled[slot] && self.nodes[slot].is_some() {
            self.pump_scheduled[slot] = true;
            let at = at.max(self.queue.now());
            self.queue.schedule(at, Ev::Pump(id));
        }
    }

    fn schedule_connect(&mut self, id: NodeId, after: SimDuration) {
        let slot = id.0 as usize;
        if !self.connect_scheduled[slot] && self.nodes[slot].is_some() {
            self.connect_scheduled[slot] = true;
            self.queue.schedule_after(after, Ev::ConnectTick(id));
        }
    }

    fn schedule_mine(&mut self, now: SimTime) {
        if let Some(interval) = self.cfg.block_interval {
            let d = self.rng.exp_duration(interval);
            self.queue.schedule(now + d, Ev::Mine);
        }
    }

    fn schedule_tx(&mut self, now: SimTime) {
        if self.cfg.tx_rate > 0.0 {
            let mean = SimDuration::from_secs_f64(1.0 / self.cfg.tx_rate);
            let d = self.rng.exp_duration(mean);
            self.queue.schedule(now + d, Ev::InjectTx);
        }
    }

    fn on_pump(&mut self, id: NodeId, now: SimTime) {
        let slot = id.0 as usize;
        self.pump_scheduled[slot] = false;
        if self.meta[slot].stalled {
            return; // fault plane: the process is frozen, queues just grow
        }
        let Some(node) = self.nodes[slot].as_mut() else {
            return;
        };
        let (outgoing, requests) = node.pump(now);
        let more_work = node.has_pending_work();
        let from_asn = self.meta[slot].asn;
        let instrumented = self.instrumented == Some(id);

        self.metrics.inc(metric::PUMP_ROUNDS, 1);
        self.metrics
            .inc(metric::PUMP_FLUSHED, outgoing.len() as u64);
        self.metrics
            .observe(metric::PUMP_FLUSHED_PER_ROUND, outgoing.len() as f64);

        for out in outgoing {
            let Outgoing {
                to, msg, send_end, ..
            } = out;
            // ADDR census.
            if let Message::Addr(entries) = &msg {
                let reachable = entries
                    .iter()
                    .filter(|e| self.reachable_addrs.contains(&e.addr))
                    .count() as u64;
                let stats = self.addr_senders.entry(id).or_default();
                stats.total += entries.len() as u64;
                stats.reachable += reachable;
                if self.tracer.is_enabled() {
                    self.tracer.addr(trace::AddrEvent {
                        at: send_end,
                        from: id.0,
                        to: to.0,
                        dir: trace::AddrDir::Sent,
                        count: entries.len() as u32,
                        reachable: Some(reachable as u32),
                        accepted: None,
                    });
                }
            }
            // Relay instrumentation: record send completion per object.
            if instrumented || self.tracer.is_enabled() {
                if let Some((hash, is_block)) = relay_key(&msg) {
                    if instrumented {
                        let vacant = !self.relay_log.contains_key(&hash);
                        // A vacant entry at send time means the object was
                        // locally created and is first flushed here (e.g. a
                        // tx injected at this node): its relay clock starts
                        // now. Mirror that into the trace so analysis can
                        // reproduce `received` exactly.
                        if vacant && self.tracer.is_enabled() {
                            self.tracer.relay(trace::RelayEvent {
                                at: now,
                                phase: trace::RelayPhase::Origin,
                                object: hash.0,
                                is_block,
                                from: None,
                                to: id.0,
                            });
                        }
                        let rec = self.relay_log.entry(hash).or_insert(RelayRecord {
                            received: now,
                            last_sent: None,
                            sends: 0,
                            is_block,
                        });
                        // Serving an old object to a syncing peer is not relay.
                        let hop_delay = send_end.saturating_since(rec.received);
                        if hop_delay <= FRESH_RELAY_WINDOW {
                            rec.sends += 1;
                            rec.last_sent =
                                Some(rec.last_sent.map_or(send_end, |p| p.max(send_end)));
                            self.metrics
                                .observe(metric::RELAY_DELAY, hop_delay.as_secs_f64());
                            self.sampler.observe("relay_delay", hop_delay.as_secs_f64());
                        }
                    }
                    if self.tracer.is_enabled() {
                        self.tracer.relay(trace::RelayEvent {
                            at: send_end,
                            phase: trace::RelayPhase::Send,
                            object: hash.0,
                            is_block,
                            from: Some(id.0),
                            to: to.0,
                        });
                    }
                }
            }
            // Deliver with latency, if the destination is still online and
            // no active partition severs the route.
            let to_slot = to.0 as usize;
            if self.partition_blocks(from_asn, self.meta[to_slot].asn) {
                continue;
            }
            if self.nodes.get(to_slot).is_some_and(|n| n.is_some()) {
                // Fault plane: drop or jitter the link, before the
                // conservation ledger sees the send (a dropped message was
                // never sent as far as the invariants are concerned).
                let mut fault_extra = SimDuration::ZERO;
                if let Some(plane) = self.fault_plane.as_mut() {
                    match plane.link_action() {
                        LinkAction::Deliver => {}
                        LinkAction::Drop => {
                            self.metrics.inc(metric::FAULT_DROPPED, 1);
                            self.sampler.count("fault_drop", 1);
                            continue;
                        }
                        LinkAction::Delay(d) => {
                            self.metrics.inc(metric::FAULT_DELAYED, 1);
                            fault_extra = d;
                        }
                    }
                }
                let to_asn = self.meta[to_slot].asn;
                let delay =
                    self.latency
                        .message_delay(from_asn, to_asn, msg.wire_size(), &mut self.rng);
                let at = send_end.max(now) + delay + fault_extra;
                if self.checker.is_enabled() {
                    if let Some((hash, _)) = relay_key(&msg) {
                        self.ledger.record_send(hash.0);
                    }
                }
                if self.fault == Some(Fault::DuplicateDeliveries) && relay_key(&msg).is_some() {
                    self.queue.schedule(
                        at,
                        Ev::Deliver {
                            from: id,
                            to,
                            msg: msg.clone(),
                        },
                    );
                }
                self.queue.schedule(at, Ev::Deliver { from: id, to, msg });
            }
        }
        for req in requests {
            match req {
                NodeRequest::Disconnect(peer) => self.disconnect_pair(id, peer),
                NodeRequest::Ban(peer) => {
                    self.metrics.inc(metric::PEER_BANNED, 1);
                    if self.tracer.is_enabled() {
                        self.tracer.churn(trace::ChurnTrace {
                            at: now,
                            node: peer.0,
                            kind: trace::ChurnKind::Ban { by: id.0 },
                        });
                    }
                    self.disconnect_pair(id, peer);
                }
            }
        }
        if more_work {
            let interval = self.nodes[slot]
                .as_ref()
                .map(|n| n.cfg.pump_interval)
                .unwrap_or(SimDuration::from_millis(100));
            self.pump_scheduled[slot] = true;
            self.queue.schedule(now + interval, Ev::Pump(id));
        }
    }

    fn on_connect_tick(&mut self, id: NodeId, now: SimTime) {
        let slot = id.0 as usize;
        self.connect_scheduled[slot] = false;
        if self.meta[slot].stalled {
            return; // fault plane: frozen process opens no connections
        }
        let Some(node) = self.nodes[slot].as_mut() else {
            return;
        };
        let interval = node.cfg.connect_loop_interval;
        if let Some(target) = node.begin_outbound_attempt(now) {
            self.resolve_dial(id, target, Direction::Outbound, now);
        } else {
            self.note_deferred_dial(id, trace::DialDir::Outbound, now);
        }
        // Re-tick only when the node is idle with unfilled slots: while a
        // dial is in flight its DialResult handler reschedules, so polling
        // would just burn events.
        let needs_more = self.nodes[slot]
            .as_ref()
            .is_some_and(|n| n.wants_outbound());
        if needs_more {
            self.connect_scheduled[slot] = true;
            self.queue.schedule(now + interval, Ev::ConnectTick(id));
        }
    }

    fn on_feeler(&mut self, id: NodeId, now: SimTime) {
        let slot = id.0 as usize;
        if self.meta[slot].stalled {
            return; // fault plane: frozen process probes nothing
        }
        let Some(node) = self.nodes[slot].as_mut() else {
            return;
        };
        let interval = node.cfg.feeler_interval;
        if let Some(target) = node.begin_feeler_attempt(now) {
            self.resolve_dial(id, target, Direction::Feeler, now);
        } else {
            self.note_deferred_dial(id, trace::DialDir::Feeler, now);
        }
        self.queue.schedule(now + interval, Ev::Feeler(id));
    }

    /// Counts and traces a dial the node deferred this tick because the
    /// selected address was backed off or discouraged.
    fn note_deferred_dial(&mut self, id: NodeId, dir: trace::DialDir, now: SimTime) {
        let deferred = self.nodes[id.0 as usize]
            .as_mut()
            .and_then(|n| n.take_deferred_dial());
        let Some(addr) = deferred else { return };
        self.metrics.inc(metric::DIAL_RETRIES, 1);
        self.sampler.count("dial_deferred", 1);
        if self.tracer.is_enabled() {
            self.tracer.dial(trace::DialEvent {
                at: now,
                initiator: id.0,
                target: addr.to_string(),
                dir,
                kind: trace::DialTargetKind::BackedOff,
                ok: false,
            });
        }
    }

    /// Resolves a dial against ground truth and schedules the result.
    fn resolve_dial(&mut self, initiator: NodeId, target: NetAddr, dir: Direction, now: SimTime) {
        let from_asn = self.meta[initiator.0 as usize].asn;
        let initiator_addr = self.meta[initiator.0 as usize].addr;
        let (ok, delay, refused) = match self.addr_index.get(&target) {
            Some(&tid) => {
                let target_node = self.nodes.get(tid.0 as usize).and_then(|n| n.as_ref());
                let online_accepting = target_node.is_some_and(|n| n.accepts_inbound());
                // A discouraged initiator gets an immediate RST (Core
                // refuses inbound connections from banned addresses).
                let discouraging =
                    target_node.is_some_and(|n| n.is_discouraged(&initiator_addr, now));
                let to_asn = self.meta[tid.0 as usize].asn;
                if self.partition_blocks(from_asn, to_asn) {
                    (false, self.latency.connect_timeout(), false)
                } else if online_accepting && discouraging {
                    let d = self
                        .latency
                        .handshake_delay(from_asn, to_asn, &mut self.rng);
                    (false, d, true)
                } else if online_accepting {
                    (
                        true,
                        self.latency
                            .handshake_delay(from_asn, to_asn, &mut self.rng),
                        false,
                    )
                } else {
                    // Offline node or full slots: timeout.
                    (false, self.latency.connect_timeout(), false)
                }
            }
            None => match self.phantoms.get(&target) {
                Some((PhantomKind::Responsive, asn)) => {
                    // Fast FIN refusal: one RTT.
                    let d = self.latency.handshake_delay(from_asn, *asn, &mut self.rng);
                    (false, d, true)
                }
                _ => (false, self.latency.connect_timeout(), false),
            },
        };
        if self.tracer.is_enabled() {
            let kind = match self.addr_index.get(&target) {
                Some(&tid) => {
                    if self.meta[tid.0 as usize].reachable {
                        trace::DialTargetKind::Reachable
                    } else {
                        trace::DialTargetKind::UnreachableFull
                    }
                }
                None => match self.phantoms.get(&target) {
                    Some((PhantomKind::Responsive, _)) => trace::DialTargetKind::PhantomResponsive,
                    Some((PhantomKind::Silent, _)) => trace::DialTargetKind::PhantomSilent,
                    None => trace::DialTargetKind::Unknown,
                },
            };
            self.tracer.dial(trace::DialEvent {
                at: now,
                initiator: initiator.0,
                target: target.to_string(),
                dir: if dir == Direction::Feeler {
                    trace::DialDir::Feeler
                } else {
                    trace::DialDir::Outbound
                },
                kind,
                ok,
            });
        }
        self.queue.schedule(
            now + delay,
            Ev::DialResult {
                initiator,
                target,
                dir,
                ok,
                refused,
            },
        );
    }

    fn on_dial_result(
        &mut self,
        initiator: NodeId,
        target: NetAddr,
        dir: Direction,
        ok: bool,
        refused: bool,
        now: SimTime,
    ) {
        // The dial resolved either way; the window's failure rate is the
        // paper's connection-success signal (Figure 7) per interval.
        self.sampler
            .count(if ok { "dial_ok" } else { "dial_fail" }, 1);
        let islot = initiator.0 as usize;
        if self.nodes[islot].is_none() {
            return; // initiator departed while dialing
        }
        if !ok {
            if let Some(n) = self.nodes[islot].as_mut() {
                n.on_attempt_failed(target, refused, now);
            }
            self.schedule_connect(initiator, SimDuration::from_millis(1));
            return;
        }
        // Target may have gone offline or filled up during the handshake.
        let Some(&tid) = self.addr_index.get(&target) else {
            if let Some(n) = self.nodes[islot].as_mut() {
                n.on_attempt_failed(target, false, now);
            }
            self.schedule_connect(initiator, SimDuration::from_millis(1));
            return;
        };
        let accepting = self
            .nodes
            .get(tid.0 as usize)
            .and_then(|n| n.as_ref())
            .is_some_and(|n| n.accepts_inbound());
        if !accepting || tid == initiator {
            if let Some(n) = self.nodes[islot].as_mut() {
                n.on_attempt_failed(target, false, now);
            }
            self.schedule_connect(initiator, SimDuration::from_millis(1));
            return;
        }
        let initiator_addr = self.meta[islot].addr;
        if let Some(n) = self.nodes[islot].as_mut() {
            n.on_connected(tid, target, dir, now);
        }
        if let Some(n) = self.nodes[tid.0 as usize].as_mut() {
            n.on_connected(initiator, initiator_addr, Direction::Inbound, now);
        }
        self.schedule_pump(initiator, now);
        if dir != Direction::Feeler {
            self.schedule_link_failure(initiator, tid, now);
        }
        // Keep filling outbound slots.
        self.schedule_connect(initiator, SimDuration::from_millis(1));
    }

    /// Schedules the link-failure drop for a new connection, if the world
    /// models per-connection lifetimes.
    fn schedule_link_failure(&mut self, a: NodeId, b: NodeId, now: SimTime) {
        if let Some(mean) = self.cfg.connection_mean_lifetime {
            let life = self.rng.exp_duration(mean);
            self.queue.schedule(now + life, Ev::DropConn(a, b));
        }
    }

    /// Schedules the next fault-plane connection flap, if configured.
    fn schedule_conn_flap(&mut self, now: SimTime) {
        let Some(plane) = self.fault_plane.as_mut() else {
            return;
        };
        let Some(interval) = plane.cfg.connection_flap_interval else {
            return;
        };
        let gap = plane.rng().exp_duration(interval);
        self.queue.schedule(now + gap, Ev::ConnFlap);
    }

    /// Fault plane: sever one random established connection.
    fn on_conn_flap(&mut self, now: SimTime) {
        if self.fault_plane.is_none() {
            return;
        }
        // Candidates in deterministic id order: online nodes with peers.
        let candidates: Vec<NodeId> = self
            .online_ids()
            .into_iter()
            .filter(|id| self.node(*id).is_some_and(|n| !n.peers.is_empty()))
            .collect();
        if !candidates.is_empty() {
            let plane = self.fault_plane.as_mut().expect("plane checked above");
            let a = candidates[plane.rng().index(candidates.len())];
            let peers: Vec<NodeId> = self
                .node(a)
                .map(|n| n.peers.keys().copied().collect())
                .unwrap_or_default();
            if !peers.is_empty() {
                let plane = self.fault_plane.as_mut().expect("plane checked above");
                let b = peers[plane.rng().index(peers.len())];
                self.metrics.inc(metric::FAULT_CONN_FLAPS, 1);
                self.sampler.count("conn_flap", 1);
                self.disconnect_pair(a, b);
            }
        }
        self.schedule_conn_flap(now);
    }

    /// Fault plane: partition-flap schedule edge. A cut hijacks a random
    /// fraction of the ASes hosting online reachable nodes; the matching
    /// heal lifts it and schedules the next cut.
    fn on_partition_flap(&mut self, cut: bool, now: SimTime) {
        let Some(pf) = self.fault_plane.as_ref().and_then(|p| p.cfg.partition_flap) else {
            return;
        };
        if cut {
            let mut asns: Vec<u32> = self
                .online_ids()
                .into_iter()
                .filter(|id| self.meta[id.0 as usize].reachable)
                .map(|id| self.meta[id.0 as usize].asn)
                .collect();
            asns.sort_unstable();
            asns.dedup();
            if asns.len() >= 2 {
                let k =
                    ((asns.len() as f64 * pf.fraction).round() as usize).clamp(1, asns.len() - 1);
                let plane = self.fault_plane.as_mut().expect("plane checked above");
                let picks = plane.rng().sample_indices(asns.len(), k);
                let cut_set: Vec<u32> = picks.into_iter().map(|i| asns[i]).collect();
                self.metrics.inc(metric::FAULT_PARTITION_FLAPS, 1);
                self.apply_partition(cut_set);
            }
            self.queue
                .schedule(now + pf.duration, Ev::PartitionFlap(false));
        } else {
            self.lift_partition();
            let gap = pf.period.saturating_sub(pf.duration);
            let gap = if gap == SimDuration::ZERO {
                SimDuration::from_secs(1)
            } else {
                gap
            };
            self.queue.schedule(now + gap, Ev::PartitionFlap(true));
        }
    }

    /// Resilience sweep at one node: abort handshakes stuck past the
    /// timeout, detect a stale tip (granting an extra outbound dial), and
    /// reschedule.
    fn on_resilience_tick(&mut self, id: NodeId, now: SimTime) {
        let slot = id.0 as usize;
        let Some(node) = self.nodes[slot].as_ref() else {
            self.resilience_scheduled[slot] = false;
            return; // offline; a rejoin reschedules via boot_node
        };
        let res = node.cfg.resilience.clone();
        if let Some(timeout) = res.handshake_timeout {
            let stuck: Vec<NodeId> = node
                .peers
                .iter()
                .filter(|(_, p)| !p.is_ready() && now.saturating_since(p.connected_at) > timeout)
                .map(|(pid, _)| *pid)
                .collect();
            for peer in stuck {
                self.metrics.inc(metric::HANDSHAKE_TIMEOUTS, 1);
                self.disconnect_pair(id, peer);
            }
        }
        if let Some(timeout) = res.stale_tip_timeout {
            let rescued = self.nodes[slot]
                .as_mut()
                .is_some_and(|n| n.check_stale_tip(now, timeout));
            if rescued {
                self.metrics.inc(metric::STALETIP_RESCUES, 1);
                if self.tracer.is_enabled() {
                    self.tracer.churn(trace::ChurnTrace {
                        at: now,
                        node: id.0,
                        kind: trace::ChurnKind::StaleTipRescue,
                    });
                }
                self.schedule_connect(id, SimDuration::from_millis(1));
            }
        }
        self.queue
            .schedule(now + res.tick_interval, Ev::ResilienceTick(id));
    }

    /// Directly establishes a connection from `a` (outbound side) to `b`,
    /// bypassing addrman and dialing — used by experiments that need an
    /// exact topology (e.g. the 8-outbound/17-inbound relay star of
    /// Figures 10/11).
    ///
    /// # Panics
    ///
    /// Panics if either node is offline.
    pub fn force_connect(&mut self, a: NodeId, b: NodeId) {
        let now = self.now();
        let b_addr = self.meta[b.0 as usize].addr;
        let a_addr = self.meta[a.0 as usize].addr;
        assert!(self.nodes[a.0 as usize].is_some(), "initiator offline");
        assert!(self.nodes[b.0 as usize].is_some(), "target offline");
        if let Some(n) = self.nodes[a.0 as usize].as_mut() {
            n.on_connected(b, b_addr, Direction::Outbound, now);
        }
        if let Some(n) = self.nodes[b.0 as usize].as_mut() {
            n.on_connected(a, a_addr, Direction::Inbound, now);
        }
        self.schedule_pump(a, now);
        self.schedule_link_failure(a, b, now);
    }

    /// Forces a node offline immediately (used by the resync experiment).
    pub fn force_depart(&mut self, id: NodeId) {
        let now = self.now();
        self.on_depart(id, now);
    }

    /// Forces a departed node back online immediately.
    pub fn force_rejoin(&mut self, id: NodeId) {
        let now = self.now();
        self.on_rejoin(id, now);
    }

    fn on_deliver(&mut self, from: NodeId, to: NodeId, msg: Message, now: SimTime) {
        // Relay instrumentation: first receipt of a block/tx object.
        if self.instrumented == Some(to) || self.tracer.is_enabled() {
            if let Some((hash, is_block)) = relay_key(&msg) {
                if self.instrumented == Some(to) {
                    self.relay_log.entry(hash).or_insert(RelayRecord {
                        received: now,
                        last_sent: None,
                        sends: 0,
                        is_block,
                    });
                }
                if self.tracer.is_enabled() {
                    // Trace only candidate first receipts: deliveries of a
                    // payload the node does not hold yet. Duplicates before
                    // the body lands (e.g. concurrent compact blocks) can
                    // yield several `recv` events; consumers take the
                    // earliest per (node, object).
                    let fresh = self
                        .nodes
                        .get(to.0 as usize)
                        .and_then(|n| n.as_ref())
                        .is_some_and(|n| {
                            if is_block {
                                !n.chain.has_body(&hash)
                            } else {
                                !n.mempool.contains(&hash)
                            }
                        });
                    if fresh {
                        self.tracer.relay(trace::RelayEvent {
                            at: now,
                            phase: trace::RelayPhase::Recv,
                            object: hash.0,
                            is_block,
                            from: Some(from.0),
                            to: to.0,
                        });
                    }
                }
            }
        }
        let Some(node) = self.nodes.get_mut(to.0 as usize).and_then(|n| n.as_mut()) else {
            return;
        };
        if node.deliver_at(from, msg, now) {
            self.schedule_pump(to, now);
        }
    }

    fn on_mine(&mut self, now: SimTime) {
        // Pick a random online synced reachable node as the block producer.
        // Stalled (frozen-process) nodes are excluded: they could bump
        // `best_height` but never pump the announcement out, wedging the
        // whole network behind a private chain.
        let candidates: Vec<NodeId> = self
            .online_ids()
            .into_iter()
            .filter(|id| {
                let m = &self.meta[id.0 as usize];
                m.reachable
                    && !m.stalled
                    && self
                        .node(*id)
                        .is_some_and(|n| n.chain.height() == self.best_height)
            })
            .collect();
        if let Some(&producer) = self.rng.choose(&candidates) {
            let mut miner = std::mem::replace(&mut self.miner, Miner::new(0, 1));
            let mut mined: Option<Hash256> = None;
            if let Some(node) = self.node_mut(producer) {
                if let Some(hash) = node.mine_and_relay(&mut miner, now) {
                    let height = node.chain.height();
                    self.best_height = self.best_height.max(height);
                    mined = Some(hash);
                }
            }
            self.miner = miner;
            if let Some(hash) = mined {
                if self.instrumented == Some(producer) {
                    self.relay_log.entry(hash).or_insert(RelayRecord {
                        received: now,
                        last_sent: None,
                        sends: 0,
                        is_block: true,
                    });
                }
                if self.tracer.is_enabled() {
                    self.tracer.relay(trace::RelayEvent {
                        at: now,
                        phase: trace::RelayPhase::Origin,
                        object: hash.0,
                        is_block: true,
                        from: None,
                        to: producer.0,
                    });
                }
            }
            self.observe_chain(producer, now);
            self.schedule_pump(producer, now);
        }
        self.fault_mine(now);
        self.schedule_mine(now);
    }

    /// Chain-layer fault channels, drawn on the plane's stream once per
    /// `Mine` event: a *competing miner* (a producer one block behind the
    /// tip mints a sibling of the freshest block) and a *solo miner* (a
    /// lagging producer extends its own stale tip, growing a private
    /// fork). Guarded draws: an inactive channel consumes no randomness,
    /// so fault-free snapshots stay byte-identical.
    fn fault_mine(&mut self, now: SimTime) {
        let compete_p = self.cfg.fault.competing_miner_probability;
        if compete_p > 0.0
            && self
                .fault_plane
                .as_mut()
                .is_some_and(|p| p.rng().chance(compete_p))
        {
            let best = self.best_height;
            let candidates = self.fault_miner_candidates(|h| h + 1 == best);
            self.fault_produce(&candidates, metric::FAULT_COMPETING_BLOCKS, now);
        }
        let solo_p = self.cfg.fault.solo_miner_probability;
        if solo_p > 0.0
            && self
                .fault_plane
                .as_mut()
                .is_some_and(|p| p.rng().chance(solo_p))
        {
            let best = self.best_height;
            let candidates = self.fault_miner_candidates(|h| h < best);
            self.fault_produce(&candidates, metric::FAULT_SOLO_BLOCKS, now);
        }
    }

    /// Online, reachable, unstalled nodes whose chain height satisfies
    /// `pick`, in deterministic id order.
    fn fault_miner_candidates(&self, pick: impl Fn(u64) -> bool) -> Vec<NodeId> {
        self.online_ids()
            .into_iter()
            .filter(|id| {
                let m = &self.meta[id.0 as usize];
                m.reachable && !m.stalled && self.node(*id).is_some_and(|n| pick(n.chain.height()))
            })
            .collect()
    }

    /// Mines one fault-channel block at a plane-chosen candidate (on the
    /// candidate's *own* tip, which is what makes it a fork block).
    fn fault_produce(&mut self, candidates: &[NodeId], counter: &'static str, now: SimTime) {
        if candidates.is_empty() {
            return;
        }
        let Some(plane) = self.fault_plane.as_mut() else {
            return;
        };
        let producer = candidates[plane.rng().index(candidates.len())];
        let mut miner = std::mem::replace(&mut self.miner, Miner::new(0, 1));
        let mut mined: Option<Hash256> = None;
        if let Some(node) = self.node_mut(producer) {
            if let Some(hash) = node.mine_and_relay(&mut miner, now) {
                let height = node.chain.height();
                self.best_height = self.best_height.max(height);
                mined = Some(hash);
            }
        }
        self.miner = miner;
        if let Some(hash) = mined {
            self.metrics.inc(counter, 1);
            if self.tracer.is_enabled() {
                self.tracer.relay(trace::RelayEvent {
                    at: now,
                    phase: trace::RelayPhase::Origin,
                    object: hash.0,
                    is_block: true,
                    from: None,
                    to: producer.0,
                });
            }
        }
        self.observe_chain(producer, now);
        self.schedule_pump(producer, now);
    }

    fn on_inject_tx(&mut self, now: SimTime) {
        let ids = self.online_ids();
        if let Some(&target) = self.rng.choose(&ids) {
            let mut txgen = std::mem::replace(&mut self.txgen, TxGenerator::new(0));
            let mut rng = self.rng.fork("tx");
            let mut injected: Option<Hash256> = None;
            if let Some(node) = self.node_mut(target) {
                let tx = txgen.next_tx(&mut rng);
                injected = Some(tx.txid());
                node.accept_tx(tx, now);
            }
            self.txgen = txgen;
            if let (Some(txid), true) = (injected, self.tracer.is_enabled()) {
                // Creation-time origin of the injected transaction. The
                // instrumented node's relay clock starts at first flush, not
                // here, so a second `origin` may follow from the pump.
                self.tracer.relay(trace::RelayEvent {
                    at: now,
                    phase: trace::RelayPhase::Origin,
                    object: txid.0,
                    is_block: false,
                    from: None,
                    to: target.0,
                });
            }
            self.schedule_pump(target, now);
        }
        self.schedule_tx(now);
    }

    fn disconnect_pair(&mut self, a: NodeId, b: NodeId) {
        if let Some(n) = self.nodes.get_mut(a.0 as usize).and_then(|n| n.as_mut()) {
            n.on_disconnected(b);
        }
        if let Some(n) = self.nodes.get_mut(b.0 as usize).and_then(|n| n.as_mut()) {
            n.on_disconnected(a);
        }
        // Both sides may want replacement connections.
        self.schedule_connect(a, SimDuration::from_millis(10));
        self.schedule_connect(b, SimDuration::from_millis(10));
    }

    fn on_depart(&mut self, id: NodeId, now: SimTime) {
        let slot = id.0 as usize;
        let Some(node) = self.nodes[slot].take() else {
            return;
        };
        let synchronized =
            self.meta[slot].ibd_until <= now && node.chain.is_synced_to(self.best_height);
        self.meta[slot].online = false;
        self.sampler.count("churn_depart", 1);
        self.churn_events.push((
            now,
            ChurnEvent::Departed {
                node: id,
                synchronized,
            },
        ));
        if self.tracer.is_enabled() {
            self.tracer.churn(trace::ChurnTrace {
                at: now,
                node: id.0,
                kind: trace::ChurnKind::Depart { synchronized },
            });
        }
        // Drop all its connections.
        let peers: Vec<NodeId> = node.peers.keys().copied().collect();
        for p in peers {
            if let Some(n) = self.nodes.get_mut(p.0 as usize).and_then(|n| n.as_mut()) {
                n.on_disconnected(id);
            }
            self.schedule_connect(p, SimDuration::from_millis(10));
        }
        // Rejoin or be replaced by a fresh arrival. Worlds without a churn
        // model (forced departures only) schedule neither. The addrman is
        // stashed (peers.dat) only for nodes that will actually rejoin —
        // stashing every departure would grow without bound.
        let mut crng = self.rng.fork("rejoin");
        match self.churn.as_ref().map(|c| c.rejoin(&mut crng)) {
            Some(Rejoin::After(gap)) => {
                self.stashed_addrman.insert(id, node.addrman.clone());
                self.queue.schedule(now + gap, Ev::RejoinNode(id));
            }
            Some(Rejoin::Never) => {
                let gap = self.rng.exp_duration(SimDuration::from_hours(2));
                self.queue.schedule(now + gap, Ev::Arrive);
            }
            None => {
                // Forced departure (resync experiment): keep peers.dat so a
                // forced rejoin restores it, as a real restart would.
                self.stashed_addrman.insert(id, node.addrman.clone());
            }
        }
    }

    fn on_arrive(&mut self, now: SimTime, _rejoin: bool, _id: Option<NodeId>) {
        self.sampler.count("churn_arrive", 1);
        let mut rng = self.rng.fork("arrive");
        let id = self.spawn_node(true, false, &mut rng);
        let slot = id.0 as usize;
        self.meta[slot].permanent = false; // replacements churn
        if let Some(mean) = self.cfg.ibd_fresh_mean {
            if self.meta[slot].ibd_until != SimTime::MAX {
                let debt = self.rng.exp_duration(mean);
                self.meta[slot].ibd_until = now + debt;
            }
        }
        self.seed_addrman_with(id, &mut rng, false);
        self.boot_node(id, now, &mut rng);
        self.churn_events.push((
            now,
            ChurnEvent::Joined {
                node: id,
                rejoin: false,
            },
        ));
        if self.tracer.is_enabled() {
            self.tracer.churn(trace::ChurnTrace {
                at: now,
                node: id.0,
                kind: trace::ChurnKind::Arrive,
            });
        }
    }

    fn on_rejoin(&mut self, id: NodeId, now: SimTime) {
        let slot = id.0 as usize;
        if self.nodes[slot].is_some() {
            return;
        }
        self.sampler.count("churn_rejoin", 1);
        let meta = &self.meta[slot];
        let mut rng = self.rng.fork("rejoin-node");
        let mut node = Node::new(
            id,
            meta.addr,
            meta.reachable,
            self.cfg.node_cfg.clone(),
            rng.next_u64(),
        );
        node.cfg.compact_blocks = rng.chance(self.cfg.compact_fraction);
        node.tracer = self.tracer.clone();
        // Restore the node's previous addrman (peers.dat survives a
        // restart); fall back to DNS re-seeding if none was stashed.
        let restored = match self.stashed_addrman.remove(&id) {
            Some(am) => {
                node.addrman = am;
                true
            }
            None => false,
        };
        self.nodes[slot] = Some(node);
        self.meta[slot].online = true;
        // A rejoin restarts from genesis; the height-regression tracking
        // must not mistake the fresh chain for a rollback.
        self.last_heights[slot] = 0;
        // Rejoins resync quickly (paper: 11 min 14 s measured).
        if self.meta[slot].ibd_until != SimTime::MAX {
            let debt = self.rng.exp_duration(self.cfg.ibd_rejoin_mean);
            self.meta[slot].ibd_until = now + debt;
        }
        if !restored {
            self.seed_addrman_with(id, &mut rng, false);
        }
        self.boot_node(id, now, &mut rng);
        self.churn_events.push((
            now,
            ChurnEvent::Joined {
                node: id,
                rejoin: true,
            },
        ));
        if self.tracer.is_enabled() {
            self.tracer.churn(trace::ChurnTrace {
                at: now,
                node: id.0,
                kind: trace::ChurnKind::Rejoin,
            });
        }
    }
}
