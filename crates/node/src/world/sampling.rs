//! What the world reports (`sim.timeseries.*`): the canonical [`metric`]
//! names, the synchronization fractions (the paper's headline quantity,
//! Figure 1) and the sampler row taken at every tick.

use super::{NodeMeta, RelayRecord, World};
use crate::node::Node;
use crate::peer::NodeId;
use bitsync_addrman::{AddrMan, Table};
use bitsync_protocol::hash::{table_bytes, Hash256};
use bitsync_sim::metrics::{Recorder, DEFAULT_BUCKETS};
use bitsync_sim::time::SimTime;

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
    /// Messages given extra in-flight delay by the fault plane (counter).
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

/// `num / den`, or 0 for an empty denominator.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl World {
    /// The paper's synchronization predicate on an online node: past IBD
    /// and at the best height.
    fn synced(&self, meta: &NodeMeta, node: &Node) -> bool {
        meta.ibd_until <= self.now() && node.is_synchronized(self.best_height)
    }

    /// Whether a node counts as synchronized: online, past IBD, and at the
    /// best height (the paper's metric).
    pub fn is_synchronized(&self, id: NodeId) -> bool {
        self.node(id)
            .is_some_and(|node| self.synced(&self.meta[id.0 as usize], node))
    }

    /// Fraction of online *reachable* nodes that are synchronized (the
    /// quantity whose distribution is Figure 1).
    pub fn sync_fraction(&self) -> f64 {
        self.sync_fraction_where(|m| m.reachable)
    }

    /// [`World::sync_fraction`] over the honest population only
    /// ([`NodeMeta::is_honest`]): the fault-plane experiments' metric and
    /// the sampler's `sync_frac` gauge.
    pub fn honest_sync_fraction(&self) -> f64 {
        self.sync_fraction_where(NodeMeta::is_honest)
    }

    /// Mean outbound connections per online node that `counts` selects (0
    /// with none): the sampler's `outdeg_mean` gauge over honest nodes.
    pub fn mean_outdegree(&self, counts: impl Fn(&NodeMeta) -> bool) -> f64 {
        let nodes = self.online().filter(|(_, m, _)| counts(m));
        let (n, out) = nodes.fold((0, 0), |(n, out), (_, _, node)| {
            (n + 1, out + node.outbound_count() as u64)
        });
        ratio(out, n)
    }

    /// The bytes each owner of the world's memory allocates now, as the
    /// sampler's `mem_*` gauges: the event queue, then the online nodes'
    /// chains, mempools, address managers, peer records (with their
    /// message queues and trickle lists) and known inventory (each node's
    /// inventory-id table and its peers' bits), then the relay log.
    /// `mem_addrmans` also holds the books of departed nodes that may
    /// rejoin (the `peers.dat` a [`NodeMeta`] keeps). An owner
    /// counts `capacity × size_of` of its containers, hash tables by
    /// [`table_bytes`]: only what a container holds inline, not what an
    /// entry points to (a transaction body is one allocation shared by the
    /// whole world; a queued message's boxed payload is left out). No
    /// allocator is asked, so it is the same at any thread count.
    pub fn footprint(&self) -> [(&'static str, usize); 7] {
        let mut nodes = [0; 5];
        for (_, _, node) in self.online() {
            let (peers, known_invs) = node.peers.footprint();
            let owned = [
                node.chain.footprint(),
                node.mempool.footprint(),
                node.addrman.footprint(),
                peers,
                known_invs,
            ];
            for (sum, bytes) in nodes.iter_mut().zip(owned) {
                *sum += bytes;
            }
        }
        let [chains, mempools, addrmans, peers, known_invs] = nodes;
        let stashed: usize = self
            .meta
            .iter()
            .filter_map(|meta| meta.stashed_addrman.as_ref())
            .map(AddrMan::footprint)
            .sum();
        let relay_log = table_bytes(
            self.relay_log.capacity(),
            size_of::<(Hash256, RelayRecord)>(),
        );
        [
            ("mem_queue", self.queue.footprint()),
            ("mem_chains", chains),
            ("mem_mempools", mempools),
            ("mem_addrmans", addrmans + stashed),
            ("mem_peers", peers),
            ("mem_known_invs", known_invs),
            ("mem_relay_log", relay_log),
        ]
    }

    fn sync_fraction_where(&self, counts: impl Fn(&NodeMeta) -> bool) -> f64 {
        let (mut online, mut synced) = (0, 0);
        for (_, meta, node) in self.online().filter(|(_, m, _)| counts(m)) {
            online += 1;
            synced += u64::from(self.synced(meta, node));
        }
        ratio(synced, online)
    }

    /// Snapshots world gauges into the sampler at tick `at`: honest sync
    /// fraction, outdegree spread, addrman pollution split by table,
    /// chain height, and the queue's depth and per-window event count —
    /// plus the memory [`World::footprint`] by owner and whatever windowed
    /// counters/histograms accumulated since the previous tick (dial
    /// outcomes, churn, reorgs, fault drops, relay delay). All
    /// sim-derived, hence thread-count invariant; the one
    /// wall-clock observation rides the separate perf side-channel.
    pub(super) fn take_sample(&mut self, at: SimTime) {
        let mut honest = 0u64;
        let mut outdeg_min = u64::MAX;
        // Addrman entries per table: (total, unreachable).
        let (mut new, mut tried) = ((0u64, 0u64), (0u64, 0u64));
        for (_, _, node) in self.online().filter(|(_, m, _)| m.is_honest()) {
            honest += 1;
            outdeg_min = outdeg_min.min(node.outbound_count() as u64);
            for info in node.addrman.iter() {
                let table = match info.table {
                    Table::New => &mut new,
                    Table::Tried => &mut tried,
                };
                table.0 += 1;
                table.1 += u64::from(!self.is_reachable_addr(&info.addr()));
            }
        }
        let events = self.queue.events_processed();
        let events_w = events - self.last_sample_events;
        let mut gauges = vec![
            ("sync_frac", self.honest_sync_fraction()),
            ("honest_online", honest as f64),
            ("outdeg_mean", self.mean_outdegree(NodeMeta::is_honest)),
            (
                "outdeg_min",
                if honest == 0 { 0.0 } else { outdeg_min as f64 },
            ),
            ("addr_unreach_new", ratio(new.1, new.0)),
            ("addr_unreach_tried", ratio(tried.1, tried.0)),
            ("best_height", self.best_height as f64),
            ("queue_depth", self.queue.len() as f64),
            ("events_w", events_w as f64),
        ];
        gauges.extend(self.footprint().map(|(name, bytes)| (name, bytes as f64)));
        self.last_sample_events = events;
        self.sampler.record(at, &gauges);
        self.sampler.record_perf(at, events_w);
    }
}
