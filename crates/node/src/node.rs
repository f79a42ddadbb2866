//! The simulated Bitcoin Core node: handshake, address gossip, block and
//! transaction relay, and the round-robin message pump of the paper's
//! Figure 9 / Algorithm 3.
//!
//! A [`Node`] is a pure state machine: the world delivers messages into
//! per-peer `vProcessMsg` queues and periodically invokes [`Node::pump`],
//! which mirrors Bitcoin Core's two threads:
//!
//! - `ThreadMessageHandler`: one inbound message processed per peer per
//!   round (responses are appended to that peer's `vSendMessage`);
//! - `SocketHandler`: one outbound message flushed per peer per round, with
//!   all sends serialized through a single upload-bandwidth budget.
//!
//! The serialization plus the one-per-peer-per-round discipline is exactly
//! what produces the paper's relay tail (blocks reaching the last connection
//! up to 17 s late, Figure 10).

use crate::config::{NodeConfig, TxAnnounce, MAX_OUTBOUND};
use crate::peer::{Direction, Handshake, NodeId, Peer, PeerTable};
use bitsync_addrman::AddrMan;
use bitsync_chain::{ChainError, ChainState, Mempool, ReorgInfo};
use bitsync_protocol::addr::{NetAddr, TimestampedAddr, NODE_NETWORK};
use bitsync_protocol::block::Block;
use bitsync_protocol::compact::{
    reconstruct, BlockTxn, BlockTxnRequest, CompactBlock, Reconstruction,
};
use bitsync_protocol::hash::{Hash256, InvType, InvVect};
use bitsync_protocol::message::{GetHeaders, Message, SendCmpct, VersionMsg, PROTOCOL_VERSION};
use bitsync_protocol::tx::Transaction;
use bitsync_sim::rng::SimRng;
use bitsync_sim::time::{SimDuration, SimTime};
use bitsync_sim::trace::{self, Tracer};
use std::collections::{HashMap, VecDeque};

/// UNIX timestamp of simulation time zero (April 4, 2020 — the start of the
/// paper's measurement window).
pub const SIM_EPOCH_UNIX: i64 = 1_585_958_400;

/// Converts simulated time to UNIX seconds.
pub fn unix_time(now: SimTime) -> i64 {
    SIM_EPOCH_UNIX + now.as_secs() as i64
}

/// Maximum blocks parked in the orphan pool awaiting a parent; when full,
/// the oldest orphan is evicted first (Core bounds its orphan set the same
/// way, by memory).
pub const MAX_ORPHAN_BLOCKS: usize = 32;

/// Maximum inbound connections (Core's `DEFAULT_MAX_PEER_CONNECTIONS` 125
/// minus the 8 outbound slots: 117).
pub const MAX_INBOUND: usize = 117;

/// Mean `INV` trickle interval for outbound peers (Core's
/// `INVENTORY_BROADCAST_INTERVAL >> 1`: 2 s Poisson).
pub const INV_INTERVAL_OUTBOUND: SimDuration = SimDuration::from_secs(2);

/// Mean `INV` trickle interval for inbound peers (Core's
/// `INVENTORY_BROADCAST_INTERVAL`: 5 s Poisson).
pub const INV_INTERVAL_INBOUND: SimDuration = SimDuration::from_secs(5);

/// How many peers an unsolicited small `ADDR` is forwarded to (Core's
/// `RelayAddress`: 2 for reachable networks).
pub const ADDR_RELAY_FANOUT: usize = 2;

/// Keepalive ping interval (Core's `PING_INTERVAL`: 2 minutes).
pub const PING_INTERVAL: SimDuration = SimDuration::from_secs(120);

/// Disconnect a peer silent for this long (Core's `TIMEOUT_INTERVAL`:
/// 20 minutes).
pub const PEER_TIMEOUT: SimDuration = SimDuration::from_mins(20);

/// Mempool capacity in transactions (stands in for Core's
/// `DEFAULT_MAX_MEMPOOL_SIZE`, which is in megabytes).
pub const MEMPOOL_CAPACITY: usize = 50_000;

/// Misbehavior score at which a peer is disconnected and its address
/// discouraged (Core's `DEFAULT_BANSCORE_THRESHOLD`: 100).
pub const BAN_THRESHOLD: u32 = 100;

/// How long a discouraged address is neither dialed nor accepted (Core's
/// `DEFAULT_MISBEHAVING_BANTIME`: 24 h).
pub const DISCOURAGEMENT_WINDOW: SimDuration = SimDuration::from_hours(24);

/// Penalty for an `ADDR` message over the 1000-entry protocol cap (Core's
/// `Misbehaving` on "oversized-addr"), scored as instant discouragement.
pub const OVERSIZE_ADDR_PENALTY: u32 = 100;

/// Per-connection budget of total `ADDR` entries accepted before further
/// messages start scoring (a coarse stand-in for Core 0.21's addr rate
/// limiter).
pub const ADDR_ENTRY_BUDGET: u64 = 5_000;

/// Penalty per `ADDR` message received past [`ADDR_ENTRY_BUDGET`].
pub const ADDR_FLOOD_PENALTY: u32 = 25;

/// A request from the node to the hosting world.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NodeRequest {
    /// Tear down the connection to this peer (e.g. a completed feeler).
    Disconnect(NodeId),
    /// Tear down the connection *and* record that the peer crossed the
    /// misbehavior ban threshold (its address is already discouraged
    /// node-side; the world disconnects and traces the ban).
    Ban(NodeId),
}

/// A message handed to the socket writer, with its computed transmission
/// window on the shared upload link.
#[derive(Clone, Debug)]
pub struct Outgoing {
    /// Destination peer.
    pub to: NodeId,
    /// The message.
    pub msg: Message,
    /// When the socket writer started transmitting it.
    pub send_start: SimTime,
    /// When transmission finished (delivery latency is added by the world).
    pub send_end: SimTime,
}

/// Counters the experiments read off a node.
#[derive(Clone, Copy, Debug, Default)]
pub struct NodeStats {
    /// Outgoing connection attempts started.
    pub attempts: u64,
    /// Outgoing connections that completed a handshake.
    pub successes: u64,
    /// Feeler attempts started.
    pub feeler_attempts: u64,
    /// ADDR entries received.
    pub addrs_received: u64,
    /// ADDR messages received.
    pub addr_msgs_received: u64,
    /// Blocks accepted into the chain.
    pub blocks_accepted: u64,
    /// Transactions accepted into the mempool.
    pub txs_accepted: u64,
    /// Messages processed by the pump.
    pub msgs_processed: u64,
    /// Messages flushed by the socket writer.
    pub msgs_sent: u64,
    /// Dials skipped because the selected address was backed off or
    /// discouraged.
    pub dial_retries_deferred: u64,
    /// Peers banned for crossing the misbehavior threshold.
    pub peers_banned: u64,
    /// Stale-tip episodes that triggered an extra outbound dial.
    pub stale_rescues: u64,
    /// Chain reorganizations (active-chain switches disconnecting at least
    /// one block), counted at header or body connect, whichever first.
    pub reorgs: u64,
}

/// Per-address exponential dial backoff state.
#[derive(Clone, Copy, Debug, Default)]
struct BackoffEntry {
    /// Consecutive failures since the last success.
    failures: u32,
    /// Earliest time the address may be dialed again.
    retry_at: SimTime,
}

/// A compact block awaiting its missing transactions.
#[derive(Clone, Debug)]
struct PendingCompact {
    cb: CompactBlock,
    from: NodeId,
}

/// A simulated Bitcoin node.
#[derive(Clone, Debug)]
pub struct Node {
    /// World identity.
    pub id: NodeId,
    /// Own endpoint (advertised in `VERSION` and self-`ADDR`).
    pub addr: NetAddr,
    /// Ground truth: whether inbound connections can reach us.
    pub reachable: bool,
    /// Behaviour configuration.
    pub cfg: NodeConfig,
    /// The address manager.
    pub addrman: AddrMan,
    /// Chain state.
    pub chain: ChainState,
    /// Transaction pool.
    pub mempool: Mempool,
    /// Connected peers: round-robin turns in connection order (as in
    /// Core), lookup and iteration by ascending id.
    pub peers: PeerTable,
    /// When the shared socket writer frees up.
    socket_free_at: SimTime,
    /// Outstanding dial, if any (Core opens one at a time).
    in_flight_attempt: Option<(NetAddr, Direction)>,
    /// Compact blocks awaiting `BLOCKTXN`.
    pending_compact: HashMap<Hash256, PendingCompact>,
    /// Orphan blocks parked until their parent arrives, oldest first
    /// (bounded by [`MAX_ORPHAN_BLOCKS`] with FIFO eviction).
    orphans: VecDeque<Block>,
    /// Reorgs observed since the world last drained them (trace hook).
    pending_reorgs: Vec<ReorgInfo>,
    /// Peers we already answered `GETADDR` for (Core answers once).
    getaddr_answered: Vec<NodeId>,
    /// Cached `GETADDR` response and its expiry (Core 0.21 behaviour when
    /// `cfg.getaddr_cache` is set).
    getaddr_cached: Option<(Vec<TimestampedAddr>, SimTime)>,
    /// Instrumentation counters.
    pub stats: NodeStats,
    /// When set, the node is ADDR-flooding malware (§IV-B, Figure 8).
    pub flooder: Option<crate::malicious::AddrFlooder>,
    /// Discouraged ("banned") addresses and when they were discouraged;
    /// neither dialed nor accepted within the discouragement window.
    discouraged: HashMap<NetAddr, SimTime>,
    /// Per-address dial backoff (lookup-only: never iterated, so the
    /// hash map's order cannot leak into the simulation).
    dial_backoff: HashMap<NetAddr, BackoffEntry>,
    /// Address whose dial was deferred this tick (backoff/discouragement),
    /// for the world to count and trace.
    deferred_dial: Option<NetAddr>,
    /// Last time the chain tip advanced (drives stale-tip detection).
    pub last_tip_change: SimTime,
    /// Whether the stale-tip countermeasure currently grants one extra
    /// outbound slot.
    pub stale_tip_extra: bool,
    /// Per-event trace sink; the world clones its own handle in here so the
    /// pump and message handlers can trace. Disabled by default.
    pub tracer: Tracer,
    rng: SimRng,
}

impl Node {
    /// Creates a node at `addr`.
    pub fn new(id: NodeId, addr: NetAddr, reachable: bool, cfg: NodeConfig, seed: u64) -> Self {
        let mut rng = SimRng::seed_from(seed);
        let addrman_key = rng.next_u64();
        Node {
            id,
            addr,
            reachable,
            addrman: AddrMan::new(addrman_key, cfg.addrman),
            cfg,
            chain: ChainState::with_genesis(),
            mempool: Mempool::new(MEMPOOL_CAPACITY),
            peers: PeerTable::default(),
            socket_free_at: SimTime::ZERO,
            in_flight_attempt: None,
            pending_compact: HashMap::new(),
            orphans: VecDeque::new(),
            pending_reorgs: Vec::new(),
            getaddr_answered: Vec::new(),
            getaddr_cached: None,
            stats: NodeStats::default(),
            flooder: None,
            discouraged: HashMap::new(),
            dial_backoff: HashMap::new(),
            deferred_dial: None,
            last_tip_change: SimTime::ZERO,
            stale_tip_extra: false,
            tracer: Tracer::disabled(),
            rng,
        }
    }

    // ------------------------------------------------------------------
    // Connection lifecycle (driven by the world)
    // ------------------------------------------------------------------

    /// Number of live outbound (non-feeler) connections, including ones
    /// still handshaking.
    pub fn outbound_count(&self) -> usize {
        self.peers
            .as_slice()
            .iter()
            .filter(|p| p.dir == Direction::Outbound)
            .count()
    }

    /// Number of live inbound connections.
    pub fn inbound_count(&self) -> usize {
        self.peers
            .as_slice()
            .iter()
            .filter(|p| p.dir == Direction::Inbound)
            .count()
    }

    /// Live connections of any kind.
    pub fn connection_count(&self) -> usize {
        self.peers.len()
    }

    /// Outgoing connections including in-flight feelers — the quantity the
    /// paper's Figure 6 plots via RPC, where the two feeler slots push the
    /// momentary total to 10.
    pub fn outgoing_count(&self) -> usize {
        self.peers
            .as_slice()
            .iter()
            .filter(|p| p.dir != Direction::Inbound)
            .count()
            + usize::from(self.in_flight_attempt.is_some())
    }

    /// Whether a new inbound connection would be accepted.
    pub fn accepts_inbound(&self) -> bool {
        self.reachable && self.inbound_count() < MAX_INBOUND
    }

    /// Current outbound slot budget: [`MAX_OUTBOUND`], plus one
    /// while the stale-tip countermeasure is active (Core's extra
    /// block-relay-only connection).
    pub fn outbound_target(&self) -> usize {
        MAX_OUTBOUND + usize::from(self.stale_tip_extra)
    }

    /// Whether the node wants to dial a new outbound connection now.
    pub fn wants_outbound(&self) -> bool {
        self.in_flight_attempt.is_none() && self.outbound_count() < self.outbound_target()
    }

    /// Picks the next outbound target from addrman and records the attempt.
    /// Returns `None` when the address book is empty or a dial is already
    /// in flight.
    pub fn begin_outbound_attempt(&mut self, now: SimTime) -> Option<NetAddr> {
        if !self.wants_outbound() {
            return None;
        }
        let target = self.addrman.select(&mut self.rng, unix_time(now))?;
        if target == self.addr || self.peers.as_slice().iter().any(|p| p.addr == target) {
            return None; // already connected or self; retry next tick
        }
        if self.dial_deferred(&target, now) {
            return None; // discouraged or backed off; retry next tick
        }
        self.addrman.attempt(&target, unix_time(now));
        self.in_flight_attempt = Some((target, Direction::Outbound));
        self.stats.attempts += 1;
        Some(target)
    }

    /// Picks a feeler target (Core tests `new`-table addresses every
    /// 2 minutes). Returns `None` if a dial is in flight or the table is
    /// empty.
    pub fn begin_feeler_attempt(&mut self, now: SimTime) -> Option<NetAddr> {
        if self.in_flight_attempt.is_some() {
            return None;
        }
        let target = self.addrman.select(&mut self.rng, unix_time(now))?;
        if target == self.addr || self.peers.as_slice().iter().any(|p| p.addr == target) {
            return None;
        }
        if self.dial_deferred(&target, now) {
            return None; // banned addresses are not even feeler-probed
        }
        self.addrman.attempt(&target, unix_time(now));
        self.in_flight_attempt = Some((target, Direction::Feeler));
        self.stats.feeler_attempts += 1;
        Some(target)
    }

    /// Whether dialing `target` is currently blocked by discouragement or
    /// (for regular outbound dials) backoff; records the deferral for the
    /// world to count.
    fn dial_deferred(&mut self, target: &NetAddr, now: SimTime) -> bool {
        let blocked = self.is_discouraged(target, now)
            || (self.cfg.resilience.dial_backoff
                && self
                    .dial_backoff
                    .get(target)
                    .is_some_and(|e| now < e.retry_at));
        if blocked {
            self.stats.dial_retries_deferred += 1;
            self.deferred_dial = Some(*target);
        }
        blocked
    }

    /// Takes the address whose dial this tick deferred, if any (world-side
    /// metric/trace hook).
    pub fn take_deferred_dial(&mut self) -> Option<NetAddr> {
        self.deferred_dial.take()
    }

    /// Whether `addr` is inside its discouragement window.
    pub fn is_discouraged(&self, addr: &NetAddr, now: SimTime) -> bool {
        self.discouraged
            .get(addr)
            .is_some_and(|since| now.saturating_since(*since) < DISCOURAGEMENT_WINDOW)
    }

    /// Consecutive dial failures currently recorded against `addr`.
    pub fn dial_failures(&self, addr: &NetAddr) -> u32 {
        self.dial_backoff.get(addr).map_or(0, |e| e.failures)
    }

    /// The world reports a failed dial; `refused` distinguishes a fast
    /// refusal (RST — the host is up) from a blackholed timeout (likely a
    /// phantom), which the backoff schedule treats very differently.
    pub fn on_attempt_failed(&mut self, addr: NetAddr, refused: bool, now: SimTime) {
        if self
            .in_flight_attempt
            .as_ref()
            .is_some_and(|(a, _)| *a == addr)
        {
            self.in_flight_attempt = None;
        }
        if self.cfg.resilience.dial_backoff {
            let entry = self.dial_backoff.entry(addr).or_default();
            entry.failures = entry.failures.saturating_add(1);
            entry.retry_at =
                now + crate::config::backoff_delay(&self.cfg.resilience, refused, entry.failures);
        }
    }

    /// The world reports a completed TCP connection. For dials this
    /// consumes the in-flight attempt; for inbound connections `dir` is
    /// [`Direction::Inbound`].
    pub fn on_connected(&mut self, peer: NodeId, addr: NetAddr, dir: Direction, now: SimTime) {
        if dir != Direction::Inbound {
            self.in_flight_attempt = None;
        }
        let mut p = Peer::new(peer, addr, dir);
        p.connected_at = now;
        if dir != Direction::Inbound {
            // The initiator speaks first.
            p.send_q.push_back(self.version_msg(addr, now));
            p.handshake = Handshake::AwaitVersion;
            // The address answered; forget any dial backoff against it.
            self.dial_backoff.remove(&addr);
        }
        self.peers.insert(p);
    }

    /// The world reports a dropped connection.
    pub fn on_disconnected(&mut self, peer: NodeId) {
        self.peers.remove(&peer);
        self.getaddr_answered.retain(|p| *p != peer);
    }

    fn version_msg(&mut self, remote: NetAddr, now: SimTime) -> Message {
        Message::Version(VersionMsg {
            version: PROTOCOL_VERSION,
            services: NODE_NETWORK,
            timestamp: unix_time(now),
            addr_recv: remote,
            addr_from: self.addr,
            nonce: self.rng.next_u64(),
            user_agent: "/bitsync:0.1.0/".into(),
            start_height: self.chain.height() as i32,
            relay: true,
        })
    }

    // ------------------------------------------------------------------
    // Inbound message delivery (world → vProcessMsg)
    // ------------------------------------------------------------------

    /// Delivers a message into the peer's `vProcessMsg` queue. Returns
    /// `false` if the peer is unknown (racing a disconnect).
    pub fn deliver(&mut self, from: NodeId, msg: Message) -> bool {
        self.enqueue_recv(from, msg).is_some()
    }

    /// [`Node::deliver`] for a message arriving at `now`: also stamps the
    /// receipt time the keepalive logic reads.
    pub fn deliver_at(&mut self, from: NodeId, msg: Message, now: SimTime) -> bool {
        self.enqueue_recv(from, msg)
            .map(|p| p.last_recv = now)
            .is_some()
    }

    fn enqueue_recv(&mut self, from: NodeId, msg: Message) -> Option<&mut Peer> {
        let p = self.peers.get_mut(&from)?;
        p.proc_q.push_back(msg);
        Some(p)
    }

    /// Keepalive sweep: queue a `PING` for quiet ready peers and request
    /// disconnection of peers silent beyond the timeout (Core's
    /// `TIMEOUT_INTERVAL`). Runs once per pump round.
    fn keepalive(&mut self, now: SimTime, requests: &mut Vec<NodeRequest>) {
        // Ascending id: the order of the timeout requests and of the
        // nonce draws.
        self.peers.for_each_by_id_mut(|_, p| {
            if !p.is_ready() {
                return;
            }
            if p.last_recv != SimTime::ZERO && now.saturating_since(p.last_recv) > PEER_TIMEOUT {
                requests.push(NodeRequest::Disconnect(p.node));
            } else if now >= p.next_ping_at {
                p.next_ping_at = now + PING_INTERVAL;
                p.send_q.push_back(Message::Ping(self.rng.next_u64()));
            }
        });
    }

    /// Whether any queue holds work for the pump.
    pub fn has_pending_work(&self) -> bool {
        self.peers.as_slice().iter().any(|p| p.queued() > 0)
    }

    // ------------------------------------------------------------------
    // The round-robin pump (Figure 9 / Algorithm 3)
    // ------------------------------------------------------------------

    /// Runs one pump round: processes one inbound message per peer, then
    /// flushes one outbound message per peer through the serialized socket
    /// writer. Returns the flushed messages (with transmission windows) and
    /// any world requests.
    pub fn pump(&mut self, now: SimTime) -> (Vec<Outgoing>, Vec<NodeRequest>) {
        let mut requests = Vec::new();
        self.flush_trickle(now);
        self.keepalive(now, &mut requests);
        let sorted = self.sorted_order();

        // ThreadMessageHandler: one message per peer per round. Handlers
        // never connect or disconnect (they only *request* it), so the
        // turns stay valid across the loop.
        for turn in 0..self.peers.order().len() {
            let slot = sorted
                .as_ref()
                .map_or(self.peers.order()[turn], |o| o[turn]);
            let peer = self.peers.slot_mut(slot);
            let Some(msg) = peer.proc_q.pop_front() else {
                continue;
            };
            let from = peer.node;
            self.stats.msgs_processed += 1;
            self.handle_message(from, msg, now, &mut requests);
        }

        // SocketHandler: one send per peer per round, serialized on the
        // shared upload link.
        let mut outgoing = Vec::new();
        self.peers.for_each_turn(sorted.as_deref(), |_, peer| {
            let Some(msg) = peer.send_q.pop_front() else {
                return;
            };
            let bytes = msg.wire_size();
            let start = if self.socket_free_at > now {
                self.socket_free_at
            } else {
                now
            };
            let tx_time = SimDuration::from_secs_f64(bytes as f64 / self.cfg.upload_bandwidth);
            let end = start + tx_time;
            self.socket_free_at = end;
            self.stats.msgs_sent += 1;
            outgoing.push(Outgoing {
                to: peer.node,
                msg,
                send_start: start,
                send_end: end,
            });
        });
        (outgoing, requests)
    }

    /// The round-robin visit order when it is not the table's own
    /// connection order: outbound peers first under the §V `outbound_first`
    /// refinement.
    fn sorted_order(&self) -> Option<Vec<u32>> {
        self.cfg
            .relay
            .outbound_first
            .then(|| self.peers.outbound_first_order())
    }

    /// One slot per turn, in visit order, of the ready data-relaying peers
    /// that do not know `hash` yet. Chosen before anything is marked: after
    /// a double connect (see [`PeerTable`]) a peer has two turns and is sent
    /// the object on both.
    fn relay_targets(&mut self, hash: &Hash256) -> Vec<u32> {
        let mut targets = Vec::new();
        self.peers
            .for_each_turn(self.sorted_order().as_deref(), |slot, p| {
                if p.is_ready() && p.dir.relays_data() && !p.knows(hash) {
                    targets.push(slot);
                }
            });
        targets
    }

    // ------------------------------------------------------------------
    // Protocol logic (ProcessMessage)
    // ------------------------------------------------------------------

    fn handle_message(
        &mut self,
        from: NodeId,
        msg: Message,
        now: SimTime,
        requests: &mut Vec<NodeRequest>,
    ) {
        match msg {
            Message::Version(v) => self.on_version(from, v, now),
            Message::Verack => self.on_verack(from, now, requests),
            Message::GetAddr => self.on_getaddr(from, now),
            Message::Addr(list) => self.on_addr(from, list, now, requests),
            Message::SendAddrV2 => {
                // BIP 155 negotiation acknowledged; the simulated network
                // gossips legacy entries, so no state change is needed.
            }
            Message::AddrV2(list) => {
                // Accept the legacy-expressible subset; Tor/I2P/CJDNS
                // addresses have no dialable counterpart in the simulation.
                let legacy: Vec<TimestampedAddr> = list
                    .iter()
                    .filter_map(|e| e.to_legacy().map(|a| TimestampedAddr::new(e.time, a)))
                    .collect();
                self.on_addr(from, legacy, now, requests);
            }
            Message::Ping(n) => self.send(from, Message::Pong(n)),
            Message::Pong(_) => {}
            Message::Inv(items) => self.on_inv(from, items),
            Message::GetData(items) => self.on_getdata(from, items),
            Message::NotFound(_) => {}
            Message::Tx(tx) => self.on_tx(from, tx, now),
            Message::Block(b) => self.on_block(from, *b, now, requests),
            Message::GetHeaders(g) => self.on_getheaders(from, g),
            Message::Headers(headers) => self.on_headers(from, headers, now, requests),
            Message::SendCmpct(s) => {
                if let Some(p) = self.peers.get_mut(&from) {
                    p.prefers_compact = s.announce && s.version == 1;
                }
            }
            Message::CmpctBlock(cb) => self.on_cmpctblock(from, *cb, now, requests),
            Message::GetBlockTxn(req) => self.on_getblocktxn(from, req),
            Message::BlockTxn(bt) => self.on_blocktxn(from, bt, now, requests),
        }
    }

    fn send(&mut self, to: NodeId, msg: Message) {
        let prioritize = self.cfg.relay.prioritize_blocks;
        if let Some(p) = self.peers.get_mut(&to) {
            p.enqueue_send(msg, prioritize);
        }
    }

    fn on_version(&mut self, from: NodeId, v: VersionMsg, now: SimTime) {
        let inbound = self
            .peers
            .get(&from)
            .map(|p| p.dir == Direction::Inbound)
            .unwrap_or(false);
        // Learn the peer's self-reported address.
        if inbound {
            let reply = self.version_msg(v.addr_from, now);
            self.send(from, reply);
        }
        self.send(from, Message::Verack);
        if let Some(p) = self.peers.get_mut(&from) {
            p.handshake = Handshake::AwaitVerack;
        }
    }

    fn on_verack(&mut self, from: NodeId, now: SimTime, requests: &mut Vec<NodeRequest>) {
        let Some(p) = self.peers.get_mut(&from) else {
            return;
        };
        if p.handshake == Handshake::Ready {
            return;
        }
        p.handshake = Handshake::Ready;
        let (dir, addr) = (p.dir, p.addr);
        match dir {
            Direction::Feeler => {
                // The feeler verified reachability; record and hang up.
                self.addrman.good(&addr, unix_time(now));
                requests.push(NodeRequest::Disconnect(from));
            }
            Direction::Outbound => {
                self.addrman.good(&addr, unix_time(now));
                self.stats.successes += 1;
                self.post_handshake(from, now);
            }
            Direction::Inbound => {
                self.post_handshake(from, now);
            }
        }
    }

    /// Post-handshake negotiation: compact blocks, address solicitation,
    /// self-advertisement, and header sync.
    fn post_handshake(&mut self, from: NodeId, now: SimTime) {
        if self.cfg.compact_blocks {
            self.send(
                from,
                Message::SendCmpct(SendCmpct {
                    announce: true,
                    version: 1,
                }),
            );
        }
        let dir = self.peers.get(&from).map(|p| p.dir);
        if dir == Some(Direction::Outbound) {
            self.send(from, Message::GetAddr);
            // Advertise our own address (Core advertises its local address
            // to outbound peers) — this is how unreachable nodes' addresses
            // enter the gossip mesh. Flooders never reveal their own
            // (reachable) address: that is the tell the paper's detection
            // heuristic exploits.
            if self.flooder.is_none() {
                let self_ad = TimestampedAddr::new(unix_time(now).max(0) as u32, self.addr);
                self.send(from, Message::Addr(vec![self_ad]));
            }
            let locator = self.chain.locator();
            self.send(
                from,
                Message::GetHeaders(GetHeaders {
                    locator,
                    stop: Hash256::ZERO,
                }),
            );
        }
    }

    fn on_getaddr(&mut self, from: NodeId, now: SimTime) {
        if let Some(flooder) = self.flooder.as_mut() {
            // Malicious: answer every GETADDR with fabricated unreachable
            // addresses and never include the (reachable) self address.
            let batch = flooder.next_batch(unix_time(now));
            self.send(from, Message::Addr(batch));
            return;
        }
        if self.getaddr_answered.contains(&from) {
            return; // Core answers GETADDR once per connection
        }
        self.getaddr_answered.push(from);
        // With the 0.21-style cache enabled, every requester within the
        // window sees the same sample — iterative crawling (the paper's
        // Algorithm 1) can no longer page through the whole table.
        let mut list = match (&self.getaddr_cached, self.cfg.getaddr_cache) {
            (Some((cached, until)), Some(_)) if now < *until => cached.clone(),
            (_, Some(ttl)) => {
                let fresh = self.addrman.get_addr(&mut self.rng, unix_time(now));
                self.getaddr_cached = Some((fresh.clone(), now + ttl));
                fresh
            }
            _ => self.addrman.get_addr(&mut self.rng, unix_time(now)),
        };
        // A node always includes its own address.
        list.push(TimestampedAddr::new(
            unix_time(now).max(0) as u32,
            self.addr,
        ));
        self.send(from, Message::Addr(list));
    }

    fn on_addr(
        &mut self,
        from: NodeId,
        list: Vec<TimestampedAddr>,
        now: SimTime,
        requests: &mut Vec<NodeRequest>,
    ) {
        self.stats.addr_msgs_received += 1;
        self.stats.addrs_received += list.len() as u64;
        if self.cfg.resilience.misbehavior {
            let mut penalty = 0u32;
            if list.len() > bitsync_sim::fault::MAX_ADDR_PER_MSG {
                // Protocol violation: Core never sends more than 1000
                // entries per ADDR.
                penalty += OVERSIZE_ADDR_PENALTY;
            }
            if let Some(p) = self.peers.get_mut(&from) {
                p.addr_entries += list.len() as u64;
                if p.addr_entries > ADDR_ENTRY_BUDGET {
                    penalty += ADDR_FLOOD_PENALTY;
                }
            }
            if penalty > 0 && self.misbehave(from, penalty, now, requests) {
                return; // banned: do not ingest the flood
            }
        }
        let source = self.peers.get(&from).map_or(self.addr, |p| p.addr);
        let mut fresh = Vec::new();
        for entry in &list {
            if entry.addr != self.addr && self.addrman.add(entry.addr, source, unix_time(now)) {
                fresh.push(*entry);
            }
        }
        if self.tracer.is_enabled() {
            self.tracer.addr(trace::AddrEvent {
                at: now,
                from: from.0,
                to: self.id.0,
                dir: trace::AddrDir::Recv,
                count: list.len() as u32,
                reachable: None,
                accepted: Some(fresh.len() as u32),
            });
        }
        // Core forwards small unsolicited ADDR messages to a couple peers.
        // Forward only first-seen entries: each node relays a given
        // address at most once, which bounds gossip amplification.
        // Flooders forward nothing honest.
        let list = fresh;
        if self.flooder.is_none() && !list.is_empty() && list.len() <= 10 {
            // Candidates in ascending id order: what the draw indexes.
            let mut candidates = Vec::new();
            self.peers.for_each_by_id_mut(|slot, p| {
                if p.node != from && p.is_ready() && p.dir.relays_data() {
                    candidates.push(slot);
                }
            });
            let fanout = ADDR_RELAY_FANOUT.min(candidates.len());
            let picks = self.rng.sample_indices(candidates.len(), fanout);
            let prioritize = self.cfg.relay.prioritize_blocks;
            for i in picks {
                self.peers
                    .slot_mut(candidates[i])
                    .enqueue_send(Message::Addr(list.clone()), prioritize);
            }
        }
    }

    /// Adds `penalty` to the peer's misbehavior score (Core's
    /// `Misbehaving`). Crossing the ban threshold discourages the peer's
    /// address and asks the world to disconnect; returns `true` exactly
    /// when that happened (at most once per connection).
    fn misbehave(
        &mut self,
        from: NodeId,
        penalty: u32,
        now: SimTime,
        requests: &mut Vec<NodeRequest>,
    ) -> bool {
        let Some(p) = self.peers.get_mut(&from) else {
            return false;
        };
        let already_banned = p.misbehavior >= BAN_THRESHOLD;
        p.misbehavior = p.misbehavior.saturating_add(penalty);
        if already_banned || p.misbehavior < BAN_THRESHOLD {
            return false;
        }
        let addr = p.addr;
        self.discouraged.insert(addr, now);
        self.stats.peers_banned += 1;
        requests.push(NodeRequest::Ban(from));
        true
    }

    /// Stale-tip sweep (world-driven): with no tip advance for `timeout`,
    /// grant one extra outbound slot until the next block arrives.
    /// Returns `true` when a new rescue was triggered.
    pub fn check_stale_tip(&mut self, now: SimTime, timeout: SimDuration) -> bool {
        if self.stale_tip_extra || now.saturating_since(self.last_tip_change) <= timeout {
            return false;
        }
        self.stale_tip_extra = true;
        self.stats.stale_rescues += 1;
        true
    }

    fn on_inv(&mut self, from: NodeId, items: Vec<InvVect>) {
        let mut wanted = Vec::new();
        for iv in items {
            if let Some(p) = self.peers.get_mut(&from) {
                p.mark_known(iv.hash);
            }
            match iv.kind {
                InvType::Tx => {
                    if !self.mempool.contains(&iv.hash) {
                        wanted.push(iv);
                    }
                }
                InvType::Block | InvType::CompactBlock => {
                    if !self.chain.contains(&iv.hash) {
                        wanted.push(InvVect::block(iv.hash));
                    }
                }
            }
        }
        if !wanted.is_empty() {
            self.send(from, Message::GetData(wanted));
        }
    }

    fn on_getdata(&mut self, from: NodeId, items: Vec<InvVect>) {
        let mut missing = Vec::new();
        for iv in items {
            match iv.kind {
                InvType::Tx => match self.mempool.get(&iv.hash).cloned() {
                    Some(tx) => self.send(from, Message::Tx(tx)),
                    None => missing.push(iv),
                },
                InvType::Block => match self.chain.block(&iv.hash) {
                    Some(b) => {
                        let msg = Message::Block(Box::new(b.clone()));
                        self.send(from, msg);
                    }
                    None => missing.push(iv),
                },
                InvType::CompactBlock => match self.chain.block(&iv.hash) {
                    Some(b) => {
                        let nonce = self.rng.next_u64();
                        let cb = CompactBlock::from_block(b, nonce);
                        self.send(from, Message::CmpctBlock(Box::new(cb)));
                    }
                    None => missing.push(iv),
                },
            }
        }
        if !missing.is_empty() {
            self.send(from, Message::NotFound(missing));
        }
    }

    fn on_tx(&mut self, from: NodeId, tx: Transaction, now: SimTime) {
        let txid = tx.txid();
        if let Some(p) = self.peers.get_mut(&from) {
            p.mark_known(txid);
        }
        self.accept_tx(tx, now);
    }

    /// Accepts a transaction (from the network or injected locally) and
    /// relays it to peers that do not know it yet. Returns `true` if new.
    pub fn accept_tx(&mut self, tx: Transaction, _now: SimTime) -> bool {
        let txid = tx.txid();
        if self.mempool.contains(&txid) {
            return false;
        }
        self.mempool.insert(tx.clone());
        self.stats.txs_accepted += 1;
        self.relay_tx(&tx);
        true
    }

    fn relay_tx(&mut self, tx: &Transaction) {
        let txid = tx.txid();
        let prioritize = self.cfg.relay.prioritize_blocks;
        for slot in self.relay_targets(&txid) {
            let p = self.peers.slot_mut(slot);
            match self.cfg.tx_announce {
                TxAnnounce::Flood => {
                    p.mark_known(txid);
                    p.enqueue_send(Message::Tx(tx.clone()), prioritize);
                }
                TxAnnounce::Trickle => p.pending_inv.push(txid),
            }
        }
    }

    /// Flushes due trickled `INV` batches (Core's Poisson announcement
    /// schedule). Called once per pump round.
    fn flush_trickle(&mut self, now: SimTime) {
        if self.cfg.tx_announce != TxAnnounce::Trickle {
            return;
        }
        let prioritize = self.cfg.relay.prioritize_blocks;
        self.peers
            .for_each_turn(self.sorted_order().as_deref(), |_, p| {
                if p.pending_inv.is_empty() || now < p.next_inv_at || !p.is_ready() {
                    return;
                }
                let batch: Vec<InvVect> = p
                    .pending_inv
                    .drain(..)
                    .filter(|h| !p.known_invs.contains(h))
                    .take(1000)
                    .map(InvVect::tx)
                    .collect();
                let mean = match p.dir {
                    Direction::Outbound | Direction::Feeler => INV_INTERVAL_OUTBOUND,
                    Direction::Inbound => INV_INTERVAL_INBOUND,
                };
                let delay = self.rng.exp_duration(mean);
                for iv in &batch {
                    p.mark_known(iv.hash);
                }
                p.next_inv_at = now + delay;
                if !batch.is_empty() {
                    p.enqueue_send(Message::Inv(batch), prioritize);
                }
            });
    }

    fn on_block(
        &mut self,
        from: NodeId,
        block: Block,
        now: SimTime,
        requests: &mut Vec<NodeRequest>,
    ) {
        let hash = block.block_hash();
        if let Some(p) = self.peers.get_mut(&from) {
            p.mark_known(hash);
        }
        self.accept_block(block, Some(from), now, requests);
    }

    /// True when connecting a block or header on `parent` would displace
    /// the active chain: the parent is known but off the active tip, and
    /// a child on it would outrank the current tip.
    fn would_reorg(&self, parent: &Hash256) -> bool {
        *parent != self.chain.tip_hash()
            && self
                .chain
                .height_of(parent)
                .is_some_and(|ph| ph + 1 > self.chain.height())
    }

    /// The `ban_on_reorg` misconfiguration (see
    /// [`crate::config::ResilienceConfig::ban_on_reorg`]): discourage the
    /// peer as if it were a hostile miner. Returns `true` when it fired,
    /// in which case the caller must not connect the announcement.
    fn ban_fork_announcer(
        &mut self,
        from: NodeId,
        now: SimTime,
        requests: &mut Vec<NodeRequest>,
    ) -> bool {
        if !self.cfg.resilience.ban_on_reorg {
            return false;
        }
        self.misbehave(from, BAN_THRESHOLD, now, requests);
        true
    }

    /// Accepts a block (from the network or mined locally), connects any
    /// parked orphans it unblocks, and relays it. Returns `true` if the
    /// block itself joined the block tree.
    pub fn accept_block(
        &mut self,
        block: Block,
        from: Option<NodeId>,
        now: SimTime,
        requests: &mut Vec<NodeRequest>,
    ) -> bool {
        let hash = block.block_hash();
        if self.chain.has_body(&hash) {
            return false;
        }
        if !self.chain.contains(&block.header.prev_blockhash) {
            // Orphan: park it and ask the sender for the missing history.
            self.park_orphan(block);
            if let Some(peer) = from {
                let locator = self.chain.locator();
                self.send(
                    peer,
                    Message::GetHeaders(GetHeaders {
                        locator,
                        stop: Hash256::ZERO,
                    }),
                );
            }
            return false;
        }
        if let Some(peer) = from {
            if self.would_reorg(&block.header.prev_blockhash)
                && self.ban_fork_announcer(peer, now, requests)
            {
                return false;
            }
        }
        if !self.connect_and_relay(block, hash, now) {
            return false;
        }
        // Connect parked orphans this block (transitively) unblocked.
        let mut parents = vec![hash];
        while let Some(parent) = parents.pop() {
            let mut i = 0;
            while i < self.orphans.len() {
                if self.orphans[i].header.prev_blockhash == parent {
                    let orphan = self.orphans.remove(i).expect("index in bounds");
                    let ohash = orphan.block_hash();
                    if self.connect_and_relay(orphan, ohash, now) {
                        parents.push(ohash);
                    }
                } else {
                    i += 1;
                }
            }
        }
        true
    }

    /// Parks an orphan block, deduplicating by hash and evicting the
    /// oldest entry when the pool is full.
    fn park_orphan(&mut self, block: Block) {
        let hash = block.block_hash();
        if self.orphans.iter().any(|b| b.block_hash() == hash) {
            return;
        }
        if self.orphans.len() == MAX_ORPHAN_BLOCKS {
            self.orphans.pop_front();
        }
        self.orphans.push_back(block);
    }

    /// Number of blocks currently parked in the orphan pool.
    pub fn orphan_count(&self) -> usize {
        self.orphans.len()
    }

    /// Connects one block whose parent is known (`hash` is its block
    /// hash), updating stats, stale-tip bookkeeping, reorg records, the
    /// mempool, and relaying it on.
    fn connect_and_relay(&mut self, block: Block, hash: Hash256, now: SimTime) -> bool {
        let Ok(reorg) = self.chain.connect_block(&block) else {
            return false;
        };
        self.stats.blocks_accepted += 1;
        // The tip advanced: reset stale-tip detection and retire any
        // extra outbound slot it granted (the connection itself stays;
        // natural churn brings the count back to the configured target).
        self.last_tip_change = now;
        self.stale_tip_extra = false;
        self.record_reorg(reorg);
        self.mempool.remove_confirmed(&block.txids());
        self.relay_block(&hash, &block);
        true
    }

    /// Records a reorg reported by the chain for the world to drain.
    fn record_reorg(&mut self, reorg: Option<ReorgInfo>) {
        if let Some(info) = reorg {
            if info.is_reorg() {
                self.stats.reorgs += 1;
                self.pending_reorgs.push(info);
            }
        }
    }

    /// Takes the reorgs observed since the last drain (world-side
    /// trace/metric hook).
    pub fn take_reorgs(&mut self) -> Vec<ReorgInfo> {
        std::mem::take(&mut self.pending_reorgs)
    }

    fn relay_block(&mut self, hash: &Hash256, block: &Block) {
        let prioritize = self.cfg.relay.prioritize_blocks;
        for slot in self.relay_targets(hash) {
            let p = self.peers.slot_mut(slot);
            p.mark_known(*hash);
            let msg = if p.prefers_compact && self.cfg.compact_blocks {
                let nonce = self.rng.next_u64();
                Message::CmpctBlock(Box::new(CompactBlock::from_block(block, nonce)))
            } else {
                Message::Block(Box::new(block.clone()))
            };
            p.enqueue_send(msg, prioritize);
        }
    }

    fn on_getheaders(&mut self, from: NodeId, g: GetHeaders) {
        let headers = self.chain.headers_after(&g.locator, 2000);
        if !headers.is_empty() {
            self.send(from, Message::Headers(headers));
        }
    }

    fn on_headers(
        &mut self,
        from: NodeId,
        headers: Vec<bitsync_protocol::block::BlockHeader>,
        now: SimTime,
        requests: &mut Vec<NodeRequest>,
    ) {
        let mut want: Vec<InvVect> = Vec::new();
        for h in &headers {
            if self.would_reorg(&h.prev_blockhash) && self.ban_fork_announcer(from, now, requests) {
                return;
            }
            let hash = match self.chain.connect_header(h) {
                Ok((hash, reorg)) => {
                    self.record_reorg(reorg);
                    hash
                }
                // Already in the tree: its body may still be wanted.
                Err(ChainError::Duplicate(hash)) => hash,
                Err(_) => continue,
            };
            if !self.chain.has_body(&hash) {
                want.push(InvVect::block(hash));
            }
        }
        if !want.is_empty() {
            // Fetch bodies in batches of 16 (Core: MAX_BLOCKS_IN_TRANSIT).
            for chunk in want.chunks(16) {
                self.send(from, Message::GetData(chunk.to_vec()));
            }
        }
    }

    fn on_cmpctblock(
        &mut self,
        from: NodeId,
        cb: CompactBlock,
        now: SimTime,
        requests: &mut Vec<NodeRequest>,
    ) {
        let hash = cb.block_hash();
        if let Some(p) = self.peers.get_mut(&from) {
            p.mark_known(hash);
        }
        if self.chain.has_body(&hash) {
            return;
        }
        let keys = cb.keys();
        let pool = &self.mempool;
        let index = pool.short_id_index(&keys);
        match reconstruct(&cb, |sid| {
            index
                .get(&sid.to_u64())
                .and_then(|txid| pool.get(txid))
                .cloned()
        }) {
            Reconstruction::Complete(block) => {
                self.accept_block(*block, Some(from), now, requests);
            }
            Reconstruction::Missing { indexes } => {
                self.pending_compact
                    .insert(hash, PendingCompact { cb, from });
                self.send(
                    from,
                    Message::GetBlockTxn(BlockTxnRequest {
                        block_hash: hash,
                        indexes,
                    }),
                );
            }
        }
    }

    fn on_getblocktxn(&mut self, from: NodeId, req: BlockTxnRequest) {
        let Some(block) = self.chain.block(&req.block_hash) else {
            return;
        };
        let txs: Vec<Transaction> = req
            .indexes
            .iter()
            .filter_map(|&i| block.txs.get(i as usize).cloned())
            .collect();
        self.send(
            from,
            Message::BlockTxn(BlockTxn {
                block_hash: req.block_hash,
                txs,
            }),
        );
    }

    fn on_blocktxn(
        &mut self,
        _from: NodeId,
        bt: BlockTxn,
        now: SimTime,
        requests: &mut Vec<NodeRequest>,
    ) {
        let Some(pending) = self.pending_compact.remove(&bt.block_hash) else {
            return;
        };
        let keys = pending.cb.keys();
        let mut extra: VecDeque<Transaction> = bt.txs.into();
        let pool = &self.mempool;
        let index = pool.short_id_index(&keys);
        let result = reconstruct(&pending.cb, |sid| {
            index
                .get(&sid.to_u64())
                .and_then(|txid| pool.get(txid))
                .cloned()
                .or_else(|| {
                    // The requested transactions arrive in missing-index
                    // order, which matches reconstruction order.
                    if extra
                        .front()
                        .is_some_and(|t| keys.short_id(&t.txid()) == sid)
                    {
                        extra.pop_front()
                    } else {
                        None
                    }
                })
        });
        if let Reconstruction::Complete(block) = result {
            let from = pending.from;
            self.accept_block(*block, Some(from), now, requests);
        }
    }

    // ------------------------------------------------------------------
    // Local production
    // ------------------------------------------------------------------

    /// Mines a block locally (used by the world's miner schedule) and
    /// relays it.
    pub fn mine_and_relay(
        &mut self,
        miner: &mut bitsync_chain::Miner,
        now: SimTime,
    ) -> Option<Hash256> {
        let block = miner.mine(
            self.chain.tip_hash(),
            unix_time(now).max(0) as u32,
            &self.mempool,
            &mut self.rng,
        );
        let hash = block.block_hash();
        // Local production never bans (no sender), so the scratch request
        // buffer stays empty.
        let mut requests = Vec::new();
        if self.accept_block(block, None, now, &mut requests) {
            debug_assert!(requests.is_empty());
            Some(hash)
        } else {
            None
        }
    }

    /// Whether this node's tip matches `best_height` (the paper's
    /// synchronization predicate).
    pub fn is_synchronized(&self, best_height: u64) -> bool {
        self.chain.is_synced_to(best_height)
    }
}
