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
//!
//! This file holds the record, its constructor and the message dispatch;
//! each mechanism is one private submodule that owns its Core constants
//! (DESIGN.md §2 maps them to the paper's root causes and the benchmark's
//! probes).

mod addr;
mod blocks;
mod dial;
mod handshake;
mod inventory;
mod pump;

pub use addr::{
    AddrReceipt, ADDR_ENTRY_BUDGET, ADDR_FLOOD_PENALTY, ADDR_RELAY_FANOUT, BAN_THRESHOLD,
    OVERSIZE_ADDR_PENALTY,
};
pub use blocks::MAX_ORPHAN_BLOCKS;
pub use dial::{Attempt, DISCOURAGEMENT_WINDOW, MAX_INBOUND};
pub use handshake::{PEER_TIMEOUT, PING_INTERVAL};
pub use inventory::{INV_INTERVAL_INBOUND, INV_INTERVAL_OUTBOUND};
pub use pump::{Outgoing, PumpBufs};

use crate::config::NodeConfig;
use crate::peer::{Direction, NodeId, PeerTable};
use bitsync_addrman::AddrMan;
use bitsync_chain::{ChainState, Mempool, ReorgInfo};
use bitsync_protocol::addr::NetAddr;
use bitsync_protocol::block::Block;
use bitsync_protocol::hash::{Hash256, IdMap};
use bitsync_protocol::message::Message;
use bitsync_sim::rng::SimRng;
use bitsync_sim::time::SimTime;
use std::collections::VecDeque;

/// UNIX timestamp of simulation time zero (April 4, 2020 — the start of the
/// paper's measurement window).
pub const SIM_EPOCH_UNIX: i64 = 1_585_958_400;

/// Converts simulated time to UNIX seconds.
pub fn unix_time(now: SimTime) -> i64 {
    SIM_EPOCH_UNIX + now.as_secs() as i64
}

/// Mempool capacity in transactions (stands in for Core's
/// `DEFAULT_MAX_MEMPOOL_SIZE`, which is in megabytes).
pub const MEMPOOL_CAPACITY: usize = 50_000;

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

/// The dial counters the experiments read off a node (§IV-A's success
/// rate). Everything else a node does is counted once, by the world's
/// metrics and trace.
#[derive(Clone, Copy, Debug, Default)]
pub struct NodeStats {
    /// Outgoing connection attempts started (feelers not included).
    pub attempts: u64,
    /// Outgoing connections that completed a handshake.
    pub successes: u64,
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
    /// Earliest instant the keepalive sweep could ping or time out a peer
    /// (a lower bound; `ZERO` forces the next sweep).
    keepalive_due: SimTime,
    /// Outstanding dial, if any (Core opens one at a time).
    in_flight_attempt: Option<(NetAddr, Direction)>,
    /// Compact blocks awaiting `BLOCKTXN`.
    pending_compact: IdMap<Hash256, blocks::PendingCompact>,
    /// Orphan blocks parked until their parent arrives, oldest first
    /// (bounded by [`MAX_ORPHAN_BLOCKS`] with FIFO eviction).
    orphans: VecDeque<Block>,
    /// Reorgs observed since the world last drained them (trace hook).
    pending_reorgs: Vec<ReorgInfo>,
    /// Peers we already answered `GETADDR` for (Core answers once).
    getaddr_answered: Vec<NodeId>,
    /// Dial counters.
    pub stats: NodeStats,
    /// When set, the node is ADDR-flooding malware (§IV-B, Figure 8).
    pub flooder: Option<crate::malicious::AddrFlooder>,
    /// Discouraged ("banned") addresses and when they were discouraged;
    /// neither dialed nor accepted within the discouragement window.
    discouraged: IdMap<NetAddr, SimTime>,
    /// Per-address dial backoff (lookup-only: never iterated, so the
    /// hash map's order cannot leak into the simulation).
    dial_backoff: IdMap<NetAddr, dial::BackoffEntry>,
    /// Last time the chain tip advanced (drives stale-tip detection).
    pub last_tip_change: SimTime,
    /// Whether the stale-tip countermeasure currently grants one extra
    /// outbound slot.
    pub stale_tip_extra: bool,
    rng: SimRng,
}

// A node holds no instrument handle (what the world traces leaves it in
// what `Node::pump` returns), so a node can move to another thread.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Node>()
};

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
            keepalive_due: SimTime::ZERO,
            in_flight_attempt: None,
            pending_compact: IdMap::default(),
            orphans: VecDeque::new(),
            pending_reorgs: Vec::new(),
            getaddr_answered: Vec::new(),
            stats: NodeStats::default(),
            flooder: None,
            discouraged: IdMap::default(),
            dial_backoff: IdMap::default(),
            last_tip_change: SimTime::ZERO,
            stale_tip_extra: false,
            rng,
        }
    }

    /// Core's `ProcessMessage`: routes one message popped by the pump to
    /// the mechanism that owns it.
    fn handle_message(
        &mut self,
        from: NodeId,
        msg: Message,
        now: SimTime,
        requests: &mut Vec<NodeRequest>,
        receipts: &mut Vec<AddrReceipt>,
    ) {
        match msg {
            Message::Version(v) => self.on_version(from, *v, now),
            Message::Verack => self.on_verack(from, now, requests),
            Message::GetAddr => self.on_getaddr(from, now),
            Message::Addr(list) => receipts.extend(self.on_addr(from, list, now, requests)),
            Message::Ping(n) => self.send(from, Message::Pong(n)),
            Message::Pong(_) => {}
            Message::Inv(items) => self.on_inv(from, items),
            Message::GetData(items) => self.on_getdata(from, items),
            Message::NotFound(_) => {}
            Message::Tx(tx) => self.on_tx(from, tx, now),
            Message::Block(b) => self.on_block(from, *b, now, requests),
            Message::GetHeaders(g) => self.on_getheaders(from, *g),
            Message::Headers(headers) => self.on_headers(from, headers, now, requests),
            Message::SendCmpct(s) => {
                if let Some(p) = self.peers.get_mut(&from) {
                    p.prefers_compact = s.announce && s.version == 1;
                }
            }
            Message::CmpctBlock(cb) => self.on_cmpctblock(from, *cb, now, requests),
            Message::GetBlockTxn(req) => self.on_getblocktxn(from, *req),
            Message::BlockTxn(bt) => self.on_blocktxn(*bt, now, requests),
        }
    }

    /// Queues `msg` on peer `to`'s `vSendMessage` (dropped if it is gone),
    /// under the §V block-priority refinement when configured — as a
    /// message handler's reply does.
    pub fn send(&mut self, to: NodeId, msg: Message) {
        if let Some(slot) = self.peers.slot(&to) {
            self.peers.push_send(slot, msg, self.cfg.priority_relay);
        }
    }
}
