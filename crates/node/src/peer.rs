//! Per-connection state: direction, handshake progress, and the two
//! message queues of the paper's Figure 9 (`vProcessMsg` inbound,
//! `vSendMessage` outbound) — and the [`PeerTable`] a node keeps them in,
//! with the known-inventory filter shared by its records.

use bitsync_protocol::addr::NetAddr;
use bitsync_protocol::hash::{table_bytes, Hash256, IdMap, InvVect};
use bitsync_protocol::message::Message;
use bitsync_sim::time::SimTime;
use std::collections::VecDeque;

/// A node identifier inside a simulation world.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Who initiated the connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// We dialed out: the remote is by definition reachable.
    Outbound,
    /// The remote dialed us: it may be reachable or unreachable.
    Inbound,
    /// A short-lived test connection for `tried`-table maintenance
    /// (Core's feeler connections; not used for data relay).
    Feeler,
}

impl Direction {
    /// Whether this connection relays blocks and transactions.
    pub fn relays_data(self) -> bool {
        !matches!(self, Direction::Feeler)
    }
}

/// Handshake progress.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Handshake {
    /// Awaiting the remote `VERSION` (inbound) or our `VERSION` is queued
    /// (outbound).
    AwaitVersion,
    /// `VERSION` exchanged; awaiting `VERACK`.
    AwaitVerack,
    /// Fully established.
    Ready,
}

/// State for one connected peer.
#[derive(Clone, Debug)]
pub struct Peer {
    /// The remote node.
    pub node: NodeId,
    /// The remote endpoint.
    pub addr: NetAddr,
    /// Connection direction.
    pub dir: Direction,
    /// Handshake progress.
    pub handshake: Handshake,
    /// Inbound messages awaiting processing (`vProcessMsg`).
    pub proc_q: VecDeque<Message>,
    /// Outbound messages awaiting the socket writer (`vSendMessage`).
    pub send_q: VecDeque<Message>,
    /// Whether the peer negotiated BIP 152 compact blocks.
    pub prefers_compact: bool,
    /// Inventory the peer is known to have (suppresses re-relay): one bit
    /// per id of the inventory-id table of the [`PeerTable`] that holds
    /// the record. A new record knows nothing.
    known: KnownBits,
    /// Txids queued for the next trickled `INV` (Core's per-peer
    /// `vInventoryTxToSend`; only used in `TxAnnounce::Trickle` mode).
    pub pending_inv: Vec<Hash256>,
    /// When the next trickled `INV` may be flushed.
    pub next_inv_at: SimTime,
    /// Last time any message arrived from this peer.
    pub last_recv: SimTime,
    /// When the next keepalive `PING` is due.
    pub next_ping_at: SimTime,
    /// When the TCP connection was established (drives the handshake
    /// timeout countermeasure).
    pub connected_at: SimTime,
    /// Accumulated misbehavior score (Core's `Misbehaving`); crossing the
    /// ban threshold discouraged-bans the peer when scoring is enabled.
    pub misbehavior: u32,
    /// Total ADDR entries accepted from this peer (drives the flood
    /// budget).
    pub addr_entries: u64,
}

impl Peer {
    /// Creates a fresh peer record.
    pub fn new(node: NodeId, addr: NetAddr, dir: Direction) -> Self {
        Peer {
            node,
            addr,
            dir,
            handshake: Handshake::AwaitVersion,
            proc_q: VecDeque::new(),
            send_q: VecDeque::new(),
            prefers_compact: false,
            known: KnownBits::default(),
            pending_inv: Vec::new(),
            next_inv_at: SimTime::ZERO,
            last_recv: SimTime::ZERO,
            next_ping_at: SimTime::ZERO,
            connected_at: SimTime::ZERO,
            misbehavior: 0,
            addr_entries: 0,
        }
    }

    /// Whether the handshake completed.
    pub fn is_ready(&self) -> bool {
        self.handshake == Handshake::Ready
    }

    /// Queues `msg` for sending, honouring the block-priority refinement
    /// when `prioritize_blocks` is set: block-bearing messages are placed
    /// before any queued non-block message. Only [`PeerTable::push_send`]
    /// calls it, so the table's readiness bit sees every message.
    fn enqueue_send(&mut self, msg: Message, prioritize_blocks: bool) {
        if prioritize_blocks && msg.is_block_bearing() {
            // Insert after any already-prioritized block messages at the
            // front, preserving block ordering.
            let pos = self
                .send_q
                .iter()
                .position(|m| !m.is_block_bearing())
                .unwrap_or(self.send_q.len());
            self.send_q.insert(pos, msg);
        } else {
            self.send_q.push_back(msg);
        }
    }

    /// Bytes the record's two message queues and trickle list allocate
    /// (a queued message's boxed payload is not counted).
    fn queue_bytes(&self) -> usize {
        (self.proc_q.capacity() + self.send_q.capacity()) * size_of::<Message>()
            + self.pending_inv.capacity() * size_of::<Hash256>()
    }
}

/// The inventory ids one peer knows: bit `i` of `words` is id `base + i`.
/// `base` is a multiple of 64 and the first id marked sets it; a lower id
/// grows `words` downward.
#[derive(Clone, Debug, Default)]
struct KnownBits {
    base: u32,
    words: Vec<u64>,
}

impl KnownBits {
    /// Whether bit `id` is set.
    fn has(&self, id: u32) -> bool {
        id.checked_sub(self.base).is_some_and(|i| {
            self.words
                .get((i / 64) as usize)
                .is_some_and(|w| w >> (i % 64) & 1 == 1)
        })
    }

    /// Sets bit `id`; returns `true` if it was clear.
    fn set(&mut self, id: u32) -> bool {
        let floor = id & !63;
        if self.words.is_empty() {
            self.base = floor;
        } else if floor < self.base {
            let below = ((self.base - floor) / 64) as usize;
            self.words.splice(0..0, std::iter::repeat_n(0, below));
            self.base = floor;
        }
        let i = id - self.base;
        let word = (i / 64) as usize;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let bit = 1 << (i % 64);
        let was_clear = self.words[word] & bit == 0;
        self.words[word] |= bit;
        was_clear
    }

    /// ORs these bits into `union`, whose `base` is at most this one's and
    /// whose words reach at least as far.
    fn or_into(&self, union: &mut KnownBits) {
        let offset = ((self.base - union.base) / 64) as usize;
        for (to, from) in union.words[offset..].iter_mut().zip(&self.words) {
            *to |= from;
        }
    }
}

/// One bit per slot of a [`PeerTable`], kept aligned with its records; a
/// bit past the last word is clear.
#[derive(Clone, Debug, Default)]
struct SlotBits(Vec<u64>);

impl SlotBits {
    fn get(&self, slot: u32) -> bool {
        self.0
            .get(slot as usize / 64)
            .is_some_and(|w| w >> (slot % 64) & 1 == 1)
    }

    fn set(&mut self, slot: u32) {
        let word = slot as usize / 64;
        if word >= self.0.len() {
            self.0.resize(word + 1, 0);
        }
        self.0[word] |= 1 << (slot % 64);
    }

    fn clear(&mut self, slot: u32) {
        if let Some(w) = self.0.get_mut(slot as usize / 64) {
            *w &= !(1 << (slot % 64));
        }
    }

    /// Whether any bit is set.
    fn any(&self) -> bool {
        self.0.iter().any(|&w| w != 0)
    }

    /// Drops bit `slot` and moves every later bit down by one, as
    /// `Vec::remove` moves the records.
    fn remove(&mut self, slot: u32) {
        let first = slot as usize / 64;
        for word in first..self.0.len() {
            let carry = self.0.get(word + 1).map_or(0, |next| next << 63);
            let w = self.0[word];
            // Below `slot` nothing moves; in later words every bit does.
            let below = if word == first {
                (1 << (slot % 64)) - 1
            } else {
                0
            };
            self.0[word] = (w & below) | ((w >> 1) & !below) | carry;
        }
    }
}

/// The table's inventory ids: [`Hash256::prefix_u64`] → a `u32` id, given
/// out in first-marked order and never reused.
#[derive(Clone, Debug, Default)]
struct InvIds {
    ids: IdMap<u64, u32>,
    /// The next id to give out.
    next: u32,
    /// How many ids the last sweep kept (0 before the first).
    kept: usize,
}

/// The id table holds at least this many ids before its first sweep.
const SWEEP_FLOOR: usize = 4096;

/// A node's connected peers: the records stored densely, the round-robin
/// visit order, an id-sorted index, which of their queues hold mail, and
/// which inventory each peer is known to have.
///
/// Two orders matter to the simulation and the table keeps both:
/// *connection order* drives the pump and the relay fan-outs (Core walks
/// `vNodes`), ascending [`NodeId`] drives everything that used to iterate
/// the old `BTreeMap` ([`keys`](Self::keys), [`values`](Self::values),
/// [`iter`](Self::iter)). Lookup by id is a binary search over the index.
///
/// Every message the node queues goes through the table's `push_recv` or
/// `push_send`, and the pump takes them out through its `pop_recv` /
/// `pop_send`, so each slot has one readiness bit per queue that is set
/// exactly while the queue holds mail: a push sets it, a pop that leaves
/// the queue empty clears it. A pump pass starts only if a bit of its
/// queue is set, tests a turn's bit before it reads the record, and stops
/// after the pop that clears the last one. The queues themselves stay
/// public fields: a write through them that *removes* messages (the
/// benchmark empties a `send_q`) leaves a bit set, which costs one wasted
/// visit and never skips a message; one that *adds* messages leaves a bit
/// clear, and the pump never sees the message
/// ([`check_readiness`](Self::check_readiness) reports both).
///
/// Known inventory (Core's per-peer `filterInventoryKnown`) is one id table
/// per node and one bit per id per record. The table maps an object's
/// [`Hash256::prefix_u64`] to a `u32` id in first-marked order; two objects
/// sharing a prefix are one object to it. Before it gives out a new id, a
/// table that holds at least max(4096, 2 × the ids its last sweep kept)
/// sweeps: it drops every id that no connected peer knows. No answer can
/// see that: a dropped id was known to no record, a new record knows
/// nothing, and a re-marked object gets a fresh id, clear at every record.
#[derive(Clone, Debug, Default)]
pub struct PeerTable {
    /// Peer records, oldest connection first; `order` and `by_id` hold
    /// indices into it.
    slots: Vec<Peer>,
    /// One slot index per pump turn, in connection order. A slot appears
    /// twice after a double connect (see [`PeerTable::insert`]).
    order: Vec<u32>,
    /// `(id, slot)` per connected peer, ascending by id.
    by_id: Vec<(NodeId, u32)>,
    /// Per slot: its `proc_q` holds a message.
    recv_ready: SlotBits,
    /// Per slot: its `send_q` holds a message.
    send_ready: SlotBits,
    /// The ids the records' [`KnownBits`] are indexed by.
    inv_ids: InvIds,
}

impl PeerTable {
    /// Number of connected peers.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no peer is connected.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The slot of peer `id`, for the slot-addressed methods.
    pub(crate) fn slot(&self, id: &NodeId) -> Option<u32> {
        let pos = self.by_id.binary_search_by_key(id, |e| e.0).ok()?;
        Some(self.by_id[pos].1)
    }

    /// Whether `id` is connected.
    pub fn contains_key(&self, id: &NodeId) -> bool {
        self.slot(id).is_some()
    }

    /// The record of peer `id`.
    pub fn get(&self, id: &NodeId) -> Option<&Peer> {
        self.slot(id).map(|s| &self.slots[s as usize])
    }

    /// The record of peer `id`, mutably.
    pub fn get_mut(&mut self, id: &NodeId) -> Option<&mut Peer> {
        self.slot(id).map(|s| &mut self.slots[s as usize])
    }

    /// Peers in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (&NodeId, &Peer)> {
        self.by_id
            .iter()
            .map(|(id, slot)| (id, &self.slots[*slot as usize]))
    }

    /// Connected ids, ascending.
    pub fn keys(&self) -> impl Iterator<Item = &NodeId> {
        self.by_id.iter().map(|(id, _)| id)
    }

    /// Peer records in ascending id order.
    pub fn values(&self) -> impl Iterator<Item = &Peer> {
        self.iter().map(|(_, p)| p)
    }

    /// Peer records in storage order, for walks whose result does not
    /// depend on the order (counts, `any`).
    pub fn as_slice(&self) -> &[Peer] {
        &self.slots
    }

    /// Calls `f` with every peer and its slot, in ascending id order, and
    /// appends the message it returns, if any, to that peer's `send_q`
    /// (counted, as [`push_send`](Self::push_send) without block
    /// priority).
    pub(crate) fn for_each_by_id_mut(
        &mut self,
        mut f: impl FnMut(u32, &mut Peer) -> Option<Message>,
    ) {
        for rank in 0..self.by_id.len() {
            let slot = self.by_id[rank].1;
            if let Some(msg) = f(slot, &mut self.slots[slot as usize]) {
                self.push_send(slot, msg, false);
            }
        }
    }

    /// Records a new connection with empty queues; it is visited last.
    /// Returns its slot.
    ///
    /// Known quirk, kept on purpose (DESIGN.md §6 "Double connect"): if
    /// `peer.node` is already connected — two nodes dialed each other at
    /// once — the old record is replaced in place (its queues are lost)
    /// and the id gains a *second* turn at the end of the visit order.
    pub(crate) fn insert(&mut self, peer: Peer) -> u32 {
        debug_assert!(peer.proc_q.is_empty() && peer.send_q.is_empty());
        debug_assert!(peer.known.words.is_empty());
        let slot = match self.by_id.binary_search_by_key(&peer.node, |e| e.0) {
            Ok(pos) => {
                let slot = self.by_id[pos].1;
                self.slots[slot as usize] = peer;
                self.recv_ready.clear(slot);
                self.send_ready.clear(slot);
                slot
            }
            Err(pos) => {
                let slot = self.slots.len() as u32;
                self.by_id.insert(pos, (peer.node, slot));
                self.slots.push(peer);
                slot
            }
        };
        self.order.push(slot);
        slot
    }

    /// Forgets peer `id` and every turn it had.
    pub(crate) fn remove(&mut self, id: &NodeId) -> Option<Peer> {
        let pos = self.by_id.binary_search_by_key(id, |e| e.0).ok()?;
        let slot = self.by_id.remove(pos).1;
        self.order.retain(|s| *s != slot);
        // Later slots move down by one; storage stays in connection order.
        let later = self
            .order
            .iter_mut()
            .chain(self.by_id.iter_mut().map(|e| &mut e.1));
        for s in later.filter(|s| **s > slot) {
            *s -= 1;
        }
        self.recv_ready.remove(slot);
        self.send_ready.remove(slot);
        Some(self.slots.remove(slot as usize))
    }

    /// Checks that each slot's readiness bits say which of its queues hold
    /// mail (a bit is set exactly while its queue is non-empty, and no bit
    /// past the last slot is set); the error names the first slot that
    /// disagrees.
    pub fn check_readiness(&self) -> Result<(), String> {
        self.check_bits("proc_q", &self.recv_ready, |p| p.proc_q.len())?;
        self.check_bits("send_q", &self.send_ready, |p| p.send_q.len())
    }

    /// [`check_readiness`](Self::check_readiness) for one queue of each
    /// record.
    fn check_bits(
        &self,
        queue: &str,
        bits: &SlotBits,
        len: fn(&Peer) -> usize,
    ) -> Result<(), String> {
        let slots = self.slots.len().max(bits.0.len() * 64) as u32;
        for slot in 0..slots {
            let held = self.slots.get(slot as usize).map_or(0, len);
            let ready = bits.get(slot);
            if ready != (held > 0) {
                let bit = if ready { "set" } else { "clear" };
                return Err(format!(
                    "slot {slot}: {queue} holds {held} messages but its readiness bit is {bit}"
                ));
            }
        }
        Ok(())
    }

    /// Bytes the table allocates, as `(records and their queues, known
    /// inventory)`: the records, the visit order, the index and the
    /// readiness bits, plus each record's queues; then the inventory-id
    /// table ([`table_bytes`]) plus each record's bit words.
    pub(crate) fn footprint(&self) -> (usize, usize) {
        let own = self.slots.capacity() * size_of::<Peer>()
            + self.order.capacity() * size_of::<u32>()
            + self.by_id.capacity() * size_of::<(NodeId, u32)>()
            + (self.recv_ready.0.capacity() + self.send_ready.0.capacity()) * size_of::<u64>();
        let ids = table_bytes(self.inv_ids.ids.capacity(), size_of::<(u64, u32)>());
        self.slots.iter().fold((own, ids), |(queues, known), p| {
            (
                queues + p.queue_bytes(),
                known + p.known.words.capacity() * size_of::<u64>(),
            )
        })
    }

    /// The id `hash` is known under, if any record may know it; never
    /// gives one out.
    pub(crate) fn inv_id(&self, hash: &Hash256) -> Option<u32> {
        self.inv_ids.ids.get(&hash.prefix_u64()).copied()
    }

    /// Whether the peer in `slot` knows the object of id `id` (from
    /// [`inv_id`](Self::inv_id): one lookup serves a whole fan-out).
    pub(crate) fn knows_id(&self, slot: u32, id: u32) -> bool {
        self.slots[slot as usize].known.has(id)
    }

    /// Whether the peer in `slot` knows `hash`.
    pub(crate) fn knows(&self, slot: u32, hash: &Hash256) -> bool {
        self.inv_id(hash).is_some_and(|id| self.knows_id(slot, id))
    }

    /// Marks `hash` as known to the peer in `slot`; returns `true` if it
    /// was unknown. A hash no record knows gets a new id, after a sweep if
    /// the id table is due one (see the type docs).
    pub(crate) fn mark_known(&mut self, slot: u32, hash: Hash256) -> bool {
        let key = hash.prefix_u64();
        let id = match self.inv_ids.ids.get(&key) {
            Some(&id) => id,
            None => {
                if self.inv_ids.ids.len() >= SWEEP_FLOOR.max(2 * self.inv_ids.kept) {
                    self.sweep();
                }
                let id = self.inv_ids.next;
                self.inv_ids.next = id.checked_add(1).expect("fewer than 2^32 inventory ids");
                self.inv_ids.ids.insert(key, id);
                id
            }
        };
        self.slots[slot as usize].known.set(id)
    }

    /// Drops every id that no connected peer knows.
    fn sweep(&mut self) {
        let marked = || {
            self.slots
                .iter()
                .map(|p| &p.known)
                .filter(|k| !k.words.is_empty())
        };
        let base = marked().map(|k| k.base).min().unwrap_or(0);
        let len = marked()
            .map(|k| ((k.base - base) / 64) as usize + k.words.len())
            .max()
            .unwrap_or(0);
        let mut union = KnownBits {
            base,
            words: vec![0; len],
        };
        for known in marked() {
            known.or_into(&mut union);
        }
        self.inv_ids.ids.retain(|_, id| union.has(*id));
        self.inv_ids.kept = self.inv_ids.ids.len();
    }

    /// Empties the trickle list of the peer in `slot` into the next `INV`:
    /// the first `max` txids the peer did not know, now marked known (the
    /// rest are dropped). Every txid is tested before any is marked, so
    /// one queued twice is sent twice.
    pub(crate) fn take_inv_batch(&mut self, slot: u32, max: usize) -> Vec<InvVect> {
        let mut pending = std::mem::take(&mut self.slots[slot as usize].pending_inv);
        let batch: Vec<InvVect> = pending
            .drain(..)
            .filter(|h| !self.knows(slot, h))
            .take(max)
            .map(InvVect::tx)
            .collect();
        // The emptied list goes back with its allocation, which `mem_peers`
        // counts.
        self.slots[slot as usize].pending_inv = pending;
        for iv in &batch {
            self.mark_known(slot, iv.hash);
        }
        batch
    }

    /// Appends a delivered message to peer `id`'s `vProcessMsg`; `None`
    /// (and nothing queued) if `id` is not connected.
    pub(crate) fn push_recv(&mut self, id: &NodeId, msg: Message) -> Option<&mut Peer> {
        let slot = self.slot(id)?;
        self.recv_ready.set(slot);
        let p = &mut self.slots[slot as usize];
        p.proc_q.push_back(msg);
        Some(p)
    }

    /// Queues `msg` on the `vSendMessage` of the peer in `slot`, under the
    /// §V block priority when `prioritize_blocks` is set: the one way a
    /// node queues an outbound message.
    pub(crate) fn push_send(&mut self, slot: u32, msg: Message, prioritize_blocks: bool) {
        self.send_ready.set(slot);
        self.slots[slot as usize].enqueue_send(msg, prioritize_blocks);
    }

    /// The next message from the `vProcessMsg` of the peer in `slot`;
    /// clears the slot's readiness bit once the queue is empty.
    pub(crate) fn pop_recv(&mut self, slot: u32) -> Option<Message> {
        let q = &mut self.slots[slot as usize].proc_q;
        let msg = q.pop_front();
        if q.is_empty() {
            self.recv_ready.clear(slot);
        }
        msg
    }

    /// The next message from the `vSendMessage` of the peer in `slot`;
    /// clears the slot's readiness bit once the queue is empty.
    pub(crate) fn pop_send(&mut self, slot: u32) -> Option<Message> {
        let q = &mut self.slots[slot as usize].send_q;
        let msg = q.pop_front();
        if q.is_empty() {
            self.send_ready.clear(slot);
        }
        msg
    }

    /// Whether the `proc_q` of the peer in `slot` may hold a message: a
    /// clear bit means it is empty, read without touching the record.
    pub(crate) fn may_recv(&self, slot: u32) -> bool {
        self.recv_ready.get(slot)
    }

    /// Whether the `send_q` of the peer in `slot` may hold a message (as
    /// [`may_recv`](Self::may_recv)).
    pub(crate) fn may_send(&self, slot: u32) -> bool {
        self.send_ready.get(slot)
    }

    /// Whether any `proc_q` may hold a message (some readiness bit is set).
    pub(crate) fn any_recv(&self) -> bool {
        self.recv_ready.any()
    }

    /// Whether any `send_q` may hold a message (as
    /// [`any_recv`](Self::any_recv)).
    pub(crate) fn any_send(&self) -> bool {
        self.send_ready.any()
    }

    /// One slot number (for [`slot_mut`](Self::slot_mut)) per pump turn, in
    /// connection order; the node's `for_each_turn` walks it as is or, under
    /// §V priority relay, class by class.
    pub(crate) fn order(&self) -> &[u32] {
        &self.order
    }

    /// The peer in `slot` (an entry of [`order`](Self::order)).
    pub(crate) fn slot_mut(&mut self, slot: u32) -> &mut Peer {
        &mut self.slots[slot as usize]
    }
}

impl std::ops::Index<&NodeId> for PeerTable {
    type Output = Peer;

    /// # Panics
    ///
    /// Panics if `id` is not connected.
    fn index(&self, id: &NodeId) -> &Peer {
        self.get(id).expect("peer is connected")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitsync_protocol::block::Block;
    use bitsync_protocol::compact::CompactBlock;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn addr() -> NetAddr {
        NetAddr::from_ipv4(std::net::Ipv4Addr::new(192, 0, 2, 1), 8333)
    }

    fn block_msg() -> Message {
        let b = Block::assemble(2, Hash256::ZERO, 0, 0, vec![]);
        Message::CmpctBlock(Box::new(CompactBlock::from_block(&b, 1)))
    }

    #[test]
    fn fifo_without_priority() {
        let mut p = Peer::new(NodeId(1), addr(), Direction::Outbound);
        p.enqueue_send(Message::GetAddr, false);
        p.enqueue_send(block_msg(), false);
        p.enqueue_send(Message::Ping(1), false);
        assert_eq!(p.send_q.pop_front().unwrap(), Message::GetAddr);
        assert!(p.send_q.pop_front().unwrap().is_block_bearing());
        assert_eq!(p.send_q.pop_front().unwrap(), Message::Ping(1));
    }

    #[test]
    fn blocks_jump_queue_with_priority() {
        let mut p = Peer::new(NodeId(1), addr(), Direction::Outbound);
        p.enqueue_send(Message::GetAddr, true);
        p.enqueue_send(Message::Ping(1), true);
        p.enqueue_send(block_msg(), true);
        assert!(p.send_q.pop_front().unwrap().is_block_bearing());
        assert_eq!(p.send_q.pop_front().unwrap(), Message::GetAddr);
    }

    #[test]
    fn priority_preserves_block_order() {
        let mut p = Peer::new(NodeId(1), addr(), Direction::Outbound);
        p.enqueue_send(Message::GetAddr, true);
        let b1 = block_msg();
        let b2 = Message::Block(Box::new(Block::assemble(
            2,
            Hash256::hash_of(b"x"),
            9,
            9,
            vec![],
        )));
        p.enqueue_send(b1.clone(), true);
        p.enqueue_send(b2.clone(), true);
        assert_eq!(p.send_q.pop_front().unwrap(), b1);
        assert_eq!(p.send_q.pop_front().unwrap(), b2);
        assert_eq!(p.send_q.pop_front().unwrap(), Message::GetAddr);
    }

    #[test]
    fn known_inv_dedup() {
        let mut table = PeerTable::default();
        let slot = table.insert(Peer::new(NodeId(2), addr(), Direction::Inbound));
        let h = Hash256::hash_of(b"tx");
        assert!(!table.knows(slot, &h));
        assert!(table.mark_known(slot, h));
        assert!(!table.mark_known(slot, h));
        assert!(table.knows(slot, &h));
    }

    /// A known id costs one bit at each peer that knows it, plus one
    /// 16-byte entry of the node's id table, and 1000 marked ids are told
    /// apart from 1000 others.
    #[test]
    fn known_inventory_costs_one_bit_a_peer() {
        let mut table = PeerTable::default();
        let first = table.insert(Peer::new(NodeId(2), addr(), Direction::Inbound));
        let id = |i: u32| Hash256::hash_of(&i.to_le_bytes());
        for i in 0..1000 {
            assert!(table.mark_known(first, id(i)));
        }
        assert!((0..1000).all(|i| table.knows(first, &id(i))));
        assert!((1000..2000).all(|i| !table.knows(first, &id(i))));
        // 1000 bits in 16 words; the id table grew one doubling at a time
        // (1024 buckets hold 896, so 2048) of a `(u64, u32)` and its
        // control byte.
        assert_eq!(table.slots[first as usize].known.words.capacity(), 16);
        let ids = 2048 * 17;
        assert_eq!(table_bytes(table.inv_ids.ids.capacity(), 16), ids);
        assert_eq!(table.footprint().1, ids + 16 * 8);
        // A second peer that knows the same ids adds its bits only.
        let second = table.insert(Peer::new(NodeId(3), addr(), Direction::Outbound));
        for i in 0..1000 {
            assert!(table.mark_known(second, id(i)));
        }
        assert_eq!(table.footprint().1, ids + 2 * 16 * 8);
    }

    /// An id below a peer's `base` grows its words downward.
    #[test]
    fn known_bits_grow_downward() {
        let mut bits = KnownBits::default();
        assert!(bits.set(200));
        assert_eq!((bits.base, bits.words.len()), (192, 1));
        assert!(bits.set(5));
        assert!(!bits.set(200));
        assert_eq!((bits.base, bits.words.len()), (0, 4));
        let set: Vec<u32> = (0..300).filter(|&i| bits.has(i)).collect();
        assert_eq!(set, [5, 200]);
    }

    /// One long-lived peer and a stream of short-lived ones: the id table
    /// holds what connected peers know, not every id ever marked, and the
    /// sweeps that keep it so change no answer.
    #[test]
    fn sweep_bounds_the_id_table_by_connection_lifetimes() {
        let mut table = PeerTable::default();
        let long = table.insert(Peer::new(NodeId(0), addr(), Direction::Outbound));
        let id = |i: u32| Hash256::hash_of(&i.to_le_bytes());
        let mut short = NodeId(1);
        table.insert(Peer::new(short, addr(), Direction::Inbound));
        let mut long_knows = Vec::new();
        for i in 0..100_000u32 {
            // Each short-lived peer is marked with 250 ids, the long-lived
            // one with every 1000th: a few hundred known ids at any time.
            if i % 250 == 0 {
                table.remove(&short);
                short = NodeId(short.0 + 1);
                table.insert(Peer::new(short, addr(), Direction::Inbound));
            }
            let slot = if i % 1000 == 0 {
                long_knows.push(i);
                long
            } else {
                table.slot(&short).unwrap()
            };
            assert!(table.mark_known(slot, id(i)));
            assert!(
                table.inv_ids.ids.len() <= 4097,
                "{} ids at {i}",
                table.inv_ids.ids.len()
            );
        }
        assert!(long_knows.iter().all(|&i| table.knows(long, &id(i))));
        let fresh = table.insert(Peer::new(NodeId(u32::MAX), addr(), Direction::Inbound));
        assert!((0..100_000).all(|i| !table.knows(fresh, &id(i))));
    }

    /// A write through a public queue field is what the readiness check
    /// exists to catch: a raw push leaves a bit clear, a raw removal one
    /// set.
    #[test]
    fn check_readiness_reports_a_queue_written_behind_the_table() {
        let mut table = PeerTable::default();
        let slot = table.insert(Peer::new(NodeId(4), addr(), Direction::Inbound));
        table.insert(Peer::new(NodeId(5), addr(), Direction::Inbound));
        table.slot_mut(slot).send_q.push_back(Message::GetAddr);
        assert_eq!(
            table.check_readiness(),
            Err("slot 0: send_q holds 1 messages but its readiness bit is clear".into())
        );
        table.push_recv(&NodeId(4), Message::Ping(1));
        table.slot_mut(slot).send_q.clear();
        assert_eq!(table.check_readiness(), Ok(()));
        table.slot_mut(slot).proc_q.clear();
        assert_eq!(
            table.check_readiness(),
            Err("slot 0: proc_q holds 0 messages but its readiness bit is set".into())
        );
        // The pop that finds the queue empty clears the stale bit.
        assert_eq!(table.pop_recv(slot), None);
        assert!(!table.any_recv());
        assert_eq!(table.check_readiness(), Ok(()));
    }

    #[test]
    fn feelers_do_not_relay() {
        assert!(!Direction::Feeler.relays_data());
        assert!(Direction::Outbound.relays_data());
        assert!(Direction::Inbound.relays_data());
    }

    /// A pool of `n` hashes in which hash `i` and `i + 6` share a prefix.
    fn pool(n: u8) -> Vec<Hash256> {
        (0..n)
            .map(|i| {
                let mut bytes = [0u8; 32];
                bytes[0] = i % 6;
                bytes[8] = i;
                Hash256(bytes)
            })
            .collect()
    }

    /// What tells two records of one id apart: `connected_at` is the
    /// model test's step counter.
    fn tag(p: &Peer) -> (NodeId, Direction, SimTime) {
        (p.node, p.dir, p.connected_at)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `PeerTable` against the structures it replaced — a
        /// `BTreeMap<NodeId, Peer>` plus a `Vec<NodeId>` visit order — over
        /// random connects (a connect of a connected id is the double
        /// connect) and disconnects (of an unknown id: a no-op) — and the
        /// readiness bits against the queues, over random pushes and pops
        /// in between.
        #[test]
        fn table_matches_the_map_and_order_it_replaced(
            ops in proptest::collection::vec((0u8..6, 0u32..8, 0u8..3), 0..80),
        ) {
            let mut table = PeerTable::default();
            let mut map: BTreeMap<NodeId, Peer> = BTreeMap::new();
            let mut order: Vec<NodeId> = Vec::new();
            for (step, (op, id, dir)) in ops.into_iter().enumerate() {
                let id = NodeId(id);
                match (op, table.slot(&id)) {
                    (0 | 1, _) => {
                        let dir = [Direction::Outbound, Direction::Inbound, Direction::Feeler][dir as usize];
                        let mut peer = Peer::new(id, addr(), dir);
                        peer.connected_at = SimTime::from_secs(step as u64);
                        table.insert(peer.clone());
                        map.insert(id, peer);
                        order.push(id);
                    }
                    (2, _) => {
                        let gone = table.remove(&id);
                        prop_assert_eq!(gone.as_ref().map(tag), map.remove(&id).as_ref().map(tag));
                        order.retain(|o| *o != id);
                    }
                    (3, _) => {
                        let queued = table.push_recv(&id, Message::Ping(step as u64)).is_some();
                        prop_assert_eq!(queued, map.contains_key(&id));
                    }
                    (4, Some(slot)) => table.push_send(slot, block_msg(), dir == 0),
                    (5, Some(slot)) => {
                        table.pop_recv(slot);
                        table.pop_send(slot);
                    }
                    _ => {}
                }
                // A bit is set exactly while its queue holds mail: the
                // pump skips a turn whose bit is clear and ends a pass when
                // none is set.
                prop_assert_eq!(table.check_readiness(), Ok(()));
                let held = |q: fn(&Peer) -> bool| table.as_slice().iter().any(q);
                prop_assert_eq!(table.any_recv(), held(|p| !p.proc_q.is_empty()));
                prop_assert_eq!(table.any_send(), held(|p| !p.send_q.is_empty()));

                prop_assert_eq!(table.len(), map.len());
                prop_assert_eq!(table.is_empty(), map.is_empty());
                prop_assert_eq!(table.as_slice().len(), map.len());
                for probe in (0..8).map(NodeId) {
                    prop_assert_eq!(table.contains_key(&probe), map.contains_key(&probe));
                    prop_assert_eq!(table.get(&probe).map(tag), map.get(&probe).map(tag));
                    prop_assert_eq!(
                        table.get_mut(&probe).map(|p| tag(p)),
                        map.get(&probe).map(tag)
                    );
                    if map.contains_key(&probe) {
                        prop_assert_eq!(tag(&table[&probe]), tag(&map[&probe]));
                    }
                }
                // Ascending id, like the map.
                prop_assert_eq!(
                    table.keys().collect::<Vec<_>>(),
                    map.keys().collect::<Vec<_>>()
                );
                prop_assert_eq!(
                    table.values().map(tag).collect::<Vec<_>>(),
                    map.values().map(tag).collect::<Vec<_>>()
                );
                prop_assert_eq!(
                    table.iter().map(|(id, p)| (*id, tag(p))).collect::<Vec<_>>(),
                    map.iter().map(|(id, p)| (*id, tag(p))).collect::<Vec<_>>()
                );
                let mut by_id = Vec::new();
                table.for_each_by_id_mut(|_, p| {
                    by_id.push(p.node);
                    None
                });
                prop_assert_eq!(by_id, map.keys().copied().collect::<Vec<_>>());
                // Connection order, double turns included, like the list.
                let via_slots: Vec<NodeId> = table
                    .order()
                    .to_vec()
                    .into_iter()
                    .map(|slot| {
                        let p = table.slot_mut(slot);
                        assert_eq!(tag(p), tag(&map[&p.node]), "slot {slot}");
                        p.node
                    })
                    .collect();
                prop_assert_eq!(&via_slots, &order);
            }
        }

        /// `SlotBits` against a `Vec<bool>` over random sets, clears and
        /// removes, across word boundaries.
        #[test]
        fn slot_bits_match_a_vec_of_bools(
            ops in proptest::collection::vec((0u8..3, 0u32..200), 0..120),
        ) {
            let mut bits = SlotBits::default();
            let mut model = vec![false; 200];
            for (op, slot) in ops {
                match op {
                    0 => {
                        bits.set(slot);
                        model[slot as usize] = true;
                    }
                    1 => {
                        bits.clear(slot);
                        model[slot as usize] = false;
                    }
                    _ => {
                        bits.remove(slot);
                        model.remove(slot as usize);
                        model.push(false);
                    }
                }
                for (slot, want) in (0u32..).zip(&model) {
                    prop_assert_eq!(bits.get(slot), *want, "slot {}", slot);
                }
            }
        }

        /// The known-inventory filter against a set of prefixes per
        /// connected peer, over random connects (a replaced record starts
        /// empty), disconnects, marks, trickle batches and sweeps, with
        /// hashes drawn from a pool that re-marks and shares prefixes.
        #[test]
        fn known_inventory_matches_a_set_per_peer(
            ops in proptest::collection::vec((0u8..6, 0u32..5, 0u8..12), 0..120),
        ) {
            let hashes = pool(12);
            let mut table = PeerTable::default();
            let mut model: BTreeMap<NodeId, BTreeSet<u64>> = BTreeMap::new();
            for (op, id, h) in ops {
                let id = NodeId(id);
                let hash = hashes[h as usize];
                match (op, table.slot(&id)) {
                    (0, _) => {
                        table.insert(Peer::new(id, addr(), Direction::Inbound));
                        model.insert(id, BTreeSet::new());
                    }
                    (1, _) => {
                        table.remove(&id);
                        model.remove(&id);
                    }
                    (2 | 3, Some(slot)) => {
                        let new = model.get_mut(&id).unwrap().insert(hash.prefix_u64());
                        prop_assert_eq!(table.mark_known(slot, hash), new);
                    }
                    (4, Some(slot)) => {
                        let queued = [hash, hashes[(h as usize + 1) % 12], hash];
                        table.slot_mut(slot).pending_inv.extend(queued);
                        let known = model.get_mut(&id).unwrap();
                        let want: Vec<Hash256> = queued
                            .into_iter()
                            .filter(|q| !known.contains(&q.prefix_u64()))
                            .take(2)
                            .collect();
                        known.extend(want.iter().map(Hash256::prefix_u64));
                        let batch: Vec<Hash256> =
                            table.take_inv_batch(slot, 2).into_iter().map(|iv| iv.hash).collect();
                        prop_assert_eq!(batch, want);
                        prop_assert!(table.slot_mut(slot).pending_inv.is_empty());
                    }
                    (5, _) => {
                        table.sweep();
                        let held: BTreeSet<u64> = table.inv_ids.ids.keys().copied().collect();
                        let known: BTreeSet<u64> = model.values().flatten().copied().collect();
                        prop_assert_eq!(held, known);
                    }
                    _ => {}
                }
                for (peer, known) in &model {
                    let slot = table.slot(peer).unwrap();
                    for hash in &hashes {
                        prop_assert_eq!(table.knows(slot, hash), known.contains(&hash.prefix_u64()));
                    }
                }
            }
        }
    }
}
