//! Per-connection state: direction, handshake progress, and the two
//! message queues of the paper's Figure 9 (`vProcessMsg` inbound,
//! `vSendMessage` outbound) — and the [`PeerTable`] a node keeps them in.

use bitsync_protocol::addr::NetAddr;
use bitsync_protocol::hash::{table_bytes, Hash256, IdSet, InvVect};
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
    /// Inventory the peer is known to have (suppresses re-relay), keyed by
    /// [`Hash256::prefix_u64`]: the set is only looked up, never walked,
    /// and it is most of a relay world's memory (9 bytes a slot; the whole
    /// id would take 33).
    known_invs: IdSet<u64>,
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
            known_invs: IdSet::default(),
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
    /// calls it, so the table's count sees every message.
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

    /// Marks an inventory item as known to this peer; returns `true` if it
    /// was previously unknown.
    pub fn mark_known(&mut self, hash: Hash256) -> bool {
        self.known_invs.insert(hash.prefix_u64())
    }

    /// Whether the peer already knows this inventory item.
    pub fn knows(&self, hash: &Hash256) -> bool {
        self.known_invs.contains(&hash.prefix_u64())
    }

    /// Empties the trickle list into the next `INV`: the first `max` txids
    /// the peer did not know, now marked known (the rest are dropped).
    pub(crate) fn take_inv_batch(&mut self, max: usize) -> Vec<InvVect> {
        let known = &self.known_invs;
        let batch: Vec<InvVect> = self
            .pending_inv
            .drain(..)
            .filter(|h| !known.contains(&h.prefix_u64()))
            .take(max)
            .map(InvVect::tx)
            .collect();
        for iv in &batch {
            self.mark_known(iv.hash);
        }
        batch
    }

    /// Bytes the known-inventory set allocates ([`table_bytes`]).
    fn known_inv_bytes(&self) -> usize {
        table_bytes(self.known_invs.capacity(), size_of::<u64>())
    }

    /// Bytes the record's two message queues and trickle list allocate
    /// (a queued message's boxed payload is not counted).
    fn queue_bytes(&self) -> usize {
        (self.proc_q.capacity() + self.send_q.capacity()) * size_of::<Message>()
            + self.pending_inv.capacity() * size_of::<Hash256>()
    }
}

/// A node's connected peers: the records stored densely, the round-robin
/// visit order, an id-sorted index, and how many messages wait in their
/// queues.
///
/// Two orders matter to the simulation and the table keeps both:
/// *connection order* drives the pump and the relay fan-outs (Core walks
/// `vNodes`), ascending [`NodeId`] drives everything that used to iterate
/// the old `BTreeMap` ([`keys`](Self::keys), [`values`](Self::values),
/// [`iter`](Self::iter)). Lookup by id is a binary search over the index.
///
/// Every message the node queues goes through the table's `push_recv` or
/// `push_send`, and the pump takes them out through its `pop_recv` /
/// `pop_send`, so [`queued_recv`](Self::queued_recv) and
/// [`queued_send`](Self::queued_send) are the totals over all `proc_q`s
/// and all `send_q`s. A pump pass stops
/// once its count reaches zero. The queues themselves stay public fields:
/// a write through them that *removes* messages (the benchmark empties a
/// `send_q`) leaves a count too high, which costs a longer walk and never
/// skips a message; one that *adds* messages breaks the count (the
/// world's checker reports it as `pump_queue_counts`).
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
    /// Messages across every `proc_q`; never below the true total.
    queued_recv: usize,
    /// Messages across every `send_q`; never below the true total.
    queued_send: usize,
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
        let slot = match self.by_id.binary_search_by_key(&peer.node, |e| e.0) {
            Ok(pos) => {
                let slot = self.by_id[pos].1;
                let old = std::mem::replace(&mut self.slots[slot as usize], peer);
                self.forget_queues(&old);
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
        let gone = self.slots.remove(slot as usize);
        self.forget_queues(&gone);
        Some(gone)
    }

    /// Takes a dropped record's queues off the counts (saturating: a
    /// record filled through its public fields may hold more than was
    /// counted).
    fn forget_queues(&mut self, gone: &Peer) {
        self.queued_recv = self.queued_recv.saturating_sub(gone.proc_q.len());
        self.queued_send = self.queued_send.saturating_sub(gone.send_q.len());
    }

    /// Messages waiting in all `proc_q`s (see the type docs).
    pub fn queued_recv(&self) -> usize {
        self.queued_recv
    }

    /// Messages waiting in all `send_q`s (see the type docs).
    pub fn queued_send(&self) -> usize {
        self.queued_send
    }

    /// Bytes the table allocates, as `(records and their queues, known
    /// inventory)`: the records, the visit order and the index, plus each
    /// record's queues; then the sum of [`Peer::known_inv_bytes`].
    pub(crate) fn footprint(&self) -> (usize, usize) {
        let own = self.slots.capacity() * size_of::<Peer>()
            + self.order.capacity() * size_of::<u32>()
            + self.by_id.capacity() * size_of::<(NodeId, u32)>();
        self.slots.iter().fold((own, 0), |(queues, known), p| {
            (queues + p.queue_bytes(), known + p.known_inv_bytes())
        })
    }

    /// Appends a delivered message to peer `id`'s `vProcessMsg`; `None`
    /// (and nothing queued) if `id` is not connected.
    pub(crate) fn push_recv(&mut self, id: &NodeId, msg: Message) -> Option<&mut Peer> {
        let slot = self.slot(id)?;
        self.queued_recv += 1;
        let p = &mut self.slots[slot as usize];
        p.proc_q.push_back(msg);
        Some(p)
    }

    /// Queues `msg` on the `vSendMessage` of the peer in `slot`, under the
    /// §V block priority when `prioritize_blocks` is set: the one way a
    /// node queues an outbound message.
    pub(crate) fn push_send(&mut self, slot: u32, msg: Message, prioritize_blocks: bool) {
        self.queued_send += 1;
        self.slots[slot as usize].enqueue_send(msg, prioritize_blocks);
    }

    /// The next message from the `vProcessMsg` of the peer in `slot`.
    pub(crate) fn pop_recv(&mut self, slot: u32) -> Option<Message> {
        let msg = self.slots[slot as usize].proc_q.pop_front()?;
        self.queued_recv -= 1;
        Some(msg)
    }

    /// The next message from the `vSendMessage` of the peer in `slot`.
    pub(crate) fn pop_send(&mut self, slot: u32) -> Option<Message> {
        let msg = self.slots[slot as usize].send_q.pop_front()?;
        self.queued_send -= 1;
        Some(msg)
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
    use std::collections::BTreeMap;

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
        let mut p = Peer::new(NodeId(2), addr(), Direction::Inbound);
        let h = Hash256::hash_of(b"tx");
        assert!(p.mark_known(h));
        assert!(!p.mark_known(h));
        assert!(p.knows(&h));
    }

    /// A known id costs 9 bytes a slot — its 8-byte prefix and a control
    /// byte — and 1000 marked ids are told apart from 1000 others.
    #[test]
    fn known_inventory_costs_nine_bytes_a_slot() {
        let mut p = Peer::new(NodeId(2), addr(), Direction::Inbound);
        let id = |i: u32| Hash256::hash_of(&i.to_le_bytes());
        for i in 0..1000 {
            assert!(p.mark_known(id(i)));
        }
        assert!((0..1000).all(|i| p.knows(&id(i))));
        assert!((1000..2000).all(|i| !p.knows(&id(i))));
        // Grown one doubling at a time: 1024 buckets hold 896, so 2048.
        assert_eq!(p.known_inv_bytes(), 2048 * 9);
    }

    #[test]
    fn feelers_do_not_relay() {
        assert!(!Direction::Feeler.relays_data());
        assert!(Direction::Outbound.relays_data());
        assert!(Direction::Inbound.relays_data());
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
        /// queue counts against the queues, over random pushes and pops in
        /// between.
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
                let held = |q: fn(&Peer) -> usize| table.as_slice().iter().map(q).sum::<usize>();
                prop_assert_eq!(table.queued_recv(), held(|p| p.proc_q.len()));
                prop_assert_eq!(table.queued_send(), held(|p| p.send_q.len()));

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
    }
}
