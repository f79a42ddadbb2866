//! Address gossip (§IV-B): answering `GETADDR`, ingesting `ADDR` into
//! addrman and forwarding first-seen entries, and the misbehaviour score
//! that oversized or flooding `ADDR` traffic earns. This is how the
//! unreachable addresses that make up 85 % of the paper's gossip reach —
//! and pollute — every node's address book.

use super::{unix_time, Node, NodeRequest};
use crate::peer::NodeId;
use bitsync_protocol::addr::TimestampedAddr;
use bitsync_protocol::message::{Message, MAX_ADDR_PER_MSG};
use bitsync_sim::time::SimTime;

/// How many peers an unsolicited small `ADDR` is forwarded to (Core's
/// `RelayAddress`: 2 for reachable networks).
pub const ADDR_RELAY_FANOUT: usize = 2;

/// Misbehavior score at which a peer is disconnected and its address
/// discouraged (Core's `DEFAULT_BANSCORE_THRESHOLD`: 100).
pub const BAN_THRESHOLD: u32 = 100;

/// Penalty for an `ADDR` message over the 1000-entry protocol cap (Core's
/// `Misbehaving` on "oversized-addr"), scored as instant discouragement.
pub const OVERSIZE_ADDR_PENALTY: u32 = 100;

/// Per-connection budget of total `ADDR` entries accepted before further
/// messages start scoring (a coarse stand-in for Core 0.21's addr rate
/// limiter).
pub const ADDR_ENTRY_BUDGET: u64 = 5_000;

/// Penalty per `ADDR` message received past [`ADDR_ENTRY_BUDGET`].
pub const ADDR_FLOOD_PENALTY: u32 = 25;

/// One `ADDR` a node ingested in a pump round: what the world traces as
/// its `recv` event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AddrReceipt {
    /// The peer that sent it.
    pub from: NodeId,
    /// Entries the message held.
    pub count: u32,
    /// Entries that were new to the address book.
    pub accepted: u32,
}

impl Node {
    /// Our own address, timestamped now: what a node tells outbound peers
    /// after the handshake and appends to every `GETADDR` answer.
    pub(super) fn self_advertisement(&self, now: SimTime) -> TimestampedAddr {
        TimestampedAddr::new(unix_time(now).max(0) as u32, self.addr)
    }

    pub(super) fn on_getaddr(&mut self, from: NodeId, now: SimTime) {
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
        let mut list = self.addrman.get_addr(&mut self.rng, unix_time(now));
        // A node always includes its own address.
        list.push(self.self_advertisement(now));
        self.send(from, Message::Addr(list));
    }

    /// Ingests an `ADDR` from `from`; `None` when the message gets its
    /// sender banned and nothing is ingested.
    pub(super) fn on_addr(
        &mut self,
        from: NodeId,
        list: Vec<TimestampedAddr>,
        now: SimTime,
        requests: &mut Vec<NodeRequest>,
    ) -> Option<AddrReceipt> {
        if self.cfg.resilience.countermeasures {
            let mut penalty = 0u32;
            if list.len() > MAX_ADDR_PER_MSG {
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
                return None; // banned: do not ingest the flood
            }
        }
        let source = self.peers.get(&from).map_or(self.addr, |p| p.addr);
        let mut fresh = Vec::new();
        for entry in &list {
            if entry.addr != self.addr && self.addrman.add(entry.addr, source, unix_time(now)) {
                fresh.push(*entry);
            }
        }
        let receipt = AddrReceipt {
            from,
            count: list.len() as u32,
            accepted: fresh.len() as u32,
        };
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
                None
            });
            let fanout = ADDR_RELAY_FANOUT.min(candidates.len());
            let picks = self.rng.sample_indices(candidates.len(), fanout);
            let prioritize = self.cfg.priority_relay;
            for i in picks {
                self.peers
                    .push_send(candidates[i], Message::Addr(list.clone()), prioritize);
            }
        }
        Some(receipt)
    }

    /// Adds `penalty` to the peer's misbehavior score (Core's
    /// `Misbehaving`). Crossing the ban threshold discourages the peer's
    /// address and asks the world to disconnect; returns `true` exactly
    /// when that happened (at most once per connection).
    pub(super) fn misbehave(
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
        requests.push(NodeRequest::Ban(from));
        true
    }
}
