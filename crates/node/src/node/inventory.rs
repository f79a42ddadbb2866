//! Inventory and transaction relay (§IV-C; the benchmark's
//! `node.node.accept_tx_ns`): `INV` / `GETDATA` / `TX` handling, what each
//! peer is known to have, and the two announcement modes — flooding the
//! transaction itself or trickling batched `INV`s on Core's Poisson
//! schedule.

use super::Node;
use crate::config::TxAnnounce;
use crate::peer::{Direction, NodeId};
use bitsync_protocol::hash::{Hash256, InvType, InvVect};
use bitsync_protocol::message::Message;
use bitsync_protocol::tx::Transaction;
use bitsync_sim::time::{SimDuration, SimTime};
use std::ops::ControlFlow;

/// Mean `INV` trickle interval for outbound peers (Core's
/// `INVENTORY_BROADCAST_INTERVAL >> 1`: 2 s Poisson).
pub const INV_INTERVAL_OUTBOUND: SimDuration = SimDuration::from_secs(2);

/// Mean `INV` trickle interval for inbound peers (Core's
/// `INVENTORY_BROADCAST_INTERVAL`: 5 s Poisson).
pub const INV_INTERVAL_INBOUND: SimDuration = SimDuration::from_secs(5);

impl Node {
    /// Records that peer `from` has object `hash` — it announced or sent
    /// it — so the object is never relayed back to it.
    pub(super) fn sender_knows(&mut self, from: NodeId, hash: Hash256) {
        if let Some(slot) = self.peers.slot(&from) {
            self.peers.mark_known(slot, hash);
        }
    }

    pub(super) fn on_inv(&mut self, from: NodeId, items: Vec<InvVect>) {
        let mut wanted = Vec::new();
        for iv in items {
            self.sender_knows(from, iv.hash);
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

    pub(super) fn on_getdata(&mut self, from: NodeId, items: Vec<InvVect>) {
        let mut missing = Vec::new();
        for iv in items {
            let found = match iv.kind {
                InvType::Tx => self.mempool.get(&iv.hash).cloned().map(Message::Tx),
                InvType::Block | InvType::CompactBlock => {
                    let compact = iv.kind == InvType::CompactBlock;
                    self.chain
                        .block(&iv.hash)
                        .map(|b| Self::block_message(b, compact, &mut self.rng))
                }
            };
            match found {
                Some(msg) => self.send(from, msg),
                None => missing.push(iv),
            }
        }
        if !missing.is_empty() {
            self.send(from, Message::NotFound(missing));
        }
    }

    pub(super) fn on_tx(&mut self, from: NodeId, tx: Transaction, now: SimTime) {
        self.sender_knows(from, tx.txid());
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
        self.relay_tx(&tx);
        true
    }

    fn relay_tx(&mut self, tx: &Transaction) {
        let txid = tx.txid();
        let prioritize = self.cfg.priority_relay;
        for slot in self.relay_targets(&txid) {
            match self.cfg.tx_announce {
                TxAnnounce::Flood => {
                    self.peers.mark_known(slot, txid);
                    self.peers
                        .push_send(slot, Message::Tx(tx.clone()), prioritize);
                }
                TxAnnounce::Trickle => self.peers.slot_mut(slot).pending_inv.push(txid),
            }
        }
    }

    /// Flushes due trickled `INV` batches (Core's Poisson announcement
    /// schedule). Called once per pump round.
    pub(super) fn flush_trickle(&mut self, now: SimTime) {
        if self.cfg.tx_announce != TxAnnounce::Trickle {
            return;
        }
        let prioritize = self.cfg.priority_relay;
        self.for_each_turn(|node, slot| {
            let p = node.peers.slot_mut(slot);
            if p.pending_inv.is_empty() || now < p.next_inv_at || !p.is_ready() {
                return ControlFlow::Continue(());
            }
            let batch = node.peers.take_inv_batch(slot, 1000);
            let p = node.peers.slot_mut(slot);
            let mean = match p.dir {
                Direction::Outbound | Direction::Feeler => INV_INTERVAL_OUTBOUND,
                Direction::Inbound => INV_INTERVAL_INBOUND,
            };
            p.next_inv_at = now + node.rng.exp_duration(mean);
            if !batch.is_empty() {
                node.peers.push_send(slot, Message::Inv(batch), prioritize);
            }
            ControlFlow::Continue(())
        });
    }
}
