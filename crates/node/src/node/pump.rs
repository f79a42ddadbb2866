//! The round-robin pump (§IV-C, Figure 9 / Algorithm 3; the benchmark's
//! `node.node.pump_round_ns`): delivery into `vProcessMsg`, one round of
//! one-message-per-peer processing and flushing, and the order peers are
//! visited in — by the round and by every relay fan-out alike.

use super::{AddrReceipt, Node, NodeRequest};
use crate::config::TxAnnounce;
use crate::peer::{Direction, NodeId, Peer};
use bitsync_protocol::hash::Hash256;
use bitsync_protocol::message::Message;
use bitsync_sim::time::{SimDuration, SimTime};
use std::ops::ControlFlow;

/// A message handed to the socket writer, with its computed transmission
/// window on the shared upload link.
#[derive(Clone, Debug)]
pub struct Outgoing {
    /// Destination peer.
    pub to: NodeId,
    /// The message.
    pub msg: Message,
    /// `msg.wire_size()`, computed once: the socket time here and the link
    /// time in the world both scale with it.
    pub wire_size: usize,
    /// When the socket writer started transmitting it.
    pub send_start: SimTime,
    /// When transmission finished (delivery latency is added by the world).
    pub send_end: SimTime,
}

impl Node {
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
        self.peers.push_recv(&from, msg)
    }

    /// Whether any queue holds work for the pump.
    pub fn has_pending_work(&self) -> bool {
        self.peers.queued_recv() > 0
            || self.peers.queued_send() > 0
            || (self.cfg.tx_announce == TxAnnounce::Trickle
                && self
                    .peers
                    .as_slice()
                    .iter()
                    .any(|p| !p.pending_inv.is_empty()))
    }

    /// Runs one pump round: processes one inbound message per peer, then
    /// flushes one outbound message per peer through the serialized socket
    /// writer. Returns the flushed messages (with transmission windows),
    /// any world requests and one receipt per `ADDR` ingested, in
    /// processing order.
    ///
    /// Each pass stops at the turn where the table's count of its queue
    /// reaches zero: every later turn would find an empty queue and do
    /// nothing, so an idle round costs two field reads.
    pub fn pump(&mut self, now: SimTime) -> (Vec<Outgoing>, Vec<NodeRequest>, Vec<AddrReceipt>) {
        let mut requests = Vec::new();
        let mut receipts = Vec::new();
        self.flush_trickle(now);
        self.keepalive(now, &mut requests);

        // ThreadMessageHandler: one message per peer per round.
        self.for_each_turn(|node, slot| {
            if node.peers.queued_recv() == 0 {
                return ControlFlow::Break(());
            }
            let Some(msg) = node.peers.pop_recv(slot) else {
                return ControlFlow::Continue(());
            };
            let from = node.peers.slot_mut(slot).node;
            node.handle_message(from, msg, now, &mut requests, &mut receipts);
            ControlFlow::Continue(())
        });

        // SocketHandler: one send per peer per round, serialized on the
        // shared upload link.
        let mut outgoing = Vec::new();
        self.for_each_turn(|node, slot| {
            if node.peers.queued_send() == 0 {
                return ControlFlow::Break(());
            }
            let Some(msg) = node.peers.pop_send(slot) else {
                return ControlFlow::Continue(());
            };
            let to = node.peers.slot_mut(slot).node;
            let send_start = node.socket_free_at.max(now);
            let wire_size = msg.wire_size();
            let tx_time = SimDuration::from_secs_f64(wire_size as f64 / node.cfg.upload_bandwidth);
            let send_end = send_start + tx_time;
            node.socket_free_at = send_end;
            outgoing.push(Outgoing {
                to,
                msg,
                wire_size,
                send_start,
                send_end,
            });
            ControlFlow::Continue(())
        });
        (outgoing, requests, receipts)
    }

    /// Calls `f` with the slot of every turn of one round, in visit order,
    /// until it returns [`ControlFlow::Break`]: the table's connection
    /// order (Core walks `vNodes`) or, under §V priority relay, outbound
    /// peers, then feelers, then inbound ones, each class in connection
    /// order. `f` gets the node back, so a turn can run a message handler;
    /// handlers never connect, disconnect or change a direction (they only
    /// *request* it), so the turns stay valid across the walk.
    pub(super) fn for_each_turn(&mut self, mut f: impl FnMut(&mut Self, u32) -> ControlFlow<()>) {
        let classes: &[Option<Direction>] = if self.cfg.priority_relay {
            &[
                Some(Direction::Outbound),
                Some(Direction::Feeler),
                Some(Direction::Inbound),
            ]
        } else {
            &[None]
        };
        for class in classes {
            for turn in 0..self.peers.order().len() {
                let slot = self.peers.order()[turn];
                if class.is_none_or(|dir| self.peers.as_slice()[slot as usize].dir == dir)
                    && f(self, slot).is_break()
                {
                    return;
                }
            }
        }
    }

    /// One slot per turn, in visit order, of the ready data-relaying peers
    /// that do not know `hash` yet. Chosen before anything is marked: after
    /// a double connect (see [`crate::peer::PeerTable`]) a peer has two
    /// turns and is sent the object on both.
    pub(super) fn relay_targets(&mut self, hash: &Hash256) -> Vec<u32> {
        let id = self.peers.inv_id(hash);
        let mut targets = Vec::new();
        self.for_each_turn(|node, slot| {
            let p = &node.peers.as_slice()[slot as usize];
            let knows = id.is_some_and(|id| node.peers.knows_id(slot, id));
            if p.is_ready() && p.dir.relays_data() && !knows {
                targets.push(slot);
            }
            ControlFlow::Continue(())
        });
        targets
    }
}
