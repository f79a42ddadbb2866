//! The connection handshake and keepalive: `VERSION` / `VERACK`, what a
//! freshly ready connection negotiates and solicits (compact blocks,
//! `GETADDR`, the self-advertisement, header sync), and the once-per-round
//! ping / timeout sweep.

use super::{unix_time, Node, NodeRequest};
use crate::peer::{Direction, Handshake, NodeId};
use bitsync_protocol::addr::{NetAddr, NODE_NETWORK};
use bitsync_protocol::message::{Message, SendCmpct, VersionMsg, PROTOCOL_VERSION};
use bitsync_sim::time::{SimDuration, SimTime};

/// Keepalive ping interval (Core's `PING_INTERVAL`: 2 minutes).
pub const PING_INTERVAL: SimDuration = SimDuration::from_secs(120);

/// Disconnect a peer silent for this long (Core's `TIMEOUT_INTERVAL`:
/// 20 minutes).
pub const PEER_TIMEOUT: SimDuration = SimDuration::from_mins(20);

impl Node {
    pub(super) fn version_msg(&mut self, remote: NetAddr, now: SimTime) -> Message {
        Message::Version(Box::new(VersionMsg {
            version: PROTOCOL_VERSION,
            services: NODE_NETWORK,
            timestamp: unix_time(now),
            addr_recv: remote,
            addr_from: self.addr,
            nonce: self.rng.next_u64(),
            user_agent: "/bitsync:0.1.0/".into(),
            start_height: self.chain.height() as i32,
            relay: true,
        }))
    }

    pub(super) fn on_version(&mut self, from: NodeId, v: VersionMsg, now: SimTime) {
        let inbound = self
            .peers
            .get(&from)
            .is_some_and(|p| p.dir == Direction::Inbound);
        // The initiator spoke first; answer with our own VERSION.
        if inbound {
            let reply = self.version_msg(v.addr_from, now);
            self.send(from, reply);
        }
        self.send(from, Message::Verack);
        if let Some(p) = self.peers.get_mut(&from) {
            p.handshake = Handshake::AwaitVerack;
        }
    }

    pub(super) fn on_verack(
        &mut self,
        from: NodeId,
        now: SimTime,
        requests: &mut Vec<NodeRequest>,
    ) {
        let Some(p) = self.peers.get_mut(&from) else {
            return;
        };
        if p.handshake == Handshake::Ready {
            return;
        }
        p.handshake = Handshake::Ready;
        let (dir, addr) = (p.dir, p.addr);
        if dir != Direction::Inbound {
            // The dial verified reachability: promote the address.
            self.addrman.good(&addr, unix_time(now));
        }
        match dir {
            // A feeler has done its job; hang up.
            Direction::Feeler => requests.push(NodeRequest::Disconnect(from)),
            Direction::Outbound => {
                self.stats.successes += 1;
                self.post_handshake(from, dir, now);
            }
            Direction::Inbound => self.post_handshake(from, dir, now),
        }
    }

    /// Post-handshake negotiation: compact blocks, address solicitation,
    /// self-advertisement, and header sync.
    fn post_handshake(&mut self, from: NodeId, dir: Direction, now: SimTime) {
        if self.cfg.compact_blocks {
            self.send(
                from,
                Message::SendCmpct(SendCmpct {
                    announce: true,
                    version: 1,
                }),
            );
        }
        if dir == Direction::Outbound {
            self.send(from, Message::GetAddr);
            // Advertise our own address (Core advertises its local address
            // to outbound peers) — this is how unreachable nodes' addresses
            // enter the gossip mesh. Flooders never reveal their own
            // (reachable) address: that is the tell the paper's detection
            // heuristic exploits.
            if self.flooder.is_none() {
                let self_ad = self.self_advertisement(now);
                self.send(from, Message::Addr(vec![self_ad]));
            }
            self.send_getheaders(from);
        }
    }

    /// Keepalive sweep: queue a `PING` for quiet ready peers and request
    /// disconnection of peers silent beyond the timeout (Core's
    /// `TIMEOUT_INTERVAL`). Called once per pump round, it walks the peers
    /// only from the earliest instant it could act: the minimum over ready
    /// peers of the next ping and the first instant past the timeout, or
    /// right away while any peer is not ready. That stays a lower bound
    /// until the next walk: `next_ping_at` changes only here, a removed
    /// peer drops a term, [`Node::on_connected`] resets it, and `last_recv`
    /// only moves to the current instant — from `ZERO` that adds a term
    /// at least one `PEER_TIMEOUT` ahead, past every ready peer's next
    /// ping (at most one `PING_INTERVAL` after the last walk).
    pub(super) fn keepalive(&mut self, now: SimTime, requests: &mut Vec<NodeRequest>) {
        if now < self.keepalive_due {
            return;
        }
        let mut due = SimTime::MAX;
        // Ascending id: the order of the timeout requests and of the
        // nonce draws.
        self.peers.for_each_by_id_mut(|_, p| {
            if !p.is_ready() {
                due = SimTime::ZERO;
                return None;
            }
            let mut ping = None;
            if p.last_recv != SimTime::ZERO && now.saturating_since(p.last_recv) > PEER_TIMEOUT {
                requests.push(NodeRequest::Disconnect(p.node));
            } else if now >= p.next_ping_at {
                p.next_ping_at = now + PING_INTERVAL;
                ping = Some(Message::Ping(self.rng.next_u64()));
            }
            due = due.min(p.next_ping_at);
            if p.last_recv != SimTime::ZERO {
                let timeout = PEER_TIMEOUT + SimDuration::from_nanos(1);
                due = due.min(p.last_recv.saturating_add(timeout));
            }
            ping
        });
        self.keepalive_due = due;
    }
}
