//! Connection slots and dialing (§IV-A/B; the world's `node.dial.*`
//! layer): which address the next outbound or feeler attempt goes to,
//! the per-address backoff and discouragement that defer it, and the
//! connect / disconnect bookkeeping. This is the node side of the paper's
//! first two root causes: addrman hands out mostly unreachable addresses,
//! so most attempts started here fail.

use super::{unix_time, Node};
use crate::config::{backoff_delay, MAX_OUTBOUND, STALE_TIP_TIMEOUT};
use crate::peer::{Direction, Handshake, NodeId, Peer};
use bitsync_protocol::addr::NetAddr;
use bitsync_sim::time::{SimDuration, SimTime};

/// Maximum inbound connections (Core's `DEFAULT_MAX_PEER_CONNECTIONS` 125
/// minus the 8 outbound slots: 117).
pub const MAX_INBOUND: usize = 117;

/// How long a discouraged address is neither dialed nor accepted (Core's
/// `DEFAULT_MISBEHAVING_BANTIME`: 24 h).
pub const DISCOURAGEMENT_WINDOW: SimDuration = SimDuration::from_hours(24);

/// Per-address exponential dial backoff state.
#[derive(Clone, Copy, Debug, Default)]
pub(super) struct BackoffEntry {
    /// Consecutive failures since the last success.
    failures: u32,
    /// Earliest time the address may be dialed again.
    retry_at: SimTime,
}

/// What [`Node::begin_attempt`] decided.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Attempt {
    /// Dial this address: it is marked attempted and now in flight.
    Dial(NetAddr),
    /// The picked address is discouraged or backed off: nothing is dialed,
    /// and the world counts and traces the deferral.
    Deferred(NetAddr),
    /// Nothing to dial: no free slot, a dial already in flight, an empty
    /// address book, or a pick that is ourselves or already connected.
    Idle,
}

impl Node {
    /// Number of live outbound (non-feeler) connections, including ones
    /// still handshaking.
    pub fn outbound_count(&self) -> usize {
        self.count_peers(|p| p.dir == Direction::Outbound)
    }

    /// Number of live inbound connections.
    pub fn inbound_count(&self) -> usize {
        self.count_peers(|p| p.dir == Direction::Inbound)
    }

    /// Live connections of any kind.
    pub fn connection_count(&self) -> usize {
        self.peers.len()
    }

    /// Outgoing connections including in-flight feelers — the quantity the
    /// paper's Figure 6 plots via RPC, where the two feeler slots push the
    /// momentary total to 10.
    pub fn outgoing_count(&self) -> usize {
        self.count_peers(|p| p.dir != Direction::Inbound)
            + usize::from(self.in_flight_attempt.is_some())
    }

    fn count_peers(&self, pred: impl Fn(&Peer) -> bool) -> usize {
        self.peers.as_slice().iter().filter(|p| pred(p)).count()
    }

    /// Whether a new inbound connection would be accepted.
    pub fn accepts_inbound(&self) -> bool {
        self.reachable && self.inbound_count() < MAX_INBOUND
    }

    /// Whether the node wants to dial a new outbound connection now: no
    /// dial in flight and fewer than [`MAX_OUTBOUND`] outbound peers — plus
    /// one while the stale-tip countermeasure is active (Core's extra
    /// block-relay-only connection).
    pub fn wants_outbound(&self) -> bool {
        let target = MAX_OUTBOUND + usize::from(self.stale_tip_extra);
        self.in_flight_attempt.is_none() && self.outbound_count() < target
    }

    /// Picks the target of the next `dir` dial from addrman — an outbound
    /// connection while a slot is free, or a feeler (Core tests an address
    /// every 2 minutes) — and records the attempt. One dial is in flight
    /// at a time, whichever kind.
    pub fn begin_attempt(&mut self, dir: Direction, now: SimTime) -> Attempt {
        let free = match dir {
            Direction::Outbound => self.wants_outbound(),
            Direction::Feeler => self.in_flight_attempt.is_none(),
            Direction::Inbound => false, // inbound connections are not dialed
        };
        if !free {
            return Attempt::Idle;
        }
        let Some(target) = self.addrman.select(&mut self.rng, unix_time(now)) else {
            return Attempt::Idle;
        };
        if target == self.addr || self.peers.as_slice().iter().any(|p| p.addr == target) {
            return Attempt::Idle; // already connected or self; retry next tick
        }
        // Discouraged addresses are not even feeler-probed, and a failed
        // address waits out its backoff whichever kind of dial picked it.
        let backed_off = self.cfg.resilience.countermeasures
            && self
                .dial_backoff
                .get(&target)
                .is_some_and(|e| now < e.retry_at);
        if self.is_discouraged(&target, now) || backed_off {
            return Attempt::Deferred(target);
        }
        self.addrman.attempt(&target, unix_time(now));
        self.in_flight_attempt = Some((target, dir));
        if dir != Direction::Feeler {
            self.stats.attempts += 1;
        }
        Attempt::Dial(target)
    }

    /// Whether `addr` is inside its discouragement window.
    pub fn is_discouraged(&self, addr: &NetAddr, now: SimTime) -> bool {
        self.discouraged
            .get(addr)
            .is_some_and(|since| now.saturating_since(*since) < DISCOURAGEMENT_WINDOW)
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
        if self.cfg.resilience.countermeasures {
            let entry = self.dial_backoff.entry(addr).or_default();
            entry.failures = entry.failures.saturating_add(1);
            entry.retry_at = now + backoff_delay(refused, entry.failures);
        }
    }

    /// The world reports a completed TCP connection. For dials this
    /// consumes the in-flight attempt; for inbound connections `dir` is
    /// [`Direction::Inbound`].
    pub fn on_connected(&mut self, peer: NodeId, addr: NetAddr, dir: Direction, now: SimTime) {
        let mut p = Peer::new(peer, addr, dir);
        p.connected_at = now;
        let mut version = None;
        if dir != Direction::Inbound {
            self.in_flight_attempt = None;
            // The initiator speaks first.
            version = Some(self.version_msg(addr, now));
            p.handshake = Handshake::AwaitVersion;
            // The address answered; forget any dial backoff against it.
            self.dial_backoff.remove(&addr);
        }
        let slot = self.peers.insert(p);
        if let Some(msg) = version {
            self.peers.push_send(slot, msg, self.cfg.priority_relay);
        }
        // The new peer is not ready: the next keepalive sweep must run.
        self.keepalive_due = SimTime::ZERO;
    }

    /// The world reports a dropped connection.
    pub fn on_disconnected(&mut self, peer: NodeId) {
        self.peers.remove(&peer);
        self.getaddr_answered.retain(|p| *p != peer);
    }

    /// Stale-tip sweep (world-driven): with no tip advance for
    /// [`STALE_TIP_TIMEOUT`], grant one extra outbound slot until the next
    /// block arrives. Returns `true` when a new rescue was triggered.
    pub fn check_stale_tip(&mut self, now: SimTime) -> bool {
        if self.stale_tip_extra || now.saturating_since(self.last_tip_change) <= STALE_TIP_TIMEOUT {
            return false;
        }
        self.stale_tip_extra = true;
        true
    }
}
