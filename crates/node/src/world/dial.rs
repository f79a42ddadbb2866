//! Connection establishment (`node.dial.*`): the connect and feeler
//! timers, dial resolution against ground truth, and connection set-up
//! and tear-down. This is where the paper's first root cause lives — most
//! of what a node's addrman hands it is unreachable, so most outgoing
//! dials fail (§IV-A, Figures 6/7) and each silent failure burns the full
//! connect timeout before the next attempt.

use super::{Ev, PhantomKind, World};
use crate::node::Attempt;
use crate::peer::{Direction, NodeId};
use bitsync_protocol::addr::NetAddr;
use bitsync_sim::time::{SimDuration, SimTime};
use bitsync_sim::trace::{self, DialTargetKind};

/// Interval of the outbound-connection maintenance loop (Core's
/// `ThreadOpenConnections` sleeps 500 ms between passes).
pub const CONNECT_LOOP_INTERVAL: SimDuration = SimDuration::from_millis(500);

/// Interval between feeler-connection attempts (Core's `FEELER_INTERVAL`:
/// one every 2 min).
pub const FEELER_INTERVAL: SimDuration = SimDuration::from_secs(120);

/// One dial in flight, from its resolution to its `DialResult` event.
#[derive(Clone, Debug)]
pub(super) struct Dial {
    pub(super) initiator: NodeId,
    target: NetAddr,
    dir: Direction,
    /// The handshake will succeed (as far as resolution could tell).
    ok: bool,
    /// A fast refusal (RST/FIN — somebody answered) rather than a
    /// blackholed timeout; the dial backoff countermeasure treats them
    /// very differently.
    refused: bool,
}

impl World {
    pub(super) fn schedule_connect(&mut self, id: NodeId, after: SimDuration) {
        let slot = id.0 as usize;
        if !self.meta[slot].connect_scheduled && self.nodes[slot].is_some() {
            self.meta[slot].connect_scheduled = true;
            self.queue.schedule_after(after, Ev::ConnectTick(id));
        }
    }

    pub(super) fn on_connect_tick(&mut self, id: NodeId, now: SimTime) {
        let slot = id.0 as usize;
        self.meta[slot].connect_scheduled = false;
        let Some(node) = self.running_node(id) else {
            return;
        };
        let attempt = node.begin_attempt(Direction::Outbound, now);
        self.dial_or_defer(id, attempt, Direction::Outbound, now);
        // Re-tick only when the node is idle with unfilled slots: while a
        // dial is in flight its DialResult handler reschedules, so polling
        // would just burn events.
        if self.node(id).is_some_and(|n| n.wants_outbound()) {
            self.meta[slot].connect_scheduled = true;
            self.queue
                .schedule(now + CONNECT_LOOP_INTERVAL, Ev::ConnectTick(id));
        }
    }

    pub(super) fn on_feeler(&mut self, id: NodeId, now: SimTime) {
        let Some(node) = self.running_node(id) else {
            return;
        };
        let attempt = node.begin_attempt(Direction::Feeler, now);
        self.dial_or_defer(id, attempt, Direction::Feeler, now);
        self.queue.schedule(now + FEELER_INTERVAL, Ev::Feeler(id));
    }

    /// Dials the address the node picked this tick, or counts and traces
    /// the pick it deferred because the address was backed off or
    /// discouraged.
    fn dial_or_defer(&mut self, id: NodeId, attempt: Attempt, dir: Direction, now: SimTime) {
        match attempt {
            Attempt::Dial(target) => self.resolve_dial(id, target, dir, now),
            Attempt::Deferred(addr) => {
                self.metrics.inc(super::metric::DIAL_RETRIES, 1);
                self.sampler.count("dial_deferred", 1);
                self.trace_dial(id, addr, dir, DialTargetKind::BackedOff, false, now);
            }
            Attempt::Idle => {}
        }
    }

    fn trace_dial(
        &self,
        initiator: NodeId,
        target: NetAddr,
        dir: Direction,
        kind: DialTargetKind,
        ok: bool,
        now: SimTime,
    ) {
        if self.tracer.is_enabled() {
            self.tracer.dial(trace::DialEvent {
                at: now,
                initiator: initiator.0,
                target: target.to_string(),
                dir: if dir == Direction::Feeler {
                    trace::DialDir::Feeler
                } else {
                    trace::DialDir::Outbound
                },
                kind,
                ok,
            });
        }
    }

    /// Resolves a dial against ground truth and schedules the result. The
    /// target is classified once — what it is, which AS hosts it, whether
    /// it accepts (`ok`) or answers with a fast RST/FIN (`refused`) — and
    /// both the outcome and the trace read that classification.
    fn resolve_dial(&mut self, initiator: NodeId, target: NetAddr, dir: Direction, now: SimTime) {
        let from_asn = self.meta[initiator.0 as usize].asn;
        let initiator_addr = self.meta[initiator.0 as usize].addr;
        let (kind, to_asn, ok, refused) = match self.addr_index.get(&target) {
            Some(&tid) => {
                let meta = &self.meta[tid.0 as usize];
                let kind = if meta.reachable {
                    DialTargetKind::Reachable
                } else {
                    DialTargetKind::UnreachableFull
                };
                // An offline node, full slots or a severed route: silence.
                let accepting = self.node(tid).is_some_and(|n| n.accepts_inbound())
                    && !self.partition_blocks(from_asn, meta.asn);
                // A discouraged initiator gets an immediate RST (Core
                // refuses inbound connections from banned addresses).
                let refused = accepting
                    && self
                        .node(tid)
                        .is_some_and(|n| n.is_discouraged(&initiator_addr, now));
                (kind, meta.asn, accepting && !refused, refused)
            }
            None => match self.phantoms.get(&target) {
                // Fast FIN refusal: one RTT.
                Some(&(PhantomKind::Responsive, asn)) => {
                    (DialTargetKind::PhantomResponsive, asn, false, true)
                }
                Some(&(PhantomKind::Silent, asn)) => {
                    (DialTargetKind::PhantomSilent, asn, false, false)
                }
                None => (DialTargetKind::Unknown, 0, false, false),
            },
        };
        let delay = if ok || refused {
            self.latency
                .handshake_delay(from_asn, to_asn, &mut self.rng)
        } else {
            self.latency.connect_timeout()
        };
        self.trace_dial(initiator, target, dir, kind, ok, now);
        let dial = Dial {
            initiator,
            target,
            dir,
            ok,
            refused,
        };
        self.queue.schedule(now + delay, Ev::DialResult(dial));
    }

    pub(super) fn on_dial_result(&mut self, dial: Dial, now: SimTime) {
        let Dial {
            initiator,
            target,
            dir,
            ok,
            refused,
        } = dial;
        // The dial resolved either way; the window's failure rate is the
        // paper's connection-success signal (Figure 7) per interval. It is
        // the outcome decided at resolve time: counted before the re-check
        // below, so a target lost mid-handshake still reads `dial_ok`.
        self.sampler
            .count(if ok { "dial_ok" } else { "dial_fail" }, 1);
        if self.node(initiator).is_none() {
            return; // initiator departed while dialing
        }
        // The target may have gone offline or filled up during the
        // handshake (`refused` is never set on an `ok` dial).
        let accepted = self.addr_index.get(&target).copied().filter(|&tid| {
            ok && tid != initiator && self.node(tid).is_some_and(|n| n.accepts_inbound())
        });
        match accepted {
            Some(tid) => self.connect_pair(initiator, tid, dir, now),
            None => {
                if let Some(n) = self.node_mut(initiator) {
                    n.on_attempt_failed(target, refused, now);
                }
            }
        }
        // Keep filling outbound slots.
        self.schedule_connect(initiator, SimDuration::from_millis(1));
    }

    /// Establishes the connection `a` → `b` on both nodes and starts its
    /// clocks: `a`'s pump (VERSION goes first) and, for anything but a
    /// feeler, the link's lifetime if the world models one.
    fn connect_pair(&mut self, a: NodeId, b: NodeId, dir: Direction, now: SimTime) {
        let a_addr = self.meta[a.0 as usize].addr;
        let b_addr = self.meta[b.0 as usize].addr;
        if let Some(n) = self.node_mut(a) {
            n.on_connected(b, b_addr, dir, now);
        }
        if let Some(n) = self.node_mut(b) {
            n.on_connected(a, a_addr, Direction::Inbound, now);
        }
        self.schedule_pump(a, now);
        if dir != Direction::Feeler {
            if let Some(mean) = self.cfg.connection_mean_lifetime {
                let life = self.rng.exp_duration(mean);
                self.queue.schedule(now + life, Ev::DropConn(a, b));
            }
        }
    }

    /// Directly establishes a connection from `a` (outbound side) to `b`,
    /// bypassing addrman and dialing — used by experiments that need an
    /// exact topology (e.g. the 8-outbound/17-inbound relay star of
    /// Figures 10/11). The link's handshake counts a dial success at `a`,
    /// so the forced dial counts as one of `a`'s attempts.
    ///
    /// # Panics
    ///
    /// Panics if either node is offline.
    pub fn force_connect(&mut self, a: NodeId, b: NodeId) {
        self.node_mut(a).expect("initiator offline").stats.attempts += 1;
        assert!(self.node(b).is_some(), "target offline");
        self.connect_pair(a, b, Direction::Outbound, self.now());
    }

    pub(super) fn disconnect_pair(&mut self, a: NodeId, b: NodeId) {
        if let Some(n) = self.node_mut(a) {
            n.on_disconnected(b);
        }
        if let Some(n) = self.node_mut(b) {
            n.on_disconnected(a);
        }
        // Both sides may want replacement connections.
        self.schedule_connect(a, SimDuration::from_millis(10));
        self.schedule_connect(b, SimDuration::from_millis(10));
    }
}
