//! Message transport (`node.pump.*`, `node.deliver.*`): one round-robin
//! pump round at a node, each flushed message over its link (partition,
//! fault plane, AS-level latency) and into the receiver. The two
//! measurements taken on the way are the paper's: the relay log of the
//! instrumented node (Figures 10/11 — one message per socket per loop
//! gives the 17 s / 8 s last-connection tails) and, under an enabled
//! tracer, the ground-truth ADDR split (§IV-B: 85.1 % of gossiped
//! addresses unreachable) — every flushed ADDR's `sent` event counts its
//! reachable entries, and a sender's split is the sum of its `sent`
//! events.

use super::{metric, Ev, World};
use crate::node::{AddrReceipt, NodeRequest, Outgoing};
use crate::peer::NodeId;
use bitsync_protocol::addr::TimestampedAddr;
use bitsync_protocol::hash::Hash256;
use bitsync_protocol::message::Message;
use bitsync_sim::fault::{Fault, LinkAction};
use bitsync_sim::metrics::Recorder;
use bitsync_sim::time::{SimDuration, SimTime};
use bitsync_sim::trace;

/// Sends later than this after first receipt are initial-block-download
/// serving (a `GETDATA` answer for an old object), not relay of fresh
/// inventory, and are excluded from the Figures 10/11 accounting.
pub const FRESH_RELAY_WINDOW: SimDuration = SimDuration::from_secs(120);

/// Message-pump cycle time: how often the `ThreadMessageHandler` loop runs
/// one round over all peers (Core wakes it at 100 ms granularity).
pub const PUMP_INTERVAL: SimDuration = SimDuration::from_millis(100);

/// One relayed object's timing at the instrumented node (Figures 10/11).
#[derive(Clone, Copy, Debug)]
pub struct RelayRecord {
    /// When the instrumented node first received (or produced) the object.
    pub received: SimTime,
    /// When the last send of the object finished on the socket.
    pub last_sent: Option<SimTime>,
    /// Block (`true`) or transaction (`false`).
    pub is_block: bool,
}

impl RelayRecord {
    /// The relay delay in whole seconds, quantized the way the paper read
    /// `debug.log` (1-second granularity).
    pub fn delay_secs(&self) -> Option<u64> {
        self.last_sent.map(|s| {
            s.quantize_secs()
                .saturating_since(self.received.quantize_secs())
                .as_secs()
        })
    }
}

/// The transport counters bumped on every pump round and delivery, kept
/// in plain fields and added to the [`Recorder`] once per
/// [`World::run_steps`] — before anything (an experiment, a sweep delta,
/// a sampler tick) can read the recorder — instead of three string-keyed
/// map updates per event.
#[derive(Debug, Default)]
pub(super) struct Tallies {
    /// [`metric::PUMP_ROUNDS`].
    rounds: u64,
    /// [`metric::PUMP_FLUSHED`].
    flushed: u64,
    /// [`metric::MESSAGES_DELIVERED`].
    delivered: u64,
    /// [`metric::PUMP_FLUSHED_PER_ROUND`] as counts per value: entry `k`
    /// is the number of rounds that flushed `k` messages.
    flushed_per_round: Vec<u64>,
}

impl Tallies {
    fn round(&mut self, flushed: usize) {
        self.rounds += 1;
        self.flushed += flushed as u64;
        if flushed >= self.flushed_per_round.len() {
            self.flushed_per_round.resize(flushed + 1, 0);
        }
        self.flushed_per_round[flushed] += 1;
    }

    /// Adds everything tallied to `rec` and starts from zero. The
    /// histogram values are message counts, so
    /// [`Recorder::observe_n`]'s integer precondition holds and the result
    /// is byte-identical to observing every round as it happened.
    pub(super) fn flush_into(&mut self, rec: &Recorder) {
        rec.inc(metric::PUMP_ROUNDS, self.rounds);
        rec.inc(metric::PUMP_FLUSHED, self.flushed);
        rec.inc(metric::MESSAGES_DELIVERED, self.delivered);
        for (flushed, rounds) in self.flushed_per_round.iter_mut().enumerate() {
            rec.observe_n(metric::PUMP_FLUSHED_PER_ROUND, flushed as f64, *rounds);
            *rounds = 0;
        }
        (self.rounds, self.flushed, self.delivered) = (0, 0, 0);
    }
}

/// The relayable object a message carries: `(hash, is_block)` for block,
/// compact-block, and transaction payloads; `None` for everything else.
pub(super) fn relay_key(msg: &Message) -> Option<(Hash256, bool)> {
    match msg {
        Message::Block(b) => Some((b.block_hash(), true)),
        Message::CmpctBlock(cb) => Some((cb.block_hash(), true)),
        Message::Tx(tx) => Some((tx.txid(), false)),
        _ => None,
    }
}

impl World {
    /// Relay delays recorded at the instrumented node, in quantized seconds:
    /// `(is_block, delay_secs)` per fully-relayed object.
    pub fn relay_delays(&self) -> Vec<(bool, u64)> {
        self.relay_log
            .values()
            .filter_map(|r| r.delay_secs().map(|d| (r.is_block, d)))
            .collect()
    }

    /// The instrumented node's record for `hash`, started at `now` if this
    /// is the first the node sees of the object.
    pub(super) fn seed_relay_record(
        &mut self,
        hash: Hash256,
        is_block: bool,
        now: SimTime,
    ) -> &mut RelayRecord {
        self.relay_log.entry(hash).or_insert(RelayRecord {
            received: now,
            last_sent: None,
            is_block,
        })
    }

    /// Traces the creation of an object at `node`.
    pub(super) fn trace_origin(&self, hash: Hash256, is_block: bool, node: NodeId, now: SimTime) {
        self.trace_relay(trace::RelayPhase::Origin, hash, is_block, None, node, now);
    }

    fn trace_relay(
        &self,
        phase: trace::RelayPhase,
        hash: Hash256,
        is_block: bool,
        from: Option<NodeId>,
        to: NodeId,
        at: SimTime,
    ) {
        if self.tracer.is_enabled() {
            self.tracer.relay(trace::RelayEvent {
                at,
                phase,
                object: hash.0,
                is_block,
                from: from.map(|n| n.0),
                to: to.0,
            });
        }
    }

    pub(super) fn schedule_pump(&mut self, id: NodeId, at: SimTime) {
        let slot = id.0 as usize;
        if !self.meta[slot].pump_scheduled && self.nodes[slot].is_some() {
            self.meta[slot].pump_scheduled = true;
            let at = at.max(self.queue.now());
            self.queue.schedule(at, Ev::Pump(id));
        }
    }

    pub(super) fn on_pump(&mut self, id: NodeId, now: SimTime) {
        self.meta[id.0 as usize].pump_scheduled = false;
        // The buffers are taken out and put back, so the round can borrow
        // the world while it drains them, and they keep their capacity.
        let mut bufs = std::mem::take(&mut self.pump_bufs);
        let Some(node) = self.running_node(id) else {
            self.pump_bufs = bufs;
            return;
        };
        node.pump_into(now, &mut bufs);
        let more_work = node.has_pending_work();
        self.tallies.round(bufs.outgoing.len());

        let tracing = self.tracer.is_enabled();
        if tracing {
            // Receipts first: the round processed them before it flushed
            // anything, and `addr.jsonl` keeps that order.
            for receipt in bufs.receipts.drain(..) {
                self.trace_addr_receipt(id, receipt, now);
            }
        }
        bufs.receipts.clear();
        let relay_logged = self.instrumented == Some(id) || tracing;
        for out in bufs.outgoing.drain(..) {
            if tracing {
                if let Message::Addr(entries) = &out.msg {
                    self.census_addr(id, &out, entries);
                }
            }
            if relay_logged {
                self.log_relay_send(id, &out, now);
            }
            self.transmit(id, out, now);
        }
        for req in bufs.requests.drain(..) {
            match req {
                NodeRequest::Disconnect(peer) => self.disconnect_pair(id, peer),
                NodeRequest::Ban(peer) => {
                    self.metrics.inc(metric::PEER_BANNED, 1);
                    self.tracer.churn(trace::ChurnTrace {
                        at: now,
                        node: peer.0,
                        kind: trace::ChurnKind::Ban { by: id.0 },
                    });
                    self.disconnect_pair(id, peer);
                }
            }
        }
        self.pump_bufs = bufs;
        if more_work {
            self.meta[id.0 as usize].pump_scheduled = true;
            self.queue.schedule(now + PUMP_INTERVAL, Ev::Pump(id));
        }
    }

    /// Traces one ADDR that node `to` processed.
    fn trace_addr_receipt(&self, to: NodeId, receipt: AddrReceipt, now: SimTime) {
        self.tracer.addr(trace::AddrEvent {
            at: now,
            from: receipt.from.0,
            to: to.0,
            dir: trace::AddrDir::Recv,
            count: receipt.count,
            reachable: None,
            accepted: Some(receipt.accepted),
        });
    }

    /// ADDR census: traces what `from` just gossiped, its entries
    /// classified against ground truth. Called under an enabled tracer
    /// only; an untraced world classifies nothing.
    fn census_addr(&self, from: NodeId, out: &Outgoing, entries: &[TimestampedAddr]) {
        let reachable = entries
            .iter()
            .filter(|e| self.is_reachable_addr(&e.addr))
            .count();
        self.tracer.addr(trace::AddrEvent {
            at: out.send_end,
            from: from.0,
            to: out.to.0,
            dir: trace::AddrDir::Sent,
            count: entries.len() as u32,
            reachable: Some(reachable as u32),
            accepted: None,
        });
    }

    /// Relay instrumentation: records the completion of one send of a
    /// block/tx object at the instrumented node, and traces it anywhere.
    fn log_relay_send(&mut self, from: NodeId, out: &Outgoing, now: SimTime) {
        let Some((hash, is_block)) = relay_key(&out.msg) else {
            return;
        };
        if self.instrumented == Some(from) {
            // A vacant entry at send time means the object was locally
            // created and is first flushed here (a tx injected at this
            // node, a fault-channel block): its relay clock starts now.
            // Mirror that into the trace so analysis can reproduce
            // `received` exactly.
            if !self.relay_log.contains_key(&hash) {
                self.trace_origin(hash, is_block, from, now);
            }
            let rec = self.seed_relay_record(hash, is_block, now);
            // Serving an old object to a syncing peer is not relay.
            let hop_delay = out.send_end.saturating_since(rec.received);
            if hop_delay <= FRESH_RELAY_WINDOW {
                rec.last_sent = Some(rec.last_sent.map_or(out.send_end, |p| p.max(out.send_end)));
                self.metrics
                    .observe(metric::RELAY_DELAY, hop_delay.as_secs_f64());
                self.sampler.observe("relay_delay", hop_delay.as_secs_f64());
            }
        }
        let phase = trace::RelayPhase::Send;
        self.trace_relay(phase, hash, is_block, Some(from), out.to, out.send_end);
    }

    /// Puts one flushed message on its link: it arrives after the AS-level
    /// latency if the destination is still online, no active partition
    /// severs the route and the fault plane lets it through.
    fn transmit(&mut self, from: NodeId, out: Outgoing, now: SimTime) {
        let Outgoing {
            to,
            msg,
            wire_size,
            send_end,
            ..
        } = out;
        let from_asn = self.meta[from.0 as usize].asn;
        let to_asn = self.meta[to.0 as usize].asn;
        if self.partition_blocks(from_asn, to_asn) || self.node(to).is_none() {
            return;
        }
        // Fault plane: drop or jitter the link, before the conservation
        // ledger sees the send (a dropped message was never sent as far as
        // the invariants are concerned).
        let mut fault_extra = SimDuration::ZERO;
        if let Some(plane) = self.fault_plane.as_mut() {
            match plane.link_action() {
                LinkAction::Deliver => {}
                LinkAction::Drop => {
                    self.metrics.inc(metric::FAULT_DROPPED, 1);
                    self.sampler.count("fault_drop", 1);
                    return;
                }
                LinkAction::Delay(d) => {
                    self.metrics.inc(metric::FAULT_DELAYED, 1);
                    fault_extra = d;
                }
            }
        }
        let delay = self
            .latency
            .message_delay(from_asn, to_asn, wire_size, &mut self.rng);
        let at = send_end.max(now) + delay + fault_extra;
        if self.checker.is_enabled() {
            if let Some((hash, _)) = relay_key(&msg) {
                self.checker.record_send(hash.0);
            }
        }
        if self.fault == Some(Fault::DuplicateDeliveries) && relay_key(&msg).is_some() {
            let msg = msg.clone();
            self.queue.schedule(at, Ev::Deliver { from, to, msg });
        }
        self.queue.schedule(at, Ev::Deliver { from, to, msg });
    }

    pub(super) fn on_deliver(&mut self, from: NodeId, to: NodeId, msg: Message, now: SimTime) {
        self.tallies.delivered += 1;
        let checking = self.checker.is_enabled();
        let instrumented = self.instrumented == Some(to);
        let tracing = self.tracer.is_enabled();
        let key = (checking || instrumented || tracing).then(|| relay_key(&msg));
        if let Some((hash, is_block)) = key.flatten() {
            if checking {
                // Conservation: a delivery of a relayable object must be
                // covered by a previously scheduled send.
                self.checker
                    .record_delivery(now, hash.0, |deliveries, sends| {
                        format!(
                            "object {hash:?}: {deliveries} deliveries > {sends} sends at node {}",
                            to.0
                        )
                    });
            }
            // Relay instrumentation: first receipt of a block/tx object.
            if instrumented {
                self.seed_relay_record(hash, is_block, now);
            }
            // Trace only candidate first receipts: deliveries of a payload
            // the node does not hold yet. Duplicates before the body lands
            // (e.g. concurrent compact blocks) can yield several `recv`
            // events; consumers take the earliest per (node, object).
            let fresh = tracing
                && self.node(to).is_some_and(|n| {
                    if is_block {
                        !n.chain.has_body(&hash)
                    } else {
                        !n.mempool.contains(&hash)
                    }
                });
            if fresh {
                self.trace_relay(trace::RelayPhase::Recv, hash, is_block, Some(from), to, now);
            }
        }
        let Some(node) = self.node_mut(to) else {
            return;
        };
        if node.deliver_at(from, msg, now) {
            self.schedule_pump(to, now);
        }
    }
}
