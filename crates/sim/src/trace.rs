//! Deterministic sim-time event tracing.
//!
//! The metrics bus ([`crate::metrics`]) answers *how much*: aggregates that
//! land in the deterministic report JSON. This module answers *what
//! happened, in order*: per-event records — relay hops, dial attempts, ADDR
//! exchanges, churn, crawler probes — stamped with the simulation clock and
//! kept in per-category ring buffers.
//!
//! A [`Tracer`] mirrors [`crate::metrics::Recorder`]: a cheaply cloneable
//! `Rc<RefCell<..>>` handle that is deliberately *not* `Send`. Each
//! experiment owns one tracer on one worker thread, so traces can never be
//! interleaved across threads; the serialized JSONL is a pure function of
//! the (seeded, deterministic) simulation and therefore byte-identical at
//! any `--threads` count. The default handle is [`Tracer::disabled`] — a
//! `None` inner — so un-traced runs pay a single branch per would-be event.
//!
//! Events carry only primitives (`u32` node ids, `[u8; 32]` object hashes,
//! pre-rendered address strings): `bitsync-sim` is a leaf crate and must not
//! know about network or protocol types. Nor does it touch the filesystem:
//! [`TraceLog::to_jsonl`] only serialises, and `bitsync_core`'s
//! `write_bundle` puts each category at `trace/<category>.jsonl`.
//!
//! # Examples
//!
//! ```
//! use bitsync_sim::time::SimTime;
//! use bitsync_sim::trace::{RelayEvent, RelayPhase, Tracer};
//!
//! let tracer = Tracer::enabled(1024);
//! if tracer.is_enabled() {
//!     tracer.relay(RelayEvent {
//!         at: SimTime::from_secs(5),
//!         phase: RelayPhase::Recv,
//!         object: [0xab; 32],
//!         is_block: true,
//!         from: Some(3),
//!         to: 0,
//!     });
//! }
//! let log = tracer.take().unwrap();
//! assert_eq!(log.relay.len(), 1);
//! assert!(log.to_jsonl()[0].1.contains("\"recv\""));
//! ```

use crate::time::SimTime;
use bitsync_json::{ToJson, Value};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// Default per-category ring-buffer capacity (events). Enough for every
/// category except `relay`, which overflows it already at quick scale
/// (`relay`, `ablation`, `resilience` and `forkstress` drop 0.76–4.3 M
/// relay events there); a ring that overflows keeps the *newest* events
/// and counts the drops, which `repro` reports as manifest warnings.
pub const DEFAULT_TRACE_CAP: usize = 1 << 18;

/// Bytes a ring chunk holds: well under the size at which `malloc` gives a
/// block a mapping of its own (128 KiB by default).
const CHUNK_BYTES: usize = 32 * 1024;

/// A bounded FIFO of trace events: at most `cap` newest items are kept and
/// evictions are counted rather than silently lost.
///
/// The items live in chunks of 32 KiB, so a full `relay` ring
/// (2¹⁸ events, 7 MiB) grows one small allocation at a time and is never
/// copied into a buffer twice its size. A single buffer that doubles
/// leaves its old copies as holes in the heap, and where the next tracer's
/// buffer lands among them moves a process's peak RSS by up to the
/// buffer's size from one run to the next.
#[derive(Clone, Debug)]
pub struct Ring<T> {
    cap: usize,
    dropped: u64,
    len: usize,
    /// Items per chunk (at most `cap`).
    chunk: usize,
    /// Oldest first; only the last chunk has room.
    chunks: VecDeque<VecDeque<T>>,
}

impl<T> Ring<T> {
    fn with_cap(cap: usize) -> Ring<T> {
        let cap = cap.max(1);
        Ring {
            cap,
            dropped: 0,
            len: 0,
            chunk: (CHUNK_BYTES / size_of::<T>().max(1)).clamp(1, cap),
            chunks: VecDeque::new(),
        }
    }

    fn push(&mut self, item: T) {
        // A full ring evicts its oldest item; an emptied chunk is reused.
        let mut spare = None;
        if self.len == self.cap {
            let oldest = self.chunks.front_mut().expect("a full ring has items");
            oldest.pop_front();
            self.len -= 1;
            self.dropped += 1;
            if oldest.is_empty() {
                spare = self.chunks.pop_front();
            }
        }
        match self.chunks.back_mut() {
            Some(newest) if newest.len() < self.chunk => newest.push_back(item),
            _ => {
                let mut fresh = spare.unwrap_or_else(|| VecDeque::with_capacity(self.chunk));
                fresh.push_back(item);
                self.chunks.push_back(fresh);
            }
        }
        self.len += 1;
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The configured capacity.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Iterates the retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.chunks.iter().flatten()
    }
}

/// Which leg of a relay an event records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RelayPhase {
    /// The object entered the simulation at this node (mined / injected /
    /// served without a prior receipt).
    Origin,
    /// First receipt of the object's payload at `to`.
    Recv,
    /// `from` finished sending the object to `to` (stamped `send_end`).
    Send,
}

impl RelayPhase {
    fn as_str(self) -> &'static str {
        match self {
            RelayPhase::Origin => "origin",
            RelayPhase::Recv => "recv",
            RelayPhase::Send => "send",
        }
    }
}

/// One relay hop observation (block or transaction).
#[derive(Clone, Debug)]
pub struct RelayEvent {
    /// Simulation time of the observation (`send_end` for sends, delivery
    /// time for receipts, creation time for origins).
    pub at: SimTime,
    /// Which leg this records.
    pub phase: RelayPhase,
    /// Block hash or txid.
    pub object: [u8; 32],
    /// True for blocks (including compact blocks), false for transactions.
    pub is_block: bool,
    /// Sending node, `None` for [`RelayPhase::Origin`].
    pub from: Option<u32>,
    /// Observing node: the receiver for `Recv`, the origin node for
    /// `Origin`, and the *destination* for `Send`.
    pub to: u32,
}

impl ToJson for RelayEvent {
    fn to_json(&self) -> Value {
        let mut v = Value::object()
            .with("t_ns", self.at.as_nanos())
            .with("phase", self.phase.as_str())
            .with("obj", hex32(&self.object))
            .with("block", self.is_block);
        match self.from {
            Some(f) => v.set("from", f),
            None => v.set("from", Value::Null),
        }
        v.set("to", self.to);
        v
    }
}

/// What kind of address a dial targeted, resolved against ground truth.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DialTargetKind {
    /// An instantiated, reachable node.
    Reachable,
    /// An instantiated node that accepts no inbound slots (unreachable
    /// full node behind NAT).
    UnreachableFull,
    /// A phantom address that completes handshakes but serves nothing.
    PhantomResponsive,
    /// A phantom address that never answers.
    PhantomSilent,
    /// Not present in any ground-truth table (stale / churned away).
    Unknown,
    /// The dial never left the node: the selected address was inside its
    /// backoff or discouragement window and the attempt was deferred.
    BackedOff,
}

impl DialTargetKind {
    fn as_str(self) -> &'static str {
        match self {
            DialTargetKind::Reachable => "reachable",
            DialTargetKind::UnreachableFull => "unreachable_full",
            DialTargetKind::PhantomResponsive => "phantom_responsive",
            DialTargetKind::PhantomSilent => "phantom_silent",
            DialTargetKind::Unknown => "unknown",
            DialTargetKind::BackedOff => "backed_off",
        }
    }
}

/// Why a connection was dialed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DialDir {
    /// A persistent outbound slot.
    Outbound,
    /// A short-lived feeler probe.
    Feeler,
}

impl DialDir {
    fn as_str(self) -> &'static str {
        match self {
            DialDir::Outbound => "outbound",
            DialDir::Feeler => "feeler",
        }
    }
}

/// One dial attempt and its outcome.
#[derive(Clone, Debug)]
pub struct DialEvent {
    /// Simulation time the dial resolved.
    pub at: SimTime,
    /// Dialing node.
    pub initiator: u32,
    /// Target address, pre-rendered.
    pub target: String,
    /// Outbound slot or feeler.
    pub dir: DialDir,
    /// Ground-truth classification of the target.
    pub kind: DialTargetKind,
    /// Whether the handshake succeeded.
    pub ok: bool,
}

impl ToJson for DialEvent {
    fn to_json(&self) -> Value {
        Value::object()
            .with("t_ns", self.at.as_nanos())
            .with("initiator", self.initiator)
            .with("target", self.target.as_str())
            .with("dir", self.dir.as_str())
            .with("kind", self.kind.as_str())
            .with("ok", self.ok)
    }
}

/// Direction of an ADDR exchange observation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AddrDir {
    /// A node finished sending an ADDR message (stamped `send_end`).
    Sent,
    /// A node processed a received ADDR message.
    Recv,
}

impl AddrDir {
    fn as_str(self) -> &'static str {
        match self {
            AddrDir::Sent => "sent",
            AddrDir::Recv => "recv",
        }
    }
}

/// One ADDR message observation.
#[derive(Clone, Debug)]
pub struct AddrEvent {
    /// Simulation time of the observation.
    pub at: SimTime,
    /// Sending node.
    pub from: u32,
    /// Receiving node.
    pub to: u32,
    /// Sent or received leg.
    pub dir: AddrDir,
    /// Entries in the message.
    pub count: u32,
    /// Ground-truth reachable entries (sent leg only).
    pub reachable: Option<u32>,
    /// Entries new to the receiver's addrman (received leg only).
    pub accepted: Option<u32>,
}

impl ToJson for AddrEvent {
    fn to_json(&self) -> Value {
        let mut v = Value::object()
            .with("t_ns", self.at.as_nanos())
            .with("from", self.from)
            .with("to", self.to)
            .with("dir", self.dir.as_str())
            .with("count", self.count);
        if let Some(r) = self.reachable {
            v.set("reachable", r);
        }
        if let Some(a) = self.accepted {
            v.set("accepted", a);
        }
        v
    }
}

/// What a churn event did to a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnKind {
    /// The node went offline; records whether it was synchronized.
    Depart {
        /// True when the node had caught up to the tip when it left.
        synchronized: bool,
    },
    /// A brand-new node joined.
    Arrive,
    /// A previously departed node came back online.
    Rejoin,
    /// The node was disconnected for crossing the misbehavior threshold.
    Ban {
        /// The node that applied the ban.
        by: u32,
    },
    /// The node's stale-tip countermeasure fired, granting an extra
    /// outbound dial.
    StaleTipRescue,
}

/// One churn arrival or departure.
#[derive(Clone, Debug)]
pub struct ChurnTrace {
    /// Simulation time of the transition.
    pub at: SimTime,
    /// The churning node.
    pub node: u32,
    /// Departure, arrival, or rejoin.
    pub kind: ChurnKind,
}

impl ToJson for ChurnTrace {
    fn to_json(&self) -> Value {
        let mut v = Value::object()
            .with("t_ns", self.at.as_nanos())
            .with("node", self.node);
        match self.kind {
            ChurnKind::Depart { synchronized } => {
                v.set("kind", "depart");
                v.set("synchronized", synchronized);
            }
            ChurnKind::Arrive => v.set("kind", "arrive"),
            ChurnKind::Rejoin => v.set("kind", "rejoin"),
            ChurnKind::Ban { by } => {
                v.set("kind", "ban");
                v.set("by", by);
            }
            ChurnKind::StaleTipRescue => v.set("kind", "stale_tip_rescue"),
        }
        v
    }
}

/// One crawled node during a census campaign.
#[derive(Clone, Debug)]
pub struct CrawlEvent {
    /// Campaign day of the probe.
    pub day: f64,
    /// Crawled node's address, pre-rendered.
    pub addr: String,
    /// GETADDR rounds issued against the node.
    pub rounds: u64,
    /// Distinct addresses the node revealed.
    pub revealed: u64,
    /// How many of those were ground-truth reachable.
    pub reachable_revealed: u64,
    /// Whether the crawled node was a pollution attacker.
    pub malicious: bool,
}

impl ToJson for CrawlEvent {
    fn to_json(&self) -> Value {
        Value::object()
            .with("day", self.day)
            .with("addr", self.addr.as_str())
            .with("rounds", self.rounds)
            .with("revealed", self.revealed)
            .with("reachable_revealed", self.reachable_revealed)
            .with("malicious", self.malicious)
    }
}

/// One chain reorganization at a node: its active chain switched from
/// `old_tip` to `new_tip`, disconnecting `depth` blocks above the fork
/// point.
#[derive(Clone, Debug)]
pub struct ReorgEvent {
    /// Simulation time the reorg completed.
    pub at: SimTime,
    /// The reorganizing node.
    pub node: u32,
    /// Hash of the abandoned tip.
    pub old_tip: [u8; 32],
    /// Hash of the newly active tip.
    pub new_tip: [u8; 32],
    /// Height of the abandoned tip.
    pub old_height: u64,
    /// Height of the newly active tip.
    pub new_height: u64,
    /// Blocks disconnected from the old active chain (fork depth).
    pub depth: u64,
}

impl ToJson for ReorgEvent {
    fn to_json(&self) -> Value {
        Value::object()
            .with("t_ns", self.at.as_nanos())
            .with("node", self.node)
            .with("old_tip", hex32(&self.old_tip))
            .with("new_tip", hex32(&self.new_tip))
            .with("old_height", self.old_height)
            .with("new_height", self.new_height)
            .with("depth", self.depth)
    }
}

/// The collected trace of one experiment: one ring buffer per category.
///
/// Unlike [`Tracer`], a `TraceLog` is plain owned data (`Send`), so the
/// parallel experiment runner can carry it from a worker thread back to the
/// caller.
#[derive(Clone, Debug)]
pub struct TraceLog {
    /// Relay origin/receipt/send events.
    pub relay: Ring<RelayEvent>,
    /// Dial attempts and outcomes.
    pub dial: Ring<DialEvent>,
    /// ADDR exchanges.
    pub addr: Ring<AddrEvent>,
    /// Churn arrivals and departures.
    pub churn: Ring<ChurnTrace>,
    /// Census crawler probes.
    pub crawl: Ring<CrawlEvent>,
    /// Chain reorganizations at nodes.
    pub reorg: Ring<ReorgEvent>,
}

impl TraceLog {
    /// An empty log whose rings each hold at most `cap` events.
    pub fn with_cap(cap: usize) -> TraceLog {
        TraceLog {
            relay: Ring::with_cap(cap),
            dial: Ring::with_cap(cap),
            addr: Ring::with_cap(cap),
            churn: Ring::with_cap(cap),
            crawl: Ring::with_cap(cap),
            reorg: Ring::with_cap(cap),
        }
    }

    /// The one list of categories, in serialization order and less the
    /// empty ones: everything said per category is read off this walk.
    fn categories(&self) -> impl Iterator<Item = (&'static str, &dyn Category)> {
        let all: [(&'static str, &dyn Category); 6] = [
            ("relay", &self.relay),
            ("dial", &self.dial),
            ("addr", &self.addr),
            ("churn", &self.churn),
            ("crawl", &self.crawl),
            ("reorg", &self.reorg),
        ];
        all.into_iter().filter(|(_, c)| c.retained() > 0)
    }

    /// Total retained events across categories.
    pub fn total_events(&self) -> u64 {
        self.categories().map(|(_, c)| c.retained() as u64).sum()
    }

    /// Total events evicted across categories.
    pub fn total_dropped(&self) -> u64 {
        self.categories().map(|(_, c)| c.evicted()).sum()
    }

    /// `(name, retained, dropped)` of every non-empty category, in the
    /// order of [`TraceLog::to_jsonl`]: the manifest's `trace` object.
    pub fn counts(&self) -> Vec<(&'static str, usize, u64)> {
        self.categories()
            .map(|(name, c)| (name, c.retained(), c.evicted()))
            .collect()
    }

    /// Serializes every non-empty category as `(name, JSONL)` pairs —
    /// relay, dial, addr, churn, crawl, reorg — one compact JSON object per
    /// line, `\n`-ended. A pure function of the recorded events, so two
    /// identical simulations produce byte-identical JSONL at any runner
    /// thread count.
    pub fn to_jsonl(&self) -> Vec<(&'static str, String)> {
        self.categories().map(|(n, c)| (n, c.jsonl())).collect()
    }
}

/// A ring as [`TraceLog::categories`] lists it, whatever its events are.
trait Category {
    fn retained(&self) -> usize;
    fn evicted(&self) -> u64;
    /// The retained events, oldest first, one compact JSON object per line.
    fn jsonl(&self) -> String;
}

impl<T: ToJson> Category for Ring<T> {
    fn retained(&self) -> usize {
        self.len
    }

    fn evicted(&self) -> u64 {
        self.dropped
    }

    fn jsonl(&self) -> String {
        let mut out = String::new();
        for ev in self.iter() {
            out.push_str(&ev.to_json().to_string());
            out.push('\n');
        }
        out
    }
}

/// Shared handle to a trace log, or a no-op when disabled.
///
/// Cloning is cheap; clones record into the same log. Like
/// [`crate::metrics::Recorder`], a tracer is intentionally not `Send`: one
/// experiment, one tracer, one thread.
///
/// Recording call sites should guard event construction behind
/// [`Tracer::is_enabled`] so a disabled tracer costs one branch and no
/// allocation.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    inner: Option<Rc<RefCell<TraceLog>>>,
}

impl Tracer {
    /// The no-op tracer: records nothing, costs one branch per call.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// A recording tracer whose rings each keep at most `cap` events.
    pub fn enabled(cap: usize) -> Tracer {
        Tracer {
            inner: Some(Rc::new(RefCell::new(TraceLog::with_cap(cap)))),
        }
    }

    /// True when events will actually be recorded. Check this before
    /// building an event struct.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records a relay event.
    pub fn relay(&self, ev: RelayEvent) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().relay.push(ev);
        }
    }

    /// Records a dial event.
    pub fn dial(&self, ev: DialEvent) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().dial.push(ev);
        }
    }

    /// Records an ADDR exchange event.
    pub fn addr(&self, ev: AddrEvent) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().addr.push(ev);
        }
    }

    /// Records a churn event.
    pub fn churn(&self, ev: ChurnTrace) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().churn.push(ev);
        }
    }

    /// Records a crawler probe event.
    pub fn crawl(&self, ev: CrawlEvent) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().crawl.push(ev);
        }
    }

    /// Records a chain reorganization event.
    pub fn reorg(&self, ev: ReorgEvent) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().reorg.push(ev);
        }
    }

    /// Takes the accumulated log, leaving an empty one (same caps) behind.
    /// `None` for a disabled tracer.
    pub fn take(&self) -> Option<TraceLog> {
        self.inner.as_ref().map(|inner| {
            let mut log = inner.borrow_mut();
            let cap = log.relay.cap();
            std::mem::replace(&mut *log, TraceLog::with_cap(cap))
        })
    }
}

/// Lowercase hex of a 32-byte hash.
fn hex32(bytes: &[u8; 32]) -> String {
    let mut s = String::with_capacity(64);
    for b in bytes {
        s.push(char::from_digit((b >> 4) as u32, 16).unwrap());
        s.push(char::from_digit((b & 0xf) as u32, 16).unwrap());
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn relay_at(secs: u64) -> RelayEvent {
        RelayEvent {
            at: SimTime::from_secs(secs),
            phase: RelayPhase::Send,
            object: [7; 32],
            is_block: false,
            from: Some(1),
            to: 2,
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        t.relay(relay_at(1));
        assert!(t.take().is_none());
    }

    #[test]
    fn clones_share_one_log() {
        let t = Tracer::enabled(16);
        let clone = t.clone();
        t.relay(relay_at(1));
        clone.relay(relay_at(2));
        let log = t.take().unwrap();
        assert_eq!(log.relay.len(), 2);
        // take() drained the shared log.
        assert_eq!(clone.take().unwrap().relay.len(), 0);
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let t = Tracer::enabled(3);
        for s in 0..5 {
            t.relay(relay_at(s));
        }
        let log = t.take().unwrap();
        assert_eq!(log.relay.len(), 3);
        assert_eq!(log.relay.dropped(), 2);
        let times: Vec<u64> = log.relay.iter().map(|e| e.at.as_secs()).collect();
        assert_eq!(times, vec![2, 3, 4]);
        assert_eq!(log.total_dropped(), 2);
    }

    /// Across chunk boundaries a ring still keeps exactly the `cap` newest
    /// items in order, and holds at most one chunk more than it needs.
    #[test]
    fn chunked_ring_keeps_newest_across_chunks() {
        let mut ring: Ring<u64> = Ring::with_cap(2 * 4096 + 5);
        assert_eq!(ring.chunk, 4096);
        for i in 0..3 * 4096 + 100 {
            ring.push(i);
        }
        assert_eq!(ring.len(), ring.cap());
        assert_eq!(ring.dropped(), 4096 + 95);
        assert!(ring.iter().copied().eq(4096 + 95..3 * 4096 + 100));
        assert!(ring.chunks.len() <= 4, "{} chunks", ring.chunks.len());
    }

    #[test]
    fn jsonl_is_one_object_per_line_in_category_order() {
        let t = Tracer::enabled(16);
        t.relay(RelayEvent {
            at: SimTime::from_secs(3),
            phase: RelayPhase::Origin,
            object: [0xff; 32],
            is_block: true,
            from: None,
            to: 9,
        });
        t.dial(DialEvent {
            at: SimTime::from_secs(4),
            initiator: 1,
            target: "10.0.0.1:8333".into(),
            dir: DialDir::Feeler,
            kind: DialTargetKind::PhantomSilent,
            ok: false,
        });
        t.churn(ChurnTrace {
            at: SimTime::from_secs(5),
            node: 4,
            kind: ChurnKind::Depart { synchronized: true },
        });
        let log = t.take().unwrap();
        let cats = log.to_jsonl();
        let names: Vec<&str> = cats.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["relay", "dial", "churn"]);
        let relay = &cats[0].1;
        assert_eq!(relay.lines().count(), 1);
        assert!(relay.contains("\"origin\""));
        assert!(relay.contains(&"ff".repeat(32)));
        assert!(relay.contains("\"from\":null"));
        assert!(cats[1].1.contains("\"phantom_silent\""));
        assert!(cats[2].1.contains("\"synchronized\":true"));
    }

    #[test]
    fn reorg_events_serialize_after_every_other_category() {
        let t = Tracer::enabled(8);
        t.reorg(ReorgEvent {
            at: SimTime::from_secs(9),
            node: 3,
            old_tip: [0xaa; 32],
            new_tip: [0xbb; 32],
            old_height: 12,
            new_height: 13,
            depth: 2,
        });
        t.churn(ChurnTrace {
            at: SimTime::from_secs(5),
            node: 4,
            kind: ChurnKind::Arrive,
        });
        let log = t.take().unwrap();
        assert_eq!(log.total_events(), 2);
        let cats = log.to_jsonl();
        let names: Vec<&str> = cats.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["churn", "reorg"]);
        let reorg = &cats[1].1;
        assert!(reorg.contains(&"aa".repeat(32)));
        assert!(reorg.contains("\"depth\":2"));
        assert!(reorg.contains("\"new_height\":13"));
    }

    #[test]
    fn jsonl_is_deterministic_across_identical_runs() {
        let render = || {
            let t = Tracer::enabled(8);
            for s in 0..4 {
                t.relay(relay_at(s));
                t.addr(AddrEvent {
                    at: SimTime::from_secs(s),
                    from: 1,
                    to: 2,
                    dir: AddrDir::Recv,
                    count: 10,
                    reachable: None,
                    accepted: Some(3),
                });
            }
            t.take()
                .unwrap()
                .to_jsonl()
                .into_iter()
                .map(|(_, s)| s)
                .collect::<Vec<_>>()
        };
        assert_eq!(render(), render());
    }

    #[test]
    fn counts_and_jsonl_list_only_nonempty_categories() {
        let t = Tracer::enabled(8);
        t.crawl(CrawlEvent {
            day: 1.5,
            addr: "1.2.3.4:8333".into(),
            rounds: 20,
            revealed: 2300,
            reachable_revealed: 120,
            malicious: false,
        });
        let log = t.take().unwrap();
        assert_eq!(log.counts(), [("crawl", 1, 0)]);
        let files = log.to_jsonl();
        assert_eq!(files.len(), 1);
        let (name, body) = &files[0];
        assert_eq!(*name, "crawl");
        assert!(body.ends_with('\n'));
        assert!(body.contains("\"reachable_revealed\":120"));
    }
}
