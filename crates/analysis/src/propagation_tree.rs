//! Relay propagation trees reconstructed from `relay.jsonl` trace events.
//!
//! The deterministic tracer (see [`bitsync_sim::trace`]) records every
//! relay origin, fresh receive, and send in the simulated network. This
//! module rebuilds, per object (block or transaction), the propagation
//! tree those events imply:
//!
//! - the **origin** node (mined the block / first injected the tx);
//! - for every other covered node, its unique **parent** — the peer whose
//!   send produced the node's first delivery — and its **hop depth**;
//! - **coverage-over-time** curves and the **last-delivery** time.
//!
//! It also provides the differential check behind the trace layer's
//! correctness story: [`replay_relay_histogram`] re-derives the
//! instrumented node's `node.relay_delay_secs` histogram *purely* from
//! trace events, which must reproduce the live histogram exactly (count,
//! sum, and per-bucket) when the trace ring has not dropped events.

use bitsync_sim::metrics::Histogram;
use bitsync_sim::time::{SimDuration, SimTime};
use bitsync_sim::trace::{RelayEvent, RelayPhase};
use std::collections::BTreeMap;

/// One covered node in a [`PropagationTree`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TreeNode {
    /// The peer whose send delivered the object here first; `None` only
    /// for the origin.
    pub parent: Option<u32>,
    /// Relay hops from the origin (origin = 0).
    pub depth: u32,
    /// When the object was first received here (origin: creation time).
    pub received: SimTime,
}

/// The relay tree of one object, rebuilt from trace events.
#[derive(Clone, Debug)]
pub struct PropagationTree {
    /// The object hash.
    pub object: [u8; 32],
    /// Block (`true`) or transaction (`false`).
    pub is_block: bool,
    /// The node that created the object.
    pub origin: u32,
    /// Every covered node, keyed by node id.
    pub nodes: BTreeMap<u32, TreeNode>,
}

impl PropagationTree {
    /// Number of nodes the object reached (including the origin).
    pub fn coverage(&self) -> usize {
        self.nodes.len()
    }

    /// When the last covered node first received the object.
    pub fn last_delivery(&self) -> SimTime {
        self.nodes
            .values()
            .map(|n| n.received)
            .max()
            .unwrap_or(SimTime::ZERO)
    }
}

/// Rebuilds one [`PropagationTree`] per object from time-ordered relay
/// events (the order `relay.jsonl` is written in).
///
/// Per object: `Origin` events seat the origin node (the earliest origin
/// time wins — an injected transaction traces both its creation and its
/// first flush); the first `Recv` per node seats that node under the
/// sending parent, one hop deeper. Later `Recv`s (duplicate deliveries
/// before the body arrived) and `Send`s don't alter the tree. Trees
/// rebuilt from a trace ring that dropped events may be partial: a `Recv`
/// whose parent is unknown seats the node at the origin's depth + 1.
pub fn build_trees(events: &[RelayEvent]) -> Vec<PropagationTree> {
    let mut order: Vec<[u8; 32]> = Vec::new();
    let mut trees: BTreeMap<[u8; 32], PropagationTree> = BTreeMap::new();
    for ev in events {
        match ev.phase {
            RelayPhase::Origin => {
                let tree = trees.entry(ev.object).or_insert_with(|| {
                    order.push(ev.object);
                    PropagationTree {
                        object: ev.object,
                        is_block: ev.is_block,
                        origin: ev.to,
                        nodes: BTreeMap::new(),
                    }
                });
                tree.origin = ev.to;
                let node = tree.nodes.entry(ev.to).or_insert(TreeNode {
                    parent: None,
                    depth: 0,
                    received: ev.at,
                });
                node.parent = None;
                node.depth = 0;
                node.received = node.received.min(ev.at);
            }
            RelayPhase::Recv => {
                let tree = trees.entry(ev.object).or_insert_with(|| {
                    order.push(ev.object);
                    PropagationTree {
                        object: ev.object,
                        is_block: ev.is_block,
                        origin: ev.from.unwrap_or(ev.to),
                        nodes: BTreeMap::new(),
                    }
                });
                let parent = ev.from.expect("Recv events carry a sender");
                let depth = tree.nodes.get(&parent).map_or(1, |p| p.depth + 1);
                tree.nodes.entry(ev.to).or_insert(TreeNode {
                    parent: Some(parent),
                    depth,
                    received: ev.at,
                });
            }
            RelayPhase::Send => {}
        }
    }
    order
        .into_iter()
        .map(|hash| trees.remove(&hash).expect("tree seated per order entry"))
        .collect()
}

/// Re-derives the instrumented node's per-send relay-delay histogram from
/// trace events alone.
///
/// Mirrors the live accounting in the world's pump: for every `Send` by
/// `instrumented`, the hop delay is the send completion minus the node's
/// relay-clock start for that object, and delays beyond `window` (stale
/// serving, not relay) are excluded. The relay clock starts at the
/// **latest** `Origin` at the node when one exists — an injected
/// transaction's clock starts at its first pump flush, not its creation —
/// and otherwise at the **earliest** `Recv`.
///
/// With `bounds` = [`bitsync_sim::metrics::DEFAULT_BUCKETS`] and `window`
/// = the world's fresh-relay window, the result must equal the live
/// `node.relay_delay_secs` histogram exactly whenever the trace ring
/// dropped nothing. Sends of objects whose clock-start events were
/// dropped are skipped.
pub fn replay_relay_histogram(
    events: &[RelayEvent],
    instrumented: u32,
    window: SimDuration,
    bounds: &[f64],
) -> Histogram {
    let mut clock_start: BTreeMap<[u8; 32], SimTime> = BTreeMap::new();
    let mut has_origin: BTreeMap<[u8; 32], bool> = BTreeMap::new();
    for ev in events {
        if ev.to != instrumented {
            continue;
        }
        match ev.phase {
            RelayPhase::Origin => {
                has_origin.insert(ev.object, true);
                let t = clock_start.entry(ev.object).or_insert(ev.at);
                *t = (*t).max(ev.at);
            }
            RelayPhase::Recv => {
                if !has_origin.get(&ev.object).copied().unwrap_or(false) {
                    let t = clock_start.entry(ev.object).or_insert(ev.at);
                    *t = (*t).min(ev.at);
                }
            }
            RelayPhase::Send => {}
        }
    }
    let mut h = Histogram::with_buckets(bounds);
    for ev in events {
        if ev.phase != RelayPhase::Send || ev.from != Some(instrumented) {
            continue;
        }
        let Some(&t0) = clock_start.get(&ev.object) else {
            continue;
        };
        let delay = ev.at.saturating_since(t0);
        if delay <= window {
            h.observe(delay.as_secs_f64());
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(b: u8) -> [u8; 32] {
        let mut o = [0u8; 32];
        o[0] = b;
        o
    }

    fn ev(
        secs: u64,
        phase: RelayPhase,
        object: [u8; 32],
        from: Option<u32>,
        to: u32,
    ) -> RelayEvent {
        RelayEvent {
            at: SimTime::ZERO + SimDuration::from_secs(secs),
            phase,
            object,
            is_block: true,
            from,
            to,
        }
    }

    /// origin 0 → {1, 2}; 1 → 3; duplicate recv at 3 ignored.
    fn sample_events() -> Vec<RelayEvent> {
        vec![
            ev(0, RelayPhase::Origin, obj(1), None, 0),
            ev(1, RelayPhase::Send, obj(1), Some(0), 1),
            ev(2, RelayPhase::Recv, obj(1), Some(0), 1),
            ev(3, RelayPhase::Send, obj(1), Some(0), 2),
            ev(4, RelayPhase::Recv, obj(1), Some(0), 2),
            ev(5, RelayPhase::Send, obj(1), Some(1), 3),
            ev(6, RelayPhase::Recv, obj(1), Some(1), 3),
            ev(7, RelayPhase::Recv, obj(1), Some(2), 3),
        ]
    }

    #[test]
    fn tree_seats_every_node_once_with_depths() {
        let trees = build_trees(&sample_events());
        assert_eq!(trees.len(), 1);
        let t = &trees[0];
        assert_eq!(t.origin, 0);
        assert_eq!(t.coverage(), 4);
        assert_eq!(t.nodes[&0].depth, 0);
        assert_eq!(t.nodes[&1].parent, Some(0));
        assert_eq!(t.nodes[&3].parent, Some(1), "first recv wins");
        assert_eq!(t.nodes[&3].depth, 2);
        assert_eq!(t.last_delivery(), SimTime::ZERO + SimDuration::from_secs(6));
    }

    #[test]
    fn replay_uses_latest_origin_as_clock_start() {
        // An injected tx traces creation at t=0 and first flush at t=10;
        // the live relay clock starts at the flush.
        let events = vec![
            ev(0, RelayPhase::Origin, obj(2), None, 5),
            ev(10, RelayPhase::Origin, obj(2), None, 5),
            ev(12, RelayPhase::Send, obj(2), Some(5), 6),
            ev(14, RelayPhase::Send, obj(2), Some(5), 7),
        ];
        let h = replay_relay_histogram(
            &events,
            5,
            SimDuration::from_secs(120),
            &bitsync_sim::metrics::DEFAULT_BUCKETS,
        );
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 2.0 + 4.0);
    }

    #[test]
    fn replay_windows_out_stale_serving_and_ignores_other_nodes() {
        let events = vec![
            ev(0, RelayPhase::Recv, obj(3), Some(9), 5),
            ev(1, RelayPhase::Send, obj(3), Some(5), 6),
            // 500 s after receipt: serving, not relay.
            ev(500, RelayPhase::Send, obj(3), Some(5), 7),
            // Another node's send must not count.
            ev(2, RelayPhase::Send, obj(3), Some(9), 8),
        ];
        let h = replay_relay_histogram(
            &events,
            5,
            SimDuration::from_secs(120),
            &bitsync_sim::metrics::DEFAULT_BUCKETS,
        );
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 1.0);
    }
}
