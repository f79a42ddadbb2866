//! Property tests for the round-robin pump: whatever the message workload,
//! queues conserve messages, the socket serialization is monotone, and the
//! node never panics on protocol input.

use bitsync_node::{Direction, Node, NodeConfig, NodeId};
use bitsync_protocol::addr::{NetAddr, TimestampedAddr};
use bitsync_protocol::hash::{Hash256, InvVect};
use bitsync_protocol::message::Message;
use bitsync_sim::time::{SimDuration, SimTime};
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn addr(last: u8) -> NetAddr {
    NetAddr::from_ipv4(Ipv4Addr::new(192, 0, 2, last.max(1)), 8333)
}

/// A small pool of arbitrary inbound protocol messages.
fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        Just(Message::Verack),
        Just(Message::GetAddr),
        any::<u64>().prop_map(Message::Ping),
        any::<u64>().prop_map(Message::Pong),
        proptest::collection::vec(any::<[u8; 32]>(), 0..5).prop_map(|hs| {
            Message::Inv(
                hs.into_iter()
                    .map(|h| InvVect::tx(Hash256::from_bytes(h)))
                    .collect(),
            )
        }),
        proptest::collection::vec(any::<[u8; 32]>(), 0..5).prop_map(|hs| {
            Message::GetData(
                hs.into_iter()
                    .map(|h| InvVect::block(Hash256::from_bytes(h)))
                    .collect(),
            )
        }),
        (any::<u32>(), any::<u8>())
            .prop_map(|(t, a)| { Message::Addr(vec![TimestampedAddr::new(t, addr(a))]) }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary message storms never panic the node, every processed
    /// message is accounted for, and socket send windows never overlap.
    #[test]
    fn pump_conserves_and_serializes(
        msgs in proptest::collection::vec((0u32..4, arb_message()), 0..60),
        seed in any::<u64>(),
    ) {
        let now = SimTime::from_secs(1);
        let mut n = Node::new(NodeId(0), addr(200), true, NodeConfig::bitcoin_core(), seed);
        for p in 1..=4u32 {
            n.on_connected(NodeId(p), addr(p as u8), Direction::Inbound, now);
        }
        let mut delivered = 0u64;
        for (p, m) in msgs {
            if n.deliver(NodeId(1 + p), m) {
                delivered += 1;
            }
        }
        let mut last_end = SimTime::ZERO;
        let mut processed = 0u64;
        let mut t = now;
        for _ in 0..200 {
            // A round pops what it processes; nothing it does queues more.
            let queued = n.peers.queued_recv();
            let (out, _, _) = n.pump(t);
            processed += (queued - n.peers.queued_recv()) as u64;
            for o in &out {
                prop_assert!(o.send_end >= o.send_start);
                // The shared socket serializes: windows are ordered within
                // a pump round and across rounds.
                prop_assert!(o.send_start >= last_end || o.send_start >= t);
                last_end = last_end.max(o.send_end);
            }
            if !n.has_pending_work() {
                break;
            }
            t += SimDuration::from_millis(100);
        }
        // Everything delivered was processed.
        prop_assert_eq!(processed, delivered);
        // Queues fully drained.
        prop_assert!(!n.has_pending_work());
    }

    /// Delivery to unknown peers is always rejected and changes nothing.
    #[test]
    fn unknown_peer_delivery_rejected(m in arb_message(), peer in 5u32..100) {
        let now = SimTime::from_secs(1);
        let mut n = Node::new(NodeId(0), addr(200), true, NodeConfig::bitcoin_core(), 1);
        n.on_connected(NodeId(1), addr(1), Direction::Inbound, now);
        prop_assert!(!n.deliver(NodeId(peer), m));
        prop_assert!(!n.has_pending_work());
    }

    /// Under the §V proposal a round serves outbound peers, then feelers,
    /// then inbound ones — each class in connection order, a crossed dial's
    /// second turn included — whatever the connect/disconnect history.
    #[test]
    fn proposal_visit_order_is_the_stable_sort_of_connection_order(
        ops in proptest::collection::vec((0u8..3, 1u32..7, 0u8..3), 1..40),
    ) {
        let now = SimTime::from_secs(1);
        let mut cfg = NodeConfig::bitcoin_core();
        cfg.priority_relay = true;
        let mut n = Node::new(NodeId(0), addr(200), true, cfg, 3);
        // The model: one entry per turn in connection order, and each
        // connected id's current direction.
        let mut turns: Vec<u32> = Vec::new();
        let mut dirs = std::collections::BTreeMap::new();
        for (op, p, class) in ops {
            if op < 2 {
                let dir = [Direction::Outbound, Direction::Feeler, Direction::Inbound][class as usize];
                n.on_connected(NodeId(p), addr(p as u8), dir, now);
                turns.push(p);
                dirs.insert(p, class);
            } else {
                n.on_disconnected(NodeId(p));
                turns.retain(|t| *t != p);
                dirs.remove(&p);
            }
            while n.has_pending_work() {
                n.pump(now);
            }
            // One ping per turn, so every turn has a pong to flush.
            for p in &turns {
                prop_assert!(n.deliver(NodeId(*p), Message::Ping(1)));
            }
            let (out, _, _) = n.pump(now);
            let served: Vec<u32> = out.iter().map(|o| o.to.0).collect();
            let mut expected = turns.clone();
            expected.sort_by_key(|p| dirs[p]);
            prop_assert_eq!(served, expected);
        }
    }

    /// Connection counts stay within Core's limits whatever the
    /// connect/disconnect order.
    #[test]
    fn connection_accounting(ops in proptest::collection::vec((any::<bool>(), 1u32..20), 0..100)) {
        let now = SimTime::from_secs(1);
        let mut n = Node::new(NodeId(0), addr(200), true, NodeConfig::bitcoin_core(), 2);
        for (connect, p) in ops {
            let pid = NodeId(p);
            if connect && !n.peers.contains_key(&pid) {
                n.on_connected(pid, addr(p as u8), Direction::Inbound, now);
            } else {
                n.on_disconnected(pid);
            }
            prop_assert_eq!(
                n.connection_count(),
                n.inbound_count() + n.outbound_count()
                    + n.peers.values().filter(|q| q.dir == Direction::Feeler).count()
            );
        }
    }
}
