//! Explicit tests for the paper's Figure 9 / Algorithm 3 semantics: one
//! message processed and one flushed per peer per pump round, and the §V
//! ordering refinements.

use bitsync_node::node::PEER_TIMEOUT;
use bitsync_node::{Direction, Node, NodeConfig, NodeId, NodeRequest, Peer};
use bitsync_protocol::addr::NetAddr;
use bitsync_protocol::hash::InvVect;
use bitsync_protocol::message::Message;
use bitsync_sim::rng::SimRng;
use bitsync_sim::time::{SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

fn addr(last: u8) -> NetAddr {
    NetAddr::from_ipv4(Ipv4Addr::new(198, 51, 100, last), 8333)
}

/// Messages waiting in all `proc_q`s and in all `send_q`s.
fn queued(n: &Node) -> (usize, usize) {
    let held = |len: fn(&Peer) -> usize| n.peers.values().map(len).sum::<usize>();
    (held(|p| p.proc_q.len()), held(|p| p.send_q.len()))
}

fn node_with_peers(cfg: NodeConfig, n_peers: u32) -> Node {
    let now = SimTime::from_secs(1);
    let mut n = Node::new(NodeId(0), addr(250), true, cfg, 1);
    for p in 1..=n_peers {
        // Inbound avoids the initiator's VERSION occupying the send queue.
        n.on_connected(NodeId(p), addr(p as u8), Direction::Inbound, now);
    }
    n
}

#[test]
fn one_message_processed_per_peer_per_round() {
    let now = SimTime::from_secs(1);
    let mut n = node_with_peers(NodeConfig::bitcoin_core(), 3);
    // Three pings queued at each peer.
    for p in 1..=3 {
        for k in 0..3u64 {
            n.deliver(NodeId(p), Message::Ping(p as u64 * 10 + k));
        }
    }
    let before = queued(&n).0;
    n.pump(now);
    // Exactly one message per peer processed in one round (Algorithm 3).
    assert_eq!(before - queued(&n).0, 3);
    n.pump(now);
    assert_eq!(before - queued(&n).0, 6);
    n.pump(now);
    assert_eq!(before - queued(&n).0, 9);
}

#[test]
fn one_send_flushed_per_peer_per_round() {
    let now = SimTime::from_secs(1);
    let mut n = node_with_peers(NodeConfig::bitcoin_core(), 4);
    // Queue two pings from each peer; responses (pongs) accumulate in the
    // send queues and drain one per peer per round.
    for p in 1..=4 {
        n.deliver(NodeId(p), Message::Ping(1));
        n.deliver(NodeId(p), Message::Ping(2));
    }
    let (out1, _, _) = n.pump(now); // processes 4 pings, flushes 4 pongs
    assert_eq!(out1.len(), 4);
    let (out2, _, _) = n.pump(now);
    assert_eq!(out2.len(), 4);
    let (out3, _, _) = n.pump(now);
    assert!(out3.is_empty());
}

#[test]
fn a_block_waits_behind_queued_responses_without_priority() {
    // The paper's example: B owes A three GETADDR-style responses; a new
    // block for A queues *behind* them under Core's FIFO.
    let now = SimTime::from_secs(1);
    let mut n = node_with_peers(NodeConfig::bitcoin_core(), 1);
    n.peers.get_mut(&NodeId(1)).unwrap().handshake = bitsync_node::Handshake::Ready;
    // Three pending responses already sit in vSendMessage.
    for k in 0..3u64 {
        n.send(NodeId(1), Message::Pong(k));
    }
    let mut miner = bitsync_chain::Miner::new(1, 10);
    n.mine_and_relay(&mut miner, now);
    let mut order = Vec::new();
    for _ in 0..10 {
        let (out, _, _) = n.pump(now);
        if out.is_empty() {
            break;
        }
        for o in out {
            order.push(o.msg.is_block_bearing());
        }
    }
    let block_pos = order.iter().position(|b| *b).expect("block sent");
    assert_eq!(block_pos, 3, "block did not wait: order {order:?}");
}

#[test]
fn priority_relay_sends_the_block_first() {
    let now = SimTime::from_secs(1);
    let mut cfg = NodeConfig::bitcoin_core();
    cfg.priority_relay = true;
    let mut n = node_with_peers(cfg, 1);
    n.peers.get_mut(&NodeId(1)).unwrap().handshake = bitsync_node::Handshake::Ready;
    for k in 0..3u64 {
        n.send(NodeId(1), Message::Pong(k));
    }
    let mut miner = bitsync_chain::Miner::new(1, 10);
    n.mine_and_relay(&mut miner, now);
    let (out, _, _) = n.pump(now);
    assert!(
        out.first().is_some_and(|o| o.msg.is_block_bearing()),
        "§V priority relay must send the block first"
    );
}

#[test]
fn outbound_first_ordering_under_proposal() {
    let now = SimTime::from_secs(1);
    let mut cfg = NodeConfig::bitcoin_core();
    cfg.priority_relay = true;
    let mut n = node_with_peers(cfg, 4);
    // Reclassify peers 2 and 4 as outbound (their VERSION was never
    // queued because the helper connects everyone as inbound).
    n.peers.get_mut(&NodeId(2)).unwrap().dir = Direction::Outbound;
    n.peers.get_mut(&NodeId(4)).unwrap().dir = Direction::Outbound;
    for p in 1..=4 {
        n.deliver(NodeId(p), Message::Ping(p as u64));
    }
    // One round both processes the pings and flushes the pongs.
    let (out, _, _) = n.pump(now);
    let order: Vec<u32> = out.iter().map(|o| o.to.0).collect();
    // Outbound peers (2, 4) must be served before inbound (1, 3).
    assert_eq!(order, vec![2, 4, 1, 3], "got {order:?}");
}

#[test]
fn core_fifo_serves_connection_order() {
    let now = SimTime::from_secs(1);
    let mut n = node_with_peers(NodeConfig::bitcoin_core(), 4);
    for p in 1..=4 {
        n.deliver(NodeId(p), Message::Ping(p as u64));
    }
    let (out, _, _) = n.pump(now);
    let order: Vec<u32> = out.iter().map(|o| o.to.0).collect();
    assert_eq!(order, vec![1, 2, 3, 4], "got {order:?}");
}

#[test]
fn trickle_mode_delays_announcements_into_inv_batches() {
    use bitsync_node::TxAnnounce;

    let now = SimTime::from_secs(1);
    let mut cfg = NodeConfig::bitcoin_core();
    cfg.tx_announce = TxAnnounce::Trickle;
    let mut n = node_with_peers(cfg, 2);
    for p in 1..=2 {
        n.peers.get_mut(&NodeId(p)).unwrap().handshake = bitsync_node::Handshake::Ready;
    }
    let mut rng = SimRng::seed_from(1);
    let mut gen = bitsync_chain::TxGenerator::new(1);
    let tx = gen.next_tx(&mut rng);
    let txid = tx.txid();
    n.accept_tx(tx, now);

    // Collect everything flushed over the next simulated 30 seconds.
    let mut invs = 0;
    let mut full_txs = 0;
    let mut t = now;
    for _ in 0..300 {
        let (out, _, _) = n.pump(t);
        for o in out {
            match o.msg {
                Message::Inv(items) => {
                    assert!(items.iter().any(|iv| iv.hash == txid));
                    invs += 1;
                }
                Message::Tx(_) => full_txs += 1,
                _ => {}
            }
        }
        t += SimDuration::from_millis(100);
    }
    // Trickle announces via INV, never pushes the full TX unsolicited.
    assert_eq!(invs, 2, "each peer gets one INV");
    assert_eq!(full_txs, 0, "no unsolicited TX in trickle mode");
    // Peers can then fetch it.
    n.deliver(NodeId(1), Message::GetData(vec![InvVect::tx(txid)]));
    let mut served = false;
    for _ in 0..5 {
        let (out, _, _) = n.pump(t);
        if out
            .iter()
            .any(|o| matches!(&o.msg, Message::Tx(x) if x.txid() == txid))
        {
            served = true;
            break;
        }
    }
    assert!(served, "GETDATA after trickled INV must be served");
}

/// Delivers one ping per listed peer, pumps once, and returns who the pongs
/// went to — the round's visit order.
fn visit_order(n: &mut Node, peers: &[u32]) -> Vec<u32> {
    for p in peers {
        assert!(n.deliver(NodeId(*p), Message::Ping(*p as u64)));
    }
    let (out, _, _) = n.pump(SimTime::from_secs(1));
    out.iter().map(|o| o.to.0).collect()
}

#[test]
fn a_reconnect_after_a_mid_order_disconnect_goes_last() {
    let now = SimTime::from_secs(1);
    let mut n = node_with_peers(NodeConfig::bitcoin_core(), 4);
    n.on_disconnected(NodeId(2));
    assert_eq!(visit_order(&mut n, &[1, 3, 4]), vec![1, 3, 4]);
    // A new connection — even one with a lower id, even a returning peer —
    // is served after everyone already connected.
    n.on_connected(NodeId(0), addr(100), Direction::Inbound, now);
    n.on_connected(NodeId(2), addr(2), Direction::Inbound, now);
    assert_eq!(visit_order(&mut n, &[0, 1, 2, 3, 4]), vec![1, 3, 4, 0, 2]);
    assert_eq!(
        n.peers.keys().map(|id| id.0).collect::<Vec<_>>(),
        vec![0, 1, 2, 3, 4],
        "id-ordered iteration is independent of connection order"
    );
}

#[test]
fn outbound_first_is_stable_across_disconnect_and_reconnect() {
    let now = SimTime::from_secs(1);
    let mut cfg = NodeConfig::bitcoin_core();
    cfg.priority_relay = true;
    let mut n = node_with_peers(cfg, 5);
    n.peers.get_mut(&NodeId(4)).unwrap().dir = Direction::Outbound;
    n.peers.get_mut(&NodeId(2)).unwrap().dir = Direction::Outbound;
    n.peers.get_mut(&NodeId(3)).unwrap().dir = Direction::Feeler;
    assert_eq!(
        visit_order(&mut n, &[1, 2, 3, 4, 5]),
        vec![2, 4, 3, 1, 5],
        "outbound, then feeler, then inbound, each in connection order"
    );
    n.on_disconnected(NodeId(2));
    n.on_connected(NodeId(6), addr(6), Direction::Inbound, now);
    n.on_connected(NodeId(2), addr(2), Direction::Inbound, now);
    n.peers.get_mut(&NodeId(2)).unwrap().dir = Direction::Outbound;
    // Connection order is now 1 3 4 5 6 2: peer 2 is the newest outbound.
    assert_eq!(
        visit_order(&mut n, &[1, 2, 3, 4, 5, 6]),
        vec![4, 2, 3, 1, 5, 6]
    );
}

/// A node whose ready inbound peers connected in the given order.
fn ready_node(seed: u64, connect_order: &[u32]) -> Node {
    let now = SimTime::from_secs(1);
    let mut n = Node::new(NodeId(0), addr(250), true, NodeConfig::bitcoin_core(), seed);
    for p in connect_order {
        n.on_connected(NodeId(*p), addr(*p as u8), Direction::Inbound, now);
        n.peers.get_mut(&NodeId(*p)).unwrap().handshake = bitsync_node::Handshake::Ready;
    }
    n
}

#[test]
fn keepalive_walks_peers_in_id_order_not_connection_order() {
    let now = SimTime::from_secs(1);
    // Ping nonces are drawn from the node RNG one per due peer. Drawing in
    // ascending id order means two nodes with one seed give each peer the
    // same nonce however the peers happened to connect.
    let pings = |connect_order: &[u32]| {
        let mut n = ready_node(7, connect_order);
        let (out, reqs, _) = n.pump(now);
        assert!(reqs.is_empty());
        out.into_iter()
            .map(|o| match o.msg {
                Message::Ping(nonce) => (o.to.0, nonce),
                other => panic!("expected a keepalive ping, got {other:?}"),
            })
            .collect::<Vec<_>>()
    };
    let shuffled = pings(&[3, 1, 4, 2]);
    let mut sorted = pings(&[1, 2, 3, 4]);
    assert_eq!(
        shuffled.iter().map(|(to, _)| *to).collect::<Vec<_>>(),
        vec![3, 1, 4, 2],
        "the socket writer still serves connection order"
    );
    sorted.sort_by_key(|(to, _)| [3, 1, 4, 2].iter().position(|p| p == to));
    assert_eq!(shuffled, sorted, "nonces must follow ascending NodeId");

    // Timeouts: every peer silent past the limit, requests ascending by id.
    let mut n = ready_node(7, &[3, 1, 4, 2]);
    for p in 1..=4 {
        n.peers.get_mut(&NodeId(p)).unwrap().last_recv = now;
    }
    let late = now + PEER_TIMEOUT + SimDuration::from_secs(1);
    let (_, reqs, _) = n.pump(late);
    assert_eq!(
        reqs,
        (1..=4)
            .map(|p| NodeRequest::Disconnect(NodeId(p)))
            .collect::<Vec<_>>()
    );
}

/// The keepalive sweep as a brute force over the peers' public fields, run
/// every round: per ready peer in ascending id, a timeout request or a ping
/// carrying the next nonce of `twin` (a copy of the node's RNG stream).
fn brute_force_keepalive(
    n: &Node,
    now: SimTime,
    twin: &mut SimRng,
) -> (BTreeSet<(u32, u64)>, Vec<NodeRequest>) {
    let (mut pings, mut reqs) = (BTreeSet::new(), Vec::new());
    for (id, p) in n.peers.iter().filter(|(_, p)| p.is_ready()) {
        if p.last_recv != SimTime::ZERO && now.saturating_since(p.last_recv) > PEER_TIMEOUT {
            reqs.push(NodeRequest::Disconnect(*id));
        } else if now >= p.next_ping_at {
            pings.insert((id.0, twin.next_u64()));
        }
    }
    (pings, reqs)
}

/// Every keepalive ping waiting in a send queue, with its peer.
fn queued_pings(n: &Node) -> BTreeSet<(u32, u64)> {
    let queued = n
        .peers
        .iter()
        .flat_map(|(id, p)| p.send_q.iter().map(|m| (id.0, m)));
    queued
        .filter_map(|(to, m)| match m {
            Message::Ping(nonce) => Some((to, *nonce)),
            _ => None,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The sweep skips rounds until something is due, yet over random
    /// (double) connects, disconnects, `VERACK`s that make a peer ready,
    /// deliveries and pump times spanning a few `PEER_TIMEOUT`s, every
    /// round queues exactly the pings — nonces included — and requests
    /// exactly the disconnects a sweep of every round would. A request is
    /// acted on (as the world does) or ignored (the node asks again).
    #[test]
    fn keepalive_matches_a_sweep_every_round(
        ops in proptest::collection::vec((0u8..7, 1u32..6, 0u64..150), 1..120),
    ) {
        let seed = 11;
        let mut n = Node::new(NodeId(0), addr(250), true, NodeConfig::bitcoin_core(), seed);
        // Only the pings draw: inbound connects, VERACKs and pongs do not.
        let mut twin = SimRng::seed_from(seed);
        twin.next_u64(); // the addrman key
        let mut now = SimTime::from_secs(1);
        for (op, peer, secs) in ops {
            let id = NodeId(peer);
            match op {
                0 => n.on_connected(id, addr(peer as u8), Direction::Inbound, now),
                1 => n.on_disconnected(id),
                2 => {
                    n.deliver_at(id, Message::Verack, now);
                }
                3 => {
                    n.deliver_at(id, Message::Ping(secs), now);
                }
                _ => {
                    now += SimDuration::from_secs(secs);
                    let (want_pings, want_reqs) = brute_force_keepalive(&n, now, &mut twin);
                    let before = queued_pings(&n);
                    let (out, reqs, _) = n.pump(now);
                    let flushed = out.iter().filter_map(|o| match o.msg {
                        Message::Ping(nonce) => Some((o.to.0, nonce)),
                        _ => None,
                    });
                    let mut pings = queued_pings(&n);
                    pings.extend(flushed);
                    let new: BTreeSet<_> = pings.difference(&before).copied().collect();
                    prop_assert_eq!(new, want_pings, "at {}", now);
                    prop_assert_eq!(&reqs, &want_reqs, "at {}", now);
                    if op == 4 {
                        for NodeRequest::Disconnect(p) | NodeRequest::Ban(p) in reqs {
                            n.on_disconnected(p);
                        }
                    }
                }
            }
            prop_assert_eq!(n.peers.check_readiness(), Ok(()));
        }
    }
}

/// A queue emptied through its public field, as the benchmark's hub
/// empties each `send_q` after connecting, leaves its readiness bit set:
/// the next round visits that peer once, finds nothing, clears the bit,
/// flushes every other peer and leaves no work pending.
#[test]
fn a_queue_emptied_behind_the_table_leaves_no_pending_work() {
    let now = SimTime::from_secs(1);
    let mut n = ready_node(1, &[1, 2, 3]);
    // The first round queues the keepalive pings; flush them.
    n.pump(now);
    while n.has_pending_work() {
        n.pump(now);
    }
    for p in 1..=3 {
        n.send(NodeId(p), Message::Pong(u64::from(p)));
    }
    n.peers.get_mut(&NodeId(2)).unwrap().send_q.clear();
    assert!(n.peers.check_readiness().is_err(), "peer 2's bit is stale");
    let (out, _, _) = n.pump(now);
    let to: Vec<u32> = out.iter().map(|o| o.to.0).collect();
    assert_eq!(to, [1, 3]);
    assert!(!n.has_pending_work());
    assert_eq!(n.peers.check_readiness(), Ok(()));
}

/// Known quirk (DESIGN.md §6, "Double connect"): when two nodes cross-dial,
/// the world reports a second `on_connected` for an id that is already
/// connected. The record is replaced and the id gets a *second* turn per
/// pump round until the disconnect. Pinned because quick-scale `relay` hits
/// it and the `relay_star` / `fault_sweep_observed` digests depend on it.
#[test]
fn double_connect_replaces_the_record_and_adds_a_second_turn() {
    let now = SimTime::from_secs(1);
    let mut n = ready_node(1, &[1, 2, 3]);
    // Peer 1 is answered its one GETADDR and has traffic queued both ways.
    n.deliver(NodeId(1), Message::GetAddr);
    let mut answered = false;
    while n.has_pending_work() {
        let (out, _, _) = n.pump(now);
        answered |= out
            .iter()
            .any(|o| o.to == NodeId(1) && matches!(o.msg, Message::Addr(_)));
    }
    assert!(answered);
    n.deliver(NodeId(1), Message::Ping(1));
    n.send(NodeId(1), Message::Pong(9));
    assert_eq!(queued(&n), (1, 1));

    // The crossing dial lands: same id, opposite direction.
    n.on_connected(NodeId(1), addr(1), Direction::Outbound, now);
    assert_eq!(n.connection_count(), 3, "still one record per id");
    assert_eq!(n.peers.len(), 3);
    let p = &n.peers[&NodeId(1)];
    assert_eq!(p.dir, Direction::Outbound);
    assert!(!p.is_ready(), "the handshake starts over");
    assert_eq!(p.send_q.len(), 1, "old queues dropped; only our VERSION");
    assert!(matches!(p.send_q[0], Message::Version(_)));
    assert_eq!(queued(&n), (0, 1), "the replaced record's queues are gone");
    assert_eq!(
        n.peers.check_readiness(),
        Ok(()),
        "the bits drop the replaced record's queues and mark the VERSION"
    );
    n.pump(now); // flush the VERSION
    assert!(!n.has_pending_work());

    // Two turns per round, at the old position and at the end.
    for p in [1, 1, 1, 2, 3] {
        n.deliver(NodeId(p), Message::Ping(p as u64));
    }
    let before = queued(&n).0;
    let (out, _, _) = n.pump(now);
    assert_eq!(before - queued(&n).0, 4);
    let order: Vec<u32> = out.iter().map(|o| o.to.0).collect();
    assert_eq!(order, vec![1, 2, 3, 1]);
    let (out, _, _) = n.pump(now);
    assert_eq!(out.len(), 1, "peer 1's third ping, alone");

    // Relay fan-outs walk the same order, so the peer is sent the object
    // twice (the second visit does not see the first one's `mark_known`).
    n.peers.get_mut(&NodeId(1)).unwrap().handshake = bitsync_node::Handshake::Ready;
    let mut rng = SimRng::seed_from(1);
    let tx = bitsync_chain::TxGenerator::new(1).next_tx(&mut rng);
    assert!(n.accept_tx(tx, now));
    let queued = |n: &Node, p: u32| {
        n.peers[&NodeId(p)]
            .send_q
            .iter()
            .filter(|m| matches!(m, Message::Tx(_)))
            .count()
    };
    assert_eq!((queued(&n, 1), queued(&n, 2), queued(&n, 3)), (2, 1, 1));
    while n.has_pending_work() {
        n.pump(now);
    }

    // `getaddr_answered` survives the replacement: no second answer.
    n.deliver(NodeId(1), Message::GetAddr);
    let (out, _, _) = n.pump(now);
    assert!(
        out.is_empty(),
        "GETADDR is answered once per id, got {out:?}"
    );

    // One disconnect clears both turns (and the GETADDR memory).
    n.on_disconnected(NodeId(1));
    assert_eq!(n.connection_count(), 2);
    assert!(!n.deliver(NodeId(1), Message::Ping(1)));
    assert_eq!(visit_order(&mut n, &[2, 3]), vec![2, 3]);
    n.on_connected(NodeId(1), addr(1), Direction::Inbound, now);
    assert_eq!(visit_order(&mut n, &[1, 2, 3]), vec![2, 3, 1]);
}
