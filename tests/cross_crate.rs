//! Cross-crate integration tests: protocol ↔ chain ↔ addrman ↔ node
//! interactions that no single crate exercises alone.

use bitsync_core::addrman::{AddrMan, AddrManConfig};
use bitsync_core::chain::{Mempool, Miner, TxGenerator};
use bitsync_core::node::{unix_time, Direction, Node, NodeConfig, NodeId};
use bitsync_core::protocol::addr::NetAddr;
use bitsync_core::protocol::message::{Message, MAGIC_MAINNET};
use bitsync_core::sim::rng::SimRng;
use bitsync_core::sim::time::SimTime;
use std::net::Ipv4Addr;

fn addr(last: u8) -> NetAddr {
    NetAddr::from_ipv4(Ipv4Addr::new(198, 51, 100, last), 8333)
}

/// Wires two nodes directly and shuttles their queued messages until both
/// go idle. Returns the number of messages exchanged.
fn shuttle(a: &mut Node, b: &mut Node, now: SimTime) -> usize {
    let mut moved = 0;
    for _ in 0..200 {
        let mut any = false;
        for _ in 0..4 {
            let (out_a, _, _) = a.pump(now);
            for o in out_a {
                if o.to == b.id && b.deliver(a.id, o.msg) {
                    moved += 1;
                    any = true;
                }
            }
            let (out_b, _, _) = b.pump(now);
            for o in out_b {
                if o.to == a.id && a.deliver(b.id, o.msg) {
                    moved += 1;
                    any = true;
                }
            }
        }
        if !any && !a.has_pending_work() && !b.has_pending_work() {
            break;
        }
    }
    moved
}

#[test]
fn two_nodes_complete_handshake_and_exchange_addresses() {
    let now = SimTime::from_secs(1);
    let mut a = Node::new(NodeId(0), addr(1), true, NodeConfig::bitcoin_core(), 1);
    let mut b = Node::new(NodeId(1), addr(2), true, NodeConfig::bitcoin_core(), 2);
    // Give b something to gossip.
    for i in 10..30u8 {
        b.addrman.add(addr(i), addr(2), unix_time(now));
    }
    // A real dial starts from an addrman entry (Core's Good is a no-op
    // for unknown addresses).
    a.addrman.add(addr(2), addr(1), unix_time(now));
    a.on_connected(NodeId(1), addr(2), Direction::Outbound, now);
    b.on_connected(NodeId(0), addr(1), Direction::Inbound, now);
    let moved = shuttle(&mut a, &mut b, now);
    assert!(moved >= 6, "only {moved} messages moved");
    // Handshake completed both ways.
    assert!(a.peers[&NodeId(1)].is_ready());
    assert!(b.peers[&NodeId(0)].is_ready());
    // a solicited addresses and learned some of b's book; b's address
    // itself was marked good (tried) after the outbound success.
    assert!(a.addrman.len() > 2, "a learned {}", a.addrman.len());
    assert_eq!(a.addrman.tried_count(), 1);
    assert_eq!(a.stats.successes, 1);
}

#[test]
fn block_mined_on_one_node_connects_on_the_other() {
    let now = SimTime::from_secs(1);
    let mut a = Node::new(NodeId(0), addr(1), true, NodeConfig::bitcoin_core(), 3);
    let mut b = Node::new(NodeId(1), addr(2), true, NodeConfig::bitcoin_core(), 4);
    a.on_connected(NodeId(1), addr(2), Direction::Outbound, now);
    b.on_connected(NodeId(0), addr(1), Direction::Inbound, now);
    shuttle(&mut a, &mut b, now);

    // Mine on a: with the shared deterministic genesis, b can connect it.
    let mut miner = Miner::new(1, 100);
    let hash = a.mine_and_relay(&mut miner, now).expect("block accepted");
    shuttle(&mut a, &mut b, now);
    assert!(b.chain.has_body(&hash), "block did not reach b");
    assert_eq!(b.chain.height(), 1);
}

#[test]
fn transactions_flow_and_confirm_across_nodes() {
    let now = SimTime::from_secs(1);
    let mut rng = SimRng::seed_from(9);
    let mut gen = TxGenerator::new(1);
    let mut a = Node::new(NodeId(0), addr(1), true, NodeConfig::bitcoin_core(), 5);
    let mut b = Node::new(NodeId(1), addr(2), true, NodeConfig::bitcoin_core(), 6);
    a.on_connected(NodeId(1), addr(2), Direction::Outbound, now);
    b.on_connected(NodeId(0), addr(1), Direction::Inbound, now);
    shuttle(&mut a, &mut b, now);

    let txs: Vec<_> = (0..5).map(|_| gen.next_tx(&mut rng)).collect();
    for tx in &txs {
        a.accept_tx(tx.clone(), now);
    }
    shuttle(&mut a, &mut b, now);
    for tx in &txs {
        assert!(b.mempool.contains(&tx.txid()), "tx missing at b");
    }

    // b mines: the compact block reconstructs at a from its mempool.
    let mut miner = Miner::new(2, 100);
    let hash = b.mine_and_relay(&mut miner, now).expect("mined");
    shuttle(&mut a, &mut b, now);
    assert!(a.chain.has_body(&hash));
    // Confirmed transactions left both mempools.
    for tx in &txs {
        assert!(!a.mempool.contains(&tx.txid()));
        assert!(!b.mempool.contains(&tx.txid()));
    }
}

#[test]
fn wire_roundtrip_through_framing_for_node_messages() {
    // Every message a node emits must survive the real wire encoding.
    let now = SimTime::from_secs(1);
    let mut a = Node::new(NodeId(0), addr(1), true, NodeConfig::bitcoin_core(), 7);
    let mut b = Node::new(NodeId(1), addr(2), true, NodeConfig::bitcoin_core(), 8);
    a.on_connected(NodeId(1), addr(2), Direction::Outbound, now);
    b.on_connected(NodeId(0), addr(1), Direction::Inbound, now);
    for _ in 0..50 {
        let (out_a, _, _) = a.pump(now);
        for o in out_a {
            let framed = o.msg.encode_framed(MAGIC_MAINNET);
            let (decoded, n) = Message::decode_framed(&framed, MAGIC_MAINNET)
                .expect("node-emitted message must decode");
            assert_eq!(n, framed.len());
            b.deliver(a.id, decoded);
        }
        let (out_b, _, _) = b.pump(now);
        for o in out_b {
            let framed = o.msg.encode_framed(MAGIC_MAINNET);
            let (decoded, _) = Message::decode_framed(&framed, MAGIC_MAINNET).expect("decodes");
            a.deliver(b.id, decoded);
        }
        if !a.has_pending_work() && !b.has_pending_work() {
            break;
        }
    }
    assert!(a.peers[&NodeId(1)].is_ready());
}

#[test]
fn mempool_feeds_addrman_independent_clocks() {
    // addrman timestamps use UNIX seconds derived from SimTime; verify the
    // epoch mapping keeps entries fresh (not terrible) at scenario start.
    let now = SimTime::from_secs(10);
    let mut am = AddrMan::new(1, AddrManConfig::bitcoin_core());
    am.add(addr(9), addr(8), unix_time(now));
    let info = am.info(&addr(9)).unwrap();
    assert!(!info.is_terrible(unix_time(now), &AddrManConfig::bitcoin_core()));
    // 31 days later the same entry is terrible under the 30-day horizon
    // but would have been evicted at 17 days under the paper proposal.
    let later = unix_time(now) + 31 * 86_400;
    assert!(info.is_terrible(later, &AddrManConfig::bitcoin_core()));
    let mid = unix_time(now) + 18 * 86_400;
    assert!(!info.is_terrible(mid, &AddrManConfig::bitcoin_core()));
    assert!(info.is_terrible(mid, &AddrManConfig::paper_proposal()));
}

#[test]
fn feeler_connection_promotes_and_disconnects() {
    let now = SimTime::from_secs(1);
    let mut a = Node::new(NodeId(0), addr(1), true, NodeConfig::bitcoin_core(), 10);
    let mut b = Node::new(NodeId(1), addr(2), true, NodeConfig::bitcoin_core(), 11);
    a.addrman.add(addr(2), addr(1), unix_time(now));
    a.on_connected(NodeId(1), addr(2), Direction::Feeler, now);
    b.on_connected(NodeId(0), addr(1), Direction::Inbound, now);
    // Shuttle until a requests the disconnect.
    let mut disconnected = false;
    for _ in 0..50 {
        let (out_a, reqs, _) = a.pump(now);
        for o in out_a {
            b.deliver(a.id, o.msg);
        }
        if !reqs.is_empty() {
            disconnected = true;
            break;
        }
        let (out_b, _, _) = b.pump(now);
        for o in out_b {
            a.deliver(b.id, o.msg);
        }
    }
    assert!(disconnected, "feeler never completed");
    // The feeler's purpose: the address moved to tried.
    assert_eq!(a.addrman.tried_count(), 1);
}

#[test]
fn empty_mempool_block_is_just_coinbase() {
    let mut rng = SimRng::seed_from(12);
    let pool = Mempool::new(10);
    let mut miner = Miner::new(3, 100);
    let block = miner.mine(
        bitsync_core::protocol::hash::Hash256::ZERO,
        1,
        &pool,
        &mut rng,
    );
    assert_eq!(block.txs.len(), 1);
    assert!(block.txs[0].is_coinbase());
}
