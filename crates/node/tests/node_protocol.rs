//! Protocol-conformance tests for the node state machine, driven directly
//! through `deliver`/`pump` without a world.

use bitsync_chain::{Miner, TxGenerator};
use bitsync_node::node::Attempt;
use bitsync_node::{unix_time, AddrReceipt, Direction, Node, NodeConfig, NodeId, NodeRequest};
use bitsync_protocol::addr::{NetAddr, TimestampedAddr};
use bitsync_protocol::hash::{Hash256, InvVect};
use bitsync_protocol::message::{Message, SendCmpct};
use bitsync_protocol::tx::Transaction;
use bitsync_protocol::wire::{Decodable, Encodable};
use bitsync_sim::rng::SimRng;
use bitsync_sim::time::SimTime;
use std::net::Ipv4Addr;

fn addr(last: u8) -> NetAddr {
    NetAddr::from_ipv4(Ipv4Addr::new(203, 0, 113, last), 8333)
}

fn node(id: u32, seed: u64) -> Node {
    Node::new(
        NodeId(id),
        addr(id as u8 + 1),
        true,
        NodeConfig::bitcoin_core(),
        seed,
    )
}

/// Completes a handshake by hand: peer 9 is inbound at `n`.
fn ready_inbound_peer(n: &mut Node, peer: u32, now: SimTime) {
    let pid = NodeId(peer);
    n.on_connected(pid, addr(peer as u8 + 1), Direction::Inbound, now);
    n.deliver(
        pid,
        Message::Version(Box::new(bitsync_protocol::message::VersionMsg {
            version: bitsync_protocol::PROTOCOL_VERSION,
            services: 1,
            timestamp: unix_time(now),
            addr_recv: n.addr,
            addr_from: addr(peer as u8 + 1),
            nonce: peer as u64,
            user_agent: "/test/".into(),
            start_height: 0,
            relay: true,
        })),
    );
    n.deliver(pid, Message::Verack);
    n.pump(now);
    n.pump(now);
    assert!(n.peers[&pid].is_ready(), "handshake incomplete");
}

/// Drains all queued sends to a given peer.
fn drain_to(n: &mut Node, to: NodeId, now: SimTime) -> Vec<Message> {
    let mut out = Vec::new();
    for _ in 0..50 {
        let (sent, _, _) = n.pump(now);
        let mut any = false;
        for o in sent {
            any = true;
            if o.to == to {
                out.push(o.msg);
            }
        }
        if !any {
            break;
        }
    }
    out
}

#[test]
fn getaddr_answered_once_per_connection() {
    let now = SimTime::from_secs(1);
    let mut n = node(0, 1);
    for i in 10..40u8 {
        n.addrman.add(addr(i), addr(99), unix_time(now));
    }
    ready_inbound_peer(&mut n, 9, now);
    n.deliver(NodeId(9), Message::GetAddr);
    n.deliver(NodeId(9), Message::GetAddr);
    let msgs = drain_to(&mut n, NodeId(9), now);
    let addr_replies = msgs
        .iter()
        .filter(|m| matches!(m, Message::Addr(_)))
        .count();
    assert_eq!(addr_replies, 1, "Core answers GETADDR once: {msgs:?}");
}

#[test]
fn getaddr_reply_contains_own_address() {
    let now = SimTime::from_secs(1);
    let mut n = node(0, 2);
    ready_inbound_peer(&mut n, 9, now);
    n.deliver(NodeId(9), Message::GetAddr);
    n.pump(now);
    let msgs = drain_to(&mut n, NodeId(9), now);
    let own = n.addr;
    let found = msgs
        .iter()
        .any(|m| matches!(m, Message::Addr(list) if list.iter().any(|e| e.addr == own)));
    assert!(found, "own address missing from ADDR reply");
}

#[test]
fn ping_gets_pong_with_same_nonce() {
    let now = SimTime::from_secs(1);
    let mut n = node(0, 3);
    ready_inbound_peer(&mut n, 9, now);
    n.deliver(NodeId(9), Message::Ping(0xabcdef));
    n.pump(now);
    let msgs = drain_to(&mut n, NodeId(9), now);
    assert!(msgs.contains(&Message::Pong(0xabcdef)), "{msgs:?}");
}

#[test]
fn unknown_getdata_yields_notfound() {
    let now = SimTime::from_secs(1);
    let mut n = node(0, 4);
    ready_inbound_peer(&mut n, 9, now);
    let missing = InvVect::tx(Hash256::hash_of(b"nowhere"));
    n.deliver(NodeId(9), Message::GetData(vec![missing]));
    n.pump(now);
    let msgs = drain_to(&mut n, NodeId(9), now);
    assert!(
        msgs.iter()
            .any(|m| matches!(m, Message::NotFound(v) if v.contains(&missing))),
        "{msgs:?}"
    );
}

#[test]
fn tx_inv_triggers_getdata_only_for_unknown() {
    let now = SimTime::from_secs(1);
    let mut rng = SimRng::seed_from(5);
    let mut gen = TxGenerator::new(1);
    let mut n = node(0, 5);
    ready_inbound_peer(&mut n, 9, now);
    let known = gen.next_tx(&mut rng);
    let unknown = gen.next_tx(&mut rng);
    n.accept_tx(known.clone(), now);
    drain_to(&mut n, NodeId(9), now);
    n.deliver(
        NodeId(9),
        Message::Inv(vec![InvVect::tx(known.txid()), InvVect::tx(unknown.txid())]),
    );
    let msgs = drain_to(&mut n, NodeId(9), now);
    let getdatas: Vec<&Message> = msgs
        .iter()
        .filter(|m| matches!(m, Message::GetData(_)))
        .collect();
    assert_eq!(getdatas.len(), 1);
    if let Message::GetData(items) = getdatas[0] {
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].hash, unknown.txid());
    }
}

#[test]
fn duplicate_tx_not_rerelayed() {
    let now = SimTime::from_secs(1);
    let mut rng = SimRng::seed_from(6);
    let mut gen = TxGenerator::new(1);
    let mut n = node(0, 6);
    ready_inbound_peer(&mut n, 9, now);
    let tx = gen.next_tx(&mut rng);
    assert!(n.accept_tx(tx.clone(), now));
    assert!(!n.accept_tx(tx.clone(), now));
    let msgs = drain_to(&mut n, NodeId(9), now);
    let tx_sends = msgs
        .iter()
        .filter(|m| matches!(m, Message::Tx(t) if t.txid() == tx.txid()))
        .count();
    assert_eq!(tx_sends, 1, "duplicate relay: {msgs:?}");
}

#[test]
fn relayed_tx_is_one_allocation_in_both_mempools() {
    let now = SimTime::from_secs(1);
    let mut rng = SimRng::seed_from(60);
    let mut gen = TxGenerator::new(1);
    let mut a = node(0, 60);
    let mut b = node(1, 61);
    ready_inbound_peer(&mut a, 1, now);
    ready_inbound_peer(&mut b, 0, now);

    let tx = gen.next_tx(&mut rng);
    let txid = tx.txid();
    assert!(a.accept_tx(tx, now));
    for msg in drain_to(&mut a, NodeId(1), now) {
        if matches!(msg, Message::Tx(_)) {
            b.deliver(NodeId(0), msg);
        }
    }
    b.pump(now);

    let at_a = a.mempool.get(&txid).expect("pooled at a");
    let at_b = b.mempool.get(&txid).expect("relayed to b");
    assert_eq!(at_a.inputs.as_ptr(), at_b.inputs.as_ptr());
}

#[test]
fn compact_reconstruction_shares_bodies_with_the_receivers_mempool() {
    let now = SimTime::from_secs(1);
    let mut rng = SimRng::seed_from(62);
    let mut gen = TxGenerator::new(1);
    let mut a = node(0, 62);
    let mut b = node(1, 63);
    ready_inbound_peer(&mut a, 1, now);
    ready_inbound_peer(&mut b, 0, now);
    // b asked a for compact announcements.
    a.deliver(
        NodeId(1),
        Message::SendCmpct(SendCmpct {
            announce: true,
            version: 1,
        }),
    );
    a.pump(now);
    drain_to(&mut a, NodeId(1), now);

    // b pools its own copies of the transactions a is about to mine: equal
    // to a's, but separate allocations (as if decoded off the wire).
    let mut pooled = Vec::new();
    for _ in 0..3 {
        let tx = gen.next_tx(&mut rng);
        let copy = Transaction::decode_exact(&tx.encode_to_vec()).unwrap();
        assert_ne!(tx.inputs.as_ptr(), copy.inputs.as_ptr());
        a.mempool.insert(tx);
        b.mempool.insert(copy.clone());
        pooled.push(copy);
    }

    let mut miner = Miner::new(3, 10);
    let hash = a.mine_and_relay(&mut miner, now).expect("mined");
    let announcements = drain_to(&mut a, NodeId(1), now);
    assert!(
        matches!(announcements[..], [Message::CmpctBlock(_)]),
        "{announcements:?}"
    );
    for msg in announcements {
        b.deliver(NodeId(0), msg);
    }
    b.pump(now);

    let block = b.chain.block(&hash).expect("reconstructed and connected");
    assert_eq!(block.txs.len(), 4);
    for (in_block, in_pool) in block.txs[1..].iter().zip(&pooled) {
        assert_eq!(in_block.txid(), in_pool.txid());
        assert_eq!(in_block.inputs.as_ptr(), in_pool.inputs.as_ptr());
    }
}

#[test]
fn redelivered_headers_request_only_missing_bodies() {
    let now = SimTime::from_secs(1);
    let mut donor = node(1, 64);
    let mut miner = Miner::new(4, 10);
    for _ in 0..3 {
        donor.mine_and_relay(&mut miner, now);
    }
    let hashes: Vec<Hash256> = (1..=3)
        .map(|h| donor.chain.hash_at_height(h).unwrap())
        .collect();
    let headers: Vec<_> = hashes
        .iter()
        .map(|h| donor.chain.header(h).unwrap())
        .collect();

    let mut n = node(0, 65);
    ready_inbound_peer(&mut n, 9, now);
    n.deliver(NodeId(9), Message::Headers(headers.clone()));
    drain_to(&mut n, NodeId(9), now);
    // The first body arrives; the same headers are announced again.
    let b1 = donor.chain.block(&hashes[0]).unwrap().clone();
    n.deliver(NodeId(9), Message::Block(Box::new(b1)));
    drain_to(&mut n, NodeId(9), now);
    n.deliver(NodeId(9), Message::Headers(headers));
    let wanted: Vec<Hash256> = drain_to(&mut n, NodeId(9), now)
        .into_iter()
        .filter_map(|m| match m {
            Message::GetData(items) => Some(items),
            _ => None,
        })
        .flatten()
        .map(|iv| iv.hash)
        .collect();
    assert_eq!(wanted, hashes[1..]);
}

#[test]
fn headers_request_bodies_in_batches() {
    let now = SimTime::from_secs(1);
    let rng = SimRng::seed_from(7);
    // Donor chain with 20 blocks.
    let mut donor = node(1, 7);
    let mut miner = Miner::new(1, 10);
    for _ in 0..20 {
        donor.mine_and_relay(&mut miner, now);
    }
    let headers: Vec<_> = (1..=20)
        .map(|h| {
            donor
                .chain
                .header(&donor.chain.hash_at_height(h).unwrap())
                .unwrap()
        })
        .collect();
    let _ = rng;

    let mut n = node(0, 8);
    ready_inbound_peer(&mut n, 9, now);
    n.deliver(NodeId(9), Message::Headers(headers));
    n.pump(now);
    assert_eq!(n.chain.height(), 20, "headers connected");
    let msgs = drain_to(&mut n, NodeId(9), now);
    let mut requested = 0usize;
    for m in &msgs {
        if let Message::GetData(items) = m {
            assert!(items.len() <= 16, "batch too large: {}", items.len());
            requested += items.len();
        }
    }
    assert_eq!(requested, 20, "all bodies requested");
}

#[test]
fn orphan_block_is_stashed_and_connected_after_parent() {
    let now = SimTime::from_secs(1);
    let mut donor = node(1, 9);
    let mut miner = Miner::new(2, 10);
    donor.mine_and_relay(&mut miner, now);
    donor.mine_and_relay(&mut miner, now);
    let b1 = donor
        .chain
        .block(&donor.chain.hash_at_height(1).unwrap())
        .unwrap()
        .clone();
    let b2 = donor
        .chain
        .block(&donor.chain.hash_at_height(2).unwrap())
        .unwrap()
        .clone();

    let mut n = node(0, 10);
    ready_inbound_peer(&mut n, 9, now);
    // Deliver out of order: b2 first (orphan), then b1.
    n.deliver(NodeId(9), Message::Block(Box::new(b2.clone())));
    n.pump(now);
    assert_eq!(n.chain.height(), 0, "orphan must not connect");
    n.deliver(NodeId(9), Message::Block(Box::new(b1)));
    n.pump(now);
    assert_eq!(n.chain.height(), 2, "orphan chained after parent");
    assert!(n.chain.has_body(&b2.block_hash()));
}

#[test]
fn deep_out_of_order_delivery_connects_transitively() {
    let now = SimTime::from_secs(1);
    let mut donor = node(1, 50);
    let mut miner = Miner::new(5, 10);
    for _ in 0..6 {
        donor.mine_and_relay(&mut miner, now);
    }
    let blocks: Vec<_> = (1..=6)
        .map(|h| {
            donor
                .chain
                .block(&donor.chain.hash_at_height(h).unwrap())
                .unwrap()
                .clone()
        })
        .collect();

    let mut n = node(0, 51);
    ready_inbound_peer(&mut n, 9, now);
    // Deliver the whole chain in reverse: five orphans pile up, then the
    // first block unblocks them all in one pass.
    for b in blocks.iter().rev() {
        n.deliver(NodeId(9), Message::Block(Box::new(b.clone())));
        n.pump(now);
    }
    assert_eq!(n.chain.height(), 6, "reverse delivery fully connected");
    assert_eq!(n.orphan_count(), 0, "orphan pool drained");
    for b in &blocks {
        assert!(n.chain.has_body(&b.block_hash()));
    }
}

#[test]
fn orphan_pool_is_bounded_with_fifo_eviction() {
    use bitsync_node::MAX_ORPHAN_BLOCKS;

    let now = SimTime::from_secs(1);
    let mut donor = node(1, 52);
    let mut miner = Miner::new(6, 10);
    for _ in 0..MAX_ORPHAN_BLOCKS + 5 {
        donor.mine_and_relay(&mut miner, now);
    }
    let mut n = node(0, 53);
    ready_inbound_peer(&mut n, 9, now);
    // Deliver blocks 2.. without block 1: every one is an orphan.
    for h in 2..=(MAX_ORPHAN_BLOCKS as u64 + 5) {
        let b = donor
            .chain
            .block(&donor.chain.hash_at_height(h).unwrap())
            .unwrap()
            .clone();
        n.deliver(NodeId(9), Message::Block(Box::new(b.clone())));
        n.pump(now);
        // Re-delivering the same orphan must not occupy a second slot.
        n.deliver(NodeId(9), Message::Block(Box::new(b)));
        n.pump(now);
    }
    assert_eq!(n.orphan_count(), MAX_ORPHAN_BLOCKS, "pool respects cap");
    // The oldest orphans (heights 2..) were evicted; the newest survive.
    let b1 = donor
        .chain
        .block(&donor.chain.hash_at_height(1).unwrap())
        .unwrap()
        .clone();
    n.deliver(NodeId(9), Message::Block(Box::new(b1)));
    n.pump(now);
    // Height 1 connected, but its child (height 2) was evicted, so the
    // surviving high orphans stay parked.
    assert_eq!(n.chain.height(), 1);
    assert_eq!(n.orphan_count(), MAX_ORPHAN_BLOCKS);
}

/// Builds two competing chains from genesis: `short` of 2 blocks and
/// `long` of 3 (distinct miner namespaces give distinct hashes).
fn two_forks(
    now: SimTime,
) -> (
    Vec<bitsync_protocol::block::Block>,
    Vec<bitsync_protocol::block::Block>,
) {
    let mut a = node(1, 54);
    let mut ma = Miner::new(7, 10);
    for _ in 0..2 {
        a.mine_and_relay(&mut ma, now);
    }
    let mut b = node(2, 55);
    let mut mb = Miner::new(8, 10);
    for _ in 0..3 {
        b.mine_and_relay(&mut mb, now);
    }
    let take = |n: &Node, upto: u64| -> Vec<_> {
        (1..=upto)
            .map(|h| {
                n.chain
                    .block(&n.chain.hash_at_height(h).unwrap())
                    .unwrap()
                    .clone()
            })
            .collect()
    };
    (take(&a, 2), take(&b, 3))
}

#[test]
fn longer_fork_reorgs_and_is_recorded() {
    let now = SimTime::from_secs(1);
    let (short, long) = two_forks(now);
    let mut n = node(0, 56);
    ready_inbound_peer(&mut n, 9, now);
    for b in &short {
        n.deliver(NodeId(9), Message::Block(Box::new(b.clone())));
        n.pump(now);
    }
    assert_eq!(n.chain.height(), 2);
    for b in &long {
        n.deliver(NodeId(9), Message::Block(Box::new(b.clone())));
        n.pump(now);
    }
    assert_eq!(n.chain.height(), 3, "longer fork won");
    assert_eq!(n.chain.tip_hash(), long[2].block_hash());
    let reorgs = n.take_reorgs();
    assert_eq!(reorgs.len(), 1, "one reorg recorded");
    assert_eq!(reorgs[0].depth(), 2);
    assert_eq!(reorgs[0].fork_height, 0);
    assert!(n.take_reorgs().is_empty(), "drain leaves nothing behind");
}

#[test]
fn ban_on_reorg_misconfiguration_bans_the_fork_announcer() {
    let now = SimTime::from_secs(1);
    let (short, long) = two_forks(now);
    let mut cfg = NodeConfig::bitcoin_core();
    cfg.resilience.ban_on_reorg = true;
    let mut n = Node::new(NodeId(0), addr(1), true, cfg, 57);
    ready_inbound_peer(&mut n, 9, now);
    for b in &short {
        n.deliver(NodeId(9), Message::Block(Box::new(b.clone())));
        n.pump(now);
    }
    let mut bans = 0;
    for b in &long {
        n.deliver(NodeId(9), Message::Block(Box::new(b.clone())));
        let (_, reqs, _) = n.pump(now);
        bans += reqs
            .iter()
            .filter(|r| **r == bitsync_node::NodeRequest::Ban(NodeId(9)))
            .count();
    }
    assert_eq!(bans, 1, "fork announcer must be discouraged, once");
    assert!(n.is_discouraged(&addr(10), now), "peer 9's address");
    assert_eq!(n.chain.height(), 2, "displacing block rejected");
    assert_eq!(n.chain.tip_hash(), short[1].block_hash());
    assert!(n.take_reorgs().is_empty(), "the broken policy never reorgs");
}

#[test]
fn addr_entries_land_in_addrman_with_peer_as_source() {
    let now = SimTime::from_secs(1);
    // The node, its peer (`addr(10)`) and the gossiped addresses sit in
    // three /16 groups, so the record's source group names the peer alone.
    let own = NetAddr::from_ipv4(Ipv4Addr::new(198, 51, 100, 1), 8333);
    let mut n = Node::new(NodeId(0), own, true, NodeConfig::bitcoin_core(), 11);
    ready_inbound_peer(&mut n, 9, now);
    let gossiped = |last| NetAddr::from_ipv4(Ipv4Addr::new(192, 0, 2, last), 8333);
    let gossip = vec![
        TimestampedAddr::new(unix_time(now) as u32, gossiped(100)),
        TimestampedAddr::new(unix_time(now) as u32, gossiped(101)),
    ];
    n.deliver(NodeId(9), Message::Addr(gossip));
    n.pump(now);
    let info = n.addrman.info(&gossiped(100)).unwrap();
    assert_eq!(info.source_group, addr(10).group()); // peer 9's address
    assert_ne!(info.source_group, own.group());
    assert_ne!(info.source_group, gossiped(100).group());
    assert!(
        n.addrman.info(&gossiped(101)).is_some(),
        "both entries land"
    );
}

#[test]
fn own_address_never_enters_own_addrman() {
    let now = SimTime::from_secs(1);
    let mut n = node(0, 12);
    let own = n.addr;
    ready_inbound_peer(&mut n, 9, now);
    n.deliver(
        NodeId(9),
        Message::Addr(vec![TimestampedAddr::new(unix_time(now) as u32, own)]),
    );
    n.pump(now);
    assert!(n.addrman.info(&own).is_none());
}

#[test]
fn an_ingested_addr_comes_back_as_one_receipt() {
    let now = SimTime::from_secs(1);
    let stamped = |a| TimestampedAddr::new(unix_time(now) as u32, a);
    let mut n = node(0, 14);
    ready_inbound_peer(&mut n, 9, now);
    let known = addr(50);
    n.addrman.add(known, addr(99), unix_time(now));
    let fresh = [addr(51), addr(52)];
    let list = vec![
        stamped(n.addr),
        stamped(known),
        stamped(fresh[0]),
        stamped(fresh[1]),
    ];
    n.deliver(NodeId(9), Message::Addr(list));
    let (_, reqs, receipts) = n.pump(now);
    assert!(reqs.is_empty(), "{reqs:?}");
    let receipt = AddrReceipt {
        from: NodeId(9),
        count: 4,
        accepted: 2,
    };
    assert_eq!(
        receipts,
        vec![receipt],
        "every entry counted, the fresh ones accepted"
    );
    assert!(fresh.iter().all(|a| n.addrman.info(a).is_some()));

    // A round that processes no ADDR returns none.
    n.deliver(NodeId(9), Message::Ping(1));
    let (_, _, receipts) = n.pump(now);
    assert!(receipts.is_empty(), "{receipts:?}");

    // An oversized ADDR that gets its sender banned is not ingested: the
    // round returns the ban and no receipt.
    let mut n = Node::new(NodeId(0), addr(1), true, NodeConfig::resilient(), 15);
    ready_inbound_peer(&mut n, 9, now);
    let flood = (0..1_400u32)
        .map(|i| {
            stamped(NetAddr::from_ipv4(
                Ipv4Addr::new(10, 0, (i >> 8) as u8, i as u8),
                8333,
            ))
        })
        .collect();
    n.deliver(NodeId(9), Message::Addr(flood));
    let (_, reqs, receipts) = n.pump(now);
    assert_eq!(reqs, vec![NodeRequest::Ban(NodeId(9))]);
    assert!(receipts.is_empty(), "{receipts:?}");
}

#[test]
fn disconnect_cleans_peer_state() {
    let now = SimTime::from_secs(1);
    let mut n = node(0, 13);
    ready_inbound_peer(&mut n, 9, now);
    assert_eq!(n.connection_count(), 1);
    n.on_disconnected(NodeId(9));
    assert_eq!(n.connection_count(), 0);
    assert!(
        !n.deliver(NodeId(9), Message::Ping(1)),
        "delivery to gone peer"
    );
}

#[test]
fn socket_writer_serializes_sends() {
    // Two peers each get a large block; the second transmission must start
    // after the first finishes (single upload budget).
    let now = SimTime::from_secs(1);
    let mut cfg = NodeConfig::bitcoin_core();
    cfg.upload_bandwidth = 100_000.0; // slow link
    cfg.compact_blocks = false;
    let mut n = Node::new(NodeId(0), addr(1), true, cfg, 14);
    ready_inbound_peer(&mut n, 8, now);
    ready_inbound_peer(&mut n, 9, now);
    // Build a chunky block.
    let mut rng = SimRng::seed_from(15);
    let mut gen = TxGenerator::new(3);
    for _ in 0..200 {
        n.mempool.insert(gen.next_tx(&mut rng));
    }
    let mut miner = Miner::new(4, 500);
    n.mine_and_relay(&mut miner, now);
    let (sent, _, _) = n.pump(now);
    let blocks: Vec<_> = sent
        .iter()
        .filter(|o| o.msg.is_block_bearing() || matches!(o.msg, Message::Block(_)))
        .collect();
    assert!(blocks.len() >= 2, "expected block sends to both peers");
    // Serialized: second send starts no earlier than the first ends.
    assert!(blocks[1].send_start >= blocks[0].send_end);
    assert!(
        blocks[0].send_end > blocks[0].send_start,
        "transmission takes time"
    );
}

#[test]
fn getaddr_is_answered_once_per_connection_from_one_sample() {
    let now = SimTime::from_secs(1);
    let mut n = node(0, 30);
    for i in 10..200u8 {
        n.addrman.add(addr(i), addr(99), unix_time(now));
    }
    let sample_len = n.addrman.len() * bitsync_addrman::GETADDR_MAX_PCT / 100;
    let addr_replies = |n: &mut Node| -> Vec<Vec<TimestampedAddr>> {
        drain_to(n, NodeId(9), now)
            .into_iter()
            .filter_map(|m| match m {
                Message::Addr(list) => Some(list),
                _ => None,
            })
            .collect()
    };
    ready_inbound_peer(&mut n, 9, now);
    n.deliver(NodeId(9), Message::GetAddr);
    let first = addr_replies(&mut n);
    assert_eq!(first.len(), 1);
    // One addrman sample, then the self-advertisement as the last entry.
    assert_eq!(first[0].len(), sample_len + 1);
    assert_eq!(first[0].last().unwrap().addr, n.addr);
    assert!(first[0][..sample_len].iter().all(|e| e.addr != n.addr));
    // A second GETADDR on the same connection is ignored ...
    n.deliver(NodeId(9), Message::GetAddr);
    assert!(addr_replies(&mut n).is_empty());
    // ... and a reconnect is a new connection, answered again.
    n.on_disconnected(NodeId(9));
    ready_inbound_peer(&mut n, 9, now);
    n.deliver(NodeId(9), Message::GetAddr);
    let again = addr_replies(&mut n);
    assert_eq!(again.len(), 1);
    assert_eq!(again[0].last().unwrap().addr, n.addr);
}

#[test]
fn uncached_getaddr_samples_differ_across_peers() {
    let now = SimTime::from_secs(1);
    let mut n = node(0, 31);
    for i in 10..250u8 {
        n.addrman.add(addr(i), addr(99), unix_time(now));
    }
    ready_inbound_peer(&mut n, 8, now);
    ready_inbound_peer(&mut n, 9, now);
    n.deliver(NodeId(8), Message::GetAddr);
    n.deliver(NodeId(9), Message::GetAddr);
    let mut replies: Vec<Vec<NetAddr>> = Vec::new();
    for _ in 0..20 {
        let (out, _, _) = n.pump(now);
        for o in out {
            if let Message::Addr(list) = o.msg {
                let mut addrs: Vec<NetAddr> = list
                    .iter()
                    .map(|e| e.addr)
                    .filter(|a| *a != n.addr)
                    .collect();
                addrs.sort();
                replies.push(addrs);
            }
        }
        if replies.len() == 2 {
            break;
        }
    }
    assert_eq!(replies.len(), 2);
    // Independent 23% samples of 240 entries virtually never coincide —
    // which is exactly what the paper's Algorithm 1 exploits.
    assert_ne!(replies[0], replies[1]);
}

#[test]
fn silent_peer_is_evicted_after_timeout() {
    use bitsync_sim::time::SimDuration;

    let start = SimTime::from_secs(1);
    let mut n = node(0, 32);
    ready_inbound_peer(&mut n, 9, start);
    n.peers.get_mut(&NodeId(9)).unwrap().last_recv = start;
    // Quiet for 21 minutes: past Core's 20-minute timeout.
    let later = start + SimDuration::from_mins(21);
    let (_, reqs, _) = n.pump(later);
    assert!(
        reqs.contains(&bitsync_node::NodeRequest::Disconnect(NodeId(9))),
        "silent peer not evicted: {reqs:?}"
    );
}

#[test]
fn keepalive_pings_quiet_peers() {
    use bitsync_sim::time::SimDuration;

    let start = SimTime::from_secs(1);
    let mut n = node(0, 33);
    ready_inbound_peer(&mut n, 9, start);
    n.peers.get_mut(&NodeId(9)).unwrap().last_recv = start;
    let later = start + SimDuration::from_mins(3);
    let mut pinged = false;
    for _ in 0..5 {
        let (out, _, _) = n.pump(later);
        if out.iter().any(|o| matches!(o.msg, Message::Ping(_))) {
            pinged = true;
            break;
        }
    }
    assert!(pinged, "no keepalive ping sent");
}

#[test]
fn missing_compact_transactions_round_trip_through_getblocktxn() {
    let now = SimTime::from_secs(1);
    let mut rng = SimRng::seed_from(70);
    let mut gen = TxGenerator::new(1);
    // a mines; b receives the compact announcement and relays on to c.
    let mut a = node(0, 70);
    let mut b = node(1, 71);
    ready_inbound_peer(&mut a, 1, now);
    ready_inbound_peer(&mut b, 0, now);
    ready_inbound_peer(&mut b, 2, now);
    a.deliver(
        NodeId(1),
        Message::SendCmpct(SendCmpct {
            announce: true,
            version: 1,
        }),
    );
    a.pump(now);
    drain_to(&mut a, NodeId(1), now);

    // a pools five transactions; b has seen only the second and fourth.
    let txs: Vec<Transaction> = (0..5).map(|_| gen.next_tx(&mut rng)).collect();
    for (i, tx) in txs.iter().enumerate() {
        a.mempool.insert(tx.clone());
        if i == 1 || i == 3 {
            b.mempool.insert(tx.clone());
        }
    }
    let mut miner = Miner::new(3, 10);
    let hash = a.mine_and_relay(&mut miner, now).expect("mined");
    let mined = a.chain.block(&hash).unwrap().clone();
    // Block positions (coinbase is 0) of what b lacks.
    let lacking: Vec<u32> = (1u32..)
        .zip(&mined.txs[1..])
        .filter(|(_, tx)| !b.mempool.contains(&tx.txid()))
        .map(|(i, _)| i)
        .collect();
    assert_eq!(lacking.len(), 3);

    for msg in drain_to(&mut a, NodeId(1), now) {
        assert!(matches!(msg, Message::CmpctBlock(_)), "{msg:?}");
        b.deliver(NodeId(0), msg);
    }
    let requests = drain_to(&mut b, NodeId(0), now);
    let [Message::GetBlockTxn(req)] = &requests[..] else {
        panic!("expected exactly one GETBLOCKTXN: {requests:?}");
    };
    assert_eq!(req.block_hash, hash);
    assert_eq!(req.indexes, lacking);
    assert!(!b.chain.has_body(&hash), "connected before BLOCKTXN");

    // A BLOCKTXN nobody asked for is ignored.
    b.deliver(
        NodeId(0),
        Message::BlockTxn(Box::new(bitsync_protocol::compact::BlockTxn {
            block_hash: Hash256::hash_of(b"unknown"),
            txs: vec![txs[0].clone()],
        })),
    );
    let (sent, reqs, _) = b.pump(now);
    assert!(sent.is_empty() && reqs.is_empty(), "{sent:?} {reqs:?}");
    assert!(!b.chain.has_body(&hash), "connected by a stray BLOCKTXN");

    // a answers with exactly the requested transactions; b connects the
    // block and relays it on.
    a.deliver(NodeId(1), requests[0].clone());
    let answers = drain_to(&mut a, NodeId(1), now);
    let [Message::BlockTxn(bt)] = &answers[..] else {
        panic!("expected exactly one BLOCKTXN: {answers:?}");
    };
    let answered: Vec<Hash256> = bt.txs.iter().map(Transaction::txid).collect();
    let wanted: Vec<Hash256> = lacking
        .iter()
        .map(|&i| mined.txs[i as usize].txid())
        .collect();
    assert_eq!(answered, wanted);
    b.deliver(NodeId(0), answers[0].clone());
    let (relayed, _, _) = b.pump(now);
    assert_eq!(b.chain.block(&hash), Some(&mined));
    assert_eq!(b.chain.tip_hash(), hash, "connected as the new tip");
    for tx in &txs {
        assert!(!b.mempool.contains(&tx.txid()), "confirmed tx still pooled");
    }
    // Relayed to c only: the announcer already knows the block.
    let [only] = &relayed[..] else {
        panic!("expected one relay: {relayed:?}");
    };
    assert_eq!(only.to, NodeId(2));
    assert!(matches!(&only.msg, Message::Block(blk) if blk.block_hash() == hash));
    assert!(!b.has_pending_work());
}

#[test]
fn a_feeler_marks_promotes_and_hangs_up_and_deferrals_are_reported_once() {
    use bitsync_addrman::Table;
    use bitsync_sim::time::SimDuration;

    // A feeler's life: pick, mark attempted, handshake, promote, hang up.
    let now = SimTime::from_secs(1);
    let target = addr(42);
    let mut n = node(0, 72);
    n.addrman.add(target, addr(99), unix_time(now));
    assert_eq!(
        n.begin_attempt(Direction::Feeler, now),
        Attempt::Dial(target)
    );
    let info = n.addrman.info(&target).unwrap();
    assert_eq!(
        (info.attempts, i64::from(info.last_try)),
        (1, unix_time(now))
    );
    assert_eq!(n.stats.attempts, 0, "a feeler is not an outbound attempt");
    // One dial at a time, whichever kind.
    assert_eq!(n.begin_attempt(Direction::Feeler, now), Attempt::Idle);
    assert_eq!(n.begin_attempt(Direction::Outbound, now), Attempt::Idle);
    assert_eq!(n.outgoing_count(), 1, "the in-flight feeler counts");

    let pid = NodeId(3);
    n.on_connected(pid, target, Direction::Feeler, now);
    n.deliver(
        pid,
        Message::Version(Box::new(bitsync_protocol::message::VersionMsg {
            version: bitsync_protocol::PROTOCOL_VERSION,
            services: 1,
            timestamp: unix_time(now),
            addr_recv: n.addr,
            addr_from: target,
            nonce: 3,
            user_agent: "/test/".into(),
            start_height: 0,
            relay: true,
        })),
    );
    n.deliver(pid, Message::Verack);
    let (sent, reqs, _) = n.pump(now);
    assert!(matches!(sent[..], [ref o] if matches!(o.msg, Message::Version(_))));
    assert!(reqs.is_empty());
    assert_eq!(n.addrman.info(&target).unwrap().table, Table::New);
    let (_, reqs, _) = n.pump(now);
    assert_eq!(reqs, vec![bitsync_node::NodeRequest::Disconnect(pid)]);
    assert_eq!(n.addrman.info(&target).unwrap().table, Table::Tried);
    assert_eq!(n.stats.successes, 0, "a feeler is not an outbound success");
    n.on_disconnected(pid);
    assert_eq!(n.outgoing_count(), 0);

    // A backed-off pick is deferred, once per pick, in both directions.
    let mut n = Node::new(NodeId(0), addr(1), true, NodeConfig::resilient(), 73);
    n.addrman.add(target, addr(99), unix_time(now));
    assert_eq!(
        n.begin_attempt(Direction::Outbound, now),
        Attempt::Dial(target)
    );
    n.on_attempt_failed(target, false, now);
    let soon = now + SimDuration::from_secs(1);
    let deferred = [Direction::Feeler, Direction::Outbound]
        .into_iter()
        .filter(|&dir| n.begin_attempt(dir, soon) == Attempt::Deferred(target))
        .count();
    assert_eq!(deferred, 2);
    assert_eq!(n.stats.attempts, 1, "a deferred pick is not an attempt");
    assert_eq!(n.addrman.info(&target).unwrap().attempts, 1);
    assert_eq!(n.outgoing_count(), 0, "a deferred pick is not in flight");

    // So is a discouraged one (here: banned for an oversized ADDR).
    let mut n = Node::new(NodeId(0), addr(1), true, NodeConfig::resilient(), 74);
    let banned = addr(10);
    n.addrman.add(banned, addr(99), unix_time(now));
    ready_inbound_peer(&mut n, 9, now);
    let flood = (0..1_400u32)
        .map(|i| {
            let ip = Ipv4Addr::new(10, 0, (i >> 8) as u8, i as u8);
            TimestampedAddr::new(unix_time(now) as u32, NetAddr::from_ipv4(ip, 8333))
        })
        .collect();
    n.deliver(NodeId(9), Message::Addr(flood));
    let (_, reqs, _) = n.pump(now);
    assert_eq!(reqs, vec![bitsync_node::NodeRequest::Ban(NodeId(9))]);
    n.on_disconnected(NodeId(9));
    let deferred = [Direction::Feeler, Direction::Outbound]
        .into_iter()
        .filter(|&dir| n.begin_attempt(dir, soon) == Attempt::Deferred(banned))
        .count();
    assert_eq!(deferred, 2);
    assert_eq!(n.addrman.info(&banned).unwrap().attempts, 0);
}

#[test]
fn proposal_relay_draws_compact_nonces_in_outbound_first_order() {
    use bitsync_node::Handshake;

    let now = SimTime::from_secs(1);
    let mut donor = node(9, 75);
    let mut miner = Miner::new(5, 10);
    let hash = donor.mine_and_relay(&mut miner, now).expect("mined");
    let block = donor.chain.block(&hash).unwrap().clone();

    let seed = 76;
    let mut cfg = NodeConfig::bitcoin_core();
    cfg.priority_relay = true;
    let mut n = Node::new(NodeId(0), addr(1), true, cfg, seed);
    let table = [
        (1, Direction::Inbound),
        (2, Direction::Outbound),
        (3, Direction::Feeler),
        (4, Direction::Inbound),
        (5, Direction::Outbound),
    ];
    for (id, dir) in table {
        n.on_connected(NodeId(id), addr(id as u8 + 1), dir, now);
        let p = n.peers.get_mut(&NodeId(id)).unwrap();
        p.handshake = Handshake::Ready;
        p.prefers_compact = true;
    }
    // The node's draws so far: the addrman key, then one VERSION nonce
    // per dialed connection (2, 3, 5).
    let mut twin = SimRng::seed_from(seed);
    for _ in 0..4 {
        twin.next_u64();
    }

    let mut reqs = Vec::new();
    assert!(n.accept_block(block, None, now, &mut reqs));
    assert!(reqs.is_empty());
    // One nonce per data-relaying peer, outbound first, each class in
    // connection order; the feeler is skipped without a draw.
    for id in [2, 5, 1, 4] {
        let nonce = twin.next_u64();
        let q = &n.peers[&NodeId(id)].send_q;
        let Some(Message::CmpctBlock(cb)) = q.front() else {
            panic!("peer {id}: block not at the front: {q:?}");
        };
        assert_eq!((cb.block_hash(), cb.nonce), (hash, nonce), "peer {id}");
        // Block priority put it ahead of a dialed peer's queued VERSION.
        let rest: Vec<&Message> = q.iter().skip(1).collect();
        if id == 2 || id == 5 {
            assert!(matches!(rest[..], [Message::Version(_)]), "{rest:?}");
        } else {
            assert!(rest.is_empty(), "{rest:?}");
        }
    }
    let feeler = &n.peers[&NodeId(3)].send_q;
    assert!(matches!(
        feeler.iter().collect::<Vec<_>>()[..],
        [Message::Version(_)]
    ));
    // The socket writer walks the same order.
    let (sent, _, _) = n.pump(now);
    let to: Vec<u32> = sent.iter().map(|o| o.to.0).collect();
    assert_eq!(to, [2, 5, 3, 1, 4]);
}
