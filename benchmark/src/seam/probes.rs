//! Layer probes: one public operation of one crate per probe, on inputs
//! shaped by the workload that was just run, so "ns per call" is the cost
//! that layer has *in that workload* (queue at its measured depth, blocks of
//! its transaction count, an addrman of its seeded size).
//!
//! A probe runs `n` calls and returns the host time of the probed calls
//! only; input preparation happens outside the timed region.

use bitsync_addrman::{AddrMan, AddrManConfig};
use bitsync_chain::{ChainState, Mempool, Miner, TxGenerator};
use bitsync_crypto::{sha256d, siphash24};
use bitsync_net::{LatencyConfig, LatencyModel};
use bitsync_node::node::{unix_time, Node};
use bitsync_node::world::metric;
use bitsync_node::{Direction, Handshake, NodeConfig, NodeId};
use bitsync_protocol::compact::{reconstruct, CompactBlock};
use bitsync_protocol::{Block, Message, NetAddr, MAGIC_MAINNET};
use bitsync_sim::event::{Backend, EventQueue};
use bitsync_sim::metrics::Recorder;
use bitsync_sim::time::{SimDuration, SimTime};
use bitsync_sim::timeseries::Sampler;
use bitsync_sim::trace::{RelayEvent, RelayPhase, Tracer, DEFAULT_TRACE_CAP};
use bitsync_sim::SimRng;
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

/// What the probes' inputs are shaped by.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Seed for every generated input.
    pub seed: u64,
    /// Pending timers to hold in the event-queue probes (the workload's
    /// measured `sim.queue_depth_hwm`).
    pub queue_depth: usize,
    /// Non-coinbase transactions per block (the workload's tx rate × block
    /// interval).
    pub block_txs: usize,
    /// Addresses the addrman probes start from (the workload's seeded
    /// addrman size).
    pub addrman_size: usize,
}

/// One layer probe.
pub struct Probe {
    /// The per-layer metric this probe reports.
    pub name: &'static str,
    /// Runs `n` calls; returns the host time spent inside them.
    pub run: Box<dyn FnMut(u64) -> Duration>,
    /// When set, one call processes this many bytes and the metric is a
    /// throughput in MiB/s instead of ns per call.
    pub bytes_per_call: Option<usize>,
    /// Queue operations (or similar sub-steps) per call, to report ns per
    /// operation; 1 for everything else.
    pub ops_per_call: u32,
}

fn probe(name: &'static str, run: impl FnMut(u64) -> Duration + 'static) -> Probe {
    Probe {
        name,
        run: Box::new(run),
        bytes_per_call: None,
        ops_per_call: 1,
    }
}

/// Times `n` calls of `f`, each on a fresh input made by `prep` outside the
/// timed region.
fn per_call<I>(n: u64, mut prep: impl FnMut() -> I, mut f: impl FnMut(I)) -> Duration {
    let inputs: Vec<I> = (0..n).map(|_| prep()).collect();
    let start = Instant::now();
    for input in inputs {
        f(input);
    }
    start.elapsed()
}

/// Splits `n` calls into chunks of at most `max`, each timed by `run` on
/// state it builds afresh, for probes whose calls change what they measure.
fn chunked(n: u64, max: u64, mut run: impl FnMut(u64) -> Duration) -> Duration {
    let mut spent = Duration::ZERO;
    let mut left = n;
    while left > 0 {
        let chunk = left.min(max);
        spent += run(chunk);
        left -= chunk;
    }
    spent
}

/// Times `n` calls of `f` back to back.
fn repeat(n: u64, mut f: impl FnMut()) -> Duration {
    let start = Instant::now();
    for _ in 0..n {
        f();
    }
    start.elapsed()
}

/// Probes `f` on each of `items` in rotation.
fn rotating<T: 'static>(
    name: &'static str,
    items: Vec<T>,
    mut f: impl FnMut(&T) + 'static,
) -> Probe {
    let mut i = 0;
    probe(name, move |n| {
        repeat(n, || {
            i = (i + 1) % items.len();
            f(black_box(&items[i]));
        })
    })
}

fn addr(i: u32) -> NetAddr {
    // Spread over /16 groups as gossip addresses are.
    NetAddr::from_ipv4(
        Ipv4Addr::from(0x0b00_0000 + i.wrapping_mul(2_654_435_761) % 0xe000_0000),
        8333,
    )
}

fn filled_addrman(shape: &Shape, rng: &mut SimRng) -> (AddrMan, Vec<NetAddr>) {
    let mut am = AddrMan::new(rng.next_u64(), AddrManConfig::bitcoin_core());
    let now = unix_time(SimTime::ZERO);
    let mut addrs = Vec::new();
    let mut i = 0u32;
    while am.len() < shape.addrman_size {
        let a = addr(rng.next_u64() as u32 ^ i);
        i += 1;
        if am.add(a, addr(i % 8), now) {
            addrs.push(a);
        }
    }
    (am, addrs)
}

fn filled_mempool(shape: &Shape, gen: &mut TxGenerator, rng: &mut SimRng) -> Mempool {
    let mut pool = Mempool::new(50_000);
    for _ in 0..shape.block_txs {
        pool.insert(gen.next_tx(rng));
    }
    pool
}

/// A block of the workload's transaction count on top of genesis, and the
/// mempool it was mined from.
fn workload_block(shape: &Shape) -> (Block, Mempool) {
    let mut rng = SimRng::seed_from(shape.seed ^ 0xb10c);
    let mut gen = TxGenerator::new(shape.seed ^ 0x7c5);
    let pool = filled_mempool(shape, &mut gen, &mut rng);
    let mut miner = Miner::new(shape.seed, 10_000);
    let block = miner.mine(ChainState::with_genesis().tip_hash(), 600, &pool, &mut rng);
    (block, pool)
}

/// A standalone node with the paper's 8 outbound + 17 inbound peers, all
/// past the handshake.
fn node_with_25_peers(seed: u64) -> Node {
    let mut node = Node::new(NodeId(0), addr(0), true, NodeConfig::bitcoin_core(), seed);
    for i in 1..=25u32 {
        let dir = if i <= 8 {
            Direction::Outbound
        } else {
            Direction::Inbound
        };
        node.on_connected(NodeId(i), addr(i), dir, SimTime::ZERO);
        let peer = node.peers.get_mut(&NodeId(i)).expect("just connected");
        peer.handshake = Handshake::Ready;
        peer.send_q.clear();
        peer.prefers_compact = true;
    }
    node
}

fn queue_churn(name: &'static str, backend: Backend, shape: &Shape) -> Probe {
    let mut rng = SimRng::seed_from(shape.seed ^ 0xe0);
    // Simulator delays: milliseconds to minutes ahead of now.
    let spread = SimDuration::from_mins(10).as_nanos();
    let floor = SimDuration::from_millis(1).as_nanos();
    let mut q: EventQueue<u64> = EventQueue::with_backend(backend);
    for i in 0..shape.queue_depth.max(1) as u64 {
        q.schedule(SimTime::from_nanos(floor + rng.below(spread)), i);
    }
    Probe {
        ops_per_call: 2,
        ..probe(name, move |n| {
            repeat(n, || {
                let (now, e) = q.pop().expect("queue never drains");
                q.schedule(now + SimDuration::from_nanos(floor + rng.below(spread)), e);
            })
        })
    }
}

fn relay_event(i: u64) -> RelayEvent {
    let mut object = [0u8; 32];
    object[..8].copy_from_slice(&i.to_le_bytes());
    RelayEvent {
        at: SimTime::from_nanos(i),
        phase: RelayPhase::Send,
        object,
        is_block: false,
        from: Some(0),
        to: (i % 25) as u32,
    }
}

/// The world's sampler row: a dozen gauges per tick.
const GAUGES: [(&str, f64); 12] = [
    ("sync_frac", 0.67),
    ("online", 150.0),
    ("outdeg_mean", 7.4),
    ("outdeg_min", 3.0),
    ("addr_new_unreach_frac", 0.8),
    ("addr_tried_unreach_frac", 0.1),
    ("height", 12.0),
    ("queue_depth", 2_600.0),
    ("events", 57_000.0),
    ("dial_ok", 14.0),
    ("dial_fail", 90.0),
    ("churn_depart", 7.0),
];

/// Every probe, in `PER_LAYER` order (minus `sim.event.est_share`, which the
/// harness derives).
pub fn all(shape: &Shape) -> Vec<Probe> {
    let shape = *shape;
    let seed = shape.seed;
    let mut probes = vec![
        queue_churn("sim.event.wheel_churn_ns", Backend::Wheel, &shape),
        queue_churn("sim.event.heap_churn_ns", Backend::Heap, &shape),
    ];

    let mut rng = SimRng::seed_from(seed ^ 1);
    probes.push(probe("sim.rng.next_u64_ns", move |n| {
        repeat(n, || {
            black_box(rng.next_u64());
        })
    }));

    let rec = Recorder::new();
    probes.push(probe("sim.metrics.inc_ns", move |n| {
        repeat(n, || rec.inc(black_box(metric::MESSAGES_DELIVERED), 1))
    }));
    let rec = Recorder::new();
    bitsync_node::world::register_world_histograms(&rec);
    let mut i = 0u64;
    probes.push(probe("sim.metrics.observe_ns", move |n| {
        repeat(n, || {
            i += 1;
            rec.observe(black_box(metric::RELAY_DELAY), (i % 17) as f64 * 0.25);
        })
    }));

    let tracer = Tracer::disabled();
    let mut i = 0u64;
    probes.push(probe("sim.trace.disabled_ns", move |n| {
        repeat(n, || {
            i += 1;
            // The call sites' shape: guard, then build and hand over.
            if black_box(&tracer).is_enabled() {
                tracer.relay(relay_event(i));
            }
        })
    }));
    let tracer = Tracer::enabled(DEFAULT_TRACE_CAP);
    let mut i = 0u64;
    probes.push(probe("sim.trace.relay_record_ns", move |n| {
        repeat(n, || {
            i += 1;
            if black_box(&tracer).is_enabled() {
                tracer.relay(relay_event(i));
            }
        })
    }));
    let mut tick = 0u64;
    probes.push(probe("sim.timeseries.record_ns", move |n| {
        // A fresh log per batch keeps the row vector from growing without
        // bound across batches.
        let sampler = Sampler::enabled(SimDuration::from_secs(600));
        repeat(n, || {
            tick += 600;
            sampler.record(SimTime::from_secs(tick), black_box(&GAUGES));
        })
    }));

    let buf: Vec<u8> = (0..64 * 1024)
        .map(|i| (i * 31 + seed as usize) as u8)
        .collect();
    probes.push(Probe {
        bytes_per_call: Some(buf.len()),
        ..probe("crypto.sha256.double_mib_per_s", move |n| {
            repeat(n, || {
                black_box(sha256d(black_box(&buf)));
            })
        })
    });
    let mut i = 0u64;
    probes.push(probe("crypto.siphash.ns", move |n| {
        repeat(n, || {
            i += 1;
            let mut txid = [0u8; 32];
            txid[..8].copy_from_slice(&i.to_le_bytes());
            black_box(siphash24(seed, !seed, black_box(&txid)));
        })
    }));

    // Protocol: generated transactions — 64 in rotation, so one odd-sized
    // draw does not set the number — and one workload-sized block.
    let mut rng = SimRng::seed_from(seed ^ 2);
    let mut gen = TxGenerator::new(seed ^ 2);
    let tx_msgs: Vec<Message> = (0..64)
        .map(|_| Message::Tx(gen.next_tx(&mut rng)))
        .collect();
    let framed: Vec<Vec<u8>> = tx_msgs
        .iter()
        .map(|m| m.encode_framed(MAGIC_MAINNET))
        .collect();
    let (block, pool) = workload_block(&shape);
    let (am, _) = filled_addrman(&shape, &mut rng);
    let addr_msg = Message::Addr(am.get_addr(&mut rng, unix_time(SimTime::ZERO)));

    probes.push(rotating("protocol.tx.txid_ns", tx_msgs.clone(), |m| {
        let Message::Tx(tx) = m else {
            unreachable!("built from transactions")
        };
        black_box(tx.txid());
    }));
    probes.push(rotating(
        "protocol.block.block_hash_ns",
        vec![block.clone()],
        |b: &Block| {
            black_box(b.block_hash());
        },
    ));
    probes.push(rotating(
        "protocol.message.wire_size_ns",
        tx_msgs.clone(),
        |m| {
            black_box(m.wire_size());
        },
    ));
    for (name, msgs) in [
        ("protocol.message.clone_tx_ns", tx_msgs.clone()),
        (
            "protocol.message.clone_block_ns",
            vec![Message::Block(Box::new(block.clone()))],
        ),
        ("protocol.message.clone_addr_ns", vec![addr_msg]),
    ] {
        probes.push(rotating(name, msgs, |m| {
            black_box(m.clone());
        }));
    }
    probes.push(rotating(
        "protocol.message.encode_framed_ns",
        tx_msgs.clone(),
        |m| {
            black_box(m.encode_framed(MAGIC_MAINNET));
        },
    ));
    probes.push(rotating(
        "protocol.message.decode_framed_ns",
        framed,
        |buf: &Vec<u8>| {
            black_box(Message::decode_framed(buf, MAGIC_MAINNET).expect("own encoding"));
        },
    ));
    let tx_size = tx_msgs.iter().map(Message::wire_size).sum::<usize>() / tx_msgs.len();

    let b = block.clone();
    let mut nonce = seed;
    probes.push(probe("protocol.compact.from_block_ns", move |n| {
        repeat(n, || {
            nonce += 1;
            black_box(CompactBlock::from_block(black_box(&b), nonce));
        })
    }));
    // As `Node` reconstructs: one short-id index over the mempool, then
    // O(1) lookups.
    let cb = CompactBlock::from_block(&block, seed);
    let p = pool.clone();
    probes.push(probe("protocol.compact.reconstruct_ns", move |n| {
        repeat(n, || {
            let index = p.short_id_index(&cb.keys());
            black_box(reconstruct(&cb, |sid| {
                index
                    .get(&sid.to_u64())
                    .and_then(|txid| p.get(txid))
                    .cloned()
            }));
        })
    }));

    let b = block.clone();
    probes.push(probe("chain.state.connect_block_ns", move |n| {
        per_call(n, ChainState::with_genesis, |mut chain| {
            black_box(chain.connect_block(&b).expect("block extends genesis"));
        })
    }));

    let mut rng = SimRng::seed_from(seed ^ 3);
    let mut gen = TxGenerator::new(seed ^ 3);
    probes.push(probe("chain.mempool.insert_ns", move |n| {
        // Inserts land in a pool that already holds a block's worth and
        // stays below its eviction bound.
        chunked(n, 10_000, |chunk| {
            let mut pool = filled_mempool(&shape, &mut gen, &mut rng);
            per_call(
                chunk,
                || gen.next_tx(&mut rng),
                |tx| {
                    black_box(pool.insert(tx));
                },
            )
        })
    }));
    let txids = block.txids();
    let p = pool.clone();
    probes.push(probe("chain.mempool.remove_confirmed_ns", move |n| {
        per_call(
            n,
            || p.clone(),
            |mut pool| {
                black_box(pool.remove_confirmed(&txids));
            },
        )
    }));
    let mut rng = SimRng::seed_from(seed ^ 4);
    let mut miner = Miner::new(seed ^ 4, 10_000);
    let p = pool.clone();
    let prev = ChainState::with_genesis().tip_hash();
    probes.push(probe("chain.miner.mine_ns", move |n| {
        repeat(n, || {
            black_box(miner.mine(prev, 600, &p, &mut rng));
        })
    }));
    let mut rng = SimRng::seed_from(seed ^ 5);
    let mut gen = TxGenerator::new(seed ^ 5);
    probes.push(probe("chain.miner.next_tx_ns", move |n| {
        repeat(n, || {
            black_box(gen.next_tx(&mut rng));
        })
    }));

    // Addrman: `add` and `good` change the table, so they run in chunks of
    // the seeded size, each on a freshly filled table.
    let now = unix_time(SimTime::ZERO);
    let mut rng = SimRng::seed_from(seed ^ 6);
    let mut fresh = 1u32 << 24;
    probes.push(probe("addrman.add_ns", move |n| {
        chunked(n, shape.addrman_size as u64, |chunk| {
            let (mut am, addrs) = filled_addrman(&shape, &mut rng);
            repeat(chunk, || {
                fresh += 1;
                black_box(am.add(addr(fresh), addrs[fresh as usize % addrs.len()], now));
            })
        })
    }));
    let mut rng = SimRng::seed_from(seed ^ 7);
    let table = am.clone();
    probes.push(probe("addrman.select_ns", move |n| {
        repeat(n, || {
            black_box(table.select(&mut rng, now));
        })
    }));
    let mut rng = SimRng::seed_from(seed ^ 8);
    probes.push(probe("addrman.good_ns", move |n| {
        chunked(n, shape.addrman_size as u64, |chunk| {
            let (mut am, addrs) = filled_addrman(&shape, &mut rng);
            let mut i = 0;
            repeat(chunk, || {
                am.good(&addrs[i], now);
                i += 1;
            })
        })
    }));
    let mut rng = SimRng::seed_from(seed ^ 9);
    let table = am;
    probes.push(probe("addrman.get_addr_ns", move |n| {
        repeat(n, || {
            black_box(table.get_addr(&mut rng, now));
        })
    }));

    let latency = LatencyModel::new(LatencyConfig::internet_2020(), seed);
    let mut rng = SimRng::seed_from(seed ^ 10);
    probes.push(probe("net.latency.message_delay_ns", move |n| {
        repeat(n, || {
            let from = 1 + rng.below(500) as u32;
            let to = 1 + rng.below(500) as u32;
            black_box(latency.message_delay(from, to, tx_size, &mut rng));
        })
    }));

    // Node: a hub with 25 ready peers. One pump round consumes one inbound
    // message per peer, so each round is fed one fresh transaction per peer.
    let mut rng = SimRng::seed_from(seed ^ 11);
    let mut gen = TxGenerator::new(seed ^ 11);
    probes.push(probe("node.node.pump_round_ns", move |n| {
        let mut node = node_with_25_peers(seed);
        let mut spent = Duration::ZERO;
        let mut now = SimTime::from_secs(1);
        for _ in 0..n {
            for peer in 1..=25u32 {
                node.deliver(NodeId(peer), Message::Tx(gen.next_tx(&mut rng)));
            }
            now += SimDuration::from_millis(10);
            let start = Instant::now();
            black_box(node.pump(now));
            spent += start.elapsed();
        }
        spent
    }));
    let mut rng = SimRng::seed_from(seed ^ 12);
    let mut gen = TxGenerator::new(seed ^ 12);
    probes.push(probe("node.node.accept_tx_ns", move |n| {
        // A fresh hub per 10 000 transactions bounds the send queues.
        chunked(n, 10_000, |chunk| {
            let mut node = node_with_25_peers(seed);
            per_call(
                chunk,
                || gen.next_tx(&mut rng),
                |tx| {
                    black_box(node.accept_tx(tx, SimTime::from_secs(1)));
                },
            )
        })
    }));
    let b = block;
    let p = pool;
    probes.push(probe("node.node.accept_block_ns", move |n| {
        per_call(
            n,
            || {
                let mut node = node_with_25_peers(seed);
                node.mempool = p.clone();
                (node, b.clone())
            },
            |(mut node, block)| {
                let mut requests = Vec::new();
                black_box(node.accept_block(block, None, SimTime::from_secs(600), &mut requests));
            },
        )
    }));

    probes
}
