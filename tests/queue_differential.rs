//! Differential oracle for the event-queue backends: the hierarchical
//! timer wheel must be observationally identical to the legacy binary
//! heap — same pop order on raw timer streams, and the same relay delays
//! and metrics out of a whole world. Both comparisons pin their backends
//! explicitly ([`EventQueue::with_backend`], `WorldConfig::backend`).

use bitsync_core::experiments::relay::RelayConfig;
use bitsync_core::node::world::{World, WorldConfig};
use bitsync_core::node::NodeId;
use bitsync_sim::event::{Backend, EventQueue};
use bitsync_sim::rng::SimRng;
use bitsync_sim::time::{SimDuration, SimTime};

/// A mixed schedule/pop workload returning the observed pop sequence.
fn pop_sequence(backend: Backend, seed: u64) -> Vec<(u64, u64)> {
    let mut rng = SimRng::seed_from(seed);
    let mut q: EventQueue<u64> = EventQueue::with_backend(backend);
    let mut out = Vec::new();
    let horizon = SimDuration::from_mins(30).as_nanos();
    for i in 0..20_000u64 {
        // Schedule relative to the advancing clock (popping moves `now`
        // forward); masking the low bits makes duplicate timestamps
        // frequent so FIFO tie-breaking is exercised.
        let t = q.now() + SimDuration::from_nanos(rng.below(horizon) & !0x3ff);
        q.schedule(t, i);
        if rng.chance(0.45) {
            if let Some((at, e)) = q.pop() {
                out.push((at.as_nanos(), e));
            }
        }
    }
    while let Some((at, e)) = q.pop() {
        out.push((at.as_nanos(), e));
    }
    out
}

/// The `relay` experiment's world at quick scale — the forced 8-out/17-in
/// star around an instrumented hub — on `backend`: the hub's relay delays
/// (sorted: the log is an unordered map) and every metric the world
/// recorded.
fn relay_star(backend: Backend) -> (Vec<(bool, u64)>, String) {
    let cfg = RelayConfig::quick(2021);
    let mut node_cfg = cfg.node_cfg.clone();
    node_cfg.upload_bandwidth = cfg.upload_bandwidth;
    let mut world = World::new(WorldConfig {
        seed: cfg.seed,
        node_cfg,
        n_reachable: 1 + cfg.n_outbound + cfg.n_inbound,
        n_unreachable_full: 0,
        n_phantoms: 0,
        seed_reachable: 0,
        seed_phantoms: 0,
        block_interval: Some(cfg.block_interval),
        tx_rate: cfg.tx_rate,
        compact_fraction: cfg.compact_fraction,
        instrument: Some(0),
        backend: Some(backend),
        ..WorldConfig::default()
    });
    let hub = NodeId(0);
    for i in 0..cfg.n_outbound {
        world.force_connect(hub, NodeId(1 + i as u32));
    }
    for i in 0..cfg.n_inbound {
        world.force_connect(NodeId(1 + (cfg.n_outbound + i) as u32), hub);
    }
    world.run_until(SimTime::ZERO + cfg.duration);
    let mut delays = world.relay_delays();
    delays.sort_unstable();
    (delays, world.metrics.to_json().to_string_pretty())
}

/// Raw queues: identical pop order, including (time, seq) tie-breaks.
#[test]
fn wheel_and_heap_pop_orders_are_identical() {
    for seed in [3, 17, 2021] {
        let wheel = pop_sequence(Backend::Wheel, seed);
        let heap = pop_sequence(Backend::Heap, seed);
        assert_eq!(wheel.len(), heap.len(), "seed {seed}: dropped events");
        for (i, (w, h)) in wheel.iter().zip(&heap).enumerate() {
            assert_eq!(w, h, "seed {seed}: pop {i} diverged");
        }
    }
}

/// A whole world: the event-loop-heavy relay star must log the same relay
/// delays and record byte-identical metrics whichever backend drives it.
#[test]
fn wheel_and_heap_experiment_json_is_identical() {
    let (wheel_delays, wheel_metrics) = relay_star(Backend::Wheel);
    let (heap_delays, heap_metrics) = relay_star(Backend::Heap);
    assert!(!wheel_delays.is_empty(), "the hub relayed nothing");
    assert_eq!(wheel_delays, heap_delays, "relay delays diverged");
    assert_eq!(wheel_metrics, heap_metrics, "metrics diverged");
}
