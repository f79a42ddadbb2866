//! Integration tests for the world simulator: handshakes, block
//! propagation, connection dynamics, ADDR gossip, and churn.

use bitsync_net::churn::ChurnConfig;
use bitsync_node::config::{ResilienceConfig, STALE_TIP_TIMEOUT};
use bitsync_node::world::{World, WorldConfig};
use bitsync_node::{ChurnEvent, NodeId};
use bitsync_protocol::hash::Hash256;
use bitsync_sim::fault::FaultConfig;
use bitsync_sim::time::{SimDuration, SimTime};
use bitsync_sim::timeseries::Sampler;
use bitsync_sim::trace::{RelayPhase, Tracer};

fn base_cfg(seed: u64) -> WorldConfig {
    WorldConfig {
        seed,
        n_reachable: 20,
        n_unreachable_full: 4,
        n_phantoms: 100,
        seed_reachable: 12,
        seed_phantoms: 10,
        ..WorldConfig::default()
    }
}

#[test]
fn nodes_establish_outbound_connections() {
    let mut world = World::new(base_cfg(1));
    world.run_until(SimTime::from_secs(120));
    let mut total_outbound = 0;
    for id in world.online_ids() {
        let n = world.node(id).unwrap();
        total_outbound += n.outbound_count();
        assert!(n.outbound_count() <= 8);
    }
    // With 20 reachable nodes and modest phantom pollution, most slots
    // should fill within two minutes.
    assert!(total_outbound >= 24 * 4, "total outbound {total_outbound}");
}

#[test]
fn handshake_populates_tried_tables() {
    let mut world = World::new(base_cfg(2));
    world.run_until(SimTime::from_secs(300));
    let with_tried = world
        .online_ids()
        .iter()
        .filter(|id| world.node(**id).unwrap().addrman.tried_count() > 0)
        .count();
    assert!(with_tried >= 20, "nodes with tried entries: {with_tried}");
}

#[test]
fn mined_blocks_propagate_to_everyone() {
    let mut cfg = base_cfg(3);
    cfg.block_interval = Some(SimDuration::from_secs(120));
    let mut world = World::new(cfg);
    // Let connections form, then mine for a while.
    world.run_until(SimTime::from_secs(1800));
    assert!(world.best_height() >= 3, "height {}", world.best_height());
    // Every online node should be at the tip (no churn, ample time).
    let ids = world.online_ids();
    let synced = ids.iter().filter(|id| world.is_synchronized(**id)).count();
    let reachable_online = ids
        .iter()
        .filter(|id| world.meta[id.0 as usize].reachable)
        .count();
    assert!(
        synced >= reachable_online,
        "synced {synced} of {} reachable",
        reachable_online
    );
    assert!((world.sync_fraction() - 1.0).abs() < 1e-9);
}

#[test]
fn transactions_spread_through_mempools() {
    let mut cfg = base_cfg(4);
    cfg.tx_rate = 0.2;
    let mut world = World::new(cfg);
    world.run_until(SimTime::from_secs(600));
    let pools: Vec<usize> = world
        .online_ids()
        .iter()
        .map(|id| world.node(*id).unwrap().mempool.len())
        .collect();
    let max = *pools.iter().max().unwrap();
    let with_txs = pools.iter().filter(|&&p| p > 0).count();
    assert!(max > 10, "max mempool {max}");
    assert!(
        with_txs >= pools.len() * 3 / 4,
        "spread {with_txs}/{}",
        pools.len()
    );
}

#[test]
fn compact_blocks_reconstruct_with_tx_load() {
    let mut cfg = base_cfg(5);
    cfg.tx_rate = 0.5;
    cfg.block_interval = Some(SimDuration::from_secs(120));
    let mut world = World::new(cfg);
    world.run_until(SimTime::from_secs(1500));
    assert!(world.best_height() >= 4);
    // Blocks carry transactions and everyone still converges.
    let ids = world.online_ids();
    let heights: Vec<u64> = ids
        .iter()
        .map(|id| world.node(*id).unwrap().chain.height())
        .collect();
    let at_tip = heights
        .iter()
        .filter(|&&h| h == world.best_height())
        .count();
    assert!(at_tip >= ids.len() - 2, "at tip {at_tip}/{}", ids.len());
}

#[test]
fn unreachable_nodes_never_accept_inbound() {
    let mut world = World::new(base_cfg(6));
    world.run_until(SimTime::from_secs(300));
    for id in world.online_ids() {
        if !world.meta[id.0 as usize].reachable {
            assert_eq!(world.node(id).unwrap().inbound_count(), 0);
        }
    }
}

#[test]
fn addr_census_classifies_gossip() {
    let mut world = World::new(base_cfg(7));
    world.run_until(SimTime::from_secs(600));
    let total: u64 = world.addr_senders.values().map(|s| s.total).sum();
    let reachable: u64 = world.addr_senders.values().map(|s| s.reachable).sum();
    assert!(total > 100, "addr entries {total}");
    assert!(reachable > 0);
    assert!(reachable < total, "some gossip must be unreachable");
}

#[test]
fn malicious_senders_emit_zero_reachable_addrs() {
    let mut cfg = base_cfg(8);
    cfg.n_malicious = 3;
    let mut world = World::new(cfg);
    world.run_until(SimTime::from_secs(900));
    let mut flooders_seen = 0;
    for (id, stats) in &world.addr_senders {
        if world.meta[id.0 as usize].malicious && stats.total > 0 {
            flooders_seen += 1;
            assert_eq!(
                stats.reachable, 0,
                "flooder {id} leaked a reachable address"
            );
        }
    }
    assert!(flooders_seen >= 1, "no flooder produced ADDR traffic");
}

#[test]
fn churn_generates_departures_and_arrivals() {
    let mut cfg = base_cfg(9);
    // Aggressive churn so a short run sees events.
    cfg.churn = Some(ChurnConfig {
        mean_lifetime: SimDuration::from_hours(2),
        rejoin_probability: 0.3,
        mean_offline_gap: SimDuration::from_hours(1),
    });
    let mut world = World::new(cfg);
    world.run_until(SimTime::from_secs(12 * 3600));
    let departures = world
        .churn_events
        .iter()
        .filter(|(_, e)| matches!(e, ChurnEvent::Departed { .. }))
        .count();
    let arrivals = world
        .churn_events
        .iter()
        .filter(|(_, e)| matches!(e, ChurnEvent::Joined { .. }))
        .count();
    assert!(departures >= 5, "departures {departures}");
    assert!(arrivals >= 3, "arrivals {arrivals}");
    // Network did not collapse.
    assert!(world.online_ids().len() >= 10);
}

#[test]
fn relay_log_records_block_and_tx_delays() {
    let mut cfg = base_cfg(10);
    cfg.tx_rate = 0.3;
    cfg.block_interval = Some(SimDuration::from_secs(180));
    cfg.instrument = Some(0);
    let mut world = World::new(cfg);
    let sampler = Sampler::enabled(SimDuration::from_secs(600));
    world.attach_sampler(&sampler);
    world.run_until(SimTime::from_secs(1800));
    let delays = world.relay_delays();
    let blocks = delays.iter().filter(|(b, _)| *b).count();
    let txs = delays.iter().filter(|(b, _)| !*b).count();
    assert!(blocks > 0, "no block relays recorded");
    assert!(txs > 0, "no tx relays recorded");
    // Quantized delays are small but non-negative.
    for (_, d) in delays {
        assert!(d < 300, "implausible relay delay {d}s");
    }

    // The last tick is the run's end: its `mem_*` gauges are the world's
    // footprint now, and every owner holds something.
    let rows = sampler.take().unwrap().rows;
    let last = rows.last().expect("three ticks");
    assert_eq!(last.at, world.now());
    for (gauge, bytes) in world.footprint() {
        assert_eq!(last.value(gauge), Some(bytes as f64), "{gauge}");
        assert!(bytes > 0, "{gauge}");
    }
}

#[test]
fn deterministic_across_identical_seeds() {
    let run = |seed| {
        let mut cfg = base_cfg(seed);
        cfg.block_interval = Some(SimDuration::from_secs(120));
        cfg.tx_rate = 0.1;
        let mut world = World::new(cfg);
        world.run_until(SimTime::from_secs(900));
        (
            world.best_height(),
            world.events_processed(),
            world.sync_fraction(),
        )
    };
    assert_eq!(run(42), run(42));
    assert_ne!(run(42).1, run(43).1);
}

#[test]
fn connection_counts_respect_core_limits() {
    let mut world = World::new(base_cfg(11));
    world.run_until(SimTime::from_secs(600));
    for id in world.online_ids() {
        let n = world.node(id).unwrap();
        assert!(n.outbound_count() <= 8, "outbound {}", n.outbound_count());
        assert!(n.inbound_count() <= 117);
        // Feelers may momentarily push the total above outbound+inbound.
        assert!(n.connection_count() <= 8 + 117 + 2);
    }
}

#[test]
fn partition_severs_and_blocks_cross_traffic() {
    let mut cfg = base_cfg(12);
    cfg.block_interval = Some(SimDuration::from_secs(120));
    let mut world = World::new(cfg);
    world.run_until(SimTime::from_secs(600));

    // Hijack the ASes hosting roughly half the reachable nodes.
    let mut asns: Vec<u32> = world
        .online_ids()
        .iter()
        .filter(|id| world.meta[id.0 as usize].reachable)
        .map(|id| world.meta[id.0 as usize].asn)
        .collect();
    asns.sort_unstable();
    asns.dedup();
    let half: Vec<u32> = asns.iter().copied().take(asns.len() / 2).collect();
    world.apply_partition(half.clone());
    let isolated = world.isolated_count();
    assert!(isolated > 0, "partition isolated nobody");

    // No connection crosses the boundary after severing + some settling.
    world.run_until(SimTime::from_secs(660));
    for id in world.online_ids() {
        let my = world.meta[id.0 as usize].asn;
        let my_in = half.contains(&my);
        if let Some(node) = world.node(id) {
            for peer in node.peers.keys() {
                let peer_asn = world.meta[peer.0 as usize].asn;
                assert_eq!(
                    half.contains(&peer_asn),
                    my_in,
                    "cross-boundary connection survived: {id} ↔ {peer}"
                );
            }
        }
    }
    // Lifting restores normal operation.
    world.lift_partition();
    assert_eq!(world.isolated_count(), 0);
}

#[test]
fn depart_with_pump_in_flight_does_not_wedge_scheduling() {
    // Regression guard for the per-node scheduling flags: a departure can
    // race a Pump, ConnectTick or ResilienceTick already in the queue. The
    // handler must clear the flag BEFORE noticing the node is gone —
    // otherwise it stays latched and the node never pumps, dials or sweeps
    // again after a rejoin. This pins the asymmetry as correct-by-test.
    //
    // Inputs: (mining, resilience sweep, seconds offline). With the sweep
    // on and no blocks, the stale-tip detector fires exactly once per
    // boot, so a fresh node's `stale_rescues` reads whether its tick chain
    // is live; sweeping runs last past `STALE_TIP_TIMEOUT` on either side
    // of the rejoin. Ticks fire every 30 s from boot: a 10 s gap leaves the
    // old chain (and its flag) in place across the rejoin, a 45 s gap lets
    // it die on the empty slot so the reboot has to re-arm it.
    for (mining, resilience, offline_secs) in [
        (true, ResilienceConfig::off(), 30),
        (false, ResilienceConfig::bitcoin_core(), 10),
        (false, ResilienceConfig::bitcoin_core(), 45),
    ] {
        let label = format!("mining {mining}, offline {offline_secs} s");
        let mut cfg = base_cfg(14);
        cfg.block_interval = mining.then(|| SimDuration::from_secs(120));
        let sweeping = resilience.countermeasures;
        let (warmup, after) = if sweeping {
            let past_stale = STALE_TIP_TIMEOUT + SimDuration::from_mins(5);
            (past_stale, past_stale)
        } else {
            (SimDuration::from_secs(600), SimDuration::from_secs(300))
        };
        cfg.node_cfg.resilience = resilience;
        let mut world = World::new(cfg);
        world.run_for(warmup);
        let id = NodeId(0);
        assert!(world.node(id).unwrap().outbound_count() > 0, "{label}");
        if sweeping {
            assert_eq!(world.node(id).unwrap().stats.stale_rescues, 1, "{label}");
        }

        // Depart mid-activity (pumps and connect ticks are in flight), stay
        // down while the stale events fire on the empty slot.
        world.force_depart(id);
        world.run_for(SimDuration::from_secs(offline_secs));
        world.force_rejoin(id);
        world.run_for(after);

        // A wedged pump chain would leave the node unable to complete any
        // handshake (VERSION never flushes) or relay anything; a wedged
        // connect chain would leave it peerless.
        let n = world.node(id).unwrap();
        assert!(
            n.outbound_count() > 0,
            "{label}: no outbound connections after rejoin: scheduling wedged"
        );
        assert!(
            n.peers.values().any(|p| p.is_ready()),
            "{label}: no completed handshakes after rejoin: pump chain dead"
        );
        if sweeping {
            assert_eq!(
                n.stats.stale_rescues, 1,
                "{label}: resilience sweep dead after rejoin"
            );
        }
    }
}

#[test]
fn rejoining_node_restores_its_addrman() {
    let mut world = World::new(base_cfg(13));
    world.run_until(SimTime::from_secs(600));
    let id = NodeId(0);
    let before = world.node(id).unwrap().addrman.len();
    assert!(before > 0);
    world.force_depart(id);
    world.run_for(SimDuration::from_secs(60));
    world.force_rejoin(id);
    let after = world.node(id).unwrap().addrman.len();
    // peers.dat persisted: the table is back, not re-seeded from scratch.
    assert_eq!(after, before, "addrman not restored across restart");
}

/// Two reachable nodes that never learn of each other: whatever a node's
/// chain holds, it mined itself.
fn isolated_pair(seed: u64) -> WorldConfig {
    WorldConfig {
        seed,
        n_reachable: 2,
        n_unreachable_full: 0,
        n_phantoms: 0,
        seed_reachable: 0,
        seed_phantoms: 0,
        ..WorldConfig::default()
    }
}

#[test]
fn honest_mine_seeds_the_relay_log_but_a_chain_fault_producer_does_not() {
    // Characterizes an asymmetry the goldens depend on: a block the
    // instrumented node mines on the honest `Mine` path starts its relay
    // clock at creation, one it mints as a fault-plane solo miner does not
    // (its clock would start at first flush). Every `Mine` event here has
    // the honest producer extend the tip and the node left behind mint a
    // sibling, in that order.
    let mut cfg = isolated_pair(15);
    cfg.block_interval = Some(SimDuration::from_secs(60));
    cfg.instrument = Some(0);
    cfg.fault = FaultConfig {
        solo_miner_probability: 1.0,
        ..FaultConfig::off()
    };
    let mut world = World::new(cfg);
    let tracer = Tracer::enabled(1 << 12);
    world.attach_tracer(tracer.clone());
    world.run_until(SimTime::from_secs(1800));
    assert!(world.node(NodeId(0)).unwrap().peers.is_empty());

    let log = tracer.take().unwrap();
    let origins: Vec<_> = log
        .relay
        .iter()
        .filter(|e| e.phase == RelayPhase::Origin && e.is_block)
        .collect();
    let (mut honest_here, mut fault_here) = (0, 0);
    for pair in origins.chunks(2) {
        let [honest, fault] = pair else {
            panic!("a Mine event without its solo sibling: {pair:?}")
        };
        assert_eq!(honest.at, fault.at);
        assert_ne!(honest.to, fault.to);
        if honest.to == 0 {
            honest_here += 1;
            let rec = world.relay_log[&Hash256(honest.object)];
            assert_eq!(rec.received, honest.at);
        } else {
            fault_here += 1;
            assert!(!world.relay_log.contains_key(&Hash256(fault.object)));
        }
    }
    assert!(
        honest_here > 0 && fault_here > 0,
        "{honest_here}/{fault_here}"
    );
    assert_eq!(world.relay_log.len(), honest_here);
}

#[test]
fn sampler_counts_a_dial_ok_before_the_target_is_rechecked() {
    // Characterizes the order inside the dial-result handler: the
    // sampler's `dial_ok` / `dial_fail` split is the outcome decided when
    // the dial was resolved, counted before the handler notices that the
    // target went away during the handshake.
    let mut cfg = isolated_pair(16);
    cfg.seed_reachable = 2;
    let mut world = World::new(cfg);
    let tracer = Tracer::enabled(1 << 12);
    let sampler = Sampler::enabled(SimDuration::from_secs(60));
    world.attach_tracer(tracer.clone());
    world.attach_sampler(&sampler);

    // Step to the first resolved dial, then take its target offline while
    // the handshake is still in flight.
    let deadline = SimTime::from_secs(60);
    let (initiator, first_ok) = loop {
        assert_eq!(world.run_steps(1, deadline), 1, "nobody dialed");
        let dials = tracer.take().unwrap().dial;
        let ok = dials.iter().filter(|d| d.ok).count();
        let first = dials.iter().next().cloned();
        if let Some(dial) = first {
            assert!(dial.ok);
            break (NodeId(dial.initiator), ok);
        }
    };
    let target = NodeId(1 - initiator.0);
    world.force_depart(target);
    world.run_until(deadline);

    let rows = sampler.take().unwrap().rows;
    assert_eq!(rows[0].value("w_dial_ok"), Some(1.0));
    let n = world.node(initiator).unwrap();
    assert!(n.peers.is_empty(), "the dead target was connected anyway");
    assert_eq!(n.stats.successes, 0);
    let ok_dials = first_ok + tracer.take().unwrap().dial.iter().filter(|d| d.ok).count();
    assert_eq!(ok_dials, 1);
}
