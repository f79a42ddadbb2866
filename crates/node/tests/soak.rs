//! A sixty-sim-day world under churn, an active fault plane, connection
//! lifetimes and the invariant checker. The checker must stay silent, and
//! [`World::footprint`], sampled once a sim-day, must show every owner
//! that is meant to be bounded staying bounded. Chains grow by design, so
//! memory is judged owner by owner rather than as one total.

use bitsync_addrman::AddrManConfig;
use bitsync_net::churn::ChurnConfig;
use bitsync_node::config::NodeConfig;
use bitsync_node::node::MEMPOOL_CAPACITY;
use bitsync_node::world::{World, WorldConfig};
use bitsync_protocol::hash::{table_bytes, Hash256};
use bitsync_protocol::tx::Transaction;
use bitsync_sim::check::Checker;
use bitsync_sim::fault::FaultConfig;
use bitsync_sim::time::{SimDuration, SimTime};

const DAYS: u64 = 60;

/// The bytes one node's mempool can hold: [`MEMPOOL_CAPACITY`] entries,
/// with room for the txid table and the eviction order to have doubled
/// past it.
fn mempool_bound() -> usize {
    let slots = 2 * MEMPOOL_CAPACITY;
    table_bytes(slots, size_of::<(Hash256, Transaction)>()) + slots * size_of::<Hash256>()
}

/// What `owner` holds in one [`World::footprint`].
fn held(footprint: &[(&str, usize); 7], owner: &str) -> usize {
    let row = footprint.iter().find(|(name, _)| *name == owner);
    row.expect("a footprint owner").1
}

/// The median of one owner's daily samples over `days`.
fn median(days: &[[(&str, usize); 7]], owner: &str) -> usize {
    let mut bytes: Vec<usize> = days.iter().map(|day| held(day, owner)).collect();
    bytes.sort_unstable();
    bytes[bytes.len() / 2]
}

#[test]
#[ignore = "sixty sim-days under the checker take minutes in release; run with --ignored (CI slow-tests)"]
fn sixty_days_of_churn_and_faults_keep_the_checker_silent_and_the_owners_bounded() {
    let mut world = World::new(WorldConfig {
        seed: 60,
        // The checker re-derives every address book after each event, so
        // the world is small and the books use the small tables.
        node_cfg: NodeConfig {
            addrman: AddrManConfig::small(),
            ..NodeConfig::bitcoin_core()
        },
        n_reachable: 8,
        n_unreachable_full: 2,
        n_phantoms: 12,
        seed_reachable: 6,
        seed_phantoms: 4,
        churn: Some(ChurnConfig::paper_2020()),
        block_interval: Some(SimDuration::from_secs(600)),
        tx_rate: 0.005,
        connection_mean_lifetime: Some(SimDuration::from_hours(6)),
        fault: FaultConfig {
            drop_probability: 0.02,
            extra_delay_probability: 0.1,
            extra_delay_max: SimDuration::from_secs(5),
            connection_flap_interval: Some(SimDuration::from_mins(30)),
            competing_miner_probability: 0.1,
            ..FaultConfig::off()
        },
        ..WorldConfig::default()
    });
    world.checker = Checker::enabled();

    let mut days = Vec::new();
    for day in 1..=DAYS {
        world.run_until(SimTime::ZERO + SimDuration::from_days(day));
        let footprint = world.footprint();
        let online = world.online_ids().len();
        let mempools = held(&footprint, "mem_mempools");
        assert!(
            mempools <= online * mempool_bound(),
            "day {day}: {online} mempools hold {mempools} B"
        );
        days.push(footprint);
    }

    assert!(world.checker.checks() > 0, "the checker never ran");
    assert!(
        world.checker.ok(),
        "{} violations, first {:?}",
        world.checker.violation_count(),
        world.checker.violations().first()
    );
    // A peer record lives as long as its connection, its known-inventory
    // bits as long as the record, and a node's inventory-id table holds
    // only what its connected peers know, so none grows with the horizon.
    // Growth in proportion to time would triple the median day from the
    // first month to the second; flat owners stay well under double. (A
    // day's sample can catch a syncing peer's backlog, hence medians.)
    let (first, last) = days.split_at(days.len() / 2);
    for owner in ["mem_peers", "mem_known_invs"] {
        let (before, after) = (median(first, owner), median(last, owner));
        assert!(
            after <= 2 * before,
            "{owner}: median {before} B over days 1-30, {after} B over days 31-60"
        );
    }
}
