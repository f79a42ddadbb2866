//! Property tests for the address-manager invariants the paper's
//! addressing-protocol analysis leans on (§IV-B): bounded table sizes,
//! single-slot occupancy, horizon-respecting eviction, and capped
//! `GETADDR` sampling.
//!
//! Structural consistency is delegated to [`AddrMan::check_invariants`],
//! which cross-checks the slab, endpoint index, bucket tables, and member
//! lists against each other; the tests here drive it through adversarial
//! operation sequences and add the behavioural properties on top.

use bitsync_addrman::{AddrMan, AddrManConfig, Table};
use bitsync_protocol::addr::NetAddr;
use bitsync_sim::rng::SimRng;
use proptest::prelude::*;
use std::collections::HashSet;
use std::net::Ipv4Addr;

const NOW: i64 = 1_600_000_000;
const SECS_PER_DAY: i64 = 86_400;

fn addr_of(v: u32) -> NetAddr {
    let o = v.to_be_bytes();
    NetAddr::from_ipv4(Ipv4Addr::new(10 | (o[0] & 0x7f), o[1], o[2], o[3]), 8333)
}

fn source() -> NetAddr {
    addr_of(0xffff_0001)
}

/// Spreads `i` across the first three octets so the /16 groups — and with
/// them Core's `new`-bucket choices — are diverse. A single group and
/// source would faithfully confine everything to a handful of buckets.
fn spread_addr(i: u32) -> NetAddr {
    NetAddr::from_ipv4(
        Ipv4Addr::new(((i >> 16) + 1) as u8, (i >> 8) as u8, i as u8, 7),
        8333,
    )
}

/// A source address whose group also varies, so bucket choices cover the
/// whole table rather than the ≤64 buckets one source group can reach.
fn source_of(i: u32) -> NetAddr {
    NetAddr::from_ipv4(
        Ipv4Addr::new(200, (i % 251) as u8, (i / 251) as u8, 1),
        8333,
    )
}

/// Heavy deterministic fill at Bitcoin Core scale: the `new` table caps at
/// 1024×64 entries and `tried` at 256×64, no matter how many distinct
/// addresses are offered or promoted.
#[test]
fn slot_bounds_hold_under_heavy_fill() {
    let cfg = AddrManConfig::bitcoin_core();
    let t = cfg.tables();
    let new_cap = t.new_buckets * t.bucket_size;
    let tried_cap = t.tried_buckets * t.bucket_size;
    assert_eq!((new_cap, tried_cap), (1024 * 64, 256 * 64));

    let mut am = AddrMan::new(0xFEED, cfg);
    for i in 0..90_000u32 {
        am.add(spread_addr(i), source_of(i), NOW);
    }
    assert!(am.new_count() <= new_cap, "new {}", am.new_count());
    // Collisions drop newcomers, so the table is well below nominal
    // capacity — but the fill must still be substantial.
    assert!(am.new_count() > new_cap / 4, "new {}", am.new_count());

    for i in 0..40_000u32 {
        let a = spread_addr(i);
        am.good(&a, NOW);
    }
    assert!(am.tried_count() <= tried_cap, "tried {}", am.tried_count());
    assert!(
        am.tried_count() > tried_cap / 4,
        "tried {}",
        am.tried_count()
    );
    am.check_invariants();
}

/// Eviction honours the horizon: an address with a fresh advertised
/// timestamp (0 < time ≤ now, within `horizon_days`) and no failed
/// attempts is never terrible, so `evict_terrible` never removes it.
#[test]
fn eviction_spares_fresh_addresses() {
    let cfg = AddrManConfig::bitcoin_core();
    let horizon = cfg.horizon_days;
    let mut am = AddrMan::new(0xBEEF, cfg);
    // Mix of ages either side of the horizon, added oldest-first so the
    // add() clock is monotone (a fresh record inspected at an older clock
    // would read as "from the future" and be evictable).
    let mut entries: Vec<(u32, i64)> = (0..2_000u32)
        .map(|i| (i, i as i64 % (2 * horizon)))
        .collect();
    entries.sort_by_key(|&(_, age)| std::cmp::Reverse(age));
    let mut accepted_fresh = Vec::new();
    for &(i, age_days) in &entries {
        // A colliding newcomer may be dropped in favour of a non-terrible
        // incumbent; only accepted addresses are owed survival.
        if am.add(spread_addr(i), source_of(i), NOW - age_days * SECS_PER_DAY) && age_days < horizon
        {
            accepted_fresh.push((i, age_days));
        }
    }
    am.evict_terrible(NOW);
    am.check_invariants();
    for info in am.iter() {
        assert!(
            NOW - i64::from(info.time) <= horizon * SECS_PER_DAY,
            "survivor older than horizon: {:?}",
            info.addr()
        );
    }
    assert!(
        accepted_fresh.len() > 500,
        "fill too sparse to be meaningful"
    );
    for (i, age_days) in accepted_fresh {
        assert!(
            am.info(&spread_addr(i)).is_some(),
            "fresh address evicted ({age_days} days old)"
        );
    }
}

proptest! {
    /// Arbitrary add/attempt/good/evict interleavings keep every internal
    /// structure consistent (single tried slot per address included — see
    /// [`AddrMan::check_invariants`]), on Core's tables and on the small ones.
    /// The record slab is the model of the endpoint index: after every
    /// operation each of the 1024 addresses in play is found exactly when
    /// a live record holds it, so a false hit or a false miss fails.
    #[test]
    fn operations_preserve_invariants(
        ops in proptest::collection::vec((0u8..4, any::<u16>()), 1..200),
        key in any::<u64>(),
        core in any::<bool>(),
    ) {
        let cfg = if core {
            AddrManConfig::bitcoin_core()
        } else {
            AddrManConfig::small()
        };
        let mut am = AddrMan::new(key, cfg);
        for (i, (op, v)) in ops.into_iter().enumerate() {
            let a = addr_of(v as u32 & 0x3ff);
            let t = NOW + i as i64 * 3600;
            match op {
                0 => { am.add(a, source(), t); }
                1 => am.attempt(&a, t),
                2 => am.good(&a, t),
                _ => { am.evict_terrible(t); }
            }
            am.check_invariants();
            let held: HashSet<NetAddr> = am.iter().map(|r| r.addr()).collect();
            for a in (0..0x400).map(addr_of) {
                prop_assert_eq!(am.info(&a).is_some(), held.contains(&a), "{:?}", a);
            }
        }
    }

    /// A fresh, never-failed address is not terrible under any config, so
    /// no eviction pass can reclaim it before the horizon passes.
    #[test]
    fn fresh_addresses_are_never_terrible(
        age_secs in 0u32..(30 * SECS_PER_DAY as u32),
        v in any::<u32>(),
        core in any::<bool>(),
    ) {
        let age_secs = i64::from(age_secs);
        let cfg = if core {
            AddrManConfig::bitcoin_core()
        } else {
            AddrManConfig::paper_proposal()
        };
        // Fold the drawn age into this config's horizon window.
        let age_secs = age_secs % (cfg.horizon_days * SECS_PER_DAY);
        let mut am = AddrMan::new(1, cfg);
        let a = addr_of(v);
        am.add(a, source(), NOW - age_secs);
        am.check_invariants();
        let info = am.info(&a).expect("added");
        prop_assert_eq!(info.attempts, 0);
        prop_assert!(
            !info.is_terrible(NOW, &cfg),
            "fresh address ({age_secs}s old) is terrible"
        );
        am.evict_terrible(NOW);
        am.check_invariants();
        prop_assert!(am.info(&a).is_some(), "fresh address evicted");
    }

    /// `GETADDR` responses never exceed the 1000-address cap or the 23%
    /// sampling bound, and only ever contain known, non-terrible entries —
    /// for both the Core config and the §V tried-only refinement.
    #[test]
    fn getaddr_never_exceeds_cap(
        n in 0u32..3000,
        promote_every in 1u32..20,
        seed in any::<u64>(),
        tried_only in any::<bool>(),
    ) {
        let cfg = if tried_only {
            AddrManConfig::paper_proposal()
        } else {
            AddrManConfig::bitcoin_core()
        };
        let mut am = AddrMan::new(seed ^ 0xA5, cfg);
        for i in 0..n {
            let a = addr_of(i);
            am.add(a, source(), NOW);
            am.check_invariants();
            if i % promote_every == 0 {
                am.good(&a, NOW);
                am.check_invariants();
            }
        }
        let mut rng = SimRng::seed_from(seed);
        let resp = am.get_addr(&mut rng, NOW);
        prop_assert!(resp.len() <= bitsync_addrman::GETADDR_MAX);
        let eligible = if cfg.getaddr_from_tried_only {
            am.tried_count()
        } else {
            am.len()
        };
        prop_assert!(
            resp.len() <= eligible * bitsync_addrman::GETADDR_MAX_PCT / 100,
            "{} of {eligible} returned",
            resp.len()
        );
        for e in &resp {
            let info = am.info(&e.addr).expect("unknown address in response");
            if cfg.getaddr_from_tried_only {
                prop_assert_eq!(info.table, Table::Tried);
            }
        }
    }
}
