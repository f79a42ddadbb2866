//! Node behaviour configuration: what can differ between two simulated
//! nodes. Bitcoin Core's fixed parameters are `pub const`s next to the
//! mechanism that reads them ([`crate::node`], [`crate::world`]); the two
//! read from more than one module live here.

use bitsync_addrman::AddrManConfig;
use bitsync_sim::time::SimDuration;

/// Maximum full outbound connections (Core's `MAX_OUTBOUND_FULL_RELAY_CONNECTIONS`: 8).
pub const MAX_OUTBOUND: usize = 8;

/// World-side sweep interval of the handshake-timeout / stale-tip checks
/// (stands in for Core's `CheckForStaleTipAndEvictPeers` scheduler tick).
pub const RESILIENCE_TICK_INTERVAL: SimDuration = SimDuration::from_secs(30);

/// A peer still mid-handshake this long after connecting is disconnected
/// (Core: 60 s; the 0.20 keepalive only covers completed handshakes).
pub const HANDSHAKE_TIMEOUT: SimDuration = SimDuration::from_secs(60);

/// With no tip advance for this long, a node opens one extra outbound
/// connection (Core: 30 min).
pub const STALE_TIP_TIMEOUT: SimDuration = SimDuration::from_mins(30);

/// How transactions are announced to peers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxAnnounce {
    /// Send the full `TX` immediately to every peer (the simulation
    /// default; see DESIGN.md §8 on this simplification).
    Flood,
    /// Bitcoin Core's Poisson "trickle": queue txids and flush them as
    /// `INV` batches at randomized per-peer intervals (outbound peers
    /// ~2 s, inbound ~5 s), letting peers fetch with `GETDATA`.
    Trickle,
}

/// Bitcoin Core's countermeasure layer — misbehavior discouragement,
/// per-address dial backoff, [`HANDSHAKE_TIMEOUT`] and [`STALE_TIP_TIMEOUT`]
/// — as one switch, plus the fuzzer's planted bug.
///
/// [`ResilienceConfig::off`] leaves existing worlds (and their golden
/// snapshots) untouched; the `resilience` and `forkstress` experiments
/// flip the switch via [`ResilienceConfig::bitcoin_core`].
#[derive(Clone, Debug)]
pub struct ResilienceConfig {
    /// Score protocol misbehavior (oversized/over-budget ADDR) and ban
    /// peers crossing [`crate::node::BAN_THRESHOLD`]; back failed dials off
    /// ([`backoff_delay`]); and run the per-node sweep every
    /// [`RESILIENCE_TICK_INTERVAL`] that disconnects peers stuck
    /// mid-handshake and grants one extra outbound slot on a stale tip.
    pub countermeasures: bool,
    /// Misconfiguration, never part of a sane preset: treat any peer that
    /// announces a competing fork (a block whose parent is off our active
    /// chain) as a hostile miner and discourage it outright. After a
    /// partition heals this bans exactly the peers serving the now-longer
    /// majority chain, so the minority side can never resync — the
    /// time-coin-style failure mode the `forkstress` fuzzer hunts for.
    pub ban_on_reorg: bool,
}

impl ResilienceConfig {
    /// Every countermeasure disabled.
    pub fn off() -> Self {
        ResilienceConfig {
            countermeasures: false,
            ban_on_reorg: false,
        }
    }

    /// Every countermeasure enabled at Bitcoin Core-shaped thresholds.
    pub fn bitcoin_core() -> Self {
        ResilienceConfig {
            countermeasures: true,
            ..Self::off()
        }
    }
}

/// Dial backoff base after a fast refusal (RST): the host is up, retry
/// soon. Core 0.20 keeps no per-address retry schedule — its nearest
/// mechanism is `CAddrInfo::GetChance` making an entry tried in the last
/// 10 minutes 100x less likely to be picked — so the three backoff values
/// are this countermeasure layer's own.
pub const BACKOFF_BASE_REFUSED: SimDuration = SimDuration::from_secs(10);

/// Dial backoff base after a blackholed timeout: the host looks dead,
/// retry much later (the minute `CAddrInfo::IsTerrible` leaves a
/// just-tried entry alone).
pub const BACKOFF_BASE_TIMEOUT: SimDuration = SimDuration::from_secs(60);

/// Dial backoff ceiling: reached after 10 refusals or 7 timeouts in a row.
pub const BACKOFF_CAP: SimDuration = SimDuration::from_hours(1);

/// The per-address dial backoff schedule: `base(kind) * 2^(failures-1)`,
/// clamped to [`BACKOFF_CAP`]. Monotone non-decreasing in `failures` (for
/// a fixed kind) and capped — both properties are pinned by tests.
pub fn backoff_delay(refused: bool, failures: u32) -> SimDuration {
    let base = if refused {
        BACKOFF_BASE_REFUSED
    } else {
        BACKOFF_BASE_TIMEOUT
    };
    let exp = failures.saturating_sub(1).min(20);
    base.saturating_mul(1u64 << exp).min(BACKOFF_CAP)
}

/// Full configuration of a simulated node.
#[derive(Clone, Debug)]
pub struct NodeConfig {
    /// Upload bandwidth, bytes/second — the shared socket-writer budget
    /// that makes round-robin relay serialize (§IV-C).
    pub upload_bandwidth: f64,
    /// Address manager policy knobs.
    pub addrman: AddrManConfig,
    /// The §V relay refinement: block-bearing messages go to the front of
    /// each peer's send queue instead of behind pending request responses,
    /// and the round-robin send loop serves outbound (always-reachable)
    /// connections before inbound ones.
    pub priority_relay: bool,
    /// Whether the node negotiates BIP 152 compact blocks.
    pub compact_blocks: bool,
    /// Transaction announcement mode.
    pub tx_announce: TxAnnounce,
    /// Countermeasure layer (misbehavior scoring, dial backoff,
    /// handshake/stale-tip timeouts).
    pub resilience: ResilienceConfig,
}

impl NodeConfig {
    /// Bitcoin Core 0.20 defaults.
    pub fn bitcoin_core() -> Self {
        NodeConfig {
            upload_bandwidth: 2_000_000.0,
            addrman: AddrManConfig::bitcoin_core(),
            priority_relay: false,
            compact_blocks: true,
            tx_announce: TxAnnounce::Flood,
            resilience: ResilienceConfig::off(),
        }
    }

    /// Core defaults with the full countermeasure layer switched on.
    pub fn resilient() -> Self {
        NodeConfig {
            resilience: ResilienceConfig::bitcoin_core(),
            ..Self::bitcoin_core()
        }
    }

    /// The paper's §V proposal: tried-only ADDR, 17-day horizon, and
    /// prioritized block relay.
    pub fn paper_proposal() -> Self {
        NodeConfig {
            addrman: AddrManConfig::paper_proposal(),
            priority_relay: true,
            ..Self::bitcoin_core()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{node, world};

    #[test]
    fn core_defaults() {
        assert_eq!(MAX_OUTBOUND, 8);
        assert_eq!(node::MAX_INBOUND, 117);
        assert_eq!(world::FEELER_INTERVAL, SimDuration::from_secs(120));
        assert_eq!(world::PUMP_INTERVAL, SimDuration::from_millis(100));
        assert_eq!(world::CONNECT_LOOP_INTERVAL, SimDuration::from_millis(500));
        assert_eq!(node::INV_INTERVAL_OUTBOUND, SimDuration::from_secs(2));
        assert_eq!(node::INV_INTERVAL_INBOUND, SimDuration::from_secs(5));
        assert_eq!(node::ADDR_RELAY_FANOUT, 2);
        assert_eq!(node::PING_INTERVAL, SimDuration::from_secs(120));
        assert_eq!(node::PEER_TIMEOUT, SimDuration::from_mins(20));
        assert_eq!(node::MEMPOOL_CAPACITY, 50_000);
        let c = NodeConfig::bitcoin_core();
        assert!(!c.priority_relay);
    }

    #[test]
    fn proposal_flips_relay_and_addrman() {
        let c = NodeConfig::paper_proposal();
        assert!(c.priority_relay);
        assert!(c.addrman.getaddr_from_tried_only);
        assert_eq!(c.addrman.horizon_days, 17);
    }

    #[test]
    fn resilience_defaults_off() {
        assert_eq!(node::BAN_THRESHOLD, 100);
        assert_eq!(node::DISCOURAGEMENT_WINDOW, SimDuration::from_hours(24));
        assert_eq!(node::OVERSIZE_ADDR_PENALTY, 100);
        assert_eq!(node::ADDR_ENTRY_BUDGET, 5_000);
        assert_eq!(node::ADDR_FLOOD_PENALTY, 25);
        assert_eq!(RESILIENCE_TICK_INTERVAL, SimDuration::from_secs(30));
        assert_eq!(HANDSHAKE_TIMEOUT, SimDuration::from_secs(60));
        assert_eq!(STALE_TIP_TIMEOUT, SimDuration::from_mins(30));
        assert_eq!(BACKOFF_BASE_REFUSED, SimDuration::from_secs(10));
        assert_eq!(BACKOFF_BASE_TIMEOUT, SimDuration::from_secs(60));
        assert_eq!(BACKOFF_CAP, SimDuration::from_hours(1));
        let c = NodeConfig::bitcoin_core();
        assert!(!c.resilience.countermeasures);
        assert!(!c.resilience.ban_on_reorg);
        let r = NodeConfig::resilient();
        assert!(r.resilience.countermeasures);
        assert!(!r.resilience.ban_on_reorg, "no sane preset bans on reorg");
    }

    #[test]
    fn backoff_schedule_shape() {
        assert_eq!(backoff_delay(true, 1), SimDuration::from_secs(10));
        assert_eq!(backoff_delay(true, 2), SimDuration::from_secs(20));
        assert_eq!(backoff_delay(false, 1), SimDuration::from_secs(60));
        assert_eq!(backoff_delay(false, 40), BACKOFF_CAP);
    }
}
