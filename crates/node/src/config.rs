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

/// The §V relay refinement: how a node orders its outgoing messages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RelayPolicy {
    /// Put block-bearing messages at the front of each peer's send queue
    /// instead of behind pending request responses.
    pub prioritize_blocks: bool,
    /// Serve outbound (always-reachable) connections before inbound ones in
    /// the round-robin send loop.
    pub outbound_first: bool,
}

impl RelayPolicy {
    /// Bitcoin Core 0.20: strict FIFO per peer, connection order as-is.
    pub fn bitcoin_core() -> Self {
        RelayPolicy {
            prioritize_blocks: false,
            outbound_first: false,
        }
    }

    /// The paper's §V proposal.
    pub fn paper_proposal() -> Self {
        RelayPolicy {
            prioritize_blocks: true,
            outbound_first: true,
        }
    }
}

/// Bitcoin Core's countermeasure layer: misbehavior discouragement,
/// per-address dial backoff, handshake timeouts, and stale-tip recovery.
///
/// Everything defaults to [`ResilienceConfig::off`] so existing worlds
/// (and their golden snapshots) are untouched; the `resilience`
/// experiment flips the switches via [`ResilienceConfig::bitcoin_core`].
#[derive(Clone, Debug)]
pub struct ResilienceConfig {
    /// Score protocol misbehavior (oversized/over-budget ADDR) and ban
    /// peers crossing [`crate::node::BAN_THRESHOLD`].
    pub misbehavior: bool,
    /// Apply exponential per-address backoff ([`backoff_delay`]) to
    /// failed dials.
    pub dial_backoff: bool,
    /// Disconnect peers stuck mid-handshake for this long (Core: 60 s),
    /// or `None` to let them wedge the slot (the 0.20 keepalive only
    /// covers completed handshakes).
    pub handshake_timeout: Option<SimDuration>,
    /// With no tip advance for this long, open one extra outbound
    /// connection (Core: 30 min), or `None` to disable.
    pub stale_tip_timeout: Option<SimDuration>,
    /// Misconfiguration, never part of a sane preset: treat any peer that
    /// announces a competing fork (a block whose parent is off our active
    /// chain) as a hostile miner and discourage it outright. After a
    /// partition heals this bans exactly the peers serving the now-longer
    /// majority chain, so the minority side can never resync — the
    /// time-coin-style failure mode the `forkstress` fuzzer hunts for.
    pub ban_on_reorg: bool,
}

impl ResilienceConfig {
    /// Every countermeasure disabled (the default).
    pub fn off() -> Self {
        ResilienceConfig {
            misbehavior: false,
            dial_backoff: false,
            handshake_timeout: None,
            stale_tip_timeout: None,
            ban_on_reorg: false,
        }
    }

    /// Every countermeasure enabled at Bitcoin Core-shaped thresholds.
    pub fn bitcoin_core() -> Self {
        ResilienceConfig {
            misbehavior: true,
            dial_backoff: true,
            handshake_timeout: Some(SimDuration::from_secs(60)),
            stale_tip_timeout: Some(SimDuration::from_mins(30)),
            ..Self::off()
        }
    }

    /// True when the world must run the periodic per-node resilience
    /// sweep (handshake timeouts, stale-tip detection).
    pub fn needs_tick(&self) -> bool {
        self.handshake_timeout.is_some() || self.stale_tip_timeout.is_some()
    }
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self::off()
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
    /// Send-queue ordering policy.
    pub relay: RelayPolicy,
    /// Whether the node negotiates BIP 152 compact blocks.
    pub compact_blocks: bool,
    /// Transaction announcement mode.
    pub tx_announce: TxAnnounce,
    /// Countermeasure layer (misbehavior scoring, dial backoff,
    /// handshake/stale-tip timeouts). Off by default.
    pub resilience: ResilienceConfig,
}

impl NodeConfig {
    /// Bitcoin Core 0.20 defaults.
    pub fn bitcoin_core() -> Self {
        NodeConfig {
            upload_bandwidth: 2_000_000.0,
            addrman: AddrManConfig::bitcoin_core(),
            relay: RelayPolicy::bitcoin_core(),
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
            relay: RelayPolicy::paper_proposal(),
            ..Self::bitcoin_core()
        }
    }
}

impl Default for NodeConfig {
    fn default() -> Self {
        Self::bitcoin_core()
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
        assert!(!c.relay.prioritize_blocks);
        assert!(!c.relay.outbound_first);
    }

    #[test]
    fn proposal_flips_relay_and_addrman() {
        let c = NodeConfig::paper_proposal();
        assert!(c.relay.prioritize_blocks);
        assert!(c.relay.outbound_first);
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
        assert_eq!(BACKOFF_BASE_REFUSED, SimDuration::from_secs(10));
        assert_eq!(BACKOFF_BASE_TIMEOUT, SimDuration::from_secs(60));
        assert_eq!(BACKOFF_CAP, SimDuration::from_hours(1));
        let c = NodeConfig::bitcoin_core();
        assert!(!c.resilience.misbehavior);
        assert!(!c.resilience.dial_backoff);
        assert!(!c.resilience.needs_tick());
        assert!(!c.resilience.ban_on_reorg);
        let r = NodeConfig::resilient();
        assert!(r.resilience.misbehavior);
        assert!(r.resilience.dial_backoff);
        assert!(!r.resilience.ban_on_reorg, "no sane preset bans on reorg");
        assert!(r.resilience.needs_tick());
        assert_eq!(
            r.resilience.handshake_timeout,
            Some(SimDuration::from_secs(60))
        );
    }

    #[test]
    fn backoff_schedule_shape() {
        assert_eq!(backoff_delay(true, 1), SimDuration::from_secs(10));
        assert_eq!(backoff_delay(true, 2), SimDuration::from_secs(20));
        assert_eq!(backoff_delay(false, 1), SimDuration::from_secs(60));
        assert_eq!(backoff_delay(false, 40), BACKOFF_CAP);
    }
}
