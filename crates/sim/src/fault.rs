//! Composable, deterministically-seeded fault plane.
//!
//! The paper's root causes are all *failure modes*: most outgoing dials
//! fail, malicious peers flood only-unreachable ADDR payloads, and a
//! visible slice of the reachable population churns out every day. This
//! module turns those stressors into an explicit, configurable layer that
//! a simulation can switch on per run:
//!
//! - per-link message **drop** and **extra delay** probabilities
//!   ([`FaultConfig`]); a delay lets later sends overtake the message, so
//!   the reorder preset is a short, frequent delay;
//! - **peer stall** (a node accepts connections but never processes
//!   anything — its victims' handshakes wedge);
//! - **ADDR-flood amplification** for malicious peers (bigger pools,
//!   protocol-violating oversized replies);
//! - **connection flaps** (random established links are severed on an
//!   exponential clock);
//! - **partition flap schedules** (a fraction of the AS topology is
//!   periodically cut off and healed, [`PartitionFlapConfig`]);
//! - **chain-layer faults**: competing miners minting sibling blocks at
//!   the best height, and stale-tip solo producers extending private
//!   side chains — both fork the block tree and force reorgs downstream.
//!
//! The plane draws all of its randomness from its own [`SimRng`] stream,
//! seeded independently of the world it perturbs (the host XORs a salt
//! into the world seed). A world with the plane disabled therefore takes
//! the exact same random draws as one built before this module existed —
//! golden snapshots stay byte-identical — while a world with the plane
//! enabled is still fully deterministic and thread-count invariant.
//!
//! [`Fault`] is the harness-facing vocabulary: one named variant per
//! injectable fault, with a stable JSON code and a CLI spelling, used by
//! the scenario fuzzer (`repro fuzz --fault <name>`). Each is one table
//! row: a name, a code, the [`FaultConfig`] it runs under
//! ([`Fault::plane_config`]) and whether it plants a bug. The planted
//! bugs — [`Fault::DuplicateDeliveries`], [`Fault::TimeWarpDeliveries`]
//! and [`Fault::BanReorgPeers`] — deliberately violate the checker's
//! conservation / monotonicity / convergence invariants; the rest are
//! benign presets and must pass the full invariant battery.

use crate::rng::SimRng;
use crate::time::SimDuration;

/// Salt XORed into the world seed to derive the fault plane's independent
/// random stream. Spells `faultpln` in ASCII.
pub const FAULT_SEED_SALT: u64 = 0x6661_756c_7470_6c6e;

/// Periodic partition schedule: every `period`, cut a random `fraction`
/// of the AS topology off for `duration`, then heal.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PartitionFlapConfig {
    /// Interval between consecutive cuts (measured start to start).
    pub period: SimDuration,
    /// How long each cut lasts; must be shorter than `period`.
    pub duration: SimDuration,
    /// Fraction of distinct ASes hijacked per cut, in `0..=1`.
    pub fraction: f64,
}

/// Tunable fault intensities; `FaultConfig::off()` (the default) disables
/// every channel and adds zero cost and zero random draws to a run.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultConfig {
    /// Probability that a delivered message is silently dropped.
    pub drop_probability: f64,
    /// Probability that a delivered message takes extra in-flight delay.
    pub extra_delay_probability: f64,
    /// Upper bound of the uniform extra delay.
    pub extra_delay_max: SimDuration,
    /// Fraction of reachable nodes spawned stalled: they accept TCP
    /// connections but never process messages, wedging their peers'
    /// handshakes forever.
    pub stall_fraction: f64,
    /// Multiplier on malicious nodes' ADDR pool size *and* per-reply batch
    /// size. Above 1.0 the per-reply batch exceeds the 1000-entry protocol
    /// cap, which misbehavior scoring (when enabled) punishes.
    pub addr_flood_factor: f64,
    /// Mean interval between random connection flaps (an established link
    /// is picked and severed), or `None` to disable.
    pub connection_flap_interval: Option<SimDuration>,
    /// Periodic AS-level partition schedule, or `None` to disable.
    pub partition_flap: Option<PartitionFlapConfig>,
    /// Probability, per block-production event, that a second eligible
    /// producer mines a competing sibling block at the same height.
    pub competing_miner_probability: f64,
    /// Probability, per block-production event, that a stale-tip node
    /// (below the best height) extends its own private side chain by one
    /// block instead of catching up.
    pub solo_miner_probability: f64,
}

impl FaultConfig {
    /// Every channel disabled.
    pub const fn off() -> FaultConfig {
        FaultConfig {
            drop_probability: 0.0,
            extra_delay_probability: 0.0,
            extra_delay_max: SimDuration::ZERO,
            stall_fraction: 0.0,
            addr_flood_factor: 1.0,
            connection_flap_interval: None,
            partition_flap: None,
            competing_miner_probability: 0.0,
            solo_miner_probability: 0.0,
        }
    }

    /// True when any channel is enabled.
    pub fn is_active(&self) -> bool {
        self.drop_probability > 0.0
            || self.extra_delay_probability > 0.0
            || self.stall_fraction > 0.0
            || self.addr_flood_factor > 1.0
            || self.connection_flap_interval.is_some()
            || self.partition_flap.is_some()
            || self.competing_miner_probability > 0.0
            || self.solo_miner_probability > 0.0
    }

    /// Scales every channel linearly by `intensity` (0 = off, 1 = `self`).
    /// Probabilities and fractions multiply; the flood factor interpolates
    /// from 1; flap intervals stretch (a half-intensity flap is half as
    /// frequent); the partition schedule keeps its period but cuts a
    /// scaled fraction.
    pub fn scaled(&self, intensity: f64) -> FaultConfig {
        let intensity = intensity.clamp(0.0, 1.0);
        if intensity == 0.0 {
            return FaultConfig::off();
        }
        FaultConfig {
            drop_probability: self.drop_probability * intensity,
            extra_delay_probability: self.extra_delay_probability * intensity,
            extra_delay_max: self.extra_delay_max,
            stall_fraction: self.stall_fraction * intensity,
            addr_flood_factor: 1.0 + (self.addr_flood_factor - 1.0) * intensity,
            connection_flap_interval: self
                .connection_flap_interval
                .map(|d| SimDuration::from_secs_f64(d.as_secs_f64() / intensity)),
            partition_flap: self.partition_flap.map(|pf| PartitionFlapConfig {
                fraction: pf.fraction * intensity,
                ..pf
            }),
            competing_miner_probability: self.competing_miner_probability * intensity,
            solo_miner_probability: self.solo_miner_probability * intensity,
        }
    }
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig::off()
    }
}

/// What the fault plane decided to do with one in-flight message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkAction {
    /// Deliver normally.
    Deliver,
    /// Silently drop; the message never arrives.
    Drop,
    /// Deliver with this much extra in-flight delay.
    Delay(SimDuration),
}

/// The live fault plane: a [`FaultConfig`] plus its own random stream.
///
/// Hosts call [`FaultPlane::link_action`] once per candidate delivery (in
/// deterministic event order) and [`FaultPlane::rng`] for scheduling flap
/// events; neither touches the world's own random streams.
#[derive(Clone, Debug)]
pub struct FaultPlane {
    /// Active intensities.
    pub cfg: FaultConfig,
    rng: SimRng,
}

impl FaultPlane {
    /// Builds a plane from its config and the *world* seed; the salt is
    /// applied here so hosts cannot accidentally share a stream with the
    /// world.
    pub fn new(cfg: FaultConfig, world_seed: u64) -> FaultPlane {
        let mut root = SimRng::seed_from(world_seed ^ FAULT_SEED_SALT);
        let rng = root.fork("fault-plane");
        FaultPlane { cfg, rng }
    }

    /// Decides the fate of one candidate delivery. Only enabled channels
    /// consume random draws, so e.g. a drop-only config draws exactly one
    /// uniform per message.
    pub fn link_action(&mut self) -> LinkAction {
        if self.cfg.drop_probability > 0.0 && self.rng.chance(self.cfg.drop_probability) {
            return LinkAction::Drop;
        }
        if self.cfg.extra_delay_probability > 0.0
            && self.rng.chance(self.cfg.extra_delay_probability)
        {
            let extra = self
                .rng
                .range_f64(0.0, self.cfg.extra_delay_max.as_secs_f64().max(0.0));
            return LinkAction::Delay(SimDuration::from_secs_f64(extra));
        }
        LinkAction::Deliver
    }

    /// The plane's own random stream, for host-side fault scheduling
    /// (flap intervals, victim picks).
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }
}

/// One named injectable fault, the vocabulary shared by the fuzz harness
/// (`repro fuzz --fault <name>`) and scenario JSON (stable numeric codes).
/// The plane presets and the ban-reorg-peers misconfiguration reach a
/// world through its config; only the two dispatch-rewiring bugs are armed
/// afterwards, with `World::inject_fault`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Bug injection: relayable deliveries are dispatched twice, so
    /// per-object deliveries exceed sends. Caught by the conservation
    /// invariant (`deliveries_le_sends`).
    DuplicateDeliveries,
    /// Bug injection: relayable deliveries are handled with a timestamp
    /// skewed one second into the past. Caught by the monotonicity
    /// invariant (`time_monotone`).
    TimeWarpDeliveries,
    /// Benign plane preset: drop a fifth of all messages.
    DropMessages,
    /// Benign plane preset: a third of messages take up to 10 s extra.
    DelayMessages,
    /// Benign plane preset: half of all messages take up to 2 s extra,
    /// letting later sends overtake them.
    ReorderMessages,
    /// Benign plane preset: 30% of reachable nodes spawn stalled.
    StallPeers,
    /// Benign plane preset: malicious ADDR floods amplified 4x (oversized
    /// 4000-entry replies).
    AddrFlood,
    /// Benign plane preset: an established link flaps every ~30 s.
    ConnectionFlaps,
    /// Benign plane preset: 40% of ASes are cut off for 30 s out of every
    /// 120 s.
    PartitionFlaps,
    /// Benign chain-layer preset: on half of all block productions a
    /// second eligible producer mines a competing sibling at the same
    /// height, forking the tip.
    CompetingMiners,
    /// Benign chain-layer preset: on half of all block productions a
    /// stale-tip node extends its own private side chain by one block
    /// instead of catching up.
    SoloMiners,
    /// Benign chain-layer preset: a reorg storm — half the AS topology is
    /// cut off for 60 s out of every 180 s while stranded nodes keep
    /// mining their own branch, so every heal forces reorgs.
    ReorgStorms,
    /// Bug injection: nodes discourage-ban any peer whose blocks or
    /// headers would reorg their active chain (the time-coin post-mortem
    /// bug), run under a reorg-storm plane. Minority-side nodes ban the
    /// peers serving the majority chain and never resync; caught by the
    /// post-fault convergence invariant (`chain_converged`).
    BanReorgPeers,
}

// The plane presets of [`Fault::TABLE`].
const OFF: FaultConfig = FaultConfig::off();
const DROP: FaultConfig = FaultConfig {
    drop_probability: 0.2,
    ..OFF
};
const DELAY: FaultConfig = FaultConfig {
    extra_delay_probability: 0.3,
    extra_delay_max: SimDuration::from_secs(10),
    ..OFF
};
const REORDER: FaultConfig = FaultConfig {
    extra_delay_probability: 0.5,
    extra_delay_max: SimDuration::from_secs(2),
    ..OFF
};
const STALL: FaultConfig = FaultConfig {
    stall_fraction: 0.3,
    ..OFF
};
const ADDR_FLOOD: FaultConfig = FaultConfig {
    addr_flood_factor: 4.0,
    ..OFF
};
const CONNECTION_FLAPS: FaultConfig = FaultConfig {
    connection_flap_interval: Some(SimDuration::from_secs(30)),
    ..OFF
};
const PARTITION_FLAPS: FaultConfig = FaultConfig {
    partition_flap: Some(PartitionFlapConfig {
        period: SimDuration::from_secs(120),
        duration: SimDuration::from_secs(30),
        fraction: 0.4,
    }),
    ..OFF
};
const COMPETING_MINERS: FaultConfig = FaultConfig {
    competing_miner_probability: 0.5,
    ..OFF
};
const SOLO_MINERS: FaultConfig = FaultConfig {
    solo_miner_probability: 0.5,
    ..OFF
};
/// Periodic partitions with both sides mining.
const REORG_STORM: FaultConfig = FaultConfig {
    partition_flap: Some(PartitionFlapConfig {
        period: SimDuration::from_secs(180),
        duration: SimDuration::from_secs(60),
        fraction: 0.5,
    }),
    competing_miner_probability: 0.25,
    solo_miner_probability: 0.5,
    ..OFF
};

/// A variant with its CLI spelling, its stable numeric code, the plane it
/// runs under (off for the two dispatch bugs; the reorg storm for
/// `ban-reorg-peers`, which needs forks to misfire on) and whether it
/// plants a bug the checker must catch.
type FaultRow = (Fault, &'static str, u64, FaultConfig, bool);

impl Fault {
    /// Every variant, in code order. Codes are an on-disk format (fuzz
    /// repro files): append, never renumber.
    #[rustfmt::skip]
    const TABLE: [FaultRow; 13] = [
        (Fault::DuplicateDeliveries, "duplicate-deliveries", 1, OFF, true),
        (Fault::TimeWarpDeliveries, "time-warp-deliveries", 2, OFF, true),
        (Fault::DropMessages, "drop-messages", 3, DROP, false),
        (Fault::DelayMessages, "delay-messages", 4, DELAY, false),
        (Fault::ReorderMessages, "reorder-messages", 5, REORDER, false),
        (Fault::StallPeers, "stall-peers", 6, STALL, false),
        (Fault::AddrFlood, "addr-flood", 7, ADDR_FLOOD, false),
        (Fault::ConnectionFlaps, "connection-flaps", 8, CONNECTION_FLAPS, false),
        (Fault::PartitionFlaps, "partition-flaps", 9, PARTITION_FLAPS, false),
        (Fault::CompetingMiners, "competing-miners", 10, COMPETING_MINERS, false),
        (Fault::SoloMiners, "solo-miners", 11, SOLO_MINERS, false),
        (Fault::ReorgStorms, "reorg-storms", 12, REORG_STORM, false),
        (Fault::BanReorgPeers, "ban-reorg-peers", 13, REORG_STORM, true),
    ];

    /// Every variant, in code order.
    pub const ALL: [Fault; 13] = {
        let mut all = [Fault::DuplicateDeliveries; 13];
        let mut i = 0;
        while i < all.len() {
            all[i] = Fault::TABLE[i].0;
            i += 1;
        }
        all
    };

    fn row(self) -> &'static FaultRow {
        let row = Fault::TABLE.iter().find(|row| row.0 == self);
        row.expect("every variant has a table row")
    }

    /// CLI spelling, also used in failure reports.
    pub fn name(self) -> &'static str {
        self.row().1
    }

    /// Inverse of [`Fault::name`].
    pub fn parse(name: &str) -> Option<Fault> {
        let row = Fault::TABLE.iter().find(|row| row.1 == name);
        row.map(|row| row.0)
    }

    /// Stable numeric code used in scenario JSON.
    pub fn code(self) -> u64 {
        self.row().2
    }

    /// Inverse of [`Fault::code`].
    pub fn from_code(code: u64) -> Option<Fault> {
        let row = Fault::TABLE.iter().find(|row| row.2 == code);
        row.map(|row| row.0)
    }

    /// True for the bug injections that must trip the invariant checker;
    /// false for the benign plane presets that must pass the full battery.
    pub fn violates_invariants(self) -> bool {
        self.row().4
    }

    /// The [`FaultConfig`] the fault runs under: a benign variant's canned
    /// preset, the reorg storm for [`Fault::BanReorgPeers`], and
    /// [`FaultConfig::off`] for the two dispatch bugs (they rewire dispatch
    /// instead of the link layer).
    pub fn plane_config(self) -> FaultConfig {
        self.row().3.clone()
    }
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_and_names_round_trip() {
        for f in Fault::ALL {
            assert_eq!(Fault::parse(f.name()), Some(f), "{f}");
            assert_eq!(Fault::from_code(f.code()), Some(f), "{f}");
        }
        assert_eq!(Fault::parse("no-such-fault"), None);
        assert_eq!(Fault::from_code(0), None);
        assert_eq!(Fault::from_code(99), None);
    }

    #[test]
    fn codes_are_unique() {
        let mut codes: Vec<u64> = Fault::ALL.iter().map(|f| f.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), Fault::ALL.len());
    }

    /// Names are the CLI vocabulary and codes are written into fuzz repro
    /// files, so both are pinned literally: a renumbering or respelling
    /// that still round-trips must fail here.
    #[test]
    fn names_and_codes_are_pinned() {
        let pinned = [
            ("duplicate-deliveries", 1),
            ("time-warp-deliveries", 2),
            ("drop-messages", 3),
            ("delay-messages", 4),
            ("reorder-messages", 5),
            ("stall-peers", 6),
            ("addr-flood", 7),
            ("connection-flaps", 8),
            ("partition-flaps", 9),
            ("competing-miners", 10),
            ("solo-miners", 11),
            ("reorg-storms", 12),
            ("ban-reorg-peers", 13),
        ];
        let actual = Fault::ALL.map(|f| (f.name(), f.code()));
        assert_eq!(actual, pinned);
        assert_eq!(Fault::from_code(13), Some(Fault::BanReorgPeers));
        assert_eq!(Fault::parse("drop-messages"), Some(Fault::DropMessages));
    }

    /// Only the two dispatch bugs run without a plane; `ban-reorg-peers`
    /// is the one bug that borrows a preset (the storm it misfires on).
    #[test]
    fn bug_variants_have_no_plane_preset_and_vice_versa() {
        use Fault::*;
        for f in Fault::ALL {
            let dispatch_bug = matches!(f, DuplicateDeliveries | TimeWarpDeliveries);
            assert_eq!(f.plane_config().is_active(), !dispatch_bug, "{f}");
            assert_eq!(
                f.violates_invariants(),
                dispatch_bug || f == BanReorgPeers,
                "{f}"
            );
        }
        assert_eq!(BanReorgPeers.plane_config(), ReorgStorms.plane_config());
    }

    #[test]
    fn off_config_is_inactive_and_default() {
        assert!(!FaultConfig::off().is_active());
        assert_eq!(FaultConfig::default(), FaultConfig::off());
    }

    #[test]
    fn scaling_to_zero_disables_and_full_is_identity() {
        for f in Fault::ALL {
            let cfg = f.plane_config();
            if !cfg.is_active() {
                continue;
            }
            assert!(!cfg.scaled(0.0).is_active(), "{f}");
            assert_eq!(cfg.scaled(1.0), cfg, "{f}");
            assert!(cfg.scaled(0.5).is_active(), "{f}");
        }
    }

    #[test]
    fn plane_is_deterministic_per_seed() {
        let cfg = Fault::DropMessages.plane_config();
        let mut a = FaultPlane::new(cfg.clone(), 7);
        let mut b = FaultPlane::new(cfg.clone(), 7);
        let mut c = FaultPlane::new(cfg, 8);
        let seq_a: Vec<LinkAction> = (0..256).map(|_| a.link_action()).collect();
        let seq_b: Vec<LinkAction> = (0..256).map(|_| b.link_action()).collect();
        let seq_c: Vec<LinkAction> = (0..256).map(|_| c.link_action()).collect();
        assert_eq!(seq_a, seq_b);
        assert_ne!(seq_a, seq_c);
        let drops = seq_a.iter().filter(|l| **l == LinkAction::Drop).count();
        assert!(drops > 20, "~20% of 256 should drop, got {drops}");
    }

    #[test]
    fn link_action_respects_channel_bounds() {
        let cfg = FaultConfig {
            extra_delay_probability: 1.0,
            extra_delay_max: SimDuration::from_secs(10),
            ..FaultConfig::off()
        };
        let mut plane = FaultPlane::new(cfg, 42);
        for _ in 0..128 {
            match plane.link_action() {
                LinkAction::Delay(d) => assert!(d <= SimDuration::from_secs(10)),
                other => panic!("expected delay, got {other:?}"),
            }
        }
    }
}
