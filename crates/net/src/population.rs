//! Ground-truth node classes.
//!
//! The paper's census (§IV-A): ~10K reachable nodes online at a time (28,781
//! unique over 60 days), 694,696 unique unreachable addresses of which
//! 163,496 (23.5%) are *responsive* (drop inbound connections by answering a
//! VER probe with FIN). The populations themselves are generated where they
//! are used — the census network in `bitsync-crawler`, the node world in
//! `bitsync-node` — and share this vocabulary and [`fresh_addr`].

use bitsync_protocol::addr::{NetAddr, DEFAULT_PORT};
use bitsync_protocol::hash::IdSet;
use bitsync_sim::rng::SimRng;
use std::net::Ipv4Addr;

/// Ground-truth classification of a node (what the crawler tries to infer).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NodeClass {
    /// Accepts inbound connections (up to 117) and makes 8 outbound.
    Reachable,
    /// Behind NAT/firewall but running Bitcoin: refuses inbound connections
    /// with a FIN, so a VER probe gets a response.
    UnreachableResponsive,
    /// Unreachable and silent: inbound packets are dropped (strict firewall
    /// or the address is stale/fabricated).
    UnreachableSilent,
}

/// Draws a routable IPv4 endpoint not yet in `used` (skipping 0/8, 10/8,
/// 127/8 and multicast and above) and records it there. The port is 8333
/// with probability `default_port_frac`, otherwise an unprivileged one.
pub fn fresh_addr(used: &mut IdSet<u32>, default_port_frac: f64, rng: &mut SimRng) -> NetAddr {
    let ip = loop {
        let candidate = rng.below(0xdfff_ffff) as u32 + 0x0100_0000;
        let first = (candidate >> 24) as u8;
        if first == 10 || first == 127 || first >= 224 {
            continue;
        }
        if used.insert(candidate) {
            break candidate;
        }
    };
    let port = if rng.chance(default_port_frac) {
        DEFAULT_PORT
    } else {
        1024 + rng.below(60_000) as u16
    };
    NetAddr::from_ipv4(Ipv4Addr::from(ip), port)
}
