//! Address feeds: the Bitnodes view, the DNS-seeder database view, and the
//! critical-infrastructure blacklist (the paper's §III-A / Figure 3).
//!
//! The paper collected reachable addresses from two sources with imperfect,
//! overlapping coverage — Bitnodes (10,114 addresses/day on average) and
//! Luke Dashjr's DNS seeder database (6,637/day, of which ~404 were *not*
//! in Bitnodes) — and removed ~4–5% of each feed as critical-infrastructure
//! addresses it was advised not to contact.

use crate::census::CensusNetwork;
use bitsync_protocol::addr::NetAddr;
use bitsync_sim::rng::SimRng;
use std::collections::HashSet;

/// Probability an online reachable node appears in Bitnodes. With the
/// three constants below, calibrated to Figure 3: Bitnodes 10,114 of ~10.1K
/// online (full coverage plus staleness), DNS 6,637 with ~6,078 overlap,
/// 439/342 excluded (~4.3%/5.2%).
const BITNODES_COVERAGE: f64 = 0.96;

/// Probability a node recently online appears in the Bitnodes list even
/// after departing (feed staleness).
const BITNODES_STALE: f64 = 0.04;

/// Probability an online reachable node appears in the DNS database.
const DNS_COVERAGE: f64 = 0.64;

/// Probability a node is on the critical-infrastructure blacklist.
const CRITICAL_FRACTION: f64 = 0.045;

/// One day's feed pull.
#[derive(Clone, Debug)]
pub struct FeedSnapshot {
    /// Addresses from Bitnodes (before exclusion).
    pub bitnodes: Vec<NetAddr>,
    /// Addresses from the DNS seeder database (before exclusion).
    pub dns: Vec<NetAddr>,
    /// Blacklisted addresses removed from Bitnodes.
    pub bitnodes_excluded: usize,
    /// Blacklisted addresses removed from the DNS feed.
    pub dns_excluded: usize,
    /// Blacklisted addresses in the feed intersection.
    pub common_excluded: usize,
    /// The merged candidate list handed to the crawler.
    pub candidates: Vec<NetAddr>,
}

impl FeedSnapshot {
    /// Addresses present in both feeds (before exclusion).
    pub fn common(&self) -> usize {
        let b: HashSet<&NetAddr> = self.bitnodes.iter().collect();
        self.dns.iter().filter(|a| b.contains(a)).count()
    }
}

/// Simulates both feeds over a census network.
#[derive(Clone, Debug)]
pub struct Feeds {
    /// Deterministic blacklist membership per node index.
    critical: Vec<bool>,
}

impl Feeds {
    /// Builds feed state for `net`, fixing blacklist membership.
    pub fn new(net: &CensusNetwork, rng: &mut SimRng) -> Self {
        let critical = net
            .reachable
            .iter()
            .map(|_| rng.chance(CRITICAL_FRACTION))
            .collect();
        Feeds { critical }
    }

    /// Pulls both feeds at fractional `day` and builds the candidate list.
    pub fn pull(&self, net: &CensusNetwork, day: f64, rng: &mut SimRng) -> FeedSnapshot {
        let mut bitnodes = Vec::new();
        let mut dns = Vec::new();
        let mut bitnodes_excluded = 0;
        let mut dns_excluded = 0;
        let mut common_excluded = 0;
        let mut candidates = Vec::new();
        for (i, node) in net.reachable.iter().enumerate() {
            let online = node.online_at(day);
            // Recently departed nodes may linger in Bitnodes.
            let recently = !online
                && node
                    .sessions
                    .iter()
                    .any(|s| s.end <= day && day - s.end < 1.0);
            let in_bitnodes = (online && rng.chance(BITNODES_COVERAGE))
                || (recently && rng.chance(BITNODES_STALE / 0.1));
            let in_dns = online && rng.chance(DNS_COVERAGE);
            if !in_bitnodes && !in_dns {
                continue;
            }
            let critical = self.critical[i];
            if in_bitnodes {
                bitnodes.push(node.addr);
                if critical {
                    bitnodes_excluded += 1;
                }
            }
            if in_dns {
                dns.push(node.addr);
                if critical {
                    dns_excluded += 1;
                }
            }
            if in_bitnodes && in_dns && critical {
                common_excluded += 1;
            }
            if !critical {
                candidates.push(node.addr);
            }
        }
        FeedSnapshot {
            bitnodes,
            dns,
            bitnodes_excluded,
            dns_excluded,
            common_excluded,
            candidates,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::census::CensusConfig;

    fn setup() -> (CensusNetwork, Feeds, SimRng) {
        let mut rng = SimRng::seed_from(5);
        let net = CensusNetwork::generate(CensusConfig::tiny(), &mut rng);
        let feeds = Feeds::new(&net, &mut rng);
        (net, feeds, rng)
    }

    #[test]
    fn bitnodes_covers_most_online_nodes() {
        let (net, feeds, mut rng) = setup();
        let snap = feeds.pull(&net, 1.0, &mut rng);
        let online = net.online_at(1.0).len();
        assert!(
            snap.bitnodes.len() as f64 > 0.85 * online as f64,
            "bitnodes {} vs online {online}",
            snap.bitnodes.len()
        );
    }

    #[test]
    fn dns_adds_unique_coverage() {
        let (net, feeds, mut rng) = setup();
        // Over several days, DNS occasionally sees nodes Bitnodes misses.
        let mut dns_only = 0;
        for d in 0..8 {
            let snap = feeds.pull(&net, d as f64 + 0.5, &mut rng);
            dns_only += snap.dns.len() - snap.common();
        }
        assert!(dns_only > 0, "DNS never added coverage");
    }

    #[test]
    fn exclusions_are_roughly_the_configured_fraction() {
        let mut rng = SimRng::seed_from(6);
        let net = CensusNetwork::generate(
            crate::census::CensusConfig {
                reachable_online: 2000,
                ..CensusConfig::tiny()
            },
            &mut rng,
        );
        let feeds = Feeds::new(&net, &mut rng);
        let snap = feeds.pull(&net, 0.5, &mut rng);
        let frac = snap.bitnodes_excluded as f64 / snap.bitnodes.len() as f64;
        assert!((frac - 0.045).abs() < 0.02, "excluded fraction {frac}");
        assert!(snap.common_excluded <= snap.bitnodes_excluded.min(snap.dns_excluded));
    }

    #[test]
    fn candidates_never_contain_critical_nodes() {
        let (net, feeds, mut rng) = setup();
        let snap = feeds.pull(&net, 2.0, &mut rng);
        for addr in &snap.candidates {
            let idx = net.reachable.iter().position(|n| n.addr == *addr).unwrap();
            assert!(!feeds.critical[idx]);
        }
    }

    #[test]
    fn common_is_bounded_by_both_feeds() {
        let (net, feeds, mut rng) = setup();
        let snap = feeds.pull(&net, 3.0, &mut rng);
        let common = snap.common();
        assert!(common <= snap.bitnodes.len());
        assert!(common <= snap.dns.len());
    }
}
