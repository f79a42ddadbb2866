//! The full 60-day measurement campaign: daily feed pulls, crawls, and
//! probes — the pipeline of the paper's Figure 2, producing the raw series
//! behind Figures 3, 4, 5, 8, 12, 13 and Table I.

use crate::census::CensusNetwork;
use crate::crawl::{metric, probe_responsive, Crawler};
use crate::feeds::Feeds;
use bitsync_protocol::addr::NetAddr;
use bitsync_sim::rng::SimRng;
use bitsync_sim::time::SimTime;
use bitsync_sim::Instruments;
use std::collections::{HashMap, HashSet};

/// One experiment's (day's) aggregated numbers.
#[derive(Clone, Debug, Default)]
pub struct DailyRecord {
    /// Day index.
    pub day: u32,
    /// Bitnodes feed size (Figure 3a).
    pub bitnodes: usize,
    /// DNS feed size (Figure 3a).
    pub dns: usize,
    /// Addresses common to both feeds (Figure 3a).
    pub common: usize,
    /// Excluded from Bitnodes (Figure 3b).
    pub bitnodes_excluded: usize,
    /// Excluded from DNS (Figure 3b).
    pub dns_excluded: usize,
    /// Excluded common (Figure 3b).
    pub common_excluded: usize,
    /// Nodes we connected to (Figure 3c).
    pub connected: usize,
    /// Nodes connected that Bitnodes missed (Figure 3d).
    pub dns_only_connected: usize,
    /// Unique unreachable addresses seen this experiment (Figure 4, black).
    pub unreachable_today: usize,
    /// Cumulative unique unreachable addresses (Figure 4, red).
    pub unreachable_cumulative: usize,
    /// Responsive addresses this experiment (Figure 5, black).
    pub responsive_today: usize,
    /// Cumulative responsive addresses (Figure 5, red).
    pub responsive_cumulative: usize,
    /// Total ADDR entries observed and how many were reachable (the
    /// §IV-B 14.9% / 85.1% split).
    pub addr_entries: u64,
    /// Reachable entries among `addr_entries`.
    pub addr_entries_reachable: u64,
}

/// Aggregated per-sender statistics over the whole campaign.
#[derive(Clone, Debug, Default)]
pub struct SenderAggregate {
    /// Total ADDR entries sent to our crawler.
    pub total: u64,
    /// Reachable entries among them.
    pub reachable: u64,
}

/// Campaign output: daily series plus cross-experiment aggregates.
#[derive(Clone, Debug, Default)]
pub struct CampaignResult {
    /// One record per day.
    pub days: Vec<DailyRecord>,
    /// All unique unreachable addresses over the campaign.
    pub all_unreachable: HashSet<NetAddr>,
    /// All unique responsive addresses.
    pub all_responsive: HashSet<NetAddr>,
    /// All unique reachable addresses connected to.
    pub all_connected: HashSet<NetAddr>,
    /// Per-sender ADDR totals (malicious-detection input, Figure 8).
    pub senders: HashMap<NetAddr, SenderAggregate>,
    /// Probe delay before responsive scanning became operational, in days
    /// (the paper lost the first two weeks of Figure 5 to an experiment
    /// error; reproduced for fidelity of the figure).
    pub probe_start_day: u32,
}

/// Runs the full campaign.
#[derive(Clone, Debug)]
pub struct Campaign {
    /// First day the VER prober ran (paper: day 14 due to a setup error).
    pub probe_start_day: u32,
}

impl Default for Campaign {
    fn default() -> Self {
        Campaign {
            probe_start_day: 14,
        }
    }
}

impl Campaign {
    /// Executes one crawl per day over the census window: crawl and probe
    /// metrics go to `ins.metrics`, per-node crawl events to `ins.tracer`,
    /// and one timeseries row per crawl day to `ins.sampler`.
    ///
    /// The campaign has no event queue, so the sampler's cadence is ignored
    /// here: the natural sampling unit is the day (the paper's own window),
    /// stamped at each day's crawl midpoint in sim time.
    pub fn run(&self, net: &CensusNetwork, rng: &mut SimRng, ins: &Instruments) -> CampaignResult {
        let (rec, sampler) = (&ins.metrics, &ins.sampler);
        let feeds = Feeds::new(net, rng);
        let mut result = CampaignResult {
            probe_start_day: self.probe_start_day,
            ..CampaignResult::default()
        };
        // Address → census index, built once: the per-day Figure 3d check
        // below was a linear scan over all reachable nodes per DNS address,
        // which is quadratic over a full-scale campaign.
        let node_index = net.reachable_index();
        for day in 0..net.cfg.days {
            let t = day as f64 + 0.5;
            let snap = feeds.pull(net, t, rng);
            let crawl = Crawler::run_experiment(net, &node_index, &snap.candidates, t, rng, ins);

            // Figure 3d: connected nodes absent from Bitnodes.
            let bitnodes_set: HashSet<&NetAddr> = snap.bitnodes.iter().collect();
            let candidate_set: HashSet<&NetAddr> = snap.candidates.iter().collect();
            let dns_only_connected = snap
                .dns
                .iter()
                .filter(|a| {
                    !bitnodes_set.contains(a)
                        && candidate_set.contains(a)
                        && node_index
                            .get(a)
                            .is_some_and(|&i| net.reachable[i].online_at(t))
                })
                .count();

            // ADDR census.
            let mut addr_entries = 0u64;
            let mut addr_entries_reachable = 0u64;
            for (sender, total, reachable) in &crawl.sender_stats {
                addr_entries += total;
                addr_entries_reachable += reachable;
                let agg = result.senders.entry(*sender).or_default();
                agg.total += total;
                agg.reachable += reachable;
            }

            for a in &crawl.unreachable_found {
                result.all_unreachable.insert(*a);
            }
            let responsive_today = if day >= self.probe_start_day {
                let resp = probe_responsive(net, &crawl.unreachable_found, t);
                rec.inc(metric::PROBES_SENT, crawl.unreachable_found.len() as u64);
                rec.inc(metric::PROBES_REFUSED_FIN, resp.len() as u64);
                rec.inc(
                    metric::PROBES_SILENT,
                    (crawl.unreachable_found.len() - resp.len()) as u64,
                );
                for a in &resp {
                    result.all_responsive.insert(*a);
                }
                resp.len()
            } else {
                0
            };

            // Track connected uniques.
            for (sender, _, _) in &crawl.sender_stats {
                result.all_connected.insert(*sender);
            }

            if sampler.is_enabled() {
                // Stamp at the day's crawl midpoint (t = day + 0.5 in days).
                let at = SimTime::from_secs(u64::from(day) * 86_400 + 43_200);
                let addr_unreach_frac = if addr_entries == 0 {
                    0.0
                } else {
                    1.0 - addr_entries_reachable as f64 / addr_entries as f64
                };
                sampler.record(
                    at,
                    &[
                        ("bitnodes", snap.bitnodes.len() as f64),
                        ("dns", snap.dns.len() as f64),
                        ("connected", crawl.connected as f64),
                        ("unreachable_today", crawl.unreachable_found.len() as f64),
                        ("unreachable_cum", result.all_unreachable.len() as f64),
                        ("responsive_today", responsive_today as f64),
                        ("addr_entries", addr_entries as f64),
                        ("addr_unreach_frac", addr_unreach_frac),
                    ],
                );
            }

            result.days.push(DailyRecord {
                day,
                bitnodes: snap.bitnodes.len(),
                dns: snap.dns.len(),
                common: snap.common(),
                bitnodes_excluded: snap.bitnodes_excluded,
                dns_excluded: snap.dns_excluded,
                common_excluded: snap.common_excluded,
                connected: crawl.connected,
                dns_only_connected,
                unreachable_today: crawl.unreachable_found.len(),
                unreachable_cumulative: result.all_unreachable.len(),
                responsive_today,
                responsive_cumulative: result.all_responsive.len(),
                addr_entries,
                addr_entries_reachable,
            });
        }
        result
    }
}

impl CampaignResult {
    /// The §IV-B headline: fraction of ADDR entries that were reachable.
    pub fn reachable_addr_fraction(&self) -> f64 {
        let total: u64 = self.days.iter().map(|d| d.addr_entries).sum();
        let reach: u64 = self.days.iter().map(|d| d.addr_entries_reachable).sum();
        if total == 0 {
            0.0
        } else {
            reach as f64 / total as f64
        }
    }

    /// Senders that never revealed a reachable address while sending more
    /// than `min_total` entries — the paper's malicious-peer heuristic
    /// (Figure 8's 73 nodes).
    pub fn detect_malicious(&self, min_total: u64) -> Vec<(NetAddr, u64)> {
        let mut out: Vec<(NetAddr, u64)> = self
            .senders
            .iter()
            .filter(|(_, s)| s.total > min_total && s.reachable == 0)
            .map(|(a, s)| (*a, s.total))
            .collect();
        // Ties break by address: `senders` is a hash map, and the rendered
        // report must not depend on its iteration order.
        out.sort_by_key(|&(addr, total)| (std::cmp::Reverse(total), addr));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::census::{CensusConfig, CensusNetwork};

    fn run_tiny() -> (CensusNetwork, CampaignResult) {
        let mut rng = SimRng::seed_from(31);
        let net = CensusNetwork::generate(CensusConfig::tiny(), &mut rng);
        let campaign = Campaign { probe_start_day: 2 };
        let result = campaign.run(&net, &mut rng, &Instruments::default());
        (net, result)
    }

    #[test]
    fn one_record_per_day() {
        let (net, result) = run_tiny();
        assert_eq!(result.days.len(), net.cfg.days as usize);
    }

    #[test]
    fn cumulative_series_are_monotone() {
        let (_, result) = run_tiny();
        for w in result.days.windows(2) {
            assert!(w[1].unreachable_cumulative >= w[0].unreachable_cumulative);
            assert!(w[1].responsive_cumulative >= w[0].responsive_cumulative);
        }
    }

    #[test]
    fn cumulative_exceeds_daily() {
        let (_, result) = run_tiny();
        let last = result.days.last().unwrap();
        assert!(last.unreachable_cumulative > last.unreachable_today);
    }

    #[test]
    fn probe_blackout_window_reproduced() {
        let (_, result) = run_tiny();
        for d in &result.days {
            if d.day < 2 {
                assert_eq!(d.responsive_today, 0);
            }
        }
        assert!(result.days.iter().any(|d| d.responsive_today > 0));
    }

    #[test]
    fn addr_mix_is_dominated_by_unreachable() {
        let (_, result) = run_tiny();
        let frac = result.reachable_addr_fraction();
        // Paper: 14.9% reachable. Tiny scale is noisier; assert the
        // direction (way below half).
        assert!(frac < 0.35, "reachable ADDR fraction {frac}");
        assert!(frac > 0.0);
    }

    #[test]
    fn malicious_detection_finds_exactly_the_flooders() {
        let (net, result) = run_tiny();
        let detected = result.detect_malicious(1000);
        let flooder_addrs: HashSet<NetAddr> = net
            .reachable
            .iter()
            .filter(|n| n.malicious)
            .map(|n| n.addr)
            .collect();
        assert_eq!(detected.len(), flooder_addrs.len());
        for (addr, total) in &detected {
            assert!(flooder_addrs.contains(addr));
            assert!(*total > 1000);
        }
        // Biggest sender first, equal totals in address order (the tiny
        // scale's flooders tie, and the rendered list must be stable).
        let order = |&(addr, total): &(NetAddr, u64)| (std::cmp::Reverse(total), addr);
        assert!(detected.windows(2).all(|w| order(&w[0]) < order(&w[1])));
    }

    #[test]
    fn sampled_campaign_matches_exact_shape() {
        let mut rng = SimRng::seed_from(31);
        let net = CensusNetwork::generate(
            CensusConfig {
                sampled_crawl: true,
                ..CensusConfig::tiny()
            },
            &mut rng,
        );
        let campaign = Campaign { probe_start_day: 2 };
        let result = campaign.run(&net, &mut rng, &Instruments::default());
        assert_eq!(result.days.len(), net.cfg.days as usize);
        for w in result.days.windows(2) {
            assert!(w[1].unreachable_cumulative >= w[0].unreachable_cumulative);
            assert!(w[1].responsive_cumulative >= w[0].responsive_cumulative);
        }
        let last = result.days.last().unwrap();
        assert!(last.unreachable_cumulative > last.unreachable_today);
        let frac = result.reachable_addr_fraction();
        assert!(frac > 0.0 && frac < 0.35, "reachable ADDR fraction {frac}");
        // Flooder detection works identically off the sampled sender stats.
        // A flooder whose sessions never overlap a crawl day is invisible
        // to any crawler, so the ground truth is the *connected* flooders.
        let detected = result.detect_malicious(1000);
        let flooder_addrs: HashSet<NetAddr> = net
            .reachable
            .iter()
            .filter(|n| n.malicious && result.all_connected.contains(&n.addr))
            .map(|n| n.addr)
            .collect();
        assert!(!flooder_addrs.is_empty(), "no flooder ever crawled");
        assert_eq!(detected.len(), flooder_addrs.len());
        for (addr, _) in &detected {
            assert!(flooder_addrs.contains(addr));
        }
    }

    #[test]
    fn connected_tracks_online_candidates() {
        let (net, result) = run_tiny();
        for d in &result.days {
            assert!(d.connected <= net.reachable.len());
            assert!(d.connected > 0);
        }
        assert!(result.all_connected.len() >= result.days[0].connected);
    }
}
