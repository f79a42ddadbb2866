//! The network crawler and scanner: the paper's Algorithm 1 (iterative
//! `GETADDR` discovery of unreachable addresses) and Algorithm 2 (VER
//! probing for responsive nodes).

use crate::census::CensusNetwork;
use bitsync_protocol::addr::NetAddr;
use bitsync_sim::rng::SimRng;
use bitsync_sim::trace::CrawlEvent;
use bitsync_sim::Instruments;
use std::collections::{HashMap, HashSet};

/// Addresses per `ADDR` response (the protocol's message cap).
const ADDRS_PER_RESPONSE: usize = 1000;

/// Canonical metric names the crawler reports into a
/// [`Recorder`](bitsync_sim::metrics::Recorder).
pub mod metric {
    /// `GETADDR` round-trips issued by Algorithm 1 (counter).
    pub const GETADDR_ROUNDS: &str = "crawler.getaddr_rounds";
    /// Reachable nodes crawled to exhaustion (counter).
    pub const NODES_CRAWLED: &str = "crawler.nodes_crawled";
    /// Unique addresses revealed across crawls (counter).
    pub const ADDRS_REVEALED: &str = "crawler.addrs_revealed";
    /// VER probes sent by Algorithm 2 (counter).
    pub const PROBES_SENT: &str = "crawler.probes_sent";
    /// Probes refused with FIN — responsive unreachable nodes (counter).
    pub const PROBES_REFUSED_FIN: &str = "crawler.probes_refused_fin";
    /// Probes that went unanswered (counter).
    pub const PROBES_SILENT: &str = "crawler.probes_silent";
}

/// Result of crawling one reachable node with iterative `GETADDR`.
#[derive(Clone, Debug, Default)]
pub struct NodeCrawl {
    /// Unique addresses the node revealed.
    pub revealed: Vec<NetAddr>,
    /// `GETADDR` round-trips used before the stop condition fired.
    pub getaddr_rounds: u32,
    /// Of the revealed addresses, how many were reachable ground truth.
    pub reachable_revealed: usize,
}

/// Result of one full crawl experiment (one day in the paper's campaign).
#[derive(Clone, Debug, Default)]
pub struct CrawlResult {
    /// Reachable candidates we tried to connect to.
    pub candidates: usize,
    /// Candidates that accepted our connection.
    pub connected: usize,
    /// Unique unreachable addresses discovered this experiment.
    pub unreachable_found: HashSet<NetAddr>,
    /// Per-sender ADDR statistics: (address, total entries, reachable
    /// entries) — the malicious-detection input.
    pub sender_stats: Vec<(NetAddr, u64, u64)>,
}

/// Upper bound on `GETADDR` rounds per node (the real crawler is similarly
/// bounded by politeness/time).
const MAX_ROUNDS_PER_NODE: u32 = 2_000;

/// The crawler: connects to every candidate and exhausts its address
/// tables per Algorithm 1.
pub struct Crawler;

impl Crawler {
    /// Algorithm 1 against one node: send `GETADDR` repeatedly; each
    /// response is a ≤1000-address sample of the node's tables plus the
    /// node's own address; stop when a response contains no new address.
    pub fn crawl_node(
        net: &CensusNetwork,
        node_idx: usize,
        day: f64,
        rng: &mut SimRng,
    ) -> NodeCrawl {
        Self::crawl_node_bounded(net, node_idx, day, MAX_ROUNDS_PER_NODE, rng)
    }

    /// [`Crawler::crawl_node`] giving up after `max_rounds` round-trips.
    fn crawl_node_bounded(
        net: &CensusNetwork,
        node_idx: usize,
        day: f64,
        max_rounds: u32,
        rng: &mut SimRng,
    ) -> NodeCrawl {
        let node = &net.reachable[node_idx];
        let mut seen: HashSet<NetAddr> = HashSet::new();
        let mut revealed = Vec::new();
        let mut reachable_revealed = 0;
        let mut rounds = 0;

        // Live entries of the node's book at this time: circulating
        // unreachable addresses plus the reachable nodes it knows (ADDR
        // messages are ~15% reachable, §IV-B).
        let mut live: Vec<NetAddr> = node
            .book
            .iter()
            .copied()
            .filter(|&i| net.book_live(i, day))
            .map(|i| net.book_addr(i))
            .collect();
        for &r in &node.book_reachable {
            let peer = &net.reachable[r as usize];
            if peer.online_at(day) || peer.online_at(day - 1.0) {
                live.push(peer.addr);
            }
        }

        loop {
            rounds += 1;
            if rounds > max_rounds {
                break;
            }
            // One ADDR response: up to 1000 sampled entries + self address
            // (honest nodes only; flooders omit themselves).
            let batch_size = ADDRS_PER_RESPONSE.min(live.len());
            let mut new_any = false;
            if batch_size > 0 {
                for i in rng.sample_indices(live.len(), batch_size) {
                    let addr = live[i];
                    if seen.insert(addr) {
                        new_any = true;
                        if net.reachable_addrs.contains(&addr) {
                            reachable_revealed += 1;
                        }
                        revealed.push(addr);
                    }
                }
            }
            if !node.malicious && seen.insert(node.addr) {
                new_any = true;
                reachable_revealed += 1;
                revealed.push(node.addr);
            }
            if !new_any {
                break; // Algorithm 1 stop condition
            }
        }
        NodeCrawl {
            revealed,
            getaddr_rounds: rounds,
            reachable_revealed,
        }
    }

    /// One full experiment: connect to every candidate online at `day`,
    /// run Algorithm 1 on each, and aggregate. `index` is
    /// [`CensusNetwork::reachable_index`], built once per campaign. Crawl
    /// metrics go to `ins.metrics`, one [`CrawlEvent`] per crawled node to
    /// `ins.tracer`.
    pub fn run_experiment(
        net: &CensusNetwork,
        index: &HashMap<NetAddr, usize>,
        candidates: &[NetAddr],
        day: f64,
        rng: &mut SimRng,
        ins: &Instruments,
    ) -> CrawlResult {
        let mut result = CrawlResult {
            candidates: candidates.len(),
            ..CrawlResult::default()
        };
        for addr in candidates {
            let Some(&idx) = index.get(addr) else {
                continue;
            };
            if !net.reachable[idx].online_at(day) {
                continue; // feed staleness: listed but gone
            }
            result.connected += 1;
            let crawl = Self::crawl_node(net, idx, day, rng);
            ins.metrics.inc(metric::NODES_CRAWLED, 1);
            ins.metrics
                .inc(metric::GETADDR_ROUNDS, crawl.getaddr_rounds as u64);
            ins.metrics
                .inc(metric::ADDRS_REVEALED, crawl.revealed.len() as u64);
            if ins.tracer.is_enabled() {
                ins.tracer.crawl(CrawlEvent {
                    day,
                    addr: addr.to_string(),
                    rounds: crawl.getaddr_rounds as u64,
                    revealed: crawl.revealed.len() as u64,
                    reachable_revealed: crawl.reachable_revealed as u64,
                    malicious: net.reachable[idx].malicious,
                });
            }
            let total = crawl.revealed.len() as u64;
            result
                .sender_stats
                .push((*addr, total, crawl.reachable_revealed as u64));
            for a in crawl.revealed {
                if !net.reachable_addrs.contains(&a) {
                    result.unreachable_found.insert(a);
                }
            }
        }
        result
    }

    /// Closed-form variant of [`Crawler::run_experiment`] for
    /// full-scale campaigns over compact books
    /// (`CensusConfig::sampled_crawl`).
    ///
    /// The exact crawl runs Algorithm 1 to exhaustion, so its outcome is a
    /// function of each book's *membership*, not of the sampling path: an
    /// honest node ultimately reveals every live entry of its book plus its
    /// own address. This variant draws the per-node live counts from their
    /// distributions (binomial over the live fraction, normal-approximated)
    /// and unions the discovered set directly. With ~10K books of ~8K
    /// uniform samples over a ~700K pool, the probability that any given
    /// live address escapes every book is (1 − 8000/700000)^10000 < 10⁻⁴⁹,
    /// so the day's discovered set is the live pool itself plus the pools
    /// of online flooders.
    pub fn run_experiment_sampled(
        net: &CensusNetwork,
        index: &HashMap<NetAddr, usize>,
        candidates: &[NetAddr],
        day: f64,
        rng: &mut SimRng,
        ins: &Instruments,
    ) -> CrawlResult {
        let mut result = CrawlResult {
            candidates: candidates.len(),
            ..CrawlResult::default()
        };
        // Today's live unreachable pool and the live fraction of the
        // all-time pool honest books were sampled from.
        let live: Vec<NetAddr> = net
            .unreachable
            .iter()
            .filter(|u| u.appears <= day && day < u.disappears)
            .map(|u| u.addr)
            .collect();
        let p_live = live.len() as f64 / net.unreachable.len().max(1) as f64;
        // Reachable book entries gossip while online today or yesterday
        // (matching the staleness window of the exact crawl).
        let gossiped = net
            .reachable
            .iter()
            .filter(|n| n.online_at(day) || n.online_at(day - 1.0))
            .count();
        let p_reach = gossiped as f64 / net.reachable.len().max(1) as f64;

        for addr in candidates {
            let Some(&idx) = index.get(addr) else {
                continue;
            };
            let node = &net.reachable[idx];
            if !node.online_at(day) {
                continue;
            }
            result.connected += 1;
            let (revealed, reachable_revealed) = if node.malicious {
                // A flooder's fabricated pool always circulates in full and
                // never includes its own (reachable) address.
                for &i in &node.book {
                    result.unreachable_found.insert(net.book_addr(i));
                }
                (node.book.len() as u64, 0u64)
            } else {
                let k_book = binomial_approx(u64::from(node.book_size), p_live, rng);
                let k_reach = binomial_approx(u64::from(node.book_reachable_size), p_reach, rng);
                // +1: the node's own address, appended to every response.
                (k_book + k_reach + 1, k_reach + 1)
            };
            let rounds = expected_exhaustion_rounds(revealed);
            ins.metrics.inc(metric::NODES_CRAWLED, 1);
            ins.metrics.inc(metric::GETADDR_ROUNDS, rounds);
            ins.metrics.inc(metric::ADDRS_REVEALED, revealed);
            if ins.tracer.is_enabled() {
                ins.tracer.crawl(CrawlEvent {
                    day,
                    addr: addr.to_string(),
                    rounds,
                    revealed,
                    reachable_revealed,
                    malicious: node.malicious,
                });
            }
            result
                .sender_stats
                .push((*addr, revealed, reachable_revealed));
        }
        if result.connected > 0 {
            result.unreachable_found.extend(live);
        }
        result
    }
}

/// Expected Algorithm-1 round-trips to exhaust `n` addresses at
/// [`ADDRS_PER_RESPONSE`] uniformly sampled entries per response, plus the
/// terminating no-news round: the coupon-collector bound n·ln(n)/batch.
fn expected_exhaustion_rounds(n: u64) -> u64 {
    if n == 0 {
        return 1;
    }
    let n = n as f64;
    (n * n.ln().max(1.0) / ADDRS_PER_RESPONSE as f64).ceil() as u64 + 1
}

/// Binomial(n, p) through the normal approximation, clamped to `[0, n]`.
/// Book live-counts have n in the thousands, where the approximation error
/// is far below the day-to-day churn noise; one normal draw keeps the
/// sampled crawl O(1) per node instead of O(book).
fn binomial_approx(n: u64, p: f64, rng: &mut SimRng) -> u64 {
    if n == 0 || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    let mean = n as f64 * p;
    let sd = (n as f64 * p * (1.0 - p)).sqrt();
    rng.normal(mean, sd).round().clamp(0.0, n as f64) as u64
}

/// Algorithm 2: probe every address in `targets` with a crafted VER
/// message; addresses answering with FIN are *responsive*.
pub fn probe_responsive(
    net: &CensusNetwork,
    targets: &HashSet<NetAddr>,
    day: f64,
) -> HashSet<NetAddr> {
    // One pass over the unreachable records, then set lookups: a scan per
    // target would be quadratic over hundreds of thousands of targets.
    let mut responsive = HashSet::new();
    let live_responsive: HashSet<NetAddr> = net
        .unreachable
        .iter()
        .filter(|u| u.responsive && u.appears <= day && day < u.disappears)
        .map(|u| u.addr)
        .collect();
    for t in targets {
        if live_responsive.contains(t) {
            responsive.insert(*t);
        }
    }
    responsive
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::census::{CensusConfig, CensusNetwork};

    fn setup() -> (CensusNetwork, SimRng) {
        let mut rng = SimRng::seed_from(11);
        let net = CensusNetwork::generate(CensusConfig::tiny(), &mut rng);
        (net, rng)
    }

    #[test]
    fn crawl_reveals_most_of_a_node_book() {
        let (net, mut rng) = setup();
        let idx = net
            .reachable
            .iter()
            .position(|n| !n.malicious && n.online_at(0.5))
            .unwrap();
        let crawl = Crawler::crawl_node(&net, idx, 0.5, &mut rng);
        let live = net.reachable[idx]
            .book
            .iter()
            .filter(|&&i| net.book_live(i, 0.5))
            .count();
        // Iterative GETADDR should eventually reveal nearly everything.
        assert!(
            crawl.revealed.len() >= live * 9 / 10,
            "revealed {} of {live}",
            crawl.revealed.len()
        );
        assert!(crawl.getaddr_rounds >= 1);
    }

    #[test]
    fn honest_crawl_includes_self_address() {
        let (net, mut rng) = setup();
        let idx = net
            .reachable
            .iter()
            .position(|n| !n.malicious && n.online_at(0.5))
            .unwrap();
        let crawl = Crawler::crawl_node(&net, idx, 0.5, &mut rng);
        assert!(crawl.revealed.contains(&net.reachable[idx].addr));
        assert!(crawl.reachable_revealed >= 1);
    }

    #[test]
    fn flooder_crawl_reveals_zero_reachable() {
        let (net, mut rng) = setup();
        let idx = net.reachable.iter().position(|n| n.malicious).unwrap();
        let crawl = Crawler::crawl_node(&net, idx, 0.5, &mut rng);
        assert_eq!(crawl.reachable_revealed, 0);
        assert!(crawl.revealed.len() >= 150);
    }

    #[test]
    fn experiment_aggregates_unreachable_addresses() {
        let (net, mut rng) = setup();
        let candidates: Vec<NetAddr> = net
            .online_at(0.5)
            .into_iter()
            .map(|i| net.reachable[i].addr)
            .collect();
        let ins = Instruments::default();
        let result = Crawler::run_experiment(
            &net,
            &net.reachable_index(),
            &candidates,
            0.5,
            &mut rng,
            &ins,
        );
        assert_eq!(result.candidates, candidates.len());
        assert!(result.connected > 0);
        assert!(
            result.unreachable_found.len() > 100,
            "found {}",
            result.unreachable_found.len()
        );
        // None of the found addresses is reachable ground truth.
        for a in &result.unreachable_found {
            assert!(!net.reachable_addrs.contains(a));
        }
    }

    #[test]
    fn offline_candidates_are_skipped() {
        let (net, mut rng) = setup();
        // A node that departed: online at 0 but not at day 9.
        if let Some(n) = net
            .reachable
            .iter()
            .find(|n| n.online_at(0.1) && !n.online_at(9.5))
        {
            let ins = Instruments::default();
            let result = Crawler::run_experiment(
                &net,
                &net.reachable_index(),
                &[n.addr],
                9.5,
                &mut rng,
                &ins,
            );
            assert_eq!(result.connected, 0);
        }
    }

    #[test]
    fn probe_responsive_matches_ground_truth() {
        let (net, mut rng) = setup();
        let candidates: Vec<NetAddr> = net
            .online_at(0.5)
            .into_iter()
            .map(|i| net.reachable[i].addr)
            .collect();
        let ins = Instruments::default();
        let result = Crawler::run_experiment(
            &net,
            &net.reachable_index(),
            &candidates,
            0.5,
            &mut rng,
            &ins,
        );
        let responsive = probe_responsive(&net, &result.unreachable_found, 0.5);
        assert!(!responsive.is_empty());
        // Responsive ⊂ found, and each is genuinely responsive now.
        for r in &responsive {
            assert!(result.unreachable_found.contains(r));
            let truth = net.unreachable.iter().find(|u| u.addr == *r).unwrap();
            assert!(truth.responsive && truth.appears <= 0.5 && 0.5 < truth.disappears);
        }
        // Fraction should be near the configured 23.5% (flood addresses
        // dilute it downward).
        let frac = responsive.len() as f64 / result.unreachable_found.len() as f64;
        assert!(frac > 0.05 && frac < 0.40, "responsive fraction {frac}");
    }

    #[test]
    fn sampled_experiment_tracks_exact_one() {
        // Same tiny world, exact vs closed-form crawl: the discovered set
        // and per-sender totals must agree to within sampling noise.
        let (net, mut rng) = setup();
        let candidates: Vec<NetAddr> = net
            .online_at(0.5)
            .into_iter()
            .map(|i| net.reachable[i].addr)
            .collect();
        let ins = Instruments::default();
        let exact = Crawler::run_experiment(
            &net,
            &net.reachable_index(),
            &candidates,
            0.5,
            &mut rng,
            &ins,
        );
        let sampled = Crawler::run_experiment_sampled(
            &net,
            &net.reachable_index(),
            &candidates,
            0.5,
            &mut rng,
            &ins,
        );
        assert_eq!(sampled.connected, exact.connected);
        assert_eq!(sampled.candidates, exact.candidates);
        // Exact union covers *almost* all live addresses; sampled covers all
        // of them plus the same flooder pools.
        assert!(sampled.unreachable_found.len() >= exact.unreachable_found.len());
        let found = sampled.unreachable_found.len() as f64;
        assert!(
            (found - exact.unreachable_found.len() as f64) / found < 0.15,
            "sampled {found} vs exact {}",
            exact.unreachable_found.len()
        );
        for a in &sampled.unreachable_found {
            assert!(!net.reachable_addrs.contains(a));
        }
        let totals = |r: &CrawlResult| r.sender_stats.iter().map(|s| s.1).sum::<u64>() as f64;
        let (te, ts) = (totals(&exact), totals(&sampled));
        assert!(
            (ts - te).abs() / te < 0.25,
            "totals exact {te} sampled {ts}"
        );
    }

    #[test]
    fn sampled_experiment_works_on_compact_books() {
        let mut rng = SimRng::seed_from(11);
        let net = CensusNetwork::generate(
            CensusConfig {
                sampled_crawl: true,
                ..CensusConfig::tiny()
            },
            &mut rng,
        );
        let candidates: Vec<NetAddr> = net
            .online_at(0.5)
            .into_iter()
            .map(|i| net.reachable[i].addr)
            .collect();
        let result = Crawler::run_experiment_sampled(
            &net,
            &net.reachable_index(),
            &candidates,
            0.5,
            &mut rng,
            &Instruments::default(),
        );
        assert!(result.connected > 0);
        assert!(result.unreachable_found.len() > 100);
        // Honest senders reveal their own address; flooders reveal none.
        let flooders: HashSet<NetAddr> = net
            .reachable
            .iter()
            .filter(|n| n.malicious)
            .map(|n| n.addr)
            .collect();
        for (sender, total, reachable) in &result.sender_stats {
            if flooders.contains(sender) {
                assert_eq!(*reachable, 0);
                assert!(*total >= 150);
            } else {
                assert!(*reachable >= 1);
                assert!(*total >= *reachable);
            }
        }
    }

    #[test]
    fn exhaustion_rounds_estimate_is_monotone() {
        assert_eq!(expected_exhaustion_rounds(0), 1);
        let mut prev = 0;
        for n in [1u64, 10, 100, 1_000, 10_000, 100_000] {
            let r = expected_exhaustion_rounds(n);
            assert!(r >= prev, "rounds({n}) = {r} < {prev}");
            prev = r;
        }
        // A 8K-entry book takes on the order of 70–80 round-trips, as the
        // exact crawl does.
        let r = expected_exhaustion_rounds(8_000);
        assert!((40..=120).contains(&r), "rounds(8000) = {r}");
    }

    #[test]
    fn binomial_approx_matches_moments() {
        let mut rng = SimRng::seed_from(3);
        let (n, p, draws) = (8_000u64, 0.28, 2_000);
        let mut sum = 0.0;
        for _ in 0..draws {
            let k = binomial_approx(n, p, &mut rng);
            assert!(k <= n);
            sum += k as f64;
        }
        let mean = sum / draws as f64;
        let expect = n as f64 * p;
        assert!((mean - expect).abs() < 0.02 * expect, "mean {mean}");
        assert_eq!(binomial_approx(0, 0.5, &mut rng), 0);
        assert_eq!(binomial_approx(10, 0.0, &mut rng), 0);
        assert_eq!(binomial_approx(10, 1.0, &mut rng), 10);
    }

    #[test]
    fn rounds_bounded() {
        let (net, mut rng) = setup();
        let idx = net.reachable.iter().position(|n| n.online_at(0.5)).unwrap();
        let crawl = Crawler::crawl_node_bounded(&net, idx, 0.5, 3, &mut rng);
        assert!(crawl.getaddr_rounds <= 4);
    }
}
