//! The 60-day census network: a paper-scale ground-truth model of node
//! membership over time.
//!
//! Protocol-fidelity experiments (Figures 6, 7, 10, 11) run on the full
//! event-driven world in `bitsync-node`. The longitudinal census
//! experiments (Figures 3, 4, 5, 12, 13 and Table I) span 60 days and
//! hundreds of thousands of addresses — per-message simulation is
//! unnecessary there because the measured quantities are functions of
//! *membership* (who is online, what addresses circulate) rather than of
//! message timing. [`CensusNetwork`] materializes exactly that membership
//! process:
//!
//! - reachable nodes with online/offline session intervals from the churn
//!   model (departures balanced by fresh arrivals, plus rejoins);
//! - a live pool of unreachable addresses with daily turnover (so the
//!   cumulative count keeps growing, Figure 4);
//! - per-node address books (samples of the live pools) that honest nodes
//!   answer `GETADDR` from;
//! - ADDR-flooding malicious nodes with fabricated pools (Figure 8).

use bitsync_net::as_model::AsModel;
use bitsync_net::churn::ChurnConfig;
use bitsync_net::population::{fresh_addr, NodeClass};
use bitsync_protocol::addr::NetAddr;
use bitsync_protocol::hash::IdSet;
use bitsync_sim::rng::SimRng;
use std::collections::HashSet;

/// Census model parameters.
#[derive(Clone, Debug)]
pub struct CensusConfig {
    /// Simulated measurement window in days (paper: 60).
    pub days: u32,
    /// Reachable nodes online at any time (paper: ~10,114 in feeds, 8,270
    /// connectable).
    pub reachable_online: usize,
    /// Live unreachable addresses at any time (paper: ~195K per
    /// experiment).
    pub unreachable_live: usize,
    /// New unreachable addresses appearing per day (paper: cumulative
    /// 694,696 over 60 days from ~195K live ⇒ ~8.5K/day turnover).
    pub unreachable_daily_new: usize,
    /// Mean honest per-node address-book size (entries).
    pub book_mean: usize,
    /// Number of ADDR-flooding malicious reachable nodes (paper: 73).
    pub n_malicious: usize,
    /// Store honest address books compactly (sizes only, no index vectors)
    /// and drive the campaign through the closed-form crawl
    /// (`Crawler::run_experiment`'s closed form). Required at full paper scale:
    /// materialized books cost ~34K unique nodes × 8K entries × 4 B ≈ 1 GB,
    /// and exhausting each of them through per-`GETADDR` simulation is
    /// ~10¹¹ operations per campaign. Flooder pools stay materialized in
    /// either mode (Figure 8 needs their exact addresses).
    pub sampled_crawl: bool,
}

impl CensusConfig {
    /// Full paper scale behind the fast paths: the paper's counts, with
    /// honest books compact and the campaign on the closed-form crawl,
    /// keeping a 60-day campaign (10K reachable snapshot, ~700K cumulative
    /// unreachable) within minutes on one core. This is what `repro
    /// --scale full` runs.
    pub fn full_scale() -> Self {
        CensusConfig {
            days: 60,
            reachable_online: 10_114,
            unreachable_live: 195_000,
            unreachable_daily_new: 8_470,
            book_mean: 8_000,
            n_malicious: 73,
            sampled_crawl: true,
        }
    }

    /// A 1:10 scale for fast experiments, with materialized books;
    /// fractions unchanged.
    pub fn one_tenth_scale() -> Self {
        CensusConfig {
            reachable_online: 1_011,
            unreachable_live: 19_500,
            unreachable_daily_new: 847,
            book_mean: 800,
            n_malicious: 7,
            sampled_crawl: false,
            ..Self::full_scale()
        }
    }

    /// A tiny configuration for unit tests, with materialized books.
    pub fn tiny() -> Self {
        CensusConfig {
            days: 10,
            reachable_online: 60,
            unreachable_live: 600,
            unreachable_daily_new: 40,
            book_mean: 100,
            n_malicious: 2,
            sampled_crawl: false,
        }
    }
}

/// An online interval, in fractional days since window start.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Session {
    /// Session start, days.
    pub start: f64,
    /// Session end, days.
    pub end: f64,
}

/// A reachable node in the census.
#[derive(Clone, Debug)]
pub struct CensusNode {
    /// Its endpoint.
    pub addr: NetAddr,
    /// Hosting AS.
    pub asn: u32,
    /// Online sessions within the window, ascending.
    pub sessions: Vec<Session>,
    /// Whether this is an ADDR flooder.
    pub malicious: bool,
    /// Index range of this node's address book in the unreachable pool
    /// (honest nodes), or the node's private fabricated pool (flooders).
    pub book: Vec<u32>,
    /// Indices of reachable census nodes this node also gossips (honest
    /// nodes only; the ~15% reachable share of real ADDR messages).
    pub book_reachable: Vec<u32>,
    /// Book size in unreachable-pool entries. Mirrors `book.len()` when
    /// books are materialized; under `CensusConfig::sampled_crawl` it is
    /// the only record honest nodes keep.
    pub book_size: u32,
    /// As `book_size`, for the reachable share of the book.
    pub book_reachable_size: u32,
    /// Whether it never leaves during the window.
    pub permanent: bool,
}

impl CensusNode {
    /// Whether the node is online at `day` (fractional days).
    pub fn online_at(&self, day: f64) -> bool {
        self.sessions.iter().any(|s| s.start <= day && day < s.end)
    }
}

/// One unreachable address in the pool.
#[derive(Clone, Copy, Debug)]
pub struct UnreachableAddr {
    /// The endpoint.
    pub addr: NetAddr,
    /// Hosting AS.
    pub asn: u32,
    /// Day the address first circulates.
    pub appears: f64,
    /// Day it stops circulating (leaves books thereafter).
    pub disappears: f64,
    /// Whether a VER probe gets a FIN response while it circulates.
    pub responsive: bool,
}

/// Fraction of reachable nodes that never leave (paper: 3,034 of 28,781
/// unique ≈ stable core of the ~10K snapshot). Their sessions come from
/// [`ChurnConfig::census`].
const PERMANENT_FRACTION: f64 = 0.30;

/// Fraction of unreachable addresses generated responsive. Set above the
/// paper's 23.5% *measured* cumulative fraction because flooder addresses
/// and already-expired entries dilute the measured value; 0.28 generation
/// lands the campaign at ≈23% measured.
const RESPONSIVE_FRACTION: f64 = 0.28;

/// Fraction of an honest node's ADDR gossip that references
/// reachable-class addresses (paper: 14.9% of ADDR entries).
const BOOK_REACHABLE_FRACTION: f64 = 0.13;

/// Fraction of flooders hosted in AS3320 (paper: 59%).
const MALICIOUS_AS3320_FRACTION: f64 = 0.59;

/// The materialized census network.
#[derive(Clone, Debug)]
pub struct CensusNetwork {
    /// Configuration used.
    pub cfg: CensusConfig,
    /// All reachable nodes that ever appear during the window.
    pub reachable: Vec<CensusNode>,
    /// All unreachable addresses that ever circulate.
    pub unreachable: Vec<UnreachableAddr>,
    /// Fabricated flooder addresses (disjoint from `unreachable`), indexed
    /// per flooder via `CensusNode::book` values offset by `flood_base`.
    pub flood_pool: Vec<NetAddr>,
    /// Book indices >= this refer to `flood_pool`.
    pub flood_base: u32,
    /// Set of all reachable endpoints ever (ground truth for classifying
    /// ADDR entries).
    pub reachable_addrs: HashSet<NetAddr>,
}

/// An exponential draw with mean `mean` days.
fn exp_days(rng: &mut SimRng, mean: f64) -> f64 {
    -rng.unit().max(1e-12).ln() * mean
}

impl CensusNetwork {
    /// Materializes a census network for the whole window, its sessions
    /// drawn from [`ChurnConfig::census`].
    pub fn generate(cfg: CensusConfig, rng: &mut SimRng) -> Self {
        Self::generate_under(cfg, ChurnConfig::census(), PERMANENT_FRACTION, rng)
    }

    /// [`CensusNetwork::generate`] under any churn regime: sessions and
    /// rejoins from `churn`, and a `permanent_fraction` of the initial
    /// snapshot that never leaves.
    fn generate_under(
        cfg: CensusConfig,
        churn: ChurnConfig,
        permanent_fraction: f64,
        rng: &mut SimRng,
    ) -> Self {
        let session_mean = churn.mean_lifetime.as_days_f64();
        let offline_gap = churn.mean_offline_gap.as_days_f64();
        let as_model = AsModel::from_paper();
        let mut used = IdSet::default();
        let horizon = cfg.days as f64;

        // --- Unreachable pool: initial live set plus daily turnover. ---
        // Live duration so that steady-state live count holds:
        // live ≈ daily_new × mean_live_days ⇒ mean ≈ live/daily_new.
        let mean_live = (cfg.unreachable_live as f64 / cfg.unreachable_daily_new as f64).max(1.0);
        let mut unreachable = Vec::new();
        let mut push_unreachable = |appears: f64, rng: &mut SimRng| {
            let responsive = rng.chance(RESPONSIVE_FRACTION);
            let class = if responsive {
                NodeClass::UnreachableResponsive
            } else {
                NodeClass::UnreachableSilent
            };
            let addr = fresh_addr(&mut used, 0.8854, rng);
            let asn = as_model.sample(class, rng);
            let disappears = appears + exp_days(rng, mean_live);
            unreachable.push(UnreachableAddr {
                addr,
                asn,
                appears,
                disappears,
                responsive,
            });
        };
        // Initial pool: appeared before the window; residual lifetime.
        for _ in 0..cfg.unreachable_live {
            push_unreachable(0.0, rng);
        }
        for day in 0..cfg.days {
            for _ in 0..cfg.unreachable_daily_new {
                push_unreachable(f64::from(day) + rng.unit(), rng);
            }
        }

        // --- Reachable nodes: initial snapshot plus churn arrivals. ---
        let mut reachable: Vec<CensusNode> = Vec::new();
        let mut reachable_addrs = HashSet::new();
        // Files a node online from `start`: a permanent node holds one
        // session over the window, any other draws sessions and rejoins;
        // a last session that ends inside the window joins `departures`.
        let mut join = |addr: NetAddr,
                        asn: u32,
                        start: f64,
                        malicious: bool,
                        permanent: bool,
                        departures: &mut Vec<f64>,
                        rng: &mut SimRng| {
            let mut sessions = Vec::new();
            if permanent {
                sessions.push(Session {
                    start: 0.0,
                    end: horizon,
                });
            } else {
                let mut t = start;
                loop {
                    let end = (t + exp_days(rng, session_mean)).min(horizon);
                    sessions.push(Session { start: t, end });
                    if end >= horizon || !rng.chance(churn.rejoin_probability) {
                        break;
                    }
                    t = end + exp_days(rng, offline_gap);
                    if t >= horizon {
                        break;
                    }
                }
            }
            if let Some(last) = sessions.last().filter(|s| s.end < horizon) {
                departures.push(last.end);
            }
            reachable_addrs.insert(addr);
            reachable.push(CensusNode {
                addr,
                asn,
                sessions,
                malicious,
                book: Vec::new(),
                book_reachable: Vec::new(),
                book_size: 0,
                book_reachable_size: 0,
                permanent,
            });
        };

        let mut departures = Vec::new();
        for i in 0..cfg.reachable_online {
            let malicious = i < cfg.n_malicious;
            let permanent = rng.chance(permanent_fraction) || malicious;
            let addr = fresh_addr(&mut used, 0.9578, rng);
            let asn = if malicious && rng.chance(MALICIOUS_AS3320_FRACTION) {
                3320
            } else {
                as_model.sample(NodeClass::Reachable, rng)
            };
            join(addr, asn, 0.0, malicious, permanent, &mut departures, rng);
        }

        // Replacement arrivals keep the online count roughly constant:
        // every terminal departure spawns a new node shortly after.
        // Replacement arrivals are never permanent; otherwise they draw
        // sessions and rejoins like the initial population.
        while let Some(depart_day) = departures.pop() {
            let start = depart_day + rng.unit() * 0.2;
            if start >= horizon {
                continue;
            }
            let addr = fresh_addr(&mut used, 0.9578, rng);
            let asn = as_model.sample(NodeClass::Reachable, rng);
            join(addr, asn, start, false, false, &mut departures, rng);
        }

        // --- Address books. ---
        let mut flood_pool: Vec<NetAddr> = Vec::new();
        let flood_base = unreachable.len() as u32;
        let n_unreach = unreachable.len();
        let n_reach_total = reachable.len();
        // Figure 8 plots *cumulative* addresses sent over the campaign; a
        // flooder reveals its whole pool each day, so its unique pool is
        // the target total divided by the window length, scaled with the
        // census size.
        let scale = cfg.unreachable_live as f64 / 195_000.0;
        for node in reachable.iter_mut() {
            if node.malicious {
                let total_target = bitsync_node::FloodScale::sample(rng) as f64 * scale.max(0.01);
                let size = ((total_target / cfg.days as f64).ceil() as usize).max(150);
                let start = flood_pool.len() as u32;
                for _ in 0..size {
                    flood_pool.push(fresh_addr(&mut used, 0.885, rng));
                }
                node.book = (start..start + size as u32)
                    .map(|i| flood_base + i)
                    .collect();
                node.book_size = size as u32;
            } else {
                // Log-normal-ish spread around the mean book size.
                let size = ((cfg.book_mean as f64) * rng.log_normal(0.0, 0.5))
                    .max(50.0)
                    .min(n_unreach as f64) as usize;
                // Reachable share r of the total book: r/(1-r) × unreachable.
                let reach_size = (size as f64 * BOOK_REACHABLE_FRACTION
                    / (1.0 - BOOK_REACHABLE_FRACTION))
                    .round() as usize;
                node.book_size = size as u32;
                node.book_reachable_size = reach_size as u32;
                if !cfg.sampled_crawl {
                    node.book = rng
                        .sample_indices(n_unreach, size)
                        .into_iter()
                        .map(|i| i as u32)
                        .collect();
                    node.book_reachable = rng
                        .sample_indices(n_reach_total, reach_size)
                        .into_iter()
                        .map(|i| i as u32)
                        .collect();
                }
            }
        }

        CensusNetwork {
            cfg,
            reachable,
            unreachable,
            flood_pool,
            flood_base,
            reachable_addrs,
        }
    }

    /// Endpoint → index over every reachable census node. Built once and
    /// reused, this replaces the linear `reachable` scans that are
    /// quadratic over a full-scale campaign.
    pub fn reachable_index(&self) -> std::collections::HashMap<NetAddr, usize> {
        self.reachable
            .iter()
            .enumerate()
            .map(|(i, n)| (n.addr, i))
            .collect()
    }

    /// Indices of reachable nodes online at fractional `day`.
    pub fn online_at(&self, day: f64) -> Vec<usize> {
        self.reachable
            .iter()
            .enumerate()
            .filter(|(_, n)| n.online_at(day))
            .map(|(i, _)| i)
            .collect()
    }

    /// Resolves a book index to an address.
    pub fn book_addr(&self, idx: u32) -> NetAddr {
        if idx >= self.flood_base {
            self.flood_pool[(idx - self.flood_base) as usize]
        } else {
            self.unreachable[idx as usize].addr
        }
    }

    /// Whether a book index points at an address still circulating at
    /// `day` (flooder addresses always circulate).
    pub fn book_live(&self, idx: u32, day: f64) -> bool {
        if idx >= self.flood_base {
            return true;
        }
        let u = &self.unreachable[idx as usize];
        u.appears <= day && day < u.disappears
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn_matrix::ChurnMatrix;

    fn tiny() -> CensusNetwork {
        let mut rng = SimRng::seed_from(1);
        CensusNetwork::generate(CensusConfig::tiny(), &mut rng)
    }

    #[test]
    fn initial_online_count_matches_config() {
        let net = tiny();
        let online = net.online_at(0.01);
        // All 60 initial nodes start online.
        assert!(online.len() >= 55, "online at start: {}", online.len());
    }

    #[test]
    fn online_count_stays_roughly_constant() {
        let net = tiny();
        for day in [2.0, 5.0, 9.0] {
            let online = net.online_at(day);
            assert!(
                (40..=80).contains(&online.len()),
                "day {day}: online {}",
                online.len()
            );
        }
    }

    #[test]
    fn unique_nodes_exceed_snapshot_size() {
        let net = tiny();
        assert!(
            net.reachable.len() > net.cfg.reachable_online,
            "uniques {} vs online {}",
            net.reachable.len(),
            net.cfg.reachable_online
        );
    }

    #[test]
    fn permanent_nodes_span_whole_window() {
        let net = tiny();
        let perms: Vec<&CensusNode> = net.reachable.iter().filter(|n| n.permanent).collect();
        assert!(!perms.is_empty());
        for p in perms {
            assert!(p.online_at(0.5) && p.online_at(9.5));
        }
    }

    #[test]
    fn cumulative_unreachable_grows() {
        let net = tiny();
        let at = |day: f64| net.unreachable.iter().filter(|u| u.appears <= day).count();
        assert!(at(9.0) > at(1.0));
        assert!(at(1.0) >= net.cfg.unreachable_live);
    }

    #[test]
    fn responsive_fraction_is_calibrated() {
        let mut rng = SimRng::seed_from(2);
        let net = CensusNetwork::generate(
            CensusConfig {
                unreachable_live: 10_000,
                ..CensusConfig::tiny()
            },
            &mut rng,
        );
        let resp = net.unreachable.iter().filter(|u| u.responsive).count();
        let frac = resp as f64 / net.unreachable.len() as f64;
        assert!((frac - 0.28).abs() < 0.02, "responsive {frac}");
    }

    #[test]
    fn flooder_books_point_into_flood_pool() {
        let net = tiny();
        let flooders: Vec<&CensusNode> = net.reachable.iter().filter(|n| n.malicious).collect();
        assert_eq!(flooders.len(), net.cfg.n_malicious);
        for f in flooders {
            assert!(f.book.len() >= 150);
            for &idx in &f.book {
                assert!(idx >= net.flood_base);
                // Flooder addresses are never reachable ground truth.
                assert!(!net.reachable_addrs.contains(&net.book_addr(idx)));
            }
        }
    }

    #[test]
    fn honest_books_reference_live_unreachables() {
        let net = tiny();
        let honest = net.reachable.iter().find(|n| !n.malicious).unwrap();
        assert!(!honest.book.is_empty());
        for &idx in honest.book.iter().take(50) {
            assert!(idx < net.flood_base);
            let a = net.book_addr(idx);
            assert!(!net.reachable_addrs.contains(&a));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = SimRng::seed_from(9);
        let mut b = SimRng::seed_from(9);
        let na = CensusNetwork::generate(CensusConfig::tiny(), &mut a);
        let nb = CensusNetwork::generate(CensusConfig::tiny(), &mut b);
        assert_eq!(na.reachable.len(), nb.reachable.len());
        assert_eq!(na.unreachable.len(), nb.unreachable.len());
        assert_eq!(na.reachable[0].addr, nb.reachable[0].addr);
    }

    #[test]
    fn compact_books_keep_sizes_but_not_indices() {
        let mut rng = SimRng::seed_from(1);
        let cfg = CensusConfig {
            sampled_crawl: true,
            ..CensusConfig::tiny()
        };
        let net = CensusNetwork::generate(cfg, &mut rng);
        for n in &net.reachable {
            if n.malicious {
                // Flooder pools stay materialized in compact mode.
                assert_eq!(n.book.len(), n.book_size as usize);
                assert!(n.book_size >= 150);
            } else {
                assert!(n.book.is_empty() && n.book_reachable.is_empty());
                assert!(n.book_size >= 50);
            }
        }
    }

    #[test]
    fn materialized_books_mirror_sizes() {
        let net = tiny();
        for n in &net.reachable {
            assert_eq!(n.book.len(), n.book_size as usize);
            assert_eq!(n.book_reachable.len(), n.book_reachable_size as usize);
        }
    }

    #[test]
    fn churn_regimes_order_by_their_measured_daily_departures() {
        // Each regime measured by Figs 12/13's own instrument on a
        // one-tenth census, instead of by a closed form no figure uses.
        let regimes = [
            ("census", ChurnConfig::census(), PERMANENT_FRACTION),
            // fig1 (`sync_kde`) runs both years at permanent fraction 0.25.
            ("paper_2020 / fig1", ChurnConfig::paper_2020(), 0.25),
            ("paper_2019 / fig1", ChurnConfig::paper_2019(), 0.25),
            // `WorldConfig`'s default, which ablation and resilience keep.
            (
                "paper_2020 / world default",
                ChurnConfig::paper_2020(),
                0.37,
            ),
        ];
        let cfg = CensusConfig {
            sampled_crawl: true,
            ..CensusConfig::one_tenth_scale()
        };
        let measured: Vec<f64> = regimes
            .iter()
            .map(|&(name, churn, permanent)| {
                let mut rng = SimRng::seed_from(2021);
                let net = CensusNetwork::generate_under(cfg.clone(), churn, permanent, &mut rng);
                let m = ChurnMatrix::build(&net, 1.0);
                let daily = m.daily_departure_fraction();
                println!(
                    "{name}: {:.2} % departures/day, {:.1}-day network lifetime",
                    daily * 100.0,
                    m.mean_lifetime_days()
                );
                daily
            })
            .collect();
        assert!(
            measured[0] > measured[1] && measured[1] > measured[2],
            "census > 2020 > 2019: {measured:?}"
        );
    }

    #[test]
    fn reachable_index_is_total_and_consistent() {
        let net = tiny();
        let index = net.reachable_index();
        assert_eq!(index.len(), net.reachable.len());
        for (i, n) in net.reachable.iter().enumerate() {
            assert_eq!(index[&n.addr], i);
        }
    }
}
