//! The longitudinal census experiment: one run of the 60-day measurement
//! campaign, producing Figures 3, 4, 5, 8, 12, 13, Table I, and the §IV-B
//! ADDR-composition split.

use crate::experiments::registry::{Experiment, Scale};
use bitsync_analysis::as_concentration::AsConcentration;
use bitsync_crawler::campaign::{Campaign, CampaignResult};
use bitsync_crawler::census::{CensusConfig, CensusNetwork};
use bitsync_crawler::churn_matrix::ChurnMatrix;
use bitsync_json::{ToJson, Value};
use bitsync_protocol::addr::NetAddr;
use bitsync_sim::rng::SimRng;
use bitsync_sim::Instruments;
use std::collections::HashSet;

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct CensusExperimentConfig {
    /// Random seed.
    pub seed: u64,
    /// Census scale.
    pub census: CensusConfig,
    /// Campaign settings.
    pub campaign: Campaign,
}

impl CensusExperimentConfig {
    /// Full paper scale through the sampled crawl and compact books — the
    /// `--scale full` configuration, sized to finish in minutes on one
    /// core (see EXPERIMENTS.md).
    pub fn full(seed: u64) -> Self {
        CensusExperimentConfig {
            seed,
            census: CensusConfig::full_scale(),
            campaign: Campaign::default(),
        }
    }

    /// 1:10 scale — the default for benches; multiply counts by 10 to
    /// compare against the paper.
    pub fn one_tenth(seed: u64) -> Self {
        CensusExperimentConfig {
            seed,
            census: CensusConfig::one_tenth_scale(),
            campaign: Campaign::default(),
        }
    }

    /// Tiny scale for tests.
    pub fn quick(seed: u64) -> Self {
        CensusExperimentConfig {
            seed,
            census: CensusConfig::tiny(),
            campaign: Campaign { probe_start_day: 2 },
        }
    }
}

/// Table I reproduction: top ASes per class and the hijack metric.
#[derive(Clone, Debug)]
pub struct AsReport {
    /// (ASN, percent) for the top 20 reachable-hosting ASes.
    pub top_reachable: Vec<(u32, f64)>,
    /// Same for unreachable.
    pub top_unreachable: Vec<(u32, f64)>,
    /// Same for responsive.
    pub top_responsive: Vec<(u32, f64)>,
    /// Distinct ASes hosting each class.
    pub distinct: (usize, usize, usize),
    /// ASes needed to cover 50% of each class (paper: 25 / 36 / 24).
    pub to_cover_half: (usize, usize, usize),
}

impl ToJson for AsReport {
    fn to_json(&self) -> Value {
        let shares = |top: &[(u32, f64)]| -> Value {
            Value::Array(
                top.iter()
                    .map(|&(asn, pct)| Value::object().with("asn", asn).with("percent", pct))
                    .collect(),
            )
        };
        let triple = |(a, b, c): (usize, usize, usize)| -> Value {
            Value::object()
                .with("reachable", a)
                .with("unreachable", b)
                .with("responsive", c)
        };
        Value::object()
            .with("top_reachable", shares(&self.top_reachable))
            .with("top_unreachable", shares(&self.top_unreachable))
            .with("top_responsive", shares(&self.top_responsive))
            .with("distinct", triple(self.distinct))
            .with("to_cover_half", triple(self.to_cover_half))
    }
}

/// The full census experiment output.
#[derive(Clone, Debug)]
pub struct CensusExperimentResult {
    /// The materialized ground truth (kept for follow-up analyses).
    pub network: CensusNetwork,
    /// The campaign's daily series and aggregates.
    pub campaign: CampaignResult,
    /// The churn matrix (Figure 12).
    pub matrix: ChurnMatrix,
    /// Table I reproduction.
    pub as_report: AsReport,
    /// Detected malicious senders: (address, total unreachable addrs sent)
    /// sorted descending (Figure 8).
    pub malicious: Vec<(NetAddr, u64)>,
}

impl CensusExperimentResult {
    /// The unreachable:reachable size ratio (paper: ~24× cumulative).
    pub fn unreachable_ratio(&self) -> f64 {
        let reach = self.campaign.all_connected.len().max(1);
        self.campaign.all_unreachable.len() as f64 / reach as f64
    }

    /// Responsive share of all unreachable addresses (paper: 23.5%).
    pub fn responsive_fraction(&self) -> f64 {
        let u = self.campaign.all_unreachable.len().max(1);
        self.campaign.all_responsive.len() as f64 / u as f64
    }
}

impl ToJson for CensusExperimentResult {
    /// A digest of the campaign: the ground-truth `network` and the raw
    /// per-address aggregates stay in memory only; the serialized view keeps
    /// the daily series, Table I, and the headline ratios.
    fn to_json(&self) -> Value {
        let last = self.campaign.days.last();
        Value::object()
            .with("days", self.campaign.days.len())
            .with("as_report", &self.as_report)
            .with("unreachable_ratio", self.unreachable_ratio())
            .with("responsive_fraction", self.responsive_fraction())
            .with(
                "reachable_addr_fraction",
                self.campaign.reachable_addr_fraction(),
            )
            .with(
                "unreachable_cumulative",
                last.map(|d| d.unreachable_cumulative),
            )
            .with(
                "responsive_cumulative",
                last.map(|d| d.responsive_cumulative),
            )
            .with("connected_unique", self.campaign.all_connected.len())
            .with("malicious_detected", self.malicious.len())
            .with(
                "malicious_top_served",
                self.malicious.iter().map(|&(_, n)| n).collect::<Vec<_>>(),
            )
            .with("matrix_always_present", self.matrix.always_present())
    }
}

/// Runs the census experiment, reporting into `ins`: crawler and probe
/// metrics, one trace event per crawled node, and one timeseries row per
/// campaign day (the census has no event queue; the day is its natural
/// sampling window).
pub fn run(cfg: &CensusExperimentConfig, ins: &Instruments) -> CensusExperimentResult {
    let mut rng = SimRng::seed_from(cfg.seed);
    let network = CensusNetwork::generate(cfg.census.clone(), &mut rng);
    let campaign = cfg.campaign.run(&network, &mut rng, ins);
    let matrix = ChurnMatrix::build(&network, 1.0);

    // Table I: classify by ground truth. Responsive nodes are the
    // *probed-responsive* subset; unreachable covers the rest.
    let reach_asns: Vec<u32> = network.reachable.iter().map(|n| n.asn).collect();
    let responsive_set: &HashSet<NetAddr> = &campaign.all_responsive;
    let mut unreach_asns = Vec::new();
    let mut resp_asns = Vec::new();
    for u in &network.unreachable {
        if !campaign.all_unreachable.contains(&u.addr) {
            continue; // never observed by the crawler
        }
        unreach_asns.push(u.asn);
        if responsive_set.contains(&u.addr) {
            resp_asns.push(u.asn);
        }
    }
    let reach = AsConcentration::from_asns(reach_asns);
    let unreach = AsConcentration::from_asns(unreach_asns);
    let resp = AsConcentration::from_asns(resp_asns);
    let top = |c: &AsConcentration| -> Vec<(u32, f64)> {
        c.top(20).iter().map(|s| (s.asn, s.percent)).collect()
    };
    let as_report = AsReport {
        top_reachable: top(&reach),
        top_unreachable: top(&unreach),
        top_responsive: top(&resp),
        distinct: (
            reach.distinct_ases,
            unreach.distinct_ases,
            resp.distinct_ases,
        ),
        to_cover_half: (
            reach.ases_to_cover(0.5),
            unreach.ases_to_cover(0.5),
            resp.ases_to_cover(0.5),
        ),
    };

    let malicious = campaign.detect_malicious(1000);
    CensusExperimentResult {
        network,
        campaign,
        matrix,
        as_report,
        malicious,
    }
}

/// Registry row for the 60-day measurement campaign.
pub const EXPERIMENT: Experiment = Experiment {
    name: "census",
    artifact: "census",
    paper_targets: &[
        "Fig. 3 feed composition",
        "Fig. 4 unreachable census",
        "Fig. 5 responsive census",
        "Fig. 8 ADDR flooders",
        "Figs. 12/13 churn matrix",
        "Table I AS concentration",
        "§IV-B ADDR mix",
    ],
    run: |scale, seed, ins| {
        let cfg = match scale {
            Scale::Quick => CensusExperimentConfig::quick(seed),
            Scale::Scaled => CensusExperimentConfig::one_tenth(seed),
            Scale::Full => CensusExperimentConfig::full(seed),
        };
        let r = run(&cfg, ins);
        (r.to_json(), crate::report::render_census(&r))
    },
};

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> CensusExperimentResult {
        run(&CensusExperimentConfig::quick(17), &Instruments::default())
    }

    #[test]
    fn figure4_series_shapes() {
        let r = result();
        let days = &r.campaign.days;
        // Per-experiment counts hover near the live pool; cumulative grows
        // past it.
        let last = days.last().unwrap();
        assert!(last.unreachable_cumulative > last.unreachable_today);
        assert!(last.unreachable_cumulative > r.network.cfg.unreachable_live);
    }

    #[test]
    fn figure5_starts_late_and_grows() {
        let r = result();
        assert_eq!(r.campaign.days[0].responsive_today, 0);
        assert!(r.campaign.days.last().unwrap().responsive_cumulative > 0);
    }

    #[test]
    fn unreachable_dwarfs_reachable() {
        let r = result();
        assert!(
            r.unreachable_ratio() > 3.0,
            "ratio {}",
            r.unreachable_ratio()
        );
    }

    #[test]
    fn responsive_fraction_near_paper() {
        let r = result();
        let f = r.responsive_fraction();
        assert!(f > 0.10 && f < 0.35, "responsive fraction {f}");
    }

    #[test]
    fn addr_mix_mostly_unreachable() {
        let r = result();
        let f = r.campaign.reachable_addr_fraction();
        assert!(f < 0.35, "reachable ADDR fraction {f}");
    }

    #[test]
    fn table1_shape() {
        let r = result();
        assert!(!r.as_report.top_reachable.is_empty());
        let (a, b, c) = r.as_report.to_cover_half;
        assert!(a >= 1 && b >= 1 && c >= 1);
        // Percentages descend.
        for w in r.as_report.top_unreachable.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn figure8_detection_matches_ground_truth() {
        let r = result();
        let flooders: HashSet<NetAddr> = r
            .network
            .reachable
            .iter()
            .filter(|n| n.malicious)
            .map(|n| n.addr)
            .collect();
        assert_eq!(r.malicious.len(), flooders.len());
        for (addr, _) in &r.malicious {
            assert!(flooders.contains(addr));
        }
    }

    #[test]
    fn figure12_matrix_dimensions() {
        let r = result();
        assert_eq!(r.matrix.cols, r.network.cfg.days as usize);
        assert_eq!(r.matrix.rows, r.network.reachable.len());
        assert!(r.matrix.always_present() > 0);
    }
}
