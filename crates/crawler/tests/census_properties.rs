//! Property tests over the census model and crawl pipeline.

use bitsync_crawler::census::{CensusConfig, CensusNetwork};
use bitsync_crawler::crawl::{probe_responsive, Crawler};
use bitsync_sim::rng::SimRng;
use bitsync_sim::Instruments;
use proptest::prelude::*;

fn tiny(seed: u64, n_reach: usize, n_unreach: usize) -> CensusNetwork {
    let mut rng = SimRng::seed_from(seed);
    CensusNetwork::generate(
        CensusConfig {
            reachable_online: n_reach.max(5),
            unreachable_live: n_unreach.max(50),
            unreachable_daily_new: (n_unreach / 15).max(5),
            book_mean: 40,
            n_malicious: 1,
            days: 8,
            ..CensusConfig::tiny()
        },
        &mut rng,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Sessions are well-formed: within the window, ascending, disjoint.
    #[test]
    fn sessions_are_well_formed(seed in any::<u64>(), n in 5usize..40) {
        let net = tiny(seed, n, 200);
        for node in &net.reachable {
            let mut prev_end = f64::MIN;
            for s in &node.sessions {
                prop_assert!(s.start < s.end + 1e-12, "empty session");
                prop_assert!(s.start >= prev_end - 1e-12, "overlapping sessions");
                prop_assert!(s.end <= net.cfg.days as f64 + 1e-9);
                prev_end = s.end;
            }
        }
    }

    /// Everything a crawl reveals exists in ground truth, and the
    /// unreachable set never contains a reachable address.
    #[test]
    fn crawl_results_are_grounded(seed in any::<u64>()) {
        let mut rng = SimRng::seed_from(seed ^ 0xc0ffee);
        let net = tiny(seed, 25, 300);
        let day = 2.5;
        let candidates: Vec<_> = net
            .online_at(day)
            .into_iter()
            .map(|i| net.reachable[i].addr)
            .collect();
        let result = Crawler::run_experiment(&net, &net.reachable_index(), &candidates, day, &mut rng, &Instruments::default());
        for a in &result.unreachable_found {
            prop_assert!(!net.reachable_addrs.contains(a));
        }
        // Responsive is a subset of found, each genuinely responsive.
        let resp = probe_responsive(&net, &result.unreachable_found, day);
        for a in &resp {
            prop_assert!(result.unreachable_found.contains(a));
        }
        prop_assert!(result.connected <= candidates.len());
    }

    /// Unreachable addresses circulate for a positive interval and the
    /// cumulative count is monotone over days.
    #[test]
    fn unreachable_pool_monotone(seed in any::<u64>()) {
        let net = tiny(seed, 10, 200);
        for u in &net.unreachable {
            prop_assert!(u.disappears > u.appears);
        }
        let mut prev = 0;
        for d in 0..net.cfg.days {
            let seen = net
                .unreachable
                .iter()
                .filter(|u| u.appears <= d as f64 + 0.5)
                .count();
            prop_assert!(seen >= prev);
            prev = seen;
        }
    }
}
