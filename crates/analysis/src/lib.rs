#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! `bitsync-analysis` — the statistics layer every experiment report uses;
//! each module feeds a report, a bundle file or a test of one:
//!
//! - [`stats`]: summaries and percentiles.
//! - [`kde`]: Gaussian kernel density estimation (Figure 1).
//! - [`as_concentration`]: Table I shares and the hijack-k-ASes metric.
//! - [`routing`]: the greedy hijack plan of the §IV-A1 partition attack.
//! - [`churn`]: synchronized departures per 10-minute window (§IV-D).
//! - [`propagation`]: the `ceil(log_d N)` gossip-rounds model and the
//!   effective-outdegree renewal argument (§IV-B).
//! - [`relay_replay`]: the relay-delay histogram replayed from trace events.
//! - [`rootcause`]: the four-cause attribution of sync deltas.
//! - [`ascii_plot`]: sparklines for the text reports.
//!
//! # Examples
//!
//! ```
//! use bitsync_analysis::propagation::rounds_to_cover;
//! assert_eq!(rounds_to_cover(10_000, 8.0), 5);
//! ```

pub mod as_concentration;
pub mod ascii_plot;
pub mod churn;
pub mod kde;
pub mod propagation;
pub mod relay_replay;
pub mod rootcause;
pub mod routing;
pub mod stats;

pub use as_concentration::{AsConcentration, AsShare};
pub use ascii_plot::{sparkline, sparkline_fit};
pub use churn::{mean_synchronized_departures, Departure};
pub use kde::Kde;
pub use propagation::{effective_outdegree, rounds_to_cover};
pub use relay_replay::replay_relay_histogram;
pub use rootcause::{attribute, RootCauseReport};
pub use routing::{plan_hijack, HijackPlan};
pub use stats::{percentile, Summary};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Percentiles are monotone in p and bounded by min/max.
        #[test]
        fn percentile_monotone(mut values in proptest::collection::vec(-1e6f64..1e6, 1..100),
                               p1 in 0f64..=100.0, p2 in 0f64..=100.0) {
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            let a = percentile(&values, lo);
            let b = percentile(&values, hi);
            prop_assert!(a <= b + 1e-9);
            values.sort_by(|x, y| x.partial_cmp(y).unwrap());
            prop_assert!(a >= values[0] - 1e-9);
            prop_assert!(b <= values[values.len() - 1] + 1e-9);
        }

        /// KDE density is non-negative everywhere and positive at samples.
        #[test]
        fn kde_nonnegative(samples in proptest::collection::vec(-100f64..100.0, 1..50),
                           x in -200f64..200.0) {
            let kde = Kde::fit(&samples).unwrap();
            prop_assert!(kde.density(x) >= 0.0);
            prop_assert!(kde.density(samples[0]) > 0.0);
        }

        /// AS concentration: shares sum to ~100%, covering 100% needs all
        /// ASes, covering is monotone in the fraction.
        #[test]
        fn concentration_invariants(asns in proptest::collection::vec(0u32..50, 1..300)) {
            let c = AsConcentration::from_asns(asns.clone());
            let total_pct: f64 = c.ranked.iter().map(|s| s.percent).sum();
            prop_assert!((total_pct - 100.0).abs() < 1e-6);
            prop_assert!(c.ases_to_cover(0.3) <= c.ases_to_cover(0.8));
            prop_assert_eq!(c.ases_to_cover(1.0), c.distinct_ases);
        }

        /// Gossip rounds: coverage really is achieved, and one fewer round
        /// would not suffice.
        #[test]
        fn rounds_are_tight(n in 2u64..10_000_000, d in 2f64..64.0) {
            let r = rounds_to_cover(n, d);
            prop_assert!(d.powi(r as i32) >= n as f64);
            if r > 0 {
                prop_assert!(d.powi(r as i32 - 1) < n as f64);
            }
        }
    }
}
