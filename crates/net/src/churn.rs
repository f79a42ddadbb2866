//! The churn process: node lifetimes, departures, arrivals, and rejoins.
//!
//! §IV-D of the paper measures that ~8.6% of reachable nodes (~708 of
//! ~8,270) leave the network daily, replaced by an equal number of new
//! nodes; mean node lifetime is 16.6 days; 3,034 nodes never left during
//! the 60-day window; and the churn among *synchronized* nodes doubled
//! between 2019 (3.9 departures / 10 min) and 2020 (7.6 / 10 min).
//!
//! [`ChurnConfig`] is the one description of a churn regime. The worlds
//! sample per-node session lifetimes and rejoin gaps from it, and the
//! 60-day census (`bitsync_crawler::census`) draws its sessions from
//! [`ChurnConfig::census`]. Both keep the population size constant by
//! pairing departures with arrivals, exactly as the paper observes
//! (Figure 13: arrivals ≈ departures).

use bitsync_sim::rng::SimRng;
use bitsync_sim::time::SimDuration;

/// Churn parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChurnConfig {
    /// Mean session lifetime of a non-permanent reachable node.
    pub mean_lifetime: SimDuration,
    /// Probability that a departed node eventually rejoins with the same
    /// address (Figure 12 shows reappearing rows).
    pub rejoin_probability: f64,
    /// Mean offline gap before a rejoin.
    pub mean_offline_gap: SimDuration,
}

impl ChurnConfig {
    /// The census regime, calibrated to Figs 12/13 (DESIGN §7): a 7-day
    /// session mean, rejoin probability 0.5 and a 36-hour offline gap.
    pub const fn census() -> Self {
        ChurnConfig {
            mean_lifetime: SimDuration::from_days(7),
            rejoin_probability: 0.5,
            mean_offline_gap: SimDuration::from_hours(36),
        }
    }

    /// The worlds' 2020 regime: the paper's 16.6-day *network lifetime* as
    /// the session mean, rejoin probability 0.35 and a 3-day offline gap.
    /// It churns at about half the census's daily rate (DESIGN §8).
    pub fn paper_2020() -> Self {
        ChurnConfig {
            mean_lifetime: SimDuration::from_secs((16.6 * 86_400.0) as u64),
            rejoin_probability: 0.35,
            mean_offline_gap: SimDuration::from_days(3),
        }
    }

    /// A 2019-like regime with roughly half the effective churn among
    /// synchronized nodes (the paper: 3.9 vs 7.6 synchronized departures
    /// per 10 minutes). Longer lifetimes produce proportionally fewer
    /// departures per unit time.
    pub fn paper_2019() -> Self {
        ChurnConfig {
            mean_lifetime: SimDuration::from_secs((2.0 * 16.6 * 86_400.0) as u64),
            ..Self::paper_2020()
        }
    }

    /// This regime compressed in time: lifetimes and offline gaps divided by
    /// `speedup` alike, so a short simulation window sees the same number of
    /// sessions per node; the rejoin probability is untouched.
    pub fn sped_up(self, speedup: f64) -> Self {
        let div = |d: SimDuration| SimDuration::from_secs_f64(d.as_secs_f64() / speedup);
        ChurnConfig {
            mean_lifetime: div(self.mean_lifetime),
            mean_offline_gap: div(self.mean_offline_gap),
            ..self
        }
    }

    /// Samples a session lifetime for a node; permanent nodes never leave.
    pub fn session_lifetime(&self, permanent: bool, rng: &mut SimRng) -> Option<SimDuration> {
        if permanent {
            return None;
        }
        Some(rng.exp_duration(self.mean_lifetime))
    }

    /// Samples whether/when a departed node rejoins.
    pub fn rejoin(&self, rng: &mut SimRng) -> Rejoin {
        if rng.chance(self.rejoin_probability) {
            Rejoin::After(rng.exp_duration(self.mean_offline_gap))
        } else {
            Rejoin::Never
        }
    }
}

/// Whether, and after how long, a departed node comes back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rejoin {
    /// The address never reappears.
    Never,
    /// The node rejoins after the given offline gap.
    After(SimDuration),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn census_means_are_exact_in_days() {
        // The census draws its sessions in fractional days; exact 7.0 and
        // 1.5 keep its draws bit for bit what they were as literals.
        let census = ChurnConfig::census();
        assert_eq!(census.mean_lifetime.as_days_f64(), 7.0);
        assert_eq!(census.mean_offline_gap.as_days_f64(), 1.5);
    }

    #[test]
    fn lifetimes_have_configured_mean() {
        let churn = ChurnConfig::paper_2020();
        let mut rng = SimRng::seed_from(1);
        let n = 10_000;
        let total: f64 = (0..n)
            .map(|_| {
                churn
                    .session_lifetime(false, &mut rng)
                    .unwrap()
                    .as_days_f64()
            })
            .sum();
        let mean = total / n as f64;
        assert!((mean - 16.6).abs() < 0.6, "mean lifetime {mean} days");
    }

    #[test]
    fn permanent_nodes_never_leave() {
        let churn = ChurnConfig::paper_2020();
        let mut rng = SimRng::seed_from(2);
        assert_eq!(churn.session_lifetime(true, &mut rng), None);
    }

    #[test]
    fn rejoin_probability_respected() {
        let churn = ChurnConfig::paper_2020();
        let mut rng = SimRng::seed_from(3);
        let n = 10_000;
        let rejoins = (0..n)
            .filter(|_| matches!(churn.rejoin(&mut rng), Rejoin::After(_)))
            .count();
        let frac = rejoins as f64 / n as f64;
        assert!((frac - 0.35).abs() < 0.03, "rejoin fraction {frac}");
    }

    #[test]
    fn sped_up_divides_both_durations_and_nothing_else() {
        let base = ChurnConfig::paper_2020();
        let fast = base.sped_up(24.0);
        assert_eq!(
            fast.mean_lifetime,
            SimDuration::from_secs_f64(base.mean_lifetime.as_secs_f64() / 24.0)
        );
        assert_eq!(fast.mean_offline_gap, SimDuration::from_hours(3));
        assert_eq!(fast.rejoin_probability, base.rejoin_probability);
        assert_eq!(base.sped_up(1.0), base);
    }

    #[test]
    fn year_2019_has_half_the_churn_rate() {
        // Sessions twice as long: half the departures per unit time.
        let (y19, y20) = (ChurnConfig::paper_2019(), ChurnConfig::paper_2020());
        let ratio = y19.mean_lifetime.as_secs_f64() / y20.mean_lifetime.as_secs_f64();
        assert!((ratio - 2.0).abs() < 1e-6, "lifetime ratio {ratio}");
        assert_eq!(y19.mean_offline_gap, y20.mean_offline_gap);
    }
}
