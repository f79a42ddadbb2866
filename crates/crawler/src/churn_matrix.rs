//! Algorithm 4: the churn binary matrix and its derived statistics
//! (Figures 12 and 13, and the 16.6-day mean-lifetime estimate behind the
//! §V `tried`-horizon proposal).

use crate::census::CensusNetwork;

/// The binary membership matrix: rows are unique reachable addresses,
/// columns are sampling instants; `1` means present.
#[derive(Clone, Debug)]
pub struct ChurnMatrix {
    /// Row-major bits: `rows × cols`.
    bits: Vec<bool>,
    /// Number of unique addresses (rows).
    pub rows: usize,
    /// Number of samples (columns).
    pub cols: usize,
    /// Sampling interval in days.
    pub interval_days: f64,
}

impl ChurnMatrix {
    /// Builds the matrix by sampling `net` every `interval_days` over the
    /// whole window (the paper sampled daily for Figure 12 and compared
    /// consecutive snapshots for Figure 13).
    pub fn build(net: &CensusNetwork, interval_days: f64) -> Self {
        assert!(interval_days > 0.0, "sampling interval must be positive");
        let horizon = net.cfg.days as f64;
        let cols = (horizon / interval_days).floor() as usize;
        let rows = net.reachable.len();
        let mut bits = vec![false; rows * cols];
        for (r, node) in net.reachable.iter().enumerate() {
            for c in 0..cols {
                let t = (c as f64 + 0.5) * interval_days;
                if node.online_at(t) {
                    bits[r * cols + c] = true;
                }
            }
        }
        ChurnMatrix {
            bits,
            rows,
            cols,
            interval_days,
        }
    }

    /// Whether address `row` was present in sample `col`.
    pub fn get(&self, row: usize, col: usize) -> bool {
        self.bits[row * self.cols + col]
    }

    /// Number of addresses present in sample `col`.
    pub fn present_at(&self, col: usize) -> usize {
        (0..self.rows).filter(|&r| self.get(r, col)).count()
    }

    /// Rows present in every sample — the paper found 3,034 such always-on
    /// nodes over 60 days.
    pub fn always_present(&self) -> usize {
        (0..self.rows)
            .filter(|&r| (0..self.cols).all(|c| self.get(r, c)))
            .count()
    }

    /// Departures per column: rows whose bit flips 1 → 0 at this column.
    pub fn departures(&self) -> Vec<usize> {
        (1..self.cols)
            .map(|c| {
                (0..self.rows)
                    .filter(|&r| self.get(r, c - 1) && !self.get(r, c))
                    .count()
            })
            .collect()
    }

    /// Arrivals per column: rows whose bit flips 0 → 1.
    pub fn arrivals(&self) -> Vec<usize> {
        (1..self.cols)
            .map(|c| {
                (0..self.rows)
                    .filter(|&r| !self.get(r, c - 1) && self.get(r, c))
                    .count()
            })
            .collect()
    }

    /// Rows that reappear after an absence (rejoining nodes, the
    /// "reappearing lines" of Figure 12).
    pub fn rejoining_rows(&self) -> usize {
        (0..self.rows)
            .filter(|&r| {
                let mut seen_gap_after_presence = false;
                let mut was_present = false;
                let mut in_gap = false;
                for c in 0..self.cols {
                    match (self.get(r, c), was_present, in_gap) {
                        (true, true, true) => {
                            seen_gap_after_presence = true;
                            break;
                        }
                        (true, _, _) => {
                            was_present = true;
                            in_gap = false;
                        }
                        (false, true, _) => in_gap = true,
                        _ => {}
                    }
                }
                seen_gap_after_presence
            })
            .count()
    }

    /// The mean network lifetime in days: average span from a row's first
    /// to last presence (the paper: 16.6 days, motivating the 17-day
    /// `tried` horizon).
    pub fn mean_lifetime_days(&self) -> f64 {
        let mut total = 0.0;
        let mut count = 0usize;
        for r in 0..self.rows {
            let first = (0..self.cols).find(|&c| self.get(r, c));
            let last = (0..self.cols).rev().find(|&c| self.get(r, c));
            if let (Some(f), Some(l)) = (first, last) {
                total += (l - f + 1) as f64 * self.interval_days;
                count += 1;
            }
        }
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    }

    /// Mean daily departure rate as a fraction of the mean snapshot size
    /// (the paper: ~708 of ~8,270 ≈ 8.6% per day).
    pub fn daily_departure_fraction(&self) -> f64 {
        let deps = self.departures();
        if deps.is_empty() {
            return 0.0;
        }
        let per_interval: f64 = deps.iter().sum::<usize>() as f64 / deps.len() as f64;
        let per_day = per_interval / self.interval_days;
        let mean_present: f64 = (0..self.cols)
            .map(|c| self.present_at(c) as f64)
            .sum::<f64>()
            / self.cols as f64;
        if mean_present == 0.0 {
            0.0
        } else {
            per_day / mean_present
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::census::{CensusConfig, CensusNetwork};
    use bitsync_sim::rng::SimRng;

    fn matrix() -> ChurnMatrix {
        let mut rng = SimRng::seed_from(21);
        let net = CensusNetwork::generate(CensusConfig::tiny(), &mut rng);
        ChurnMatrix::build(&net, 1.0)
    }

    #[test]
    fn dimensions_match_window() {
        let m = matrix();
        assert_eq!(m.cols, 10); // tiny config: 10 days, daily samples
        assert!(m.rows >= 60);
    }

    #[test]
    fn always_present_rows_are_permanent() {
        let m = matrix();
        let always = m.always_present();
        assert!(always > 0, "no always-on nodes");
        assert!(always < m.rows, "everyone always on");
    }

    #[test]
    fn arrivals_roughly_balance_departures() {
        let m = matrix();
        let a: usize = m.arrivals().iter().sum();
        let d: usize = m.departures().iter().sum();
        // Replacement arrivals keep the network size steady, so totals are
        // of the same order (Figure 13).
        assert!(a > 0 && d > 0);
        let ratio = a as f64 / d as f64;
        assert!((0.4..=2.5).contains(&ratio), "arrival/departure {ratio}");
    }

    #[test]
    fn lifetime_is_within_window() {
        let m = matrix();
        let l = m.mean_lifetime_days();
        assert!(l > 0.0 && l <= 10.0, "mean lifetime {l}");
    }

    #[test]
    fn some_rows_rejoin() {
        // Rejoins exist (`ChurnConfig::census()`: probability 0.5) over 10
        // days in a 60-node network — but are probabilistic; use a bigger
        // net.
        let mut rng = SimRng::seed_from(22);
        let net = CensusNetwork::generate(
            CensusConfig {
                reachable_online: 300,
                ..CensusConfig::tiny()
            },
            &mut rng,
        );
        let m = ChurnMatrix::build(&net, 1.0);
        assert!(m.rejoining_rows() > 0);
    }

    #[test]
    fn daily_departure_fraction_sane() {
        let mut rng = SimRng::seed_from(23);
        let net = CensusNetwork::generate(
            CensusConfig {
                reachable_online: 500,
                days: 30,
                ..CensusConfig::tiny()
            },
            &mut rng,
        );
        let m = ChurnMatrix::build(&net, 1.0);
        let f = m.daily_departure_fraction();
        // Calibration target: the paper's ~8.6%/day.
        assert!(f > 0.02 && f < 0.15, "daily departure fraction {f}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_panics() {
        let mut rng = SimRng::seed_from(24);
        let net = CensusNetwork::generate(CensusConfig::tiny(), &mut rng);
        ChurnMatrix::build(&net, 0.0);
    }

    #[test]
    fn present_at_consistent_with_get() {
        let m = matrix();
        for c in [0, m.cols / 2, m.cols - 1] {
            let direct = (0..m.rows).filter(|&r| m.get(r, c)).count();
            assert_eq!(m.present_at(c), direct);
        }
    }
}
