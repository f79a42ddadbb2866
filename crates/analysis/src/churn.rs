//! Churn-series analysis (§IV-D): synchronized-departure counting per
//! 10-minute window (the paper's 3.9 → 7.6 result separating 2019 from
//! 2020).

/// A departure event with its synchronization state, timestamped in
/// seconds — the input for the synchronized-churn comparison.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Departure {
    /// Event time, seconds since scenario start.
    pub at_secs: u64,
    /// Whether the departing node was synchronized.
    pub synchronized: bool,
}

/// Counts synchronized departures per window of `window_secs` (the paper
/// uses 10 minutes) and returns the per-window series.
pub fn synchronized_departures_per_window(
    departures: &[Departure],
    horizon_secs: u64,
    window_secs: u64,
) -> Vec<usize> {
    assert!(window_secs > 0, "window must be positive");
    let n_windows = (horizon_secs / window_secs) as usize;
    let mut out = vec![0usize; n_windows];
    for d in departures {
        if d.synchronized {
            let w = (d.at_secs / window_secs) as usize;
            if w < n_windows {
                out[w] += 1;
            }
        }
    }
    out
}

/// Mean of the per-window synchronized departures — the 3.9-vs-7.6 metric.
pub fn mean_synchronized_departures(
    departures: &[Departure],
    horizon_secs: u64,
    window_secs: u64,
) -> f64 {
    let windows = synchronized_departures_per_window(departures, horizon_secs, window_secs);
    if windows.is_empty() {
        0.0
    } else {
        windows.iter().sum::<usize>() as f64 / windows.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_sync_departures() {
        let deps = vec![
            Departure {
                at_secs: 100,
                synchronized: true,
            },
            Departure {
                at_secs: 200,
                synchronized: false,
            },
            Departure {
                at_secs: 650,
                synchronized: true,
            },
            Departure {
                at_secs: 700,
                synchronized: true,
            },
            Departure {
                at_secs: 1500,
                synchronized: true,
            },
        ];
        let windows = synchronized_departures_per_window(&deps, 1800, 600);
        assert_eq!(windows, vec![1, 2, 1]);
        assert!((mean_synchronized_departures(&deps, 1800, 600) - 4.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn events_past_horizon_ignored() {
        let deps = vec![Departure {
            at_secs: 5000,
            synchronized: true,
        }];
        let windows = synchronized_departures_per_window(&deps, 1200, 600);
        assert_eq!(windows, vec![0, 0]);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_panics() {
        synchronized_departures_per_window(&[], 100, 0);
    }
}
