//! Summary statistics used across the experiment reports.

use bitsync_json::{ToJson, Value};

/// Basic distribution summary.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
}

impl Summary {
    /// Summarizes `values`. Returns `None` for empty input.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
        Some(Summary {
            n,
            mean,
            median: percentile_sorted(&sorted, 50.0),
            min: sorted[0],
            max: sorted[n - 1],
            std_dev: var.sqrt(),
        })
    }
}

impl ToJson for Summary {
    fn to_json(&self) -> Value {
        Value::object()
            .with("n", self.n)
            .with("mean", self.mean)
            .with("median", self.median)
            .with("min", self.min)
            .with("max", self.max)
            .with("std_dev", self.std_dev)
    }
}

/// The `p`-th percentile of pre-sorted values (linear interpolation).
///
/// # Panics
///
/// Panics if `sorted` is empty or `p` is outside `[0, 100]`.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// The `p`-th percentile of unsorted values.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    percentile_sorted(&sorted, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_values() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.n, 5);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert!((s.std_dev - 1.5811).abs() < 1e-3);
    }

    #[test]
    fn summary_empty_is_none() {
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn summary_single_value() {
        let s = Summary::of(&[7.0]).unwrap();
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.median, 7.0);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [0.0, 10.0];
        assert_eq!(percentile(&v, 0.0), 0.0);
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 25.0), 2.5);
    }

    #[test]
    fn percentile_unsorted_input() {
        let v = [9.0, 1.0, 5.0];
        assert_eq!(percentile(&v, 50.0), 5.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_empty_panics() {
        percentile_sorted(&[], 50.0);
    }
}
