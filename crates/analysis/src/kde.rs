//! Gaussian kernel density estimation — the tool behind Figure 1's
//! synchronization-distribution comparison between 2019 and 2020.

use crate::stats::Summary;

/// A Gaussian KDE over one-dimensional samples.
///
/// # Examples
///
/// ```
/// use bitsync_analysis::kde::Kde;
///
/// let kde = Kde::fit(&[0.70, 0.72, 0.71, 0.74, 0.69]).unwrap();
/// assert!(kde.density(0.71) > kde.density(0.30));
/// ```
#[derive(Clone, Debug)]
pub struct Kde {
    samples: Vec<f64>,
    bandwidth: f64,
}

impl Kde {
    /// Fits a KDE with Silverman's rule-of-thumb bandwidth. Returns `None`
    /// for empty input.
    pub fn fit(samples: &[f64]) -> Option<Kde> {
        let summary = Summary::of(samples)?;
        let n = samples.len() as f64;
        // Silverman: 0.9 * min(sd, IQR/1.34) * n^(-1/5); fall back to sd.
        let iqr = crate::stats::percentile(samples, 75.0) - crate::stats::percentile(samples, 25.0);
        let spread = if iqr > 0.0 {
            summary.std_dev.min(iqr / 1.34)
        } else {
            summary.std_dev
        };
        let bandwidth = if spread > 0.0 {
            0.9 * spread * n.powf(-0.2)
        } else {
            1e-3 // degenerate: all samples identical
        };
        Some(Kde {
            samples: samples.to_vec(),
            bandwidth,
        })
    }

    /// The bandwidth in use.
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth
    }

    /// Density estimate at `x`.
    pub fn density(&self, x: f64) -> f64 {
        let h = self.bandwidth;
        let norm = 1.0 / ((self.samples.len() as f64) * h * (2.0 * std::f64::consts::PI).sqrt());
        self.samples
            .iter()
            .map(|&s| (-(x - s) * (x - s) / (2.0 * h * h)).exp())
            .sum::<f64>()
            * norm
    }

    /// Evaluates the density on an even grid of `points` over `[lo, hi]` —
    /// the curve a Figure 1-style plot draws.
    pub fn grid(&self, lo: f64, hi: f64, points: usize) -> Vec<(f64, f64)> {
        assert!(points >= 2, "grid needs at least two points");
        let step = (hi - lo) / (points - 1) as f64;
        (0..points)
            .map(|i| {
                let x = lo + i as f64 * step;
                (x, self.density(x))
            })
            .collect()
    }

    /// The grid point with the highest density (distribution mode).
    pub fn mode(&self, lo: f64, hi: f64, points: usize) -> f64 {
        self.grid(lo, hi, points)
            .into_iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite densities"))
            .map(|(x, _)| x)
            .expect("non-empty grid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_peaks_near_data() {
        let kde = Kde::fit(&[5.0, 5.1, 4.9, 5.05, 4.95]).unwrap();
        assert!(kde.density(5.0) > kde.density(3.0));
        assert!(kde.density(5.0) > kde.density(7.0));
    }

    #[test]
    fn integrates_to_about_one() {
        let kde = Kde::fit(&[1.0, 2.0, 3.0, 2.5, 1.5, 2.2]).unwrap();
        let grid = kde.grid(-5.0, 10.0, 3000);
        let step = 15.0 / 2999.0;
        let integral: f64 = grid.iter().map(|(_, d)| d * step).sum();
        assert!((integral - 1.0).abs() < 0.01, "integral {integral}");
    }

    #[test]
    fn empty_input_is_none() {
        assert!(Kde::fit(&[]).is_none());
    }

    #[test]
    fn degenerate_identical_samples() {
        let kde = Kde::fit(&[2.0, 2.0, 2.0]).unwrap();
        assert!(kde.density(2.0) > kde.density(2.5));
    }

    #[test]
    fn mode_finds_the_bulk() {
        let mut samples = vec![0.72; 50];
        samples.extend(vec![0.60; 10]);
        let kde = Kde::fit(&samples).unwrap();
        let mode = kde.mode(0.0, 1.0, 500);
        assert!((mode - 0.72).abs() < 0.03, "mode {mode}");
    }

    #[test]
    fn shifted_distributions_separate() {
        // The Figure 1 scenario: 2020 samples sit left of 2019 samples.
        let y2019: Vec<f64> = (0..100).map(|i| 0.72 + 0.001 * (i % 10) as f64).collect();
        let y2020: Vec<f64> = (0..100).map(|i| 0.62 + 0.001 * (i % 10) as f64).collect();
        let k19 = Kde::fit(&y2019).unwrap();
        let k20 = Kde::fit(&y2020).unwrap();
        assert!(k19.mode(0.0, 1.0, 1000) > k20.mode(0.0, 1.0, 1000));
    }
}
