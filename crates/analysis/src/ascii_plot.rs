//! Minimal ASCII plotting for terminal figure output: sparklines for dense
//! series. Used by the `repro` harness so regenerated figures are
//! *visible*, not just tabular.

/// Eight-level sparkline characters.
const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Renders a one-line sparkline of `values` scaled to its own min/max.
/// Empty input renders as an empty string; a constant series renders at the
/// lowest level.
///
/// # Examples
///
/// ```
/// use bitsync_analysis::ascii_plot::sparkline;
///
/// let s = sparkline(&[0.0, 0.5, 1.0]);
/// assert_eq!(s.chars().count(), 3);
/// ```
pub fn sparkline(values: &[f64]) -> String {
    if values.is_empty() {
        return String::new();
    }
    let (mut lo, mut hi) = (f64::MAX, f64::MIN);
    for &v in values {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let span = (hi - lo).max(f64::MIN_POSITIVE);
    values
        .iter()
        .map(|&v| {
            let idx = (((v - lo) / span) * 7.0).round() as usize;
            LEVELS[idx.min(7)]
        })
        .collect()
}

/// Downsamples `values` to at most `width` points by bucket-averaging, then
/// sparklines the result — for series longer than a terminal row.
pub fn sparkline_fit(values: &[f64], width: usize) -> String {
    if values.is_empty() || width == 0 {
        return String::new();
    }
    if values.len() <= width {
        return sparkline(values);
    }
    let bucket = values.len() as f64 / width as f64;
    let compact: Vec<f64> = (0..width)
        .map(|i| {
            let start = (i as f64 * bucket) as usize;
            let end = (((i + 1) as f64 * bucket) as usize)
                .max(start + 1)
                .min(values.len());
            values[start..end].iter().sum::<f64>() / (end - start) as f64
        })
        .collect();
    sparkline(&compact)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_spans_levels() {
        let s = sparkline(&[0.0, 1.0]);
        let chars: Vec<char> = s.chars().collect();
        assert_eq!(chars[0], '▁');
        assert_eq!(chars[1], '█');
    }

    #[test]
    fn sparkline_constant_series() {
        let s = sparkline(&[5.0, 5.0, 5.0]);
        assert_eq!(s, "▁▁▁");
    }

    #[test]
    fn sparkline_empty() {
        assert_eq!(sparkline(&[]), "");
    }

    #[test]
    fn sparkline_monotone_series_is_monotone() {
        let values: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let chars: Vec<char> = sparkline(&values).chars().collect();
        let level = |c: char| LEVELS.iter().position(|&l| l == c).unwrap();
        for w in chars.windows(2) {
            assert!(level(w[0]) <= level(w[1]));
        }
    }

    #[test]
    fn fit_downsamples_to_width() {
        let values: Vec<f64> = (0..1000).map(|i| (i % 13) as f64).collect();
        let s = sparkline_fit(&values, 60);
        assert_eq!(s.chars().count(), 60);
    }

    #[test]
    fn fit_passes_short_series_through() {
        let s = sparkline_fit(&[1.0, 2.0], 60);
        assert_eq!(s.chars().count(), 2);
    }
}
