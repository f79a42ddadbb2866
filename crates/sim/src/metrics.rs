//! Lightweight metrics for the simulation stack.
//!
//! Every experiment owns a [`Recorder`] — a cheaply cloneable handle to a
//! shared registry of monotonic counters, high-water-mark gauges, and
//! fixed-bucket histograms. The event loop, the node pump, and the crawler
//! all report into it, and the experiment runner serializes the registry as
//! the `metrics` section of each result JSON.
//!
//! Determinism matters more than throughput here: the registry keys are
//! `BTreeMap`-ordered and the JSON projection is insertion-free, so two runs
//! that perform the same work serialize byte-identical metrics regardless of
//! thread placement.
//!
//! # Examples
//!
//! ```
//! use bitsync_sim::metrics::Recorder;
//!
//! let rec = Recorder::new();
//! rec.inc("sim.events_processed", 10);
//! rec.observe("node.relay_delay_secs", 1.2);
//! assert_eq!(rec.counter("sim.events_processed"), 10);
//! assert!(rec.to_json().to_string().contains("relay_delay"));
//! ```

use bitsync_json::Value;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Default histogram buckets (seconds): spans socket-level delays (tens of
/// milliseconds) out to the multi-minute relay stragglers of Figs. 10/11.
pub const DEFAULT_BUCKETS: [f64; 14] = [
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 600.0, 1800.0,
];

/// A fixed-bucket histogram with count/sum/min/max side statistics.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// `counts[i]` = observations `<= bounds[i]`; the final slot is overflow.
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// A histogram over the given strictly increasing upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty, contains a non-finite value, or is not
    /// strictly increasing.
    pub fn with_buckets(bounds: &[f64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite"
        );
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Clears every observation while keeping the bucket bounds: counts
    /// and sum go to zero and min/max return to their empty sentinels,
    /// so the histogram is indistinguishable from a freshly built one.
    ///
    /// This is the interval-window primitive behind
    /// [`timeseries`](crate::timeseries): a window histogram is observed
    /// into between sampler ticks, its quantiles are snapshotted into
    /// the row, and `reset` starts the next window.
    pub fn reset(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.count = 0;
        self.sum = 0.0;
        self.min = f64::INFINITY;
        self.max = f64::NEG_INFINITY;
    }

    /// Records one observation.
    pub fn observe(&mut self, v: f64) {
        self.observe_n(v, 1);
    }

    /// Records `n` observations of `v` at once (nothing when `n` is 0).
    ///
    /// Precondition: `v` is an integer and every partial sum of the
    /// histogram stays below 2^53. Then each `f64` addition is exact, so
    /// the result — `sum` included — is byte-identical to `n` calls of
    /// [`Histogram::observe`] in any interleaving with other such values;
    /// that is what lets a hot loop tally counts per value and flush them
    /// later. For fractional values the order of additions changes the
    /// sum, which is why this is not the general, association-independent
    /// merge of two histograms (that needs exact sums; ROADMAP 6(b)).
    pub fn observe_n(&mut self, v: f64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = self.bounds.partition_point(|&b| b < v);
        self.counts[idx] += n;
        self.count += n;
        self.sum += v * n as f64;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of observations (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Bucket upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts; the final entry counts overflow observations.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// True when nothing has been observed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) by linear interpolation
    /// within the containing bucket, Prometheus-style: the first bucket
    /// interpolates up from the observed minimum and the overflow bucket up
    /// to the observed maximum, and the result is clamped to `[min, max]`.
    ///
    /// # The empty contract
    ///
    /// An empty histogram — never observed into or freshly [`reset`] — has
    /// **no** quantiles: every `q`, including `0.0` and `1.0`, returns `None`,
    /// never a fabricated `0`. Consumers that want a number must make
    /// the default explicit (`quantile(q).unwrap_or(0.0)`) rather than
    /// have this type invent one; a windowed snapshot with no traffic is
    /// a real state the time-series plane reports as "no data", not
    /// "zero delay". `None` is also returned for `q` outside
    /// `[0.0, 1.0]` (including NaN).
    ///
    /// [`reset`]: Histogram::reset
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let target = q * self.count as f64;
        let mut below = 0u64; // observations in buckets before this one
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let is_last_nonempty = self.counts[i + 1..].iter().all(|&n| n == 0);
            if (below + c) as f64 >= target || is_last_nonempty {
                let hi = if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    self.max.max(*self.bounds.last().unwrap())
                };
                let lo = if i == 0 {
                    self.min.min(hi)
                } else {
                    self.bounds[i - 1]
                };
                let frac = ((target - below as f64) / c as f64).clamp(0.0, 1.0);
                return Some((lo + frac * (hi - lo)).clamp(self.min, self.max));
            }
            below += c;
        }
        unreachable!("count > 0 guarantees a non-empty bucket");
    }

    fn to_json(&self) -> Value {
        let mut v = Value::object()
            .with("bounds", self.bounds.clone())
            .with("counts", self.counts.clone())
            .with("count", self.count)
            .with("sum", self.sum);
        if self.count > 0 {
            v.set("mean", self.sum / self.count as f64);
            v.set("min", self.min);
            v.set("max", self.max);
        }
        v
    }
}

#[derive(Default, Debug)]
struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

/// Shared handle to a metrics registry.
///
/// Cloning is cheap and clones observe into the same registry, which is how
/// one experiment's recorder is threaded through the world, its nodes, and
/// the crawler at once. Recorders are deliberately *not* `Send`: the
/// parallel runner gives each experiment its own recorder on its own worker
/// thread, so cross-thread interleaving can never reorder metrics.
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    inner: Rc<RefCell<Registry>>,
}

impl Recorder {
    /// A fresh, empty recorder.
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// Adds `by` to the named monotonic counter.
    pub fn inc(&self, name: &str, by: u64) {
        if by == 0 {
            return;
        }
        let mut reg = self.inner.borrow_mut();
        match reg.counters.get_mut(name) {
            Some(slot) => *slot += by,
            None => {
                reg.counters.insert(name.to_string(), by);
            }
        }
    }

    /// Raises the named high-water-mark gauge to at least `v`.
    pub fn gauge_max(&self, name: &str, v: f64) {
        let mut reg = self.inner.borrow_mut();
        match reg.gauges.get_mut(name) {
            Some(slot) => *slot = slot.max(v),
            None => {
                reg.gauges.insert(name.to_string(), v);
            }
        }
    }

    /// Records `v` into the named histogram, creating it with
    /// [`DEFAULT_BUCKETS`] on first use (use [`Recorder::register_histogram`]
    /// first for custom buckets).
    pub fn observe(&self, name: &str, v: f64) {
        self.observe_n(name, v, 1);
    }

    /// [`Recorder::observe`] `n` times, under
    /// [`Histogram::observe_n`]'s integer precondition.
    pub fn observe_n(&self, name: &str, v: f64, n: u64) {
        if n == 0 {
            return;
        }
        let mut reg = self.inner.borrow_mut();
        if let Some(h) = reg.histograms.get_mut(name) {
            h.observe_n(v, n);
        } else {
            let mut h = Histogram::with_buckets(&DEFAULT_BUCKETS);
            h.observe_n(v, n);
            reg.histograms.insert(name.to_string(), h);
        }
    }

    /// Pre-registers a histogram with custom bucket bounds.
    pub fn register_histogram(&self, name: &str, bounds: &[f64]) {
        let mut reg = self.inner.borrow_mut();
        reg.histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::with_buckets(bounds));
    }

    /// Current value of a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner.borrow().counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.inner.borrow().gauges.get(name).copied()
    }

    /// Snapshot of a histogram.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.inner.borrow().histograms.get(name).cloned()
    }

    /// Snapshot of every histogram, in name order (the order of the
    /// [`Recorder::to_json`] `histograms` section).
    pub fn histograms(&self) -> Vec<(String, Histogram)> {
        let reg = self.inner.borrow();
        reg.histograms
            .iter()
            .map(|(name, h)| (name.clone(), h.clone()))
            .collect()
    }

    /// Snapshot of every counter, in name order.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        self.inner.borrow().counters.clone()
    }

    /// Serializes the registry: `{"counters": {...}, "gauges": {...},
    /// "histograms": {...}}` with keys in lexicographic order.
    pub fn to_json(&self) -> Value {
        let reg = self.inner.borrow();
        let mut counters = Value::object();
        for (name, v) in &reg.counters {
            counters.set(name, *v);
        }
        let mut gauges = Value::object();
        for (name, v) in &reg.gauges {
            gauges.set(name, *v);
        }
        let mut histograms = Value::object();
        for (name, h) in &reg.histograms {
            histograms.set(name, h.to_json());
        }
        Value::object()
            .with("counters", counters)
            .with("gauges", gauges)
            .with("histograms", histograms)
    }
}

/// Peak resident set size of this process in bytes, read from Linux's
/// `/proc/self/status` `VmHWM` line. `None` on platforms without procfs or
/// if the line is missing/unparseable.
///
/// Guarded twice: a compile-time `target_os` check *and* a runtime probe
/// that `/proc/self/status` actually exists — Linux-like targets without
/// a mounted procfs (containers with masked `/proc`, exotic sandboxes)
/// degrade to `None` instead of an error, so `[perf]` stderr lines and
/// `perf.jsonl` rows simply omit RSS rather than misleading with a bogus
/// value.
///
/// This is *process-level* observability for perf tracking (the `repro`
/// binary prints it to stderr alongside event throughput). It must never be
/// written into a [`Recorder`]: report JSON is required to be byte-identical
/// across thread counts and machines, and RSS is neither.
pub fn peak_rss_bytes() -> Option<u64> {
    if !cfg!(target_os = "linux") {
        return None;
    }
    let status_path = std::path::Path::new("/proc/self/status");
    if !status_path.exists() {
        return None;
    }
    let status = std::fs::read_to_string(status_path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Wall-clock event throughput for a finished run. Same caveat as
/// [`peak_rss_bytes`]: side-channel reporting only, never part of the
/// deterministic report JSON.
#[derive(Clone, Copy, Debug)]
pub struct Throughput {
    /// Events processed during the run.
    pub events: u64,
    /// Wall-clock seconds the run took.
    pub wall_secs: f64,
}

impl Throughput {
    /// Events per wall-clock second (0 for a zero-length run).
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.events as f64 / self.wall_secs
        } else {
            0.0
        }
    }
}

impl std::fmt::Display for Throughput {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} events in {:.2}s ({:.0} events/s)",
            self.events,
            self.wall_secs,
            self.events_per_sec()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_monotonic_and_shared_across_clones() {
        let rec = Recorder::new();
        let clone = rec.clone();
        rec.inc("a", 2);
        clone.inc("a", 3);
        rec.inc("b", 0); // no-op: zero increments do not materialize keys
        assert_eq!(rec.counter("a"), 5);
        assert_eq!(rec.counter("b"), 0);
        assert!(!rec.to_json().to_string().contains("\"b\""));
    }

    #[test]
    fn gauge_keeps_high_water_mark() {
        let rec = Recorder::new();
        rec.gauge_max("depth", 4.0);
        rec.gauge_max("depth", 2.0);
        rec.gauge_max("depth", 9.0);
        assert_eq!(rec.gauge("depth"), Some(9.0));
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_upper() {
        let mut h = Histogram::with_buckets(&[1.0, 2.0, 4.0]);
        h.observe(0.5); // <= 1.0
        h.observe(1.0); // boundary lands in its own bucket
        h.observe(1.5); // <= 2.0
        h.observe(4.0); // boundary of the last finite bucket
        h.observe(100.0); // overflow
        assert_eq!(h.bucket_counts(), &[2, 1, 1, 1]);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 107.0);
    }

    #[test]
    fn observe_n_of_integers_serializes_like_n_observes() {
        // A stream of small integers (the pump's per-round flush counts),
        // observed one by one in stream order versus tallied per value and
        // flushed highest value first: the additions are reassociated, and
        // the serialized registries must still be byte-identical.
        let bounds = [0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];
        let (one_by_one, tallied) = (Recorder::new(), Recorder::new());
        for rec in [&one_by_one, &tallied] {
            rec.register_histogram("flushed", &bounds);
        }
        let mut tally = vec![0u64; 200];
        let mut x = 2021u64;
        for _ in 0..50_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = (x >> 33) % 200;
            one_by_one.observe("flushed", v as f64);
            tally[v as usize] += 1;
        }
        for (v, n) in tally.iter().enumerate().rev() {
            tallied.observe_n("flushed", v as f64, *n);
        }
        tallied.observe_n("never", 1.0, 0);
        assert_eq!(
            one_by_one.to_json().to_string(),
            tallied.to_json().to_string()
        );

        // The precondition matters: ten observations of 0.1 do not sum to
        // one observation of 0.1 weighted ten.
        let mut h = Histogram::with_buckets(&[1.0]);
        let mut weighted = h.clone();
        (0..10).for_each(|_| h.observe(0.1));
        weighted.observe_n(0.1, 10);
        assert_ne!(h.sum(), weighted.sum());
    }

    #[test]
    fn json_projection_is_ordered_and_complete() {
        let rec = Recorder::new();
        rec.inc("z.count", 1);
        rec.inc("a.count", 2);
        rec.gauge_max("depth", 5.0);
        rec.observe("delay", 1.0);
        let json = rec.to_json().to_string();
        // BTreeMap ordering: "a.count" serializes before "z.count".
        assert!(json.find("a.count").unwrap() < json.find("z.count").unwrap());
        assert!(json.contains("\"gauges\""));
        assert!(json.contains("\"histograms\""));
    }

    #[test]
    fn quantiles_interpolate_a_uniform_distribution() {
        // 1..=100 over buckets [25, 50, 75, 100]: 25 observations per
        // bucket, so quantiles interpolate to ~the underlying value.
        let mut h = Histogram::with_buckets(&[25.0, 50.0, 75.0, 100.0]);
        for v in 1..=100 {
            h.observe(v as f64);
        }
        assert_eq!(h.quantile(0.5), Some(50.0));
        assert_eq!(h.quantile(0.9), Some(90.0));
        assert_eq!(h.quantile(0.0), Some(1.0)); // clamps to min
        assert_eq!(h.quantile(1.0), Some(100.0)); // clamps to max
        assert!(h.quantile(1.5).is_none());
        assert!(Histogram::with_buckets(&[1.0]).quantile(0.5).is_none());
    }

    #[test]
    fn quantile_of_a_point_mass_is_the_point() {
        let mut h = Histogram::with_buckets(&[10.0]);
        for _ in 0..10 {
            h.observe(5.0);
        }
        // Interpolation would say 7.5; the min/max clamp pins it to 5.
        assert_eq!(h.quantile(0.5), Some(5.0));
        assert_eq!(h.min(), Some(5.0));
        assert_eq!(h.max(), Some(5.0));
    }

    #[test]
    fn quantile_overflow_bucket_uses_observed_max() {
        let mut h = Histogram::with_buckets(&[100.0]);
        h.observe(150.0);
        h.observe(250.0);
        // Overflow bucket spans [100, 250]; q=0.5 targets its midpoint.
        assert_eq!(h.quantile(0.5), Some(175.0));
        assert_eq!(h.quantile(1.0), Some(250.0));
    }

    #[test]
    fn empty_histogram_has_no_quantiles_at_any_q() {
        // The documented contract: empty means None, never a made-up 0 —
        // whether empty by construction or by reset.
        let fresh = Histogram::with_buckets(&DEFAULT_BUCKETS);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(fresh.quantile(q), None, "fresh, q={q}");
        }
        assert_eq!(fresh.mean(), None);
        assert_eq!(fresh.min(), None);
        assert_eq!(fresh.max(), None);
        // Out-of-range q is None even when populated.
        let mut h = Histogram::with_buckets(&[10.0]);
        h.observe(1.0);
        assert_eq!(h.quantile(-0.1), None);
        assert_eq!(h.quantile(1.1), None);
        assert_eq!(h.quantile(f64::NAN), None);
    }

    #[test]
    fn reset_returns_to_the_empty_state() {
        let mut h = Histogram::with_buckets(&[1.0, 10.0]);
        for v in [0.5, 3.0, 100.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 3);
        h.reset();
        assert!(h.is_empty());
        assert_eq!(h.bucket_counts(), &[0, 0, 0]);
        assert_eq!(h.sum(), 0.0);
        assert_eq!(h.quantile(0.5), None, "post-reset quantiles are None");
        assert_eq!(h, Histogram::with_buckets(&[1.0, 10.0]));
        // The next window starts clean: new observations behave as if
        // the old ones never happened.
        h.observe(5.0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(0.5), Some(5.0));
        assert_eq!(h.min(), Some(5.0));
        assert_eq!(h.max(), Some(5.0));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn with_buckets_rejects_non_finite_bounds() {
        Histogram::with_buckets(&[1.0, f64::INFINITY]);
    }

    #[test]
    fn quantile_single_bucket_single_observation() {
        let mut h = Histogram::with_buckets(&[10.0]);
        h.observe(3.0);
        for q in [0.0, 0.25, 0.5, 1.0] {
            assert_eq!(h.quantile(q), Some(3.0), "q={q}");
        }
    }

    #[test]
    fn quantile_all_mass_in_overflow_stays_finite_and_clamped() {
        // Every observation beyond the last bound.
        let mut h = Histogram::with_buckets(&[1.0]);
        for v in [5.0, 7.0, 9.0] {
            h.observe(v);
        }
        for q in [0.0, 0.5, 1.0] {
            let v = h.quantile(q).unwrap();
            assert!(v.is_finite(), "q={q} gave {v}");
            assert!((5.0..=9.0).contains(&v), "q={q} gave {v}");
        }
    }

    #[test]
    fn peak_rss_is_sane_on_linux() {
        if let Some(bytes) = peak_rss_bytes() {
            // Any running test binary holds at least a few hundred KiB and
            // far less than a terabyte.
            assert!(bytes > 100 * 1024, "peak RSS {bytes} implausibly small");
            assert!(bytes < 1 << 40, "peak RSS {bytes} implausibly large");
        } else if cfg!(target_os = "linux") && std::path::Path::new("/proc/self/status").exists() {
            // Only a masked /proc excuses a None on Linux.
            panic!("VmHWM must parse on Linux with procfs mounted");
        }
    }

    #[test]
    fn throughput_formats_and_divides() {
        let t = Throughput {
            events: 1_000,
            wall_secs: 2.0,
        };
        assert_eq!(t.events_per_sec(), 500.0);
        assert!(t.to_string().contains("500 events/s"));
        let zero = Throughput {
            events: 5,
            wall_secs: 0.0,
        };
        assert_eq!(zero.events_per_sec(), 0.0);
    }
}
