//! Deterministic time-series telemetry: a sim-time cadence sampler.
//!
//! The paper's core claim is *temporal* — synchronization degraded as
//! churn, address pollution, and relay delays evolved — so end-of-run
//! scalars cannot show *when* a world got sick or which root cause drove
//! it. A [`Sampler`] fires on a fixed sim-time cadence and snapshots
//! world gauges into [`Sample`] rows, giving every experiment a
//! degradation curve against ground truth.
//!
//! The design mirrors [`crate::trace::Tracer`] exactly:
//!
//! - **Zero-cost when disabled.** [`Sampler::disabled`] holds no
//!   allocation; every recording call starts with an `is_enabled` branch
//!   on an `Option`, so unsampled runs do no extra work.
//! - **Deterministic rows, wall-clock side-channel.** A [`Sample`] holds
//!   only simulation-derived values (sim time, gauges, windowed
//!   counters/quantiles) and serializes byte-identically whatever the
//!   thread count. Wall-clock observations — events/s, elapsed seconds,
//!   peak RSS — go into separate [`PerfSample`] rows that are *never*
//!   part of the deterministic JSONL/CSV exports.
//! - **Non-`Send` by construction** (`Rc<RefCell>`): one experiment =
//!   one sampler = one thread, the same argument that makes the metrics
//!   [`Recorder`](crate::metrics::Recorder) thread-count invariant.
//!
//! The log only serialises ([`TimeseriesLog::to_jsonl`], `to_csv`,
//! `perf_to_jsonl` return strings); `bitsync_core`'s `write_bundle`, the one
//! writer of a run's files, puts them at `timeseries.{jsonl,csv}`, `perf.jsonl`.
//!
//! Between ticks the log accumulates *windowed* state: named counters
//! (dial failures, churn arrivals, fault drops, ...) and windowed
//! [`Histogram`]s (relay delay). Each [`Sampler::record`] call appends
//! their per-interval values to the row and resets them, which is what
//! turns cumulative streams into the per-window rates the
//! `analysis::rootcause` attribution consumes.

use crate::metrics::{Histogram, Throughput, DEFAULT_BUCKETS};
use crate::time::{SimDuration, SimTime};
use bitsync_json::Value;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// One deterministic sampled row: the world's gauges at a sim-time tick
/// plus the windowed counters/quantiles accumulated since the previous
/// tick.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// Sim time of the tick.
    pub at: SimTime,
    /// Optional arm/cell label (`"y2019"`, `"i0.60-on"`, ...) for
    /// experiments that run several worlds through one sampler.
    pub ctx: Option<String>,
    /// `(name, value)` pairs in a fixed, deterministic order: the
    /// caller's gauges first, then windowed counters (`w_<name>`), then
    /// windowed histogram stats (`<name>_n`, `<name>_p50/p90/p99`).
    pub values: Vec<(String, f64)>,
}

impl Sample {
    /// The row value recorded under `key`, if present.
    pub fn value(&self, key: &str) -> Option<f64> {
        self.values.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
    }

    /// One compact JSON object: `t_ns`, optional `ctx`, then every value
    /// in row order.
    pub fn to_json(&self) -> Value {
        let mut obj = Value::object().with("t_ns", self.at.as_nanos());
        if let Some(ctx) = &self.ctx {
            obj.set("ctx", ctx.as_str());
        }
        for (k, v) in &self.values {
            obj.set(k, *v);
        }
        obj
    }
}

/// One wall-clock observation taken alongside a deterministic tick.
///
/// Strictly side-channel: wall time and RSS differ across machines and
/// thread placements, so these rows are excluded from the byte-identical
/// exports and written to their own `perf.jsonl`. A perf row pairs with
/// the deterministic row of its tick by `(ctx, at)`.
#[derive(Clone, Debug)]
pub struct PerfSample {
    /// Sim time of the tick this observation rode along with.
    pub at: SimTime,
    /// The tick's arm/cell label, as on its [`Sample`].
    pub ctx: Option<String>,
    /// Wall-clock seconds since [`Sampler::open_perf_window`] or the
    /// previous perf row, whichever came last.
    pub wall_secs: f64,
    /// Events processed in the window.
    pub events: u64,
    /// Peak RSS in bytes, when the platform exposes `/proc`.
    pub peak_rss_bytes: Option<u64>,
}

impl PerfSample {
    /// One compact JSON object: `t_ns`, optional `ctx`, then the rest.
    pub fn to_json(&self) -> Value {
        let mut obj = Value::object().with("t_ns", self.at.as_nanos());
        if let Some(ctx) = &self.ctx {
            obj.set("ctx", ctx.as_str());
        }
        obj.set("wall_secs", self.wall_secs);
        obj.set("events", self.events);
        let window = Throughput {
            events: self.events,
            wall_secs: self.wall_secs,
        };
        obj.set("events_per_sec", window.events_per_sec());
        if let Some(rss) = self.peak_rss_bytes {
            obj.set("peak_rss_bytes", rss);
        }
        obj
    }
}

/// The accumulated timeseries of one experiment run: deterministic
/// [`Sample`] rows, wall-clock [`PerfSample`] rows, and the live
/// windowed state between ticks.
#[derive(Clone, Debug)]
pub struct TimeseriesLog {
    interval: SimDuration,
    /// Deterministic rows, in tick order.
    pub rows: Vec<Sample>,
    /// Wall-clock side-channel rows.
    pub perf: Vec<PerfSample>,
    ctx: Option<String>,
    counters: BTreeMap<&'static str, u64>,
    windows: BTreeMap<&'static str, Histogram>,
    /// Wall-clock start of the open perf window.
    last_wall: Option<Instant>,
}

impl TimeseriesLog {
    fn new(interval: SimDuration) -> TimeseriesLog {
        TimeseriesLog {
            interval,
            rows: Vec::new(),
            perf: Vec::new(),
            ctx: None,
            counters: BTreeMap::new(),
            windows: BTreeMap::new(),
            last_wall: None,
        }
    }

    /// The sampling cadence this log was recorded at.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// Number of deterministic rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no row has been recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Deterministic JSONL: one compact object per row, `\n`-terminated.
    /// Byte-identical across thread counts for the same experiment seed.
    pub fn to_jsonl(&self) -> String {
        bitsync_json::jsonl(self.rows.iter().map(Sample::to_json))
    }

    /// Deterministic CSV: header `t_ns,ctx,<keys...>` where the key
    /// columns are the union of row keys in first-seen order; cells
    /// missing from a row are left empty.
    pub fn to_csv(&self) -> String {
        let mut keys: Vec<&str> = Vec::new();
        for row in &self.rows {
            for (k, _) in &row.values {
                if !keys.contains(&k.as_str()) {
                    keys.push(k);
                }
            }
        }
        let mut out = String::from("t_ns,ctx");
        for k in &keys {
            out.push(',');
            out.push_str(k);
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.at.as_nanos().to_string());
            out.push(',');
            if let Some(ctx) = &row.ctx {
                out.push_str(ctx);
            }
            for k in &keys {
                out.push(',');
                if let Some(v) = row.value(k) {
                    out.push_str(&format!("{v}"));
                }
            }
            out.push('\n');
        }
        out
    }

    /// Wall-clock side-channel JSONL (not deterministic; never compare
    /// across runs).
    pub fn perf_to_jsonl(&self) -> String {
        bitsync_json::jsonl(self.perf.iter().map(PerfSample::to_json))
    }
}

/// Cheaply cloneable handle to a shared [`TimeseriesLog`], or a no-op
/// when disabled — the [`Tracer`](crate::trace::Tracer) pattern.
///
/// # Examples
///
/// ```
/// use bitsync_sim::time::{SimDuration, SimTime};
/// use bitsync_sim::timeseries::Sampler;
///
/// let s = Sampler::enabled(SimDuration::from_secs(60));
/// s.count("dial_fail", 3);
/// s.record(SimTime::ZERO + SimDuration::from_secs(60), &[("sync_frac", 0.72)]);
/// let log = s.take().unwrap();
/// assert_eq!(log.rows[0].value("w_dial_fail"), Some(3.0));
///
/// let off = Sampler::disabled();
/// off.count("dial_fail", 3); // no-op
/// assert!(off.take().is_none());
/// ```
#[derive(Clone, Debug, Default)]
pub struct Sampler {
    inner: Option<Rc<RefCell<TimeseriesLog>>>,
}

impl Sampler {
    /// A disabled sampler: every call is a cheap no-op.
    pub fn disabled() -> Sampler {
        Sampler { inner: None }
    }

    /// An enabled sampler recording one row per `interval` of sim time.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero (the tick loop would never advance).
    pub fn enabled(interval: SimDuration) -> Sampler {
        assert!(
            interval > SimDuration::ZERO,
            "sampler interval must be positive"
        );
        Sampler {
            inner: Some(Rc::new(RefCell::new(TimeseriesLog::new(interval)))),
        }
    }

    /// Whether samples are being collected. Callers gate gauge
    /// computation on this so a disabled sampler costs one branch.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The sampling cadence, when enabled.
    pub fn interval(&self) -> Option<SimDuration> {
        self.inner.as_ref().map(|log| log.borrow().interval)
    }

    /// Sets the context label stamped onto subsequent rows (`None`
    /// clears it). Experiments running several worlds/arms through one
    /// sampler label each arm so the rows stay attributable.
    pub fn set_ctx(&self, ctx: Option<&str>) {
        if let Some(log) = &self.inner {
            log.borrow_mut().ctx = ctx.map(str::to_string);
        }
    }

    /// Adds `by` to a windowed counter; it is emitted as `w_<name>` at
    /// the next tick and reset to zero. Once seen, a counter keeps its
    /// column (emitting 0) so downstream CSV stays rectangular.
    pub fn count(&self, name: &'static str, by: u64) {
        if let Some(log) = &self.inner {
            *log.borrow_mut().counters.entry(name).or_insert(0) += by;
        }
    }

    /// Records `v` into a windowed histogram ([`DEFAULT_BUCKETS`]); its
    /// count and p50/p90/p99 quantiles are emitted at the next tick and
    /// the window is reset.
    pub fn observe(&self, name: &'static str, v: f64) {
        if let Some(log) = &self.inner {
            log.borrow_mut()
                .windows
                .entry(name)
                .or_insert_with(|| Histogram::with_buckets(&DEFAULT_BUCKETS))
                .observe(v);
        }
    }

    /// Records one deterministic row at tick `at`: the caller's gauges
    /// in the given order, then every windowed counter (reset to 0),
    /// then every windowed histogram's count and quantiles (reset).
    pub fn record(&self, at: SimTime, gauges: &[(&str, f64)]) {
        let Some(log) = &self.inner else { return };
        let mut log = log.borrow_mut();
        let mut values: Vec<(String, f64)> =
            gauges.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        for (name, count) in log.counters.iter_mut() {
            values.push((format!("w_{name}"), *count as f64));
            *count = 0;
        }
        for (name, hist) in log.windows.iter_mut() {
            values.push((format!("{name}_n"), hist.count() as f64));
            if !hist.is_empty() {
                for (suffix, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)] {
                    if let Some(v) = hist.quantile(q) {
                        values.push((format!("{name}_{suffix}"), v));
                    }
                }
            }
            hist.reset();
        }
        let ctx = log.ctx.clone();
        log.rows.push(Sample { at, ctx, values });
    }

    /// Starts a new perf window's wall clock without writing a row, so a
    /// world attached now times only its own ticks.
    pub fn open_perf_window(&self) {
        if let Some(log) = &self.inner {
            log.borrow_mut().last_wall = Some(Instant::now());
        }
    }

    /// Records one wall-clock perf row at tick `at` with the current ctx,
    /// for the `events` processed in the open window, and opens the next
    /// (without an open window it only opens one). Called right after
    /// [`Sampler::record`], so the two rows pair. See [`PerfSample`].
    pub fn record_perf(&self, at: SimTime, events: u64) {
        let Some(log) = &self.inner else { return };
        let mut log = log.borrow_mut();
        let now = Instant::now();
        if let Some(last) = log.last_wall.replace(now) {
            let ctx = log.ctx.clone();
            log.perf.push(PerfSample {
                at,
                ctx,
                wall_secs: now.duration_since(last).as_secs_f64(),
                events,
                peak_rss_bytes: crate::metrics::peak_rss_bytes(),
            });
        }
    }

    /// Drains the log, leaving an empty one behind (same cadence).
    /// `None` when disabled.
    pub fn take(&self) -> Option<TimeseriesLog> {
        self.inner.as_ref().map(|log| {
            let mut log = log.borrow_mut();
            let interval = log.interval;
            std::mem::replace(&mut *log, TimeseriesLog::new(interval))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TICK: SimDuration = SimDuration::from_secs(60);

    fn t(n: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(60 * n)
    }

    #[test]
    fn disabled_sampler_is_inert() {
        let s = Sampler::disabled();
        assert!(!s.is_enabled());
        assert!(s.interval().is_none());
        s.count("x", 5);
        s.observe("y", 1.0);
        s.record(t(1), &[("g", 1.0)]);
        s.record_perf(t(1), 100);
        assert!(s.take().is_none());
    }

    #[test]
    fn windows_reset_between_ticks() {
        let s = Sampler::enabled(TICK);
        s.count("dial_fail", 7);
        s.observe("relay", 2.0);
        s.observe("relay", 4.0);
        s.record(t(1), &[("sync", 0.7)]);
        // Second window: nothing counted, one slow relay.
        s.observe("relay", 100.0);
        s.record(t(2), &[("sync", 0.6)]);
        let log = s.take().unwrap();
        assert_eq!(log.len(), 2);
        let r1 = &log.rows[0];
        assert_eq!(r1.value("sync"), Some(0.7));
        assert_eq!(r1.value("w_dial_fail"), Some(7.0));
        assert_eq!(r1.value("relay_n"), Some(2.0));
        assert!(r1.value("relay_p90").is_some());
        let r2 = &log.rows[1];
        // Counter column persists at zero; histogram window restarted.
        assert_eq!(r2.value("w_dial_fail"), Some(0.0));
        assert_eq!(r2.value("relay_n"), Some(1.0));
        // A windowed quantile reflects only this window's observations.
        assert_eq!(r2.value("relay_p50"), Some(100.0));
    }

    #[test]
    fn jsonl_and_csv_are_shaped_and_ordered() {
        let s = Sampler::enabled(TICK);
        s.set_ctx(Some("y2019"));
        s.count("b", 1);
        s.count("a", 2);
        s.record(t(1), &[("sync", 0.5)]);
        s.set_ctx(None);
        s.record(t(2), &[("sync", 0.25), ("extra", 1.0)]);
        let log = s.take().unwrap();
        let jsonl = log.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        // Gauges first, then windowed counters in BTreeMap order.
        assert_eq!(
            lines[0],
            format!(
                r#"{{"t_ns":{},"ctx":"y2019","sync":0.5,"w_a":2.0,"w_b":1.0}}"#,
                t(1).as_nanos()
            )
        );
        assert!(!lines[1].contains("ctx"));
        let csv = log.to_csv();
        let mut rows = csv.lines();
        assert_eq!(rows.next(), Some("t_ns,ctx,sync,w_a,w_b,extra"));
        assert_eq!(
            rows.next(),
            Some(format!("{},y2019,0.5,2,1,", t(1).as_nanos()).as_str())
        );
        // Row 2: empty ctx cell, counters persist at zero, new key last.
        assert_eq!(
            rows.next(),
            Some(format!("{},,0.25,0,0,1", t(2).as_nanos()).as_str())
        );
    }

    #[test]
    fn take_drains_and_preserves_cadence() {
        let s = Sampler::enabled(TICK);
        s.record(t(1), &[]);
        let log = s.take().unwrap();
        assert_eq!(log.len(), 1);
        assert_eq!(log.interval(), TICK);
        let empty = s.take().unwrap();
        assert!(empty.is_empty());
        assert_eq!(empty.interval(), TICK);
    }

    #[test]
    fn perf_rows_are_deltas_and_stay_out_of_deterministic_exports() {
        let s = Sampler::enabled(TICK);
        s.open_perf_window();
        s.set_ctx(Some("a"));
        s.record(t(1), &[("sync", 1.0)]);
        s.record_perf(t(1), 1000);
        // Reopening a window writes no row.
        s.open_perf_window();
        let log = s.take().unwrap();
        assert_eq!(log.perf.len(), 1);
        assert_eq!(log.perf[0].events, 1000);
        assert_eq!(log.perf[0].ctx, log.rows[0].ctx);
        assert!(log.perf[0].wall_secs >= 0.0);
        assert!(log.perf_to_jsonl().starts_with(&format!(
            r#"{{"t_ns":{},"ctx":"a","wall_secs":"#,
            t(1).as_nanos()
        )));
        assert!(!log.to_jsonl().contains("events_per_sec"));
        assert!(!log.to_csv().contains("wall_secs"));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_is_rejected() {
        Sampler::enabled(SimDuration::ZERO);
    }
}
