//! Windowed root-cause attribution of sync-health deltas.
//!
//! The paper names four root causes for the 2019→2020 synchronization
//! decline: the load of unreachable addresses on the dial path (§IV-A),
//! ADDR pollution of the address books (§IV-B), relay delays at busy
//! nodes (§IV-C), and churn among synchronized nodes (§IV-D). A
//! timeseries run ([`bitsync_sim::timeseries`]) samples one gauge per
//! cause alongside the honest sync fraction; this module decomposes each
//! interval's sync delta across those causes, proportionally to the
//! normalized per-interval pressure each one exerted.
//!
//! The attribution is a *diagnostic heuristic*, not a causal proof: a
//! cause gets credit for an interval's drop in proportion to how hard it
//! was pushing during that interval. Its value is comparative — which
//! cause dominated which phase of the run — exactly the question the
//! paper answers with its per-section measurements.

use bitsync_json::{ToJson, Value};
use bitsync_sim::timeseries::Sample;

/// The paper's four root causes, in report order.
pub const CAUSES: [&str; 4] = ["unreachable_load", "addr_pollution", "relay_lag", "churn"];

/// Relay p90 (seconds) treated as full relay-lag pressure. The paper's
/// measured worst block relay was 17 s; a sustained p90 of 10 s already
/// means the round-robin writer is saturated.
const RELAY_LAG_FULL_SECS: f64 = 10.0;

/// Churn events per honest node per interval treated as full churn
/// pressure (every node turning over once per window).
const CHURN_FULL_RATE: f64 = 1.0;

/// One sampled interval's sync delta and its decomposition.
#[derive(Clone, Debug)]
pub struct Interval {
    /// Interval end, nanoseconds of sim time.
    pub t_ns: u64,
    /// Row context (experiment arm / sweep cell), if any.
    pub ctx: Option<String>,
    /// Honest sync fraction at the interval end.
    pub sync: f64,
    /// Change in sync fraction across the interval.
    pub delta_sync: f64,
    /// Normalized pressure per cause ([`CAUSES`] order), each in `0..=1`.
    pub pressures: [f64; 4],
    /// Share of `delta_sync` attributed to each cause ([`CAUSES`] order).
    pub attribution: [f64; 4],
    /// Residual delta no cause was pressing for (all pressures zero).
    pub unattributed: f64,
}

/// The full attribution report over a timeseries.
#[derive(Clone, Debug, Default)]
pub struct RootCauseReport {
    /// Per-interval decompositions, in row order.
    pub intervals: Vec<Interval>,
    /// Total sync *drop* magnitude attributed to each cause ([`CAUSES`]
    /// order): the sum of `-attribution` over intervals where the
    /// attributed share was negative.
    pub drop_by_cause: [f64; 4],
    /// Drop magnitude that occurred with no measured pressure.
    pub unattributed_drop: f64,
    /// Sum of all negative sync deltas (magnitude).
    pub total_drop: f64,
    /// Sum of all positive sync deltas.
    pub total_gain: f64,
}

impl ToJson for Interval {
    fn to_json(&self) -> Value {
        let mut v = Value::object()
            .with("t_ns", self.t_ns)
            .with("ctx", self.ctx.clone())
            .with("sync", self.sync)
            .with("delta_sync", self.delta_sync);
        for (i, name) in CAUSES.iter().enumerate() {
            v = v
                .with(&format!("pressure_{name}"), self.pressures[i])
                .with(&format!("attr_{name}"), self.attribution[i]);
        }
        v.with("unattributed", self.unattributed)
    }
}

impl ToJson for RootCauseReport {
    fn to_json(&self) -> Value {
        let mut by_cause = Value::object();
        for (i, name) in CAUSES.iter().enumerate() {
            by_cause = by_cause.with(name, self.drop_by_cause[i]);
        }
        Value::object()
            .with("intervals", self.intervals.iter().collect::<Vec<_>>())
            .with("drop_by_cause", by_cause)
            .with("unattributed_drop", self.unattributed_drop)
            .with("total_drop", self.total_drop)
            .with("total_gain", self.total_gain)
    }
}

/// Normalized per-cause pressures read off one timeseries row.
///
/// - `unreachable_load`: the window's dial failure rate
///   (`w_dial_fail / (w_dial_ok + w_dial_fail)`) — failed dials are what
///   the unreachable-address load costs the node (§IV-A).
/// - `addr_pollution`: the unreachable fraction of the NEW table
///   (`addr_unreach_new`; census rows use `addr_unreach_frac`) — the
///   §IV-B 85.1% split, live.
/// - `relay_lag`: the window's relay-delay p90 over
///   `RELAY_LAG_FULL_SECS` (10 s), clamped to 1.
/// - `churn`: window churn events (departures + arrivals + rejoins) per
///   honest online node over `CHURN_FULL_RATE` (1), clamped to 1.
///
/// Missing keys read as zero pressure, so partial instrumentations (a
/// world without churn, the census without a relay path) degrade softly.
pub fn pressures(row: &Sample) -> [f64; 4] {
    let v = |key: &str| row.value(key).unwrap_or(0.0);
    let dial_ok = v("w_dial_ok");
    let dial_fail = v("w_dial_fail");
    let unreachable_load = if dial_ok + dial_fail > 0.0 {
        dial_fail / (dial_ok + dial_fail)
    } else {
        0.0
    };
    let addr_pollution = row
        .value("addr_unreach_new")
        .or_else(|| row.value("addr_unreach_frac"))
        .unwrap_or(0.0);
    let relay_lag = if v("relay_delay_n") > 0.0 {
        (v("relay_delay_p90") / RELAY_LAG_FULL_SECS).clamp(0.0, 1.0)
    } else {
        0.0
    };
    let honest = v("honest_online").max(1.0);
    let churn_events = v("w_churn_depart") + v("w_churn_arrive") + v("w_churn_rejoin");
    let churn = (churn_events / honest / CHURN_FULL_RATE).clamp(0.0, 1.0);
    [unreachable_load, addr_pollution, relay_lag, churn]
}

/// Decomposes the sync-health delta of every interval in `rows`.
///
/// Rows are paired with their predecessor *within the same `ctx`*
/// (consecutive rows only — arms and sweep cells restart their own
/// clock), so the first row of each context contributes no interval.
/// Rows without a `sync_frac` value (census rows) are skipped.
pub fn attribute(rows: &[Sample]) -> RootCauseReport {
    let mut report = RootCauseReport::default();
    let mut prev: Option<(&Sample, f64)> = None;
    for row in rows {
        let Some(sync) = row.value("sync_frac") else {
            prev = None;
            continue;
        };
        let same_ctx = prev.is_some_and(|(p, _)| p.ctx == row.ctx);
        if let Some((_, prev_sync)) = prev.filter(|_| same_ctx) {
            let delta = sync - prev_sync;
            let p = pressures(row);
            let total: f64 = p.iter().sum();
            let mut attribution = [0.0; 4];
            let mut unattributed = 0.0;
            if total > 0.0 {
                for (share, pressure) in attribution.iter_mut().zip(&p) {
                    *share = delta * pressure / total;
                }
            } else {
                unattributed = delta;
            }
            if delta < 0.0 {
                report.total_drop += -delta;
                for (dropped, share) in report.drop_by_cause.iter_mut().zip(&attribution) {
                    *dropped += -share;
                }
                report.unattributed_drop += -unattributed;
            } else {
                report.total_gain += delta;
            }
            report.intervals.push(Interval {
                t_ns: row.at.as_nanos(),
                ctx: row.ctx.clone(),
                sync,
                delta_sync: delta,
                pressures: p,
                attribution,
                unattributed,
            });
        }
        prev = Some((row, sync));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitsync_sim::time::SimTime;

    fn row(t_secs: u64, ctx: Option<&str>, values: &[(&str, f64)]) -> Sample {
        Sample {
            at: SimTime::from_secs(t_secs),
            ctx: ctx.map(str::to_string),
            values: values.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
        }
    }

    #[test]
    fn attribution_splits_proportionally_to_pressure() {
        let rows = vec![
            row(0, None, &[("sync_frac", 0.8)]),
            row(
                600,
                None,
                &[
                    ("sync_frac", 0.7),
                    ("w_dial_ok", 0.0),
                    ("w_dial_fail", 10.0), // unreachable_load = 1.0
                    ("addr_unreach_new", 0.5),
                ],
            ),
        ];
        let r = attribute(&rows);
        assert_eq!(r.intervals.len(), 1);
        let iv = &r.intervals[0];
        assert!((iv.delta_sync - -0.1).abs() < 1e-12);
        // Pressures 1.0 and 0.5 → shares 2/3 and 1/3 of the 0.1 drop.
        assert!((r.drop_by_cause[0] - 0.1 * 2.0 / 3.0).abs() < 1e-12);
        assert!((r.drop_by_cause[1] - 0.1 / 3.0).abs() < 1e-12);
        assert_eq!(r.drop_by_cause[2], 0.0);
        assert_eq!(r.drop_by_cause[3], 0.0);
        assert!((r.total_drop - 0.1).abs() < 1e-12);
        assert_eq!(r.unattributed_drop, 0.0);
    }

    #[test]
    fn zero_pressure_drop_lands_in_unattributed() {
        let rows = vec![
            row(0, None, &[("sync_frac", 0.9)]),
            row(600, None, &[("sync_frac", 0.8)]),
        ];
        let r = attribute(&rows);
        assert!((r.unattributed_drop - 0.1).abs() < 1e-12);
        assert_eq!(r.drop_by_cause, [0.0; 4]);
    }

    #[test]
    fn context_changes_break_interval_pairing() {
        let rows = vec![
            row(0, Some("y2019"), &[("sync_frac", 0.9)]),
            row(600, Some("y2019"), &[("sync_frac", 0.8)]),
            // New arm restarts its clock; no interval across the boundary.
            row(0, Some("y2020"), &[("sync_frac", 0.2)]),
            row(600, Some("y2020"), &[("sync_frac", 0.3)]),
        ];
        let r = attribute(&rows);
        assert_eq!(r.intervals.len(), 2);
        assert_eq!(r.intervals[0].ctx.as_deref(), Some("y2019"));
        assert_eq!(r.intervals[1].ctx.as_deref(), Some("y2020"));
        assert!((r.total_drop - 0.1).abs() < 1e-12);
        assert!((r.total_gain - 0.1).abs() < 1e-12);
    }

    #[test]
    fn rows_without_sync_are_skipped() {
        let rows = vec![
            row(0, None, &[("connected", 50.0)]),
            row(86_400, None, &[("connected", 51.0)]),
        ];
        let r = attribute(&rows);
        assert!(r.intervals.is_empty());
    }

    #[test]
    fn churn_pressure_normalizes_by_population() {
        let rows = vec![
            row(0, None, &[("sync_frac", 0.9), ("honest_online", 20.0)]),
            row(
                600,
                None,
                &[
                    ("sync_frac", 0.8),
                    ("honest_online", 20.0),
                    ("w_churn_depart", 5.0),
                    ("w_churn_arrive", 5.0),
                ],
            ),
        ];
        let r = attribute(&rows);
        // 10 events over 20 nodes = 0.5 pressure, the only nonzero cause.
        assert!((r.intervals[0].pressures[3] - 0.5).abs() < 1e-12);
        assert!((r.drop_by_cause[3] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn report_json_names_every_cause() {
        let rows = vec![
            row(0, None, &[("sync_frac", 0.9)]),
            row(600, None, &[("sync_frac", 0.8)]),
        ];
        let json = attribute(&rows).to_json().to_string();
        for name in CAUSES {
            assert!(json.contains(name), "missing {name} in {json}");
        }
        assert!(json.contains("unattributed_drop"));
    }
}
