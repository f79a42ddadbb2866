//! Wall-clock phase profiling for the experiment runner.
//!
//! The runner stamps a [`PhaseSpan`] around the two phases of every
//! experiment: `run` (the registry row's function — worlds, reduction and
//! the text report) and `render` (assembling the JSON envelope with the
//! metrics section). Spans are *side-channel* observability, like
//! [`bitsync_sim::metrics::peak_rss_bytes`]: wall-clock numbers vary per
//! machine and per thread placement, so they are never written into the
//! deterministic report JSON — only exported separately as a Chrome
//! trace-event file (loadable in `chrome://tracing` or Perfetto) and a
//! stderr summary.

use bitsync_json::Value;
use std::fmt::Write as _;

/// One timed phase of one experiment, relative to the runner's start.
#[derive(Clone, Copy, Debug)]
pub struct PhaseSpan {
    /// Experiment name.
    pub experiment: &'static str,
    /// Phase: `run` or `render`.
    pub phase: &'static str,
    /// Microseconds from runner start to phase start.
    pub start_us: u64,
    /// Phase duration in microseconds.
    pub dur_us: u64,
    /// Worker lane (serial runs use the submission index) — becomes the
    /// Chrome trace `tid` so concurrent experiments render as rows.
    pub lane: usize,
}

/// A finished runner invocation's profile.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// All spans, in completion order.
    pub spans: Vec<PhaseSpan>,
    /// Total wall-clock seconds of the runner invocation.
    pub wall_secs: f64,
}

impl Profile {
    /// Assembles a profile from collected spans.
    pub fn new(spans: Vec<PhaseSpan>, wall_secs: f64) -> Profile {
        Profile { spans, wall_secs }
    }

    /// Serializes as Chrome trace-event JSON: complete (`ph: "X"`) events
    /// with microsecond timestamps, one `tid` row per worker lane.
    pub fn to_chrome_trace(&self) -> Value {
        let events: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                Value::object()
                    .with("name", format!("{}:{}", s.experiment, s.phase))
                    .with("cat", "experiment")
                    .with("ph", "X")
                    .with("ts", s.start_us)
                    .with("dur", s.dur_us)
                    .with("pid", 1u32)
                    .with("tid", s.lane as u64)
                    .with(
                        "args",
                        Value::object()
                            .with("experiment", s.experiment)
                            .with("phase", s.phase),
                    )
            })
            .collect();
        Value::object()
            .with("traceEvents", Value::Array(events))
            .with("displayTimeUnit", "ms")
    }

    /// A per-experiment table of phase durations for stderr.
    pub fn summary(&self) -> String {
        let mut order: Vec<&'static str> = Vec::new();
        for s in &self.spans {
            if !order.contains(&s.experiment) {
                order.push(s.experiment);
            }
        }
        let mut out = format!("[profile] wall {:.2}s\n", self.wall_secs);
        for name in order {
            let ms = |phase: &str| -> f64 {
                self.spans
                    .iter()
                    .filter(|s| s.experiment == name && s.phase == phase)
                    .map(|s| s.dur_us as f64 / 1000.0)
                    .sum()
            };
            let _ = writeln!(
                out,
                "[profile]   {name:<14} run {r:>10.1}ms  render {d:>8.1}ms",
                r = ms("run"),
                d = ms("render"),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Profile {
        Profile::new(
            vec![
                PhaseSpan {
                    experiment: "relay",
                    phase: "run",
                    start_us: 150,
                    dur_us: 2_000_000,
                    lane: 0,
                },
                PhaseSpan {
                    experiment: "relay",
                    phase: "render",
                    start_us: 2_000_150,
                    dur_us: 900,
                    lane: 0,
                },
                PhaseSpan {
                    experiment: "census",
                    phase: "run",
                    start_us: 100,
                    dur_us: 500_000,
                    lane: 1,
                },
            ],
            2.1,
        )
    }

    #[test]
    fn chrome_trace_has_complete_events() {
        let json = sample().to_chrome_trace();
        let events = json.get("traceEvents").and_then(Value::as_array).unwrap();
        assert_eq!(events.len(), 3);
        for ev in events {
            assert_eq!(ev.get("ph").map(|v| v.to_string()), Some("\"X\"".into()));
            assert!(ev.get("ts").and_then(Value::as_u64).is_some());
            assert!(ev.get("dur").and_then(Value::as_u64).is_some());
        }
        let s = json.to_string();
        assert!(s.contains("relay:run"));
        assert!(s.contains("\"tid\":1"));
    }

    #[test]
    fn summary_lists_each_experiment_once() {
        let text = sample().summary();
        assert_eq!(text.matches("relay").count(), 1);
        assert!(text.contains("census"));
        assert!(text.contains("wall 2.10s"));
        assert!(text.contains("2000000.0ms") || text.contains("2000.0"));
    }
}
