//! In-memory spans around the benchmark's own calls into the simulator.
//!
//! Spans nest by open/close order: the span open when another opens is its
//! parent. They are kept in memory and written out once, at exit, as Chrome
//! trace-event JSON. A disabled recorder is one branch per call.

use crate::seam::Value;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Index into the recorder.
    pub id: usize,
    /// Enclosing span, if any.
    pub parent: Option<usize>,
    /// Which workload run (replay) this belongs to; all spans of one run
    /// share it.
    pub run: usize,
    /// Span name (`setup`, `run.slice`, `extract`, …).
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch; equals `start_ns` while open.
    pub end_ns: u64,
    /// Simulator events processed inside the span.
    pub events: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span recorder.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder; when `enabled` is false every call is a no-op.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span under the currently open one.
    pub fn open(&mut self, name: &'static str, run: usize) {
        if !self.enabled {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.open_at(name, run, now);
    }

    fn open_at(&mut self, name: &'static str, run: usize, now: u64) {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            run,
            name,
            start_ns: now,
            end_ns: now,
            events: 0,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span, attaching its event count.
    pub fn close(&mut self, events: u64) {
        if !self.enabled {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.close_at(events, now);
    }

    fn close_at(&mut self, events: u64, now: u64) {
        let id = self.open.pop().expect("close without open");
        self.spans[id].end_ns = now;
        self.spans[id].events = events;
    }

    /// All spans, in open order.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// A span's self time: its duration minus the part of it that its
    /// direct children cover.
    pub fn self_time_ns(&self, id: usize) -> u64 {
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::dur_ns)
            .sum();
        self.spans[id].dur_ns() - covered
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
    /// (`X`) event per span, one track per workload run, with the span and
    /// parent ids in `args`.
    pub fn to_chrome_trace(&self, workload: &str) -> Value {
        let events: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                let args = Value::object()
                    .with("id", s.id)
                    .with("parent", s.parent)
                    .with("run", s.run)
                    .with("start_ns", s.start_ns)
                    .with("end_ns", s.end_ns)
                    .with("events", s.events);
                Value::object()
                    .with("name", s.name)
                    .with("cat", workload)
                    .with("ph", "X")
                    .with("ts", s.start_ns as f64 / 1_000.0)
                    .with("dur", s.dur_ns() as f64 / 1_000.0)
                    .with("pid", 1)
                    .with("tid", s.run)
                    .with("args", args)
            })
            .collect();
        Value::object()
            .with("traceEvents", events)
            .with("displayTimeUnit", "ms")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let mut s = Spans::new(true);
        s.open_at("workload.run", 0, 0);
        s.open_at("setup", 0, 10);
        s.close_at(0, 30);
        s.open_at("run.slice", 0, 30);
        s.open_at("inner", 0, 35);
        s.close_at(2, 45);
        s.close_at(5, 80);
        s.close_at(5, 100);
        let spans = s.all();
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        // root: 100 - (20 + 50); grandchildren do not count twice.
        assert_eq!(s.self_time_ns(0), 30);
        assert_eq!(s.self_time_ns(2), 40);
        assert_eq!(s.self_time_ns(3), 10);
        assert_eq!(spans[2].events, 5);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::new(false);
        s.open("setup", 0);
        s.close(0);
        assert!(s.all().is_empty());
    }

    #[test]
    fn chrome_trace_carries_ids_and_parents() {
        let mut s = Spans::new(true);
        s.open_at("workload.run", 3, 0);
        s.open_at("extract", 3, 1_000);
        s.close_at(0, 3_000);
        s.close_at(0, 4_000);
        let json = s.to_chrome_trace("relay_star").to_string();
        assert!(json.contains(r#""name":"extract""#), "{json}");
        assert!(json.contains(r#""parent":0"#), "{json}");
        assert!(json.contains(r#""tid":3"#), "{json}");
        assert!(json.contains(r#""dur":2"#), "{json}");
    }
}
