//! Trace-layer integration tests: exact drop accounting, and the exact
//! differential between trace-derived relay delays and the live
//! `node.relay_delay_secs` histogram. That a trace is the same
//! at any thread count is `crates/bench/tests/cli.rs`'s quick-bundle check.

use bitsync_core::analysis::relay_replay::replay_relay_histogram;
use bitsync_core::experiments::relay::{self, RelayConfig};
use bitsync_core::node::world::{metric, FRESH_RELAY_WINDOW};
use bitsync_core::sim::metrics::Recorder;
use bitsync_core::sim::trace::{RelayEvent, Tracer};
use bitsync_core::sim::Instruments;

/// Drop accounting is exact when a category overflows its ring: rerunning
/// the same deterministic experiment with a tiny cap keeps exactly `cap`
/// newest events per overflowed category and counts every eviction, so
/// `retained + dropped` equals the uncapped event count.
#[test]
fn tiny_trace_cap_drops_are_counted_exactly() {
    const TINY: usize = 64;
    let run_with_cap = |cap: usize| {
        let ins = Instruments {
            tracer: Tracer::enabled(cap),
            ..Instruments::default()
        };
        relay::run(&RelayConfig::quick(2021), &ins);
        ins.tracer.take().expect("enabled tracer drains")
    };
    let full = run_with_cap(1 << 22);
    assert_eq!(
        full.total_dropped(),
        0,
        "reference run must hold everything"
    );
    let tiny = run_with_cap(TINY);
    for (name, full_len, tiny_len, tiny_dropped) in [
        (
            "relay",
            full.relay.len(),
            tiny.relay.len(),
            tiny.relay.dropped(),
        ),
        (
            "dial",
            full.dial.len(),
            tiny.dial.len(),
            tiny.dial.dropped(),
        ),
        (
            "addr",
            full.addr.len(),
            tiny.addr.len(),
            tiny.addr.dropped(),
        ),
    ] {
        assert!(
            full_len > TINY,
            "{name}: quick relay run must overflow a {TINY}-event ring"
        );
        assert_eq!(tiny_len, TINY, "{name}: overflowed ring must sit at cap");
        assert_eq!(
            tiny_len as u64 + tiny_dropped,
            full_len as u64,
            "{name}: retained + dropped must equal the uncapped count"
        );
    }
    // The ring keeps the *newest* events: the tiny run's retained relay
    // events are exactly the tail of the uncapped run.
    let full_tail: Vec<String> = full
        .relay
        .iter()
        .skip(full.relay.len() - TINY)
        .map(|e| format!("{e:?}"))
        .collect();
    let tiny_all: Vec<String> = tiny.relay.iter().map(|e| format!("{e:?}")).collect();
    assert_eq!(tiny_all, full_tail, "retained events are not the newest");
}

fn relay_events(seed: u64) -> (Recorder, Vec<RelayEvent>) {
    let ins = Instruments {
        // Large cap: the differential below requires a complete trace.
        tracer: Tracer::enabled(1 << 22),
        ..Instruments::default()
    };
    relay::run(&RelayConfig::quick(seed), &ins);
    let log = ins.tracer.take().expect("enabled tracer drains");
    assert_eq!(log.total_dropped(), 0, "trace ring dropped events");
    (ins.metrics, log.relay.iter().cloned().collect())
}

/// The differential check of the acceptance criteria: replaying the trace
/// reproduces the live relay-delay histogram exactly — count, sum,
/// per-bucket counts, min, and max.
#[test]
fn relay_trace_replays_live_histogram_exactly() {
    let (rec, events) = relay_events(2021);
    let live = rec
        .histogram(metric::RELAY_DELAY)
        .expect("relay experiment records the delay histogram");
    assert!(live.count() > 0, "empty live histogram");
    let replayed = replay_relay_histogram(&events, 0, FRESH_RELAY_WINDOW, live.bounds());
    assert_eq!(replayed.count(), live.count(), "observation count differs");
    assert_eq!(
        replayed.bucket_counts(),
        live.bucket_counts(),
        "per-bucket counts differ"
    );
    assert_eq!(replayed, live, "sum/min/max differ from live histogram");
}
