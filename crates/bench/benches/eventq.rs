//! Event-queue backend shoot-out: the hierarchical timer wheel vs. the
//! legacy binary heap on simulator-shaped timer workloads.
//!
//! Two workloads, both driven by the same deterministic timer stream for
//! each backend:
//!
//! * `bulk`: push 1M timers spread over a simulated hour, then pop them
//!   all — the shape of world construction followed by a drain.
//! * `churn`: a steady-state loop holding ~64K pending timers, popping the
//!   earliest and scheduling a replacement 1M times — the shape of a
//!   running simulation.
//!
//! The bench writes `BENCH_eventq.json` at the repository root with the
//! measured throughputs (ops/s, best of three) and the wheel-over-heap
//! speedup per workload, so CI and EXPERIMENTS.md can reference a
//! machine-readable artifact.

use bitsync_json::Value;
use bitsync_sim::event::{Backend, EventQueue};
use bitsync_sim::rng::SimRng;
use bitsync_sim::time::{SimDuration, SimTime};
use std::hint::black_box;
use std::time::Instant;

const SEED: u64 = 0x0E0E_0E0E;
const BULK_TIMERS: u64 = 1_000_000;
const CHURN_PENDING: u64 = 1 << 16;
const CHURN_OPS: u64 = 1_000_000;

/// Push `BULK_TIMERS` timers over a simulated hour, then pop every one.
/// Returns ops (pushes + pops) per second of wall time.
fn bulk(backend: Backend) -> f64 {
    let mut rng = SimRng::seed_from(SEED);
    let horizon = SimDuration::from_hours(1).as_nanos();
    let start = Instant::now();
    let mut q: EventQueue<u64> = EventQueue::with_backend(backend);
    for i in 0..BULK_TIMERS {
        q.schedule(SimTime::from_nanos(rng.below(horizon)), i);
    }
    let mut popped = 0u64;
    while let Some((t, e)) = q.pop() {
        black_box((t, e));
        popped += 1;
    }
    assert_eq!(popped, BULK_TIMERS);
    (2 * BULK_TIMERS) as f64 / start.elapsed().as_secs_f64()
}

/// Hold ~`CHURN_PENDING` timers; pop the earliest and push a replacement
/// `CHURN_OPS` times. Returns ops (pops + pushes) per second.
fn churn(backend: Backend) -> f64 {
    let mut rng = SimRng::seed_from(SEED ^ 1);
    // Typical simulator delays: milliseconds to minutes ahead of now.
    let spread = SimDuration::from_mins(10).as_nanos();
    let mut q: EventQueue<u64> = EventQueue::with_backend(backend);
    for i in 0..CHURN_PENDING {
        q.schedule(SimTime::from_nanos(rng.below(spread)), i);
    }
    let start = Instant::now();
    for i in 0..CHURN_OPS {
        let (now, e) = q.pop().expect("queue never drains");
        black_box(e);
        q.schedule(now + SimDuration::from_nanos(1 + rng.below(spread)), i);
    }
    (2 * CHURN_OPS) as f64 / start.elapsed().as_secs_f64()
}

/// Best-of-three throughput for one workload/backend pair.
fn best_of_three(workload: fn(Backend) -> f64, backend: Backend) -> f64 {
    (0..3).map(|_| workload(backend)).fold(0.0f64, f64::max)
}

/// Measures both workloads on both backends and writes the comparison
/// artifact `BENCH_eventq.json` at the repository root.
fn main() {
    let bulk_wheel = best_of_three(bulk, Backend::Wheel);
    let bulk_heap = best_of_three(bulk, Backend::Heap);
    let churn_wheel = best_of_three(churn, Backend::Wheel);
    let churn_heap = best_of_three(churn, Backend::Heap);
    let entry = |wheel: f64, heap: f64| -> Value {
        Value::object()
            .with("wheel_ops_per_sec", wheel.round())
            .with("heap_ops_per_sec", heap.round())
            .with("wheel_over_heap", (wheel / heap * 100.0).round() / 100.0)
    };
    let json = Value::object()
        .with(
            "bulk_1m_push_then_pop",
            entry(bulk_wheel, bulk_heap).with("timers", BULK_TIMERS),
        )
        .with(
            "steady_state_churn",
            entry(churn_wheel, churn_heap)
                .with("pending", CHURN_PENDING)
                .with("ops", CHURN_OPS),
        );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_eventq.json");
    std::fs::write(&path, json.to_string_pretty())
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    println!(
        "eventq: bulk {:.2}x, churn {:.2}x wheel-over-heap -> {}",
        bulk_wheel / bulk_heap,
        churn_wheel / churn_heap,
        path.display()
    );
}
