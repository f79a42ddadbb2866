//! Timer-wheel edge cases, each checked against the binary-heap oracle:
//! the two backends must produce identical `(time, event)` pop sequences
//! for any schedule, including the regimes the wheel handles specially —
//! far-future timers parked past the top level, cascades at exact
//! `64^k` digit boundaries, and zero-delay self-schedules from inside a
//! `pop_until` drain — and for a long interleaved schedule/pop stream.
//!
//! The heap is what every world runs on; the wheel is built only by the
//! benchmark's queue probes (`bitsync_sim::event` module docs). This file
//! goes with the wheel, once `benchmark/src/seam*` stops naming `Backend`.

use bitsync_sim::event::{Backend, EventQueue};
use bitsync_sim::rng::SimRng;
use bitsync_sim::time::{SimDuration, SimTime};
use proptest::prelude::*;

/// Mirror of the wheel's span (8 levels × 6 bits): entries scheduled this
/// far (or further) ahead go to the far-future overflow list.
const WHEEL_SPAN_NANOS: u64 = 1 << 48;

/// Schedules `times` (nanoseconds, in order) on `backend` and pops
/// everything, returning the `(time, index)` drain sequence.
fn drain(backend: Backend, times: &[u64]) -> Vec<(u64, usize)> {
    let mut q = EventQueue::with_backend(backend);
    for (i, &t) in times.iter().enumerate() {
        q.schedule(SimTime::from_nanos(t), i);
    }
    let mut out = Vec::with_capacity(times.len());
    while let Some((at, ev)) = q.pop() {
        out.push((at.as_nanos(), ev));
    }
    out
}

/// Both backends drain `times` identically (and completely).
fn assert_backends_agree(times: &[u64]) {
    let wheel = drain(Backend::Wheel, times);
    let heap = drain(Backend::Heap, times);
    assert_eq!(wheel.len(), times.len(), "wheel lost or invented events");
    assert_eq!(wheel, heap, "wheel and heap disagree for {times:?}");
}

#[test]
fn far_future_timers_beyond_the_top_level() {
    // Timers right below, at, and far beyond the wheel span, interleaved
    // with near-term ones. The overflow list must hand them back in time
    // order once the wheel advances that far.
    let times = [
        5,
        WHEEL_SPAN_NANOS - 1,
        WHEEL_SPAN_NANOS,
        WHEEL_SPAN_NANOS + 1,
        3 * WHEEL_SPAN_NANOS + 17,
        2 * WHEEL_SPAN_NANOS,
        1,
        WHEEL_SPAN_NANOS / 2,
        10 * WHEEL_SPAN_NANOS,
    ];
    assert_backends_agree(&times);
}

#[test]
fn far_future_ties_keep_fifo_order() {
    // Several events parked at the same far-future instant must pop in
    // scheduling order, exactly like same-instant events inside the span.
    let t = 2 * WHEEL_SPAN_NANOS + 999;
    let times = [t, t, 7, t, WHEEL_SPAN_NANOS + 3, t];
    assert_backends_agree(&times);
}

#[test]
fn level_cascade_boundaries_at_powers_of_64() {
    // Exact multiples of 64^k sit on the first slot of level k; the ±1
    // neighbors land on adjacent digits. Cascading must not reorder or
    // drop any of them.
    let mut times = Vec::new();
    for level in 1..8u32 {
        let unit = 1u64 << (6 * level);
        for mult in [1u64, 2, 63, 64] {
            if let Some(t) = unit.checked_mul(mult) {
                times.extend([t - 1, t, t + 1]);
            }
        }
    }
    assert_backends_agree(&times);
}

#[test]
fn cascade_boundary_reached_after_partial_drain() {
    // Popping some near events first moves the wheel's base off zero, so
    // later boundary timers cascade from a rotated position.
    fn sequence(backend: Backend) -> Vec<(u64, usize)> {
        let mut q = EventQueue::with_backend(backend);
        for i in 0..10u64 {
            q.schedule(SimTime::from_nanos(i * 7), i as usize);
        }
        let mut seq = Vec::new();
        for _ in 0..5 {
            let (at, ev) = q.pop().expect("five near events");
            seq.push((at.as_nanos(), ev));
        }
        // Now schedule exactly on level boundaries relative to time zero.
        for (j, level) in (1..8u32).enumerate() {
            q.schedule(SimTime::from_nanos(1 << (6 * level)), 100 + j);
        }
        while let Some((at, ev)) = q.pop() {
            seq.push((at.as_nanos(), ev));
        }
        seq
    }
    let wheel = sequence(Backend::Wheel);
    assert_eq!(wheel.len(), 17);
    let times: Vec<u64> = wheel.iter().map(|(t, _)| *t).collect();
    let mut sorted = times.clone();
    sorted.sort_unstable();
    assert_eq!(times, sorted, "wheel drained out of order");
    assert_eq!(wheel, sequence(Backend::Heap));
}

#[test]
fn zero_delay_self_schedules_during_run() {
    // An event that reschedules itself with zero delay: the new event
    // lands at the current instant and must run in the same drain, after
    // already-queued same-instant events (FIFO), identically on both
    // backends — and terminate.
    fn sequence(backend: Backend) -> Vec<(u64, u32)> {
        let mut q: EventQueue<u32> = EventQueue::with_backend(backend);
        q.schedule(SimTime::from_nanos(10), 0);
        q.schedule(SimTime::from_nanos(10), 100);
        let mut seen: Vec<(u64, u32)> = Vec::new();
        while let Some((at, ev)) = q.pop_until(SimTime::from_nanos(1_000)) {
            seen.push((at.as_nanos(), ev));
            if ev < 5 {
                // Zero-delay self-schedule: same instant, new seq.
                q.schedule_after(SimDuration::ZERO, ev + 1);
            }
        }
        seen
    }
    let wheel = sequence(Backend::Wheel);
    assert_eq!(
        wheel,
        vec![
            (10, 0),
            (10, 100),
            (10, 1),
            (10, 2),
            (10, 3),
            (10, 4),
            (10, 5)
        ],
        "zero-delay chain must interleave FIFO at one instant"
    );
    assert_eq!(wheel, sequence(Backend::Heap));
}

#[test]
fn schedule_at_now_while_draining_pop_until() {
    // pop_until with re-scheduling at the popped instant: the same-instant
    // lane must still honor deadline and ordering.
    for backend in [Backend::Wheel, Backend::Heap] {
        let mut q: EventQueue<&str> = EventQueue::with_backend(backend);
        q.schedule(SimTime::from_nanos(50), "a");
        let deadline = SimTime::from_nanos(60);
        let mut labels = Vec::new();
        while let Some((at, ev)) = q.pop_until(deadline) {
            labels.push((at.as_nanos(), ev));
            if ev == "a" {
                q.schedule(at, "b"); // same instant as the event in flight
                q.schedule(SimTime::from_nanos(61), "late");
            }
        }
        assert_eq!(labels, vec![(50, "a"), (50, "b")], "{backend:?}");
        assert_eq!(q.len(), 1, "the post-deadline event stays queued");
    }
}

/// A mixed schedule/pop workload returning the observed pop sequence.
fn pop_sequence(backend: Backend, seed: u64) -> Vec<(u64, u64)> {
    let mut rng = SimRng::seed_from(seed);
    let mut q: EventQueue<u64> = EventQueue::with_backend(backend);
    let mut out = Vec::new();
    let horizon = SimDuration::from_mins(30).as_nanos();
    for i in 0..20_000u64 {
        // Schedule relative to the advancing clock (popping moves `now`
        // forward); masking the low bits makes duplicate timestamps
        // frequent so FIFO tie-breaking is exercised.
        let t = q.now() + SimDuration::from_nanos(rng.below(horizon) & !0x3ff);
        q.schedule(t, i);
        if rng.chance(0.45) {
            if let Some((at, e)) = q.pop() {
                out.push((at.as_nanos(), e));
            }
        }
    }
    while let Some((at, e)) = q.pop() {
        out.push((at.as_nanos(), e));
    }
    out
}

/// Raw queues: identical pop order, including (time, seq) tie-breaks.
#[test]
fn wheel_and_heap_pop_orders_are_identical() {
    for seed in [3, 17, 2021] {
        let wheel = pop_sequence(Backend::Wheel, seed);
        let heap = pop_sequence(Backend::Heap, seed);
        assert_eq!(wheel.len(), heap.len(), "seed {seed}: dropped events");
        for (i, (w, h)) in wheel.iter().zip(&heap).enumerate() {
            assert_eq!(w, h, "seed {seed}: pop {i} diverged");
        }
    }
}

proptest! {
    /// Random mixes of near, boundary-aligned, and far-future times drain
    /// identically on both backends.
    #[test]
    fn random_schedules_agree_with_heap(
        raw in proptest::collection::vec((0u64..4, 0u64..1_000_000), 1..120)
    ) {
        // Map each (regime, x) pair into a time in that regime so every
        // sample exercises all the special paths at once.
        let times: Vec<u64> = raw
            .iter()
            .map(|&(regime, x)| match regime {
                0 => x,                                     // near
                1 => (1u64 << 18) * (x % 4096),             // level-3 digits
                2 => WHEEL_SPAN_NANOS.saturating_sub(x),    // just inside
                _ => WHEEL_SPAN_NANOS + x,                  // far future
            })
            .collect();
        let wheel = drain(Backend::Wheel, &times);
        let heap = drain(Backend::Heap, &times);
        prop_assert_eq!(wheel, heap);
    }
}
