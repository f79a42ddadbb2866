#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! `bitsync-sim` — a small, deterministic discrete-event simulation engine.
//!
//! Everything stochastic or time-dependent in the `bitsync` workspace runs on
//! this engine:
//!
//! - [`time`]: integer-nanosecond [`time::SimTime`] / [`time::SimDuration`]
//!   (no floating-point clock drift, total ordering for the event queue).
//! - [`event`]: a time-ordered [`event::EventQueue`] with deterministic
//!   tie-breaking (same instant ⇒ scheduling order).
//! - [`rng`]: seeded [`rng::SimRng`] with the distribution helpers the
//!   network model needs (exponential, normal / log-normal, uniform choice
//!   and sampling; [`rng::AliasTable`] for weighted choice),
//!   forkable per component so streams stay decoupled.
//! - [`check`]: a [`check::Checker`] that records invariant violations
//!   instead of panicking, for the scenario fuzzer's bounded runs; each
//!   checked world owns its own.
//! - [`Instruments`]: the one bundle of shared observer handles
//!   ([`metrics`], [`trace`], [`timeseries`]) every run is handed.
//!
//! # Examples
//!
//! A minimal M/D/1-style arrival loop:
//!
//! ```
//! use bitsync_sim::event::EventQueue;
//! use bitsync_sim::rng::SimRng;
//! use bitsync_sim::time::{SimDuration, SimTime};
//!
//! let mut q: EventQueue<&str> = EventQueue::new();
//! let mut rng = SimRng::seed_from(1);
//! q.schedule(SimTime::ZERO, "arrival");
//! let mut arrivals = 0u32;
//! while let Some((_at, _ev)) = q.pop_until(SimTime::from_secs(3600)) {
//!     arrivals += 1;
//!     q.schedule_after(rng.exp_duration(SimDuration::from_secs(600)), "arrival");
//! }
//! assert!(arrivals > 0);
//! ```

pub mod check;
pub mod event;
pub mod fault;
pub mod metrics;
pub mod rng;
pub mod time;
pub mod timeseries;
pub mod trace;

pub use event::EventQueue;
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};

/// The observer handles one run reports into, passed by reference from the
/// caller down to whatever builds the worlds.
///
/// `Default` is a fresh [`metrics::Recorder`] with the tracer and sampler
/// disabled; enable one by replacing its field. Every handle is a cheap
/// clone of shared state, so the caller reads the results back out of the
/// same bundle after the run (`metrics`, `tracer.take()`,
/// `sampler.take()`). Handles only observe: a run's result must not depend
/// on which of them are enabled.
#[derive(Debug, Default)]
pub struct Instruments {
    /// Counters, gauges and histograms; always recording.
    pub metrics: metrics::Recorder,
    /// Per-event trace sink.
    pub tracer: trace::Tracer,
    /// Sim-time-cadence timeseries sampler.
    pub sampler: timeseries::Sampler,
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Events always pop in non-decreasing time order, whatever the
        /// insertion order.
        #[test]
        fn queue_is_time_ordered(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
            let mut q = EventQueue::new();
            for &t in &times {
                q.schedule(SimTime::from_nanos(t), t);
            }
            let mut last = 0u64;
            while let Some((at, _)) = q.pop() {
                prop_assert!(at.as_nanos() >= last);
                last = at.as_nanos();
            }
        }

        /// The queue pops exactly the scheduled multiset of events.
        #[test]
        fn queue_conserves_events(times in proptest::collection::vec(0u64..1000, 0..100)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(SimTime::from_nanos(t), i);
            }
            let mut seen: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
            seen.sort_unstable();
            prop_assert_eq!(seen, (0..times.len()).collect::<Vec<_>>());
        }
    }
}
