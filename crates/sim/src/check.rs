//! Runtime invariant checking for deterministic simulations.
//!
//! The scenario fuzzer (see `bitsync-core`'s `experiments::fuzz`) runs
//! randomly sampled worlds under a battery of safety properties: time never
//! runs backwards, nothing is delivered that was never sent, degree caps
//! hold, address-manager tables stay internally consistent. This module is
//! the recording half of that harness: a [`Checker`] collects
//! [`Violation`]s instead of panicking, so one bounded run can surface
//! *every* broken invariant and the fuzzer can shrink the scenario that
//! produced them.
//!
//! Unlike the shared instrument handles ([`crate::Instruments`]), a
//! `Checker` is a plain value owned by the one world it checks, and the
//! recording methods take `&mut self`; its default [`Checker::disabled`]
//! state costs a single branch per check site. The violation list is
//! capped; totals keep counting past the cap so a hot broken invariant
//! cannot eat memory.
//!
//! Two small bookkeeping helpers cover the cross-event invariants the
//! checker itself cannot see from a single call site:
//!
//! - [`ObjectLedger`] — conservation: per object, deliveries never exceed
//!   scheduled sends;
//! - [`MonotoneClock`] — the event loop's timestamps never regress.
//!
//! # Examples
//!
//! ```
//! use bitsync_sim::check::Checker;
//! use bitsync_sim::time::SimTime;
//!
//! let mut checker = Checker::enabled();
//! checker.check(1 + 1 == 2, SimTime::ZERO, "arithmetic", || "unused".into());
//! checker.check(false, SimTime::from_secs(5), "outdegree", || "9 > 8".into());
//! assert_eq!(checker.violation_count(), 1);
//! assert_eq!(checker.violations()[0].invariant, "outdegree");
//! ```

use crate::time::SimTime;
use std::collections::HashMap;

/// Retained violations are capped at this many; see [`Checker`].
pub const MAX_RETAINED_VIOLATIONS: usize = 64;

/// One failed invariant check.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Simulation time of the failing check.
    pub at: SimTime,
    /// Stable name of the violated invariant (e.g. `"outdegree_cap"`).
    pub invariant: &'static str,
    /// Human-readable specifics of this failure.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}: {}", self.at, self.invariant, self.detail)
    }
}

#[derive(Debug, Default)]
struct CheckState {
    checks: u64,
    total_violations: u64,
    violations: Vec<Violation>,
}

/// An invariant recorder, or a no-op when disabled.
#[derive(Debug, Default)]
pub struct Checker {
    inner: Option<CheckState>,
}

impl Checker {
    /// The no-op checker: every check is a single branch.
    pub fn disabled() -> Checker {
        Checker { inner: None }
    }

    /// A recording checker.
    pub fn enabled() -> Checker {
        Checker {
            inner: Some(CheckState::default()),
        }
    }

    /// True when checks are recorded. Call sites with non-trivial condition
    /// evaluation should guard on this.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records a failed check of `invariant` at `at`.
    pub fn fail(&mut self, at: SimTime, invariant: &'static str, detail: impl FnOnce() -> String) {
        if let Some(state) = &mut self.inner {
            state.checks += 1;
            state.total_violations += 1;
            if state.violations.len() < MAX_RETAINED_VIOLATIONS {
                let detail = detail();
                state.violations.push(Violation {
                    at,
                    invariant,
                    detail,
                });
            }
        }
    }

    /// Records a check of `invariant`: a violation when `ok` is false.
    /// `detail` is only evaluated on failure.
    pub fn check(
        &mut self,
        ok: bool,
        at: SimTime,
        invariant: &'static str,
        detail: impl FnOnce() -> String,
    ) {
        let Some(state) = &mut self.inner else { return };
        if ok {
            state.checks += 1;
        } else {
            self.fail(at, invariant, detail);
        }
    }

    /// Total checks performed (passing and failing).
    pub fn checks(&self) -> u64 {
        self.inner.as_ref().map_or(0, |s| s.checks)
    }

    /// Total violations recorded, including those beyond the retention cap.
    pub fn violation_count(&self) -> u64 {
        self.inner.as_ref().map_or(0, |s| s.total_violations)
    }

    /// True when enabled and no check has failed.
    pub fn ok(&self) -> bool {
        self.violation_count() == 0
    }

    /// The retained violations (at most [`MAX_RETAINED_VIOLATIONS`]), in
    /// recording order.
    pub fn violations(&self) -> &[Violation] {
        self.inner.as_ref().map_or(&[], |s| &s.violations)
    }
}

/// Conservation bookkeeping: per 32-byte object, how many sends were
/// scheduled and how many deliveries arrived. A delivery without a
/// matching prior send is the canonical relay-ordering bug (duplicate or
/// fabricated delivery), surfaced by [`ObjectLedger::record_delivery`]
/// returning `false`.
#[derive(Debug, Default)]
pub struct ObjectLedger {
    counts: HashMap<[u8; 32], (u64, u64)>,
}

impl ObjectLedger {
    /// An empty ledger.
    pub fn new() -> ObjectLedger {
        ObjectLedger::default()
    }

    /// Records that one send of `object` was scheduled.
    pub fn record_send(&mut self, object: [u8; 32]) {
        self.counts.entry(object).or_insert((0, 0)).0 += 1;
    }

    /// Records one delivery of `object`; `false` when deliveries now
    /// exceed sends (an invariant violation at the call site).
    pub fn record_delivery(&mut self, object: [u8; 32]) -> bool {
        let (sends, deliveries) = self.counts.entry(object).or_insert((0, 0));
        *deliveries += 1;
        *deliveries <= *sends
    }

    /// `(sends, deliveries)` for `object`.
    pub fn counts(&self, object: &[u8; 32]) -> (u64, u64) {
        self.counts.get(object).copied().unwrap_or((0, 0))
    }

    /// Number of distinct objects seen.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True when no object was recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }
}

/// Tracks that observed event timestamps never regress.
#[derive(Clone, Copy, Debug, Default)]
pub struct MonotoneClock {
    last: SimTime,
}

impl MonotoneClock {
    /// A clock starting at [`SimTime::ZERO`].
    pub fn new() -> MonotoneClock {
        MonotoneClock::default()
    }

    /// Observes an event timestamp; `false` when it precedes an earlier
    /// observation. Advances the clock either way.
    pub fn observe(&mut self, at: SimTime) -> bool {
        let ok = at >= self.last;
        self.last = self.last.max(at);
        ok
    }

    /// The latest timestamp observed so far.
    pub fn last(&self) -> SimTime {
        self.last
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn disabled_checker_records_nothing() {
        let mut c = Checker::disabled();
        assert!(!c.is_enabled());
        c.check(false, SimTime::ZERO, "anything", || unreachable!());
        assert_eq!(c.checks(), 0);
        assert_eq!(c.violation_count(), 0);
        assert!(c.ok(), "a disabled checker reports ok");
        assert!(c.violations().is_empty());
    }

    #[test]
    fn checks_are_counted_and_detail_is_lazy() {
        let mut c = Checker::enabled();
        let mut evaluated = false;
        c.check(true, SimTime::ZERO, "pass", || {
            evaluated = true;
            String::new()
        });
        assert!(!evaluated, "detail must not run for passing checks");
        c.check(false, SimTime::from_secs(3), "fail", || "boom".into());
        assert_eq!(c.checks(), 2);
        assert_eq!(c.violation_count(), 1);
        assert!(!c.ok());
        let v = c.violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "fail");
        assert_eq!(v[0].at, SimTime::from_secs(3));
        assert!(v[0].to_string().contains("boom"));
    }

    #[test]
    fn violation_retention_is_capped_but_totals_keep_counting() {
        let mut c = Checker::enabled();
        for i in 0..(MAX_RETAINED_VIOLATIONS as u64 + 10) {
            c.fail(SimTime::ZERO + SimDuration::from_nanos(i), "hot", || {
                format!("#{i}")
            });
        }
        assert_eq!(c.violations().len(), MAX_RETAINED_VIOLATIONS);
        assert_eq!(c.violation_count(), MAX_RETAINED_VIOLATIONS as u64 + 10);
    }

    #[test]
    fn ledger_flags_delivery_without_send() {
        let mut ledger = ObjectLedger::new();
        assert!(ledger.is_empty());
        ledger.record_send([1; 32]);
        ledger.record_send([1; 32]);
        assert!(ledger.record_delivery([1; 32]));
        assert!(ledger.record_delivery([1; 32]));
        // Third delivery of a twice-sent object: violation.
        assert!(!ledger.record_delivery([1; 32]));
        assert_eq!(ledger.counts(&[1; 32]), (2, 3));
        // A never-sent object fails on its first delivery.
        assert!(!ledger.record_delivery([2; 32]));
        assert_eq!(ledger.len(), 2);
    }

    #[test]
    fn monotone_clock_flags_regressions() {
        let mut clock = MonotoneClock::new();
        assert!(clock.observe(SimTime::from_secs(1)));
        assert!(clock.observe(SimTime::from_secs(1)), "equal times are fine");
        assert!(clock.observe(SimTime::from_secs(5)));
        assert!(!clock.observe(SimTime::from_secs(4)));
        assert_eq!(clock.last(), SimTime::from_secs(5));
    }
}
