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
//! The checker also keeps what the two cross-event invariants need, which
//! no single call site can see:
//!
//! - an object ledger — conservation: per object, deliveries never exceed
//!   scheduled sends ([`Checker::record_send`],
//!   [`Checker::record_delivery`], invariant `deliveries_le_sends`);
//! - a clock — the event loop's timestamps never regress
//!   ([`Checker::check_time`], invariant `time_monotone`).
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
    /// Per 32-byte object: `(sends, deliveries)` recorded so far.
    ledger: HashMap<[u8; 32], (u64, u64)>,
    /// The latest event time [`Checker::check_time`] saw.
    clock: SimTime,
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

    /// Checks `time_monotone`: event time `at` does not precede the latest
    /// one checked before. The clock advances either way.
    pub fn check_time(&mut self, at: SimTime) {
        let Some(state) = &mut self.inner else { return };
        let last = state.clock.max(at);
        state.clock = last;
        self.check(at >= last, at, "time_monotone", || {
            format!("event at {at} after the loop reached {last}")
        });
    }

    /// Records that one send of `object` was scheduled.
    pub fn record_send(&mut self, object: [u8; 32]) {
        if let Some(state) = &mut self.inner {
            state.ledger.entry(object).or_default().0 += 1;
        }
    }

    /// Records one delivery of `object` at `at` and checks
    /// `deliveries_le_sends`: a delivery without a matching prior send is
    /// the canonical relay-ordering bug (a duplicate or fabricated
    /// delivery). `detail` gets `(deliveries, sends)` and runs only on
    /// failure.
    pub fn record_delivery(
        &mut self,
        at: SimTime,
        object: [u8; 32],
        detail: impl FnOnce(u64, u64) -> String,
    ) {
        let Some(state) = &mut self.inner else { return };
        let (sends, deliveries) = state.ledger.entry(object).or_default();
        *deliveries += 1;
        let (sends, deliveries) = (*sends, *deliveries);
        self.check(deliveries <= sends, at, "deliveries_le_sends", || {
            detail(deliveries, sends)
        });
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

    /// Each delivery is one check; a send is none.
    #[test]
    fn ledger_flags_delivery_without_send() {
        let mut c = Checker::enabled();
        let at = SimTime::from_secs(2);
        let detail = |d: u64, s: u64| format!("{d} deliveries > {s} sends");
        c.record_send([1; 32]);
        c.record_send([1; 32]);
        assert_eq!(c.checks(), 0, "a send checks nothing");
        c.record_delivery(at, [1; 32], detail);
        c.record_delivery(at, [1; 32], detail);
        assert_eq!((c.checks(), c.violation_count()), (2, 0));
        // Third delivery of a twice-sent object: violation.
        c.record_delivery(at, [1; 32], detail);
        // A never-sent object fails on its first delivery.
        c.record_delivery(at, [2; 32], detail);
        assert_eq!((c.checks(), c.violation_count()), (4, 2));
        let v = c.violations();
        assert_eq!(v[0].invariant, "deliveries_le_sends");
        assert_eq!(v[0].detail, "3 deliveries > 2 sends");
        assert_eq!(v[1].detail, "1 deliveries > 0 sends");
    }

    /// Each event time is one check; a regression is reported against the
    /// latest time, which it does not move back.
    #[test]
    fn monotone_clock_flags_regressions() {
        let mut c = Checker::enabled();
        c.check_time(SimTime::from_secs(1));
        c.check_time(SimTime::from_secs(1));
        c.check_time(SimTime::from_secs(5));
        assert_eq!(
            (c.checks(), c.violation_count()),
            (3, 0),
            "equal times are fine"
        );
        c.check_time(SimTime::from_secs(4));
        c.check_time(SimTime::from_secs(4));
        assert_eq!((c.checks(), c.violation_count()), (5, 2));
        let v = c.violations();
        assert_eq!(v[0].invariant, "time_monotone");
        assert_eq!(v[1].detail, v[0].detail, "the clock stays at 5 s");
        c.check_time(SimTime::from_secs(6));
        assert_eq!((c.checks(), c.violation_count()), (6, 2));
    }

    #[test]
    fn disabled_checker_keeps_no_ledger_or_clock() {
        let mut c = Checker::disabled();
        c.record_send([1; 32]);
        c.record_delivery(SimTime::ZERO, [2; 32], |_, _| unreachable!());
        c.check_time(SimTime::from_secs(9));
        c.check_time(SimTime::ZERO);
        assert_eq!((c.checks(), c.violation_count()), (0, 0));
    }
}
