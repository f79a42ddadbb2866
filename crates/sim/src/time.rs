//! Simulated time.
//!
//! [`SimTime`] is an absolute instant measured in integer nanoseconds since
//! the start of a scenario; [`SimDuration`] is a span between instants.
//! Integer nanoseconds keep the event queue totally ordered and the
//! simulation deterministic across platforms (no floating-point drift).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An absolute simulated instant, in nanoseconds since scenario start.
///
/// # Examples
///
/// ```
/// use bitsync_sim::time::{SimDuration, SimTime};
///
/// let t = SimTime::ZERO + SimDuration::from_secs(90);
/// assert_eq!(t.as_secs_f64(), 90.0);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimDuration(u64);

impl SimTime {
    /// The scenario start instant.
    pub const ZERO: SimTime = SimTime(0);
    /// The latest representable instant; used as an "infinite" deadline.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw nanoseconds since scenario start.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates an instant `secs` seconds after scenario start.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000_000)
    }

    /// Raw nanoseconds since scenario start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole seconds since scenario start (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000_000
    }

    /// Seconds since scenario start as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration since `earlier`, saturating to zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition of a duration (clamps at [`SimTime::MAX`]).
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }

    /// This instant quantized down to whole seconds, mirroring the 1-second
    /// granularity of Bitcoin Core's `debug.log` used in the paper's
    /// Figures 10 and 11.
    pub const fn quantize_secs(self) -> SimTime {
        SimTime((self.0 / 1_000_000_000) * 1_000_000_000)
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from raw nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000_000)
    }

    /// Creates a duration from whole minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration::from_secs(mins * 60)
    }

    /// Creates a duration from whole hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration::from_secs(hours * 3600)
    }

    /// Creates a duration from whole days.
    pub const fn from_days(days: u64) -> Self {
        SimDuration::from_secs(days * 86_400)
    }

    /// Creates a duration from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration seconds must be finite and non-negative, got {secs}"
        );
        SimDuration((secs * 1e9).round() as u64)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole seconds (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000_000
    }

    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Days as a float.
    pub fn as_days_f64(self) -> f64 {
        self.0 as f64 / (86_400.0 * 1e9)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplies the duration by an integer factor, saturating.
    pub fn saturating_mul(self, factor: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(factor))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, other: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(other.0)
                .expect("SimTime subtraction underflow"),
        )
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0 + other.0)
    }
}

impl AddAssign<SimDuration> for SimDuration {
    fn add_assign(&mut self, other: SimDuration) {
        self.0 += other.0;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1000));
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1000));
        assert_eq!(SimDuration::from_micros(1), SimDuration::from_nanos(1000));
        assert_eq!(SimDuration::from_mins(2), SimDuration::from_secs(120));
        assert_eq!(SimDuration::from_hours(1), SimDuration::from_mins(60));
        assert_eq!(SimDuration::from_days(1), SimDuration::from_hours(24));
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::from_secs(10) + SimDuration::from_secs(5);
        assert_eq!(t, SimTime::from_secs(15));
        assert_eq!(t - SimTime::from_secs(10), SimDuration::from_secs(5));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn time_subtraction_underflow_panics() {
        let _ = SimTime::from_secs(1) - SimTime::from_secs(2);
    }

    #[test]
    fn saturating_since_clamps() {
        let d = SimTime::from_secs(1).saturating_since(SimTime::from_secs(2));
        assert_eq!(d, SimDuration::ZERO);
    }

    #[test]
    fn quantize_mirrors_debug_log() {
        let t = SimTime::from_nanos(1_999_999_999);
        assert_eq!(t.quantize_secs(), SimTime::from_secs(1));
        assert_eq!(SimTime::from_secs(3).quantize_secs(), SimTime::from_secs(3));
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(
            SimDuration::from_secs_f64(1.5),
            SimDuration::from_millis(1500)
        );
        assert_eq!(SimDuration::from_secs_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn from_secs_f64_rejects_negative() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn day_conversions() {
        let d = SimDuration::from_hours(36);
        assert!((d.as_days_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_secs(2).to_string(), "t+2.000s");
        assert_eq!(SimDuration::from_millis(250).to_string(), "0.250s");
    }
}
