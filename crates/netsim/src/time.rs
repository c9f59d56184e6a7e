//! Simulated time: instants, durations, and a shared clock.
//!
//! Time is kept in microseconds since the start of the simulation. The
//! resolution is fine enough for network round trips yet a four-month
//! campaign still fits comfortably in a `u64`.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A span of simulated time with microsecond resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// A duration of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// A duration of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000)
    }

    /// A duration of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000)
    }

    /// A duration of `mins` minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60_000_000)
    }

    /// A duration of `hours` hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * 3_600_000_000)
    }

    /// A duration of `days` days.
    pub const fn from_days(days: u64) -> Self {
        SimDuration(days * 86_400_000_000)
    }

    /// The duration in whole microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The duration in whole seconds (truncated).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000
    }

    /// The duration in whole days (truncated).
    pub const fn as_days(self) -> u64 {
        self.0 / 86_400_000_000
    }

    /// The duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Multiply the duration by an integer factor.
    pub const fn mul(self, factor: u64) -> SimDuration {
        SimDuration(self.0 * factor)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let micros = self.0;
        if micros >= 86_400_000_000 {
            write!(f, "{:.2}d", micros as f64 / 86_400e6)
        } else if micros >= 3_600_000_000 {
            write!(f, "{:.2}h", micros as f64 / 3_600e6)
        } else if micros >= 1_000_000 {
            write!(f, "{:.3}s", micros as f64 / 1e6)
        } else {
            write!(f, "{}us", micros)
        }
    }
}

/// An instant of simulated time, measured from the simulation epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const EPOCH: SimTime = SimTime(0);

    /// An instant `micros` microseconds after the epoch.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Microseconds since the epoch.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Whole seconds since the epoch (truncated).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Whole days since the epoch (truncated).
    pub const fn as_days(self) -> u64 {
        self.0 / 86_400_000_000
    }

    /// Time elapsed since `earlier`, saturating at zero if `earlier` is later.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.as_micros())
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.as_micros();
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

/// A shared simulation clock.
///
/// Every component of the simulation holds a clone. Advancing the clock in
/// one place is visible everywhere, which is how, say, an SMTP conversation
/// charges round-trip time that DNS cache expiry later observes.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    micros: Arc<AtomicU64>,
}

impl SimClock {
    /// A fresh clock at the epoch.
    pub fn new() -> Self {
        SimClock::default()
    }

    /// A clock pre-advanced to `start`.
    pub fn starting_at(start: SimTime) -> Self {
        let clock = SimClock::new();
        clock.micros.store(start.as_micros(), Ordering::Relaxed);
        clock
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        SimTime(self.micros.load(Ordering::Relaxed))
    }

    /// Advance the clock by `d` and return the new instant.
    pub fn advance(&self, d: SimDuration) -> SimTime {
        let new = self.micros.fetch_add(d.as_micros(), Ordering::Relaxed) + d.as_micros();
        SimTime(new)
    }

    /// Move the clock forward to `t` if `t` is in the future; never moves it
    /// backwards. Returns the clock's time afterwards.
    pub fn advance_to(&self, t: SimTime) -> SimTime {
        let target = t.as_micros();
        let mut current = self.micros.load(Ordering::Relaxed);
        while current < target {
            match self.micros.compare_exchange(
                current,
                target,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return t,
                Err(observed) => current = observed,
            }
        }
        SimTime(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_conversions_round_trip() {
        assert_eq!(SimDuration::from_secs(3).as_micros(), 3_000_000);
        assert_eq!(SimDuration::from_millis(1500).as_secs(), 1);
        assert_eq!(SimDuration::from_days(2).as_days(), 2);
        assert_eq!(SimDuration::from_hours(25).as_days(), 1);
        assert_eq!(SimDuration::from_mins(90).as_secs(), 5400);
    }

    #[test]
    fn time_arithmetic() {
        let t0 = SimTime::EPOCH;
        let t1 = t0 + SimDuration::from_secs(10);
        assert_eq!(t1.since(t0), SimDuration::from_secs(10));
        assert_eq!(t0.since(t1), SimDuration::ZERO);
        assert_eq!(t1 - t0, SimDuration::from_secs(10));
        assert_eq!(t1.max(t0), t1);
    }

    #[test]
    fn clock_advances_and_is_shared() {
        let clock = SimClock::new();
        let other = clock.clone();
        clock.advance(SimDuration::from_secs(5));
        assert_eq!(other.now().as_secs(), 5);
    }

    #[test]
    fn clock_advance_to_never_rewinds() {
        let clock = SimClock::new();
        clock.advance(SimDuration::from_secs(100));
        let now = clock.advance_to(SimTime::from_micros(1));
        assert_eq!(now.as_secs(), 100);
        clock.advance_to(SimTime::from_micros(200_000_000));
        assert_eq!(clock.now().as_secs(), 200);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDuration::from_micros(12)), "12us");
        assert_eq!(format!("{}", SimDuration::from_secs(2)), "2.000s");
        assert_eq!(format!("{}", SimDuration::from_days(3)), "3.00d");
        assert_eq!(
            format!("{}", SimTime::EPOCH + SimDuration::from_secs(1)),
            "t+1.000s"
        );
    }

    #[test]
    fn saturating_and_mul() {
        let d = SimDuration::from_secs(1);
        assert_eq!(
            d.saturating_sub(SimDuration::from_secs(2)),
            SimDuration::ZERO
        );
        assert_eq!(d.mul(3), SimDuration::from_secs(3));
        assert_eq!(SimDuration::from_millis(1500).as_secs_f64(), 1.5);
    }
}
