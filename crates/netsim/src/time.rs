//! Simulated time.
//!
//! The simulator never consults the wall clock. Time is a monotonically
//! increasing counter of microseconds managed by the event loop.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in microseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Instant(u64);

/// A span of simulated time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl Instant {
    /// The origin of simulated time.
    pub const ZERO: Instant = Instant(0);

    /// Creates an instant from raw microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        Instant(micros)
    }

    /// Returns the raw microsecond count.
    pub const fn as_micros(self) -> u64 {
        self.0
    }
}

impl Duration {
    /// The zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// Creates a duration from microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        Duration(micros)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        Duration(millis * 1_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        Duration(secs * 1_000_000)
    }

    /// Returns the raw microsecond count.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the duration in (possibly fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the duration in (possibly fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Saturating addition of two durations.
    pub fn saturating_add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }

    /// Multiplies the duration by an integer factor, saturating on overflow.
    pub fn saturating_mul(self, factor: u64) -> Duration {
        Duration(self.0.saturating_mul(factor))
    }
}

impl Add<Duration> for Instant {
    type Output = Instant;
    fn add(self, rhs: Duration) -> Instant {
        Instant(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Instant {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Instant> for Instant {
    type Output = Duration;
    fn sub(self, rhs: Instant) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<Duration> for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl fmt::Display for Instant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}us", self.0)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

/// The simulation clock. Owned by the event loop; read-only access is handed
/// to nodes through the simulation context.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimClock {
    now: Instant,
}

impl SimClock {
    /// Creates a clock at time zero.
    pub fn new() -> Self {
        SimClock { now: Instant::ZERO }
    }

    /// Returns the current simulated time.
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Advances the clock to `to`.
    ///
    /// # Panics
    ///
    /// Panics if `to` is earlier than the current time; simulated time is
    /// monotone and the event loop must never schedule into the past.
    pub fn advance_to(&mut self, to: Instant) {
        assert!(
            to >= self.now,
            "simulated clock may not move backwards: {} -> {}",
            self.now,
            to
        );
        self.now = to;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instant_arithmetic_round_trips() {
        let start = Instant::from_micros(100);
        let later = start + Duration::from_millis(2);
        assert_eq!(later.as_micros(), 2_100);
        assert_eq!((later - start).as_micros(), 2_000);
    }

    #[test]
    fn duration_constructors_scale() {
        assert_eq!(Duration::from_secs(1).as_micros(), 1_000_000);
        assert_eq!(Duration::from_millis(3).as_micros(), 3_000);
        assert_eq!(Duration::from_micros(7).as_micros(), 7);
    }

    #[test]
    fn subtraction_saturates_instead_of_underflowing() {
        let early = Instant::from_micros(5);
        let late = Instant::from_micros(10);
        assert_eq!((early - late).as_micros(), 0);
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut clock = SimClock::new();
        clock.advance_to(Instant::from_micros(10));
        clock.advance_to(Instant::from_micros(10));
        assert_eq!(clock.now().as_micros(), 10);
    }

    #[test]
    #[should_panic(expected = "may not move backwards")]
    fn clock_rejects_time_travel() {
        let mut clock = SimClock::new();
        clock.advance_to(Instant::from_micros(10));
        clock.advance_to(Instant::from_micros(5));
    }

    #[test]
    fn duration_display_picks_unit() {
        assert_eq!(Duration::from_micros(12).to_string(), "12us");
        assert_eq!(Duration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(Duration::from_secs(2).to_string(), "2.000s");
    }
}
