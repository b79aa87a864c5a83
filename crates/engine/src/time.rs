//! Simulated time.
//!
//! All engine timekeeping is in integer **microseconds** (`u64`) to keep
//! virtual-time arithmetic exact and deterministic; floating-point seconds
//! appear only at API boundaries.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant on the simulated clock, in microseconds since the start of
/// the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

/// `n` seconds as a duration.
#[inline]
pub const fn secs(n: u64) -> SimDuration {
    SimDuration(n * 1_000_000)
}

/// `n` milliseconds as a duration.
#[inline]
pub const fn millis(n: u64) -> SimDuration {
    SimDuration(n * 1_000)
}

/// `n` microseconds as a duration.
#[inline]
pub const fn micros(n: u64) -> SimDuration {
    SimDuration(n)
}

/// Fractional seconds as a duration (rounded to the nearest microsecond).
#[inline]
pub fn secs_f64(s: f64) -> SimDuration {
    assert!(s >= 0.0 && s.is_finite(), "duration must be non-negative");
    SimDuration((s * 1e6).round() as u64)
}

/// Fractional milliseconds as a duration (rounded to the nearest
/// microsecond).
#[inline]
pub fn millis_f64(ms: f64) -> SimDuration {
    secs_f64(ms / 1e3)
}

impl SimTime {
    /// Time zero — the start of the run.
    pub const ZERO: SimTime = SimTime(0);

    /// This instant in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This instant in fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Elapsed time since `earlier`; saturates at zero if `earlier` is in
    /// the future.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// This span in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This span in fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// This span in whole microseconds.
    #[inline]
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Scales this duration by a non-negative factor.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(factor >= 0.0 && factor.is_finite());
        SimDuration((self.0 as f64 * factor).round() as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(secs(1), millis(1000));
        assert_eq!(millis(1), micros(1000));
        assert_eq!(secs_f64(0.5), millis(500));
        assert_eq!(millis_f64(1.5), micros(1500));
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + secs(2);
        assert_eq!(t.as_secs_f64(), 2.0);
        let later = t + millis(500);
        assert_eq!((later - t).as_millis_f64(), 500.0);
        // Saturating subtraction.
        assert_eq!((t - later).as_micros(), 0);
        assert_eq!(t.since(later), SimDuration::ZERO);
    }

    #[test]
    fn scaling() {
        assert_eq!(millis(10).mul_f64(2.5), millis(25));
        assert_eq!(millis(10).mul_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    #[should_panic]
    fn negative_seconds_rejected() {
        let _ = secs_f64(-1.0);
    }

    #[test]
    fn display_is_human_readable() {
        assert_eq!(format!("{}", SimTime(1_500_000)), "1.500s");
        assert_eq!(format!("{}", millis(42)), "42.000ms");
    }
}
