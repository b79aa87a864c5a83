//! Time-varying processing-cost schedules.
//!
//! The paper's Fig. 14 drives experiments with a per-tuple cost that
//! varies over time (operator selectivity drift, query add/remove). The
//! engine models this as a piecewise-constant *multiplier* applied to
//! every operator's base cost.

use crate::time::SimTime;

/// A piecewise-constant cost multiplier over simulated time.
///
/// The multiplier at time `t` is the value of the last point at or before
/// `t`; before the first point it is 1.
#[derive(Debug, Clone, PartialEq)]
pub struct CostSchedule {
    points: Vec<(SimTime, f64)>,
}

impl CostSchedule {
    /// A constant multiplier of 1 (costs never change).
    pub fn constant() -> Self {
        Self { points: Vec::new() }
    }

    /// A constant multiplier of `m`.
    pub fn constant_multiplier(m: f64) -> Self {
        assert!(m > 0.0 && m.is_finite());
        Self {
            points: vec![(SimTime::ZERO, m)],
        }
    }

    /// Builds a schedule from `(time, multiplier)` breakpoints. Points are
    /// sorted by time; multipliers must be positive and finite.
    pub fn from_points(mut points: Vec<(SimTime, f64)>) -> Self {
        assert!(
            points.iter().all(|&(_, m)| m > 0.0 && m.is_finite()),
            "multipliers must be positive and finite"
        );
        points.sort_by_key(|&(t, _)| t);
        Self { points }
    }

    /// The multiplier in effect at `t`.
    pub fn multiplier(&self, t: SimTime) -> f64 {
        match self.points.binary_search_by_key(&t, |&(pt, _)| pt) {
            Ok(i) => self.points[i].1,
            Err(0) => 1.0,
            Err(i) => self.points[i - 1].1,
        }
    }

    /// The multiplier in effect at `t` together with the first instant at
    /// which it may change (exclusive). Lets hot paths cache per-segment
    /// derived values and re-query only when the clock crosses the
    /// returned boundary.
    pub fn segment(&self, t: SimTime) -> (f64, SimTime) {
        let next = |i: usize| {
            self.points
                .get(i)
                .map(|&(pt, _)| pt)
                .unwrap_or(SimTime(u64::MAX))
        };
        match self.points.binary_search_by_key(&t, |&(pt, _)| pt) {
            Ok(i) => (self.points[i].1, next(i + 1)),
            Err(0) => (1.0, next(0)),
            Err(i) => (self.points[i - 1].1, next(i)),
        }
    }

    /// Number of breakpoints.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if the schedule is the constant-1 schedule.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

impl Default for CostSchedule {
    fn default() -> Self {
        Self::constant()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::secs;

    #[test]
    fn constant_is_one_everywhere() {
        let s = CostSchedule::constant();
        assert_eq!(s.multiplier(SimTime::ZERO), 1.0);
        assert_eq!(s.multiplier(SimTime(u64::MAX)), 1.0);
        assert!(s.is_empty());
    }

    #[test]
    fn piecewise_lookup() {
        let s = CostSchedule::from_points(vec![
            (SimTime::ZERO + secs(10), 2.0),
            (SimTime::ZERO + secs(5), 1.5),
        ]);
        assert_eq!(s.multiplier(SimTime::ZERO), 1.0); // before first point
        assert_eq!(s.multiplier(SimTime::ZERO + secs(5)), 1.5); // exact hit
        assert_eq!(s.multiplier(SimTime::ZERO + secs(7)), 1.5);
        assert_eq!(s.multiplier(SimTime::ZERO + secs(10)), 2.0);
        assert_eq!(s.multiplier(SimTime::ZERO + secs(100)), 2.0);
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_multiplier() {
        let _ = CostSchedule::from_points(vec![(SimTime::ZERO, 0.0)]);
    }

    #[test]
    fn segment_agrees_with_multiplier() {
        let s = CostSchedule::from_points(vec![
            (SimTime::ZERO + secs(5), 1.5),
            (SimTime::ZERO + secs(10), 2.0),
        ]);
        for t in [0u64, 4_999_999, 5_000_000, 7_000_000, 10_000_000, 99_000_000] {
            let t = SimTime(t);
            let (m, until) = s.segment(t);
            assert_eq!(m, s.multiplier(t), "multiplier mismatch at {t}");
            assert!(until > t, "segment end must be in the future at {t}");
            // The multiplier is constant right up to the boundary.
            if until.0 != u64::MAX {
                assert_eq!(s.multiplier(SimTime(until.0 - 1)), m);
                assert_ne!(s.multiplier(until), m);
            }
        }
        // The constant schedule never changes.
        let c = CostSchedule::constant();
        assert_eq!(c.segment(SimTime::ZERO), (1.0, SimTime(u64::MAX)));
    }
}
