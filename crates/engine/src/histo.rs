//! Mergeable log-linear-bucket latency histograms (HDR-style).
//!
//! The observability plane needs *tail* percentiles, not means: the
//! paper's contract is a bound on tuple delay, and a mean hides exactly
//! the violations an SLO cares about. This module is the purpose-built
//! substrate: a fixed-size log-linear bucket layout (64 value rows ×
//! 32 sub-buckets, 16 KiB of `u64` counts) that records any `u64` value
//! with **zero allocation**, merges exactly (element-wise bucket
//! addition — merging two histograms is indistinguishable from having
//! recorded the concatenated stream), and answers p50/p90/p99/p999
//! queries with bounded relative error.
//!
//! ## Bucket layout
//!
//! Values `< 32` land in their own exact bucket. For `v >= 32`, let
//! `msb = 63 - v.leading_zeros()`; the row is `msb - 4` and the
//! sub-bucket is the 5 bits below the most significant bit:
//!
//! ```text
//! index(v) = v                                  v < 32
//! index(v) = (msb - 4) * 32 + ((v >> (msb - 5)) & 31)   otherwise
//! ```
//!
//! Each row spans one power of two with 32 linear sub-buckets, so a
//! bucket's width is at most `1/32` of its lower bound: quantile
//! estimates (reported at the bucket midpoint) carry at most ~1.6 %
//! relative error. The top of the layout (`msb = 63`) lands at index
//! 1919; the 64×32 = 2048-slot array keeps the fixed power-of-two
//! layout with the tail rows unreachable for `u64` inputs.
//!
//! One type serves both of its uses. A plain [`Histo`] records and
//! merges through `&mut self`, where its relaxed `AtomicU64` cells cost
//! what plain `u64`s would. A span slot ([`spans`](crate::spans)) is
//! recorded by its one owner thread through `&self` with relaxed
//! load + store pairs, no locked read-modify-write, while the obs plane
//! reads it concurrently and copies it with [`Clone`].

use crate::worker::bump;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of count slots: 64 rows × 32 sub-buckets.
pub const BUCKETS: usize = 64 * 32;

/// Bucket index for a value. Total order preserving: `a <= b` implies
/// `index(a) <= index(b)`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < 32 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros() as usize;
        (msb - 4) * 32 + ((v >> (msb - 5)) & 31) as usize
    }
}

/// Lower bound (inclusive) of bucket `idx` — the smallest value that
/// maps to it.
#[inline]
pub fn bucket_low(idx: usize) -> u64 {
    if idx < 32 {
        idx as u64
    } else {
        let row = idx / 32;
        let sub = (idx % 32) as u128;
        let low = (32 + sub) << (row - 1);
        low.min(u64::MAX as u128) as u64
    }
}

/// Upper bound (inclusive) of bucket `idx` — the largest value that
/// maps to it. Saturates at `u64::MAX` (the top reachable bucket ends
/// exactly there).
#[inline]
pub fn bucket_high(idx: usize) -> u64 {
    if idx < 32 {
        idx as u64
    } else {
        let row = idx / 32;
        let sub = (idx % 32) as u128;
        let high = ((33 + sub) << (row - 1)) - 1;
        high.min(u64::MAX as u128) as u64
    }
}

/// Representative value reported for bucket `idx` (its midpoint).
#[inline]
fn bucket_mid(idx: usize) -> u64 {
    let low = bucket_low(idx);
    low + (bucket_high(idx) - low) / 2
}

/// A mergeable log-linear histogram. See the module docs for the bucket
/// layout. `record` is allocation-free; the 16 KiB count array is boxed
/// so the struct itself stays cheap to move.
///
/// The cells are relaxed atomics so that one type serves both uses:
/// [`record`](Self::record) and [`merge`](Self::merge) take `&mut self`
/// and compile to plain loads and stores, and a span slot's owner records
/// through `&self` while readers copy it. A copy ([`Clone`]) of a
/// histogram being recorded is racy across cells, but each bucket is
/// monotone and the copy's count is re-derived from its buckets, so the
/// copy is internally consistent; that is all a scrape needs.
pub struct Histo {
    counts: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histo {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for Histo {
    fn clone(&self) -> Self {
        let mut h = Histo::new();
        let mut count = 0u64;
        for (dst, src) in h.counts.iter_mut().zip(self.counts.iter()) {
            let c = src.load(Ordering::Relaxed);
            *dst.get_mut() = c;
            count += c;
        }
        *h.count.get_mut() = count;
        *h.sum.get_mut() = self.sum();
        *h.max.get_mut() = self.max();
        h
    }
}

impl std::fmt::Debug for Histo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histo")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .field("max", &self.max())
            .finish_non_exhaustive()
    }
}

impl Histo {
    /// An empty histogram.
    pub fn new() -> Self {
        // `AtomicU64` is not `Copy`; build the boxed array in place.
        let counts: Box<[AtomicU64; BUCKETS]> = (0..BUCKETS)
            .map(|_| AtomicU64::new(0))
            .collect::<Box<[_]>>()
            .try_into()
            .expect("length matches BUCKETS");
        Self {
            counts,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        *self.counts[bucket_index(v)].get_mut() += 1;
        *self.count.get_mut() += 1;
        let sum = self.sum.get_mut();
        *sum = sum.saturating_add(v);
        let max = self.max.get_mut();
        *max = (*max).max(v);
    }

    /// Records `n` copies of `v` (`n == 0` records nothing) through
    /// `&self`, as the histogram's one writer: each cell is a relaxed
    /// load + store, not a locked read-modify-write. A second concurrent
    /// writer would lose counts, so only a span slot's owner
    /// ([`SpanHandle`](crate::spans::SpanHandle), neither `Clone` nor
    /// `Sync`) calls this.
    #[inline]
    pub(crate) fn record_n_owned(&self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        bump(&self.counts[bucket_index(v)], n);
        bump(&self.count, n);
        let sum = self.sum.load(Ordering::Relaxed);
        self.sum.store(sum.saturating_add(v.saturating_mul(n)), Ordering::Relaxed);
        if v > self.max.load(Ordering::Relaxed) {
            self.max.store(v, Ordering::Relaxed);
        }
    }

    /// Merges `other` into `self`. Exact: the result is element-wise
    /// identical to having recorded both streams into one histogram.
    pub fn merge(&mut self, other: &Histo) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a.get_mut() += b.load(Ordering::Relaxed);
        }
        *self.count.get_mut() += other.count();
        let sum = self.sum.get_mut();
        *sum = sum.saturating_add(other.sum());
        let max = self.max.get_mut();
        *max = (*max).max(other.max());
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Exact sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        match self.count() {
            0 => 0.0,
            n => self.sum() as f64 / n as f64,
        }
    }

    /// The value at quantile `q` in `[0, 1]`: the bucket midpoint of the
    /// bucket holding the `ceil(q * count)`-th smallest recorded value,
    /// clamped to the observed maximum. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let (count, max) = (self.count(), self.max());
        if count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (idx, c) in self.counts.iter().enumerate() {
            seen += c.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_mid(idx).min(max);
            }
        }
        max
    }

    /// Cumulative count of recorded values whose bucket lies entirely at
    /// or below `bound` — the `_bucket{le="…"}` value for a Prometheus
    /// exposition built on canonical boundaries. Conservative: a bucket
    /// straddling `bound` counts toward the next boundary.
    pub fn cumulative_le(&self, bound: u64) -> u64 {
        let mut total = 0u64;
        for (idx, c) in self.counts.iter().enumerate() {
            let c = c.load(Ordering::Relaxed);
            if c == 0 {
                continue;
            }
            if bucket_high(idx) <= bound {
                total += c;
            } else if bucket_low(idx) > bound {
                break;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cells(h: &Histo) -> Vec<u64> {
        h.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    }

    /// The owner's `&self` path, as a span slot records.
    #[test]
    fn atomic_record_n_is_n_records() {
        let (one, run) = (Histo::new(), Histo::new());
        for v in [7, 7, 7, 900, 900, 0] {
            one.record_n_owned(v, 1);
        }
        run.record_n_owned(7, 3);
        run.record_n_owned(900, 2);
        run.record_n_owned(0, 1);
        run.record_n_owned(5_000, 0);
        assert_eq!(run.count(), one.count());
        let (a, b) = (one.clone(), run.clone());
        assert_eq!((b.count(), b.sum(), b.max()), (6, 1_821, 900));
        assert_eq!((a.count(), a.sum(), a.max()), (b.count(), b.sum(), b.max()));
        for bound in [0, 7, 899, 900] {
            assert_eq!(a.cumulative_le(bound), b.cumulative_le(bound), "≤ {bound}");
        }
    }

    #[test]
    fn exact_below_32() {
        let mut h = Histo::new();
        for v in 0..32u64 {
            h.record(v);
        }
        for q in [0.0, 0.5, 1.0] {
            let got = h.quantile(q);
            assert!(got < 32, "q={q} -> {got}");
        }
        assert_eq!(h.count(), 32);
        assert_eq!(h.sum(), (0..32).sum::<u64>());
        assert_eq!(h.quantile(1.0), 31);
    }

    #[test]
    fn bucket_bounds_are_consistent() {
        // Every representable boundary maps into a bucket whose
        // [low, high] range contains it, and indices are monotone.
        let mut prev_idx = 0usize;
        for &v in &[
            0u64,
            1,
            31,
            32,
            33,
            63,
            64,
            65,
            1000,
            4096,
            123_456_789,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let idx = bucket_index(v);
            assert!(idx < BUCKETS, "v={v} idx={idx}");
            assert!(bucket_low(idx) <= v && v <= bucket_high(idx), "v={v} idx={idx}");
            assert!(idx >= prev_idx, "monotone violated at v={v}");
            prev_idx = idx;
        }
    }

    #[test]
    fn relative_error_bounded() {
        let mut h = Histo::new();
        for &v in &[100u64, 10_000, 1_000_000, 123_456_789] {
            h.record(v);
        }
        // Single-value quantiles land within 1/32 of the true value.
        let mut single = Histo::new();
        single.record(123_456_789);
        let est = single.quantile(0.5) as f64;
        let rel = (est - 123_456_789.0).abs() / 123_456_789.0;
        assert!(rel <= 1.0 / 32.0, "rel err {rel}");
    }

    /// A copy of a slot its owner recorded reads as a plain histogram of
    /// the same stream.
    #[test]
    fn atomic_snapshot_matches_plain() {
        let a = Histo::new();
        let mut p = Histo::new();
        for v in [0u64, 5, 31, 32, 1000, 65_535, 1 << 40] {
            a.record_n_owned(v, 1);
            p.record(v);
        }
        let s = a.clone();
        assert_eq!(s.count(), p.count());
        assert_eq!(s.sum(), p.sum());
        assert_eq!(s.max(), p.max());
        assert_eq!(cells(&s), cells(&p));
        for q in [0.5, 0.9, 0.99, 0.999] {
            assert_eq!(s.quantile(q), p.quantile(q));
        }
    }

    #[test]
    fn cumulative_le_is_monotone_and_total() {
        let mut h = Histo::new();
        for v in [1u64, 3, 17, 900, 70_000, 3_000_000] {
            h.record(v);
        }
        let bounds = [1u64, 4, 16, 64, 256, 1024, 1 << 20, u64::MAX];
        let mut prev = 0;
        for &b in &bounds {
            let c = h.cumulative_le(b);
            assert!(c >= prev, "cumulative must be monotone");
            prev = c;
        }
        assert_eq!(h.cumulative_le(u64::MAX), h.count());
    }

    proptest! {
        /// Satellite: merge() equals recording the concatenated stream,
        /// for any split point and values straddling any bucket
        /// boundary.
        #[test]
        fn merge_equals_concat(
            values in proptest::collection::vec(
                prop_oneof![
                    0u64..64,                 // exact + first log rows
                    30u64..70,                // the linear/log boundary
                    0u64..u64::MAX,           // anywhere
                    (0u32..63).prop_map(|s| 1u64 << s),           // powers of two
                    (1u32..63).prop_map(|s| (1u64 << s) - 1),     // just below
                ],
                0..200,
            ),
            split_frac in 0.0f64..1.0,
        ) {
            let split = ((values.len() as f64) * split_frac) as usize;
            let mut whole = Histo::new();
            for &v in &values {
                whole.record(v);
            }
            let mut left = Histo::new();
            let mut right = Histo::new();
            for &v in &values[..split] {
                left.record(v);
            }
            for &v in &values[split..] {
                right.record(v);
            }
            left.merge(&right);
            prop_assert_eq!(left.count(), whole.count());
            prop_assert_eq!(left.sum(), whole.sum());
            prop_assert_eq!(left.max(), whole.max());
            prop_assert_eq!(cells(&left), cells(&whole));
            for q in [0.5, 0.9, 0.99, 0.999] {
                prop_assert_eq!(left.quantile(q), whole.quantile(q));
            }
        }

        /// Satellite: quantile monotonicity p50 <= p90 <= p99 <= p999.
        #[test]
        fn quantiles_are_monotone(
            values in proptest::collection::vec(0u64..u64::MAX, 1..300),
        ) {
            let mut h = Histo::new();
            for &v in &values {
                h.record(v);
            }
            let p50 = h.quantile(0.50);
            let p90 = h.quantile(0.90);
            let p99 = h.quantile(0.99);
            let p999 = h.quantile(0.999);
            prop_assert!(p50 <= p90, "p50 {p50} > p90 {p90}");
            prop_assert!(p90 <= p99, "p90 {p90} > p99 {p99}");
            prop_assert!(p99 <= p999, "p99 {p99} > p999 {p999}");
            prop_assert!(p999 <= h.max());
        }

        /// Any value maps to a bucket containing it.
        #[test]
        fn bucket_contains_value(v in 0u64..u64::MAX) {
            let idx = bucket_index(v);
            prop_assert!(idx < BUCKETS);
            prop_assert!(bucket_low(idx) <= v);
            prop_assert!(v <= bucket_high(idx));
        }
    }
}
