//! Run metrics: the paper's evaluation quantities (§3).
//!
//! * accumulated delay violations `Σ (y − yd)⁺` over all tuples,
//! * total delayed tuples (`y > yd`),
//! * maximal overshoot `max (y − yd)`,
//! * data loss ratio,
//!
//! plus per-period series for the transient plots (Figs. 5–7, 15, 18) and
//! a log-bucketed delay histogram for percentile reporting.

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// A log-bucketed histogram of delays (milliseconds).
///
/// Buckets grow geometrically by ~12%/bucket from 0.1 ms, giving better
/// than 12% relative error on percentiles across six orders of magnitude
/// with a few hundred buckets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DelayHistogram {
    counts: Vec<u64>,
    total: u64,
}

const HIST_BASE_MS: f64 = 0.1;
const HIST_GROWTH: f64 = 1.12;
const HIST_BUCKETS: usize = 220; // covers up to ~0.1·1.12²²⁰ ≈ 7·10⁸ ms
/// `1 / log₂(HIST_GROWTH)`, for the bit-pattern bucket estimate (checked
/// against `HIST_GROWTH` by test).
const HIST_INV_LOG2_GROWTH: f64 = 6.1162553741996994;

/// Bucket upper bounds in ms (`HIST_BASE_MS · HIST_GROWTH^k`), built once.
fn bucket_uppers() -> &'static [f64; HIST_BUCKETS] {
    static UPPERS: std::sync::OnceLock<[f64; HIST_BUCKETS]> = std::sync::OnceLock::new();
    UPPERS.get_or_init(|| {
        let mut u = [0.0; HIST_BUCKETS];
        for (i, v) in u.iter_mut().enumerate() {
            *v = HIST_BASE_MS * HIST_GROWTH.powi(i as i32);
        }
        u
    })
}

impl DelayHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; HIST_BUCKETS],
            total: 0,
        }
    }

    fn bucket_for(delay_ms: f64) -> usize {
        if delay_ms <= HIST_BASE_MS {
            return 0;
        }
        let uppers = bucket_uppers();
        let r = delay_ms / HIST_BASE_MS; // > 1 here
        // Start from a cheap log₂ estimate read straight off the f64 bit
        // pattern (linear-mantissa approximation, error < 0.09 before
        // scaling), then walk up the precomputed bucket boundaries to the
        // exact answer: the smallest k with delay ≤ base·growthᵏ. The
        // estimate only ever undershoots, so the walk is 1–3 compares and
        // no libm call.
        let bits = r.to_bits();
        let exp = ((bits >> 52) & 0x7ff) as i64 - 1023;
        let frac = (bits & ((1u64 << 52) - 1)) as f64 * (1.0 / (1u64 << 52) as f64);
        let log2_est = exp as f64 + frac;
        let mut k = ((log2_est * HIST_INV_LOG2_GROWTH) as usize)
            .saturating_sub(1)
            .min(HIST_BUCKETS - 1);
        while k < HIST_BUCKETS - 1 && delay_ms > uppers[k] {
            k += 1;
        }
        k
    }

    /// Upper bound (ms) of a bucket.
    fn bucket_upper_ms(idx: usize) -> f64 {
        HIST_BASE_MS * HIST_GROWTH.powi(idx as i32)
    }

    /// Records one delay sample.
    pub fn record(&mut self, delay_ms: f64) {
        self.counts[Self::bucket_for(delay_ms)] += 1;
        self.total += 1;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Approximate quantile (e.g. `0.99`), or `None` when empty.
    ///
    /// `q` is clamped to `[0, 1]`; `q = 0` answers with the first
    /// occupied bucket, so a histogram whose samples all landed in one
    /// bucket reports the same value for every quantile.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((self.total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(Self::bucket_upper_ms(i));
            }
        }
        // Degenerate layouts (total out of sync with counts) saturate at
        // the last bucket rather than panicking.
        Some(Self::bucket_upper_ms(self.counts.len().max(1) - 1))
    }

    /// Merges another histogram into this one.
    ///
    /// Robust to bucket-count mismatches (histograms that crossed a
    /// serialisation boundary, or were built by an older layout): the
    /// receiver grows to the larger layout and no sample is silently
    /// dropped, so `Σ counts == total` holds afterwards.
    pub fn merge(&mut self, other: &DelayHistogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }
}

impl Default for DelayHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Aggregate delay statistics over a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DelayStats {
    count: u64,
    sum_ms: f64,
    max_ms: f64,
    histogram: DelayHistogram,
}

impl DelayStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        Self {
            count: 0,
            sum_ms: 0.0,
            max_ms: 0.0,
            histogram: DelayHistogram::new(),
        }
    }

    /// Records a tuple's total processing delay.
    pub fn record(&mut self, delay: SimDuration) {
        let ms = delay.as_millis_f64();
        self.count += 1;
        self.sum_ms += ms;
        self.max_ms = self.max_ms.max(ms);
        self.histogram.record(ms);
    }

    /// Number of delay samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean delay in ms (0 when empty).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ms / self.count as f64
        }
    }

    /// Maximum delay in ms.
    pub fn max_ms(&self) -> f64 {
        self.max_ms
    }

    /// Approximate delay quantile in ms.
    pub fn quantile_ms(&self, q: f64) -> Option<f64> {
        self.histogram.quantile(q)
    }
}

impl Default for DelayStats {
    fn default() -> Self {
        Self::new()
    }
}

/// One row of the per-period series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PeriodRecord {
    /// Period index `k`.
    pub k: u64,
    /// Period end time, seconds.
    pub time_s: f64,
    /// Offered arrivals this period.
    pub offered: u64,
    /// Admitted past the entry shedder.
    pub admitted: u64,
    /// Dropped at entry + from queues.
    pub dropped: u64,
    /// Roots departed this period (fout).
    pub completed: u64,
    /// Virtual queue length at the boundary.
    pub outstanding: u64,
    /// Entry drop probability in force during this period.
    pub alpha: f64,
    /// Mean *true* delay (ms) of tuples that **arrived** in this period
    /// (the paper's y(k)); `NaN` until those tuples depart or if none do.
    pub arrival_mean_delay_ms: f64,
    /// Measured mean cost per completed root this period (µs), `NaN` if
    /// nothing completed.
    pub measured_cost_us: f64,
    /// CPU busy fraction during the period.
    pub cpu_utilisation: f64,
}

/// Per-operator counters over a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeStat {
    /// Operator name.
    pub name: String,
    /// Input tuples processed.
    pub processed: u64,
    /// Output tuples emitted (post-selectivity, pre-fanout).
    pub emitted: u64,
    /// Tuples shed from this operator's queues (for entry operators this
    /// includes input-buffer victims destined for them).
    pub shed: u64,
    /// EWMA of the operator's per-invocation CPU cost, µs (`NaN` if the
    /// operator never ran). Tracks cost drift the way the controller's
    /// own estimator does, per operator.
    pub cost_ewma_us: f64,
}

impl NodeStat {
    /// Observed selectivity: emitted / processed (`NaN` if unused).
    pub fn observed_selectivity(&self) -> f64 {
        if self.processed == 0 {
            f64::NAN
        } else {
            self.emitted as f64 / self.processed as f64
        }
    }
}

/// Complete results of a simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// The delay target the violation metrics were evaluated against.
    pub target_delay_ms: f64,
    /// Per-period series.
    pub periods: Vec<PeriodRecord>,
    /// Total tuples offered by the source.
    pub offered: u64,
    /// Tuples dropped at entry.
    pub dropped_entry: u64,
    /// Tuples dropped from in-network queues.
    pub dropped_network: u64,
    /// Roots that departed the network normally.
    pub completed: u64,
    /// Σ (y − yd)⁺ over all departed tuples, in ms.
    pub accumulated_violation_ms: f64,
    /// Number of departed tuples with y > yd.
    pub delayed_tuples: u64,
    /// max (y − yd) over all departed tuples, ms (0 if never violated).
    pub max_overshoot_ms: f64,
    /// Delay distribution over all departed tuples.
    pub delay_stats: DelayStats,
    /// Per-operator counters (empty for runs that skip collection).
    pub node_stats: Vec<NodeStat>,
}

impl RunReport {
    /// Data loss ratio: all dropped tuples over all offered tuples.
    pub fn loss_ratio(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            (self.dropped_entry + self.dropped_network) as f64 / self.offered as f64
        }
    }

    /// Mean true delay over the run, ms.
    pub fn delay_stats(&self) -> &DelayStats {
        &self.delay_stats
    }

    /// Virtual-queue length at the last recorded period boundary (0 for
    /// a run with no periods).
    pub fn outstanding_at_end(&self) -> u64 {
        self.periods.last().map_or(0, |p| p.outstanding)
    }

    /// Tuple-conservation residual:
    /// `offered − (dropped_entry + dropped_network + completed +
    /// outstanding_at_end)`.
    ///
    /// The simulator's accounting makes this identity exact whenever the
    /// run length is a whole number of control periods (the last period
    /// boundary then coincides with the end of the run); campaign
    /// invariant checking gates on it being zero.
    pub fn conservation_residual(&self) -> i64 {
        self.offered as i64
            - (self.dropped_entry + self.dropped_network + self.completed
                + self.outstanding_at_end()) as i64
    }

    /// Whether the tuple counters balance exactly (see
    /// [`RunReport::conservation_residual`]).
    pub fn counters_balance(&self) -> bool {
        self.conservation_residual() == 0
    }

    /// The y(k) series (mean delay by arrival period, ms). Periods with no
    /// samples carry `NaN`.
    pub fn y_series_ms(&self) -> Vec<f64> {
        self.periods
            .iter()
            .map(|p| p.arrival_mean_delay_ms)
            .collect()
    }

    /// The offered arrival-rate series (tuples/s).
    pub fn fin_series(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.periods.len());
        let mut prev_t = 0.0;
        for p in &self.periods {
            let dt = (p.time_s - prev_t).max(1e-9);
            out.push(p.offered as f64 / dt);
            prev_t = p.time_s;
        }
        out
    }

    /// A multi-line human-readable summary of the run — the paper's four
    /// metrics plus throughput and delay percentiles (what the examples
    /// print).
    pub fn render_summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "offered               : {}", self.offered);
        let _ = writeln!(out, "completed             : {}", self.completed);
        let _ = writeln!(
            out,
            "dropped (entry/queue) : {} / {}",
            self.dropped_entry, self.dropped_network
        );
        let _ = writeln!(out, "loss ratio            : {:.3}", self.loss_ratio());
        let _ = writeln!(
            out,
            "mean / p50 / p99 delay: {:.1} / {:.1} / {:.1} ms",
            self.delay_stats.mean_ms(),
            self.delay_stats.quantile_ms(0.50).unwrap_or(0.0),
            self.delay_stats.quantile_ms(0.99).unwrap_or(0.0)
        );
        let _ = writeln!(
            out,
            "violations            : {:.1} tuple·s over {} tuples (target {} ms)",
            self.accumulated_violation_ms / 1e3,
            self.delayed_tuples,
            self.target_delay_ms
        );
        let _ = writeln!(
            out,
            "max overshoot         : {:.1} ms",
            self.max_overshoot_ms
        );
        out
    }
}

/// Internal accumulator used by the simulator; converted to [`RunReport`]
/// at the end of a run.
#[derive(Debug)]
pub(crate) struct MetricsAccumulator {
    pub target_delay: SimDuration,
    pub periods: Vec<PeriodRecord>,
    pub offered: u64,
    pub dropped_entry: u64,
    pub dropped_network: u64,
    pub completed: u64,
    pub accumulated_violation_ms: f64,
    pub delayed_tuples: u64,
    pub max_overshoot_ms: f64,
    pub delay_stats: DelayStats,
    // Mean-delay-by-arrival-period accumulation.
    arrival_sum_ms: Vec<f64>,
    arrival_cnt: Vec<u64>,
    period: SimDuration,
    // Precomputed per-departure constants and a one-entry period-index
    // cache: departures cluster in arrival time, so the integer division
    // runs only when a departure crosses into another period.
    target_ms: f64,
    idx_cache: usize,
    idx_lo_us: u64,
    idx_hi_us: u64,
}

impl MetricsAccumulator {
    pub fn new(target_delay: SimDuration, period: SimDuration) -> Self {
        Self {
            target_delay,
            periods: Vec::new(),
            offered: 0,
            dropped_entry: 0,
            dropped_network: 0,
            completed: 0,
            accumulated_violation_ms: 0.0,
            delayed_tuples: 0,
            max_overshoot_ms: 0.0,
            delay_stats: DelayStats::new(),
            arrival_sum_ms: Vec::new(),
            arrival_cnt: Vec::new(),
            period,
            target_ms: target_delay.as_millis_f64(),
            idx_cache: 0,
            idx_lo_us: 0,
            idx_hi_us: 0,
        }
    }

    /// Records a root departure.
    pub fn record_departure(&mut self, arrival: SimTime, departure: SimTime) {
        let delay = departure - arrival;
        let delay_ms = delay.as_millis_f64();
        self.completed += 1;
        self.delay_stats.record(delay);
        let over_ms = delay_ms - self.target_ms;
        if over_ms > 0.0 {
            self.accumulated_violation_ms += over_ms;
            self.delayed_tuples += 1;
            self.max_overshoot_ms = self.max_overshoot_ms.max(over_ms);
        }
        let idx = if arrival.0 >= self.idx_lo_us && arrival.0 < self.idx_hi_us {
            self.idx_cache
        } else {
            let p = self.period.0.max(1);
            let i = (arrival.0 / p) as usize;
            self.idx_cache = i;
            self.idx_lo_us = i as u64 * p;
            self.idx_hi_us = self.idx_lo_us + p;
            i
        };
        if idx >= self.arrival_sum_ms.len() {
            self.arrival_sum_ms.resize(idx + 1, 0.0);
            self.arrival_cnt.resize(idx + 1, 0);
        }
        self.arrival_sum_ms[idx] += delay_ms;
        self.arrival_cnt[idx] += 1;
    }

    #[cfg(test)]
    pub fn finish(self) -> RunReport {
        self.finish_with_nodes(Vec::new())
    }

    pub fn finish_with_nodes(mut self, node_stats: Vec<NodeStat>) -> RunReport {
        // Fill arrival-attributed mean delays into the period rows.
        for p in self.periods.iter_mut() {
            let idx = p.k as usize;
            p.arrival_mean_delay_ms = if idx < self.arrival_cnt.len() && self.arrival_cnt[idx] > 0
            {
                self.arrival_sum_ms[idx] / self.arrival_cnt[idx] as f64
            } else {
                f64::NAN
            };
        }
        RunReport {
            target_delay_ms: self.target_delay.as_millis_f64(),
            periods: self.periods,
            offered: self.offered,
            dropped_entry: self.dropped_entry,
            dropped_network: self.dropped_network,
            completed: self.completed,
            accumulated_violation_ms: self.accumulated_violation_ms,
            delayed_tuples: self.delayed_tuples,
            max_overshoot_ms: self.max_overshoot_ms,
            delay_stats: self.delay_stats,
            node_stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{millis, secs};

    #[test]
    fn histogram_inv_log2_growth_constant_is_consistent() {
        assert!(
            (HIST_INV_LOG2_GROWTH - 1.0 / HIST_GROWTH.log2()).abs() < 1e-12,
            "HIST_INV_LOG2_GROWTH drifted from 1/log2(HIST_GROWTH): want {}",
            1.0 / HIST_GROWTH.log2()
        );
    }

    #[test]
    fn histogram_bucket_lookup_matches_boundary_table() {
        // Ground truth: the smallest k with delay ≤ base·growthᵏ.
        let uppers = bucket_uppers();
        let linear = |d: f64| -> usize {
            uppers
                .iter()
                .position(|&u| d <= u)
                .unwrap_or(HIST_BUCKETS - 1)
        };
        // Sweep six orders of magnitude, hitting boundaries exactly and
        // on both sides.
        let mut d = 0.01f64;
        while d < 1e7 {
            assert_eq!(DelayHistogram::bucket_for(d), linear(d), "delay {d}");
            d *= 1.017;
        }
        for &u in uppers {
            for d in [u * (1.0 - 1e-12), u, u * (1.0 + 1e-12)] {
                assert_eq!(DelayHistogram::bucket_for(d), linear(d), "boundary {d}");
            }
        }
    }

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let mut h = DelayHistogram::new();
        for i in 1..=100 {
            h.record(i as f64);
        }
        let p50 = h.quantile(0.5).unwrap();
        assert!((50.0..=60.0).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile(0.99).unwrap();
        assert!((99.0..=115.0).contains(&p99), "p99 = {p99}");
        assert_eq!(h.count(), 100);
    }

    #[test]
    fn histogram_empty_quantile_is_none() {
        assert_eq!(DelayHistogram::new().quantile(0.5), None);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = DelayHistogram::new();
        a.record(10.0);
        let mut b = DelayHistogram::new();
        b.record(20.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
    }

    #[test]
    fn histogram_merge_empty_is_identity_both_ways() {
        let mut a = DelayHistogram::new();
        a.record(10.0);
        let before = a.clone();
        a.merge(&DelayHistogram::new());
        assert_eq!(a, before, "merging an empty histogram changes nothing");
        let mut empty = DelayHistogram::new();
        empty.merge(&before);
        assert_eq!(empty, before, "merging into an empty histogram copies");
    }

    #[test]
    fn histogram_merge_handles_bucket_count_mismatch() {
        // A truncated layout (e.g. an older serialised histogram) must
        // not lose the wider histogram's tail samples.
        let mut small = DelayHistogram::new();
        small.counts.truncate(3);
        small.record(0.05); // bucket 0
        let mut wide = DelayHistogram::new();
        wide.record(1e6); // deep-tail bucket, far beyond index 2
        small.merge(&wide);
        assert_eq!(small.count(), 2);
        let sum: u64 = small.counts.iter().sum();
        assert_eq!(sum, small.count(), "no sample silently dropped");
        assert!(small.quantile(1.0).unwrap() >= 1e6 * 0.8);
    }

    #[test]
    fn histogram_single_bucket_quantiles_coincide() {
        let mut h = DelayHistogram::new();
        for _ in 0..50 {
            h.record(10.0);
        }
        let q0 = h.quantile(0.0).unwrap();
        let q50 = h.quantile(0.5).unwrap();
        let q100 = h.quantile(1.0).unwrap();
        assert_eq!(q0, q50);
        assert_eq!(q50, q100);
        assert!((9.0..=12.0).contains(&q100), "bucket bounds 10 ms, got {q100}");
    }

    #[test]
    fn histogram_quantile_bounds_are_clamped() {
        let mut h = DelayHistogram::new();
        h.record(5.0);
        assert_eq!(h.quantile(-1.0), h.quantile(0.0));
        assert_eq!(h.quantile(2.0), h.quantile(1.0));
        assert_eq!(DelayHistogram::new().quantile(1.0), None);
    }

    #[test]
    fn histogram_handles_extremes() {
        let mut h = DelayHistogram::new();
        h.record(0.0);
        h.record(1e12);
        assert_eq!(h.count(), 2);
        assert!(h.quantile(1.0).is_some());
    }

    #[test]
    fn delay_stats_mean_and_max() {
        let mut s = DelayStats::new();
        s.record(millis(100));
        s.record(millis(300));
        assert_eq!(s.count(), 2);
        assert!((s.mean_ms() - 200.0).abs() < 1e-9);
        assert!((s.max_ms() - 300.0).abs() < 1e-9);
    }

    #[test]
    fn accumulator_violation_accounting() {
        let mut acc = MetricsAccumulator::new(secs(2), secs(1));
        let t0 = SimTime::ZERO;
        // On-time tuple: 1 s delay.
        acc.record_departure(t0, t0 + secs(1));
        // Violating tuple: 5 s delay → 3 s violation.
        acc.record_departure(t0, t0 + secs(5));
        let report = acc.finish();
        assert_eq!(report.completed, 2);
        assert_eq!(report.delayed_tuples, 1);
        assert!((report.accumulated_violation_ms - 3000.0).abs() < 1e-9);
        assert!((report.max_overshoot_ms - 3000.0).abs() < 1e-9);
    }

    #[test]
    fn arrival_period_attribution() {
        let mut acc = MetricsAccumulator::new(secs(2), secs(1));
        // Two tuples arriving in period 0, departing later.
        acc.record_departure(SimTime(100), SimTime(100) + millis(500));
        acc.record_departure(SimTime(200), SimTime(200) + millis(1500));
        // One tuple arriving in period 2.
        acc.record_departure(SimTime::ZERO + secs(2), SimTime::ZERO + secs(2) + millis(100));
        acc.periods = (0..3)
            .map(|k| PeriodRecord {
                k,
                time_s: (k + 1) as f64,
                offered: 0,
                admitted: 0,
                dropped: 0,
                completed: 0,
                outstanding: 0,
                alpha: 0.0,
                arrival_mean_delay_ms: f64::NAN,
                measured_cost_us: f64::NAN,
                cpu_utilisation: 0.0,
            })
            .collect();
        let report = acc.finish();
        assert!((report.periods[0].arrival_mean_delay_ms - 1000.0).abs() < 1e-9);
        assert!(report.periods[1].arrival_mean_delay_ms.is_nan());
        assert!((report.periods[2].arrival_mean_delay_ms - 100.0).abs() < 1e-9);
    }

    #[test]
    fn conservation_probe_balances_and_detects_leaks() {
        let mut acc = MetricsAccumulator::new(secs(2), secs(1));
        acc.offered = 100;
        acc.dropped_entry = 30;
        acc.dropped_network = 10;
        acc.record_departure(SimTime::ZERO, SimTime::ZERO + secs(1));
        acc.record_departure(SimTime::ZERO, SimTime::ZERO + secs(1));
        acc.periods.push(PeriodRecord {
            k: 0,
            time_s: 1.0,
            offered: 100,
            admitted: 70,
            dropped: 40,
            completed: 2,
            outstanding: 58,
            alpha: 0.3,
            arrival_mean_delay_ms: f64::NAN,
            measured_cost_us: f64::NAN,
            cpu_utilisation: 0.5,
        });
        let mut report = acc.finish();
        assert_eq!(report.outstanding_at_end(), 58);
        assert_eq!(report.conservation_residual(), 0);
        assert!(report.counters_balance());
        // A lost tuple (counter increment dropped) breaks the balance.
        report.completed -= 1;
        assert_eq!(report.conservation_residual(), 1);
        assert!(!report.counters_balance());
    }

    #[test]
    fn loss_ratio() {
        let mut acc = MetricsAccumulator::new(secs(2), secs(1));
        acc.offered = 100;
        acc.dropped_entry = 10;
        acc.dropped_network = 5;
        let report = acc.finish();
        assert!((report.loss_ratio() - 0.15).abs() < 1e-12);
    }
}
