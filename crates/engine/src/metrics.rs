//! Run metrics: the paper's evaluation quantities (§3).
//!
//! * accumulated delay violations `Σ (y − yd)⁺` over all tuples,
//! * total delayed tuples (`y > yd`),
//! * maximal overshoot `max (y − yd)`,
//! * data loss ratio,
//!
//! plus per-period series for the transient plots (Figs. 5–7, 15, 18).
//! Delay percentiles come from the span plane
//! ([`Simulator::with_spans`](crate::sim::Simulator::with_spans)).

use crate::time::{SimDuration, SimTime};

/// One row of the per-period series.
#[derive(Debug, Clone, Copy, PartialEq)]
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
#[derive(Debug, Clone, PartialEq)]
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
#[derive(Debug, Clone, PartialEq)]
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
    /// Σ y over all departed tuples, in ms.
    pub delay_sum_ms: f64,
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

    /// Mean true delay over all departed tuples, ms (0 when none).
    pub fn mean_delay_ms(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.delay_sum_ms / self.completed as f64
        }
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
    pub delay_sum_ms: f64,
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
            delay_sum_ms: 0.0,
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
        let delay_ms = (departure - arrival).as_millis_f64();
        self.completed += 1;
        self.delay_sum_ms += delay_ms;
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
            delay_sum_ms: self.delay_sum_ms,
            node_stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{millis, secs};

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
        assert!((report.mean_delay_ms() - 3000.0).abs() < 1e-9);
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
