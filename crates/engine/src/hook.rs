//! The engine ↔ controller interface.
//!
//! The engine is control-agnostic: at every control-period boundary it
//! hands a [`PeriodSnapshot`] to a [`ControlHook`] and applies the returned
//! [`Decision`]. The monitor/controller/actuator of Fig. 3 in the paper
//! live behind this trait (implemented in `streamshed-control`).

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Everything the monitor can observe about the k-th control period.
///
/// Note that *true* per-tuple delays are deliberately exposed only as the
/// delayed measurement `mean_delay_ms` of tuples that **departed** this
/// period — the paper's point (§4.5.1) is that the delay of *current*
/// arrivals is unmeasurable in real time, so controllers should rely on
/// the virtual queue length `outstanding` instead.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PeriodSnapshot {
    /// Discrete period index `k` (the period that just ended).
    pub k: u64,
    /// Simulated time at the boundary.
    pub now: SimTime,
    /// Control period length `T`.
    pub period: SimDuration,
    /// Tuples that arrived at the network buffer this period (pre-shed).
    pub offered: u64,
    /// Tuples admitted past the entry shedder this period.
    pub admitted: u64,
    /// Tuples dropped by the entry shedder this period.
    pub dropped_entry: u64,
    /// Tuples dropped from in-network queues this period.
    pub dropped_network: u64,
    /// Roots that departed the network this period (`fout`).
    pub completed: u64,
    /// Virtual queue length `q(k)`: roots still outstanding at the
    /// boundary.
    pub outstanding: u64,
    /// Total tuples sitting in operator queues at the boundary (≥ the
    /// number of outstanding roots when operators fan out).
    pub queued_tuples: u64,
    /// Expected remaining CPU load of all queued tuples, µs.
    pub queued_load_us: f64,
    /// Measured mean CPU cost per *completed root* this period, µs
    /// (`None` if nothing completed). This is the Borealis-statistics
    /// analogue the controller's `c(k)` estimator consumes.
    pub measured_cost_us: Option<f64>,
    /// Mean true delay (ms) of roots that departed this period (`None` if
    /// nothing departed). A *delayed* measurement — see type docs.
    pub mean_delay_ms: Option<f64>,
    /// CPU work executed this period, µs (excludes the headroom tax).
    pub cpu_busy_us: u64,
}

impl PeriodSnapshot {
    /// Offered arrival rate `fin` in tuples/second.
    pub fn fin_rate(&self) -> f64 {
        self.offered as f64 / self.period.as_secs_f64()
    }

    /// Departure rate `fout` in tuples/second.
    pub fn fout_rate(&self) -> f64 {
        self.completed as f64 / self.period.as_secs_f64()
    }

    /// Builds period `k`'s snapshot from its ledger and what the engine
    /// read at the boundary: the backlog and its own `c(k)` sample. Both
    /// engines build their snapshots here, so two rules hold for both:
    ///
    /// - **Front-door loss is inclusive.** `dropped_entry` is the α drops
    ///   plus the capacity rejections (both cut admitted load, though the
    ///   wall clock's report keeps them apart), and `admitted` is
    ///   `offered` less every front-door loss, closed rejections included.
    /// - **An idle period has zero delay.** With nothing completed *and*
    ///   nothing outstanding the delay is known to be zero. `None` there
    ///   would let an over-shedding controller read its own drought as a
    ///   sensor blackout and hold the shut command forever; `None` stays
    ///   for a period that retired nothing while tuples are in flight.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_ledger(
        k: u64,
        now: SimTime,
        period: SimDuration,
        ledger: &PeriodLedger,
        outstanding: u64,
        queued_tuples: u64,
        queued_load_us: f64,
        measured_cost_us: Option<f64>,
    ) -> Self {
        let l = ledger;
        let dropped_entry = l.dropped_entry + l.rejected_capacity;
        let mean_delay_ms = if l.completed > 0 {
            Some(l.delay_sum_ms / l.completed as f64)
        } else if outstanding == 0 {
            Some(0.0)
        } else {
            None
        };
        PeriodSnapshot {
            k,
            now,
            period,
            offered: l.offered,
            admitted: l.offered.saturating_sub(dropped_entry + l.rejected_closed),
            dropped_entry,
            dropped_network: l.dropped_network,
            completed: l.completed,
            outstanding,
            queued_tuples,
            queued_load_us,
            measured_cost_us,
            mean_delay_ms,
            cpu_busy_us: l.cpu_busy_us,
        }
    }
}

/// One control period's ledger: what crossed the front door, what was
/// shed inside, what departed and the work that took. The simulator
/// fills one as it runs; the wall clock takes the difference of two
/// cumulative readings ([`Self::since`]). The engines' report ledgers
/// keep the buckets disjoint; [`PeriodSnapshot::from_ledger`] folds them
/// into the controller's view.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PeriodLedger {
    /// Arrivals at the front door, before shedding.
    pub(crate) offered: u64,
    /// Arrivals the entry shedder dropped (α).
    pub(crate) dropped_entry: u64,
    /// Arrivals refused by a full queue (never, in the simulator).
    pub(crate) rejected_capacity: u64,
    /// Arrivals refused after close (never, in the simulator).
    pub(crate) rejected_closed: u64,
    /// Tuples shed from in-network queues.
    pub(crate) dropped_network: u64,
    /// Roots that departed.
    pub(crate) completed: u64,
    /// Summed true delay of the departed roots, ms.
    pub(crate) delay_sum_ms: f64,
    /// CPU work executed, µs (excludes the headroom tax).
    pub(crate) cpu_busy_us: u64,
}

impl PeriodLedger {
    /// The ledger between an `earlier` cumulative reading and this one.
    pub(crate) fn since(&self, earlier: &Self) -> Self {
        Self {
            offered: self.offered - earlier.offered,
            dropped_entry: self.dropped_entry - earlier.dropped_entry,
            rejected_capacity: self.rejected_capacity - earlier.rejected_capacity,
            rejected_closed: self.rejected_closed - earlier.rejected_closed,
            dropped_network: self.dropped_network - earlier.dropped_network,
            completed: self.completed - earlier.completed,
            delay_sum_ms: self.delay_sum_ms - earlier.delay_sum_ms,
            cpu_busy_us: self.cpu_busy_us - earlier.cpu_busy_us,
        }
    }
}

/// The actuator command for the next control period.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Decision {
    /// Probability the entry shedder drops each arriving tuple
    /// (the paper's shedding factor `α`, Eq. 13). Engines apply
    /// [`Self::alpha`], the value clamped to `[0, 1]`.
    pub entry_drop_prob: f64,
    /// CPU load (µs) to shed immediately from in-network queues
    /// (the paper's `Ls`, §4.5.2). Zero for entry-only shedding.
    pub shed_load_us: f64,
}

impl Decision {
    /// No shedding at all.
    pub const NONE: Decision = Decision {
        entry_drop_prob: 0.0,
        shed_load_us: 0.0,
    };

    /// Entry-shedding only, with drop probability `alpha`.
    pub fn entry(alpha: f64) -> Decision {
        Decision {
            entry_drop_prob: alpha,
            shed_load_us: 0.0,
        }
    }

    /// In-network shedding of `load_us` of queued work.
    pub fn network(load_us: f64) -> Decision {
        Decision {
            entry_drop_prob: 0.0,
            shed_load_us: load_us,
        }
    }

    /// The entry drop probability in force: [`Self::entry_drop_prob`]
    /// clamped to `[0, 1]`. NaN passes through unchanged, and both
    /// engines' entry shedder ([`crate::rng::AtomicShedder`]) sheds every
    /// arrival under it: a corrupt command fails closed.
    pub fn alpha(&self) -> f64 {
        self.entry_drop_prob.clamp(0.0, 1.0)
    }
}

/// A load-shedding strategy driven once per control period.
pub trait ControlHook {
    /// Called at each period boundary with the period that just ended;
    /// returns the actuation for the next period.
    fn on_period(&mut self, snapshot: &PeriodSnapshot) -> Decision;
}

/// The null strategy: admit everything (used for system identification).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoShedding;

impl ControlHook for NoShedding {
    fn on_period(&mut self, _snapshot: &PeriodSnapshot) -> Decision {
        Decision::NONE
    }
}

impl<F> ControlHook for F
where
    F: FnMut(&PeriodSnapshot) -> Decision,
{
    fn on_period(&mut self, snapshot: &PeriodSnapshot) -> Decision {
        self(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{millis, secs};

    fn snap() -> PeriodSnapshot {
        PeriodSnapshot {
            k: 3,
            now: SimTime::ZERO + secs(4),
            period: secs(1),
            offered: 200,
            admitted: 150,
            dropped_entry: 50,
            dropped_network: 10,
            completed: 120,
            outstanding: 80,
            queued_tuples: 90,
            queued_load_us: 450_000.0,
            measured_cost_us: Some(5000.0),
            mean_delay_ms: Some(1900.0),
            cpu_busy_us: 600_000,
        }
    }

    #[test]
    fn rates_derive_from_counts() {
        let s = snap();
        assert!((s.fin_rate() - 200.0).abs() < 1e-9);
        assert!((s.fout_rate() - 120.0).abs() < 1e-9);
    }

    #[test]
    fn from_ledger_owns_the_idle_and_front_door_rules() {
        let ledger = |offered, dropped_entry, rejected_capacity, rejected_closed, completed| {
            PeriodLedger {
                offered,
                dropped_entry,
                rejected_capacity,
                rejected_closed,
                dropped_network: 2,
                completed,
                delay_sum_ms: 30.0 * completed as f64,
                cpu_busy_us: 700,
            }
        };
        // (ledger, outstanding, (admitted, dropped_entry, mean_delay_ms))
        let rows = [
            // Idle: nothing retired, nothing in flight: a known zero.
            (ledger(0, 0, 0, 0, 0), 0, (0, 0, Some(0.0))),
            // Shed whole at the door is idle too.
            (ledger(40, 40, 0, 0, 0), 0, (0, 40, Some(0.0))),
            // Nothing retired while tuples are in flight: no reading.
            (ledger(10, 0, 0, 0, 0), 10, (10, 0, None)),
            // Completions give the mean whatever is outstanding.
            (ledger(10, 0, 0, 0, 4), 0, (10, 0, Some(30.0))),
            (ledger(10, 0, 0, 0, 4), 7, (10, 0, Some(30.0))),
            // α drops and capacity rejections are one front-door loss;
            // closed rejections are not admitted either.
            (ledger(100, 10, 5, 3, 20), 9, (82, 15, Some(30.0))),
        ];
        for (i, (l, queued, want)) in rows.into_iter().enumerate() {
            let at = SimTime::ZERO + secs(4);
            let s = PeriodSnapshot::from_ledger(3, at, secs(1), &l, queued, queued, 0.0, None);
            assert_eq!((s.admitted, s.dropped_entry, s.mean_delay_ms), want, "row {i}");
            // Conservation: every offer is admitted or lost at the door.
            assert_eq!(s.admitted + s.dropped_entry + l.rejected_closed, s.offered, "row {i}");
            assert_eq!((s.dropped_network, s.completed, s.cpu_busy_us), (2, l.completed, 700));
        }
    }

    #[test]
    fn decision_constructors() {
        assert_eq!(Decision::NONE.entry_drop_prob, 0.0);
        assert_eq!(Decision::entry(0.25).entry_drop_prob, 0.25);
        assert_eq!(Decision::network(1000.0).shed_load_us, 1000.0);
    }

    #[test]
    fn alpha_clamps_and_passes_nan_through() {
        assert_eq!(Decision::entry(0.25).alpha(), 0.25);
        assert_eq!(Decision::entry(-0.5).alpha(), 0.0);
        assert_eq!(Decision::entry(1.5).alpha(), 1.0);
        assert!(Decision::entry(f64::NAN).alpha().is_nan());
    }

    #[test]
    fn closures_are_hooks() {
        let mut calls = 0;
        {
            let mut hook = |_s: &PeriodSnapshot| {
                calls += 1;
                Decision::NONE
            };
            let _ = hook.on_period(&snap());
        }
        assert_eq!(calls, 1);
        let _ = millis(1); // silence unused import in some cfg combos
    }
}
