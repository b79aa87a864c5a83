//! Shared experiment runner: wires a workload trace, the calibrated
//! identification network, a cost schedule, and one of the three shedding
//! strategies into a simulation run.

use streamshed_control::adaptive::{AdaptiveCtrlStrategy, ComparatorStrategy};
use streamshed_control::loop_::LoopConfig;
use streamshed_control::strategy::{
    AuroraStrategy, BaselineStrategy, CtrlStrategy, SheddingStrategy,
};
use streamshed_engine::cost::CostSchedule;
use streamshed_engine::hook::{ControlHook, Decision, NoShedding, PeriodSnapshot};
use streamshed_engine::metrics::RunReport;
use streamshed_engine::networks::identification_network;
use streamshed_engine::sim::{SimConfig, Simulator};
use streamshed_engine::telemetry::{
    AdaptState, ControlState, ControlTrace, InstrumentedHook, SharedRecorder,
};
use streamshed_engine::time::{secs, SimTime};
use streamshed_workload::{to_micros, CostTrace};

/// Which strategy to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StrategyKind {
    /// The paper's feedback-control strategy.
    Ctrl,
    /// The model-based feedback heuristic.
    Baseline,
    /// The open-loop Aurora shedder (uses the loop config's headroom for
    /// `L0`).
    Aurora,
    /// Aurora with an explicitly retuned `L0` headroom (Fig. 16).
    AuroraWithHeadroom(f64),
    /// The paper tuning with the loop gain frozen at the design-time
    /// cost (the loop config's prior): the "fixed tuning" arm the
    /// self-tuning experiments destabilise with cost growth.
    CtrlFrozenGain,
    /// The gain-scheduled self-tuning CTRL variant (online cost
    /// re-identification + bumpless pole-placement re-derivation).
    Adaptive,
    /// The model-free comparator (hill-climb over pole-placement arms).
    Comparator,
    /// No shedding at all (identification runs).
    NoShedding,
}

impl StrategyKind {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            StrategyKind::Ctrl => "CTRL",
            StrategyKind::Baseline => "BASELINE",
            StrategyKind::Aurora | StrategyKind::AuroraWithHeadroom(_) => "AURORA",
            StrategyKind::CtrlFrozenGain => "CTRL-FIXED",
            StrategyKind::Adaptive => "CTRL-ADAPTIVE",
            StrategyKind::Comparator => "CTRL-COMPARATOR",
            StrategyKind::NoShedding => "NONE",
        }
    }
}

/// The paper's four evaluation metrics (§3), extracted from a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricsSummary {
    /// Σ (y − yd)⁺, milliseconds.
    pub accumulated_violation_ms: f64,
    /// Tuples with y > yd.
    pub delayed_tuples: u64,
    /// max (y − yd), milliseconds.
    pub max_overshoot_ms: f64,
    /// Dropped / offered.
    pub loss_ratio: f64,
}

impl MetricsSummary {
    /// Extracts the metrics from a run report.
    pub fn from_report(report: &RunReport) -> Self {
        Self {
            accumulated_violation_ms: report.accumulated_violation_ms,
            delayed_tuples: report.delayed_tuples,
            max_overshoot_ms: report.max_overshoot_ms,
            loss_ratio: report.loss_ratio(),
        }
    }

    /// Ratios of this summary over a reference (the paper's Fig. 12
    /// normalisation to CTRL). Zero-valued references yield 1 when the
    /// numerator is also zero, `INFINITY` otherwise.
    pub fn relative_to(&self, reference: &MetricsSummary) -> [f64; 4] {
        fn ratio(a: f64, b: f64) -> f64 {
            if b.abs() < 1e-12 {
                if a.abs() < 1e-12 {
                    1.0
                } else {
                    f64::INFINITY
                }
            } else {
                a / b
            }
        }
        [
            ratio(
                self.accumulated_violation_ms,
                reference.accumulated_violation_ms,
            ),
            ratio(self.delayed_tuples as f64, reference.delayed_tuples as f64),
            ratio(self.max_overshoot_ms, reference.max_overshoot_ms),
            ratio(self.loss_ratio, reference.loss_ratio),
        ]
    }
}

/// Everything a strategy run produces.
#[derive(Debug, Clone)]
pub struct StrategyOutcome {
    /// Strategy display name.
    pub name: String,
    /// The engine's run report.
    pub report: RunReport,
    /// The four paper metrics.
    pub metrics: MetricsSummary,
    /// One telemetry record per control period (newest-last; bounded by
    /// the run's period count, so nothing is overwritten). It carries
    /// the strategy's ŷ, e, u, α and ĉ for every period (`NaN` where a
    /// strategy reports none, as `NoShedding` never does).
    pub traces: Vec<ControlTrace>,
}

/// A runtime delay-target schedule: `(from_period, target_seconds)` pairs
/// applied through [`SheddingStrategy::set_target_delay_s`] as the run
/// progresses (Fig. 18).
#[derive(Debug, Clone, Default)]
pub struct TargetSchedule(pub Vec<(u64, f64)>);

struct ScheduledHook {
    strategy: Box<dyn SheddingStrategy>,
    schedule: TargetSchedule,
    next: usize,
}

impl ControlHook for ScheduledHook {
    fn on_period(&mut self, snap: &PeriodSnapshot) -> Decision {
        while self.next < self.schedule.0.len() && self.schedule.0[self.next].0 <= snap.k {
            self.strategy
                .set_target_delay_s(self.schedule.0[self.next].1);
            self.next += 1;
        }
        self.strategy.on_period(snap)
    }
}

impl InstrumentedHook for ScheduledHook {
    fn control_state(&self) -> Option<ControlState> {
        self.strategy.control_state()
    }

    fn adapt_state(&self) -> Option<AdaptState> {
        self.strategy.adapt_state()
    }
}

/// Runs one strategy over one arrival trace on the calibrated
/// identification network.
///
/// * `times` — arrival instants in seconds;
/// * `loop_cfg` — loop configuration (target, period, headroom, tuning);
/// * `duration_s` — simulated run length;
/// * `cost_trace` — optional Fig. 14 cost variation;
/// * `target_schedule` — optional runtime target changes (Fig. 18);
/// * `seed` — engine RNG seed.
#[allow(clippy::too_many_arguments)]
pub fn run_with_strategy(
    kind: StrategyKind,
    times: &[f64],
    loop_cfg: &LoopConfig,
    duration_s: u64,
    cost_trace: Option<&CostTrace>,
    target_schedule: Option<TargetSchedule>,
    seed: u64,
) -> StrategyOutcome {
    let network = identification_network();
    let mut sim_cfg = SimConfig::paper_default()
        .with_period(loop_cfg.period())
        .with_target_delay(loop_cfg.target_delay())
        .with_seed(seed);
    if let Some(trace) = cost_trace {
        let points = trace
            .multiplier_points(duration_s as f64)
            .into_iter()
            .map(|(t, m)| (SimTime((t * 1e6) as u64), m))
            .collect();
        sim_cfg = sim_cfg.with_cost_schedule(CostSchedule::from_points(points));
    }

    let strategy: Box<dyn SheddingStrategy> = match kind {
        StrategyKind::Ctrl => Box::new(CtrlStrategy::from_config(loop_cfg)),
        StrategyKind::Baseline => Box::new(BaselineStrategy::from_config(loop_cfg)),
        StrategyKind::Aurora => Box::new(AuroraStrategy::from_config(loop_cfg)),
        StrategyKind::AuroraWithHeadroom(h) => {
            Box::new(AuroraStrategy::new(h, loop_cfg.prior_cost_us))
        }
        StrategyKind::CtrlFrozenGain => Box::new(
            CtrlStrategy::from_config(loop_cfg).with_frozen_gain_at(loop_cfg.prior_cost_us),
        ),
        StrategyKind::Adaptive => Box::new(AdaptiveCtrlStrategy::from_config(loop_cfg)),
        StrategyKind::Comparator => Box::new(ComparatorStrategy::from_config(loop_cfg)),
        StrategyKind::NoShedding => Box::new(NoShedding),
    };
    let mut hook = ScheduledHook {
        strategy,
        schedule: target_schedule.unwrap_or_default(),
        next: 0,
    };
    // Ring sized to the run's period count: every period survives.
    let period_count =
        (duration_s as f64 / loop_cfg.period().as_secs_f64()).ceil() as usize + 8;
    let recorder = SharedRecorder::with_capacity(period_count);

    let arrivals: Vec<SimTime> = to_micros(times).into_iter().map(SimTime).collect();
    let sim = Simulator::new(network, sim_cfg).with_telemetry(recorder.clone());
    let report = sim.run(&arrivals, &mut hook, secs(duration_s));
    let metrics = MetricsSummary::from_report(&report);
    StrategyOutcome {
        name: kind.name().to_string(),
        report,
        metrics,
        traces: recorder.snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamshed_workload::{ArrivalTrace, StepTrace};

    #[test]
    fn runner_produces_signals_and_metrics() {
        let times = StepTrace::constant(300.0).arrival_times(30.0);
        let out = run_with_strategy(
            StrategyKind::Ctrl,
            &times,
            &LoopConfig::paper_default(),
            30,
            None,
            None,
            1,
        );
        assert_eq!(out.name, "CTRL");
        assert_eq!(out.traces.len(), 30);
        assert!(out.traces.iter().all(|t| t.y_hat_s.is_finite()));
        assert!(out.metrics.loss_ratio > 0.1);
    }

    #[test]
    fn target_schedule_changes_target() {
        let times = StepTrace::constant(300.0).arrival_times(40.0);
        let out = run_with_strategy(
            StrategyKind::Ctrl,
            &times,
            &LoopConfig::paper_default().with_target_delay_ms(1000.0),
            40,
            None,
            Some(TargetSchedule(vec![(20, 4.0)])),
            1,
        );
        // After period 20 the loop aims at 4 s: the estimated delay in the
        // last periods should clearly exceed the initial 1 s regime.
        let early: f64 = out.traces[12..18].iter().map(|t| t.y_hat_s).sum::<f64>() / 6.0;
        let late: f64 = out.traces[34..40].iter().map(|t| t.y_hat_s).sum::<f64>() / 6.0;
        assert!(late > early + 1.0, "early {early}, late {late}");
    }

    #[test]
    fn adaptive_kinds_run_and_trace_adapt_state() {
        let times = StepTrace::constant(300.0).arrival_times(30.0);
        for kind in [StrategyKind::Adaptive, StrategyKind::Comparator] {
            let out = run_with_strategy(
                kind,
                &times,
                &LoopConfig::paper_default(),
                30,
                None,
                None,
                1,
            );
            assert_eq!(out.traces.len(), 30, "{}", out.name);
            assert!(out.metrics.loss_ratio > 0.1, "{}", out.name);
            // The self-tuning state must reach the telemetry plane.
            let last = out.traces.last().unwrap();
            assert!(
                last.adapt_cost_us.is_finite(),
                "{}: adapt cost missing from traces",
                out.name
            );
            if kind == StrategyKind::Comparator {
                assert!(last.adapt_arm >= 0, "comparator arm missing");
            }
        }
    }

    #[test]
    fn relative_metrics_ratio() {
        let a = MetricsSummary {
            accumulated_violation_ms: 100.0,
            delayed_tuples: 10,
            max_overshoot_ms: 50.0,
            loss_ratio: 0.5,
        };
        let b = MetricsSummary {
            accumulated_violation_ms: 10.0,
            delayed_tuples: 5,
            max_overshoot_ms: 0.0,
            loss_ratio: 0.5,
        };
        let r = a.relative_to(&b);
        assert_eq!(r[0], 10.0);
        assert_eq!(r[1], 2.0);
        assert!(r[2].is_infinite());
        assert_eq!(r[3], 1.0);
    }

    #[test]
    fn no_shedding_kind_runs_open() {
        let times = StepTrace::constant(250.0).arrival_times(20.0);
        let out = run_with_strategy(
            StrategyKind::NoShedding,
            &times,
            &LoopConfig::paper_default(),
            20,
            None,
            None,
            1,
        );
        assert_eq!(out.metrics.loss_ratio, 0.0);
        assert!(
            out.traces.iter().all(|t| t.y_hat_s.is_nan()),
            "no controller signals"
        );
        // Overloaded with no shedding: the queue builds.
        assert!(out.report.periods.last().unwrap().outstanding > 500);
    }
}
