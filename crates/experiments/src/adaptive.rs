//! The self-tuning control experiment (`reproduce adaptive`).
//!
//! Four arms run the same 250 ms-target loop against the same doubling
//! cost staircase ([`CostTrace::doubling_staircase`]: per-tuple cost ×2
//! at 60 s, ×4 at 120 s, ×8 at 180 s, no noise) under sustained 300 t/s
//! overload:
//!
//! * **CTRL-FIXED** — the paper tuning with the loop gain frozen at the
//!   design-time cost. Each doubling doubles the effective loop gain;
//!   at ×8 the closed-loop characteristic equation
//!   `z² + (a − 1 + M·b0)·z + (M·b1 − a)` has a pole at −2.17 and the
//!   loop limit-cycles: the diagnostics plane must flag it
//!   `Oscillating`/`Saturated`.
//! * **CTRL** — the plain strategy whose gain follows the live cost
//!   tracker (the paper's own `H/(c·T)` conversion): the baseline the
//!   self-tuners must not regress.
//! * **CTRL-ADAPTIVE** — windowed-RLS cost re-identification feeding a
//!   hysteresis gain scheduler with bumpless pole-placement swaps.
//! * **CTRL-COMPARATOR** — the model-free hill-climber over pole
//!   candidates, with the same cost scheduling underneath.
//!
//! Each arm's per-period [`ControlTrace`] series is replayed through a
//! fresh [`ControllerHealth`] classifier, and every gain swap of the
//! self-tuning arms is checked against the 3-period settling budget:
//! the number of periods from the swap until the regulated delay ŷ
//! re-enters the diagnostics error band (`y ≤ y_d·(1 + band)`). The
//! budget is attributed per swap: a swap landing while the loop is
//! already riding a cost-step transient is not billed for that
//! transient, and a swap superseded by a later swap before re-entry
//! hands its budget to the last one. Bumpless transfer is what makes
//! the budget achievable — the swap itself injects no actuation step.

use crate::runner::{run_with_strategy, StrategyKind, StrategyOutcome};
use crate::{FigureResult, Series};
use std::time::Duration;
use streamshed_control::loop_::LoopConfig;
use streamshed_engine::diagnostics::{ControllerHealth, DiagnosticsConfig, HealthState};
use streamshed_engine::telemetry::ControlTrace;
use streamshed_workload::{ArrivalTrace, CostTrace, StepTrace};

/// Delay target, seconds.
const TARGET_S: f64 = 0.25;
/// Control period, ms (the paper's 1 s — short enough that per-period
/// cost measurements average over dozens of completions; much shorter
/// periods starve the cost/delay measurements of samples).
const PERIOD_MS: f64 = 1000.0;
/// Sustained offered load, tuples/s (capacity is 190 t/s at ×1 cost).
const RATE_TPS: f64 = 300.0;
/// Seconds per staircase level.
const STEP_S: f64 = 60.0;
/// Total run, seconds (¾ through the held ×8 level).
const DURATION_S: u64 = 260;

/// Per-arm classification extracted from the replayed diagnostics.
#[derive(Debug, Clone)]
pub struct ArmReport {
    /// Arm display name.
    pub name: String,
    /// Periods classified per [`HealthState`] ordinal.
    pub state_periods: [u64; 5],
    /// Bumpless gain swaps performed (0 for non-adaptive arms).
    pub swaps: u64,
    /// Periods from each swap to band re-entry of ŷ.
    pub swap_settle_periods: Vec<u64>,
    /// Final re-identified/scheduled cost, µs (`NaN` if the arm does
    /// not re-identify).
    pub final_cost_est_us: f64,
    /// The four paper metrics of the run.
    pub metrics: crate::MetricsSummary,
    /// `(time_s, ŷ_s)` series for plotting.
    pub y_series: Vec<(f64, f64)>,
}

impl ArmReport {
    /// Periods spent in `Oscillating` or `Saturated`.
    pub fn anomalous_periods(&self) -> u64 {
        self.state_periods[HealthState::Oscillating.ordinal() as usize]
            + self.state_periods[HealthState::Saturated.ordinal() as usize]
    }

    /// Periods spent in `Diverging`.
    pub fn diverging_periods(&self) -> u64 {
        self.state_periods[HealthState::Diverging.ordinal() as usize]
    }

    /// Worst swap-to-settle time, periods (0 when no swap happened).
    pub fn worst_settle_periods(&self) -> u64 {
        self.swap_settle_periods.iter().copied().max().unwrap_or(0)
    }
}

/// Replays an outcome's trace series through a fresh diagnostics
/// classifier and measures each swap's settling time.
pub fn classify(outcome: &StrategyOutcome, target_s: f64) -> ArmReport {
    // Post-hoc classification uses the detuned thresholds, not the live
    // monitor's: at a 250 ms target with a 1 s period the queue quantum
    // is 5–42 ms of delay per tuple, so even a perfectly regulated loop
    // crosses a ±30 % band on most periods. The post-hoc gates separate
    // the frozen-gain limit cycle from the self-tuners' quantization
    // ripple.
    let cfg = DiagnosticsConfig::post_hoc(Duration::from_secs_f64(target_s));
    let band = target_s * (1.0 + cfg.error_band_frac);
    let mut health = ControllerHealth::new(cfg);
    let mut state_periods = [0u64; 5];
    for t in &outcome.traces {
        health.observe(t);
        state_periods[health.state().ordinal() as usize] += 1;
    }

    let in_band = |t: &ControlTrace| t.y_hat_s.is_finite() && t.y_hat_s <= band;
    let mut swap_settle_periods = Vec::new();
    let mut prev_swaps = 0u64;
    for (i, t) in outcome.traces.iter().enumerate() {
        if t.adapt_swaps > prev_swaps {
            // A settle time is attributed to a swap only when the swap
            // is the sole active disturbance: the loop must be in band
            // on the period before it (otherwise re-entry measures the
            // cost-step transient the swap is *responding* to), and no
            // later swap may land before re-entry (the budget then
            // belongs to that last swap). The settling budget runs from
            // the swap period itself.
            let quiet = i == 0 || in_band(&outcome.traces[i - 1]);
            if quiet {
                let settle = outcome.traces[i..]
                    .iter()
                    .position(in_band)
                    .unwrap_or(outcome.traces.len() - i);
                let superseded = outcome.traces[i + 1..(i + settle.max(1)).min(outcome.traces.len())]
                    .iter()
                    .any(|u| u.adapt_swaps > t.adapt_swaps);
                if !superseded {
                    swap_settle_periods.push(settle as u64);
                }
            }
        }
        prev_swaps = prev_swaps.max(t.adapt_swaps);
    }

    let last = outcome.traces.last();
    ArmReport {
        name: outcome.name.clone(),
        state_periods,
        swaps: prev_swaps,
        swap_settle_periods,
        final_cost_est_us: last.map_or(f64::NAN, |t| t.adapt_cost_us),
        metrics: outcome.metrics,
        y_series: outcome
            .traces
            .iter()
            .map(|t| (t.k as f64, t.y_hat_s))
            .collect(),
    }
}

/// The arms of the experiment, in display order.
pub fn arms() -> [StrategyKind; 4] {
    [
        StrategyKind::CtrlFrozenGain,
        StrategyKind::Ctrl,
        StrategyKind::Adaptive,
        StrategyKind::Comparator,
    ]
}

/// Runs all four arms and classifies them.
pub fn collect_reports(seed: u64) -> Vec<ArmReport> {
    let times = StepTrace::constant(RATE_TPS).arrival_times(DURATION_S as f64);
    let cost = CostTrace::doubling_staircase(5.105, STEP_S);
    let loop_cfg = LoopConfig::paper_default()
        .with_target_delay_ms(TARGET_S * 1e3)
        .with_period_ms(PERIOD_MS);
    let outcomes = crate::parallel::run_indexed(4, 4, |i| {
        run_with_strategy(
            arms()[i],
            &times,
            &loop_cfg,
            DURATION_S,
            Some(&cost),
            None,
            seed,
        )
    });
    outcomes.iter().map(|o| classify(o, TARGET_S)).collect()
}

/// Runs the self-tuning experiment.
pub fn run(seed: u64) -> FigureResult {
    let reports = collect_reports(seed);

    let mut series = Vec::new();
    let mut summary = Vec::new();
    let mut notes = vec![format!(
        "cost staircase ×2/×4/×8 at {STEP_S:.0}/{:.0}/{:.0} s; target {TARGET_S} s; \
         {RATE_TPS:.0} t/s offered; seed {seed}",
        2.0 * STEP_S,
        3.0 * STEP_S
    )];
    notes.push(
        "arm               osc+sat  diverging  swaps  worst-settle  final ĉ (µs)".into(),
    );
    for r in &reports {
        series.push(Series::new(r.name.clone(), r.y_series.clone()));
        summary.push((format!("{}:osc_sat_periods", r.name), r.anomalous_periods() as f64));
        summary.push((
            format!("{}:diverging_periods", r.name),
            r.diverging_periods() as f64,
        ));
        summary.push((format!("{}:swaps", r.name), r.swaps as f64));
        summary.push((
            format!("{}:worst_settle_periods", r.name),
            r.worst_settle_periods() as f64,
        ));
        summary.push((
            format!("{}:violation_ms", r.name),
            r.metrics.accumulated_violation_ms,
        ));
        summary.push((format!("{}:loss_ratio", r.name), r.metrics.loss_ratio));
        notes.push(format!(
            "{:<17} {:>7}  {:>9}  {:>5}  {:>12}  {:>12.1}",
            r.name,
            r.anomalous_periods(),
            r.diverging_periods(),
            r.swaps,
            r.worst_settle_periods(),
            r.final_cost_est_us,
        ));
    }
    notes.push(
        "expected: CTRL-FIXED limit-cycles once the ×8 level octuples its frozen loop \
         gain; both self-tuning arms re-settle within the 3-period budget after every \
         bumpless swap and never diverge"
            .into(),
    );

    FigureResult {
        id: "adaptive".into(),
        title: "Self-tuning control under a doubling cost staircase".into(),
        x_label: "control period k (s)".into(),
        y_label: "regulated delay ŷ (s)".into(),
        series,
        summary,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance criteria of the self-tuning plane, end to end.
    #[test]
    fn fixed_tuning_destabilises_and_self_tuners_resettle() {
        let reports = collect_reports(11);
        let by_name = |n: &str| reports.iter().find(|r| r.name == n).unwrap();

        let fixed = by_name("CTRL-FIXED");
        assert!(
            fixed.anomalous_periods() > 0,
            "frozen gain must be flagged Oscillating/Saturated: {:?}",
            fixed.state_periods
        );

        for name in ["CTRL-ADAPTIVE", "CTRL-COMPARATOR"] {
            let r = by_name(name);
            assert_eq!(r.diverging_periods(), 0, "{name} diverged: {:?}", r.state_periods);
            assert!(r.swaps > 0, "{name} never re-tuned");
            assert!(
                r.worst_settle_periods() <= 3,
                "{name} blew the 3-period settle budget: {:?}",
                r.swap_settle_periods
            );
            // The re-identified cost must track the ×8 staircase level.
            let c = r.final_cost_est_us;
            assert!(
                c > 5105.0 * 3.0,
                "{name} final cost estimate {c} ignores the staircase"
            );
        }
    }

    /// `--seed` is honored: same seed → identical output, different
    /// seed → the engine jitter shifts the series.
    #[test]
    fn seeded_and_deterministic() {
        let a = run(3);
        let b = run(3);
        assert_eq!(a.series, b.series);
        assert_eq!(a.summary, b.summary);
        let c = run(4);
        assert_ne!(a.series, c.series, "seed must reach the engine");
    }
}
