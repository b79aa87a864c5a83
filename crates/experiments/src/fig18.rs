//! Figure 18: responses to runtime changes of the delay target.
//!
//! `yd` starts at 1 s, jumps to 3 s at 150 s and to 5 s at 300 s (Web
//! input). CTRL converges to each new target quickly; BASELINE takes a
//! long time to climb; AURORA does not respond at all.

use crate::runner::{run_with_strategy, StrategyKind, TargetSchedule};
use crate::{FigureResult, Series};
use streamshed_control::loop_::LoopConfig;
use streamshed_workload::{ArrivalTrace, WebLikeTrace};

/// Run length, s.
const DURATION_S: u64 = 400;

/// The figure's arrival trace, loop configuration and target schedule.
fn inputs(seed: u64) -> (Vec<f64>, LoopConfig, TargetSchedule) {
    // A delay target is only *trackable* under sustained overload — with
    // slack CPU the queue simply drains and delays fall to zero. Use a
    // heavier web-like mix (~300 t/s against the 190 t/s capacity) so the
    // loop actually regulates the queue at every target level.
    let times = WebLikeTrace::builder()
        .sources(64)
        .seed(seed)
        .build()
        .arrival_times(DURATION_S as f64);
    let cfg = LoopConfig::paper_default().with_target_delay_ms(1000.0);
    (times, cfg, TargetSchedule(vec![(150, 3.0), (300, 5.0)]))
}

/// Runs the Fig. 18 experiment.
pub fn run(seed: u64) -> FigureResult {
    let (times, cfg, schedule) = inputs(seed);

    let mut series = Vec::new();
    let mut summary = Vec::new();
    for kind in [
        StrategyKind::Ctrl,
        StrategyKind::Baseline,
        StrategyKind::Aurora,
    ] {
        let outcome = run_with_strategy(
            kind,
            &times,
            &cfg,
            DURATION_S,
            None,
            Some(schedule.clone()),
            seed,
        );
        let ys: Vec<(f64, f64)> = outcome
            .report
            .periods
            .iter()
            .map(|p| (p.time_s, p.arrival_mean_delay_ms / 1e3))
            .collect();
        // Phase means over the settled part of each phase.
        let phase_mean = |lo: f64, hi: f64| {
            let vals: Vec<f64> = ys
                .iter()
                .filter(|&&(t, y)| t >= lo && t < hi && y.is_finite())
                .map(|&(_, y)| y)
                .collect();
            vals.iter().sum::<f64>() / vals.len().max(1) as f64
        };
        summary.push((format!("{}:phase1_mean_s", outcome.name), phase_mean(60.0, 150.0)));
        summary.push((format!("{}:phase2_mean_s", outcome.name), phase_mean(210.0, 300.0)));
        summary.push((format!("{}:phase3_mean_s", outcome.name), phase_mean(360.0, 395.0)));
        // Convergence speed into phase 2: settling time, i.e. the first
        // period from which the response stays within ±20% of 3 s (a
        // single transient clip of the band while slowly ramping through
        // it does not count as converged).
        let phase2: Vec<f64> = ys
            .iter()
            .filter(|&&(t, _)| (150.0..300.0).contains(&t))
            .map(|&(_, y)| y)
            .collect();
        let in_band = |y: &f64| y.is_finite() && (y - 3.0).abs() < 0.6;
        let conv = (0..phase2.len())
            .find(|&i| phase2[i..].iter().all(in_band))
            .map(|i| i as f64)
            .unwrap_or(f64::INFINITY);
        summary.push((format!("{}:phase2_convergence_periods", outcome.name), conv));
        series.push(Series::new(outcome.name.clone(), ys));
    }

    FigureResult {
        id: "fig18".into(),
        title: "Responses to runtime changes of the target value".into(),
        x_label: "time (s)".into(),
        y_label: "avg delay (s)".into(),
        series,
        summary,
        notes: vec![
            "paper: CTRL converges quickly to 1→3→5 s; BASELINE converges \
             very slowly upward; AURORA ignores the target entirely"
                .into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctrl_tracks_targets_aurora_does_not() {
        let fig = run(7);
        let get = |name: &str| fig.summary.iter().find(|(n, _)| n == name).unwrap().1;
        // CTRL settles near each target.
        assert!((get("CTRL:phase1_mean_s") - 1.0).abs() < 0.4, "p1 {}", get("CTRL:phase1_mean_s"));
        assert!((get("CTRL:phase2_mean_s") - 3.0).abs() < 0.8, "p2 {}", get("CTRL:phase2_mean_s"));
        assert!((get("CTRL:phase3_mean_s") - 5.0).abs() < 1.2, "p3 {}", get("CTRL:phase3_mean_s"));
        // CTRL reaches the 3 s band faster than BASELINE.
        assert!(
            get("CTRL:phase2_convergence_periods")
                <= get("BASELINE:phase2_convergence_periods"),
            "CTRL {} vs BASELINE {}",
            get("CTRL:phase2_convergence_periods"),
            get("BASELINE:phase2_convergence_periods")
        );
        // AURORA never aims at a delay target (its `set_target_delay_s`
        // is the trait's no-op): with or without the schedule, AURORA
        // commands the same α in every period.
        let (times, cfg, schedule) = inputs(7);
        let alphas = |schedule: Option<TargetSchedule>| -> Vec<u64> {
            let aurora = StrategyKind::Aurora;
            let outcome = run_with_strategy(aurora, &times, &cfg, DURATION_S, None, schedule, 7);
            outcome
                .report
                .periods
                .iter()
                .map(|p| p.alpha.to_bits())
                .collect()
        };
        let scheduled = alphas(Some(schedule));
        assert_eq!(scheduled.len(), DURATION_S as usize);
        assert!(
            scheduled.iter().any(|&a| f64::from_bits(a) > 0.0),
            "AURORA never shed"
        );
        assert_eq!(scheduled, alphas(None));
    }
}
