//! Ablations of the design choices DESIGN.md calls out.
//!
//! Not figures from the paper, but controlled comparisons that justify
//! (or interrogate) each design decision:
//!
//! 1. **Shed location** — entry coin-flip vs in-network queue shedding
//!    (both with the queue-conserving `Ls = (fin − v)·T·c`);
//! 2. **Anti-windup** — back-calculation on vs off;
//! 3. **Pole placement** — closed-loop poles at 0.5 / 0.9 against the
//!    default 0.7;
//! 4. **Feedback signal** — virtual-queue estimate ŷ vs the delayed
//!    true-delay measurement (§4.5.1's motivating problem).

use crate::runner::{run_with_strategy, MetricsSummary, StrategyKind};
use crate::{FigureResult, Series};
use streamshed_control::controller::{ControllerParams, FeedbackController};
use streamshed_control::loop_::{LoopConfig, ShedMode};
use streamshed_control::shedder::EntryShedder;
use streamshed_engine::hook::{ControlHook, Decision, PeriodSnapshot};
use streamshed_engine::networks::identification_network;
use streamshed_engine::sim::{SimConfig, Simulator};
use streamshed_engine::telemetry::InstrumentedHook;
use streamshed_engine::time::{secs, SimTime};
use streamshed_workload::{to_micros, ArrivalTrace, ParetoTrace};

const DURATION_S: u64 = 300;

fn workload(seed: u64) -> Vec<f64> {
    ParetoTrace::builder()
        .mean_rate(300.0)
        .bias(0.5)
        .seed(seed)
        .build()
        .arrival_times(DURATION_S as f64)
}

fn metrics(cfg: &LoopConfig, times: &[f64], seed: u64) -> MetricsSummary {
    run_with_strategy(StrategyKind::Ctrl, times, cfg, DURATION_S, None, None, seed).metrics
}

/// A CTRL variant fed by the *delayed true-delay measurement* instead of
/// the virtual-queue estimate — the naive design §4.5.1 rules out.
struct TrueDelayFeedback {
    controller: FeedbackController,
    target_s: f64,
    last_y_s: f64,
    cfg: LoopConfig,
}

impl ControlHook for TrueDelayFeedback {
    fn on_period(&mut self, snap: &PeriodSnapshot) -> Decision {
        if let Some(ms) = snap.mean_delay_ms {
            self.last_y_s = ms / 1e3;
        }
        let e = self.target_s - self.last_y_s;
        let c_s = snap.measured_cost_us.unwrap_or(self.cfg.prior_cost_us) / 1e6;
        let u = self.controller.compute(
            e,
            c_s.max(1e-6),
            snap.period.as_secs_f64(),
            self.cfg.headroom,
        );
        let fin = snap.fin_rate();
        let v = u + snap.fout_rate();
        let v_applied = v.clamp(0.0, fin.max(0.0));
        self.controller.commit(e, v_applied - snap.fout_rate());
        Decision::entry(EntryShedder::alpha_for(v, fin))
    }
}

impl InstrumentedHook for TrueDelayFeedback {}

fn true_delay_metrics(times: &[f64], seed: u64) -> MetricsSummary {
    let cfg = LoopConfig::paper_default();
    let mut hook = TrueDelayFeedback {
        controller: FeedbackController::new(cfg.controller),
        target_s: cfg.target_delay_s(),
        last_y_s: 0.0,
        cfg: cfg.clone(),
    };
    let arrivals: Vec<SimTime> = to_micros(times).into_iter().map(SimTime).collect();
    let sim = Simulator::new(
        identification_network(),
        SimConfig::paper_default().with_seed(seed),
    );
    let report = sim.run(&arrivals, &mut hook, secs(DURATION_S));
    MetricsSummary::from_report(&report)
}

/// Runs all ablations and reports violations + loss per variant.
pub fn run(seed: u64) -> FigureResult {
    let times = workload(seed);
    let base = LoopConfig::paper_default();
    let mut rows: Vec<(String, MetricsSummary)> = Vec::new();

    rows.push(("entry-shed (default)".into(), metrics(&base, &times, seed)));
    rows.push((
        "network-shed".into(),
        metrics(
            &base.clone().with_shed_mode(ShedMode::Network),
            &times,
            seed,
        ),
    ));
    rows.push((
        "no-anti-windup".into(),
        metrics(&base.clone().with_anti_windup(false), &times, seed),
    ));
    for pole in [0.5, 0.9] {
        let params = ControllerParams::for_double_pole(pole);
        rows.push((
            format!("pole={pole}"),
            metrics(&base.clone().with_controller(params), &times, seed),
        ));
    }
    rows.push(("true-delay-feedback".into(), true_delay_metrics(&times, seed)));

    let mut series = Vec::new();
    let mut summary = Vec::new();
    for (i, (name, m)) in rows.iter().enumerate() {
        series.push(Series::new(
            name.clone(),
            vec![(i as f64, m.accumulated_violation_ms / 1e3)],
        ));
        summary.push((format!("{name}:violations_s"), m.accumulated_violation_ms / 1e3));
        summary.push((format!("{name}:loss"), m.loss_ratio));
        summary.push((format!("{name}:max_overshoot_ms"), m.max_overshoot_ms));
    }

    FigureResult {
        id: "ablations".into(),
        title: "Design-choice ablations (not in the paper)".into(),
        x_label: "variant".into(),
        y_label: "accumulated violations (tuple·s)".into(),
        series,
        summary,
        notes: vec![
            "network-shed can cull the standing queue: far fewer violations, slightly more loss"
                .into(),
            "true-delay feedback reacts a full queue-drain late: it over-sheds \
             (more loss than the default) yet still suffers multi-second \
             worst-case overshoots (motivates §4.5.1)"
                .into(),
            "slow poles (0.9) relax α sluggishly after bursts and over-shed; \
             fast poles (0.5) ≈ 0.7 here — 0.7 buys margin without cost"
                .into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_directions_are_sane() {
        // Averaged over a small seed set so a single burst realization
        // can't flip the marginal comparisons.
        let seeds = [3u64, 7, 11];
        let figs = crate::parallel::run_indexed(seeds.len(), seeds.len(), |i| run(seeds[i]));
        let mean = |name: &str| {
            figs.iter()
                .map(|f| {
                    f.summary
                        .iter()
                        .find(|(n, _)| n == name)
                        .unwrap_or_else(|| panic!("missing {name}"))
                        .1
                })
                .sum::<f64>()
                / figs.len() as f64
        };
        let default_v = mean("entry-shed (default):violations_s");
        // Network shedding dominates on violations.
        assert!(
            mean("network-shed:violations_s") < default_v,
            "network {} vs entry {default_v}",
            mean("network-shed:violations_s")
        );
        // ...at somewhat higher loss.
        assert!(mean("network-shed:loss") >= mean("entry-shed (default):loss") - 0.02);
        // The delayed true-delay feedback over-reacts to stale
        // measurements: it buys its violations down by shedding more
        // data — §4.5.1's motivation. (The margin shrank when the
        // engine's delay sensor learned to report a known-zero delay
        // for a fully idle pipeline instead of a blackout: the variant
        // no longer wedges shut after a drought, but it still loses
        // strictly more than the default.)
        assert!(
            mean("true-delay-feedback:loss") > mean("entry-shed (default):loss") * 1.02,
            "true-delay loss {} vs default {}",
            mean("true-delay-feedback:loss"),
            mean("entry-shed (default):loss")
        );
        // ...and even with roughly double the loss it still suffers
        // multi-second worst-case overshoots.
        assert!(
            mean("true-delay-feedback:max_overshoot_ms") > 3000.0,
            "true-delay overshoot {}",
            mean("true-delay-feedback:max_overshoot_ms")
        );
    }
}
