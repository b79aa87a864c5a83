//! `reproduce trace`: replays one fault scenario with the full telemetry
//! stack engaged and dumps the structured control-loop trace.
//!
//! The replay wires the same stack the fault matrix ([`crate::faults`])
//! evaluates — supervised CTRL behind a seeded [`FaultyHook`] — and hands
//! the simulator a [`SharedRecorder`], so every control period produces
//! one [`ControlTrace`] record:
//! engine counters, the controller's internal signals (ŷ, e, u, cost
//! estimate), the supervisor mode, the fault flags that fired, and the
//! hook's wall-clock cost. Exporters turn the ring into JSONL or CSV.
//!
//! Because the trace carries per-period `completed` and `mean_delay_ms`,
//! the run's overall mean delay can be *reconstructed* from the trace
//! alone and checked against the engine's own [`RunReport`] — the
//! self-consistency proof that the telemetry schema loses nothing the
//! evaluation needs (see [`TraceResult::reconstruction_error`]).

use crate::faults;
use streamshed_control::loop_::LoopConfig;
use streamshed_control::strategy::CtrlStrategy;
use streamshed_control::supervisor::Supervisor;
use streamshed_engine::faults::FaultyHook;
use streamshed_engine::metrics::RunReport;
use streamshed_engine::networks::identification_network;
use streamshed_engine::sim::Simulator;
use streamshed_engine::telemetry::{
    export_csv, export_jsonl, fault_flag_names, reconstructed_mean_delay_ms, ControlTrace,
    SharedRecorder,
};
use streamshed_engine::time::secs;

/// Everything one traced replay produces.
#[derive(Debug, Clone)]
pub struct TraceResult {
    /// Scenario key (one of [`faults::SCENARIOS`]).
    pub scenario: String,
    /// Engine RNG / fault-plan seed.
    pub seed: u64,
    /// The engine's independent run report (ground truth for the
    /// reconstruction check).
    pub report: RunReport,
    /// One record per control period, in period order.
    pub traces: Vec<ControlTrace>,
}

impl TraceResult {
    /// The full trace as JSON Lines (one object per period).
    pub fn to_jsonl(&self) -> String {
        export_jsonl(&self.traces)
    }

    /// The full trace as CSV (header + one row per period).
    pub fn to_csv(&self) -> String {
        export_csv(&self.traces)
    }

    /// Mean tuple delay reconstructed purely from the trace records
    /// (completed-weighted mean of the per-period means).
    pub fn reconstructed_mean_delay_ms(&self) -> Option<f64> {
        reconstructed_mean_delay_ms(&self.traces)
    }

    /// Relative error between the trace-reconstructed mean delay and the
    /// engine's own measurement. `None` when either side is undefined
    /// (no completed tuples).
    pub fn reconstruction_error(&self) -> Option<f64> {
        let truth = self.report.mean_delay_ms();
        if truth <= 0.0 || !truth.is_finite() {
            return None;
        }
        self.reconstructed_mean_delay_ms()
            .map(|r| (r - truth).abs() / truth)
    }

    /// A human-readable summary of the replay (printed by the
    /// `reproduce trace` subcommand above the file paths).
    pub fn render_summary(&self) -> String {
        let mut out = format!(
            "== trace — scenario '{}' (seed {}) ==\n",
            self.scenario, self.seed
        );
        out.push_str(&format!(
            "  periods traced: {} | completed: {} | loss ratio: {:.3}\n",
            self.traces.len(),
            self.report.completed,
            self.report.loss_ratio()
        ));
        let mut mode_counts: Vec<(&str, usize)> = Vec::new();
        for t in &self.traces {
            let name = t.mode.as_str();
            match mode_counts.iter_mut().find(|(n, _)| *n == name) {
                Some((_, c)) => *c += 1,
                None => mode_counts.push((name, 1)),
            }
        }
        let modes: Vec<String> = mode_counts
            .iter()
            .map(|(n, c)| format!("{n}:{c}"))
            .collect();
        out.push_str(&format!("  loop modes: {}\n", modes.join(" ")));
        let faulted = self.traces.iter().filter(|t| t.fault_flags != 0).count();
        let mut flags = 0u16;
        for t in &self.traces {
            flags |= t.fault_flags;
        }
        out.push_str(&format!(
            "  faulted periods: {faulted} ({})\n",
            if flags == 0 {
                "none".to_string()
            } else {
                fault_flag_names(flags).join("|")
            }
        ));
        let n = self.traces.len();
        let total_ns: u64 = self.traces.iter().map(|t| t.hook_ns).sum();
        let max_ns = self.traces.iter().map(|t| t.hook_ns).max().unwrap_or(0);
        out.push_str(&format!(
            "  hook span: n={n} mean={:.1}µs max={:.1}µs\n",
            total_ns as f64 / n.max(1) as f64 / 1e3,
            max_ns as f64 / 1e3,
        ));
        match (self.reconstructed_mean_delay_ms(), self.reconstruction_error()) {
            (Some(rec), Some(err)) => out.push_str(&format!(
                "  mean delay: engine {:.1} ms, reconstructed from trace {:.1} ms \
                 (error {:.3}%)\n",
                self.report.mean_delay_ms(),
                rec,
                err * 100.0
            )),
            _ => out.push_str("  mean delay: undefined (no completed tuples)\n"),
        }
        out
    }
}

/// Replays `scenario` (a [`faults::SCENARIOS`] key) for 200 s with full
/// telemetry and returns the trace plus the engine report.
///
/// # Panics
///
/// Panics when `scenario` is not a known key.
pub fn run(scenario: &str, seed: u64) -> TraceResult {
    assert!(
        faults::SCENARIOS.contains(&scenario),
        "unknown scenario '{scenario}'; known: {}",
        faults::SCENARIOS.join(", ")
    );
    let loop_cfg = LoopConfig::paper_default();
    let sim_cfg = faults::scenario_sim_config(scenario, seed);
    let arrivals = faults::scenario_arrivals(scenario, seed);
    let plan = faults::plan_for(scenario, seed);

    // Size the ring to hold every period of the run — the replay is the
    // one place where the full history matters more than boundedness.
    let periods =
        (faults::DURATION_S as f64 / loop_cfg.period().as_secs_f64()).ceil() as usize + 8;
    let recorder = SharedRecorder::with_capacity(periods);

    let strategy = Supervisor::from_loop(CtrlStrategy::from_config(&loop_cfg), &loop_cfg);
    let mut hook = FaultyHook::new(strategy, plan);
    let sim =
        Simulator::new(identification_network(), sim_cfg).with_telemetry(recorder.clone());
    let report = sim.run(&arrivals, &mut hook, secs(faults::DURATION_S));

    TraceResult {
        scenario: scenario.to_string(),
        seed,
        report,
        traces: recorder.snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamshed_engine::telemetry::LoopMode;

    #[test]
    fn clean_trace_reconstructs_mean_delay_within_one_percent() {
        let tr = run("clean", 7);
        assert_eq!(tr.traces.len(), faults::DURATION_S as usize);
        let err = tr.reconstruction_error().expect("delay defined");
        assert!(
            err < 0.01,
            "reconstruction error {:.4}% (engine {:.2} ms, trace {:.2} ms)",
            err * 100.0,
            tr.report.mean_delay_ms(),
            tr.reconstructed_mean_delay_ms().unwrap()
        );
    }

    #[test]
    fn stale_q_trace_shows_flags_and_fallback() {
        let tr = run("stale_q", 7);
        assert!(
            tr.traces.iter().any(|t| t.fault_flags != 0),
            "fault windows must stamp flags"
        );
        assert!(
            tr.traces.iter().any(|t| t.mode == LoopMode::Fallback),
            "supervisor must fall back under a frozen queue sensor"
        );
        // The trace still reconstructs the run's delay: corrupted
        // *snapshots to the inner loop* never corrupt the telemetry,
        // which taps the clean engine snapshot.
        let err = tr.reconstruction_error().expect("delay defined");
        assert!(err < 0.01, "reconstruction error {:.4}%", err * 100.0);
    }

    #[test]
    fn exports_and_summary_are_well_formed() {
        let tr = run("sensor_dropout", 3);
        let jsonl = tr.to_jsonl();
        assert_eq!(jsonl.lines().count(), tr.traces.len());
        assert!(jsonl.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
        let csv = tr.to_csv();
        assert_eq!(csv.lines().count(), tr.traces.len() + 1);
        let summary = tr.render_summary();
        assert!(summary.contains("sensor_dropout"));
        assert!(summary.contains("mean delay"));
        // Dropout windows blank the sensor; the flag must appear.
        assert!(summary.contains("sensor_dropout"), "{summary}");
        let hook_line = format!("hook span: n={} ", tr.traces.len());
        assert!(summary.contains(&hook_line), "{summary}");
    }

    #[test]
    #[should_panic(expected = "unknown scenario")]
    fn unknown_scenario_panics() {
        let _ = run("nope", 1);
    }
}
