//! `reproduce trace`: replays one campaign cell with its telemetry kept
//! and dumps the structured control-loop trace of every shard.
//!
//! The replay is [`campaign::simulate_cell`] — the very run
//! `reproduce campaign --filter <key> --seed <seed>` makes, counter for
//! counter — but it keeps what the campaign folds away: each shard's
//! [`RunReport`](streamshed_engine::metrics::RunReport) and one
//! [`ControlTrace`](streamshed_engine::telemetry::ControlTrace) per
//! control period (engine counters, the controller's internal signals
//! ŷ, e, u and cost estimate, the supervisor mode, the fault flags that
//! fired, and the hook's wall-clock cost). Exporters turn each shard's
//! records into JSONL or CSV.
//!
//! Because the trace carries per-period `completed` and `mean_delay_ms`,
//! a shard's overall mean delay can be *reconstructed* from the trace
//! alone and checked against the engine's own run report — the
//! self-consistency proof that the telemetry schema loses nothing the
//! evaluation needs (see [`TraceResult::reconstruction_error`]).

use crate::campaign::{self, ShardRun};
use streamshed_engine::telemetry::{fault_flag_names, reconstructed_mean_delay_ms};

/// Everything one traced replay produces.
#[derive(Debug, Clone)]
pub struct TraceResult {
    /// The campaign cell key.
    pub key: String,
    /// The campaign seed (the cell and shard seeds derive from it).
    pub seed: u64,
    /// Every shard's raw run, in shard order.
    pub shards: Vec<ShardRun>,
}

impl TraceResult {
    /// The campaign's counter digest of this run; equal to the `digest`
    /// the campaign records for the cell.
    pub fn digest(&self) -> u64 {
        let stats: Vec<_> = self.shards.iter().map(ShardRun::stats).collect();
        campaign::digest_shards(&stats)
    }

    /// Relative error between shard `i`'s trace-reconstructed mean delay
    /// (completed-weighted mean of the per-period means) and the engine's
    /// own measurement. `None` when either side is undefined (no
    /// completed tuples).
    pub fn reconstruction_error(&self, i: usize) -> Option<f64> {
        let run = &self.shards[i];
        let truth = run.report.mean_delay_ms();
        if truth <= 0.0 || !truth.is_finite() {
            return None;
        }
        reconstructed_mean_delay_ms(&run.traces).map(|r| (r - truth).abs() / truth)
    }

    /// A human-readable summary of the replay (printed by the
    /// `reproduce trace` subcommand above the file paths).
    pub fn render_summary(&self) -> String {
        let mut out = format!(
            "== trace — cell '{}' (seed {}) ==\n  digest {:#018x}, as `reproduce campaign \
             --filter '{}' --seed {}` records it\n",
            self.key,
            self.seed,
            self.digest(),
            self.key,
            self.seed
        );
        for (i, run) in self.shards.iter().enumerate() {
            out.push_str(&format!("  shard {i}:\n"));
            render_shard(&mut out, run, self.reconstruction_error(i));
        }
        out
    }
}

fn render_shard(out: &mut String, run: &ShardRun, error: Option<f64>) {
    let traces = &run.traces;
    out.push_str(&format!(
        "    periods traced: {} | completed: {} | loss ratio: {:.3}\n",
        traces.len(),
        run.report.completed,
        run.report.loss_ratio()
    ));
    let mut mode_counts: Vec<(&str, usize)> = Vec::new();
    for t in traces {
        let name = t.mode.as_str();
        match mode_counts.iter_mut().find(|(n, _)| *n == name) {
            Some((_, c)) => *c += 1,
            None => mode_counts.push((name, 1)),
        }
    }
    let modes: Vec<String> = mode_counts.iter().map(|(n, c)| format!("{n}:{c}")).collect();
    out.push_str(&format!("    loop modes: {}\n", modes.join(" ")));
    let faulted = traces.iter().filter(|t| t.fault_flags != 0).count();
    let flags = traces.iter().fold(0u16, |acc, t| acc | t.fault_flags);
    out.push_str(&format!(
        "    faulted periods: {faulted} ({})\n",
        if flags == 0 { "none".to_string() } else { fault_flag_names(flags) }
    ));
    let n = traces.len();
    let total_ns: u64 = traces.iter().map(|t| t.hook_ns).sum();
    let max_ns = traces.iter().map(|t| t.hook_ns).max().unwrap_or(0);
    out.push_str(&format!(
        "    hook span: n={n} mean={:.1}µs max={:.1}µs\n",
        total_ns as f64 / n.max(1) as f64 / 1e3,
        max_ns as f64 / 1e3,
    ));
    match (reconstructed_mean_delay_ms(traces), error) {
        (Some(rec), Some(err)) => out.push_str(&format!(
            "    mean delay: engine {:.1} ms, reconstructed from trace {:.1} ms \
             (error {:.3}%)\n",
            run.report.mean_delay_ms(),
            rec,
            err * 100.0
        )),
        _ => out.push_str("    mean delay: undefined (no completed tuples)\n"),
    }
}

/// Replays the campaign cell `key` (a [`campaign::full_grid`] key) at
/// campaign seed `seed`, keeping every shard's report and traces.
///
/// # Panics
///
/// Panics when `key` is not a cell of the grid.
pub fn run(key: &str, seed: u64) -> TraceResult {
    let spec = campaign::cell(key).unwrap_or_else(|| {
        panic!("unknown cell '{key}'; `reproduce campaign --lane full --list` prints every key")
    });
    TraceResult {
        key: key.to_string(),
        seed,
        shards: campaign::simulate_cell(&spec, seed, false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamshed_engine::telemetry::{export_csv, export_jsonl, LoopMode};

    #[test]
    fn clean_trace_reconstructs_mean_delay_within_one_percent() {
        let tr = run("poisson+clean+ident+1shard+paper", 7);
        assert_eq!(tr.shards[0].traces.len(), campaign::DURATION_S as usize);
        let err = tr.reconstruction_error(0).expect("delay defined");
        assert!(
            err < 0.01,
            "reconstruction error {:.4}% (engine {:.2} ms, trace {:.2} ms)",
            err * 100.0,
            tr.shards[0].report.mean_delay_ms(),
            reconstructed_mean_delay_ms(&tr.shards[0].traces).unwrap()
        );
    }

    #[test]
    fn stale_q_trace_shows_flags_and_fallback() {
        let tr = run("poisson+stale_q+ident+1shard+paper", 7);
        let traces = &tr.shards[0].traces;
        assert!(
            traces.iter().any(|t| t.fault_flags != 0),
            "fault windows must stamp flags"
        );
        assert!(
            traces.iter().any(|t| t.mode == LoopMode::Fallback),
            "supervisor must fall back under a frozen queue sensor"
        );
        // The trace still reconstructs the run's delay: corrupted
        // *snapshots to the inner loop* never corrupt the telemetry,
        // which taps the clean engine snapshot.
        let err = tr.reconstruction_error(0).expect("delay defined");
        assert!(err < 0.01, "reconstruction error {:.4}%", err * 100.0);
    }

    #[test]
    fn exports_and_summary_are_well_formed() {
        let tr = run("poisson+sensor_dropout+ident+1shard+paper", 3);
        let traces = &tr.shards[0].traces;
        let jsonl = export_jsonl(traces);
        assert_eq!(jsonl.lines().count(), traces.len());
        assert!(jsonl.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
        let csv = export_csv(traces);
        assert_eq!(csv.lines().count(), traces.len() + 1);
        let summary = tr.render_summary();
        assert!(summary.contains("poisson+sensor_dropout+ident+1shard+paper"));
        assert!(summary.contains("mean delay"));
        // Dropout windows blank the sensor; the flag must appear.
        assert!(summary.contains("(sensor_dropout)"), "{summary}");
        let hook_line = format!("hook span: n={} ", traces.len());
        assert!(summary.contains(&hook_line), "{summary}");
    }

    /// A trace is the campaign's run of the cell, not a look-alike: on a
    /// multi-shard cell off the identification network, every shard's
    /// report carries the campaign's counters and the digests agree.
    #[test]
    fn trace_replays_its_campaign_cell_bit_for_bit() {
        let key = "mmpp+cost_collapse+monitoring+2shard+netshed";
        let tr = run(key, 7);
        let stats = campaign::run_cell(&campaign::cell(key).unwrap(), 7, false);
        assert_eq!(tr.shards.len(), 2);
        for (run, s) in tr.shards.iter().zip(&stats) {
            let r = &run.report;
            assert_eq!(
                (r.offered, r.dropped_entry, r.dropped_network, r.completed),
                (s.offered, s.dropped_entry, s.dropped_network, s.completed)
            );
            assert_eq!(r.outstanding_at_end(), s.outstanding);
            assert_eq!(r.conservation_residual(), s.residual);
            assert_eq!(run.traces.len() as u64, s.periods);
        }
        assert_eq!(tr.digest(), campaign::digest_shards(&stats));
    }

    #[test]
    #[should_panic(expected = "unknown cell")]
    fn unknown_scenario_panics() {
        let _ = run("nope", 1);
    }
}
