//! `reproduce sharded` — delay convergence on the sharded data plane.
//!
//! The paper's controller is derived for the *aggregate* plant
//! `G(z) = cT/(H(z−1))` (§4.2): partitioning the data plane across N
//! workers only changes the constant `c` (to `c/N`, since N tuples drain
//! concurrently). This scenario demonstrates the claim end to end on the
//! wall clock: the same pole-placement CTRL strategy drives the
//! real-time [`ShardedEngine`] at 1 shard and at 4 shards, each under
//! 2× overload *relative to its own capacity*, and both must converge
//! the measured mean tuple delay to the same target.
//!
//! Unlike the virtual-time figures this run is wall-clock and therefore
//! not byte-deterministic; it is excluded from `reproduce all` and run
//! explicitly (`reproduce sharded`). The figure tolerance is accordingly
//! generous: steady-state mean delay within ±40% of the target.

use crate::{FigureResult, Series};
use std::time::{Duration, Instant};
use streamshed_control::loop_::LoopConfig;
use streamshed_control::strategy::CtrlStrategy;
use streamshed_engine::shard::{Dispatch, ShardConfig, ShardedEngine};
use streamshed_engine::telemetry::{ControlTrace, SharedRecorder};
use streamshed_engine::worker::CostModel;

/// Nominal per-tuple service cost.
const COST: Duration = Duration::from_millis(2);
/// Control period of the global controller.
const PERIOD: Duration = Duration::from_millis(50);
/// Delay target the controller must converge to, ms.
pub const TARGET_MS: f64 = 250.0;
/// Wall-clock length of each run.
const RUN: Duration = Duration::from_secs(6);
/// Offered load per shard, tuples/s — about 2× a shard's ~500 t/s
/// service capacity, so every configuration is in sustained overload.
const RATE_PER_SHARD: f64 = 1000.0;

/// Outcome of one sharded run.
#[derive(Debug, Clone)]
pub struct ShardRun {
    /// Shard count.
    pub shards: usize,
    /// Steady-state mean delay (completed-weighted over the second half
    /// of the run), ms.
    pub steady_delay_ms: f64,
    /// Overall data loss ratio.
    pub loss_ratio: f64,
    /// Mean delay trajectory, one point per control period `(s, ms)`.
    pub trajectory: Vec<(f64, f64)>,
    /// Tuples offered / completed.
    pub offered: u64,
    /// Tuples completed.
    pub completed: u64,
    /// Whether the front-door/shard counters balance exactly.
    pub balanced: bool,
}

/// Completed-weighted mean of the per-period mean delays recorded from
/// `from_s` on, ms (`NaN` if no period there retired a tuple).
pub fn steady_delay_ms(traces: &[ControlTrace], from_s: f64) -> f64 {
    let (mut sum, mut n) = (0.0f64, 0u64);
    for t in traces {
        if t.time_s >= from_s && t.completed > 0 && t.mean_delay_ms.is_finite() {
            sum += t.mean_delay_ms * t.completed as f64;
            n += t.completed;
        }
    }
    if n > 0 {
        sum / n as f64
    } else {
        f64::NAN
    }
}

/// Runs the CTRL strategy on a sharded engine and measures convergence.
/// `seed` drives the front-door entry shedder, so the sampling side of
/// the run replays for a given `--seed` (wall-clock pacing still varies).
pub fn run_once(shards: usize, seed: u64) -> ShardRun {
    let cfg = ShardConfig {
        shards,
        cost: COST,
        period: PERIOD,
        target_delay: Duration::from_millis(TARGET_MS as u64),
        headroom: 0.97,
        queue_capacity: 8192,
        panic_on_tuple: None,
        cost_model: CostModel::Sleep,
        dispatch: Dispatch::RoundRobin,
        seed,
        pin_cores: false,
        sample_every: streamshed_engine::spans::DEFAULT_SAMPLE_EVERY,
    };
    // The controller is the unchanged pole-placement loop; only its cost
    // prior reflects the aggregate plant (c/N — the engine's measured
    // feedback uses the same convention).
    let loop_cfg = LoopConfig::paper_default()
        .with_target_delay_ms(TARGET_MS)
        .with_period_ms(PERIOD.as_millis() as f64)
        .with_headroom(0.97)
        .with_prior_cost_us(COST.as_micros() as f64 / shards as f64);
    let strategy = CtrlStrategy::from_config(&loop_cfg);
    let recorder = SharedRecorder::with_capacity(4096);
    let engine = ShardedEngine::spawn_recorded(cfg, strategy, Some(recorder.clone()));

    // Paced feeder: batch arrivals every 5 ms at `RATE_PER_SHARD × N`.
    let rate = RATE_PER_SHARD * shards as f64;
    let tick = Duration::from_millis(5);
    let per_tick = (rate * tick.as_secs_f64()).round() as u64;
    let start = Instant::now();
    let mut next = start + tick;
    while start.elapsed() < RUN {
        // Batched front door: one shed pass + one timestamp per tick.
        engine.offer_batch(per_tick as usize);
        let now = Instant::now();
        if next > now {
            std::thread::sleep(next - now);
        }
        next += tick;
    }
    let report = engine.shutdown();

    let traces = recorder.snapshot();
    let trajectory: Vec<(f64, f64)> = traces
        .iter()
        .filter(|t| t.mean_delay_ms.is_finite())
        .map(|t| (t.time_s, t.mean_delay_ms))
        .collect();
    ShardRun {
        shards,
        // Steady state: the second half of the run.
        steady_delay_ms: steady_delay_ms(&traces, RUN.as_secs_f64() / 2.0),
        loss_ratio: report.loss_ratio(),
        trajectory,
        offered: report.offered,
        completed: report.completed,
        balanced: report.counters_balance(),
    }
}

/// Regenerates the sharded-convergence scenario: 1 shard vs 4 shards,
/// same controller, same target. The CLI `--seed` arrives here and
/// seeds each engine's entry shedder.
pub fn run(seed: u64) -> FigureResult {
    let runs: Vec<ShardRun> = [1usize, 4].iter().map(|&s| run_once(s, seed)).collect();
    let series = runs
        .iter()
        .map(|r| {
            Series::new(
                format!("{} shard{}", r.shards, if r.shards == 1 { "" } else { "s" }),
                r.trajectory.clone(),
            )
        })
        .collect();
    let mut summary = vec![("target_delay_ms".to_string(), TARGET_MS)];
    let mut notes = Vec::new();
    for r in &runs {
        summary.push((format!("steady_delay_ms_{}shard", r.shards), r.steady_delay_ms));
        summary.push((format!("loss_ratio_{}shard", r.shards), r.loss_ratio));
        summary.push((
            format!("counters_balanced_{}shard", r.shards),
            if r.balanced { 1.0 } else { 0.0 },
        ));
        notes.push(format!(
            "{} shards: steady-state delay {:.0} ms vs target {TARGET_MS:.0} ms \
             ({:.0}% off), loss {:.2}, {}/{} completed",
            r.shards,
            r.steady_delay_ms,
            (r.steady_delay_ms / TARGET_MS - 1.0) * 100.0,
            r.loss_ratio,
            r.completed,
            r.offered,
        ));
    }
    if runs.iter().all(|r| r.steady_delay_ms.is_finite()) {
        let gap = (runs[0].steady_delay_ms - runs[1].steady_delay_ms).abs();
        summary.push(("shard_convergence_gap_ms".to_string(), gap));
        notes.push(format!(
            "one global controller suffices: 1-shard and 4-shard steady states \
             differ by {gap:.0} ms (paper §4.2 aggregate-plant argument)"
        ));
    }
    FigureResult {
        id: "sharded".into(),
        title: "Sharded data plane: one controller, same delay target".into(),
        x_label: "time (s)".into(),
        y_label: "mean delay (ms)".into(),
        series,
        summary,
        notes,
    }
}
