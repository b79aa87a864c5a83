//! Acceptance tests for the *wall-clock* experiment surfaces: the live
//! observability plane (`exp::monitor`), the sharded convergence run
//! (`exp::sharded`), and the delay contract itself (a saturated shard
//! under CTRL must settle *on* its target, not near it).
//!
//! These phases run real threads against the wall clock, so the
//! classifier genuinely measures scheduler behaviour — which also makes
//! them sensitive to CPU starvation. They live in their own test binary
//! (rather than the lib's `#[cfg(test)]` module) so `cargo test` runs
//! them after the heavy virtual-time suites have finished instead of
//! concurrently with them: a nominal run that loses its cores to a
//! campaign sweep on the next thread can drift into a real — but
//! environmental — oscillation verdict.

use std::sync::{Mutex, MutexGuard};
use std::time::Duration;
use streamshed_experiments::monitor::{
    run_nominal, run_oscillation, run_saturation, PhaseOutcome, DETECT_BUDGET,
};
use streamshed_experiments::sharded::{run_once, TARGET_MS};

/// One wall-clock phase at a time: these tests measure real scheduler
/// behaviour, and running them on sibling threads starves each of
/// cores — the nominal phase would flag an oscillation that is purely
/// environmental.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Whether the host can honestly run a multi-threaded wall-clock
/// engine to a timing bound. Below this the worker threads time-slice
/// one core and the delay trajectory measures the host scheduler, not
/// the controller — the same reason the engine's 4-shard scaling gate
/// prints `unmeasured` on small hosts. Returns `false`
/// (and prints why) on such hosts so the test body is skipped.
fn host_can_time(test: &str, need: usize) -> bool {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < need {
        println!("{test}: skipped — {cores} core(s) < {need} required for wall-clock timing");
        return false;
    }
    true
}

fn assert_endpoints_live(p: &PhaseOutcome) {
    assert_eq!(p.metrics_status, 200, "{}: /metrics", p.name);
    assert!(p.metrics_has_diag, "{}: /metrics lacks diagnostics families", p.name);
    assert_eq!(p.ready_status, 200, "{}: /ready", p.name);
    assert_eq!(p.trace_status, 200, "{}: /trace", p.name);
    assert!(p.trace_is_json, "{}: /trace is not a JSON trace array", p.name);
}

/// Acceptance: the classifier stays out of the anomalous states on
/// the nominal sharded run, the endpoints answer live, and no
/// flight bundle is written.
#[test]
fn nominal_run_is_healthy_with_live_endpoints() {
    let _guard = serial();
    if !host_can_time("nominal_run_is_healthy_with_live_endpoints", 4) {
        return;
    }
    let p = run_nominal(Duration::from_secs(3), 7);
    assert_endpoints_live(&p);
    assert_eq!(p.health_status, 200, "nominal /health");
    assert_eq!(p.anomalies, 0, "nominal run flagged an anomaly: {p:?}");
    assert!(!p.final_anomalous, "nominal final state {}", p.final_state);
    // Startup periods classify as Settling while the loop converges;
    // the bulk of the run must be plain Healthy.
    assert!(p.healthy_fraction > 0.3, "healthy fraction {}", p.healthy_fraction);
    assert_eq!(p.bundles_written, 0, "nominal run wrote a flight bundle");
}

/// Acceptance: bang-bang actuation is flagged within 5 periods and
/// produces a flight bundle, with the endpoints live throughout.
#[test]
fn oscillation_is_flagged_within_budget_with_flight_bundle() {
    let _guard = serial();
    if !host_can_time("oscillation_is_flagged_within_budget_with_flight_bundle", 4) {
        return;
    }
    let p = run_oscillation(Duration::from_secs(2), 7);
    assert_endpoints_live(&p);
    let latency = p.detect_latency_periods.expect("oscillation never flagged");
    assert!(latency <= DETECT_BUDGET, "flagged after {latency} periods: {p:?}");
    assert!(p.bundles_written >= 1, "no flight bundle written: {p:?}");
    assert!(p.final_anomalous, "final state {} not anomalous", p.final_state);
}

/// Acceptance: a dead actuator under overload is flagged within 5
/// periods of the first band violation, with a flight bundle.
#[test]
fn saturation_is_flagged_within_budget_with_flight_bundle() {
    let _guard = serial();
    if !host_can_time("saturation_is_flagged_within_budget_with_flight_bundle", 4) {
        return;
    }
    let p = run_saturation(Duration::from_millis(2500), 7);
    assert_endpoints_live(&p);
    let latency = p.detect_latency_periods.expect("saturation never flagged");
    assert!(latency <= DETECT_BUDGET, "flagged after {latency} periods: {p:?}");
    assert!(p.bundles_written >= 1, "no flight bundle written: {p:?}");
    assert!(p.anomalies >= 1, "no anomaly recorded: {p:?}");
}

/// The sharded-plane acceptance bound: both shard counts settle within
/// the figure tolerance of the shared target. Wall-clock, so kept
/// generous (±40%) to stay robust on loaded CI hosts.
#[test]
fn one_and_four_shards_converge_to_the_same_target() {
    let _guard = serial();
    if !host_can_time("one_and_four_shards_converge_to_the_same_target", 4) {
        return;
    }
    for shards in [1usize, 4] {
        let r = run_once(shards, 7);
        assert!(r.balanced, "counters must balance: {r:?}");
        assert!(
            r.steady_delay_ms.is_finite(),
            "{shards} shards produced no steady-state sample"
        );
        let rel = (r.steady_delay_ms - TARGET_MS).abs() / TARGET_MS;
        assert!(
            rel < 0.4,
            "{shards} shards: steady delay {:.0} ms vs target {TARGET_MS} ms",
            r.steady_delay_ms
        );
        // 2× overload must shed roughly half (generous bounds).
        assert!(
            r.loss_ratio > 0.25 && r.loss_ratio < 0.75,
            "{shards} shards: loss {}",
            r.loss_ratio
        );
    }
}

/// The delay contract, gated: one pinned spinning shard at 3× overload
/// under CTRL settles its measured delay within 1.5 % of the 250 ms
/// target. That only holds if the engine's `c(k)` is the full per-tuple
/// cost of a saturated worker — busy time over tuples retired — because
/// the controller steers `ŷ = (q+1)·c/H`, and every per cent `c` reads
/// low is a per cent of delay above target. Release-only and `#[ignore]`d:
/// a debug worker's overhead and a loaded tier-1 run would both measure
/// the host, so CI runs it by name (`--release … -- --include-ignored`).
///
/// 4 s of 3× overload through `offer_batch` into one pinned shard
/// spinning 10 µs a tuple at `H = 0.97`, CTRL at 250 ms / 50 ms; the
/// statistic is the completed-weighted mean delay after the first second.
#[cfg(not(debug_assertions))]
#[test]
#[ignore = "wall-clock contract gate; run with --release -- --include-ignored"]
fn saturated_shard_settles_on_its_delay_target() {
    use std::time::Instant;
    use streamshed_control::loop_::LoopConfig;
    use streamshed_control::strategy::CtrlStrategy;
    use streamshed_engine::shard::{Dispatch, ShardConfig, ShardedEngine};
    use streamshed_engine::telemetry::SharedRecorder;
    use streamshed_engine::worker::CostModel;
    use streamshed_experiments::sharded::steady_delay_ms;

    const NAME: &str = "saturated_shard_settles_on_its_delay_target";
    const COST_US: u64 = 10;
    const HEADROOM: f64 = 0.97;
    const PERIOD_MS: u64 = 50;
    const RUN_S: f64 = 4.0;
    const SETTLE_S: f64 = 1.0;

    let _guard = serial();
    if !host_can_time(NAME, 2) {
        return;
    }
    let cfg = ShardConfig {
        shards: 1,
        cost: Duration::from_micros(COST_US),
        period: Duration::from_millis(PERIOD_MS),
        target_delay: Duration::from_millis(TARGET_MS as u64),
        headroom: HEADROOM,
        queue_capacity: 131_072,
        panic_on_tuple: None,
        cost_model: CostModel::Spin,
        dispatch: Dispatch::RoundRobin,
        seed: 7,
        pin_cores: true,
        sample_every: 0,
    };
    let loop_cfg = LoopConfig::paper_default()
        .with_target_delay_ms(TARGET_MS)
        .with_period_ms(PERIOD_MS as f64)
        .with_headroom(HEADROOM)
        .with_prior_cost_us(COST_US as f64);
    let recorder = SharedRecorder::with_capacity(256);
    let engine = ShardedEngine::spawn_recorded(
        cfg,
        CtrlStrategy::from_config(&loop_cfg),
        Some(recorder.clone()),
    );

    // Open-loop feeder on an absolute 1 ms grid at 3× the shard's
    // capacity of H/cost tuples a second; a late tick is caught up, as
    // a real source would.
    let per_tick = (3.0 * HEADROOM * 1e6 / COST_US as f64 / 1e3).round() as usize;
    let tick = Duration::from_millis(1);
    let start = Instant::now();
    let mut next = start;
    while start.elapsed().as_secs_f64() < RUN_S {
        std::thread::sleep(next.saturating_duration_since(Instant::now()));
        engine.offer_batch(per_tick);
        next += tick;
    }
    let report = engine.shutdown();
    assert!(report.counters_balance(), "{report:?}");

    let steady_ms = steady_delay_ms(&recorder.snapshot(), SETTLE_S);
    let off = (steady_ms - TARGET_MS) / TARGET_MS;
    println!(
        "{NAME}: {steady_ms:.2} ms ({:+.2} %), {} deadline misses",
        off * 100.0,
        report.deadline_misses
    );
    assert!(
        off.abs() <= 0.015,
        "steady delay {steady_ms:.2} ms vs target {TARGET_MS} ms: {report:?}"
    );
}
