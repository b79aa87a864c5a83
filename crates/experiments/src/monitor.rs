//! `reproduce monitor` — the observability plane watching itself.
//!
//! Three wall-clock phases on the sharded engine, each spawned through
//! [`ShardedEngine::spawn_observed`] so the full plane is live: the
//! controller's per-period health classifier, the embedded HTTP endpoints, and
//! the anomaly flight recorder.
//!
//! 1. **nominal** — the paper's CTRL strategy under 2× overload. The
//!    classifier must stay out of the anomalous states and no flight
//!    bundle may be written.
//! 2. **oscillation** — a bang-bang hook slams `α` between 0.9 and 0.05
//!    every period. The α-reversal detector must flag `Oscillating`
//!    within 5 control periods and the flight recorder must capture a
//!    bundle.
//! 3. **saturation** — a dead actuator (`α = 0`) under 4× overload. The
//!    delay climbs through the violation band while `α` stays pinned;
//!    the classifier must flag `Saturated` within 5 periods of the
//!    first violation (design: 3), again with a flight bundle.
//!
//! 4. **slow operator** — the latency truth plane's acceptance check:
//!    two below-capacity A/B arms, one at the nominal per-tuple cost
//!    and one with the cost tripled (the injected fault). `/profile` is
//!    polled [`DETECT_BUDGET`] control periods into each arm; the added
//!    sojourn between the arms must be attributed ≥ 80% to the
//!    `execute` stage by the sampled span decomposition.
//!
//! During every phase the experiment polls the engine's *own* HTTP
//! endpoints (`/metrics`, `/health`, `/ready`, `/trace`, `/profile`)
//! mid-run and records their status codes — the acceptance criterion is
//! that the plane answers live while the data plane is under fault, not
//! after.
//!
//! Wall-clock, so excluded from `reproduce all` (like `sharded`); run
//! explicitly with `reproduce monitor`.

use crate::{FigureResult, Series};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use streamshed_control::loop_::LoopConfig;
use streamshed_control::strategy::CtrlStrategy;
use streamshed_engine::diagnostics::WALL_CLOCK_BAND_FRAC;
use streamshed_engine::hook::{Decision, NoShedding, PeriodSnapshot};
use streamshed_engine::obs::{http_get, ObsOptions};
use streamshed_engine::shard::{Dispatch, ShardConfig, ShardedEngine};
use streamshed_engine::telemetry::{ControlTrace, InstrumentedHook};
use streamshed_engine::worker::CostModel;

/// Nominal per-tuple service cost.
const COST: Duration = Duration::from_millis(2);
/// Control period of the global controller.
const PERIOD: Duration = Duration::from_millis(50);
/// Delay target, ms.
const TARGET_MS: f64 = 250.0;
/// Shards in every phase.
const SHARDS: usize = 2;
/// Per-shard service capacity at `COST`, tuples/s.
const CAPACITY_PER_SHARD: f64 = 500.0;
/// Anomaly-detection budget, control periods (the acceptance bound).
pub const DETECT_BUDGET: u64 = 5;

/// Everything one phase produced.
#[derive(Debug, Clone)]
pub struct PhaseOutcome {
    /// Phase key (`nominal` / `oscillation` / `saturation`).
    pub name: &'static str,
    /// Final classifier state name.
    pub final_state: &'static str,
    /// Whether the final state is one of the anomalous ones.
    pub final_anomalous: bool,
    /// Fraction of periods classified `Healthy`.
    pub healthy_fraction: f64,
    /// Entries into anomalous states.
    pub anomalies: u64,
    /// Period index of the first anomaly entry, if any.
    pub first_anomaly_k: Option<u64>,
    /// Periods from the fault becoming observable to the classifier
    /// flagging it (phase-specific definition; `None` when no anomaly).
    pub detect_latency_periods: Option<u64>,
    /// Flight bundles written during the phase.
    pub bundles_written: u64,
    /// Status codes returned by the live endpoints mid-run.
    pub metrics_status: u16,
    /// `/health` status mid-run.
    pub health_status: u16,
    /// `/ready` status mid-run.
    pub ready_status: u16,
    /// `/trace?last=32` status mid-run.
    pub trace_status: u16,
    /// `/profile` status mid-run.
    pub profile_status: u16,
    /// Whether `/metrics` carried the diagnostics families.
    pub metrics_has_diag: bool,
    /// Whether `/profile` carried the per-stage percentile tables.
    pub profile_has_stages: bool,
    /// Whether `/trace` returned a JSON array of trace objects.
    pub trace_is_json: bool,
    /// Control periods the classifier observed.
    pub periods: u64,
    /// Mean-delay trajectory `(s, ms)`.
    pub trajectory: Vec<(f64, f64)>,
}

/// The classifier's delay signal for a trace (its ŷ-then-measured
/// fallback), in seconds.
fn delay_signal_s(t: &ControlTrace) -> f64 {
    if t.y_hat_s.is_finite() {
        t.y_hat_s
    } else if t.mean_delay_ms.is_finite() {
        t.mean_delay_ms / 1e3
    } else {
        f64::NAN
    }
}

/// Runs one phase: spawns the observed sharded engine with `hook`,
/// paces `rate` tuples/s at it for `run`, polls the live endpoints at
/// half-time, and collects the diagnostics verdict on shutdown.
fn run_phase<H>(
    name: &'static str,
    hook: H,
    rate: f64,
    run: Duration,
    flight_dir: &PathBuf,
    seed: u64,
) -> PhaseOutcome
where
    H: InstrumentedHook + Send + 'static,
{
    let _ = std::fs::remove_dir_all(flight_dir);
    let cfg = ShardConfig {
        shards: SHARDS,
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
    let options = ObsOptions::for_target(Duration::from_millis(TARGET_MS as u64))
        .with_flight_dir(flight_dir.clone());
    let engine =
        ShardedEngine::spawn_observed(cfg, hook, &options).expect("observability plane starts");
    let addr = engine.obs().and_then(|o| o.addr()).expect("HTTP endpoint is live");

    // Paced feeder, polling the engine's own endpoints at half-time.
    let tick = Duration::from_millis(5);
    let per_tick = (rate * tick.as_secs_f64()).round() as u64;
    let poll_at = run / 2;
    let mut polls: Option<[(u16, String); 5]> = None;
    let start = Instant::now();
    let mut next = start + tick;
    while start.elapsed() < run {
        // Batched front door: one shed pass + one timestamp per tick.
        engine.offer_batch(per_tick as usize);
        if polls.is_none() && start.elapsed() >= poll_at {
            let get = |path: &str| {
                http_get(addr, path, Duration::from_secs(2)).unwrap_or((0, String::new()))
            };
            polls = Some([
                get("/metrics"),
                get("/health"),
                get("/ready"),
                get("/trace?last=32"),
                get("/profile"),
            ]);
        }
        let now = Instant::now();
        if next > now {
            std::thread::sleep(next - now);
        }
        next += tick;
    }
    let [metrics, health, ready, trace, profile] =
        polls.unwrap_or_else(|| std::array::from_fn(|_| (0, String::new())));

    let plane = engine.obs().expect("plane attached").plane.clone();
    let snap = plane.health();
    let bundles = plane.flight_bundles_written();
    let traces = plane.recorder().snapshot();
    engine.shutdown();

    // Detection latency. The oscillation fault is active from the first
    // period, so its latency is simply the k at which the classifier
    // flagged it. The saturation fault only becomes observable once the
    // backlog pushes the delay through the violation band, so its
    // latency is measured from the first violating period.
    let band_s = (TARGET_MS / 1e3) * (1.0 + WALL_CLOCK_BAND_FRAC);
    let first_violation_k = traces
        .iter()
        .find(|t| delay_signal_s(t) > band_s)
        .map(|t| t.k);
    let detect_latency_periods = snap.first_anomaly_k.map(|k| match name {
        "saturation" => k.saturating_sub(first_violation_k.unwrap_or(0)),
        _ => k,
    });

    let trajectory: Vec<(f64, f64)> = traces
        .iter()
        .filter(|t| t.mean_delay_ms.is_finite())
        .map(|t| (t.time_s, t.mean_delay_ms))
        .collect();

    PhaseOutcome {
        name,
        final_state: snap.state.as_str(),
        final_anomalous: snap.state.is_anomalous(),
        healthy_fraction: snap.healthy_fraction(),
        anomalies: snap.anomalies,
        first_anomaly_k: snap.first_anomaly_k,
        detect_latency_periods,
        bundles_written: bundles,
        metrics_status: metrics.0,
        health_status: health.0,
        ready_status: ready.0,
        trace_status: trace.0,
        profile_status: profile.0,
        metrics_has_diag: metrics.1.contains("streamshed_diag_state"),
        profile_has_stages: profile.1.contains("\"stages\"") && profile.1.contains("\"execute\""),
        trace_is_json: trace.1.trim_start().starts_with('[') && trace.1.contains("\"alpha\""),
        periods: snap.periods,
        trajectory,
    }
}

/// Scratch directory for a phase's flight bundles.
fn flight_dir(phase: &str) -> PathBuf {
    std::env::temp_dir().join(format!("streamshed_monitor_{phase}"))
}

/// Phase 1: the real controller, behaving.
pub fn run_nominal(run: Duration, seed: u64) -> PhaseOutcome {
    let loop_cfg = LoopConfig::paper_default()
        .with_target_delay_ms(TARGET_MS)
        .with_period_ms(PERIOD.as_millis() as f64)
        .with_headroom(0.97)
        .with_prior_cost_us(COST.as_micros() as f64 / SHARDS as f64);
    let strategy = CtrlStrategy::from_config(&loop_cfg);
    let rate = 2.0 * CAPACITY_PER_SHARD * SHARDS as f64;
    run_phase("nominal", strategy, rate, run, &flight_dir("nominal"), seed)
}

/// Phase 2: bang-bang actuation — the hook slams `α` between 0.9 and
/// 0.05 every period (a classic sign of a mistuned/unstable loop).
pub fn run_oscillation(run: Duration, seed: u64) -> PhaseOutcome {
    let mut high = false;
    let hook = move |_s: &PeriodSnapshot| {
        high = !high;
        if high {
            Decision::entry(0.9)
        } else {
            Decision::entry(0.05)
        }
    };
    let rate = 2.0 * CAPACITY_PER_SHARD * SHARDS as f64;
    run_phase("oscillation", hook, rate, run, &flight_dir("oscillation"), seed)
}

/// Phase 3: dead actuator — no shedding at all under 4× overload, so
/// the backlog (and the delay) grows while `α` stays pinned at 0.
pub fn run_saturation(run: Duration, seed: u64) -> PhaseOutcome {
    let rate = 4.0 * CAPACITY_PER_SHARD * SHARDS as f64;
    run_phase("saturation", NoShedding, rate, run, &flight_dir("saturation"), seed)
}

/// Outcome of the slow-operator attribution phase (phase 4).
#[derive(Debug, Clone)]
pub struct SlowOpOutcome {
    /// `/profile` status polled mid-run on the faulted arm.
    pub profile_status: u16,
    /// Whether the faulted arm's `/profile` body carried the stage tables.
    pub profile_has_stages: bool,
    /// Sampled sojourns closed in the baseline arm by the poll.
    pub sampled_base: u64,
    /// Sampled sojourns closed in the faulted arm by the poll.
    pub sampled_slow: u64,
    /// Mean end-to-end sojourn added by the fault, ms.
    pub added_sojourn_ms: f64,
    /// Mean `execute`-stage time added by the fault, ms.
    pub added_execute_ms: f64,
    /// `added_execute / added_sojourn` — the stage attribution.
    pub attribution_frac: f64,
    /// Whether ≥ 80% of the added sojourn landed on `execute` within
    /// [`DETECT_BUDGET`] periods.
    pub attributed: bool,
}

/// One arm of the slow-operator experiment: spawns the observed engine
/// at `cost`, feeds well below capacity, and returns the `/profile`
/// poll taken [`DETECT_BUDGET`] control periods in together with the
/// span snapshot captured at that same instant.
fn run_slowop_arm(
    cost: Duration,
    seed: u64,
) -> (u16, String, streamshed_engine::spans::ProfileSnapshot) {
    let cfg = ShardConfig {
        shards: SHARDS,
        cost,
        period: PERIOD,
        target_delay: Duration::from_millis(TARGET_MS as u64),
        headroom: 0.97,
        queue_capacity: 8192,
        panic_on_tuple: None,
        cost_model: CostModel::Sleep,
        dispatch: Dispatch::RoundRobin,
        seed,
        pin_cores: false,
        // Dense sampling: the attribution check needs tens of closed
        // sojourns inside the 5-period budget at a sub-capacity rate.
        sample_every: 2,
    };
    let options = ObsOptions::for_target(Duration::from_millis(TARGET_MS as u64));
    let engine =
        ShardedEngine::spawn_observed(cfg, NoShedding, &options).expect("plane starts");
    let addr = engine.obs().and_then(|o| o.addr()).expect("HTTP endpoint is live");
    let plane = engine.obs().expect("plane attached").plane.clone();

    // Below capacity at either cost (2 shards × 166/s at the tripled
    // cost), so queueing stays small and the added sojourn is the
    // operator's own service time.
    let rate = 200.0;
    let tick = Duration::from_millis(5);
    let per_tick = (rate * tick.as_secs_f64()).round() as usize;
    let poll_at = PERIOD * DETECT_BUDGET as u32;
    let run = poll_at + PERIOD;
    let start = Instant::now();
    let mut next = start + tick;
    let mut poll = None;
    while start.elapsed() < run {
        engine.offer_batch(per_tick);
        if poll.is_none() && start.elapsed() >= poll_at {
            let (status, body) =
                http_get(addr, "/profile", Duration::from_secs(2)).unwrap_or((0, String::new()));
            poll = Some((status, body, plane.spans().snapshot()));
        }
        let now = Instant::now();
        if next > now {
            std::thread::sleep(next - now);
        }
        next += tick;
    }
    engine.shutdown();
    poll.unwrap_or_else(|| (0, String::new(), plane.spans().snapshot()))
}

/// Phase 4: the latency truth plane localising an injected slow
/// operator. Two A/B arms below capacity — nominal cost vs tripled
/// cost — compared via the span snapshots taken at the
/// [`DETECT_BUDGET`]-period poll.
pub fn run_slowop(seed: u64) -> SlowOpOutcome {
    use streamshed_engine::spans::Stage;
    let (_, _, base) = run_slowop_arm(COST, seed);
    let (status, body, slow) = run_slowop_arm(COST * 3, seed);
    let exec_ms =
        |p: &streamshed_engine::spans::ProfileSnapshot| p.stages[Stage::Execute.index()].mean() / 1e6;
    let sojourn_ms = |p: &streamshed_engine::spans::ProfileSnapshot| p.sojourn.mean() / 1e6;
    let added_sojourn_ms = sojourn_ms(&slow) - sojourn_ms(&base);
    let added_execute_ms = exec_ms(&slow) - exec_ms(&base);
    let attribution_frac = if added_sojourn_ms > 0.0 {
        added_execute_ms / added_sojourn_ms
    } else {
        f64::NAN
    };
    SlowOpOutcome {
        profile_status: status,
        profile_has_stages: body.contains("\"stages\"") && body.contains("\"execute\""),
        sampled_base: base.sojourn.count(),
        sampled_slow: slow.sojourn.count(),
        added_sojourn_ms,
        added_execute_ms,
        attribution_frac,
        attributed: attribution_frac.is_finite() && attribution_frac >= 0.8,
    }
}

/// Summarises one phase into figure summary entries.
fn summarize(out: &mut Vec<(String, f64)>, notes: &mut Vec<String>, p: &PhaseOutcome) {
    out.push((format!("{}_healthy_fraction", p.name), p.healthy_fraction));
    out.push((format!("{}_anomalies", p.name), p.anomalies as f64));
    out.push((
        format!("{}_detect_latency_periods", p.name),
        p.detect_latency_periods.map(|v| v as f64).unwrap_or(f64::NAN),
    ));
    out.push((format!("{}_flight_bundles", p.name), p.bundles_written as f64));
    out.push((format!("{}_metrics_status", p.name), f64::from(p.metrics_status)));
    out.push((format!("{}_health_status", p.name), f64::from(p.health_status)));
    out.push((format!("{}_ready_status", p.name), f64::from(p.ready_status)));
    out.push((format!("{}_trace_status", p.name), f64::from(p.trace_status)));
    out.push((format!("{}_profile_status", p.name), f64::from(p.profile_status)));
    notes.push(format!(
        "{}: final state {} after {} periods, {:.0}% healthy, {} anomalies{}, \
         {} flight bundle(s); live endpoints mid-run: /metrics {} (diag families: {}), \
         /health {}, /ready {}, /trace {} (json: {}), /profile {} (stage tables: {})",
        p.name,
        p.final_state,
        p.periods,
        p.healthy_fraction * 100.0,
        p.anomalies,
        match p.detect_latency_periods {
            Some(l) => format!(", flagged within {l} period(s)"),
            None => String::new(),
        },
        p.bundles_written,
        p.metrics_status,
        p.metrics_has_diag,
        p.health_status,
        p.ready_status,
        p.trace_status,
        p.trace_is_json,
        p.profile_status,
        p.profile_has_stages,
    ));
}

/// Runs all three phases and assembles the figure. The CLI `--seed`
/// arrives here and seeds each phase engine's entry shedder.
pub fn run(seed: u64) -> FigureResult {
    let phases = [
        run_nominal(Duration::from_secs(3), seed),
        run_oscillation(Duration::from_secs(2), seed),
        run_saturation(Duration::from_millis(2500), seed),
    ];
    let series = phases
        .iter()
        .map(|p| Series::new(p.name.to_string(), p.trajectory.clone()))
        .collect();
    let mut summary = vec![
        ("target_delay_ms".to_string(), TARGET_MS),
        ("violation_band_ms".to_string(), TARGET_MS * (1.0 + WALL_CLOCK_BAND_FRAC)),
        ("detect_budget_periods".to_string(), DETECT_BUDGET as f64),
    ];
    let mut notes = Vec::new();
    for p in &phases {
        summarize(&mut summary, &mut notes, p);
    }
    let detected = phases[1..]
        .iter()
        .all(|p| p.detect_latency_periods.is_some_and(|l| l <= DETECT_BUDGET));
    notes.push(if detected {
        format!(
            "both injected faults flagged within the {DETECT_BUDGET}-period budget, \
             with flight bundles for offline reproduction"
        )
    } else {
        "WARNING: an injected fault was not flagged within budget".to_string()
    });
    let slowop = run_slowop(seed);
    summary.push(("slowop_profile_status".to_string(), f64::from(slowop.profile_status)));
    summary.push(("slowop_attribution_frac".to_string(), slowop.attribution_frac));
    summary.push(("slowop_added_sojourn_ms".to_string(), slowop.added_sojourn_ms));
    summary.push(("slowop_added_execute_ms".to_string(), slowop.added_execute_ms));
    summary.push(("slowop_sampled_base".to_string(), slowop.sampled_base as f64));
    summary.push(("slowop_sampled_slow".to_string(), slowop.sampled_slow as f64));
    notes.push(format!(
        "slow operator: /profile {} (stage tables: {}) at the {DETECT_BUDGET}-period poll; \
         +{:.2} ms sojourn of which +{:.2} ms execute ({:.0}% attribution, \
         {} / {} sampled sojourns){}",
        slowop.profile_status,
        slowop.profile_has_stages,
        slowop.added_sojourn_ms,
        slowop.added_execute_ms,
        slowop.attribution_frac * 100.0,
        slowop.sampled_base,
        slowop.sampled_slow,
        if slowop.attributed {
            " — >=80% of the added sojourn localised to the execute stage"
        } else {
            " — WARNING: attribution below the 80% acceptance bound"
        },
    ));
    FigureResult {
        id: "monitor".into(),
        title: "Observability plane: live self-monitoring under injected faults".into(),
        x_label: "time (s)".into(),
        y_label: "mean delay (ms)".into(),
        series,
        summary,
        notes,
    }
}
