//! `reproduce net` — the controller behind a real network front door.
//!
//! Everything the paper proves about the control loop is derived for an
//! in-process plant; this scenario closes the last gap to a deployable
//! system by putting a real TCP hop between the workload and the
//! engine. A seeded client fleet drives the wire protocol at 3× the
//! engine's service capacity over loopback, and the run must show:
//!
//! 1. **Convergence** — the unchanged pole-placement CTRL strategy
//!    converges the measured mean tuple delay to the target even though
//!    arrivals now pass through sockets, frames, and per-connection
//!    buffers (the shed decision still happens before tuple
//!    materialization, so overload never turns into decode work).
//! 2. **Conservation across the boundary** — the fleet's reply-derived
//!    ledger, the listener's counters, and the engine's ground truth
//!    agree exactly: `sent == accepted + shed + rejected + lost`.
//! 3. **Fairness** — entry shedding is per-arrival Bernoulli, so the
//!    accepted fraction must be statistically identical across
//!    connections (Jain index ≈ 1).
//! 4. **Connection capacity** — a separate idle fleet holds thousands
//!    of concurrent connections (sized to the process fd budget; the
//!    cross-process 10k+ demonstration lives in the CI `net-smoke`
//!    lane and README), and two active connections served beside it
//!    cost the listener at most 3× the CPU per frame they cost alone —
//!    the one hard gate of the scenario (`reproduce net` exits 1).
//!
//! Wall-clock and therefore not byte-deterministic; excluded from
//! `reproduce all` like `sharded` and `monitor`.

use crate::{FigureResult, Series};
use std::sync::Arc;
use std::time::Duration;
use streamshed_control::loop_::LoopConfig;
use streamshed_control::strategy::CtrlStrategy;
use streamshed_engine::obs::ObsOptions;
use streamshed_engine::shard::{Dispatch, ShardConfig, ShardedEngine};
use streamshed_engine::worker::CostModel;
use streamshed_net::loadgen::{self, Arrivals, LoadgenConfig, Mode};
use streamshed_net::server::{NetConfig, NetObs, NetServer};
use streamshed_net::sys;

/// Nominal per-tuple service cost (≈ 500 t/s capacity at 1 shard).
const COST: Duration = Duration::from_millis(2);
/// Control period of the controller.
const PERIOD: Duration = Duration::from_millis(50);
/// Delay target the controller must converge to, ms.
pub const TARGET_MS: f64 = 250.0;
/// Wall-clock length of the overload phase.
const RUN: Duration = Duration::from_secs(6);
/// Overload factor vs the engine's ~500 t/s capacity.
const OVERLOAD: f64 = 3.0;
/// Client connections in the overload fleet.
const FLEET: usize = 8;
/// Loopback budget for the latency-truth cross-check, ms: the client's
/// reply RTT must exceed the server's frame turnaround (the wire, the
/// client's batch pacing, and both poll loops sit between them) by at
/// most this much at p99. Generous because the open-loop fleet batches
/// 16 frames per flush and both ends run 5 ms-scale poll ticks.
pub const LOOPBACK_BUDGET_MS: f64 = 50.0;

/// Outcome of the 3× overload phase.
#[derive(Debug, Clone)]
pub struct NetRun {
    /// Steady-state mean delay (completed-weighted, second half), ms.
    pub steady_delay_ms: f64,
    /// Mean delay trajectory `(s, ms)`.
    pub trajectory: Vec<(f64, f64)>,
    /// Tuples the fleet put on the wire.
    pub sent: u64,
    /// Tuples the engine dispatched into shard rings.
    pub accepted: u64,
    /// Tuples dropped by the entry shedder (reported per frame).
    pub shed: u64,
    /// Fleet / listener / engine ledgers all balance and agree.
    pub conserved: bool,
    /// Jain fairness index over per-connection accepted ratios.
    pub fairness_jain: f64,
    /// Coefficient of variation of per-connection shed ratios.
    pub shed_ratio_cv: f64,
    /// Server-side p99 frame turnaround (read → reply enqueued), ms.
    pub server_turnaround_p99_ms: f64,
    /// Client-side p99 reply RTT from the fleet's histograms, ms.
    pub client_rtt_p99_ms: f64,
    /// Sampled frames behind the server-side histogram.
    pub server_turnaround_samples: u64,
    /// `client p99 − server p99` within `[0, LOOPBACK_BUDGET_MS]`.
    pub rtt_cross_check: bool,
}

/// Runs the CTRL strategy behind a loopback `NetServer` under a 3×
/// overload fleet. `seed` drives both the entry shedder and the fleet's
/// arrival schedules.
pub fn run_overload(seed: u64) -> NetRun {
    let cfg = ShardConfig {
        shards: 1,
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
    let loop_cfg = LoopConfig::paper_default()
        .with_target_delay_ms(TARGET_MS)
        .with_period_ms(PERIOD.as_millis() as f64)
        .with_headroom(0.97)
        .with_prior_cost_us(COST.as_micros() as f64);
    let strategy = CtrlStrategy::from_config(&loop_cfg);
    // Observed spawn so the latency truth plane is live: the listener
    // threads get span slots and the run can cross-check server-side
    // frame turnaround against the fleet's reply RTTs.
    let options = ObsOptions::for_target(Duration::from_millis(TARGET_MS as u64));
    let engine = Arc::new(
        ShardedEngine::spawn_observed(cfg, strategy, &options).expect("observability plane starts"),
    );
    let plane = engine.obs().expect("plane attached").plane.clone();
    let recorder = plane.recorder().clone();
    let net_obs = NetObs { metrics: engine.metrics_fn(), plane: Some(plane.clone()) };
    let server = NetServer::start(
        NetConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            ..NetConfig::default()
        },
        engine.clone(),
        Some(net_obs),
    )
    .expect("loopback listener binds");
    let stats = server.stats();

    // ~500 t/s capacity × OVERLOAD, split across the fleet; keyed
    // frames so the shed-before-decode path is the one exercised.
    let capacity = 1e6 / COST.as_micros() as f64;
    let report = loadgen::run(&LoadgenConfig {
        addr: server.addr(),
        connections: FLEET,
        rate: capacity * OVERLOAD,
        batch: 16,
        secs: RUN.as_secs_f64(),
        seed,
        mode: Mode::Open,
        arrivals: Arrivals::Poisson,
        keyed: true,
        ..LoadgenConfig::default()
    })
    .expect("fleet runs");

    // Latency truth cross-check: the listener threads' sampled frame
    // turnaround (read → reply enqueued, the `net*` span slots) against
    // the fleet's own reply RTTs. The client side must sit above the
    // server side (the wire and both poll loops are in between) but by
    // no more than the loopback budget.
    let span_snap = plane.spans().snapshot();
    let mut turnaround = streamshed_engine::histo::Histo::new();
    for lp in span_snap.labels.iter().filter(|lp| lp.label.starts_with("net")) {
        turnaround.merge(&lp.sojourn);
    }
    let server_turnaround_p99_ms = turnaround.quantile(0.99) as f64 / 1e6;
    let client_rtt_p99_ms = report.rtt_p99_ms;
    let rtt_gap_ms = client_rtt_p99_ms - server_turnaround_p99_ms;
    let rtt_cross_check =
        turnaround.count() > 0 && (0.0..=LOOPBACK_BUDGET_MS).contains(&rtt_gap_ms);

    server.shutdown();
    let engine_report = Arc::try_unwrap(engine)
        .unwrap_or_else(|_| panic!("engine still referenced"))
        .shutdown();

    // Cross-boundary conservation: all three ledgers, bucket for bucket.
    let l = |v: &std::sync::atomic::AtomicU64| v.load(std::sync::atomic::Ordering::Relaxed);
    let conserved = report.conserved()
        && stats.tuples_balance()
        && engine_report.counters_balance()
        && report.accepted == l(&stats.tuples_accepted)
        && report.shed == l(&stats.tuples_shed)
        && report.sent - report.lost == engine_report.offered
        && report.shed == engine_report.dropped_entry;

    let traces = recorder.snapshot();
    let trajectory: Vec<(f64, f64)> = traces
        .iter()
        .filter(|t| t.mean_delay_ms.is_finite())
        .map(|t| (t.time_s, t.mean_delay_ms))
        .collect();
    let half = RUN.as_secs_f64() / 2.0;
    let (mut sum, mut n) = (0.0f64, 0u64);
    for t in &traces {
        if t.time_s >= half && t.completed > 0 && t.mean_delay_ms.is_finite() {
            sum += t.mean_delay_ms * t.completed as f64;
            n += t.completed;
        }
    }
    NetRun {
        steady_delay_ms: if n > 0 { sum / n as f64 } else { f64::NAN },
        trajectory,
        sent: report.sent,
        accepted: report.accepted,
        shed: report.shed,
        conserved,
        fairness_jain: report.fairness_jain,
        shed_ratio_cv: report.shed_ratio_cv,
        server_turnaround_p99_ms,
        client_rtt_p99_ms,
        server_turnaround_samples: turnaround.count(),
        rtt_cross_check,
    }
}

/// On-CPU time so far, ns, of this process's live listener threads
/// (`streamshed-net-N`; the kernel truncates names to 15 bytes). Read
/// from `/proc/self/task/*/schedstat` rather than `stat`: two seconds of
/// a listener that is mostly asleep is a handful of `stat`'s 10 ms
/// ticks. 0 where `/proc` has no such file.
fn listener_cpu_ns() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter(|t| {
            std::fs::read_to_string(t.path().join("comm"))
                .is_ok_and(|c| c.starts_with("streamshed-net"))
        })
        .filter_map(|t| {
            let stat = std::fs::read_to_string(t.path().join("schedstat")).ok()?;
            stat.split_whitespace().next()?.parse::<u64>().ok()
        })
        .sum()
}

/// Listener cost of the active pair may grow at most this much when an
/// idle fleet is held beside it (a `poll(2)` loop over 2 000: 29×).
const IDLE_FLEET_MAX_RATIO: f64 = 3.0;

/// Outcome of the connection-hold phase.
struct HoldRun {
    /// Idle connections concurrently established.
    held: usize,
    /// ... out of this many asked for (fd-budget-clamped).
    held_target: usize,
    /// Listener CPU per frame of two active connections, µs: with no
    /// other connection open, and beside the held idle fleet.
    us_per_frame: [f64; 2],
}

/// Holds an idle fleet of `target` connections (clamped to the process
/// fd budget) against a fresh listener, and drives two active keyed
/// connections for 2 s first without and then beside it: the listener's
/// work per wake must follow the sockets that are ready, not the
/// sockets that are open.
fn run_hold(seed: u64, target: usize) -> HoldRun {
    // Client and server sockets share this process's fd table: 2 fds
    // per connection plus slack for the engine and listener.
    let budget = (sys::nofile_limit().unwrap_or(1024) as usize).saturating_sub(256) / 2;
    let held_target = target.min(budget);
    let mut cfg = ShardConfig::demo(1);
    cfg.cost = Duration::ZERO;
    cfg.cost_model = CostModel::Spin;
    let engine = Arc::new(ShardedEngine::spawn(cfg, streamshed_engine::hook::NoShedding));
    let server = NetServer::start(
        NetConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            max_conns: held_target + 16,
            idle_timeout: Duration::from_secs(60),
            ..NetConfig::default()
        },
        engine.clone(),
        None,
    )
    .expect("hold listener binds");
    let stats = server.stats();
    let frames = || stats.frames_received.load(std::sync::atomic::Ordering::Relaxed);
    let drive_active = || {
        let (cpu0, frames0) = (listener_cpu_ns(), frames());
        loadgen::run(&LoadgenConfig {
            addr: server.addr(),
            connections: 2,
            rate: 2e6,
            batch: 256,
            secs: 2.0,
            seed,
            keyed: true,
            ..LoadgenConfig::default()
        })
        .expect("active pair runs");
        (listener_cpu_ns() - cpu0) as f64 / 1e3 / (frames() - frames0) as f64
    };
    let alone = drive_active();
    let (beside, report) = std::thread::scope(|s| {
        let hold = s.spawn(|| {
            loadgen::run(&LoadgenConfig {
                addr: server.addr(),
                connections: held_target,
                rate: 0.0, // hold only: connect, stay silent, disconnect at the end
                secs: 5.0,
                seed,
                ..LoadgenConfig::default()
            })
            .expect("hold fleet runs")
        });
        let open = || stats.connections_open.load(std::sync::atomic::Ordering::Relaxed) as usize;
        while open() < held_target && !hold.is_finished() {
            std::thread::sleep(Duration::from_millis(10));
        }
        (drive_active(), hold.join().expect("hold fleet thread"))
    });
    server.shutdown();
    drop(engine);
    HoldRun {
        held: report.connections_established,
        held_target,
        us_per_frame: [alone, beside],
    }
}

/// Regenerates the network-plane scenario. The CLI `--seed` seeds the
/// entry shedder and every per-connection arrival schedule.
pub fn run(seed: u64) -> FigureResult {
    let overload = run_overload(seed);
    let HoldRun { held, held_target, us_per_frame: [alone_us, beside_us] } = run_hold(seed, 2000);
    let fleet_ratio = beside_us / alone_us;
    // NaN (no `/proc`, no frames) is unmeasured, and that is not a pass.
    let fleet_gate = fleet_ratio <= IDLE_FLEET_MAX_RATIO;

    let series = vec![Series::new(
        format!("{FLEET}-conn fleet @ {OVERLOAD}x overload"),
        overload.trajectory.clone(),
    )];
    let summary = vec![
        ("target_delay_ms".to_string(), TARGET_MS),
        ("steady_delay_ms".to_string(), overload.steady_delay_ms),
        ("overload_factor".to_string(), OVERLOAD),
        ("tuples_sent".to_string(), overload.sent as f64),
        ("tuples_accepted".to_string(), overload.accepted as f64),
        ("tuples_shed".to_string(), overload.shed as f64),
        (
            "conservation_all_ledgers".to_string(),
            if overload.conserved { 1.0 } else { 0.0 },
        ),
        ("fairness_jain".to_string(), overload.fairness_jain),
        ("shed_ratio_cv".to_string(), overload.shed_ratio_cv),
        ("connections_held".to_string(), held as f64),
        ("connections_held_target".to_string(), held_target as f64),
        ("listener_us_per_frame_alone".to_string(), alone_us),
        ("listener_us_per_frame_beside_idle_fleet".to_string(), beside_us),
        ("idle_fleet_max_ratio".to_string(), IDLE_FLEET_MAX_RATIO),
        (
            "idle_fleet_gate_ok".to_string(),
            if fleet_gate { 1.0 } else { 0.0 },
        ),
        (
            "server_turnaround_p99_ms".to_string(),
            overload.server_turnaround_p99_ms,
        ),
        ("client_rtt_p99_ms".to_string(), overload.client_rtt_p99_ms),
        (
            "rtt_cross_check_budget_ms".to_string(),
            LOOPBACK_BUDGET_MS,
        ),
        (
            "rtt_cross_check_ok".to_string(),
            if overload.rtt_cross_check { 1.0 } else { 0.0 },
        ),
    ];
    let notes = vec![
        format!(
            "steady-state delay {:.0} ms vs target {TARGET_MS:.0} ms ({:+.0}% off) \
             under {OVERLOAD}x overload arriving over TCP loopback",
            overload.steady_delay_ms,
            (overload.steady_delay_ms / TARGET_MS - 1.0) * 100.0,
        ),
        format!(
            "conservation across the network boundary: fleet, listener, and engine \
             ledgers {} ({} sent = {} accepted + {} shed + rejected + lost)",
            if overload.conserved { "agree exactly" } else { "DISAGREE" },
            overload.sent,
            overload.accepted,
            overload.shed,
        ),
        format!(
            "shedding fairness across {FLEET} connections: Jain index {:.4} \
             (1.0 = perfectly even), per-connection shed-ratio CV {:.3}",
            overload.fairness_jain, overload.shed_ratio_cv,
        ),
        format!(
            "idle fleet held {held}/{held_target} concurrent connections in-process \
             (fd-budget-clamped; the 10k+ cross-process demonstration is the CI \
             net-smoke lane / README quickstart)"
        ),
        format!(
            "O(ready) listener: two active keyed connections cost {alone_us:.2} us/frame of \
             listener CPU alone and {beside_us:.2} us/frame beside the {held} idle ones \
             ({fleet_ratio:.1}x) — {} the {IDLE_FLEET_MAX_RATIO:.0}x gate",
            if fleet_gate { "within" } else { "OUTSIDE" },
        ),
        format!(
            "latency truth cross-check: server p99 frame turnaround {:.2} ms \
             ({} sampled frames) vs client p99 reply RTT {:.2} ms — gap {:.2} ms \
             {} the {LOOPBACK_BUDGET_MS:.0} ms loopback budget",
            overload.server_turnaround_p99_ms,
            overload.server_turnaround_samples,
            overload.client_rtt_p99_ms,
            overload.client_rtt_p99_ms - overload.server_turnaround_p99_ms,
            if overload.rtt_cross_check { "within" } else { "OUTSIDE" },
        ),
    ];
    FigureResult {
        id: "net".into(),
        title: "Network front door: control, conservation, and fairness over TCP".into(),
        x_label: "time (s)".into(),
        y_label: "mean delay (ms)".into(),
        series,
        summary,
        notes,
    }
}
