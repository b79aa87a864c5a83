//! What the two TCP workloads share: engine + listener set-up as
//! `serve` ships it, the driver run with engine reads at slice
//! boundaries, the three-way ledger check, and the metrics derived from
//! all of it.

use crate::driver::{Driver, DriverReport, Ledger, Load};
use crate::stats::{self, SliceStat};
use crate::trace::{DoorStats, SpanSink, TracedDoor};
use crate::workloads::{
    engine_report_metrics, engine_slice_metrics, observe, slice_quantile_ms, track_err_ms,
    window_periods, Boundary,
};
use crate::{Outcome, Plan};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use streamshed_engine::shard::ShardedEngine;
use streamshed_net::server::{FrontDoor, NetConfig, NetObs, NetServer, NetStats};

/// A run whose driver wrote its p99 frame later than this is invalid.
pub const MAX_LAG_P99_US: f64 = 1_000.0;

/// A spawned engine and, when a timing wrapper sits round its control
/// hook, the Σ ns that wrapper has measured.
pub type SpawnedEngine = (ShardedEngine, Option<Arc<AtomicU64>>);

/// One TCP workload: how to make its load and its engine.
pub struct NetWorkload<'a> {
    /// Builds classes and schedule from the plan's seed.
    pub load: &'a dyn Fn(&Plan) -> Load,
    /// Spawns the engine (observed, no HTTP), wrapping its hook in spans
    /// when given a sink.
    pub engine: &'a dyn Fn(&Plan, Option<&SpanSink>) -> SpawnedEngine,
    /// Span class names for keyed and unkeyed door calls.
    pub door_classes: [&'static str; 2],
    /// Delay target the engine's controller tracks, ms (`None` under a
    /// fixed α).
    pub target_ms: Option<f64>,
}

struct Stack {
    load: Load,
    engine: Arc<ShardedEngine>,
    hook_ns: Option<Arc<AtomicU64>>,
    door: Option<Arc<DoorStats>>,
    server: NetServer,
    driver: Driver,
    spawned: Instant,
}

fn set_up(w: &NetWorkload, plan: &Plan, sink: Option<&SpanSink>) -> std::io::Result<Stack> {
    let load = (w.load)(plan);
    let spawned = Instant::now();
    let (engine, hook_ns) = (w.engine)(plan, sink);
    let engine = Arc::new(engine);
    let obs = NetObs {
        metrics: engine.metrics_fn(),
        plane: engine.obs().map(|o| o.plane.clone()),
    };
    let (door, door_stats): (Arc<dyn FrontDoor>, _) = match sink {
        Some(sink) => {
            let door = TracedDoor::new(Arc::clone(&engine), sink.clone(), w.door_classes);
            let stats = door.stats();
            (Arc::new(door), Some(stats))
        }
        None => (Arc::clone(&engine) as Arc<dyn FrontDoor>, None),
    };
    let server = NetServer::start(
        NetConfig {
            workers: 1,
            ..NetConfig::default()
        },
        door,
        Some(obs),
    )?;
    let driver = Driver::connect(server.addr(), &load)?;
    Ok(Stack {
        load,
        engine,
        hook_ns,
        door: door_stats,
        server,
        driver,
        spawned,
    })
}

fn net_ledger(stats: &NetStats) -> Ledger {
    let l = |v: &AtomicU64| v.load(Ordering::Relaxed);
    Ledger {
        offered: l(&stats.tuples_offered),
        accepted: l(&stats.tuples_accepted),
        shed: l(&stats.tuples_shed),
        rejected_capacity: l(&stats.tuples_rejected_capacity),
        rejected_closed: l(&stats.tuples_rejected_closed),
    }
}

/// Listener-side counters read at the window's two ends.
#[derive(Clone, Copy, Default)]
struct ListenerRead {
    bytes_read: u64,
    frames: u64,
    cpu_ns: u64,
}

/// Runs a TCP workload.
pub fn run(w: &NetWorkload, plan: &Plan) -> Outcome {
    let mut out = Outcome::default();
    let sink = plan.traced.then(SpanSink::default);
    let (stack, setup_s) =
        crate::timed_set_up(|| set_up(w, plan, sink.as_ref()).expect("loopback set-up"));
    let Stack {
        load,
        engine,
        hook_ns,
        door,
        server,
        driver,
        spawned,
    } = stack;
    // Spans of the discarded set-ups' engines are not this run's.
    if let Some(sink) = &sink {
        sink.take();
    }
    let net_stats = server.stats();

    let mut bounds = Vec::new();
    let mut listener = [ListenerRead::default(); 2];
    let report = driver
        .drive(&load, plan, sink.as_ref(), |i| {
            if i == 0 || i == plan.slices {
                listener[usize::from(i != 0)] = ListenerRead {
                    bytes_read: net_stats.bytes_read.load(Ordering::Relaxed),
                    frames: net_stats.frames_received.load(Ordering::Relaxed),
                    cpu_ns: stats::named_threads_cpu_ns("streamshed-net"),
                };
            }
            bounds.push(observe(&engine));
        })
        .expect("loopback drive");
    let bounds: Vec<Boundary> = bounds.into_iter().map(Boundary::from).collect();
    let window_s = (bounds[plan.slices].at - bounds[0].at).as_secs_f64();
    let periods = window_periods(
        &engine,
        (bounds[0].at - spawned).as_secs_f64(),
        (bounds[plan.slices].at - spawned).as_secs_f64(),
    );
    let hook_total_ns = hook_ns.map(|h| h.load(Ordering::Relaxed));
    let periods_total = engine.obs().map_or(0, |o| o.plane.periods_observed());

    // Ordered drain, as `serve` does it: listener first, then the engine.
    server.shutdown();
    while engine.queue_len() > 0 {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let drained = Boundary::from(observe(&engine));
    let engine =
        Arc::try_unwrap(engine).unwrap_or_else(|_| panic!("listener still holds the engine"));
    let shard_report = engine.shutdown();

    check_ledgers(
        &report,
        &net_stats,
        &shard_report,
        drained.completed,
        &mut out,
    );
    let l = report.ledger;
    out.attempted = l.offered;
    out.failed =
        report.unanswered_tuples + report.error_tuples + l.rejected_closed + l.rejected_capacity;

    let slice_s = plan.slice.as_secs_f64();
    let per_slice = |f: &dyn Fn(&crate::driver::SliceLoad) -> (f64, u64)| -> SliceStat {
        SliceStat::from_slices(&report.slices.iter().map(f).collect::<Vec<_>>())
    };
    let answered: u64 = report.slices.iter().map(|s| s.answered_tuples).sum();
    let per_tuple = |ns: u64| ns as f64 / answered.max(1) as f64;
    out.e2e.insert("setup_s", setup_s);
    out.e2e
        .insert("peak_rss_mb", SliceStat::single(stats::peak_rss_mib(), 1));
    out.e2e.insert(
        "ingest_tps",
        per_slice(&|s| (s.answered_tuples as f64 / slice_s, s.answered_tuples)),
    );
    engine_slice_metrics(&bounds, &mut out);
    if w.target_ms.is_none() {
        // An engine under a fixed α tracks no delay target: its tuples
        // retire within microseconds, at wake-up latencies the builder's
        // VM does not repeat (×38 between minutes). Its delay cells are
        // the latency of the front-door call as the listener's admission
        // stage records it, per frame — the delay the admission path
        // itself adds. The sojourn percentiles stay per layer.
        const ADMISSION: usize = 2;
        out.e2e.insert(
            "delay_p50_ms",
            slice_quantile_ms(&bounds, |b| &b.net_stages[ADMISSION], 0.5),
        );
        out.e2e.insert(
            "delay_p90_ms",
            slice_quantile_ms(&bounds, |b| &b.net_stages[ADMISSION], 0.9),
        );
    }
    let rtt_ms = |q: f64| per_slice(&move |s| (s.rtt.quantile(q) as f64 / 1e6, s.rtt.count()));
    out.layer.insert("reply_rtt_p50_ms", rtt_ms(0.5).median);
    out.layer.insert("reply_rtt_p90_ms", rtt_ms(0.9).median);
    let server_cpu_ns = report.process_cpu_ns.saturating_sub(report.driver_cpu_ns);
    out.e2e.insert(
        "server_cpu_ns_per_tuple",
        SliceStat::single(per_tuple(server_cpu_ns), answered),
    );

    engine_report_metrics(&shard_report, &periods, &mut out);
    if let Some(target) = w.target_ms {
        out.layer
            .insert("core.track_err_ms", track_err_ms(&periods, target));
    }
    if let Some(total) = hook_total_ns {
        out.notes.push(format!(
            "control hook cross-check: timing wrapper {:.0} ns/period, ControlTrace.hook_ns {:.0} ns/period",
            total as f64 / periods_total.max(1) as f64,
            out.layer.get("core.hook_ns_per_period").copied().unwrap_or(0.0),
        ));
    }

    // Listener stages over the window, from the `net*`-label histograms.
    let (first, last) = (&bounds[0], &bounds[plan.slices]);
    let stage_ns: Vec<u64> = (0..4)
        .map(|i| last.net_stages[i].sum - first.net_stages[i].sum)
        .collect();
    for (name, ns) in [
        "net.server.read_ns_per_tuple",
        "net.server.decode_ns_per_tuple",
        "net.server.admission_ns_per_tuple",
        "net.server.reply_ns_per_tuple",
    ]
    .into_iter()
    .zip(&stage_ns)
    {
        out.layer.insert(name, per_tuple(*ns));
    }
    let stages_total: u64 = stage_ns.iter().sum();
    let busy_share = stages_total as f64 / (window_s * 1e9);
    out.layer.insert("net.server.busy_share", busy_share);
    let listener_cpu = listener[1].cpu_ns - listener[0].cpu_ns;
    out.layer.insert(
        "net.server.residual_ns_per_tuple",
        per_tuple(listener_cpu) - per_tuple(stages_total),
    );
    let reads = (last.net_stages[0].count() - first.net_stages[0].count()).max(1) as f64;
    out.layer.insert(
        "net.server.bytes_per_read",
        (listener[1].bytes_read - listener[0].bytes_read) as f64 / reads,
    );
    out.layer.insert(
        "net.server.frames_per_read",
        (listener[1].frames - listener[0].frames) as f64 / reads,
    );
    if let Some(door) = door {
        let busy = door.busy_ns.load(Ordering::Relaxed) as f64;
        let tuples = door.tuples.load(Ordering::Relaxed).max(1) as f64;
        out.layer.insert(
            "net.server.door_calls",
            door.calls.load(Ordering::Relaxed) as f64,
        );
        out.layer
            .insert("net.server.door_ns_per_tuple", busy / tuples);
        out.layer.insert(
            "net.server.door_busy_share",
            busy / (drained.at - spawned).as_secs_f64() / 1e9,
        );
    }

    // A single hypervisor stall moves one slice's p99, not the verdict.
    let lag_p99_us = per_slice(&|s| (s.lag.quantile(0.99) as f64 / 1e3, s.lag.count())).median;
    out.layer.insert("driver.lag_p99_us", lag_p99_us);
    out.layer
        .insert("driver.frames_sent", report.window_frames as f64);
    for (class, rtt) in load.classes.iter().zip(&report.class_rtt) {
        let name = match class.name {
            "bulk" => "driver.rtt_bulk_p50_us",
            "small" => "driver.rtt_small_p50_us",
            _ => continue,
        };
        out.layer.insert(name, rtt.quantile(0.5) as f64 / 1e3);
    }
    if lag_p99_us > MAX_LAG_P99_US {
        out.notes.push(format!(
            "INVALID: driver.lag_p99_us = {lag_p99_us:.0} > {MAX_LAG_P99_US:.0}: the driver did not \
             keep its schedule, so these are not results"
        ));
    }
    if busy_share >= 0.5 {
        out.notes.push(format!(
            "net.server.busy_share = {busy_share:.2} >= 0.5: queueing at the listener, not latency, is being measured"
        ));
    }
    if let Some(sink) = sink {
        out.spans = sink.take();
        out.notes.push(reply_self_time_note(&out.spans));
    }
    out
}

/// The correctness gate of a TCP run: driver ledger == `NetStats` ==
/// `ShardReport`, bucket for bucket, both balance, and the engine's
/// live completed counter agrees with its final report.
fn check_ledgers(
    report: &DriverReport,
    net_stats: &NetStats,
    shard: &streamshed_engine::shard::ShardReport,
    completed_total: u64,
    out: &mut Outcome,
) {
    let driver = report.ledger;
    let net = net_ledger(net_stats);
    let engine = Ledger {
        offered: shard.offered,
        accepted: shard.per_shard.iter().map(|s| s.dispatched).sum(),
        shed: shard.dropped_entry,
        rejected_capacity: shard.rejected_at_capacity,
        rejected_closed: shard.rejected_closed,
    };
    out.check(
        report.unanswered_tuples == 0 && report.error_tuples == 0,
        || {
            format!(
                "{} tuples unanswered at the drain deadline, {} in error replies",
                report.unanswered_tuples, report.error_tuples
            )
        },
    );
    out.check(driver == net, || {
        format!("driver ledger {driver:?} != NetStats {net:?}")
    });
    out.check(net == engine, || {
        format!("NetStats {net:?} != ShardReport {engine:?}")
    });
    out.check(net_stats.tuples_balance(), || {
        "NetStats buckets do not sum to offered".into()
    });
    out.check(shard.counters_balance(), || {
        format!("engine ledger does not balance: {shard:?}")
    });
    out.check(completed_total == shard.completed, || {
        format!(
            "completed_total {completed_total} != ShardReport.completed {}",
            shard.completed
        )
    });
}

/// Mean self time of `frame.written→reply`: its duration minus the
/// `door.offer` span of the same frame that it contains.
fn reply_self_time_note(spans: &[crate::trace::Span]) -> String {
    let door: HashMap<&str, u64> = spans
        .iter()
        .filter(|s| s.name == "door.offer")
        .filter_map(|s| Some((s.frame.as_deref()?, s.end_ns - s.start_ns)))
        .collect();
    let (mut total, mut door_total, mut n) = (0u64, 0u64, 0u64);
    for s in spans.iter().filter(|s| s.name == "frame.written→reply") {
        if let Some(d) = s.frame.as_deref().and_then(|f| door.get(f)) {
            total += s.end_ns - s.start_ns;
            door_total += d;
            n += 1;
        }
    }
    let n = n.max(1) as f64;
    format!(
        "frame.written→reply over {n:.0} frames: mean {:.1} us, of which door.offer {:.2} us, self {:.1} us",
        total as f64 / n / 1e3,
        door_total as f64 / n / 1e3,
        total.saturating_sub(door_total) as f64 / n / 1e3,
    )
}
