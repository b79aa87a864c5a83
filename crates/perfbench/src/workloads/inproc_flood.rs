//! `inproc_flood` — the embedded-library path at saturation.
//!
//! One caller thread calls `offer_batch_keyed_with(256, …)` back to back
//! (closed loop) against a 1-shard engine with zero-cost workers under a
//! fixed α = 0.9 — the 10×-overload operating point. The batched shed
//! pass, admission, the ring push and the worker's retire loop do all
//! the work; net, the control law and the simulator do none. α = 0.9
//! keeps the loop decisively front-door-bound: at α = 0.67 it is
//! worker-bound and ingest *rises* when the ring is full (rejecting is
//! cheaper than pushing), which would couple the two throughput numbers
//! perversely.

use super::{
    base_config, engine_report_metrics, engine_slice_metrics, fixed_alpha, observe, spawn_observed,
    window_periods, Boundary,
};
use crate::stats::{self, SliceStat};
use crate::trace::{Span, SpanSink, SPAN_CAP};
use crate::{mix, Outcome, Plan};
use std::time::{Duration, Instant};
use streamshed_engine::shard::{BatchResult, ShardedEngine};
use streamshed_engine::Histo;

/// Tuples per front-door call.
pub const BATCH: usize = 256;
/// Distinct key batches the caller cycles through.
const KEY_BATCHES: usize = 1024;
/// Every this-many-th call is timed (the clock reads cost ≈ 3 % of a
/// call, so timing every call would move the number being measured).
const TIME_EVERY: usize = 16;

struct Setup {
    keys: Vec<u64>,
    engine: ShardedEngine,
    spawned: Instant,
}

fn set_up(plan: &Plan) -> Setup {
    let keys = (0..(KEY_BATCHES * BATCH) as u64)
        .map(|i| mix(plan.seed, i))
        .collect();
    let spawned = Instant::now();
    // 1-in-64 sojourn sampling also when traced: sampling every tuple
    // costs the zero-cost worker three histogram records per retirement,
    // makes it the bottleneck (ring full, half the goodput gone) and so
    // would trace a different workload.
    let engine = spawn_observed(base_config(mix(plan.seed, 0x5EED)), fixed_alpha);
    Setup {
        keys,
        engine,
        spawned,
    }
}

/// Runs the workload.
pub fn run(plan: &Plan) -> Outcome {
    let mut out = Outcome::default();
    let (setup, setup_s) = crate::timed_set_up(|| set_up(plan));
    let Setup {
        keys,
        engine,
        spawned,
    } = setup;
    let sink = plan.traced.then(SpanSink::default);

    let mut ledger = BatchResult::default();
    let mut at = 0usize;
    let mut call = |ledger: &mut BatchResult| {
        let base = at * BATCH;
        at = (at + 1) % KEY_BATCHES;
        ledger.merge(&engine.offer_batch_keyed_with(BATCH, |i| keys[base + i]));
    };

    let warm_until = Instant::now() + plan.warmup;
    while Instant::now() < warm_until {
        for _ in 0..TIME_EVERY {
            call(&mut ledger);
        }
    }

    let cpu0 = stats::process_cpu_ns();
    let mut bounds = vec![observe(&engine)];
    let mut ingest = Vec::new();
    let mut call_ns: Vec<Histo> = Vec::new();
    let mut timed_calls = 0usize;
    for _ in 0..plan.slices {
        let before = ledger;
        let mut histo = Histo::new();
        let t_start = Instant::now();
        let t_end = loop {
            for _ in 1..TIME_EVERY {
                call(&mut ledger);
            }
            let t0 = Instant::now();
            call(&mut ledger);
            let t1 = Instant::now();
            histo.record((t1 - t0).as_nanos() as u64);
            if let Some(sink) = sink.as_ref().filter(|_| timed_calls < SPAN_CAP) {
                sink.push(Span {
                    name: "door.offer",
                    start_ns: sink.ns(t0),
                    end_ns: sink.ns(t1),
                    parent: None,
                    frame: Some(format!("batch:{}", timed_calls * TIME_EVERY)),
                    attrs: String::new(),
                });
            }
            timed_calls += 1;
            if t1 - t_start >= plan.slice {
                break t1;
            }
        };
        let disposed = ledger.offered - before.offered;
        ingest.push((disposed as f64 / (t_end - t_start).as_secs_f64(), disposed));
        call_ns.push(histo);
        bounds.push(observe(&engine));
    }
    let cpu_ns = stats::process_cpu_ns() - cpu0;
    let bounds: Vec<Boundary> = bounds.into_iter().map(Boundary::from).collect();
    let window = (bounds[0].at - spawned).as_secs_f64()..(Instant::now() - spawned).as_secs_f64();
    let periods = window_periods(&engine, window.start, window.end);
    let window_tuples: u64 = ingest.iter().map(|s| s.1).sum();

    // Let the worker drain, then read the engine's last word.
    while engine.queue_len() > 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let drained = Boundary::from(observe(&engine));
    let report = engine.shutdown();
    out.check(report.counters_balance(), || {
        format!("engine ledger does not balance: {report:?}")
    });
    out.check(drained.completed == report.completed, || {
        format!(
            "completed_total {} != ShardReport.completed {}",
            drained.completed, report.completed
        )
    });
    let from_report = BatchResult {
        offered: report.offered,
        dispatched: report.per_shard.iter().map(|s| s.dispatched).sum(),
        dropped_entry: report.dropped_entry,
        rejected_capacity: report.rejected_at_capacity,
        rejected_closed: report.rejected_closed,
    };
    out.check(ledger == from_report, || {
        format!("BatchResult sum {ledger:?} != ShardReport {from_report:?}")
    });
    out.attempted = ledger.offered;
    // Ring-full is back-pressure here, reported per layer, not a failure.
    out.failed = ledger.rejected_closed;

    let rtt = |q: f64| {
        let per_slice: Vec<(f64, u64)> = call_ns
            .iter()
            .map(|h| (h.quantile(q) as f64 / 1e6, h.count()))
            .collect();
        SliceStat::from_slices(&per_slice)
    };
    out.e2e.insert("setup_s", setup_s);
    out.e2e
        .insert("peak_rss_mb", SliceStat::single(stats::peak_rss_mib(), 1));
    out.e2e
        .insert("ingest_tps", SliceStat::from_slices(&ingest));
    engine_slice_metrics(&bounds, &mut out);
    // This engine tracks no delay target: its tuples retire within
    // microseconds, at wake-up latencies the builder's VM does not repeat
    // (and the sampled ring sojourn *rises* when the front door gets
    // faster). Its delay cells are the latency of the front-door call,
    // the delay the admission path itself adds; the sojourn percentiles
    // stay in the per-layer table.
    out.e2e.insert("delay_p50_ms", rtt(0.5));
    out.e2e.insert("delay_p90_ms", rtt(0.9));
    out.layer.insert("reply_rtt_p50_ms", rtt(0.5).median);
    out.layer.insert("reply_rtt_p90_ms", rtt(0.9).median);
    out.e2e.insert(
        "server_cpu_ns_per_tuple",
        SliceStat::single(cpu_ns as f64 / window_tuples.max(1) as f64, window_tuples),
    );
    engine_report_metrics(&report, &periods, &mut out);
    if let Some(sink) = sink {
        out.spans = sink.take();
    }
    out
}
