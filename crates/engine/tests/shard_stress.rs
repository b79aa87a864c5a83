//! Multi-thread stress tests for the real-time data plane.
//!
//! The point is the *accounting invariant*: under every interleaving of
//! concurrent `offer()` calls, worker panic-restarts, entry shedding
//! under a churning α, in-queue shedding, `close()`, and `shutdown()`,
//! every offered tuple lands in exactly one outcome bucket:
//!
//! ```text
//! offered == dropped_entry + rejected_at_capacity + rejected_closed + dispatched
//! dispatched == completed + dropped_shed + worker_panics
//! ```
//!
//! None of those tests asserts timing — only conservation, and that the
//! derived queue length (`pushed − processed`) stays a queue length while
//! offers race the workers. The two timed tests at the bottom are
//! `#[ignore]`d release tests (CI runs them with `--include-ignored`):
//! the controller holding its sampling period on the wall clock, and the
//! multicore scaling gate.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use streamshed_engine::hook::{Decision, PeriodSnapshot};
use streamshed_engine::shard::{BatchResult, Dispatch, ShardConfig, ShardedEngine};
use streamshed_engine::worker::{CostModel, WORKER_POP_BATCH};

const OFFER_THREADS: usize = 4;
const OFFERS_PER_THREAD: usize = 400;

fn stress_cfg(shards: usize) -> ShardConfig {
    ShardConfig {
        shards,
        cost: Duration::from_micros(20),
        period: Duration::from_millis(5),
        target_delay: Duration::from_millis(50),
        headroom: 1.0,
        queue_capacity: 512,
        panic_on_tuple: None,
        cost_model: CostModel::Sleep,
        dispatch: Dispatch::RoundRobin,
        seed: ShardConfig::DEFAULT_SEED,
        pin_cores: false,
        sample_every: streamshed_engine::spans::DEFAULT_SAMPLE_EVERY,
    }
}

/// A hook that churns the actuation every period: α steps between a
/// rare-drop rate, a frequent-drop rate and off, and every fourth period
/// commands some in-queue shedding.
fn churn_hook() -> impl FnMut(&PeriodSnapshot) -> Decision {
    |snap: &PeriodSnapshot| {
        let alpha = match snap.k % 3 {
            0 => 0.01,
            1 => 0.3,
            _ => 0.0, // shedder off
        };
        if snap.k % 4 == 3 {
            Decision {
                shed_load_us: 2_000.0,
                ..Decision::entry(alpha)
            }
        } else {
            Decision::entry(alpha)
        }
    }
}

/// Samples `queue_len()` until `done`: every queued tuple is in a ring or
/// in a worker's popped batch, so the signal the controller reads can
/// never exceed those capacities — in particular it must not wrap to
/// ≈ 2⁶⁴ when a worker retires a tuple before the front door has counted
/// its push.
fn watch_queue_len(engine: &ShardedEngine, done: &AtomicBool) {
    let cfg = engine.config();
    let bound = (cfg.shards * (cfg.queue_capacity + WORKER_POP_BATCH)) as u64;
    while !done.load(Ordering::Relaxed) {
        let q = engine.queue_len();
        assert!(q <= bound, "queue_len {q} exceeds ring + popped capacity {bound}");
        std::thread::yield_now();
    }
}

fn assert_sharded_balance(report: &streamshed_engine::shard::ShardReport) {
    let dispatched: u64 = report.per_shard.iter().map(|s| s.dispatched).sum();
    assert_eq!(
        report.offered,
        report.dropped_entry + report.rejected_at_capacity + report.rejected_closed + dispatched,
        "front-door conservation: {report:?}"
    );
    assert_eq!(
        dispatched,
        report.completed + report.dropped_shed + report.worker_panics,
        "shard conservation: {report:?}"
    );
    assert!(report.counters_balance(), "{report:?}");
}

#[test]
fn sharded_offers_race_panics_and_close() {
    // Several interleavings: close fires at a different point each round.
    for round in 0..6u64 {
        let mut cfg = stress_cfg(3);
        cfg.panic_on_tuple = Some(7 + round); // every shard panics once
        let engine = ShardedEngine::spawn_recorded(cfg, churn_hook(), None);

        std::thread::scope(|s| {
            for t in 0..OFFER_THREADS {
                let engine = &engine;
                s.spawn(move || {
                    for i in 0..OFFERS_PER_THREAD {
                        if t % 2 == 0 {
                            engine.offer();
                        } else {
                            engine.offer_keyed((t * OFFERS_PER_THREAD + i) as u64);
                        }
                        if i % 64 == 0 {
                            std::thread::yield_now();
                        }
                    }
                });
            }
            // Close the front door mid-flight, at a round-dependent point.
            let engine = &engine;
            s.spawn(move || {
                std::thread::sleep(Duration::from_micros(300 * (round + 1)));
                engine.close();
            });
        });

        // The scope guarantees close() has returned: from here on no
        // offer reaches a ring, deterministically. The churning α still
        // sheds some at the door, before they get as far as the ring;
        // every other one is `rejected_closed`.
        let mut after_close = BatchResult::default();
        for _ in 0..50 {
            after_close.merge(&engine.offer_batch(1));
        }
        assert_eq!(
            (after_close.offered, after_close.dropped_entry + after_close.rejected_closed),
            (50, 50),
            "round {round}: an offer after close is shed or rejected_closed: {after_close:?}"
        );

        let report = engine.shutdown();
        assert_eq!(
            report.offered,
            (OFFER_THREADS * OFFERS_PER_THREAD + 50) as u64,
            "every offer() call is counted exactly once"
        );
        assert_sharded_balance(&report);
        assert!(
            report.rejected_closed >= after_close.rejected_closed,
            "round {round}: the post-close rejections are in the report"
        );
    }
}

#[test]
fn sharded_heavy_shedding_still_balances() {
    // Saturate tiny queues so capacity rejections join the mix.
    let mut cfg = stress_cfg(2);
    cfg.queue_capacity = 16;
    cfg.cost = Duration::from_micros(200);
    let engine = ShardedEngine::spawn(cfg, |_s: &PeriodSnapshot| Decision::entry(0.2));
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        s.spawn(|| watch_queue_len(&engine, &done));
        let offerers: Vec<_> = (0..OFFER_THREADS)
            .map(|_| {
                s.spawn(|| {
                    for _ in 0..OFFERS_PER_THREAD {
                        engine.offer();
                    }
                })
            })
            .collect();
        for h in offerers {
            h.join().unwrap();
        }
        done.store(true, Ordering::Relaxed);
    });
    let report = engine.shutdown();
    assert_eq!(report.offered, (OFFER_THREADS * OFFERS_PER_THREAD) as u64);
    assert!(
        report.rejected_at_capacity > 0,
        "tiny queues must reject under burst: {report:?}"
    );
    assert_sharded_balance(&report);
}

#[test]
fn sharded_shutdown_races_offers_from_scope_exit() {
    // close() called concurrently with offers, immediately followed by
    // shutdown — the tightest interleaving window.
    for _ in 0..4 {
        let engine = ShardedEngine::spawn(stress_cfg(2), churn_hook());
        std::thread::scope(|s| {
            for _ in 0..OFFER_THREADS {
                let engine = &engine;
                s.spawn(move || {
                    for _ in 0..OFFERS_PER_THREAD {
                        engine.offer();
                    }
                });
            }
            let engine = &engine;
            s.spawn(move || engine.close());
        });
        let report = engine.shutdown();
        assert_eq!(report.offered, (OFFER_THREADS * OFFERS_PER_THREAD) as u64);
        assert_sharded_balance(&report);
    }
}

#[test]
fn single_shard_concurrent_offers_balance_with_one_panic() {
    // One worker under the same regime: concurrent offers, an injected
    // panic-restart, shedding churn — and no close race.
    for _ in 0..4 {
        let mut cfg = stress_cfg(1);
        cfg.queue_capacity = 2048;
        cfg.panic_on_tuple = Some(50);
        let engine = ShardedEngine::spawn(cfg, churn_hook());
        std::thread::scope(|s| {
            for _ in 0..OFFER_THREADS {
                let engine = &engine;
                s.spawn(move || {
                    for i in 0..OFFERS_PER_THREAD {
                        engine.offer();
                        if i % 64 == 0 {
                            std::thread::yield_now();
                        }
                    }
                });
            }
        });
        let report = engine.shutdown();
        assert_eq!(report.offered, (OFFER_THREADS * OFFERS_PER_THREAD) as u64);
        assert_eq!(report.worker_panics, 1, "exactly the injected panic");
        assert_eq!(report.rejected_closed, 0, "no close race in this test");
        assert_sharded_balance(&report);
    }
}

/// The controller thread holds the period grid on the wall clock: no
/// drift over 40 periods and at most two late wakes. A loaded 2-vCPU
/// host holds that thread for more than 1.5 T about one run in 15 (the
/// grid re-anchors and `periods` reads short), so this is not a tier-1
/// test; the exact check is `period_grid_does_not_drift_and_pays_an_overrun_once`
/// in `shard.rs`, on synthetic `Instant`s.
#[cfg(not(debug_assertions))]
#[test]
#[ignore = "wall-clock: fails on a host that stalls the controller thread"]
fn fast_hook_holds_the_sampling_period() {
    let period = Duration::from_millis(20);
    let cfg = ShardConfig {
        cost: Duration::from_micros(200),
        period,
        target_delay: Duration::from_millis(100),
        queue_capacity: 4096,
        ..stress_cfg(1)
    };
    let engine = ShardedEngine::spawn(cfg, streamshed_engine::hook::NoShedding);
    let t0 = std::time::Instant::now();
    std::thread::sleep(period * 40 + period / 2);
    let report = engine.shutdown();
    // The controller services at most one more boundary while it is
    // being stopped. What wall-clock time can promise is no *drift*.
    let nominal = (t0.elapsed().as_secs_f64() / period.as_secs_f64()) as i64;
    assert!(report.deadline_misses <= 2, "{report:?}");
    assert!((report.periods as i64 - nominal).abs() <= 1, "{} vs {nominal}", report.periods);
}

/// Completions per second (drain included) of `shards` spin workers
/// burning `cost` per tuple, fed by one thread through
/// `offer_batch(1024)` as fast as backpressure allows.
#[cfg(not(debug_assertions))]
fn spin_aggregate_tps(shards: usize, cost: Duration) -> f64 {
    let cfg = ShardConfig {
        cost,
        queue_capacity: 1 << 15,
        cost_model: CostModel::Spin,
        ..stress_cfg(shards)
    };
    let engine = ShardedEngine::spawn(cfg, streamshed_engine::hook::NoShedding);
    let t0 = std::time::Instant::now();
    while t0.elapsed() < Duration::from_secs(1) {
        if engine.offer_batch(1024).dispatched == 0 {
            std::thread::yield_now();
        }
    }
    let report = engine.shutdown();
    report.completed as f64 / t0.elapsed().as_secs_f64()
}

/// The two multicore gates: 4 spin shards complete ≥ 3× what 1 shard
/// does at 5 µs/tuple (worker-bound), and ≥ 10 M tuples/s in aggregate at
/// 100 ns/tuple (door-bound). Best of three attempts each; a host that
/// cannot run four workers and a feeder in parallel measures nothing and
/// says so.
#[cfg(not(debug_assertions))]
#[test]
#[ignore = "timed multicore gate: needs >= 4 idle cores"]
fn four_shards_scale_on_a_multicore_host() {
    let cores = streamshed_engine::affinity::host_cores();
    if cores < 4 {
        println!("unmeasured: {cores} cores");
        return;
    }
    let best = |f: &dyn Fn() -> f64| (0..3).map(|_| f()).fold(0.0, f64::max);
    let sweep = Duration::from_micros(5);
    let speedup = best(&|| spin_aggregate_tps(4, sweep) / spin_aggregate_tps(1, sweep));
    assert!(speedup >= 3.0, "4 shards are {speedup:.2}x 1 shard on {cores} cores");
    let agg = best(&|| spin_aggregate_tps(4, Duration::from_nanos(100)));
    assert!(agg >= 1e7, "4-shard aggregate spin {agg:.0} t/s on {cores} cores");
}
