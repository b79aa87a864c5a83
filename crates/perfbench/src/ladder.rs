//! The direct-call ladder: each layer's public entry points timed on
//! their own, outside any workload. Every point is the median of
//! [`REPS`] repetitions. The README records, for each rung, which
//! end-to-end metric it should move and where it should move nothing.

use crate::stats::median;
use crate::workloads::{base_config, fixed_alpha, rt_overload, serve_obs_options, spawn_observed};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use streamshed_control::loop_::LoopConfig;
use streamshed_control::strategy::CtrlStrategy;
use streamshed_control::supervisor::Supervisor;
use streamshed_engine::hook::{ControlHook, Decision, NoShedding, PeriodSnapshot};
use streamshed_engine::networks::identification_network;
use streamshed_engine::obs::ObsPlane;
use streamshed_engine::shard::{ShardConfig, ShardedEngine};
use streamshed_engine::telemetry::{ControlTrace, EventSink};
use streamshed_engine::time::{secs, SimDuration, SimTime};
use streamshed_engine::{
    AtomicShedder, Histo, SimConfig, Simulator, SpanRegistry, SpscRing, Stage,
};
use streamshed_net::wire::{self, Reply};
use streamshed_workload::{frame_schedule, ArrivalTrace, PoissonTrace, WebLikeTrace};

/// Repetitions per point; the median is reported.
pub const REPS: usize = 5;

/// Median over [`REPS`] repetitions of ns per unit, where each
/// repetition calls `body` (which returns the units it did) until `rep`
/// has passed.
fn ns_per_unit(rep: Duration, mut body: impl FnMut() -> u64) -> f64 {
    let per_rep: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            let mut units = 0u64;
            while t0.elapsed() < rep {
                units += body();
            }
            t0.elapsed().as_nanos() as f64 / units.max(1) as f64
        })
        .collect();
    median(&per_rep)
}

fn snapshot(k: u64) -> PeriodSnapshot {
    // Queue and rates wander so the controller exercises both the
    // shedding and the non-shedding side of its law.
    let q = 20_000 + (k * 7_919) % 12_000;
    PeriodSnapshot {
        k,
        now: SimTime(k * 50_000),
        period: SimDuration(50_000),
        offered: 14_500,
        admitted: 4_900,
        dropped_entry: 9_600,
        dropped_network: 0,
        completed: 4_850,
        outstanding: q,
        queued_tuples: q,
        queued_load_us: q as f64 * 10.0,
        measured_cost_us: Some(10.0 + (k % 5) as f64 * 0.01),
        mean_delay_ms: Some(250.0),
        cpu_busy_us: 48_500,
    }
}

fn loop_cfg() -> LoopConfig {
    LoopConfig::paper_default()
        .with_target_delay_ms(rt_overload::TARGET_MS)
        .with_period_ms(rt_overload::PERIOD_MS as f64)
        .with_headroom(rt_overload::HEADROOM)
        .with_prior_cost_us(rt_overload::COST_US as f64)
}

fn hook_ns(rep: Duration, mut hook: impl ControlHook) -> f64 {
    let mut k = 0;
    ns_per_unit(rep, || {
        for _ in 0..256 {
            black_box(hook.on_period(black_box(&snapshot(k))));
            k += 1;
        }
        256
    })
}

fn ladder_cfg(shards: usize, cost: Duration, capacity: usize) -> ShardConfig {
    ShardConfig {
        shards,
        cost,
        // A short period so the fixed α is in force (and shutdown
        // returns) within milliseconds.
        period: Duration::from_millis(5),
        queue_capacity: capacity,
        sample_every: 0,
        ..base_config(ShardConfig::DEFAULT_SEED)
    }
}

/// A zero-cost engine under α = 0.9, with the α already actuated.
fn flooded_engine(shards: usize) -> ShardedEngine {
    let engine = ShardedEngine::spawn(ladder_cfg(shards, Duration::ZERO, 65_536), fixed_alpha);
    std::thread::sleep(Duration::from_millis(15));
    engine
}

/// Goodput, tuples/s, of `engine` kept saturated in-process for `dur`.
fn saturated_goodput(engine: ShardedEngine, dur: Duration) -> f64 {
    let t0 = Instant::now();
    while t0.elapsed() < dur {
        if engine.queue_len() < 2_048 {
            engine.offer_batch(2_048);
        } else {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let queued = engine.queue_len();
    let report = engine.shutdown();
    // Tuples still queued at `elapsed` were completed by the drain, not
    // by the timed window.
    (report.completed - queued) as f64 / elapsed
}

/// Cross-thread hand-off: one stamp pushed to a parked consumer until
/// `pop_wait` returns it, p50 in µs.
fn ring_handoff_p50_us(point: Duration) -> f64 {
    let ring = Arc::new(SpscRing::new(1_024));
    let consumer = {
        let ring = Arc::clone(&ring);
        std::thread::spawn(move || {
            // Off the producer's core, like a shard worker.
            streamshed_engine::affinity::pin_current_thread(0);
            let mut histo = Histo::new();
            let mut buf = [0u64; 8];
            loop {
                let n = ring.pop_wait(&mut buf);
                if n == 0 {
                    return histo;
                }
                let now = ring.stamp_now();
                for stamp in &buf[..n] {
                    histo.record(now.saturating_sub(*stamp));
                }
            }
        })
    };
    let t0 = Instant::now();
    while t0.elapsed() < point {
        // Long enough for the consumer to spin out and park again.
        std::thread::sleep(Duration::from_micros(400));
        ring.push(ring.stamp_now());
    }
    ring.close();
    consumer.join().expect("consumer thread").quantile(0.5) as f64 / 1e3
}

/// Runs every rung; `point` is the time one point measures in total.
pub fn run(point: Duration, seed: u64) -> BTreeMap<&'static str, f64> {
    let rep = point / REPS as u32;
    let mut out = BTreeMap::new();

    out.insert(
        "workload.web_gen_ns_per_tuple",
        ns_per_unit(rep, || {
            black_box(WebLikeTrace::paper_default(seed).arrival_times(400.0)).len() as u64
        }),
    );
    let rate = rt_overload::OVERLOAD * rt_overload::capacity_tps();
    out.insert(
        "workload.schedule_ns_per_frame",
        ns_per_unit(rep, || {
            let trace = PoissonTrace::new(rate, seed);
            black_box(frame_schedule(&trace, 0.25, rt_overload::FRAME_TUPLES)).len() as u64
        }),
    );

    let cfg = loop_cfg();
    out.insert(
        "core.ctrl_ns_per_period",
        hook_ns(rep, CtrlStrategy::from_config(&cfg)),
    );
    out.insert(
        "core.supervised_ns_per_period",
        hook_ns(
            rep,
            Supervisor::from_loop(CtrlStrategy::from_config(&cfg), &cfg),
        ),
    );

    let shedder = AtomicShedder::new(seed);
    for (name, alpha) in [
        ("engine.rng.shed_bernoulli_ns_per_tuple", 0.9),
        ("engine.rng.shed_skip_ns_per_tuple", 0.01),
    ] {
        out.insert(
            name,
            ns_per_unit(rep, || {
                for _ in 0..64 {
                    black_box(shedder.shed_batch(black_box(alpha), 256));
                }
                64 * 256
            }),
        );
    }

    let ring = SpscRing::new(65_536);
    let mut popped = [0u64; 256];
    out.insert(
        "engine.ring.push_pop_ns_per_tuple",
        ns_per_unit(rep, || {
            for _ in 0..64 {
                black_box(ring.push_repeat(black_box(7), 256));
                black_box(ring.pop_n(&mut popped));
            }
            64 * 256
        }),
    );
    out.insert("engine.ring.handoff_p50_us", ring_handoff_p50_us(point));

    let engine = ShardedEngine::spawn(ladder_cfg(1, Duration::ZERO, 65_536), NoShedding);
    out.insert(
        "engine.shard.offer_ns_per_tuple",
        ns_per_unit(rep, || {
            for _ in 0..1_024 {
                black_box(engine.offer());
            }
            1_024
        }),
    );
    drop(engine);
    let engine = flooded_engine(1);
    out.insert(
        "engine.shard.offer_batch_ns_per_tuple",
        ns_per_unit(rep, || {
            for _ in 0..64 {
                black_box(engine.offer_batch(256));
            }
            64 * 256
        }),
    );
    drop(engine);
    let engine = flooded_engine(2);
    let keys: Vec<u64> = (0..256).map(|i| crate::mix(seed, i)).collect();
    out.insert(
        "engine.shard.offer_keyed_ns_per_tuple",
        ns_per_unit(rep, || {
            for _ in 0..64 {
                black_box(engine.offer_batch_keyed_with(256, |i| keys[i]));
            }
            64 * 256
        }),
    );
    drop(engine);

    // Fill a zero-cost shard's ring, time until the worker has retired
    // all of it (it drains at its own pace from the first push on).
    let retire: Vec<f64> = (0..REPS)
        .map(|_| {
            let tuples = (rep.as_nanos() as usize / 40).clamp(65_536, 4_000_000);
            let engine = ShardedEngine::spawn(ladder_cfg(1, Duration::ZERO, tuples), NoShedding);
            let t0 = Instant::now();
            let pushed = engine.offer_batch(tuples).dispatched;
            // Polled gently: the worker decrements this counter per
            // tuple, and a spinning reader on another core would slow it.
            while engine.queue_len() > 0 {
                std::thread::sleep(Duration::from_micros(50));
            }
            t0.elapsed().as_nanos() as f64 / pushed.max(1) as f64
        })
        .collect();
    out.insert("engine.worker.retire_ns_per_tuple", median(&retire));

    let spin = |cost_us: u64, observed: bool| -> f64 {
        let cfg = ladder_cfg(1, Duration::from_micros(cost_us), 65_536);
        let engine = if observed {
            let sample_every = streamshed_engine::spans::DEFAULT_SAMPLE_EVERY;
            spawn_observed(
                ShardConfig {
                    sample_every,
                    ..cfg
                },
                NoShedding,
            )
        } else {
            ShardedEngine::spawn(cfg, NoShedding)
        };
        saturated_goodput(engine, point)
    };
    let service_ns = rt_overload::COST_US as f64 * 1e3 / rt_overload::HEADROOM;
    out.insert(
        "engine.worker.spin_overhead_ns_per_tuple",
        1e9 / spin(rt_overload::COST_US, false) - service_ns,
    );
    out.insert(
        "engine.obs.observed_over_plain",
        spin(5, true) / spin(5, false),
    );

    let arrivals: Vec<SimTime> = (0..24_000u64).map(|i| SimTime(i * 2_500)).collect();
    out.insert(
        "engine.sim.noshed_ns_per_tuple",
        ns_per_unit(rep, || {
            let sim = Simulator::new(identification_network(), SimConfig::paper_default());
            black_box(sim.run(&arrivals, &mut NoShedding, secs(60))).offered
        }),
    );

    let mut histo = Histo::new();
    let mut v = seed | 1;
    out.insert(
        "engine.histo.record_ns",
        ns_per_unit(rep, || {
            for _ in 0..4_096 {
                v = v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                histo.record(black_box(v >> 34));
            }
            4_096
        }),
    );
    let registry = SpanRegistry::new();
    for label in ["0", "1", "net0"] {
        let handle = registry.handle(label);
        for i in 0..10_000u64 {
            handle.record(Stage::Execute, i * 997);
            handle.record_sojourn(i * 1_009);
        }
    }
    out.insert(
        "engine.spans.snapshot_us",
        ns_per_unit(rep, || {
            black_box(registry.snapshot());
            1
        }) / 1e3,
    );
    let mut plane = ObsPlane::new(&serve_obs_options(Duration::from_millis(250)));
    let mut k = 0;
    out.insert(
        "engine.obs.record_ns_per_period",
        ns_per_unit(rep, || {
            for _ in 0..256 {
                let snap = snapshot(k);
                let alpha = 0.6 + (k % 7) as f64 * 0.02;
                plane.record(&ControlTrace::capture(
                    &snap,
                    &Decision::entry(alpha),
                    None,
                    1_000,
                ));
                k += 1;
            }
            256
        }),
    );

    let mut frame = Vec::new();
    out.insert(
        "net.wire.encode_ns_per_tuple",
        ns_per_unit(rep, || {
            for seq in 0..64 {
                frame.clear();
                wire::encode_frame_into(&mut frame, seq, 256, Some(black_box(&keys)));
            }
            64 * 256
        }),
    );
    out.insert(
        "net.wire.decode_ns_per_tuple",
        ns_per_unit(rep, || {
            for _ in 0..64 {
                let (f, _) = wire::decode_frame(black_box(&frame), wire::DEFAULT_MAX_TUPLES)
                    .expect("well-formed frame")
                    .expect("complete frame");
                let mut acc = 0u64;
                for i in 0..f.count as usize {
                    acc ^= f.key(i);
                }
                black_box(acc);
            }
            64 * 256
        }),
    );
    let mut reply_buf = Vec::new();
    out.insert(
        "net.wire.reply_codec_ns",
        ns_per_unit(rep, || {
            for seq in 0..256 {
                reply_buf.clear();
                let reply = Reply {
                    accepted: 26,
                    shed: 230,
                    seq,
                    ..Reply::default()
                };
                wire::encode_reply_into(&mut reply_buf, black_box(&reply));
                black_box(wire::decode_reply(black_box(&reply_buf)).expect("well-formed reply"));
            }
            256
        }),
    );
    out
}
