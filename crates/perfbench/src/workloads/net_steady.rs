//! `net_steady` — the listener used the other way round: sub-capacity,
//! latency and CPU instead of saturation.
//!
//! A 2-shard engine (`Dispatch::KeyHash`, zero-cost workers, fixed
//! α = 0.9) behind `NetServer`; open loop at fixed rates on 2
//! connections of two classes: *bulk* sends keyed 256-tuple frames at
//! 5 M tuples/s with uniform spacing, *small* sends unkeyed 16-tuple
//! frames at 20 000 frames/s with Poisson spacing. Wire decode, the poll
//! loop, read/write buffers, reply encode, both `FrontDoor` methods,
//! multi-shard dispatch and the ring doorbell (workers mostly parked) do
//! the work. Closed-loop loopback saturation was tried and rejected: on
//! this VM it measures the hypervisor. At a fixed rate, server CPU per
//! tuple and reply RTT are the capacity proxies, and the two classes
//! make a gain for bulk frames that costs small ones (or the reverse)
//! visible.

use super::{base_config, fixed_alpha, spawn_observed};
use crate::driver::{Class, FrameDue, Load};
use crate::netload::{self, NetWorkload, SpawnedEngine};
use crate::trace::SpanSink;
use crate::{mix, Outcome, Plan};
use streamshed_engine::shard::ShardConfig;
use streamshed_engine::spans::DEFAULT_SAMPLE_EVERY;
use streamshed_workload::{ArrivalTrace, PoissonTrace};

/// Tuples per bulk frame.
pub const BULK_TUPLES: u32 = 256;
/// Bulk offered rate, tuples/s.
pub const BULK_TPS: f64 = 5e6;
/// Tuples per small frame.
pub const SMALL_TUPLES: u32 = 16;
/// Small-frame rate, frames/s.
pub const SMALL_FPS: f64 = 20_000.0;

/// The load: uniformly spaced bulk frames merged with Poisson small
/// frames.
pub fn load(plan: &Plan) -> Load {
    let total_s = (plan.warmup + plan.window()).as_secs_f64();
    let bulk_gap_ns = 1e9 * BULK_TUPLES as f64 / BULK_TPS;
    let bulk = (0..(total_s * 1e9 / bulk_gap_ns) as u64).map(|i| FrameDue {
        due_ns: (i as f64 * bulk_gap_ns) as u64,
        class: 0,
    });
    let small = PoissonTrace::new(SMALL_FPS, mix(plan.seed, 1))
        .arrival_times(total_s)
        .into_iter()
        .map(|t| FrameDue {
            due_ns: (t * 1e9) as u64,
            class: 1,
        });
    let mut frames: Vec<FrameDue> = bulk.chain(small).collect();
    frames.sort();
    Load {
        classes: vec![
            Class::keyed("bulk", BULK_TUPLES, 64, 1, mix(plan.seed, 2)),
            Class::unkeyed("small", SMALL_TUPLES, 1),
        ],
        frames,
    }
}

fn engine(plan: &Plan, _: Option<&SpanSink>) -> SpawnedEngine {
    let cfg = ShardConfig {
        shards: 2,
        sample_every: if plan.traced { 1 } else { DEFAULT_SAMPLE_EVERY },
        ..base_config(mix(plan.seed, 3))
    };
    (spawn_observed(cfg, fixed_alpha), None)
}

/// Runs the workload.
pub fn run(plan: &Plan) -> Outcome {
    netload::run(
        &NetWorkload {
            load: &load,
            engine: &engine,
            door_classes: ["bulk", "small"],
            target_ms: None,
        },
        plan,
    )
}
