//! `rt_overload_3x` — the paper's contract through the whole stack.
//!
//! A 1-shard engine (Spin cost 10 µs, `H = 0.97`, period 50 ms, target
//! 250 ms) under `CtrlStrategy`, behind `NetServer` on loopback; open
//! loop, Poisson arrivals at 3× capacity packed into keyed 64-tuple
//! frames over 2 connections: `driver → TCP → decode → admission → ring
//! → worker → reply` with the controller closed around it. The worker is
//! the bottleneck by construction, so `goodput_tps` prices per-tuple
//! worker overhead and `delay_p50/p90_ms` price the control law and the
//! delay estimator; front-door and wire changes should leave it flat.

use super::{base_config, spawn_observed};
use crate::driver::{Class, FrameDue, Load};
use crate::netload::{self, NetWorkload, SpawnedEngine};
use crate::trace::{SpanSink, TimedHook};
use crate::{mix, Outcome, Plan};
use std::time::Duration;
use streamshed_control::loop_::LoopConfig;
use streamshed_control::strategy::CtrlStrategy;
use streamshed_engine::shard::ShardConfig;
use streamshed_engine::spans::DEFAULT_SAMPLE_EVERY;
use streamshed_workload::{frame_schedule, PoissonTrace};

/// Nominal per-tuple work, µs.
pub const COST_US: u64 = 10;
/// Headroom factor.
pub const HEADROOM: f64 = 0.97;
/// Delay target, ms.
pub const TARGET_MS: f64 = 250.0;
/// Control period, ms.
pub const PERIOD_MS: u64 = 50;
/// Tuples per frame.
pub const FRAME_TUPLES: usize = 64;
/// Offered load over capacity.
pub const OVERLOAD: f64 = 3.0;

/// Tuples/s one shard retires: `H / cost`.
pub fn capacity_tps() -> f64 {
    HEADROOM * 1e6 / COST_US as f64
}

/// The load: Poisson tuple arrivals at 3× capacity, grouped into
/// 64-tuple frames due when their last tuple arrives.
pub fn load(plan: &Plan) -> Load {
    let total_s = (plan.warmup + plan.window()).as_secs_f64();
    let trace = PoissonTrace::new(OVERLOAD * capacity_tps(), mix(plan.seed, 1));
    let frames = frame_schedule(&trace, total_s, FRAME_TUPLES)
        .into_iter()
        // The trace's tail may leave one short frame; every frame of the
        // class carries the same count.
        .filter(|f| f.tuples as usize == FRAME_TUPLES)
        .map(|f| FrameDue {
            due_ns: f.at_us * 1_000,
            class: 0,
        })
        .collect();
    // One connection when traced, so FIFO order names the frame a door
    // call belongs to.
    let conns = if plan.traced { 1 } else { 2 };
    let class = Class::keyed("frame", FRAME_TUPLES as u32, 256, conns, mix(plan.seed, 2));
    Load {
        classes: vec![class],
        frames,
    }
}

fn engine(plan: &Plan, sink: Option<&SpanSink>) -> SpawnedEngine {
    let cfg = ShardConfig {
        cost: Duration::from_micros(COST_US),
        period: Duration::from_millis(PERIOD_MS),
        target_delay: Duration::from_millis(TARGET_MS as u64),
        headroom: HEADROOM,
        queue_capacity: 131_072,
        sample_every: if plan.traced { 1 } else { DEFAULT_SAMPLE_EVERY },
        ..base_config(mix(plan.seed, 3))
    };
    let loop_cfg = LoopConfig::paper_default()
        .with_target_delay_ms(TARGET_MS)
        .with_period_ms(PERIOD_MS as f64)
        .with_headroom(HEADROOM)
        .with_prior_cost_us(COST_US as f64);
    let strategy = CtrlStrategy::from_config(&loop_cfg);
    if plan.traced {
        let hook = TimedHook::new(strategy, sink.cloned());
        let total = hook.total_ns();
        (spawn_observed(cfg, hook), Some(total))
    } else {
        (spawn_observed(cfg, strategy), None)
    }
}

/// Runs the workload.
pub fn run(plan: &Plan) -> Outcome {
    netload::run(
        &NetWorkload {
            load: &load,
            engine: &engine,
            door_classes: ["frame", "frame"],
            target_ms: Some(TARGET_MS),
        },
        plan,
    )
}
