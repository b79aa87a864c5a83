//! The names this benchmark fixes: workloads, end-to-end metrics (each
//! with unit, direction and regression bound) and per-layer metrics.
//! `BENCHMARK.json` at the repo root declares the same sets; a test
//! holds the two together.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric. `bound` is the share of the parent's median by
/// which an end-to-end metric may worsen; per-layer metrics have none.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Fixed name.
    pub name: &'static str,
    /// Unit of the reported value.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// The four workloads and why each exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "sim_paper",
        "Fig. 12 in virtual time (CTRL/BASELINE/AURORA, Web+Pareto, 16 seeds): sim, operators, control, workload; no ring, shard or net code runs",
    ),
    (
        "inproc_flood",
        "closed-loop offer_batch_keyed_with(256) flood at fixed alpha 0.9 on 1 zero-cost shard: shedder, admission, ring push, worker retire; no net, no control law",
    ),
    (
        "rt_overload_3x",
        "open-loop Poisson load at 3x capacity over TCP into 1 spinning shard under CTRL: the paper's delay contract end to end; worker-bound, so front-door changes stay flat",
    ),
    (
        "net_steady",
        "open-loop sub-capacity bulk keyed 256-tuple and small unkeyed 16-tuple frames over TCP into 2 shards: wire, poll loop, both doors, doorbell; latency and CPU, not saturation",
    ),
];

/// End-to-end metrics: every one is reported, non-zero, on every
/// workload (see the README's cell-by-cell table for what each means
/// where), and gated by its bound.
pub const END_TO_END: [MetricSpec; 7] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.10),
    e2e("ingest_tps", "tuples/s", Higher, 0.25),
    e2e("goodput_tps", "tuples/s", Higher, 0.25),
    e2e("delay_p50_ms", "ms", Lower, 0.20),
    e2e("delay_p90_ms", "ms", Lower, 0.25),
    e2e("server_cpu_ns_per_tuple", "ns", Lower, 0.25),
];

/// Per-layer metrics, layer = module. The first six are end-to-end
/// metrics of the issue that are zero when all is well, exist on one
/// workload only, or do not repeat on the builder's host, kept under
/// their names (see README, "Demoted").
pub const PER_LAYER: [MetricSpec; 55] = [
    layer("failed_share", "ratio", Lower),
    layer("sim_tuples_per_s", "tuples/s", Higher),
    layer("sim_violation_ms_per_tuple", "ms", Lower),
    layer("sim_loss_ratio", "ratio", Lower),
    layer("reply_rtt_p50_ms", "ms", Lower),
    layer("reply_rtt_p90_ms", "ms", Lower),
    layer("workload.web_gen_ns_per_tuple", "ns", Lower),
    layer("workload.schedule_ns_per_frame", "ns", Lower),
    layer("core.ctrl_ns_per_period", "ns", Lower),
    layer("core.supervised_ns_per_period", "ns", Lower),
    layer("core.hook_ns_per_period", "ns", Lower),
    layer("core.alpha_mean", "ratio", Lower),
    layer("core.alpha_std", "ratio", Lower),
    layer("core.track_err_ms", "ms", Lower),
    layer("core.deadline_misses", "count", Lower),
    layer("engine.rng.shed_bernoulli_ns_per_tuple", "ns", Lower),
    layer("engine.rng.shed_skip_ns_per_tuple", "ns", Lower),
    layer("engine.ring.push_pop_ns_per_tuple", "ns", Lower),
    layer("engine.ring.handoff_p50_us", "us", Lower),
    layer("engine.shard.offer_ns_per_tuple", "ns", Lower),
    layer("engine.shard.offer_batch_ns_per_tuple", "ns", Lower),
    layer("engine.shard.offer_keyed_ns_per_tuple", "ns", Lower),
    layer("engine.shard.shed_share", "ratio", Lower),
    layer("engine.shard.rejected_capacity_share", "ratio", Lower),
    layer("engine.worker.retire_ns_per_tuple", "ns", Lower),
    layer("engine.worker.spin_overhead_ns_per_tuple", "ns", Lower),
    layer("engine.worker.execute_p50_us", "us", Lower),
    layer("engine.worker.cost_ewma_us", "us", Lower),
    layer("engine.worker.ring_wait_p50_ms", "ms", Lower),
    layer("engine.worker.delay_p99_ms", "ms", Lower),
    layer("engine.worker.delay_p999_ms", "ms", Lower),
    layer("engine.sim.noshed_ns_per_tuple", "ns", Lower),
    layer("engine.histo.record_ns", "ns", Lower),
    layer("engine.spans.snapshot_us", "us", Lower),
    layer("engine.obs.record_ns_per_period", "ns", Lower),
    layer("engine.obs.observed_over_plain", "ratio", Higher),
    layer("net.wire.encode_ns_per_tuple", "ns", Lower),
    layer("net.wire.decode_ns_per_tuple", "ns", Lower),
    layer("net.wire.reply_codec_ns", "ns", Lower),
    layer("net.server.door_calls", "count", Higher),
    layer("net.server.door_ns_per_tuple", "ns", Lower),
    layer("net.server.door_busy_share", "ratio", Lower),
    layer("net.server.read_ns_per_tuple", "ns", Lower),
    layer("net.server.decode_ns_per_tuple", "ns", Lower),
    layer("net.server.admission_ns_per_tuple", "ns", Lower),
    layer("net.server.reply_ns_per_tuple", "ns", Lower),
    layer("net.server.busy_share", "ratio", Lower),
    layer("net.server.residual_ns_per_tuple", "ns", Lower),
    layer("net.server.bytes_per_read", "bytes", Higher),
    layer("net.server.frames_per_read", "count", Higher),
    layer("driver.lag_p99_us", "us", Lower),
    layer("driver.frames_sent", "count", Higher),
    layer("driver.rtt_bulk_p50_us", "us", Lower),
    layer("driver.rtt_small_p50_us", "us", Lower),
    layer("trace.overhead_pct", "%", Lower),
];

/// The declared run length, seconds (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;
