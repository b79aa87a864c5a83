//! The four workloads, and what the three engine-backed ones share:
//! reading the engine at slice boundaries and turning two boundaries
//! into a slice's goodput and delay percentiles.

pub mod inproc_flood;
pub mod net_steady;
pub mod rt_overload;
pub mod sim_paper;

use crate::stats::{
    diff_quantile, is_net_label, is_shard_label, label_cdf, Cdf, Series, SliceStat,
};
use crate::{Outcome, Plan};
use std::time::{Duration, Instant};
use streamshed_engine::hook::{Decision, PeriodSnapshot};
use streamshed_engine::obs::ObsOptions;
use streamshed_engine::shard::{Dispatch, ShardConfig, ShardReport, ShardedEngine};
use streamshed_engine::telemetry::{ControlTrace, InstrumentedHook};
use streamshed_engine::worker::CostModel;
use streamshed_engine::{ProfileSnapshot, Stage};

/// Runs the workload called `name`.
pub fn run(name: &str, plan: &Plan) -> Option<Outcome> {
    Some(match name {
        "sim_paper" => sim_paper::run(plan),
        "inproc_flood" => inproc_flood::run(plan),
        "rt_overload_3x" => rt_overload::run(plan),
        "net_steady" => net_steady::run(plan),
        _ => return None,
    })
}

/// Whether `name` needs two cores to mean anything (all but the
/// single-threaded virtual-time workload).
pub fn is_wall_clock(name: &str) -> bool {
    name != "sim_paper"
}

/// The observability plane as `serve` ships it: diagnostics and spans
/// on, no HTTP server of its own. The trace ring is sized to keep every
/// control period of a run.
pub fn serve_obs_options(target: Duration) -> ObsOptions {
    ObsOptions {
        http: None,
        trace_capacity: 8192,
        ..ObsOptions::for_target(target)
    }
}

/// The entry drop probability of the two fixed-α workloads (and of the
/// ladder's flooded engines): the 10×-overload operating point.
pub const FIXED_ALPHA: f64 = 0.9;

/// The control hook of a fixed-α engine.
pub fn fixed_alpha(_: &PeriodSnapshot) -> Decision {
    Decision::entry(FIXED_ALPHA)
}

/// What the benchmark's engines have in common — `serve`'s defaults
/// (period 50 ms, target 250 ms, `H = 0.97`, 1-in-64 sojourn sampling)
/// with workers that spin and pin themselves to cores 0.. — for
/// `ShardConfig { …, ..base_config(seed) }`.
pub fn base_config(seed: u64) -> ShardConfig {
    ShardConfig {
        shards: 1,
        cost: Duration::ZERO,
        period: Duration::from_millis(50),
        target_delay: Duration::from_millis(250),
        headroom: 0.97,
        queue_capacity: 65_536,
        panic_on_tuple: None,
        cost_model: CostModel::Spin,
        dispatch: Dispatch::KeyHash,
        seed,
        pin_cores: true,
        sample_every: streamshed_engine::spans::DEFAULT_SAMPLE_EVERY,
    }
}

/// Spawns `cfg` observed the way `serve` does (no HTTP of its own).
pub fn spawn_observed<H>(cfg: ShardConfig, hook: H) -> ShardedEngine
where
    H: InstrumentedHook + Send + 'static,
{
    let options = serve_obs_options(cfg.target_delay);
    ShardedEngine::spawn_observed(cfg, hook, &options)
        .expect("observed spawn without HTTP cannot fail to bind")
}

/// Completed-weighted mean of |y(k) − target| over control periods, ms.
pub fn track_err_ms<'a>(
    periods: impl IntoIterator<Item = &'a ControlTrace>,
    target_ms: f64,
) -> f64 {
    let (mut err, mut n) = (0.0, 0.0);
    for t in periods.into_iter().filter(|t| t.mean_delay_ms.is_finite()) {
        err += (t.mean_delay_ms - target_ms).abs() * t.completed as f64;
        n += t.completed as f64;
    }
    err / f64::max(n, 1.0)
}

/// The engine read at one instant: completed tuples and the span
/// histograms, kept raw so that the read itself stays cheap (it runs on
/// the driver thread, between frames).
pub struct RawBoundary {
    at: Instant,
    completed: u64,
    snap: ProfileSnapshot,
}

/// Reads `engine` (spawned observed) at a slice boundary.
pub fn observe(engine: &ShardedEngine) -> RawBoundary {
    let at = Instant::now();
    let text = engine.prometheus_text();
    let completed = text
        .lines()
        .find_map(|l| l.strip_prefix("streamshed_completed_total "))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .expect("engine exposes streamshed_completed_total") as u64;
    let snap = engine
        .obs()
        .expect("engine is spawned observed")
        .plane
        .spans()
        .snapshot();
    RawBoundary {
        at,
        completed,
        snap,
    }
}

/// A [`RawBoundary`] with its cumulative histograms read out (after the
/// run: reading a histogram through `cumulative_le` takes milliseconds).
pub struct Boundary {
    /// When the read was taken.
    pub at: Instant,
    /// `streamshed_completed_total`.
    pub completed: u64,
    sojourn: Cdf,
    ring_wait: Cdf,
    execute: Cdf,
    /// Listener-label stage histograms, in [`NET_STAGES`] order (empty
    /// without a listener).
    pub net_stages: [Cdf; 4],
}

/// The listener's four stages: socket read, frame decode, the door
/// call, reply encode.
pub const NET_STAGES: [Stage; 4] = [
    Stage::NetRead,
    Stage::Decode,
    Stage::Admission,
    Stage::Reply,
];

impl From<RawBoundary> for Boundary {
    fn from(raw: RawBoundary) -> Self {
        let RawBoundary {
            at,
            completed,
            snap,
        } = raw;
        Boundary {
            at,
            completed,
            sojourn: label_cdf(&snap, Series::Sojourn, is_shard_label),
            ring_wait: label_cdf(&snap, Series::Stage(Stage::RingWait), is_shard_label),
            execute: label_cdf(&snap, Series::Stage(Stage::Execute), is_shard_label),
            net_stages: NET_STAGES.map(|s| label_cdf(&snap, Series::Stage(s), is_net_label)),
        }
    }
}

/// Quantile `q`, in ms, of one cumulative histogram of the boundaries,
/// per slice (0 from no samples when no slice recorded anything).
pub fn slice_quantile_ms(bounds: &[Boundary], series: fn(&Boundary) -> &Cdf, q: f64) -> SliceStat {
    let per_slice: Vec<(f64, u64)> = bounds
        .windows(2)
        .filter_map(|w| {
            let (a, b) = (series(&w[0]), series(&w[1]));
            Some((diff_quantile(a, b, q)? as f64 / 1e6, b.count() - a.count()))
        })
        .collect();
    if per_slice.is_empty() {
        SliceStat::single(0.0, 0)
    } else {
        SliceStat::from_slices(&per_slice)
    }
}

/// Per-slice goodput and delay percentiles from consecutive boundaries,
/// written into `out`; the tail percentiles and stage medians go to the
/// per-layer table.
pub fn engine_slice_metrics(bounds: &[Boundary], out: &mut Outcome) {
    let goodput: Vec<(f64, u64)> = bounds
        .windows(2)
        .map(|w| {
            let n = w[1].completed - w[0].completed;
            (n as f64 / (w[1].at - w[0].at).as_secs_f64(), n)
        })
        .collect();
    out.e2e
        .insert("goodput_tps", SliceStat::from_slices(&goodput));
    let delay_ms = |q: f64| slice_quantile_ms(bounds, |b| &b.sojourn, q);
    out.e2e.insert("delay_p50_ms", delay_ms(0.5));
    out.e2e.insert("delay_p90_ms", delay_ms(0.9));
    out.layer
        .insert("engine.worker.delay_p99_ms", delay_ms(0.99).median);
    out.layer
        .insert("engine.worker.delay_p999_ms", delay_ms(0.999).median);
    let (first, last) = (&bounds[0], &bounds[bounds.len() - 1]);
    let whole = |a: &Cdf, b: &Cdf, unit_ns: f64| {
        diff_quantile(a, b, 0.5).map_or(0.0, |ns| ns as f64 / unit_ns)
    };
    out.layer.insert(
        "engine.worker.ring_wait_p50_ms",
        whole(&first.ring_wait, &last.ring_wait, 1e6),
    );
    out.layer.insert(
        "engine.worker.execute_p50_us",
        whole(&first.execute, &last.execute, 1e3),
    );
}

/// Per-layer values read off the final report and the control-period
/// records that fell inside the measured window.
pub fn engine_report_metrics(report: &ShardReport, periods: &[ControlTrace], out: &mut Outcome) {
    let offered = report.offered.max(1) as f64;
    out.layer.insert(
        "engine.shard.shed_share",
        report.dropped_entry as f64 / offered,
    );
    out.layer.insert(
        "engine.shard.rejected_capacity_share",
        report.rejected_at_capacity as f64 / offered,
    );
    out.layer
        .insert("core.deadline_misses", report.deadline_misses as f64);
    let costs: Vec<f64> = report
        .per_shard
        .iter()
        .map(|s| s.cost_ewma_us)
        .filter(|c| c.is_finite())
        .collect();
    if !costs.is_empty() {
        out.layer.insert(
            "engine.worker.cost_ewma_us",
            costs.iter().sum::<f64>() / costs.len() as f64,
        );
    }
    if periods.is_empty() {
        return;
    }
    let n = periods.len() as f64;
    let mean = |f: &dyn Fn(&ControlTrace) -> f64| periods.iter().map(f).sum::<f64>() / n;
    let alpha = mean(&|t| t.alpha);
    out.layer
        .insert("core.hook_ns_per_period", mean(&|t| t.hook_ns as f64));
    out.layer.insert("core.alpha_mean", alpha);
    out.layer.insert(
        "core.alpha_std",
        mean(&|t| (t.alpha - alpha).powi(2)).sqrt(),
    );
}

/// The control-period records of the measured window: those stamped
/// between `from` and `to` seconds after the engine started.
pub fn window_periods(engine: &ShardedEngine, from: f64, to: f64) -> Vec<ControlTrace> {
    let plane = &engine.obs().expect("engine is spawned observed").plane;
    plane
        .recorder()
        .snapshot()
        .into_iter()
        .filter(|t| t.time_s >= from && t.time_s <= to)
        .collect()
}
