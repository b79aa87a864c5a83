//! The real-time (wall-clock) data plane: `N` worker shards under one
//! global controller.
//!
//! The paper's evaluation runs on the real Borealis engine; the virtual
//! time [`Simulator`](crate::sim::Simulator) replaces it for
//! reproducibility. This module shows the same control loop driving a
//! *real* threaded pipeline, and it is the only wall-clock engine: a
//! single-worker pipeline is `shards: 1`, not a separate type. Each
//! shard owns a bounded lock-free ingress ring ([`SpscRing`]), a
//! supervised worker (panic-catch-and-restart, see
//! [`worker`](crate::worker)), a busy-time counter (the raw material
//! of its cost model), and local drop counters. A shared [`ShardedEngine::offer`]
//! front door dispatches tuples round-robin or by key hash through one
//! entry shedder ([`AtomicShedder`]), so admission control is one
//! decision regardless of shard count.
//!
//! The pipeline is hardened against the faults a real deployment sees:
//! arrivals beyond a ring's capacity are rejected into their own
//! `rejected_capacity` bucket (backpressure instead of unbounded memory
//! growth); a panicking worker is caught and restarted in place, losing
//! only the tuple it was processing; and the controller thread counts
//! **deadline misses** — period boundaries serviced more than half a
//! period late, e.g. because the hook itself overran. The controller
//! sleeps to an absolute grid `start + k·T` (`PeriodGrid`), so hook
//! time and wake latency do not accumulate into drift.
//!
//! **Batch-first ingress.** [`ShardedEngine::offer_batch`] (and its
//! keyed sibling [`ShardedEngine::offer_batch_keyed`]) admit up to 1024
//! tuples per internal chunk with one entry-shedder pass (the shedder's
//! counter is loaded once per chunk and its draws are mutually
//! independent), one timestamp, one routing resolution, and one ring
//! reservation per target shard. The per-tuple [`ShardedEngine::offer`]
//! is a batch of one through the same door.
//!
//! **One controller suffices.** Per the paper's §4.2, the plant
//! `G(z) = cT/(H(z−1))` models the *aggregate* system: the path
//! structure of the query network (and, here, its partitioning across
//! workers) only changes the constant `c`. The controller therefore
//! observes the global virtual-queue signal `q(k) = Σᵢ qᵢ(k)` — the sum
//! of per-shard queue lengths — runs the unchanged pole-placement loop,
//! and broadcasts a single output: one entry drop probability `α(k)`
//! applied at the shared front door, plus an in-queue shed load divided
//! among shards in proportion to their queue lengths (each shard's
//! share is converted to tuples through that shard's own measured cost).
//! This is the paper's per-node shedder with a global coordinator.
//!
//! **The cost model.** `c(k)` is measured, not configured, and it is the
//! quantity the simulator reports in virtual time: per control period,
//! worker busy time over tuples retired, `c(k) = H·ΣΔbusyᵢ/ΣΔcompletedᵢ`
//! (the controller's private `CostMeter`; [`worker`](crate::worker) says what
//! `busy` covers). The sum over shards weights each by its completions;
//! a period that retired nothing reports `measured_cost_us: None` and
//! holds the last value, and so does one that retired too little to
//! say anything about the operator — its busy time and retirements
//! carry into the next sample instead; the nominal `cfg.cost` stands in
//! before the first one. The engine does not smooth it — the control
//! strategy's cost tracker does, once.
//!
//! Counter balance is an invariant, not an aspiration — the stress tests
//! assert, under concurrent offers, worker panics, and shutdown:
//!
//! ```text
//! offered == dropped_entry + rejected_capacity + rejected_closed + Σᵢ pushedᵢ
//! Σᵢ pushedᵢ == completed + dropped_shed + worker_panics   (drained)
//! ```
//!
//! **Who writes what.** The front door writes the global buckets and no
//! per-shard counter: what it pushed to shard `i` is that ring's own
//! reservation counter, `pushedᵢ` = [`SpscRing::pushed`] (reported as
//! `dispatched`), which ring sequences count in tuples. The controller
//! writes the per-shard cost slot; the worker writes everything else in
//! [`WorkerStats`], so an offer never touches the lines a worker retires
//! into. `offered` and the three other buckets are counted apart from
//! the rings, so the first line above is a real check. A shard's queue
//! length is not stored anywhere: it is derived, `qᵢ = pushedᵢ −
//! processedᵢ` ([`WorkerStats::queue_len`]), which is what the
//! controller, `/metrics` and [`ShardedEngine::queue_len`] read.
//!
//! The four front-door buckets are disjoint: `dropped_entry` counts
//! *only* entry-shedder (α) drops, `rejected_capacity` counts arrivals
//! refused because the target shard's ring was full, `rejected_closed`
//! counts arrivals after close, and every caught worker panic loses
//! exactly the tuple being processed. (See DESIGN.md "The counter
//! ledger" — earlier revisions double-counted capacity rejections into
//! `dropped_entry`.)

use crate::diagnostics::{ControllerHealth, DiagnosticsConfig, SharedDiagnostics};
use crate::hook::{PeriodLedger, PeriodSnapshot};
use crate::obs::{MetricsFn, ObsHandle, ObsOptions, ObsPlane, ObsServer};
use crate::ring::{Push, SpscRing};
use crate::rng::{mix64, AtomicShedder};
use crate::telemetry::{
    control_step, EventSink, InstrumentedHook, MetricKind, PromText, SharedRecorder,
};
use crate::time::{SimDuration, SimTime};
use crate::worker::{spawn_supervised, CostModel, WorkerConfig, WorkerStats};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Maximum tuples admitted per internal chunk of a batched offer: one
/// shed pass, one timestamp, and one routing resolution cover at most
/// this many arrivals.
pub const OFFER_BATCH_MAX: usize = 1024;

/// How the front door routes an admitted tuple to a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Dispatch {
    /// Rotation over shards — the best load balance when tuples are
    /// exchangeable. When `shards` is a power of two the rotation is
    /// strict (a mask of the arrival sequence, exact even across
    /// `u64::MAX` wraparound); otherwise the sequence is bit-mixed to a
    /// uniform shard choice, since a plain `seq % shards` would skew
    /// dispatch at wraparound.
    #[default]
    RoundRobin,
    /// Route by key hash, so equal keys always land on the same shard
    /// (what a partitioned-state operator needs). [`ShardedEngine::offer`]
    /// without an explicit key uses the arrival sequence number as the
    /// key; [`ShardedEngine::offer_keyed`] always hashes its argument.
    KeyHash,
}

/// Configuration of the sharded data plane.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of worker shards (≥ 1).
    pub shards: usize,
    /// Nominal CPU work per tuple.
    pub cost: Duration,
    /// Control period of the global controller.
    pub period: Duration,
    /// Delay target for violation accounting.
    pub target_delay: Duration,
    /// Headroom factor `H` applied by every shard.
    pub headroom: f64,
    /// Capacity of each shard's bounded queue.
    pub queue_capacity: usize,
    /// Fault injection: every shard panics while processing its n-th
    /// local tuple (1-based). Each panic is caught, the shard restarted,
    /// and exactly one tuple lost.
    pub panic_on_tuple: Option<u64>,
    /// How shards burn the per-tuple service time ([`CostModel::Sleep`]
    /// overlaps on one core; [`CostModel::Spin`] scales with cores).
    pub cost_model: CostModel,
    /// Front-door routing policy.
    pub dispatch: Dispatch,
    /// Seed of the front-door entry-shedder RNG, so shedding decisions
    /// replay exactly for a given seed (wall-clock pacing still varies
    /// between runs). [`ShardConfig::DEFAULT_SEED`] preserves the
    /// historical stream.
    pub seed: u64,
    /// Pin each shard worker to CPU `shard_index % host_cores` (best
    /// effort, Linux only; a failed pin is ignored). Off by default —
    /// pinning helps steady multicore throughput but hurts on
    /// oversubscribed or single-core hosts.
    pub pin_cores: bool,
    /// Sojourn sampling rate for the latency truth plane: roughly every
    /// Nth admitted tuple carries a span mark the worker closes at
    /// retirement ([`spans`](crate::spans)). `0` disables sampling;
    /// sampling only records when the engine is spawned observed.
    pub sample_every: u32,
}

impl ShardConfig {
    /// The entry-shedder seed used before seeds became configurable.
    pub const DEFAULT_SEED: u64 = 0xA076_1D64_78BD_642F;

    /// A fast demo configuration (2 ms tuples, 100 ms period, 200 ms
    /// target) at `shards` shards.
    pub fn demo(shards: usize) -> Self {
        Self {
            shards,
            cost: Duration::from_millis(2),
            period: Duration::from_millis(100),
            target_delay: Duration::from_millis(200),
            headroom: 0.97,
            queue_capacity: 4096,
            panic_on_tuple: None,
            cost_model: CostModel::Sleep,
            dispatch: Dispatch::RoundRobin,
            seed: Self::DEFAULT_SEED,
            pin_cores: false,
            sample_every: crate::spans::DEFAULT_SAMPLE_EVERY,
        }
    }
}

/// One shard: its worker stats, its lock-free ingress ring, and its
/// supervisor handle.
struct Shard {
    /// `Arc` so the controller thread and the `/metrics` closure can
    /// read the counters without borrowing the engine.
    stats: Arc<WorkerStats>,
    /// Bounded lock-free mailbox. Closing it freezes its `tail`, which
    /// makes close-vs-offer race-free: after [`SpscRing::close`] returns,
    /// no offer can sneak a tuple into a queue nobody will drain (pushes
    /// that reserved before it are drained by the worker), so the
    /// balance invariant is exact.
    ring: Arc<SpscRing>,
    handle: Option<JoinHandle<()>>,
}

/// Front-door and controller counters shared across threads.
struct Global {
    alpha_bits: AtomicU64,
    offered: AtomicU64,
    dropped_entry: AtomicU64,
    rejected_capacity: AtomicU64,
    rejected_closed: AtomicU64,
    deadline_misses: AtomicU64,
    periods: AtomicU64,
    hook_ns_total: AtomicU64,
    rr_next: AtomicU64,
    stop: AtomicBool,
    shedder: AtomicShedder,
}

impl Global {
    fn new(seed: u64) -> Self {
        Self {
            alpha_bits: AtomicU64::new(0.0f64.to_bits()),
            offered: AtomicU64::new(0),
            dropped_entry: AtomicU64::new(0),
            rejected_capacity: AtomicU64::new(0),
            rejected_closed: AtomicU64::new(0),
            deadline_misses: AtomicU64::new(0),
            periods: AtomicU64::new(0),
            hook_ns_total: AtomicU64::new(0),
            rr_next: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            shedder: AtomicShedder::new(seed),
        }
    }

    fn alpha(&self) -> f64 {
        f64::from_bits(self.alpha_bits.load(Ordering::Relaxed))
    }
}

/// Fibonacci hash of a dispatch key onto a shard index: the multiply
/// spreads the key over its top 32 bits, and those, read as a fraction
/// of 2³², are scaled to `0..shards` by a second multiply and a shift —
/// no division, which at one call per admitted tuple was the survivor
/// loop's longest instruction. Always `< shards`; consecutive integers
/// (what `offer_batch` feeds it under [`Dispatch::KeyHash`]) land as
/// evenly as hashed keys do.
#[inline]
fn key_to_shard(key: u64, shards: usize) -> usize {
    let h32 = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
    ((h32 * shards as u64) >> 32) as usize
}

/// Per-shard admit counts of one batched offer are scratch the door
/// needs on every call; up to this many shards they live on the stack.
const STACK_SHARDS: usize = 32;

/// Runs `f` over a zeroed per-shard count scratch of `shards` entries —
/// a stack array in the common case, heap only above [`STACK_SHARDS`].
#[inline]
fn with_shard_counts<R>(shards: usize, f: impl FnOnce(&mut [u64]) -> R) -> R {
    let mut stack = [0u64; STACK_SHARDS];
    match stack.get_mut(..shards) {
        Some(counts) => f(counts),
        None => f(&mut vec![0u64; shards]),
    }
}

/// The controller's sampling grid: period `k` is due at `start + k·T`
/// regardless of how long earlier periods' work or wake-ups took (the
/// control design assumes a fixed sampling period; sleeping `T` per
/// iteration would stretch it by the hook time and the wake latency,
/// cumulatively).
struct PeriodGrid {
    period: Duration,
    due: Instant,
}

impl PeriodGrid {
    fn new(start: Instant, period: Duration) -> Self {
        Self {
            period,
            due: start + period,
        }
    }

    /// How long to sleep from `now` until the next boundary is due.
    fn until_due(&self, now: Instant) -> Duration {
        self.due.saturating_duration_since(now)
    }

    /// Accounts for the boundary serviced at `woke` and schedules the
    /// next one; `true` means a deadline miss (more than `T/2` late). A
    /// miss re-anchors the grid at `woke`, so an overrun is paid once
    /// instead of being chased by a burst of zero-length periods.
    fn tick(&mut self, woke: Instant) -> bool {
        let missed = woke.saturating_duration_since(self.due) > self.period / 2;
        if missed {
            self.due = woke;
        }
        self.due += self.period;
        missed
    }
}

/// Round-robin routing of arrival sequence `seq` onto a shard. A power
/// of two shard count masks the sequence directly — strict rotation,
/// exact across `u64::MAX` wraparound because a power of two divides
/// 2⁶⁴. Any other count bit-mixes the sequence first: `seq % shards`
/// would be near-rotational but skewed at wraparound (2⁶⁴ mod 3 ≠ 0),
/// while the mix gives uniform wrap-safe dispatch.
#[inline]
fn rr_to_shard(seq: u64, shards: usize) -> usize {
    let n = shards as u64;
    if n.is_power_of_two() {
        (seq & (n - 1)) as usize
    } else {
        (mix64(seq) % n) as usize
    }
}

/// Outcome of one batched offer: how the batch's arrivals split across
/// the front-door ledger. `offered` always equals
/// `dispatched + dropped_entry + rejected_capacity + rejected_closed`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchResult {
    /// Arrivals presented (the batch size).
    pub offered: u64,
    /// Arrivals admitted and enqueued on some shard.
    pub dispatched: u64,
    /// Arrivals dropped by the entry shedder (α decisions).
    pub dropped_entry: u64,
    /// Arrivals rejected because the target shard's ring was full.
    pub rejected_capacity: u64,
    /// Arrivals rejected because the engine was closed.
    pub rejected_closed: u64,
}

impl BatchResult {
    /// Folds another batch outcome into this one.
    pub fn merge(&mut self, o: &BatchResult) {
        self.offered += o.offered;
        self.dispatched += o.dispatched;
        self.dropped_entry += o.dropped_entry;
        self.rejected_capacity += o.rejected_capacity;
        self.rejected_closed += o.rejected_closed;
    }
}

/// Per-shard slice of a [`ShardReport`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardStat {
    /// Tuples dispatched to this shard's queue.
    pub dispatched: u64,
    /// Tuples this shard fully processed.
    pub completed: u64,
    /// Tuples this shard dropped by consuming shed budget.
    pub dropped_shed: u64,
    /// Panics this shard's supervisor caught (one tuple lost each).
    pub worker_panics: u64,
    /// Mean delay of this shard's completions, ms.
    pub mean_delay_ms: f64,
    /// The shard's measured per-tuple cost, µs: `H·Δbusy/Δcompleted` of
    /// the last control period in which it retired a tuple (`NaN` if no
    /// period boundary ever saw a completion). Not an EWMA since the
    /// controller derives it; the name is kept for its readers.
    pub cost_ewma_us: f64,
}

/// Final report of a sharded run.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReport {
    /// Tuples offered at the front door.
    pub offered: u64,
    /// Tuples dropped by the entry shedder (α decisions only; disjoint
    /// from the rejection buckets below).
    pub dropped_entry: u64,
    /// Arrivals rejected because the target shard's queue was full.
    pub rejected_at_capacity: u64,
    /// Arrivals rejected because the engine was closed or shut down.
    pub rejected_closed: u64,
    /// Tuples dropped across shards by in-queue shedding.
    pub dropped_shed: u64,
    /// Tuples fully processed across shards.
    pub completed: u64,
    /// Worker panics caught across shards.
    pub worker_panics: u64,
    /// Control-period boundaries serviced more than T/2 late.
    pub deadline_misses: u64,
    /// Control-hook invocations.
    pub periods: u64,
    /// Mean delay across all completed tuples, ms.
    pub mean_delay_ms: f64,
    /// Largest delay any shard observed, ms.
    pub max_delay_ms: f64,
    /// Completed tuples whose delay exceeded the target.
    pub delayed_tuples: u64,
    /// Σ (delay − target)⁺ over completed tuples, ms.
    pub accumulated_violation_ms: f64,
    /// Per-shard breakdown, indexed by shard id.
    pub per_shard: Vec<ShardStat>,
}

impl ShardReport {
    /// The exact counter-balance invariant; `true` when every offered
    /// tuple is accounted for in exactly one outcome. Valid after
    /// shutdown (queues drained).
    pub fn counters_balance(&self) -> bool {
        let dispatched: u64 = self.per_shard.iter().map(|s| s.dispatched).sum();
        self.offered
            == self.dropped_entry + self.rejected_at_capacity + self.rejected_closed + dispatched
            && dispatched == self.completed + self.dropped_shed + self.worker_panics
    }

    /// Data loss ratio: everything the running system failed to process
    /// — entry-shedder drops, capacity rejections, and in-queue shedding
    /// — over everything offered. (Closed-door rejections are excluded:
    /// they are shutdown artifacts, not load shedding.)
    pub fn loss_ratio(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            (self.dropped_entry + self.rejected_at_capacity + self.dropped_shed) as f64
                / self.offered as f64
        }
    }
}

/// Handle for feeding tuples into a running sharded engine.
pub struct ShardedEngine {
    global: Arc<Global>,
    shards: Vec<Shard>,
    controller: Option<JoinHandle<()>>,
    cfg: ShardConfig,
    obs: Option<ObsHandle>,
    /// Shared time origin of every shard ring, so one batched timestamp
    /// serves all shards.
    epoch: Instant,
}

impl ShardedEngine {
    /// Spawns `cfg.shards` supervised workers plus one global controller
    /// thread driving `hook`.
    pub fn spawn<H>(cfg: ShardConfig, hook: H) -> Self
    where
        H: InstrumentedHook + Send + 'static,
    {
        Self::spawn_recorded(cfg, hook, None)
    }

    /// Like [`Self::spawn`], additionally capturing one
    /// [`ControlTrace`](crate::telemetry::ControlTrace) per control
    /// period (with per-shard queue lengths attached) into `recorder`.
    pub fn spawn_recorded<H>(
        cfg: ShardConfig,
        hook: H,
        recorder: Option<SharedRecorder>,
    ) -> Self
    where
        H: InstrumentedHook + Send + 'static,
    {
        Self::spawn_sink(cfg, hook, recorder, None)
    }

    /// Spawns the engine with the live observability plane attached: the
    /// per-period [`ControlTrace`](crate::telemetry::ControlTrace) stream
    /// (with per-shard queue lengths) feeds an [`ObsPlane`] — trace ring,
    /// optional anomaly flight recorder — which also serves the loop's
    /// health classifier; when `options.http` is set, an HTTP server
    /// answers `/metrics`, `/health`, `/ready` and `/trace` for this
    /// engine. Fails only if the HTTP bind fails.
    pub fn spawn_observed<H>(
        cfg: ShardConfig,
        hook: H,
        options: &ObsOptions,
    ) -> std::io::Result<Self>
    where
        H: InstrumentedHook + Send + 'static,
    {
        // The loop's one classifier: the controller feeds it, the plane serves it.
        let health = SharedDiagnostics::new(ControllerHealth::new(DiagnosticsConfig::for_target(
            cfg.target_delay,
        )));
        let mut plane = ObsPlane::new(options);
        plane.health = Some(health);
        let mut engine = Self::spawn_sink(cfg, hook, Some(plane.clone()), Some(&plane));
        let server = match &options.http {
            Some(addr) => {
                let metrics = metrics_fn(&engine, Some(plane.clone()));
                Some(ObsServer::start(addr, plane.clone(), metrics)?)
            }
            None => None,
        };
        engine.obs = Some(ObsHandle::from_parts(plane, server));
        Ok(engine)
    }

    /// A `/metrics` renderer over this engine's live counters — the same
    /// closure [`spawn_observed`](Self::spawn_observed) hands its HTTP
    /// server, exposed so an external front end (e.g. the network
    /// ingestion plane) can serve the engine's `streamshed_*` families
    /// from its own listener. Includes the diagnostics families when the
    /// engine was spawned with an observability plane attached. The closure captures only
    /// `Arc`s, so it stays valid for the engine's whole lifetime.
    pub fn metrics_fn(&self) -> MetricsFn {
        metrics_fn(self, self.obs.as_ref().map(|o| o.plane.clone()))
    }

    /// The observability attachment, when spawned via
    /// [`ShardedEngine::spawn_observed`].
    pub fn obs(&self) -> Option<&ObsHandle> {
        self.obs.as_ref()
    }

    /// The shared implementation: spawns workers plus the global
    /// controller, recording each period's trace into `sink` when given.
    /// An observed engine's `plane` holds span slots and the classifier.
    fn spawn_sink<H, S>(
        cfg: ShardConfig,
        mut hook: H,
        sink: Option<S>,
        plane: Option<&ObsPlane>,
    ) -> Self
    where
        H: InstrumentedHook + Send + 'static,
        S: EventSink + Send + 'static,
    {
        assert!(cfg.shards >= 1, "need at least one shard");
        assert!(cfg.headroom > 0.0 && cfg.headroom <= 1.0);
        assert!(cfg.queue_capacity > 0, "queue capacity must be positive");
        // Sampling marks are only closed by span-carrying workers, so a
        // plain (unobserved) engine disables them and pays nothing.
        let mut cfg = cfg;
        if plane.is_none() {
            cfg.sample_every = 0;
        }
        let spans = plane.map(ObsPlane::spans);
        // The loop's one classifier (an observed engine's plane serves
        // it), locked only for each verdict, never while the hook runs.
        let health = plane.and_then(|p| p.health.clone()).unwrap_or_else(|| {
            SharedDiagnostics::new(ControllerHealth::new(DiagnosticsConfig::for_target(
                cfg.target_delay,
            )))
        });
        let global = Arc::new(Global::new(cfg.seed));
        let epoch = Instant::now();
        let cores = crate::affinity::host_cores();
        let shards: Vec<Shard> = (0..cfg.shards)
            .map(|i| {
                let stats = Arc::new(WorkerStats::new());
                let ring = Arc::new(SpscRing::with_epoch(cfg.queue_capacity, epoch));
                let handle = spawn_supervised(
                    Arc::clone(&stats),
                    Arc::clone(&ring),
                    WorkerConfig {
                        cost: cfg.cost,
                        headroom: cfg.headroom,
                        target_delay: cfg.target_delay,
                        panic_on_tuple: cfg.panic_on_tuple,
                        cost_model: cfg.cost_model,
                        pin_core: cfg.pin_cores.then_some(i % cores),
                        spans: spans.map(|r| r.handle(&i.to_string())),
                    },
                    format!("shard-{i}"),
                );
                Shard {
                    stats,
                    ring,
                    handle: Some(handle),
                }
            })
            .collect();

        let controller = {
            let global = Arc::clone(&global);
            let stats: Vec<Arc<WorkerStats>> =
                shards.iter().map(|s| Arc::clone(&s.stats)).collect();
            let rings: Vec<Arc<SpscRing>> = shards.iter().map(|s| Arc::clone(&s.ring)).collect();
            let cfg = cfg.clone();
            let mut sink = sink;
            let spawned = std::thread::Builder::new().name("controller".into()).spawn(move || {
                let start = Instant::now();
                let mut grid = PeriodGrid::new(start, cfg.period);
                let mut k = 0u64;
                let mut last = PeriodLedger::default();
                let mut cost =
                    CostMeter::new(cfg.shards, cfg.headroom, cfg.cost.as_micros() as f64);
                let mut queues = vec![0u64; cfg.shards];
                while !global.stop.load(Ordering::Relaxed) {
                    std::thread::sleep(grid.until_due(Instant::now()));
                    if grid.tick(Instant::now()) {
                        global.deadline_misses.fetch_add(1, Ordering::Relaxed);
                    }

                    // Monitor: the global virtual-queue signal is the sum
                    // of per-shard queue lengths, q(k) = Σ qᵢ(k).
                    for ((q, st), ring) in queues.iter_mut().zip(&stats).zip(&rings) {
                        *q = st.queue_len(ring);
                    }
                    let q_total: u64 = queues.iter().sum();
                    let now = ledger_reading(&global, &stats);
                    let delta = now.since(&last);
                    last = now;

                    // Cost model: c(k) = H·ΣΔbusy/ΣΔcompleted (held while
                    // too little was retired to form a sample, nominal
                    // before the first one). The same reading of each
                    // shard's counters is the period's `completed`.
                    let period_cost = cost.observe(stats.iter().map(|st| {
                        (
                            st.busy_ns.load(Ordering::Relaxed),
                            st.completed.load(Ordering::Relaxed),
                        )
                    }));
                    for (st, &c) in stats.iter().zip(&cost.shard_us) {
                        st.cost_ewma_bits.store(c.to_bits(), Ordering::Relaxed);
                    }
                    // The *plant* constant the controller must see is the
                    // aggregate per-tuple cost: N shards drain the global
                    // queue concurrently, so one queued tuple holds the
                    // system for c/N wall-clock (the paper's §4.2 — the
                    // plant structure only changes the constant c). The
                    // undivided local cost is still what a shard's shed
                    // budget must use below.
                    let plant_cost_us = cost.cost_us / cfg.shards as f64;

                    let ledger = PeriodLedger {
                        completed: period_cost.completed,
                        cpu_busy_us: period_cost.busy_us,
                        ..delta
                    };
                    let snapshot = PeriodSnapshot::from_ledger(
                        k,
                        SimTime(start.elapsed().as_micros() as u64),
                        SimDuration(cfg.period.as_micros() as u64),
                        &ledger,
                        q_total,
                        q_total,
                        q_total as f64 * plant_cost_us,
                        period_cost.measured.then_some(plant_cost_us),
                    );

                    let (decision, trace) =
                        control_step(&mut hook, &snapshot, |t, yd| health.lock().judge(t, yd));
                    global
                        .hook_ns_total
                        .fetch_add(trace.hook_ns, Ordering::Relaxed);
                    global.periods.fetch_add(1, Ordering::Relaxed);

                    // Actuate: one α broadcast to the shared front door…
                    let alpha = decision.alpha();
                    global.alpha_bits.store(alpha.to_bits(), Ordering::Relaxed);
                    // …and the in-queue shed load divided among shards in
                    // proportion to their queues, each share converted to
                    // tuples through that shard's own measured cost.
                    if decision.shed_load_us > 0.0 && q_total > 0 {
                        for (i, st) in stats.iter().enumerate() {
                            if queues[i] == 0 {
                                continue;
                            }
                            let share =
                                decision.shed_load_us * queues[i] as f64 / q_total as f64;
                            let local_cost = match cost.shard_us[i] {
                                c if c.is_finite() => c,
                                _ => cfg.cost.as_micros() as f64,
                            };
                            let tuples = (share / local_cost).ceil() as u64;
                            if tuples > 0 {
                                st.shed_budget.fetch_add(tuples, Ordering::Relaxed);
                            }
                        }
                    }

                    if let Some(rec) = sink.as_mut() {
                        rec.record(&trace.with_shard_queues(&queues));
                    }
                    k += 1;
                }
            });
            spawned.expect("spawn controller")
        };

        Self {
            global,
            shards,
            controller: Some(controller),
            cfg,
            obs: None,
            epoch,
        }
    }

    /// Offers one tuple through the configured [`Dispatch`] policy: a
    /// batch of one. Returns `false` if the entry shedder dropped it,
    /// the target shard's queue was full, or the engine is closed.
    pub fn offer(&self) -> bool {
        self.offer_batch(1).dispatched == 1
    }

    /// Offers one tuple routed by `key` (equal keys always reach the
    /// same shard), regardless of the configured dispatch policy.
    pub fn offer_keyed(&self, key: u64) -> bool {
        self.offer_batch_keyed_with(1, |_| key).dispatched == 1
    }

    /// Offers `n` anonymous tuples in one batched admission. Internally
    /// chunked at [`OFFER_BATCH_MAX`]; each chunk costs one entry-shedder
    /// pass (the counter is register-local for the whole chunk), one
    /// timestamp, and one ring reservation per target shard. The α
    /// decisions are identical to `n` calls of [`offer`](Self::offer)
    /// from the same shedder state.
    pub fn offer_batch(&self, n: usize) -> BatchResult {
        let shards = self.cfg.shards;
        let g = &self.global;
        self.offer_chunks(n, |alpha, _, len, counts| {
            let drops = g.shedder.shed_batch(alpha, len as u64);
            let admit = len as u64 - drops;
            if admit == 0 {
                return drops;
            }
            // One routing resolution for the whole chunk: survivors
            // take consecutive arrival sequence numbers.
            let seq0 = g.rr_next.fetch_add(admit, Ordering::Relaxed);
            match self.cfg.dispatch {
                Dispatch::RoundRobin if (shards as u64).is_power_of_two() => {
                    // Closed-form strict rotation: shard
                    // (seq0 + k) & mask for k in 0..admit.
                    let base = admit / shards as u64;
                    let extra = admit % shards as u64;
                    let start = rr_to_shard(seq0, shards) as u64;
                    for (i, c) in counts.iter_mut().enumerate() {
                        let offset = (i as u64 + shards as u64 - start) % shards as u64;
                        *c = base + u64::from(offset < extra);
                    }
                }
                Dispatch::RoundRobin => {
                    for k in 0..admit {
                        counts[rr_to_shard(seq0.wrapping_add(k), shards)] += 1;
                    }
                }
                Dispatch::KeyHash => {
                    for k in 0..admit {
                        counts[key_to_shard(seq0.wrapping_add(k), shards)] += 1;
                    }
                }
            }
            drops
        })
    }

    /// Offers one keyed tuple per element of `keys` in one batched
    /// admission: equal keys always reach the same shard (sticky-batch
    /// dispatch — the batch is grouped by target shard with one hash per
    /// key and one grouping pass, then pushed as per-shard sub-batches).
    /// Entry-shedder decisions are per arrival, exactly as
    /// [`offer_keyed`](Self::offer_keyed) would have made them.
    pub fn offer_batch_keyed(&self, keys: &[u64]) -> BatchResult {
        self.offer_batch_keyed_with(keys.len(), |i| keys[i])
    }

    /// Keyed batch admission with *lazy* key materialization: `key_at(i)`
    /// is called only for arrivals the entry shedder admits, and only
    /// where there is a shard to choose: a one-shard engine reads no key
    /// at all, and costs what [`offer_batch`](Self::offer_batch) costs.
    /// This is the network plane's shed-before-decode seam — a frame of
    /// `n` keys can be admitted straight out of the receive buffer, and
    /// keys the shedder drops are never decoded at all (under heavy
    /// shedding a frame costs one header read plus one shedder pass).
    /// Semantics are otherwise identical to
    /// [`offer_batch_keyed`](Self::offer_batch_keyed): per-arrival
    /// decisions in index order, sticky key→shard routing, one grouping
    /// pass and one ring reservation per target shard.
    pub fn offer_batch_keyed_with<F>(&self, n: usize, mut key_at: F) -> BatchResult
    where
        F: FnMut(usize) -> u64,
    {
        let shards = self.cfg.shards;
        let shedder = &self.global.shedder;
        self.offer_chunks(n, |alpha, base, len, counts| {
            shedder.shed_batch_each(alpha, len as u64, |i| {
                counts[key_to_shard(key_at(base + i), shards)] += 1;
            })
        })
    }

    /// The chunk loop both batch doors share: per chunk of at most
    /// [`OFFER_BATCH_MAX`] arrivals from index `base`, count the chunk
    /// offered, let `route(alpha, base, len, counts)` run the shed pass
    /// and fill the zeroed per-shard admit counts (returning the drops),
    /// and push the counts. A one-shard engine skips `route`: its
    /// survivors all go to shard 0, so the count-only shed pass is the
    /// whole routing, with no sequence, key or grouping pass. The coins
    /// drawn are the same either way.
    #[inline]
    fn offer_chunks(
        &self,
        n: usize,
        mut route: impl FnMut(f64, usize, usize, &mut [u64]) -> u64,
    ) -> BatchResult {
        let g = &self.global;
        with_shard_counts(self.cfg.shards, |counts| {
            let mut res = BatchResult::default();
            let mut base = 0usize;
            while base < n {
                let len = (n - base).min(OFFER_BATCH_MAX);
                g.offered.fetch_add(len as u64, Ordering::Relaxed);
                res.offered += len as u64;
                let alpha = g.alpha();
                let drops = if let [only] = counts {
                    let drops = g.shedder.shed_batch(alpha, len as u64);
                    *only = len as u64 - drops;
                    drops
                } else {
                    counts.fill(0);
                    route(alpha, base, len, counts)
                };
                if drops > 0 {
                    g.dropped_entry.fetch_add(drops, Ordering::Relaxed);
                    res.dropped_entry += drops;
                }
                self.push_counts(counts, &mut res);
                base += len;
            }
            res
        })
    }

    /// Pushes `counts[i]` tuples to shard `i` in one reservation each,
    /// folding outcomes into `res`. One timestamp serves the whole call
    /// (all rings share the engine epoch), so a shard's tuples travel as
    /// at most two runs per 256: the sampled head and the rest.
    fn push_counts(&self, counts: &[u64], res: &mut BatchResult) {
        let mut stamp = None;
        let every = self.cfg.sample_every;
        for (shard, &want) in self.shards.iter().zip(counts) {
            if want == 0 {
                continue;
            }
            let stamp = *stamp.get_or_insert_with(|| {
                self.epoch.elapsed().as_nanos() as u64 & crate::ring::STAMP_MASK
            });
            // Sojourn sampling by the shard's own ring sequence: the
            // reservation's multiples of `sample_every` are its sampled
            // head.
            let pushed = shard.ring.push_sampled(stamp, want as usize, |start, got| {
                crate::spans::sampled_in(every, start, got as u64) as usize
            });
            // One reservation has one outcome: a closed ring took nothing.
            let (got, rejected, rejected_res) = match pushed {
                Push::Pushed(got) => (
                    got as u64,
                    &self.global.rejected_capacity,
                    &mut res.rejected_capacity,
                ),
                Push::Closed => (0, &self.global.rejected_closed, &mut res.rejected_closed),
            };
            res.dispatched += got;
            if got < want {
                rejected.fetch_add(want - got, Ordering::Relaxed);
                *rejected_res += want - got;
            }
        }
    }

    /// The global virtual-queue signal: Σᵢ qᵢ, each shard's
    /// `pushed − processed` ([`WorkerStats::queue_len`]). A shard whose
    /// worker is parked adds at most `min(bell − 1, λᵢ·(PARK + slack))`
    /// tuples sitting in its ring ([`SpscRing::bell`], a quarter of
    /// `queue_capacity`; λᵢ its survivor rate), each delivered within
    /// ≈ 0.3 ms; a shard under backlog never parks, so there the sum is
    /// exact backlog.
    pub fn queue_len(&self) -> u64 {
        self.shards.iter().map(|s| s.stats.queue_len(&s.ring)).sum()
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ShardConfig {
        &self.cfg
    }

    /// Closes the front door: every subsequent offer is counted
    /// `rejected_closed`, and workers exit once their queues drain.
    /// Idempotent; safe to race with concurrent `offer()` calls (a
    /// racing push either reserves before the close and is drained, or
    /// finds the ring closed and is rejected — never stranded).
    pub fn close(&self) {
        for shard in &self.shards {
            shard.ring.close();
        }
    }

    /// A live snapshot in the Prometheus text exposition format:
    /// `streamshed_*` global counters plus `streamshed_shard_*` families
    /// labelled `{shard="i"}` — exactly what `/metrics` serves.
    pub fn prometheus_text(&self) -> String {
        self.metrics_fn()()
    }
}

/// Builds the `/metrics` closure over cloned counter handles (and the
/// observability plane's families when one is attached) — shared by
/// [`ShardedEngine::spawn_observed`] and [`ShardedEngine::metrics_fn`].
fn metrics_fn(engine: &ShardedEngine, plane: Option<ObsPlane>) -> MetricsFn {
    let global = Arc::clone(&engine.global);
    let stats: Vec<Arc<WorkerStats>> =
        engine.shards.iter().map(|s| Arc::clone(&s.stats)).collect();
    let rings: Vec<Arc<SpscRing>> = engine.shards.iter().map(|s| Arc::clone(&s.ring)).collect();
    Arc::new(move || {
        let mut p = PromText::new("streamshed");
        render_prometheus(&global, &stats, &rings, &mut p);
        if let Some(plane) = &plane {
            plane.health().render_prom(&mut p);
            plane.spans().snapshot().render_prom(&mut p);
        }
        p.finish()
    })
}

/// The worker counters of every shard, summed (the delay maximum is the
/// largest shard's): the one fold behind the final report, `/metrics`
/// and the controller's ledger.
#[derive(Debug, Clone, Copy, Default)]
struct WorkerTotals {
    completed: u64,
    dropped_shed: u64,
    worker_panics: u64,
    delay_sum_us: u64,
    delay_max_us: u64,
    delayed: u64,
    violation_sum_us: u64,
}

impl WorkerTotals {
    fn of<'a>(stats: impl IntoIterator<Item = &'a WorkerStats>) -> Self {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        stats.into_iter().fold(Self::default(), |t, s| Self {
            completed: t.completed + load(&s.completed),
            dropped_shed: t.dropped_shed + load(&s.dropped_shed),
            worker_panics: t.worker_panics + load(&s.worker_panics),
            delay_sum_us: t.delay_sum_us + load(&s.delay_sum_us),
            delay_max_us: t.delay_max_us.max(load(&s.delay_max_us)),
            delayed: t.delayed + load(&s.delayed),
            violation_sum_us: t.violation_sum_us + load(&s.violation_sum_us),
        })
    }

    /// Mean delay of the completed tuples, ms (0 before any).
    fn mean_delay_ms(&self) -> f64 {
        if self.completed > 0 {
            self.delay_sum_us as f64 / self.completed as f64 / 1e3
        } else {
            0.0
        }
    }
}

/// Renders the global counters plus the `{shard="i"}`-labelled families
/// into `p`.
fn render_prometheus(
    g: &Global,
    shards: &[Arc<WorkerStats>],
    rings: &[Arc<SpscRing>],
    p: &mut PromText,
) {
    let queues: Vec<u64> = shards.iter().zip(rings).map(|(s, r)| s.queue_len(r)).collect();
    let totals = WorkerTotals::of(shards.iter().map(|s| &**s));
    p.counter(
            "offered_total",
            "Tuples offered at the front door",
            g.offered.load(Ordering::Relaxed) as f64,
        )
        .counter(
            "dropped_entry_total",
            "Tuples dropped by the entry shedder (alpha decisions only)",
            g.dropped_entry.load(Ordering::Relaxed) as f64,
        )
        .counter(
            "rejected_capacity_total",
            "Arrivals rejected because the target shard's queue was full",
            g.rejected_capacity.load(Ordering::Relaxed) as f64,
        )
        .counter(
            "rejected_closed_total",
            "Arrivals rejected because the engine was closed",
            g.rejected_closed.load(Ordering::Relaxed) as f64,
        )
        .counter("completed_total", "Tuples fully processed", totals.completed as f64)
        .counter(
            "deadline_misses_total",
            "Control-period boundaries serviced more than T/2 late",
            g.deadline_misses.load(Ordering::Relaxed) as f64,
        )
        .counter(
            "delayed_total",
            "Completed tuples whose delay exceeded the target",
            totals.delayed as f64,
        )
        .counter(
            "violation_us_total",
            "Accumulated delay violation over completed tuples, microseconds",
            totals.violation_sum_us as f64,
        )
        .counter(
            "control_periods_total",
            "Control-hook invocations",
            g.periods.load(Ordering::Relaxed) as f64,
        )
        .counter(
            "hook_time_ns_total",
            "Wall-clock nanoseconds spent inside the control hook",
            g.hook_ns_total.load(Ordering::Relaxed) as f64,
        )
        .gauge("alpha", "Entry drop probability currently in force", g.alpha())
        .gauge("shards", "Number of worker shards", shards.len() as f64)
        .gauge(
            "queue_len",
            "Global virtual queue q(k) = sum of shard queues",
            queues.iter().sum::<u64>() as f64,
        )
        .gauge(
            "delay_mean_ms",
            "Mean delay of completed tuples, milliseconds",
            totals.mean_delay_ms(),
        )
        .gauge(
            "delay_max_ms",
            "Maximum observed delay, milliseconds",
            totals.delay_max_us as f64 / 1e3,
        );
    let load = |c: &AtomicU64| c.load(Ordering::Relaxed) as f64;
    let per_shard: [(&str, &str, MetricKind, Vec<f64>); 7] = [
        (
            "shard_dispatched_total",
            "Tuples dispatched to each shard",
            MetricKind::Counter,
            rings.iter().map(|r| r.pushed() as f64).collect(),
        ),
        (
            "shard_completed_total",
            "Tuples each shard fully processed",
            MetricKind::Counter,
            shards.iter().map(|s| load(&s.completed)).collect(),
        ),
        (
            "shard_dropped_shed_total",
            "Tuples each shard dropped by in-queue shedding",
            MetricKind::Counter,
            shards.iter().map(|s| load(&s.dropped_shed)).collect(),
        ),
        (
            "shard_worker_panics_total",
            "Worker panics caught per shard",
            MetricKind::Counter,
            shards.iter().map(|s| load(&s.worker_panics)).collect(),
        ),
        (
            "shard_doorbells_total",
            "Times a push woke each shard's parked worker: its ring reached a quarter full",
            MetricKind::Counter,
            rings.iter().map(|r| r.doorbells() as f64).collect(),
        ),
        (
            "shard_queue_len",
            "Tuples queued per shard",
            MetricKind::Gauge,
            queues.iter().map(|&q| q as f64).collect(),
        ),
        (
            "shard_cost_ewma_us",
            "Per-tuple cost last measured per shard, unsmoothed, microseconds (NaN until measured)",
            MetricKind::Gauge,
            shards.iter().map(|s| s.cost_ewma_us()).collect(),
        ),
    ];
    for (name, help, kind, values) in per_shard {
        let mut family = p.family(name, help, kind);
        for (i, v) in values.into_iter().enumerate() {
            family.sample(&[("shard", &i.to_string())], v);
        }
    }
}

impl ShardedEngine {
    /// Stops the controller, closes the front door, joins every worker
    /// (draining their queues) and stops the HTTP server. Idempotent.
    fn stop_and_join(&mut self) {
        self.global.stop.store(true, Ordering::Relaxed);
        self.close();
        if let Some(c) = self.controller.take() {
            let _ = c.join();
        }
        for shard in &mut self.shards {
            if let Some(h) = shard.handle.take() {
                let _ = h.join();
            }
        }
        if let Some(mut o) = self.obs.take() {
            o.stop();
        }
    }

    /// Stops the engine (controller, front door, workers — queues are
    /// drained) and returns the final report.
    pub fn shutdown(mut self) -> ShardReport {
        self.stop_and_join();
        let per_shard = self
            .shards
            .iter()
            .map(|shard| {
                let st = &shard.stats;
                ShardStat {
                    dispatched: shard.ring.pushed(),
                    completed: st.completed.load(Ordering::Relaxed),
                    dropped_shed: st.dropped_shed.load(Ordering::Relaxed),
                    worker_panics: st.worker_panics.load(Ordering::Relaxed),
                    mean_delay_ms: st.mean_delay_ms(),
                    cost_ewma_us: st.cost_ewma_us(),
                }
            })
            .collect();
        let totals = WorkerTotals::of(self.shards.iter().map(|s| &*s.stats));
        let g = &self.global;
        ShardReport {
            offered: g.offered.load(Ordering::Relaxed),
            dropped_entry: g.dropped_entry.load(Ordering::Relaxed),
            rejected_at_capacity: g.rejected_capacity.load(Ordering::Relaxed),
            rejected_closed: g.rejected_closed.load(Ordering::Relaxed),
            dropped_shed: totals.dropped_shed,
            completed: totals.completed,
            worker_panics: totals.worker_panics,
            deadline_misses: g.deadline_misses.load(Ordering::Relaxed),
            periods: g.periods.load(Ordering::Relaxed),
            mean_delay_ms: totals.mean_delay_ms(),
            max_delay_ms: totals.delay_max_us as f64 / 1e3,
            delayed_tuples: totals.delayed,
            accumulated_violation_ms: totals.violation_sum_us as f64 / 1e3,
            per_shard,
        }
    }
}

impl Drop for ShardedEngine {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// The cumulative front-door and shed counters as a ledger, for the
/// controller to difference period to period. Completions and busy time
/// come from the [`CostMeter`]'s reading instead, so `c(k)` and
/// `completed` share one load of each shard's counters.
fn ledger_reading(g: &Global, stats: &[Arc<WorkerStats>]) -> PeriodLedger {
    let totals = WorkerTotals::of(stats.iter().map(|s| &**s));
    PeriodLedger {
        offered: g.offered.load(Ordering::Relaxed),
        dropped_entry: g.dropped_entry.load(Ordering::Relaxed),
        rejected_capacity: g.rejected_capacity.load(Ordering::Relaxed),
        rejected_closed: g.rejected_closed.load(Ordering::Relaxed),
        dropped_network: totals.dropped_shed,
        delay_sum_ms: totals.delay_sum_us as f64 / 1e3,
        ..PeriodLedger::default()
    }
}

/// Fewest retirements a cost sample is formed from. A ratio over fewer
/// says more about the one interval a host stall or the period boundary
/// happened to land in than about the operator (a freeze that leaves a
/// period two completions reads 25× the cost of a 2 ms tuple), and the
/// strategy's tracker weighs every sample alike. A sparser stretch is
/// not dropped: its busy time and retirements carry into the next
/// period, so a genuinely slower operator is seen after this many
/// tuples.
const MIN_SAMPLE_TUPLES: u64 = 16;

/// What one control period measured.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PeriodCost {
    /// Whether `c(k)` is a fresh sample (some shard formed one).
    measured: bool,
    /// Tuples retired in the period, all shards.
    completed: u64,
    /// `H·ΣΔbusy`, µs: the work share of the period's busy time.
    busy_us: u64,
}

/// The controller's cost model, the same quantity the simulator reports
/// in virtual time: `c(k) = H·ΣΔbusy/ΣΔcompleted`, worker busy time over
/// tuples retired with the `1/H` inflation of the service time undone.
/// Each shard forms its own `H·Δbusyᵢ/Δcompletedᵢ` (what its shed budget
/// is converted with) over the stretch since its previous sample — one
/// period, or more while it retires fewer than [`MIN_SAMPLE_TUPLES`] —
/// and `c(k)` pools the stretches that ended this period, which weights
/// shards by completions. With no such stretch the values are held.
/// Unsmoothed: the control strategy's cost tracker does the smoothing.
struct CostMeter {
    headroom: f64,
    /// `(Σ busy_ns, Σ completed)` over shards at the last boundary.
    last: (u64, u64),
    /// Each shard's cumulative `(busy_ns, completed)` at its last sample.
    sampled: Vec<(u64, u64)>,
    /// Latest aggregate `c(k)`, µs; the nominal cost until measured.
    cost_us: f64,
    /// Latest per-shard cost, µs; `NaN` until that shard is measured.
    shard_us: Vec<f64>,
}

impl CostMeter {
    fn new(shards: usize, headroom: f64, nominal_us: f64) -> Self {
        Self {
            headroom,
            last: (0, 0),
            sampled: vec![(0, 0); shards],
            cost_us: nominal_us,
            shard_us: vec![f64::NAN; shards],
        }
    }

    /// Folds in the shards' cumulative `(busy_ns, completed)` counters,
    /// read at a period boundary.
    fn observe(&mut self, readings: impl Iterator<Item = (u64, u64)>) -> PeriodCost {
        let cost_us = |busy_ns: u64, n: u64| self.headroom * busy_ns as f64 / n as f64 / 1e3;
        let (mut total, mut fresh) = ((0u64, 0u64), (0u64, 0u64));
        for ((sampled, shard_us), now) in
            self.sampled.iter_mut().zip(&mut self.shard_us).zip(readings)
        {
            total = (total.0 + now.0, total.1 + now.1);
            let (busy_ns, n) = (now.0 - sampled.0, now.1 - sampled.1);
            // Zero-cost workers measure no busy time: never a sample.
            if n >= MIN_SAMPLE_TUPLES && busy_ns > 0 {
                *shard_us = cost_us(busy_ns, n);
                *sampled = now;
                fresh = (fresh.0 + busy_ns, fresh.1 + n);
            }
        }
        let measured = fresh.1 > 0;
        if measured {
            self.cost_us = cost_us(fresh.0, fresh.1);
        }
        let (d_busy_ns, completed) = (total.0 - self.last.0, total.1 - self.last.1);
        self.last = total;
        PeriodCost {
            measured,
            completed,
            busy_us: (self.headroom * d_busy_ns as f64 / 1e3) as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hook::{Decision, NoShedding};
    use crate::telemetry::SharedRecorder;

    fn quick_cfg(shards: usize) -> ShardConfig {
        ShardConfig {
            shards,
            cost: Duration::from_micros(200),
            period: Duration::from_millis(20),
            target_delay: Duration::from_millis(100),
            headroom: 1.0,
            queue_capacity: 4096,
            panic_on_tuple: None,
            cost_model: CostModel::Sleep,
            dispatch: Dispatch::RoundRobin,
            seed: ShardConfig::DEFAULT_SEED,
            pin_cores: false,
            sample_every: crate::spans::DEFAULT_SAMPLE_EVERY,
        }
    }

    #[test]
    fn round_robin_balances_and_completes_everything() {
        let engine = ShardedEngine::spawn(quick_cfg(4), NoShedding);
        for _ in 0..200 {
            engine.offer();
            std::thread::sleep(Duration::from_micros(300));
        }
        std::thread::sleep(Duration::from_millis(100));
        let report = engine.shutdown();
        assert_eq!(report.offered, 200);
        assert_eq!(report.completed, 200);
        assert!(report.counters_balance(), "{report:?}");
        for s in &report.per_shard {
            assert_eq!(s.dispatched, 50, "round robin is exact");
            assert!(s.cost_ewma_us.is_finite());
        }
    }

    #[test]
    fn key_hash_is_sticky_per_key() {
        let engine = ShardedEngine::spawn(quick_cfg(4), NoShedding);
        // All offers carry the same key: exactly one shard gets them.
        for _ in 0..80 {
            engine.offer_keyed(0xDEADBEEF);
            std::thread::sleep(Duration::from_micros(300));
        }
        std::thread::sleep(Duration::from_millis(100));
        let report = engine.shutdown();
        let non_empty: Vec<_> = report.per_shard.iter().filter(|s| s.dispatched > 0).collect();
        assert_eq!(non_empty.len(), 1, "one shard owns the key");
        assert_eq!(non_empty[0].dispatched, 80);
        assert!(report.counters_balance());
    }

    #[test]
    fn global_alpha_sheds_at_the_front_door() {
        let cfg = quick_cfg(2);
        let hook = |_s: &PeriodSnapshot| Decision::entry(0.5);
        let engine = ShardedEngine::spawn(cfg, hook);
        std::thread::sleep(Duration::from_millis(50)); // let α take effect
        for _ in 0..400 {
            engine.offer();
            std::thread::sleep(Duration::from_micros(100));
        }
        let report = engine.shutdown();
        let ratio = report.dropped_entry as f64 / report.offered as f64;
        assert!(ratio > 0.3 && ratio < 0.7, "ratio {ratio}");
        assert!(report.counters_balance());
    }

    #[test]
    fn shed_load_divides_across_queued_shards() {
        let cfg = ShardConfig {
            cost: Duration::from_millis(5),
            period: Duration::from_millis(10),
            target_delay: Duration::from_millis(20),
            ..quick_cfg(2)
        };
        let hook = |_s: &PeriodSnapshot| Decision::network(50_000.0);
        let engine = ShardedEngine::spawn(cfg, hook);
        for _ in 0..200 {
            engine.offer();
        }
        std::thread::sleep(Duration::from_millis(150));
        let report = engine.shutdown();
        assert!(report.dropped_shed > 0, "{report:?}");
        assert!(report.counters_balance());
    }

    #[test]
    fn per_shard_panics_lose_exactly_one_tuple_each() {
        let mut cfg = quick_cfg(3);
        cfg.panic_on_tuple = Some(5);
        let engine = ShardedEngine::spawn(cfg, NoShedding);
        for _ in 0..90 {
            engine.offer();
            std::thread::sleep(Duration::from_micros(300));
        }
        std::thread::sleep(Duration::from_millis(100));
        let report = engine.shutdown();
        assert_eq!(report.worker_panics, 3, "one caught panic per shard");
        assert_eq!(report.completed, 90 - 3);
        assert!(report.counters_balance(), "{report:?}");
    }

    #[test]
    fn offer_batch_round_robin_is_exact_on_power_of_two() {
        let engine = ShardedEngine::spawn(quick_cfg(4), NoShedding);
        let mut total = BatchResult::default();
        for n in [16usize, 256, 120, 8] {
            total.merge(&engine.offer_batch(n));
            std::thread::sleep(Duration::from_millis(10));
        }
        std::thread::sleep(Duration::from_millis(100));
        let report = engine.shutdown();
        assert_eq!(total.offered, 400);
        assert_eq!(total.dispatched, 400);
        assert_eq!(report.offered, 400);
        assert_eq!(report.completed, 400);
        assert!(report.counters_balance(), "{report:?}");
        for s in &report.per_shard {
            assert_eq!(s.dispatched, 100, "strict rotation survives batching");
        }
    }

    #[test]
    fn offer_batch_sheds_with_alpha_semantics() {
        let cfg = quick_cfg(2);
        let hook = |_s: &PeriodSnapshot| Decision::entry(0.5);
        let engine = ShardedEngine::spawn(cfg, hook);
        std::thread::sleep(Duration::from_millis(50)); // let α take effect
        let mut total = BatchResult::default();
        for _ in 0..40 {
            total.merge(&engine.offer_batch(100));
            std::thread::sleep(Duration::from_millis(2));
        }
        let report = engine.shutdown();
        let ratio = total.dropped_entry as f64 / total.offered as f64;
        assert!(ratio > 0.3 && ratio < 0.7, "ratio {ratio}");
        assert_eq!(report.dropped_entry, total.dropped_entry);
        assert!(report.counters_balance(), "{report:?}");
    }

    #[test]
    fn offer_batch_keyed_is_sticky_per_key() {
        let engine = ShardedEngine::spawn(quick_cfg(4), NoShedding);
        let keys = vec![0xDEADBEEFu64; 80];
        let res = engine.offer_batch_keyed(&keys);
        assert_eq!(res.dispatched, 80);
        std::thread::sleep(Duration::from_millis(150));
        let report = engine.shutdown();
        let non_empty: Vec<_> = report.per_shard.iter().filter(|s| s.dispatched > 0).collect();
        assert_eq!(non_empty.len(), 1, "one shard owns the key");
        assert_eq!(non_empty[0].dispatched, 80);
        assert!(report.counters_balance());
    }

    #[test]
    fn key_to_shard_is_in_range_even_and_sticky_at_every_shard_count() {
        use crate::rng::{chi2_crit_1e4, mix64};
        const KEYS: u64 = 100_000;
        // Hashed keys, and the consecutive integers `offer_batch` feeds
        // the hash under `KeyHash` (`seq0 + k`).
        let consecutive = |i| 0xFFFF_FF00 + i;
        let families = [("hashed", mix64 as fn(u64) -> u64), ("consecutive", consecutive)];
        for shards in 1..=STACK_SHARDS + 1 {
            for (family, key) in families {
                let mut seen = vec![0f64; shards];
                for i in 0..KEYS {
                    let shard = key_to_shard(key(i), shards);
                    assert!(shard < shards, "{family} key {i}: shard {shard} of {shards}");
                    seen[shard] += 1.0;
                }
                let expected = KEYS as f64 / shards as f64;
                let chi2: f64 = seen.iter().map(|s| (s - expected).powi(2) / expected).sum();
                assert!(
                    shards == 1 || chi2 < chi2_crit_1e4((shards - 1) as f64),
                    "{family} keys over {shards} shards: chi2 {chi2}, {seen:?}"
                );
            }

            // One key through the three keyed doors lands on one shard.
            let key = mix64(shards as u64);
            let mut cfg = quick_cfg(shards);
            cfg.cost = Duration::ZERO;
            let engine = ShardedEngine::spawn(cfg, NoShedding);
            assert!(engine.offer_keyed(key));
            assert_eq!(engine.offer_batch_keyed(&[key; 7]).dispatched, 7);
            assert_eq!(engine.offer_batch_keyed_with(9, |_| key).dispatched, 9);
            let report = engine.shutdown();
            for (i, shard) in report.per_shard.iter().enumerate() {
                let owner = i == key_to_shard(key, shards);
                assert_eq!(shard.dispatched, if owner { 17 } else { 0 }, "{shards} shards");
            }
        }
    }

    /// An engine of `shards` shards with no threads behind its front
    /// door: the test is its rings' consumer.
    fn door_without_workers(
        shards: usize,
        queue_capacity: usize,
        sample_every: u32,
    ) -> ShardedEngine {
        let cfg = ShardConfig {
            queue_capacity,
            sample_every,
            ..quick_cfg(shards)
        };
        let epoch = Instant::now();
        let shard = |_| Shard {
            stats: Arc::new(WorkerStats::new()),
            ring: Arc::new(SpscRing::with_epoch(queue_capacity, epoch)),
            handle: None,
        };
        ShardedEngine {
            global: Arc::new(Global::new(cfg.seed)),
            shards: (0..shards).map(shard).collect(),
            controller: None,
            cfg,
            obs: None,
            epoch,
        }
    }

    #[test]
    fn push_counts_fills_the_ledger_from_one_reservation() {
        use crate::ring::{run_len, run_stamp};
        use crate::spans::SAMPLE_BIT;
        const WANT: u64 = 20;
        const ROOM: usize = 12;
        // Sampling every tuple marks all that land; 1-in-4 marks the
        // multiples of 4 among ring sequences [4, 16), 1-in-64 none of
        // them; 0 never marks.
        for (sample_every, marked) in [(1, ROOM), (4, 3), (64, 0), (0, 0)] {
            let engine = door_without_workers(1, ROOM, sample_every);
            // Four tuples ahead, so the reservation starts at sequence 4.
            let mut res = BatchResult::default();
            engine.push_counts(&[4], &mut res);
            let mut out = [0u64; WANT as usize];
            let head_runs = 1 + usize::from(sample_every > 1);
            assert_eq!(engine.shards[0].ring.pop_n(&mut out), head_runs);
            let mut res = BatchResult::default();
            engine.push_counts(&[WANT], &mut res);
            let expect = BatchResult {
                dispatched: ROOM as u64,
                rejected_capacity: WANT - ROOM as u64,
                ..BatchResult::default()
            };
            assert_eq!(res, expect, "sample_every {sample_every}");
            assert_eq!(engine.shards[0].ring.pushed(), 4 + ROOM as u64);

            // At most two runs, the sampled one first, on one stamp.
            let runs = engine.shards[0].ring.pop_n(&mut out);
            let words = &out[..runs];
            let lens: Vec<usize> = words.iter().map(|w| run_len(*w)).collect();
            let expect: Vec<usize> =
                [marked, ROOM - marked].into_iter().filter(|n| *n > 0).collect();
            assert_eq!(lens, expect, "sample_every {sample_every}");
            let sampled: Vec<bool> = words.iter().map(|w| w & SAMPLE_BIT != 0).collect();
            let head_sampled: Vec<bool> = (0..runs).map(|i| i == 0 && marked > 0).collect();
            assert_eq!(sampled, head_sampled);
            assert!(words.iter().all(|w| run_stamp(*w) == run_stamp(words[0])));

            // A reservation that loses to `close()` loses whole.
            engine.close();
            engine.push_counts(&[WANT], &mut res);
            assert_eq!(res.rejected_closed, WANT);
            assert_eq!(res.dispatched + res.rejected_capacity, WANT);
            let g = &engine.global;
            assert_eq!(g.rejected_closed.load(Ordering::Relaxed), WANT);
            assert_eq!(g.rejected_capacity.load(Ordering::Relaxed), WANT - ROOM as u64);
        }
    }

    #[test]
    fn one_shard_doors_read_no_key_and_shed_as_any_shard_count() {
        // Per call, a 1-shard keyed door (which must not read a key), a
        // 1-shard unkeyed door and a 4-shard keyed door, all on one seed,
        // decide alike: the coins do not depend on how survivors route.
        let ring_room = 4 * (OFFER_BATCH_MAX + 1);
        let alphas = [0.0, 0.3, 0.9, 1.0 - 2f64.powi(-33), 1.0, f64::NAN];
        for alpha in alphas {
            for n in [1, 63, 256, 257, OFFER_BATCH_MAX + 1] {
                let doors: [ShardedEngine; 3] = [1, 1, 4].map(|shards| {
                    let engine = door_without_workers(shards, ring_room, 0);
                    engine.global.alpha_bits.store(alpha.to_bits(), Ordering::Relaxed);
                    engine
                });
                let [keyed_one, plain_one, keyed_four] = &doors;
                let mut dispatched = 0;
                for call in 0..3 {
                    let at = format!("alpha {alpha}, n {n}, call {call}");
                    let a = keyed_one.offer_batch_keyed_with(n, |i| {
                        panic!("a one-shard door read key {i} ({at})")
                    });
                    let b = plain_one.offer_batch(n);
                    let c = keyed_four.offer_batch_keyed_with(n, |i| mix64(i as u64));
                    assert_eq!(a, b, "{at}");
                    assert_eq!(a, c, "{at}");
                    assert_eq!(a.offered, n as u64, "{at}");
                    assert_eq!(a.rejected_capacity + a.rejected_closed, 0, "{at}");
                    dispatched += a.dispatched;
                }
                let landed: u64 = keyed_four.shards.iter().map(|s| s.ring.pushed()).sum();
                assert_eq!(landed, dispatched, "alpha {alpha}, n {n}");
                assert_eq!(keyed_one.shards[0].ring.pushed(), dispatched);
            }
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn engine_threads_carry_their_names() {
        // Whole names, not kernel-truncated ones: each fits 15 bytes, and
        // none starts like a listener thread's (`streamshed-net-N`), whose
        // CPU is attributed by that prefix.
        let engine = ShardedEngine::spawn(quick_cfg(12), NoShedding);
        let names = || -> Vec<String> {
            std::fs::read_dir("/proc/self/task")
                .unwrap()
                .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
                .map(|comm| comm.trim_end().to_string())
                .collect()
        };
        // A new thread names itself once it runs: wait for it to.
        let wanted = ["shard-0", "shard-11", "controller"];
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut seen = names();
        while !wanted.iter().all(|w| seen.iter().any(|n| n == w)) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
            seen = names();
        }
        for want in wanted {
            assert!(want.len() <= 15 && !want.starts_with("streamshed-net"));
            assert!(seen.iter().any(|n| n == want), "no thread {want}: {seen:?}");
        }
        engine.shutdown();
    }

    #[test]
    fn offer_batch_after_close_rejects_everything() {
        let engine = ShardedEngine::spawn(quick_cfg(2), NoShedding);
        engine.close();
        let res = engine.offer_batch(50);
        assert_eq!(res.rejected_closed, 50);
        assert_eq!(res.dispatched, 0);
        let report = engine.shutdown();
        assert_eq!(report.rejected_closed, 50);
        assert!(report.counters_balance(), "{report:?}");
    }

    #[test]
    fn offer_batch_counts_capacity_shortfall() {
        let cfg = ShardConfig {
            cost: Duration::from_millis(50), // workers can't keep up
            queue_capacity: 8,
            ..quick_cfg(2)
        };
        let engine = ShardedEngine::spawn(cfg, NoShedding);
        let res = engine.offer_batch(1000);
        assert!(res.rejected_capacity > 0, "{res:?}");
        assert_eq!(
            res.offered,
            res.dispatched + res.dropped_entry + res.rejected_capacity + res.rejected_closed
        );
        let report = engine.shutdown();
        assert!(report.counters_balance(), "{report:?}");
    }

    #[test]
    fn pinned_engine_still_balances() {
        let mut cfg = quick_cfg(2);
        cfg.pin_cores = true;
        let engine = ShardedEngine::spawn(cfg, NoShedding);
        engine.offer_batch(64);
        std::thread::sleep(Duration::from_millis(100));
        let report = engine.shutdown();
        assert_eq!(report.completed, 64);
        assert!(report.counters_balance(), "{report:?}");
    }

    #[test]
    fn offers_after_close_count_rejected_closed() {
        let engine = ShardedEngine::spawn(quick_cfg(2), NoShedding);
        for _ in 0..20 {
            engine.offer();
        }
        engine.close();
        for _ in 0..30 {
            assert!(!engine.offer());
        }
        let report = engine.shutdown();
        assert_eq!(report.offered, 50);
        assert_eq!(report.rejected_closed, 30);
        assert_eq!(report.dropped_entry, 0, "closure is not shedding");
        assert!(report.counters_balance(), "{report:?}");
    }

    #[test]
    fn metrics_text_matches_golden() {
        // Fixed counters on three shards, one of them never measured.
        let g = Global::new(7);
        g.alpha_bits.store(0.375f64.to_bits(), Ordering::Relaxed);
        for (i, c) in [&g.offered, &g.dropped_entry, &g.rejected_capacity].iter().enumerate() {
            c.store(1_000 >> i, Ordering::Relaxed);
        }
        g.rejected_closed.store(3, Ordering::Relaxed);
        g.deadline_misses.store(2, Ordering::Relaxed);
        g.periods.store(40, Ordering::Relaxed);
        g.hook_ns_total.store(123_456, Ordering::Relaxed);
        let stats: Vec<Arc<WorkerStats>> = (0..3u64)
            .map(|i| {
                let s = WorkerStats::new();
                s.processed.store(90 + i, Ordering::Relaxed);
                s.completed.store(80 + i, Ordering::Relaxed);
                s.dropped_shed.store(5 * i, Ordering::Relaxed);
                s.worker_panics.store(i / 2, Ordering::Relaxed);
                s.delay_sum_us.store(1_250_000 * (i + 1), Ordering::Relaxed);
                s.delay_max_us.store(40_500 * (i + 1), Ordering::Relaxed);
                s.delayed.store(7 * i, Ordering::Relaxed);
                s.violation_sum_us.store(3_300 * i, Ordering::Relaxed);
                if i > 0 {
                    s.cost_ewma_bits.store((480.5 * i as f64).to_bits(), Ordering::Relaxed);
                }
                Arc::new(s)
            })
            .collect();
        let rings: Vec<Arc<SpscRing>> = (0..3u64)
            .map(|i| {
                let r = SpscRing::new(1024);
                for _ in 0..(95 + 10 * i) {
                    r.push(1);
                }
                Arc::new(r)
            })
            .collect();
        let mut p = PromText::new("streamshed");
        render_prometheus(&g, &stats, &rings, &mut p);
        let want = include_str!("../tests/golden/shard.prom");
        assert_eq!(p.finish(), want);
    }

    #[test]
    fn prometheus_text_has_shard_labels() {
        let engine = ShardedEngine::spawn(quick_cfg(2), NoShedding);
        for _ in 0..10 {
            engine.offer();
        }
        std::thread::sleep(Duration::from_millis(30));
        let text = engine.prometheus_text();
        assert!(text.contains("streamshed_shards 2"));
        assert!(text.contains("streamshed_shard_dispatched_total{shard=\"0\"}"));
        assert!(text.contains("streamshed_shard_dispatched_total{shard=\"1\"}"));
        assert!(!text.contains("{shard=\"2\"}"));
        assert_eq!(
            text.matches("# TYPE streamshed_shard_queue_len gauge").count(),
            1,
            "one preamble per family"
        );
        assert!(text.contains("streamshed_offered_total 10"), "{text}");
        assert!(text.contains("# TYPE streamshed_delayed_total counter"), "{text}");
        assert!(text.contains("# TYPE streamshed_violation_us_total counter"), "{text}");
        assert!(text.contains("# TYPE streamshed_delay_max_ms gauge"), "{text}");
        drop(engine);
    }

    #[test]
    fn doorbells_are_exported_per_shard() {
        // A quarter of the ring offered at the parked worker in one batch
        // rings once. A batch that lands while the worker is between two
        // parks finds no one waiting, so offer until one has rung.
        let cfg = ShardConfig {
            cost: Duration::ZERO,
            cost_model: CostModel::Spin,
            queue_capacity: 64,
            ..quick_cfg(1)
        };
        let engine = ShardedEngine::spawn(cfg, NoShedding);
        let bells = |text: &str| -> f64 {
            let prefix = "streamshed_shard_doorbells_total{shard=\"0\"} ";
            let line = text.lines().find_map(|l| l.strip_prefix(prefix));
            line.expect("no doorbell sample").parse().unwrap()
        };
        let mut text = engine.prometheus_text();
        assert_eq!(bells(&text), 0.0);
        for _ in 0..100 {
            assert_eq!(engine.offer_batch(16).dispatched, 16);
            while engine.queue_len() != 0 {
                std::thread::yield_now();
            }
            text = engine.prometheus_text();
            if bells(&text) > 0.0 {
                break;
            }
        }
        assert_eq!(bells(&text), 1.0, "{text}");
        assert_eq!(
            text.matches("# TYPE streamshed_shard_doorbells_total counter").count(),
            1
        );
        engine.shutdown();
    }

    #[test]
    fn observed_sharded_engine_serves_shard_labels_live() {
        use crate::obs::{http_get, ObsOptions};
        let cfg = ShardConfig {
            period: Duration::from_millis(10),
            ..quick_cfg(2)
        };
        let options = ObsOptions::for_target(cfg.target_delay);
        let engine = ShardedEngine::spawn_observed(cfg, NoShedding, &options).unwrap();
        let addr = engine.obs().unwrap().addr().expect("http enabled");
        for _ in 0..60 {
            engine.offer();
            std::thread::sleep(Duration::from_micros(300));
        }
        std::thread::sleep(Duration::from_millis(50));
        let t = Duration::from_secs(2);

        let (status, body) = http_get(addr, "/metrics", t).unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("streamshed_shard_dispatched_total{shard=\"1\"}"), "{body}");
        assert!(body.contains("streamshed_diag_state"), "{body}");

        let (status, body) = http_get(addr, "/health", t).unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"periods\":"), "{body}");

        let (status, _) = http_get(addr, "/ready", t).unwrap();
        assert_eq!(status, 200, "periods have elapsed");

        let (status, body) = http_get(addr, "/trace?last=4", t).unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"shards\":2"), "per-shard queues in traces: {body}");

        // The in-process snapshot carries the diagnostics families too.
        assert!(engine.prometheus_text().contains("streamshed_diag_state"));

        let report = engine.shutdown();
        assert!(report.counters_balance(), "{report:?}");
        assert!(http_get(addr, "/health", Duration::from_millis(300)).is_err());
    }

    #[test]
    fn observed_engine_declares_each_family_once() {
        use crate::obs::{http_get, ObsOptions};
        let cfg = ShardConfig {
            period: Duration::from_millis(10),
            cost: Duration::from_micros(20),
            sample_every: 1,
            ..quick_cfg(2)
        };
        let options = ObsOptions::for_target(cfg.target_delay);
        let hook = |_s: &PeriodSnapshot| Decision::NONE;
        let engine = ShardedEngine::spawn_observed(cfg, hook, &options).unwrap();
        let obs = engine.obs().unwrap();
        assert_eq!(engine.offer_batch(64).dispatched, 64);
        let sojourns = || obs.plane.spans().snapshot().sojourn.count();
        while obs.plane.periods_observed() == 0 || sojourns() < 64 {
            std::thread::sleep(Duration::from_millis(5));
        }
        let t = Duration::from_secs(2);
        let (status, body) = http_get(obs.addr().unwrap(), "/metrics", t).unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("# TYPE streamshed_diag_periods_total "), "{body}");
        assert!(body.contains("streamshed_latency_seconds_bucket{"), "{body}");
        if let Err(e) = check_exposition(&body) {
            panic!("{e}\n{body}");
        }
        engine.shutdown();
    }

    include!("../tests/support/exposition.rs");

    #[test]
    fn exposition_check_rejects_repeated_and_split_families() {
        let family = |n: &str, kind: &str| format!("# HELP {n} h\n# TYPE {n} {kind}\n");
        let (a, b) = (family("a", "counter"), family("b", "gauge"));
        let ok = format!("{a}a{{x=\"1\"}} 1\na{{x=\"2\"}} NaN\n{b}b 2\n");
        assert_eq!(check_exposition(&ok), Ok(2));
        let h = family("h", "histogram");
        let hist = format!("{h}h_bucket{{le=\"+Inf\"}} 1\nh_sum 2\nh_count 1\n");
        assert_eq!(check_exposition(&hist), Ok(1));
        for bad in [
            format!("{a}a 1\n{a}a 2\n"),
            format!("{a}{b}a 1\nb 2\n"),
            format!("{a}a 1\n{b}b 2\na 3\n"),
            format!("a 1\n{a}"),
            format!("{a}a x\n"),
        ] {
            assert!(check_exposition(&bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn an_idle_period_reports_zero_delay() {
        // α = 1 from the first boundary on: every later offer is shed at
        // the door and the periods after them are idle.
        let rec = SharedRecorder::with_capacity(256);
        let cfg = ShardConfig {
            period: Duration::from_millis(10),
            ..quick_cfg(1)
        };
        let hook = |_s: &PeriodSnapshot| Decision::entry(1.0);
        let engine = ShardedEngine::spawn_recorded(cfg, hook, Some(rec.clone()));
        std::thread::sleep(Duration::from_millis(30));
        for _ in 0..50 {
            engine.offer();
        }
        std::thread::sleep(Duration::from_millis(50));
        let report = engine.shutdown();
        assert!(report.counters_balance(), "{report:?}");
        let traces = rec.snapshot();
        let idle: Vec<_> = traces
            .iter()
            .filter(|t| t.completed == 0 && t.outstanding == 0)
            .collect();
        assert!(!idle.is_empty());
        for t in idle {
            assert_eq!(t.mean_delay_ms, 0.0, "period {} is idle: {t:?}", t.k);
        }
    }

    #[test]
    fn recorder_captures_per_shard_queues() {
        for shards in [1usize, 3] {
            let rec = SharedRecorder::with_capacity(256);
            let cfg = ShardConfig {
                period: Duration::from_millis(10),
                ..quick_cfg(shards)
            };
            let engine = ShardedEngine::spawn_recorded(cfg, NoShedding, Some(rec.clone()));
            for _ in 0..60 {
                engine.offer();
                std::thread::sleep(Duration::from_micros(300));
            }
            std::thread::sleep(Duration::from_millis(50));
            let report = engine.shutdown();
            assert!(report.periods >= 3);
            let traces = rec.snapshot();
            assert!(!traces.is_empty());
            assert!(traces.iter().all(|t| t.shards as usize == shards));
            // The controller saw every offer at most once.
            assert!(traces.iter().map(|t| t.offered).sum::<u64>() <= 60);
            // The recorded global signal is the sum of the recorded shards.
            for t in &traces {
                let sum: u64 = t.shard_queues.iter().sum();
                assert_eq!(sum, t.outstanding, "q(k) = sum of shard queues");
            }
        }
    }

    #[test]
    fn small_alpha_sheds_at_its_rate_through_offer() {
        // α = 0.01: rare drops, one coin per scalar offer.
        let cfg = ShardConfig {
            cost: Duration::from_micros(10),
            period: Duration::from_millis(10),
            queue_capacity: 65_536,
            ..quick_cfg(1)
        };
        let hook = |_s: &PeriodSnapshot| Decision::entry(0.01);
        let engine = ShardedEngine::spawn(cfg, hook);
        std::thread::sleep(Duration::from_millis(25));
        for _ in 0..200_000 {
            engine.offer();
        }
        let report = engine.shutdown();
        // `dropped_entry` counts only the entry-shed drops (capacity
        // rejections live in their own bucket).
        let ratio = report.dropped_entry as f64 / report.offered as f64;
        assert!(ratio > 0.003 && ratio < 0.03, "ratio {ratio}");
        assert!(report.counters_balance(), "{report:?}");
    }

    #[test]
    fn scalar_doors_reject_into_the_batch_doors_buckets() {
        let cfg = ShardConfig {
            cost: Duration::from_millis(100),
            queue_capacity: 2,
            ..quick_cfg(1)
        };
        let engine = ShardedEngine::spawn(cfg, NoShedding);
        // Fill the ring behind a busy worker: more dispatched than the
        // ring holds means the worker has popped and is now sleeping
        // through a tuple, and a refused batch means the ring refilled.
        let mut fill = BatchResult::default();
        loop {
            let res = engine.offer_batch(2);
            fill.merge(&res);
            if fill.dispatched > 2 && res.dispatched == 0 {
                break;
            }
        }
        assert!(!engine.offer());
        assert!(!engine.offer_keyed(7));
        assert_eq!(engine.offer_batch(1).rejected_capacity, 1);
        assert_eq!(engine.offer_batch_keyed(&[7]).rejected_capacity, 1);
        engine.close();
        assert!(!engine.offer());
        assert!(!engine.offer_keyed(7));
        assert_eq!(engine.offer_batch(1).rejected_closed, 1);
        assert_eq!(engine.offer_batch_keyed(&[7]).rejected_closed, 1);
        let report = engine.shutdown();
        assert_eq!(report.offered, fill.offered + 8);
        assert_eq!(report.rejected_at_capacity, fill.rejected_capacity + 4);
        assert_eq!(report.rejected_closed, 4);
        assert!(report.counters_balance(), "{report:?}");
    }

    #[test]
    fn slow_hook_counts_deadline_misses() {
        let cfg = ShardConfig {
            period: Duration::from_millis(10),
            ..quick_cfg(1)
        };
        // A hook that overruns the control period itself.
        let hook = |_s: &PeriodSnapshot| {
            std::thread::sleep(Duration::from_millis(25));
            Decision::NONE
        };
        let engine = ShardedEngine::spawn(cfg, hook);
        std::thread::sleep(Duration::from_millis(150));
        let report = engine.shutdown();
        assert!(report.deadline_misses >= 1, "{}", report.deadline_misses);
    }

    #[test]
    fn period_cost_is_busy_time_over_tuples_retired() {
        // One shard, H = 0.97, 50 ms periods. Saturated at a 10 µs
        // nominal cost it retires 4 850 tuples a period: c(k) = 10 µs.
        let mut m = CostMeter::new(1, 0.97, 7.0);
        assert_eq!(m.cost_us, 7.0, "nominal before the first completion");
        let p = m.observe([(50_000_000, 4_850)].into_iter());
        assert_eq!(p, PeriodCost { measured: true, completed: 4_850, busy_us: 48_500 });
        assert!((m.cost_us - 10.0).abs() < 1e-9, "{}", m.cost_us);
        // Nothing retired: no sample, the value is held.
        let p = m.observe([(50_000_000, 4_850)].into_iter());
        assert_eq!(p, PeriodCost { measured: false, completed: 0, busy_us: 0 });
        assert!((m.cost_us - 10.0).abs() < 1e-9);
        assert!((m.shard_us[0] - 10.0).abs() < 1e-9);
        // The host takes the CPU away for 5 ms of a saturated period:
        // a tenth fewer tuples in the same busy time, so c(k) rises by
        // that tenth (1/0.9), not by the 500× a per-tuple sample of the
        // stalled tuple would read.
        let p = m.observe([(100_000_000, 4_850 + 4_365)].into_iter());
        assert!(p.measured);
        let rise = m.cost_us / 10.0 - 1.0;
        assert!((0.10..0.12).contains(&rise), "{rise}");
    }

    #[test]
    fn period_cost_weights_shards_by_completions() {
        // 3 000 tuples at 10 µs beside 1 000 at 20 µs (H = 1).
        let mut m = CostMeter::new(2, 1.0, 5.0);
        let p = m.observe([(30_000_000, 3_000), (20_000_000, 1_000)].into_iter());
        assert!(p.measured);
        assert_eq!(p.completed, 4_000);
        assert_eq!(m.shard_us, [10.0, 20.0]);
        assert!((m.cost_us - 12.5).abs() < 1e-9, "{}", m.cost_us);
        // A shard that retired nothing keeps its own value and its
        // weight is zero.
        let p = m.observe([(60_000_000, 6_000), (20_000_000, 1_000)].into_iter());
        assert!(p.measured);
        assert_eq!(m.shard_us, [10.0, 20.0]);
        assert!((m.cost_us - 10.0).abs() < 1e-9);
        // Zero-cost workers measure no busy time: never a sample.
        let mut z = CostMeter::new(1, 1.0, 0.0);
        let p = z.observe([(0, 1_000)].into_iter());
        assert_eq!(p, PeriodCost { measured: false, completed: 1_000, busy_us: 0 });
        assert!(z.shard_us[0].is_nan());
    }

    #[test]
    fn a_sparse_period_carries_into_the_next_sample() {
        // A 2 ms tuple (H = 1), 50 ms periods: 25 a period.
        let mut m = CostMeter::new(1, 1.0, 2_000.0);
        assert!(m.observe([(50_000_000, 25)].into_iter()).measured);
        assert_eq!(m.cost_us, 2_000.0);
        // The host freezes the VM: the next boundary sees 2 completions
        // in 98 ms of busy time. That is no sample — 49 ms a tuple — but
        // the period's own ledger still reports what happened in it.
        let p = m.observe([(148_000_000, 27)].into_iter());
        assert_eq!(p, PeriodCost { measured: false, completed: 2, busy_us: 98_000 });
        assert_eq!(m.cost_us, 2_000.0);
        assert_eq!(m.shard_us, [2_000.0]);
        // The stall is not forgotten either: it is averaged over the
        // stretch that does reach a sample, (98 + 50) ms over 27 tuples.
        let p = m.observe([(198_000_000, 52)].into_iter());
        assert_eq!(p, PeriodCost { measured: true, completed: 25, busy_us: 50_000 });
        assert!((m.cost_us - 148_000.0 / 27.0).abs() < 1e-9, "{}", m.cost_us);
        // A genuinely slow operator (20 ms a tuple, 2.5 a period) is
        // seen once MIN_SAMPLE_TUPLES of it have been retired.
        let mut m = CostMeter::new(1, 1.0, 2_000.0);
        let mut samples = 0;
        for k in 1..=16u64 {
            let p = m.observe([(k * 50_000_000, k * 5 / 2)].into_iter());
            samples += p.measured as u32;
        }
        assert_eq!(samples, 2, "17 tuples by period 7, 18 more by period 14");
        assert!((m.cost_us / 20_000.0 - 1.0).abs() < 0.07, "{}", m.cost_us);
    }

    #[test]
    fn period_grid_does_not_drift_and_pays_an_overrun_once() {
        let t = Duration::from_millis(10);
        let start = Instant::now();
        let mut grid = PeriodGrid::new(start, t);
        // Every wake is 3 ms late and the period's work takes 4 ms more:
        // boundaries stay on start + k·T, nothing accumulates, no misses.
        for k in 1..=100u32 {
            let woke = start + t * k + Duration::from_millis(3);
            assert!(!grid.tick(woke), "period {k}");
            let after_work = woke + Duration::from_millis(4);
            assert_eq!(grid.until_due(after_work), Duration::from_millis(3));
        }
        // One 25 ms overrun: exactly one miss, the grid re-anchors at the
        // wake, and the next boundary is a full period later (no
        // zero-length catch-up periods).
        let late = start + t * 101 + Duration::from_millis(25);
        assert_eq!(grid.until_due(late), Duration::ZERO);
        assert!(grid.tick(late));
        assert_eq!(grid.until_due(late), t);
        assert!(!grid.tick(late + t));
    }

    #[test]
    fn batch_doors_take_more_shards_than_the_stack_scratch() {
        let mut cfg = quick_cfg(STACK_SHARDS + 3);
        cfg.cost = Duration::ZERO;
        let engine = ShardedEngine::spawn(cfg, NoShedding);
        let keys: Vec<u64> = (0..500u64).collect();
        let mut total = engine.offer_batch(500);
        total.merge(&engine.offer_batch_keyed(&keys));
        assert_eq!(total.dispatched, 1000);
        let report = engine.shutdown();
        assert_eq!(report.completed, 1000);
        assert_eq!(report.per_shard.len(), STACK_SHARDS + 3);
        assert!(report.counters_balance(), "{report:?}");
    }

    #[test]
    fn actuator_fault_is_survived() {
        use crate::faults::{FaultKind, FaultPlan, FaultWindow, FaultyHook};
        let cfg = ShardConfig {
            cost: Duration::from_micros(500),
            period: Duration::from_millis(10),
            ..quick_cfg(1)
        };
        // Command full shedding but let the actuator fault halve it.
        let plan = FaultPlan::new(5)
            .with(FaultWindow::new(FaultKind::ActuatorPartial { applied: 0.5 }, 0, u64::MAX));
        let hook = FaultyHook::new(|_s: &PeriodSnapshot| Decision::entry(1.0), plan);
        let engine = ShardedEngine::spawn(cfg, hook);
        std::thread::sleep(Duration::from_millis(25));
        for _ in 0..400 {
            engine.offer();
            std::thread::sleep(Duration::from_micros(100));
        }
        let report = engine.shutdown();
        // α = 0.5 applied instead of 1.0: roughly half dropped, and the
        // process survived to report it.
        let ratio = report.dropped_entry as f64 / report.offered as f64;
        assert!(ratio > 0.25 && ratio < 0.75, "ratio {ratio}");
    }

    #[test]
    fn report_carries_delay_violations() {
        // A target below the service time: every completion is late.
        let cfg = ShardConfig {
            cost: Duration::from_millis(2),
            target_delay: Duration::from_millis(1),
            ..quick_cfg(1)
        };
        let engine = ShardedEngine::spawn(cfg, NoShedding);
        engine.offer_batch(20);
        std::thread::sleep(Duration::from_millis(100));
        let report = engine.shutdown();
        assert_eq!(report.completed, 20);
        assert_eq!(report.delayed_tuples, report.completed);
        assert!(report.accumulated_violation_ms > 0.0, "{report:?}");
        assert!(report.max_delay_ms >= report.mean_delay_ms, "{report:?}");
    }
}
