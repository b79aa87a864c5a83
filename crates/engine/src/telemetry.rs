//! Structured control-loop telemetry.
//!
//! The paper's claims are *trajectory* claims — the delay `y(k)` settles
//! to the target in ~3 control periods, the shed load tracks the input
//! excess — yet an end-of-run [`RunReport`](crate::metrics::RunReport)
//! only shows aggregates. This module records **why** a run behaved as it
//! did, one structured [`ControlTrace`] per control period, captured at
//! the single seam every runner shares: the [`ControlHook`] boundary.
//!
//! Design constraints, in order:
//!
//! 1. **Zero allocation on the hot path.** The [`RingRecorder`] is
//!    seeded with its full capacity up front; recording a period is a
//!    bounds-checked slot write. When the ring wraps, the oldest records
//!    are overwritten and counted, never reallocated.
//! 2. **One schema for every runner.** The [`TracingHook`] wraps any
//!    [`ControlHook`], so the virtual-time
//!    simulator, the threaded [`shard`](crate::shard) engine, and the fault
//!    harness ([`FaultyHook`](crate::faults::FaultyHook)) all emit
//!    identical records. Controller internals (`ŷ(k)`, `e(k)`, `u(k)`,
//!    supervisor mode, fault flags) flow through the [`InstrumentedHook`]
//!    trait, which hooks implement to expose their last-period state.
//! 3. **Offline-friendly export.** Traces serialise to JSONL
//!    ([`export_jsonl`]) and CSV ([`export_csv`]); live counters render
//!    to the Prometheus text exposition format via [`PromText`] (used by
//!    [`ShardedEngine::prometheus_text`](crate::shard::ShardedEngine::prometheus_text)).
//!
//! A recorded trace reconstructs the run's aggregates:
//! [`reconstructed_mean_delay_ms`] recovers the report's mean delay from
//! the per-period records (the `reproduce trace` experiment asserts the
//! two agree to within 1%).

use crate::hook::{ControlHook, Decision, NoShedding, PeriodSnapshot};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Fault flags
// ---------------------------------------------------------------------------

/// Bit set in [`ControlTrace::fault_flags`] when a sensor dropout fired.
pub const FLAG_SENSOR_DROPOUT: u16 = 1 << 0;
/// Bit set when a stale queue reading was served.
pub const FLAG_STALE_QUEUE: u16 = 1 << 1;
/// Bit set when the cost measurement was replaced by NaN.
pub const FLAG_COST_NAN: u16 = 1 << 2;
/// Bit set when the cost measurement was scaled by a spike factor.
pub const FLAG_COST_SPIKE: u16 = 1 << 3;
/// Bit set when the actuator ignored the commanded decision.
pub const FLAG_ACTUATOR_IGNORE: u16 = 1 << 4;
/// Bit set when the actuator applied the command only partially.
pub const FLAG_ACTUATOR_PARTIAL: u16 = 1 << 5;
/// Bit set when the reported control period was jittered.
pub const FLAG_PERIOD_JITTER: u16 = 1 << 6;

/// The `(bit, name)` table of every fault flag, in bit order.
pub const FAULT_FLAGS: [(u16, &str); 7] = [
    (FLAG_SENSOR_DROPOUT, "sensor_dropout"),
    (FLAG_STALE_QUEUE, "stale_queue"),
    (FLAG_COST_NAN, "cost_nan"),
    (FLAG_COST_SPIKE, "cost_spike"),
    (FLAG_ACTUATOR_IGNORE, "actuator_ignore"),
    (FLAG_ACTUATOR_PARTIAL, "actuator_partial"),
    (FLAG_PERIOD_JITTER, "period_jitter"),
];

/// OR of every defined `FLAG_*` bit.
const FAULT_FLAG_MASK: u16 = FLAG_SENSOR_DROPOUT
    | FLAG_STALE_QUEUE
    | FLAG_COST_NAN
    | FLAG_COST_SPIKE
    | FLAG_ACTUATOR_IGNORE
    | FLAG_ACTUATOR_PARTIAL
    | FLAG_PERIOD_JITTER;

/// Iterator over the names of the set fault-flag bits, in bit order.
///
/// Fixed-size state (no allocation per call); returned by
/// [`fault_flag_names`].
#[derive(Debug, Clone, Copy)]
pub struct FaultFlagNames {
    flags: u16,
    idx: usize,
}

impl FaultFlagNames {
    /// Joins the names with `sep` (one allocation for the output only).
    pub fn join(self, sep: &str) -> String {
        let mut out = String::new();
        for name in self {
            if !out.is_empty() {
                out.push_str(sep);
            }
            out.push_str(name);
        }
        out
    }
}

impl Iterator for FaultFlagNames {
    type Item = &'static str;

    fn next(&mut self) -> Option<&'static str> {
        while self.idx < FAULT_FLAGS.len() {
            let (bit, name) = FAULT_FLAGS[self.idx];
            self.idx += 1;
            if self.flags & bit != 0 {
                return Some(name);
            }
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining: u16 = FAULT_FLAGS[self.idx..]
            .iter()
            .fold(0, |acc, (bit, _)| acc | bit);
        let n = (self.flags & remaining).count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for FaultFlagNames {}

/// Human-readable names of the set fault-flag bits, for rendering.
/// Returns a fixed-size iterator — no per-call allocation.
pub fn fault_flag_names(flags: u16) -> FaultFlagNames {
    FaultFlagNames {
        flags: flags & FAULT_FLAG_MASK,
        idx: 0,
    }
}

/// The `FLAG_*` bit for a fault-flag name, `None` for unknown names.
/// Inverse of [`fault_flag_names`] — every name round-trips to its bit.
pub fn fault_flag_bit(name: &str) -> Option<u16> {
    FAULT_FLAGS
        .iter()
        .find(|&&(_, n)| n == name)
        .map(|&(bit, _)| bit)
}

// ---------------------------------------------------------------------------
// Loop mode + control state
// ---------------------------------------------------------------------------

/// Which layer produced the period's actuation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum LoopMode {
    /// An unsupervised strategy (or a plain hook) was in control.
    #[default]
    Direct,
    /// A supervisor was present and its inner strategy was in control.
    Engaged,
    /// A supervisor was holding the last actuation through a sensor
    /// dropout.
    Hold,
    /// A supervisor's open-loop fallback was in control.
    Fallback,
}

impl LoopMode {
    /// Stable lowercase name, used by the exporters.
    pub fn as_str(&self) -> &'static str {
        match self {
            LoopMode::Direct => "direct",
            LoopMode::Engaged => "engaged",
            LoopMode::Hold => "hold",
            LoopMode::Fallback => "fallback",
        }
    }
}

/// Controller-internal signals for one period, reported by an
/// [`InstrumentedHook`] after its `on_period` returns.
///
/// Quantities a hook does not produce stay `NaN` — the exporters render
/// them as JSON `null` / CSV `NaN` rather than inventing zeros.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ControlState {
    /// Estimated delay `ŷ(k)` from the virtual queue, seconds.
    pub y_hat_s: f64,
    /// Error `e(k) = yd − ŷ(k)`, seconds.
    pub error_s: f64,
    /// Raw controller output `u(k)`, tuples/s.
    pub u_tps: f64,
    /// Per-tuple cost estimate `c(k)` in force, µs.
    pub cost_est_us: f64,
    /// Which layer produced the actuation.
    pub mode: LoopMode,
    /// OR of the `FLAG_*` bits that fired this period.
    pub fault_flags: u16,
}

impl Default for ControlState {
    fn default() -> Self {
        Self {
            y_hat_s: f64::NAN,
            error_s: f64::NAN,
            u_tps: f64::NAN,
            cost_est_us: f64::NAN,
            mode: LoopMode::Direct,
            fault_flags: 0,
        }
    }
}

/// Self-tuning (re-identification) state reported by an adaptive hook
/// after each period — the quantities the `streamshed_adapt_*` metric
/// families and the `adapt_*` trace columns carry.
///
/// Non-adaptive hooks never produce one; the exporters render the
/// absent state as `NaN`/`null` cost, zero counters, and arm `−1`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptState {
    /// Current re-identified per-tuple cost estimate `ĉ`, µs.
    pub cost_est_us: f64,
    /// Gain generation: how many tunings this loop has lived through
    /// (0 = still on the initial design).
    pub generation: u64,
    /// Total bumpless parameter swaps performed (gain-schedule snaps
    /// plus comparator arm changes).
    pub swaps: u64,
    /// Active comparator arm index (−1 when no comparator is running).
    pub arm: i64,
}

/// A [`ControlHook`] that can report its internal state after each
/// period.
///
/// The default implementation reports nothing, so every plain hook
/// (closures, [`NoShedding`]) is trivially instrumented; strategies with
/// real internals (CTRL/BASELINE/AURORA, the supervisor, the fault
/// harness) override [`InstrumentedHook::control_state`].
pub trait InstrumentedHook: ControlHook {
    /// The internal signals of the most recent `on_period` call, if any.
    fn control_state(&self) -> Option<ControlState> {
        None
    }

    /// The self-tuning state of the most recent period, if this hook
    /// adapts its own tuning (default: it does not).
    fn adapt_state(&self) -> Option<AdaptState> {
        None
    }
}

impl InstrumentedHook for NoShedding {}

impl<F> InstrumentedHook for F where F: FnMut(&PeriodSnapshot) -> Decision {}

// ---------------------------------------------------------------------------
// ControlTrace
// ---------------------------------------------------------------------------

/// Maximum number of per-shard queue lengths a [`ControlTrace`] retains.
///
/// The trace must stay `Copy` (the ring buffer never allocates), so the
/// per-shard view is a fixed-size array. Runs with more shards than this
/// record the first `MAX_TRACE_SHARDS` and the true count in
/// [`ControlTrace::shards`].
pub const MAX_TRACE_SHARDS: usize = 8;

/// One structured record per control period — the full observable state
/// of the loop: what the monitor saw, what the controller computed, what
/// the actuator was told, and what faults interfered.
///
/// `Copy` by construction so the ring buffer never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ControlTrace {
    /// Period index `k`.
    pub k: u64,
    /// Period-boundary time, seconds.
    pub time_s: f64,
    /// Control period length `T` as reported to the hook, seconds.
    pub period_s: f64,
    /// Tuples offered this period.
    pub offered: u64,
    /// Tuples admitted past the entry shedder.
    pub admitted: u64,
    /// Tuples dropped at entry.
    pub dropped_entry: u64,
    /// Tuples dropped from in-network queues.
    pub dropped_network: u64,
    /// Roots departed this period.
    pub completed: u64,
    /// Virtual queue length `q(k)` at the boundary.
    pub outstanding: u64,
    /// Tuples inside operator queues at the boundary.
    pub queued_tuples: u64,
    /// Expected remaining CPU load of queued tuples, µs.
    pub queued_load_us: f64,
    /// Measured mean cost per completed root, µs (`NaN` = no sample).
    pub measured_cost_us: f64,
    /// Mean true delay of departures this period, ms (`NaN` = none).
    pub mean_delay_ms: f64,
    /// CPU work executed this period, µs.
    pub cpu_busy_us: u64,
    /// Entry drop probability `α` the actuator was commanded.
    pub alpha: f64,
    /// In-network load the actuator was commanded to shed, µs.
    pub shed_load_us: f64,
    /// Estimated delay `ŷ(k)`, seconds (`NaN` if not reported).
    pub y_hat_s: f64,
    /// Error `e(k)`, seconds (`NaN` if not reported).
    pub error_s: f64,
    /// Controller output `u(k)`, tuples/s (`NaN` if not reported).
    pub u_tps: f64,
    /// Cost estimate in force, µs (`NaN` if not reported).
    pub cost_est_us: f64,
    /// Which layer produced the actuation.
    pub mode: LoopMode,
    /// OR of the `FLAG_*` bits that fired this period.
    pub fault_flags: u16,
    /// Wall-clock time spent inside the hook this period, nanoseconds.
    pub hook_ns: u64,
    /// Re-identified per-tuple cost `ĉ`, µs (`NaN` = no adaptive layer).
    pub adapt_cost_us: f64,
    /// Gain generation of the adaptive layer (0 = initial design or no
    /// adaptive layer).
    pub adapt_generation: u64,
    /// Total bumpless parameter swaps so far (0 when not adapting).
    pub adapt_swaps: u64,
    /// Active comparator arm (−1 = no comparator).
    pub adapt_arm: i64,
    /// Number of data-plane shards behind this record (0 = a
    /// non-sharded runner).
    pub shards: u32,
    /// Queue length of each shard at the boundary (first
    /// [`MAX_TRACE_SHARDS`] shards; unused slots stay 0). Their sum is
    /// the global virtual-queue signal `q(k)` the controller consumed.
    pub shard_queues: [u64; MAX_TRACE_SHARDS],
}

impl ControlTrace {
    /// Builds a record from the snapshot the hook observed, the decision
    /// it returned, its reported internals, and the measured hook span.
    pub fn capture(
        snap: &PeriodSnapshot,
        decision: &Decision,
        state: Option<&ControlState>,
        hook_ns: u64,
    ) -> Self {
        let s = state.copied().unwrap_or_default();
        Self {
            k: snap.k,
            time_s: snap.now.as_secs_f64(),
            period_s: snap.period.as_secs_f64(),
            offered: snap.offered,
            admitted: snap.admitted,
            dropped_entry: snap.dropped_entry,
            dropped_network: snap.dropped_network,
            completed: snap.completed,
            outstanding: snap.outstanding,
            queued_tuples: snap.queued_tuples,
            queued_load_us: snap.queued_load_us,
            measured_cost_us: snap.measured_cost_us.unwrap_or(f64::NAN),
            mean_delay_ms: snap.mean_delay_ms.unwrap_or(f64::NAN),
            cpu_busy_us: snap.cpu_busy_us,
            alpha: decision.alpha(),
            shed_load_us: decision.shed_load_us,
            y_hat_s: s.y_hat_s,
            error_s: s.error_s,
            u_tps: s.u_tps,
            cost_est_us: s.cost_est_us,
            mode: s.mode,
            fault_flags: s.fault_flags,
            hook_ns,
            adapt_cost_us: f64::NAN,
            adapt_generation: 0,
            adapt_swaps: 0,
            adapt_arm: -1,
            shards: 0,
            shard_queues: [0; MAX_TRACE_SHARDS],
        }
    }

    /// Attaches the per-shard queue view of a sharded data plane: the
    /// true shard count plus the first [`MAX_TRACE_SHARDS`] per-shard
    /// queue lengths.
    pub fn with_shard_queues(mut self, queues: &[u64]) -> Self {
        self.shards = queues.len() as u32;
        for (slot, &q) in self.shard_queues.iter_mut().zip(queues.iter()) {
            *slot = q;
        }
        self
    }

    /// Attaches the self-tuning state of an adaptive hook (no-op for
    /// `None`, keeping the columns at their inert defaults).
    pub fn with_adapt(mut self, state: Option<AdaptState>) -> Self {
        if let Some(a) = state {
            self.adapt_cost_us = a.cost_est_us;
            self.adapt_generation = a.generation;
            self.adapt_swaps = a.swaps;
            self.adapt_arm = a.arm;
        }
        self
    }

    /// Whether the record carries self-tuning state (i.e. was produced
    /// by a hook whose [`InstrumentedHook::adapt_state`] returned
    /// `Some`). All four `adapt_*` columns sit at their inert defaults
    /// otherwise.
    pub fn has_adapt(&self) -> bool {
        self.adapt_cost_us.is_finite()
            || self.adapt_arm >= 0
            || self.adapt_generation > 0
            || self.adapt_swaps > 0
    }

    /// One JSON object on a single line (JSONL). `NaN` fields render as
    /// `null` so the output is strictly valid JSON.
    pub fn to_jsonl(&self) -> String {
        fn num(v: f64) -> String {
            if v.is_finite() {
                // Trim trailing noise while staying round-trippable.
                let s = format!("{v:.9}");
                let s = s.trim_end_matches('0').trim_end_matches('.');
                if s.is_empty() || s == "-" {
                    "0".into()
                } else {
                    s.into()
                }
            } else {
                "null".into()
            }
        }
        let shard_queues = self.shard_queues[..(self.shards as usize).min(MAX_TRACE_SHARDS)]
            .iter()
            .map(|q| q.to_string())
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"k\":{},\"time_s\":{},\"period_s\":{},\"offered\":{},\"admitted\":{},\
             \"dropped_entry\":{},\"dropped_network\":{},\"completed\":{},\
             \"outstanding\":{},\"queued_tuples\":{},\"queued_load_us\":{},\
             \"measured_cost_us\":{},\"mean_delay_ms\":{},\"cpu_busy_us\":{},\
             \"alpha\":{},\"shed_load_us\":{},\"y_hat_s\":{},\"error_s\":{},\
             \"u_tps\":{},\"cost_est_us\":{},\"mode\":\"{}\",\"fault_flags\":{},\
             \"hook_ns\":{},\"adapt_cost_us\":{},\"adapt_generation\":{},\
             \"adapt_swaps\":{},\"adapt_arm\":{},\"shards\":{},\
             \"shard_queues\":[{}]}}",
            self.k,
            num(self.time_s),
            num(self.period_s),
            self.offered,
            self.admitted,
            self.dropped_entry,
            self.dropped_network,
            self.completed,
            self.outstanding,
            self.queued_tuples,
            num(self.queued_load_us),
            num(self.measured_cost_us),
            num(self.mean_delay_ms),
            self.cpu_busy_us,
            num(self.alpha),
            num(self.shed_load_us),
            num(self.y_hat_s),
            num(self.error_s),
            num(self.u_tps),
            num(self.cost_est_us),
            self.mode.as_str(),
            self.fault_flags,
            self.hook_ns,
            num(self.adapt_cost_us),
            self.adapt_generation,
            self.adapt_swaps,
            self.adapt_arm,
            self.shards,
            shard_queues,
        )
    }

    /// The CSV header matching [`Self::to_csv_row`]. Per-shard queues are
    /// flattened into `shard_q0..shard_q7` columns (0 when unused).
    pub fn csv_header() -> &'static str {
        "k,time_s,period_s,offered,admitted,dropped_entry,dropped_network,\
         completed,outstanding,queued_tuples,queued_load_us,measured_cost_us,\
         mean_delay_ms,cpu_busy_us,alpha,shed_load_us,y_hat_s,error_s,u_tps,\
         cost_est_us,mode,fault_flags,hook_ns,adapt_cost_us,adapt_generation,\
         adapt_swaps,adapt_arm,shards,\
         shard_q0,shard_q1,shard_q2,shard_q3,shard_q4,shard_q5,shard_q6,shard_q7"
    }

    /// One CSV row (no trailing newline).
    pub fn to_csv_row(&self) -> String {
        let q = &self.shard_queues;
        format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},\
             {},{},{},{},{},{},{},{},{},{},{},{}",
            self.k,
            self.time_s,
            self.period_s,
            self.offered,
            self.admitted,
            self.dropped_entry,
            self.dropped_network,
            self.completed,
            self.outstanding,
            self.queued_tuples,
            self.queued_load_us,
            self.measured_cost_us,
            self.mean_delay_ms,
            self.cpu_busy_us,
            self.alpha,
            self.shed_load_us,
            self.y_hat_s,
            self.error_s,
            self.u_tps,
            self.cost_est_us,
            self.mode.as_str(),
            self.fault_flags,
            self.hook_ns,
            self.adapt_cost_us,
            self.adapt_generation,
            self.adapt_swaps,
            self.adapt_arm,
            self.shards,
            q[0],
            q[1],
            q[2],
            q[3],
            q[4],
            q[5],
            q[6],
            q[7],
        )
    }
}

/// Serialises traces as one JSON object per line.
pub fn export_jsonl(traces: &[ControlTrace]) -> String {
    let mut out = String::with_capacity(traces.len() * 320);
    for t in traces {
        out.push_str(&t.to_jsonl());
        out.push('\n');
    }
    out
}

/// Serialises traces as CSV with a header row.
pub fn export_csv(traces: &[ControlTrace]) -> String {
    let mut out = String::with_capacity(traces.len() * 160 + 256);
    out.push_str(ControlTrace::csv_header());
    out.push('\n');
    for t in traces {
        out.push_str(&t.to_csv_row());
        out.push('\n');
    }
    out
}

/// Recovers the run's mean true delay (ms) from per-period records: the
/// completed-count-weighted mean of the per-period departure means.
/// Returns `None` when no period completed anything.
pub fn reconstructed_mean_delay_ms(traces: &[ControlTrace]) -> Option<f64> {
    let mut sum = 0.0f64;
    let mut n = 0u64;
    for t in traces {
        if t.completed > 0 && t.mean_delay_ms.is_finite() {
            sum += t.mean_delay_ms * t.completed as f64;
            n += t.completed;
        }
    }
    (n > 0).then(|| sum / n as f64)
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// A timed hot-path section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// The control hook invocation (monitor → controller → actuator
    /// arithmetic).
    Hook,
    /// The engine's in-network shed operation (victim selection + queue
    /// surgery).
    Shedder,
}

impl SpanKind {
    const COUNT: usize = 2;

    fn index(self) -> usize {
        match self {
            SpanKind::Hook => 0,
            SpanKind::Shedder => 1,
        }
    }

    /// Stable lowercase name, used by the exporters.
    pub fn as_str(&self) -> &'static str {
        match self {
            SpanKind::Hook => "hook",
            SpanKind::Shedder => "shedder",
        }
    }
}

/// Aggregate wall-clock statistics for one [`SpanKind`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Number of spans recorded.
    pub count: u64,
    /// Total nanoseconds across all spans.
    pub total_ns: u64,
    /// The longest single span, nanoseconds.
    pub max_ns: u64,
}

impl SpanStats {
    /// Mean span length in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    fn add(&mut self, nanos: u64) {
        self.count += 1;
        self.total_ns += nanos;
        self.max_ns = self.max_ns.max(nanos);
    }
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// Receives telemetry events. Implementations must not allocate in
/// [`EventSink::record`] — it sits on the per-period hot path.
pub trait EventSink {
    /// Records one per-period trace.
    fn record(&mut self, trace: &ControlTrace);

    /// Records one timed span (default: discarded).
    fn record_span(&mut self, kind: SpanKind, nanos: u64) {
        let _ = (kind, nanos);
    }
}

/// Discards everything (for overhead baselines).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn record(&mut self, _trace: &ControlTrace) {}
}

/// A fixed-capacity overwrite-oldest ring of `Copy` records.
///
/// The backing storage is fully allocated at construction, so pushing is
/// a slot write with no allocation — the property every hot-path log in
/// the engine needs ([`RingRecorder`] builds on it for control traces).
/// When full, the
/// oldest record is overwritten and [`Ring::overwritten`] incremented,
/// so a long run keeps its most recent `capacity` records.
#[derive(Debug, Clone)]
pub struct Ring<T: Copy> {
    buf: Vec<T>,
    capacity: usize,
    /// Next slot to write (wraps).
    next: usize,
    overwritten: u64,
}

impl<T: Copy> Ring<T> {
    /// Creates a ring holding up to `capacity` records (fully
    /// preallocated; `capacity` must be ≥ 1).
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity >= 1, "ring capacity must be at least 1");
        Self {
            buf: Vec::with_capacity(capacity),
            capacity,
            next: 0,
            overwritten: 0,
        }
    }

    /// Appends a record, overwriting the oldest once full.
    #[inline]
    pub fn push(&mut self, item: T) {
        if self.buf.len() < self.capacity {
            self.buf.push(item);
            self.next = self.buf.len() % self.capacity;
        } else {
            self.buf[self.next] = item;
            self.next = (self.next + 1) % self.capacity;
            self.overwritten += 1;
        }
    }

    /// Records retained so far (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Number of records lost to ring wrap-around.
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// The retained records in chronological order (oldest first).
    pub fn to_vec(&self) -> Vec<T> {
        if self.buf.len() < self.capacity {
            self.buf.clone()
        } else {
            // `next` points at the oldest record once the ring is full.
            let mut out = Vec::with_capacity(self.capacity);
            out.extend_from_slice(&self.buf[self.next..]);
            out.extend_from_slice(&self.buf[..self.next]);
            out
        }
    }
}

/// A fixed-capacity ring buffer of [`ControlTrace`] records plus span
/// statistics.
///
/// The buffer is fully allocated at construction; recording is a slot
/// write. When full, the oldest record is overwritten and
/// [`RingRecorder::overwritten`] incremented, so a long run keeps its
/// most recent `capacity` periods.
#[derive(Debug, Clone)]
pub struct RingRecorder {
    ring: Ring<ControlTrace>,
    spans: [SpanStats; SpanKind::COUNT],
}

impl RingRecorder {
    /// Creates a recorder holding up to `capacity` periods
    /// (fully preallocated; `capacity` must be ≥ 1).
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity >= 1, "recorder capacity must be at least 1");
        Self {
            ring: Ring::with_capacity(capacity),
            spans: [SpanStats::default(); SpanKind::COUNT],
        }
    }

    /// Records recorded so far (≤ capacity).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Number of records lost to ring wrap-around.
    pub fn overwritten(&self) -> u64 {
        self.ring.overwritten()
    }

    /// Span statistics for one hot-path section.
    pub fn span_stats(&self, kind: SpanKind) -> SpanStats {
        self.spans[kind.index()]
    }

    /// The retained records in chronological order (oldest first).
    pub fn to_vec(&self) -> Vec<ControlTrace> {
        self.ring.to_vec()
    }
}

impl EventSink for RingRecorder {
    fn record(&mut self, trace: &ControlTrace) {
        self.ring.push(*trace);
    }

    fn record_span(&mut self, kind: SpanKind, nanos: u64) {
        self.spans[kind.index()].add(nanos);
    }
}

/// A cloneable, thread-safe handle to a [`RingRecorder`] — the sink to
/// use when the recorder must outlive the hook (the real-time engine
/// moves its hook into the controller thread) or be shared between the
/// hook and the engine (shedder spans from the simulator).
#[derive(Debug, Clone)]
pub struct SharedRecorder(Arc<Mutex<RingRecorder>>);

impl SharedRecorder {
    /// No recorder method can panic part-way through an update, so the
    /// ring behind a poisoned lock is still valid.
    fn lock(&self) -> MutexGuard<'_, RingRecorder> {
        crate::lock_unpoisoned(&self.0)
    }

    /// Creates a shared recorder with the given ring capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        Self(Arc::new(Mutex::new(RingRecorder::with_capacity(capacity))))
    }

    /// Snapshot of the retained records, oldest first.
    pub fn snapshot(&self) -> Vec<ControlTrace> {
        self.lock().to_vec()
    }

    /// Span statistics for one hot-path section.
    pub fn span_stats(&self, kind: SpanKind) -> SpanStats {
        self.lock().span_stats(kind)
    }

    /// Number of records lost to ring wrap-around.
    pub fn overwritten(&self) -> u64 {
        self.lock().overwritten()
    }

    /// Records recorded so far.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }
}

impl EventSink for SharedRecorder {
    fn record(&mut self, trace: &ControlTrace) {
        self.lock().record(trace);
    }

    fn record_span(&mut self, kind: SpanKind, nanos: u64) {
        self.lock().record_span(kind, nanos);
    }
}

// ---------------------------------------------------------------------------
// TracingHook
// ---------------------------------------------------------------------------

/// Wraps any [`InstrumentedHook`], recording one [`ControlTrace`] per
/// period into an [`EventSink`] and timing the hook invocation as a
/// [`SpanKind::Hook`] span.
///
/// Because the wrapper is itself an `InstrumentedHook`, it composes with
/// the rest of the stack (e.g. tracing a
/// [`FaultyHook`](crate::faults::FaultyHook) that wraps a supervisor).
pub struct TracingHook<H, S = RingRecorder> {
    inner: H,
    sink: S,
}

impl<H: InstrumentedHook> TracingHook<H, RingRecorder> {
    /// Traces `inner` into an owned ring recorder of `capacity` periods.
    pub fn new(inner: H, capacity: usize) -> Self {
        Self {
            inner,
            sink: RingRecorder::with_capacity(capacity),
        }
    }

    /// The recorder (for inspection mid-run).
    pub fn recorder(&self) -> &RingRecorder {
        &self.sink
    }

    /// Consumes the hook, returning the recorder.
    pub fn into_recorder(self) -> RingRecorder {
        self.sink
    }
}

impl<H: InstrumentedHook> TracingHook<H, SharedRecorder> {
    /// Traces `inner` into a shared recorder (cloneable handle retained
    /// by the caller).
    pub fn shared(inner: H, recorder: SharedRecorder) -> Self {
        Self {
            inner,
            sink: recorder,
        }
    }
}

impl<H, S> TracingHook<H, S> {
    /// Traces `inner` into an arbitrary [`EventSink`] — the constructor
    /// the observability plane uses to fan one trace stream out to the
    /// ring recorder, the diagnostics engine, and the flight recorder at
    /// once (see [`ObsPlane`](crate::obs::ObsPlane)).
    pub fn with_sink(inner: H, sink: S) -> Self {
        Self { inner, sink }
    }

    /// The wrapped hook.
    pub fn inner(&self) -> &H {
        &self.inner
    }

    /// Consumes the wrapper, returning `(inner hook, sink)`.
    pub fn into_parts(self) -> (H, S) {
        (self.inner, self.sink)
    }
}

impl<H: InstrumentedHook, S: EventSink> ControlHook for TracingHook<H, S> {
    fn on_period(&mut self, snapshot: &PeriodSnapshot) -> Decision {
        let t0 = Instant::now();
        let decision = self.inner.on_period(snapshot);
        let hook_ns = t0.elapsed().as_nanos() as u64;
        let state = self.inner.control_state();
        let trace = ControlTrace::capture(snapshot, &decision, state.as_ref(), hook_ns)
            .with_adapt(self.inner.adapt_state());
        self.sink.record(&trace);
        self.sink.record_span(SpanKind::Hook, hook_ns);
        decision
    }
}

impl<H: InstrumentedHook, S: EventSink> InstrumentedHook for TracingHook<H, S> {
    fn control_state(&self) -> Option<ControlState> {
        self.inner.control_state()
    }

    fn adapt_state(&self) -> Option<AdaptState> {
        self.inner.adapt_state()
    }
}

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

/// Builder for the Prometheus text exposition format (`# HELP`/`# TYPE`
/// plus one sample per metric).
///
/// ```
/// use streamshed_engine::telemetry::PromText;
/// let mut p = PromText::new("streamshed");
/// p.counter("offered_total", "Tuples offered to the engine", 1234.0);
/// p.gauge("queue_len", "Tuples currently queued", 17.0);
/// let text = p.finish();
/// assert!(text.contains("# TYPE streamshed_offered_total counter"));
/// assert!(text.contains("streamshed_queue_len 17"));
/// ```
#[derive(Debug, Clone)]
pub struct PromText {
    prefix: String,
    out: String,
}

/// Escapes a `# HELP` text per the Prometheus exposition format:
/// backslash and newline become `\\` and `\n`.
fn escape_help(out: &mut String, text: &str) {
    for ch in text.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// Escapes a label value per the Prometheus exposition format:
/// backslash, newline, and double quote become `\\`, `\n`, and `\"`.
fn escape_label_value(out: &mut String, value: &str) {
    for ch in value.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '"' => out.push_str("\\\""),
            c => out.push(c),
        }
    }
}

impl PromText {
    /// Creates a builder; every metric name is prefixed `"<prefix>_"`.
    pub fn new(prefix: &str) -> Self {
        Self {
            prefix: prefix.to_string(),
            out: String::new(),
        }
    }

    fn write_value(&mut self, series: &str, value: f64) {
        use std::fmt::Write as _;
        if value.fract() == 0.0 && value.abs() < 9e15 {
            let _ = writeln!(self.out, "{series} {}", value as i64);
        } else {
            let _ = writeln!(self.out, "{series} {value}");
        }
    }

    fn preamble(&mut self, name: &str, help: &str, kind: &str) -> String {
        use std::fmt::Write as _;
        let full = format!("{}_{name}", self.prefix);
        let _ = write!(self.out, "# HELP {full} ");
        escape_help(&mut self.out, help);
        self.out.push('\n');
        let _ = writeln!(self.out, "# TYPE {full} {kind}");
        full
    }

    fn sample(&mut self, name: &str, help: &str, kind: &str, value: f64) {
        let full = self.preamble(name, help, kind);
        self.write_value(&full, value);
    }

    fn sample_vec(&mut self, name: &str, help: &str, kind: &str, label: &str, values: &[f64]) {
        let full = self.preamble(name, help, kind);
        for (i, &value) in values.iter().enumerate() {
            let series = format!("{full}{{{label}=\"{i}\"}}");
            self.write_value(&series, value);
        }
    }

    fn sample_labeled(
        &mut self,
        name: &str,
        help: &str,
        kind: &str,
        label: &str,
        label_value: &str,
        value: f64,
    ) {
        let full = self.preamble(name, help, kind);
        let mut series = format!("{full}{{{label}=\"");
        escape_label_value(&mut series, label_value);
        series.push_str("\"}");
        self.write_value(&series, value);
    }

    /// Appends a monotone counter sample.
    pub fn counter(&mut self, name: &str, help: &str, value: f64) -> &mut Self {
        self.sample(name, help, "counter", value);
        self
    }

    /// Appends a gauge sample.
    pub fn gauge(&mut self, name: &str, help: &str, value: f64) -> &mut Self {
        self.sample(name, help, "gauge", value);
        self
    }

    /// Appends a labelled counter family: one `# HELP`/`# TYPE` preamble
    /// and one `name{label="i"}` sample per element of `values` (the
    /// label value is the element's index — e.g. the shard id).
    pub fn counter_vec(&mut self, name: &str, help: &str, label: &str, values: &[f64]) -> &mut Self {
        self.sample_vec(name, help, "counter", label, values);
        self
    }

    /// Appends a labelled gauge family, one sample per element of
    /// `values`, labelled by index.
    pub fn gauge_vec(&mut self, name: &str, help: &str, label: &str, values: &[f64]) -> &mut Self {
        self.sample_vec(name, help, "gauge", label, values);
        self
    }

    /// Appends one counter sample carrying an arbitrary string label
    /// value (escaped per the exposition format).
    pub fn counter_labeled(
        &mut self,
        name: &str,
        help: &str,
        label: &str,
        label_value: &str,
        value: f64,
    ) -> &mut Self {
        self.sample_labeled(name, help, "counter", label, label_value, value);
        self
    }

    /// Appends one gauge sample carrying an arbitrary string label value
    /// (escaped per the exposition format) — e.g.
    /// `streamshed_diag_state_info{state="oscillating"} 1`.
    pub fn gauge_labeled(
        &mut self,
        name: &str,
        help: &str,
        label: &str,
        label_value: &str,
        value: f64,
    ) -> &mut Self {
        self.sample_labeled(name, help, "gauge", label, label_value, value);
        self
    }

    /// Appends a `# HELP`/`# TYPE` preamble for a multi-sample family
    /// (`kind` is `"counter"`, `"gauge"`, or `"histogram"`) and returns
    /// the full prefixed name. Follow with
    /// [`sample_with_labels`](Self::sample_with_labels) — one preamble,
    /// many samples, per the exposition format.
    pub fn family(&mut self, name: &str, help: &str, kind: &str) -> String {
        self.preamble(name, help, kind)
    }

    /// Appends one sample line `full{k1="v1",k2="v2"} value` with every
    /// label value escaped per the exposition format. `full` is a name
    /// returned by [`family`](Self::family), optionally suffixed
    /// (`_bucket`, `_sum`, `_count` for histograms).
    pub fn sample_with_labels(
        &mut self,
        full: &str,
        labels: &[(&str, &str)],
        value: f64,
    ) -> &mut Self {
        let mut series = String::with_capacity(full.len() + 24 * labels.len());
        series.push_str(full);
        if !labels.is_empty() {
            series.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    series.push(',');
                }
                series.push_str(k);
                series.push_str("=\"");
                escape_label_value(&mut series, v);
                series.push('"');
            }
            series.push('}');
        }
        self.write_value(&series, value);
        self
    }

    /// The rendered exposition text.
    pub fn finish(self) -> String {
        self.out
    }
}

/// Escapes `s` as a quoted JSON string (quotes included): `"`, `\`,
/// and control characters are escaped per RFC 8259.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hook::Decision;
    use crate::time::{secs, SimTime};

    fn snap(k: u64) -> PeriodSnapshot {
        PeriodSnapshot {
            k,
            now: SimTime::ZERO + secs(k + 1),
            period: secs(1),
            offered: 300,
            admitted: 250,
            dropped_entry: 50,
            dropped_network: 0,
            completed: 190,
            outstanding: 60,
            queued_tuples: 60,
            queued_load_us: 300_000.0,
            measured_cost_us: Some(5000.0),
            mean_delay_ms: Some(1200.0 + k as f64),
            cpu_busy_us: 950_000,
        }
    }

    #[test]
    fn tracing_hook_records_every_period() {
        let mut hook = TracingHook::new(|_s: &PeriodSnapshot| Decision::entry(0.25), 64);
        for k in 0..10 {
            let d = hook.on_period(&snap(k));
            assert_eq!(d.entry_drop_prob, 0.25);
        }
        let rec = hook.into_recorder();
        assert_eq!(rec.len(), 10);
        let traces = rec.to_vec();
        assert_eq!(traces[3].k, 3);
        assert_eq!(traces[3].alpha, 0.25);
        assert_eq!(traces[3].offered, 300);
        // Plain closures report no internals: NaN, Direct, no flags.
        assert!(traces[3].y_hat_s.is_nan());
        assert_eq!(traces[3].mode, LoopMode::Direct);
        assert_eq!(traces[3].fault_flags, 0);
        assert_eq!(rec.span_stats(SpanKind::Hook).count, 10);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts() {
        let mut rec = RingRecorder::with_capacity(4);
        let d = Decision::NONE;
        for k in 0..10 {
            rec.record(&ControlTrace::capture(&snap(k), &d, None, 7));
        }
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.overwritten(), 6);
        let ks: Vec<u64> = rec.to_vec().iter().map(|t| t.k).collect();
        assert_eq!(ks, vec![6, 7, 8, 9], "chronological, newest retained");
    }

    #[test]
    fn jsonl_is_valid_and_null_for_nan() {
        let mut s = snap(2);
        s.measured_cost_us = None;
        s.mean_delay_ms = None;
        let t = ControlTrace::capture(&s, &Decision::entry(0.5), None, 42);
        let line = t.to_jsonl();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"measured_cost_us\":null"));
        assert!(line.contains("\"alpha\":0.5"));
        assert!(line.contains("\"mode\":\"direct\""));
        assert!(!line.contains("NaN"));
        // Structural sanity: one object, balanced quotes, expected key.
        assert_eq!(line.matches('{').count(), 1);
        assert_eq!(line.matches('}').count(), 1);
        assert_eq!(line.matches('"').count() % 2, 0);
        assert!(line.contains("\"k\":2,"));
    }

    #[test]
    fn csv_row_matches_header_arity() {
        let t = ControlTrace::capture(&snap(0), &Decision::NONE, None, 1);
        let cols = ControlTrace::csv_header().split(',').count();
        assert_eq!(t.to_csv_row().split(',').count(), cols);
        let exported = export_csv(&[t]);
        assert_eq!(exported.lines().count(), 2);
    }

    #[test]
    fn mean_delay_reconstruction_weights_by_completed() {
        let d = Decision::NONE;
        let mut a = snap(0);
        a.completed = 100;
        a.mean_delay_ms = Some(1000.0);
        let mut b = snap(1);
        b.completed = 300;
        b.mean_delay_ms = Some(2000.0);
        let mut c = snap(2);
        c.completed = 0;
        c.mean_delay_ms = None;
        let traces = vec![
            ControlTrace::capture(&a, &d, None, 0),
            ControlTrace::capture(&b, &d, None, 0),
            ControlTrace::capture(&c, &d, None, 0),
        ];
        let m = reconstructed_mean_delay_ms(&traces).unwrap();
        assert!((m - 1750.0).abs() < 1e-9, "weighted mean {m}");
        assert_eq!(reconstructed_mean_delay_ms(&[]), None);
    }

    #[test]
    fn shared_recorder_collects_across_clones() {
        let rec = SharedRecorder::with_capacity(16);
        let mut hook = TracingHook::shared(NoShedding, rec.clone());
        for k in 0..5 {
            let _ = hook.on_period(&snap(k));
        }
        assert_eq!(rec.len(), 5);
        assert_eq!(rec.span_stats(SpanKind::Hook).count, 5);
        assert!(!rec.is_empty());
    }

    #[test]
    fn shared_recorder_survives_a_panicked_lock_holder() {
        let rec = SharedRecorder::with_capacity(16);
        let mut sink = rec.clone();
        sink.record(&ControlTrace::capture(&snap(0), &Decision::NONE, None, 0));
        let held = rec.clone();
        let _ = std::thread::spawn(move || {
            let _guard = held.lock();
            panic!("poison the recorder");
        })
        .join();
        // The next period still records, and the old record is intact.
        sink.record(&ControlTrace::capture(&snap(1), &Decision::NONE, None, 0));
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.snapshot()[0].k, 0);
    }

    #[test]
    fn control_state_flows_through() {
        struct Fixed;
        impl ControlHook for Fixed {
            fn on_period(&mut self, _s: &PeriodSnapshot) -> Decision {
                Decision::entry(0.1)
            }
        }
        impl InstrumentedHook for Fixed {
            fn control_state(&self) -> Option<ControlState> {
                Some(ControlState {
                    y_hat_s: 2.5,
                    error_s: -0.5,
                    u_tps: -42.0,
                    cost_est_us: 5105.0,
                    mode: LoopMode::Fallback,
                    fault_flags: FLAG_STALE_QUEUE,
                })
            }
        }
        let mut hook = TracingHook::new(Fixed, 8);
        let _ = hook.on_period(&snap(0));
        let t = hook.recorder().to_vec()[0];
        assert_eq!(t.y_hat_s, 2.5);
        assert_eq!(t.mode, LoopMode::Fallback);
        assert_eq!(t.fault_flags, FLAG_STALE_QUEUE);
        assert_eq!(
            fault_flag_names(t.fault_flags).collect::<Vec<_>>(),
            vec!["stale_queue"]
        );
    }

    #[test]
    fn span_stats_track_mean_and_max() {
        let mut s = SpanStats::default();
        s.add(10);
        s.add(30);
        assert_eq!(s.count, 2);
        assert_eq!(s.total_ns, 40);
        assert_eq!(s.max_ns, 30);
        assert!((s.mean_ns() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn prom_text_format() {
        let mut p = PromText::new("streamshed");
        p.counter("offered_total", "Tuples offered", 10.0)
            .gauge("alpha", "Drop probability", 0.25);
        let text = p.finish();
        assert!(text.contains("# HELP streamshed_offered_total Tuples offered"));
        assert!(text.contains("# TYPE streamshed_offered_total counter"));
        assert!(text.contains("streamshed_offered_total 10"));
        assert!(text.contains("# TYPE streamshed_alpha gauge"));
        assert!(text.contains("streamshed_alpha 0.25"));
    }

    #[test]
    fn prom_text_vec_emits_one_preamble_many_samples() {
        let mut p = PromText::new("streamshed");
        p.counter_vec("shard_completed_total", "Per-shard completions", "shard", &[5.0, 7.0])
            .gauge_vec("shard_queue_len", "Per-shard queue length", "shard", &[2.0, 0.0, 9.0]);
        let text = p.finish();
        assert_eq!(
            text.matches("# TYPE streamshed_shard_completed_total counter").count(),
            1
        );
        assert!(text.contains("streamshed_shard_completed_total{shard=\"0\"} 5"));
        assert!(text.contains("streamshed_shard_completed_total{shard=\"1\"} 7"));
        assert!(text.contains("streamshed_shard_queue_len{shard=\"2\"} 9"));
        assert_eq!(text.matches("# HELP streamshed_shard_queue_len").count(), 1);
    }

    #[test]
    fn shard_queues_flow_through_exporters() {
        let t = ControlTrace::capture(&snap(1), &Decision::NONE, None, 3)
            .with_shard_queues(&[4, 0, 11]);
        assert_eq!(t.shards, 3);
        let line = t.to_jsonl();
        assert!(line.contains("\"shards\":3"), "{line}");
        assert!(line.contains("\"shard_queues\":[4,0,11]"), "{line}");
        let row = t.to_csv_row();
        assert_eq!(row.split(',').count(), ControlTrace::csv_header().split(',').count());
        assert!(row.ends_with(",3,4,0,11,0,0,0,0,0"), "{row}");

        // Non-sharded runs keep the fields inert.
        let plain = ControlTrace::capture(&snap(1), &Decision::NONE, None, 3);
        assert_eq!(plain.shards, 0);
        assert!(plain.to_jsonl().contains("\"shard_queues\":[]"));

        // More shards than the trace retains: count is truthful, the
        // array keeps the first MAX_TRACE_SHARDS.
        let wide = ControlTrace::capture(&snap(1), &Decision::NONE, None, 3)
            .with_shard_queues(&[1; MAX_TRACE_SHARDS + 4]);
        assert_eq!(wide.shards as usize, MAX_TRACE_SHARDS + 4);
        assert_eq!(wide.shard_queues, [1; MAX_TRACE_SHARDS]);
    }

    #[test]
    fn adapt_state_flows_through_exporters() {
        struct Adapting;
        impl ControlHook for Adapting {
            fn on_period(&mut self, _s: &PeriodSnapshot) -> Decision {
                Decision::entry(0.1)
            }
        }
        impl InstrumentedHook for Adapting {
            fn adapt_state(&self) -> Option<AdaptState> {
                Some(AdaptState {
                    cost_est_us: 10_210.5,
                    generation: 2,
                    swaps: 3,
                    arm: 1,
                })
            }
        }
        let mut hook = TracingHook::new(Adapting, 8);
        let _ = hook.on_period(&snap(0));
        let t = hook.recorder().to_vec()[0];
        assert_eq!(t.adapt_cost_us, 10_210.5);
        assert_eq!(t.adapt_generation, 2);
        assert_eq!(t.adapt_swaps, 3);
        assert_eq!(t.adapt_arm, 1);
        let line = t.to_jsonl();
        assert!(line.contains("\"adapt_cost_us\":10210.5"), "{line}");
        assert!(line.contains("\"adapt_generation\":2"), "{line}");
        assert!(line.contains("\"adapt_swaps\":3"), "{line}");
        assert!(line.contains("\"adapt_arm\":1"), "{line}");

        // Non-adaptive hooks keep the columns inert: null cost, arm −1.
        let plain = ControlTrace::capture(&snap(0), &Decision::NONE, None, 1);
        assert!(plain.adapt_cost_us.is_nan());
        assert_eq!(plain.adapt_arm, -1);
        assert!(plain.to_jsonl().contains("\"adapt_cost_us\":null"));
        assert!(plain.to_jsonl().contains("\"adapt_arm\":-1"));
    }

    #[test]
    fn fault_flag_names_cover_all_bits() {
        let all = FLAG_SENSOR_DROPOUT
            | FLAG_STALE_QUEUE
            | FLAG_COST_NAN
            | FLAG_COST_SPIKE
            | FLAG_ACTUATOR_IGNORE
            | FLAG_ACTUATOR_PARTIAL
            | FLAG_PERIOD_JITTER;
        assert_eq!(fault_flag_names(all).len(), 7);
        assert_eq!(fault_flag_names(all).count(), 7);
        assert_eq!(fault_flag_names(0).len(), 0);
        assert_eq!(fault_flag_names(0).next(), None);
        // Undefined high bits never leak into the iteration.
        assert_eq!(fault_flag_names(0x8000).len(), 0);
    }

    #[test]
    fn fault_flags_round_trip_bit_to_name_to_bit() {
        for &(bit, name) in FAULT_FLAGS.iter() {
            let names: Vec<_> = fault_flag_names(bit).collect();
            assert_eq!(names, vec![name], "bit {bit:#06x}");
            assert_eq!(fault_flag_bit(name), Some(bit), "name {name}");
        }
        assert_eq!(fault_flag_bit("no_such_flag"), None);
        // Joined rendering matches the table order for a multi-bit set.
        let joined = fault_flag_names(FLAG_STALE_QUEUE | FLAG_PERIOD_JITTER).join("|");
        assert_eq!(joined, "stale_queue|period_jitter");
        assert_eq!(fault_flag_names(0).join("|"), "");
    }

    #[test]
    fn prom_text_escapes_hostile_labels_and_help() {
        let mut p = PromText::new("streamshed");
        p.gauge_labeled(
            "diag_state_info",
            "Current state.\nSecond \\ line",
            "state",
            "evil\"name\\with\nnewline",
            1.0,
        );
        let text = p.finish();
        // HELP: backslash and newline escaped (quotes stay literal).
        assert!(
            text.contains("# HELP streamshed_diag_state_info Current state.\\nSecond \\\\ line"),
            "{text}"
        );
        // Label value: backslash, double quote, and newline all escaped.
        assert!(
            text.contains(
                "streamshed_diag_state_info{state=\"evil\\\"name\\\\with\\nnewline\"} 1"
            ),
            "{text}"
        );
        // The exposition text stays line-structured: exactly HELP, TYPE,
        // and one sample line.
        assert_eq!(text.lines().count(), 3, "{text}");
    }

    #[test]
    fn prom_text_labeled_counter_sample() {
        let mut p = PromText::new("s");
        p.counter_labeled("anomalies_total", "Anomaly entries", "state", "saturated", 3.0);
        let text = p.finish();
        assert!(text.contains("# TYPE s_anomalies_total counter"));
        assert!(text.contains("s_anomalies_total{state=\"saturated\"} 3"));
    }
}
