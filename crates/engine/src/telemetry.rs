//! Structured control-loop telemetry.
//!
//! The paper's claims are *trajectory* claims — the delay `y(k)` settles
//! to the target in ~3 control periods, the shed load tracks the input
//! excess — yet an end-of-run [`RunReport`](crate::metrics::RunReport)
//! only shows aggregates. This module records **why** a run behaved as it
//! did, one structured [`ControlTrace`] per control period.
//!
//! Design constraints, in order:
//!
//! 1. **Zero allocation on the hot path.** A [`SharedRecorder`]'s ring
//!    is allocated to its full capacity up front; recording a period is
//!    a slot write. When the ring wraps, the oldest records are
//!    overwritten and counted, never reallocated.
//! 2. **One step for every engine.** The simulator and the threaded
//!    [`shard`](crate::shard) engine both run a period through
//!    [`control_step`], so they emit identical records. Controller
//!    internals (`ŷ(k)`, `e(k)`, `u(k)`, supervisor mode, the fault
//!    flags of a [`FaultyHook`](crate::faults::FaultyHook)) flow through
//!    the [`InstrumentedHook`] trait.
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
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
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

/// The `|`-joined names of the set fault-flag bits, in bit order
/// (empty when none is set; undefined bits are ignored).
pub fn fault_flag_names(flags: u16) -> String {
    let names: Vec<&str> =
        FAULT_FLAGS.iter().filter(|(bit, _)| flags & bit != 0).map(|(_, name)| *name).collect();
    names.join("|")
}

// ---------------------------------------------------------------------------
// Loop mode + control state
// ---------------------------------------------------------------------------

/// Which layer produced the period's actuation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
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
#[derive(Debug, Clone, Copy, PartialEq)]
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
#[derive(Debug, Clone, Copy, PartialEq)]
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
#[derive(Debug, Clone, Copy, PartialEq, Default)]
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

    /// The exported columns in export order, each field once: JSONL,
    /// the CSV header and the CSV row all render from this list.
    fn columns(&self) -> [(&'static str, Cell<'_>); 29] {
        use Cell::{F, U};
        let shown = (self.shards as usize).min(MAX_TRACE_SHARDS);
        [
            ("k", U(self.k)),
            ("time_s", F(self.time_s)),
            ("period_s", F(self.period_s)),
            ("offered", U(self.offered)),
            ("admitted", U(self.admitted)),
            ("dropped_entry", U(self.dropped_entry)),
            ("dropped_network", U(self.dropped_network)),
            ("completed", U(self.completed)),
            ("outstanding", U(self.outstanding)),
            ("queued_tuples", U(self.queued_tuples)),
            ("queued_load_us", F(self.queued_load_us)),
            ("measured_cost_us", F(self.measured_cost_us)),
            ("mean_delay_ms", F(self.mean_delay_ms)),
            ("cpu_busy_us", U(self.cpu_busy_us)),
            ("alpha", F(self.alpha)),
            ("shed_load_us", F(self.shed_load_us)),
            ("y_hat_s", F(self.y_hat_s)),
            ("error_s", F(self.error_s)),
            ("u_tps", F(self.u_tps)),
            ("cost_est_us", F(self.cost_est_us)),
            ("mode", Cell::Str(self.mode.as_str())),
            ("fault_flags", U(self.fault_flags.into())),
            ("hook_ns", U(self.hook_ns)),
            ("adapt_cost_us", F(self.adapt_cost_us)),
            ("adapt_generation", U(self.adapt_generation)),
            ("adapt_swaps", U(self.adapt_swaps)),
            ("adapt_arm", Cell::I(self.adapt_arm)),
            ("shards", U(self.shards.into())),
            ("shard_queues", Cell::Queues(&self.shard_queues, shown)),
        ]
    }

    /// One JSON object on a single line (JSONL). Floats round-trip, and
    /// `NaN` and ±inf become `null`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(512);
        write_json_object(&mut out, self.columns());
        out
    }

    /// The CSV header matching [`Self::to_csv_row`]. Per-shard queues are
    /// flattened into `shard_q0..shard_q7` columns (0 when unused).
    pub fn csv_header() -> &'static str {
        static HEADER: OnceLock<String> = OnceLock::new();
        HEADER.get_or_init(|| {
            let names = ControlTrace::default().columns().map(|(name, cell)| match cell {
                Cell::Queues(q, _) => {
                    (0..q.len()).map(|i| format!("shard_q{i}")).collect::<Vec<_>>().join(",")
                }
                _ => name.to_string(),
            });
            names.join(",")
        })
    }

    /// One CSV row (no trailing newline); floats render through
    /// `Display` (`NaN`, `inf`).
    pub fn to_csv_row(&self) -> String {
        let mut out = String::with_capacity(256);
        for (i, (_, cell)) in self.columns().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            cell.write(&mut out, false);
        }
        out
    }
}

/// One exported value, rendered as JSON or as a CSV cell.
#[derive(Debug, Clone, Copy)]
pub enum Cell<'a> {
    /// A count.
    U(u64),
    /// A signed integer.
    I(i64),
    /// A float: its `Display` form, the shortest that parses back to the
    /// same bits (JSON writes a non-finite one as `null`).
    F(f64),
    /// A float to a fixed number of decimals (JSON writes a non-finite
    /// one as `null`).
    Fixed(f64, usize),
    /// A name: quoted in JSON, bare in CSV (never escaped, so only for
    /// the static identifiers of an enum).
    Str(&'a str),
    /// A flag.
    Bool(bool),
    /// Text that is JSON already (`null`, an object, an array).
    Raw(&'a str),
    /// Per-shard queues: a JSON array of the first `n`, or every slot as
    /// its own CSV cell.
    Queues(&'a [u64; MAX_TRACE_SHARDS], usize),
}

impl Cell<'_> {
    /// Appends the value as JSON (`json`) or as CSV.
    pub(crate) fn write(self, out: &mut String, json: bool) {
        use std::fmt::Write as _;
        let _ = match self {
            Cell::U(v) => write!(out, "{v}"),
            Cell::I(v) => write!(out, "{v}"),
            Cell::F(v) if json && !v.is_finite() => write!(out, "null"),
            Cell::F(v) => write!(out, "{v}"),
            Cell::Fixed(v, _) if json && !v.is_finite() => write!(out, "null"),
            Cell::Fixed(v, places) => write!(out, "{v:.places$}"),
            Cell::Str(s) if json => write!(out, "\"{s}\""),
            Cell::Str(s) => write!(out, "{s}"),
            Cell::Bool(b) => write!(out, "{b}"),
            Cell::Raw(s) => write!(out, "{s}"),
            Cell::Queues(q, n) => {
                let shown = if json { &q[..n] } else { &q[..] };
                let cells = shown.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
                if json {
                    write!(out, "[{cells}]")
                } else {
                    write!(out, "{cells}")
                }
            }
        };
    }
}

/// Appends the JSON object `{"key":value,…}` of `fields`, in order.
pub fn write_json_object<'a>(
    out: &mut String,
    fields: impl IntoIterator<Item = (&'static str, Cell<'a>)>,
) {
    out.push('{');
    for (i, (key, cell)) in fields.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(key);
        out.push_str("\":");
        cell.write(out, true);
    }
    out.push('}');
}

/// One control step, as both engines run it: times `hook`'s
/// `on_period` on `snap` and captures the period's [`ControlTrace`] —
/// the snapshot the engine built, the decision the hook returned, and
/// the hook's reported internals.
pub fn control_step<H: InstrumentedHook + ?Sized>(
    hook: &mut H,
    snap: &PeriodSnapshot,
) -> (Decision, ControlTrace) {
    let t0 = Instant::now();
    let decision = hook.on_period(snap);
    let hook_ns = t0.elapsed().as_nanos() as u64;
    let trace = ControlTrace::capture(snap, &decision, hook.control_state().as_ref(), hook_ns)
        .with_adapt(hook.adapt_state());
    (decision, trace)
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
// Sinks
// ---------------------------------------------------------------------------

/// Receives telemetry events. Implementations must not allocate in
/// [`EventSink::record`] — it sits on the per-period hot path.
pub trait EventSink {
    /// Records one per-period trace.
    fn record(&mut self, trace: &ControlTrace);
}

/// A fixed-capacity overwrite-oldest ring of `Copy` records.
///
/// The backing storage is fully allocated at construction, so pushing is
/// a slot write with no allocation — the property every hot-path log in
/// the engine needs ([`SharedRecorder`] builds on it for control
/// traces). When full, the oldest record is overwritten and
/// [`Ring::overwritten`] incremented, so a long run keeps its most
/// recent `capacity` records.
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

/// A cloneable, thread-safe ring of [`ControlTrace`] records — the sink
/// both engines record into, shared with the caller that reads it after
/// (or during) the run.
///
/// The ring is fully allocated at construction; recording is a slot
/// write. When full, the oldest record is overwritten and
/// [`SharedRecorder::overwritten`] incremented, so a long run keeps its
/// most recent `capacity` periods.
#[derive(Debug, Clone)]
pub struct SharedRecorder(Arc<Mutex<Ring<ControlTrace>>>);

impl SharedRecorder {
    /// No recorder method can panic part-way through an update, so the
    /// ring behind a poisoned lock is still valid.
    fn lock(&self) -> MutexGuard<'_, Ring<ControlTrace>> {
        crate::lock_unpoisoned(&self.0)
    }

    /// Creates a shared recorder holding up to `capacity` periods
    /// (fully preallocated; `capacity` must be ≥ 1).
    pub fn with_capacity(capacity: usize) -> Self {
        Self(Arc::new(Mutex::new(Ring::with_capacity(capacity))))
    }

    /// Snapshot of the retained records, oldest first.
    pub fn snapshot(&self) -> Vec<ControlTrace> {
        self.lock().to_vec()
    }

    /// Number of records lost to ring wrap-around.
    pub fn overwritten(&self) -> u64 {
        self.lock().overwritten()
    }

    /// Records retained so far (≤ capacity).
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
        self.lock().push(*trace);
    }
}

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

/// Builder for the Prometheus text exposition format, one family at a
/// time.
///
/// A family is its `# HELP` line, its `# TYPE` line and its samples, in
/// that order and contiguous. [`PromText::family`] writes the preamble
/// and returns the [`Family`] that writes the samples; it borrows the
/// builder, so the next family cannot start until this one is done.
/// [`counter`](PromText::counter) and [`gauge`](PromText::gauge) write a
/// family of one unlabelled sample.
///
/// ```
/// use streamshed_engine::telemetry::{MetricKind, PromText};
/// let mut p = PromText::new("streamshed");
/// p.counter("offered_total", "Tuples offered to the engine", 1234.0);
/// let mut queues = p.family("shard_queue_len", "Tuples queued per shard", MetricKind::Gauge);
/// queues.sample(&[("shard", "0")], 17.0).sample(&[("shard", "1")], 3.0);
/// let text = p.finish();
/// assert!(text.contains("# TYPE streamshed_offered_total counter"));
/// assert!(text.contains("streamshed_shard_queue_len{shard=\"1\"} 3"));
/// ```
#[derive(Debug, Clone)]
pub struct PromText {
    prefix: String,
    out: String,
}

/// The kind a family's `# TYPE` line declares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// A monotone count.
    Counter,
    /// A value that moves both ways.
    Gauge,
    /// Cumulative `_bucket` samples plus `_sum` and `_count`.
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Escapes `text` per the Prometheus exposition format: backslash and
/// newline become `\\` and `\n`, and in a label value (`quote`) a double
/// quote becomes `\"`.
fn escape(out: &mut String, text: &str, quote: bool) {
    for ch in text.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '"' if quote => out.push_str("\\\""),
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

    /// Starts family `name`: writes its `# HELP` and `# TYPE` lines and
    /// returns the writer of its samples. Each name may start once.
    pub fn family(&mut self, name: &str, help: &str, kind: MetricKind) -> Family<'_> {
        use std::fmt::Write as _;
        let name = format!("{}_{name}", self.prefix);
        debug_assert!(!self.out.contains(&format!("# TYPE {name} ")), "{name} started twice");
        let _ = write!(self.out, "# HELP {name} ");
        escape(&mut self.out, help, false);
        let _ = writeln!(self.out, "\n# TYPE {name} {}", kind.as_str());
        Family {
            out: &mut self.out,
            name,
        }
    }

    /// Appends a counter family of one unlabelled sample.
    pub fn counter(&mut self, name: &str, help: &str, value: f64) -> &mut Self {
        self.family(name, help, MetricKind::Counter).sample(&[], value);
        self
    }

    /// Appends a gauge family of one unlabelled sample.
    pub fn gauge(&mut self, name: &str, help: &str, value: f64) -> &mut Self {
        self.family(name, help, MetricKind::Gauge).sample(&[], value);
        self
    }

    /// The rendered exposition text.
    pub fn finish(self) -> String {
        self.out
    }
}

/// The sample writer of one family, from [`PromText::family`].
#[derive(Debug)]
pub struct Family<'a> {
    out: &'a mut String,
    name: String,
}

impl Family<'_> {
    /// Appends `name{k1="v1",…} value`, every label value escaped.
    pub fn sample(&mut self, labels: &[(&str, &str)], value: f64) -> &mut Self {
        self.sample_suffixed("", labels, value)
    }

    /// Appends a sample of the series `name<suffix>`: a histogram's
    /// `_bucket`, `_sum` or `_count`.
    pub fn sample_suffixed(
        &mut self,
        suffix: &str,
        labels: &[(&str, &str)],
        value: f64,
    ) -> &mut Self {
        use std::fmt::Write as _;
        let out = &mut *self.out;
        out.push_str(&self.name);
        out.push_str(suffix);
        for (i, (k, v)) in labels.iter().enumerate() {
            out.push(if i == 0 { '{' } else { ',' });
            out.push_str(k);
            out.push_str("=\"");
            escape(out, v, true);
            out.push('"');
        }
        if !labels.is_empty() {
            out.push('}');
        }
        let _ = if value.fract() == 0.0 && value.abs() < 9e15 {
            writeln!(out, " {}", value as i64)
        } else {
            writeln!(out, " {value}")
        };
        self
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
    fn control_step_traces_the_snapshot_and_decision() {
        let mut hook = |_s: &PeriodSnapshot| Decision::entry(0.25);
        let (d, t) = control_step(&mut hook, &snap(3));
        assert_eq!(d.entry_drop_prob, 0.25);
        assert_eq!(t.k, 3);
        assert_eq!(t.alpha, 0.25);
        assert_eq!(t.offered, 300);
        // Plain closures report no internals: NaN, Direct, no flags.
        assert!(t.y_hat_s.is_nan());
        assert_eq!(t.mode, LoopMode::Direct);
        assert_eq!(t.fault_flags, 0);
        assert!(!t.has_adapt());
    }

    #[test]
    fn ring_overwrites_oldest_and_counts() {
        let rec = SharedRecorder::with_capacity(4);
        let mut sink = rec.clone();
        let d = Decision::NONE;
        for k in 0..10 {
            sink.record(&ControlTrace::capture(&snap(k), &d, None, 7));
        }
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.overwritten(), 6);
        let ks: Vec<u64> = rec.snapshot().iter().map(|t| t.k).collect();
        assert_eq!(ks, vec![6, 7, 8, 9], "chronological, newest retained");
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
        let mut sink = rec.clone();
        for k in 0..5 {
            let (_, trace) = control_step(&mut NoShedding, &snap(k));
            sink.record(&trace);
        }
        assert_eq!(rec.len(), 5);
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
        let (_, t) = control_step(&mut Fixed, &snap(0));
        assert_eq!(t.y_hat_s, 2.5);
        assert_eq!(t.mode, LoopMode::Fallback);
        assert_eq!(t.fault_flags, FLAG_STALE_QUEUE);
        assert_eq!(fault_flag_names(t.fault_flags), "stale_queue");
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
        let help = "Per-shard completions";
        let mut completed = p.family("shard_completed_total", help, MetricKind::Counter);
        completed.sample(&[("shard", "0")], 5.0).sample(&[("shard", "1")], 7.0);
        let mut queues = p.family("shard_queue_len", "Per-shard queue length", MetricKind::Gauge);
        for (i, q) in [2.0, 0.0, 9.0].into_iter().enumerate() {
            queues.sample(&[("shard", &i.to_string())], q);
        }
        let text = p.finish();
        assert_eq!(
            text.matches("# TYPE streamshed_shard_completed_total counter").count(),
            1
        );
        assert!(text.contains("streamshed_shard_completed_total{shard=\"0\"} 5"));
        assert!(text.contains("streamshed_shard_completed_total{shard=\"1\"} 7"));
        assert!(text.contains("streamshed_shard_queue_len{shard=\"2\"} 9"));
        assert_eq!(text.matches("# HELP streamshed_shard_queue_len").count(), 1);
        // Preamble first, then the family's samples, before the next family.
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("# HELP streamshed_shard_completed_total"));
        assert!(lines[4].starts_with("# HELP streamshed_shard_queue_len"));
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
        let (_, t) = control_step(&mut Adapting, &snap(0));
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
        let all = FAULT_FLAGS.iter().fold(0, |acc, (bit, _)| acc | bit);
        let cases: &[(u16, &str)] = &[
            (0, ""),
            // Undefined high bits never leak into the names.
            (0x8000, ""),
            (FLAG_STALE_QUEUE | FLAG_PERIOD_JITTER, "stale_queue|period_jitter"),
            (
                all | 0x8000,
                "sensor_dropout|stale_queue|cost_nan|cost_spike|actuator_ignore|\
                 actuator_partial|period_jitter",
            ),
        ];
        for &(flags, want) in cases {
            assert_eq!(fault_flag_names(flags), want, "flags {flags:#06x}");
        }
    }

    #[test]
    fn fault_flags_round_trip_bit_to_name_to_bit() {
        let bit_of = |name: &str| {
            FAULT_FLAGS.iter().find(|(_, n)| *n == name).map(|(bit, _)| *bit).unwrap()
        };
        for &(bit, name) in FAULT_FLAGS.iter() {
            assert_eq!(fault_flag_names(bit), name, "bit {bit:#06x}");
            assert_eq!(bit_of(&fault_flag_names(bit)), bit, "bit {bit:#06x}");
        }
        // A multi-bit set splits back into the bits it was rendered from.
        let flags = FLAG_STALE_QUEUE | FLAG_PERIOD_JITTER;
        let back = fault_flag_names(flags).split('|').fold(0, |acc, n| acc | bit_of(n));
        assert_eq!(back, flags);
    }

    #[test]
    fn prom_text_escapes_hostile_labels_and_help() {
        let mut p = PromText::new("streamshed");
        let help = "Current state.\nSecond \\ line";
        p.family("diag_state_info", help, MetricKind::Gauge)
            .sample(&[("state", "evil\"name\\with\nnewline")], 1.0);
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
        p.family("anomalies_total", "Anomaly entries", MetricKind::Counter)
            .sample(&[("state", "saturated")], 3.0);
        let text = p.finish();
        assert!(text.contains("# TYPE s_anomalies_total counter"));
        assert!(text.contains("s_anomalies_total{state=\"saturated\"} 3"));
    }
}
