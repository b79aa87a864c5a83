//! The benchmark's own spans: recorded around every call into a layer
//! during a traced run, kept in memory, written as JSON lines when the
//! workload ends. Spans inside the product are a later change.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use streamshed_engine::hook::{ControlHook, Decision, PeriodSnapshot};
use streamshed_engine::shard::{BatchResult, ShardedEngine};
use streamshed_engine::telemetry::{AdaptState, ControlState, InstrumentedHook};
use streamshed_net::server::FrontDoor;

/// Spans one producer keeps; later ones still count in the aggregates
/// but are not stored, so a traced run's file stays in the tens of MB.
pub const SPAN_CAP: usize = 60_000;

/// One recorded interval. Times are ns since the run's [`SpanSink`]
/// epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span name (`door.offer`, `control.on_period`, `frame.due→written`,
    /// `frame.written→reply`, `sim.run`).
    pub name: &'static str,
    /// Start, ns since the sink's epoch.
    pub start_ns: u64,
    /// End, ns since the sink's epoch.
    pub end_ns: u64,
    /// Name of the span that caused this one, if any.
    pub parent: Option<&'static str>,
    /// The request the span belongs to: `<class>:<ordinal>` for frames
    /// (FIFO order per class identifies the frame a door call serves).
    pub frame: Option<String>,
    /// Extra attributes, already rendered as JSON members (`"k":3,…`).
    pub attrs: String,
}

impl Span {
    /// The span as one JSON line.
    pub fn to_jsonl(&self) -> String {
        let opt = |v: Option<&str>| v.map_or("null".to_string(), |s| format!("\"{s}\""));
        let attrs = if self.attrs.is_empty() {
            String::new()
        } else {
            format!(",{}", self.attrs)
        };
        format!(
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"frame\":{}{}}}",
            self.name,
            self.start_ns,
            self.end_ns,
            opt(self.parent),
            opt(self.frame.as_deref()),
            attrs
        )
    }
}

/// A shared in-memory span store with a common time origin.
#[derive(Debug, Clone)]
pub struct SpanSink {
    epoch: Instant,
    spans: Arc<Mutex<Vec<Span>>>,
}

impl Default for SpanSink {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Arc::default(),
        }
    }
}

impl SpanSink {
    /// Nanoseconds from the sink's epoch to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Stores `span`. Producers stop calling this after their first
    /// [`SPAN_CAP`] spans.
    pub fn push(&self, span: Span) {
        self.spans.lock().expect("span sink poisoned").push(span);
    }

    /// Takes every stored span, ordered by start time.
    pub fn take(&self) -> Vec<Span> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("span sink poisoned"));
        spans.sort_by_key(|s| s.start_ns);
        spans
    }
}

/// Where traced runs write their span files: `perfbench/` under the
/// build directory (`CARGO_TARGET_DIR`, else `target`), inside the
/// directory the benchmark was started from.
pub fn trace_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target.join("perfbench")
}

/// Writes `spans` to `trace-<workload>.jsonl` in `dir`.
pub fn write_jsonl(dir: &Path, workload: &str, spans: &[Span]) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("trace-{workload}.jsonl"));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for span in spans {
        writeln!(out, "{}", span.to_jsonl())?;
    }
    out.flush()?;
    Ok(path)
}

/// Call counts and time of a [`TracedDoor`], readable while it runs.
#[derive(Debug, Default)]
pub struct DoorStats {
    /// Door calls made.
    pub calls: AtomicU64,
    /// Tuples offered through the door.
    pub tuples: AtomicU64,
    /// Wall time spent inside door calls, ns.
    pub busy_ns: AtomicU64,
}

/// A [`FrontDoor`] around the engine that times every call the listener
/// makes: the seam between the net plane and engine admission.
pub struct TracedDoor {
    engine: Arc<ShardedEngine>,
    sink: SpanSink,
    stats: Arc<DoorStats>,
    /// Door calls seen per class, `[keyed, unkeyed]` — the ordinal that
    /// names the frame a call belongs to.
    ordinals: [AtomicU64; 2],
    /// Class names for `[keyed, unkeyed]` frames.
    classes: [&'static str; 2],
}

impl TracedDoor {
    /// Wraps `engine`; keyed calls belong to class `classes[0]`,
    /// unkeyed calls to `classes[1]`.
    pub fn new(engine: Arc<ShardedEngine>, sink: SpanSink, classes: [&'static str; 2]) -> Self {
        Self {
            engine,
            sink,
            stats: Arc::default(),
            ordinals: Default::default(),
            classes,
        }
    }

    /// The door's live aggregates.
    pub fn stats(&self) -> Arc<DoorStats> {
        Arc::clone(&self.stats)
    }

    fn timed(&self, class: usize, call: impl FnOnce() -> BatchResult) -> BatchResult {
        let t0 = Instant::now();
        let res = call();
        let t1 = Instant::now();
        let ordinal = self.ordinals[class].fetch_add(1, Ordering::Relaxed);
        self.stats.calls.fetch_add(1, Ordering::Relaxed);
        self.stats.tuples.fetch_add(res.offered, Ordering::Relaxed);
        self.stats
            .busy_ns
            .fetch_add((t1 - t0).as_nanos() as u64, Ordering::Relaxed);
        if (ordinal as usize) < SPAN_CAP {
            self.sink.push(Span {
                name: "door.offer",
                start_ns: self.sink.ns(t0),
                end_ns: self.sink.ns(t1),
                parent: Some("frame.written→reply"),
                frame: Some(format!("{}:{ordinal}", self.classes[class])),
                attrs: format!(
                    "\"offered\":{},\"dispatched\":{}",
                    res.offered, res.dispatched
                ),
            });
        }
        res
    }
}

impl FrontDoor for TracedDoor {
    fn offer_batch(&self, n: usize) -> BatchResult {
        self.timed(1, || self.engine.offer_batch(n))
    }

    fn offer_batch_keyed_lazy(
        &self,
        n: usize,
        key_at: &mut dyn FnMut(usize) -> u64,
    ) -> BatchResult {
        self.timed(0, || self.engine.offer_batch_keyed_with(n, key_at))
    }
}

/// A control hook that times the strategy it wraps and, when given a
/// sink, records one `control.on_period` span per period carrying k, α
/// and q. Its mean cross-checks the engine's own `hook_ns`.
pub struct TimedHook<H> {
    inner: H,
    sink: Option<SpanSink>,
    total_ns: Arc<AtomicU64>,
}

impl<H> TimedHook<H> {
    /// Wraps `inner`; spans are recorded only with a sink.
    pub fn new(inner: H, sink: Option<SpanSink>) -> Self {
        Self {
            inner,
            sink,
            total_ns: Arc::default(),
        }
    }

    /// Σ wall time spent inside the wrapped strategy, ns.
    pub fn total_ns(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.total_ns)
    }
}

impl<H: ControlHook> ControlHook for TimedHook<H> {
    fn on_period(&mut self, snapshot: &PeriodSnapshot) -> Decision {
        let t0 = Instant::now();
        let decision = self.inner.on_period(snapshot);
        let t1 = Instant::now();
        self.total_ns
            .fetch_add((t1 - t0).as_nanos() as u64, Ordering::Relaxed);
        if let Some(sink) = &self.sink {
            sink.push(Span {
                name: "control.on_period",
                start_ns: sink.ns(t0),
                end_ns: sink.ns(t1),
                parent: None,
                frame: None,
                attrs: format!(
                    "\"k\":{},\"alpha\":{},\"q\":{}",
                    snapshot.k, decision.entry_drop_prob, snapshot.outstanding
                ),
            });
        }
        decision
    }
}

impl<H: InstrumentedHook> InstrumentedHook for TimedHook<H> {
    fn control_state(&self) -> Option<ControlState> {
        self.inner.control_state()
    }

    fn adapt_state(&self) -> Option<AdaptState> {
        self.inner.adapt_state()
    }
}
