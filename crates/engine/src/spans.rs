//! Per-stage span timing: the latency truth plane's recording layer.
//!
//! A tuple's real sojourn spans TCP read, frame decode, admission, SPSC
//! ring residency, and worker execution — none of which the controller's
//! virtual-queue mean can attribute. This module gives every pipeline
//! thread a **cache-padded, lock-free recorder** ([`SpanHandle`]) over a
//! fixed stage enum ([`Stage`]), all registered in a [`SpanRegistry`]
//! the obs plane drains into a [`ProfileSnapshot`] (merged
//! [`Histo`]s, per-stage shares, percentile
//! tables, Prometheus histogram families, and the `/profile` endpoint).
//!
//! ## Sampling
//!
//! Per-tuple end-to-end sojourn is tracked on a sampled basis: the
//! front door marks roughly every `sample_every`-th tuple (default
//! [`DEFAULT_SAMPLE_EVERY`] = 64) by setting [`SAMPLE_BIT`] — bit 63 —
//! in the tuple's ring stamp. Stamps are nanoseconds since the engine
//! epoch, which stays below 2⁶² for 146 years, so the bit is free (the
//! ring keeps bit 62 for itself, see [`SAMPLE_BIT`]). The
//! worker detects the bit at retirement, strips it before any delay
//! arithmetic, and closes the span: `ring_wait` (stamp → batch start),
//! `execute` (batch start → retirement), and the end-to-end sojourn.
//! At 1/64 sampling the record path adds a handful of relaxed atomic
//! increments per 64 tuples — unmeasurable next to a ring push.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::histo::{AtomicHisto, Histo};
use crate::telemetry::PromText;

/// Bit 63 of a ring stamp marks a sampled tuple. A ring payload is 62
/// value bits plus this mark: bit 62 is the ring's own
/// ([`LAP_BIT`](crate::ring::LAP_BIT), `ring.rs` asserts the two are
/// disjoint), and stamps are ns since the engine epoch (< 2⁶² for 146
/// years), so neither bit collides with real time. The ring returns the
/// mark as pushed; a stamp of `0` is legal.
pub const SAMPLE_BIT: u64 = 1 << 63;

/// Default sojourn sampling rate: one tuple in 64.
pub const DEFAULT_SAMPLE_EVERY: u32 = 64;

/// The fixed pipeline stage enum. Order matches a tuple's path through
/// the system: socket read, frame decode, admission (shed + ring push),
/// ring residency, operator execution, backpressure reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Stage {
    /// Reading bytes off the socket into the connection buffer.
    NetRead = 0,
    /// Decoding wire frames (header + survivor keys).
    Decode = 1,
    /// The front-door pass: entry shed + ring reservation.
    Admission = 2,
    /// Time spent queued in the SPSC ring before a worker pops.
    RingWait = 3,
    /// Operator execution at the worker.
    Execute = 4,
    /// Serialising and enqueueing the backpressure reply.
    Reply = 5,
}

impl Stage {
    /// Number of stages.
    pub const COUNT: usize = 6;

    /// All stages, in pipeline order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::NetRead,
        Stage::Decode,
        Stage::Admission,
        Stage::RingWait,
        Stage::Execute,
        Stage::Reply,
    ];

    /// Stable snake_case name (Prometheus label / JSON key).
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::NetRead => "net_read",
            Stage::Decode => "decode",
            Stage::Admission => "admission",
            Stage::RingWait => "ring_wait",
            Stage::Execute => "execute",
            Stage::Reply => "reply",
        }
    }

    /// Array index.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Whether the stage burns CPU (everything except ring residency,
    /// which is pure queueing delay).
    pub fn is_cpu(self) -> bool {
        !matches!(self, Stage::RingWait)
    }
}

/// One thread's recorder storage: a histogram per stage plus the
/// end-to-end sojourn histogram, cache-line aligned so two recording
/// threads never false-share a slot boundary.
#[repr(align(64))]
struct Slot {
    label: String,
    /// Whether `sojourn` holds per-frame turnarounds (a listener thread)
    /// rather than per-tuple sojourns (a shard worker, the sim).
    frames: bool,
    stages: [AtomicHisto; Stage::COUNT],
    sojourn: AtomicHisto,
}

impl Slot {
    fn new(label: &str, frames: bool) -> Self {
        Self {
            label: label.to_string(),
            frames,
            stages: std::array::from_fn(|_| AtomicHisto::new()),
            sojourn: AtomicHisto::new(),
        }
    }
}

/// A cheap, cloneable recorder bound to one registry slot. Recording is
/// lock-free and allocation-free (relaxed atomic bucket increments).
#[derive(Clone)]
pub struct SpanHandle {
    slot: Arc<Slot>,
}

impl std::fmt::Debug for SpanHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanHandle").field("label", &self.slot.label).finish()
    }
}

impl SpanHandle {
    /// Records one stage duration in nanoseconds.
    #[inline]
    pub fn record(&self, stage: Stage, ns: u64) {
        self.slot.stages[stage.index()].record(ns);
    }

    /// Records one sampled end-to-end sojourn in nanoseconds.
    #[inline]
    pub fn record_sojourn(&self, ns: u64) {
        self.slot.sojourn.record(ns);
    }

    /// The slot's label (shard id or listener thread name).
    pub fn label(&self) -> &str {
        &self.slot.label
    }
}

/// The registry of every recorder slot in the process: shard workers,
/// net listener threads, the sim. Cloning shares the registry. The obs
/// plane owns one and drains it on demand via [`SpanRegistry::snapshot`].
#[derive(Clone, Default)]
pub struct SpanRegistry {
    slots: Arc<Mutex<Vec<Arc<Slot>>>>,
}

impl std::fmt::Debug for SpanRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.slots.lock().map(|s| s.len()).unwrap_or(0);
        f.debug_struct("SpanRegistry").field("slots", &n).finish()
    }
}

impl SpanRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new per-tuple recorder slot under `label` (e.g. the
    /// shard id) and returns its handle. The slot lives for the
    /// registry's lifetime; a respawned worker reuses its cloned handle
    /// rather than registering again.
    pub fn handle(&self, label: &str) -> SpanHandle {
        self.register(label, false)
    }

    /// Registers a recorder slot whose "sojourn" is a per-*frame*
    /// turnaround (e.g. `"net0"` for a listener thread). It is reported
    /// under its label like any other slot but kept out of the snapshot's
    /// top-level tuple sojourn, which a flood of µs-scale frame samples
    /// would otherwise drown.
    pub fn frame_handle(&self, label: &str) -> SpanHandle {
        self.register(label, true)
    }

    fn register(&self, label: &str, frames: bool) -> SpanHandle {
        let slot = Arc::new(Slot::new(label, frames));
        self.slots.lock().expect("span registry poisoned").push(Arc::clone(&slot));
        SpanHandle { slot }
    }

    /// Merges every slot into a queryable [`ProfileSnapshot`]. Stage
    /// histograms merge across all slots; the top-level sojourn merges
    /// per-tuple slots only.
    pub fn snapshot(&self) -> ProfileSnapshot {
        let slots = self.slots.lock().expect("span registry poisoned");
        let mut stages: [Histo; Stage::COUNT] = std::array::from_fn(|_| Histo::new());
        let mut sojourn = Histo::new();
        let mut labels: Vec<LabelProfile> = Vec::new();
        for slot in slots.iter() {
            let mut slot_stages: [Histo; Stage::COUNT] =
                std::array::from_fn(|i| slot.stages[i].snapshot());
            let slot_sojourn = slot.sojourn.snapshot();
            for (agg, s) in stages.iter_mut().zip(slot_stages.iter()) {
                agg.merge(s);
            }
            if !slot.frames {
                sojourn.merge(&slot_sojourn);
            }
            match labels.iter_mut().find(|l| l.label == slot.label) {
                Some(l) => {
                    for (agg, s) in l.stages.iter_mut().zip(slot_stages.iter()) {
                        agg.merge(s);
                    }
                    l.sojourn.merge(&slot_sojourn);
                }
                None => {
                    // First slot under this label: move the snapshots in.
                    let stages = std::mem::replace(
                        &mut slot_stages,
                        std::array::from_fn(|_| Histo::new()),
                    );
                    labels.push(LabelProfile {
                        label: slot.label.clone(),
                        stages,
                        sojourn: slot_sojourn,
                    });
                }
            }
        }
        ProfileSnapshot {
            stages,
            sojourn,
            labels,
        }
    }
}

/// One label's (shard's / listener thread's) merged histograms.
#[derive(Debug, Clone)]
pub struct LabelProfile {
    /// The slot label (shard id or listener thread name).
    pub label: String,
    /// Stage histograms, indexed by [`Stage::index`]. Values are ns.
    pub stages: [Histo; Stage::COUNT],
    /// Sampled end-to-end sojourn histogram (ns).
    pub sojourn: Histo,
}

/// A merged, queryable view of every recorder in the registry: the
/// `/profile` endpoint's payload and the source of the
/// `streamshed_latency_*` Prometheus families.
#[derive(Debug, Clone)]
pub struct ProfileSnapshot {
    /// Stage histograms merged across all slots. Values are ns.
    pub stages: [Histo; Stage::COUNT],
    /// Sampled end-to-end *tuple* sojourn merged across the per-tuple
    /// slots (ns); frame slots ([`SpanRegistry::frame_handle`]) appear
    /// under [`labels`](Self::labels) only.
    pub sojourn: Histo,
    /// Per-label breakdown (one entry per distinct slot label).
    pub labels: Vec<LabelProfile>,
}

/// Canonical Prometheus `le` boundaries, microseconds: powers of four
/// from 1 µs to ~1.05 s. Eleven boundaries plus `+Inf` keeps the
/// exposition bounded (the full 2048-bucket layout stays internal).
const LE_BOUNDS_US: [u64; 11] =
    [1, 4, 16, 64, 256, 1024, 4096, 16_384, 65_536, 262_144, 1_048_576];

fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn quantiles_json(h: &Histo) -> String {
    format!(
        "\"count\":{},\"sum_ms\":{:.6},\"p50_ms\":{:.6},\"p90_ms\":{:.6},\"p99_ms\":{:.6},\"p999_ms\":{:.6},\"max_ms\":{:.6}",
        h.count(),
        ns_to_ms(h.sum()),
        ns_to_ms(h.quantile(0.50)),
        ns_to_ms(h.quantile(0.90)),
        ns_to_ms(h.quantile(0.99)),
        ns_to_ms(h.quantile(0.999)),
        ns_to_ms(h.max()),
    )
}

impl ProfileSnapshot {
    /// Total recorded wall time across all stages, ns.
    pub fn total_ns(&self) -> u64 {
        self.stages.iter().map(|h| h.sum()).sum()
    }

    /// Stage wall-time share of the total (0.0 when nothing recorded).
    /// Shares over all six stages sum to 1 whenever anything was
    /// recorded.
    pub fn wall_share(&self, stage: Stage) -> f64 {
        let total = self.total_ns();
        if total == 0 {
            0.0
        } else {
            self.stages[stage.index()].sum() as f64 / total as f64
        }
    }

    /// Stage CPU-time share: like [`wall_share`](Self::wall_share) but
    /// over CPU stages only — `ring_wait` is pure queueing delay and
    /// contributes (and receives) zero.
    pub fn cpu_share(&self, stage: Stage) -> f64 {
        if !stage.is_cpu() {
            return 0.0;
        }
        let total: u64 = Stage::ALL
            .iter()
            .filter(|s| s.is_cpu())
            .map(|s| self.stages[s.index()].sum())
            .sum();
        if total == 0 {
            0.0
        } else {
            self.stages[stage.index()].sum() as f64 / total as f64
        }
    }

    /// The `/profile` JSON payload: per-stage wall/CPU shares and
    /// percentile tables, the sampled sojourn table, and a per-label
    /// breakdown.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(2048);
        out.push_str("{\"stages\":{");
        for (i, stage) in Stage::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let h = &self.stages[stage.index()];
            let _ = write!(
                out,
                "\"{}\":{{\"wall_share\":{:.6},\"cpu_share\":{:.6},{}}}",
                stage.as_str(),
                self.wall_share(*stage),
                self.cpu_share(*stage),
                quantiles_json(h),
            );
        }
        let _ = write!(out, "}},\"sojourn\":{{{}}}", quantiles_json(&self.sojourn));
        out.push_str(",\"labels\":{");
        for (i, l) in self.labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{}:{{\"sojourn\":{{{}}},\"execute\":{{{}}},\"ring_wait\":{{{}}}}}",
                crate::telemetry::json_escape(&l.label),
                quantiles_json(&l.sojourn),
                quantiles_json(&l.stages[Stage::Execute.index()]),
                quantiles_json(&l.stages[Stage::RingWait.index()]),
            );
        }
        out.push_str("}}");
        out
    }

    /// Renders the `streamshed_latency_*` histogram families (per stage
    /// × per label, canonical `le` ladder) and the
    /// `streamshed_profile_*` share/percentile gauges into a
    /// [`PromText`]. Empty series are skipped to bound the exposition.
    pub fn render_prom(&self, p: &mut PromText) {
        let name = p.family(
            "latency_seconds",
            "Sampled per-stage latency (log-linear histogram, seconds)",
            "histogram",
        );
        for l in &self.labels {
            for stage in Stage::ALL {
                let h = &l.stages[stage.index()];
                if h.count() == 0 {
                    continue;
                }
                let bucket = format!("{name}_bucket");
                for &us in &LE_BOUNDS_US {
                    let le = format!("{}", us as f64 / 1e6);
                    p.sample_with_labels(
                        &bucket,
                        &[("stage", stage.as_str()), ("shard", &l.label), ("le", &le)],
                        h.cumulative_le(us * 1_000) as f64,
                    );
                }
                p.sample_with_labels(
                    &bucket,
                    &[("stage", stage.as_str()), ("shard", &l.label), ("le", "+Inf")],
                    h.count() as f64,
                );
                let labels = [("stage", stage.as_str()), ("shard", l.label.as_str())];
                p.sample_with_labels(&format!("{name}_sum"), &labels, h.sum() as f64 / 1e9);
                p.sample_with_labels(&format!("{name}_count"), &labels, h.count() as f64);
            }
        }

        let share = p.family(
            "profile_share",
            "Stage share of total recorded wall time",
            "gauge",
        );
        let cpu = p.family(
            "profile_cpu_share",
            "Stage share of recorded CPU time (ring_wait excluded)",
            "gauge",
        );
        for stage in Stage::ALL {
            p.sample_with_labels(&share, &[("stage", stage.as_str())], self.wall_share(stage));
            p.sample_with_labels(&cpu, &[("stage", stage.as_str())], self.cpu_share(stage));
        }
        let soj = p.family(
            "profile_sojourn_seconds",
            "Sampled end-to-end tuple sojourn quantiles",
            "gauge",
        );
        for (q, v) in [
            ("0.5", self.sojourn.quantile(0.50)),
            ("0.9", self.sojourn.quantile(0.90)),
            ("0.99", self.sojourn.quantile(0.99)),
            ("0.999", self.sojourn.quantile(0.999)),
        ] {
            p.sample_with_labels(&soj, &[("quantile", q)], v as f64 / 1e9);
        }
    }
}

/// Batch sampling helper for front doors: bumps the shared admitted
/// counter by `n` and returns how many sampling points the batch
/// crossed — the number of tuples the caller should mark with
/// [`SAMPLE_BIT`] (so batched admission samples at the same 1-in-`every`
/// rate as scalar admission). `every == 0` disables sampling at zero
/// cost.
#[inline]
pub fn sample_crossings(acc: &AtomicU64, every: u32, n: u64) -> u64 {
    if every == 0 || n == 0 {
        return 0;
    }
    let every = every as u64;
    let prev = acc.fetch_add(n, Ordering::Relaxed);
    (prev + n) / every - prev / every
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_sum_to_one() {
        let reg = SpanRegistry::new();
        let h = reg.handle("0");
        h.record(Stage::RingWait, 1_000_000);
        h.record(Stage::Execute, 3_000_000);
        h.record_sojourn(4_000_000);
        let snap = reg.snapshot();
        let total: f64 = Stage::ALL.iter().map(|s| snap.wall_share(*s)).sum();
        assert!((total - 1.0).abs() < 1e-9, "wall shares sum to {total}");
        let cpu: f64 = Stage::ALL.iter().map(|s| snap.cpu_share(*s)).sum();
        assert!((cpu - 1.0).abs() < 1e-9, "cpu shares sum to {cpu}");
        assert_eq!(snap.cpu_share(Stage::RingWait), 0.0);
        assert!(snap.wall_share(Stage::Execute) > 0.7);
    }

    #[test]
    fn snapshot_merges_slots_and_groups_labels() {
        let reg = SpanRegistry::new();
        let a = reg.handle("0");
        let b = reg.handle("0"); // respawned worker, same label
        let c = reg.handle("net0");
        a.record(Stage::Execute, 1000);
        b.record(Stage::Execute, 2000);
        c.record(Stage::NetRead, 500);
        let snap = reg.snapshot();
        assert_eq!(snap.stages[Stage::Execute.index()].count(), 2);
        assert_eq!(snap.labels.len(), 2);
        let shard0 = snap.labels.iter().find(|l| l.label == "0").unwrap();
        assert_eq!(shard0.stages[Stage::Execute.index()].count(), 2);
    }

    #[test]
    fn top_level_sojourn_ignores_frame_turnarounds() {
        // A shard queued at the 250 ms target next to a listener whose
        // per-frame turnarounds are µs-scale and 100× as numerous: the
        // headline sojourn must read the tuples' delay, not "0.0 ms".
        let reg = SpanRegistry::new();
        let shard = reg.handle("0");
        let net = reg.frame_handle("net0");
        for _ in 0..50 {
            shard.record_sojourn(250_000_000);
        }
        for _ in 0..5_000 {
            net.record_sojourn(5_000);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.sojourn.count(), 50);
        let p50_ms = snap.sojourn.quantile(0.5) as f64 / 1e6;
        assert!((p50_ms - 250.0).abs() < 250.0 / 32.0, "p50 {p50_ms} ms");
        // The listener's samples stay readable under its own label.
        let net0 = snap.labels.iter().find(|l| l.label == "net0").unwrap();
        assert_eq!(net0.sojourn.count(), 5_000);
        let mut p = PromText::new("streamshed");
        snap.render_prom(&mut p);
        let text = p.finish();
        let line = text
            .lines()
            .find(|l| l.starts_with("streamshed_profile_sojourn_seconds{quantile=\"0.5\"}"))
            .expect("sojourn gauge");
        let v: f64 = line.rsplit(' ').next().unwrap().parse().unwrap();
        assert!((v - 0.25).abs() < 0.01, "{line}");
    }

    #[test]
    fn profile_json_is_well_formed() {
        let reg = SpanRegistry::new();
        let h = reg.handle("0");
        for i in 0..100u64 {
            h.record(Stage::Execute, i * 10_000);
            h.record(Stage::RingWait, i * 1_000);
            h.record_sojourn(i * 11_000);
        }
        let json = reg.snapshot().to_json();
        assert!(json.contains("\"execute\""));
        assert!(json.contains("\"wall_share\""));
        assert!(json.contains("\"sojourn\""));
        assert!(json.contains("\"p999_ms\""));
        assert!(json.starts_with('{') && json.ends_with('}'));
        // Braces balance (cheap well-formedness check without a parser).
        let depth = json.chars().fold(0i64, |d, c| match c {
            '{' => d + 1,
            '}' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0);
    }

    #[test]
    fn prom_families_have_help_type_and_le_ladder() {
        let reg = SpanRegistry::new();
        let h = reg.handle("0");
        for i in 1..200u64 {
            h.record(Stage::Execute, i * 100_000);
        }
        h.record_sojourn(5_000_000);
        let mut p = PromText::new("streamshed");
        reg.snapshot().render_prom(&mut p);
        let text = p.finish();
        assert!(text.contains("# TYPE streamshed_latency_seconds histogram"));
        assert!(text.contains("# HELP streamshed_latency_seconds "));
        assert!(text.contains("streamshed_latency_seconds_bucket{stage=\"execute\",shard=\"0\",le=\"+Inf\"} 199"));
        assert!(text.contains("streamshed_latency_seconds_count{stage=\"execute\",shard=\"0\"} 199"));
        assert!(text.contains("streamshed_latency_seconds_sum{stage=\"execute\",shard=\"0\"}"));
        assert!(text.contains("# TYPE streamshed_profile_share gauge"));
        assert!(text.contains("streamshed_profile_share{stage=\"ring_wait\"} 0"));
        assert!(text.contains("# TYPE streamshed_profile_sojourn_seconds gauge"));
        // Cumulative le ladder is monotone for the execute series.
        let mut prev = 0.0f64;
        for line in text.lines() {
            if line.starts_with("streamshed_latency_seconds_bucket{stage=\"execute\"") {
                let v: f64 = line.rsplit(' ').next().unwrap().parse().unwrap();
                assert!(v >= prev, "le ladder not monotone: {line}");
                prev = v;
            }
        }
    }

    #[test]
    fn hostile_labels_are_escaped_in_latency_families() {
        // The label-escaping satellite: a hostile slot label cannot
        // corrupt the exposition.
        let reg = SpanRegistry::new();
        let h = reg.handle("evil\"\nlabel\\");
        h.record(Stage::Execute, 1000);
        let mut p = PromText::new("streamshed");
        reg.snapshot().render_prom(&mut p);
        let text = p.finish();
        assert!(text.contains("shard=\"evil\\\"\\nlabel\\\\\""), "{text}");
        for line in text.lines() {
            assert!(!line.is_empty() || line.trim().is_empty());
        }
        // No raw newline broke a sample line: every non-comment line
        // still ends in a parseable float.
        for line in text.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
            let val = line.rsplit(' ').next().unwrap();
            assert!(val.parse::<f64>().is_ok(), "unparseable line: {line}");
        }
    }

    #[test]
    fn sample_crossing_marks_once_per_every() {
        let acc = AtomicU64::new(0);
        let mut marks = 0;
        for _ in 0..640 {
            marks += sample_crossings(&acc, 64, 1);
        }
        assert_eq!(marks, 10);
        // Batched offers sample at the same overall rate: 10 batches of
        // 100 tuples cross 1000/64 = 15 points (± the phase).
        let acc = AtomicU64::new(0);
        let mut marks = 0;
        for _ in 0..10 {
            marks += sample_crossings(&acc, 64, 100);
        }
        assert_eq!(marks, 1000 / 64);
        assert_eq!(sample_crossings(&acc, 0, 100), 0, "every=0 disables sampling");
    }
}
