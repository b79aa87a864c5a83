//! `reproduce campaign` — the deterministic scenario-campaign harness.
//!
//! A campaign sweeps a seeded grid over *workload × fault × topology ×
//! shard count × controller configuration*, runs every selected cell in
//! parallel (with per-cell timeouts and panic isolation, see
//! [`crate::parallel::run_isolated`]), and checks a library of
//! invariants against each run:
//!
//! * **conservation** — exact tuple-counter balance per shard:
//!   `offered = shed(entry) + shed(network) + completed + outstanding`;
//! * **fault_consistency** — the post-hoc diagnostics verdict agrees
//!   with the injected fault class (hook faults stamp fault flags,
//!   plant-side and clean cells stamp none);
//! * **span_conservation** — the latency truth plane's sampled
//!   decomposition is exact: every sampled sojourn equals its
//!   `ring_wait + execute` stage times to the nanosecond;
//! * **bounded_delay** — under a supervised controller the tail delay
//!   recovers below a fixed bound after every fault window closes;
//! * **no_spurious_anomalies** — nominal (clean, paper-tuned) cells
//!   never enter an anomalous health state, which is exactly the
//!   condition under which the flight recorder would write a bundle;
//! * **replay** — a deterministic subset of cells is re-run in-process
//!   and must reproduce a byte-identical counter digest.
//!
//! Every cell is virtual-time ([`Simulator`]), so the whole campaign —
//! including `CAMPAIGN.json` — is byte-identical for a given seed,
//! regardless of `--jobs`. A cell's seed derives only from the campaign
//! seed and the cell *key* (never its position in the grid), so
//! `reproduce campaign --filter '<key>' --seed <s>` replays any single
//! cell exactly, and `reproduce trace --cell '<key>' --seed <s>` replays
//! the same run with every shard's control-loop trace kept
//! ([`simulate_cell`]). The cells are the repo's one fault catalogue:
//! the `faults` figure reads its matrix out of them too.
//!
//! Two CI lanes ride on top: the fixed-seed **sanity** corpus (a
//! curated ~90-cell subset, hard gate) and the rotating **stress** lane
//! (a seeded sample of the full grid, findings uploaded, non-blocking).

use crate::parallel::{self, TaskOutcome};
use serde_json::{json, ToJson, Value};
use std::time::Duration;
use streamshed_control::adaptive::{AdaptiveCtrlStrategy, ComparatorStrategy};
use streamshed_control::loop_::{LoopConfig, ShedMode};
use streamshed_control::strategy::CtrlStrategy;
use streamshed_control::supervisor::Supervisor;
use streamshed_engine::cost::CostSchedule;
use streamshed_engine::diagnostics::{ControllerHealth, DiagnosticsConfig};
use streamshed_engine::faults::{
    inject_flash_flood, stall_schedule, FaultKind, FaultPlan, FaultWindow, FaultyHook,
};
use streamshed_engine::metrics::RunReport;
use streamshed_engine::networks::{
    identification_network, monitoring_network, uniform_chain, IDENTIFICATION_HEADROOM,
};
use streamshed_engine::network::QueryNetwork;
use streamshed_engine::sim::{SimConfig, Simulator};
use streamshed_engine::spans::{ProfileSnapshot, SpanRegistry, Stage, DEFAULT_SAMPLE_EVERY};
use streamshed_engine::telemetry::{ControlTrace, InstrumentedHook, SharedRecorder};
use streamshed_engine::time::{micros, secs, SimTime};
use streamshed_workload::{to_micros, WorkloadKind};

/// Simulated length of every campaign cell, seconds: a whole number of
/// 1 s control periods (the conservation identity is exact only then).
/// Recoverable fault windows close by 70 s, leaving ≥ 50 s of recovery
/// tail; sensor-blinding faults persist to the end of the run so the
/// tail measures the loop *under* the fault (see [`plan_for`]).
pub const DURATION_S: u64 = 120;

/// Offered load relative to each topology's processing capacity. Every
/// cell runs in sustained overload so the shedding loop is always live.
pub const OVERLOAD: f64 = 1.6;

/// Periods of the recovery tail the bounded-delay invariant averages.
pub const TAIL_PERIODS: usize = 20;

/// The bounded-delay invariant's tail bound, seconds (target is 2 s).
pub const TAIL_BOUND_S: f64 = 8.0;

/// Every Nth cell of a selection is re-run for the replay invariant.
pub const REPLAY_EVERY: usize = 8;

/// Cells in the rotating stress lane's sample of the full grid.
pub const STRESS_CELLS: usize = 192;

/// Wall-clock budget for one cell (including its replay re-run, when
/// selected). Virtual-time cells finish in seconds; the timeout is a
/// backstop against a wedged scenario, not a pacing mechanism.
pub const CELL_TIMEOUT: Duration = Duration::from_secs(240);

/// Fault axis of the grid, and the one fault catalogue: ten single
/// faults plus two compound faults built with [`FaultPlan::merge`]. The
/// `faults` figure reads its matrix out of these cells.
pub const FAULTS: &[&str] = &[
    "clean",
    "stale_q",
    "sensor_dropout",
    "cost_nan",
    "cost_collapse",
    "actuator_hold",
    "actuator_partial",
    "flash_flood",
    "stall",
    "jitter",
    "stale_partial",
    "dropout_flood",
];

/// Topology axis: the paper's identification network, an 8-operator
/// uniform chain, and the stateful monitoring network.
pub const TOPOLOGIES: &[&str] = &["ident", "chain8", "monitoring"];

/// Shard-count axis.
pub const SHARD_COUNTS: &[usize] = &[1, 2, 4];

/// Controller axis: paper tuning with the supervisor (`paper`), bare
/// CTRL without the supervisory layer (`nosup`), supervised CTRL
/// actuating the in-network hybrid shedder (`netshed`), and the two
/// supervised self-tuning flavours — the gain-scheduled re-identifier
/// (`adaptive`) and the model-free hill-climber (`comparator`).
pub const CONTROLS: &[&str] = &["paper", "nosup", "netshed", "adaptive", "comparator"];

/// One cell of the campaign grid.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// Workload family.
    pub workload: WorkloadKind,
    /// Fault key (one of [`FAULTS`]).
    pub fault: &'static str,
    /// Topology key (one of [`TOPOLOGIES`]).
    pub topo: &'static str,
    /// Number of independent virtual-time shards.
    pub shards: usize,
    /// Controller key (one of [`CONTROLS`]).
    pub control: &'static str,
}

impl CellSpec {
    /// The cell's stable identifier, e.g. `web+stale_q+ident+4shard+paper`.
    pub fn key(&self) -> String {
        format!(
            "{}+{}+{}+{}shard+{}",
            self.workload.key(),
            self.fault,
            self.topo,
            self.shards,
            self.control
        )
    }

    /// Whether the cell runs a supervised controller (the bounded-delay
    /// invariant only applies then — bare CTRL is *expected* to diverge
    /// under sensor-blinding faults).
    pub fn supervised(&self) -> bool {
        self.control != "nosup"
    }
}

/// SplitMix64 — the seed-derivation and shuffle mixer. Cell seeds are a
/// pure function of (campaign seed, cell key), never of grid position,
/// so filtered replays see identical randomness.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a over a byte string — used for key→seed derivation and for the
/// replay digest.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The deterministic per-cell seed.
pub fn cell_seed(campaign_seed: u64, key: &str) -> u64 {
    splitmix64(campaign_seed ^ fnv1a64(key.as_bytes()))
}

/// The deterministic per-shard seed within one cell.
pub fn shard_seed(cell_seed: u64, shard: usize) -> u64 {
    splitmix64(cell_seed ^ (shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The full campaign grid, in deterministic axis order.
pub fn full_grid() -> Vec<CellSpec> {
    let mut cells = Vec::new();
    for workload in WorkloadKind::ALL {
        for &fault in FAULTS {
            for &topo in TOPOLOGIES {
                for &shards in SHARD_COUNTS {
                    for &control in CONTROLS {
                        cells.push(CellSpec { workload, fault, topo, shards, control });
                    }
                }
            }
        }
    }
    cells
}

/// The fixed-seed sanity corpus: a curated subset covering every
/// workload, every fault, every topology, every shard count, and every
/// controller at least once — small enough for a hard CI gate.
pub fn sanity_corpus() -> Vec<CellSpec> {
    let mut cells = Vec::new();
    // Every workload × a representative fault set on the identification
    // network, at 1 and 2 shards.
    for workload in WorkloadKind::ALL {
        for fault in ["clean", "stale_q", "actuator_partial", "flash_flood"] {
            for shards in [1usize, 2] {
                cells.push(CellSpec { workload, fault, topo: "ident", shards, control: "paper" });
            }
        }
    }
    // Every fault (including the compounds) on the other topologies.
    for &fault in FAULTS {
        for topo in ["chain8", "monitoring"] {
            cells.push(CellSpec {
                workload: WorkloadKind::Poisson,
                fault,
                topo,
                shards: 1,
                control: "paper",
            });
        }
    }
    // Alternative controllers: bare CTRL (invariants relax bounded
    // delay there), the supervised network shedder, and both
    // self-tuning flavours.
    for control in ["nosup", "netshed", "adaptive", "comparator"] {
        for fault in ["clean", "stale_q"] {
            cells.push(CellSpec {
                workload: WorkloadKind::Poisson,
                fault,
                topo: "ident",
                shards: 1,
                control,
            });
        }
    }
    // 4-shard spot checks.
    cells.push(CellSpec {
        workload: WorkloadKind::Web,
        fault: "stale_q",
        topo: "ident",
        shards: 4,
        control: "paper",
    });
    cells.push(CellSpec {
        workload: WorkloadKind::Cost,
        fault: "clean",
        topo: "ident",
        shards: 4,
        control: "paper",
    });
    cells
}

/// The rotating stress corpus: a seeded Fisher–Yates sample of
/// [`STRESS_CELLS`] cells from the full grid, kept in grid order.
pub fn stress_corpus(seed: u64) -> Vec<CellSpec> {
    let grid = full_grid();
    let mut idx: Vec<usize> = (0..grid.len()).collect();
    let mut s = splitmix64(seed ^ 0x5EED_CAFE);
    for i in (1..idx.len()).rev() {
        s = splitmix64(s);
        idx.swap(i, (s % (i as u64 + 1)) as usize);
    }
    idx.truncate(STRESS_CELLS.min(grid.len()));
    idx.sort_unstable();
    idx.into_iter().map(|i| grid[i].clone()).collect()
}

/// Minimal `*`-glob matcher for `--filter` (anchored at both ends).
pub fn glob_match(pattern: &str, text: &str) -> bool {
    let parts: Vec<&str> = pattern.split('*').collect();
    if parts.len() == 1 {
        return pattern == text;
    }
    let mut pos = 0;
    if !parts[0].is_empty() {
        if !text.starts_with(parts[0]) {
            return false;
        }
        pos = parts[0].len();
    }
    let last = parts[parts.len() - 1];
    for part in &parts[1..parts.len() - 1] {
        if part.is_empty() {
            continue;
        }
        match text[pos..].find(part) {
            Some(i) => pos += i + part.len(),
            None => return false,
        }
    }
    last.is_empty() || text[pos..].ends_with(last)
}

/// Selects the cells a campaign invocation runs. A `filter` selects
/// from the **full** grid (so any cell key printed by a failure table
/// is replayable even when it is not part of a lane), otherwise the
/// lane's corpus is used.
pub fn select_cells(lane: &str, seed: u64, filter: Option<&str>) -> Vec<CellSpec> {
    match filter {
        Some(glob) => full_grid()
            .into_iter()
            .filter(|c| glob_match(glob, &c.key()))
            .collect(),
        None => match lane {
            "sanity" => sanity_corpus(),
            "stress" => stress_corpus(seed),
            "full" => full_grid(),
            other => panic!("unknown lane '{other}' (sanity | stress | full)"),
        },
    }
}

/// The grid cell with exactly this key, if any.
pub fn cell(key: &str) -> Option<CellSpec> {
    full_grid().into_iter().find(|c| c.key() == key)
}

/// Counters and post-hoc diagnostics of one shard's run within a cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRunStats {
    /// Tuples offered to the shard.
    pub offered: u64,
    /// Tuples shed at the entry gate.
    pub dropped_entry: u64,
    /// Tuples shed inside the network.
    pub dropped_network: u64,
    /// Tuples fully processed.
    pub completed: u64,
    /// Tuples still in flight at the final period boundary.
    pub outstanding: u64,
    /// `offered − (entry + network + completed + outstanding)`; zero
    /// when the counters conserve.
    pub residual: i64,
    /// Mean true delay over the last [`TAIL_PERIODS`] periods, seconds.
    pub tail_delay_s: f64,
    /// Accumulated delay violation Σ(y − y_d)⁺, tuple-seconds.
    pub violation_s: f64,
    /// Control periods the diagnostics classifier observed.
    pub periods: u64,
    /// Periods with any fault flag stamped by the fault injector.
    pub faulted_periods: u64,
    /// Entries into an anomalous health state.
    pub anomalies: u64,
    /// Fraction of periods classified `Healthy`.
    pub healthy_fraction: f64,
    /// Sampled sojourns closed by the latency truth plane.
    pub span_samples: u64,
    /// Σ sampled end-to-end sojourn, ns.
    pub span_sojourn_ns: u64,
    /// Σ sampled `ring_wait` + `execute` stage time, ns.
    pub span_stage_ns: u64,
    /// Whether every per-stage sample count matched the sojourn count.
    pub span_counts_equal: bool,
}

impl ToJson for ShardRunStats {
    fn to_json(&self) -> Value {
        json!({
            "offered": self.offered,
            "dropped_entry": self.dropped_entry,
            "dropped_network": self.dropped_network,
            "completed": self.completed,
            "outstanding": self.outstanding,
            "residual": self.residual,
            "tail_delay_s": self.tail_delay_s,
            "violation_s": self.violation_s,
            "periods": self.periods,
            "faulted_periods": self.faulted_periods,
            "anomalies": self.anomalies,
            "healthy_fraction": self.healthy_fraction,
            "span_samples": self.span_samples,
            "span_sojourn_ns": self.span_sojourn_ns,
            "span_stage_ns": self.span_stage_ns,
            "span_counts_equal": self.span_counts_equal,
        })
    }
}

/// One invariant's verdict on a cell.
#[derive(Debug, Clone, PartialEq)]
pub struct InvariantResult {
    /// Invariant name.
    pub name: String,
    /// Whether it held.
    pub passed: bool,
    /// One-line explanation (populated on failure, often on success).
    pub detail: String,
}

impl InvariantResult {
    fn pass(name: &str, detail: String) -> Self {
        Self { name: name.into(), passed: true, detail }
    }
    fn fail(name: &str, detail: String) -> Self {
        Self { name: name.into(), passed: false, detail }
    }
}

impl ToJson for InvariantResult {
    fn to_json(&self) -> Value {
        json!({
            "name": self.name,
            "passed": self.passed,
            "detail": self.detail,
        })
    }
}

/// Whether a fault key injects at the control hook (and must therefore
/// stamp fault flags into the telemetry). The complement — `clean`,
/// `flash_flood`, `stall` — perturbs the plant (arrivals or cost
/// schedule) and must stamp none.
pub fn is_hook_fault(fault: &str) -> bool {
    !matches!(fault, "clean" | "flash_flood" | "stall")
}

/// Invariant: exact per-shard tuple-counter conservation.
pub fn check_conservation(shards: &[ShardRunStats]) -> InvariantResult {
    for (i, s) in shards.iter().enumerate() {
        if s.residual != 0 {
            return InvariantResult::fail(
                "conservation",
                format!(
                    "shard {i}: offered {} != entry {} + network {} + completed {} \
                     + outstanding {} (residual {})",
                    s.offered, s.dropped_entry, s.dropped_network, s.completed, s.outstanding,
                    s.residual
                ),
            );
        }
    }
    InvariantResult::pass("conservation", format!("{} shard(s) balance exactly", shards.len()))
}

/// Invariant: the diagnostics verdict is consistent with the injected
/// fault — hook faults stamp flags on every shard, plant-side faults
/// and clean runs stamp none.
pub fn check_fault_consistency(fault: &str, shards: &[ShardRunStats]) -> InvariantResult {
    for (i, s) in shards.iter().enumerate() {
        if is_hook_fault(fault) && s.faulted_periods == 0 {
            return InvariantResult::fail(
                "fault_consistency",
                format!("shard {i}: hook fault '{fault}' left no fault flag in {} periods", s.periods),
            );
        }
        if !is_hook_fault(fault) && s.faulted_periods > 0 {
            return InvariantResult::fail(
                "fault_consistency",
                format!(
                    "shard {i}: '{fault}' injects nothing at the hook but {} period(s) \
                     carry fault flags",
                    s.faulted_periods
                ),
            );
        }
    }
    InvariantResult::pass(
        "fault_consistency",
        if is_hook_fault(fault) {
            "fault flags present on every shard".into()
        } else {
            "no fault flags, as expected".into()
        },
    )
}

/// Invariant: a supervised controller recovers — the mean delay over
/// the final [`TAIL_PERIODS`] periods stays below `bound_s` on every
/// shard.
pub fn check_bounded_delay(shards: &[ShardRunStats], bound_s: f64) -> InvariantResult {
    for (i, s) in shards.iter().enumerate() {
        // NaN must fail the gate, not slip past it.
        if s.tail_delay_s >= bound_s || s.tail_delay_s.is_nan() {
            return InvariantResult::fail(
                "bounded_delay",
                format!("shard {i}: tail delay {:.2} s >= bound {bound_s} s", s.tail_delay_s),
            );
        }
    }
    let worst = shards.iter().map(|s| s.tail_delay_s).fold(0.0f64, f64::max);
    InvariantResult::pass(
        "bounded_delay",
        format!("worst tail delay {worst:.2} s < bound {bound_s} s"),
    )
}

/// Invariant: nominal paper-tuned cells never enter an anomalous health
/// state. Anomaly entries are exactly what arms the flight recorder, so
/// this is also the "no spurious flight bundles on nominal runs" check.
pub fn check_no_spurious_anomalies(shards: &[ShardRunStats]) -> InvariantResult {
    for (i, s) in shards.iter().enumerate() {
        if s.anomalies > 0 {
            return InvariantResult::fail(
                "no_spurious_anomalies",
                format!(
                    "shard {i}: {} anomaly entr{} on a nominal run (would have written \
                     flight bundles)",
                    s.anomalies,
                    if s.anomalies == 1 { "y" } else { "ies" }
                ),
            );
        }
    }
    InvariantResult::pass("no_spurious_anomalies", "no anomalous state entered".into())
}

/// Invariant: the latency truth plane's sampled decomposition is exact
/// in virtual time — every sampled sojourn closed with matching
/// `ring_wait` and `execute` samples, and the sums obey
/// `Σ sojourn == Σ ring_wait + Σ execute` to the nanosecond.
pub fn check_span_conservation(shards: &[ShardRunStats]) -> InvariantResult {
    let mut samples = 0u64;
    for (i, s) in shards.iter().enumerate() {
        if !s.span_counts_equal {
            return InvariantResult::fail(
                "span_conservation",
                format!("shard {i}: per-stage sample counts disagree with the sojourn count"),
            );
        }
        if s.span_sojourn_ns != s.span_stage_ns {
            return InvariantResult::fail(
                "span_conservation",
                format!(
                    "shard {i}: Σ sojourn {} ns != Σ ring_wait + execute {} ns \
                     over {} sample(s)",
                    s.span_sojourn_ns, s.span_stage_ns, s.span_samples
                ),
            );
        }
        samples += s.span_samples;
    }
    InvariantResult::pass(
        "span_conservation",
        format!("{samples} sampled sojourn(s) decompose exactly into stage times"),
    )
}

/// Invariant: the replay re-run reproduced a byte-identical digest.
pub fn check_replay(digest: u64, replay_digest: u64) -> InvariantResult {
    if digest == replay_digest {
        InvariantResult::pass("replay", format!("digest {digest:#018x} reproduced"))
    } else {
        InvariantResult::fail(
            "replay",
            format!("digest {digest:#018x} != replay digest {replay_digest:#018x}"),
        )
    }
}

/// A canonical digest over every counter and diagnostic of a cell's
/// shard runs (f64s by bit pattern — byte-identical means bit-identical).
pub fn digest_shards(shards: &[ShardRunStats]) -> u64 {
    let mut buf = String::new();
    for s in shards {
        buf.push_str(&format!(
            "o{}e{}n{}c{}q{}r{}t{:016x}v{:016x}p{}f{}a{}h{:016x}s{}y{}g{};",
            s.offered,
            s.dropped_entry,
            s.dropped_network,
            s.completed,
            s.outstanding,
            s.residual,
            s.tail_delay_s.to_bits(),
            s.violation_s.to_bits(),
            s.periods,
            s.faulted_periods,
            s.anomalies,
            s.healthy_fraction.to_bits(),
            s.span_samples,
            s.span_sojourn_ns,
            s.span_stage_ns,
        ));
    }
    fnv1a64(buf.as_bytes())
}

fn topology(key: &str) -> QueryNetwork {
    match key {
        "ident" => identification_network(),
        "chain8" => uniform_chain(8, micros(4000)),
        "monitoring" => monitoring_network(),
        other => panic!("unknown topology '{other}'"),
    }
}

/// Mean true delay (s) over the final `n` periods.
///
/// A period's `arrival_mean_delay_ms` is `NaN` until tuples that arrived
/// in it depart, so the last target-delay's worth of periods is `NaN`
/// even on a healthy run — those are skipped. But when **most** of the
/// tail is `NaN`, tuples arriving there never cleared the backlog at
/// all: that is unbounded delay, not missing data, and the tail reports
/// `+∞` so [`check_bounded_delay`] fails.
fn tail_delay_s(report: &RunReport, n: usize) -> f64 {
    let vals: Vec<f64> = report
        .periods
        .iter()
        .rev()
        .take(n)
        .map(|p| p.arrival_mean_delay_ms / 1e3)
        .filter(|d| d.is_finite())
        .collect();
    if vals.len() < n.div_ceil(2) {
        return f64::INFINITY;
    }
    vals.iter().sum::<f64>() / vals.len() as f64
}

/// The fault plan for one campaign fault key. Sensor-blinding faults
/// persist to the end of the run, so the bounded-delay invariant (which
/// averages the final [`TAIL_PERIODS`] periods) measures the supervised
/// loop *during* the fault — a bare loop that admits over capacity the
/// whole time cannot hide behind a post-window recovery. Recoverable
/// fault classes use mid-run windows (30–70 s) so the same invariant
/// also proves the loop re-converges. Compound faults are built with
/// [`FaultPlan::merge`].
pub fn plan_for(fault: &str, seed: u64) -> FaultPlan {
    let plan = FaultPlan::new(seed);
    match fault {
        "stale_q" => plan.with(FaultWindow::new(FaultKind::StaleQueue, 1, DURATION_S)),
        "sensor_dropout" => plan.with(FaultWindow::new(FaultKind::SensorDropout, 1, DURATION_S)),
        "cost_nan" => plan.with(FaultWindow::new(FaultKind::CostNan, 30, 70)),
        "cost_collapse" => {
            plan.with(FaultWindow::new(FaultKind::CostSpike { factor: 0.05 }, 30, 70))
        }
        "actuator_hold" => plan.with(FaultWindow::new(FaultKind::ActuatorIgnore, 30, 70)),
        "actuator_partial" => plan.with(FaultWindow::new(
            FaultKind::ActuatorPartial { applied: 0.5 },
            30,
            70,
        )),
        "jitter" => plan.with(FaultWindow::new(FaultKind::PeriodJitter { factor: 2.0 }, 30, 70)),
        // Compound: a frozen queue sensor while the actuator only half
        // applies commands.
        "stale_partial" => plan.with(FaultWindow::new(FaultKind::StaleQueue, 1, DURATION_S)).merge(
            &FaultPlan::new(seed).with(FaultWindow::new(
                FaultKind::ActuatorPartial { applied: 0.5 },
                30,
                70,
            )),
        ),
        // Compound: a sensor dropout while a flash flood hits the
        // arrivals (the flood itself is injected into the trace).
        "dropout_flood" => plan.with(FaultWindow::new(FaultKind::SensorDropout, 1, DURATION_S)),
        // clean / flash_flood / stall perturb the plant, not the hook.
        _ => plan,
    }
}

/// One shard's raw run: the engine report, every period's control trace
/// and the latency truth plane's profile. [`ShardRun::stats`] derives
/// the campaign's counters from it; `reproduce trace` exports the traces.
#[derive(Debug, Clone)]
pub struct ShardRun {
    /// The engine's own run report.
    pub report: RunReport,
    /// One record per control period, in period order.
    pub traces: Vec<ControlTrace>,
    /// The sampled span profile (sojourns and their stage times).
    pub spans: ProfileSnapshot,
}

impl ShardRun {
    /// The shard's counters and post-hoc diagnostics.
    pub fn stats(&self) -> ShardRunStats {
        let report = &self.report;
        // Post-hoc diagnostics: feed the recorded trace through a fresh
        // classifier. The campaign's breadth (every workload family at
        // 1.6× overload, including heavy-tailed Pareto bursts and the 2×
        // cost-trace peak) needs the detuned post-hoc gates, not the live
        // monitor's. The sabotage drill stays caught regardless — a bare
        // loop at 1.6× overload diverges for the whole run, far past them.
        // Every controller shares the paper's target delay.
        let target = LoopConfig::paper_default().target_delay();
        let mut health = ControllerHealth::new(DiagnosticsConfig::post_hoc(
            Duration::from_micros(target.as_micros()),
        ));
        for t in &self.traces {
            let _ = health.observe(t);
        }
        let snap = health.snapshot();

        let prof = &self.spans;
        let ring = &prof.stages[Stage::RingWait.index()];
        let exec = &prof.stages[Stage::Execute.index()];

        ShardRunStats {
            offered: report.offered,
            dropped_entry: report.dropped_entry,
            dropped_network: report.dropped_network,
            completed: report.completed,
            outstanding: report.outstanding_at_end(),
            residual: report.conservation_residual(),
            tail_delay_s: tail_delay_s(report, TAIL_PERIODS),
            violation_s: report.accumulated_violation_ms / 1e3,
            periods: snap.periods,
            faulted_periods: snap.faulted_periods,
            anomalies: snap.anomalies,
            healthy_fraction: snap.healthy_fraction(),
            span_samples: prof.sojourn.count(),
            span_sojourn_ns: prof.sojourn.sum(),
            span_stage_ns: ring.sum() + exec.sum(),
            span_counts_equal: ring.count() == prof.sojourn.count()
                && exec.count() == prof.sojourn.count(),
        }
    }
}

/// Simulates one shard of a cell with the telemetry recorder and the
/// latency truth plane engaged. Pure virtual time; byte-deterministic in
/// `seed`.
fn simulate_shard(spec: &CellSpec, seed: u64, sabotage: bool) -> ShardRun {
    let loop_cfg = match spec.control {
        "netshed" => LoopConfig::paper_default().with_shed_mode(ShedMode::Network),
        _ => LoopConfig::paper_default(),
    };
    let net = topology(spec.topo);
    let cost_us = net.expected_cost_per_tuple_us();
    let rate = OVERLOAD * IDENTIFICATION_HEADROOM / cost_us * 1e6;

    let mut sim_cfg = SimConfig::paper_default()
        .with_period(loop_cfg.period())
        .with_target_delay(loop_cfg.target_delay())
        .with_seed(seed);
    if spec.fault == "stall" {
        // An operator stalls (6× cost) for 20 s mid-run.
        sim_cfg = sim_cfg.with_cost_schedule(stall_schedule(&[(50.0, 70.0, 6.0)]));
    } else if let Some(trace) = spec.workload.cost_profile(cost_us / 1e3, seed) {
        let points = trace
            .multiplier_points(DURATION_S as f64)
            .into_iter()
            .map(|(t, m)| (SimTime((t * 1e6) as u64), m))
            .collect();
        sim_cfg = sim_cfg.with_cost_schedule(CostSchedule::from_points(points));
    }

    let times = spec.workload.arrival_times(rate, DURATION_S as f64, seed);
    let mut arrivals: Vec<SimTime> = to_micros(&times).into_iter().map(SimTime).collect();
    if matches!(spec.fault, "flash_flood" | "dropout_flood") {
        // +rate tuples/s on top of the base overload for 10 s.
        inject_flash_flood(&mut arrivals, 40.0, 50.0, (rate * 10.0).round() as u64, seed);
    }

    let plan = plan_for(spec.fault, seed);
    // Sized for every period of the run: the trace replay exports it all.
    let recorder = SharedRecorder::with_capacity(DURATION_S as usize + 8);
    // Latency truth plane: sampled sojourns must decompose exactly into
    // ring_wait + execute in virtual time (the span_conservation
    // invariant). Sampling is a pure function of the admission count,
    // so this keeps the cell byte-deterministic.
    let spans = SpanRegistry::new();
    let sim = Simulator::new(net, sim_cfg)
        .with_telemetry(recorder.clone())
        .with_spans(spans.handle("sim"), DEFAULT_SAMPLE_EVERY);
    // Sabotage mode (used by the harness's own self-test and the CI
    // regression drill): silently run the *bare* loop where the cell
    // says paper tuning — the bounded-delay invariant must catch it.
    let supervised = spec.supervised() && !(sabotage && spec.control == "paper");
    let mut hook: Box<dyn InstrumentedHook> = match (supervised, spec.control) {
        (true, "adaptive") => Box::new(FaultyHook::new(
            Supervisor::from_loop(AdaptiveCtrlStrategy::from_config(&loop_cfg), &loop_cfg),
            plan,
        )),
        (true, "comparator") => Box::new(FaultyHook::new(
            Supervisor::from_loop(ComparatorStrategy::from_config(&loop_cfg), &loop_cfg),
            plan,
        )),
        (true, _) => Box::new(FaultyHook::new(
            Supervisor::from_loop(CtrlStrategy::from_config(&loop_cfg), &loop_cfg),
            plan,
        )),
        (false, _) => Box::new(FaultyHook::new(CtrlStrategy::from_config(&loop_cfg), plan)),
    };
    let report = sim.run(&arrivals, hook.as_mut(), secs(DURATION_S));
    ShardRun { report, traces: recorder.snapshot(), spans: spans.snapshot() }
}

/// Simulates every shard of one cell, keeping each shard's raw run.
pub fn simulate_cell(spec: &CellSpec, campaign_seed: u64, sabotage: bool) -> Vec<ShardRun> {
    let cs = cell_seed(campaign_seed, &spec.key());
    (0..spec.shards).map(|i| simulate_shard(spec, shard_seed(cs, i), sabotage)).collect()
}

/// Runs every shard of one cell and keeps only its counters.
pub fn run_cell(spec: &CellSpec, campaign_seed: u64, sabotage: bool) -> Vec<ShardRunStats> {
    simulate_cell(spec, campaign_seed, sabotage).iter().map(ShardRun::stats).collect()
}

/// Evaluates the invariant library against one completed cell.
pub fn evaluate_cell(
    spec: &CellSpec,
    shards: &[ShardRunStats],
    replay_digest: Option<u64>,
) -> Vec<InvariantResult> {
    let mut out = vec![
        check_conservation(shards),
        check_fault_consistency(spec.fault, shards),
        check_span_conservation(shards),
    ];
    if spec.supervised() {
        out.push(check_bounded_delay(shards, TAIL_BOUND_S));
    }
    if spec.fault == "clean" && spec.control == "paper" {
        out.push(check_no_spurious_anomalies(shards));
    }
    if let Some(rd) = replay_digest {
        out.push(check_replay(digest_shards(shards), rd));
    }
    out
}

/// Everything one cell produced, as serialised into `CAMPAIGN.json`.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// The cell key.
    pub key: String,
    /// The derived per-cell seed (the "first failing seed" of the
    /// failure table).
    pub seed: u64,
    /// `pass`, `fail`, `panicked` or `timed_out`.
    pub status: String,
    /// Names of failed invariants (empty on pass).
    pub failed: Vec<String>,
    /// The full invariant verdicts.
    pub invariants: Vec<InvariantResult>,
    /// Canonical counter digest (hex), for byte-identical replay checks.
    pub digest: String,
    /// One-line command that replays exactly this cell.
    pub replay: String,
    /// Per-shard counters and diagnostics.
    pub shards: Vec<ShardRunStats>,
}

impl ToJson for CellOutcome {
    fn to_json(&self) -> Value {
        json!({
            "key": self.key,
            // u64 seeds exceed f64's exact-integer range, so serialise
            // as a decimal string.
            "seed": self.seed.to_string(),
            "status": self.status,
            "failed": self.failed,
            "invariants": self.invariants,
            "digest": self.digest,
            "replay": self.replay,
            "shards": self.shards,
        })
    }
}

/// The serialised result of a whole campaign (written to
/// `CAMPAIGN.json`; contains no timestamps or host state, so two runs
/// with the same seed are byte-identical).
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Schema version.
    pub version: u32,
    /// Lane (`sanity` / `stress` / `full` / `filter`).
    pub lane: String,
    /// Campaign seed.
    pub seed: u64,
    /// Simulated seconds per cell.
    pub duration_s: u64,
    /// Cells run.
    pub cells: usize,
    /// Cells with every invariant green.
    pub passed: usize,
    /// Cells with a failed invariant, panic, or timeout.
    pub failed: usize,
    /// Per-cell outcomes, in selection order.
    pub results: Vec<CellOutcome>,
}

impl ToJson for CampaignResult {
    fn to_json(&self) -> Value {
        json!({
            "version": self.version,
            "lane": self.lane,
            "seed": self.seed.to_string(),
            "duration_s": self.duration_s,
            "cells": self.cells,
            "passed": self.passed,
            "failed": self.failed,
            "all_green": self.all_green(),
            "results": self.results,
        })
    }
}

impl CampaignResult {
    /// Whether every cell passed.
    pub fn all_green(&self) -> bool {
        self.failed == 0
    }

    /// Pretty-printed JSON (the `CAMPAIGN.json` payload).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("campaign result serialises")
    }

    /// The concise failure table (empty string when all green): one row
    /// per failing cell with its first-failing seed and replay command.
    pub fn render_failures(&self) -> String {
        if self.all_green() {
            return String::new();
        }
        let mut out = String::from(
            "FAILING CELLS\n\
             key | first-failing seed | failed invariants | replay\n",
        );
        for r in self.results.iter().filter(|r| r.status != "pass") {
            let what = if r.failed.is_empty() { r.status.clone() } else { r.failed.join(",") };
            out.push_str(&format!("{} | {} | {} | {}\n", r.key, r.seed, what, r.replay));
            out.push_str(&format!(
                "    deep trace: reproduce trace --cell '{}' --seed {}\n",
                r.key, self.seed
            ));
            for inv in r.invariants.iter().filter(|i| !i.passed) {
                out.push_str(&format!("    {}: {}\n", inv.name, inv.detail));
            }
        }
        out
    }

    /// One-line verdict for stdout.
    pub fn render_summary(&self) -> String {
        format!(
            "campaign '{}' seed {}: {}/{} cells green{}",
            self.lane,
            self.seed,
            self.passed,
            self.cells,
            if self.all_green() { "" } else { " — FAILURES BELOW" }
        )
    }
}

/// Runs a campaign over `cells` across `jobs` workers, with per-cell
/// timeout + panic isolation, and evaluates every invariant. The
/// `sabotage` flag is the harness's own regression drill (see
/// [`run_cell`]).
pub fn run_campaign(
    lane: &str,
    cells: Vec<CellSpec>,
    seed: u64,
    jobs: usize,
    sabotage: bool,
) -> CampaignResult {
    let n = cells.len();
    let specs = std::sync::Arc::new(cells);
    let task_specs = std::sync::Arc::clone(&specs);
    let outcomes = parallel::run_isolated(n, jobs, CELL_TIMEOUT, move |i| {
        let spec = &task_specs[i];
        let shards = run_cell(spec, seed, sabotage);
        // A deterministic subset re-runs immediately: byte-identical
        // replay is an invariant, not a hope.
        let replay_digest =
            (i % REPLAY_EVERY == 0).then(|| digest_shards(&run_cell(spec, seed, sabotage)));
        (shards, replay_digest)
    });

    let mut results = Vec::with_capacity(n);
    let (mut passed, mut failed) = (0usize, 0usize);
    for (i, outcome) in outcomes.into_iter().enumerate() {
        let spec = &specs[i];
        let key = spec.key();
        let cs = cell_seed(seed, &key);
        let replay = format!("reproduce campaign --filter '{key}' --seed {seed}");
        let cell = match outcome {
            TaskOutcome::Done((shards, replay_digest)) => {
                let invariants = evaluate_cell(spec, &shards, replay_digest);
                let failed_names: Vec<String> = invariants
                    .iter()
                    .filter(|i| !i.passed)
                    .map(|i| i.name.clone())
                    .collect();
                let status = if failed_names.is_empty() { "pass" } else { "fail" };
                CellOutcome {
                    key,
                    seed: cs,
                    status: status.into(),
                    failed: failed_names,
                    invariants,
                    digest: format!("{:#018x}", digest_shards(&shards)),
                    replay,
                    shards,
                }
            }
            TaskOutcome::Panicked(msg) => CellOutcome {
                key,
                seed: cs,
                status: "panicked".into(),
                failed: vec!["panic".into()],
                invariants: vec![InvariantResult::fail("panic", msg)],
                digest: String::new(),
                replay,
                shards: Vec::new(),
            },
            TaskOutcome::TimedOut => CellOutcome {
                key,
                seed: cs,
                status: "timed_out".into(),
                failed: vec!["timeout".into()],
                invariants: vec![InvariantResult::fail(
                    "timeout",
                    format!("cell exceeded {CELL_TIMEOUT:?}"),
                )],
                digest: String::new(),
                replay,
                shards: Vec::new(),
            },
        };
        if cell.status == "pass" {
            passed += 1;
        } else {
            failed += 1;
        }
        results.push(cell);
    }

    CampaignResult {
        version: 1,
        lane: lane.to_string(),
        seed,
        duration_s: DURATION_S,
        cells: n,
        passed,
        failed,
        results,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn balanced_stats(hook_fault: bool) -> ShardRunStats {
        ShardRunStats {
            offered: 1000,
            dropped_entry: 300,
            dropped_network: 100,
            completed: 550,
            outstanding: 50,
            residual: 0,
            tail_delay_s: 1.8,
            violation_s: 12.0,
            periods: 120,
            faulted_periods: if hook_fault { 40 } else { 0 },
            anomalies: 0,
            healthy_fraction: 0.8,
            span_samples: 10,
            span_sojourn_ns: 5_000_000,
            span_stage_ns: 5_000_000,
            span_counts_equal: true,
        }
    }

    #[test]
    fn grid_keys_are_unique_and_sized() {
        let grid = full_grid();
        assert_eq!(
            grid.len(),
            WorkloadKind::ALL.len() * FAULTS.len() * TOPOLOGIES.len() * SHARD_COUNTS.len()
                * CONTROLS.len()
        );
        let mut keys: Vec<String> = grid.iter().map(|c| c.key()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), grid.len(), "cell keys collide");
    }

    #[test]
    fn compound_faults_carry_both_fault_classes() {
        assert!(FAULTS.contains(&"stale_partial") && FAULTS.contains(&"dropout_flood"));
        let plan = plan_for("stale_partial", 3);
        assert_eq!(plan.windows().len(), 2);
    }

    #[test]
    fn sanity_corpus_is_a_valid_subset_of_the_grid() {
        let corpus = sanity_corpus();
        assert!(corpus.len() >= 60, "sanity lane must gate on ≥60 cells, has {}", corpus.len());
        let grid_keys: std::collections::HashSet<String> =
            full_grid().iter().map(|c| c.key()).collect();
        let mut seen = std::collections::HashSet::new();
        for c in &corpus {
            let k = c.key();
            assert!(grid_keys.contains(&k), "sanity cell {k} not in the full grid");
            assert!(seen.insert(k.clone()), "duplicate sanity cell {k}");
        }
    }

    #[test]
    fn stress_corpus_is_seed_deterministic_but_seed_sensitive() {
        let a = stress_corpus(1);
        let b = stress_corpus(1);
        let c = stress_corpus(2);
        assert_eq!(a, b);
        assert_eq!(a.len(), STRESS_CELLS);
        assert_ne!(a, c, "different epochs must rotate the sample");
    }

    #[test]
    fn cell_seeds_depend_on_key_not_position() {
        let s1 = cell_seed(7, "web+stale_q+ident+4shard+paper");
        let s2 = cell_seed(7, "web+stale_q+ident+4shard+paper");
        let s3 = cell_seed(7, "web+stale_q+ident+2shard+paper");
        let s4 = cell_seed(8, "web+stale_q+ident+4shard+paper");
        assert_eq!(s1, s2);
        assert_ne!(s1, s3);
        assert_ne!(s1, s4);
    }

    #[test]
    fn glob_filter_selects_by_key() {
        assert!(glob_match("web*stale_q*4shard*", "web+stale_q+ident+4shard+paper"));
        assert!(glob_match("*", "anything"));
        assert!(glob_match("web+stale_q+ident+4shard+paper", "web+stale_q+ident+4shard+paper"));
        assert!(!glob_match("web*chain8*", "web+stale_q+ident+4shard+paper"));
        assert!(!glob_match("poisson*", "web+clean+ident+1shard+paper"));
        assert!(!glob_match("*netshed", "web+clean+ident+1shard+paper"));
        let hits = select_cells("sanity", 7, Some("poisson+clean+*+1shard+paper"));
        assert_eq!(hits.len(), TOPOLOGIES.len());
        assert!(hits.iter().all(|c| c.fault == "clean" && c.shards == 1));
    }

    // ---- invariant-checker self-tests (seeded corruption drills) ----
    //
    // Each drill starts from a consistent synthetic run, applies a
    // seeded corruption of the class the checker owns, and asserts the
    // checker *fails*. A checker that cannot see its own violation is a
    // silent hole in the campaign.

    #[test]
    fn prop_conservation_checker_catches_any_dropped_counter_increment() {
        let mut s = 0xDEAD_BEEFu64;
        for _ in 0..64 {
            s = splitmix64(s);
            let mut stats = balanced_stats(false);
            assert!(check_conservation(&[stats.clone()]).passed);
            // Drop 1..=16 increments from one of the four outflow
            // counters (or inflate the inflow).
            let delta = (s >> 8) % 16 + 1;
            match s % 5 {
                0 => stats.completed -= delta,
                1 => stats.dropped_entry -= delta,
                2 => stats.dropped_network -= delta,
                3 => stats.outstanding -= delta,
                _ => stats.offered += delta,
            }
            stats.residual = stats.offered as i64
                - (stats.dropped_entry + stats.dropped_network + stats.completed
                    + stats.outstanding) as i64;
            let verdict = check_conservation(&[balanced_stats(false), stats]);
            assert!(!verdict.passed, "dropped increment survived: {verdict:?}");
            assert!(verdict.detail.contains("shard 1"));
        }
    }

    #[test]
    fn prop_fault_consistency_checker_catches_flipped_verdicts() {
        let mut s = 0xFACE_FEEDu64;
        for _ in 0..32 {
            s = splitmix64(s);
            // Flip direction 1: the injector ran but the diagnostics
            // claim no fault ever fired.
            let mut faulted = balanced_stats(true);
            assert!(check_fault_consistency("stale_q", &[faulted.clone()]).passed);
            faulted.faulted_periods = 0;
            assert!(!check_fault_consistency("stale_q", &[faulted]).passed);
            // Flip direction 2: a clean run that claims fault flags.
            let mut clean = balanced_stats(false);
            assert!(check_fault_consistency("clean", &[clean.clone()]).passed);
            clean.faulted_periods = s % 120 + 1;
            assert!(!check_fault_consistency("clean", &[clean]).passed);
        }
    }

    #[test]
    fn prop_span_conservation_checker_catches_any_leaked_nanosecond() {
        let mut s = 0xC0FF_EE00u64;
        for _ in 0..64 {
            s = splitmix64(s);
            let mut stats = balanced_stats(false);
            assert!(check_span_conservation(&[stats.clone()]).passed);
            // Leak 1..=1024 ns out of either side of the identity, or
            // desynchronise the per-stage sample counts.
            let delta = s % 1024 + 1;
            match s % 3 {
                0 => stats.span_sojourn_ns += delta,
                1 => stats.span_stage_ns += delta,
                _ => stats.span_counts_equal = false,
            }
            let verdict = check_span_conservation(&[balanced_stats(false), stats]);
            assert!(!verdict.passed, "leaked stage time survived: {verdict:?}");
            assert!(verdict.detail.contains("shard 1"));
        }
    }

    #[test]
    fn prop_bounded_delay_checker_catches_unbounded_tails() {
        let mut s = 0xBAD_C0DEu64;
        for _ in 0..32 {
            s = splitmix64(s);
            let mut stats = balanced_stats(false);
            assert!(check_bounded_delay(&[stats.clone()], TAIL_BOUND_S).passed);
            // Unbind the delay series: push the tail at or past the
            // bound (including the NaN pathology — NaN must fail, not
            // slip through a `<` comparison).
            stats.tail_delay_s = match s % 7 {
                0 => f64::NAN,
                _ => TAIL_BOUND_S + (s % 1000) as f64 / 10.0,
            };
            let verdict = check_bounded_delay(&[balanced_stats(false), stats], TAIL_BOUND_S);
            assert!(!verdict.passed, "unbounded tail survived: {verdict:?}");
        }
    }

    #[test]
    fn prop_spurious_anomaly_checker_catches_planted_anomalies() {
        let mut s = 0x50_0B0Du64;
        for _ in 0..32 {
            s = splitmix64(s);
            let mut stats = balanced_stats(false);
            assert!(check_no_spurious_anomalies(&[stats.clone()]).passed);
            stats.anomalies = s % 9 + 1;
            assert!(!check_no_spurious_anomalies(&[stats]).passed);
        }
    }

    #[test]
    fn prop_replay_digest_is_sensitive_to_every_field() {
        let base = vec![balanced_stats(true)];
        let d0 = digest_shards(&base);
        assert_eq!(d0, digest_shards(&base.clone()), "digest not deterministic");
        let mut variants = Vec::new();
        for i in 0..12 {
            let mut v = balanced_stats(true);
            match i {
                0 => v.offered += 1,
                1 => v.dropped_entry += 1,
                2 => v.dropped_network += 1,
                3 => v.completed += 1,
                4 => v.outstanding += 1,
                5 => v.residual += 1,
                6 => v.tail_delay_s += 0.25,
                7 => v.violation_s += 0.25,
                8 => v.periods += 1,
                9 => v.faulted_periods += 1,
                10 => v.anomalies += 1,
                _ => v.healthy_fraction += 0.01,
            }
            let d = digest_shards(&[v]);
            assert_ne!(d, d0, "field {i} invisible to the digest");
            assert!(!check_replay(d0, d).passed);
            variants.push(d);
        }
        assert!(check_replay(d0, d0).passed);
    }

    // ---- end-to-end cells (kept small: two single-shard cells) ----

    #[test]
    fn nominal_cell_passes_every_invariant_deterministically() {
        let spec = CellSpec {
            workload: WorkloadKind::Poisson,
            fault: "clean",
            topo: "ident",
            shards: 1,
            control: "paper",
        };
        let a = run_cell(&spec, 7, false);
        let b = run_cell(&spec, 7, false);
        assert_eq!(digest_shards(&a), digest_shards(&b), "cell not byte-deterministic");
        let invariants = evaluate_cell(&spec, &a, Some(digest_shards(&b)));
        for inv in &invariants {
            assert!(inv.passed, "{}: {}", inv.name, inv.detail);
        }
        assert!(invariants.iter().any(|i| i.name == "no_spurious_anomalies"));
        assert!(invariants.iter().any(|i| i.name == "replay"));
    }

    #[test]
    fn faulted_cell_passes_under_supervision() {
        let spec = CellSpec {
            workload: WorkloadKind::Poisson,
            fault: "stale_q",
            topo: "ident",
            shards: 1,
            control: "paper",
        };
        let shards = run_cell(&spec, 7, false);
        for inv in evaluate_cell(&spec, &shards, None) {
            assert!(inv.passed, "{}: {}", inv.name, inv.detail);
        }
        assert!(shards[0].faulted_periods > 0, "stale_q must stamp fault flags");
    }

    /// The acceptance drill: a deliberately injected regression — the
    /// supervisor silently disabled under a sensor-blinding fault — must
    /// be caught by the bounded-delay invariant.
    #[test]
    fn sabotaged_supervisor_is_caught_by_bounded_delay() {
        let spec = CellSpec {
            workload: WorkloadKind::Poisson,
            fault: "stale_q",
            topo: "ident",
            shards: 1,
            control: "paper",
        };
        let shards = run_cell(&spec, 7, true);
        let invariants = evaluate_cell(&spec, &shards, None);
        let bounded = invariants
            .iter()
            .find(|i| i.name == "bounded_delay")
            .expect("bounded_delay applies to paper cells");
        assert!(
            !bounded.passed,
            "sabotage went undetected: tail {:.2} s",
            shards[0].tail_delay_s
        );
    }

    #[test]
    fn campaign_isolates_failures_into_the_table() {
        // A tiny two-cell campaign with sabotage: the clean cell's
        // supervision doesn't matter (clean CTRL converges), but the
        // stale_q cell must land in the failure table with a usable
        // replay line.
        let cells = vec![
            CellSpec {
                workload: WorkloadKind::Poisson,
                fault: "stale_q",
                topo: "ident",
                shards: 1,
                control: "paper",
            },
        ];
        let result = run_campaign("filter", cells, 7, 1, true);
        assert_eq!(result.cells, 1);
        assert!(!result.all_green());
        let table = result.render_failures();
        assert!(table.contains("bounded_delay"), "{table}");
        assert!(
            table.contains("reproduce campaign --filter 'poisson+stale_q+ident+1shard+paper' --seed 7"),
            "{table}"
        );
        assert!(
            table.contains("reproduce trace --cell 'poisson+stale_q+ident+1shard+paper' --seed 7"),
            "{table}"
        );
        let json = result.to_json();
        assert!(json.contains("\"status\": \"fail\""), "{json}");
    }
}
