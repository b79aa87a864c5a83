//! The virtual-time simulator.
//!
//! Executes a [`QueryNetwork`] against a
//! schedule of tuple arrivals on a simulated CPU:
//!
//! * operators are scheduled **round-robin**, one queued tuple per visit,
//!   matching the Borealis scheduling policy the paper's model assumes
//!   (§4.2: FIFO queues, round-robin, no tuple priorities);
//! * executing an operator of cost `w` advances the clock by `w / H`
//!   where `H` is the headroom factor (the fraction of CPU available to
//!   query processing);
//! * at every control-period boundary the [`ControlHook`] is consulted and
//!   its [`Decision`] applied (entry drop probability and/or immediate
//!   in-network load shedding).
//!
//! Virtual time makes the paper's 400-second experiments run in
//! milliseconds and deterministically (seeded RNG).

use crate::cost::CostSchedule;
use crate::hook::{ControlHook, Decision, PeriodSnapshot};
use crate::metrics::{MetricsAccumulator, PeriodRecord, RunReport};
use crate::network::{NodeId, QueryNetwork};
use crate::rng::{engine_rng, EngineRng, EntryShedder};
use crate::telemetry::{EventSink, SharedRecorder, SpanKind};
use crate::operator::OutputBuffer;
use crate::time::{secs, SimDuration, SimTime};
use crate::tuple::{RootId, Tuple};
use rand::{Rng, RngCore};
use std::collections::VecDeque;

/// Configuration of a simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Control period `T`.
    pub period: SimDuration,
    /// True headroom of the simulated CPU: the fraction of wall time
    /// available to query processing (the paper fits `H = 0.97`).
    pub headroom: f64,
    /// Delay target `yd`, used for violation accounting in the report.
    pub target_delay: SimDuration,
    /// RNG seed (tuple payloads, entry shedding coin flips, shed-location
    /// selection).
    pub seed: u64,
    /// Join/grouping keys are drawn uniformly from `0..key_space`.
    pub key_space: u64,
    /// Time-varying multiplier on every operator's base cost.
    pub cost_schedule: CostSchedule,
    /// Admission gate: maximum number of tuples inside operator queues at
    /// once. The backlog beyond this waits in a global FIFO input buffer
    /// (the network buffer of §3), which keeps operator trains small and
    /// departures arrival-ordered. Must be ≥ 1.
    pub admission_gate: usize,
    /// Ingress batching: how many due arrivals are admitted per admission
    /// pass. `1` (the default) is the historical per-arrival path and
    /// keeps every seeded RNG stream bit-identical to prior releases.
    /// Values ≥ 2 mirror the real-time engines' `offer_batch` front door:
    /// shed decisions are made in one grouped pass per entry (amortising
    /// the hybrid shedder's state access) and kept tuples are then
    /// admitted in arrival order, each with its **exact** original
    /// virtual timestamp. The reordered RNG draws make batched runs a
    /// *different* (still statistically-iid) sample path, which is why
    /// batching is opt-in.
    pub ingress_batch: usize,
}

impl SimConfig {
    /// Paper-default configuration: `T = 1 s`, `H = 0.97`, `yd = 2 s`.
    pub fn paper_default() -> Self {
        Self {
            period: secs(1),
            headroom: 0.97,
            target_delay: secs(2),
            seed: 0xB0EA11,
            key_space: 100,
            cost_schedule: CostSchedule::constant(),
            admission_gate: 64,
            ingress_batch: 1,
        }
    }

    /// Sets the control period.
    pub fn with_period(mut self, period: SimDuration) -> Self {
        self.period = period;
        self
    }

    /// Sets the delay target.
    pub fn with_target_delay(mut self, target: SimDuration) -> Self {
        self.target_delay = target;
        self
    }

    /// Sets the headroom factor.
    pub fn with_headroom(mut self, h: f64) -> Self {
        assert!(h > 0.0 && h <= 1.0, "headroom must be in (0, 1]");
        self.headroom = h;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the cost schedule.
    pub fn with_cost_schedule(mut self, schedule: CostSchedule) -> Self {
        self.cost_schedule = schedule;
        self
    }

    /// Sets the ingress batch size (see [`Self::ingress_batch`]).
    pub fn with_ingress_batch(mut self, n: usize) -> Self {
        assert!(n >= 1, "ingress_batch must be >= 1");
        self.ingress_batch = n;
        self
    }
}

/// Per-root bookkeeping: arrival time and the number of in-flight tuple
/// copies derived from it.
///
/// Slots are recycled through a free-list: a root that fully departs
/// returns its slot for the next admission, so slab memory is bounded by
/// the peak number of *live* roots instead of growing with every
/// admission over the run. A recycled [`RootId`] is safe because no live
/// tuple can still reference a fully-departed root.
struct RootSlab {
    arrival: Vec<SimTime>,
    outstanding: Vec<u32>,
    free: Vec<u32>,
    live_roots: u64,
}

impl RootSlab {
    fn new() -> Self {
        Self {
            arrival: Vec::new(),
            outstanding: Vec::new(),
            free: Vec::new(),
            live_roots: 0,
        }
    }

    /// Preallocates capacity for `n` live roots (arrival/outstanding grow
    /// together, so one reserve covers both).
    fn reserve(&mut self, n: usize) {
        self.arrival.reserve(n);
        self.outstanding.reserve(n);
    }

    fn admit(&mut self, arrival: SimTime) -> RootId {
        self.live_roots += 1;
        match self.free.pop() {
            Some(idx) => {
                self.arrival[idx as usize] = arrival;
                self.outstanding[idx as usize] = 1;
                RootId(idx as u64)
            }
            None => {
                let id = RootId(self.arrival.len() as u64);
                self.arrival.push(arrival);
                self.outstanding.push(1);
                id
            }
        }
    }

    /// Adds `delta` in-flight copies for a root.
    fn fork(&mut self, root: RootId, delta: u32) {
        self.outstanding[root.0 as usize] += delta;
    }

    /// Removes one in-flight copy; returns `Some(arrival)` if that was the
    /// last copy (the root departs and its slot is recycled).
    fn consume(&mut self, root: RootId) -> Option<SimTime> {
        let idx = root.0 as usize;
        debug_assert!(self.outstanding[idx] > 0, "double consume of root");
        self.outstanding[idx] -= 1;
        if self.outstanding[idx] == 0 {
            self.live_roots -= 1;
            self.free.push(idx as u32);
            Some(self.arrival[idx])
        } else {
            None
        }
    }
}

/// Precomputed routing table of one node: every outgoing edge flattened
/// into `(node, port)` pairs, with per-branch half-open ranges into the
/// flat list. Replaces walking the nested `Vec<Vec<EdgeTarget>>` on every
/// emitted tuple.
struct Fanout {
    targets: Vec<(u32, u32)>,
    branches: Vec<(u32, u32)>,
}

impl Fanout {
    fn build(network: &QueryNetwork) -> Vec<Fanout> {
        network
            .nodes()
            .iter()
            .map(|node| {
                let mut targets = Vec::new();
                let mut branches = Vec::with_capacity(node.outputs.len());
                for branch in &node.outputs {
                    let start = targets.len() as u32;
                    for edge in branch {
                        targets.push((edge.node.index() as u32, edge.port as u32));
                    }
                    branches.push((start, targets.len() as u32));
                }
                Fanout { targets, branches }
            })
            .collect()
    }
}

/// The virtual-time stream-engine simulator.
pub struct Simulator {
    network: QueryNetwork,
    cfg: SimConfig,
    queues: Vec<Vec<VecDeque<Tuple>>>,
    /// Tuples inside operator queues.
    total_queued: u64,
    /// The global FIFO network-input buffer: admitted tuples waiting for a
    /// slot inside the operator network, tagged with their entry node.
    input_buffer: VecDeque<(usize, Tuple)>,
    /// Per-node count of input-buffer tuples destined for that entry, kept
    /// in lockstep with `input_buffer` so the period-boundary load
    /// estimate is O(entries) instead of O(buffered tuples).
    buffered_per_entry: Vec<u64>,
    /// Entry-shedder state, one per entry position (hybrid Bernoulli /
    /// geometric-skip, picked from the commanded α); reset whenever the
    /// controller issues a new decision.
    entry_skip: Vec<Option<EntryShedder>>,
    /// Reusable drop-flag buffer for the batched admission pass
    /// (`ingress_batch` ≥ 2), so the hot loop never allocates.
    ingress_scratch: Vec<bool>,
    /// Flattened routing tables, one per node.
    fanout: Vec<Fanout>,
    roots: RootSlab,
    rng: EngineRng,
    rr: usize,
    port_toggle: Vec<usize>,
    out_buf: OutputBuffer,
    clock: SimTime,
    /// Train scheduling state: the node currently being drained and how
    /// many tuples remain in its train.
    train_node: Option<usize>,
    train_left: u64,
    /// Tuples queued per node (all ports), kept in lockstep with `queues`
    /// so scheduling decisions never walk the port deques.
    node_queued: Vec<u64>,
    /// Bit i set ⇔ node i has queued tuples, for networks of ≤ 64 nodes:
    /// turns round-robin node selection into a rotate + trailing_zeros.
    /// Larger networks fall back to scanning `node_queued`.
    nonempty_mask: u64,
    /// Precomputed `1 / headroom` (service-time inflation per invocation).
    inv_headroom: f64,
    /// Per-node passthrough flag (identity map / union), precomputed so
    /// the scheduler can route such tuples without an indirect call.
    passthrough: Vec<bool>,
    /// Per-node `(work, wall, work-µs)` under the cost multiplier of the
    /// current schedule segment. Refreshed only when the clock crosses
    /// `cost_cache_until`, so the hot path does no per-invocation float
    /// scaling or breakpoint search.
    cost_cache: Vec<(SimDuration, SimDuration, f64)>,
    /// Exclusive end of the schedule segment `cost_cache` was built for.
    cost_cache_until: SimTime,
    node_processed: Vec<u64>,
    node_emitted: Vec<u64>,
    node_shed: Vec<u64>,
    /// Per-operator EWMA of the per-invocation CPU cost (µs); NaN until
    /// the operator first runs.
    node_cost_ewma: Vec<f64>,
    /// Optional telemetry sink for engine-side spans (shedder hot path).
    telemetry: Option<SharedRecorder>,
    /// Latency-truth-plane sink: every `u32`-th admitted root is tracked
    /// end to end and closed at departure ([`Self::with_spans`]).
    spans: Option<(crate::spans::SpanHandle, u32)>,
    /// Admission counter driving every-Nth sojourn sampling.
    spans_acc: u64,
    /// Per-root accumulated execute wall (µs; `u64::MAX` = unsampled),
    /// indexed in lockstep with the root slab. Admission always rewrites
    /// the slot, so recycled `RootId`s can never inherit a stale sample.
    spans_exec: Vec<u64>,
}

/// EWMA smoothing factor for per-operator cost tracking (the same order
/// as the controller's own cost estimator).
const COST_EWMA_ALPHA: f64 = 0.2;

/// Upper bound on operator invocations per [`Simulator::execute_batch`]
/// call. Batches normally end at the next event (arrival, period
/// boundary, run end); the cap only bounds pathological cases — e.g.
/// zero-cost operators whose execution never advances the clock.
const MAX_BATCH: u32 = 1024;

/// Counters accumulated over one control period and reset at each
/// boundary.
#[derive(Default)]
struct PeriodCounters {
    offered: u64,
    admitted: u64,
    dropped_entry: u64,
    dropped_network: u64,
    completed: u64,
    delay_sum_ms: f64,
    cpu_work_us: u64,
    busy_wall_us: u64,
}

impl Simulator {
    /// Creates a simulator over a query network.
    pub fn new(network: QueryNetwork, cfg: SimConfig) -> Self {
        let queues = network
            .nodes()
            .iter()
            // Preallocated to the admission-gate scale so steady-state
            // runs never grow a queue mid-flight.
            .map(|n| {
                (0..n.logic.ports())
                    .map(|_| VecDeque::with_capacity(64))
                    .collect()
            })
            .collect();
        let n_nodes = network.len();
        let n_entries = network.entries().len();
        let port_toggle = vec![0; n_nodes];
        let rng = engine_rng(cfg.seed);
        let fanout = Fanout::build(&network);
        let inv_headroom = 1.0 / cfg.headroom;
        let passthrough = network
            .nodes()
            .iter()
            .map(|n| n.logic.is_passthrough())
            .collect();
        Self {
            network,
            cfg,
            queues,
            total_queued: 0,
            input_buffer: VecDeque::new(),
            buffered_per_entry: vec![0; n_nodes],
            entry_skip: vec![None; n_entries],
            ingress_scratch: Vec::new(),
            fanout,
            roots: RootSlab::new(),
            rng,
            rr: 0,
            port_toggle,
            out_buf: OutputBuffer::new(),
            clock: SimTime::ZERO,
            train_node: None,
            train_left: 0,
            node_queued: vec![0; n_nodes],
            nonempty_mask: 0,
            inv_headroom,
            passthrough,
            cost_cache: vec![(SimDuration::ZERO, SimDuration::ZERO, 0.0); n_nodes],
            cost_cache_until: SimTime::ZERO,
            node_processed: vec![0; n_nodes],
            node_emitted: vec![0; n_nodes],
            node_shed: vec![0; n_nodes],
            node_cost_ewma: vec![f64::NAN; n_nodes],
            telemetry: None,
            spans: None,
            spans_acc: 0,
            spans_exec: Vec::new(),
        }
    }

    /// The underlying network.
    pub fn network(&self) -> &QueryNetwork {
        &self.network
    }

    /// Attaches a telemetry recorder: the engine reports its shedder
    /// hot-path spans ([`SpanKind::Shedder`]) into it. Share the same
    /// recorder with a [`TracingHook`](crate::telemetry::TracingHook) to
    /// get hook spans and per-period traces in one place.
    pub fn with_telemetry(mut self, recorder: SharedRecorder) -> Self {
        self.telemetry = Some(recorder);
        self
    }

    /// Attaches a latency-truth-plane span sink ([`crate::spans`]): every
    /// `sample_every`-th admitted root is tracked end to end and closed at
    /// departure with the exact virtual-time decomposition
    /// `sojourn = ring_wait + execute`, where `execute` is the summed wall
    /// time of the root's operator invocations (excluding the departing
    /// invocation, whose wall lands after the departure instant) and
    /// `ring_wait` is everything else the root spent queued. Sampled roots
    /// shed mid-network lose their sample, mirroring the real-time
    /// engines.
    pub fn with_spans(mut self, handle: crate::spans::SpanHandle, sample_every: u32) -> Self {
        self.spans = Some((handle, sample_every.max(1)));
        self
    }

    /// Marks the freshly admitted `root` as span-sampled (or not),
    /// unconditionally rewriting its slot so slab recycling never leaks a
    /// stale sample.
    #[inline]
    fn note_admitted_root(&mut self, root: RootId) {
        let Some((_, every)) = self.spans.as_ref() else {
            return;
        };
        let every = *every as u64;
        self.spans_acc += 1;
        let idx = root.0 as usize;
        if self.spans_exec.len() <= idx {
            self.spans_exec.resize(idx + 1, u64::MAX);
        }
        self.spans_exec[idx] = if self.spans_acc.is_multiple_of(every) {
            0
        } else {
            u64::MAX
        };
    }

    /// Runs the simulation for `duration`, admitting tuples at the given
    /// (sorted, within-duration) arrival instants and consulting `hook` at
    /// every period boundary.
    ///
    /// Consumes the simulator: operator state (join windows, aggregate
    /// accumulators) is not reusable across runs.
    pub fn run(
        mut self,
        arrival_times: &[SimTime],
        hook: &mut dyn ControlHook,
        duration: SimDuration,
    ) -> RunReport {
        debug_assert!(
            arrival_times.windows(2).all(|w| w[0] <= w[1]),
            "arrival times must be sorted"
        );
        let end = SimTime::ZERO + duration;
        let period = self.cfg.period;
        assert!(period.as_micros() > 0, "period must be positive");

        // Overloaded runs park most arrivals in the input buffer (each
        // holding a live root); reserve up front (capped) so admission
        // never pays a mid-run regrow.
        self.input_buffer.reserve(arrival_times.len().min(1 << 16));
        self.roots.reserve(arrival_times.len().min(1 << 16));

        let mut metrics = MetricsAccumulator::new(self.cfg.target_delay, period);
        let mut decision = Decision::NONE;
        let mut next_arrival = 0usize;
        let mut next_boundary = SimTime::ZERO + period;
        let mut k: u64 = 0;
        let mut pc = PeriodCounters::default();

        loop {
            // 1. Admit arrivals that are due.
            self.admit_due(arrival_times, &mut next_arrival, end, &decision, &mut metrics, &mut pc);
            self.fill_from_input_buffer();

            // 2. Period boundaries that are due.
            while next_boundary <= self.clock && next_boundary <= end {
                let queued_load_us = self.queued_load_us();
                let snapshot = PeriodSnapshot {
                    k,
                    now: next_boundary,
                    period,
                    offered: pc.offered,
                    admitted: pc.admitted,
                    dropped_entry: pc.dropped_entry,
                    dropped_network: pc.dropped_network,
                    completed: pc.completed,
                    outstanding: self.roots.live_roots,
                    queued_tuples: self.total_queued + self.input_buffer.len() as u64,
                    queued_load_us,
                    measured_cost_us: if pc.completed > 0 {
                        Some(pc.cpu_work_us as f64 / pc.completed as f64)
                    } else {
                        None
                    },
                    // An idle pipeline (nothing completed *and* nothing
                    // in flight) has a known delay of zero — reporting
                    // `None` there would let an over-shedding controller
                    // read its own drought as a sensor blackout and hold
                    // the shut command forever.
                    mean_delay_ms: if pc.completed > 0 {
                        Some(pc.delay_sum_ms / pc.completed as f64)
                    } else if self.roots.live_roots == 0 {
                        Some(0.0)
                    } else {
                        None
                    },
                    cpu_busy_us: pc.cpu_work_us,
                };
                let new_decision = hook.on_period(&snapshot);
                let alpha_in_force = decision.alpha();
                decision = new_decision;
                // Skip-sampling state is only valid under the α it was
                // drawn for; resample lazily under the new decision.
                self.entry_skip.iter_mut().for_each(|s| *s = None);
                metrics.periods.push(PeriodRecord {
                    k,
                    time_s: next_boundary.as_secs_f64(),
                    offered: pc.offered,
                    admitted: pc.admitted,
                    dropped: pc.dropped_entry + pc.dropped_network,
                    completed: pc.completed,
                    outstanding: self.roots.live_roots,
                    alpha: alpha_in_force,
                    arrival_mean_delay_ms: f64::NAN, // filled in finish()
                    measured_cost_us: if pc.completed > 0 {
                        pc.cpu_work_us as f64 / pc.completed as f64
                    } else {
                        f64::NAN
                    },
                    cpu_utilisation: pc.busy_wall_us as f64 / period.as_micros() as f64,
                });
                pc = PeriodCounters::default();
                k += 1;
                let boundary = next_boundary;
                next_boundary += period;

                // A decision commands the *following* period; at the run
                // end there is none, so acting on it would only shed
                // tuples already recorded as outstanding (breaking the
                // run-level conservation identity).
                if decision.shed_load_us > 0.0 && boundary < end {
                    let t0 = std::time::Instant::now();
                    let dropped = self.shed_load(decision.shed_load_us);
                    if let Some(rec) = self.telemetry.as_mut() {
                        rec.record_span(SpanKind::Shedder, t0.elapsed().as_nanos() as u64);
                    }
                    pc.dropped_network += dropped;
                    metrics.dropped_network += dropped;
                }
            }

            if self.clock >= end {
                break;
            }

            // 3. Execute a batch or idle. Between here and the next
            // boundary (or run end) only arrivals can interleave with the
            // scheduler, and the batch admits those itself — so whole
            // stretches of operator invocations run without bouncing
            // through the outer event loop per tuple.
            if self.total_queued > 0 {
                self.execute_batch(
                    next_boundary.min(end),
                    arrival_times,
                    &mut next_arrival,
                    end,
                    &decision,
                    &mut metrics,
                    &mut pc,
                );
            } else {
                // Idle: jump to the next event.
                let mut next_event = next_boundary.min(end);
                if next_arrival < arrival_times.len() {
                    next_event = next_event.min(arrival_times[next_arrival]);
                }
                debug_assert!(next_event >= self.clock);
                self.clock = next_event.max(self.clock);
            }
        }

        let node_stats = self
            .network
            .nodes()
            .iter()
            .enumerate()
            .map(|(i, node)| crate::metrics::NodeStat {
                name: node.name.clone(),
                processed: self.node_processed[i],
                emitted: self.node_emitted[i],
                shed: self.node_shed[i],
                cost_ewma_us: self.node_cost_ewma[i],
            })
            .collect();
        metrics.finish_with_nodes(node_stats)
    }

    /// Moves tuples from the input buffer into their entry-operator
    /// queues while the in-network population is below the admission
    /// gate.
    #[inline]
    fn fill_from_input_buffer(&mut self) {
        let gate = self.cfg.admission_gate.max(1) as u64;
        while self.total_queued < gate {
            match self.input_buffer.pop_front() {
                Some((entry, tuple)) => {
                    self.buffered_per_entry[entry] -= 1;
                    self.queues[entry][0].push_back(tuple);
                    self.total_queued += 1;
                    self.note_push(entry);
                }
                None => break,
            }
        }
    }

    /// Rebuilds the per-node cost cache for the schedule segment the
    /// clock currently sits in. `segment` is bit-exact with `multiplier`,
    /// so cached invocations behave identically to per-invocation lookup.
    #[cold]
    fn refresh_cost_cache(&mut self) {
        let (mult, until) = self.cfg.cost_schedule.segment(self.clock);
        self.cost_cache_until = until;
        for (cache, node) in self.cost_cache.iter_mut().zip(self.network.nodes()) {
            let work = node.cost.mul_f64(mult);
            let wall = work.mul_f64(self.inv_headroom);
            *cache = (work, wall, work.as_micros() as f64);
        }
    }

    /// Records a tuple entering `node`'s queues in the per-node counter
    /// and the nonempty bitmask.
    #[inline]
    fn note_push(&mut self, node: usize) {
        self.node_queued[node] += 1;
        if node < 64 {
            self.nonempty_mask |= 1u64 << node;
        }
    }

    /// Records a tuple leaving `node`'s queues.
    #[inline]
    fn note_pop(&mut self, node: usize) {
        self.node_queued[node] -= 1;
        if self.node_queued[node] == 0 && node < 64 {
            self.nonempty_mask &= !(1u64 << node);
        }
    }

    /// First node with queued tuples in round-robin order starting at
    /// `self.rr`. For networks of ≤ 64 nodes this is a single rotate +
    /// trailing_zeros on the nonempty bitmask; larger networks scan the
    /// per-node counters.
    #[inline]
    fn next_nonempty_node(&self, n: usize) -> Option<usize> {
        if n <= 64 {
            let mask = self.nonempty_mask;
            if mask == 0 {
                return None;
            }
            // rotate_right(rr) maps node j to bit (j - rr) mod 64, so the
            // lowest set bit is the first nonempty node in cyclic order
            // rr, rr+1, …, n-1, 0, …, rr-1 (bits n..64 are never set).
            let off = mask.rotate_right(self.rr as u32).trailing_zeros() as usize;
            Some((self.rr + off) & 63)
        } else {
            (0..n)
                .map(|off| (self.rr + off) % n)
                .find(|&i| self.node_queued[i] > 0)
        }
    }

    /// Expected remaining CPU load of everything queued (operator queues
    /// plus the input buffer), in µs.
    ///
    /// The input-buffer contribution comes from the per-entry counters
    /// maintained alongside the buffer, so the boundary-time estimate is
    /// O(nodes) regardless of how deep the backlog is.
    fn queued_load_us(&self) -> f64 {
        debug_assert_eq!(
            self.buffered_per_entry.iter().sum::<u64>() as usize,
            self.input_buffer.len(),
            "buffered-per-entry counters out of sync with the input buffer"
        );
        let in_network: f64 = self
            .queues
            .iter()
            .enumerate()
            .map(|(i, ports)| {
                let per_tuple = self.network.downstream_load_us(NodeId(i));
                ports.iter().map(|q| q.len() as f64).sum::<f64>() * per_tuple
            })
            .sum();
        let buffered: f64 = self
            .network
            .entries()
            .iter()
            .map(|&e| {
                self.buffered_per_entry[e.index()] as f64
                    * self.network.downstream_load_us(e)
            })
            .sum();
        in_network + buffered
    }

    /// Admits every arrival at or before the current clock (and before
    /// `end`), applying the entry-shedding decision in force.
    fn admit_due(
        &mut self,
        arrival_times: &[SimTime],
        next_arrival: &mut usize,
        end: SimTime,
        decision: &Decision,
        metrics: &mut MetricsAccumulator,
        pc: &mut PeriodCounters,
    ) {
        if self.cfg.ingress_batch > 1 {
            return self.admit_due_batched(arrival_times, next_arrival, end, decision, metrics, pc);
        }
        let n_entries = self.network.entries().len();
        let key_space = self.cfg.key_space.max(1);
        let alpha = decision.alpha();
        // Rotating cursor equivalent to `(offered - 1) % n_entries`
        // without a division per arrival.
        let mut cursor = metrics.offered as usize % n_entries;
        while *next_arrival < arrival_times.len()
            && arrival_times[*next_arrival] <= self.clock
            && arrival_times[*next_arrival] < end
        {
            let t = arrival_times[*next_arrival];
            *next_arrival += 1;
            pc.offered += 1;
            metrics.offered += 1;
            // Entry (stream) assignment is by arrival order, so it is
            // stable under shedding, and each entry keeps its own
            // shedder state: the seeded RNG draw sequence (and with it
            // every campaign digest) depends on both.
            let entry_pos = cursor;
            cursor += 1;
            if cursor == n_entries {
                cursor = 0;
            }
            // Hybrid entry shedding: geometric skip sampling (one RNG
            // draw per *drop*) below `rng::BERNOULLI_ALPHA_MIN`, a plain
            // coin flip per arrival above it — each branch is the faster
            // sampler in its α regime and both are statistically iid
            // Bernoulli(α) (see `rng::EntryShedder`). The state is reset
            // at every new decision, which is harmless because the
            // geometric distribution is memoryless.
            if alpha > 0.0 {
                let skip = self.entry_skip[entry_pos]
                    .get_or_insert_with(|| EntryShedder::new(alpha, &mut self.rng));
                if skip.should_drop(&mut self.rng) {
                    pc.dropped_entry += 1;
                    metrics.dropped_entry += 1;
                    continue;
                }
            }
            pc.admitted += 1;
            let root = self.roots.admit(t);
            self.note_admitted_root(root);
            // Bounded key via widening multiply (Lemire) — uniform to
            // within 2⁻⁶⁴·key_space, with no 128-bit division per tuple.
            let key =
                (((self.rng.next_u64() as u128) * (key_space as u128)) >> 64) as u64;
            let value = self.rng.gen::<f64>();
            let entry = self.network.entries()[entry_pos];
            self.buffered_per_entry[entry.index()] += 1;
            self.input_buffer
                .push_back((entry.index(), Tuple::new(root, t, key, value)));
        }
    }

    /// Batched variant of [`Self::admit_due`], active when
    /// [`SimConfig::ingress_batch`] ≥ 2 — the virtual-time mirror of the
    /// real-time engines' `offer_batch` front door.
    ///
    /// Each pass gathers up to `ingress_batch` due arrivals and makes the
    /// entry-shed decisions in one grouped sweep per entry (loading each
    /// entry's hybrid-shedder state once per batch instead of once per
    /// arrival), then admits the survivors in original arrival order so
    /// the global input buffer stays arrival-sorted. Every admitted tuple
    /// keeps its own exact virtual arrival timestamp; only the RNG draw
    /// *order* differs from the scalar path.
    fn admit_due_batched(
        &mut self,
        arrival_times: &[SimTime],
        next_arrival: &mut usize,
        end: SimTime,
        decision: &Decision,
        metrics: &mut MetricsAccumulator,
        pc: &mut PeriodCounters,
    ) {
        let n_entries = self.network.entries().len();
        let key_space = self.cfg.key_space.max(1);
        let batch_max = self.cfg.ingress_batch;
        let alpha = decision.alpha();
        loop {
            // Gather the next batch of due arrivals.
            let start = *next_arrival;
            let mut n = 0usize;
            while n < batch_max {
                let i = start + n;
                if i >= arrival_times.len()
                    || arrival_times[i] > self.clock
                    || arrival_times[i] >= end
                {
                    break;
                }
                n += 1;
            }
            if n == 0 {
                return;
            }
            *next_arrival = start + n;
            // Entry assignment stays by arrival order (stable under
            // shedding), so arrival j of this batch belongs to entry
            // `(cursor0 + j) % n_entries`.
            let cursor0 = metrics.offered as usize % n_entries;
            pc.offered += n as u64;
            metrics.offered += n as u64;
            // Pass 1 — grouped shed decisions, one entry at a time.
            let mut scratch = std::mem::take(&mut self.ingress_scratch);
            scratch.clear();
            scratch.resize(n, false);
            for entry_pos in 0..n_entries {
                let first = (entry_pos + n_entries - cursor0) % n_entries;
                if first >= n || alpha <= 0.0 {
                    continue;
                }
                let skip = self.entry_skip[entry_pos]
                    .get_or_insert_with(|| EntryShedder::new(alpha, &mut self.rng));
                let mut j = first;
                while j < n {
                    if skip.should_drop(&mut self.rng) {
                        scratch[j] = true;
                    }
                    j += n_entries;
                }
            }
            // Pass 2 — admit survivors in arrival order, each with its
            // exact original timestamp.
            let mut cursor = cursor0;
            for (j, &dropped) in scratch.iter().enumerate() {
                let entry_pos = cursor;
                cursor += 1;
                if cursor == n_entries {
                    cursor = 0;
                }
                if dropped {
                    pc.dropped_entry += 1;
                    metrics.dropped_entry += 1;
                    continue;
                }
                let t = arrival_times[start + j];
                pc.admitted += 1;
                let root = self.roots.admit(t);
                self.note_admitted_root(root);
                let key =
                    (((self.rng.next_u64() as u128) * (key_space as u128)) >> 64) as u64;
                let value = self.rng.gen::<f64>();
                let entry = self.network.entries()[entry_pos];
                self.buffered_per_entry[entry.index()] += 1;
                self.input_buffer
                    .push_back((entry.index(), Tuple::new(root, t, key, value)));
            }
            self.ingress_scratch = scratch;
        }
    }

    /// Executes operator invocations back-to-back until the clock reaches
    /// `limit_events` (the next boundary or the run end), the queues
    /// drain, or [`MAX_BATCH`] invocations ran. Pending arrivals are
    /// admitted in-line the moment the clock crosses them, so event
    /// ordering is identical to a one-invocation-per-outer-iteration
    /// loop without paying the outer loop per tuple.
    #[allow(clippy::too_many_arguments)]
    fn execute_batch(
        &mut self,
        limit_events: SimTime,
        arrival_times: &[SimTime],
        next_arrival: &mut usize,
        end: SimTime,
        decision: &Decision,
        metrics: &mut MetricsAccumulator,
        pc: &mut PeriodCounters,
    ) {
        let mut budget = MAX_BATCH;
        loop {
            let mut limit = limit_events;
            if *next_arrival < arrival_times.len() {
                limit = limit.min(arrival_times[*next_arrival]);
            }
            while budget > 0 {
                budget -= 1;
                let (work_us, wall) = self.execute_one(metrics, pc);
                pc.cpu_work_us += work_us;
                pc.busy_wall_us += wall.as_micros();
                self.clock += wall;
                self.fill_from_input_buffer();
                if self.clock >= limit || self.total_queued == 0 {
                    break;
                }
            }
            if budget == 0 || self.clock >= limit_events {
                return;
            }
            // The clock crossed the next pending arrival (or the queues
            // drained short of it): admit what is due and keep draining.
            self.admit_due(arrival_times, next_arrival, end, decision, metrics, pc);
            self.fill_from_input_buffer();
            if self.total_queued == 0 {
                return; // idle — the outer loop jumps the clock forward
            }
        }
    }

    /// Executes one operator invocation. Returns (CPU work µs, wall time).
    fn execute_one(
        &mut self,
        metrics: &mut MetricsAccumulator,
        pc: &mut PeriodCounters,
    ) -> (u64, SimDuration) {
        let n = self.network.len();
        // Round-robin *train* scheduling (Aurora-style): each visit
        // snapshots the operator's queued tuples and drains exactly that
        // train before moving on. One-tuple-per-visit would cap every
        // operator at the same rate and turn merge points (unions, joins)
        // into artificial bottlenecks the real engine does not have.
        let node_idx = match self.train_node {
            Some(i) if self.train_left > 0 && self.node_queued[i] > 0 => i,
            _ => {
                // Callers only invoke this while work is queued; if the
                // bookkeeping ever disagrees, degrade to a no-op step
                // rather than aborting the whole run.
                let Some(i) = self.next_nonempty_node(n) else {
                    self.train_node = None;
                    self.train_left = 0;
                    return (0, SimDuration::ZERO);
                };
                self.rr = (i + 1) % n;
                self.train_node = Some(i);
                self.train_left = self.node_queued[i];
                i
            }
        };
        self.train_left = self.train_left.saturating_sub(1);
        if self.train_left == 0 {
            self.train_node = None;
        }

        // Alternate ports on binary operators; fall back to any non-empty.
        // `port_toggle` is kept `< ports`, so the wrap-arounds below are
        // single conditional subtractions, not divisions.
        let ports = self.queues[node_idx].len();
        let port = if ports == 1 {
            0
        } else {
            let preferred = self.port_toggle[node_idx];
            let Some(port) = (0..ports)
                .map(|off| {
                    let p = preferred + off;
                    if p >= ports {
                        p - ports
                    } else {
                        p
                    }
                })
                .find(|&p| !self.queues[node_idx][p].is_empty())
            else {
                return (0, SimDuration::ZERO);
            };
            self.port_toggle[node_idx] = if port + 1 >= ports { 0 } else { port + 1 };
            port
        };

        let Some(tuple) = self.queues[node_idx][port].pop_front() else {
            return (0, SimDuration::ZERO);
        };
        self.total_queued -= 1;
        self.note_pop(node_idx);

        let mut pushed: u32 = 0;
        if self.passthrough[node_idx] {
            // Passthrough fast path (identity maps, unions): the single
            // output is the input tuple on the default branch, so skip the
            // indirect `process` call and the scratch buffer entirely.
            self.node_processed[node_idx] += 1;
            self.node_emitted[node_idx] += 1;
            let fan = &self.fanout[node_idx];
            for &(node, port) in &fan.targets[..] {
                self.queues[node as usize][port as usize].push_back(tuple);
                self.total_queued += 1;
                // note_push inlined: `fan` pins a shared borrow of
                // self.fanout, so only disjoint fields may be touched here.
                self.node_queued[node as usize] += 1;
                if (node as usize) < 64 {
                    self.nonempty_mask |= 1u64 << node;
                }
                pushed += 1;
            }
        } else {
            self.out_buf.clear();
            let now = self.clock;
            let node = &mut self.network.nodes_mut()[node_idx];
            node.logic.process(port, &tuple, now, &mut self.out_buf);
            self.node_processed[node_idx] += 1;
            self.node_emitted[node_idx] += self.out_buf.items.len() as u64;

            // Route the outputs through the precomputed flat fanout table.
            // Take the item list out of the scratch buffer so queue pushes
            // do not alias the buffer borrow; hand the allocation back
            // afterwards (workhorse-buffer reuse).
            let mut items = std::mem::take(&mut self.out_buf.items);
            let fan = &self.fanout[node_idx];
            for &(branch, out_tuple) in &items {
                let targets = match branch {
                    Some(b) => match fan.branches.get(b) {
                        Some(&(start, end)) => &fan.targets[start as usize..end as usize],
                        None => &[],
                    },
                    None => &fan.targets[..],
                };
                for &(node, port) in targets {
                    self.queues[node as usize][port as usize].push_back(out_tuple);
                    self.total_queued += 1;
                    // note_push inlined, as above.
                    self.node_queued[node as usize] += 1;
                    if (node as usize) < 64 {
                        self.nonempty_mask |= 1u64 << node;
                    }
                    pushed += 1;
                }
            }
            items.clear();
            self.out_buf.items = items;
        }

        if pushed > 0 {
            self.roots.fork(tuple.root, pushed);
        }
        let root_idx = tuple.root.0 as usize;
        let departed = if let Some(arrival) = self.roots.consume(tuple.root) {
            let departure = self.clock;
            metrics.record_departure(arrival, departure);
            pc.completed += 1;
            pc.delay_sum_ms += (departure - arrival).as_millis_f64();
            if let Some(exec_us) = self.spans_exec.get_mut(root_idx) {
                if *exec_us != u64::MAX {
                    // Close the sampled sojourn with the exact
                    // decomposition: everything not spent executing this
                    // root's tuples was spent waiting in queues.
                    let exec = *exec_us;
                    *exec_us = u64::MAX;
                    let sojourn_us = (departure - arrival).0;
                    if let Some((handle, _)) = self.spans.as_ref() {
                        handle.record(crate::spans::Stage::Execute, exec * 1_000);
                        handle.record(
                            crate::spans::Stage::RingWait,
                            sojourn_us.saturating_sub(exec) * 1_000,
                        );
                        handle.record_sojourn(sojourn_us * 1_000);
                    }
                }
            }
            true
        } else {
            false
        };

        if self.clock >= self.cost_cache_until {
            self.refresh_cost_cache();
        }
        let (work, wall, w_us) = self.cost_cache[node_idx];
        if !departed {
            // This invocation's wall advances the clock after the return,
            // so a still-live sampled root accrues it as execute time.
            if let Some(exec_us) = self.spans_exec.get_mut(root_idx) {
                if *exec_us != u64::MAX {
                    *exec_us += wall.0;
                }
            }
        }
        let ewma = &mut self.node_cost_ewma[node_idx];
        *ewma = if ewma.is_nan() {
            w_us
        } else {
            (1.0 - COST_EWMA_ALPHA) * *ewma + COST_EWMA_ALPHA * w_us
        };
        (work.as_micros(), wall)
    }

    /// Sheds approximately `target_us` of queued load from random
    /// locations (the paper's own evaluation shedder: "allows shedding
    /// from the queue and randomly selects shedding locations"). Returns
    /// the number of tuples dropped.
    fn shed_load(&mut self, target_us: f64) -> u64 {
        // Queue contents are about to change under the scheduler's feet.
        self.train_node = None;
        self.train_left = 0;
        let mut shed = 0.0f64;
        let mut dropped = 0u64;
        // The input buffer is the dominant queue: drop its newest tuples
        // first (they have waited least).
        while shed < target_us {
            match self.input_buffer.pop_back() {
                Some((entry, t)) => {
                    self.buffered_per_entry[entry] -= 1;
                    shed += self.network.downstream_load_us(NodeId(entry));
                    self.node_shed[entry] += 1;
                    if self.roots.consume(t.root).is_some() {
                        dropped += 1;
                    }
                }
                None => break,
            }
        }
        if shed >= target_us {
            return dropped;
        }
        // Random shed locations via *partial* Fisher–Yates: each visited
        // position is drawn lazily, so the RNG/shuffle cost is
        // proportional to the locations actually drained rather than the
        // full node count (the loop usually stops after one or two).
        let n = self.network.len();
        let mut order: Vec<usize> = (0..n).collect();
        'outer: for visit in 0..n {
            let j = self.rng.gen_range(visit..n);
            order.swap(visit, j);
            let i = order[visit];
            let per_tuple = self.network.downstream_load_us(NodeId(i));
            for port in 0..self.queues[i].len() {
                while shed < target_us {
                    // Drop the newest tuples first (they have waited least).
                    match self.queues[i][port].pop_back() {
                        Some(t) => {
                            self.total_queued -= 1;
                            self.note_pop(i);
                            shed += per_tuple;
                            self.node_shed[i] += 1;
                            // A shed root that reaches zero copies departs
                            // silently — it is loss, not a delay sample.
                            // On fan-out networks a root can have other
                            // copies still in flight; it counts as
                            // dropped only when this shed retires it
                            // (otherwise the surviving copy settles its
                            // fate), keeping the run-level conservation
                            // identity exact.
                            if self.roots.consume(t.root).is_some() {
                                dropped += 1;
                            }
                        }
                        None => break,
                    }
                }
                if shed >= target_us {
                    break 'outer;
                }
            }
        }
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hook::NoShedding;
    use crate::network::NetworkBuilder;
    use crate::operator::{Filter, Map};
    use crate::time::{micros, millis};

    /// A single-operator network with the given per-tuple cost.
    fn unit_network(cost: SimDuration) -> QueryNetwork {
        let mut b = NetworkBuilder::new();
        let m = b.add("m", cost, Map::identity());
        b.entry(m);
        b.build().unwrap()
    }

    /// Evenly spaced arrivals at `rate` tuples/s for `dur_s` seconds.
    fn uniform_arrivals(rate: f64, dur_s: f64) -> Vec<SimTime> {
        let n = (rate * dur_s).round() as u64;
        let gap = 1e6 / rate;
        (0..n)
            .map(|i| SimTime((i as f64 * gap).round() as u64))
            .collect()
    }

    #[test]
    fn underload_has_constant_small_delay() {
        // Capacity = H/c = 0.97/5ms = 194/s; offer 100/s.
        let net = unit_network(millis(5));
        let cfg = SimConfig::paper_default();
        let sim = Simulator::new(net, cfg);
        let arrivals = uniform_arrivals(100.0, 20.0);
        let report = sim.run(&arrivals, &mut NoShedding, secs(20));
        assert_eq!(report.offered, 2000);
        assert_eq!(report.completed, 2000);
        assert_eq!(report.loss_ratio(), 0.0);
        // Delay ≈ one service time c/H ≈ 5.15 ms.
        assert!(report.delay_stats().mean_ms() < 12.0, "{}", report.delay_stats().mean_ms());
    }

    #[test]
    fn overload_grows_delay_linearly() {
        // Offer 2× capacity: queue builds, delay ramps (Fig 5's fin=300).
        let net = unit_network(millis(5));
        let cfg = SimConfig::paper_default();
        let sim = Simulator::new(net, cfg);
        let arrivals = uniform_arrivals(400.0, 20.0);
        let report = sim.run(&arrivals, &mut NoShedding, secs(20));
        // y(k) by arrival period should increase monotonically (roughly).
        // Use an early-middle period: later arrivals have not departed by
        // the end of the run (the backlog exceeds the remaining horizon).
        let ys = report.y_series_ms();
        let early: f64 = ys[1];
        let late = ys[8];
        assert!(late > early * 3.0, "early {early}, late {late}");
        assert!(report.periods.last().unwrap().outstanding > 500);
    }

    #[test]
    fn knee_matches_h_over_c() {
        // At exactly capacity the queue stays near-empty; just above, it
        // builds. c = 5 ms, H = 0.97 → capacity 194/s.
        let below = {
            let sim = Simulator::new(unit_network(millis(5)), SimConfig::paper_default());
            sim.run(&uniform_arrivals(185.0, 20.0), &mut NoShedding, secs(20))
        };
        let above = {
            let sim = Simulator::new(unit_network(millis(5)), SimConfig::paper_default());
            sim.run(&uniform_arrivals(210.0, 20.0), &mut NoShedding, secs(20))
        };
        assert!(below.periods.last().unwrap().outstanding < 20);
        assert!(above.periods.last().unwrap().outstanding > 100);
    }

    #[test]
    fn entry_shedding_probability_drops_share() {
        let net = unit_network(micros(100));
        let cfg = SimConfig::paper_default();
        let sim = Simulator::new(net, cfg);
        let arrivals = uniform_arrivals(1000.0, 10.0);
        let mut hook = |_s: &PeriodSnapshot| Decision::entry(0.5);
        let report = sim.run(&arrivals, &mut hook, secs(10));
        let ratio = report.loss_ratio();
        // First period runs unshed (alpha starts at 0): expect ≈ 0.45.
        assert!(ratio > 0.35 && ratio < 0.55, "ratio {ratio}");
    }

    #[test]
    fn batched_ingress_identical_when_nothing_is_shed() {
        // With the shedder off, the batched pass admits the same tuples
        // with the same timestamps in the same order as the scalar path,
        // so the whole report is equivalent.
        let scalar = {
            let sim = Simulator::new(unit_network(millis(5)), SimConfig::paper_default());
            sim.run(&uniform_arrivals(100.0, 10.0), &mut NoShedding, secs(10))
        };
        let batched = {
            let cfg = SimConfig::paper_default().with_ingress_batch(256);
            let sim = Simulator::new(unit_network(millis(5)), cfg);
            sim.run(&uniform_arrivals(100.0, 10.0), &mut NoShedding, secs(10))
        };
        assert_eq!(scalar.offered, batched.offered);
        assert_eq!(scalar.completed, batched.completed);
        assert_eq!(
            scalar.delay_stats().mean_ms(),
            batched.delay_stats().mean_ms(),
            "exact per-arrival timestamps survive batching"
        );
    }

    #[test]
    fn batched_ingress_sheds_at_the_same_rate_as_scalar() {
        // α = 0.5 under heavy offered load: the batched grouped shed pass
        // is a different sample path but the same Bernoulli(α) process.
        let run = |batch: usize| {
            let cfg = SimConfig::paper_default().with_ingress_batch(batch);
            let sim = Simulator::new(unit_network(micros(100)), cfg);
            let mut hook = |_s: &PeriodSnapshot| Decision::entry(0.5);
            sim.run(&uniform_arrivals(1000.0, 10.0), &mut hook, secs(10))
        };
        let scalar = run(1);
        let batched = run(512);
        assert_eq!(scalar.offered, batched.offered);
        let (a, b) = (scalar.loss_ratio(), batched.loss_ratio());
        assert!((a - b).abs() < 0.05, "scalar {a} vs batched {b}");
        assert!(b > 0.35 && b < 0.55, "batched ratio {b}");
    }

    #[test]
    fn batched_ingress_covers_multiple_entries() {
        // Two entry streams: the grouped pass walks each entry's stripe
        // of the batch with that entry's own shedder state.
        let net = |cost| {
            let mut b = NetworkBuilder::new();
            let m1 = b.add("m1", cost, Map::identity());
            let m2 = b.add("m2", cost, Map::identity());
            b.entry(m1);
            b.entry(m2);
            b.build().unwrap()
        };
        let cfg = SimConfig::paper_default().with_ingress_batch(64);
        let sim = Simulator::new(net(micros(100)), cfg);
        let mut hook = |_s: &PeriodSnapshot| Decision::entry(0.3);
        let report = sim.run(&uniform_arrivals(2000.0, 10.0), &mut hook, secs(10));
        assert_eq!(report.offered, 20_000);
        let ratio = report.dropped_entry as f64 / report.offered as f64;
        // First period runs unshed; expect a bit under 0.3.
        assert!(ratio > 0.2 && ratio < 0.35, "ratio {ratio}");
    }

    #[test]
    fn filter_departures_count_as_completed() {
        let mut b = NetworkBuilder::new();
        let f = b.add("f", millis(1), Filter::value_below(0.5));
        b.entry(f);
        let net = b.build().unwrap();
        let sim = Simulator::new(net, SimConfig::paper_default());
        let arrivals = uniform_arrivals(100.0, 5.0);
        let report = sim.run(&arrivals, &mut NoShedding, secs(5));
        // Every tuple departs: either filtered out (short path) or passed
        // to the sink (same single op).
        assert_eq!(report.completed, report.offered);
    }

    #[test]
    fn network_shedding_reduces_queue() {
        let net = unit_network(millis(5));
        let cfg = SimConfig::paper_default();
        let sim = Simulator::new(net, cfg);
        let arrivals = uniform_arrivals(400.0, 10.0);
        // From period 2 on, shed 1 second worth of queued work per period.
        let mut hook = |s: &PeriodSnapshot| {
            if s.k >= 2 {
                Decision::network(1_000_000.0)
            } else {
                Decision::NONE
            }
        };
        let with_shed = sim.run(&arrivals, &mut hook, secs(10));
        let sim2 = Simulator::new(unit_network(millis(5)), SimConfig::paper_default());
        let without = sim2.run(&arrivals, &mut NoShedding, secs(10));
        assert!(with_shed.dropped_network > 0);
        assert!(
            with_shed.periods.last().unwrap().outstanding
                < without.periods.last().unwrap().outstanding
        );
    }

    #[test]
    fn conservation_of_tuples() {
        // offered = admitted + dropped_entry; roots all accounted.
        let net = unit_network(millis(2));
        let sim = Simulator::new(net, SimConfig::paper_default());
        let arrivals = uniform_arrivals(300.0, 10.0);
        let mut hook = |_s: &PeriodSnapshot| Decision::entry(0.3);
        let report = sim.run(&arrivals, &mut hook, secs(10));
        let outstanding_at_end = report.periods.last().unwrap().outstanding;
        assert_eq!(
            report.offered,
            report.dropped_entry + report.completed + outstanding_at_end
                + report.dropped_network
        );
    }

    #[test]
    fn snapshot_rates_reflect_arrivals() {
        let net = unit_network(micros(10));
        let sim = Simulator::new(net, SimConfig::paper_default());
        let arrivals = uniform_arrivals(250.0, 5.0);
        let mut seen = Vec::new();
        let mut hook = |s: &PeriodSnapshot| {
            seen.push(s.fin_rate());
            Decision::NONE
        };
        let _ = sim.run(&arrivals, &mut hook, secs(5));
        assert_eq!(seen.len(), 5);
        for rate in &seen {
            assert!((rate - 250.0).abs() < 2.0, "rate {rate}");
        }
    }

    #[test]
    fn cost_schedule_scales_delay() {
        // Doubling the cost halves capacity: same workload goes from
        // underload to overload.
        let sched = CostSchedule::constant_multiplier(2.0);
        let cfg = SimConfig::paper_default().with_cost_schedule(sched);
        let sim = Simulator::new(unit_network(millis(5)), cfg);
        let arrivals = uniform_arrivals(150.0, 10.0);
        let report = sim.run(&arrivals, &mut NoShedding, secs(10));
        // Effective cost 10 ms → capacity 97/s < 150/s: overload.
        assert!(report.periods.last().unwrap().outstanding > 100);
    }

    #[test]
    fn measured_cost_matches_configured_cost() {
        let sim = Simulator::new(unit_network(millis(5)), SimConfig::paper_default());
        let arrivals = uniform_arrivals(100.0, 10.0);
        let mut costs = Vec::new();
        let mut hook = |s: &PeriodSnapshot| {
            if let Some(c) = s.measured_cost_us {
                costs.push(c);
            }
            Decision::NONE
        };
        let _ = sim.run(&arrivals, &mut hook, secs(10));
        assert!(!costs.is_empty());
        for c in &costs {
            assert!((c - 5000.0).abs() < 100.0, "cost {c}");
        }
    }

    #[test]
    fn node_stats_track_selectivity() {
        let mut b = NetworkBuilder::new();
        let f = b.add("f", millis(1), Filter::value_below(0.3));
        let m = b.add("m", millis(1), Map::identity());
        b.connect(f, m);
        b.entry(f);
        let net = b.build().unwrap();
        let sim = Simulator::new(net, SimConfig::paper_default().with_seed(5));
        let arrivals = uniform_arrivals(100.0, 20.0);
        let report = sim.run(&arrivals, &mut NoShedding, secs(20));
        let f_stat = &report.node_stats[0];
        assert_eq!(f_stat.name, "f");
        assert_eq!(f_stat.processed, 2000);
        let sel = f_stat.observed_selectivity();
        assert!((sel - 0.3).abs() < 0.05, "observed selectivity {sel}");
        // Map is 1:1.
        let m_stat = &report.node_stats[1];
        assert_eq!(m_stat.processed, m_stat.emitted);
    }

    #[test]
    fn node_stats_report_shed_and_cost_ewma() {
        use crate::telemetry::{SharedRecorder, SpanKind};
        let rec = SharedRecorder::with_capacity(32);
        let net = unit_network(millis(5));
        let sim = Simulator::new(net, SimConfig::paper_default()).with_telemetry(rec.clone());
        let arrivals = uniform_arrivals(400.0, 10.0);
        let mut hook = |s: &PeriodSnapshot| {
            if s.k >= 2 {
                Decision::network(500_000.0)
            } else {
                Decision::NONE
            }
        };
        let report = sim.run(&arrivals, &mut hook, secs(10));
        let stat = &report.node_stats[0];
        assert!(stat.shed > 0, "in-network victims attributed to the node");
        assert_eq!(stat.shed, report.dropped_network);
        // Constant 5 ms cost → the EWMA converges to 5000 µs exactly.
        assert!((stat.cost_ewma_us - 5000.0).abs() < 1.0, "{}", stat.cost_ewma_us);
        // The engine timed its shed operations into the shared recorder.
        let span = rec.span_stats(SpanKind::Shedder);
        assert!(span.count >= 7, "one shed per period from k=2, got {}", span.count);
    }

    #[test]
    fn spans_decompose_sampled_sojourn_exactly() {
        // A two-operator chain under 2× overload: sampled roots accrue
        // real queueing, and the virtual-time decomposition must satisfy
        // sojourn = ring_wait + execute *exactly* (sums and counts).
        use crate::spans::Stage;
        let mut b = NetworkBuilder::new();
        let a = b.add("a", millis(2), Map::identity());
        let m = b.add("m", millis(3), Map::scale(2.0));
        b.connect(a, m);
        b.entry(a);
        let registry = crate::spans::SpanRegistry::new();
        let sim = Simulator::new(b.build().unwrap(), SimConfig::paper_default())
            .with_spans(registry.handle("sim"), 8);
        let report = sim.run(&uniform_arrivals(400.0, 5.0), &mut NoShedding, secs(5));
        assert!(report.completed > 0);
        let prof = registry.snapshot();
        let sojourn = &prof.sojourn;
        let ring = &prof.stages[Stage::RingWait.index()];
        let exec = &prof.stages[Stage::Execute.index()];
        assert!(sojourn.count() > 10, "sampled {} sojourns", sojourn.count());
        assert_eq!(sojourn.count(), ring.count());
        assert_eq!(sojourn.count(), exec.count());
        assert_eq!(sojourn.sum(), ring.sum() + exec.sum());
        // Each sampled root ran both operators at least once before its
        // departing invocation, so execute time is strictly positive, and
        // the overloaded queue dominates the sojourn.
        assert!(exec.sum() > 0);
        assert!(ring.sum() > exec.sum());
    }

    #[test]
    fn unused_operator_has_nan_cost_ewma() {
        // Filter passes ~nothing downstream → downstream op may never run.
        let mut b = NetworkBuilder::new();
        let f = b.add("f", millis(1), Filter::value_below(0.0));
        let m = b.add("m", millis(1), Map::identity());
        b.connect(f, m);
        b.entry(f);
        let sim = Simulator::new(b.build().unwrap(), SimConfig::paper_default());
        let report = sim.run(&uniform_arrivals(50.0, 2.0), &mut NoShedding, secs(2));
        assert!(report.node_stats[0].cost_ewma_us.is_finite());
        assert!(report.node_stats[1].cost_ewma_us.is_nan());
        assert_eq!(report.node_stats[1].shed, 0);
    }

    #[test]
    fn empty_arrivals_still_run_periods() {
        let sim = Simulator::new(unit_network(millis(1)), SimConfig::paper_default());
        let report = sim.run(&[], &mut NoShedding, secs(5));
        assert_eq!(report.periods.len(), 5);
        assert_eq!(report.offered, 0);
        assert_eq!(report.loss_ratio(), 0.0);
    }
}
