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
//! * at every control-period boundary the [`InstrumentedHook`] is
//!   consulted and its [`Decision`] applied (entry drop probability
//!   and/or immediate in-network load shedding), and the run's one
//!   [`ControllerHealth`] judges the period.
//!
//! Virtual time makes the paper's 400-second experiments run in
//! milliseconds and deterministically (seeded RNG).

use crate::cost::CostSchedule;
use crate::diagnostics::{ControllerHealth, DiagnosticsConfig};
use crate::hook::{Decision, PeriodLedger, PeriodSnapshot};
use crate::metrics::{MetricsAccumulator, PeriodRecord, RunReport};
use crate::network::{NodeId, QueryNetwork};
use crate::rng::{engine_rng, AtomicShedder, EngineRng};
use crate::telemetry::{control_step, EventSink, InstrumentedHook, SharedRecorder};
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
    /// Delay target `yd`, for violation accounting and health verdicts.
    pub target_delay: SimDuration,
    /// Seed of the run's two random streams: the [`EngineRng`] (tuple
    /// payloads, shed-location selection) and the entry shedder's coins
    /// ([`AtomicShedder`], the wall-clock front door's kernel).
    pub seed: u64,
    /// Time-varying multiplier on every operator's base cost.
    pub cost_schedule: CostSchedule,
}

/// True headroom `H` of the simulated CPU: the fraction of wall time
/// available to query processing (the paper fits `H = 0.97`).
const HEADROOM: f64 = 0.97;

/// Join/grouping keys are drawn uniformly from `0..KEY_SPACE`.
const KEY_SPACE: u64 = 100;

/// Admission gate: maximum number of tuples inside operator queues at
/// once. The backlog beyond this waits in a global FIFO input buffer (the
/// network buffer of §3), which keeps operator trains small and
/// departures arrival-ordered.
const ADMISSION_GATE: u64 = 64;

impl SimConfig {
    /// Paper-default configuration: `T = 1 s`, `H = 0.97`, `yd = 2 s`.
    pub fn paper_default() -> Self {
        Self {
            period: secs(1),
            target_delay: secs(2),
            seed: 0xB0EA11,
            cost_schedule: CostSchedule::constant(),
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
    /// The entry shedder: the wall-clock front door's coin stream, seeded
    /// from [`SimConfig::seed`].
    shedder: AtomicShedder,
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
    /// Optional recorder for per-period traces.
    telemetry: Option<SharedRecorder>,
    /// Latency-truth-plane sampling ([`Self::with_spans`]).
    spans: SpanSampler,
}

/// Latency-truth-plane sampling state: every `u32`-th admitted root is
/// tracked end to end and closed at departure.
#[derive(Default)]
struct SpanSampler {
    /// The sink and the sampling stride; `None` samples nothing.
    sink: Option<(crate::spans::SpanHandle, u32)>,
    /// Admission counter driving every-Nth sojourn sampling.
    admitted: u64,
    /// Per-root accumulated execute wall (µs; `u64::MAX` = unsampled),
    /// indexed in lockstep with the root slab. Admission always rewrites
    /// the slot, so recycled `RootId`s can never inherit a stale sample.
    exec: Vec<u64>,
}

impl SpanSampler {
    /// Marks the freshly admitted `root` as sampled (or not),
    /// unconditionally rewriting its slot so slab recycling never leaks a
    /// stale sample.
    #[inline]
    fn note_admitted(&mut self, root: RootId) {
        let Some((_, every)) = self.sink.as_ref() else {
            return;
        };
        let every = *every as u64;
        self.admitted += 1;
        let idx = root.0 as usize;
        if self.exec.len() <= idx {
            self.exec.resize(idx + 1, u64::MAX);
        }
        self.exec[idx] = if self.admitted.is_multiple_of(every) {
            0
        } else {
            u64::MAX
        };
    }
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
/// boundary: the controller's ledger and the wall time spent executing.
#[derive(Default)]
struct PeriodCounters {
    ledger: PeriodLedger,
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
                    .map(|_| VecDeque::with_capacity(ADMISSION_GATE as usize))
                    .collect()
            })
            .collect();
        let n_nodes = network.len();
        let port_toggle = vec![0; n_nodes];
        let rng = engine_rng(cfg.seed);
        let shedder = AtomicShedder::new(cfg.seed);
        let fanout = Fanout::build(&network);
        let inv_headroom = 1.0 / HEADROOM;
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
            shedder,
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
            spans: SpanSampler::default(),
        }
    }

    /// The underlying network.
    pub fn network(&self) -> &QueryNetwork {
        &self.network
    }

    /// Attaches a telemetry recorder: the engine records one
    /// [`ControlTrace`](crate::telemetry::ControlTrace) per period into it.
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
        self.spans.sink = Some((handle, sample_every.max(1)));
        self
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
        hook: &mut dyn InstrumentedHook,
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
        let mut health = ControllerHealth::new(DiagnosticsConfig::for_simulation(
            std::time::Duration::from_micros(self.cfg.target_delay.as_micros()),
        ));
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
                let l = &pc.ledger;
                let snapshot = PeriodSnapshot::from_ledger(
                    k,
                    next_boundary,
                    period,
                    l,
                    self.roots.live_roots,
                    self.total_queued + self.input_buffer.len() as u64,
                    self.queued_load_us(),
                    (l.completed > 0).then(|| l.cpu_busy_us as f64 / l.completed as f64),
                );
                let (new_decision, trace) =
                    control_step(hook, &snapshot, |t, yd| health.judge(t, yd));
                if let Some(rec) = self.telemetry.as_mut() {
                    rec.record(&trace);
                }
                let alpha_in_force = decision.alpha();
                decision = new_decision;
                metrics.periods.push(PeriodRecord {
                    k,
                    time_s: next_boundary.as_secs_f64(),
                    offered: snapshot.offered,
                    admitted: snapshot.admitted,
                    dropped: snapshot.dropped_entry + snapshot.dropped_network,
                    completed: snapshot.completed,
                    outstanding: snapshot.outstanding,
                    alpha: alpha_in_force,
                    arrival_mean_delay_ms: f64::NAN, // filled in finish()
                    measured_cost_us: snapshot.measured_cost_us.unwrap_or(f64::NAN),
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
                    let dropped = self.shed_load(decision.shed_load_us);
                    pc.ledger.dropped_network += dropped;
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
        while self.total_queued < ADMISSION_GATE {
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
    ///
    /// The due arrivals are a contiguous run of `arrival_times`. One
    /// [`AtomicShedder::shed_batch_each`] pass decides them all and the
    /// survivors are admitted in arrival order, each with its exact
    /// virtual timestamp. A coin's decision depends on its index alone,
    /// so how the clock groups arrivals into passes never moves the
    /// sample path.
    fn admit_due(
        &mut self,
        arrival_times: &[SimTime],
        next_arrival: &mut usize,
        end: SimTime,
        decision: &Decision,
        metrics: &mut MetricsAccumulator,
        pc: &mut PeriodCounters,
    ) {
        let start = *next_arrival;
        let due = arrival_times[start..]
            .iter()
            .take_while(|&&t| t <= self.clock && t < end)
            .count();
        if due == 0 {
            return;
        }
        *next_arrival = start + due;
        let due_times = &arrival_times[start..start + due];
        // Entries are assigned round-robin over *offered* arrivals, so the
        // split between entries is stable under shedding: arrival `j` of
        // this pass belongs to entry `(first + j) % n_entries`.
        let n_entries = self.network.entries().len();
        let first = metrics.offered as usize % n_entries;
        pc.ledger.offered += due as u64;
        metrics.offered += due as u64;
        let alpha = decision.alpha();
        let dropped = self.shedder.shed_batch_each(alpha, due as u64, |j| {
            let t = due_times[j];
            let entry = self.network.entries()[(first + j) % n_entries].index();
            let root = self.roots.admit(t);
            self.spans.note_admitted(root);
            // Bounded key via widening multiply (Lemire) — uniform to
            // within 2⁻⁶⁴·KEY_SPACE, with no 128-bit division per tuple.
            let key = (((self.rng.next_u64() as u128) * (KEY_SPACE as u128)) >> 64) as u64;
            let value = self.rng.gen::<f64>();
            self.buffered_per_entry[entry] += 1;
            self.input_buffer
                .push_back((entry, Tuple::new(root, t, key, value)));
        });
        pc.ledger.dropped_entry += dropped;
        metrics.dropped_entry += dropped;
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
                pc.ledger.cpu_busy_us += work_us;
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
            pc.ledger.completed += 1;
            pc.ledger.delay_sum_ms += (departure - arrival).as_millis_f64();
            if let Some(exec_us) = self.spans.exec.get_mut(root_idx) {
                if *exec_us != u64::MAX {
                    // Close the sampled sojourn with the exact
                    // decomposition: everything not spent executing this
                    // root's tuples was spent waiting in queues.
                    let exec = *exec_us;
                    *exec_us = u64::MAX;
                    let sojourn_us = (departure - arrival).0;
                    if let Some((handle, _)) = self.spans.sink.as_ref() {
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
            if let Some(exec_us) = self.spans.exec.get_mut(root_idx) {
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

    /// `uniform_arrivals` with every instant repeated four times, so one
    /// admission pass sees simultaneous tuples.
    fn bursts_of_four(rate: f64, dur_s: f64) -> Vec<SimTime> {
        uniform_arrivals(rate, dur_s)
            .into_iter()
            .flat_map(|t| [t; 4])
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
        assert!(report.mean_delay_ms() < 12.0, "{}", report.mean_delay_ms());
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
        let early = report.periods[1].arrival_mean_delay_ms;
        let late = report.periods[8].arrival_mean_delay_ms;
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
        let sim = Simulator::new(unit_network(micros(100)), SimConfig::paper_default());
        let mut hook = |_s: &PeriodSnapshot| Decision::entry(0.5);
        let report = sim.run(&bursts_of_four(250.0, 10.0), &mut hook, secs(10));
        let ratio = report.loss_ratio();
        // First period runs unshed (alpha starts at 0): expect ≈ 0.45.
        assert!(ratio > 0.35 && ratio < 0.55, "ratio {ratio}");
    }

    #[test]
    fn batched_ingress_covers_multiple_entries() {
        // Two entry streams fed in one admission pass (bursts of four
        // simultaneous tuples): the round-robin entry split neither
        // changes the drop share nor favours an entry.
        let net = {
            let mut b = NetworkBuilder::new();
            for name in ["m1", "m2"] {
                let m = b.add(name, micros(100), Map::identity());
                b.entry(m);
            }
            b.build().unwrap()
        };
        let sim = Simulator::new(net, SimConfig::paper_default());
        let mut hook = |_s: &PeriodSnapshot| Decision::entry(0.5);
        let report = sim.run(&bursts_of_four(250.0, 10.0), &mut hook, secs(10));
        assert_eq!(report.offered, 10_000);
        let ratio = report.loss_ratio();
        // First period runs unshed (alpha starts at 0): expect ≈ 0.45.
        assert!(ratio > 0.35 && ratio < 0.55, "ratio {ratio}");
        let first = report.node_stats[0].processed as f64;
        let last = report.node_stats[1].processed as f64;
        assert!(
            (first - last).abs() <= 0.1 * first,
            "entries {first} vs {last}"
        );
    }

    #[test]
    fn entry_shedding_replays_the_front_door_coin_stream() {
        // The simulator flips the wall-clock front door's coins: replaying
        // each period's offered count through a fresh `AtomicShedder` of
        // the same seed drops exactly as many tuples. α = 0 and α = 1
        // periods consume no coins on either side.
        const SCHEDULE: [f64; 8] = [0.3, 0.0, 0.9, 0.01, 1.0, 0.5, 0.0, 0.75];
        let cfg = SimConfig::paper_default().with_seed(42);
        let sim = Simulator::new(unit_network(micros(100)), cfg);
        let mut hook =
            |s: &PeriodSnapshot| Decision::entry(SCHEDULE[s.k as usize % SCHEDULE.len()]);
        let report = sim.run(&uniform_arrivals(3000.0, 12.0), &mut hook, secs(12));
        assert_eq!(report.periods.len(), 12);
        let front_door = AtomicShedder::new(42);
        for (k, p) in report.periods.iter().enumerate() {
            // The decision taken at boundary k commands period k + 1.
            let alpha = if k == 0 {
                0.0
            } else {
                SCHEDULE[(k - 1) % SCHEDULE.len()]
            };
            assert_eq!(p.alpha, alpha, "period {k}");
            assert!(p.offered > 2_900, "period {k} offered {}", p.offered);
            assert_eq!(
                p.dropped,
                front_door.shed_batch(alpha, p.offered),
                "period {k}"
            );
        }
    }

    #[test]
    fn nan_alpha_sheds_everything() {
        // A corrupt command fails closed, as at the wall clock's door.
        let sim = Simulator::new(unit_network(micros(100)), SimConfig::paper_default());
        let mut hook = |_s: &PeriodSnapshot| Decision::entry(f64::NAN);
        let report = sim.run(&uniform_arrivals(1000.0, 5.0), &mut hook, secs(5));
        // Period 0 runs before the first command.
        assert_eq!(report.periods[0].dropped, 0);
        for p in &report.periods[1..] {
            assert!(
                p.offered > 0 && p.admitted == 0 && p.dropped == p.offered,
                "{p:?}"
            );
        }
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
        let sched = CostSchedule::from_points(vec![(SimTime::ZERO, 2.0)]);
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
        let sel = f_stat.emitted as f64 / f_stat.processed as f64;
        assert!((sel - 0.3).abs() < 0.05, "observed selectivity {sel}");
        // Map is 1:1.
        let m_stat = &report.node_stats[1];
        assert_eq!(m_stat.processed, m_stat.emitted);
    }

    #[test]
    fn node_stats_report_shed_and_cost_ewma() {
        let net = unit_network(millis(5));
        let sim = Simulator::new(net, SimConfig::paper_default());
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
    }

    #[test]
    fn telemetry_records_one_trace_and_hook_span_per_period() {
        use crate::faults::{FaultKind, FaultPlan, FaultWindow, FaultyHook};
        use crate::hook::ControlHook;
        use crate::telemetry::{ControlState, LoopMode, SharedRecorder, FLAG_STALE_QUEUE};
        struct Instrumented;
        impl ControlHook for Instrumented {
            fn on_period(&mut self, _s: &PeriodSnapshot) -> Decision {
                Decision::entry(0.2)
            }
        }
        impl InstrumentedHook for Instrumented {
            fn control_state(&self) -> Option<ControlState> {
                Some(ControlState {
                    y_hat_s: 1.5,
                    error_s: 0.5,
                    u_tps: 10.0,
                    cost_est_us: 5000.0,
                    mode: LoopMode::Engaged,
                    fault_flags: 0,
                    target_delay_s: 2.0,
                })
            }
        }
        let rec = SharedRecorder::with_capacity(32);
        let sim = Simulator::new(unit_network(millis(5)), SimConfig::paper_default())
            .with_telemetry(rec.clone());
        let plan = FaultPlan::new(1).with(FaultWindow::new(FaultKind::StaleQueue, 3, 5));
        let mut hook = FaultyHook::new(Instrumented, plan);
        let report = sim.run(&uniform_arrivals(300.0, 10.0), &mut hook, secs(10));

        let traces = rec.snapshot();
        assert_eq!(traces.len(), report.periods.len());
        // Every record carries the wall-clock span of its hook call.
        assert!(traces.iter().any(|t| t.hook_ns > 0), "the step times the hook");
        for (t, p) in traces.iter().zip(&report.periods) {
            // The clean engine snapshot and the hook's final decision…
            assert_eq!((t.k, t.offered, t.completed), (p.k, p.offered, p.completed));
            assert_eq!(t.alpha, 0.2);
            // …with the hook's internals and the faults that fired.
            assert_eq!((t.y_hat_s, t.mode), (1.5, LoopMode::Engaged));
            let flags = if (3..5).contains(&t.k) {
                FLAG_STALE_QUEUE
            } else {
                0
            };
            assert_eq!(t.fault_flags, flags, "k={}", t.k);
        }
    }

    #[test]
    fn spans_decompose_sampled_sojourn_exactly() {
        // A two-operator chain under 2× overload: sampled roots accrue
        // real queueing, and the virtual-time decomposition must satisfy
        // sojourn = ring_wait + execute *exactly* (sums and counts). At
        // stride 1 the span plane sees every departure, so its sojourn
        // histogram carries the report's whole delay population.
        use crate::spans::Stage;
        for stride in [8, 1] {
            let mut b = NetworkBuilder::new();
            let a = b.add("a", millis(2), Map::identity());
            let m = b.add("m", millis(3), Map::scale(2.0));
            b.connect(a, m);
            b.entry(a);
            let registry = crate::spans::SpanRegistry::new();
            let sim = Simulator::new(b.build().unwrap(), SimConfig::paper_default())
                .with_spans(registry.handle("sim"), stride);
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
            if stride == 1 {
                assert_eq!(sojourn.count(), report.completed);
                let mean_ms = sojourn.sum() as f64 / 1e6 / report.completed as f64;
                let truth = report.mean_delay_ms();
                assert!((mean_ms - truth).abs() <= 1e-9 * truth, "{mean_ms} vs {truth}");
            }
        }
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
