//! The worker/supervisor machinery of the real-time data plane.
//!
//! Every shard of the engine in [`shard`](crate::shard) runs this
//! worker: a batch drain loop over the shard's ingress
//! ring ([`SpscRing`]) with in-queue shed budget, per-tuple delay
//! accounting against a target, a busy-time counter (the raw material
//! of the per-shard cost model), and panic-catch-and-restart
//! supervision that loses only the tuple being processed.
//!
//! **What `busy` is.** The worker does not estimate a per-tuple cost;
//! it adds each completion's distance from the previous completion to
//! [`WorkerStats::busy_ns`], and the controller divides the period's
//! `Δbusy` by its `Δcompleted` ([`shard`](crate::shard)). The chain of
//! completions restarts at one fresh clock reading after every ring pop
//! and after a supervisor restart, so `busy` *excludes* the time spent
//! parked on an empty ring, the pop itself and a panic's unwind, and
//! *includes* everything that delays a queued tuple while the worker
//! has work: the service span, the stamp/ledger/span bookkeeping
//! between two tuples, shed-budget consumption (charged to the next
//! completion) and any time the host takes the CPU away.
//!
//! The worker pops up to [`WORKER_POP_BATCH`] stamps per ring operation
//! into a [`PendingBatch`] that is owned by the *supervisor* loop, not
//! the worker iteration: the batch cursor advances before each tuple is
//! processed, so a panic mid-batch poisons exactly one tuple and the
//! restarted loop resumes with the remainder of the batch intact.

use crate::ring::{CachePadded, SpscRing};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How a worker burns the per-tuple service time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CostModel {
    /// `thread::sleep` for the service time — yields the CPU, so N
    /// sleeping shards overlap even on one core. The right model when
    /// the "work" stands in for I/O or a downstream call.
    #[default]
    Sleep,
    /// Busy-spin for the service time — holds the CPU, so aggregate
    /// throughput scales with *cores*, not shards. The right model for
    /// CPU-bound operator work and for scaling benchmarks.
    Spin,
}

/// Configuration of one supervised worker.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Nominal CPU work per tuple (before the headroom tax).
    pub cost: Duration,
    /// Headroom factor `H`: the worker inflates the per-tuple service
    /// time by `1/H`.
    pub headroom: f64,
    /// Delay target for violation accounting.
    pub target_delay: Duration,
    /// Fault injection: panic while processing the n-th tuple this
    /// worker sees (1-based, counted locally). The supervisor must catch
    /// it, restart the loop, and lose only that tuple.
    pub panic_on_tuple: Option<u64>,
    /// How the service time is consumed.
    pub cost_model: CostModel,
    /// Pin the worker thread to this CPU (best effort; silently ignored
    /// where unsupported).
    pub pin_core: Option<usize>,
    /// Span recorder for the latency truth plane. When set, the worker
    /// closes sampled sojourns (stamps carrying
    /// [`SAMPLE_BIT`](crate::spans::SAMPLE_BIT)) into `ring_wait` /
    /// `execute` / sojourn histograms at retirement. `None` costs
    /// nothing beyond one branch per tuple.
    pub spans: Option<crate::spans::SpanHandle>,
}

/// Maximum stamps a worker pops from its ring per ring operation.
pub const WORKER_POP_BATCH: usize = 256;

/// A popped-but-not-yet-processed run of stamps. Owned by the supervisor
/// so a panic mid-batch loses only the tuple whose cursor was already
/// advanced; the restarted loop drains the rest.
#[derive(Debug)]
pub struct PendingBatch {
    buf: [u64; WORKER_POP_BATCH],
    next: usize,
    len: usize,
}

impl Default for PendingBatch {
    fn default() -> Self {
        Self::new()
    }
}

impl PendingBatch {
    /// An empty pending batch.
    pub fn new() -> Self {
        Self {
            buf: [0; WORKER_POP_BATCH],
            next: 0,
            len: 0,
        }
    }
}

/// Per-worker counters, shared between the worker thread, the front
/// door that feeds it, and the controller that reads it.
///
/// All fields are relaxed atomics: they are statistics, not
/// synchronization. Each counter has **one writer**, which is what lets
/// the hot ones be plain load + store pairs instead of locked
/// read-modify-writes:
///
/// * the front door writes [`pushed`](Self::pushed), alone on its cache
///   line, so an offer never invalidates the line the worker retires
///   into;
/// * the worker thread writes `processed`, `completed`, `dropped_shed`,
///   the delay ledger and `busy_ns` (its supervisor, on the same
///   thread, writes `worker_panics`);
/// * the controller thread writes the per-shard cost slot,
///   `cost_ewma_bits`;
/// * `shed_budget` is the exception — the controller adds to it and the
///   worker consumes it, so it keeps its atomic RMWs.
///
/// The invariant the stress tests assert is that every tuple counted in
/// `pushed` ends up in exactly one of `completed`, `dropped_shed`, or is
/// the single tuple lost to one of `worker_panics`; at every instant on
/// the worker thread `processed == completed + dropped_shed +
/// worker_panics` (+ 1 while a tuple is being worked).
#[derive(Debug)]
pub struct WorkerStats {
    /// Tuples successfully pushed to this worker's ring (written by the
    /// front door after the ring push lands). Queue length is derived
    /// from it: see [`queue_len`](Self::queue_len).
    pub pushed: CachePadded<AtomicU64>,
    /// Tuples the worker took up for processing (including shed and
    /// panicked ones); advanced *before* the tuple is worked.
    pub processed: AtomicU64,
    /// Tuples fully processed.
    pub completed: AtomicU64,
    /// Tuples dropped by consuming in-queue shed budget.
    pub dropped_shed: AtomicU64,
    /// In-queue shed budget outstanding, tuples (controller adds, worker
    /// consumes).
    pub shed_budget: AtomicU64,
    /// Panics caught and recovered from (one tuple lost each).
    pub worker_panics: AtomicU64,
    /// Σ delay of completed tuples, µs.
    pub delay_sum_us: AtomicU64,
    /// Maximum observed delay, µs.
    pub delay_max_us: AtomicU64,
    /// Completed tuples whose delay exceeded the target.
    pub delayed: AtomicU64,
    /// Σ (delay − target)⁺ over completed tuples, µs.
    pub violation_sum_us: AtomicU64,
    /// This shard's measured per-tuple *work* cost, µs, as f64 bits:
    /// `H·Δbusy/Δcompleted` of the latest control period in which the
    /// shard retired a tuple (`NaN` before the first such period).
    /// Written by the controller, which derives it; the worker never
    /// touches it. The name predates that definition and is kept for
    /// its readers.
    pub cost_ewma_bits: AtomicU64,
    /// Σ completion-to-completion intervals, ns: the time this worker
    /// spent with work in hand (see the module docs for what that
    /// excludes). Zero-cost workers do not measure it.
    pub busy_ns: AtomicU64,
}

impl Default for WorkerStats {
    fn default() -> Self {
        Self::new()
    }
}

/// Adds `by` to a counter only the calling thread writes: a relaxed
/// load + store, not a locked RMW. Returns the new value.
#[inline]
fn bump(counter: &AtomicU64, by: u64) -> u64 {
    let next = counter.load(Ordering::Relaxed).wrapping_add(by);
    counter.store(next, Ordering::Relaxed);
    next
}

impl WorkerStats {
    /// Fresh, all-zero counters (the cost slot starts at `NaN`).
    pub fn new() -> Self {
        Self {
            pushed: CachePadded(AtomicU64::new(0)),
            processed: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            dropped_shed: AtomicU64::new(0),
            shed_budget: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            delay_sum_us: AtomicU64::new(0),
            delay_max_us: AtomicU64::new(0),
            delayed: AtomicU64::new(0),
            violation_sum_us: AtomicU64::new(0),
            cost_ewma_bits: AtomicU64::new(f64::NAN.to_bits()),
            busy_ns: AtomicU64::new(0),
        }
    }

    /// Tuples queued for this worker: `pushed − processed`, i.e. in the
    /// ring or popped and not yet taken up. `processed` is read first
    /// and the difference saturates: the front door counts a push only
    /// after the ring published it, so the worker can momentarily be
    /// ahead of `pushed`, and that must read as an empty queue rather
    /// than wrap.
    pub fn queue_len(&self) -> u64 {
        let processed = self.processed.load(Ordering::Relaxed);
        self.pushed.load(Ordering::Relaxed).saturating_sub(processed)
    }

    /// The shard's measured per-tuple work cost as the controller last
    /// published it, µs (`NaN` before the first control period with a
    /// completion).
    pub fn cost_ewma_us(&self) -> f64 {
        f64::from_bits(self.cost_ewma_bits.load(Ordering::Relaxed))
    }

    /// Mean delay of this worker's completed tuples so far, milliseconds
    /// (0 before any completion). The per-period *delta* mean the
    /// controller consumes is computed from counter deltas instead; this
    /// cumulative form is what reports and per-shard stats need.
    pub fn mean_delay_ms(&self) -> f64 {
        let completed = self.completed.load(Ordering::Relaxed);
        if completed == 0 {
            0.0
        } else {
            self.delay_sum_us.load(Ordering::Relaxed) as f64 / completed as f64 / 1e3
        }
    }

    /// Atomically consumes one unit of shed budget; `true` if a unit was
    /// available.
    fn try_consume_shed_budget(&self) -> bool {
        let mut budget = self.shed_budget.load(Ordering::Relaxed);
        while budget > 0 {
            match self.shed_budget.compare_exchange_weak(
                budget,
                budget - 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(b) => budget = b,
            }
        }
        false
    }

    /// Delay/violation accounting for one completed tuple. Worker thread
    /// only (single-writer counters).
    #[inline]
    fn record_completion(&self, delay_us: u64, target_us: u64) {
        bump(&self.completed, 1);
        bump(&self.delay_sum_us, delay_us);
        if delay_us > self.delay_max_us.load(Ordering::Relaxed) {
            self.delay_max_us.store(delay_us, Ordering::Relaxed);
        }
        if delay_us > target_us {
            bump(&self.delayed, 1);
            bump(&self.violation_sum_us, delay_us - target_us);
        }
    }
}

/// One worker lifetime: drains the pending batch, then the ring, until
/// the ring closes and empties. Extracted so a panicking iteration can
/// be caught and the loop restarted without losing the rest of the
/// popped batch (which lives in `pending`, owned by the supervisor).
pub fn worker_loop(
    stats: &WorkerStats,
    ring: &SpscRing,
    cfg: &WorkerConfig,
    pending: &mut PendingBatch,
) {
    let service = cfg.cost.mul_f64(1.0 / cfg.headroom);
    // Two compiled copies of one loop. Left to the optimiser, whether
    // the zero-cost retire loop comes out on its own or interleaved with
    // the timed path (its index spilled, its flag re-tested per tuple)
    // depends on what the timed path looks like, and the throughput
    // workloads that run the zero-cost loop notice the difference.
    if service.is_zero() {
        drain::<true>(stats, ring, cfg, pending, service)
    } else {
        drain::<false>(stats, ring, cfg, pending, service)
    }
}

/// The body of [`worker_loop`], compiled once per `ZERO_COST`.
fn drain<const ZERO_COST: bool>(
    stats: &WorkerStats,
    ring: &SpscRing,
    cfg: &WorkerConfig,
    pending: &mut PendingBatch,
    service: Duration,
) {
    let target_us = cfg.target_delay.as_micros() as u64;
    // Zero-cost workers (throughput microbenches) take one clock reading
    // per popped batch and none per tuple; with a real service time
    // delay must be measured at each tuple's own completion, and the
    // service loop is reading the clock there anyway.
    let zero_cost = ZERO_COST;
    let epoch = ring.epoch();
    loop {
        if pending.next >= pending.len {
            let n = ring.pop_wait(&mut pending.buf);
            if n == 0 {
                return; // closed and drained
            }
            pending.len = n;
            pending.next = 0;
        }
        let batch_now_ns =
            if zero_cost { Instant::now().duration_since(epoch).as_nanos() as u64 } else { 0 };
        // Busy time chains completion to completion. The chain restarts
        // here — after a pop, or on re-entry after a caught panic — so
        // neither parked time nor an unwind is ever counted as busy.
        let mut prev_done_ns =
            if zero_cost { 0 } else { Instant::now().duration_since(epoch).as_nanos() as u64 };
        while pending.next < pending.len {
            let raw = pending.buf[pending.next];
            // Strip the sojourn-sampling mark before any delay
            // arithmetic; a sampled tuple that gets shed below simply
            // loses its sample (sampling is statistical, not a ledger).
            let sampled = raw & crate::spans::SAMPLE_BIT != 0;
            let stamp = raw & !crate::spans::SAMPLE_BIT;
            // Advance the cursor *before* processing: a panic below
            // loses exactly this tuple.
            pending.next += 1;
            let nth = bump(&stats.processed, 1);
            if cfg.panic_on_tuple == Some(nth) {
                panic!("injected worker fault at tuple {nth}");
            }
            // In-queue shedding: consume budget instead of work.
            if stats.try_consume_shed_budget() {
                bump(&stats.dropped_shed, 1);
                continue;
            }
            if zero_cost {
                let delay_us = batch_now_ns.saturating_sub(stamp) / 1_000;
                stats.record_completion(delay_us, target_us);
                if sampled {
                    if let Some(spans) = &cfg.spans {
                        let sojourn_ns = batch_now_ns.saturating_sub(stamp);
                        spans.record(crate::spans::Stage::RingWait, sojourn_ns);
                        spans.record(crate::spans::Stage::Execute, 0);
                        spans.record_sojourn(sojourn_ns);
                    }
                }
                continue;
            }
            // `t0` is a fresh reading, not `prev_done`: the bookkeeping
            // between two tuples is overhead on top of the service time,
            // not a part of it. `done` is the reading that ended the
            // service, so retirement costs no further clock read.
            let t0 = Instant::now();
            let done = match cfg.cost_model {
                CostModel::Sleep => {
                    std::thread::sleep(service);
                    Instant::now()
                }
                CostModel::Spin => loop {
                    let now = Instant::now();
                    if now.duration_since(t0) >= service {
                        break now;
                    }
                    std::hint::spin_loop();
                },
            };
            let done_ns = done.duration_since(epoch).as_nanos() as u64;
            bump(&stats.busy_ns, done_ns.saturating_sub(prev_done_ns));
            prev_done_ns = done_ns;
            let delay_us = done_ns.saturating_sub(stamp) / 1_000;
            stats.record_completion(delay_us, target_us);
            if sampled {
                if let Some(spans) = &cfg.spans {
                    // Close the sampled sojourn: stamp → batch start is
                    // ring residency, batch start → retirement is
                    // execution, and their concatenation is the
                    // end-to-end sojourn.
                    let t0_ns = t0.duration_since(epoch).as_nanos() as u64;
                    spans.record(crate::spans::Stage::RingWait, t0_ns.saturating_sub(stamp));
                    spans.record(crate::spans::Stage::Execute, done_ns.saturating_sub(t0_ns));
                    spans.record_sojourn(done_ns.saturating_sub(stamp));
                }
            }
        }
    }
}

/// Spawns a worker thread under panic supervision: a panic inside an
/// iteration (e.g. an injected fault) is caught, counted in
/// [`WorkerStats::worker_panics`], and the loop restarted against the
/// same ring and the same pending batch — only the tuple being processed
/// is lost. A clean return means the ring closed and drained: shutdown.
pub fn spawn_supervised(
    stats: Arc<WorkerStats>,
    ring: Arc<SpscRing>,
    cfg: WorkerConfig,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        if let Some(core) = cfg.pin_core {
            let _ = crate::affinity::pin_current_thread(core);
        }
        let mut pending = PendingBatch::new();
        loop {
            match catch_unwind(AssertUnwindSafe(|| {
                worker_loop(&stats, &ring, &cfg, &mut pending)
            })) {
                Ok(()) => break,
                Err(_) => {
                    stats.worker_panics.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::Push;

    fn cfg() -> WorkerConfig {
        WorkerConfig {
            cost: Duration::from_micros(100),
            headroom: 1.0,
            target_delay: Duration::from_millis(50),
            panic_on_tuple: None,
            cost_model: CostModel::Sleep,
            pin_core: None,
            spans: None,
        }
    }

    fn feed(ring: &SpscRing, stats: &WorkerStats, n: usize) {
        assert_eq!(ring.push_repeat(ring.stamp_now(), n), Push::Pushed(n));
        stats.pushed.fetch_add(n as u64, Ordering::Relaxed);
    }

    #[test]
    fn drains_and_completes() {
        let stats = Arc::new(WorkerStats::new());
        let ring = Arc::new(SpscRing::new(64));
        let handle = spawn_supervised(Arc::clone(&stats), Arc::clone(&ring), cfg());
        feed(&ring, &stats, 10);
        ring.close();
        handle.join().unwrap();
        assert_eq!(stats.completed.load(Ordering::Relaxed), 10);
        assert_eq!(stats.queue_len(), 0);
        // The worker only accumulates busy time; the cost slot belongs
        // to the controller, and there is none here.
        assert!(stats.busy_ns.load(Ordering::Relaxed) >= 10 * 100_000);
        assert!(stats.cost_ewma_us().is_nan());
    }

    #[test]
    fn worker_stats_fit_three_cache_lines() {
        // `pushed` alone on its line, the worker's counters behind it:
        // the zero-cost workloads are sensitive to this layout.
        assert_eq!(std::mem::size_of::<WorkerStats>(), 192);
    }

    #[test]
    fn parked_time_is_not_busy() {
        let stats = Arc::new(WorkerStats::new());
        let ring = Arc::new(SpscRing::new(64));
        let t0 = Instant::now();
        let handle = spawn_supervised(Arc::clone(&stats), Arc::clone(&ring), cfg());
        feed(&ring, &stats, 10);
        while stats.completed.load(Ordering::Relaxed) < 10 {
            std::thread::yield_now();
        }
        // The worker now sits on an empty ring for 50 ms.
        std::thread::sleep(Duration::from_millis(50));
        feed(&ring, &stats, 10);
        ring.close();
        handle.join().unwrap();
        let wall_ns = t0.elapsed().as_nanos() as u64;
        assert_eq!(stats.completed.load(Ordering::Relaxed), 20);
        // 20 sleeps of 100 µs are busy, however long the host makes
        // them; the 50 ms in between are not (5 ms of slack for the
        // worker's last pop before it parked).
        let busy_ns = stats.busy_ns.load(Ordering::Relaxed);
        assert!(busy_ns >= 20 * 100_000, "{busy_ns}");
        assert!(busy_ns + 45_000_000 <= wall_ns, "{busy_ns} of {wall_ns}");
    }

    #[test]
    fn busy_covers_the_whole_saturated_drain() {
        let stats = Arc::new(WorkerStats::new());
        let ring = Arc::new(SpscRing::new(2048));
        feed(&ring, &stats, 2_000);
        ring.close();
        let mut c = cfg();
        c.cost_model = CostModel::Spin;
        c.cost = Duration::from_micros(50);
        let t0 = Instant::now();
        spawn_supervised(Arc::clone(&stats), Arc::clone(&ring), c)
            .join()
            .unwrap();
        let wall_ns = t0.elapsed().as_nanos() as u64;
        assert_eq!(stats.completed.load(Ordering::Relaxed), 2_000);
        // A worker that never waits is busy from its first pop to its
        // last retirement — bookkeeping between tuples and time the host
        // took the CPU away included, since both delay the queue.
        let busy_ns = stats.busy_ns.load(Ordering::Relaxed);
        assert!(busy_ns <= wall_ns, "{busy_ns} > {wall_ns}");
        assert!(busy_ns >= wall_ns / 100 * 95, "{busy_ns} of {wall_ns}");
        assert!(busy_ns >= 2_000 * 50_000, "{busy_ns}");
    }

    #[test]
    fn sampled_stamps_close_spans_at_retirement() {
        use crate::spans::{SpanRegistry, Stage, SAMPLE_BIT};
        let reg = SpanRegistry::new();
        let stats = Arc::new(WorkerStats::new());
        let ring = Arc::new(SpscRing::new(64));
        let mut c = cfg();
        c.spans = Some(reg.handle("0"));
        let handle = spawn_supervised(Arc::clone(&stats), Arc::clone(&ring), c);
        // 7 plain tuples + 1 sampled (bit 63 on the stamp).
        assert_eq!(ring.push_repeat(ring.stamp_now(), 7), Push::Pushed(7));
        assert_eq!(ring.push(ring.stamp_now() | SAMPLE_BIT), Push::Pushed(1));
        stats.pushed.fetch_add(8, Ordering::Relaxed);
        ring.close();
        handle.join().unwrap();
        assert_eq!(stats.completed.load(Ordering::Relaxed), 8);
        let snap = reg.snapshot();
        assert_eq!(snap.sojourn.count(), 1);
        assert_eq!(snap.stages[Stage::RingWait.index()].count(), 1);
        assert_eq!(snap.stages[Stage::Execute.index()].count(), 1);
        // The sampled sojourn is sane: at least the ~100 µs service
        // time, and the delay ledger was not corrupted by the mark bit
        // (delays stay far below a second).
        assert!(snap.sojourn.max() >= 50_000, "{}", snap.sojourn.max());
        assert!(stats.delay_max_us.load(Ordering::Relaxed) < 1_000_000);
    }

    #[test]
    fn panic_restart_loses_exactly_one_tuple() {
        let stats = Arc::new(WorkerStats::new());
        let ring = Arc::new(SpscRing::new(64));
        let mut c = cfg();
        c.panic_on_tuple = Some(3);
        let handle = spawn_supervised(Arc::clone(&stats), Arc::clone(&ring), c);
        feed(&ring, &stats, 8);
        ring.close();
        handle.join().unwrap();
        assert_eq!(stats.worker_panics.load(Ordering::Relaxed), 1);
        assert_eq!(stats.completed.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn panic_mid_batch_preserves_rest_of_popped_batch() {
        // All 10 tuples are pushed in one batch (and popped in one batch):
        // two consume shed budget, and the panic on tuple 3 must not lose
        // the batch remainder.
        let stats = Arc::new(WorkerStats::new());
        stats.shed_budget.store(2, Ordering::Relaxed);
        let ring = Arc::new(SpscRing::new(64));
        feed(&ring, &stats, 10);
        ring.close();
        let mut c = cfg();
        c.panic_on_tuple = Some(3);
        let t0 = Instant::now();
        let handle = spawn_supervised(Arc::clone(&stats), Arc::clone(&ring), c);
        handle.join().unwrap();
        let wall_ns = t0.elapsed().as_nanos() as u64;
        assert_eq!(stats.worker_panics.load(Ordering::Relaxed), 1);
        assert_eq!(stats.completed.load(Ordering::Relaxed), 7);
        assert_eq!(stats.queue_len(), 0);
        // All seven completions come after the restart (tuples 1 and 2
        // were shed, 3 panicked): busy time kept growing there, and the
        // unwind was counted at most once — in fact not at all, the
        // chain restarts on re-entry.
        let busy_ns = stats.busy_ns.load(Ordering::Relaxed);
        assert!(busy_ns >= 7 * 100_000, "{busy_ns}");
        assert!(busy_ns <= wall_ns, "{busy_ns} > {wall_ns}");
        // The single-writer ledger lost nothing across the unwind:
        // completed + dropped_shed + worker_panics == processed.
        assert_eq!(stats.dropped_shed.load(Ordering::Relaxed), 2);
        assert_eq!(stats.processed.load(Ordering::Relaxed), 7 + 2 + 1);
    }

    #[test]
    fn restarted_worker_is_still_rung_by_a_full_batch() {
        // The panic supervisor restarts `worker_loop` on the worker's own
        // thread, so the ring's registered consumer handle stays valid:
        // a full batch pushed at the parked, restarted worker must ring
        // it (and the same-thread debug assertion must not fire, which
        // would show up as further panics).
        let stats = Arc::new(WorkerStats::new());
        let ring = Arc::new(SpscRing::new(4 * WORKER_POP_BATCH));
        let mut c = cfg();
        c.cost = Duration::ZERO;
        c.panic_on_tuple = Some(3);
        let handle = spawn_supervised(Arc::clone(&stats), Arc::clone(&ring), c);
        let drained = |stats: &WorkerStats| {
            while stats.queue_len() != 0 {
                std::thread::yield_now();
            }
        };
        feed(&ring, &stats, 8);
        drained(&stats);
        assert_eq!(stats.worker_panics.load(Ordering::Relaxed), 1);
        // A batch that lands in the instant the worker is between two
        // parks finds no one waiting; the next one cannot miss it too.
        let mut fed = 8;
        for _ in 0..100 {
            feed(&ring, &stats, WORKER_POP_BATCH);
            fed += WORKER_POP_BATCH as u64;
            drained(&stats);
            if ring.doorbells() > 0 {
                break;
            }
        }
        assert!(ring.doorbells() > 0, "no doorbell in 100 full batches");
        ring.close();
        handle.join().unwrap();
        assert_eq!(stats.worker_panics.load(Ordering::Relaxed), 1);
        assert_eq!(stats.completed.load(Ordering::Relaxed), fed - 1);
    }

    #[test]
    fn queue_len_saturates_when_worker_runs_ahead_of_pushed() {
        // The front door counts a push only after the ring published it,
        // so a descheduled offerer lets the worker retire tuples `pushed`
        // does not yet include. Replayed deterministically: the worker
        // drains 8 tuples while `pushed` still reads 0.
        let stats = Arc::new(WorkerStats::new());
        let ring = Arc::new(SpscRing::new(64));
        assert_eq!(ring.push_repeat(ring.stamp_now(), 8), Push::Pushed(8));
        ring.close();
        spawn_supervised(Arc::clone(&stats), Arc::clone(&ring), cfg())
            .join()
            .unwrap();
        assert_eq!(stats.processed.load(Ordering::Relaxed), 8);
        assert_eq!(stats.queue_len(), 0, "must read empty, never wrap");
        // The late front-door bump then settles the books.
        stats.pushed.fetch_add(8, Ordering::Relaxed);
        assert_eq!(stats.queue_len(), 0);
    }

    #[test]
    fn shed_budget_consumes_instead_of_working() {
        let stats = Arc::new(WorkerStats::new());
        stats.shed_budget.store(5, Ordering::Relaxed);
        let ring = Arc::new(SpscRing::new(64));
        let handle = spawn_supervised(Arc::clone(&stats), Arc::clone(&ring), cfg());
        feed(&ring, &stats, 5);
        ring.close();
        handle.join().unwrap();
        assert_eq!(stats.dropped_shed.load(Ordering::Relaxed), 5);
        assert_eq!(stats.completed.load(Ordering::Relaxed), 0);
        assert_eq!(stats.shed_budget.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn spin_model_burns_wall_clock() {
        let stats = Arc::new(WorkerStats::new());
        let ring = Arc::new(SpscRing::new(64));
        let mut c = cfg();
        c.cost_model = CostModel::Spin;
        c.cost = Duration::from_micros(500);
        let handle = spawn_supervised(Arc::clone(&stats), Arc::clone(&ring), c);
        let t0 = Instant::now();
        feed(&ring, &stats, 10);
        ring.close();
        handle.join().unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(5));
        assert_eq!(stats.completed.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn zero_cost_fast_path_still_accounts_delay() {
        let stats = Arc::new(WorkerStats::new());
        let ring = Arc::new(SpscRing::new(64));
        let mut c = cfg();
        c.cost = Duration::ZERO;
        // Back-date the stamps by ~5 ms so delays are visibly nonzero.
        let stamp = ring.stamp_now();
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(ring.push_repeat(stamp, 10), Push::Pushed(10));
        stats.pushed.fetch_add(10, Ordering::Relaxed);
        ring.close();
        let handle = spawn_supervised(Arc::clone(&stats), Arc::clone(&ring), c);
        handle.join().unwrap();
        assert_eq!(stats.completed.load(Ordering::Relaxed), 10);
        assert!(stats.delay_sum_us.load(Ordering::Relaxed) >= 10 * 4_000);
        // No cost sample is taken on the zero-cost path.
        assert!(stats.cost_ewma_us().is_nan());
    }
}
