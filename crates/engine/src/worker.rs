//! The worker/supervisor machinery of the real-time data plane.
//!
//! Every shard of the engine in [`shard`](crate::shard) runs this
//! worker: a batch drain loop over the shard's ingress
//! ring ([`SpscRing`]) with in-queue shed budget, delay accounting
//! against a target, a busy-time counter (the raw material
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
//! The worker pops up to [`WORKER_POP_BATCH`] run words per ring
//! operation (a run is up to 256 tuples that share an arrival stamp, see
//! [`ring`](crate::ring)) into a [`PendingBatch`] that is owned by the
//! *supervisor* loop, not the worker iteration. Its cursor is a (run,
//! offset) pair and advances before the tuples it covers are processed:
//! a zero-cost worker takes up the rest of a run at once and retires it
//! in O(1), a timed one takes one tuple at a time, and either stops short
//! of an injected panic's tuple and then takes it alone, so a panic
//! mid-batch poisons exactly one tuple and the restarted loop resumes
//! with the remainder of the batch intact.

use crate::ring::{run_len, run_stamp, sojourn_ns, SpscRing};
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

/// Configuration of one supervised worker. Not `Clone`: it owns the
/// worker's [`SpanHandle`](crate::spans::SpanHandle), which has one
/// writer.
#[derive(Debug)]
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
    /// closes sampled sojourns (runs carrying
    /// [`SAMPLE_BIT`](crate::spans::SAMPLE_BIT)) into `ring_wait` /
    /// `execute` / sojourn histograms at retirement. `None` costs
    /// nothing beyond one branch per retirement.
    pub spans: Option<crate::spans::SpanHandle>,
}

/// Maximum run words a worker pops from its ring per ring operation.
pub const WORKER_POP_BATCH: usize = 256;

/// Popped-but-not-yet-processed run words. Owned by the supervisor so a
/// panic mid-batch loses only the tuple whose cursor was already
/// advanced; the restarted loop drains the rest.
#[derive(Debug)]
pub struct PendingBatch {
    buf: [u64; WORKER_POP_BATCH],
    /// The run the cursor is in.
    next: usize,
    /// Tuples of run `next` already taken up.
    offset: usize,
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
            offset: 0,
            len: 0,
        }
    }
}

/// Per-worker counters, shared between the worker thread and the
/// controller that reads them. The front door writes none of them: what
/// it pushed is the ring's reservation counter ([`SpscRing::pushed`]).
///
/// All fields are relaxed atomics: they are statistics, not
/// synchronization. Each counter has **one writer**, which is what lets
/// the hot ones be plain load + store pairs instead of locked
/// read-modify-writes:
///
/// * the worker thread writes `processed`, `completed`, `dropped_shed`,
///   the delay ledger and `busy_ns` (its supervisor, on the same
///   thread, writes `worker_panics`);
/// * the controller thread writes the per-shard cost slot,
///   `cost_ewma_bits`;
/// * `shed_budget` is the exception — the controller adds to it and the
///   worker consumes it, so it keeps its atomic RMWs.
///
/// The invariant the stress tests assert is that every tuple the ring
/// counts as pushed ends up in exactly one of `completed`,
/// `dropped_shed`, or is the single tuple lost to one of
/// `worker_panics`; at every instant on the worker thread `processed ==
/// completed + dropped_shed + worker_panics` (+ 1 while a tuple is being
/// worked).
///
/// Aligned to a cache line so no other allocation shares the lines the
/// worker retires into.
#[derive(Debug)]
#[repr(align(64))]
pub struct WorkerStats {
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
pub(crate) fn bump(counter: &AtomicU64, by: u64) -> u64 {
    let next = counter.load(Ordering::Relaxed).wrapping_add(by);
    counter.store(next, Ordering::Relaxed);
    next
}

impl WorkerStats {
    /// Fresh, all-zero counters (the cost slot starts at `NaN`).
    pub fn new() -> Self {
        Self {
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

    /// Tuples queued for this worker, whose ring is `ring`:
    /// [`SpscRing::pushed`] `− processed`, i.e. reserved in the ring or
    /// popped and not yet taken up. Both count tuples, not the ring's run
    /// words: a run moves `processed` by the tuples taken up of it, so a
    /// popped run still counts what is left of it. A zero-cost worker
    /// takes up a whole run at once, and its `q` can step down by up to
    /// 256 at a time. The ring counts a push at its reservation, before
    /// the worker can pop it, so `processed` never passes it; it is read
    /// first all the same, and the difference saturates, so a relaxed
    /// reading cannot wrap.
    ///
    /// While the worker is parked on an empty ring (the shard is under
    /// capacity), this also counts what the ring's bell-or-timeout
    /// hand-off leaves there: at most `min(bell − 1, λ·(PARK + slack))`
    /// tuples, with `bell` = [`SpscRing::bell`] (a quarter of the ring),
    /// λ the shard's survivor rate and `PARK` + slack ≈ 0.25 ms, each
    /// popped when the park times out. A worker with a backlog never
    /// parks, so under overload the count is exactly the backlog.
    pub fn queue_len(&self, ring: &SpscRing) -> u64 {
        let processed = self.processed.load(Ordering::Relaxed);
        ring.pushed().saturating_sub(processed)
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

    /// Atomically consumes one unit of shed budget for each of up to `n`
    /// tuples; returns how many units were available (`≤ n`).
    fn take_shed_budget(&self, n: u64) -> u64 {
        let mut budget = self.shed_budget.load(Ordering::Relaxed);
        while budget > 0 {
            let take = budget.min(n);
            match self.shed_budget.compare_exchange_weak(
                budget,
                budget - take,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return take,
                Err(b) => budget = b,
            }
        }
        0
    }

    /// Delay/violation accounting for `n` completed tuples of one delay.
    /// Worker thread only (single-writer counters).
    #[inline]
    fn record_completions(&self, n: u64, delay_us: u64, target_us: u64) {
        bump(&self.completed, n);
        bump(&self.delay_sum_us, n * delay_us);
        if delay_us > self.delay_max_us.load(Ordering::Relaxed) {
            self.delay_max_us.store(delay_us, Ordering::Relaxed);
        }
        if delay_us > target_us {
            bump(&self.delayed, n);
            bump(&self.violation_sum_us, n * (delay_us - target_us));
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
    // per popped batch and none per run; with a real service time delay
    // must be measured at each tuple's own completion, and the service
    // loop is reading the clock there anyway.
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
            pending.offset = 0;
        }
        let batch_now_ns = if zero_cost { ring.stamp_now() } else { 0 };
        // Busy time chains completion to completion. The chain restarts
        // here — after a pop, or on re-entry after a caught panic — so
        // neither parked time nor an unwind is ever counted as busy.
        let mut prev_done_ns =
            if zero_cost { 0 } else { Instant::now().duration_since(epoch).as_nanos() as u64 };
        while pending.next < pending.len {
            let word = pending.buf[pending.next];
            let sampled = word & crate::spans::SAMPLE_BIT != 0;
            let stamp = run_stamp(word);
            let len = run_len(word);
            // Take up the rest of the run at once, or one tuple of it —
            // and stop short of an injected panic's tuple, then take it
            // alone, so the panic below loses exactly that tuple.
            let before = stats.processed.load(Ordering::Relaxed);
            let mut take = if zero_cost { (len - pending.offset) as u64 } else { 1 };
            if let Some(p) = cfg.panic_on_tuple {
                if p > before && p - before <= take {
                    take = (p - before - 1).max(1);
                }
            }
            // Advance the cursor *before* processing.
            pending.offset += take as usize;
            if pending.offset == len {
                pending.next += 1;
                pending.offset = 0;
            }
            let nth = bump(&stats.processed, take);
            if cfg.panic_on_tuple == Some(nth) {
                panic!("injected worker fault at tuple {nth}");
            }
            // In-queue shedding: consume budget instead of work, a unit
            // per tuple; a sampled tuple that is shed loses its sample
            // (sampling is statistical, not a ledger).
            let shed = stats.take_shed_budget(take);
            if shed > 0 {
                bump(&stats.dropped_shed, shed);
            }
            let done = take - shed;
            if done == 0 {
                continue;
            }
            if zero_cost {
                let sojourn = sojourn_ns(batch_now_ns, stamp);
                stats.record_completions(done, sojourn / 1_000, target_us);
                if sampled {
                    if let Some(spans) = &cfg.spans {
                        spans.record_n(crate::spans::Stage::RingWait, sojourn, done);
                        spans.record_n(crate::spans::Stage::Execute, 0, done);
                        spans.record_sojourn_n(sojourn, done);
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
            let sojourn = sojourn_ns(done_ns, stamp);
            stats.record_completions(1, sojourn / 1_000, target_us);
            if sampled {
                if let Some(spans) = &cfg.spans {
                    // Close the sampled sojourn: stamp → service start is
                    // ring residency, service start → retirement is
                    // execution, and their concatenation is the
                    // end-to-end sojourn.
                    let t0_ns = t0.duration_since(epoch).as_nanos() as u64;
                    spans.record(crate::spans::Stage::RingWait, sojourn_ns(t0_ns, stamp));
                    spans.record(crate::spans::Stage::Execute, done_ns.saturating_sub(t0_ns));
                    spans.record_sojourn(sojourn);
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
/// The thread is named `name`; Linux keeps 15 bytes of it.
pub fn spawn_supervised(
    stats: Arc<WorkerStats>,
    ring: Arc<SpscRing>,
    cfg: WorkerConfig,
    name: String,
) -> JoinHandle<()> {
    let spawned = std::thread::Builder::new().name(name).spawn(move || {
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
    });
    spawned.expect("spawn shard worker")
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

    fn feed(ring: &SpscRing, n: usize) {
        assert_eq!(ring.push_repeat(ring.stamp_now(), n), Push::Pushed(n));
    }

    #[test]
    fn drains_and_completes() {
        let stats = Arc::new(WorkerStats::new());
        let ring = Arc::new(SpscRing::new(64));
        let handle = spawn_supervised(Arc::clone(&stats), Arc::clone(&ring), cfg(), "shard-0".into());
        feed(&ring, 10);
        ring.close();
        handle.join().unwrap();
        assert_eq!(stats.completed.load(Ordering::Relaxed), 10);
        assert_eq!(stats.queue_len(&ring), 0);
        // The worker only accumulates busy time; the cost slot belongs
        // to the controller, and there is none here.
        assert!(stats.busy_ns.load(Ordering::Relaxed) >= 10 * 100_000);
        assert!(stats.cost_ewma_us().is_nan());
    }

    #[test]
    fn worker_stats_fit_two_cache_lines() {
        // The worker's counters on lines of their own: the zero-cost
        // workloads are sensitive to this layout.
        assert_eq!(std::mem::size_of::<WorkerStats>(), 128);
        assert_eq!(std::mem::align_of::<WorkerStats>(), 64);
    }

    #[test]
    fn parked_time_is_not_busy() {
        let stats = Arc::new(WorkerStats::new());
        let ring = Arc::new(SpscRing::new(64));
        let t0 = Instant::now();
        let handle = spawn_supervised(Arc::clone(&stats), Arc::clone(&ring), cfg(), "shard-0".into());
        feed(&ring, 10);
        while stats.completed.load(Ordering::Relaxed) < 10 {
            std::thread::yield_now();
        }
        // The worker now sits on an empty ring for 50 ms.
        std::thread::sleep(Duration::from_millis(50));
        feed(&ring, 10);
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
        feed(&ring, 2_000);
        ring.close();
        let mut c = cfg();
        c.cost_model = CostModel::Spin;
        c.cost = Duration::from_micros(50);
        let t0 = Instant::now();
        spawn_supervised(Arc::clone(&stats), Arc::clone(&ring), c, "shard-0".into())
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
        let handle = spawn_supervised(Arc::clone(&stats), Arc::clone(&ring), c, "shard-0".into());
        // 7 plain tuples + 1 sampled (bit 63 on the stamp).
        assert_eq!(ring.push_repeat(ring.stamp_now(), 7), Push::Pushed(7));
        assert_eq!(ring.push(ring.stamp_now() | SAMPLE_BIT), Push::Pushed(1));
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
        let handle = spawn_supervised(Arc::clone(&stats), Arc::clone(&ring), c, "shard-0".into());
        feed(&ring, 8);
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
        feed(&ring, 10);
        ring.close();
        let mut c = cfg();
        c.panic_on_tuple = Some(3);
        let t0 = Instant::now();
        let handle = spawn_supervised(Arc::clone(&stats), Arc::clone(&ring), c, "shard-0".into());
        handle.join().unwrap();
        let wall_ns = t0.elapsed().as_nanos() as u64;
        assert_eq!(stats.worker_panics.load(Ordering::Relaxed), 1);
        assert_eq!(stats.completed.load(Ordering::Relaxed), 7);
        assert_eq!(stats.queue_len(&ring), 0);
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
        // a bell's backlog (a quarter of this ring, one pop batch) pushed
        // at the parked, restarted worker must ring it (and the
        // same-thread debug assertion must not fire, which would show up
        // as further panics).
        let stats = Arc::new(WorkerStats::new());
        let ring = Arc::new(SpscRing::new(4 * WORKER_POP_BATCH));
        let mut c = cfg();
        c.cost = Duration::ZERO;
        c.panic_on_tuple = Some(3);
        let handle = spawn_supervised(Arc::clone(&stats), Arc::clone(&ring), c, "shard-0".into());
        let drained = |stats: &WorkerStats| {
            while stats.queue_len(&ring) != 0 {
                std::thread::yield_now();
            }
        };
        feed(&ring, 8);
        drained(&stats);
        assert_eq!(stats.worker_panics.load(Ordering::Relaxed), 1);
        // A batch that lands in the instant the worker is between two
        // parks finds no one waiting; the next one cannot miss it too.
        let mut fed = 8;
        for _ in 0..100 {
            feed(&ring, WORKER_POP_BATCH);
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
    fn a_parked_backlog_below_the_bell_rings_nothing_and_counts_as_queue() {
        // The test thread plays the parked worker, without a clock: a
        // backlog one short of the bell waits in the ring for the park's
        // timeout, and `queue_len` (the controller's qᵢ) reads all of it.
        let stats = WorkerStats::new();
        let ring = SpscRing::new(4 * WORKER_POP_BATCH);
        let below = ring.bell() - 1;
        ring.park_here();
        feed(&ring, below);
        assert_eq!(ring.doorbells(), 0);
        assert_eq!(stats.queue_len(&ring), below as u64);
        feed(&ring, 1);
        assert_eq!(ring.doorbells(), 1, "the push at the bell rings");
        assert_eq!(stats.queue_len(&ring), ring.bell() as u64);
    }

    #[test]
    fn queue_len_saturates_when_worker_runs_ahead_of_pushed() {
        // The ring counts a push at its reservation, so a worker that
        // drained everything reads an empty queue with no late bump to
        // wait for; and a `processed` read newer than the ring's count
        // (relaxed loads of two words) reads empty too, never wraps.
        let stats = Arc::new(WorkerStats::new());
        let ring = Arc::new(SpscRing::new(64));
        assert_eq!(ring.push_repeat(ring.stamp_now(), 8), Push::Pushed(8));
        assert_eq!(stats.queue_len(&ring), 8);
        ring.close();
        spawn_supervised(Arc::clone(&stats), Arc::clone(&ring), cfg(), "shard-0".into())
            .join()
            .unwrap();
        assert_eq!(stats.processed.load(Ordering::Relaxed), 8);
        assert_eq!(ring.pushed(), 8);
        assert_eq!(stats.queue_len(&ring), 0);
        stats.processed.fetch_add(1, Ordering::Relaxed);
        assert_eq!(stats.queue_len(&ring), 0, "must read empty, never wrap");
    }

    #[test]
    fn shed_budget_consumes_instead_of_working() {
        let stats = Arc::new(WorkerStats::new());
        stats.shed_budget.store(5, Ordering::Relaxed);
        let ring = Arc::new(SpscRing::new(64));
        let handle = spawn_supervised(Arc::clone(&stats), Arc::clone(&ring), cfg(), "shard-0".into());
        feed(&ring, 5);
        ring.close();
        handle.join().unwrap();
        assert_eq!(stats.dropped_shed.load(Ordering::Relaxed), 5);
        assert_eq!(stats.completed.load(Ordering::Relaxed), 0);
        assert_eq!(stats.shed_budget.load(Ordering::Relaxed), 0);
    }

    /// A zero-cost worker fed `runs` pushes of `n` tuples each (one run
    /// per push up to 256) with `budget` in-queue shed budget, until the
    /// ring drains; returns the worker's counters and its ring.
    fn drain_zero_cost(
        runs: &[usize],
        budget: u64,
        panic_on_tuple: Option<u64>,
    ) -> (WorkerStats, SpscRing) {
        let stats = Arc::new(WorkerStats::new());
        stats.shed_budget.store(budget, Ordering::Relaxed);
        let ring = Arc::new(SpscRing::new(4096));
        for &n in runs {
            feed(&ring, n);
        }
        ring.close();
        let mut c = cfg();
        c.cost = Duration::ZERO;
        c.panic_on_tuple = panic_on_tuple;
        spawn_supervised(Arc::clone(&stats), Arc::clone(&ring), c, "shard-0".into())
            .join()
            .unwrap();
        (Arc::into_inner(stats).unwrap(), Arc::into_inner(ring).unwrap())
    }

    #[test]
    fn a_panic_inside_a_run_loses_one_tuple_and_retires_the_rest() {
        // One 256-tuple run, the 100th poisoned: 99 retired at once, the
        // 100th lost, and the restarted loop retires the other 156 from
        // the run's offset.
        let (stats, ring) = drain_zero_cost(&[256], 0, Some(100));
        let read = |c: &AtomicU64| c.load(Ordering::Relaxed);
        assert_eq!(read(&stats.worker_panics), 1);
        assert_eq!(read(&stats.completed), 255);
        assert_eq!(read(&stats.processed), 256);
        assert_eq!(stats.queue_len(&ring), 0);
        // The first and the last tuple of a run are one tuple each too.
        for poisoned in [1, 256, 257] {
            let (stats, _) = drain_zero_cost(&[256, 256], 0, Some(poisoned));
            assert_eq!(read(&stats.worker_panics), 1, "tuple {poisoned}");
            assert_eq!(read(&stats.completed), 511, "tuple {poisoned}");
        }
    }

    #[test]
    fn shed_budget_is_consumed_tuple_by_tuple_mid_run() {
        let read = |c: &AtomicU64| c.load(Ordering::Relaxed);
        // A budget that ends inside the second run.
        let (stats, _) = drain_zero_cost(&[256, 256], 300, None);
        assert_eq!(read(&stats.dropped_shed), 300);
        assert_eq!(read(&stats.completed), 212);
        assert_eq!(read(&stats.shed_budget), 0);
        // With a panic inside the shed stretch: tuples 1–49 take budget,
        // 50 is lost before it could, 51–101 take the rest, and 102–256
        // complete — as if each tuple were taken up alone.
        let (stats, _) = drain_zero_cost(&[256], 100, Some(50));
        assert_eq!(read(&stats.dropped_shed), 100);
        assert_eq!(read(&stats.worker_panics), 1);
        assert_eq!(read(&stats.completed), 155);
        assert_eq!(read(&stats.processed), 256);
    }

    #[test]
    fn a_sojourn_across_the_stamp_wrap_is_its_length() {
        use crate::ring::STAMP_MASK;
        let stats = Arc::new(WorkerStats::new());
        let ring = Arc::new(SpscRing::new(64));
        let mut c = cfg();
        c.cost = Duration::ZERO;
        // A fresh ring's clock is far below a second, so a stamp one
        // second back lies on the previous lap, just below 2⁵⁴.
        let now = ring.stamp_now();
        assert!(now < 1_000_000_000, "{now}");
        let stamp = now.wrapping_sub(1_000_000_000) & STAMP_MASK;
        assert!(stamp > STAMP_MASK - 1_000_000_000);
        assert_eq!(ring.push_repeat(stamp, 10), Push::Pushed(10));
        ring.close();
        spawn_supervised(Arc::clone(&stats), Arc::clone(&ring), c, "shard-0".into())
            .join()
            .unwrap();
        assert_eq!(stats.completed.load(Ordering::Relaxed), 10);
        let max_us = stats.delay_max_us.load(Ordering::Relaxed);
        assert!((1_000_000..60_000_000).contains(&max_us), "{max_us} µs");
        assert_eq!(stats.delay_sum_us.load(Ordering::Relaxed), 10 * max_us);
        assert_eq!(stats.delayed.load(Ordering::Relaxed), 10, "over the 50 ms target");
    }

    #[test]
    fn spin_model_burns_wall_clock() {
        let stats = Arc::new(WorkerStats::new());
        let ring = Arc::new(SpscRing::new(64));
        let mut c = cfg();
        c.cost_model = CostModel::Spin;
        c.cost = Duration::from_micros(500);
        let handle = spawn_supervised(Arc::clone(&stats), Arc::clone(&ring), c, "shard-0".into());
        let t0 = Instant::now();
        feed(&ring, 10);
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
        ring.close();
        let handle = spawn_supervised(Arc::clone(&stats), Arc::clone(&ring), c, "shard-0".into());
        handle.join().unwrap();
        assert_eq!(stats.completed.load(Ordering::Relaxed), 10);
        assert!(stats.delay_sum_us.load(Ordering::Relaxed) >= 10 * 4_000);
        // No cost sample is taken on the zero-cost path.
        assert!(stats.cost_ewma_us().is_nan());
    }
}
