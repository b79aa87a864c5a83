//! Bounded lock-free ingress ring for the shard data plane.
//!
//! Under the batched ingress path the per-shard mailbox is the hottest
//! shared structure in the engine, so it is a purpose-built bounded ring
//! rather than a general channel:
//!
//! * **Power-of-two slot array with index masking.** Head and tail are
//!   monotonically increasing `u64` sequence numbers; a slot index is
//!   `seq & mask`. Wraparound needs no branch and cannot skew slot reuse.
//! * **Cache-line-padded indices.** The producer-side `tail` and the
//!   consumer-side `head` live on their own 64-byte lines
//!   ([`CachePadded`]) so batch pushes and pops do not false-share.
//! * **Batch push / batch pop with one release/acquire pair per batch.**
//!   A producer reserves `n` slots with a single CAS on `tail`, writes
//!   the payloads, then publishes them with one [`fence`]`(Release)`
//!   followed by per-slot sequence stamps; the consumer scans the ready
//!   prefix, issues one [`fence`]`(Acquire)`, copies the payloads out and
//!   retires them with a single release store of `head`.
//! * **Batch-or-timeout hand-off.** A consumer that finds the ring empty
//!   publishes the batch size it is waiting for (`want`: its pop buffer,
//!   clamped to capacity) and parks for at most `PARK` (200 µs). A producer
//!   rings the doorbell only when its push brings the backlog up to
//!   `want`, so a parked worker costs its producers one load per push
//!   and at most one `unpark` per park; a backlog below one batch is
//!   delivered by the timeout. Parking is `thread::park_timeout` on the
//!   consumer's own [`Thread`] handle — no lock on either side. See
//!   [`SpscRing::pop_wait`] for the bound and the memory-ordering
//!   pairing.
//! * **Close flag with exact drain semantics.** [`SpscRing::close`] is
//!   idempotent; pushes that begin after it observe [`Push::Closed`]
//!   deterministically, while pushes already in flight (tracked by an
//!   `in_flight` gate) are allowed to land and are drained by the
//!   consumer before [`SpscRing::pop_wait`] reports exhaustion. This is
//!   what preserves the engine's `rejected_closed` counter semantics and
//!   the shard-stress conservation invariants.
//!
//! Payloads are `u64` *stamps*: nanoseconds since the ring's
//! [`epoch`](SpscRing::epoch). All rings of one engine share an epoch so
//! a batch can take a single timestamp at the front door and fan it out
//! to every shard without re-reading the clock.
//!
//! The ring is multi-producer (reservation CAS) / single-consumer; the
//! name keeps the SPSC intent of the per-shard topology — exactly one
//! worker ever pops — while the push side tolerates the engine's many
//! offer threads.

use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Pads a value out to its own 64-byte cache line so the producer and
/// consumer indices never false-share.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CachePadded<T>(pub T);

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

/// Outcome of a push against the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Push {
    /// `n` payloads were enqueued (may be less than requested when the
    /// ring ran out of capacity mid-batch; the shortfall was *not*
    /// enqueued and maps to `rejected_capacity` at the front door).
    Pushed(usize),
    /// The ring was closed before the push began; nothing was enqueued.
    Closed,
}

/// How long a waiting consumer parks before re-checking the ring. This
/// is the "timeout" of the batch-or-timeout hand-off: a backlog smaller
/// than the consumer's batch is never announced by a producer and waits
/// at most this long (plus the kernel's timer slack, ≈ 50 µs) to be
/// popped. It is also the cost bound of any missed doorbell, which keeps
/// the producer→consumer handshake simple (no exactly-once wakeup
/// protocol is needed for correctness).
const PARK: Duration = Duration::from_micros(200);

/// Bounded lock-free ring: many reserving producers, one consumer.
#[derive(Debug)]
pub struct SpscRing {
    /// Slot-index mask; the slot array length is `mask + 1`.
    mask: u64,
    /// Logical capacity (requested by the caller, ≤ `mask + 1`). A push
    /// never admits more than `cap` outstanding payloads even though the
    /// slot array may be larger after power-of-two rounding.
    cap: u64,
    /// Per-slot readiness stamps: slot `s & mask` holds `s + 1` once the
    /// payload for sequence `s` is readable. Sequence numbers are unique
    /// over the ring's lifetime, so a stale stamp can never be mistaken
    /// for a fresh one.
    seq: Box<[AtomicU64]>,
    /// Payload array (stamps, see module docs).
    data: Box<[AtomicU64]>,
    /// Next sequence the consumer will pop. Release-stored by the
    /// consumer after copying payloads out; acquire-loaded by producers
    /// when computing free capacity (this pairing is what makes slot
    /// reuse safe).
    head: CachePadded<AtomicU64>,
    /// Next sequence a producer will reserve.
    tail: CachePadded<AtomicU64>,
    /// Set once by [`close`](Self::close); never cleared.
    closed: AtomicBool,
    /// Number of pushes past the closed-gate but not yet published. The
    /// closing drain waits for this to reach zero so no payload is
    /// stranded by a racing push.
    in_flight: AtomicU64,
    /// Backlog a waiting consumer asked to be woken at; 0 while it is
    /// not waiting. Stored by the consumer around its park, cleared by
    /// the one producer that rings (see [`pop_wait`](Self::pop_wait)).
    want: AtomicU64,
    /// The consumer's thread handle, registered on its first wait.
    consumer: OnceLock<Thread>,
    /// Doorbells rung by producers (statistic; `close()` is not counted).
    doorbells: AtomicU64,
    /// Time origin for payload stamps.
    epoch: Instant,
}

impl SpscRing {
    /// Creates a ring that can hold `capacity` payloads, with its own
    /// epoch. Capacity is clamped to at least 1.
    pub fn new(capacity: usize) -> Self {
        Self::with_epoch(capacity, Instant::now())
    }

    /// Creates a ring with an explicit stamp epoch (shared across all
    /// rings of one engine so one front-door timestamp serves a whole
    /// batch).
    pub fn with_epoch(capacity: usize, epoch: Instant) -> Self {
        let cap = capacity.max(1) as u64;
        let slots = cap.next_power_of_two() as usize;
        let mk = |_: usize| AtomicU64::new(0);
        Self {
            mask: slots as u64 - 1,
            cap,
            seq: (0..slots).map(mk).collect(),
            data: (0..slots).map(mk).collect(),
            head: CachePadded(AtomicU64::new(0)),
            tail: CachePadded(AtomicU64::new(0)),
            closed: AtomicBool::new(false),
            in_flight: AtomicU64::new(0),
            want: AtomicU64::new(0),
            consumer: OnceLock::new(),
            doorbells: AtomicU64::new(0),
            epoch,
        }
    }

    /// The ring's stamp epoch.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Current stamp: nanoseconds elapsed since the epoch.
    pub fn stamp_now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Logical capacity.
    pub fn capacity(&self) -> usize {
        self.cap as usize
    }

    /// Approximate number of queued payloads.
    pub fn len(&self) -> usize {
        let h = self.head.load(Ordering::Acquire);
        let t = self.tail.load(Ordering::Acquire);
        t.saturating_sub(h) as usize
    }

    /// Whether the ring currently looks empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether [`close`](Self::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    /// How many times a producer has rung the doorbell (woken a waiting
    /// consumer because a full batch was ready). Wake-ups by
    /// [`close`](Self::close) are not counted.
    pub fn doorbells(&self) -> u64 {
        self.doorbells.load(Ordering::Relaxed)
    }

    /// Closes the ring. Idempotent; pushes that start after this returns
    /// deterministically see [`Push::Closed`]. The consumer drains any
    /// payloads (including racing in-flight pushes) before
    /// [`pop_wait`](Self::pop_wait) reports exhaustion.
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        // Wake a waiting consumer whatever its backlog, so it can run
        // the closing drain.
        if let Some(consumer) = self.consumer.get() {
            consumer.unpark();
        }
    }

    /// Pushes one payload. Equivalent to `push_repeat(value, 1)`.
    pub fn push(&self, value: u64) -> Push {
        self.push_repeat(value, 1)
    }

    /// Pushes `n` copies of `value` in one reservation. Returns
    /// [`Push::Pushed`] with the number actually enqueued (0..=n; short
    /// when capacity ran out) or [`Push::Closed`] if the ring was closed
    /// before the push began. One release fence publishes the whole
    /// batch.
    pub fn push_repeat(&self, value: u64, n: usize) -> Push {
        self.push_with(n, |_| value)
    }

    /// Pushes `n` payloads produced by `f(i)` for `i` in `0..pushed`.
    /// Same contract as [`push_repeat`](Self::push_repeat).
    ///
    /// The push rings the doorbell only if a consumer is waiting, this
    /// push brought the backlog up to the batch it asked for, and this
    /// producer is the one that cleared the request: one `unpark` per
    /// park however many producers race, none below a full batch. A
    /// smaller backlog reaches the consumer when its park times out.
    pub fn push_with(&self, n: usize, mut f: impl FnMut(usize) -> u64) -> Push {
        if n == 0 {
            return if self.is_closed() {
                Push::Closed
            } else {
                Push::Pushed(0)
            };
        }
        // Close gate: announce the push, then check the flag. `close()`
        // stores the flag SeqCst before the drain waits on `in_flight`,
        // so a push either observes closed here or is counted in flight
        // and its payloads are drained.
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        if self.closed.load(Ordering::SeqCst) {
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
            return Push::Closed;
        }
        // Reserve up to `n` slots with one CAS on `tail`. SeqCst on
        // success: the reservation is this side's store in the doorbell
        // handshake (see `pop_wait`).
        let (start, got) = loop {
            let t = self.tail.load(Ordering::Relaxed);
            let h = self.head.load(Ordering::Acquire);
            let free = self.cap.saturating_sub(t.wrapping_sub(h));
            let take = (n as u64).min(free);
            if take == 0 {
                break (t, 0);
            }
            if self
                .tail
                .compare_exchange_weak(t, t + take, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
            {
                break (t, take);
            }
        };
        if got == 0 {
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
            return Push::Pushed(0);
        }
        for i in 0..got {
            let s = start + i;
            self.data[(s & self.mask) as usize].store(f(i as usize), Ordering::Relaxed);
        }
        // Publish the whole batch with a single release fence; the
        // per-slot stamps below may then be relaxed.
        fence(Ordering::Release);
        for i in 0..got {
            let s = start + i;
            self.seq[(s & self.mask) as usize].store(s + 1, Ordering::Relaxed);
        }
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
        self.ring_if_batch_ready(start + got);
        Push::Pushed(got as usize)
    }

    /// The backlog a consumer popping into `out_len` slots waits for:
    /// its buffer, clamped to capacity — a ring smaller than the buffer
    /// must still ring when it is full.
    fn batch_want(&self, out_len: usize) -> u64 {
        (out_len as u64).clamp(1, self.cap)
    }

    /// The producer half of the doorbell; `tail_after` is the end of the
    /// caller's own reservation.
    #[inline]
    fn ring_if_batch_ready(&self, tail_after: u64) {
        let want = self.want.load(Ordering::SeqCst);
        if want == 0 {
            return;
        }
        // Saturating: with several producers, one pre-empted between
        // publishing and this check can find `head` past its own slots.
        let backlog = tail_after.saturating_sub(self.head.load(Ordering::Acquire));
        if backlog >= want && self.want.swap(0, Ordering::SeqCst) != 0 {
            self.doorbells.fetch_add(1, Ordering::Relaxed);
            if let Some(consumer) = self.consumer.get() {
                consumer.unpark();
            }
        }
    }

    /// Non-blocking batch pop into `out`. Returns the number of payloads
    /// copied (0 when nothing is ready). Single consumer only.
    pub fn pop_n(&self, out: &mut [u64]) -> usize {
        if out.is_empty() {
            return 0;
        }
        let h = self.head.load(Ordering::Relaxed);
        // Scan the contiguous ready prefix.
        let mut n = 0u64;
        let max = out.len() as u64;
        while n < max {
            let s = h + n;
            if self.seq[(s & self.mask) as usize].load(Ordering::Relaxed) != s + 1 {
                break;
            }
            n += 1;
        }
        if n == 0 {
            return 0;
        }
        // One acquire fence pairs with the producers' release fence for
        // the whole batch.
        fence(Ordering::Acquire);
        for i in 0..n {
            let s = h + i;
            out[i as usize] = self.data[(s & self.mask) as usize].load(Ordering::Relaxed);
        }
        // Retire the batch; the release store pairs with the producers'
        // acquire load of `head` so the slots are safe to reuse.
        self.head.store(h + n, Ordering::Release);
        n as usize
    }

    /// Blocking batch pop, batch-or-timeout: returns as soon as anything
    /// is ready, otherwise waits until a full batch (`out.len()`, clamped
    /// to capacity) has been pushed or `PARK` (200 µs) has elapsed,
    /// whichever is first, and pops what is there. Returns `0` **only**
    /// when the ring is closed and fully drained (no racing push can be
    /// stranded); otherwise returns ≥ 1.
    ///
    /// A payload pushed to an *empty* ring therefore waits at most `PARK`
    /// plus timer slack plus one wake-up (≈ 0.3 ms) before it is popped,
    /// and at most `min(want − 1, λ·PARK)` payloads sit in the ring
    /// behind a parked consumer. Under backlog the consumer never gets
    /// here.
    ///
    /// The doorbell is a Dekker pairing, SeqCst on both sides: the
    /// consumer stores `want` then loads `tail`; a producer advances
    /// `tail` (the reservation CAS) then loads `want`. Whichever side
    /// comes second in the total order sees the other's store, so either
    /// the consumer sees the full batch and does not park, or the
    /// producer that completed it sees `want` and rings. What slips
    /// through (a close racing the registration of the consumer's
    /// handle, a bell spent on a stale `want`) costs one `PARK`, never a
    /// payload.
    ///
    /// Single consumer only, and always the same thread: its handle is
    /// registered once (a supervisor that restarts a panicked worker
    /// loop does so on the worker's own thread).
    pub fn pop_wait(&self, out: &mut [u64]) -> usize {
        let want = self.batch_want(out.len());
        loop {
            let n = self.pop_n(out);
            if n > 0 {
                return n;
            }
            if self.closed.load(Ordering::SeqCst) {
                // Closing drain: wait out in-flight pushes, then take
                // one final look.
                while self.in_flight.load(Ordering::SeqCst) != 0 {
                    std::hint::spin_loop();
                }
                return self.pop_n(out);
            }
            let me = self.consumer.get_or_init(std::thread::current);
            debug_assert_eq!(
                me.id(),
                std::thread::current().id(),
                "the ring's consumer must stay on one thread"
            );
            self.want.store(want, Ordering::SeqCst);
            // `tail` counts reserved-but-unpublished slots: behind a
            // producer pre-empted mid-push this loops on `pop_n` until
            // its next time slice instead of parking — preferable to
            // waiting out `PARK` with a full batch queued.
            let backlog = self
                .tail
                .load(Ordering::SeqCst)
                .saturating_sub(self.head.load(Ordering::Relaxed));
            if backlog < want && !self.closed.load(Ordering::SeqCst) {
                std::thread::park_timeout(PARK);
            }
            self.want.store(0, Ordering::SeqCst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_pop_roundtrip_preserves_fifo() {
        let ring = SpscRing::new(8);
        assert_eq!(ring.push_with(5, |i| i as u64 * 10), Push::Pushed(5));
        let mut out = [0u64; 8];
        assert_eq!(ring.pop_n(&mut out), 5);
        assert_eq!(&out[..5], &[0, 10, 20, 30, 40]);
        assert_eq!(ring.pop_n(&mut out), 0);
    }

    #[test]
    fn capacity_is_logical_not_rounded() {
        let ring = SpscRing::new(5);
        assert_eq!(ring.capacity(), 5);
        assert_eq!(ring.push_repeat(7, 9), Push::Pushed(5));
        assert_eq!(ring.push(7), Push::Pushed(0));
        let mut out = [0u64; 16];
        assert_eq!(ring.pop_n(&mut out), 5);
        assert_eq!(ring.push_repeat(3, 2), Push::Pushed(2));
    }

    #[test]
    fn wraparound_many_times_keeps_order() {
        let ring = SpscRing::new(4);
        let mut expect = 0u64;
        let mut out = [0u64; 4];
        for round in 0..1000u64 {
            let n = (round % 4 + 1) as usize;
            assert_eq!(ring.push_with(n, |i| round * 8 + i as u64), Push::Pushed(n));
            let got = ring.pop_n(&mut out[..n]);
            assert_eq!(got, n);
            for (i, v) in out[..n].iter().enumerate() {
                assert_eq!(*v, round * 8 + i as u64);
                expect += 1;
            }
        }
        assert_eq!(expect, (0..1000u64).map(|r| r % 4 + 1).sum::<u64>());
    }

    #[test]
    fn close_rejects_new_pushes_but_drains_existing() {
        let ring = SpscRing::new(8);
        assert_eq!(ring.push_repeat(1, 3), Push::Pushed(3));
        ring.close();
        assert_eq!(ring.push(9), Push::Closed);
        let mut out = [0u64; 8];
        assert_eq!(ring.pop_wait(&mut out), 3);
        assert_eq!(ring.pop_wait(&mut out), 0);
        // Exhaustion is stable.
        assert_eq!(ring.pop_wait(&mut out), 0);
    }

    #[test]
    fn pop_wait_blocks_until_producer_arrives() {
        let ring = Arc::new(SpscRing::new(16));
        let r2 = Arc::clone(&ring);
        let t = std::thread::spawn(move || {
            let mut out = [0u64; 16];
            let n = r2.pop_wait(&mut out);
            (n, out[0])
        });
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(ring.push(42), Push::Pushed(1));
        let (n, v) = t.join().unwrap();
        assert_eq!((n, v), (1, 42));
        ring.close();
    }

    /// Stands in for a consumer parked in `pop_wait`, without a clock:
    /// the calling thread registers itself and publishes `want`.
    fn park_here(ring: &SpscRing, want: u64) {
        ring.consumer.get_or_init(std::thread::current);
        ring.want.store(want, Ordering::SeqCst);
    }

    /// Consumes this thread's unpark token; `false` if none was pending
    /// (the 10 s park is the failure path, not a measurement).
    fn took_unpark_token() -> bool {
        let t0 = Instant::now();
        std::thread::park_timeout(Duration::from_secs(10));
        t0.elapsed() < Duration::from_secs(5)
    }

    #[test]
    fn doorbell_rings_once_at_a_full_batch_and_not_below() {
        let ring = SpscRing::new(1024);
        park_here(&ring, 256);
        for i in 0..255 {
            assert_eq!(ring.push(i), Push::Pushed(1));
        }
        assert_eq!(
            ring.doorbells(),
            0,
            "a sub-batch backlog is the timeout's job"
        );
        assert_eq!(ring.want.load(Ordering::SeqCst), 256);
        assert_eq!(ring.push(255), Push::Pushed(1));
        assert_eq!(ring.doorbells(), 1);
        assert!(took_unpark_token());
        // The request is spent: further pushes find no one waiting.
        assert_eq!(ring.push_repeat(0, 300), Push::Pushed(300));
        assert_eq!(ring.doorbells(), 1);
    }

    #[test]
    fn racing_producers_ring_exactly_once_per_park() {
        let ring = Arc::new(SpscRing::new(1024));
        let mut out = [0u64; 512];
        for round in 1..=50u64 {
            assert_eq!(ring.push_repeat(round, 255), Push::Pushed(255));
            park_here(&ring, 256);
            // Each of the four completes the batch from its own point of
            // view; only the one whose swap cleared `want` may ring.
            let start = Arc::new(std::sync::Barrier::new(4));
            let producers: Vec<_> = (0..4)
                .map(|_| {
                    let (ring, start) = (Arc::clone(&ring), Arc::clone(&start));
                    std::thread::spawn(move || {
                        start.wait();
                        assert_eq!(ring.push(0), Push::Pushed(1));
                    })
                })
                .collect();
            for p in producers {
                p.join().unwrap();
            }
            assert_eq!(ring.doorbells(), round, "round {round}");
            assert!(took_unpark_token());
            assert_eq!(ring.pop_n(&mut out), 259);
        }
    }

    #[test]
    fn want_clamps_to_capacity_so_a_full_small_ring_rings() {
        let ring = SpscRing::new(4);
        assert_eq!(ring.batch_want(256), 4);
        assert_eq!(
            ring.batch_want(0),
            1,
            "an empty buffer must not read as 'not waiting'"
        );
        assert_eq!(SpscRing::new(1024).batch_want(256), 256);
        park_here(&ring, ring.batch_want(256));
        assert_eq!(ring.push_repeat(7, 3), Push::Pushed(3));
        assert_eq!(ring.doorbells(), 0);
        assert_eq!(ring.push_repeat(7, 9), Push::Pushed(1));
        assert_eq!(ring.doorbells(), 1);
    }

    #[test]
    fn close_wakes_a_sub_batch_backlog_without_counting_a_bell() {
        let ring = SpscRing::new(1024);
        park_here(&ring, 256);
        assert_eq!(ring.push_repeat(9, 10), Push::Pushed(10));
        ring.close();
        assert!(took_unpark_token());
        assert_eq!(ring.doorbells(), 0);
        let mut out = [0u64; 256];
        assert_eq!(ring.pop_wait(&mut out), 10);
        assert_eq!(ring.pop_wait(&mut out), 0);
        assert_eq!(ring.pop_wait(&mut out), 0);
    }

    #[test]
    fn stalled_producer_behind_head_neither_rings_nor_panics() {
        // A producer pre-empted between publishing slots 0..4 and its
        // doorbell check: by the time it looks, the consumer has popped
        // past them (head 10) and parked again.
        let ring = SpscRing::new(64);
        assert_eq!(ring.push_repeat(1, 10), Push::Pushed(10));
        let mut out = [0u64; 16];
        assert_eq!(ring.pop_n(&mut out), 10);
        park_here(&ring, 1);
        ring.ring_if_batch_ready(4);
        assert_eq!(ring.doorbells(), 0);
        assert_eq!(ring.want.load(Ordering::SeqCst), 1, "the request stands");
    }

    /// A consumer thread popping into `BUF` slots until the ring closes;
    /// returns every pop's wait (pop time − the popped stamp), ns.
    fn spawn_timing_consumer<const BUF: usize>(
        ring: &Arc<SpscRing>,
    ) -> std::thread::JoinHandle<Vec<u64>> {
        let ring = Arc::clone(ring);
        std::thread::spawn(move || {
            let mut waits = Vec::new();
            let mut out = [0u64; BUF];
            loop {
                let n = ring.pop_wait(&mut out);
                if n == 0 {
                    return waits;
                }
                let now = ring.stamp_now();
                waits.extend(out[..n].iter().map(|stamp| now.saturating_sub(*stamp)));
            }
        })
    }

    /// Spins until the consumer has published a `want` (it is between
    /// that store and its park, or parked).
    fn await_waiting_consumer(ring: &SpscRing) {
        while ring.want.load(Ordering::SeqCst) == 0 {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn sub_batch_backlog_arrives_by_timeout_without_a_bell() {
        let ring = Arc::new(SpscRing::new(1024));
        let consumer = spawn_timing_consumer::<256>(&ring);
        await_waiting_consumer(&ring);
        assert_eq!(ring.push_repeat(ring.stamp_now(), 255), Push::Pushed(255));
        while !ring.is_empty() {
            std::hint::spin_loop();
        }
        assert_eq!(ring.doorbells(), 0);
        ring.close();
        let waits = consumer.join().unwrap();
        assert_eq!(waits.len(), 255);
        // The property is delivery without a bell. How *soon* the
        // timeout delivers is a claim about `PARK` that a wall clock on
        // a shared host cannot hold (one vCPU stall exceeds any small
        // multiple of it); that tight bound belongs to the injected
        // clock of ROADMAP 1c. Here the wait only has to stay inside the
        // delay target the engine runs against.
        let bound = Duration::from_millis(250).as_nanos() as u64;
        let worst = waits.iter().copied().max().unwrap();
        assert!(worst <= bound, "worst wait {worst} ns > 250 ms");
    }

    #[test]
    fn pushes_aimed_at_the_park_window_do_not_lose_the_wake_up() {
        // A one-slot consumer makes every push a full batch, and every
        // push is fired the moment `want` appears — i.e. into the window
        // between the consumer's `want` store and its park, where a
        // broken handshake would leave the tuple to the timeout.
        const PUSHES: usize = 10_000;
        let ring = Arc::new(SpscRing::new(64));
        let consumer = spawn_timing_consumer::<1>(&ring);
        for _ in 0..PUSHES {
            await_waiting_consumer(&ring);
            assert_eq!(ring.push(ring.stamp_now()), Push::Pushed(1));
        }
        ring.close();
        let waits = consumer.join().unwrap();
        assert_eq!(waits.len(), PUSHES);
        let bound = 2 * PARK.as_nanos() as u64 + 1_000_000;
        let slow = waits.iter().filter(|w| **w > bound).count();
        assert!(
            slow * 100 <= PUSHES,
            "{slow} of {PUSHES} pops waited > 2 × PARK + 1 ms"
        );
    }

    #[test]
    fn stamps_are_monotone_against_epoch() {
        let ring = SpscRing::new(4);
        let a = ring.stamp_now();
        std::thread::sleep(Duration::from_millis(2));
        let b = ring.stamp_now();
        assert!(b > a);
    }
}
