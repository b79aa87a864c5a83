//! Bounded lock-free ingress ring for the shard data plane.
//!
//! The per-shard mailbox is the hottest shared structure in the engine
//! and most of its memory, so it is a purpose-built ring, not a general
//! channel. It carries *runs*, not tuples: the paper's plant depends only
//! on counts and on the mean delay of departing tuples, so the tuples one
//! admission call pushes to a shard, which share one arrival stamp, are
//! interchangeable and travel as one word. Its whole protocol lives in
//! four kinds of word:
//!
//! * **A slot holds one run, written only at the run's first sequence.**
//!   Head and tail count *tuples*: a reservation of `n` takes sequences
//!   `[t, t + n)`, and the slot of sequence `s` is `s & mask`. The word
//!   at a run's first sequence is
//!
//!   ```text
//!   bit 63       62      61 ‥ 54       53 ‥ 0
//!   SAMPLE_BIT   valid   count − 1     stamp, ns since the epoch mod 2⁵⁴
//!   ```
//!
//!   so a run is 1..=[`RUN_MAX`] tuples, and a reservation of more writes
//!   ⌈n / 256⌉ heads; the slots of the run's other sequences are never
//!   written. [`SAMPLE_BIT`](crate::spans::SAMPLE_BIT) marks every tuple
//!   of the run as sampled. The valid bit is the ring's: a push sets it,
//!   a pop returns the word without it, so a singleton's popped word is
//!   exactly its stamp (and `0` is a legal stamp).
//! * **Readiness is clear-on-read.** The consumer reads the slot at
//!   `head`; a clear valid bit means the run there is not written yet. A
//!   set one is the run of sequence `head`: the consumer zeroes the slot,
//!   steps `head` by the run's count, and reads on, and it stores `head`
//!   (Release) only after its clears. Two facts make that the whole
//!   readiness protocol. Every reservation starts where the previous one
//!   ended, so the consumer's position is always a run's first sequence,
//!   and every slot a push wrote is a run head the consumer visits and
//!   zeroes. And a sequence `s` is reserved only once `head` has passed
//!   `s − cap`, so a slot is reused only after `head` passed the sequence
//!   it last held, whose run has been cleared. A slot the consumer looks
//!   at is therefore zero or the run of exactly its sequence: no lap tag,
//!   no publish pass, no second array.
//! * **`tail` is the reservation counter and the door.** A producer
//!   reserves `n` tuples with one SeqCst CAS; [`SpscRing::close`] is
//!   `tail.fetch_or(CLOSED_BIT)` (bit 63). A producer that loads a closed
//!   `tail` returns [`Push::Closed`], one that raced the close loses its
//!   CAS and reloads: reservation and close are linearised on one word,
//!   the reservations below the frozen tail are exactly the pushes that
//!   land, and the closing drain pops until `head` meets it. Every other
//!   reader of `tail` masks the bit.
//! * **`head` is the consumer's, and a push does not read it.** `head`
//!   is release-stored after a batch is copied out and its slots cleared.
//!   Producers size a reservation against `head_seen`, their own copy on
//!   their own line, and load the real `head` only when the copy says the
//!   reservation does not fit. A stale copy is conservative: `head` only
//!   grows, so `head_seen ≤ head` under-reports the room and can cost a
//!   refresh, never a slot still unread — and a short push is returned
//!   only after a refresh. What makes slot reuse safe is a
//!   release/acquire chain through whichever producer refreshed: consumer
//!   clears, then its `head` store (Release) → that producer's `head`
//!   load (Acquire) → its `head_seen` store (Release) → this producer's
//!   `head_seen` load (Acquire) → its slot stores.
//! * **`want` is the bell-or-timeout hand-off**, on the producers' line
//!   beside `tail`, the word it is paired with: an idle consumer
//!   publishes the ring's *bell*, a quarter of its capacity in tuples, and
//!   parks ≤ `PARK` on its own [`Thread`] handle; only the push that
//!   brings the backlog up to the bell unparks it, and anything less
//!   waits for the timeout. A bell protects capacity, not latency: it
//!   fires only when the timer's wait could fill the ring, and a parked
//!   worker costs a push one load of a line it already holds. See
//!   [`SpscRing::pop_wait`].
//!
//! **Ordering.** A run word validates itself, so it needs no
//! release/acquire pass of its own. One [`fence`]`(Release)` before a
//! push's stores and one [`fence`]`(Acquire)` after the consumer's scan
//! are kept all the same: they make a push *happen before* its pop, as a
//! hand-off should, and cost nothing on TSO. The heads of one reservation
//! are written in order; a consumer that finds only the first of them
//! pops that run and stops at the next, still-zero slot.
//!
//! **Stamps wrap.** A stamp is nanoseconds since the ring's
//! [`epoch`](SpscRing::epoch), which all rings of an engine share so one
//! front-door timestamp serves a batch, kept modulo 2⁵⁴ (≈ 208 days):
//! [`SpscRing::stamp_now`] returns it reduced, and [`sojourn_ns`] takes
//! the difference of two stamps modulo 2⁵⁴, so a sojourn is exact across
//! the wrap as long as it is shorter than 2⁵³ ns (≈ 104 days); a
//! difference in the upper half reads as a stamp from the future and
//! saturates to 0. The ring is multi-producer / single-consumer; the
//! name keeps the SPSC intent of the per-shard topology — exactly one
//! worker ever pops.

use std::sync::atomic::{fence, AtomicU64, Ordering};
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
    /// `n` tuples were enqueued (may be less than requested when the
    /// ring ran out of capacity mid-batch; the shortfall was *not*
    /// enqueued and maps to `rejected_capacity` at the front door).
    Pushed(usize),
    /// The ring was closed before the push reserved; nothing was enqueued.
    Closed,
}

/// How long a waiting consumer parks before re-checking the ring: the
/// "timeout" of the bell-or-timeout hand-off (a backlog below the ring's
/// bell is never announced and waits at most this long plus ≈ 50 µs of
/// timer slack, so a parked consumer leaves at most
/// `min(bell − 1, λ·(PARK + slack))` tuples in its ring) and the cost
/// bound of any missed doorbell, which is why the handshake needs no
/// exactly-once wake-up protocol.
const PARK: Duration = Duration::from_micros(200);

/// Most tuples one run word carries: its count field is `count − 1` in
/// 8 bits.
pub const RUN_MAX: usize = 256;

/// The stamp bits of a run word: a stamp is ns since the epoch modulo
/// 2⁵⁴ (module docs).
pub const STAMP_MASK: u64 = (1 << COUNT_SHIFT) - 1;

/// Where a run word's `count − 1` field starts.
const COUNT_SHIFT: u32 = 54;

/// Bit 62 of a slot word: set by a push, zeroed by the pop that reads it,
/// never returned.
const VALID_BIT: u64 = 1 << 62;

/// How far ahead of its walk, in sequences, a pop warms slot lines
/// (64 lines of 8 slots; see [`SpscRing::pop_n`]).
const WARM_AHEAD: u64 = 512;

/// Slots per 64-byte cache line.
const LINE_SLOTS: u64 = 8;

/// Bit 63 of `tail`: set once by [`SpscRing::close`], never cleared.
const CLOSED_BIT: u64 = 1 << 63;
const _: () = assert!(crate::spans::SAMPLE_BIT & (VALID_BIT | STAMP_MASK) == 0);
const _: () = assert!(((RUN_MAX as u64 - 1) << COUNT_SHIFT) & (VALID_BIT | STAMP_MASK) == 0);

/// Tuples in a popped run word, `1..=RUN_MAX`.
#[inline]
pub fn run_len(word: u64) -> usize {
    ((word >> COUNT_SHIFT) & (RUN_MAX as u64 - 1)) as usize + 1
}

/// The arrival stamp of a popped run word (without its sample mark).
#[inline]
pub fn run_stamp(word: u64) -> u64 {
    word & STAMP_MASK
}

/// Nanoseconds from `stamp` to `now`, two stamps modulo 2⁵⁴: exact
/// across the wrap for sojourns below 2⁵³ ns, and 0 for a `stamp` in
/// `now`'s future (module docs).
#[inline]
pub fn sojourn_ns(now: u64, stamp: u64) -> u64 {
    let d = now.wrapping_sub(stamp) & STAMP_MASK;
    if d > STAMP_MASK >> 1 {
        0
    } else {
        d
    }
}

/// Asks the CPU to bring `slot`'s line into this core's cache ahead of a
/// read; a no-op where no prefetch instruction is wired up.
#[inline]
fn warm(slot: &AtomicU64) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch is a hint. It changes no state the program can
    // observe, cannot fault on any address, and `sse` is part of the
    // x86_64 baseline.
    #[allow(unsafe_code)]
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(slot.as_ptr().cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = slot;
}

/// The consumer's line: `head` alone. The consumer stores it per pop; a
/// producer loads it only to refresh `head_seen` or to size a doorbell.
#[derive(Debug, Default)]
struct ConsumerLine {
    /// Next sequence the consumer will pop: always a run's first.
    head: AtomicU64,
}

/// The producers' line: everything a push reads or writes besides slots.
#[derive(Debug, Default)]
struct ProducerLine {
    /// Next sequence a producer will reserve, plus [`CLOSED_BIT`].
    tail: AtomicU64,
    /// The ring's bell while its consumer is parked, else 0. Stored by
    /// the consumer around a park, cleared by the one producer that rings
    /// (see [`SpscRing::pop_wait`]).
    want: AtomicU64,
    /// A `head` some producer loaded, so `≤ head` (module docs).
    head_seen: AtomicU64,
    /// Doorbells rung by producers (statistic; `close()` is not counted).
    doorbells: AtomicU64,
}

/// What nobody writes after construction (`consumer`: on the first wait).
#[derive(Debug)]
struct FixedLine {
    /// The slot words, a power of two of them: the index mask is `len − 1`.
    slots: Box<[AtomicU64]>,
    /// Logical capacity in tuples (as requested, ≤ `slots.len()`): no
    /// push admits more than `cap` outstanding tuples.
    cap: u64,
    /// The backlog that wakes a parked consumer, `max(1, cap / 4)`: the
    /// wake has three quarters of the ring to land in. A `u32` keeps this
    /// line at 64 bytes; it saturates only past 2³⁴ slots, where the
    /// smaller bell leaves even more of the ring free.
    bell: u32,
    /// Time origin for stamps.
    epoch: Instant,
    /// The consumer's thread handle.
    consumer: OnceLock<Thread>,
}

/// Bounded lock-free ring: many reserving producers, one consumer. Three
/// cache lines plus `slots × 8` bytes: the consumer's `head`, what a push
/// touches, and what nobody writes.
#[derive(Debug)]
#[repr(C)]
pub struct SpscRing {
    cons: CachePadded<ConsumerLine>,
    prod: CachePadded<ProducerLine>,
    fixed: CachePadded<FixedLine>,
}

impl SpscRing {
    /// Creates a ring that can hold `capacity` tuples, with its own
    /// epoch. Capacity is clamped to at least 1.
    pub fn new(capacity: usize) -> Self {
        Self::with_epoch(capacity, Instant::now())
    }

    /// Creates a ring with an explicit stamp epoch (shared across all
    /// rings of one engine: one front-door timestamp serves a batch).
    pub fn with_epoch(capacity: usize, epoch: Instant) -> Self {
        let cap = capacity.max(1) as u64;
        let slots = cap.next_power_of_two();
        Self {
            cons: CachePadded::default(),
            prod: CachePadded::default(),
            fixed: CachePadded(FixedLine {
                slots: (0..slots).map(|_| AtomicU64::new(0)).collect(),
                cap,
                bell: u32::try_from(cap / 4).unwrap_or(u32::MAX).max(1),
                epoch,
                consumer: OnceLock::new(),
            }),
        }
    }

    /// The ring's stamp epoch.
    pub fn epoch(&self) -> Instant {
        self.fixed.epoch
    }

    /// Current stamp: nanoseconds elapsed since the epoch, modulo 2⁵⁴.
    pub fn stamp_now(&self) -> u64 {
        self.fixed.epoch.elapsed().as_nanos() as u64 & STAMP_MASK
    }

    /// Logical capacity, tuples.
    pub fn capacity(&self) -> usize {
        self.fixed.cap as usize
    }

    /// The backlog, in tuples, at which a push wakes a parked consumer,
    /// `max(1, capacity / 4)` (see [`pop_wait`](Self::pop_wait)).
    pub fn bell(&self) -> usize {
        self.fixed.bell as usize
    }

    /// `tail` as everyone but a reserving producer reads it: tuples
    /// reserved and not yet popped (the close bit masked off), and whether
    /// the ring is closed. SeqCst: the consumer's load in the doorbell.
    fn backlog(&self) -> (u64, bool) {
        let h = self.cons.head.load(Ordering::Acquire);
        let t = self.prod.tail.load(Ordering::SeqCst);
        ((t & !CLOSED_BIT).saturating_sub(h), t & CLOSED_BIT != 0)
    }

    /// Approximate number of queued tuples; frozen reservations included,
    /// so exact once the ring is closed and the consumer idle.
    pub fn len(&self) -> usize {
        self.backlog().0 as usize
    }

    /// Tuples ever pushed to this ring: `tail` without the close bit. A
    /// reservation is never given back, so this counts every push exactly,
    /// from the instant it reserved (its runs may still be being
    /// written); frozen once the ring is closed.
    pub fn pushed(&self) -> u64 {
        self.prod.tail.load(Ordering::Relaxed) & !CLOSED_BIT
    }

    /// Whether the ring currently looks empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether [`close`](Self::close) has been called.
    pub fn is_closed(&self) -> bool {
        self.backlog().1
    }

    /// How many times a producer has rung the doorbell (woken a waiting
    /// consumer because the backlog reached the bell); `close()` is not
    /// counted.
    pub fn doorbells(&self) -> u64 {
        self.prod.doorbells.load(Ordering::Relaxed)
    }

    /// Closes the ring. Idempotent; `tail` is frozen from here on, so a
    /// push that starts after this returns deterministically sees
    /// [`Push::Closed`], and a push that reserved before it lands and is
    /// drained before [`pop_wait`](Self::pop_wait) reports exhaustion.
    pub fn close(&self) {
        self.prod.tail.fetch_or(CLOSED_BIT, Ordering::SeqCst);
        // Wake the consumer whatever its backlog, for the closing drain.
        if let Some(consumer) = self.fixed.consumer.get() {
            consumer.unpark();
        }
    }

    /// Pushes one tuple. Equivalent to `push_repeat(value, 1)`.
    pub fn push(&self, value: u64) -> Push {
        self.push_repeat(value, 1)
    }

    /// Pushes `n` tuples stamped `value` in one reservation, all sampled
    /// if `value` carries [`SAMPLE_BIT`](crate::spans::SAMPLE_BIT).
    /// Returns [`Push::Pushed`] with the number enqueued (0..=n; short
    /// when capacity ran out) or [`Push::Closed`] if the ring closed
    /// first.
    pub fn push_repeat(&self, value: u64, n: usize) -> Push {
        let all = value & crate::spans::SAMPLE_BIT != 0;
        self.push_sampled(value, n, |_, got| if all { got } else { 0 })
    }

    /// Pushes `n` tuples stamped `stamp` in one reservation. Once the
    /// reservation holds `got` tuples from sequence `start`,
    /// `sampled(start, got)` says how many of them are sampled; those are
    /// written as the reservation's first runs, marked with
    /// [`SAMPLE_BIT`](crate::spans::SAMPLE_BIT), and the rest follow
    /// unmarked — ⌈m / 256⌉ heads each. Same contract as
    /// [`push_repeat`](Self::push_repeat). Bits 54–62 of `stamp` are the
    /// ring's (a stamp is kept modulo 2⁵⁴): they must be clear, and are
    /// stripped; a sample mark on `stamp` is ignored.
    ///
    /// The push rings the doorbell only if a consumer is waiting, this
    /// push brought the backlog up to the ring's bell, and this producer
    /// cleared the request: one `unpark` per park however many producers
    /// race; a smaller backlog is left to the park's timeout.
    pub fn push_sampled(
        &self,
        stamp: u64,
        n: usize,
        sampled: impl FnOnce(u64, usize) -> usize,
    ) -> Push {
        debug_assert_eq!(
            stamp & !(STAMP_MASK | crate::spans::SAMPLE_BIT),
            0,
            "stamp bits 54..=62 are the ring's"
        );
        let stamp = stamp & STAMP_MASK;
        // Reserve up to `n` tuples with one CAS on `tail`, also the close
        // gate: a closed `tail` never equals the open one loaded here.
        // SeqCst: this side's store in the doorbell (see `pop_wait`).
        let (start, got) = loop {
            let t = self.prod.tail.load(Ordering::Relaxed);
            if t & CLOSED_BIT != 0 {
                return Push::Closed;
            }
            let mut take = self.room(t, self.prod.head_seen.load(Ordering::Acquire));
            if take < n as u64 {
                let head = self.cons.head.load(Ordering::Acquire);
                self.prod.head_seen.store(head, Ordering::Release);
                take = self.room(t, head);
            }
            let take = take.min(n as u64);
            if take == 0 {
                return Push::Pushed(0);
            }
            if self
                .prod
                .tail
                .compare_exchange_weak(t, t + take, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
            {
                break (t, take);
            }
        };
        let marked = sampled(start, got as usize).min(got as usize) as u64;
        fence(Ordering::Release);
        self.write_runs(start, marked, stamp | crate::spans::SAMPLE_BIT);
        self.write_runs(start + marked, got - marked, stamp);
        self.ring_if_due(start + got);
        Push::Pushed(got as usize)
    }

    /// Writes sequences `[s, s + n)` as runs of at most [`RUN_MAX`]
    /// tuples carrying `payload`: one slot store per run, at its first
    /// sequence.
    #[inline]
    fn write_runs(&self, mut s: u64, n: u64, payload: u64) {
        let slots = &self.fixed.slots;
        let mask = slots.len() as u64 - 1;
        let end = s + n;
        while s < end {
            let count = (end - s).min(RUN_MAX as u64);
            let word = payload | ((count - 1) << COUNT_SHIFT) | VALID_BIT;
            slots[(s & mask) as usize].store(word, Ordering::Relaxed);
            s += count;
        }
    }

    /// Tuples free for a producer that loaded tail `t`, judged by `head`
    /// (the real one or `head_seen`). Saturating: `t` may be stale, and a
    /// `head` read after it — or a `head_seen` another producer refreshed
    /// meanwhile — already past it; that reads as an empty ring, the CAS
    /// fails on the moved `tail` and the loop reloads.
    #[inline]
    fn room(&self, t: u64, head: u64) -> u64 {
        self.fixed.cap.saturating_sub(t.saturating_sub(head))
    }

    /// The producer half of the doorbell; `tail_after` is the end of the
    /// caller's own reservation. Reads the consumer's line only when a
    /// consumer is waiting.
    #[inline]
    fn ring_if_due(&self, tail_after: u64) {
        let want = self.prod.want.load(Ordering::SeqCst);
        if want == 0 {
            return;
        }
        // Saturating: with several producers, one pre-empted between
        // publishing and this check can find `head` past its own slots.
        let backlog = tail_after.saturating_sub(self.cons.head.load(Ordering::Acquire));
        if backlog >= want && self.prod.want.swap(0, Ordering::SeqCst) != 0 {
            self.prod.doorbells.fetch_add(1, Ordering::Relaxed);
            if let Some(consumer) = self.fixed.consumer.get() {
                consumer.unpark();
            }
        }
    }

    /// Non-blocking batch pop into `out`: copies up to `out.len()` run
    /// words from `head` on, each without its valid bit (decode with
    /// [`run_len`] and [`run_stamp`]), zeroing each slot it reads, and
    /// returns how many. Stops at the first run not yet written, so never
    /// past a reservation still in progress. Single consumer only.
    ///
    /// Each run's sequence comes from the one before it, so the walk's
    /// loads depend on each other, and each is a line a producer core
    /// wrote: left alone, their misses queue one behind another. The walk
    /// therefore warms the lines up to [`WARM_AHEAD`] sequences ahead of
    /// itself, never past `tail` (those slots are the producers' next
    /// stores), so the misses overlap.
    pub fn pop_n(&self, out: &mut [u64]) -> usize {
        let slots = &self.fixed.slots;
        let mask = slots.len() as u64 - 1;
        let mut at = self.cons.head.load(Ordering::Relaxed);
        let tail = self.prod.tail.load(Ordering::Relaxed) & !CLOSED_BIT;
        let mut warmed = at;
        let mut n = 0;
        for word_out in out.iter_mut() {
            while warmed < tail.min(at + WARM_AHEAD) {
                warm(&slots[(warmed & mask) as usize]);
                warmed += LINE_SLOTS;
            }
            let slot = &slots[(at & mask) as usize];
            let word = slot.load(Ordering::Relaxed);
            if word & VALID_BIT == 0 {
                break;
            }
            // Clear on read, before `head` moves past it (module docs).
            slot.store(0, Ordering::Relaxed);
            *word_out = word & !VALID_BIT;
            at += run_len(word) as u64;
            n += 1;
        }
        if n > 0 {
            // Pairs with the producers' release fence; the release store
            // heads the chain to their acquire load of `head` or, through
            // the producer that refreshed it, of `head_seen`, so the
            // cleared slots are safe to reuse.
            fence(Ordering::Acquire);
            self.cons.head.store(at, Ordering::Release);
        }
        n
    }

    /// Blocking batch pop, bell-or-timeout: returns as soon as anything
    /// is ready, otherwise publishes the ring's bell (`max(1, cap / 4)`
    /// tuples, whatever `out.len()` is) as `want` and waits until the
    /// backlog reaches it or `PARK` (200 µs) has elapsed, whichever is
    /// first, and pops what is there. Returns the number of run words
    /// popped, and `0` **only** when the ring is closed and `head` has met
    /// the frozen `tail` (every reservation made before the close is
    /// popped); otherwise ≥ 1.
    ///
    /// A tuple pushed to an *empty* ring therefore waits at most `PARK`
    /// plus timer slack plus one wake-up (≈ 0.3 ms) unless a quarter of
    /// the ring arrives first, and at most `min(bell − 1, λ·(PARK +
    /// slack))` tuples sit behind a parked consumer. The bell rings
    /// only for an arrival rate that could fill the ring within four
    /// timer waits, and then three quarters of it are still free for the
    /// wake. Under backlog the consumer never gets here.
    ///
    /// The doorbell is a Dekker pairing, SeqCst on both sides: the
    /// consumer stores `want` then loads `tail`; a producer advances
    /// `tail` (the reservation CAS) then loads `want`. Whichever comes
    /// second in the total order sees the other's store, so either the
    /// consumer sees the bell's backlog and does not park, or the
    /// producer that completed it sees `want` and rings. What slips
    /// through (a close racing the registration of the consumer's
    /// handle, a bell spent on a stale `want`) costs one `PARK`, never a
    /// tuple.
    ///
    /// Single consumer only, and always the same thread: its handle is
    /// registered once (a supervisor that restarts a panicked worker
    /// loop does so on the worker's own thread).
    pub fn pop_wait(&self, out: &mut [u64]) -> usize {
        let want = u64::from(self.fixed.bell);
        loop {
            let n = self.pop_n(out);
            if n > 0 {
                return n;
            }
            match self.backlog() {
                (0, true) => return 0,
                // Closing drain: nothing is ready, yet a reservation
                // below the frozen tail is still being written.
                (_, true) => std::hint::spin_loop(),
                (_, false) => {
                    let me = self.fixed.consumer.get_or_init(std::thread::current);
                    debug_assert_eq!(
                        me.id(),
                        std::thread::current().id(),
                        "the ring's consumer must stay on one thread"
                    );
                    self.prod.want.store(want, Ordering::SeqCst);
                    // `tail` counts reserved-but-unwritten tuples: behind
                    // a producer pre-empted mid-push this loops on
                    // `pop_n` rather than wait out `PARK` with the bell's
                    // backlog queued.
                    let (backlog, closed) = self.backlog();
                    if backlog < want && !closed {
                        std::thread::park_timeout(PARK);
                    }
                    self.prod.want.store(0, Ordering::SeqCst);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::SAMPLE_BIT;
    use std::sync::Arc;

    /// The run word a pop returns for `count` tuples stamped `stamp`.
    fn run(stamp: u64, count: usize) -> u64 {
        stamp | ((count as u64 - 1) << COUNT_SHIFT)
    }

    #[test]
    fn push_pop_roundtrip_preserves_fifo() {
        let ring = SpscRing::new(1024);
        assert_eq!(ring.push(10), Push::Pushed(1));
        assert_eq!(ring.push_repeat(20, 3), Push::Pushed(3));
        assert_eq!(ring.push_repeat(30 | SAMPLE_BIT, 2), Push::Pushed(2));
        // More than one run's worth: one head per 256 tuples.
        assert_eq!(ring.push_repeat(40, 600), Push::Pushed(600));
        let mut out = [0u64; 8];
        assert_eq!(ring.pop_n(&mut out), 6);
        let expect = [
            10,
            run(20, 3),
            run(30, 2) | SAMPLE_BIT,
            run(40, 256),
            run(40, 256),
            run(40, 88),
        ];
        assert_eq!(out[..6], expect);
        assert_eq!(out[..6].iter().map(|w| run_len(*w)).sum::<usize>(), 606);
        let stamps: Vec<u64> = out[..6].iter().map(|w| run_stamp(*w)).collect();
        assert_eq!(stamps, [10, 20, 30, 40, 40, 40]);
        assert_eq!(ring.pop_n(&mut out), 0);
        assert!(ring.is_empty());
    }

    #[test]
    fn ring_is_three_cache_lines_and_one_word_per_slot() {
        assert_eq!(std::mem::size_of::<SpscRing>(), 3 * 64);
        assert_eq!(std::mem::align_of::<SpscRing>(), 64);
        // The consumer's line holds `head` and nothing a push reads
        // unasked; the doorbell's two words share the producers' line.
        assert_eq!(std::mem::offset_of!(SpscRing, cons), 0);
        assert_eq!(std::mem::size_of::<ConsumerLine>(), 8);
        assert_eq!(std::mem::offset_of!(SpscRing, prod), 64);
        assert_eq!(std::mem::size_of::<ProducerLine>(), 32);
        assert_eq!(std::mem::offset_of!(SpscRing, fixed), 128);
        // The heap is the slot words and nothing else (131 072 slots is
        // `rt_overload_3x`'s shard: 1 MiB where two arrays took 2).
        let ring = SpscRing::new(100_000);
        assert_eq!(std::mem::size_of_val(&*ring.fixed.slots), 131_072 * 8);
    }

    #[test]
    fn zero_is_a_payload_and_a_fresh_slot_is_not() {
        let ring = SpscRing::new(2);
        let mut out = [7u64; 4];
        assert_eq!(ring.pop_n(&mut out), 0, "a zeroed array holds no run");
        // Laps 0 to 3 of both slots: a singleton of stamp `0` pops as
        // exactly `0`, its slot reads empty once popped, and the sample
        // mark and the largest stamp round-trip.
        for lap in 0..4u64 {
            assert_eq!(ring.push(0), Push::Pushed(1), "lap {lap}");
            assert_eq!(ring.pop_n(&mut out), 1);
            assert_eq!(out[0], 0);
            assert_eq!(ring.pop_n(&mut out), 0, "lap {lap}: a popped run is gone");
            assert!(ring.fixed.slots.iter().all(|s| s.load(Ordering::Relaxed) == 0));
            let marked = (STAMP_MASK - lap) | SAMPLE_BIT;
            assert_eq!(ring.push(marked), Push::Pushed(1));
            assert_eq!(ring.push_repeat(0, 2), Push::Pushed(1));
            assert_eq!(ring.pop_n(&mut out), 2);
            assert_eq!(out[..2], [marked, 0]);
        }
    }

    /// Bits 54–62 of a stamp are the ring's: a debug build refuses them,
    /// a release build strips them rather than let them forge a run's
    /// count or validity.
    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "are the ring's"))]
    fn a_payload_cannot_forge_the_lap_tag() {
        let ring = SpscRing::new(4);
        let mut out = [0u64; 4];
        for lap in 0..3 {
            assert_eq!(
                ring.push_repeat(VALID_BIT | (7 << COUNT_SHIFT) | 5, 4),
                Push::Pushed(4),
                "lap {lap}"
            );
            assert_eq!(ring.pop_n(&mut out), 1);
            assert_eq!(out[0], run(5, 4));
        }
    }

    /// The doorbell's Dekker pairing needs the reservation CAS, the
    /// `want` accesses and the consumer's `tail` load SeqCst, and slot
    /// reuse needs `head` and `head_seen` Release-stored and
    /// Acquire-loaded, with the consumer's clears before its `head`
    /// store. No run on x86 can tell: a locked RMW is a full fence there
    /// at any ordering, a plain load an acquire and a plain store a
    /// release, and a `head` stored before the clears loses a run only
    /// if a producer lands in the two instructions between. Until ROADMAP
    /// 3(a)'s explorer models a store buffer, the orderings are pinned in
    /// the source.
    #[test]
    fn the_dekker_pairing_is_seqcst_in_the_source() {
        let src: String = include_str!("ring.rs").split_whitespace().collect();
        let src = &src[..src.find("#[cfg(test)]").unwrap()];
        let pins = [
            "compare_exchange_weak(t,t+take,Ordering::SeqCst,Ordering::Relaxed)",
            "self.prod.want.load(Ordering::SeqCst)",
            "self.prod.want.swap(0,Ordering::SeqCst)",
            "self.prod.want.store(want,Ordering::SeqCst)",
            "self.prod.tail.load(Ordering::SeqCst)",
            "self.prod.tail.fetch_or(CLOSED_BIT,Ordering::SeqCst)",
            // The slot-reuse chain through a refreshing producer.
            "self.cons.head.store(at,Ordering::Release)",
            "self.prod.head_seen.store(head,Ordering::Release)",
            "self.prod.head_seen.load(Ordering::Acquire)",
            // Clear on read, then `head`.
            "slot.store(0,Ordering::Relaxed)",
        ];
        for pinned in pins {
            assert!(src.contains(pinned), "{pinned}");
        }
        // A producer stores (the CAS) before it loads: its one `want`
        // load sits below the reservation.
        assert_eq!(src.matches("self.prod.want.load(").count(), 1);
        assert!(src.find(pins[0]) < src.find(pins[1]), "`want` loaded above the CAS");
        // The consumer's one `head` store follows its clears.
        assert_eq!(src.matches("self.cons.head.store(").count(), 1);
        assert!(src.find(pins[9]) < src.find(pins[6]), "`head` stored above the clear");
    }

    #[test]
    fn capacity_is_logical_not_rounded() {
        let ring = SpscRing::new(5);
        assert_eq!(ring.capacity(), 5);
        assert_eq!(ring.push_repeat(7, 9), Push::Pushed(5));
        assert_eq!(ring.push(7), Push::Pushed(0));
        assert_eq!(ring.len(), 5);
        let mut out = [0u64; 16];
        assert_eq!(ring.pop_n(&mut out), 1);
        assert_eq!(out[0], run(7, 5));
        assert_eq!(ring.push_repeat(3, 2), Push::Pushed(2));
    }

    #[test]
    fn a_push_refreshes_head_seen_only_when_its_copy_says_no_room() {
        for cap in [1usize, 5, 8] {
            let ring = SpscRing::new(cap);
            let mut out = vec![0u64; cap];
            assert_eq!(ring.push_repeat(1, cap), Push::Pushed(cap));
            assert_eq!(ring.pop_n(&mut out), 1);
            // `head_seen` is still 0 and reads "full": the push must look
            // at the real `head` before it answers, and take everything.
            assert_eq!(ring.prod.head_seen.load(Ordering::Acquire), 0);
            assert_eq!(ring.push_repeat(2, cap), Push::Pushed(cap), "cap {cap}");
            assert_eq!(ring.prod.head_seen.load(Ordering::Acquire), cap as u64);
            // Full by the real `head` too: short only after a refresh.
            assert_eq!(ring.push(3), Push::Pushed(0), "cap {cap}");
            assert_eq!(ring.pop_n(&mut out), 1);
            assert_eq!(out[0], run(2, cap));
        }
        // A `head_seen` refreshed past a stale `tail` is an empty ring
        // (whose CAS then fails), not a wrapped-around full one.
        let ring = SpscRing::new(8);
        assert_eq!([5, 7, 9, 15].map(|t| ring.room(t, 7)), [8, 8, 6, 0]);
        // While the copy shows room the consumer's line is left alone.
        let mut out = [0u64; 2];
        for _ in 0..3 {
            assert_eq!(ring.push_repeat(4, 2), Push::Pushed(2));
            assert_eq!(ring.pop_n(&mut out), 1);
        }
        assert_eq!(ring.prod.head_seen.load(Ordering::Acquire), 0);
    }

    #[test]
    fn wraparound_many_times_keeps_order() {
        // Runs of 1–4 tuples, a sampled head on every third, through a
        // 4-slot ring: heads land on every slot, and a run's other slots
        // keep whatever an earlier lap left there — zero, since its pop
        // cleared it.
        let ring = SpscRing::new(4);
        let mut tuples = 0u64;
        let mut out = [0u64; 4];
        for round in 0..1000u64 {
            let n = (round % 4 + 1) as usize;
            let marked = usize::from(round % 3 == 0);
            assert_eq!(
                ring.push_sampled(round, n, |start, got| {
                    assert_eq!((start, got), (tuples, n));
                    marked
                }),
                Push::Pushed(n)
            );
            let words = ring.pop_n(&mut out);
            let mut expect = vec![run(round, n)];
            if marked == 1 && n > 1 {
                expect = vec![run(round, 1) | SAMPLE_BIT, run(round, n - 1)];
            } else if marked == 1 {
                expect = vec![round | SAMPLE_BIT];
            }
            assert_eq!(out[..words], expect, "round {round}");
            tuples += n as u64;
        }
        assert_eq!(tuples, (0..1000u64).map(|r| r % 4 + 1).sum::<u64>());
    }

    #[test]
    fn close_rejects_new_pushes_but_drains_existing() {
        let ring = SpscRing::new(8);
        assert_eq!(ring.push_repeat(1, 3), Push::Pushed(3));
        ring.close();
        assert_eq!(ring.push(9), Push::Closed);
        let mut out = [0u64; 8];
        assert_eq!(ring.pop_wait(&mut out), 1);
        assert_eq!(out[0], run(1, 3));
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

    #[test]
    fn sojourn_is_exact_across_the_stamp_wrap() {
        assert_eq!(sojourn_ns(1_500, 500), 1_000);
        // 1 000 ns before the wrap to 500 ns after it.
        assert_eq!(sojourn_ns(500, STAMP_MASK - 999), 1_500);
        assert_eq!(sojourn_ns(0, STAMP_MASK), 1);
        // Up to half the stamp range is a sojourn; past it, a stamp from
        // the future reads 0 rather than 208 days.
        assert_eq!(sojourn_ns(STAMP_MASK >> 1, 0), STAMP_MASK >> 1);
        assert_eq!(sojourn_ns(500, 1_500), 0);
        assert_eq!(sojourn_ns(STAMP_MASK, 0), 0);
        let ring = SpscRing::new(1);
        assert!(ring.stamp_now() <= STAMP_MASK);
    }

    impl SpscRing {
        /// Stands in for a consumer parked in `pop_wait`, without a
        /// clock: the calling thread registers itself and publishes the
        /// bell as `want`.
        pub(crate) fn park_here(&self) {
            self.fixed.consumer.get_or_init(std::thread::current);
            let bell = u64::from(self.fixed.bell);
            self.prod.want.store(bell, Ordering::SeqCst);
        }
    }

    /// Consumes this thread's unpark token; `false` if none was pending
    /// (the 10 s park is the failure path, not a measurement).
    fn took_unpark_token() -> bool {
        let t0 = Instant::now();
        std::thread::park_timeout(Duration::from_secs(10));
        t0.elapsed() < Duration::from_secs(5)
    }

    #[test]
    fn doorbell_rings_once_at_a_quarter_and_not_below() {
        let ring = SpscRing::new(1024);
        ring.park_here();
        for i in 0..255 {
            assert_eq!(ring.push(i), Push::Pushed(1));
        }
        assert_eq!(
            ring.doorbells(),
            0,
            "a backlog below a quarter of the ring is the timeout's job"
        );
        assert_eq!(ring.prod.want.load(Ordering::SeqCst), 256);
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
            ring.park_here();
            // Each of the four reaches the bell from its own point of
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
            // One run of 255 and four singletons.
            assert_eq!(ring.pop_n(&mut out), 5);
            assert_eq!(out[..5].iter().map(|w| run_len(*w)).sum::<usize>(), 259);
        }
    }

    /// The bell is a quarter of the ring and never 0 (which `want` reads
    /// as "not waiting"): below it no push rings, the push that reaches
    /// it rings exactly once, and a ring of 1–7 slots rings on every push.
    #[test]
    fn bell_is_a_quarter_of_capacity_and_never_zero() {
        let caps = [1, 2, 3, 4, 5, 8, 1024, 65_536];
        let bells = [1, 1, 1, 1, 1, 2, 256, 16_384];
        for (cap, bell) in caps.into_iter().zip(bells) {
            let ring = SpscRing::new(cap);
            assert_eq!(ring.bell(), bell, "cap {cap}");
            ring.park_here();
            for i in 1..bell {
                assert_eq!(ring.push(i as u64), Push::Pushed(1));
            }
            assert_eq!(ring.doorbells(), 0, "cap {cap}: a backlog of bell − 1");
            assert_eq!(ring.prod.want.load(Ordering::SeqCst), bell as u64);
            assert_eq!(ring.push(7), Push::Pushed(1));
            assert_eq!(ring.doorbells(), 1, "cap {cap}: the push at the bell");
            assert!(took_unpark_token(), "cap {cap}");
            assert_eq!(ring.push_repeat(7, cap), Push::Pushed(cap - bell));
            assert_eq!(ring.doorbells(), 1, "cap {cap}: one bell per park");
        }
    }

    #[test]
    fn close_wakes_a_sub_batch_backlog_without_counting_a_bell() {
        let ring = SpscRing::new(1024);
        ring.park_here();
        assert_eq!(ring.push_repeat(9, 10), Push::Pushed(10));
        ring.close();
        assert!(took_unpark_token());
        assert_eq!(ring.doorbells(), 0);
        let mut out = [0u64; 256];
        assert_eq!(ring.pop_wait(&mut out), 1);
        assert_eq!(out[0], run(9, 10));
        assert_eq!(ring.pop_wait(&mut out), 0);
        assert_eq!(ring.pop_wait(&mut out), 0);
    }

    #[test]
    fn stalled_producer_behind_head_neither_rings_nor_panics() {
        // A producer pre-empted between publishing slots 0..2 and its
        // doorbell check: by the time it looks, the consumer has popped
        // past them (head 4) and parked again, waiting for a bell of 1.
        let ring = SpscRing::new(4);
        assert_eq!(ring.push_repeat(1, 4), Push::Pushed(4));
        let mut out = [0u64; 16];
        assert_eq!(ring.pop_n(&mut out), 1);
        ring.park_here();
        ring.ring_if_due(2);
        assert_eq!(ring.doorbells(), 0);
        assert_eq!(
            ring.prod.want.load(Ordering::SeqCst),
            1,
            "the request stands"
        );
    }

    /// A consumer thread popping into `BUF` words until the ring closes;
    /// returns every popped tuple's wait (pop time − its stamp), ns.
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
                for word in &out[..n] {
                    let wait = sojourn_ns(now, run_stamp(*word));
                    waits.extend(std::iter::repeat_n(wait, run_len(*word)));
                }
            }
        })
    }

    /// Spins until the consumer has published a `want` (it is between
    /// that store and its park, or parked).
    fn await_waiting_consumer(ring: &SpscRing) {
        while ring.prod.want.load(Ordering::SeqCst) == 0 {
            std::hint::spin_loop();
        }
    }

    /// A backlog one short of the bell, pushed at a parked consumer,
    /// rings nothing and is delivered by the park's timeout.
    #[test]
    fn sub_batch_backlog_arrives_by_timeout_without_a_bell() {
        let ring = Arc::new(SpscRing::new(1024));
        let below = ring.bell() - 1;
        let consumer = spawn_timing_consumer::<256>(&ring);
        await_waiting_consumer(&ring);
        let stamp = ring.stamp_now();
        assert_eq!(ring.push_repeat(stamp, below), Push::Pushed(below));
        while !ring.is_empty() {
            std::hint::spin_loop();
        }
        assert_eq!(ring.doorbells(), 0);
        ring.close();
        let waits = consumer.join().unwrap();
        assert_eq!(waits.len(), below);
        // The property is delivery without a bell. How *soon* the
        // timeout delivers is a claim about `PARK` that a wall clock on
        // a shared host cannot hold (one vCPU stall exceeds any small
        // multiple of it); that tight bound belongs to the injected
        // clock of ROADMAP 3(b). Here the wait only has to stay inside the
        // delay target the engine runs against.
        let bound = Duration::from_millis(250).as_nanos() as u64;
        let worst = waits.iter().copied().max().unwrap();
        assert!(worst <= bound, "worst wait {worst} ns > 250 ms");
    }

    #[test]
    fn pushes_aimed_at_the_park_window_do_not_lose_the_wake_up() {
        // A ring whose bell is 1 makes every push ring-worthy, and every
        // push is fired the moment `want` appears — i.e. into the window
        // between the consumer's `want` store and its park, where a
        // broken handshake would leave the tuple to the timeout.
        const PUSHES: usize = 10_000;
        let ring = Arc::new(SpscRing::new(4));
        assert_eq!(ring.bell(), 1);
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
