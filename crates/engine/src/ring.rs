//! Bounded lock-free ingress ring for the shard data plane.
//!
//! The per-shard mailbox is the hottest shared structure in the engine
//! and most of its memory, so it is a purpose-built ring, not a general
//! channel. Its whole protocol lives in four kinds of word:
//!
//! * **A slot is one `u64`: payload and readiness together.** Head and
//!   tail are monotonically increasing sequence numbers; sequence `s`
//!   lives in slot `s & mask` on lap `s >> log2(slots)`, and bit 62 of
//!   the word ([`LAP_BIT`]) is a *lap-parity tag*: `s` is ready iff the
//!   bit equals `(lap + 1) & 1`. A zero-initialised array so reads "not
//!   ready" on lap 0, and one bit is enough because the one consumer
//!   retires slots in order and `s` is reserved only once `s − slots` is
//!   retired: a slot holds lap L−1 or lap L, never L−2. The other 63 bits
//!   are the payload (62 value bits, [`SAMPLE_BIT`](crate::spans::SAMPLE_BIT)
//!   in bit 63), returned as pushed; `0` is legal — only the tag tells it
//!   from an empty slot. There is no second array and no publish pass.
//! * **`tail` is the reservation counter and the door.** A producer
//!   reserves `n` slots with one SeqCst CAS; [`SpscRing::close`] is
//!   `tail.fetch_or(CLOSED_BIT)` (bit 63). A producer that loads a closed
//!   `tail` returns [`Push::Closed`], one that raced the close loses its
//!   CAS and reloads: reservation and close are linearised on one word,
//!   the reservations below the frozen tail are exactly the pushes that
//!   land, and the closing drain pops until `head` meets it. Every other
//!   reader of `tail` masks the bit.
//! * **`head` is the consumer's, and a push does not read it.** `head`
//!   is release-stored after a batch is copied out. Producers size a
//!   reservation against `head_seen`, their own copy on their own line,
//!   and load the real `head` only when the copy says the reservation
//!   does not fit. A stale copy is conservative: `head` only grows, so
//!   `head_seen ≤ head` under-reports the room and can cost a refresh,
//!   never a slot still unread — and a short push is returned only after
//!   a refresh. What makes slot reuse safe is a release/acquire chain
//!   through whichever producer refreshed: consumer `head` store
//!   (Release) → that producer's `head` load (Acquire) → its `head_seen`
//!   store (Release) → this producer's `head_seen` load (Acquire) → its
//!   slot stores.
//! * **`want` is the batch-or-timeout hand-off**, on the producers' line
//!   beside `tail`, the word it is paired with: an idle consumer
//!   publishes the backlog it waits for and parks ≤ `PARK` on its own
//!   [`Thread`] handle, and only the push that completes that backlog
//!   unparks it — a parked worker costs a push one load of a line it
//!   already holds. See [`SpscRing::pop_wait`].
//!
//! **Ordering.** A slot word validates itself, so the payload needs no
//! release/acquire pass of its own. One [`fence`]`(Release)` before a
//! batch's stores and one [`fence`]`(Acquire)` after the consumer's scan
//! are kept all the same: they make a push *happen before* its pop, as a
//! hand-off should, and cost nothing on TSO. A producer writes its
//! reservation **last slot first**, so on TSO the consumer's prefix scan
//! finds a batch whole or not at all instead of chasing the producer's
//! frontier in slivers. That buys throughput, never correctness: on a
//! weaker target the stores land in any order and the scan still stops
//! at the first slot whose tag is not this lap's.
//!
//! Payloads are *stamps*: nanoseconds since the ring's
//! [`epoch`](SpscRing::epoch) (< 2⁶² for 146 years), which all rings of
//! an engine share so one front-door timestamp serves a batch. The ring
//! is multi-producer / single-consumer; the name keeps the SPSC intent
//! of the per-shard topology — exactly one worker ever pops.

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
    /// `n` payloads were enqueued (may be less than requested when the
    /// ring ran out of capacity mid-batch; the shortfall was *not*
    /// enqueued and maps to `rejected_capacity` at the front door).
    Pushed(usize),
    /// The ring was closed before the push reserved; nothing was enqueued.
    Closed,
}

/// How long a waiting consumer parks before re-checking the ring: the
/// "timeout" of the batch-or-timeout hand-off (a backlog below the
/// consumer's batch is never announced and waits at most this long plus
/// ≈ 50 µs of timer slack) and the cost bound of any missed doorbell,
/// which is why the handshake needs no exactly-once wake-up protocol.
const PARK: Duration = Duration::from_micros(200);

/// Bit 62 of a slot word, the lap-parity tag (module docs). It is the
/// ring's: a pushed payload must leave it clear.
pub const LAP_BIT: u64 = 1 << 62;

/// Bit 63 of `tail`: set once by [`SpscRing::close`], never cleared.
const CLOSED_BIT: u64 = 1 << 63;
const _: () = assert!(crate::spans::SAMPLE_BIT & LAP_BIT == 0);

/// The consumer's line: `head` alone. The consumer stores it per pop; a
/// producer loads it only to refresh `head_seen` or to size a doorbell.
#[derive(Debug, Default)]
struct ConsumerLine {
    /// Next sequence the consumer will pop.
    head: AtomicU64,
}

/// The producers' line: everything a push reads or writes besides slots.
#[derive(Debug, Default)]
struct ProducerLine {
    /// Next sequence a producer will reserve, plus [`CLOSED_BIT`].
    tail: AtomicU64,
    /// Backlog a parked consumer asked to be woken at, else 0. Stored by
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
    /// Logical capacity (as requested, ≤ `slots.len()`): no push admits
    /// more than `cap` outstanding payloads.
    cap: u64,
    /// `log2(slots.len())`: a sequence's lap is `s >> shift`.
    shift: u32,
    /// Time origin for payload stamps.
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
    /// Creates a ring that can hold `capacity` payloads, with its own
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
                shift: slots.trailing_zeros(),
                epoch,
                consumer: OnceLock::new(),
            }),
        }
    }

    /// The ring's stamp epoch.
    pub fn epoch(&self) -> Instant {
        self.fixed.epoch
    }

    /// Current stamp: nanoseconds elapsed since the epoch.
    pub fn stamp_now(&self) -> u64 {
        self.fixed.epoch.elapsed().as_nanos() as u64
    }

    /// Logical capacity.
    pub fn capacity(&self) -> usize {
        self.fixed.cap as usize
    }

    /// `tail` as everyone but a reserving producer reads it: payloads
    /// reserved and not yet popped (the close bit masked off), and whether
    /// the ring is closed. SeqCst: the consumer's load in the doorbell.
    fn backlog(&self) -> (u64, bool) {
        let h = self.cons.head.load(Ordering::Acquire);
        let t = self.prod.tail.load(Ordering::SeqCst);
        ((t & !CLOSED_BIT).saturating_sub(h), t & CLOSED_BIT != 0)
    }

    /// Approximate number of queued payloads; frozen reservations
    /// included, so exact once the ring is closed and the consumer idle.
    pub fn len(&self) -> usize {
        self.backlog().0 as usize
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
    /// consumer because a full batch was ready); `close()` is not counted.
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

    /// Pushes one payload. Equivalent to `push_repeat(value, 1)`.
    pub fn push(&self, value: u64) -> Push {
        self.push_repeat(value, 1)
    }

    /// Pushes `n` copies of `value` in one reservation. Returns
    /// [`Push::Pushed`] with the number enqueued (0..=n; short when
    /// capacity ran out) or [`Push::Closed`] if the ring closed first.
    pub fn push_repeat(&self, value: u64, n: usize) -> Push {
        self.push_with(n, |_| value)
    }

    /// Pushes `n` payloads produced by `f(i)` for `i` in `0..pushed`,
    /// called **last index first** (module docs). Same contract as
    /// [`push_repeat`](Self::push_repeat). Bit 62 of what `f` returns is
    /// the ring's ([`LAP_BIT`]): it must be clear and is stripped.
    ///
    /// The push rings the doorbell only if a consumer is waiting, this
    /// push brought the backlog up to the batch it asked for, and this
    /// producer cleared the request: one `unpark` per park however many
    /// producers race; a smaller backlog is left to the park's timeout.
    pub fn push_with(&self, n: usize, mut f: impl FnMut(usize) -> u64) -> Push {
        // Reserve up to `n` slots with one CAS on `tail`, also the close
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
        // Write the reservation last slot first: it is at most two
        // stretches, the later one first and each from its far end.
        fence(Ordering::Release);
        let (tag, run) = self.stretch(start, got as usize);
        let wrapped = self.stretch(start + run.len() as u64, got as usize - run.len());
        for (base, (tag, run)) in [(run.len(), wrapped), (0, (tag, run))] {
            for (i, slot) in run.iter().enumerate().rev() {
                let value = f(base + i);
                debug_assert_eq!(value & LAP_BIT, 0, "payload bit 62 is the ring's");
                slot.store((value & !LAP_BIT) | tag, Ordering::Relaxed);
            }
        }
        self.ring_if_batch_ready(start + got);
        Push::Pushed(got as usize)
    }

    /// Slots free for a producer that loaded tail `t`, judged by `head`
    /// (the real one or `head_seen`). Saturating: `t` may be stale, and a
    /// `head` read after it — or a `head_seen` another producer refreshed
    /// meanwhile — already past it; that reads as an empty ring, the CAS
    /// fails on the moved `tail` and the loop reloads.
    #[inline]
    fn room(&self, t: u64, head: u64) -> u64 {
        self.fixed.cap.saturating_sub(t.saturating_sub(head))
    }

    /// One lap's stretch of the slot array: the slots of sequence `s`
    /// and up to `max − 1` after it, cut at the end of the array, and
    /// what [`LAP_BIT`] reads in them once they hold those sequences.
    #[inline]
    fn stretch(&self, s: u64, max: usize) -> (u64, &[AtomicU64]) {
        let slots = &self.fixed.slots;
        let at = (s & (slots.len() as u64 - 1)) as usize;
        let tag = (((s >> self.fixed.shift) + 1) & 1) << LAP_BIT.trailing_zeros();
        (tag, &slots[at..slots.len().min(at + max)])
    }

    /// The backlog a consumer popping into `out_len` slots waits for,
    /// clamped to capacity: a ring smaller than the buffer rings when full.
    fn batch_want(&self, out_len: usize) -> u64 {
        (out_len as u64).clamp(1, self.fixed.cap)
    }

    /// The producer half of the doorbell; `tail_after` is the end of the
    /// caller's own reservation. Reads the consumer's line only when a
    /// consumer is waiting.
    #[inline]
    fn ring_if_batch_ready(&self, tail_after: u64) {
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

    /// Non-blocking batch pop into `out`: copies the contiguous prefix
    /// of slots whose tag is their lap's (so never past a reservation
    /// still being written) and returns its length. Single consumer only.
    pub fn pop_n(&self, out: &mut [u64]) -> usize {
        let h = self.cons.head.load(Ordering::Relaxed);
        let mut n = 0;
        while n < out.len() {
            let (tag, run) = self.stretch(h + n as u64, out.len() - n);
            let ready = std::iter::zip(run, &mut out[n..])
                .map_while(|(slot, out)| {
                    let word = slot.load(Ordering::Relaxed);
                    (word & LAP_BIT == tag).then(|| *out = word & !LAP_BIT)
                })
                .count();
            n += ready;
            if ready < run.len() {
                break;
            }
        }
        if n > 0 {
            // Pairs with the producers' release fence; the release store
            // heads the chain to their acquire load of `head` or, through
            // the producer that refreshed it, of `head_seen`, so the
            // slots are safe to reuse.
            fence(Ordering::Acquire);
            self.cons.head.store(h + n as u64, Ordering::Release);
        }
        n
    }

    /// Blocking batch pop, batch-or-timeout: returns as soon as anything
    /// is ready, otherwise waits until a full batch (`out.len()`, clamped
    /// to capacity) has been pushed or `PARK` (200 µs) has elapsed,
    /// whichever is first, and pops what is there. Returns `0` **only**
    /// when the ring is closed and `head` has met the frozen `tail` (every
    /// reservation made before the close is popped); otherwise ≥ 1.
    ///
    /// A payload pushed to an *empty* ring therefore waits at most `PARK`
    /// plus timer slack plus one wake-up (≈ 0.3 ms), and at most
    /// `min(want − 1, λ·PARK)` payloads sit behind a parked consumer.
    /// Under backlog the consumer never gets here.
    ///
    /// The doorbell is a Dekker pairing, SeqCst on both sides: the
    /// consumer stores `want` then loads `tail`; a producer advances
    /// `tail` (the reservation CAS) then loads `want`. Whichever comes
    /// second in the total order sees the other's store, so either the
    /// consumer sees the full batch and does not park, or the producer
    /// that completed it sees `want` and rings. What slips through (a
    /// close racing the registration of the consumer's handle, a bell
    /// spent on a stale `want`) costs one `PARK`, never a payload.
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
                    // `tail` counts reserved-but-unwritten slots: behind
                    // a producer pre-empted mid-push this loops on
                    // `pop_n` rather than wait out `PARK` with a full
                    // batch queued.
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
        use crate::spans::SAMPLE_BIT;
        let ring = SpscRing::new(2);
        let mut out = [7u64; 4];
        assert_eq!(ring.pop_n(&mut out), 0, "a zeroed array is not lap 0");
        // Laps 0 to 3 of both slots: `0` differs from what the slot held
        // a lap ago by the tag alone, and the sample mark round-trips.
        for lap in 0..4u64 {
            assert_eq!(ring.push(0), Push::Pushed(1), "lap {lap}");
            assert_eq!(ring.pop_n(&mut out), 1);
            assert_eq!(out[0], 0);
            assert_eq!(
                ring.pop_n(&mut out),
                0,
                "lap {lap}: last lap's 0 is not this lap's"
            );
            let marked = !LAP_BIT - lap;
            assert_eq!(marked & SAMPLE_BIT, SAMPLE_BIT);
            assert_eq!(ring.push(marked), Push::Pushed(1));
            assert_eq!(ring.push_repeat(0, 2), Push::Pushed(1));
            assert_eq!(ring.pop_n(&mut out), 2);
            assert_eq!(out[..2], [marked, 0]);
        }
    }

    /// Bit 62 of a payload is the ring's: a debug build refuses it, a
    /// release build strips it rather than let it flip a slot's lap.
    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "payload bit 62"))]
    fn a_payload_cannot_forge_the_lap_tag() {
        let ring = SpscRing::new(4);
        let mut out = [0u64; 4];
        for lap in 0..3 {
            assert_eq!(
                ring.push_repeat(LAP_BIT | 5, 4),
                Push::Pushed(4),
                "lap {lap}"
            );
            assert_eq!(ring.pop_n(&mut out), 4);
            assert_eq!(out, [5; 4]);
        }
    }

    /// The doorbell's Dekker pairing needs the reservation CAS, the
    /// `want` accesses and the consumer's `tail` load SeqCst, and slot
    /// reuse needs `head` and `head_seen` Release-stored and
    /// Acquire-loaded. No run on x86 can tell: a locked RMW is a full
    /// fence at any ordering there, a plain load an acquire and a plain
    /// store a release. Until ROADMAP 1b's explorer models a store
    /// buffer, the orderings are pinned in the source.
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
            "self.cons.head.store(h+nasu64,Ordering::Release)",
            "self.prod.head_seen.store(head,Ordering::Release)",
            "self.prod.head_seen.load(Ordering::Acquire)",
        ];
        for pinned in pins {
            assert!(src.contains(pinned), "{pinned}");
        }
        // A producer stores (the CAS) before it loads: its one `want`
        // load sits below the reservation.
        assert_eq!(src.matches("self.prod.want.load(").count(), 1);
        assert!(src.find(pins[0]) < src.find(pins[1]), "`want` loaded above the CAS");
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
    fn a_push_refreshes_head_seen_only_when_its_copy_says_no_room() {
        for cap in [1usize, 5, 8] {
            let ring = SpscRing::new(cap);
            let mut out = vec![0u64; cap];
            assert_eq!(ring.push_repeat(1, cap), Push::Pushed(cap));
            assert_eq!(ring.pop_n(&mut out), cap);
            // `head_seen` is still 0 and reads "full": the push must look
            // at the real `head` before it answers, and take everything.
            assert_eq!(ring.prod.head_seen.load(Ordering::Acquire), 0);
            assert_eq!(ring.push_repeat(2, cap), Push::Pushed(cap), "cap {cap}");
            assert_eq!(ring.prod.head_seen.load(Ordering::Acquire), cap as u64);
            // Full by the real `head` too: short only after a refresh.
            assert_eq!(ring.push(3), Push::Pushed(0), "cap {cap}");
            assert_eq!(ring.pop_n(&mut out), cap);
            assert_eq!(out, vec![2; cap]);
        }
        // A `head_seen` refreshed past a stale `tail` is an empty ring
        // (whose CAS then fails), not a wrapped-around full one.
        let ring = SpscRing::new(8);
        assert_eq!([5, 7, 9, 15].map(|t| ring.room(t, 7)), [8, 8, 6, 0]);
        // While the copy shows room the consumer's line is left alone.
        let mut out = [0u64; 2];
        for _ in 0..3 {
            assert_eq!(ring.push_repeat(4, 2), Push::Pushed(2));
            assert_eq!(ring.pop_n(&mut out), 2);
        }
        assert_eq!(ring.prod.head_seen.load(Ordering::Acquire), 0);
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
        ring.fixed.consumer.get_or_init(std::thread::current);
        ring.prod.want.store(want, Ordering::SeqCst);
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
        assert_eq!(
            ring.prod.want.load(Ordering::SeqCst),
            1,
            "the request stands"
        );
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
        while ring.prod.want.load(Ordering::SeqCst) == 0 {
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
