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
use std::sync::{Condvar, Mutex};
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

/// How long a waiting consumer parks on the doorbell before re-checking
/// the ring. A missed wakeup therefore costs at most this much latency,
/// which keeps the producer→consumer handshake simple (no exactly-once
/// wakeup protocol is needed for correctness).
const PARK: Duration = Duration::from_micros(200);

/// Spin/yield rounds before a consumer parks on the doorbell.
const SPIN_ROUNDS: u32 = 64;

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
    /// Consumer-is-parked hint; producers ring the doorbell only when set.
    sleeping: AtomicBool,
    /// Doorbell for a parked consumer.
    doorbell: Mutex<()>,
    /// Condition variable paired with `doorbell`.
    wake: Condvar,
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
            sleeping: AtomicBool::new(false),
            doorbell: Mutex::new(()),
            wake: Condvar::new(),
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

    /// Closes the ring. Idempotent; pushes that start after this returns
    /// deterministically see [`Push::Closed`]. The consumer drains any
    /// payloads (including racing in-flight pushes) before
    /// [`pop_wait`](Self::pop_wait) reports exhaustion.
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        // Wake a parked consumer so it can run the closing drain.
        let _g = self.doorbell.lock().unwrap();
        self.wake.notify_all();
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
        // Reserve up to `n` slots with one CAS on `tail`.
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
                .compare_exchange_weak(t, t + take, Ordering::Relaxed, Ordering::Relaxed)
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
        if self.sleeping.load(Ordering::SeqCst) {
            let _g = self.doorbell.lock().unwrap();
            self.wake.notify_all();
        }
        Push::Pushed(got as usize)
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

    /// Blocking batch pop: spins briefly, then parks on the doorbell.
    /// Returns `0` **only** when the ring is closed and fully drained
    /// (no racing push can be stranded); otherwise returns ≥ 1.
    pub fn pop_wait(&self, out: &mut [u64]) -> usize {
        let mut spins = 0u32;
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
            spins += 1;
            if spins <= SPIN_ROUNDS {
                std::hint::spin_loop();
                if spins.is_multiple_of(16) {
                    std::thread::yield_now();
                }
                continue;
            }
            // Park. The PARK timeout bounds the cost of any lost-wakeup
            // race; correctness never depends on the doorbell.
            self.sleeping.store(true, Ordering::SeqCst);
            if !self.is_empty() || self.closed.load(Ordering::SeqCst) {
                self.sleeping.store(false, Ordering::SeqCst);
                continue;
            }
            let g = self.doorbell.lock().unwrap();
            if self.is_empty() && !self.closed.load(Ordering::SeqCst) {
                let _ = self.wake.wait_timeout(g, PARK).unwrap();
            }
            self.sleeping.store(false, Ordering::SeqCst);
            spins = 0;
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

    #[test]
    fn stamps_are_monotone_against_epoch() {
        let ring = SpscRing::new(4);
        let a = ring.stamp_now();
        std::thread::sleep(Duration::from_millis(2));
        let b = ring.stamp_now();
        assert!(b > a);
    }
}
