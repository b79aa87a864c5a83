//! Property and stress tests for the bounded SPSC ring behind the
//! batched front door ([`streamshed_engine::ring::SpscRing`]).
//!
//! The ring carries runs: a push of `n` tuples writes one word per 256
//! of them, at the run's first sequence, and a pop returns those words.
//! The properties check the ring against a `VecDeque` reference model of
//! run words under arbitrary interleavings of pushes of 1–600 tuples and
//! batch pops: FIFO order is exact, a push of `n` with room `r < n`
//! lands exactly `r` tuples, the logical capacity (in tuples) is never
//! exceeded, and every accepted run is popped exactly once, across the
//! 256-tuple split and the wrap of the slot array. The stress tests race
//! producers against a consumer and check, on the expanded tuples,
//! per-producer FIFO and exact conservation: a producer against a
//! consumer with a mid-flight `close()`; sixteen producers into a
//! consumer that pops one run at a time, so every push is a doorbell
//! candidate; and two batch producers lapping a 2-slot and a 4-slot
//! ring. Two tests pin the close protocol: eight producers racing
//! `close()` (the reservations below the frozen `tail` are exactly what
//! lands), and a producer parked between its reservation and its stores
//! (the consumer neither pops past the hole nor reports the ring
//! drained).

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use proptest::prelude::*;
use streamshed_engine::ring::{run_len, run_stamp, Push, SpscRing, RUN_MAX, STAMP_MASK};
use streamshed_engine::spans::SAMPLE_BIT;

/// One scripted step against the ring: push `n` tuples, or pop with an
/// `n`-word buffer.
#[derive(Debug, Clone, Copy)]
enum Step {
    Push(usize),
    Pop(usize),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (1usize..=600).prop_map(Step::Push),
        (1usize..=64).prop_map(Step::Pop),
    ]
}

/// The run word a pop returns for `count` tuples stamped `stamp`.
fn word(stamp: u64, count: usize, sampled: bool) -> u64 {
    let mark = if sampled { SAMPLE_BIT } else { 0 };
    stamp | ((count as u64 - 1) << 54) | mark
}

/// The words a reservation of `got` tuples writes with `marked` of them
/// sampled, with their tuple counts: the sampled head, then the rest,
/// each cut every 256 tuples.
fn runs_of(stamp: u64, got: usize, marked: usize) -> Vec<(u64, usize)> {
    let mut runs = Vec::new();
    for (n, sampled) in [(marked, true), (got - marked, false)] {
        let mut left = n;
        while left > 0 {
            let count = left.min(RUN_MAX);
            runs.push((word(stamp, count, sampled), count));
            left -= count;
        }
    }
    runs
}

/// The edges of the stamp domain in rotation: `0` (a slot with only the
/// valid bit), a plain stamp, the largest stamp, and one just below it.
fn edge_stamp(k: u64) -> u64 {
    match k % 4 {
        0 => 0,
        1 => k,
        2 => STAMP_MASK,
        _ => STAMP_MASK - k,
    }
}

/// How many tuples of a reservation from `start` are sampled: any
/// number, often more than the reservation (the ring clamps it), and
/// across the 256 split.
fn marked_at(start: u64) -> usize {
    (start.wrapping_mul(0x9E37_79B9) % 301) as usize
}

/// Plays `steps` against a ring of `capacity` and a `VecDeque` of the
/// run words it must return (and their counts, which the model keeps
/// itself rather than decode), push `k` stamped `stamp(k)`. The script
/// repeats — with a full pop and a full push between rounds, so an
/// all-pop or all-push script still advances — until `laps × slots`
/// tuples have been pushed.
fn check_against_model(
    capacity: usize,
    steps: &[Step],
    laps: u64,
    stamp: fn(u64) -> u64,
) -> Result<(), TestCaseError> {
    let ring = SpscRing::new(capacity);
    let slots = capacity.next_power_of_two() as u64;
    let mut model: VecDeque<(u64, usize)> = VecDeque::new();
    let mut held = 0usize;
    let (mut next, mut pushes) = (0u64, 0u64);
    loop {
        let round = [Step::Pop(capacity), Step::Push(capacity)];
        for step in steps.iter().chain(&round) {
            match *step {
                Step::Push(n) => {
                    let s = stamp(pushes);
                    pushes += 1;
                    let seen = Cell::new(None);
                    let pushed = ring.push_sampled(s, n, |start, got| {
                        seen.set(Some((start, got)));
                        marked_at(start)
                    });
                    let Push::Pushed(accepted) = pushed else {
                        return Err(TestCaseError::fail("ring is never closed here"));
                    };
                    // Exact tuple capacity, however stale the producers'
                    // `head_seen`: a push of `n` with room `r` lands
                    // `min(n, r)`.
                    prop_assert_eq!(accepted, n.min(capacity - held), "short push with room");
                    let expect_seen = (accepted > 0).then_some((next, accepted));
                    prop_assert_eq!(seen.get(), expect_seen, "sampled() sees the reservation");
                    let marked = marked_at(next).min(accepted);
                    model.extend(runs_of(s, accepted, marked));
                    next += accepted as u64;
                    held += accepted;
                }
                Step::Pop(n) => {
                    let mut buf = vec![0u64; n];
                    let got = ring.pop_n(&mut buf);
                    prop_assert_eq!(got, n.min(model.len()));
                    for &w in &buf[..got] {
                        let (expect, count) = model.pop_front().unwrap();
                        prop_assert_eq!(w, expect, "FIFO order");
                        prop_assert_eq!(run_len(w), count);
                        held -= count;
                    }
                }
            }
            prop_assert_eq!(ring.len(), held);
            prop_assert!(ring.len() <= ring.capacity(), "capacity is a hard bound");
        }
        if next >= laps * slots {
            break;
        }
    }
    // Drain: everything the model still holds comes out, in order.
    let mut buf = vec![0u64; capacity];
    while !model.is_empty() {
        let got = ring.pop_n(&mut buf);
        prop_assert!(got > 0);
        for &w in &buf[..got] {
            prop_assert_eq!(Some(w), model.pop_front().map(|run| run.0));
        }
    }
    prop_assert!(ring.is_empty());
    prop_assert_eq!(ring.pop_n(&mut buf), 0, "a drained ring holds no run");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary interleavings of pushes of 1–600 tuples and batch pops
    /// agree with the model run for run, and the ring never holds more
    /// than its logical capacity.
    #[test]
    fn ring_matches_vecdeque_model(
        capacity in 1usize..=96,
        steps in proptest::collection::vec(step_strategy(), 1..80),
    ) {
        check_against_model(capacity, &steps, 0, |k| k)?;
    }

    /// The same on rings small enough to lap on every push — one slot,
    /// exact powers of two and capacities below their slot count — and
    /// on a 65 536-tuple ring where runs of 256 cross the end of the
    /// array; each written on at least four laps, with the stamps at the
    /// edges of their domain.
    #[test]
    fn small_rings_match_the_model_lap_after_lap(
        steps in proptest::collection::vec(step_strategy(), 1..24),
    ) {
        for capacity in [1, 2, 3, 5, 8, 13, 65_536] {
            check_against_model(capacity, &steps, 4, edge_stamp)?;
        }
    }

    /// `push_repeat` and single-value `push` obey the same tuple
    /// accounting as `push_sampled`, and a sampled `push_repeat` marks
    /// every run it writes.
    #[test]
    fn push_variants_agree_on_accounting(
        capacity in 1usize..=700,
        batches in proptest::collection::vec(1usize..=600, 1..20),
    ) {
        let ring = SpscRing::new(capacity);
        let mut held = 0usize;
        for (i, n) in batches.into_iter().enumerate() {
            let stamp = if i % 2 == 0 { 7 } else { 7 | SAMPLE_BIT };
            let pushed = if n == 1 { ring.push(stamp) } else { ring.push_repeat(stamp, n) };
            let Push::Pushed(accepted) = pushed else { unreachable!() };
            prop_assert_eq!(accepted, n.min(capacity - held));
            held += accepted;
            if held == capacity {
                let mut buf = vec![0u64; capacity];
                let got = ring.pop_n(&mut buf);
                prop_assert_eq!(buf[..got].iter().map(|w| run_len(*w)).sum::<usize>(), held);
                prop_assert!(buf[..got].iter().all(|w| run_stamp(*w) == 7));
                held = 0;
            }
        }
    }
}

/// A producer's stamp: producer `p` (4 bits), the tuples it asked for
/// (10 bits) and the index of the push's first tuple (40 bits).
fn producer_stamp(p: u64, asked: usize, base: u64) -> u64 {
    debug_assert!(p < 16 && asked < 1024 && base < 1 << 40);
    p << 50 | (asked as u64) << 40 | base
}

/// Takes popped run words against each producer's next expected tuple:
/// every run continues the push its stamp names at exactly the next
/// tuple, inside what that push asked for — per-producer FIFO on the
/// expanded tuples, with no gap and no duplicate. Returns the tuples.
fn take_runs(next: &mut [u64], popped: &[u64]) -> u64 {
    let mut tuples = 0;
    for &w in popped {
        let stamp = run_stamp(w);
        let (p, asked, base) = (
            (stamp >> 50) as usize,
            (stamp >> 40) & 1023,
            stamp & ((1 << 40) - 1),
        );
        let len = run_len(w) as u64;
        assert!(
            base <= next[p] && next[p] + len <= base + asked,
            "producer {p}: run of {len} from the push at {base} (asked {asked}) while expecting tuple {}",
            next[p]
        );
        next[p] += len;
        tuples += len;
    }
    tuples
}

/// Two threads race pushes of 1–600 tuples against batched pops, with
/// `close()` fired mid-flight from the producer side. Conservation must
/// be exact: every accepted tuple is popped exactly once, in FIFO order,
/// and nothing is accepted after close.
#[test]
fn two_thread_stress_conserves_under_racing_close() {
    for round in 0..8u64 {
        let ring = Arc::new(SpscRing::new(256));
        let accepted = Arc::new(AtomicU64::new(0));

        let producer = {
            let ring = Arc::clone(&ring);
            let accepted = Arc::clone(&accepted);
            std::thread::spawn(move || {
                let mut next = 0u64;
                loop {
                    let batch = 1 + (next % 600) as usize;
                    let stamp = producer_stamp(0, batch, next);
                    match ring.push_sampled(stamp, batch, |start, _| (start % 5) as usize) {
                        Push::Pushed(a) => {
                            accepted.fetch_add(a as u64, Ordering::SeqCst);
                            next += a as u64;
                        }
                        Push::Closed => return,
                    }
                    // Close at a round-dependent point so each run
                    // exercises a different interleaving.
                    if next > 20_000 + round * 5_000 {
                        ring.close();
                        return;
                    }
                    if next & 1023 == 0 {
                        std::thread::yield_now();
                    }
                }
            })
        };

        // Consumer: pop_wait returns 0 only when closed AND drained, so a
        // plain drain loop is also the shutdown handshake.
        let mut next = [0u64];
        let mut buf = [0u64; 64];
        loop {
            let got = ring.pop_wait(&mut buf);
            if got == 0 {
                break;
            }
            take_runs(&mut next, &buf[..got]);
        }
        producer.join().unwrap();

        assert_eq!(
            next[0],
            accepted.load(Ordering::SeqCst),
            "round {round}: every accepted tuple popped exactly once"
        );
        assert!(ring.is_closed());
        assert!(
            matches!(ring.push(1), Push::Closed),
            "post-close push rejected"
        );
    }
}

/// Closes the ring when the last producer is done — also when one
/// unwinds, so a producer-side panic fails the test instead of leaving
/// the consumer waiting for tuples that will never come.
struct CloseWhenLast {
    ring: Arc<SpscRing>,
    running: Arc<AtomicU64>,
}

impl Drop for CloseWhenLast {
    fn drop(&mut self) {
        if self.running.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.ring.close();
        }
    }
}

/// Races `producers` threads, each pushing `per_producer` tuples in
/// pushes of up to `max_batch`, against this thread popping `pop_buf`
/// runs at a time; asserts per-producer FIFO and that every tuple is
/// popped exactly once.
fn race_producers(
    producers: u64,
    capacity: usize,
    per_producer: u64,
    max_batch: u64,
    pop_buf: usize,
) {
    let ring = Arc::new(SpscRing::new(capacity));
    let running = Arc::new(AtomicU64::new(producers));
    let threads: Vec<_> = (0..producers)
        .map(|p| {
            let producer = CloseWhenLast {
                ring: Arc::clone(&ring),
                running: Arc::clone(&running),
            };
            std::thread::spawn(move || {
                let mut i = 0u64;
                while i < per_producer {
                    let batch = (1 + i % max_batch).min(per_producer - i) as usize;
                    match producer
                        .ring
                        .push_repeat(producer_stamp(p, batch, i), batch)
                    {
                        Push::Pushed(0) => std::thread::yield_now(),
                        Push::Pushed(k) => i += k as u64,
                        Push::Closed => panic!("closed with producer {p} still pushing"),
                    }
                }
            })
        })
        .collect();

    let mut next = vec![0u64; producers as usize];
    let mut out = vec![0u64; pop_buf];
    loop {
        let got = ring.pop_wait(&mut out);
        if got == 0 {
            break;
        }
        take_runs(&mut next, &out[..got]);
    }
    for t in threads {
        t.join().expect("producer panicked");
    }
    assert_eq!(next, vec![per_producer; producers as usize]);
}

/// Sixteen single-tuple producers into a consumer that pops one run at a
/// time from a 7-slot ring: its bell is 1, so every push may ring the
/// doorbell and a producer pre-empted between publishing and its
/// doorbell check routinely finds `head` past its own slot (a debug build
/// panics there if the backlog subtraction does not saturate).
/// Per-producer FIFO and exact conservation must hold.
#[test]
fn sixteen_producers_into_one_slot_consumer_conserve_and_keep_fifo() {
    assert_eq!(SpscRing::new(7).bell(), 1);
    race_producers(16, 7, 20_000, 1, 1);
}

/// Two batch producers over a 2-slot and a 4-slot ring: every reservation
/// laps, is sized against a `head_seen` the *other* producer may have
/// refreshed (after this one loaded its `tail`, so ahead of it), and is
/// short more often than not.
#[test]
fn two_producers_lapping_a_tiny_ring_conserve_and_keep_fifo() {
    for capacity in [2, 4] {
        race_producers(2, capacity, 100_000, capacity as u64, capacity);
    }
}

/// `close()` and the reservation CAS are linearised on `tail`: with
/// eight producers racing the close, the sum of every `Pushed(k)` is
/// what the consumer pops before `pop_wait` returns 0, every push begun
/// after `close()` returned is `Closed`, and `len()` is frozen from then
/// on (this thread is the consumer, so nothing pops meanwhile).
#[test]
fn close_is_linearised_with_eight_racing_reservations() {
    const PRODUCERS: u64 = 8;
    for round in 0..20u64 {
        let ring = Arc::new(SpscRing::new(64));
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    let (mut pushed, mut i) = (0u64, 0u64);
                    loop {
                        let batch = 1 + ((p + i) % 7) as usize;
                        match ring.push_repeat(producer_stamp(p, batch, pushed), batch) {
                            Push::Pushed(0) => std::thread::yield_now(),
                            Push::Pushed(k) => pushed += k as u64,
                            Push::Closed => return pushed,
                        }
                        i += 1;
                    }
                })
            })
            .collect();

        // Pop through a round-dependent number of laps, then close with
        // the producers still pushing.
        let mut next = [0u64; PRODUCERS as usize];
        let mut buf = [0u64; 48];
        let mut popped = 0u64;
        while popped < 64 * (2 + round) {
            let got = ring.pop_wait(&mut buf);
            popped += take_runs(&mut next, &buf[..got]);
        }
        ring.close();
        let frozen = ring.len() as u64;
        assert!(
            frozen <= ring.capacity() as u64,
            "round {round}: len() {frozen} of a closed ring"
        );
        for _ in 0..100 {
            assert_eq!(ring.push(0), Push::Closed, "round {round}");
            assert_eq!(
                ring.len() as u64,
                frozen,
                "round {round}: tail moved after close"
            );
            std::thread::yield_now();
        }
        let mut drained = 0;
        loop {
            let got = ring.pop_wait(&mut buf);
            if got == 0 {
                break;
            }
            drained += take_runs(&mut next, &buf[..got]);
        }
        assert_eq!(
            drained, frozen,
            "round {round}: the drain is the frozen backlog"
        );
        assert_eq!((ring.len(), ring.pop_wait(&mut buf)), (0, 0));
        for (p, producer) in producers.into_iter().enumerate() {
            let pushed = producer.join().expect("producer panicked");
            assert_eq!(
                pushed, next[p],
                "round {round}, producer {p}: Pushed(k) vs popped"
            );
        }
    }
}

/// A producer stopped between its reservation CAS and its stores (its
/// `push_sampled` callback, which the ring calls in between, blocks on a
/// channel) leaves a hole at `head` with a later producer's run written
/// behind it. The consumer must not pop past the hole, and after
/// `close()` must not report the ring drained while the reservation is
/// outstanding.
#[test]
fn a_reservation_in_progress_holds_the_consumer_and_the_drain() {
    let ring = Arc::new(SpscRing::new(8));
    let (release, gate) = mpsc::channel::<()>();
    let stalled = {
        let ring = Arc::clone(&ring);
        std::thread::spawn(move || {
            ring.push_sampled(10, 4, |_, _| {
                gate.recv().unwrap();
                0
            })
        })
    };
    while ring.len() < 4 {
        std::thread::yield_now();
    }
    assert_eq!(ring.push_repeat(20, 4), Push::Pushed(4));
    let mut buf = [0u64; 8];
    assert_eq!(
        ring.pop_n(&mut buf),
        0,
        "popped past an unwritten reservation"
    );
    assert_eq!(ring.len(), 8);
    ring.close();

    let (report, drained) = mpsc::channel();
    let consumer = {
        let ring = Arc::clone(&ring);
        std::thread::spawn(move || {
            let mut all = Vec::new();
            let mut buf = [0u64; 8];
            loop {
                let got = ring.pop_wait(&mut buf);
                for w in &buf[..got] {
                    all.extend(std::iter::repeat_n(run_stamp(*w), run_len(*w)));
                }
                if got == 0 {
                    report.send(all).unwrap();
                    return;
                }
            }
        })
    };
    assert_eq!(
        drained.recv_timeout(Duration::from_millis(50)),
        Err(mpsc::RecvTimeoutError::Timeout),
        "the closing drain gave up on a reservation below the frozen tail"
    );
    assert_eq!(ring.len(), 8);
    release.send(()).unwrap();
    assert_eq!(stalled.join().unwrap(), Push::Pushed(4));
    assert_eq!(drained.recv().unwrap(), [10, 10, 10, 10, 20, 20, 20, 20]);
    consumer.join().unwrap();
}
