//! Property and stress tests for the bounded SPSC ring behind the
//! batched front door ([`streamshed_engine::ring::SpscRing`]).
//!
//! The properties check the ring against a `VecDeque` reference model
//! under arbitrary interleavings of batch pushes and batch pops: FIFO
//! order is exact, the logical capacity is never exceeded, and every
//! accepted element is popped exactly once. The stress test races a
//! producer against a consumer (plus a mid-flight `close()`) and asserts
//! exact conservation: accepted == popped, with no duplicates and no
//! reordering. A second stress aims sixteen producers at a consumer that
//! waits for a single slot, so every push is a doorbell candidate; a
//! third laps a 2-slot and a 4-slot ring with two batch producers. Two
//! tests pin the close protocol: eight producers racing `close()` (the
//! reservations below the frozen `tail` are exactly what lands), and a
//! producer parked between its reservation and its stores (the consumer
//! neither pops past the hole nor reports the ring drained).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use proptest::prelude::*;
use streamshed_engine::ring::{Push, SpscRing, LAP_BIT};
use streamshed_engine::spans::SAMPLE_BIT;

/// One scripted step against the ring: push a batch of `n` values or pop
/// with an `n`-slot buffer.
#[derive(Debug, Clone, Copy)]
enum Step {
    Push(usize),
    Pop(usize),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (1usize..=64).prop_map(Step::Push),
        (1usize..=64).prop_map(Step::Pop),
    ]
}

/// Plays `steps` against a ring of `capacity` and a `VecDeque` model,
/// sequence `s` carrying `payload(s)`. The script repeats — with a full
/// pop and a full push between rounds, so an all-pop or all-push script
/// still advances — until every slot has been written on `laps` laps.
fn check_against_model(
    capacity: usize,
    steps: &[Step],
    laps: u64,
    payload: fn(u64) -> u64,
) -> Result<(), TestCaseError> {
    let ring = SpscRing::new(capacity);
    let slots = capacity.next_power_of_two() as u64;
    let mut model: VecDeque<u64> = VecDeque::new();
    let mut next = 0u64;
    loop {
        let round = [Step::Pop(capacity), Step::Push(capacity)];
        for step in steps.iter().chain(&round) {
            match *step {
                Step::Push(n) => {
                    let base = next;
                    match ring.push_with(n, |i| payload(base + i as u64)) {
                        Push::Pushed(accepted) => {
                            // Partial acceptance is a prefix: exactly the
                            // first `accepted` values are in the ring.
                            prop_assert!(accepted <= n);
                            // …and never short while the model has room,
                            // however stale the producers' `head_seen`.
                            let free = capacity - model.len();
                            prop_assert_eq!(accepted, n.min(free), "short push with room");
                            model.extend((base..base + accepted as u64).map(payload));
                            next += accepted as u64;
                        }
                        Push::Closed => prop_assert!(false, "ring is never closed here"),
                    }
                }
                Step::Pop(n) => {
                    let mut buf = vec![0u64; n];
                    let got = ring.pop_n(&mut buf);
                    prop_assert_eq!(got, n.min(model.len()));
                    for &v in &buf[..got] {
                        prop_assert_eq!(Some(v), model.pop_front(), "FIFO order");
                    }
                }
            }
            prop_assert_eq!(ring.len(), model.len());
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
        for &v in &buf[..got] {
            prop_assert_eq!(Some(v), model.pop_front());
        }
    }
    prop_assert!(ring.is_empty());
    Ok(())
}

/// The whole payload domain in rotation: `0` (an empty slot but for the
/// tag), a plain stamp, a sampled stamp, and the largest legal word.
fn edge_payload(s: u64) -> u64 {
    match s % 4 {
        0 => 0,
        1 => s,
        2 => s | SAMPLE_BIT,
        _ => !LAP_BIT,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary interleavings of batch pushes and pops agree with a
    /// `VecDeque` model element for element, and the ring never holds
    /// more than its logical capacity.
    #[test]
    fn ring_matches_vecdeque_model(
        capacity in 1usize..=96,
        steps in proptest::collection::vec(step_strategy(), 1..80),
    ) {
        check_against_model(capacity, &steps, 0, |s| s)?;
    }

    /// The same on rings small enough to lap: one slot, exact powers of
    /// two and capacities below their slot count, each slot written on
    /// at least four laps (both tag values twice), with payloads that
    /// differ from an empty slot by the tag alone.
    #[test]
    fn small_rings_match_the_model_lap_after_lap(
        steps in proptest::collection::vec(step_strategy(), 1..24),
    ) {
        for capacity in [1, 2, 3, 5, 8, 13] {
            check_against_model(capacity, &steps, 4, edge_payload)?;
        }
    }

    /// `push_repeat` and single-value `push` obey the same capacity
    /// accounting as `push_with`.
    #[test]
    fn push_variants_agree_on_accounting(
        capacity in 1usize..=64,
        batches in proptest::collection::vec(1usize..=48, 1..20),
    ) {
        let ring = SpscRing::new(capacity);
        let mut held = 0usize;
        for n in batches {
            let accepted = match ring.push_repeat(7, n) {
                Push::Pushed(a) => a,
                Push::Closed => unreachable!(),
            };
            prop_assert_eq!(accepted, n.min(capacity - held));
            held += accepted;
            if held == capacity {
                let mut buf = vec![0u64; capacity];
                let got = ring.pop_n(&mut buf);
                prop_assert_eq!(got, held);
                held = 0;
            }
        }
    }
}

/// Two threads race batched pushes against batched pops, with `close()`
/// fired mid-flight from the producer side. Conservation must be exact:
/// every accepted value is popped exactly once, in FIFO order, and
/// nothing is accepted after close.
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
                    let batch = 1 + (next % 97) as usize;
                    let base = next;
                    match ring.push_with(batch, |i| base + i as u64) {
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
        let mut popped = 0u64;
        let mut expect = 0u64;
        let mut buf = [0u64; 64];
        loop {
            let got = ring.pop_wait(&mut buf);
            if got == 0 {
                break;
            }
            for &v in &buf[..got] {
                assert_eq!(v, expect, "round {round}: FIFO order with no gaps");
                expect += 1;
            }
            popped += got as u64;
        }
        producer.join().unwrap();

        assert_eq!(
            popped,
            accepted.load(Ordering::SeqCst),
            "round {round}: every accepted value popped exactly once"
        );
        assert!(ring.is_closed());
        assert!(
            matches!(ring.push(1), Push::Closed),
            "post-close push rejected"
        );
    }
}

/// Checks popped values `producer << 32 | i` against each producer's
/// next expected `i`: per-producer FIFO with no gaps.
fn assert_per_producer_fifo(next: &mut [u64], popped: &[u64]) {
    for &v in popped {
        let (p, i) = ((v >> 32) as usize, v & 0xffff_ffff);
        assert_eq!(i, next[p], "producer {p}: FIFO with no gaps");
        next[p] += 1;
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

/// Races `producers` threads, each pushing `per_producer` payloads in
/// batches of up to `max_batch`, against this thread popping `pop_buf`
/// slots at a time; asserts per-producer FIFO and that every push is
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
                    match producer.ring.push_with(batch, |j| p << 32 | (i + j as u64)) {
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
        assert_per_producer_fifo(&mut next, &out[..got]);
    }
    for t in threads {
        t.join().expect("producer panicked");
    }
    assert_eq!(next, vec![per_producer; producers as usize]);
}

/// Sixteen single-tuple producers into a consumer that pops one slot at a
/// time: its batch is 1, so every push may ring the doorbell and a
/// producer pre-empted between publishing and its doorbell check
/// routinely finds `head` past its own slot (a debug build panics there
/// if the backlog subtraction does not saturate). Per-producer FIFO and
/// exact conservation must hold.
#[test]
fn sixteen_producers_into_one_slot_consumer_conserve_and_keep_fifo() {
    race_producers(16, 8, 20_000, 1, 1);
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
                        match ring.push_with(batch, |j| p << 32 | (pushed + j as u64)) {
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
            assert_per_producer_fifo(&mut next, &buf[..got]);
            popped += got as u64;
        }
        ring.close();
        let frozen = ring.len();
        assert!(
            frozen <= ring.capacity(),
            "round {round}: len() {frozen} of a closed ring"
        );
        for _ in 0..100 {
            assert_eq!(ring.push(0), Push::Closed, "round {round}");
            assert_eq!(ring.len(), frozen, "round {round}: tail moved after close");
            std::thread::yield_now();
        }
        let mut drained = 0;
        loop {
            let got = ring.pop_wait(&mut buf);
            if got == 0 {
                break;
            }
            assert_per_producer_fifo(&mut next, &buf[..got]);
            drained += got;
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

/// A producer stopped between its reservation CAS and its first store
/// (its `push_with` closure blocks on a channel) leaves a hole at `head`
/// with a later producer's batch written behind it. The consumer must
/// not pop past the hole, and after `close()` must not report the ring
/// drained while the reservation is outstanding.
#[test]
fn a_reservation_in_progress_holds_the_consumer_and_the_drain() {
    let ring = Arc::new(SpscRing::new(8));
    let (release, gate) = mpsc::channel::<()>();
    let stalled = {
        let ring = Arc::clone(&ring);
        std::thread::spawn(move || {
            let mut gate = Some(gate);
            ring.push_with(4, |i| {
                if let Some(gate) = gate.take() {
                    gate.recv().unwrap();
                }
                10 + i as u64
            })
        })
    };
    while ring.len() < 4 {
        std::thread::yield_now();
    }
    assert_eq!(ring.push_with(4, |i| 20 + i as u64), Push::Pushed(4));
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
                all.extend_from_slice(&buf[..got]);
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
    assert_eq!(drained.recv().unwrap(), [10, 11, 12, 13, 20, 21, 22, 23]);
    consumer.join().unwrap();
}
