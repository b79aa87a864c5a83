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
//! waits for a single slot, so every push is a doorbell candidate.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use streamshed_engine::ring::{Push, SpscRing};

/// One scripted step against the ring: push a batch of `n` values or pop
/// with an `n`-slot buffer.
#[derive(Debug, Clone)]
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
        let ring = SpscRing::new(capacity);
        let mut model: VecDeque<u64> = VecDeque::new();
        let mut next = 0u64;
        for step in steps {
            match step {
                Step::Push(n) => {
                    let base = next;
                    match ring.push_with(n, |i| base + i as u64) {
                        Push::Pushed(accepted) => {
                            // Partial acceptance is a prefix: exactly the
                            // first `accepted` values are in the ring.
                            prop_assert!(accepted <= n);
                            let free = capacity - model.len();
                            prop_assert_eq!(accepted, n.min(free));
                            for i in 0..accepted as u64 {
                                model.push_back(base + i);
                            }
                            next += accepted as u64;
                        }
                        Push::Closed => prop_assert!(false, "ring is never closed here"),
                    }
                }
                Step::Pop(n) => {
                    let mut buf = vec![0u64; n];
                    let got = ring.pop_n(&mut buf);
                    prop_assert!(got <= model.len());
                    prop_assert_eq!(got, n.min(model.len()));
                    for &v in &buf[..got] {
                        prop_assert_eq!(Some(v), model.pop_front(), "FIFO order");
                    }
                }
            }
            prop_assert_eq!(ring.len(), model.len());
            prop_assert!(ring.len() <= capacity, "capacity is a hard bound");
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
        assert!(matches!(ring.push(1), Push::Closed), "post-close push rejected");
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

/// Sixteen single-tuple producers into a consumer that pops one slot at a
/// time: its batch is 1, so every push may ring the doorbell and a
/// producer pre-empted between publishing and its doorbell check
/// routinely finds `head` past its own slot (a debug build panics there
/// if the backlog subtraction does not saturate). Per-producer FIFO and
/// exact conservation must hold.
#[test]
fn sixteen_producers_into_one_slot_consumer_conserve_and_keep_fifo() {
    const PRODUCERS: u64 = 16;
    const PER_PRODUCER: u64 = 20_000;
    let ring = Arc::new(SpscRing::new(8));
    let running = Arc::new(AtomicU64::new(PRODUCERS));
    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let producer = CloseWhenLast {
                ring: Arc::clone(&ring),
                running: Arc::clone(&running),
            };
            std::thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    while producer.ring.push(p << 32 | i) != Push::Pushed(1) {
                        std::thread::yield_now();
                    }
                }
            })
        })
        .collect();

    let mut next = [0u64; PRODUCERS as usize];
    let mut out = [0u64; 1];
    while ring.pop_wait(&mut out) == 1 {
        let (p, i) = ((out[0] >> 32) as usize, out[0] & 0xffff_ffff);
        assert_eq!(i, next[p], "producer {p}: FIFO with no gaps");
        next[p] += 1;
    }
    for p in producers {
        p.join().expect("producer panicked");
    }
    // Every push popped exactly once.
    assert_eq!(next, [PER_PRODUCER; PRODUCERS as usize]);
}
