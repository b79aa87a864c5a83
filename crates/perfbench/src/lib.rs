//! `perfbench` — the repo's benchmark. See `README.md` beside this
//! crate for the metric glossary, the workloads and how to run it.
//!
//! One process runs one workload: set-up (timed, repeated), warm-up,
//! then a measured window cut into slices; every end-to-end value is
//! the median over slices. A traced run wraps the same workload in the
//! benchmark's own spans and adds the direct-call ladder.

pub mod driver;
pub mod ladder;
pub mod netload;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;

use stats::SliceStat;
use std::collections::BTreeMap;
use std::time::Duration;

/// Set-up is done and timed this many times per run; `setup_s` is the
/// median.
pub const SETUP_REPS: usize = 5;

/// Sets up [`SETUP_REPS`] times, dropping each result before the next
/// attempt; returns the last one and `setup_s`.
pub fn timed_set_up<T>(mut set_up: impl FnMut() -> T) -> (T, SliceStat) {
    let mut last = None;
    let mut times = Vec::new();
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t0 = std::time::Instant::now();
        last = Some(set_up());
        times.push((t0.elapsed().as_secs_f64(), 1));
    }
    (
        last.expect("SETUP_REPS is at least 1"),
        SliceStat::from_slices(&times),
    )
}

/// How long and how finely one workload run measures.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Warm-up before the first slice (wall-clock workloads).
    pub warmup: Duration,
    /// Number of slices in the measured window.
    pub slices: usize,
    /// Length of one slice.
    pub slice: Duration,
    /// Smoke sizing: quarter-size `sim_paper` batch, values never
    /// comparable with a full run.
    pub smoke: bool,
    /// Wrap every call into a layer in a benchmark span and sample
    /// every tuple's sojourn.
    pub traced: bool,
}

impl Plan {
    /// The plan for a measured window of `seconds`: ten slices after a
    /// 3 s warm-up (four 1 s slices after 1 s when `smoke`).
    pub fn for_seconds(seed: u64, seconds: u64, smoke: bool) -> Self {
        let (warmup, slices, slice) = if smoke {
            (Duration::from_secs(1), 4, Duration::from_secs(1))
        } else {
            (
                Duration::from_secs(3),
                10,
                Duration::from_secs_f64(seconds.max(1) as f64 / 10.0),
            )
        };
        Self {
            seed,
            warmup,
            slices,
            slice,
            smoke,
            traced: false,
        }
    }

    /// The same workload as a short traced run: four slices.
    pub fn traced(mut self) -> Self {
        self.traced = true;
        self.slices = 4;
        self
    }

    /// Length of the measured window.
    pub fn window(&self) -> Duration {
        self.slice * self.slices as u32
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every end-to-end metric, by name.
    pub e2e: BTreeMap<&'static str, SliceStat>,
    /// The per-layer metrics this workload exercises, by name.
    pub layer: BTreeMap<&'static str, f64>,
    /// Tuples attempted over the whole run (warm-up included).
    pub attempted: u64,
    /// Tuples that failed (see README, `failed_share`).
    pub failed: u64,
    /// Correctness checks that did not hold; empty means correct.
    pub violations: Vec<String>,
    /// Remarks for the human-readable report (validity, baseline facts).
    pub notes: Vec<String>,
    /// Spans of a traced run (empty otherwise).
    pub spans: Vec<trace::Span>,
}

impl Outcome {
    /// Whether every correctness check held.
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// Records a failed correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// failed / attempted; 1 when a ledger check failed (the run's
    /// numbers cannot be trusted, so all of its tuples count as failed).
    pub fn failed_share(&self) -> f64 {
        if !self.correct() {
            1.0
        } else {
            self.failed as f64 / self.attempted.max(1) as f64
        }
    }
}

/// Splitmix64 step: the one mixing function behind every derived seed,
/// key and schedule of the benchmark.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut x = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}
