//! The engine's randomness seam.
//!
//! Every hot-path random decision in the engine — tuple payload draws,
//! entry-shedder coin flips, shed-location selection — goes through the
//! [`EngineRng`] type defined here, so the generator can be swapped in
//! one place and every call site seeds identically
//! (`engine_rng(cfg.seed)`). The current generator is xoshiro256+
//! ([`rand::rngs::SmallRng`]): the same 256-bit state transition as the
//! previous `StdRng` (xoshiro256++) with a cheaper output stage, which
//! matters at one-draw-per-tuple rates.
//!
//! The module also hosts [`GeometricSkip`], the entry shedder's
//! skip-sampling state. Instead of flipping a Bernoulli(α) coin per
//! arrival, it draws the number of *admissions until the next drop* once
//! per drop:
//!
//! ```text
//! P(admit m tuples, then drop one) = (1 − α)^m · α,   m = ⌊ln u / ln(1 − α)⌋
//! ```
//!
//! with `u` uniform in `[0, 1)`. The admit/drop sequence this produces is
//! distributed identically to iid per-tuple coin flips (the gaps between
//! drops in a Bernoulli process are exactly geometric), but costs one RNG
//! draw and one logarithm per *drop* instead of one draw per *arrival*.
//!
//! The wall-clock engine's front door does not share an [`EngineRng`]
//! (a `&mut` generator cannot be shared by concurrent offerers):
//! [`AtomicShedder`] carries its own counter-based generator — a Weyl
//! counter through the splitmix64 finalizer (`mix64`) — chosen so that
//! a batch of draws has no serial dependency and the batch and scalar
//! paths replay one stream.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};

/// The engine's pseudo-random generator (currently xoshiro256+).
pub type EngineRng = SmallRng;

/// Builds the engine generator from a 64-bit seed. All engine call sites
/// construct their RNG through this function so a generator swap stays a
/// one-line change.
pub fn engine_rng(seed: u64) -> EngineRng {
    EngineRng::seed_from_u64(seed)
}

/// Skip-sampling state for one entry shedder: the number of arrivals to
/// admit before the next drop.
///
/// `α` is fixed at construction; when the controller issues a new drop
/// probability, discard the state and construct a fresh one (the sampled
/// skip is only valid under the α it was drawn for).
#[derive(Debug, Clone, Copy)]
pub struct GeometricSkip {
    alpha: f64,
    /// Arrivals still to admit before the next drop. `u64::MAX` doubles
    /// as "effectively never" for α = 0.
    admits_left: u64,
}

impl GeometricSkip {
    /// Creates skip state for drop probability `alpha` (clamped to
    /// `[0, 1]`), drawing the first skip from `rng`.
    pub fn new(alpha: f64, rng: &mut EngineRng) -> Self {
        let alpha = if alpha.is_nan() { 0.0 } else { alpha.clamp(0.0, 1.0) };
        let mut s = Self {
            alpha,
            admits_left: 0,
        };
        s.admits_left = s.draw_skip(rng);
        s
    }

    /// The drop probability this state was drawn for.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Decides the fate of one arrival: `true` means drop it. Costs an
    /// RNG draw only when it answers `true` (to sample the next gap).
    #[inline]
    pub fn should_drop(&mut self, rng: &mut EngineRng) -> bool {
        if self.admits_left == 0 {
            self.admits_left = self.draw_skip(rng);
            true
        } else {
            self.admits_left -= 1;
            false
        }
    }

    /// Samples the number of admissions before the next drop:
    /// `⌊ln u / ln(1 − α)⌋` for α ∈ (0, 1); never for α = 0; immediately
    /// for α = 1.
    fn draw_skip(&mut self, rng: &mut EngineRng) -> u64 {
        sample_skip(self.alpha, rng.gen::<f64>())
    }
}

/// The inverse-CDF geometric draw underlying [`GeometricSkip`]: maps a
/// uniform `u ∈ [0, 1)` to the number of admissions before the next drop
/// under drop probability `alpha`. Exposed for the statistical
/// equivalence tests.
#[inline]
pub fn sample_skip(alpha: f64, u: f64) -> u64 {
    if alpha <= 0.0 {
        return u64::MAX; // never drop
    }
    if alpha >= 1.0 {
        return 0; // drop every arrival
    }
    // ln u is ≤ 0 and finite for u ∈ (0, 1); u = 0 maps to the deep tail,
    // which the saturating cast turns into "effectively never".
    let m = (u.ln() / (1.0 - alpha).ln()).floor();
    if m >= u64::MAX as f64 {
        u64::MAX
    } else {
        m as u64
    }
}

/// Commanded drop probabilities at or above this threshold use a plain
/// Bernoulli coin flip per arrival; below it, geometric skip sampling.
///
/// The crossover is empirical (see `shedder.per_alpha` in the bench
/// report): skip sampling amortises one RNG draw + one `ln` per *drop*,
/// so it wins decisively in the small-α regime (≈2.4× at α = 0.01) but
/// loses once drops are frequent enough that the geometric gaps are
/// short (0.86× at α = 0.05, 0.49× at α = 0.1) — the `ln` then costs
/// more than the coin flips it replaces. The hybrid picks the winner
/// per control period from the commanded α.
pub const BERNOULLI_ALPHA_MIN: f64 = 0.02;

/// Hybrid entry-shedding state for one entry: Bernoulli coin flips when
/// drops are frequent (α ≥ [`BERNOULLI_ALPHA_MIN`]), geometric skip
/// sampling when they are rare.
///
/// Like [`GeometricSkip`], α is fixed at construction; when the
/// controller issues a new drop probability, discard the state and
/// construct a fresh one (which is also where the Bernoulli-vs-skip
/// choice is re-made).
#[derive(Debug, Clone, Copy)]
pub enum EntryShedder {
    /// Per-arrival coin flip (one RNG draw per arrival).
    Bernoulli(f64),
    /// Skip sampling (one RNG draw per drop).
    Skip(GeometricSkip),
}

impl EntryShedder {
    /// Creates hybrid shedding state for drop probability `alpha`,
    /// picking the faster sampler for that α.
    pub fn new(alpha: f64, rng: &mut EngineRng) -> Self {
        let alpha = if alpha.is_nan() { 0.0 } else { alpha.clamp(0.0, 1.0) };
        if alpha >= BERNOULLI_ALPHA_MIN {
            EntryShedder::Bernoulli(alpha)
        } else {
            EntryShedder::Skip(GeometricSkip::new(alpha, rng))
        }
    }

    /// The drop probability this state was built for.
    pub fn alpha(&self) -> f64 {
        match self {
            EntryShedder::Bernoulli(a) => *a,
            EntryShedder::Skip(s) => s.alpha(),
        }
    }

    /// Decides the fate of one arrival: `true` means drop it.
    #[inline]
    pub fn should_drop(&mut self, rng: &mut EngineRng) -> bool {
        match self {
            EntryShedder::Bernoulli(a) => rng.gen::<f64>() < *a,
            EntryShedder::Skip(s) => s.should_drop(rng),
        }
    }
}

/// Sentinel for [`AtomicShedder`]'s skip counter: the next decision must
/// resample. (A genuine skip of `u64::MAX` decays into an extra
/// resample, which the geometric distribution's memorylessness makes
/// statistically harmless.)
const SKIP_RESAMPLE: u64 = u64::MAX;

/// Weyl increment of [`AtomicShedder`]'s counter: 2⁶⁴/φ, odd, so the
/// counter visits every `u64` before repeating.
const WEYL: u64 = 0x9E37_79B9_7F4A_7C15;

/// 2⁵³ — the number of distinct values a draw's top 53 bits take.
const TWO_53: f64 = (1u64 << 53) as f64;

/// Survivor indices [`AtomicShedder::shed_batch_each`] buffers on the
/// stack per inner pass (the buffer is zeroed per call, so it is sized
/// to the common frame, not to `OFFER_BATCH_MAX`).
const SHED_CHUNK: usize = 256;

/// splitmix64 finalizer: a full-avalanche bit mix. It is the output
/// stage of [`AtomicShedder`]'s counter-based generator and the
/// front door's wrap-safe round-robin spreader.
#[inline]
pub(crate) fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The uniform `[0, 1)` float drawn at counter value `x`: the top 53
/// bits of the mix, scaled.
#[inline]
fn draw_unit(x: u64) -> f64 {
    (mix64(x) >> 11) as f64 / TWO_53
}

/// Integer form of the Bernoulli compare: for α ∈ (0, 1),
/// `mix64(x) < bernoulli_threshold(α)` ⇔ `draw_unit(x) < α`. Scaling by
/// 2⁵³ is exact; the ceiling keeps a fractional `α·2⁵³` (possible below
/// α = ½) on the same side of every integer draw; and the threshold is
/// shifted up by the 11 bits `draw_unit` discards instead of shifting
/// every draw down (`d >> 11 < t` ⇔ `d < t << 11`).
#[inline]
fn bernoulli_threshold(alpha: f64) -> u64 {
    ((alpha * TWO_53).ceil() as u64) << 11
}

/// Lock-free hybrid entry shedder for the real-time engine, shared by
/// concurrent `offer()` callers.
///
/// Randomness is **counter-based** (splitmix64): the state is a Weyl
/// counter and draw `i` after counter value `x` is
/// `mix64(x + i·WEYL)` — a function of the counter alone, not of draw
/// `i − 1`. Consecutive draws of a batch pass are therefore linked only
/// by a one-cycle add (the CPU pipelines the mixes of a whole batch);
/// the pass loads the counter once and stores `x + n·WEYL` back once.
/// The scalar path walks the same counter one step at a time, so both
/// make the identical decision sequence from identical state.
///
/// For α ≥ [`BERNOULLI_ALPHA_MIN`] each arrival compares one draw with
/// an integer threshold; below it, arrivals decrement a shared geometric
/// skip counter and only a drop (or an α change, via
/// [`AtomicShedder::reset_skip`]) pays for a draw + `ln`. Both states
/// use relaxed load/store — concurrent offerers can double-consume a
/// skip or reuse a stretch of the counter, which perturbs the realised
/// drop rate far less than scheduling jitter already does.
#[derive(Debug)]
pub struct AtomicShedder {
    counter: AtomicU64,
    skip_left: AtomicU64,
}

impl AtomicShedder {
    /// Creates shedder state from a seed. The seed is mixed before it
    /// becomes the counter's origin, so nearby seeds (or seeds a multiple
    /// of the Weyl increment apart) start at unrelated points of the
    /// counter's cycle instead of replaying each other's stream shifted.
    pub fn new(seed: u64) -> Self {
        Self {
            counter: AtomicU64::new(mix64(seed)),
            skip_left: AtomicU64::new(SKIP_RESAMPLE),
        }
    }

    /// Invalidates the sampled skip. Call whenever the commanded α
    /// changes: a sampled gap is only valid under the α it was drawn
    /// for.
    pub fn reset_skip(&self) {
        self.skip_left.store(SKIP_RESAMPLE, Ordering::Relaxed);
    }

    /// Decides the fate of one arrival under drop probability `alpha`:
    /// `true` means drop it.
    #[inline]
    pub fn should_drop(&self, alpha: f64) -> bool {
        if alpha <= 0.0 {
            return false;
        }
        if alpha >= 1.0 {
            return true;
        }
        if alpha >= BERNOULLI_ALPHA_MIN {
            return mix64(self.step()) < bernoulli_threshold(alpha);
        }
        let s = self.skip_left.load(Ordering::Relaxed);
        let current = if s == SKIP_RESAMPLE {
            sample_skip(alpha, draw_unit(self.step()))
        } else {
            s
        };
        if current == 0 {
            let next = sample_skip(alpha, draw_unit(self.step()));
            self.skip_left.store(next, Ordering::Relaxed);
            true
        } else {
            self.skip_left.store(current - 1, Ordering::Relaxed);
            false
        }
    }

    /// Advances the counter one Weyl step and returns its new value.
    #[inline]
    fn step(&self) -> u64 {
        let x = self.counter.load(Ordering::Relaxed).wrapping_add(WEYL);
        self.counter.store(x, Ordering::Relaxed);
        x
    }

    /// Decides the fate of a batch of `n` arrivals under drop
    /// probability `alpha` in **one pass**, returning the number to
    /// drop. The counter is loaded once and stored back once; on the
    /// Bernoulli branch the `n` draws are mutually independent and the
    /// threshold is computed once. On the geometric branch the loop runs
    /// once per *drop* (the sampled skip counter is carried across the
    /// whole batch), so an α = 0.01 batch of 1024 costs ~10 draws.
    ///
    /// Positions of the drops within the batch are not reported: at the
    /// front door a batch is a run of identical anonymous tuples, so
    /// only the count matters. Keyed batches use
    /// [`shed_batch_each`](Self::shed_batch_each).
    pub fn shed_batch(&self, alpha: f64, n: u64) -> u64 {
        self.shed_batch_each(alpha, n, |_| {})
    }

    /// Batch decision that also reports each *admitted* position (for
    /// keyed batches, where the survivor set determines per-shard
    /// grouping). Calls `keep(i)` for every admitted index `i < n`, in
    /// order; returns the number dropped.
    ///
    /// The Bernoulli pass is branch-free: every index is written to a
    /// stack buffer and the write cursor advances by the decision bit,
    /// so `keep` then runs over the survivor list alone instead of
    /// behind an unpredictable per-arrival branch.
    pub fn shed_batch_each(&self, alpha: f64, n: u64, mut keep: impl FnMut(usize)) -> u64 {
        if n == 0 {
            return 0;
        }
        if alpha <= 0.0 {
            for i in 0..n {
                keep(i as usize);
            }
            return 0;
        }
        if alpha >= 1.0 {
            return n;
        }
        let mut x = self.counter.load(Ordering::Relaxed);
        let drops = if alpha >= BERNOULLI_ALPHA_MIN {
            let threshold = bernoulli_threshold(alpha);
            let mut survivors = [0u16; SHED_CHUNK];
            let mut kept_total = 0u64;
            let mut base = 0u64;
            while base < n {
                let len = (n - base).min(SHED_CHUNK as u64) as usize;
                let mut kept = 0usize;
                for j in 0..len {
                    x = x.wrapping_add(WEYL);
                    // `kept ≤ j < SHED_CHUNK`, so the `%` never wraps: it
                    // only shows the compiler the index is in bounds.
                    survivors[kept % SHED_CHUNK] = j as u16;
                    kept += usize::from(mix64(x) >= threshold);
                }
                for &j in &survivors[..kept] {
                    keep(base as usize + j as usize);
                }
                kept_total += kept as u64;
                base += len as u64;
            }
            n - kept_total
        } else {
            // Geometric branch: carry the shared skip counter across the
            // batch — one draw + one `ln` per drop, not per arrival.
            let mut next_skip = || {
                x = x.wrapping_add(WEYL);
                sample_skip(alpha, draw_unit(x))
            };
            let s = self.skip_left.load(Ordering::Relaxed);
            let mut left = if s == SKIP_RESAMPLE { next_skip() } else { s };
            let mut drops = 0;
            let mut i = 0u64;
            while i < n {
                if left == 0 {
                    drops += 1;
                    left = next_skip();
                    i += 1;
                } else {
                    let admit = left.min(n - i);
                    for k in 0..admit {
                        keep((i + k) as usize);
                    }
                    left -= admit;
                    i += admit;
                }
            }
            self.skip_left.store(left, Ordering::Relaxed);
            drops
        };
        self.counter.store(x, Ordering::Relaxed);
        drops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skip_zero_alpha_never_drops() {
        let mut rng = engine_rng(1);
        let mut skip = GeometricSkip::new(0.0, &mut rng);
        for _ in 0..10_000 {
            assert!(!skip.should_drop(&mut rng));
        }
    }

    #[test]
    fn skip_full_alpha_always_drops() {
        let mut rng = engine_rng(2);
        let mut skip = GeometricSkip::new(1.0, &mut rng);
        for _ in 0..1_000 {
            assert!(skip.should_drop(&mut rng));
        }
    }

    #[test]
    fn skip_drop_rate_matches_alpha() {
        for &alpha in &[0.01, 0.1, 0.5, 0.9] {
            let mut rng = engine_rng(3);
            let mut skip = GeometricSkip::new(alpha, &mut rng);
            let n = 200_000;
            let drops = (0..n).filter(|_| skip.should_drop(&mut rng)).count();
            let rate = drops as f64 / n as f64;
            // 200k samples: 5σ ≈ 5·sqrt(α(1−α)/n) < 0.006 for all α here.
            assert!(
                (rate - alpha).abs() < 0.01,
                "alpha {alpha}: observed {rate}"
            );
        }
    }

    #[test]
    fn sample_skip_inverse_cdf_boundaries() {
        // u just above 1−α ⇒ drop immediately; u below ⇒ admit ≥ 1.
        assert_eq!(sample_skip(0.5, 0.6), 0);
        assert_eq!(sample_skip(0.5, 0.4), 1);
        assert_eq!(sample_skip(0.0, 0.5), u64::MAX);
        assert_eq!(sample_skip(1.0, 0.5), 0);
        // Degenerate uniform draw of exactly 0 saturates instead of
        // overflowing.
        assert_eq!(sample_skip(0.5, 0.0), u64::MAX);
    }

    #[test]
    fn engine_rng_is_deterministic_per_seed() {
        let mut a = engine_rng(42);
        let mut b = engine_rng(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
        let mut c = engine_rng(43);
        assert_ne!(a.gen::<u64>(), c.gen::<u64>());
    }

    #[test]
    fn hybrid_picks_sampler_by_alpha() {
        let mut rng = engine_rng(5);
        assert!(matches!(
            EntryShedder::new(BERNOULLI_ALPHA_MIN / 2.0, &mut rng),
            EntryShedder::Skip(_)
        ));
        assert!(matches!(
            EntryShedder::new(BERNOULLI_ALPHA_MIN, &mut rng),
            EntryShedder::Bernoulli(_)
        ));
        assert!(matches!(
            EntryShedder::new(0.5, &mut rng),
            EntryShedder::Bernoulli(_)
        ));
    }

    #[test]
    fn hybrid_drop_rate_matches_alpha_on_both_branches() {
        for &alpha in &[0.005, 0.01, 0.05, 0.3, 0.9] {
            let mut rng = engine_rng(6);
            let mut shedder = EntryShedder::new(alpha, &mut rng);
            let n = 200_000;
            let drops = (0..n).filter(|_| shedder.should_drop(&mut rng)).count();
            let rate = drops as f64 / n as f64;
            assert!(
                (rate - alpha).abs() < 0.01,
                "alpha {alpha}: observed {rate}"
            );
        }
    }

    #[test]
    fn atomic_shedder_rate_matches_alpha_on_both_branches() {
        for &alpha in &[0.0, 0.005, 0.01, 0.05, 0.5, 1.0] {
            let shedder = AtomicShedder::new(99);
            let n = 200_000;
            let drops = (0..n).filter(|_| shedder.should_drop(alpha)).count();
            let rate = drops as f64 / n as f64;
            assert!(
                (rate - alpha).abs() < 0.01,
                "alpha {alpha}: observed {rate}"
            );
        }
    }

    /// The drop decisions (`true` = drop) of `n` arrivals taken through
    /// the batch path in consecutive batches of the given sizes.
    fn batch_decisions(s: &AtomicShedder, alpha: f64, n: usize, sizes: &[usize]) -> Vec<bool> {
        let mut dropped = vec![true; n];
        let (mut done, mut drops) = (0usize, 0u64);
        for &size in sizes.iter().cycle() {
            if done == n {
                break;
            }
            let size = size.min(n - done);
            drops += s.shed_batch_each(alpha, size as u64, |i| dropped[done + i] = false);
            done += size;
        }
        assert_eq!(drops as usize, dropped.iter().filter(|&&d| d).count());
        dropped
    }

    #[test]
    fn shed_batch_matches_scalar_decisions_exactly() {
        // From identical state, one batch pass must reproduce the exact
        // admit/drop sequence of n scalar calls, position by position —
        // the batch path is an amortisation, not a different random
        // process. Covers the geometric and the Bernoulli branch.
        for &alpha in &[0.005, 0.01, BERNOULLI_ALPHA_MIN, 0.05, 0.3, 0.9] {
            let scalar = AtomicShedder::new(7);
            let batch = AtomicShedder::new(7);
            let n = 10_000;
            let expected: Vec<bool> = (0..n).map(|_| scalar.should_drop(alpha)).collect();
            assert_eq!(batch_decisions(&batch, alpha, n, &[n]), expected, "alpha {alpha}");
            // Both walked the counter equally far: they stay in step.
            assert_eq!(batch.should_drop(alpha), scalar.should_drop(alpha));
        }
    }

    #[test]
    fn shed_batch_carries_state_across_batches() {
        // Splitting a stream into arbitrary batch sizes — including ones
        // that straddle the survivor buffer and the door's 1024-tuple
        // chunk — must not change a single decision vs one big batch, on
        // either branch.
        let sizes = [
            1,
            16,
            SHED_CHUNK,
            1024,
            3,
            977,
            SHED_CHUNK - 1,
            SHED_CHUNK + 1,
            1023,
            1025,
            4 * SHED_CHUNK + 7,
        ];
        for &alpha in &[0.01, 0.02, 0.5, 0.9] {
            let whole = AtomicShedder::new(11);
            let split = AtomicShedder::new(11);
            let n = 100_000;
            assert_eq!(
                batch_decisions(&whole, alpha, n, &[n]),
                batch_decisions(&split, alpha, n, &sizes),
                "alpha {alpha}"
            );
            assert_eq!(whole.shed_batch(alpha, 5_000), split.shed_batch(alpha, 5_000));
        }
    }

    /// Upper critical value of χ² with `df` degrees of freedom at tail
    /// probability 10⁻⁴ (Wilson–Hilferty; z = 3.719).
    fn chi2_crit_1e4(df: f64) -> f64 {
        let a = 2.0 / (9.0 * df);
        df * (1.0 - a + 3.719 * a.sqrt()).powi(3)
    }

    #[test]
    fn counter_generator_passes_rate_runs_and_autocorrelation() {
        // A counter-based generator is only as good as its mix: a weak
        // one shows up as a biased rate, non-geometric gaps between
        // keeps, or serial correlation of the decision bit.
        let n = 1_000_000usize;
        for &alpha in &[0.02, 0.1, 0.5, 0.9, 0.98] {
            let drops = batch_decisions(&AtomicShedder::new(2024), alpha, n, &[1024]);

            // Rate within 5σ.
            let rate = drops.iter().filter(|&&d| d).count() as f64 / n as f64;
            let sigma = (alpha * (1.0 - alpha) / n as f64).sqrt();
            assert!((rate - alpha).abs() < 5.0 * sigma, "alpha {alpha}: rate {rate}");

            // Drops between consecutive keeps are geometric:
            // P(D = d) = α^d (1 − α). Bins with expectation < 5 fold
            // into the tail.
            let mut runs: Vec<u64> = Vec::new();
            let mut run = 0usize;
            for &d in &drops {
                if d {
                    run += 1;
                } else {
                    if runs.len() <= run {
                        runs.resize(run + 1, 0);
                    }
                    runs[run] += 1;
                    run = 0;
                }
            }
            let keeps: u64 = runs.iter().sum();
            let mut chi2 = 0.0;
            let mut bins = 0usize;
            let mut p_left = 1.0;
            for (d, &seen) in runs.iter().enumerate() {
                let p = alpha.powi(d as i32) * (1.0 - alpha);
                if keeps as f64 * p < 5.0 {
                    break;
                }
                chi2 += (seen as f64 - keeps as f64 * p).powi(2) / (keeps as f64 * p);
                p_left -= p;
                bins += 1;
            }
            let tail_seen: u64 = runs[bins..].iter().sum();
            let tail_expected = keeps as f64 * p_left;
            chi2 += (tail_seen as f64 - tail_expected).powi(2) / tail_expected;
            assert!(
                chi2 < chi2_crit_1e4(bins as f64),
                "alpha {alpha}: chi2 {chi2} over {bins} bins + tail"
            );

            // Lag-1..8 autocorrelation of the decision bit (σ ≈ 10⁻³).
            let centred: Vec<f64> = drops.iter().map(|&d| f64::from(u8::from(d)) - rate).collect();
            let var: f64 = centred.iter().map(|c| c * c).sum();
            for lag in 1..=8 {
                let cov: f64 = centred.iter().zip(&centred[lag..]).map(|(a, b)| a * b).sum();
                assert!((cov / var).abs() < 0.01, "alpha {alpha} lag {lag}: {}", cov / var);
            }
        }
    }

    #[test]
    fn integer_threshold_agrees_with_the_float_compare() {
        // m < threshold(α) must decide exactly as (m >> 11) / 2⁵³ < α
        // did, for mix outputs on both sides of the boundary.
        for &alpha in &[BERNOULLI_ALPHA_MIN, 0.1, 1.0 / 3.0, 0.5, 0.9, 1.0 - 2f64.powi(-53)] {
            let t = bernoulli_threshold(alpha);
            for m in [0, 1, t - (1 << 11), t - 1, t, t + ((1 << 11) - 1), u64::MAX] {
                let unit = (m >> 11) as f64 / TWO_53;
                assert_eq!(m < t, unit < alpha, "alpha {alpha} mix output {m:#x}");
            }
        }
        // α = BERNOULLI_ALPHA_MIN is a Bernoulli decision at that rate;
        // α = 1 − 2⁻⁵³ spares only the single largest draw.
        let s = AtomicShedder::new(5);
        let rate = s.shed_batch(BERNOULLI_ALPHA_MIN, 1_000_000) as f64 / 1e6;
        assert!((rate - BERNOULLI_ALPHA_MIN).abs() < 0.001, "{rate}");
        assert_eq!(s.shed_batch(1.0 - 2f64.powi(-53), 100_000), 100_000);
        // Out-of-range α never reaches the threshold: negative sheds
        // nothing, > 1 sheds everything, and NaN (which fails every
        // range test) falls through to a zero-length skip on both paths.
        assert_eq!(s.shed_batch(-0.5, 1_000), 0);
        assert!(!s.should_drop(-0.5));
        assert_eq!(s.shed_batch(1.5, 1_000), 1_000);
        assert!(s.should_drop(1.5));
        assert_eq!(s.shed_batch(f64::NAN, 1_000), 1_000);
        assert!(s.should_drop(f64::NAN));
    }

    #[test]
    fn different_seeds_give_independent_streams() {
        // All shedders share one Weyl increment, so raw seeds a multiple
        // of it apart would replay each other's stream shifted. Two
        // independent Bernoulli(α) streams agree with probability
        // α² + (1 − α)².
        let n = 400_000usize;
        for &(a, b) in &[(1u64, 2u64), (7, 7u64.wrapping_add(WEYL)), (0, WEYL.wrapping_mul(3))] {
            for &alpha in &[0.1, 0.5, 0.9] {
                let da = batch_decisions(&AtomicShedder::new(a), alpha, n, &[1024]);
                let db = batch_decisions(&AtomicShedder::new(b), alpha, n, &[1024]);
                let agree = da.iter().zip(&db).filter(|(x, y)| x == y).count() as f64 / n as f64;
                let p = alpha * alpha + (1.0 - alpha) * (1.0 - alpha);
                let sigma = (p * (1.0 - p) / n as f64).sqrt();
                assert!(
                    (agree - p).abs() < 5.0 * sigma,
                    "seeds {a:#x}/{b:#x} alpha {alpha}: agreement {agree} vs {p}"
                );
            }
        }
    }

    #[test]
    fn shed_batch_edge_alphas() {
        let s = AtomicShedder::new(1);
        assert_eq!(s.shed_batch(0.0, 1024), 0);
        assert_eq!(s.shed_batch(1.0, 1024), 1024);
        assert_eq!(s.shed_batch(0.5, 0), 0);
        let mut kept = Vec::new();
        s.shed_batch_each(0.0, 4, |i| kept.push(i));
        assert_eq!(kept, vec![0, 1, 2, 3]);
    }

    #[test]
    fn atomic_shedder_reset_skip_is_safe_mid_stream() {
        let shedder = AtomicShedder::new(3);
        let mut drops = 0;
        for i in 0..100_000 {
            if i % 1000 == 0 {
                shedder.reset_skip();
            }
            if shedder.should_drop(0.01) {
                drops += 1;
            }
        }
        let rate = drops as f64 / 100_000.0;
        assert!((rate - 0.01).abs() < 0.005, "observed {rate}");
    }
}
