//! The engine's randomness seam.
//!
//! Tuple payload draws and shed-location selection go through the
//! [`EngineRng`] type defined here, so the generator can be swapped in
//! one place and every call site seeds identically
//! (`engine_rng(cfg.seed)`). The current generator is xoshiro256+
//! ([`rand::rngs::SmallRng`]): the same 256-bit state transition as the
//! previous `StdRng` (xoshiro256++) with a cheaper output stage, which
//! matters at one-draw-per-tuple rates.
//!
//! Entry shedding — the paper's coin with drop probability α (Eq. 13) —
//! has one kernel, [`AtomicShedder`], used by both engines: the
//! simulator's admission pass and the wall-clock front door (where a
//! `&mut` generator could not be shared by concurrent offerers). It
//! carries its own counter-based generator — a Weyl counter through the
//! splitmix64 finalizer (`mix64`), each mixed word cut into two 32-bit
//! coins — chosen so that a batch of draws has no serial dependency and
//! any split of a stream into batches makes the same decisions.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};

/// The engine's pseudo-random generator (currently xoshiro256+).
pub type EngineRng = SmallRng;

/// Builds the engine generator from a 64-bit seed. All engine call sites
/// construct their RNG through this function so a generator swap stays a
/// one-line change.
pub fn engine_rng(seed: u64) -> EngineRng {
    EngineRng::seed_from_u64(seed)
}

/// Weyl increment of [`AtomicShedder`]'s word counter: 2⁶⁴/φ, odd, so
/// the counter visits every `u64` before repeating.
const WEYL: u64 = 0x9E37_79B9_7F4A_7C15;

/// 2³² — the number of distinct values a coin takes.
const TWO_32: f64 = (1u64 << 32) as f64;

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

/// Integer form of the Bernoulli compare on a 32-bit coin: for α ∈ (0, 1)
/// `coin < coin_threshold(α)` ⇔ `coin / 2³² < α`. Scaling by 2³² is
/// exact and the ceiling keeps a fractional `α·2³²` on the same side of
/// every integer coin. An α within 2⁻³² of 1 rounds up to 2³², above
/// every coin — it sheds everything, which is why the threshold is a
/// `u64`: wrapped to 32 bits it would read 0, "admit all". An α below
/// 2⁻³² rounds up to 1, never down to "shed nothing".
#[inline]
fn coin_threshold(alpha: f64) -> u64 {
    ((alpha * TWO_32).ceil() as u64).min(1 << 32)
}

/// The two coins of one mixed word, in coin-index order: low half, then
/// high half.
#[inline]
fn coins_of(word: u64) -> [u64; 2] {
    [word & 0xFFFF_FFFF, word >> 32]
}

/// The decision kernel: flips coins `coin .. coin + len` (`len ≤
/// SHED_CHUNK`) of the stream rooted at `origin` and returns how many
/// were at or above `threshold`; those survivors' batch positions
/// (`0..len`) are the first entries of `survivors`. Coin `c` is half
/// `c & 1` of word `c >> 1`, and word `k` is `mix64(origin + (k+1)·WEYL)`
/// — a function of the coin index alone, so a pass that starts on an odd
/// coin takes the high half of a word whose low half the previous pass
/// spent, and one that ends on an even coin leaves a high half for the
/// next. Branch-free in the decisions: every position is written and
/// the write cursor advances by the decision bit.
///
/// Not generic and never inlined, so every caller runs one compiled
/// copy: inlined, the loop's register allocation depends on what the
/// caller's `keep` closure captures (two extra moves per draw in the
/// keyed door).
#[inline(never)]
fn survivors_of(
    origin: u64,
    coin: u64,
    threshold: u64,
    len: usize,
    survivors: &mut [u16; SHED_CHUNK],
) -> usize {
    let mut x = origin.wrapping_add((coin >> 1).wrapping_mul(WEYL));
    let mut next_word = || {
        x = x.wrapping_add(WEYL);
        mix64(x)
    };
    let mut kept = 0usize;
    // `kept ≤ j < SHED_CHUNK`, so the `%` never wraps: it only shows
    // the compiler the index is in bounds.
    let mut flip = |j: usize, coin: u64| {
        survivors[kept % SHED_CHUNK] = j as u16;
        kept += usize::from(coin >= threshold);
    };
    let lead = (coin & 1) as usize & usize::from(len > 0);
    if lead == 1 {
        flip(0, coins_of(next_word())[1]);
    }
    let pairs = (len - lead) / 2;
    for p in 0..pairs {
        let [low, high] = coins_of(next_word());
        flip(lead + 2 * p, low);
        flip(lead + 2 * p + 1, high);
    }
    if lead + 2 * pairs < len {
        flip(len - 1, coins_of(next_word())[0]);
    }
    kept
}

/// The entry shedder of both engines — lock-free, so the wall clock's
/// concurrent offerers can share it: one Bernoulli(α) coin per arrival.
///
/// Randomness is **counter-based** (splitmix64) and a mixed word pays
/// for **two coins**: the shared state is the index `c` of the next
/// coin beside an immutable origin (the mixed seed), coin `c` is the low
/// (`c` even) or high (`c` odd) 32 bits of word `c >> 1`, and word `k`
/// is `mix64(origin + (k+1)·WEYL)` — a function of the index alone, not
/// of the draw before it. Consecutive words of a batch pass are
/// therefore linked only by a one-cycle add (the CPU pipelines the mixes
/// of a whole batch); the pass loads the index once and stores `c + n`
/// back once, so splitting a stream into batches of any sizes, odd ones
/// included, makes the identical decision sequence. 32 bits resolve α to
/// 2⁻³², far below what the controller commands or a run could observe.
///
/// The index uses relaxed load/store — concurrent offerers can reuse a
/// stretch of it, which perturbs the realised drop rate far less than
/// scheduling jitter already does.
#[derive(Debug)]
pub struct AtomicShedder {
    origin: u64,
    coin: AtomicU64,
}

impl AtomicShedder {
    /// Creates shedder state from a seed. The seed is mixed before it
    /// becomes the word counter's origin, so nearby seeds (or seeds a
    /// multiple of the Weyl increment apart) start at unrelated points of
    /// the counter's cycle instead of replaying each other's stream
    /// shifted.
    pub fn new(seed: u64) -> Self {
        Self {
            origin: mix64(seed),
            coin: AtomicU64::new(0),
        }
    }

    /// Decides the fate of a batch of `n` arrivals under drop
    /// probability `alpha` in **one pass**, returning the number to
    /// drop. The coin index is loaded once and stored back once, the
    /// `⌈n/2⌉` mixes are mutually independent and the threshold is
    /// computed once.
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
    /// `keep` runs over each chunk's survivor list alone instead of
    /// behind an unpredictable per-arrival branch.
    pub fn shed_batch_each(&self, alpha: f64, n: u64, mut keep: impl FnMut(usize)) -> u64 {
        if alpha <= 0.0 {
            for i in 0..n {
                keep(i as usize);
            }
            return 0;
        }
        // NaN fails closed: a corrupt command sheds rather than floods.
        if alpha >= 1.0 || alpha.is_nan() {
            return n;
        }
        let threshold = coin_threshold(alpha);
        let coin = self.coin.load(Ordering::Relaxed);
        let mut survivors = [0u16; SHED_CHUNK];
        let mut kept_total = 0u64;
        let mut base = 0u64;
        while base < n {
            let len = (n - base).min(SHED_CHUNK as u64) as usize;
            let at = coin.wrapping_add(base);
            let kept = survivors_of(self.origin, at, threshold, len, &mut survivors);
            for &j in &survivors[..kept] {
                keep(base as usize + j as usize);
            }
            kept_total += kept as u64;
            base += len as u64;
        }
        self.coin.store(coin.wrapping_add(n), Ordering::Relaxed);
        n - kept_total
    }
}

/// Upper critical value of χ² with `df` degrees of freedom at tail
/// probability 10⁻⁴ (Wilson–Hilferty; z = 3.719).
#[cfg(test)]
pub(crate) fn chi2_crit_1e4(df: f64) -> f64 {
    let a = 2.0 / (9.0 * df);
    df * (1.0 - a + 3.719 * a.sqrt()).powi(3)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_rng_is_deterministic_per_seed() {
        use rand::Rng;
        let mut a = engine_rng(42);
        let mut b = engine_rng(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
        let mut c = engine_rng(43);
        assert_ne!(a.gen::<u64>(), c.gen::<u64>());
    }

    #[test]
    fn atomic_shedder_rate_matches_alpha() {
        // One kernel for every α: rare-drop rates get no looser a bound.
        for &alpha in &[0.0, 0.001, 0.005, 0.01, 0.02, 0.05, 0.5, 0.9, 1.0] {
            let n = 1_000_000;
            let rate = AtomicShedder::new(99).shed_batch(alpha, n) as f64 / n as f64;
            assert!(
                (rate - alpha).abs() < 0.001,
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
    fn shed_batch_carries_state_across_batches() {
        // Splitting a stream into arbitrary batch sizes — including ones
        // that straddle the survivor buffer and the door's 1024-tuple
        // chunk — must not change a single decision vs one big batch.
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
        for &alpha in &[0.001, 0.01, 0.02, 0.5, 0.9] {
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

    #[test]
    fn counter_generator_passes_rate_runs_and_autocorrelation() {
        // A counter-based generator is only as good as its mix: a weak
        // one shows up as a biased rate, non-geometric gaps between
        // keeps, or serial correlation of the decision bit.
        let n = 1_000_000usize;
        for &alpha in &[0.005, 0.02, 0.1, 0.5, 0.9, 0.98] {
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
        // coin < threshold(α) must decide exactly as coin / 2³² < α, for
        // coins on both sides of the boundary — also at the small α where
        // `α·2³²` has a fractional part to round.
        for &alpha in &[0.001, 0.005, 0.01, 0.02, 0.1, 1.0 / 3.0, 0.5, 0.9] {
            let t = coin_threshold(alpha);
            for coin in [0, 1, t - 2, t - 1, t, t + 1, u64::from(u32::MAX)] {
                let unit = coin as f64 / TWO_32;
                assert_eq!(coin < t, unit < alpha, "alpha {alpha} coin {coin:#x}");
            }
        }
        // An α closer to 1 than a coin resolves sheds everything: the
        // threshold clamps to 2³², above every coin, and must not wrap to
        // 0 ("admit all").
        let almost_one = 1.0 - 2f64.powi(-53);
        assert_eq!(coin_threshold(almost_one), 1 << 32);
        let s = AtomicShedder::new(5);
        assert_eq!(s.shed_batch(almost_one, 100_000), 100_000);
        // An α below a coin's resolution still sheds coin 0: threshold 1,
        // not 0.
        assert_eq!(coin_threshold(2f64.powi(-40)), 1);
        // Out-of-range α never reaches the threshold: negative sheds
        // nothing, > 1 and NaN shed everything.
        assert_eq!(s.shed_batch(-0.5, 1_000), 0);
        assert_eq!(s.shed_batch(1.5, 1_000), 1_000);
        assert_eq!(s.shed_batch(f64::NAN, 1_000), 1_000);
    }

    #[test]
    fn the_two_coins_of_a_word_decide_independently() {
        // Lag-1 autocorrelation over the whole stream averages the two
        // kinds of neighbour. Pin each by itself with a 2×2 contingency
        // χ² (1 degree of freedom) of the two drop decisions: the halves
        // of one word, and the high half of a word with the low half of
        // the next.
        let words = 1_000_000usize;
        for &alpha in &[0.1, 0.5, 0.9] {
            let drops = batch_decisions(&AtomicShedder::new(77), alpha, 2 * words + 1, &[1024]);
            for (pairing, offset) in [("low/high of one word", 0), ("high/next low", 1)] {
                let mut seen = [[0f64; 2]; 2];
                for pair in drops[offset..].chunks_exact(2) {
                    seen[usize::from(pair[0])][usize::from(pair[1])] += 1.0;
                }
                let n: f64 = seen.iter().flatten().sum();
                let mut chi2 = 0.0;
                for (a, row) in seen.iter().enumerate() {
                    for (b, &cell) in row.iter().enumerate() {
                        let first = seen[a][0] + seen[a][1];
                        let second = seen[0][b] + seen[1][b];
                        let expected = first * second / n;
                        chi2 += (cell - expected).powi(2) / expected;
                    }
                }
                assert!(
                    chi2 < chi2_crit_1e4(1.0),
                    "alpha {alpha}, {pairing}: chi2 {chi2} over {seen:?}"
                );
            }
        }
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
}
