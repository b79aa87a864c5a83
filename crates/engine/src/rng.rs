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
//! has one shedder, [`AtomicShedder`], used by both engines: the
//! simulator's admission pass and the wall-clock front door (where a
//! `&mut` generator could not be shared by concurrent offerers). It
//! carries its own counter-based generator — a Weyl counter through the
//! splitmix64 finalizer (`mix64`), each mixed word cut into two 32-bit
//! coins — chosen so that a batch of draws has no serial dependency and
//! any split of a stream into batches makes the same decisions.
//!
//! The decision has one definition (coin `c` is kept iff it is at or
//! above `⌈α·2³²⌉`) and two evaluators that produce the same 64-bit keep
//! masks: the portable scalar `survivors_of`, and an AVX-512 one that
//! mixes eight words per instruction, which the CPU alone selects
//! (`is_x86_feature_detected!`). Batches shorter than two vectors and
//! an α within 2⁻³² of 1 stay scalar. The test
//! `avx512_evaluator_makes_the_scalar_decisions` holds the two to the
//! same masks, whole and split, at both coin parities.

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

/// Coins one call of the AVX-512 evaluator decides, into
/// [`SHED_CHUNK_MASKS`] 64-bit keep masks.
const SHED_CHUNK: usize = 256;

/// 64-coin keep masks per [`SHED_CHUNK`].
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
const SHED_CHUNK_MASKS: usize = SHED_CHUNK / 64;

/// Coins one AVX-512 vector decides: eight mixed words of two coins each.
const VECTOR_COINS: u64 = 16;

/// The shortest batch the AVX-512 evaluator takes: two vectors. One
/// vector's mix is two `vpmullq` latencies long, no shorter than eight
/// pipelined scalar mixes, so a shorter batch stays scalar.
const VECTOR_MIN_BATCH: u64 = 2 * VECTOR_COINS;

/// The two multipliers of [`mix64`].
const MIX_1: u64 = 0xBF58_476D_1CE4_E5B9;
const MIX_2: u64 = 0x94D0_49BB_1331_11EB;

/// splitmix64 finalizer: a full-avalanche bit mix. It is the output
/// stage of [`AtomicShedder`]'s counter-based generator and the
/// front door's wrap-safe round-robin spreader.
#[inline]
pub(crate) fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(MIX_1);
    x ^= x >> 27;
    x = x.wrapping_mul(MIX_2);
    x ^ (x >> 31)
}

/// Integer form of the Bernoulli compare on a 32-bit coin: for α ∈ (0, 1)
/// `coin < coin_threshold(α)` ⇔ `coin / 2³² < α`. Scaling by 2³² is
/// exact and the ceiling keeps a fractional `α·2³²` on the same side of
/// every integer coin. An α within 2⁻³² of 1 rounds up to 2³², above
/// every coin — it sheds everything, which is why the threshold is a
/// `u64`: wrapped to 32 bits it would read 0, "admit all". An α below
/// 2⁻³² rounds up to 1, never down to "shed nothing". The ceiling is
/// taken through `i64` (exact: `α·2³²` < 2⁵³): `f64::ceil` is a libm
/// call on the baseline x86-64 target.
#[inline]
fn coin_threshold(alpha: f64) -> u64 {
    let scaled = alpha * TWO_32;
    let floor = scaled as i64;
    ((floor + i64::from((floor as f64) < scaled)) as u64).min(1 << 32)
}

/// The two coins of one mixed word, in coin-index order: low half, then
/// high half.
#[inline]
fn coins_of(word: u64) -> [u64; 2] {
    [word & 0xFFFF_FFFF, word >> 32]
}

/// The scalar evaluator, and the oracle the vector one is tested
/// against: flips coins `coin .. coin + len` (`len ≤ 64`) of the stream
/// rooted at `origin` and returns their keep mask — bit `j` set iff coin
/// `coin + j` is at or above `threshold` — and the number kept. Coin `c`
/// is half `c & 1` of word `c >> 1`, and word `k` is
/// `mix64(origin + (k+1)·WEYL)` — a function of the coin index alone, so
/// a pass that starts on an odd coin takes the high half of a word whose
/// low half the previous pass spent, and one that ends on an even coin
/// leaves a high half for the next. Branch-free in the decisions: each
/// decision bit enters the mask at the top and shifts down (every shift
/// but the last is by a constant), and the count is summed rather than
/// popcounted (the baseline x86-64 target has no `popcnt`).
///
/// Not generic and never inlined, so every caller runs one compiled
/// copy whatever its `keep` closure captures.
#[inline(never)]
fn survivors_of(origin: u64, coin: u64, threshold: u64, len: usize) -> (u64, u64) {
    debug_assert!(len <= 64);
    if len == 0 {
        return (0, 0);
    }
    let mut x = origin.wrapping_add((coin >> 1).wrapping_mul(WEYL));
    let mut next_word = || {
        x = x.wrapping_add(WEYL);
        mix64(x)
    };
    let (mut mask, mut kept) = (0u64, 0u64);
    let mut flip = |coin: u64| {
        let bit = u64::from(coin >= threshold);
        mask = mask >> 1 | bit << 63;
        kept += bit;
    };
    let lead = (coin & 1) as usize;
    if lead == 1 {
        flip(coins_of(next_word())[1]);
    }
    let pairs = (len - lead) / 2;
    for _ in 0..pairs {
        let [low, high] = coins_of(next_word());
        flip(low);
        flip(high);
    }
    if lead + 2 * pairs < len {
        flip(coins_of(next_word())[0]);
    }
    (mask >> (64 - len), kept)
}

/// Whether the running CPU can run the AVX-512 coin evaluator. Only the
/// CPU selects the evaluator: there is no switch to force either one.
fn avx512_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512dq")
            && is_x86_feature_detected!("popcnt")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The vector evaluator of the same coin stream: eight words per
/// instruction, their sixteen 32-bit coins compared in one unsigned
/// compare.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{MIX_1, MIX_2, SHED_CHUNK_MASKS, VECTOR_COINS, WEYL};
    use std::arch::x86_64::*;

    /// [`mix64`](super::mix64) on eight words at once (`vpmullq` for
    /// the two multiplies).
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn mix64x8(x: __m512i) -> __m512i {
        let x = _mm512_xor_si512(x, _mm512_srli_epi64::<30>(x));
        let x = _mm512_mullo_epi64(x, _mm512_set1_epi64(MIX_1 as i64));
        let x = _mm512_xor_si512(x, _mm512_srli_epi64::<27>(x));
        let x = _mm512_mullo_epi64(x, _mm512_set1_epi64(MIX_2 as i64));
        _mm512_xor_si512(x, _mm512_srli_epi64::<31>(x))
    }

    /// Keep masks of coins `coin .. coin + len` (`len ≤ SHED_CHUNK`),
    /// bit `b` of `masks[m]` deciding coin `coin + 64·m + b` exactly as
    /// [`survivors_of`](super::survivors_of) does, and their number of
    /// set bits. Lane `j` of vector `v` holds word `(coin >> 1) + 8v + j`,
    /// so its u32 lanes are coins in index order and the compare's
    /// 16-bit mask is their keep bits. An odd `coin` is the high half of
    /// word `coin >> 1`: the `⌈(lead + len)/16⌉` vectors decide one
    /// `lead` coin more, and the masks laid end to end shift down by it.
    #[target_feature(enable = "avx512f,avx512dq,popcnt")]
    pub(super) fn keep_masks(
        origin: u64,
        coin: u64,
        threshold: u32,
        len: usize,
        masks: &mut [u64; SHED_CHUNK_MASKS],
    ) -> u64 {
        const STEP: usize = VECTOR_COINS as usize;
        let lead = (coin & 1) as usize;
        let coins = lead + len;
        let weyl = |k: u64| WEYL.wrapping_mul(k) as i64;
        let first = origin.wrapping_add((coin >> 1).wrapping_mul(WEYL)) as i64;
        let [l1, l2, l3, l4, l5, l6, l7, l8] = [1, 2, 3, 4, 5, 6, 7, 8].map(weyl);
        let mut x = _mm512_add_epi64(
            _mm512_set1_epi64(first),
            _mm512_setr_epi64(l1, l2, l3, l4, l5, l6, l7, l8),
        );
        let stride = _mm512_set1_epi64(weyl(8));
        let threshold = _mm512_set1_epi32(threshold as i32);
        let mut raw = [0u64; SHED_CHUNK_MASKS + 1];
        for v in 0..coins.div_ceil(STEP) {
            // Lanes past the pass's last coin stay 0.
            let live = (0xFFFF_u32 >> (STEP - (coins - STEP * v).min(STEP))) as u16;
            let kept = _mm512_mask_cmpge_epu32_mask(live, mix64x8(x), threshold);
            raw[v / 4] |= u64::from(kept) << (STEP * (v % 4));
            x = _mm512_add_epi64(x, stride);
        }
        let mut kept = 0;
        for (m, mask) in masks.iter_mut().enumerate() {
            *mask = raw[m] >> lead | raw[m + 1] << 1 << (63 - lead);
            kept += u64::from(mask.count_ones());
        }
        kept
    }
}

/// The entry shedder of both engines — lock-free, so the wall clock's
/// concurrent offerers can share it: one Bernoulli(α) coin per arrival.
///
/// Randomness is **counter-based** (splitmix64) and a mixed word pays
/// for **two coins**: the shared state is the index `c` of the next
/// coin beside an immutable origin (the mixed seed), coin `c` is the low
/// (`c` even) or high (`c` odd) 32 bits of word `c >> 1`, and word `k`
/// is `mix64(origin + (k+1)·WEYL)` — a function of the index alone, not
/// of the draw before it. The words of a pass therefore do not wait on
/// each other (the CPU pipelines the scalar mixes, and the AVX-512
/// evaluator mixes eight per instruction); the pass loads the index
/// once and stores `c + n` back once, so splitting a stream into batches
/// of any sizes, odd ones included, makes the identical decision
/// sequence. 32 bits resolve α to 2⁻³², far below what the controller
/// commands or a run could observe.
///
/// The index uses relaxed load/store — concurrent offerers can reuse a
/// stretch of it, which perturbs the realised drop rate far less than
/// scheduling jitter already does.
#[derive(Debug)]
pub struct AtomicShedder {
    origin: u64,
    coin: AtomicU64,
    /// The CPU runs the AVX-512 evaluator.
    avx512: bool,
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
            avx512: avx512_detected(),
        }
    }

    /// Decides the fate of a batch of `n` arrivals under drop
    /// probability `alpha` in **one pass**, returning the number to
    /// drop. The coin index is loaded once and stored back once and the
    /// threshold is computed once; the keep masks are only counted.
    ///
    /// Positions of the drops within the batch are not reported: at the
    /// front door a batch is a run of identical anonymous tuples, so
    /// only the count matters. Keyed batches use
    /// [`shed_batch_each`](Self::shed_batch_each).
    pub fn shed_batch(&self, alpha: f64, n: u64) -> u64 {
        self.pass(alpha, n, |_, _| {})
    }

    /// Batch decision that also reports each *admitted* position (for
    /// keyed batches, where the survivor set determines per-shard
    /// grouping). Calls `keep(i)` for every admitted index `i < n`, in
    /// order; returns the number dropped.
    ///
    /// `keep` runs over each keep mask's set bits alone (one
    /// `trailing_zeros` per survivor) instead of behind an unpredictable
    /// per-arrival branch.
    pub fn shed_batch_each(&self, alpha: f64, n: u64, mut keep: impl FnMut(usize)) -> u64 {
        if alpha <= 0.0 {
            (0..n as usize).for_each(keep);
            return 0;
        }
        self.pass(alpha, n, |base, mut mask| {
            while mask != 0 {
                keep(base + mask.trailing_zeros() as usize);
                mask &= mask - 1;
            }
        })
    }

    /// One pass over `n` arrivals: calls `visit(base, mask)` with each
    /// keep mask, bit `b` deciding position `base + b`, in order, and
    /// returns the number dropped. α ≤ 0 keeps all and α ≥ 1 (or NaN,
    /// which fails closed: a corrupt command sheds rather than floods)
    /// drops all, neither consuming coins nor visiting a mask. The
    /// AVX-512 evaluator decides in chunks of [`SHED_CHUNK`] when the CPU
    /// has it; a batch shorter than [`VECTOR_MIN_BATCH`], and the
    /// threshold 2³² of an α within 2⁻³² of 1, which does not fit the
    /// vector's 32-bit compare, stay on [`survivors_of`], 64 coins per
    /// call.
    fn pass(&self, alpha: f64, n: u64, mut visit: impl FnMut(usize, u64)) -> u64 {
        if alpha <= 0.0 {
            return 0;
        }
        if alpha >= 1.0 || alpha.is_nan() {
            return n;
        }
        let threshold = coin_threshold(alpha);
        let coin = self.coin.load(Ordering::Relaxed);
        let mut kept = 0u64;
        if self.avx512 && n >= VECTOR_MIN_BATCH && threshold < 1 << 32 {
            #[cfg(target_arch = "x86_64")]
            for base in (0..n).step_by(SHED_CHUNK) {
                let len = (n - base).min(SHED_CHUNK as u64) as usize;
                let mut masks = [0u64; SHED_CHUNK_MASKS];
                let at = coin.wrapping_add(base);
                // SAFETY: the private `self.avx512` is only set true from
                // `avx512_detected()`: the running CPU has every target
                // feature the evaluator is compiled for.
                #[allow(unsafe_code)]
                let chunk_kept = unsafe {
                    avx512::keep_masks(self.origin, at, threshold as u32, len, &mut masks)
                };
                kept += chunk_kept;
                for (m, &mask) in masks.iter().enumerate().take(len.div_ceil(64)) {
                    visit(base as usize + 64 * m, mask);
                }
            }
        } else {
            for base in (0..n).step_by(64) {
                let len = (n - base).min(64) as usize;
                let at = coin.wrapping_add(base);
                let (mask, mask_kept) = survivors_of(self.origin, at, threshold, len);
                kept += mask_kept;
                visit(base as usize, mask);
            }
        }
        self.coin.store(coin.wrapping_add(n), Ordering::Relaxed);
        n - kept
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
    fn avx512_evaluator_makes_the_scalar_decisions() {
        // The gate for identical decisions: every keep mask the AVX-512
        // evaluator produces equals `survivors_of`'s. One stream per seed
        // and α is decided three ways — by the scalar evaluator in one
        // pass (the oracle), and by the CPU's evaluator in one pass and
        // split into batches of every size 0..=2·SHED_CHUNK+1. Σ sizes is
        // odd, so the second round of sizes starts each size on the other
        // coin parity; the split's last chunks run the vector kernel at
        // every length 1..=SHED_CHUNK. 1 − 2⁻³³ is the 2³² threshold,
        // which stays scalar.
        let vector = avx512_detected();
        if vector {
            println!("rng differential: AVX-512 evaluator against the scalar one");
        } else {
            println!(
                "rng differential: scalar only (no AVX-512 on this CPU; \
                 the vector evaluator is unmeasured)"
            );
        }
        assert_eq!(AtomicShedder::new(0).avx512, vector);
        let masks = |s: AtomicShedder, alpha: f64, n: usize| {
            let mut seen = Vec::new();
            s.pass(alpha, n as u64, |base, mask| seen.push((base, mask)));
            seen
        };
        let scalar = |seed: u64| AtomicShedder { avx512: false, ..AtomicShedder::new(seed) };
        let sizes: Vec<usize> = (0..=2 * SHED_CHUNK + 1).collect();
        let n = 2 * sizes.iter().sum::<usize>();
        assert_eq!(n / 2 % 2, 1);
        let tiny = 2f64.powi(-33);
        for seed in 0..32 {
            for alpha in [tiny, 1e-9, 0.01, 0.5, 0.9, 0.999, 1.0 - tiny] {
                let oracle = masks(scalar(seed), alpha, n);
                assert!(
                    masks(AtomicShedder::new(seed), alpha, n) == oracle,
                    "seed {seed} alpha {alpha}: one pass differs"
                );
                let dropped: Vec<bool> =
                    (0..n).map(|i| oracle[i / 64].1 >> (i % 64) & 1 == 0).collect();
                let split = batch_decisions(&AtomicShedder::new(seed), alpha, n, &sizes);
                assert!(split == dropped, "seed {seed} alpha {alpha}: split stream differs");
            }
            // A random coin lands on the threshold with probability 2⁻³²;
            // put the threshold on each coin of a two-vector pass and one
            // above it: the coin is kept, then dropped.
            let origin = mix64(seed);
            let n = VECTOR_MIN_BATCH as usize;
            for k in 0..n {
                let word = mix64(origin.wrapping_add((k as u64 / 2 + 1).wrapping_mul(WEYL)));
                let coin = coins_of(word)[k % 2];
                for (threshold, kept) in [(coin, 1), (coin + 1, 0)] {
                    let alpha = threshold as f64 / TWO_32;
                    if threshold == 0 || threshold == 1 << 32 {
                        continue;
                    }
                    assert_eq!(coin_threshold(alpha), threshold);
                    let oracle = masks(scalar(seed), alpha, n);
                    assert_eq!(oracle[0].1 >> k & 1, kept, "seed {seed} coin {k}");
                    let vector = masks(AtomicShedder::new(seed), alpha, n);
                    assert_eq!(vector, oracle, "seed {seed} coin {k}");
                }
            }
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
