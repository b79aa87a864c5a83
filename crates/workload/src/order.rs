//! Linear-time ordering of arrival instants.
//!
//! A generator that superposes sources (the Web trace's ON/OFF
//! emitters) produces its instants as many sorted, interleaved runs. A
//! comparison sort merges them through unpredictable branches; this
//! routine instead places each instant by time bucket, then removes the
//! few inversions left inside a bucket. For `n` instants spread over
//! `[0, duration)` there are `n` buckets, so a bucket holds about one
//! instant and both passes are O(n).

/// A bucket holding more instants than this is ordered by a comparison
/// sort, so one crowded bucket costs O(m log m) rather than O(m²).
const INSERTION_MAX: usize = 16;

/// Returns `times` in non-decreasing order.
///
/// Every instant must be finite and non-negative. Instants at or past
/// `duration_s` share the last bucket, so they are ordered too, just
/// without the linear-time guarantee. Finite non-negative instants have
/// one order and equal instants have equal bits, so the output is the
/// same, bit for bit, as any comparison sort's.
pub(crate) fn order_instants(times: Vec<f64>, duration_s: f64) -> Vec<f64> {
    let n = times.len();
    if n < 2 {
        return times;
    }
    // ⌊t · n / duration⌋ is monotone in t: a later bucket never holds an
    // earlier instant.
    let scale = n as f64 / duration_s;
    let bucket = |t: f64| ((t * scale) as usize).min(n - 1);

    // Counting pass: `ends[b + 1]` counts bucket b, then the prefix sum
    // makes `ends[b]` the first slot of bucket b. `u32` slots halve the
    // scratch memory a trace must fault in.
    assert!(n < u32::MAX as usize, "{n} instants overflow a u32 slot");
    let mut ends = vec![0u32; n + 1];
    for &t in &times {
        debug_assert!(
            t.is_finite() && t >= 0.0,
            "instant {t} is not finite and non-negative"
        );
        ends[bucket(t) + 1] += 1;
    }
    for b in 1..=n {
        ends[b] += ends[b - 1];
    }

    // Placement: `ends[b]` walks from the first slot of bucket b to its
    // end, which is where bucket b + 1 begins.
    let mut placed = vec![0.0; n];
    for &t in &times {
        let slot = &mut ends[bucket(t)];
        placed[*slot as usize] = t;
        *slot += 1;
    }
    drop(times);

    // Crowded buckets first, then one insertion pass over the whole
    // array: no inversion crosses a bucket boundary, and none is left
    // inside a crowded bucket, so the pass moves at most
    // `INSERTION_MAX − 1` places per instant.
    let mut lo = 0;
    for &hi in &ends[..n] {
        let hi = hi as usize;
        if hi - lo > INSERTION_MAX {
            placed[lo..hi].sort_unstable_by(f64::total_cmp);
        }
        lo = hi;
    }
    insertion_pass(&mut placed);
    placed
}

/// Insertion sort: O(n + inversions).
fn insertion_pass(v: &mut [f64]) {
    for i in 1..v.len() {
        let x = v[i];
        if x < v[i - 1] {
            let mut j = i;
            while j > 0 && x < v[j - 1] {
                v[j] = v[j - 1];
                j -= 1;
            }
            v[j] = x;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The comparison sort the generators used before this routine.
    fn reference(mut v: Vec<f64>) -> Vec<f64> {
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        v
    }

    fn assert_bit_identical(input: &[f64], duration_s: f64) {
        let want: Vec<u64> = reference(input.to_vec())
            .iter()
            .map(|t| t.to_bits())
            .collect();
        let got: Vec<u64> = order_instants(input.to_vec(), duration_s)
            .iter()
            .map(|t| t.to_bits())
            .collect();
        assert_eq!(got, want, "duration {duration_s}, input {input:?}");
    }

    #[test]
    fn tiny_inputs_match_the_comparison_sort() {
        let d = 10.0_f64;
        let below = f64::from_bits(d.to_bits() - 1);
        assert_bit_identical(&[], d);
        assert_bit_identical(&[3.0], d);
        for input in [
            vec![2.0, 1.0],
            vec![below, 0.0],
            vec![0.0, 0.0],
            vec![5.0, below, 0.0],
            vec![below, below, 1.0],
            vec![0.0, 9.5, 0.0],
        ] {
            assert_bit_identical(&input, d);
        }
    }

    #[test]
    fn random_inputs_match_the_comparison_sort() {
        let mut rng = StdRng::seed_from_u64(0x0D3E);
        for case in 0..400 {
            let d: f64 = [1.0, 0.3, 7.0, 400.0][case % 4];
            let below = f64::from_bits(d.to_bits() - 1);
            let n = rng.gen_range(0..300usize);
            let mut v: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..d)).collect();
            // Duplicates, then both ends of the range, one of them twice.
            for _ in 0..n / 8 {
                let i = rng.gen_range(0..n);
                let j = rng.gen_range(0..n);
                v[i] = v[j];
            }
            if n > 2 {
                v[rng.gen_range(0..n)] = 0.0;
                v[rng.gen_range(0..n)] = below;
                v[rng.gen_range(0..n)] = below;
            }
            assert_bit_identical(&v, d);
        }
    }

    #[test]
    fn a_crowded_bucket_takes_the_comparison_sort() {
        // 200 instants inside one bucket's width (1/256 of the range),
        // shuffled, beside a sparse remainder.
        let d = 1.0;
        let mut rng = StdRng::seed_from_u64(7);
        let mut v: Vec<f64> = (0..200).map(|_| 0.5 + rng.gen_range(0.0..1e-3)).collect();
        v.extend((0..56).map(|_| rng.gen_range(0.0..d)));
        v.reverse();
        assert_bit_identical(&v, d);
        // Every instant in one bucket, in descending order.
        let v: Vec<f64> = (0..100).rev().map(|i| 0.25 + i as f64 * 1e-9).collect();
        assert_bit_identical(&v, d);
    }
}
