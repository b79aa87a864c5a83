//! Long-tailed (Pareto) arrival traces with a burstiness bias factor.
//!
//! The paper (§5): "The synthetic data are generated in such a way that
//! the number of data tuples per control period follows a long-tailed
//! (Pareto) distribution. The skewness of the arrival rates is regulated
//! by a bias factor β." Smaller β → heavier tail → burstier input
//! (Fig. 17 sweeps β ∈ {0.1, 0.25, 0.5, 1, 1.25, 1.5}).

use crate::order::order_instants;
use crate::ArrivalTrace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-period tuple counts drawn from a truncated Pareto distribution,
/// normalised so the long-run mean rate equals `mean_rate`.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoTrace {
    mean_rate: f64,
    bias: f64,
    period_s: f64,
    cap: f64,
    seed: u64,
}

/// Builder for [`ParetoTrace`].
#[derive(Debug, Clone)]
pub struct ParetoTraceBuilder {
    mean_rate: f64,
    bias: f64,
    period_s: f64,
    cap: f64,
    seed: u64,
}

impl Default for ParetoTraceBuilder {
    fn default() -> Self {
        Self {
            mean_rate: 200.0,
            bias: 1.0,
            period_s: 1.0,
            cap: 50.0,
            seed: 0x9A7E70,
        }
    }
}

impl ParetoTraceBuilder {
    /// Target long-run mean arrival rate, tuples/s.
    pub fn mean_rate(mut self, rate: f64) -> Self {
        assert!(rate > 0.0);
        self.mean_rate = rate;
        self
    }

    /// Bias factor β: smaller is burstier. The paper sweeps 0.1–1.5.
    pub fn bias(mut self, beta: f64) -> Self {
        assert!(beta > 0.0, "bias factor must be positive");
        self.bias = beta;
        self
    }

    /// Length of one burst period (the paper draws one count per control
    /// period; default 1 s).
    pub fn period_s(mut self, p: f64) -> Self {
        assert!(p > 0.0);
        self.period_s = p;
        self
    }

    /// Truncation of the normalised Pareto samples (multiples of the
    /// scale), bounding the largest single burst.
    pub fn cap(mut self, cap: f64) -> Self {
        assert!(cap > 1.0);
        self.cap = cap;
        self
    }

    /// RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Finalises the trace.
    pub fn build(self) -> ParetoTrace {
        ParetoTrace {
            mean_rate: self.mean_rate,
            bias: self.bias,
            period_s: self.period_s,
            cap: self.cap,
            seed: self.seed,
        }
    }
}

impl ParetoTrace {
    /// Starts building a trace.
    pub fn builder() -> ParetoTraceBuilder {
        ParetoTraceBuilder::default()
    }

    /// The paper's default synthetic input: β = 1, mean 200 t/s.
    pub fn paper_default(seed: u64) -> Self {
        Self::builder().bias(1.0).mean_rate(200.0).seed(seed).build()
    }

    /// The configured bias factor β.
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// Pareto tail index used for the per-period counts: `a = 1 + β`.
    /// β → 0 approaches the infinite-variance regime.
    fn shape(&self) -> f64 {
        1.0 + self.bias
    }

    /// Mean of the truncated Pareto(a, xm=1) on `[1, cap]`.
    fn truncated_mean(&self) -> f64 {
        let a = self.shape();
        let h = self.cap;
        // E[X] for Pareto truncated at h:
        //   a/(a-1) · (1 - h^(1-a)) / (1 - h^(-a))   for a ≠ 1.
        if (a - 1.0).abs() < 1e-9 {
            (h.ln()) / (1.0 - 1.0 / h)
        } else {
            a / (a - 1.0) * (1.0 - h.powf(1.0 - a)) / (1.0 - h.powf(-a))
        }
    }

    /// Draws one normalised (mean-1) burst factor.
    fn draw_factor(&self, rng: &mut StdRng) -> f64 {
        let a = self.shape();
        let u: f64 = rng.gen_range(0.0..1.0);
        // Inverse-CDF sampling of Pareto truncated at `cap`.
        let h = self.cap;
        let x = (1.0 - u * (1.0 - h.powf(-a))).powf(-1.0 / a);
        x / self.truncated_mean()
    }
}

impl ArrivalTrace for ParetoTrace {
    fn arrival_times(&self, duration_s: f64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut out = Vec::with_capacity((self.mean_rate * duration_s) as usize);
        let periods = (duration_s / self.period_s).ceil() as usize;
        for k in 0..periods {
            let start = k as f64 * self.period_s;
            let end = (start + self.period_s).min(duration_s);
            let factor = self.draw_factor(&mut rng);
            let count = (self.mean_rate * self.period_s * factor).round() as usize;
            if count == 0 {
                continue;
            }
            // Spread the burst uniformly through the period with jitter.
            let span = end - start;
            for i in 0..count {
                let frac = (i as f64 + rng.gen_range(0.0..1.0)) / count as f64;
                out.push(start + frac * span);
            }
        }
        // Non-decreasing by construction: `(i + u)/count` grows with i,
        // and each period starts where the last one ended. Rounding at a
        // period boundary could still invert two instants; then order
        // them.
        if out.is_sorted() {
            out
        } else {
            order_instants(out, duration_s)
        }
    }

    fn mean_rate(&self) -> f64 {
        self.mean_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{coefficient_of_variation, rate_series};

    #[test]
    fn mean_rate_is_respected() {
        let trace = ParetoTrace::builder().mean_rate(200.0).seed(1).build();
        let times = trace.arrival_times(400.0);
        let rate = times.len() as f64 / 400.0;
        assert!((rate - 200.0).abs() < 20.0, "rate {rate}");
    }

    #[test]
    fn smaller_bias_is_burstier() {
        let cv = |beta: f64| {
            let trace = ParetoTrace::builder()
                .bias(beta)
                .mean_rate(200.0)
                .seed(1)
                .build();
            let times = trace.arrival_times(400.0);
            coefficient_of_variation(&rate_series(&times, 1.0, 400.0))
        };
        let bursty = cv(0.1);
        let calm = cv(1.5);
        assert!(
            bursty > calm * 1.3,
            "cv(0.1) = {bursty}, cv(1.5) = {calm}"
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = ParetoTrace::builder().seed(3).build().arrival_times(50.0);
        let b = ParetoTrace::builder().seed(3).build().arrival_times(50.0);
        assert_eq!(a, b);
        let c = ParetoTrace::builder().seed(4).build().arrival_times(50.0);
        assert_ne!(a, c);
    }

    #[test]
    fn times_sorted_and_in_range() {
        let trace = ParetoTrace::paper_default(11);
        let times = trace.arrival_times(100.0);
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert!(times.iter().all(|&t| (0.0..100.0).contains(&t)));
    }

    /// The generator body before its instants were known to be ordered:
    /// the same draws, then a comparison sort.
    fn reference_arrival_times(trace: &ParetoTrace, duration_s: f64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(trace.seed);
        let mut out = Vec::new();
        let periods = (duration_s / trace.period_s).ceil() as usize;
        for k in 0..periods {
            let start = k as f64 * trace.period_s;
            let end = (start + trace.period_s).min(duration_s);
            let factor = trace.draw_factor(&mut rng);
            let count = (trace.mean_rate * trace.period_s * factor).round() as usize;
            if count == 0 {
                continue;
            }
            let span = end - start;
            for i in 0..count {
                let frac = (i as f64 + rng.gen_range(0.0..1.0)) / count as f64;
                out.push(start + frac * span);
            }
        }
        out.sort_by(|a, b| a.partial_cmp(b).unwrap());
        out
    }

    #[test]
    fn output_matches_the_sorted_reference_bit_for_bit() {
        for beta in [0.1, 0.25, 0.5, 1.0, 1.25, 1.5] {
            for period_s in [0.05, 0.1, 1.0] {
                for (seed, duration_s) in [(1, 100.0), (2, 37.3)] {
                    let trace = ParetoTrace::builder()
                        .bias(beta)
                        .period_s(period_s)
                        .seed(seed)
                        .build();
                    let got = trace.arrival_times(duration_s);
                    assert!(got.is_sorted(), "β={beta} T={period_s} seed {seed}");
                    let bits = |v: &[f64]| v.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&got),
                        bits(&reference_arrival_times(&trace, duration_s)),
                        "β={beta} T={period_s} seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn truncated_mean_is_sane() {
        // Mean of truncated Pareto must lie in (1, cap).
        for beta in [0.1, 0.5, 1.0, 1.5] {
            let trace = ParetoTrace::builder().bias(beta).build();
            let m = trace.truncated_mean();
            assert!(m > 1.0 && m < 50.0, "β={beta}: mean {m}");
        }
    }

    #[test]
    fn burst_factors_have_mean_one() {
        let trace = ParetoTrace::builder().bias(0.5).seed(9).build();
        let mut rng = StdRng::seed_from_u64(123);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| trace.draw_factor(&mut rng)).sum();
        let mean = sum / n as f64;
        assert!((mean - 1.0).abs() < 0.02, "mean factor {mean}");
    }
}
