//! A self-similar, web-server-like arrival trace.
//!
//! **Substitution note (see DESIGN.md):** the paper replays requests to a
//! web-server cluster from the Internet Traffic Archive (LBL-PKT-4),
//! which is not available in this environment. Following the classic
//! result of Paxson & Floyd (the paper's own reference \[24\]) that
//! wide-area traffic is well modelled by superposing many ON/OFF sources
//! with heavy-tailed ON and OFF durations, this generator produces an
//! aggregate trace with the same qualitative properties as the paper's
//! Fig. 13 "Web" series: sustained baseline around 100–300 t/s with
//! bursts towards ~800 t/s and long-range dependence.

use crate::order::order_instants;
use crate::ArrivalTrace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Superposition of heavy-tailed ON/OFF sources.
#[derive(Debug, Clone, PartialEq)]
pub struct WebLikeTrace {
    sources: usize,
    on_rate: f64,
    mean_on_s: f64,
    mean_off_s: f64,
    tail_shape: f64,
    seed: u64,
}

/// Builder for [`WebLikeTrace`].
#[derive(Debug, Clone)]
pub struct WebLikeTraceBuilder {
    sources: usize,
    on_rate: f64,
    mean_on_s: f64,
    mean_off_s: f64,
    tail_shape: f64,
    seed: u64,
}

impl Default for WebLikeTraceBuilder {
    fn default() -> Self {
        Self {
            sources: 40,
            on_rate: 12.0,
            mean_on_s: 4.0,
            mean_off_s: 6.0,
            tail_shape: 1.4,
            seed: 0x1_EB94,
        }
    }
}

impl WebLikeTraceBuilder {
    /// Number of superposed ON/OFF sources.
    pub fn sources(mut self, n: usize) -> Self {
        assert!(n > 0);
        self.sources = n;
        self
    }

    /// Emission rate of one source while ON, tuples/s.
    pub fn on_rate(mut self, r: f64) -> Self {
        assert!(r > 0.0);
        self.on_rate = r;
        self
    }

    /// Mean ON duration, seconds.
    pub fn mean_on_s(mut self, s: f64) -> Self {
        assert!(s > 0.0);
        self.mean_on_s = s;
        self
    }

    /// Mean OFF duration, seconds.
    pub fn mean_off_s(mut self, s: f64) -> Self {
        assert!(s > 0.0);
        self.mean_off_s = s;
        self
    }

    /// Pareto tail index of ON/OFF durations; 1 < shape < 2 yields
    /// long-range-dependent aggregates (Paxson & Floyd).
    pub fn tail_shape(mut self, a: f64) -> Self {
        assert!(a > 1.0, "tail shape must exceed 1 for finite means");
        self.tail_shape = a;
        self
    }

    /// RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Finalises the trace.
    pub fn build(self) -> WebLikeTrace {
        WebLikeTrace {
            sources: self.sources,
            on_rate: self.on_rate,
            mean_on_s: self.mean_on_s,
            mean_off_s: self.mean_off_s,
            tail_shape: self.tail_shape,
            seed: self.seed,
        }
    }
}

impl WebLikeTrace {
    /// Starts building a trace.
    pub fn builder() -> WebLikeTraceBuilder {
        WebLikeTraceBuilder::default()
    }

    /// Defaults tuned to resemble the paper's Fig. 13 "Web" trace
    /// (baseline ~200 t/s, bursts toward 800 t/s).
    pub fn paper_default(seed: u64) -> Self {
        Self::builder().seed(seed).build()
    }

    /// Draws a Pareto-tailed duration with the given mean.
    fn draw_duration(&self, mean: f64, rng: &mut StdRng) -> f64 {
        let a = self.tail_shape;
        // Pareto(xm, a) has mean a·xm/(a−1); choose xm to hit `mean`.
        let xm = mean * (a - 1.0) / a;
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        xm / u.powf(1.0 / a)
    }
}

impl ArrivalTrace for WebLikeTrace {
    fn arrival_times(&self, duration_s: f64) -> Vec<f64> {
        let mut out = Vec::with_capacity((self.mean_rate() * duration_s) as usize);
        for src in 0..self.sources {
            let mut src_rng =
                StdRng::seed_from_u64(self.seed ^ (0xD1F4_u64.wrapping_mul(src as u64 + 1)));
            // Random initial phase: start OFF for a random fraction.
            let mut t = src_rng.gen_range(0.0..self.mean_off_s);
            let mut on = src_rng.gen_bool(
                self.mean_on_s / (self.mean_on_s + self.mean_off_s),
            );
            while t < duration_s {
                if on {
                    let dur = self.draw_duration(self.mean_on_s, &mut src_rng);
                    let end = (t + dur).min(duration_s);
                    let gap = 1.0 / self.on_rate;
                    let mut at = t;
                    while at < end {
                        // Small jitter keeps sources from phase-locking;
                        // it is drawn even when it pushes the instant
                        // past the end, so the stream stays the same.
                        let jittered = at + src_rng.gen_range(0.0..gap * 0.5);
                        if jittered < duration_s {
                            out.push(jittered);
                        }
                        at += gap;
                    }
                    t += dur;
                } else {
                    t += self.draw_duration(self.mean_off_s, &mut src_rng);
                }
                on = !on;
            }
        }
        order_instants(out, duration_s)
    }

    fn mean_rate(&self) -> f64 {
        let duty = self.mean_on_s / (self.mean_on_s + self.mean_off_s);
        self.sources as f64 * self.on_rate * duty
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{coefficient_of_variation, rate_series};

    #[test]
    fn mean_rate_roughly_matches() {
        let trace = WebLikeTrace::paper_default(5);
        let times = trace.arrival_times(400.0);
        let rate = times.len() as f64 / 400.0;
        let want = trace.mean_rate();
        assert!(
            (rate - want).abs() < want * 0.35,
            "rate {rate}, want {want}"
        );
    }

    #[test]
    fn trace_is_bursty_but_less_than_pareto() {
        // Fig. 13: "fluctuations in the Pareto data are more dramatic than
        // in the Web data".
        let web = WebLikeTrace::paper_default(5);
        let web_cv = coefficient_of_variation(&rate_series(
            &web.arrival_times(400.0),
            1.0,
            400.0,
        ));
        let pareto = crate::ParetoTrace::builder().bias(1.0).seed(5).build();
        let pareto_cv = coefficient_of_variation(&rate_series(
            &pareto.arrival_times(400.0),
            1.0,
            400.0,
        ));
        assert!(web_cv > 0.1, "web trace should fluctuate: cv {web_cv}");
        assert!(
            pareto_cv > web_cv,
            "pareto cv {pareto_cv} should exceed web cv {web_cv}"
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = WebLikeTrace::paper_default(9).arrival_times(60.0);
        let b = WebLikeTrace::paper_default(9).arrival_times(60.0);
        assert_eq!(a, b);
    }

    #[test]
    fn sorted_and_bounded() {
        let times = WebLikeTrace::paper_default(2).arrival_times(100.0);
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert!(times.iter().all(|&t| t < 100.0));
    }

    /// The generator body before the linear-time ordering: the same
    /// draws, a `retain` of the instants the jitter pushed past the end,
    /// then a comparison sort.
    fn reference_arrival_times(trace: &WebLikeTrace, duration_s: f64) -> Vec<f64> {
        let mut out = Vec::new();
        for src in 0..trace.sources {
            let mut src_rng =
                StdRng::seed_from_u64(trace.seed ^ (0xD1F4_u64.wrapping_mul(src as u64 + 1)));
            let mut t = src_rng.gen_range(0.0..trace.mean_off_s);
            let mut on = src_rng.gen_bool(trace.mean_on_s / (trace.mean_on_s + trace.mean_off_s));
            while t < duration_s {
                if on {
                    let dur = trace.draw_duration(trace.mean_on_s, &mut src_rng);
                    let end = (t + dur).min(duration_s);
                    let gap = 1.0 / trace.on_rate;
                    let mut at = t;
                    while at < end {
                        out.push(at + src_rng.gen_range(0.0..gap * 0.5));
                        at += gap;
                    }
                    t += dur;
                } else {
                    t += trace.draw_duration(trace.mean_off_s, &mut src_rng);
                }
                on = !on;
            }
        }
        out.retain(|&t| t < duration_s);
        out.sort_by(|a, b| a.partial_cmp(b).unwrap());
        out
    }

    #[test]
    fn output_matches_the_sorted_reference_bit_for_bit() {
        // (sources, on_rate, duration): the paper's default, the
        // heavier Fig. 18 mix, and loadgen's one-source-per-connection
        // shape at fleet rates.
        let grid = [
            (1, 12.0, 400.0),
            (1, 1500.0, 20.0),
            (3, 150.0, 60.0),
            (3, 1500.0, 1.0),
            (40, 12.0, 400.0),
            (40, 150.0, 7.5),
            (64, 12.0, 100.0),
            (64, 1500.0, 1.0),
        ];
        let bits = |v: &[f64]| v.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
        for seed in 0..32u64 {
            for (sources, on_rate, duration_s) in
                [grid[seed as usize % 8], grid[(seed as usize + 3) % 8]]
            {
                let trace = WebLikeTrace::builder()
                    .sources(sources)
                    .on_rate(on_rate)
                    .seed(seed)
                    .build();
                assert_eq!(
                    bits(&trace.arrival_times(duration_s)),
                    bits(&reference_arrival_times(&trace, duration_s)),
                    "{sources} sources at {on_rate}/s for {duration_s} s, seed {seed}"
                );
            }
        }
    }

    #[test]
    fn aggregation_smooths_slowly() {
        // Self-similarity indicator: CV decays slower than sqrt(m) when
        // aggregating m bins (compared to Poisson). We only check that
        // burstiness survives 10× aggregation.
        let trace = WebLikeTrace::paper_default(13);
        let times = trace.arrival_times(400.0);
        let fine = coefficient_of_variation(&rate_series(&times, 1.0, 400.0));
        let coarse = coefficient_of_variation(&rate_series(&times, 10.0, 400.0));
        assert!(
            coarse > fine / 10.0_f64.sqrt(),
            "coarse {coarse} vs fine {fine}"
        );
    }
}
