//! Homogeneous Poisson arrivals — the memoryless baseline against which
//! the heavy-tailed traces are compared (the paper's reference \[24\],
//! Paxson & Floyd, is titled "the failure of Poisson modeling" for a
//! reason: real traffic is burstier; tests verify that ordering here).

use crate::ArrivalTrace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Poisson arrivals at a constant intensity.
#[derive(Debug, Clone, PartialEq)]
pub struct PoissonTrace {
    rate: f64,
    seed: u64,
}

impl PoissonTrace {
    /// Creates a Poisson trace with the given intensity (tuples/s).
    pub fn new(rate: f64, seed: u64) -> Self {
        assert!(rate > 0.0 && rate.is_finite());
        Self { rate, seed }
    }
}

impl PoissonTrace {
    /// The generator: calls `f` with each arrival instant of
    /// `[0, duration_s)` in order. Generic so that collecting into a
    /// `Vec` inlines the push instead of paying a call per arrival.
    fn generate(&self, duration_s: f64, mut f: impl FnMut(f64)) {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut t = 0.0f64;
        loop {
            // Exponential inter-arrival via inverse CDF.
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            t += -u.ln() / self.rate;
            if t >= duration_s {
                break;
            }
            f(t);
        }
    }
}

impl ArrivalTrace for PoissonTrace {
    fn arrival_times(&self, duration_s: f64) -> Vec<f64> {
        let mut out = Vec::with_capacity((self.rate * duration_s * 1.1) as usize);
        self.generate(duration_s, |t| out.push(t));
        out
    }

    fn for_each_arrival(&self, duration_s: f64, f: &mut dyn FnMut(f64)) {
        self.generate(duration_s, f);
    }

    fn mean_rate(&self) -> f64 {
        self.rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{coefficient_of_variation, rate_series, ParetoTrace};

    #[test]
    fn mean_rate_is_respected() {
        let trace = PoissonTrace::new(200.0, 3);
        let times = trace.arrival_times(200.0);
        let rate = times.len() as f64 / 200.0;
        assert!((rate - 200.0).abs() < 10.0, "rate {rate}");
    }

    #[test]
    fn interarrivals_are_memoryless() {
        // CV of exponential inter-arrivals is 1.
        let trace = PoissonTrace::new(500.0, 5);
        let times = trace.arrival_times(100.0);
        let gaps: Vec<f64> = times.windows(2).map(|w| w[1] - w[0]).collect();
        let cv = coefficient_of_variation(&gaps);
        assert!((cv - 1.0).abs() < 0.05, "interarrival CV {cv}");
    }

    #[test]
    fn poisson_is_calmer_than_pareto() {
        let poisson = PoissonTrace::new(200.0, 9);
        let pareto = ParetoTrace::builder().mean_rate(200.0).bias(0.5).seed(9).build();
        let p_cv = coefficient_of_variation(&rate_series(
            &poisson.arrival_times(300.0),
            1.0,
            300.0,
        ));
        let h_cv = coefficient_of_variation(&rate_series(
            &pareto.arrival_times(300.0),
            1.0,
            300.0,
        ));
        assert!(h_cv > p_cv * 2.0, "pareto {h_cv} vs poisson {p_cv}");
    }

    #[test]
    fn sorted_and_deterministic() {
        let a = PoissonTrace::new(100.0, 1).arrival_times(10.0);
        let b = PoissonTrace::new(100.0, 1).arrival_times(10.0);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }
}
