//! # streamshed-workload
//!
//! Arrival-rate and processing-cost trace generators for the paper's
//! experiments (§5, Figs. 13–14):
//!
//! * [`step::StepTrace`] — step-function arrival rates (system
//!   identification, Fig. 5–6);
//! * [`sine::SineTrace`] — sinusoidal rates (model verification, Fig. 7);
//! * [`pareto::ParetoTrace`] — long-tailed per-period tuple counts with a
//!   bias factor β controlling burstiness (the paper's synthetic data);
//! * [`web::WebLikeTrace`] — a self-similar web-server-like trace built
//!   from superposed heavy-tailed ON/OFF sources (Paxson & Floyd), our
//!   substitute for the unavailable LBL-PKT-4 Internet Traffic Archive
//!   trace;
//! * [`cost::CostTrace`] — the time-varying per-tuple cost profile of
//!   Fig. 14 (Pareto base + scripted peaks/jumps/terrace).
//!
//! This crate is engine-independent: traces are plain `f64`-second arrival
//! instants; the experiment harness converts them to simulator time.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod catalog;
pub mod cost;
pub mod mmpp;
mod order;
pub mod pareto;
pub mod poisson;
pub mod schedule;
pub mod sine;
pub mod step;
pub mod web;

pub use catalog::WorkloadKind;
pub use cost::CostTrace;
pub use mmpp::{MmppState, MmppTrace};
pub use pareto::ParetoTrace;
pub use poisson::PoissonTrace;
pub use schedule::{frame_schedule, schedule_tuples, uniform_schedule, FrameAt};
pub use sine::SineTrace;
pub use step::StepTrace;
pub use web::WebLikeTrace;

/// A generator of tuple-arrival instants.
pub trait ArrivalTrace {
    /// Generates sorted arrival instants (seconds) covering
    /// `[0, duration_s)`.
    ///
    /// The contract every generator keeps, and every consumer may rely
    /// on:
    /// - every instant is finite and lies in `[0, duration_s)`;
    /// - the sequence is non-decreasing;
    /// - for a given generator, seed and `duration_s`, the instants are
    ///   the same bits from release to release (the experiments crate's
    ///   `sample_path_pin` test pins them, through Fig. 12's summary and
    ///   nine campaign cells' digests).
    ///
    /// Generators whose instants are not produced in order (the Web
    /// trace superposes sorted per-source runs) order them with a
    /// crate-private routine that relies on the first point: it places
    /// each instant by its time bucket, ⌊t·n/duration_s⌋, which is
    /// monotone in t, so sorting takes linear time. Finite non-negative
    /// instants have a single order and equal instants have equal bits,
    /// so any correct ordering returns the same bits.
    fn arrival_times(&self, duration_s: f64) -> Vec<f64>;

    /// Calls `f` with each arrival instant of `[0, duration_s)` in
    /// order: the sequence [`arrival_times`](Self::arrival_times)
    /// returns, for a consumer that does not need it all in memory at
    /// once. The default body materializes it; a generator that can
    /// stream overrides this instead.
    fn for_each_arrival(&self, duration_s: f64, f: &mut dyn FnMut(f64)) {
        for t in self.arrival_times(duration_s) {
            f(t);
        }
    }

    /// The long-run mean arrival rate this trace targets, tuples/second.
    fn mean_rate(&self) -> f64;
}

/// Converts second-based instants to integer microseconds (the engine's
/// clock unit), preserving order.
pub fn to_micros(times: &[f64]) -> Vec<u64> {
    times.iter().map(|&t| (t * 1e6).round() as u64).collect()
}

/// Bins arrival instants into per-interval rates — the "rate trace" view
/// plotted in Fig. 13.
pub fn rate_series(times: &[f64], bin_s: f64, duration_s: f64) -> Vec<f64> {
    assert!(bin_s > 0.0);
    let bins = (duration_s / bin_s).ceil() as usize;
    let mut counts = vec![0.0; bins];
    for &t in times {
        let idx = (t / bin_s) as usize;
        if idx < bins {
            counts[idx] += 1.0;
        }
    }
    for c in counts.iter_mut() {
        *c /= bin_s;
    }
    counts
}

/// Coefficient of variation of a series — the burstiness summary used in
/// tests to verify that the bias factor behaves as the paper describes.
pub fn coefficient_of_variation(series: &[f64]) -> f64 {
    if series.is_empty() {
        return 0.0;
    }
    let n = series.len() as f64;
    let mean = series.iter().sum::<f64>() / n;
    if mean.abs() < 1e-12 {
        return 0.0;
    }
    let var = series.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
    var.sqrt() / mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn to_micros_rounds() {
        assert_eq!(to_micros(&[0.0, 0.0000015, 1.0]), vec![0, 2, 1_000_000]);
    }

    #[test]
    fn rate_series_counts_per_bin() {
        let times = [0.1, 0.2, 0.9, 1.5, 2.7];
        let series = rate_series(&times, 1.0, 3.0);
        assert_eq!(series, vec![3.0, 1.0, 1.0]);
    }

    #[test]
    fn rate_series_fractional_bins() {
        let times = [0.1, 0.3, 0.6];
        let series = rate_series(&times, 0.5, 1.0);
        // 2 arrivals in [0,0.5) → rate 4/s; 1 in [0.5,1) → rate 2/s.
        assert_eq!(series, vec![4.0, 2.0]);
    }

    #[test]
    fn cv_of_constant_is_zero() {
        assert_eq!(coefficient_of_variation(&[5.0; 10]), 0.0);
        assert_eq!(coefficient_of_variation(&[]), 0.0);
    }

    #[test]
    fn cv_orders_burstiness() {
        let calm = [9.0, 10.0, 11.0, 10.0];
        let bursty = [0.0, 0.0, 40.0, 0.0];
        assert!(coefficient_of_variation(&bursty) > coefficient_of_variation(&calm));
    }
}
