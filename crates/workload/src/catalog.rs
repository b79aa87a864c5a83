//! Workload catalog: grid enumeration for the scenario-campaign harness.
//!
//! The campaign sweeps the cross product *workload × fault × topology ×
//! shards × controller*; this module supplies the workload axis as a
//! closed enum so the grid is enumerable, each variant has a stable key
//! usable in scenario identifiers, and every variant can be instantiated
//! at an arbitrary target rate (the campaign scales offered load to each
//! topology's capacity).
//!
//! Variants that do not natively take a rate parameter (Pareto, Web) are
//! rescaled in time so their burstiness shape survives while the
//! long-run mean hits the target. Everything is a pure function
//! of `(rate, duration, seed)` — byte-identical on every call.

use crate::{
    ArrivalTrace, CostTrace, MmppTrace, ParetoTrace, PoissonTrace, SineTrace, StepTrace,
    WebLikeTrace,
};

/// One workload family of the campaign grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// Memoryless Poisson arrivals at the target rate.
    Poisson,
    /// Sinusoidal rate swinging ±50% around the target (60 s period).
    Sine,
    /// A step: 60% of target for the first third, 140% afterwards.
    Step,
    /// Markov-modulated Poisson (quiet / normal / flash-crowd regimes).
    Mmpp,
    /// Long-tailed per-period tuple counts (the paper's synthetic data),
    /// time-scaled to the target mean rate.
    Pareto,
    /// Self-similar web-server-like ON/OFF superposition, time-scaled to
    /// the target mean rate.
    Web,
    /// Poisson arrivals plus the Fig. 14 time-varying per-tuple cost
    /// profile (the only variant with a cost dimension).
    Cost,
}

impl WorkloadKind {
    /// Every variant, in grid order.
    pub const ALL: [WorkloadKind; 7] = [
        WorkloadKind::Poisson,
        WorkloadKind::Sine,
        WorkloadKind::Step,
        WorkloadKind::Mmpp,
        WorkloadKind::Pareto,
        WorkloadKind::Web,
        WorkloadKind::Cost,
    ];

    /// The stable key used in campaign cell identifiers.
    pub fn key(self) -> &'static str {
        match self {
            WorkloadKind::Poisson => "poisson",
            WorkloadKind::Sine => "sine",
            WorkloadKind::Step => "step",
            WorkloadKind::Mmpp => "mmpp",
            WorkloadKind::Pareto => "pareto",
            WorkloadKind::Web => "web",
            WorkloadKind::Cost => "cost",
        }
    }

    /// Parses a key back into the variant.
    pub fn from_key(key: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.key() == key)
    }

    /// Whether this workload perturbs per-tuple cost as well as arrivals
    /// (see [`WorkloadKind::cost_profile`]).
    pub fn has_cost_profile(self) -> bool {
        matches!(self, WorkloadKind::Cost)
    }

    /// Arrival instants (seconds) targeting `mean_rate` tuples/s over
    /// `[0, duration_s)`.
    pub fn arrival_times(self, mean_rate: f64, duration_s: f64, seed: u64) -> Vec<f64> {
        assert!(mean_rate > 0.0 && mean_rate.is_finite());
        match self {
            WorkloadKind::Poisson | WorkloadKind::Cost => {
                PoissonTrace::new(mean_rate, seed).arrival_times(duration_s)
            }
            WorkloadKind::Sine => {
                SineTrace::new(0.5 * mean_rate, 1.5 * mean_rate, 60.0)
                    .arrival_times(duration_s)
            }
            WorkloadKind::Step => {
                // Low phase for the first third, high for the rest;
                // low/3 + 2·high/3 = mean_rate, so the long-run mean
                // matches the target exactly.
                StepTrace::single(0.6 * mean_rate, 1.2 * mean_rate, duration_s / 3.0)
                    .arrival_times(duration_s)
            }
            WorkloadKind::Mmpp => {
                MmppTrace::three_regime(mean_rate, seed).arrival_times(duration_s)
            }
            WorkloadKind::Pareto => {
                rescaled(ParetoTrace::paper_default(seed), mean_rate, duration_s)
            }
            WorkloadKind::Web => {
                rescaled(WebLikeTrace::paper_default(seed), mean_rate, duration_s)
            }
        }
    }

    /// The time-varying per-tuple cost profile for workloads that carry
    /// one (`None` for pure arrival workloads). `base_ms` is the
    /// network's nominal per-tuple cost in milliseconds.
    pub fn cost_profile(self, base_ms: f64, seed: u64) -> Option<CostTrace> {
        if self.has_cost_profile() {
            Some(CostTrace::paper_fig14(base_ms, seed))
        } else {
            None
        }
    }
}

/// Time-scales `inner` so its long-run mean rate becomes `mean_rate`:
/// `duration_s · factor` seconds of its arrivals, compressed by `factor`.
fn rescaled<T: ArrivalTrace>(inner: T, mean_rate: f64, duration_s: f64) -> Vec<f64> {
    let native = inner.mean_rate();
    assert!(native > 0.0 && native.is_finite(), "trace has no usable mean rate");
    let factor = mean_rate / native;
    inner
        .arrival_times(duration_s * factor)
        .into_iter()
        .map(|t| t / factor)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rescaled_compresses_time() {
        // 10 s of a 100 t/s trace squeezed into 5 s.
        let times = rescaled(StepTrace::constant(100.0), 200.0, 5.0);
        assert!((times.len() as i64 - 1000).abs() <= 1, "{}", times.len());
        assert!(times.iter().all(|&x| x < 5.0));
    }

    #[test]
    fn keys_are_unique_and_round_trip() {
        for kind in WorkloadKind::ALL {
            assert_eq!(WorkloadKind::from_key(kind.key()), Some(kind));
        }
        let mut keys: Vec<&str> = WorkloadKind::ALL.iter().map(|k| k.key()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), WorkloadKind::ALL.len());
        assert_eq!(WorkloadKind::from_key("nope"), None);
    }

    #[test]
    fn every_kind_hits_the_target_mean_rate() {
        let (rate, dur) = (200.0, 120.0);
        for kind in WorkloadKind::ALL {
            let times = kind.arrival_times(rate, dur, 7);
            assert!(!times.is_empty(), "{kind:?} generated nothing");
            assert!(
                times.windows(2).all(|w| w[0] <= w[1]),
                "{kind:?} arrivals unsorted"
            );
            assert!(times.iter().all(|&t| t >= 0.0 && t < dur + 1e-6));
            let measured = times.len() as f64 / dur;
            let rel = (measured - rate).abs() / rate;
            // Bursty families (MMPP flash crowds, Pareto/Web tails) wander
            // further from their long-run mean over a finite horizon.
            let tol = match kind {
                WorkloadKind::Poisson | WorkloadKind::Cost | WorkloadKind::Sine
                | WorkloadKind::Step => 0.10,
                _ => 0.45,
            };
            assert!(
                rel < tol,
                "{kind:?}: measured {measured:.1} t/s vs target {rate} (rel {rel:.2})"
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        for kind in WorkloadKind::ALL {
            let a = kind.arrival_times(150.0, 60.0, 42);
            let b = kind.arrival_times(150.0, 60.0, 42);
            assert_eq!(a, b, "{kind:?} not reproducible");
        }
    }

    #[test]
    fn only_the_cost_workload_carries_a_cost_profile() {
        for kind in WorkloadKind::ALL {
            let profile = kind.cost_profile(5.0, 3);
            assert_eq!(profile.is_some(), kind == WorkloadKind::Cost, "{kind:?}");
        }
        let profile = WorkloadKind::Cost.cost_profile(5.0, 3).unwrap();
        assert!(!profile.multiplier_points(60.0).is_empty());
    }
}
