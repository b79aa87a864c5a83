//! Property-based tests for the control crate: the actuators, the
//! estimators, and the identification machinery.

use proptest::prelude::*;
use streamshed_control::adaptive::RlsEstimator;
use streamshed_control::estimator::CostEstimator;
use streamshed_control::shedder::{EntryShedder, NetworkShedder};

proptest! {
    /// The entry shedder's α is always a probability and is monotone:
    /// more desired admission ⇒ less shedding.
    #[test]
    fn entry_alpha_is_monotone_probability(
        fin in 0.0..2000.0f64,
        v1 in -500.0..2000.0f64,
        v2 in -500.0..2000.0f64,
    ) {
        let a1 = EntryShedder::alpha_for(v1, fin);
        let a2 = EntryShedder::alpha_for(v2, fin);
        prop_assert!((0.0..=1.0).contains(&a1));
        if v1 <= v2 {
            prop_assert!(a1 >= a2 - 1e-12);
        }
    }

    /// The queue-conserving Ls is bounded by what exists and never
    /// negative.
    #[test]
    fn network_ls_bounded(
        lq in 0.0..1e7f64,
        fin in 0.0..2000.0f64,
        v in -2000.0..2000.0f64,
        c in 100.0..50_000.0f64,
        t in 0.05..4.0f64,
    ) {
        let ls = NetworkShedder::load_to_shed_us(lq, fin, v, c, t);
        prop_assert!(ls >= 0.0);
        prop_assert!(ls <= lq + fin * t * c + 1e-6);
    }

    /// RLS recovers an arbitrary parameter from noise-free data.
    #[test]
    fn rls_recovers_parameter(theta in -50.0..50.0f64, seed in 0u64..500) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rls = RlsEstimator::new(0.0, 1000.0, 1.0);
        for _ in 0..80 {
            let x: f64 = rng.gen_range(0.5..5.0);
            rls.update(x, theta * x);
        }
        prop_assert!(
            (rls.estimate() - theta).abs() < 1e-3 + theta.abs() * 1e-4,
            "estimate {} vs {theta}", rls.estimate()
        );
    }

    /// The EWMA cost tracker stays within the convex hull of its inputs.
    #[test]
    fn cost_trackers_stay_in_hull(
        prior in 500.0..20_000.0f64,
        measurements in prop::collection::vec(500.0..20_000.0f64, 1..40),
    ) {
        let mut ewma = CostEstimator::new(prior, 0.4);
        let lo = measurements.iter().cloned().fold(prior, f64::min);
        let hi = measurements.iter().cloned().fold(prior, f64::max);
        for &m in &measurements {
            let e = ewma.update(Some(m));
            prop_assert!((lo - 1e-6..=hi + 1e-6).contains(&e), "ewma {e}");
        }
    }
}
