//! Property-based tests for the control crate: the controller design,
//! the actuators, the estimators, and the identification machinery.

use proptest::prelude::*;
use streamshed_control::controller::{ControllerParams, FeedbackController};
use streamshed_control::estimator::CostEstimator;
use streamshed_control::shedder::{EntryShedder, NetworkShedder};

proptest! {
    /// Appendix A's closed form places the closed loop's double pole
    /// where asked, with unit static gain.
    #[test]
    fn designed_loop_always_hits_spec_poles(p in 0.05..0.95f64) {
        let params = ControllerParams::for_double_pole(p);
        // (z + a)(z − 1) + (b0·z + b1) = z² + c1·z + c0.
        let (c1, c0) = (params.a - 1.0 + params.b0, params.b1 - params.a);
        prop_assert!(c0.abs() < 1.0 && 1.0 + c1 + c0 > 0.0 && 1.0 - c1 + c0 > 0.0);
        prop_assert!(((params.b0 + params.b1) / (1.0 + c1 + c0) - 1.0).abs() < 1e-6);
        let disc = c1 * c1 - 4.0 * c0;
        let (re, im) = (-c1 / 2.0, disc.abs().sqrt() / 2.0);
        prop_assert!((re - p).abs() < 1e-5 && im < 1e-5, "{re} ± {im}i vs {p}");
    }

    /// The designed controller, driving the ideal integrator plant
    /// `q(k) = q(k−1) + u(k)·T`, keeps the delay finite and settles on
    /// the target for every stable double pole.
    #[test]
    fn stable_system_step_response_is_bounded(
        p in -0.9..0.9f64,
        target in 0.5..5.0f64,
    ) {
        let (c, t, h): (f64, f64, f64) = (5.263e-3, 1.0, 0.97);
        let mut ctrl = FeedbackController::new(ControllerParams::for_double_pole(p));
        let (mut q, mut y) = (0.0, 0.0);
        for _ in 0..500 {
            y = (q + 1.0) * c / h;
            prop_assert!(y.is_finite());
            let u = ctrl.compute(target - y, c, t, h);
            ctrl.commit(target - y, u);
            q += u * t;
        }
        prop_assert!((y - target).abs() < 1e-3 * target, "p = {p}: {y} vs {target}");
    }

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

    /// The EWMA cost tracker stays within the convex hull of its inputs.
    #[test]
    fn cost_trackers_stay_in_hull(
        prior in 500.0..20_000.0f64,
        measurements in prop::collection::vec(500.0..20_000.0f64, 1..40),
    ) {
        let mut ewma = CostEstimator::new(prior);
        let lo = measurements.iter().cloned().fold(prior, f64::min);
        let hi = measurements.iter().cloned().fold(prior, f64::max);
        for &m in &measurements {
            let e = ewma.update(Some(m));
            prop_assert!((lo - 1e-6..=hi + 1e-6).contains(&e), "ewma {e}");
        }
    }
}
