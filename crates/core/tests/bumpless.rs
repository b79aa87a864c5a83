//! Property tests for bumpless controller re-tuning.
//!
//! The contract of [`FeedbackController::retune_bumpless`]: after an
//! arbitrary gain/pole swap mid-run, the next output differs from the
//! output of an identical controller that did NOT swap by exactly
//! `(g_new·b0_new − g_old·b0_old)·e(k)` — the unavoidable re-weighting
//! of the *current* error. The history contribution carries over
//! unchanged, so at `e(k) = 0` the swap is invisible, and the induced
//! actuation step `|α_swap − α_keep|` is bounded by that same term
//! divided by the arrival rate.

use proptest::prelude::*;
use streamshed_control::controller::{ControllerParams, FeedbackController};
use streamshed_control::shedder::EntryShedder;

const T: f64 = 1.0;
const H: f64 = 0.97;

/// Builds a controller with the paper tuning and replays an arbitrary
/// error history through it at cost `c_old`.
fn with_history(history: &[f64], c_old: f64) -> FeedbackController {
    let mut ctl = FeedbackController::paper();
    for &e in history {
        let u = ctl.compute(e, c_old, T, H);
        ctl.commit(e, u);
    }
    ctl
}

proptest! {
    /// Arbitrary mid-run swaps (new pole AND new gain): the deviation
    /// from the no-swap controller is exactly the current-error
    /// re-weighting term — and therefore vanishes at e(k) = 0.
    #[test]
    fn swap_deviation_is_the_current_error_term(
        history in prop::collection::vec(-3.0..3.0f64, 1..20),
        pole in 0.3..0.9f64,
        cost_ratio in 0.25..4.0f64,
        e_next in -3.0..3.0f64,
    ) {
        let c_old = 5.105e-3;
        let c_new = c_old * cost_ratio;
        let g_old = H / (c_old * T);
        let g_new = H / (c_new * T);
        let old_params = FeedbackController::paper().params();
        let new_params = ControllerParams::for_double_pole(pole);

        let mut swapped = with_history(&history, c_old);
        let mut kept = swapped;
        swapped.retune_bumpless(new_params, g_old, g_new);

        // The no-swap controller keeps running at the old cost; the
        // swapped one at the new.
        let u_swap = swapped.compute(e_next, c_new, T, H);
        let u_keep = kept.compute(e_next, c_old, T, H);

        let bound = (g_new * new_params.b0 - g_old * old_params.b0).abs()
            * e_next.abs()
            + 1e-6;
        prop_assert!(
            (u_swap - u_keep).abs() <= bound,
            "u_swap {u_swap} vs u_keep {u_keep}, bound {bound}"
        );

        // Corollary at the actuator: the α step induced by the swap is
        // the u deviation scaled by 1/fin.
        let fin = 400.0;
        let fout = 190.0;
        let a_swap = EntryShedder::alpha_for(u_swap + fout, fin);
        let a_keep = EntryShedder::alpha_for(u_keep + fout, fin);
        prop_assert!(
            (a_swap - a_keep).abs() <= bound / fin + 1e-9,
            "alpha step {} vs bound {}",
            (a_swap - a_keep).abs(),
            bound / fin
        );
    }

    /// At zero current error the swap is exactly invisible, whatever the
    /// history and however large the gain change.
    #[test]
    fn swap_is_invisible_at_zero_error(
        history in prop::collection::vec(-3.0..3.0f64, 1..20),
        pole in 0.3..0.9f64,
        cost_ratio in 0.25..4.0f64,
    ) {
        let c_old = 5.105e-3;
        let c_new = c_old * cost_ratio;
        let g_old = H / (c_old * T);
        let g_new = H / (c_new * T);
        let new_params = ControllerParams::for_double_pole(pole);

        let mut swapped = with_history(&history, c_old);
        let mut kept = swapped;
        swapped.retune_bumpless(new_params, g_old, g_new);

        let u_swap = swapped.compute(0.0, c_new, T, H);
        let u_keep = kept.compute(0.0, c_old, T, H);
        prop_assert!(
            (u_swap - u_keep).abs() < 1e-6,
            "history term must carry over exactly: {u_swap} vs {u_keep}"
        );
    }

    /// Chained swaps preserve the invariant: re-tuning back and forth is
    /// still bumpless at zero error (the transfer composes).
    #[test]
    fn swaps_compose(
        history in prop::collection::vec(-3.0..3.0f64, 1..20),
        poles in prop::collection::vec(0.3..0.9f64, 1..4),
    ) {
        let c = 5.105e-3;
        let g = H / (c * T);
        let mut swapped = with_history(&history, c);
        let mut kept = swapped;
        for &p in &poles {
            swapped.retune_bumpless(
                ControllerParams::for_double_pole(p),
                g,
                g,
            );
        }
        // Return to the original tuning: everything must line up again.
        swapped.retune_bumpless(kept.params(), g, g);
        let u_swap = swapped.compute(0.0, c, T, H);
        let u_keep = kept.compute(0.0, c, T, H);
        prop_assert!((u_swap - u_keep).abs() < 1e-6, "{u_swap} vs {u_keep}");
    }
}
