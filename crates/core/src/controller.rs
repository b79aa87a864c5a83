//! The runtime feedback controller (Eq. 10, Appendix A).
//!
//! `u(k) = (H/(c·T))·[b0·e(k) + b1·e(k−1)] − a·u(k−1)`
//!
//! with gain-normalised parameters from
//! [`ControllerParams::for_double_pole`] (Appendix A in closed form). The
//! controller output `u` is a *rate* (tuples/second): the allowed growth
//! of the virtual queue over the next period, to which the actuator adds
//! the measured departure rate `fout` to obtain the desired admission
//! rate `v = u + fout`.
//!
//! One DSMS-specific addition (in the spirit of §4.5): **anti-windup** by
//! back-calculation. The actuator saturates — it cannot admit more than
//! arrives (`v ≤ fin`) nor a negative amount (`v ≥ 0`). Feeding the
//! *saturated* `u` back into the recursion keeps the controller state
//! consistent with what was actually applied; without it, long idle
//! stretches wind the state up and the first burst overshoots massively.

/// The current-error weight every design uses. Appendix A leaves `b0`
/// free (the static-gain condition, Eq. 19, holds for any value on the
/// integrator plant); the paper fixes it at 0.4.
const B0: f64 = 0.4;

/// Gain-normalised parameters of the paper's first-order controller
/// `C(z) = (H/cT)·(b0·z + b1)/(z + a)`.
///
/// The runtime control law (Eq. 10) is
/// `u(k) = (H/cT)·[b0·e(k) + b1·e(k−1)] − a·u(k−1)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControllerParams {
    /// Controller pole parameter (denominator `z + a`).
    pub a: f64,
    /// Current-error weight.
    pub b0: f64,
    /// Previous-error weight.
    pub b1: f64,
}

impl ControllerParams {
    /// The parameters reported in §5 of the paper:
    /// `b0 = 0.4, b1 = −0.31, a = −0.8`.
    ///
    /// `a` is the literal `−0.8`, one ulp from the derived
    /// `for_double_pole(0.7).a = −0.7999999999999999`; both are in use
    /// and each pins its own sample path.
    pub const PAPER: ControllerParams = ControllerParams {
        a: -0.8,
        b0: 0.4,
        b1: -0.31,
    };

    /// Appendix A's design for a double closed-loop pole at `p`.
    ///
    /// With plant `g/(z − 1)` the loop's characteristic polynomial is
    /// `(z + a)(z − 1) + (b0·z + b1) = z² + (a − 1 + b0)·z + (b1 − a)`;
    /// matching it to `(z − p)² = z² − 2p·z + p²` gives
    /// `a = 1 − 2p − b0` and `b1 = p² + a`, with `b0 = 0.4`. The paper's
    /// `p = 0.7` (≈ e^(−1/3), convergence in about three periods) yields
    /// its published constants:
    ///
    /// ```
    /// use streamshed_control::controller::ControllerParams;
    ///
    /// let params = ControllerParams::for_double_pole(0.7);
    /// assert!((params.b0 - 0.4).abs() < 1e-12);
    /// assert!((params.b1 - (-0.31)).abs() < 1e-12); // b1 = 0.49 + a
    /// assert!((params.a - (-0.8)).abs() < 1e-12);   // a  = −1.4 + 1 − 0.4
    /// ```
    pub fn for_double_pole(p: f64) -> Self {
        // This operation order reproduces the bits every pinned sample
        // path was recorded with.
        let a = -2.0 * p + 1.0 - B0;
        Self {
            a,
            b0: B0,
            b1: p * p + a,
        }
    }
}

/// The paper's first-order delay controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeedbackController {
    params: ControllerParams,
    e_prev: f64,
    u_prev: f64,
}

impl FeedbackController {
    /// Creates a controller with zero initial conditions
    /// (`e(−1) = u(−1) = 0`, matching the z-domain analysis).
    pub fn new(params: ControllerParams) -> Self {
        Self {
            params,
            e_prev: 0.0,
            u_prev: 0.0,
        }
    }

    /// The paper's published tuning (`b0 = 0.4, b1 = −0.31, a = −0.8`).
    ///
    /// These constants are not free choices: they fall out of placing a
    /// double closed-loop pole at `z = 0.7` with `b0 = 0.4` fixed, and
    /// the design equations recover them exactly:
    ///
    /// ```
    /// use streamshed_control::controller::{ControllerParams, FeedbackController};
    ///
    /// // (z − 0.7)² = z² − 1.4z + 0.49, b0 = 0.4
    /// let derived = ControllerParams::for_double_pole(0.7);
    /// let paper = FeedbackController::paper().params();
    /// assert!((derived.b0 - paper.b0).abs() < 1e-12 && (paper.b0 - 0.4).abs() < 1e-12);
    /// assert!((derived.b1 - paper.b1).abs() < 1e-12 && (paper.b1 + 0.31).abs() < 1e-12);
    /// assert!((derived.a - paper.a).abs() < 1e-12 && (paper.a + 0.8).abs() < 1e-12);
    /// ```
    pub fn paper() -> Self {
        Self::new(ControllerParams::PAPER)
    }

    /// The parameters in use.
    pub fn params(&self) -> ControllerParams {
        self.params
    }

    /// Computes the raw control output `u(k)` in tuples/second.
    ///
    /// * `error_s` — `e(k) = yd − ŷ(k)` in seconds;
    /// * `cost_s` — current per-tuple cost estimate `c(k)`, seconds;
    /// * `period_s` — control period `T`, seconds;
    /// * `headroom` — `H`.
    ///
    /// Call [`Self::commit`] afterwards with the *applied* (possibly
    /// saturated) value to update the state.
    pub fn compute(&mut self, error_s: f64, cost_s: f64, period_s: f64, headroom: f64) -> f64 {
        assert!(cost_s > 0.0 && period_s > 0.0 && headroom > 0.0);
        let gain = headroom / (cost_s * period_s);
        gain * (self.params.b0 * error_s + self.params.b1 * self.e_prev)
            - self.params.a * self.u_prev
    }

    /// Commits the period: records the error and the **applied** control
    /// value (anti-windup back-calculation).
    pub fn commit(&mut self, error_s: f64, applied_u: f64) {
        self.e_prev = error_s;
        self.u_prev = applied_u;
    }

    /// Resets the dynamic state (e.g. after a set-point change if desired;
    /// the paper's controller keeps state across set-point changes and so
    /// does the default loop).
    pub fn reset(&mut self) {
        self.e_prev = 0.0;
        self.u_prev = 0.0;
    }

    /// Swaps in new parameters with **bumpless transfer**: the internal
    /// state is re-initialised so the history contribution to the next
    /// output is unchanged by the swap.
    ///
    /// The control law splits into a current-error term and a history term,
    /// `u(k) = g·b0·e(k) + [g·b1·e(k−1) − a·u(k−1)]`, where `g = H/(cT)`
    /// is the loop gain the caller applies through [`Self::compute`]. A
    /// naive parameter swap (or a state-losing rebuild) discards the
    /// history term and kicks the actuation α. Here the history of the old
    /// tuning,
    ///
    /// `hist = g_old·b1_old·e(k−1) − a_old·u(k−1)`,
    ///
    /// is preserved exactly by keeping `u(k−1)` and re-solving for the
    /// stored error sample under the new tuning:
    ///
    /// `e'(k−1) = (hist + a_new·u(k−1)) / (g_new·b1_new)`.
    ///
    /// The post-swap output then differs from the no-swap output by exactly
    /// `(g_new·b0_new − g_old·b0_old)·e(k)` — the unavoidable change in how
    /// the *current* error is weighted, which vanishes at `e(k) = 0` and is
    /// the bound the bumpless-transfer property tests assert. When
    /// `g_new·b1_new` is degenerate (≈ 0) the history cannot be carried and
    /// the stored error is zeroed instead.
    ///
    /// `gain_old` and `gain_new` are the loop gains `H/(cT)` in effect
    /// before and after the swap (they differ when a re-identified cost,
    /// not just the pole set, triggered the retune).
    ///
    /// ```
    /// use streamshed_control::controller::{ControllerParams, FeedbackController};
    ///
    /// let (c, t, h) = (5.0e-3, 1.0, 0.97);
    /// let gain = h / (c * t);
    /// let mut swapped = FeedbackController::paper();
    /// let mut frozen = FeedbackController::paper();
    /// // Build up identical history on both controllers.
    /// for e in [0.8, 0.5, 0.3] {
    ///     let u = swapped.compute(e, c, t, h);
    ///     swapped.commit(e, u);
    ///     let u = frozen.compute(e, c, t, h);
    ///     frozen.commit(e, u);
    /// }
    /// // Retune to a faster pole; gain unchanged (same cost estimate).
    /// let fast = ControllerParams::for_double_pole(0.5);
    /// swapped.retune_bumpless(fast, gain, gain);
    /// // At zero current error the swap is invisible: the history term
    /// // carries over exactly.
    /// let u_swap = swapped.compute(0.0, c, t, h);
    /// let u_keep = frozen.compute(0.0, c, t, h);
    /// assert!((u_swap - u_keep).abs() < 1e-9);
    /// ```
    pub fn retune_bumpless(
        &mut self,
        new_params: ControllerParams,
        gain_old: f64,
        gain_new: f64,
    ) {
        let hist = gain_old * self.params.b1 * self.e_prev - self.params.a * self.u_prev;
        let denom = gain_new * new_params.b1;
        self.e_prev = if denom.abs() > 1e-12 && denom.is_finite() {
            (hist + new_params.a * self.u_prev) / denom
        } else {
            0.0
        };
        self.params = new_params;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{step_response, turns};
    use proptest::prelude::*;

    const C: f64 = 5.263e-3; // seconds
    const T: f64 = 1.0;
    const H: f64 = 0.97;

    #[test]
    fn production_designs_keep_their_bits() {
        // `(p, a, b1)` bits of the comparator arms and the ablation poles,
        // as the sample paths were recorded; b0 is 0.4 throughout.
        const PINNED: [(f64, u64, u64); 5] = [
            (0.5, 0xbfd9_9999_9999_999a, 0xbfc3_3333_3333_3334),
            (0.6, 0xbfe3_3333_3333_3333, 0xbfce_b851_eb85_1eb8),
            (0.7, 0xbfe9_9999_9999_9999, 0xbfd3_d70a_3d70_a3d7),
            (0.8, 0xbff0_0000_0000_0000, 0xbfd7_0a3d_70a3_d708),
            (0.9, 0xbff3_3333_3333_3334, 0xbfd8_f5c2_8f5c_28f8),
        ];
        for (p, a, b1) in PINNED {
            let params = ControllerParams::for_double_pole(p);
            assert_eq!(params.a.to_bits(), a, "a at p = {p}");
            assert_eq!(params.b0.to_bits(), 0x3fd9_9999_9999_999a, "b0 at p = {p}");
            assert_eq!(params.b1.to_bits(), b1, "b1 at p = {p}");
        }
    }

    #[test]
    fn paper_literal_is_one_ulp_from_the_derived_design() {
        let derived = ControllerParams::for_double_pole(0.7);
        let paper = ControllerParams::PAPER;
        assert_eq!(derived.b0.to_bits(), paper.b0.to_bits());
        assert_eq!(derived.b1.to_bits(), paper.b1.to_bits());
        // Same sign, so adjacent bit patterns are adjacent doubles.
        assert_eq!(paper.a.to_bits() - derived.a.to_bits(), 1);
        assert!(derived.a > paper.a);
    }

    proptest! {
        /// Damping 1: the step response is a sum of p^k and k·p^k modes,
        /// so its increments change sign at most once (no ringing), and
        /// it settles at 1. The controller zero −b1/b0 lies below the
        /// pole for p < 1 − b0, and there the response is monotone; above
        /// it the zero adds one overshoot (1.2 % at the paper's 0.7).
        #[test]
        fn closed_loop_step_response_settles_without_ringing(p in 0.05..0.95f64) {
            let ys = step_response(&ControllerParams::for_double_pole(p), 2000);
            let turns = turns(&ys);
            prop_assert!(turns <= 1, "p = {p}: {turns} turns");
            if p < 1.0 - B0 {
                prop_assert!(turns == 0 && ys.iter().all(|&y| y <= 1.0 + 1e-12), "p = {p}");
            }
            let last = ys[ys.len() - 1];
            prop_assert!((last - 1.0).abs() < 1e-9, "p = {p}: settles at {last}");
        }
    }

    /// Runs `ctrl` against the ideal plant q(k) = q(k−1) + u_applied(k)·T
    /// (the queue *is* the integrator) from queue length `q`, with
    /// per-tuple cost `cost(k)`, and returns the ŷ trajectory.
    fn run_ideal_loop(
        ctrl: &mut FeedbackController,
        q: &mut f64,
        target_s: f64,
        cost: impl Fn(usize) -> f64,
        steps: usize,
    ) -> Vec<f64> {
        (0..steps)
            .map(|k| {
                let c = cost(k);
                let y = (*q + 1.0) * c / H;
                let e = target_s - y;
                let u = ctrl.compute(e, c, T, H);
                ctrl.commit(e, u);
                // Unbounded actuator: queue follows the controller exactly.
                *q = (*q + u * T).max(0.0);
                y
            })
            .collect()
    }

    /// The paper's controller from an empty queue at constant cost.
    fn simulate_ideal_loop(target_s: f64, steps: usize) -> Vec<f64> {
        let mut ctrl = FeedbackController::paper();
        run_ideal_loop(&mut ctrl, &mut 0.0, target_s, |_| C, steps)
    }

    #[test]
    fn converges_to_target_in_a_few_periods() {
        let ys = simulate_ideal_loop(2.0, 40);
        // 63% of the way by ~period 4, settled by ~12 (paper's design).
        assert!(ys[4] > 0.55 * 2.0, "y[4] = {}", ys[4]);
        for y in &ys[12..] {
            assert!((y - 2.0).abs() < 0.15, "settled value {y}");
        }
    }

    #[test]
    fn no_overshoot_with_critical_damping() {
        let ys = simulate_ideal_loop(2.0, 60);
        let peak = ys.iter().cloned().fold(0.0, f64::max);
        assert!(peak < 2.0 * 1.07, "peak {peak}");
    }

    #[test]
    fn tracks_setpoint_changes() {
        let mut ctrl = FeedbackController::paper();
        let mut q: f64 = 0.0;
        let mut run_to = |target: f64| run_ideal_loop(&mut ctrl, &mut q, target, |_| C, 30)[29];
        let y = run_to(1.0);
        assert!((y - 1.0).abs() < 0.1, "after first target: {y}");
        let y = run_to(3.0);
        assert!((y - 3.0).abs() < 0.2, "after second target: {y}");
    }

    #[test]
    fn rejects_cost_disturbance() {
        // Cost doubles mid-run; the loop must re-converge (Fig. 15's c
        // peaks). We fold the changing cost into both plant and controller
        // (the estimator tracks it).
        let target = 2.0;
        let cost = |k| if k < 40 { C } else { 2.0 * C };
        let ys = run_ideal_loop(&mut FeedbackController::paper(), &mut 0.0, target, cost, 80);
        // Re-converged by 20 periods after the change.
        for y in &ys[65..] {
            assert!((y - target).abs() < 0.25, "post-disturbance {y}");
        }
    }

    #[test]
    fn anti_windup_limits_recovery_overshoot() {
        // Saturate hard (actuator pinned at 0) for a long time, then
        // release; with back-calculation the first free step must not be
        // absurdly large.
        let mut ctrl = FeedbackController::paper();
        for _ in 0..50 {
            let e = -10.0; // massive positive queue → negative error
            let u = ctrl.compute(e, C, T, H);
            // Actuator can at most stop admissions: applied u ≥ −fout,
            // here modelled as −190 t/s.
            let applied = u.max(-190.0);
            ctrl.commit(e, applied);
        }
        let u_free = ctrl.compute(0.0, C, T, H);
        assert!(
            u_free.abs() < 2000.0,
            "state must not have wound up: u = {u_free}"
        );
    }

    #[test]
    fn without_commit_state_is_stale() {
        let mut a = FeedbackController::paper();
        let mut b = FeedbackController::paper();
        let u1a = a.compute(1.0, C, T, H);
        let u1b = b.compute(1.0, C, T, H);
        assert_eq!(u1a, u1b);
        a.commit(1.0, u1a);
        // `a` has history now; `b` does not: next outputs differ.
        let u2a = a.compute(0.5, C, T, H);
        let u2b = b.compute(0.5, C, T, H);
        assert_ne!(u2a, u2b);
    }

    #[test]
    fn alternative_designs_converge_too() {
        for pole in [0.5, 0.8] {
            let mut ctrl = FeedbackController::new(ControllerParams::for_double_pole(pole));
            let y = run_ideal_loop(&mut ctrl, &mut 0.0, 2.0, |_| C, 60)[59];
            assert!((y - 2.0).abs() < 0.2, "pole {pole}: settled {y}");
        }
    }

    #[test]
    fn reset_clears_state() {
        let mut ctrl = FeedbackController::paper();
        let u = ctrl.compute(1.0, C, T, H);
        ctrl.commit(1.0, u);
        ctrl.reset();
        let u_after = ctrl.compute(1.0, C, T, H);
        assert_eq!(u, u_after);
    }
}
