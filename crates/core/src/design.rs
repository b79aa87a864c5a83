//! Appendix A's design claims, checked on the closed form
//! [`ControllerParams::for_double_pole`], and the closed loop of the
//! integrator plant `1/(z − 1)` with `(b0·z + b1)/(z + a)` as a
//! difference equation for the other control tests.

use crate::controller::ControllerParams;

/// Appendix A's design with the free weight `b0` exposed; production
/// always uses 0.4.
pub(crate) fn design_with_b0(p: f64, b0: f64) -> ControllerParams {
    let a = -2.0 * p + 1.0 - b0;
    ControllerParams {
        a,
        b0,
        b1: p * p + a,
    }
}

/// `(c1, c0)` of the closed-loop characteristic polynomial
/// `z² + c1·z + c0 = (z + a)(z − 1) + (b0·z + b1)`.
pub(crate) fn clce(params: &ControllerParams) -> (f64, f64) {
    (params.a - 1.0 + params.b0, params.b1 - params.a)
}

/// Jury's test for `z² + c1·z + c0`: both roots strictly inside the unit
/// circle.
pub(crate) fn is_stable((c1, c0): (f64, f64)) -> bool {
    c0.abs() < 1.0 && 1.0 + c1 + c0 > 0.0 && 1.0 - c1 + c0 > 0.0
}

/// Response of `(n1·z + n0)/(z² + c1·z + c0)` to `input` (zero before
/// `k = 0`), from `y(k) = −c1·y(k−1) − c0·y(k−2) + n1·x(k−1) + n0·x(k−2)`.
pub(crate) fn filter((n1, n0): (f64, f64), (c1, c0): (f64, f64), input: &[f64]) -> Vec<f64> {
    let x = |k: usize, lag: usize| if k >= lag { input[k - lag] } else { 0.0 };
    let mut ys: Vec<f64> = Vec::with_capacity(input.len());
    let (mut y1, mut y2) = (0.0, 0.0);
    for k in 0..input.len() {
        let y = -c1 * y1 - c0 * y2 + n1 * x(k, 1) + n0 * x(k, 2);
        ys.push(y);
        (y2, y1) = (y1, y);
    }
    ys
}

/// Unit-step response of the closed loop `(b0·z + b1)/(z² + c1·z + c0)`.
pub(crate) fn step_response(params: &ControllerParams, steps: usize) -> Vec<f64> {
    filter((params.b0, params.b1), clce(params), &vec![1.0; steps])
}

/// Sign changes of a response's increments: at most one for a
/// critically damped loop, one per period for a ringing one.
pub(crate) fn turns(ys: &[f64]) -> usize {
    let steps: Vec<f64> = ys
        .windows(2)
        .map(|w| w[1] - w[0])
        .filter(|d| d.abs() > 1e-12)
        .collect();
    steps
        .windows(2)
        .filter(|d| d[0].signum() != d[1].signum())
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_parameters_reproduced_exactly() {
        let derived = ControllerParams::for_double_pole(0.7);
        assert!((derived.b0 - 0.4).abs() < 1e-12);
        assert!((derived.b1 - (-0.31)).abs() < 1e-12);
        assert!((derived.a - (-0.8)).abs() < 1e-12);
    }

    #[test]
    fn clce_matches_specification() {
        for p in [0.0, 0.3, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95] {
            let (c1, c0) = clce(&ControllerParams::for_double_pole(p));
            assert!((c1 - (-2.0 * p)).abs() < 1e-12, "p = {p}: c1 = {c1}");
            assert!((c0 - p * p).abs() < 1e-12, "p = {p}: c0 = {c0}");
            // Zero discriminant: the quadratic formula's two roots
            // coincide at −c1/2 = p — a double real pole, damping 1.
            let disc = c1 * c1 - 4.0 * c0;
            assert!(disc.abs() < 1e-12, "p = {p}: discriminant {disc}");
            assert!((-c1 / 2.0 - p).abs() < 1e-12, "p = {p}");
        }
    }

    #[test]
    fn static_gain_is_one_for_any_b0() {
        // Eq. 19: the closed loop's DC gain T(1) = (b0 + b1)/(1 + c1 + c0),
        // and 1 + c1 + c0 = b0 + b1 on the integrator plant, so the
        // condition is redundant: every b0 yields unity gain.
        for p in [0.0, 0.3, 0.5, 0.7, 0.9] {
            for b0 in [0.1, 0.4, 0.9, 2.0] {
                let params = design_with_b0(p, b0);
                let (c1, c0) = clce(&params);
                let gain = (params.b0 + params.b1) / (1.0 + c1 + c0);
                assert!((gain - 1.0).abs() < 1e-12, "p = {p}, b0 = {b0}: {gain}");
            }
        }
    }

    #[test]
    fn all_b0_choices_share_closed_loop_poles() {
        // The static-gain condition is redundant on the integrator plant,
        // so b0 stays free: every choice places the same poles.
        for p in [0.5, 0.7, 0.9] {
            let want = clce(&ControllerParams::for_double_pole(p));
            for b0 in [0.1, 0.4, 0.9, 2.0] {
                let (c1, c0) = clce(&design_with_b0(p, b0));
                assert!((c1 - want.0).abs() < 1e-12, "p = {p}, b0 = {b0}: c1 {c1}");
                assert!((c0 - want.1).abs() < 1e-12, "p = {p}, b0 = {b0}: c0 {c0}");
            }
            assert_eq!(design_with_b0(p, 0.4), ControllerParams::for_double_pole(p));
        }
    }

    #[test]
    fn closed_loop_is_stable_for_stable_specs() {
        for p in [0.0, 0.3, 0.7, 0.95] {
            let params = ControllerParams::for_double_pole(p);
            assert!(is_stable(clce(&params)), "pole {p}");
            let ys = step_response(&params, 2000);
            assert!((ys[ys.len() - 1] - 1.0).abs() < 1e-9, "pole {p} settles");
        }
    }

    #[test]
    fn unstable_spec_produces_unstable_loop() {
        // Garbage in, garbage out — but predictably so.
        let params = ControllerParams::for_double_pole(1.1);
        assert!(!is_stable(clce(&params)));
        let last = step_response(&params, 200)[199];
        assert!(last.abs() > 1e3, "diverges: {last}");
    }
}
