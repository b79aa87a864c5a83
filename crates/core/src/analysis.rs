//! Time-domain character of the designed poles (§5.2's goals): damping,
//! time constant and settling, read off the closed loop's step response.

#[cfg(test)]
mod tests {
    use crate::controller::ControllerParams;
    use crate::design::{clce, is_stable, step_response, turns};

    /// Periods for a mode `p^k` to decay by `e`: `−1/ln|p|`.
    fn time_constant_periods(p: f64) -> f64 {
        -1.0 / p.abs().ln()
    }

    /// First period from which the unit-step response stays within 2 %
    /// of its final value 1; `None` if it has not settled by the end.
    fn settling_2pct(ys: &[f64]) -> Option<usize> {
        match ys.iter().rposition(|&y| (y - 1.0).abs() > 0.02) {
            None => Some(0),
            Some(k) => (k + 1 < ys.len()).then_some(k + 1),
        }
    }

    #[test]
    fn positive_real_pole_is_critically_damped() {
        let (c1, c0) = clce(&ControllerParams::for_double_pole(0.7));
        assert!((c1 * c1 - 4.0 * c0).abs() < 1e-12, "double real pole");
        assert!((c0.sqrt() - 0.7).abs() < 1e-12, "magnitude");
        assert!(turns(&step_response(&ControllerParams::for_double_pole(0.7), 200)) <= 1);
        // Time constant of 0.7-pole ≈ 2.8 periods (paper: "3 periods").
        assert!((time_constant_periods(0.7) - 2.803).abs() < 0.01);
    }

    #[test]
    fn pole_at_one_has_zero_damping_and_infinite_time_constant() {
        // A double pole at 1 never settles: the step response is the ramp
        // 0.4·k.
        let params = ControllerParams::for_double_pole(1.0);
        assert!(!is_stable(clce(&params)));
        let ys = step_response(&params, 200);
        assert!(ys.windows(2).all(|w| w[1] > w[0]), "grows every period");
        assert!(ys[199] > 50.0, "y(199) = {}", ys[199]);
        assert!(time_constant_periods(1.0).is_infinite());
    }

    #[test]
    fn negative_real_pole_rings() {
        // A pole at −0.5 alternates sign every sample — far from the
        // damping-1 design zone.
        let params = ControllerParams::for_double_pole(-0.5);
        assert!(is_stable(clce(&params)));
        let ys = step_response(&params, 30);
        assert!(turns(&ys) >= 10, "turns {}", turns(&ys));
    }

    #[test]
    fn convergence_periods_maps_to_paper_pole() {
        // Convergence in three periods: p = e^(−1/3) ≈ 0.7165, which the
        // paper rounds to 0.7 and so to its published constants.
        let p = (-1.0f64 / 3.0).exp();
        assert!((p - 0.7165).abs() < 1e-3);
        let rounded = (p * 10.0).round() / 10.0;
        let derived = ControllerParams::for_double_pole(rounded);
        let paper = ControllerParams::PAPER;
        assert!((derived.a - paper.a).abs() < 1e-12);
        assert!((derived.b0 - paper.b0).abs() < 1e-12);
        assert!((derived.b1 - paper.b1).abs() < 1e-12);
    }

    #[test]
    fn design_goal_predicate() {
        // §5.2's goals: stable, no ringing, within 2 % of the target by
        // about 12 periods.
        let meets_goals = |p: f64| {
            let params = ControllerParams::for_double_pole(p);
            let ys = step_response(&params, 400);
            is_stable(clce(&params))
                && turns(&ys) <= 1
                && settling_2pct(&ys).is_some_and(|k| k <= 12)
        };
        assert!(meets_goals(0.7));
        assert!(!meets_goals(-0.5), "ringing");
        assert!(!meets_goals(0.99), "slow");
        assert!(!meets_goals(1.2), "unstable");
    }

    #[test]
    fn faster_pole_smaller_time_constant() {
        assert!(time_constant_periods(0.3) < time_constant_periods(0.9));
        let fast = settling_2pct(&step_response(&ControllerParams::for_double_pole(0.3), 200));
        let slow = settling_2pct(&step_response(&ControllerParams::for_double_pole(0.9), 200));
        assert!(fast.unwrap() < slow.unwrap(), "{fast:?} vs {slow:?}");
    }
}
