//! The loop's transfer behaviour from its difference equations: the
//! plant's integrator (Eq. 4) and the closed loop with the paper's
//! published controller (§5).

#[cfg(test)]
mod tests {
    use crate::controller::ControllerParams;
    use crate::design::{clce, filter, is_stable, step_response};
    use crate::model::PlantModel;
    use streamshed_engine::time::secs;

    #[test]
    fn integrator_pole_at_one() {
        // A pole at 1 neither decays nor grows: after one period of
        // excess input the queue holds its length for as long as input
        // and output balance.
        let m = PlantModel::new(5000.0, 1.0, secs(1));
        let pulse = m.step_queue(0.0, 250.0, 200.0);
        let q = (0..100).fold(pulse, |q, _| m.step_queue(q, 200.0, 200.0));
        assert_eq!(q, 50.0);
    }

    #[test]
    fn integrator_step_response_is_ramp() {
        // q(k) = sum of past excess: 0, 1, 2, 3, 4 for one tuple/s.
        let m = PlantModel::new(5000.0, 1.0, secs(1));
        let ys: Vec<f64> =
            std::iter::successors(Some(0.0), |&q| Some(m.step_queue(q, 201.0, 200.0)))
                .take(5)
                .collect();
        assert_eq!(ys, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn closed_loop_of_paper_design_has_designed_poles() {
        // (z − 0.8)(z − 1) + (0.4z − 0.31) = z² − 1.4z + 0.49 = (z − 0.7)².
        let params = ControllerParams::PAPER;
        let (c1, c0) = clce(&params);
        let disc = c1 * c1 - 4.0 * c0;
        let (re, im) = (-c1 / 2.0, disc.abs().sqrt() / 2.0);
        assert!((re - 0.7).abs() < 1e-6 && im < 1e-6, "pole {re} ± {im}");
        let dc = (params.b0 + params.b1) / (1.0 + c1 + c0);
        assert!((dc - 1.0).abs() < 1e-9, "DC gain {dc}");
        assert!(is_stable((c1, c0)));
    }

    #[test]
    fn disturbance_rejection_of_closed_loop() {
        // Plant integrator, paper controller: a step input disturbance d
        // reaches the output through G/(1 + CG) = (z + a)/(z² + c1·z + c0).
        let params = ControllerParams::PAPER;
        let y = filter((1.0, params.a), clce(&params), &[1.0; 300]);
        assert!(y[..10].iter().any(|&v| v.abs() > 1e-3), "responds");
        // The integrator plant + proportional-lag controller leaves a
        // constant steady-state offset for input disturbances; it must at
        // least be bounded and converge.
        let (lo, hi) = y[250..]
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        assert!(hi - lo < 1e-6, "settles to a constant");
    }

    #[test]
    fn impulse_response_sums_to_dc_gain_for_stable_system() {
        for p in [0.3, 0.7, 0.9] {
            let params = ControllerParams::for_double_pole(p);
            let impulse: Vec<f64> = (0..400).map(|k| if k == 0 { 1.0 } else { 0.0 }).collect();
            let sum: f64 = filter((params.b0, params.b1), clce(&params), &impulse)
                .iter()
                .sum();
            assert!((sum - 1.0).abs() < 1e-9, "p = {p}: {sum}");
        }
    }

    #[test]
    fn paper_convergence_rate_three_periods() {
        // Appendix A: poles at 0.7 ≈ e^{-1/3} → ~63% of target in ~3
        // periods, 98% within ~12 periods.
        let y = step_response(&ControllerParams::PAPER, 40);
        let rise = y.iter().position(|&v| v >= 1.0 - (-1.0f64).exp());
        assert!(rise.is_some_and(|k| k <= 4), "63% rise at {rise:?}");
        let y12 = y[12];
        assert!((y12 - 1.0).abs() < 0.06, "98% within 12 periods: {y12}");
    }
}
