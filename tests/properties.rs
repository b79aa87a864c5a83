//! Property-based tests over the full simulator: invariants that must
//! hold for any workload, seed, and shedding policy.

use proptest::prelude::*;
use streamshed::prelude::*;

/// Arbitrary small workloads: (rate regimes, seed, alpha).
fn arrivals(rates: &[f64], dur_s: f64) -> Vec<SimTime> {
    let steps: Vec<(f64, f64)> = rates
        .iter()
        .enumerate()
        .map(|(i, &r)| (i as f64 * dur_s / rates.len() as f64, r))
        .collect();
    let trace = StepTrace::from_steps(steps);
    to_micros(&trace.arrival_times(dur_s))
        .into_iter()
        .map(SimTime)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// offered = dropped_entry + dropped_network + completed + outstanding.
    #[test]
    fn tuple_conservation(
        rates in prop::collection::vec(10.0..600.0f64, 1..4),
        seed in 0u64..1000,
        alpha in 0.0..0.9f64,
    ) {
        let arr = arrivals(&rates, 12.0);
        let sim = Simulator::new(
            identification_network(),
            SimConfig::paper_default().with_seed(seed),
        );
        let mut hook = |_s: &PeriodSnapshot| Decision::entry(alpha);
        let report = sim.run(&arr, &mut hook, secs(12));
        let outstanding = report.periods.last().unwrap().outstanding;
        prop_assert_eq!(
            report.offered,
            report.dropped_entry + report.dropped_network + report.completed + outstanding
        );
        prop_assert!(report.loss_ratio() >= 0.0 && report.loss_ratio() <= 1.0);
    }

    /// Delays are never negative, and the violation accounting is
    /// internally consistent.
    #[test]
    fn violation_accounting_consistent(
        rate in 50.0..500.0f64,
        seed in 0u64..1000,
    ) {
        let arr = arrivals(&[rate], 10.0);
        let sim = Simulator::new(
            identification_network(),
            SimConfig::paper_default().with_seed(seed),
        );
        let report = sim.run(&arr, &mut NoShedding, secs(10));
        prop_assert!(report.mean_delay_ms() >= 0.0);
        prop_assert!(report.max_overshoot_ms >= 0.0);
        if report.delayed_tuples == 0 {
            prop_assert_eq!(report.accumulated_violation_ms, 0.0);
            prop_assert_eq!(report.max_overshoot_ms, 0.0);
        } else {
            prop_assert!(report.accumulated_violation_ms > 0.0);
            // Mean violation cannot exceed the max.
            let mean_viol =
                report.accumulated_violation_ms / report.delayed_tuples as f64;
            prop_assert!(mean_viol <= report.max_overshoot_ms + 1e-9);
        }
    }

    /// Higher entry-drop probability never *increases* completed work.
    #[test]
    fn monotone_shedding(
        seed in 0u64..200,
    ) {
        let arr = arrivals(&[400.0], 10.0);
        let run = |alpha: f64| {
            let sim = Simulator::new(
                identification_network(),
                SimConfig::paper_default().with_seed(seed),
            );
            let mut hook = move |_s: &PeriodSnapshot| Decision::entry(alpha);
            sim.run(&arr, &mut hook, secs(10))
        };
        let light = run(0.1);
        let heavy = run(0.8);
        prop_assert!(heavy.dropped_entry > light.dropped_entry);
        prop_assert!(
            heavy.periods.last().unwrap().outstanding
                <= light.periods.last().unwrap().outstanding
        );
    }

    /// The CTRL strategy never emits an out-of-range drop probability and
    /// never panics, whatever the snapshot contents.
    #[test]
    fn ctrl_decision_always_valid(
        outstanding in 0u64..100_000,
        offered in 0u64..10_000,
        completed in 0u64..10_000,
        cost in prop::option::of(1.0..100_000.0f64),
        k in 0u64..500,
    ) {
        let mut s = CtrlStrategy::from_config(&LoopConfig::paper_default());
        let snap = PeriodSnapshot {
            k,
            now: SimTime::ZERO + secs(k + 1),
            period: secs(1),
            offered,
            admitted: offered,
            dropped_entry: 0,
            dropped_network: 0,
            completed,
            outstanding,
            queued_tuples: outstanding,
            queued_load_us: outstanding as f64 * 5000.0,
            measured_cost_us: cost,
            mean_delay_ms: None,
            cpu_busy_us: 0,
        };
        let d = s.on_period(&snap);
        prop_assert!((0.0..=1.0).contains(&d.entry_drop_prob));
        prop_assert!(d.shed_load_us >= 0.0);
        prop_assert!(d.shed_load_us.is_finite());
    }

    /// The supervised strategy emits a valid actuator command no matter
    /// how broken the feedback signals are — NaN/∞/negative costs and
    /// delays, including long runs of missing measurements.
    #[test]
    fn supervisor_output_always_valid(
        costs in prop::collection::vec(
            prop::option::of(prop_oneof![
                Just(f64::NAN),
                Just(f64::INFINITY),
                Just(f64::NEG_INFINITY),
                Just(-50.0),
                Just(0.0),
                (1.0..100_000.0f64),
            ]),
            5..40,
        ),
        delays in prop::collection::vec(
            prop::option::of(prop_oneof![
                Just(f64::NAN),
                Just(f64::INFINITY),
                Just(f64::NEG_INFINITY),
                Just(-1000.0),
                (0.0..60_000.0f64),
            ]),
            5..40,
        ),
        queues in prop::collection::vec(0u64..50_000, 5..40),
    ) {
        let loop_cfg = LoopConfig::paper_default();
        let mut sup =
            Supervisor::from_loop(CtrlStrategy::from_config(&loop_cfg), &loop_cfg);
        let n = costs.len().min(delays.len()).min(queues.len());
        for k in 0..n {
            let q = queues[k];
            let snap = PeriodSnapshot {
                k: k as u64,
                now: SimTime::ZERO + secs(k as u64 + 1),
                period: secs(1),
                offered: 400,
                admitted: 400,
                dropped_entry: 0,
                dropped_network: 0,
                completed: 180,
                outstanding: q,
                queued_tuples: q,
                queued_load_us: q as f64 * 5263.0,
                measured_cost_us: costs[k],
                mean_delay_ms: delays[k],
                cpu_busy_us: 0,
            };
            let d = sup.on_period(&snap);
            prop_assert!(
                d.entry_drop_prob.is_finite()
                    && (0.0..=1.0).contains(&d.entry_drop_prob),
                "period {k}: alpha = {}",
                d.entry_drop_prob
            );
            prop_assert!(
                d.shed_load_us.is_finite() && d.shed_load_us >= 0.0,
                "period {k}: shed_load_us = {}",
                d.shed_load_us
            );
        }
    }

    /// No sequence of garbage measurements (NaN, ±∞, zero, negative) can
    /// poison the cost tracker: the estimate stays finite, positive, and
    /// within the range spanned by the prior and the valid samples.
    #[test]
    fn cost_estimators_never_poisoned(
        samples in prop::collection::vec(
            prop::option::of(prop_oneof![
                Just(f64::NAN),
                Just(f64::INFINITY),
                Just(f64::NEG_INFINITY),
                Just(-1.0),
                Just(0.0),
                (1.0..1_000_000.0f64),
            ]),
            1..60,
        ),
        prior in 100.0..50_000.0f64,
    ) {
        let mut ewma = CostEstimator::new(prior, 0.3);
        let mut lo = prior;
        let mut hi = prior;
        for &s in &samples {
            if let Some(v) = s {
                if v.is_finite() && v > 0.0 {
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
            }
            let est = ewma.update(s);
            prop_assert!(
                est.is_finite() && est > 0.0,
                "estimate poisoned by {s:?}: {est}"
            );
            // The tracker interpolates between the prior and the valid
            // measurements; garbage must not drag it outside that
            // envelope.
            prop_assert!(est >= lo - 1e-6 && est <= hi + 1e-6);
        }
    }

    /// Controller output is a continuous function of the error: small
    /// error perturbations produce proportionally small output changes.
    #[test]
    fn controller_lipschitz(
        e in -20.0..20.0f64,
        de in -0.01..0.01f64,
    ) {
        let mut a = FeedbackController::paper();
        let mut b = FeedbackController::paper();
        let u1 = a.compute(e, 5.105e-3, 1.0, 0.97);
        let u2 = b.compute(e + de, 5.105e-3, 1.0, 0.97);
        // Gain = H/(cT)·b0 ≈ 76 per unit error.
        prop_assert!((u2 - u1).abs() <= 100.0 * de.abs() + 1e-9);
    }
}
