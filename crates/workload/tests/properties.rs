//! Property-based tests for the workload generators.

use proptest::prelude::*;
use streamshed_workload::*;

fn assert_valid_trace(times: &[f64], duration: f64) -> Result<(), TestCaseError> {
    prop_assert!(times.windows(2).all(|w| w[0] <= w[1]), "sorted");
    prop_assert!(
        times.iter().all(|&t| (0.0..duration).contains(&t)),
        "bounded"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn step_traces_valid(
        low in 0.0..200.0f64,
        high in 0.0..800.0f64,
        jump in 1.0..20.0f64,
        duration in 5.0..60.0f64,
    ) {
        let trace = StepTrace::single(low, high, jump);
        let times = trace.arrival_times(duration);
        assert_valid_trace(&times, duration)?;
    }

    #[test]
    fn sine_traces_valid(
        min in 0.0..100.0f64,
        span in 1.0..400.0f64,
        period in 5.0..60.0f64,
    ) {
        let trace = SineTrace::new(min, min + span, period);
        let times = trace.arrival_times(30.0);
        assert_valid_trace(&times, 30.0)?;
        // Count ≈ ∫ r(t) dt over the horizon (a partial cycle does not
        // average to the midpoint rate).
        let want: f64 = (0..30_000)
            .map(|i| trace.rate_at(i as f64 * 1e-3) * 1e-3)
            .sum();
        prop_assert!(
            (times.len() as f64 - want).abs() < want.max(10.0) * 0.02 + 2.0,
            "count {} want {want:.1}", times.len()
        );
    }

    #[test]
    fn pareto_traces_valid(
        rate in 20.0..500.0f64,
        bias in 0.1..2.0f64,
        seed in 0u64..500,
    ) {
        let trace = ParetoTrace::builder()
            .mean_rate(rate)
            .bias(bias)
            .seed(seed)
            .build();
        let times = trace.arrival_times(300.0);
        assert_valid_trace(&times, 300.0)?;
        // Heavy-tailed sample means converge slowly; require the right
        // order of magnitude (factor-2 band over 300 samples).
        let got = times.len() as f64 / 300.0;
        prop_assert!(
            got > rate * 0.5 && got < rate * 2.0,
            "rate {got} want {rate} (bias {bias})"
        );
    }

    #[test]
    fn web_traces_valid(seed in 0u64..200, sources in 5usize..60) {
        let trace = WebLikeTrace::builder().sources(sources).seed(seed).build();
        let times = trace.arrival_times(40.0);
        assert_valid_trace(&times, 40.0)?;
    }

    #[test]
    fn poisson_and_mmpp_valid(rate in 20.0..400.0f64, seed in 0u64..200) {
        let p = PoissonTrace::new(rate, seed);
        assert_valid_trace(&p.arrival_times(30.0), 30.0)?;
        let m = MmppTrace::three_regime(rate, seed);
        assert_valid_trace(&m.arrival_times(30.0), 30.0)?;
    }

    #[test]
    fn rate_series_conserves_count(
        times in prop::collection::vec(0.0..100.0f64, 0..500),
        bin in 0.25..5.0f64,
    ) {
        let mut sorted = times.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let series = rate_series(&sorted, bin, 100.0);
        let total: f64 = series.iter().map(|r| r * bin).sum();
        prop_assert!((total - sorted.len() as f64).abs() < 1e-6);
    }

    #[test]
    fn cost_trace_positive_and_deterministic(base in 1.0..20.0f64, seed in 0u64..200) {
        let a = CostTrace::paper_fig14(base, seed);
        let pts = a.points_ms(400.0);
        prop_assert!(pts.iter().all(|&(_, ms)| ms > 0.0 && ms.is_finite()));
        let b = CostTrace::paper_fig14(base, seed);
        prop_assert_eq!(pts, b.points_ms(400.0));
    }
}
