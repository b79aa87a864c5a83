//! Property-based tests for the engine's operators, network builder, and
//! time arithmetic — plus the simulator's same-seed determinism.

use proptest::prelude::*;
use streamshed_engine::network::NetworkBuilder;
use streamshed_engine::operator::{
    AggFunc, Aggregate, Filter, Map, OperatorLogic, OutputBuffer, WindowJoin, WindowSpec,
};
use streamshed_engine::time::{micros, millis, SimDuration, SimTime};
use streamshed_engine::tuple::{RootId, Tuple};

fn run_op(
    op: &mut dyn OperatorLogic,
    port: usize,
    tuple: Tuple,
    now: SimTime,
) -> Vec<Tuple> {
    // The buffer's item list is crate-private (outputs are routed inside
    // the engine); these properties only need output *counts*, so return
    // one placeholder per emitted tuple.
    let mut out = OutputBuffer::new();
    op.process(port, &tuple, now, &mut out);
    vec![tuple; out.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A threshold filter's pass rate converges to its declared
    /// selectivity for uniform values.
    #[test]
    fn filter_statistical_selectivity(threshold in 0.05..0.95f64, seed in 0u64..1000) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut f = Filter::value_below(threshold);
        let n = 4000;
        let mut passed = 0usize;
        for i in 0..n {
            let t = Tuple::new(RootId(i as u64), SimTime::ZERO, 0, rng.gen::<f64>());
            passed += run_op(&mut f, 0, t, SimTime::ZERO).len();
        }
        let rate = passed as f64 / n as f64;
        prop_assert!((rate - threshold).abs() < 0.05, "rate {rate} vs {threshold}");
    }

    /// A count-window aggregate emits exactly ⌊n/w⌋ summaries for n
    /// inputs.
    #[test]
    fn aggregate_emission_count(window in 1usize..20, n in 0usize..200) {
        let mut a = Aggregate::new(window, AggFunc::Sum);
        let mut emitted = 0usize;
        for i in 0..n {
            let t = Tuple::new(RootId(i as u64), SimTime::ZERO, 0, 1.0);
            emitted += run_op(&mut a, 0, t, SimTime::ZERO).len();
        }
        prop_assert_eq!(emitted, n / window);
    }

    /// Join output count is symmetric in the probe order for matched
    /// batches (same keys both sides, same window).
    #[test]
    fn join_symmetry(keys in prop::collection::vec(0u64..8, 1..30)) {
        let count_matches = |first_port: usize| {
            let mut j = WindowJoin::new(WindowSpec::Count(1000), 0.5);
            let mut total = 0usize;
            for (i, &k) in keys.iter().enumerate() {
                let t = Tuple::new(RootId(i as u64), SimTime(i as u64), k, 1.0);
                total += run_op(&mut j, first_port, t, SimTime(i as u64)).len();
            }
            for (i, &k) in keys.iter().enumerate() {
                let t = Tuple::new(RootId(1000 + i as u64), SimTime(100 + i as u64), k, 1.0);
                total += run_op(&mut j, 1 - first_port, t, SimTime(100 + i as u64)).len();
            }
            total
        };
        prop_assert_eq!(count_matches(0), count_matches(1));
    }

    /// Join windows never retain more than the count bound.
    #[test]
    fn join_window_bound(cap in 1usize..50, n in 0u64..200) {
        let mut j = WindowJoin::new(WindowSpec::Count(cap), 0.5);
        for i in 0..n {
            let t = Tuple::new(RootId(i), SimTime(i), i % 5, 1.0);
            let _ = run_op(&mut j, (i % 2) as usize, t, SimTime(i));
        }
        prop_assert!(j.window_len(0) <= cap);
        prop_assert!(j.window_len(1) <= cap);
    }

    /// Random linear chains always build, and their expected cost is the
    /// sum of operator costs.
    #[test]
    fn chains_always_build(costs in prop::collection::vec(1u64..10_000, 1..20)) {
        let mut b = NetworkBuilder::new();
        let mut prev = None;
        for (i, &c) in costs.iter().enumerate() {
            let node = b.add(format!("n{i}"), micros(c), Map::identity());
            match prev {
                None => { b.entry(node); }
                Some(p) => { b.connect(p, node); }
            }
            prev = Some(node);
        }
        let net = b.build().unwrap();
        let want: u64 = costs.iter().sum();
        prop_assert!((net.expected_cost_per_tuple_us() - want as f64).abs() < 1e-6);
    }

    /// Random DAGs (edges only forward) always pass validation; adding a
    /// back edge always fails with Cyclic.
    #[test]
    fn dag_validation(n in 2usize..10, extra_edges in prop::collection::vec((0usize..10, 0usize..10), 0..12)) {
        let build = |back_edge: bool| {
            let mut b = NetworkBuilder::new();
            let nodes: Vec<_> = (0..n)
                .map(|i| b.add(format!("n{i}"), micros(10), Map::identity()))
                .collect();
            b.entry(nodes[0]);
            for w in nodes.windows(2) {
                b.connect(w[0], w[1]);
            }
            for &(from, to) in &extra_edges {
                let (f, t) = (from % n, to % n);
                if f < t {
                    b.connect(nodes[f], nodes[t]);
                }
            }
            if back_edge {
                b.connect(nodes[n - 1], nodes[0]);
            }
            b.build()
        };
        prop_assert!(build(false).is_ok());
        prop_assert!(matches!(
            build(true),
            Err(streamshed_engine::network::NetworkError::Cyclic)
        ));
    }

    /// Same seed ⇒ bit-identical `RunReport`, with both the entry shedder
    /// (the front door's counter coins) and in-network shedding (partial
    /// Fisher–Yates) exercised. This is the determinism contract the
    /// batched executor and all fast paths must preserve.
    #[test]
    fn same_seed_same_run_report(seed in 0u64..500, alpha in 0.0f64..0.6) {
        use streamshed_engine::hook::{Decision, PeriodSnapshot};
        use streamshed_engine::networks::identification_network;
        use streamshed_engine::sim::{SimConfig, Simulator};
        use streamshed_engine::time::{secs, SimTime};

        let arrivals: Vec<SimTime> =
            (0..3000).map(|i| SimTime(i * 2_000)).collect(); // 500 t/s for 6 s
        let run = || {
            let mut cfg = SimConfig::paper_default();
            cfg.seed = seed;
            let sim = Simulator::new(identification_network(), cfg);
            // Alternate entry shedding and in-network shedding so both
            // RNG-driven paths run.
            let mut flip = false;
            let mut hook = |_: &PeriodSnapshot| {
                flip = !flip;
                if flip {
                    Decision::entry(alpha)
                } else {
                    Decision::network(400.0)
                }
            };
            sim.run(&arrivals, &mut hook, secs(6))
        };
        let a = run();
        let b = run();
        // Compare the rendered reports: periods with no departures carry
        // `arrival_mean_delay_ms: NaN`, and NaN ≠ NaN under `PartialEq`
        // even when the runs are bit-identical.
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    /// SimTime arithmetic: associativity and ordering.
    #[test]
    fn time_arithmetic(a in 0u64..1_000_000, b in 0u64..1_000_000, c in 0u64..1_000_000) {
        let t = SimTime(a);
        let d1 = SimDuration(b);
        let d2 = SimDuration(c);
        prop_assert_eq!((t + d1) + d2, t + (d1 + d2));
        prop_assert!((t + d1) >= t);
        prop_assert_eq!((t + d1) - t, d1);
        // Millis/micros conversions round-trip.
        prop_assert_eq!(millis(b / 1000).as_micros(), (b / 1000) * 1000);
    }
}
