//! Workspace-level integration tests: the full stack (workload → engine →
//! control) exercised through the public `streamshed` facade.

use streamshed::prelude::*;

fn arrivals_of(trace: &dyn ArrivalTrace, dur_s: f64) -> Vec<SimTime> {
    to_micros(&trace.arrival_times(dur_s))
        .into_iter()
        .map(SimTime)
        .collect()
}

#[test]
fn facade_reexports_compose() {
    // Design a controller, wrap it in a strategy, drive the engine with a
    // workload — all through the prelude.
    let params = ControllerParams::for_double_pole(0.7);
    assert!((params.b0 - 0.4).abs() < 1e-12);

    let cfg = LoopConfig::paper_default().with_controller(params);
    let mut strategy = CtrlStrategy::from_config(&cfg);
    let arrivals = arrivals_of(&StepTrace::constant(300.0), 60.0);
    let sim = Simulator::new(identification_network(), SimConfig::paper_default());
    let report = sim.run(&arrivals, &mut strategy, secs(60));
    assert!(report.completed > 5000);
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let trace = ParetoTrace::builder().mean_rate(250.0).seed(5).build();
        let arrivals = arrivals_of(&trace, 60.0);
        let mut s = CtrlStrategy::from_config(&LoopConfig::paper_default());
        let sim = Simulator::new(identification_network(), SimConfig::paper_default());
        let r = sim.run(&arrivals, &mut s, secs(60));
        (
            r.completed,
            r.dropped_entry,
            r.accumulated_violation_ms,
            r.mean_delay_ms(),
        )
    };
    assert_eq!(run(), run(), "virtual-time runs must be bit-reproducible");
}

#[test]
fn custom_network_with_all_operator_kinds() {
    use streamshed::engine::operator::{
        AggFunc, Aggregate, Filter, Map, Split, Union, WindowJoin, WindowSpec,
    };
    let mut b = NetworkBuilder::new();
    let f = b.add("f", micros(100), Filter::value_below(0.9));
    let m = b.add("m", micros(100), Map::scale(2.0));
    let sp = b.add("sp", micros(50), Split::value_below(0.5));
    let g = b.add("g", micros(100), Map::identity());
    let h = b.add("h", micros(100), Map::identity());
    let u = b.add("u", micros(50), Union);
    let j = b.add(
        "j",
        micros(200),
        WindowJoin::new(WindowSpec::Count(16), 0.2),
    );
    let src2 = b.add("src2", micros(100), Filter::value_below(0.9));
    let agg = b.add("agg", micros(100), Aggregate::new(3, AggFunc::Max));
    b.entry(f);
    b.entry(src2);
    b.connect(f, m);
    b.connect(m, sp);
    b.connect_port(sp, 0, g, 0);
    b.connect_port(sp, 1, h, 0);
    b.connect_port(g, 0, u, 0);
    b.connect_port(h, 0, u, 1);
    b.connect_port(u, 0, j, 0);
    b.connect_port(src2, 0, j, 1);
    b.connect(j, agg);
    let net = b.build().expect("valid network");

    let arrivals = arrivals_of(&StepTrace::constant(500.0), 20.0);
    let sim = Simulator::new(net, SimConfig::paper_default().with_seed(3));
    let report = sim.run(&arrivals, &mut NoShedding, secs(20));
    assert_eq!(report.offered, 10_000);
    assert!(report.completed > 0);
    // Conservation: everything offered is accounted for.
    let outstanding = report.periods.last().unwrap().outstanding;
    assert_eq!(report.offered, report.completed + outstanding);
}

#[test]
fn shedding_strategies_keep_loss_proportional_to_overload() {
    // Offered 2× capacity: in the long run any stable strategy must shed
    // about half.
    for kind in ["ctrl", "baseline"] {
        let arrivals = arrivals_of(&StepTrace::constant(380.0), 150.0);
        let cfg = LoopConfig::paper_default();
        let sim = Simulator::new(identification_network(), SimConfig::paper_default());
        let report = match kind {
            "ctrl" => {
                let mut s = CtrlStrategy::from_config(&cfg);
                sim.run(&arrivals, &mut s, secs(150))
            }
            _ => {
                let mut s = BaselineStrategy::from_config(&cfg);
                sim.run(&arrivals, &mut s, secs(150))
            }
        };
        let expected = 1.0 - 190.0 / 380.0;
        assert!(
            (report.loss_ratio() - expected).abs() < 0.07,
            "{kind}: loss {} vs expected {expected}",
            report.loss_ratio()
        );
    }
}

#[test]
fn model_predicts_engine_behaviour() {
    // The PlantModel's capacity and delay predictions must match what the
    // engine actually does — the crux of §4.2.
    let model = PlantModel::new(0.97 / 190.0 * 1e6, 0.97, secs(1));
    assert!((model.capacity_tps() - 190.0).abs() < 1e-6);

    // Drive the engine to a known queue length with CTRL and compare the
    // measured delay against the model's prediction.
    let arrivals = arrivals_of(&StepTrace::constant(300.0), 100.0);
    let mut s = CtrlStrategy::from_config(&LoopConfig::paper_default());
    let sim = Simulator::new(identification_network(), SimConfig::paper_default());
    let report = sim.run(&arrivals, &mut s, secs(100));
    let q_tail: f64 = report.periods[40..]
        .iter()
        .map(|p| p.outstanding as f64)
        .sum::<f64>()
        / 60.0;
    let predicted_ms = model.predict_delay_s(q_tail.round() as u64) * 1e3;
    let measured_ms = report.mean_delay_ms();
    assert!(
        (predicted_ms - measured_ms).abs() < 0.35 * measured_ms,
        "model {predicted_ms} ms vs engine {measured_ms} ms"
    );
}

#[test]
fn sysid_pipeline_recovers_engine_parameters() {
    // knee → naive cost → headroom fit: the full §4.2 identification
    // pipeline, end to end.
    let cfg = SimConfig::paper_default();
    let knee = streamshed::sysid::find_capacity_knee(
        identification_network,
        130.0,
        260.0,
        5.0,
        20,
        &cfg,
    );
    assert!((knee.capacity_tps - 190.0).abs() < 12.0);

    let run = streamshed::sysid::run_identification(
        identification_network(),
        &StepTrace::paper_step(300.0),
        60,
        150,
        cfg,
    );
    let fit = streamshed::sysid::fit_headroom(&run, run.mean_cost_us, &[0.95, 0.97, 1.0]);
    assert!((fit.best_headroom - 0.97).abs() < 0.021);
}
