//! Sensor-grid scenario: time-varying processing costs.
//!
//! An environmental-monitoring deployment re-plans its query network at
//! runtime (new queries arrive, selectivities drift), so the per-tuple
//! cost wanders — the exact situation of the paper's Fig. 14/15. This
//! example shows the cost estimator tracking the true cost and the
//! controller re-converging after each change.
//!
//! ```text
//! cargo run --release --example sensor_grid
//! ```

use streamshed::prelude::*;
use streamshed::engine::cost::CostSchedule;
use streamshed::engine::telemetry::SharedRecorder;

fn main() {
    let duration = 300u64;
    let base_ms = 5.105;

    // Fig. 14-style cost profile: peak @50 s, jump @125 s, terrace
    // 200–260 s.
    let cost = CostTrace::paper_fig14(base_ms, 99);
    let schedule = CostSchedule::from_points(
        cost.multiplier_points(duration as f64)
            .into_iter()
            .map(|(t, m)| (SimTime((t * 1e6) as u64), m))
            .collect(),
    );

    // Steady 250 t/s of sensor readings — overload whenever the cost
    // multiplier exceeds 190/250 ≈ 0.76× of nominal, i.e. almost always.
    let times = StepTrace::constant(250.0).arrival_times(duration as f64);
    let arrivals: Vec<SimTime> = to_micros(&times).into_iter().map(SimTime).collect();

    let sim_cfg = SimConfig::paper_default().with_cost_schedule(schedule);
    let mut ctrl = CtrlStrategy::from_config(&LoopConfig::paper_default());
    // One control trace per period: ŷ, α and the cost estimate in force.
    let recorder = SharedRecorder::with_capacity(duration as usize);
    let sim = Simulator::new(identification_network(), sim_cfg).with_telemetry(recorder.clone());
    let report = sim.run(&arrivals, &mut ctrl, secs(duration));
    let traces = recorder.snapshot();

    println!("time(s)  true-cost(ms)  est-cost(ms)  y-est(s)  shed(%)");
    let truth = cost.points_ms(duration as f64);
    for row in traces.iter().step_by(15) {
        let k = row.k as usize;
        println!(
            "{:6}  {:12.2}  {:11.2}  {:7.2}  {:6.1}",
            k,
            truth[k.min(truth.len() - 1)].1,
            row.cost_est_us / 1e3,
            row.y_hat_s,
            row.alpha * 100.0
        );
    }

    println!("\n--- totals over {duration} s ---");
    println!("  mean delay      : {:.0} ms (target 2000 ms)", report.mean_delay_ms());
    println!("  delayed tuples  : {}", report.delayed_tuples);
    println!("  max overshoot   : {:.0} ms", report.max_overshoot_ms);
    println!("  data loss       : {:.1} %", report.loss_ratio() * 100.0);

    // The estimator must have tracked the big cost jump.
    let est_at_peak = traces
        .iter()
        .filter(|t| (130..140).contains(&(t.k as usize)))
        .map(|t| t.cost_est_us / 1e3)
        .fold(0.0f64, f64::max);
    println!(
        "\ncost estimate near the 125 s jump peaked at {est_at_peak:.1} ms \
         (true peak ≈ {:.1} ms)",
        truth[126].1
    );
    assert!(
        est_at_peak > base_ms * 2.0,
        "estimator must have followed the jump"
    );
}
