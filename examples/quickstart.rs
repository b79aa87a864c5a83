//! Quickstart: feedback-control load shedding in ~40 lines.
//!
//! Runs the paper's identification network under a 2× overload, once with
//! no shedding and once under the CTRL strategy, and prints the paper's
//! four quality metrics for both.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use streamshed::engine::spans::SpanRegistry;
use streamshed::engine::telemetry::SharedRecorder;
use streamshed::prelude::*;

fn main() {
    let duration_s = 120.0;
    let target_ms = 2000.0;

    // A bursty Pareto stream at ~380 t/s — 2× the 190 t/s capacity.
    let trace = ParetoTrace::builder()
        .mean_rate(380.0)
        .bias(1.0)
        .seed(7)
        .build();
    let arrivals: Vec<SimTime> = to_micros(&trace.arrival_times(duration_s))
        .into_iter()
        .map(SimTime)
        .collect();

    println!("workload: {} tuples over {duration_s} s (capacity 190 t/s)", arrivals.len());
    println!("target delay: {target_ms} ms\n");

    // Each run samples every admitted tuple into a span registry, whose
    // sojourn histogram then holds every departure's delay (ns of
    // virtual time).
    let spans = [SpanRegistry::new(), SpanRegistry::new()];
    let sim = |i: usize| {
        Simulator::new(identification_network(), SimConfig::paper_default())
            .with_spans(spans[i].handle("sim"), 1)
    };

    // 1. No shedding: the queue — and the delays — grow without bound.
    let open = sim(0).run(&arrivals, &mut NoShedding, secs(duration_s as u64));

    // 2. The paper's feedback controller, with one control trace per
    // period recorded.
    let mut ctrl = CtrlStrategy::from_config(&LoopConfig::paper_default());
    let traces = SharedRecorder::with_capacity(duration_s as usize);
    let closed_sim = sim(1).with_telemetry(traces.clone());
    let closed = closed_sim.run(&arrivals, &mut ctrl, secs(duration_s as u64));

    for (name, report, spans) in [("no shedding", &open, &spans[0]), ("CTRL", &closed, &spans[1])] {
        let p99_ms = spans.snapshot().sojourn.quantile(0.99) as f64 / 1e6;
        println!("--- {name} ---");
        println!("  mean delay        : {:>10.1} ms", report.mean_delay_ms());
        println!("  p99 delay         : {p99_ms:>10.1} ms");
        println!("  delay violations  : {:>10.1} tuple·s", report.accumulated_violation_ms / 1e3);
        println!("  delayed tuples    : {:>10}", report.delayed_tuples);
        println!("  max overshoot     : {:>10.1} ms", report.max_overshoot_ms);
        println!("  data loss         : {:>9.1} %", report.loss_ratio() * 100.0);
        println!();
    }

    let settled: Vec<_> = traces.snapshot().into_iter().skip(20).collect();
    let mean_yhat = settled.iter().map(|s| s.y_hat_s).sum::<f64>() / settled.len() as f64;
    println!(
        "CTRL steady state: estimated delay ŷ = {mean_yhat:.2} s (target 2.00 s), \
         mean shed factor α = {:.2}",
        settled.iter().map(|s| s.alpha).sum::<f64>() / settled.len() as f64
    );
}
