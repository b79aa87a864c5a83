//! Stock-ticker scenario: firm deadlines under auction bursts.
//!
//! Quote and trade streams are correlated through a sliding-window join,
//! aggregated, and filtered for alerts. Quotes are worthless once stale
//! ("tracking of stock prices" is the paper's firm-deadline example), so
//! the delay target is tight: 500 ms. The market open and close produce
//! violent arrival bursts.
//!
//! Compares CTRL against the open-loop AURORA policy on the same input.
//!
//! ```text
//! cargo run --release --example stock_ticker
//! ```

use streamshed::prelude::*;
use streamshed::engine::operator::{AggFunc, Aggregate, Filter, WindowJoin, WindowSpec};
use streamshed::engine::spans::SpanRegistry;
use streamshed::engine::time::{millis, secs_f64};

/// Quote/trade correlation network: join → window-avg → alert filter.
fn ticker_network() -> QueryNetwork {
    let mut b = NetworkBuilder::new();
    let quotes = b.add("quotes", micros(150), Filter::value_below(0.98));
    let trades = b.add("trades", micros(150), Filter::value_below(0.98));
    let join = b.add(
        "correlate",
        micros(800),
        WindowJoin::new(WindowSpec::Time(secs_f64(0.25)), 0.4),
    );
    let vwap = b.add("vwap", micros(300), Aggregate::new(4, AggFunc::Avg));
    let alert = b.add("alert", micros(200), Filter::value_below(0.25));
    b.entry(quotes);
    b.entry(trades);
    b.connect_port(quotes, 0, join, 0);
    b.connect_port(trades, 0, join, 1);
    b.connect(join, vwap);
    b.connect(vwap, alert);
    b.build().expect("valid ticker network")
}

fn main() {
    // Trading-day-in-miniature: open burst, lull, close burst.
    let trace = StepTrace::from_steps(vec![
        (0.0, 2500.0),  // opening auction
        (20.0, 900.0),  // midday
        (60.0, 3000.0), // closing auction
        (80.0, 600.0),  // after hours
    ]);
    let duration = 100u64;
    let times = trace.arrival_times(duration as f64);
    let arrivals: Vec<SimTime> = to_micros(&times).into_iter().map(SimTime).collect();

    let capacity = ticker_network().expected_cost_per_tuple_us();
    println!(
        "ticker network: expected cost {capacity:.0} µs/tuple \
         (capacity ≈ {:.0} t/s); bursts reach 3000 t/s",
        0.97 / capacity * 1e6
    );

    let loop_cfg = LoopConfig::paper_default()
        .with_target_delay_ms(500.0)
        .with_period_ms(250.0)
        .with_prior_cost_us(capacity);
    let sim_cfg = SimConfig::paper_default()
        .with_period(millis(250))
        .with_target_delay(millis(500));

    for use_ctrl in [true, false] {
        // Sample every admitted quote: the sojourn histogram then holds
        // every departure's delay, in ns of virtual time.
        let spans = SpanRegistry::new();
        let sim =
            Simulator::new(ticker_network(), sim_cfg.clone()).with_spans(spans.handle("sim"), 1);
        let report = if use_ctrl {
            let mut s = CtrlStrategy::from_config(&loop_cfg);
            sim.run(&arrivals, &mut s, secs(duration))
        } else {
            let mut s = AuroraStrategy::from_config(&loop_cfg);
            sim.run(&arrivals, &mut s, secs(duration))
        };
        let name = if use_ctrl { "CTRL" } else { "AURORA" };
        println!("\n--- {name} ---");
        println!("  stale quotes (>500 ms): {:>8}", report.delayed_tuples);
        println!(
            "  staleness overrun     : {:>8.1} tuple·s",
            report.accumulated_violation_ms / 1e3
        );
        println!("  worst staleness       : {:>8.1} ms", report.max_overshoot_ms);
        println!("  quotes dropped        : {:>7.1} %", report.loss_ratio() * 100.0);
        let sojourn = spans.snapshot().sojourn;
        println!(
            "  p50 / p99 delay       : {:>6.0} / {:.0} ms",
            sojourn.quantile(0.5) as f64 / 1e6,
            sojourn.quantile(0.99) as f64 / 1e6
        );
    }
    println!(
        "\nCTRL keeps staleness pinned near the 500 ms budget through both \
         auctions;\nAURORA lets the opening-burst backlog linger."
    );
}
