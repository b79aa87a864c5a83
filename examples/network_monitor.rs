//! Network-monitoring scenario on the **real-time** engine.
//!
//! An intrusion-detection pipeline must classify packet summaries within
//! a soft deadline; an attack burst triples the packet rate. The same
//! feedback controller that drives the simulator here controls a live,
//! threaded pipeline against the wall clock.
//!
//! ```text
//! cargo run --release --example network_monitor
//! ```
//! Runtime: ~4 seconds of wall-clock time.

use std::time::Duration;
use streamshed::control::strategy::{CtrlStrategy, SheddingStrategy};
use streamshed::control::LoopConfig;
use streamshed::engine::shard::{ShardConfig, ShardedEngine};

fn main() {
    // 500 µs per packet summary, 50 ms control period, 100 ms deadline.
    let cfg = ShardConfig {
        cost: Duration::from_micros(500),
        period: Duration::from_millis(50),
        target_delay: Duration::from_millis(100),
        queue_capacity: 8192,
        ..ShardConfig::demo(1)
    };
    // Loop config in the controller's units: everything in ms.
    let loop_cfg = LoopConfig::paper_default()
        .with_target_delay_ms(100.0)
        .with_period_ms(50.0)
        .with_prior_cost_us(500.0);
    let strategy = CtrlStrategy::from_config(&loop_cfg);
    println!("strategy: {}", strategy.name());

    let engine = ShardedEngine::spawn(cfg, strategy);
    println!("phase 1: normal traffic (1000 pkt/s ≈ 52% load) for 1.5 s");
    feed(&engine, 1000.0, 1.5);
    println!("  queue after phase 1: {}", engine.queue_len());

    println!("phase 2: attack burst (6000 pkt/s ≈ 310% load) for 1.5 s");
    feed(&engine, 6000.0, 1.5);
    println!("  queue after burst: {}", engine.queue_len());

    println!("phase 3: back to normal for 1 s");
    feed(&engine, 1000.0, 1.0);

    let report = engine.shutdown();
    println!("\n--- report ---");
    println!("  offered            : {}", report.offered);
    println!("  completed          : {}", report.completed);
    println!("  shed at entry      : {}", report.dropped_entry);
    println!("  shed from queue    : {}", report.dropped_shed);
    println!("  mean delay         : {:.1} ms (target 100 ms)", report.mean_delay_ms);
    println!("  max delay          : {:.1} ms", report.max_delay_ms);
    println!("  deadline misses    : {}", report.delayed_tuples);
    println!("  loss ratio         : {:.1} %", report.loss_ratio() * 100.0);
    println!("  control periods    : {}", report.periods);

    assert!(
        report.mean_delay_ms < 400.0,
        "the controller must keep delays bounded under the burst"
    );
}

/// Feeds tuples at `rate` packets/s for `secs` seconds.
fn feed(engine: &ShardedEngine, rate: f64, secs: f64) {
    let gap = Duration::from_secs_f64(1.0 / rate);
    let deadline = std::time::Instant::now() + Duration::from_secs_f64(secs);
    while std::time::Instant::now() < deadline {
        engine.offer();
        std::thread::sleep(gap);
    }
}
