//! Observability-plane demo: a live engine you can `curl`.
//!
//! Spawns the real-time engine under 2× overload with the paper's CTRL
//! strategy and the full observability plane attached, then serves its
//! own metrics for a fixed duration:
//!
//! ```text
//! cargo run --release --example obs_demo -- [port] [seconds]
//!
//! curl -s localhost:9184/metrics   # Prometheus exposition + diagnostics
//! curl -s localhost:9184/health    # classifier verdict (503 on Diverging)
//! curl -s localhost:9184/ready     # readiness (503 until the first period)
//! curl -s "localhost:9184/trace?last=5"   # newest control-loop records
//! curl -s "localhost:9184/trace?last=5&format=csv"  # same, as CSV
//! curl -s localhost:9184/profile   # per-stage latency shares + percentiles
//! ```
//!
//! Defaults: port 9184, 5 seconds. CI uses this binary as the endpoint
//! smoke test. Exits non-zero if the HTTP server fails to start.

use std::time::{Duration, Instant};
use streamshed::control::loop_::LoopConfig;
use streamshed::control::strategy::CtrlStrategy;
use streamshed::engine::obs::ObsOptions;
use streamshed::engine::shard::{ShardConfig, ShardedEngine};

fn main() {
    let mut args = std::env::args().skip(1);
    let port: u16 = args.next().map_or(9184, |a| a.parse().expect("port must be a u16"));
    let seconds: u64 = args.next().map_or(5, |a| a.parse().expect("seconds must be an integer"));

    // 2 ms tuples, 100 ms control period, 200 ms delay target.
    let cfg = ShardConfig::demo(1);
    let loop_cfg = LoopConfig::paper_default()
        .with_target_delay_ms(cfg.target_delay.as_secs_f64() * 1e3)
        .with_period_ms(cfg.period.as_secs_f64() * 1e3)
        .with_headroom(cfg.headroom)
        .with_prior_cost_us(cfg.cost.as_micros() as f64);
    let strategy = CtrlStrategy::from_config(&loop_cfg);

    let options = ObsOptions::for_target(cfg.target_delay)
        .with_http_addr(format!("127.0.0.1:{port}"))
        .with_flight_dir(std::env::temp_dir().join("streamshed_obs_demo_flight"));
    let engine = match ShardedEngine::spawn_observed(cfg, strategy, &options) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("failed to start the observability plane on port {port}: {e}");
            std::process::exit(1);
        }
    };
    let addr = engine.obs().and_then(|o| o.addr()).expect("HTTP server is live");
    println!("serving http://{addr}/metrics /health /ready /trace for {seconds} s");

    // 2× overload: ~1000 t/s against ~500 t/s capacity, paced in 5 ms
    // ticks, so the controller has real work to do.
    let run = Duration::from_secs(seconds);
    let tick = Duration::from_millis(5);
    let start = Instant::now();
    let mut next = start + tick;
    while start.elapsed() < run {
        for _ in 0..5 {
            engine.offer();
        }
        let now = Instant::now();
        if next > now {
            std::thread::sleep(next - now);
        }
        next += tick;
    }

    let health = engine
        .obs()
        .map(|o| o.plane.health())
        .expect("plane attached");
    let report = engine.shutdown();
    println!(
        "done: {} offered, {} completed, final classifier state: {}",
        report.offered,
        report.completed,
        health.state.as_str()
    );
}
