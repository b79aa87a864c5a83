//! `serve` — the network front door as a process.
//!
//! Spawns a sharded engine under the paper's pole-placement controller,
//! binds the TCP/HTTP listener, and runs until SIGTERM/SIGINT (or
//! `--secs`), then drains gracefully: listener closed, buffered frames
//! admitted, replies flushed, engine shut down — and prints the final
//! front-door report as one JSON object on stdout.
//!
//! ```text
//! serve --addr 127.0.0.1:7171 --shards 1 --cost-us 2000 --target-ms 250
//! ```

use std::sync::Arc;
use std::time::Duration;
use streamshed_control::loop_::LoopConfig;
use streamshed_control::strategy::CtrlStrategy;
use streamshed_engine::obs::ObsOptions;
use streamshed_engine::shard::{Dispatch, ShardConfig, ShardedEngine};
use streamshed_engine::worker::CostModel;
use streamshed_net::server::{NetConfig, NetObs, NetServer};
use streamshed_net::sys;

struct Args {
    addr: String,
    shards: usize,
    cost_us: u64,
    period_ms: u64,
    target_ms: f64,
    queue_cap: usize,
    seed: u64,
    secs: f64,
    workers: usize,
    max_conns: usize,
    pin: bool,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7171".into(),
            shards: 1,
            cost_us: 2000,
            period_ms: 50,
            target_ms: 250.0,
            queue_cap: 8192,
            seed: ShardConfig::DEFAULT_SEED,
            secs: 0.0, // run until signalled
            workers: 0,
            max_conns: 16_384,
            pin: false,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--addr" => args.addr = val("--addr")?,
            "--shards" => args.shards = val("--shards")?.parse().map_err(|e| format!("{e}"))?,
            "--cost-us" => args.cost_us = val("--cost-us")?.parse().map_err(|e| format!("{e}"))?,
            "--period-ms" => {
                args.period_ms = val("--period-ms")?.parse().map_err(|e| format!("{e}"))?
            }
            "--target-ms" => {
                args.target_ms = val("--target-ms")?.parse().map_err(|e| format!("{e}"))?
            }
            "--queue-cap" => {
                args.queue_cap = val("--queue-cap")?.parse().map_err(|e| format!("{e}"))?
            }
            "--seed" => args.seed = val("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--secs" => args.secs = val("--secs")?.parse().map_err(|e| format!("{e}"))?,
            "--workers" => args.workers = val("--workers")?.parse().map_err(|e| format!("{e}"))?,
            "--max-conns" => {
                args.max_conns = val("--max-conns")?.parse().map_err(|e| format!("{e}"))?
            }
            "--pin" => args.pin = true,
            "--help" | "-h" => {
                eprintln!(
                    "serve [--addr A] [--shards N] [--cost-us C] [--period-ms P] \
                     [--target-ms T] [--queue-cap Q] [--seed S] [--secs X] \
                     [--workers W] [--max-conns M] [--pin]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.cost_us == 0 {
        // The controller's cost prior: the plant model divides by it.
        return Err("--cost-us must be at least 1".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("serve: {e}");
            std::process::exit(2);
        }
    };
    sys::install_term_handlers();

    let period = Duration::from_millis(args.period_ms);
    let cfg = ShardConfig {
        shards: args.shards,
        cost: Duration::from_micros(args.cost_us),
        period,
        target_delay: Duration::from_millis(args.target_ms as u64),
        headroom: 0.97,
        queue_capacity: args.queue_cap,
        panic_on_tuple: None,
        cost_model: CostModel::Sleep,
        dispatch: Dispatch::RoundRobin,
        seed: args.seed,
        pin_cores: args.pin,
        sample_every: streamshed_engine::spans::DEFAULT_SAMPLE_EVERY,
    };
    let loop_cfg = LoopConfig::paper_default()
        .with_target_delay_ms(args.target_ms)
        .with_period_ms(args.period_ms as f64)
        .with_headroom(0.97)
        .with_prior_cost_us(args.cost_us as f64 / args.shards as f64);
    let strategy = CtrlStrategy::from_config(&loop_cfg);
    // Observability plane without its own HTTP server — the net
    // listener serves /metrics, /health, /ready and /trace itself.
    let obs_options = ObsOptions {
        http: None,
        ..ObsOptions::for_target(cfg.target_delay)
    };
    let engine = match ShardedEngine::spawn_observed(cfg, strategy, &obs_options) {
        Ok(e) => Arc::new(e),
        Err(e) => {
            eprintln!("serve: engine spawn failed: {e}");
            std::process::exit(1);
        }
    };
    let net_obs = NetObs {
        metrics: engine.metrics_fn(),
        plane: engine.obs().map(|o| o.plane.clone()),
    };
    let net_cfg = NetConfig {
        addr: args.addr.clone(),
        workers: args.workers,
        pin_workers: args.pin,
        max_conns: args.max_conns,
        ..NetConfig::default()
    };
    let server = match NetServer::start(net_cfg, engine.clone(), Some(net_obs)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: bind {} failed: {e}", args.addr);
            std::process::exit(1);
        }
    };
    let stats = server.stats();
    eprintln!(
        "serve: listening on {} ({} shard(s), target {} ms)",
        server.addr(),
        args.shards,
        args.target_ms
    );

    let started = std::time::Instant::now();
    loop {
        if sys::term_requested() {
            eprintln!("serve: signal received, draining");
            break;
        }
        if args.secs > 0.0 && started.elapsed().as_secs_f64() >= args.secs {
            eprintln!("serve: --secs {} elapsed, draining", args.secs);
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }

    // Ordered drain: stop the listener and flush replies first, then
    // close the engine's front door and let the shards empty.
    server.shutdown();
    let report = match Arc::try_unwrap(engine) {
        Ok(engine) => engine.shutdown(),
        Err(_) => {
            eprintln!("serve: engine still referenced at shutdown");
            std::process::exit(1);
        }
    };
    let l = |v: &std::sync::atomic::AtomicU64| v.load(std::sync::atomic::Ordering::Relaxed);
    println!(
        "{{\"listener\":\"drained\",\"net\":{{\"connections_accepted\":{},\
         \"frames_received\":{},\"frames_bad\":{},\"tuples_offered\":{},\
         \"tuples_accepted\":{},\"tuples_shed\":{},\"tuples_rejected_capacity\":{},\
         \"tuples_rejected_closed\":{},\"net_balance\":{}}},\
         \"engine\":{{\"offered\":{},\"completed\":{},\"dropped_entry\":{},\
         \"rejected_capacity\":{},\"rejected_closed\":{},\"counters_balance\":{}}}}}",
        l(&stats.connections_accepted),
        l(&stats.frames_received),
        l(&stats.frames_bad),
        l(&stats.tuples_offered),
        l(&stats.tuples_accepted),
        l(&stats.tuples_shed),
        l(&stats.tuples_rejected_capacity),
        l(&stats.tuples_rejected_closed),
        stats.tuples_balance(),
        report.offered,
        report.completed,
        report.dropped_entry,
        report.rejected_at_capacity,
        report.rejected_closed,
        report.counters_balance(),
    );
}
