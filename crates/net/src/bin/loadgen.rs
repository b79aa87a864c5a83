//! `loadgen` — the client fleet as a process.
//!
//! Drives a seeded open-loop fleet against a running `serve`
//! instance and prints the [`LoadgenReport`](streamshed_net::loadgen::LoadgenReport)
//! as one JSON object on
//! stdout. Exit status is the CI gate: non-zero when the cross-boundary
//! conservation law fails, when the fleet could not be established, or
//! (with `--require-conns N`) when fewer than N connections were held.
//!
//! ```text
//! loadgen --addr 127.0.0.1:7171 --connections 10000 --rate 0 --secs 5
//! loadgen --addr 127.0.0.1:7171 --connections 256 --rate 1500 --secs 8 --arrivals web
//! ```

use std::time::Duration;
use streamshed_net::loadgen::{self, Arrivals, LoadgenConfig};

fn parse() -> Result<(LoadgenConfig, usize, bool), String> {
    let mut cfg = LoadgenConfig::default();
    let mut require_conns = 0usize;
    let mut require_conserved = true;
    let mut addr = "127.0.0.1:7171".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => addr = val("--addr")?,
            "--connections" => {
                cfg.connections = val("--connections")?.parse().map_err(|e| format!("{e}"))?
            }
            "--threads" => cfg.threads = val("--threads")?.parse().map_err(|e| format!("{e}"))?,
            "--rate" => cfg.rate = val("--rate")?.parse().map_err(|e| format!("{e}"))?,
            "--batch" => cfg.batch = val("--batch")?.parse().map_err(|e| format!("{e}"))?,
            "--secs" => cfg.secs = val("--secs")?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => cfg.seed = val("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--drain-secs" => {
                cfg.drain = Duration::from_secs_f64(
                    val("--drain-secs")?.parse().map_err(|e| format!("{e}"))?,
                )
            }
            "--arrivals" => {
                cfg.arrivals = match val("--arrivals")?.as_str() {
                    "uniform" => Arrivals::Uniform,
                    "poisson" => Arrivals::Poisson,
                    "web" => Arrivals::Web,
                    other => {
                        return Err(format!("unknown arrivals {other} (uniform|poisson|web)"))
                    }
                }
            }
            "--keyed" => cfg.keyed = true,
            "--require-conns" => {
                require_conns = val("--require-conns")?.parse().map_err(|e| format!("{e}"))?
            }
            "--no-conservation-gate" => require_conserved = false,
            "--help" | "-h" => {
                eprintln!(
                    "loadgen --addr A [--connections N] [--threads T] [--rate R] [--batch B] \
                     [--secs S] [--seed K] \
                     [--arrivals uniform|poisson|web] [--keyed] [--drain-secs D] \
                     [--require-conns N] [--no-conservation-gate]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    cfg.addr = addr
        .parse()
        .map_err(|e| format!("bad --addr {addr}: {e}"))?;
    Ok((cfg, require_conns, require_conserved))
}

fn main() {
    let (cfg, require_conns, require_conserved) = match parse() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("loadgen: {e}");
            std::process::exit(2);
        }
    };
    let report = match loadgen::run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("loadgen: {e}");
            std::process::exit(1);
        }
    };
    println!("{}", report.to_json());
    eprintln!(
        "loadgen: rtt p50 {:.3} ms, p99 {:.3} ms, p999 {:.3} ms, max {:.3} ms \
         over {} replies",
        report.rtt_p50_ms, report.rtt_p99_ms, report.rtt_p999_ms, report.rtt_max_ms, report.replies
    );
    let mut failed = false;
    if require_conserved && !report.conserved() {
        eprintln!(
            "loadgen: CONSERVATION VIOLATION: sent {} != accepted {} + shed {} + \
             rejected_capacity {} + rejected_closed {} + lost {}",
            report.sent,
            report.accepted,
            report.shed,
            report.rejected_capacity,
            report.rejected_closed,
            report.lost
        );
        failed = true;
    }
    if report.connections_established == 0 && cfg.connections > 0 {
        eprintln!("loadgen: no connection could be established");
        failed = true;
    }
    if report.connections_established < require_conns {
        eprintln!(
            "loadgen: held {} connections < required {require_conns}",
            report.connections_established
        );
        failed = true;
    }
    std::process::exit(if failed { 1 } else { 0 });
}
