//! Regenerates every figure of the paper's evaluation.
//!
//! ```text
//! reproduce [--out DIR] [--seed N] [--jobs N] [fig5 fig6 ... | all]
//! reproduce trace --scenario KEY [--out DIR] [--seed N]
//! reproduce campaign [--lane sanity|stress|full] [--filter GLOB] [--list]
//!                    [--sabotage] [--out DIR] [--seed N] [--jobs N]
//! ```
//!
//! Writes `DIR/<fig>.csv` + `DIR/<fig>.json` for each figure and prints
//! ASCII renderings with paper-vs-measured notes. Figures are regenerated
//! across `--jobs N` worker threads (default: one per core; every scenario
//! seeds its own simulator, so output is byte-identical for any N —
//! rendering and file writes happen on the main thread in figure order).
//! The `trace` subcommand replays one fault scenario with the telemetry
//! recorder engaged and writes `DIR/trace_<scenario>.jsonl` + `.csv` (see
//! `streamshed_experiments::trace`).

use std::io::Write as _;
use std::path::PathBuf;
use streamshed_experiments as exp;

/// A figure generator, called with `--seed`.
type Generate = fn(u64) -> exp::FigureResult;

/// Every figure `reproduce` regenerates, in `all` order: its name,
/// whether `all` runs it, and its generator (seedless figures ignore the
/// seed). The usage text, `all`, the unknown-name check and the dispatch
/// all read this one table.
const FIGURES: &[(&str, bool, Generate)] = &[
    ("fig5", true, |_| exp::fig05::run()),
    ("fig6", true, |_| exp::fig06::run()),
    ("fig7", true, |_| exp::fig07::run()),
    ("fig8", true, |_| exp::fig08::run()),
    ("fig12", true, exp::fig12::run),
    ("fig13", true, exp::fig13::run),
    ("fig14", true, exp::fig14::run),
    ("fig15", true, exp::fig15::run),
    ("fig16", true, exp::fig16::run),
    ("fig17", true, exp::fig17::run),
    ("fig18", true, exp::fig18::run),
    ("fig19", true, exp::fig19::run),
    ("overhead", true, |_| exp::overhead::run()),
    ("ablations", true, exp::ablations::run),
    ("faults", true, exp::faults::run),
    ("adaptive", true, exp::adaptive::run),
    // Wall-clock (not virtual-time): run explicitly, not in "all". --seed
    // drives the entry shedder; pacing stays wall-clock, so runs are
    // seedable but not byte-identical.
    ("sharded", false, exp::sharded::run),
    ("monitor", false, exp::monitor::run),
    ("net", false, exp::net::run),
];

fn run_trace(scenario: &str, out_dir: &PathBuf, seed: u64) {
    if !exp::faults::SCENARIOS.contains(&scenario) {
        eprintln!(
            "unknown scenario '{scenario}'; known: {}",
            exp::faults::SCENARIOS.join(", ")
        );
        std::process::exit(2);
    }
    let start = std::time::Instant::now();
    let result = exp::trace::run(scenario, seed);
    print!("{}", result.render_summary());
    println!("  [trace regenerated in {:.1?}]\n", start.elapsed());
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("failed to create {}: {e}", out_dir.display());
        std::process::exit(1);
    }
    for (ext, body) in [("jsonl", result.to_jsonl()), ("csv", result.to_csv())] {
        let path = out_dir.join(format!("trace_{scenario}.{ext}"));
        match std::fs::File::create(&path).and_then(|mut f| f.write_all(body.as_bytes())) {
            Ok(()) => println!("trace written to {}", path.display()),
            Err(e) => eprintln!("failed to write {}: {e}", path.display()),
        }
    }
}

/// Runs `reproduce campaign`: selects the lane (or a `--filter` subset
/// of the full grid), runs every cell, prints the verdict + failure
/// table, writes `CAMPAIGN.json`, and exits non-zero on failures unless
/// the lane is `stress` (the rotating lane reports without blocking).
#[allow(clippy::too_many_arguments)]
fn run_campaign_cmd(
    lane: &str,
    filter: Option<&str>,
    list_only: bool,
    sabotage: bool,
    out_dir: &PathBuf,
    seed: u64,
    jobs: u64,
) {
    let cells = exp::campaign::select_cells(lane, seed, filter);
    if list_only {
        for c in &cells {
            println!("{}", c.key());
        }
        eprintln!("{} cell(s)", cells.len());
        return;
    }
    if cells.is_empty() {
        eprintln!("no cells match{}", filter.map(|f| format!(" filter '{f}'")).unwrap_or_default());
        std::process::exit(2);
    }
    let label = if filter.is_some() { "filter" } else { lane };
    let start = std::time::Instant::now();
    let result = exp::campaign::run_campaign(label, cells, seed, jobs as usize, sabotage);
    println!("{}", result.render_summary());
    print!("{}", result.render_failures());
    println!("  [{} cell(s) in {:.1?} across {} worker(s)]", result.cells, start.elapsed(), jobs);
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("failed to create {}: {e}", out_dir.display());
        std::process::exit(1);
    }
    let path = out_dir.join("CAMPAIGN.json");
    match std::fs::File::create(&path).and_then(|mut f| f.write_all(result.to_json().as_bytes()))
    {
        Ok(()) => println!("campaign results written to {}", path.display()),
        Err(e) => {
            eprintln!("failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    // The stress lane reports findings without gating; every other
    // selection is a hard gate.
    if !result.all_green() && lane != "stress" {
        std::process::exit(1);
    }
}

fn main() {
    let mut out_dir = PathBuf::from("results");
    let mut seed = 7u64;
    let mut jobs = exp::parallel::default_jobs();
    let mut scenario: Option<String> = None;
    let mut lane = String::from("sanity");
    let mut filter: Option<String> = None;
    let mut list_only = false;
    let mut sabotage = false;
    let mut wanted: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => {
                out_dir = PathBuf::from(args.next().expect("--out needs a directory"));
            }
            "--lane" => {
                lane = args.next().expect("--lane needs sanity|stress|full");
            }
            "--filter" => {
                filter = Some(args.next().expect("--filter needs a key glob"));
            }
            "--list" => list_only = true,
            "--sabotage" => sabotage = true,
            "--seed" => {
                seed = args
                    .next()
                    .expect("--seed needs a value")
                    .parse()
                    .expect("seed must be an integer");
            }
            "--jobs" => {
                jobs = args
                    .next()
                    .expect("--jobs needs a worker count")
                    .parse()
                    .expect("jobs must be a positive integer");
                if jobs == 0 {
                    jobs = exp::parallel::default_jobs();
                }
            }
            "--scenario" => {
                scenario = Some(args.next().expect("--scenario needs a scenario key"));
            }
            "--help" | "-h" => {
                let names: Vec<&str> = FIGURES.iter().map(|f| f.0).collect();
                eprintln!(
                    "usage: reproduce [--out DIR] [--seed N] [--jobs N] [{} | all]\n       \
                     reproduce trace --scenario KEY [--out DIR] [--seed N]\n       \
                     reproduce campaign [--lane sanity|stress|full] [--filter GLOB] \
                     [--list] [--sabotage] [--out DIR] [--seed N] [--jobs N]\n       \
                     campaign: seeded grid sweep (workload × fault × topology × \
                     shards × controller) with invariant checks; writes \
                     DIR/CAMPAIGN.json; exits non-zero on failures except in the \
                     stress lane\n       \
                     adaptive: self-tuning control — fixed paper tuning vs the \
                     gain-scheduled re-identifier and the model-free comparator \
                     under a doubling cost staircase (seeded, virtual-time)\n       \
                     sharded: wall-clock sharded-engine convergence (1 vs 4 shards); \
                     not part of 'all'\n       \
                     monitor: wall-clock observability-plane self-test (live /metrics, \
                     /health, /trace under injected faults); not part of 'all'\n       \
                     net: wall-clock network front door — seeded loadgen fleet at 3x \
                     overload over TCP loopback (convergence, cross-boundary \
                     conservation, shedding fairness, connection hold); not part \
                     of 'all'\n       \
                     --jobs N: regenerate figures on N worker threads (0 or default: \
                     one per core); results are byte-identical for any N\n       \
                     scenarios: {}",
                    names.join(" "),
                    exp::faults::SCENARIOS.join(", ")
                );
                return;
            }
            other => wanted.push(other.to_string()),
        }
    }
    if wanted.iter().any(|w| w == "campaign") {
        run_campaign_cmd(
            &lane,
            filter.as_deref(),
            list_only,
            sabotage,
            &out_dir,
            seed,
            jobs as u64,
        );
        return;
    }
    if wanted.iter().any(|w| w == "trace") {
        let key = scenario.unwrap_or_else(|| {
            eprintln!("trace needs --scenario KEY (one of: {})", exp::faults::SCENARIOS.join(", "));
            std::process::exit(2);
        });
        run_trace(&key, &out_dir, seed);
        return;
    }
    let figures: Vec<_> = if wanted.is_empty() || wanted.iter().any(|w| w == "all") {
        FIGURES.iter().filter(|f| f.1).collect()
    } else {
        // Drop unknown names up front so the worker pool only sees real tasks.
        wanted
            .iter()
            .filter_map(|name| {
                let known = FIGURES.iter().find(|f| f.0 == name);
                if known.is_none() {
                    eprintln!("unknown figure '{name}', skipping");
                }
                known
            })
            .collect()
    };

    // Fan the scenarios across the worker pool. Each figure builds its own
    // seeded simulator, so results do not depend on scheduling; rendering
    // and file writes stay on the main thread, in figure order, which keeps
    // stdout and results/* byte-identical for any --jobs value.
    let figs = exp::parallel::run_indexed(figures.len(), jobs, |i| {
        let start = std::time::Instant::now();
        let fig = (figures[i].2)(seed);
        (fig, start.elapsed())
    });

    let mut gates_failed = false;
    for (&(name, ..), (fig, elapsed)) in figures.into_iter().zip(figs) {
        println!("{}", fig.render());
        println!("  [{name} regenerated in {elapsed:.1?}]\n");
        if let Err(e) = fig.write_into(&out_dir) {
            eprintln!("failed to write {name} into {}: {e}", out_dir.display());
        }
        // A summary row named `*_gate_ok` is a hard gate: 0 fails the run.
        for (key, _) in fig.summary.iter().filter(|(k, v)| k.ends_with("_gate_ok") && *v == 0.0) {
            eprintln!("{name}: gate {key} FAILED");
            gates_failed = true;
        }
    }
    println!("results written to {}", out_dir.display());
    if gates_failed {
        std::process::exit(1);
    }
}
