//! `perfbench` command line. See the crate README.
//!
//! ```text
//! perfbench run    [--seed N] [--smoke]      every workload, end-to-end metrics
//! perfbench trace  [--seed N] [--smoke]      every workload traced + the ladder
//! perfbench repeat K [--seed N] [--smoke]    K runs of the suite, spread table
//! perfbench bench --workload W --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! `bench` runs one workload in this process and prints one JSON result
//! object as the last line of standard output; the other commands run
//! it in a fresh child process per workload, so `peak_rss_mb` is each
//! workload's own.

use perfbench::spec::{self, MetricSpec, END_TO_END, PER_LAYER, WORKLOADS};
use perfbench::stats::quartiles;
use perfbench::{ladder, trace, workloads, Outcome, Plan};
use serde_json::Value;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    traced: bool,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 7,
        seconds: spec::RUN_SECONDS,
        traced: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: &String| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => out.workload = Some(value()?.clone()),
            "--seed" => out.seed = number(value()?)?,
            "--seconds" => out.seconds = number(value()?)?,
            "--trace" => out.traced = number(value()?)? != 0,
            "--smoke" => out.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
}

/// nproc, kernel, compiler and a fixed serial RNG loop: enough to tell
/// two hosts (or one host on a bad day) apart when numbers disagree.
fn print_fingerprint() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| "unknown".into());
    let draws = 20_000_000u64;
    let t0 = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..draws {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    let calib = t0.elapsed().as_nanos() as f64 / draws as f64;
    println!(
        "# host: nproc={cores} kernel={} rustc=\"{rustc}\" calib_xorshift_ns_per_draw={calib:.4}",
        kernel.trim()
    );
}

fn print_e2e(out: &Outcome, unmeasured: bool, smoke: bool) {
    println!(
        "{:<26} {:>9} {:>6} {:>5}  {:>14} {:>14} {:>14} {:>6} {:>9}",
        "end-to-end metric", "unit", "better", "bound", "median", "q1", "q3", "slices", "samples"
    );
    for m in END_TO_END {
        let head = format!(
            "{:<26} {:>9} {:>6} {:>5}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound.expect("end-to-end metrics have bounds")
        );
        match out.e2e.get(m.name).filter(|_| !unmeasured) {
            Some(s) => println!(
                "{head}  {:>14.6} {:>14.6} {:>14.6} {:>6} {:>9}{}",
                s.median,
                s.q1,
                s.q3,
                s.slices,
                s.samples,
                if smoke { "  \"smoke\": true" } else { "" }
            ),
            None => println!("{head}  {:>14}", "\"unmeasured\""),
        }
    }
}

fn print_layer(layer: &BTreeMap<&'static str, f64>) {
    println!(
        "{:<44} {:>9} {:>6}  {:>16}",
        "per-layer metric", "unit", "better", "value"
    );
    for m in PER_LAYER {
        let value = layer
            .get(m.name)
            .map_or("n/a".to_string(), |v| format!("{v:.6}"));
        println!(
            "{:<44} {:>9} {:>6}  {value:>16}",
            m.name,
            m.unit,
            m.better.as_str()
        );
    }
}

fn result_line(out: &Outcome, specs: &[MetricSpec], value: impl Fn(&str) -> f64) -> String {
    let metrics: BTreeMap<String, Value> = specs
        .iter()
        .map(|m| {
            let entry = BTreeMap::from([
                ("value".to_string(), Value::Number(value(m.name))),
                ("unit".to_string(), Value::String(m.unit.to_string())),
            ]);
            (m.name.to_string(), Value::Object(entry))
        })
        .collect();
    let line = BTreeMap::from([
        ("correct".to_string(), Value::Bool(out.correct())),
        (
            "attempted".to_string(),
            Value::Number(out.attempted.max(1) as f64),
        ),
        (
            "failed".to_string(),
            Value::Number(if out.correct() {
                out.failed
            } else {
                out.attempted.max(1)
            } as f64),
        ),
        ("metrics".to_string(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&Value::Object(line)).expect("stand-in serializer does not fail")
}

/// How far tracing moved the workload's headline number, in percent of
/// the untraced value: goodput lost, simulator speed lost on
/// `sim_paper` (whose goodput is virtual), or reply RTT gained on
/// `net_steady` (where nothing is saturated).
fn trace_overhead_pct(workload: &str, untraced: &Outcome, traced: &Outcome) -> f64 {
    let (base, with, sign) = match workload {
        "sim_paper" => (
            untraced.layer["sim_tuples_per_s"],
            traced.layer["sim_tuples_per_s"],
            -1.0,
        ),
        "net_steady" => (
            untraced.layer["reply_rtt_p50_ms"],
            traced.layer["reply_rtt_p50_ms"],
            1.0,
        ),
        _ => (
            untraced.e2e["goodput_tps"].median,
            traced.e2e["goodput_tps"].median,
            -1.0,
        ),
    };
    sign * (with - base) / base * 100.0
}

/// The ladder gets this long per point in a full run.
const LADDER_POINT: Duration = Duration::from_millis(250);

fn bench(args: &Args) -> ExitCode {
    let Some(workload) = args
        .workload
        .as_deref()
        .filter(|w| WORKLOADS.iter().any(|known| known.0 == *w))
    else {
        eprintln!(
            "perfbench bench: --workload must be one of {:?}",
            WORKLOADS.map(|w| w.0)
        );
        return ExitCode::from(2);
    };
    print_fingerprint();
    let plan = Plan::for_seconds(args.seed, args.seconds, args.smoke);
    println!(
        "# workload {workload} seed {}: {} slices x {:.2} s after {:.1} s warm-up{}{}",
        args.seed,
        if args.traced { 4 } else { plan.slices },
        plan.slice.as_secs_f64(),
        plan.warmup.as_secs_f64(),
        if args.traced {
            " (traced, after a 2-slice untraced reference)"
        } else {
            ""
        },
        if args.smoke { " \"smoke\": true" } else { "" },
    );
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if workloads::is_wall_clock(workload) && cores < 2 {
        // A host that cannot exercise the code records "unmeasured",
        // not a pass: no result line, non-zero exit.
        print_e2e(&Outcome::default(), true, args.smoke);
        println!("# {cores} core: wall-clock metrics are unmeasured on this host");
        return ExitCode::from(3);
    }

    // Thread placement, so that runs repeat: this (driver) thread takes
    // the last core, and every thread the product spawns starts there
    // too; shard workers then re-pin themselves to cores 0.. (the
    // engines are configured with `pin_cores`). Left to the scheduler,
    // the spinning worker of `rt_overload_3x` shares a core with the
    // driver and listener in most runs and loses a quarter of its
    // goodput in them.
    streamshed_engine::affinity::pin_current_thread(cores - 1);
    let run = |plan: &Plan| workloads::run(workload, plan).expect("workload name was checked");
    let (mut out, line) = if args.traced {
        let reference = run(&Plan { slices: 2, ..plan });
        let mut out = run(&plan.traced());
        out.violations.extend(
            reference
                .violations
                .iter()
                .map(|v| format!("untraced reference: {v}")),
        );
        out.layer.insert(
            "trace.overhead_pct",
            trace_overhead_pct(workload, &reference, &out),
        );
        let point = if args.smoke {
            LADDER_POINT / 5
        } else {
            LADDER_POINT
        };
        out.layer.extend(ladder::run(point, args.seed));
        let failed_share = out.failed_share();
        out.layer.insert("failed_share", failed_share);
        match trace::write_jsonl(&trace::trace_dir(), workload, &out.spans) {
            Ok(path) => println!("# {} spans written to {}", out.spans.len(), path.display()),
            Err(e) => out.violations.push(format!("span file not written: {e}")),
        }
        print_e2e(&out, false, args.smoke);
        print_layer(&out.layer);
        // A per-layer metric this workload does not exercise reads 0.
        let line = result_line(&out, &PER_LAYER, |name| {
            out.layer.get(name).copied().unwrap_or(0.0)
        });
        (out, line)
    } else {
        let out = run(&plan);
        print_e2e(&out, false, args.smoke);
        println!(
            "# failed_share = {} ({} failed / {} attempted tuples)",
            out.failed_share(),
            out.failed,
            out.attempted
        );
        let line = result_line(&out, &END_TO_END, |name| out.e2e[name].median);
        (out, line)
    };
    for note in out.notes.drain(..) {
        println!("# {note}");
    }
    for v in &out.violations {
        println!("# CHECK FAILED: {v}");
    }
    println!("{line}");
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs `bench` for one workload in a child process; returns the parsed
/// result line, or `None` when the child printed none.
fn child(workload: &str, args: &Args, traced: bool, quiet: bool) -> (Option<Value>, bool) {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.args(["bench", "--workload", workload])
        .args([
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
        ])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().expect("child perfbench runs");
    let text = String::from_utf8_lossy(&output.stdout);
    let last = text.lines().last().unwrap_or("");
    let result = last
        .starts_with('{')
        .then(|| serde_json::from_str(last).ok())
        .flatten();
    if !quiet {
        // The tables are for people; the result line is for `bench` callers.
        let shown = if result.is_some() {
            text.rfind(last).unwrap_or(text.len())
        } else {
            text.len()
        };
        print!("{}", &text[..shown]);
    }
    (result, output.status.success())
}

fn suite(args: &Args, traced: bool) -> ExitCode {
    let mut ok = true;
    for (workload, why) in WORKLOADS {
        println!("\n== {workload}: {why}");
        let (result, success) = child(workload, args, traced, false);
        ok &= success && result.is_some();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        println!("\nperfbench: at least one workload failed its checks or went unmeasured");
        ExitCode::FAILURE
    }
}

fn repeat(runs: usize, args: &Args) -> ExitCode {
    let mut values: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    let mut ok = true;
    for run in 0..runs {
        for (workload, _) in WORKLOADS {
            eprintln!("repeat {}/{runs}: {workload}", run + 1);
            let (result, success) = child(workload, args, false, true);
            ok &= success;
            let Some(result) = result else { continue };
            for m in END_TO_END {
                if let Some(v) = result["metrics"][m.name]["value"].as_f64() {
                    values.entry((workload, m.name)).or_default().push(v);
                }
            }
        }
    }
    println!(
        "{:<15} {:<26} {:>9} {:>5} {:>14} {:>14} {:>14} {:>9} {:>9}",
        "workload", "metric", "unit", "bound", "median", "q1", "q3", "iqr/med", "range/med"
    );
    for (workload, _) in WORKLOADS {
        for m in END_TO_END {
            let Some(v) = values.get(&(workload, m.name)) else {
                continue;
            };
            let (q1, med, q3) = quartiles(v);
            let (min, max) = v
                .iter()
                .fold((f64::MAX, f64::MIN), |(a, b), &x| (a.min(x), b.max(x)));
            println!(
                "{workload:<15} {:<26} {:>9} {:>5} {med:>14.6} {q1:>14.6} {q3:>14.6} {:>9.4} {:>9.4}",
                m.name,
                m.unit,
                m.bound.expect("end-to-end metrics have bounds"),
                (q3 - q1) / med,
                (max - min) / med,
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: perfbench run|trace|repeat K|bench [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke]";
    let Some(command) = argv.first() else {
        eprintln!("{usage}");
        return ExitCode::from(2);
    };
    let (runs, rest) = match (
        command.as_str(),
        argv.get(1).and_then(|n| n.parse::<usize>().ok()),
    ) {
        ("repeat", Some(runs)) => (runs, &argv[2..]),
        _ => (1, &argv[1..]),
    };
    let args = match parse_args(rest) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{usage}");
            return ExitCode::from(2);
        }
    };
    match command.as_str() {
        "bench" => bench(&args),
        "run" => suite(&args, false),
        "trace" => suite(&args, true),
        "repeat" => repeat(runs, &args),
        _ => {
            eprintln!("{usage}");
            ExitCode::from(2)
        }
    }
}
