//! `sim_paper` — the paper's own experiment in virtual time.
//!
//! Fig. 12's set-up (14-operator identification network, 400 s,
//! `yd = 2 s`, `T = 1 s`, Fig. 14 cost trace) for CTRL, BASELINE and
//! AURORA on Web-like and Pareto traces of 16 seeds derived from the run
//! seed. Traces are generated in set-up; the fixed batch of runs is then
//! repeated for the measured window. Ring, shard, net and span code does
//! no work here, so a change there must leave every number flat.
//!
//! The end-to-end values are read in *virtual* time off the first
//! repetition — tuples per simulated second, delay percentiles of the
//! controlled signal, simulated CPU per tuple — so they are
//! deterministic for a seed: a "speed-up" that changes control behaviour
//! shows as a changed value, not as noise. How fast the simulator itself
//! runs (`sim_tuples_per_s`, what `reproduce` and `campaign` users wait
//! on) swings by a third between minutes on the builder's shared host
//! and is therefore a per-layer number, measured over every repetition.

use crate::stats::{self, SliceStat};
use crate::trace::{Span, SpanSink};
use crate::workloads::track_err_ms;
use crate::{mix, Outcome, Plan};
use std::time::Instant;
use streamshed_control::loop_::LoopConfig;
use streamshed_engine::telemetry::ControlTrace;
use streamshed_experiments::fig12::{traces, BASE_COST_MS, DURATION_S};
use streamshed_experiments::runner::{run_with_strategy, StrategyKind, StrategyOutcome};
use streamshed_workload::CostTrace;

/// Trace seeds per batch (a quarter of them under `--smoke`).
const TRACE_SEEDS: u64 = 16;
/// Repetitions a full run makes at least, however slow the host.
const MIN_REPS: usize = 5;

const STRATEGIES: [StrategyKind; 3] = [
    StrategyKind::Ctrl,
    StrategyKind::Baseline,
    StrategyKind::Aurora,
];

/// One generated input: a trace seed and its Web-like and Pareto traces.
struct Input {
    seed: u64,
    traces: Vec<(&'static str, Vec<f64>)>,
}

fn generate(plan: &Plan) -> Vec<Input> {
    let seeds = if plan.smoke {
        TRACE_SEEDS / 4
    } else {
        TRACE_SEEDS
    };
    (0..seeds)
        .map(|i| {
            let seed = mix(plan.seed, i);
            Input {
                seed,
                traces: traces(seed),
            }
        })
        .collect()
}

/// What one repetition of the batch measured.
struct Rep {
    wall_s: f64,
    /// Wall time of each `run_with_strategy` call, ms, sorted.
    run_ms: Vec<f64>,
    outcomes: Vec<StrategyOutcome>,
}

fn run_batch(inputs: &[Input], cfg: &LoopConfig, sink: Option<&SpanSink>) -> Rep {
    let mut rep = Rep {
        wall_s: 0.0,
        run_ms: Vec::new(),
        outcomes: Vec::new(),
    };
    let batch_t0 = Instant::now();
    for (i, input) in inputs.iter().enumerate() {
        let cost = CostTrace::paper_fig14(BASE_COST_MS, input.seed ^ 0xC057);
        for (trace_name, times) in &input.traces {
            for kind in STRATEGIES {
                let t0 = Instant::now();
                let out =
                    run_with_strategy(kind, times, cfg, DURATION_S, Some(&cost), None, input.seed);
                let t1 = Instant::now();
                rep.run_ms.push((t1 - t0).as_secs_f64() * 1e3);
                if let Some(sink) = sink {
                    sink.push(Span {
                        name: "sim.run",
                        start_ns: sink.ns(t0),
                        end_ns: sink.ns(t1),
                        parent: None,
                        frame: Some(format!("{trace_name}:{i}:{}", out.name)),
                        attrs: String::new(),
                    });
                }
                rep.outcomes.push(out);
            }
        }
    }
    rep.wall_s = batch_t0.elapsed().as_secs_f64();
    rep.run_ms
        .sort_by(|a, b| a.partial_cmp(b).expect("wall times are not NaN"));
    rep
}

/// Wall seconds and sorted per-run wall ms of one repetition.
type RepTimes = (f64, Vec<f64>);

/// The deterministic totals of a batch.
#[derive(Debug, Default, PartialEq)]
struct Totals {
    offered: u64,
    completed: u64,
    dropped: u64,
    /// Simulated operator CPU, µs.
    cpu_busy_us: u64,
    /// CTRL runs only.
    ctrl_violation_ms: f64,
    ctrl_completed: u64,
    ctrl_dropped: u64,
    ctrl_offered: u64,
}

impl Totals {
    fn of(outcomes: &[StrategyOutcome]) -> Self {
        let mut t = Totals::default();
        for o in outcomes {
            let r = &o.report;
            let dropped = r.dropped_entry + r.dropped_network;
            t.offered += r.offered;
            t.completed += r.completed;
            t.dropped += dropped;
            t.cpu_busy_us += o.traces.iter().map(|p| p.cpu_busy_us).sum::<u64>();
            if o.name == "CTRL" {
                t.ctrl_violation_ms += r.accumulated_violation_ms;
                t.ctrl_completed += r.completed;
                t.ctrl_dropped += dropped;
                t.ctrl_offered += r.offered;
            }
        }
        t
    }
}

/// The control periods of the CTRL runs that saw a departure, sorted by
/// `y(k)`, the mean delay of the tuples that departed in the period —
/// the signal the controller holds at the target.
fn ctrl_periods(outcomes: &[StrategyOutcome]) -> Vec<&ControlTrace> {
    let mut periods: Vec<&ControlTrace> = outcomes
        .iter()
        .filter(|o| o.name == "CTRL")
        .flat_map(|o| o.traces.iter())
        .filter(|t| t.mean_delay_ms.is_finite())
        .collect();
    periods.sort_by(|a, b| {
        a.mean_delay_ms
            .partial_cmp(&b.mean_delay_ms)
            .expect("finite")
    });
    periods
}

/// Element at quantile `q` of a sorted, non-empty slice.
fn at_quantile<T: Copy>(sorted: &[T], q: f64) -> T {
    sorted[((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1]
}

/// Runs the workload.
pub fn run(plan: &Plan) -> Outcome {
    let mut out = Outcome::default();
    let cfg = LoopConfig::paper_default();

    let (inputs, setup_s) = crate::timed_set_up(|| generate(plan));

    let sink = plan.traced.then(SpanSink::default);
    let min_reps = if plan.smoke || plan.traced {
        2
    } else {
        MIN_REPS
    };
    let window_t0 = Instant::now();
    let first = run_batch(&inputs, &cfg, sink.as_ref());
    let totals = Totals::of(&first.outcomes);
    let mut reps: Vec<RepTimes> = vec![(first.wall_s, first.run_ms.clone())];
    while reps.len() < min_reps || window_t0.elapsed() < plan.window() {
        let rep = run_batch(&inputs, &cfg, sink.as_ref());
        out.check(Totals::of(&rep.outcomes) == totals, || {
            "same-seed repetitions disagree on the deterministic totals".into()
        });
        reps.push((rep.wall_s, rep.run_ms));
    }

    for o in &first.outcomes {
        out.check(o.report.counters_balance(), || {
            format!(
                "{} run does not conserve tuples: residual {}",
                o.name,
                o.report.conservation_residual()
            )
        });
    }
    out.attempted = totals.offered * reps.len() as u64;
    out.failed = 0;

    let runs = first.outcomes.len();
    let sim_s = (runs as u64 * DURATION_S) as f64;
    let periods = ctrl_periods(&first.outcomes);
    let y = |q: f64| at_quantile(&periods, q).mean_delay_ms;
    let once = SliceStat::single;
    out.e2e.insert("setup_s", setup_s);
    out.e2e
        .insert("peak_rss_mb", once(stats::peak_rss_mib(), 1));
    out.e2e.insert(
        "ingest_tps",
        once(totals.offered as f64 / sim_s, totals.offered),
    );
    out.e2e.insert(
        "goodput_tps",
        once(totals.completed as f64 / sim_s, totals.completed),
    );
    out.e2e
        .insert("delay_p50_ms", once(y(0.5), periods.len() as u64));
    out.e2e
        .insert("delay_p90_ms", once(y(0.9), periods.len() as u64));
    out.e2e.insert(
        "server_cpu_ns_per_tuple",
        once(
            totals.cpu_busy_us as f64 * 1e3 / totals.completed.max(1) as f64,
            totals.completed,
        ),
    );

    let per_rep = |f: &dyn Fn(&RepTimes) -> f64| -> f64 {
        stats::median(&reps.iter().map(f).collect::<Vec<_>>())
    };
    out.layer.insert(
        "sim_tuples_per_s",
        per_rep(&|(wall_s, _)| totals.offered as f64 / wall_s),
    );
    out.layer
        .insert("reply_rtt_p50_ms", per_rep(&|(_, ms)| at_quantile(ms, 0.5)));
    out.layer
        .insert("reply_rtt_p90_ms", per_rep(&|(_, ms)| at_quantile(ms, 0.9)));
    out.layer.insert(
        "sim_violation_ms_per_tuple",
        totals.ctrl_violation_ms / totals.ctrl_completed.max(1) as f64,
    );
    out.layer.insert(
        "sim_loss_ratio",
        totals.ctrl_dropped as f64 / totals.ctrl_offered.max(1) as f64,
    );
    out.layer.insert(
        "core.track_err_ms",
        track_err_ms(periods.iter().copied(), cfg.target_delay_ms),
    );
    out.layer.insert(
        "engine.shard.shed_share",
        totals.dropped as f64 / totals.offered.max(1) as f64,
    );
    out.notes.push(format!(
        "{} repetitions of {runs} runs ({} trace seeds x Web,Pareto x CTRL,BASELINE,AURORA); \
         sim_tuples_per_s = {:.0} (wall clock, median over repetitions)",
        reps.len(),
        inputs.len(),
        out.layer["sim_tuples_per_s"],
    ));
    if let Some(sink) = sink {
        out.spans = sink.take();
    }
    out
}
