//! Golden outputs of the exporters: each renders fixed synthetic inputs
//! and must match its file under `tests/golden/` byte for byte.
//!
//! The inputs cover the cases the exporters special-case: NaN and ±inf
//! floats, 3 and 10 shards (more than [`MAX_TRACE_SHARDS`]), every health
//! state, and span histograms on two slots.
//! A deliberate change to an output format edits its golden file in the
//! same commit, so the diff shows exactly which bytes moved.

use std::time::Duration;
use streamshed_engine::telemetry::{
    export_csv, export_jsonl, ControlState, ControlTrace, LoopMode, PromText,
    FLAG_COST_SPIKE, FLAG_SENSOR_DROPOUT, MAX_TRACE_SHARDS,
};
use streamshed_engine::{
    millis, secs, ControllerHealth, Decision, DiagnosticsConfig, HealthState, PeriodSnapshot,
    SimTime, SpanRegistry, Stage,
};

/// Compares `actual` with the golden file `name`, naming the first line
/// that differs.
fn assert_golden(name: &str, actual: &str) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    if want == actual {
        return;
    }
    let (mut w, mut a) = (want.lines(), actual.lines());
    for line in 1.. {
        match (w.next(), a.next()) {
            (Some(x), Some(y)) if x == y => continue,
            (x, y) => panic!("{name} differs at line {line}:\n  want {x:?}\n  got  {y:?}"),
        }
    }
}

fn snap(k: u64) -> PeriodSnapshot {
    PeriodSnapshot {
        k,
        now: SimTime::ZERO + millis(250 * (k + 1)),
        period: millis(250),
        offered: 1_000 + 7 * k,
        admitted: 800 + 3 * k,
        dropped_entry: 200 + 4 * k,
        dropped_network: k % 3,
        completed: 790 + k,
        outstanding: 41 + 2 * k,
        queued_tuples: 40 + 2 * k,
        queued_load_us: 20_500.25 * (k + 1) as f64,
        measured_cost_us: Some(500.0 + 0.1 * k as f64),
        mean_delay_ms: Some(249.75 - 0.3 * k as f64),
        cpu_busy_us: 240_000 + k,
    }
}

/// Four periods: a plain one with no sensor readings, a 3-shard one with
/// infinite signals, a 10-shard fallback period judged diverging, and a
/// held period under two fault flags with every float non-finite.
fn traces() -> Vec<ControlTrace> {
    let mut quiet = snap(0);
    quiet.measured_cost_us = None;
    quiet.mean_delay_ms = None;
    let plain = ControlTrace::capture(&quiet, &Decision::NONE, None, 812);

    let state = ControlState {
        y_hat_s: f64::INFINITY,
        error_s: f64::NEG_INFINITY,
        u_tps: f64::NAN,
        cost_est_us: 512.125,
        mode: LoopMode::Engaged,
        fault_flags: 0,
        target_delay_s: f64::NAN,
    };
    let three = ControlTrace::capture(
        &snap(1),
        &Decision::entry(0.123456789123),
        Some(&state),
        4_096,
    )
    .with_shard_queues(&[4, 0, 11]);

    let state = ControlState {
        y_hat_s: 0.3125,
        error_s: -0.0625,
        u_tps: -1_234.5,
        cost_est_us: 499.9,
        mode: LoopMode::Fallback,
        fault_flags: 0,
        target_delay_s: f64::NAN,
    };
    let ten_queues: Vec<u64> = (0..10).map(|i| 100 * i + 7).collect();
    assert!(ten_queues.len() > MAX_TRACE_SHARDS);
    let mut ten = ControlTrace::capture(&snap(2), &Decision::entry(1.0), Some(&state), 0)
        .with_shard_queues(&ten_queues);
    ten.shed_load_us = 1e-7;
    ten.health = HealthState::Diverging;

    let state = ControlState {
        y_hat_s: f64::NAN,
        error_s: f64::NAN,
        u_tps: f64::INFINITY,
        cost_est_us: f64::NEG_INFINITY,
        mode: LoopMode::Hold,
        fault_flags: FLAG_SENSOR_DROPOUT | FLAG_COST_SPIKE,
        target_delay_s: f64::NAN,
    };
    let mut held = ControlTrace::capture(&snap(3), &Decision::entry(0.5), Some(&state), 77)
        .with_shard_queues(&[1, 2, 3]);
    held.time_s = f64::INFINITY;
    held.queued_load_us = f64::NEG_INFINITY;
    held.measured_cost_us = f64::NAN;
    held.mean_delay_ms = f64::INFINITY;
    vec![plain, three, ten, held]
}

#[test]
fn trace_exports_match_golden() {
    let traces = traces();
    assert_golden("trace.jsonl", &export_jsonl(&traces));
    assert_golden("trace.csv", &export_csv(&traces));
    assert_golden("trace_empty.csv", &export_csv(&[]));
}

/// One trace of the diagnostics walk: a chosen delay estimate and α.
fn diag_trace(k: u64, y_s: f64, alpha: f64) -> ControlTrace {
    let mut s = snap(k);
    s.period = secs(1);
    s.mean_delay_ms = Some(y_s * 1e3);
    let mut t = ControlTrace::capture(&s, &Decision::entry(alpha), None, 500);
    t.y_hat_s = y_s;
    t.error_s = 2.0 - y_s;
    t
}

/// Drives a 2 s-target health engine through every state in ordinal
/// order: healthy, a settling excursion, a bang-bang oscillation, a
/// pinned saturation and a divergence, with supervisor modes and fault
/// flags along the way. Returns the JSON before the
/// first period and after every phase, and the final exposition.
fn diagnostics_walk() -> (String, String) {
    let mut h = ControllerHealth::new(DiagnosticsConfig::for_target(Duration::from_secs(2)));
    let mut json = h.snapshot().to_json();
    json.push('\n');
    let mut k = 0u64;
    let mut seen = [false; 5];
    let mut step = |h: &mut ControllerHealth, t: ControlTrace| {
        h.observe(&t);
        seen[h.state().ordinal() as usize] = true;
    };
    let phase = |h: &mut ControllerHealth, json: &mut String| {
        json.push_str(&h.snapshot().to_json());
        json.push('\n');
    };
    // Healthy, with one engaged and one held period.
    for i in 0..6 {
        let mut t = diag_trace(k, 2.0 + 0.01 * i as f64, 0.3);
        t.mode = if i == 4 {
            LoopMode::Hold
        } else {
            LoopMode::Engaged
        };
        step(&mut h, t);
        k += 1;
    }
    phase(&mut h, &mut json);
    // A 3-period excursion peaking at 2x the target, then settled.
    for y in [4.0, 3.2, 2.8, 2.0, 2.0] {
        step(&mut h, diag_trace(k, y, 0.5));
        k += 1;
    }
    phase(&mut h, &mut json);
    // Bang-bang actuation near the target, one period under a fault.
    for i in 0..8 {
        let mut t = diag_trace(k, 2.1, if i % 2 == 0 { 1.0 } else { 0.0 });
        if i == 3 {
            t.fault_flags = FLAG_COST_SPIKE;
        }
        step(&mut h, t);
        k += 1;
    }
    phase(&mut h, &mut json);
    // Settled and steady again.
    for _ in 0..16 {
        step(&mut h, diag_trace(k, 2.0, 0.4));
        k += 1;
    }
    phase(&mut h, &mut json);
    // α pinned at 1 while the delay violates: saturated.
    for _ in 0..4 {
        let mut t = diag_trace(k, 4.0, 1.0);
        t.mode = LoopMode::Fallback;
        step(&mut h, t);
        k += 1;
    }
    phase(&mut h, &mut json);
    // Stuck at 3x the target with α mid-range: diverging.
    for _ in 0..14 {
        step(&mut h, diag_trace(k, 6.0, 0.5));
        k += 1;
    }
    phase(&mut h, &mut json);
    assert_eq!(seen, [true; 5], "the walk must visit every health state");
    assert_eq!(h.state(), HealthState::Diverging);
    let mut p = PromText::new("streamshed");
    h.snapshot().render_prom(&mut p);
    (json, p.finish())
}

#[test]
fn diagnostics_match_golden() {
    let (json, prom) = diagnostics_walk();
    assert_golden("diagnostics.jsonl", &json);
    assert_golden("diagnostics.prom", &prom);
}

#[test]
fn profile_matches_golden() {
    let reg = SpanRegistry::new();
    let shard = reg.handle("0");
    let net = reg.frame_handle("net0");
    for i in 1..=120u64 {
        shard.record(Stage::Execute, i * 9_000);
        shard.record(Stage::RingWait, i * 250_000);
        shard.record_sojourn(i * 2_000_000);
        net.record(Stage::Decode, 300 + i);
        net.record_sojourn(40_000 + 100 * i);
    }
    shard.record_n(Stage::Admission, 150, 64);
    let snap = reg.snapshot();
    let mut json = snap.to_json();
    json.push('\n');
    assert_golden("profile.json", &json);
    let mut p = PromText::new("streamshed");
    snap.render_prom(&mut p);
    assert_golden("spans.prom", &p.finish());
}
