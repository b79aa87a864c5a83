//! `BENCHMARK.json`, the names in `spec.rs` and what the program prints
//! are one set of names.

use perfbench::spec::{MetricSpec, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use serde_json::Value;
use std::collections::BTreeSet;
use std::process::Command;

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json is over 64 KiB");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn array<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match &v[key] {
        Value::Array(items) => items,
        other => panic!("{key} is not an array: {other:?}"),
    }
}

fn keys(v: &Value) -> Vec<&str> {
    match v {
        Value::Object(map) => map.keys().map(String::as_str).collect(),
        other => panic!("not an object: {other:?}"),
    }
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn assert_metrics_match(declared: &[Value], specs: &[MetricSpec], with_bound: bool) {
    assert_eq!(declared.len(), specs.len());
    for (d, s) in declared.iter().zip(specs) {
        let want_keys: &[&str] = if with_bound {
            &["better", "bound", "name", "unit"]
        } else {
            &["better", "name", "unit"]
        };
        assert_eq!(keys(d), want_keys, "{}", s.name);
        assert_eq!(d["name"].as_str(), Some(s.name));
        assert_eq!(d["unit"].as_str(), Some(s.unit), "{}", s.name);
        assert_eq!(d["better"].as_str(), Some(s.better.as_str()), "{}", s.name);
        assert!(valid_name(s.name), "{}", s.name);
        assert!(valid_unit(s.unit), "{}: unit {}", s.name, s.unit);
        if with_bound {
            let bound = d["bound"].as_f64().expect("bound is a number");
            assert_eq!(Some(bound), s.bound, "{}", s.name);
            assert!((0.0..=0.25).contains(&bound), "{}: bound {bound}", s.name);
        }
    }
}

#[test]
fn benchmark_json_declares_exactly_the_specified_names() {
    let m = manifest();
    assert_eq!(
        keys(&m),
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    assert_eq!(m["run_seconds"].as_f64(), Some(RUN_SECONDS as f64));
    assert!((1..=60).contains(&RUN_SECONDS));
    assert_eq!(
        array(&m, "paths")
            .iter()
            .map(|p| p.as_str())
            .collect::<Vec<_>>(),
        [Some("crates/perfbench")]
    );

    let workloads = array(&m, "workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (d, (name, why)) in workloads.iter().zip(WORKLOADS) {
        assert_eq!(keys(d), ["name", "why"]);
        assert_eq!(d["name"].as_str(), Some(name));
        assert_eq!(d["why"].as_str(), Some(why));
        assert!(valid_name(name));
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "{name}: why is {} chars",
            why.len()
        );
    }

    assert_metrics_match(array(&m, "end_to_end"), &END_TO_END, true);
    assert_metrics_match(array(&m, "per_layer"), &PER_LAYER, false);
    let setup = END_TO_END
        .iter()
        .find(|s| s.name == "setup_s")
        .expect("setup_s is declared");
    assert_eq!((setup.unit, setup.better.as_str()), ("s", "lower"));
    let largest = END_TO_END
        .iter()
        .filter_map(|s| s.bound)
        .fold(0.0, f64::max);
    assert_eq!(
        setup.bound,
        Some(largest),
        "setup_s carries the largest bound"
    );

    let mut all = BTreeSet::new();
    for name in WORKLOADS
        .iter()
        .map(|w| w.0)
        .chain(END_TO_END.iter().chain(&PER_LAYER).map(|s| s.name))
    {
        assert!(all.insert(name), "{name} is used twice");
    }

    let command: Vec<&str> = array(&m, "command")
        .iter()
        .filter_map(|c| c.as_str())
        .collect();
    assert!(command.len() <= 32 && command.iter().all(|c| c.len() <= 200));
    assert!(command
        .iter()
        .all(|c| !c.starts_with('/') && !c.contains("..")));
}

/// Runs `perfbench bench` on `workload` in smoke sizing and returns the
/// metric names of its result line, or `None` where the host has fewer
/// than two cores and the run is reported unmeasured.
fn printed_names(workload: &str, traced: bool) -> Option<BTreeSet<String>> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "bench",
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--smoke",
        ])
        .args(["--trace", if traced { "1" } else { "0" }])
        .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    if out.status.code() == Some(3) {
        assert!(stdout.contains("\"unmeasured\""), "{stdout}");
        return None;
    }
    assert!(
        out.status.success(),
        "{workload}: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let result = serde_json::from_str(stdout.lines().last().expect("a result line")).expect("JSON");
    assert_eq!(keys(&result), ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(result["correct"], Value::Bool(true));
    assert!(result["attempted"].as_f64().expect("attempted") >= 1.0);
    for (name, metric) in match &result["metrics"] {
        Value::Object(map) => map,
        other => panic!("metrics is not an object: {other:?}"),
    } {
        assert_eq!(keys(metric), ["unit", "value"], "{name}");
        // Every printed metric also appears by name in the table above
        // the result line.
        assert!(
            stdout.contains(name.as_str()),
            "{name} missing from the table"
        );
    }
    Some(
        keys(&result["metrics"])
            .into_iter()
            .map(str::to_string)
            .collect(),
    )
}

fn declared(specs: &[MetricSpec]) -> BTreeSet<String> {
    specs.iter().map(|s| s.name.to_string()).collect()
}

#[test]
fn every_workload_prints_exactly_the_end_to_end_names() {
    for (workload, _) in WORKLOADS {
        if let Some(names) = printed_names(workload, false) {
            assert_eq!(names, declared(&END_TO_END), "{workload}");
        }
    }
}

#[test]
fn a_traced_run_prints_exactly_the_per_layer_names_and_writes_its_spans() {
    let names = printed_names("sim_paper", true).expect("sim_paper needs one core");
    assert_eq!(names, declared(&PER_LAYER));
    let spans = concat!(
        env!("CARGO_TARGET_TMPDIR"),
        "/perfbench/trace-sim_paper.jsonl"
    );
    let text = std::fs::read_to_string(spans).expect("span file");
    let first =
        serde_json::from_str(text.lines().next().expect("at least one span")).expect("JSON");
    assert_eq!(first["name"].as_str(), Some("sim.run"));
    assert!(first["end_ns"].as_f64() >= first["start_ns"].as_f64());
}
