//! Pins the trace exporters to the struct they export.
//!
//! JSONL and CSV render one column list (`ControlTrace::columns`), so a
//! CSV cell and its JSON field are the same value by construction, and
//! `tests/golden.rs` pins both exports' bytes. What construction cannot
//! see is a field added to `ControlTrace` and left out of that list; the
//! `Debug` derive sees every field, so it is checked against both
//! exports here.

use std::collections::BTreeSet;

use serde_json::Value;
use streamshed_engine::telemetry::{ControlTrace, LoopMode, MAX_TRACE_SHARDS};

/// Extracts the top-level field names from a struct's derived `Debug`
/// output (`Name { a: .., b: .. }`). The `Debug` derive reflects every
/// struct field, which makes it a dependency-free drift detector for the
/// hand-rolled exporters.
fn debug_field_names(dbg: &str) -> BTreeSet<String> {
    let open = dbg.find('{').expect("struct Debug output");
    let close = dbg.rfind('}').expect("struct Debug output");
    let body = &dbg[open + 1..close];
    let mut depth = 0usize;
    let mut names = BTreeSet::new();
    let mut token = String::new();
    for ch in body.chars() {
        match ch {
            '{' | '[' | '(' => {
                depth += 1;
                token.clear();
            }
            '}' | ']' | ')' => {
                depth -= 1;
                token.clear();
            }
            ':' if depth == 0 => {
                let name = token.trim();
                if !name.is_empty() {
                    names.insert(name.to_string());
                }
                token.clear();
            }
            ',' => token.clear(),
            c => token.push(c),
        }
    }
    names
}

/// Guards the hand-rolled exporters against `ControlTrace` drifting: the
/// `Debug` derive sees every struct field, so its field set must match
/// both the JSONL object keys and the CSV header columns (with
/// `shard_q0..7` standing in for the `shard_queues` array).
#[test]
fn csv_header_and_jsonl_cover_every_struct_field() {
    let t = ControlTrace {
        k: 7,
        time_s: 1.25,
        period_s: 1.0,
        offered: 10,
        admitted: 8,
        dropped_entry: 2,
        dropped_network: 1,
        completed: 6,
        outstanding: 3,
        queued_tuples: 4,
        queued_load_us: 500.0,
        measured_cost_us: 12.5,
        mean_delay_ms: 40.0,
        cpu_busy_us: 900,
        alpha: 0.25,
        shed_load_us: 0.0,
        y_hat_s: 0.04,
        error_s: -0.01,
        u_tps: 180.0,
        cost_est_us: 13.0,
        mode: LoopMode::Engaged,
        fault_flags: 0,
        hook_ns: 321,
        adapt_cost_us: 10_210.5,
        adapt_generation: 2,
        adapt_swaps: 3,
        adapt_arm: 1,
        shards: 0,
        shard_queues: [0; MAX_TRACE_SHARDS],
    }
    .with_shard_queues(&[5, 4, 3, 2, 1, 6, 7, 8]);

    let derived_keys = debug_field_names(&format!("{t:?}"));

    let jsonl: Value = serde_json::from_str(&t.to_jsonl()).expect("to_jsonl is valid JSON");
    let Value::Object(map) = &jsonl else { panic!("JSONL line is not an object") };
    let jsonl_keys: BTreeSet<String> = map.keys().cloned().collect();
    assert_eq!(
        derived_keys, jsonl_keys,
        "to_jsonl must export exactly the fields of ControlTrace — \
         update the exporter (and csv_header/to_csv_row) after changing the struct"
    );

    let header_keys: BTreeSet<String> = ControlTrace::csv_header()
        .split(',')
        .map(|c| {
            if c.starts_with("shard_q") { "shard_queues".to_string() } else { c.to_string() }
        })
        .collect();
    assert_eq!(
        header_keys, jsonl_keys,
        "csv_header must flatten exactly the fields of ControlTrace"
    );

    let flattened = ControlTrace::csv_header()
        .split(',')
        .filter(|c| c.starts_with("shard_q"))
        .count();
    assert_eq!(flattened, MAX_TRACE_SHARDS, "one CSV column per retained shard slot");
}
