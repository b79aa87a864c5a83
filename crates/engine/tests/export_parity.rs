//! Property tests pinning the two trace exporters to each other.
//!
//! A [`ControlTrace`] must mean the same thing whether it was exported
//! as JSONL or CSV: every CSV cell has to parse to exactly the value of
//! the corresponding JSON field (modulo JSONL's NaN-as-null
//! convention), so floats round-trip through both; and both exporters
//! have to cover every struct field. The latter is enforced against the serde `Serialize`
//! derive, so adding a field to `ControlTrace` without teaching both
//! hand-rolled exporters about it fails here instead of silently
//! producing truncated exports.

use std::collections::BTreeSet;

use proptest::prelude::*;
use serde_json::Value;
use streamshed_engine::telemetry::{
    export_csv, export_jsonl, ControlTrace, LoopMode, MAX_TRACE_SHARDS,
};

/// A float field that may legitimately be "absent" (the exporters render
/// non-finite values as `null` in JSONL and via `Display` in CSV). The
/// arms are drawn uniformly, so non-finite values show up often.
fn sensor_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        (-1.0e6f64..1.0e6),
        (-1.0f64..1.0),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
    ]
}

fn arb_mode() -> impl Strategy<Value = LoopMode> {
    prop_oneof![
        Just(LoopMode::Direct),
        Just(LoopMode::Engaged),
        Just(LoopMode::Hold),
        Just(LoopMode::Fallback),
    ]
}

/// Generates a fully populated trace, including non-finite sensor
/// fields and shard counts both below and above [`MAX_TRACE_SHARDS`].
fn arb_trace() -> impl Strategy<Value = ControlTrace> {
    let loads = (
        (0u64..u64::from(u32::MAX)),                          // k
        (0.0f64..1.0e7),                                      // time_s
        (1.0e-3f64..10.0),                                    // period_s
        proptest::collection::vec(0u64..1_000_000u64, 8..=8), // counters
        (0.0f64..1.0e9),                                      // queued_load_us
        sensor_f64(),                                         // measured_cost_us
    );
    let signals = (
        sensor_f64(),    // mean_delay_ms
        (0.0f64..=1.0),  // alpha
        (0.0f64..1.0e9), // shed_load_us
        sensor_f64(),    // y_hat_s
        sensor_f64(),    // error_s
        sensor_f64(),    // u_tps
    );
    let rest = (
        sensor_f64(), // cost_est_us
        arb_mode(),
        (0u16..=u16::MAX),                                     // fault_flags
        (0u64..4_000_000_000),                                 // hook_ns
        proptest::collection::vec(0u64..1_000_000u64, 0..=12), // shard queues
    );
    let adapt = (
        sensor_f64(),         // adapt_cost_us
        (0u64..1_000),        // adapt_generation
        (0u64..1_000),        // adapt_swaps
        (-1i64..8),           // adapt_arm
    );
    (loads, signals, rest, adapt).prop_map(
        |(
            (k, time_s, period_s, counts, queued_load_us, measured_cost_us),
            (mean_delay_ms, alpha, shed_load_us, y_hat_s, error_s, u_tps),
            (cost_est_us, mode, fault_flags, hook_ns, queues),
            (adapt_cost_us, adapt_generation, adapt_swaps, adapt_arm),
        )| {
            let base = ControlTrace {
                k,
                time_s,
                period_s,
                offered: counts[0],
                admitted: counts[1],
                dropped_entry: counts[2],
                dropped_network: counts[3],
                completed: counts[4],
                outstanding: counts[5],
                queued_tuples: counts[6],
                queued_load_us,
                measured_cost_us,
                mean_delay_ms,
                cpu_busy_us: counts[7],
                alpha,
                shed_load_us,
                y_hat_s,
                error_s,
                u_tps,
                cost_est_us,
                mode,
                fault_flags,
                hook_ns,
                adapt_cost_us,
                adapt_generation,
                adapt_swaps,
                adapt_arm,
                shards: 0,
                shard_queues: [0; MAX_TRACE_SHARDS],
            };
            base.with_shard_queues(&queues)
        },
    )
}

/// Asserts one trace's CSV row agrees with its JSONL object, column by
/// column.
fn assert_row_parity(t: &ControlTrace, jsonl_line: &str, csv_row: &str) {
    let json: Value = serde_json::from_str(jsonl_line)
        .unwrap_or_else(|e| panic!("JSONL line is not valid JSON ({e}): {jsonl_line}"));
    let Value::Object(obj) = &json else {
        panic!("JSONL line is not an object: {jsonl_line}")
    };
    let cols: Vec<&str> = ControlTrace::csv_header().split(',').collect();
    let cells: Vec<&str> = csv_row.split(',').collect();
    assert_eq!(cells.len(), cols.len(), "CSV row width matches header");

    let Value::Array(shard_arr) = &obj["shard_queues"] else {
        panic!("shard_queues is not an array: {jsonl_line}")
    };
    assert_eq!(
        shard_arr.len(),
        (t.shards as usize).min(MAX_TRACE_SHARDS),
        "JSONL keeps exactly the populated shard slots"
    );

    for (col, cell) in cols.iter().zip(&cells) {
        if let Some(idx) = col.strip_prefix("shard_q") {
            // Flattened columns: slots past the true shard count are
            // implied 0 in JSONL and must be literal 0 in CSV.
            let i: usize = idx.parse().expect("shard_qN suffix");
            let from_json = shard_arr.get(i).and_then(Value::as_f64).unwrap_or(0.0);
            let from_csv: f64 = cell.parse().unwrap_or_else(|_| panic!("{col}: {cell}"));
            // Queue lengths are small integers, exactly representable.
            assert_eq!(from_csv, from_json, "column {col}");
            continue;
        }
        match &obj[*col] {
            Value::Null => {
                let f: f64 = cell.parse().unwrap_or_else(|_| panic!("{col}: {cell}"));
                assert!(!f.is_finite(), "column {col}: JSONL null but CSV {cell}");
            }
            Value::String(s) => assert_eq!(s, cell, "column {col}"),
            Value::Number(a) => {
                let b: f64 = cell.parse().unwrap_or_else(|_| panic!("{col}: {cell}"));
                assert!(*a == b, "column {col}: JSONL {a} vs CSV {b}");
            }
            other => panic!("column {col}: unexpected JSON value {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn jsonl_and_csv_exports_agree_field_by_field(t in arb_trace()) {
        assert_row_parity(&t, &t.to_jsonl(), &t.to_csv_row());
    }

    #[test]
    fn batch_exporters_agree_line_by_line(
        traces in proptest::collection::vec(arb_trace(), 0..8),
    ) {
        let jsonl = export_jsonl(&traces);
        let csv = export_csv(&traces);
        let jsonl_lines: Vec<&str> = jsonl.lines().collect();
        let csv_lines: Vec<&str> = csv.lines().collect();
        prop_assert_eq!(jsonl_lines.len(), traces.len());
        prop_assert_eq!(csv_lines.len(), traces.len() + 1, "CSV carries a header row");
        prop_assert_eq!(csv_lines[0], ControlTrace::csv_header());
        for (i, t) in traces.iter().enumerate() {
            assert_row_parity(t, jsonl_lines[i], csv_lines[i + 1]);
        }
    }
}

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
