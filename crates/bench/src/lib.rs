//! Benchmark-only crate; the report and its gates live in `src/bin/bench.rs`.
