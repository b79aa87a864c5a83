//! # streamshed-experiments
//!
//! The reproduction harness: one module per figure of the paper's
//! evaluation (§4.2 identification and §5). Each module exposes a
//! `run(...) -> FigureResult` that regenerates the figure's data; the
//! `reproduce` binary drives them all, writes CSV files, and prints
//! ASCII renderings plus paper-vs-measured summaries.
//!
//! | module | paper figure |
//! |--------|--------------|
//! | [`fig05`] | step responses of the raw engine |
//! | [`fig06`] | model verification, step inputs, H ∈ {0.95, 0.97, 1.00} |
//! | [`fig07`] | model verification, sinusoidal inputs |
//! | [`fig08`] | open-loop failure examples 1–3 (analytic) |
//! | [`fig12`] | long-term totals: CTRL vs BASELINE vs AURORA |
//! | [`fig13`] | arrival-rate traces (Web-like, Pareto) |
//! | [`fig14`] | time-varying per-tuple cost trace |
//! | [`fig15`] | transient y(k) of the three strategies |
//! | [`fig16`] | AURORA retuned with H = 0.96 |
//! | [`fig17`] | burstiness (bias-factor) sweep |
//! | [`fig18`] | runtime target changes 1 s → 3 s → 5 s |
//! | [`fig19`] | control-period sweep 31.25 ms – 8 s |
//! | [`overhead`] | §5.1 controller computational overhead |
//!
//! Beyond the paper's figures, [`faults`] reads the robustness fault
//! matrix out of the campaign's single-shard identification-network
//! cells, [`trace`] replays any campaign cell with every shard's
//! control-loop trace kept (`reproduce trace --cell <key>`), and
//! [`sharded`] demonstrates delay convergence on the wall-clock sharded
//! data plane (`reproduce sharded`; excluded from `all` because it is
//! wall-clock rather than virtual-time), and [`monitor`] exercises the
//! live observability plane — the sharded engine under injected
//! oscillation/saturation faults while the experiment polls the
//! engine's own `/metrics`, `/health` and `/trace` endpoints
//! (`reproduce monitor`; wall-clock, likewise excluded from `all`).
//! [`campaign`] is the deterministic scenario-campaign harness: seeded
//! grid sweeps over workload × fault × topology × shards × controller
//! with an invariant library and sanity/stress CI lanes
//! (`reproduce campaign --lane sanity`).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod ablations;
pub mod campaign;
pub mod faults;
pub mod fig05;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod monitor;
pub mod net;
pub mod overhead;
pub mod parallel;
pub mod render;
pub mod runner;
pub mod sharded;
pub mod trace;

pub use render::{render_ascii_chart, render_table};
pub use runner::{
    run_with_strategy, MetricsSummary, StrategyKind, StrategyOutcome,
};

use std::io::Write as _;
use std::path::Path;

/// A named data series (x = seconds or a sweep parameter).
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// `(x, y)` points; `NaN` y-values mark gaps.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates a series from points.
    pub fn new(name: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Self {
            name: name.into(),
            points,
        }
    }

    /// Creates a series from y-values at x = 0, 1, 2, ...
    pub fn from_values(name: impl Into<String>, values: &[f64]) -> Self {
        Self::new(
            name,
            values
                .iter()
                .enumerate()
                .map(|(i, &v)| (i as f64, v))
                .collect(),
        )
    }
}

/// The regenerated data of one paper figure.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureResult {
    /// Figure identifier, e.g. `"fig12"`.
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// Data series.
    pub series: Vec<Series>,
    /// Key scalar outcomes `(name, value)` — the numbers the paper quotes.
    pub summary: Vec<(String, f64)>,
    /// Free-form observations (paper-vs-measured shape checks).
    pub notes: Vec<String>,
}

impl FigureResult {
    /// Serialises every series into one long-format CSV
    /// (`series,x,y` rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("series,x,y\n");
        for s in &self.series {
            for &(x, y) in &s.points {
                out.push_str(&format!("{},{x},{y}\n", s.name));
            }
        }
        out
    }

    /// Writes the CSV (and a JSON summary) into `dir`.
    pub fn write_into(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut csv = std::fs::File::create(dir.join(format!("{}.csv", self.id)))?;
        csv.write_all(self.to_csv().as_bytes())?;
        let mut json = std::fs::File::create(dir.join(format!("{}.json", self.id)))?;
        let summary = serde_json::json!({
            "id": self.id,
            "title": self.title,
            "summary": self.summary,
            "notes": self.notes,
        });
        json.write_all(serde_json::to_string_pretty(&summary).unwrap().as_bytes())?;
        Ok(())
    }

    /// Renders the figure as an ASCII chart plus its summary lines.
    pub fn render(&self) -> String {
        let mut out = format!("== {} — {} ==\n", self.id, self.title);
        out.push_str(&render::render_ascii_chart(
            &self.series,
            &self.x_label,
            &self.y_label,
            72,
            16,
        ));
        if !self.summary.is_empty() {
            out.push('\n');
            for (name, value) in &self.summary {
                out.push_str(&format!("  {name}: {value:.4}\n"));
            }
        }
        for note in &self.notes {
            out.push_str(&format!("  note: {note}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_from_values_indexes_x() {
        let s = Series::from_values("a", &[10.0, 20.0]);
        assert_eq!(s.points, vec![(0.0, 10.0), (1.0, 20.0)]);
    }

    #[test]
    fn csv_round_trips_points() {
        let fig = FigureResult {
            id: "figX".into(),
            title: "t".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            series: vec![Series::new("s", vec![(0.0, 1.5), (1.0, 2.5)])],
            summary: vec![],
            notes: vec![],
        };
        let csv = fig.to_csv();
        assert!(csv.starts_with("series,x,y\n"));
        assert!(csv.contains("s,0,1.5\n"));
        assert!(csv.contains("s,1,2.5\n"));
    }

    #[test]
    fn write_into_creates_files() {
        let dir = std::env::temp_dir().join("streamshed_figtest");
        let _ = std::fs::remove_dir_all(&dir);
        let fig = FigureResult {
            id: "figY".into(),
            title: "t".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            series: vec![],
            summary: vec![("metric".into(), 1.0)],
            notes: vec!["shape holds".into()],
        };
        fig.write_into(&dir).unwrap();
        assert!(dir.join("figY.csv").exists());
        assert!(dir.join("figY.json").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
