//! Robustness extension: the fault-injection matrix.
//!
//! The paper evaluates CTRL under hostile *workloads*; this figure
//! evaluates it under hostile *loop conditions* — broken sensors,
//! corrupted cost measurements, misbehaving actuators, operator stalls,
//! period jitter, and flash floods — and shows what the supervisory layer
//! ([`Supervisor`](streamshed_control::supervisor::Supervisor)) buys.
//!
//! The figure is a read-out of the campaign: for every fault in
//! [`campaign::FAULTS`] it runs the cells
//! `poisson+<fault>+ident+1shard+{nosup,paper}` — bare CTRL and CTRL
//! wrapped in the supervisor, both behind the *same* seeded fault plan —
//! so `reproduce campaign --filter <key> --seed <seed>` and
//! `reproduce trace --cell <key> --seed <seed>` replay any point of it.
//! The headline metric is the accumulated delay violation Σ(y − yd)⁺: for
//! fault classes that blind the virtual-queue estimator (stale `q(k)`,
//! sensor dropout, cost collapse) the bare loop admits far over capacity
//! and the violation explodes, while the supervisor, acting on the loop's
//! `Diverging` verdict, falls back to open-loop capacity matching and
//! keeps it bounded.

use crate::campaign::{self, CellSpec, ShardRunStats};
use crate::{FigureResult, Series};
use streamshed_workload::WorkloadKind;

/// The single shard of the `poisson+<fault>+ident+1shard+<control>` cell.
fn cell(fault: &'static str, control: &'static str, seed: u64) -> ShardRunStats {
    let spec =
        CellSpec { workload: WorkloadKind::Poisson, fault, topo: "ident", shards: 1, control };
    campaign::run_cell(&spec, seed, false).remove(0)
}

fn loss(s: &ShardRunStats) -> f64 {
    (s.dropped_entry + s.dropped_network) as f64 / s.offered.max(1) as f64
}

/// Runs the fault matrix.
pub fn run(seed: u64) -> FigureResult {
    let mut series_ctrl = Vec::new();
    let mut series_sup = Vec::new();
    let mut summary = Vec::new();
    let mut notes = vec![
        "scenario indices: ".to_string() + &campaign::FAULTS.join(", "),
        format!(
            "violation metric: accumulated Σ(y − yd)⁺ in tuple-seconds over the \
             campaign's {} s, {}× Poisson overload of the identification network \
             (cells poisson+<fault>+ident+1shard+{{nosup,paper}})",
            campaign::DURATION_S,
            campaign::OVERLOAD
        ),
    ];

    for (i, &key) in campaign::FAULTS.iter().enumerate() {
        let ctrl = cell(key, "nosup", seed);
        let sup = cell(key, "paper", seed);
        let (v_ctrl, v_sup) = (ctrl.violation_s, sup.violation_s);
        series_ctrl.push((i as f64, v_ctrl));
        series_sup.push((i as f64, v_sup));
        summary.push((format!("{key}/CTRL:violation_s"), v_ctrl));
        summary.push((format!("{key}/SUP:violation_s"), v_sup));
        summary.push((format!("{key}/CTRL:loss"), loss(&ctrl)));
        summary.push((format!("{key}/SUP:loss"), loss(&sup)));
        summary.push((format!("{key}/CTRL:tail_delay_s"), ctrl.tail_delay_s));
        summary.push((format!("{key}/SUP:tail_delay_s"), sup.tail_delay_s));
        summary.push((
            format!("{key}:violation_ratio"),
            if v_sup > 1e-9 { v_ctrl / v_sup } else { f64::INFINITY },
        ));
    }
    notes.push(
        "sensor faults that blind the virtual queue (stale_q, \
         sensor_dropout, cost_collapse) make bare CTRL admit far over \
         capacity; the supervisor rejects collapsed cost samples and falls \
         back to open-loop capacity matching after a dropout outlasts its \
         hold or on the loop's verdict that a frozen queue blinds ŷ"
            .into(),
    );
    notes.push(
        "cost_nan, actuator_partial, flash floods, stalls and jitter are \
         absorbed by the existing feedback design — the supervisor must \
         (and does) stay out of the way; actuator_hold freezes whatever α \
         is live when its window opens, so its outcome swings with the seed"
            .into(),
    );

    FigureResult {
        id: "faults".into(),
        title: "Fault-injection matrix: bare CTRL vs supervised CTRL".into(),
        x_label: "scenario index".into(),
        y_label: "accumulated violation (tuple·s)".into(),
        series: vec![
            Series::new("CTRL".to_string(), series_ctrl),
            Series::new("CTRL+SUP".to_string(), series_sup),
        ],
        summary,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(fig: &FigureResult, name: &str) -> f64 {
        fig.summary
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("missing summary entry {name}"))
            .1
    }

    #[test]
    fn supervised_loop_stays_bounded_under_every_fault() {
        let fig = run(1);
        // Reference scale: the clean run's violation (start-up transient
        // of a permanently overloaded system).
        let clean = get(&fig, "clean/SUP:violation_s").max(1.0);
        for key in campaign::FAULTS {
            let v = get(&fig, &format!("{key}/SUP:violation_s"));
            assert!(
                v < 60.0 * clean,
                "supervised {key} violation {v:.0} tuple·s vs clean {clean:.0}"
            );
            let tail = get(&fig, &format!("{key}/SUP:tail_delay_s"));
            assert!(
                tail < 8.0,
                "supervised {key} failed to recover: tail delay {tail:.1}s"
            );
        }
    }

    #[test]
    fn unsupervised_loop_diverges_where_the_queue_sensor_lies() {
        let fig = run(1);
        for key in ["stale_q", "sensor_dropout", "cost_collapse"] {
            let ratio = get(&fig, &format!("{key}:violation_ratio"));
            assert!(
                ratio > 3.0,
                "{key}: bare CTRL should blow up ≥3× supervised, ratio {ratio:.1}"
            );
        }
    }

    #[test]
    fn supervisor_does_no_harm_where_feedback_already_copes() {
        let fig = run(1);
        for key in ["clean", "cost_nan", "flash_flood", "stall", "actuator_partial"] {
            let ctrl = get(&fig, &format!("{key}/CTRL:violation_s"));
            let sup = get(&fig, &format!("{key}/SUP:violation_s"));
            // Within a factor of 2 plus a small absolute allowance.
            assert!(
                sup <= 2.0 * ctrl + 2000.0,
                "{key}: supervised {sup:.0} vs bare {ctrl:.0} tuple·s"
            );
        }
    }

    #[test]
    fn matrix_is_deterministic_from_the_seed() {
        let a = run(1);
        let b = run(1);
        assert_eq!(a.summary, b.summary);
    }
}
