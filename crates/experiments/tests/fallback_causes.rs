//! Every fallback has a cause, and every re-engagement has earned it.
//!
//! Over the sanity lane's supervised cells, each shard's trace is read
//! the way an operator reads the exported JSONL: the supervisor may
//! enter `fallback` only on the row after a `diverging` verdict or at
//! the end of a stale-sensor streak longer than `MAX_STALE_PERIODS`, and
//! may re-engage only after `RECOVERY_PERIODS` `healthy` verdicts.

use streamshed_control::supervisor::{MAX_STALE_PERIODS, RECOVERY_PERIODS};
use streamshed_engine::diagnostics::HealthState;
use streamshed_engine::telemetry::{ControlTrace, LoopMode, FLAG_SENSOR_DROPOUT};
use streamshed_experiments::{campaign, parallel};

/// The supervisor saw no cost sample this period: the engine measured
/// none, or a sensor dropout blanked it.
fn stale(t: &ControlTrace) -> bool {
    t.measured_cost_us.is_nan() || t.fault_flags & FLAG_SENSOR_DROPOUT != 0
}

/// Checks one shard's trace; returns how many fallbacks each cause
/// explained, `[diverging, stale]`.
fn check(key: &str, traces: &[ControlTrace]) -> [usize; 2] {
    let mut causes = [0; 2];
    for k in 1..traces.len() {
        let (prev, now) = (&traces[k - 1], &traces[k]);
        if now.mode == LoopMode::Fallback && prev.mode != LoopMode::Fallback {
            let streak = MAX_STALE_PERIODS as usize + 1;
            if prev.health == HealthState::Diverging {
                causes[0] += 1;
            } else if k + 1 >= streak && traces[k + 1 - streak..=k].iter().all(stale) {
                causes[1] += 1;
            } else {
                panic!("{key}: fallback at k={} without a cause", now.k);
            }
        }
        if now.mode == LoopMode::Engaged && prev.mode == LoopMode::Fallback {
            let n = RECOVERY_PERIODS as usize;
            assert!(
                k >= n
                    && traces[k - n..k]
                        .iter()
                        .all(|t| t.health == HealthState::Healthy),
                "{key}: re-engaged at k={} without {n} healthy verdicts",
                now.k
            );
        }
    }
    causes
}

#[test]
fn every_fallback_follows_a_diverging_verdict_or_a_stale_streak() {
    let cells: Vec<_> = campaign::sanity_corpus()
        .into_iter()
        .filter(|c| c.supervised())
        .collect();
    let per_cell = parallel::run_indexed(cells.len(), 2, |i| {
        let spec = &cells[i];
        let runs = campaign::simulate_cell(spec, 7, false);
        runs.iter()
            .map(|run| check(&spec.key(), &run.traces))
            .fold([0, 0], |a, b| [a[0] + b[0], a[1] + b[1]])
    });
    let [diverging, stale] = per_cell
        .into_iter()
        .fold([0, 0], |a, b| [a[0] + b[0], a[1] + b[1]]);
    // The lane exercises both causes, so the check is not vacuous.
    assert!(
        diverging > 0 && stale > 0,
        "diverging {diverging}, stale {stale}"
    );
}
