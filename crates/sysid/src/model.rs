//! Model verification and parameter fitting (Figs. 6–7).
//!
//! Given a recorded identification run, compute the model's predicted
//! delays `ŷ(k) = (q(k−1)+1)·c/H`, the per-period modeling errors, and
//! fit the headroom `H` that minimises the error — the procedure that
//! leads the paper to `H = 0.97`.

use crate::IdentificationRun;

/// Predicted delays (seconds) for an identification run under a candidate
/// `(c, H)` pair — Eq. 2 with the run's recorded queue lengths.
pub fn predict_delays_s(run: &IdentificationRun, cost_us: f64, headroom: f64) -> Vec<f64> {
    assert!(cost_us > 0.0 && headroom > 0.0);
    let c_s = cost_us / 1e6;
    let mut out = Vec::with_capacity(run.periods.len());
    let mut q_prev = 0u64;
    for p in &run.periods {
        out.push((q_prev as f64 + 1.0) * c_s / headroom);
        q_prev = p.q;
    }
    out
}

/// Per-period modeling error `y_real(k) − ŷ(k)` in seconds; `NaN` where
/// the real delay was unobserved.
pub fn model_error_s(run: &IdentificationRun, cost_us: f64, headroom: f64) -> Vec<f64> {
    let pred = predict_delays_s(run, cost_us, headroom);
    run.y_series_s()
        .iter()
        .zip(pred)
        .map(|(&real, model)| real - model)
        .collect()
}

/// Root-mean-square over the finite entries of an error series.
pub fn rmse(errors: &[f64]) -> f64 {
    let finite: Vec<f64> = errors.iter().copied().filter(|e| e.is_finite()).collect();
    if finite.is_empty() {
        return f64::NAN;
    }
    (finite.iter().map(|e| e * e).sum::<f64>() / finite.len() as f64).sqrt()
}

/// Result of a headroom fit.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelFit {
    /// The candidate headrooms evaluated.
    pub candidates: Vec<f64>,
    /// RMSE (seconds) for each candidate.
    pub rmse_s: Vec<f64>,
    /// The best headroom.
    pub best_headroom: f64,
    /// Its RMSE, seconds.
    pub best_rmse_s: f64,
}

/// Evaluates candidate headrooms against a run (with the run's measured
/// mean cost) and returns the best — Fig. 6's comparison of
/// H ∈ {0.95, 0.97, 1.00}.
pub fn fit_headroom(run: &IdentificationRun, cost_us: f64, candidates: &[f64]) -> ModelFit {
    assert!(!candidates.is_empty());
    let rmse_s: Vec<f64> = candidates
        .iter()
        .map(|&h| rmse(&model_error_s(run, cost_us, h)))
        .collect();
    // Exact ties break toward the LATER candidate: when the error curve
    // is flat at the knee (two headrooms fit equally well), the larger
    // headroom is the conservative pick — it implies less spare capacity,
    // so a controller built on it sheds no less than it must.
    let mut best_idx = 0;
    for (i, &r) in rmse_s.iter().enumerate().skip(1) {
        let cur = rmse_s[best_idx];
        if r.is_finite() && (!cur.is_finite() || r <= cur) {
            best_idx = i;
        }
    }
    ModelFit {
        candidates: candidates.to_vec(),
        rmse_s: rmse_s.clone(),
        best_headroom: candidates[best_idx],
        best_rmse_s: rmse_s[best_idx],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_identification, ObservedPeriod};
    use streamshed_engine::networks::identification_network;
    use streamshed_engine::sim::SimConfig;
    use streamshed_workload::{SineTrace, StepTrace};

    /// A synthetic run whose delays exactly follow the model at H = 0.9.
    fn synthetic_run(h: f64, c_us: f64) -> IdentificationRun {
        let qs = [0u64, 50, 120, 200, 260, 300];
        let mut periods = Vec::new();
        let mut q_prev = 0u64;
        for (k, &q) in qs.iter().enumerate() {
            let y_s = (q_prev as f64 + 1.0) * (c_us / 1e6) / h;
            periods.push(ObservedPeriod {
                k: k as u64,
                fin_tps: 300.0,
                q,
                y_real_ms: y_s * 1e3,
                measured_cost_us: c_us,
            });
            q_prev = q;
        }
        IdentificationRun {
            periods,
            mean_cost_us: c_us,
        }
    }

    #[test]
    fn exact_model_has_zero_error() {
        let run = synthetic_run(0.9, 5000.0);
        let err = model_error_s(&run, 5000.0, 0.9);
        assert!(err.iter().all(|e| e.abs() < 1e-12));
        assert!(rmse(&err) < 1e-12);
    }

    #[test]
    fn wrong_headroom_has_positive_error() {
        let run = synthetic_run(0.9, 5000.0);
        assert!(rmse(&model_error_s(&run, 5000.0, 1.0)) > 0.01);
    }

    #[test]
    fn fit_recovers_true_headroom() {
        let run = synthetic_run(0.9, 5000.0);
        let fit = fit_headroom(&run, 5000.0, &[0.85, 0.9, 0.95, 1.0]);
        assert_eq!(fit.best_headroom, 0.9);
        assert!(fit.best_rmse_s < 1e-9);
    }

    /// Regression: a cost curve exactly flat at the knee used to resolve
    /// to the FIRST (smaller) headroom; ties must break to the later one.
    /// The construction makes the tie bitwise-exact: with power-of-two
    /// headrooms and a unit cost, both predictions and their midpoint are
    /// exactly representable, so the two error series are exact negations
    /// of each other and square to identical RMSEs.
    #[test]
    fn flat_tie_at_the_knee_breaks_to_the_later_headroom() {
        let (h_lo, h_hi) = (0.25, 0.5);
        let c_us = 1e6; // c_s = 1.0 exactly
        let qs = [0u64, 3, 7, 12, 20];
        let mut periods = Vec::new();
        let mut q_prev = 0u64;
        for (k, &q) in qs.iter().enumerate() {
            let n = q_prev as f64 + 1.0;
            // Midpoint of the two candidate predictions: 4n and 2n → 3n.
            let y_s = 3.0 * n;
            periods.push(ObservedPeriod {
                k: k as u64,
                fin_tps: 300.0,
                q,
                y_real_ms: y_s * 1e3,
                measured_cost_us: c_us,
            });
            q_prev = q;
        }
        let run = IdentificationRun {
            periods,
            mean_cost_us: c_us,
        };
        let fit = fit_headroom(&run, c_us, &[h_lo, h_hi]);
        assert_eq!(
            fit.rmse_s[0].to_bits(),
            fit.rmse_s[1].to_bits(),
            "construction must produce a bitwise-exact tie"
        );
        assert_eq!(fit.best_headroom, h_hi, "tie must break to the later candidate");
    }

    #[test]
    fn nan_candidates_never_win_a_fit() {
        // An unobservable candidate (NaN RMSE) must lose to any finite one,
        // wherever it sits in the list.
        let run = synthetic_run(0.9, 5000.0);
        let mut damaged = run.clone();
        for p in &mut damaged.periods {
            p.y_real_ms = f64::NAN;
        }
        assert!(fit_headroom(&damaged, 5000.0, &[0.9, 0.95]).best_rmse_s.is_nan());
        let fit = fit_headroom(&run, 5000.0, &[0.85, 0.9, 0.95]);
        assert_eq!(fit.best_headroom, 0.9);
    }

    #[test]
    fn rmse_handles_nans() {
        assert!((rmse(&[3.0, f64::NAN, 4.0]) - (12.5f64).sqrt()).abs() < 1e-12);
        assert!(rmse(&[f64::NAN]).is_nan());
    }

    #[test]
    fn engine_fit_prefers_engine_headroom() {
        // The engine's true headroom is 0.97; the fit over a step-overload
        // run must pick a value near it rather than 1.0 or 0.90.
        let run = run_identification(
            identification_network(),
            &StepTrace::paper_step(300.0),
            60,
            150,
            SimConfig::paper_default(),
        );
        let fit = fit_headroom(&run, run.mean_cost_us, &[0.90, 0.95, 0.97, 1.00]);
        assert!(
            (fit.best_headroom - 0.97).abs() < 0.021,
            "best H = {} (rmse {:?})",
            fit.best_headroom,
            fit.rmse_s
        );
    }

    #[test]
    fn sinusoidal_errors_are_small() {
        // Fig. 7: "small, periodical modeling errors" — RMSE well under
        // the multi-second delay swings themselves.
        let run = run_identification(
            identification_network(),
            &SineTrace::paper_sine(),
            120,
            120,
            SimConfig::paper_default(),
        );
        let err = model_error_s(&run, run.mean_cost_us, 0.97);
        let e = rmse(&err);
        let peak_y = run
            .y_series_s()
            .iter()
            .copied()
            .filter(|y| y.is_finite())
            .fold(0.0f64, f64::max);
        assert!(peak_y > 1.0, "sine overload must build delay: {peak_y}");
        assert!(e < peak_y * 0.25, "rmse {e} vs peak {peak_y}");
    }
}
