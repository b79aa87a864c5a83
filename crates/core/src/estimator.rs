//! Estimators for the unmeasurable signals (§4.5.1).
//!
//! The controlled output — the delay of tuples *currently arriving* — is
//! only observable after those tuples depart, i.e. delayed by the output
//! itself. The paper's fix is to estimate it from the virtual queue
//! length: `ŷ(k) = (q(k)+1)·c(k)/H` (Eq. 11), with `c(k)` tracked by the
//! engine's statistics (here: an EWMA over measured per-tuple costs).

use crate::model::PlantModel;

/// EWMA weight of a new `c(k)` sample in the cost tracker.
const COST_SMOOTHING: f64 = 0.3;

/// Exponentially weighted moving average tracker for the per-tuple cost
/// `c(k)`.
///
/// Mirrors the role of Borealis's statistics module (§4.2 of \[26\]): the
/// expectation of per-tuple cost "can be precisely estimated", but it
/// drifts slowly; smoothing suppresses the per-period measurement noise
/// the paper attributes to tuple heterogeneity (§4.5.3, issue 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEstimator {
    estimate_us: f64,
}

impl CostEstimator {
    /// Creates an estimator from a prior cost; each new sample moves the
    /// estimate `COST_SMOOTHING` (0.3) of the way to it.
    pub fn new(prior_us: f64) -> Self {
        assert!(prior_us > 0.0 && prior_us.is_finite());
        Self {
            estimate_us: prior_us,
        }
    }

    /// Folds in this period's measurement, if any, and returns the
    /// current estimate (µs).
    pub fn update(&mut self, measured_us: Option<f64>) -> f64 {
        if let Some(m) = measured_us {
            if m.is_finite() && m > 0.0 {
                self.estimate_us += COST_SMOOTHING * (m - self.estimate_us);
            }
        }
        self.estimate_us
    }

    /// Current estimate without updating, µs.
    pub fn current_us(&self) -> f64 {
        self.estimate_us
    }
}

/// The virtual-queue delay estimator of Eq. 11.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayEstimator {
    /// Headroom factor `H`.
    pub headroom: f64,
}

impl DelayEstimator {
    /// Creates an estimator with the given headroom.
    pub fn new(headroom: f64) -> Self {
        assert!(headroom > 0.0 && headroom <= 1.0);
        Self { headroom }
    }

    /// `ŷ(k) = (q(k)+1)·c(k)/H`, in seconds.
    pub fn estimate_delay_s(&self, queue_len: u64, cost_us: f64) -> f64 {
        (queue_len as f64 + 1.0) * (cost_us / 1e6) / self.headroom
    }

    /// Convenience: the same estimate from a [`PlantModel`].
    pub fn from_model(model: &PlantModel) -> Self {
        Self::new(model.headroom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamshed_engine::time::secs;

    #[test]
    fn ewma_converges_to_measurements() {
        let mut e = CostEstimator::new(5000.0);
        for _ in 0..50 {
            e.update(Some(8000.0));
        }
        assert!((e.current_us() - 8000.0).abs() < 1.0);
    }

    #[test]
    fn ewma_ignores_missing_and_garbage() {
        let mut e = CostEstimator::new(5000.0);
        e.update(None);
        e.update(Some(f64::NAN));
        e.update(Some(-3.0));
        e.update(Some(0.0));
        assert_eq!(e.current_us(), 5000.0);
    }

    #[test]
    fn ewma_smoothing_bounds_step_response() {
        let mut e = CostEstimator::new(1000.0);
        let after_one = e.update(Some(2000.0));
        assert!((after_one - 1300.0).abs() < 1e-9);
    }

    #[test]
    fn delay_estimate_matches_model() {
        let model = PlantModel::new(5263.0, 0.97, secs(1));
        let est = DelayEstimator::from_model(&model);
        for q in [0u64, 10, 368, 1000] {
            let a = est.estimate_delay_s(q, model.cost_us);
            let b = model.predict_delay_s(q);
            assert!((a - b).abs() < 1e-12, "q={q}");
        }
    }

    #[test]
    fn paper_target_queue_is_about_368() {
        // yd = 2 s, c ≈ 5.26 ms, H = 0.97 → q* = yd·H/c − 1 ≈ 368.
        let model = PlantModel::new(1e6 / 190.0, 0.97, secs(1));
        let q = model.queue_for_delay(2.0);
        assert!((q - 367.6).abs() < 1.0, "q* = {q}");
        let est = DelayEstimator::from_model(&model);
        let y = est.estimate_delay_s(q.round() as u64, model.cost_us);
        assert!((y - 2.0).abs() < 0.01);
    }

    #[test]
    #[should_panic]
    fn rejects_zero_prior() {
        let _ = CostEstimator::new(0.0);
    }
}
