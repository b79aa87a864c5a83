//! A supervisory layer that keeps the closed loop safe when its own
//! sensors, actuators, or plant misbehave.
//!
//! The paper's controller assumes every `c(k)` sample is a finite positive
//! number and every queue reading is fresh. [`Supervisor`] wraps any
//! [`SheddingStrategy`] and removes those assumptions:
//!
//! * **signal validation** — cost samples must be finite, positive, and
//!   within an outlier band around the last accepted sample; true-delay
//!   measurements must be finite and non-negative. Invalid samples are
//!   replaced with the last good value before the inner strategy sees
//!   them.
//! * **hold on dropout** — when the monitor produces no cost sample at
//!   all, the last actuation is held for up to `MAX_STALE_PERIODS` (5)
//!   periods before degrading.
//! * **divergence watchdog** — the *delayed but real* mean-delay
//!   measurement (which the paper's controller deliberately ignores for
//!   control, §4.5.1) is exactly the right signal for *supervision*: if
//!   the delay residual `y − yd` stays above a margin for a whole window,
//!   the virtual-queue loop is declared divergent regardless of what the
//!   controller believes.
//! * **safe fallback** — on divergence or prolonged dropout the
//!   supervisor switches to an open-loop shed factor
//!   `α₀ = 1 − (H/c)/fin` (Aurora-style capacity matching) with a
//!   bang-bang trim from the true delay, rate-limited for bumpless
//!   transfer.
//! * **supervised re-engagement** — after `RECOVERY_PERIODS` (10)
//!   consecutive healthy periods the inner strategy is rebuilt from its
//!   pristine state (controller history cleared) and re-engaged, again
//!   rate-limited.
//!
//! Whatever mode it is in, the supervisor's output is always sanitised:
//! the entry-drop probability is finite and in `[0, 1]`, the in-network
//! shed load finite and non-negative.

use crate::loop_::LoopConfig;
use crate::strategy::SheddingStrategy;
use std::collections::VecDeque;
use streamshed_engine::hook::{ControlHook, Decision, PeriodSnapshot};
use streamshed_engine::telemetry::{ControlState, InstrumentedHook, LoopMode};

/// Periods to hold the last actuation on sensor dropout before falling
/// back.
const MAX_STALE_PERIODS: u64 = 5;
/// A cost sample further than this factor from the last accepted one (in
/// either direction) is rejected as an outlier.
const COST_OUTLIER_FACTOR: f64 = 8.0;
/// Number of consecutive periods the delay residual must exceed
/// [`DIVERGENCE_MARGIN_S`] to declare divergence.
const DIVERGENCE_WINDOW: usize = 5;
/// Residual margin (seconds above target) for the watchdog.
const DIVERGENCE_MARGIN_S: f64 = 1.0;
/// Consecutive healthy periods required before re-engaging the inner
/// strategy; also the length of the rate-limited ramp after a mode
/// switch.
const RECOVERY_PERIODS: u64 = 10;
/// Maximum change of the shed factor per period while in fallback or
/// ramping after a mode switch (bumpless transfer).
const MAX_ALPHA_STEP: f64 = 0.1;

/// Wraps a strategy with validation, fallback, and recovery. See the
/// module docs.
#[derive(Debug, Clone)]
pub struct Supervisor<S> {
    inner: S,
    /// A pristine copy used to reset controller state on re-engagement.
    pristine: S,
    /// Delay target `yd`, seconds (the watchdog and the fallback trim).
    target_s: f64,
    /// Headroom factor `H` (the open-loop fallback capacity).
    headroom: f64,
    /// `Engaged` (the inner strategy acts), `Hold` (sensor dropout: the
    /// last actuation is held) or `Fallback` (the open-loop fallback
    /// acts); never `Direct`.
    mode: LoopMode,
    stale_periods: u64,
    last_good_cost_us: f64,
    last_alpha: f64,
    last_applied: Decision,
    residuals: VecDeque<f64>,
    healthy_streak: u64,
    /// Remaining periods of post-transition rate limiting.
    ramp: u64,
    fallback_trim: f64,
}

impl<S: SheddingStrategy + Clone> Supervisor<S> {
    /// Wraps `inner` for the target, headroom and prior cost of
    /// `loop_cfg`; the prior is the initial "last good" cost sample.
    pub fn from_loop(inner: S, loop_cfg: &LoopConfig) -> Self {
        let target_s = loop_cfg.target_delay_s();
        assert!(target_s > 0.0 && target_s.is_finite());
        assert!(loop_cfg.headroom > 0.0 && loop_cfg.headroom <= 1.0);
        assert!(loop_cfg.prior_cost_us > 0.0 && loop_cfg.prior_cost_us.is_finite());
        Self {
            pristine: inner.clone(),
            last_good_cost_us: loop_cfg.prior_cost_us,
            inner,
            target_s,
            headroom: loop_cfg.headroom,
            mode: LoopMode::Engaged,
            stale_periods: 0,
            last_alpha: 0.0,
            last_applied: Decision::NONE,
            residuals: VecDeque::new(),
            healthy_streak: 0,
            ramp: 0,
            fallback_trim: 0.0,
        }
    }

    /// The current operating mode: `Engaged`, `Hold` or `Fallback`.
    pub fn mode(&self) -> LoopMode {
        self.mode
    }

    fn transition(&mut self, mode: LoopMode) {
        if self.mode != mode {
            self.mode = mode;
            self.ramp = RECOVERY_PERIODS;
            if mode == LoopMode::Fallback {
                self.fallback_trim = 0.0;
            }
        }
    }

    /// Validates the cost sample; returns the value the inner strategy
    /// should see (`None` only on dropout).
    fn validate_cost(&mut self, raw: Option<f64>) -> Option<f64> {
        match raw {
            None => {
                self.stale_periods += 1;
                None
            }
            Some(c) => {
                self.stale_periods = 0;
                let lo = self.last_good_cost_us / COST_OUTLIER_FACTOR;
                let hi = self.last_good_cost_us * COST_OUTLIER_FACTOR;
                if !c.is_finite() || c <= 0.0 || c < lo || c > hi {
                    Some(self.last_good_cost_us)
                } else {
                    self.last_good_cost_us = c;
                    Some(c)
                }
            }
        }
    }

    /// Validates the true-delay sample (supervision signal only).
    fn validate_delay(raw: Option<f64>) -> Option<f64> {
        raw.filter(|d| d.is_finite() && *d >= 0.0)
    }

    /// True when the residual has exceeded the margin for the whole
    /// window.
    fn diverging(&self) -> bool {
        self.residuals.len() >= DIVERGENCE_WINDOW
            && self.residuals.iter().all(|&r| r > DIVERGENCE_MARGIN_S)
    }

    /// The open-loop fallback decision: shed down to capacity, trimmed by
    /// the true delay when one is available.
    fn fallback_decision(&mut self, snap: &PeriodSnapshot, delay_ms: Option<f64>) -> Decision {
        let capacity_tps = self.headroom / (self.last_good_cost_us / 1e6);
        let fin = snap.fin_rate();
        let base = if fin <= f64::EPSILON || !fin.is_finite() {
            0.0
        } else {
            (1.0 - capacity_tps / fin).clamp(0.0, 1.0)
        };
        if let Some(d_ms) = delay_ms {
            let d_s = d_ms / 1e3;
            if d_s > self.target_s {
                self.fallback_trim += MAX_ALPHA_STEP;
            } else if d_s < 0.5 * self.target_s {
                self.fallback_trim -= MAX_ALPHA_STEP;
            }
            self.fallback_trim = self.fallback_trim.clamp(-0.5, 0.5);
        }
        Decision::entry((base + self.fallback_trim).clamp(0.0, 1.0))
    }

    /// Clamps a decision into its valid domain, rate-limiting the shed
    /// factor when a mode transition is being ramped.
    fn sanitise(&mut self, mut d: Decision, rate_limit: bool) -> Decision {
        if !d.entry_drop_prob.is_finite() {
            d.entry_drop_prob = self.last_alpha;
        } else {
            d.entry_drop_prob = d.entry_drop_prob.clamp(0.0, 1.0);
        }
        if rate_limit {
            let step = MAX_ALPHA_STEP;
            let limited =
                self.last_alpha + (d.entry_drop_prob - self.last_alpha).clamp(-step, step);
            d.entry_drop_prob = limited;
        }
        if !(d.shed_load_us.is_finite() && d.shed_load_us >= 0.0) {
            d.shed_load_us = 0.0;
        }
        self.last_alpha = d.entry_drop_prob;
        self.last_applied = d;
        d
    }
}

impl<S: SheddingStrategy + Clone> ControlHook for Supervisor<S> {
    fn on_period(&mut self, snap: &PeriodSnapshot) -> Decision {
        let cost = self.validate_cost(snap.measured_cost_us);
        let delay_ms = Self::validate_delay(snap.mean_delay_ms);

        // Watchdog input: the delayed-but-real measurement.
        if let Some(d_ms) = delay_ms {
            self.residuals.push_back(d_ms / 1e3 - self.target_s);
            while self.residuals.len() > DIVERGENCE_WINDOW {
                self.residuals.pop_front();
            }
        }

        // A period is healthy when the sensor delivered an acceptable
        // cost sample and the true delay (if observable) is back inside
        // half the divergence margin — hysteresis against flapping.
        let healthy = cost == Some(self.last_good_cost_us)
            && snap.measured_cost_us.is_some()
            && delay_ms.is_none_or(|d_ms| d_ms / 1e3 - self.target_s <= 0.5 * DIVERGENCE_MARGIN_S);

        if self.mode != LoopMode::Fallback {
            if cost.is_none() {
                if self.stale_periods > MAX_STALE_PERIODS {
                    self.transition(LoopMode::Fallback);
                } else {
                    // Hold the last actuation through the dropout.
                    self.transition(LoopMode::Hold);
                    return self.sanitise(self.last_applied, false);
                }
            } else if self.diverging() {
                self.transition(LoopMode::Fallback);
            } else {
                if self.mode == LoopMode::Hold {
                    // Dropout ended before the deadline: resume.
                    self.transition(LoopMode::Engaged);
                }
                let mut sanitised = *snap;
                sanitised.measured_cost_us = cost;
                sanitised.mean_delay_ms = delay_ms;
                let d = self.inner.on_period(&sanitised);
                let ramping = self.ramp > 0;
                self.ramp = self.ramp.saturating_sub(1);
                return self.sanitise(d, ramping);
            }
        }

        // Fallback path (either already in fallback, or just degraded).
        if healthy {
            self.healthy_streak += 1;
            if self.healthy_streak >= RECOVERY_PERIODS {
                // Re-engage with a pristine controller; the decision this
                // period already comes from the inner strategy again.
                self.healthy_streak = 0;
                self.inner = self.pristine.clone();
                self.residuals.clear();
                self.transition(LoopMode::Engaged);
                let mut sanitised = *snap;
                sanitised.measured_cost_us = cost;
                sanitised.mean_delay_ms = delay_ms;
                let d = self.inner.on_period(&sanitised);
                return self.sanitise(d, true);
            }
        } else {
            self.healthy_streak = 0;
        }
        let d = self.fallback_decision(snap, delay_ms);
        self.sanitise(d, true)
    }
}

impl<S: SheddingStrategy + Clone> InstrumentedHook for Supervisor<S> {
    /// The supervised loop's state for telemetry.
    ///
    /// The mode is the supervisor's. While engaged, the inner strategy's
    /// signals are reported verbatim; in hold or fallback the inner loop
    /// is not consulted, so `y_hat_s`/`error_s`/`u_tps` are NaN and only
    /// the last good cost estimate is carried through.
    fn control_state(&self) -> Option<ControlState> {
        let mut st = if self.mode == LoopMode::Engaged {
            self.inner.control_state().unwrap_or_default()
        } else {
            ControlState {
                cost_est_us: self.last_good_cost_us,
                ..ControlState::default()
            }
        };
        st.mode = self.mode;
        Some(st)
    }
}

impl<S: SheddingStrategy + Clone> SheddingStrategy for Supervisor<S> {
    /// Moves the watchdog, the fallback trim and the inner strategy to
    /// the new target — the pristine copy too, so a re-engagement after
    /// fallback keeps it.
    fn set_target_delay_s(&mut self, yd_s: f64) {
        assert!(yd_s > 0.0 && yd_s.is_finite());
        self.target_s = yd_s;
        self.inner.set_target_delay_s(yd_s);
        self.pristine.set_target_delay_s(yd_s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::CtrlStrategy;
    use streamshed_engine::time::{secs, SimTime};

    fn snap(k: u64, outstanding: u64, cost: Option<f64>, delay_ms: Option<f64>) -> PeriodSnapshot {
        PeriodSnapshot {
            k,
            now: SimTime::ZERO + secs(k + 1),
            period: secs(1),
            offered: 400,
            admitted: 400,
            dropped_entry: 0,
            dropped_network: 0,
            completed: 190,
            outstanding,
            queued_tuples: outstanding,
            queued_load_us: outstanding as f64 * 5105.0,
            measured_cost_us: cost,
            mean_delay_ms: delay_ms,
            cpu_busy_us: 970_000,
        }
    }

    fn supervised() -> Supervisor<CtrlStrategy> {
        Supervisor::from_loop(
            CtrlStrategy::paper_default(),
            &crate::loop_::LoopConfig::paper_default(),
        )
    }

    #[test]
    fn transparent_when_healthy() {
        let mut sup = supervised();
        let mut raw = CtrlStrategy::paper_default();
        for k in 0..10 {
            let s = snap(k, 400, Some(5105.0), Some(1900.0));
            let a = sup.on_period(&s);
            let b = raw.on_period(&s);
            assert!((a.entry_drop_prob - b.entry_drop_prob).abs() < 1e-12);
        }
        assert_eq!(sup.mode(), LoopMode::Engaged);
        let (a, b) = (sup.control_state().unwrap(), raw.control_state().unwrap());
        assert_eq!(a.y_hat_s.to_bits(), b.y_hat_s.to_bits());
        assert_eq!(a.cost_est_us.to_bits(), b.cost_est_us.to_bits());
    }

    #[test]
    fn nan_cost_is_replaced_not_forwarded() {
        let mut sup = supervised();
        for k in 0..5 {
            let d = sup.on_period(&snap(k, 400, Some(f64::NAN), Some(1900.0)));
            assert!(d.entry_drop_prob.is_finite());
        }
        assert_eq!(sup.mode(), LoopMode::Engaged);
        // The inner strategy saw the prior in place of every NaN.
        let prior = crate::loop_::LoopConfig::paper_default().prior_cost_us;
        let cost = sup.control_state().unwrap().cost_est_us;
        assert!((cost - prior).abs() < 1e-9, "cost {cost} vs prior {prior}");
    }

    #[test]
    fn outlier_cost_is_rejected() {
        let mut sup = supervised();
        let _ = sup.on_period(&snap(0, 400, Some(5105.0), Some(1900.0)));
        // 100× collapse: rejected; last good (5105) substituted.
        let _ = sup.on_period(&snap(1, 400, Some(51.0), Some(1900.0)));
        // Cost tracker still near the real value, not the outlier.
        let cost = sup.control_state().unwrap().cost_est_us;
        assert!(cost > 4000.0, "cost {cost}");
    }

    #[test]
    fn dropout_holds_then_falls_back() {
        let mut sup = supervised();
        let d0 = sup.on_period(&snap(0, 2000, Some(5105.0), Some(2500.0)));
        assert!(d0.entry_drop_prob > 0.0);
        // Sensor dropout: held for max_stale_periods, then fallback.
        let mut k = 1;
        for _ in 0..5 {
            let d = sup.on_period(&snap(k, 2000, None, None));
            assert_eq!(d.entry_drop_prob, d0.entry_drop_prob, "held at k={k}");
            k += 1;
        }
        assert_eq!(sup.mode(), LoopMode::Hold);
        let _ = sup.on_period(&snap(k, 2000, None, None));
        assert_eq!(sup.mode(), LoopMode::Fallback);
    }

    #[test]
    fn short_dropout_resumes_engaged() {
        let mut sup = supervised();
        let _ = sup.on_period(&snap(0, 400, Some(5105.0), Some(1900.0)));
        let _ = sup.on_period(&snap(1, 400, None, None));
        assert_eq!(sup.mode(), LoopMode::Hold);
        let _ = sup.on_period(&snap(2, 400, Some(5105.0), Some(1900.0)));
        assert_eq!(sup.mode(), LoopMode::Engaged);
    }

    #[test]
    fn persistent_overshoot_trips_the_watchdog() {
        let mut sup = supervised();
        // Frozen small queue (the controller thinks all is well) but the
        // true delay climbs far past the 2 s target.
        for k in 0..10 {
            let _ = sup.on_period(&snap(k, 10, Some(5105.0), Some(8000.0 + 500.0 * k as f64)));
        }
        assert_eq!(sup.mode(), LoopMode::Fallback);
        // The fallback sheds aggressively: fin 400 » capacity 190.
        let d = sup.on_period(&snap(10, 10, Some(5105.0), Some(9000.0)));
        assert!(d.entry_drop_prob > 0.3, "alpha {}", d.entry_drop_prob);
    }

    #[test]
    fn recovers_and_reengages_after_healthy_window() {
        let mut sup = supervised();
        let mut transitions = Vec::new();
        let mut mode = sup.mode();
        for k in 0..30 {
            // The true delay sits far over target for ten periods, then
            // the signals recover: delay back at target, cost valid.
            let s = if k < 10 {
                snap(k, 10, Some(5105.0), Some(9000.0))
            } else {
                snap(k, 300, Some(5105.0), Some(1800.0))
            };
            let _ = sup.on_period(&s);
            if sup.mode() != mode {
                mode = sup.mode();
                transitions.push((k, mode));
            }
        }
        // The watchdog trips once the 5-period window is full, and the
        // tenth healthy period after the recovery re-engages.
        assert_eq!(
            transitions,
            vec![(4, LoopMode::Fallback), (19, LoopMode::Engaged)]
        );
    }

    #[test]
    fn fallback_output_is_rate_limited() {
        let mut sup = supervised();
        // Healthy periods first, then trip the watchdog with a
        // persistently huge true delay the frozen-queue controller cannot
        // see.
        let mut prev = sup
            .on_period(&snap(0, 10, Some(5105.0), Some(100.0)))
            .entry_drop_prob;
        for k in 1..=5 {
            prev = sup
                .on_period(&snap(k, 10, Some(5105.0), Some(9000.0)))
                .entry_drop_prob;
        }
        // First fallback period: the open-loop α would jump to ≈0.53
        // (1 − 190/400) + trim, but bumpless transfer caps the step.
        let d = sup.on_period(&snap(6, 10, Some(5105.0), Some(9000.0)));
        assert_eq!(sup.mode(), LoopMode::Fallback);
        assert!(
            (d.entry_drop_prob - prev).abs() <= MAX_ALPHA_STEP + 1e-12,
            "first fallback step {} from {prev}",
            d.entry_drop_prob
        );
        // Subsequent periods keep climbing monotonically toward the
        // open-loop factor.
        prev = d.entry_drop_prob;
        for k in 7..12 {
            let d = sup.on_period(&snap(k, 10, Some(5105.0), Some(9000.0)));
            assert!(d.entry_drop_prob >= prev);
            assert!(d.entry_drop_prob - prev <= MAX_ALPHA_STEP + 1e-12);
            prev = d.entry_drop_prob;
        }
    }

    #[test]
    fn output_always_sane_under_garbage_input() {
        let mut sup = supervised();
        let garbage = [
            (Some(f64::NAN), Some(f64::NAN)),
            (Some(f64::INFINITY), Some(-5.0)),
            (Some(-3.0), Some(f64::INFINITY)),
            (Some(0.0), None),
            (None, Some(f64::NEG_INFINITY)),
        ];
        for (k, (c, d)) in garbage.iter().cycle().take(50).enumerate() {
            let dec = sup.on_period(&snap(k as u64, 10_000, *c, *d));
            assert!(dec.entry_drop_prob.is_finite());
            assert!((0.0..=1.0).contains(&dec.entry_drop_prob));
            assert!(dec.shed_load_us.is_finite() && dec.shed_load_us >= 0.0);
            // No garbage sample reaches the cost estimate.
            let cost = sup.control_state().unwrap().cost_est_us;
            assert!(cost.is_finite() && cost > 0.0, "k={k}: cost {cost}");
        }
    }

    #[test]
    fn control_state_tracks_supervisor_mode() {
        let mut sup = supervised();
        assert_eq!(
            sup.control_state().unwrap().mode,
            LoopMode::Engaged,
            "engaged before any period"
        );
        let _ = sup.on_period(&snap(0, 400, Some(5105.0), Some(1900.0)));
        let engaged = sup.control_state().unwrap();
        assert_eq!(engaged.mode, LoopMode::Engaged);
        assert!(engaged.y_hat_s.is_finite(), "inner signals pass through");
        assert!((engaged.cost_est_us - 5105.0).abs() < 500.0);

        // Dropout: hold, then fallback; inner signals are masked.
        for k in 1..=6 {
            let _ = sup.on_period(&snap(k, 400, None, None));
        }
        let st = sup.control_state().unwrap();
        assert_eq!(st.mode, LoopMode::Fallback);
        assert!(st.y_hat_s.is_nan() && st.error_s.is_nan() && st.u_tps.is_nan());
        assert!((st.cost_est_us - 5105.0).abs() < 1e-9, "last good cost kept");
    }

    #[test]
    fn target_change_survives_fallback_and_reengagement() {
        let mut sup = supervised();
        sup.set_target_delay_s(5.0);
        // A sensor dropout forces the fallback whatever the target.
        let _ = sup.on_period(&snap(0, 400, Some(5105.0), Some(4800.0)));
        for k in 1..=6 {
            let _ = sup.on_period(&snap(k, 400, None, None));
        }
        assert_eq!(sup.mode(), LoopMode::Fallback);
        // A 5.2 s true delay is healthy only against the new 5 s target
        // (0.2 s over it, inside half the 1 s margin; 3.2 s over 2 s).
        for k in 7..30 {
            let _ = sup.on_period(&snap(k, 900, Some(5105.0), Some(5200.0)));
        }
        assert_eq!(sup.mode(), LoopMode::Engaged);
        // The re-engaged inner strategy came from the pristine copy, and
        // measures its error against the new target.
        let st = sup.control_state().unwrap();
        assert_eq!(st.error_s, 5.0 - st.y_hat_s);
    }
}
