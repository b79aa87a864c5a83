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
//!   all, the last actuation is held for up to
//!   [`SupervisorConfig::max_stale_periods`] periods before degrading.
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
//! * **supervised re-engagement** — after
//!   [`SupervisorConfig::recovery_periods`] consecutive healthy periods
//!   the inner strategy is rebuilt from its pristine state (controller
//!   history cleared) and re-engaged, again rate-limited.
//!
//! Whatever mode it is in, the supervisor's output is always sanitised:
//! the entry-drop probability is finite and in `[0, 1]`, the in-network
//! shed load finite and non-negative.

use crate::loop_::{LoopConfig, SignalRow};
use crate::strategy::SheddingStrategy;
use std::collections::VecDeque;
use streamshed_engine::hook::{ControlHook, Decision, PeriodSnapshot};
use streamshed_engine::telemetry::{ControlState, InstrumentedHook, LoopMode};

/// Supervisor tuning.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisorConfig {
    /// Delay target `yd` in seconds (for the divergence watchdog and the
    /// fallback trim).
    pub target_s: f64,
    /// Headroom factor `H` (for the open-loop fallback capacity).
    pub headroom: f64,
    /// Prior cost estimate (µs) used as the initial "last good" sample.
    pub prior_cost_us: f64,
    /// Periods to hold the last actuation on sensor dropout before
    /// falling back.
    pub max_stale_periods: u64,
    /// A cost sample further than this factor from the last accepted one
    /// (in either direction) is rejected as an outlier.
    pub cost_outlier_factor: f64,
    /// Number of consecutive periods the delay residual must exceed
    /// [`Self::divergence_margin_s`] to declare divergence.
    pub divergence_window: usize,
    /// Residual margin (seconds above target) for the watchdog.
    pub divergence_margin_s: f64,
    /// Consecutive healthy periods required before re-engaging the inner
    /// strategy.
    pub recovery_periods: u64,
    /// Fixed fallback shed factor; `None` computes the open-loop
    /// capacity-matching factor from the last good cost.
    pub fallback_alpha: Option<f64>,
    /// Maximum change of the shed factor per period while in fallback or
    /// ramping after a mode switch (bumpless transfer).
    pub max_alpha_step: f64,
}

impl SupervisorConfig {
    /// Defaults derived from a loop configuration.
    pub fn from_loop(cfg: &LoopConfig) -> Self {
        Self {
            target_s: cfg.target_delay_s(),
            headroom: cfg.headroom,
            prior_cost_us: cfg.prior_cost_us,
            max_stale_periods: 5,
            cost_outlier_factor: 8.0,
            divergence_window: 5,
            divergence_margin_s: 1.0,
            recovery_periods: 10,
            fallback_alpha: None,
            max_alpha_step: 0.1,
        }
    }
}

/// The supervisor's operating mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SupervisorMode {
    /// The inner strategy is in control.
    Engaged,
    /// Sensor dropout: the last actuation is being held.
    Hold,
    /// The inner loop is disengaged; the open-loop fallback is in
    /// control.
    Fallback,
}

/// One mode transition, for post-hoc inspection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorEvent {
    /// Period index at which the transition happened.
    pub k: u64,
    /// The mode entered.
    pub entered: SupervisorMode,
}

/// Counters summarising the supervisor's interventions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SupervisorLog {
    /// Cost samples rejected (non-finite, non-positive, or outlier).
    pub rejected_cost_samples: u64,
    /// True-delay samples rejected (non-finite or negative).
    pub rejected_delay_samples: u64,
    /// Periods spent holding the last actuation on dropout.
    pub held_periods: u64,
    /// Periods spent in open-loop fallback.
    pub fallback_periods: u64,
    /// Times the watchdog declared divergence.
    pub divergence_trips: u64,
    /// Times the inner strategy was re-engaged after recovery.
    pub reengagements: u64,
    /// Decisions whose outputs had to be sanitised (non-finite or
    /// out-of-range values clamped).
    pub sanitised_outputs: u64,
}

/// Wraps a strategy with validation, fallback, and recovery. See the
/// module docs.
#[derive(Debug, Clone)]
pub struct Supervisor<S> {
    inner: S,
    /// A pristine copy used to reset controller state on re-engagement.
    pristine: S,
    cfg: SupervisorConfig,
    mode: SupervisorMode,
    stale_periods: u64,
    last_good_cost_us: f64,
    last_alpha: f64,
    last_applied: Decision,
    residuals: VecDeque<f64>,
    healthy_streak: u64,
    /// Remaining periods of post-transition rate limiting.
    ramp: u64,
    fallback_trim: f64,
    log: SupervisorLog,
    events: Vec<SupervisorEvent>,
}

impl<S: SheddingStrategy + Clone> Supervisor<S> {
    /// Wraps `inner` with the given supervisor configuration.
    pub fn new(inner: S, cfg: SupervisorConfig) -> Self {
        assert!(cfg.target_s > 0.0 && cfg.target_s.is_finite());
        assert!(cfg.headroom > 0.0 && cfg.headroom <= 1.0);
        assert!(cfg.prior_cost_us > 0.0 && cfg.prior_cost_us.is_finite());
        assert!(cfg.cost_outlier_factor > 1.0);
        assert!(cfg.divergence_window >= 1);
        assert!(cfg.max_alpha_step > 0.0);
        Self {
            pristine: inner.clone(),
            last_good_cost_us: cfg.prior_cost_us,
            inner,
            cfg,
            mode: SupervisorMode::Engaged,
            stale_periods: 0,
            last_alpha: 0.0,
            last_applied: Decision::NONE,
            residuals: VecDeque::new(),
            healthy_streak: 0,
            ramp: 0,
            fallback_trim: 0.0,
            log: SupervisorLog::default(),
            events: Vec::new(),
        }
    }

    /// Wraps `inner` with defaults derived from `loop_cfg`.
    pub fn from_loop(inner: S, loop_cfg: &LoopConfig) -> Self {
        Self::new(inner, SupervisorConfig::from_loop(loop_cfg))
    }

    /// The current operating mode.
    pub fn mode(&self) -> SupervisorMode {
        self.mode
    }

    /// Intervention counters.
    pub fn log(&self) -> &SupervisorLog {
        &self.log
    }

    /// Mode transitions, in order.
    pub fn events(&self) -> &[SupervisorEvent] {
        &self.events
    }

    /// Mode transitions translated to the telemetry-level [`LoopMode`] —
    /// the form the observability plane's diagnostics consume, so
    /// supervisor hold/fallback interventions surface as diagnostic
    /// events without the consumer depending on supervisor internals.
    pub fn diagnostic_events(&self) -> Vec<(u64, LoopMode)> {
        self.events
            .iter()
            .map(|e| {
                let mode = match e.entered {
                    SupervisorMode::Engaged => LoopMode::Engaged,
                    SupervisorMode::Hold => LoopMode::Hold,
                    SupervisorMode::Fallback => LoopMode::Fallback,
                };
                (e.k, mode)
            })
            .collect()
    }

    /// The wrapped strategy.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    fn transition(&mut self, k: u64, mode: SupervisorMode) {
        if self.mode != mode {
            self.mode = mode;
            self.events.push(SupervisorEvent { k, entered: mode });
            self.ramp = self.cfg.recovery_periods.min(10);
            if mode == SupervisorMode::Fallback {
                self.fallback_trim = 0.0;
                self.log.divergence_trips += 1;
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
                let lo = self.last_good_cost_us / self.cfg.cost_outlier_factor;
                let hi = self.last_good_cost_us * self.cfg.cost_outlier_factor;
                if !c.is_finite() || c <= 0.0 || c < lo || c > hi {
                    self.log.rejected_cost_samples += 1;
                    Some(self.last_good_cost_us)
                } else {
                    self.last_good_cost_us = c;
                    Some(c)
                }
            }
        }
    }

    /// Validates the true-delay sample (supervision signal only).
    fn validate_delay(&mut self, raw: Option<f64>) -> Option<f64> {
        match raw {
            Some(d) if d.is_finite() && d >= 0.0 => Some(d),
            Some(_) => {
                self.log.rejected_delay_samples += 1;
                None
            }
            None => None,
        }
    }

    /// True when the residual has exceeded the margin for the whole
    /// window.
    fn diverging(&self) -> bool {
        self.residuals.len() >= self.cfg.divergence_window
            && self
                .residuals
                .iter()
                .all(|&r| r > self.cfg.divergence_margin_s)
    }

    /// The open-loop fallback decision: shed down to capacity, trimmed by
    /// the true delay when one is available.
    fn fallback_decision(&mut self, snap: &PeriodSnapshot, delay_ms: Option<f64>) -> Decision {
        let base = match self.cfg.fallback_alpha {
            Some(a) => a.clamp(0.0, 1.0),
            None => {
                let capacity_tps = self.cfg.headroom / (self.last_good_cost_us / 1e6);
                let fin = snap.fin_rate();
                if fin <= f64::EPSILON || !fin.is_finite() {
                    0.0
                } else {
                    (1.0 - capacity_tps / fin).clamp(0.0, 1.0)
                }
            }
        };
        if let Some(d_ms) = delay_ms {
            let d_s = d_ms / 1e3;
            if d_s > self.cfg.target_s {
                self.fallback_trim += self.cfg.max_alpha_step;
            } else if d_s < 0.5 * self.cfg.target_s {
                self.fallback_trim -= self.cfg.max_alpha_step;
            }
            self.fallback_trim = self.fallback_trim.clamp(-0.5, 0.5);
        }
        Decision::entry((base + self.fallback_trim).clamp(0.0, 1.0))
    }

    /// Clamps a decision into its valid domain, rate-limiting the shed
    /// factor when a mode transition is being ramped.
    fn sanitise(&mut self, mut d: Decision, rate_limit: bool) -> Decision {
        let mut touched = false;
        if !d.entry_drop_prob.is_finite() {
            d.entry_drop_prob = self.last_alpha;
            touched = true;
        } else if !(0.0..=1.0).contains(&d.entry_drop_prob) {
            d.entry_drop_prob = d.entry_drop_prob.clamp(0.0, 1.0);
            touched = true;
        }
        if rate_limit {
            let step = self.cfg.max_alpha_step;
            let limited =
                self.last_alpha + (d.entry_drop_prob - self.last_alpha).clamp(-step, step);
            d.entry_drop_prob = limited;
        }
        if !(d.shed_load_us.is_finite() && d.shed_load_us >= 0.0) {
            d.shed_load_us = 0.0;
            touched = true;
        }
        if touched {
            self.log.sanitised_outputs += 1;
        }
        self.last_alpha = d.entry_drop_prob;
        self.last_applied = d;
        d
    }
}

impl<S: SheddingStrategy + Clone> ControlHook for Supervisor<S> {
    fn on_period(&mut self, snap: &PeriodSnapshot) -> Decision {
        let cost = self.validate_cost(snap.measured_cost_us);
        let delay_ms = self.validate_delay(snap.mean_delay_ms);

        // Watchdog input: the delayed-but-real measurement.
        if let Some(d_ms) = delay_ms {
            self.residuals.push_back(d_ms / 1e3 - self.cfg.target_s);
            while self.residuals.len() > self.cfg.divergence_window {
                self.residuals.pop_front();
            }
        }

        // A period is healthy when the sensor delivered an acceptable
        // cost sample and the true delay (if observable) is back inside
        // half the divergence margin — hysteresis against flapping.
        let healthy = cost == Some(self.last_good_cost_us)
            && snap.measured_cost_us.is_some()
            && delay_ms.is_none_or(|d_ms| {
                d_ms / 1e3 - self.cfg.target_s <= 0.5 * self.cfg.divergence_margin_s
            });

        match self.mode {
            SupervisorMode::Engaged | SupervisorMode::Hold => {
                if cost.is_none() {
                    if self.stale_periods > self.cfg.max_stale_periods {
                        self.transition(snap.k, SupervisorMode::Fallback);
                    } else {
                        // Hold the last actuation through the dropout.
                        self.transition(snap.k, SupervisorMode::Hold);
                        self.log.held_periods += 1;
                        return self.sanitise(self.last_applied, false);
                    }
                } else if self.diverging() {
                    self.transition(snap.k, SupervisorMode::Fallback);
                } else {
                    if self.mode == SupervisorMode::Hold {
                        // Dropout ended before the deadline: resume.
                        self.transition(snap.k, SupervisorMode::Engaged);
                    }
                    let mut sanitised = *snap;
                    sanitised.measured_cost_us = cost;
                    sanitised.mean_delay_ms = delay_ms;
                    let d = self.inner.on_period(&sanitised);
                    // A self-tuning inner strategy just swapped its
                    // controller parameters: rate-limit the next couple
                    // of periods even though the swap itself was
                    // bumpless.
                    if self.inner.take_retune() {
                        self.ramp = self.ramp.max(2);
                    }
                    let ramping = self.ramp > 0;
                    self.ramp = self.ramp.saturating_sub(1);
                    return self.sanitise(d, ramping);
                }
            }
            SupervisorMode::Fallback => {}
        }

        // Fallback path (either already in fallback, or just degraded).
        self.log.fallback_periods += 1;
        if healthy {
            self.healthy_streak += 1;
            if self.healthy_streak >= self.cfg.recovery_periods {
                // Re-engage with a pristine controller; the decision this
                // period already comes from the inner strategy again.
                self.healthy_streak = 0;
                self.inner = self.pristine.clone();
                self.residuals.clear();
                self.transition(snap.k, SupervisorMode::Engaged);
                self.log.reengagements += 1;
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

impl<S: SheddingStrategy + Clone + InstrumentedHook> InstrumentedHook for Supervisor<S> {
    /// The supervised loop's state for telemetry.
    ///
    /// The mode mirrors [`SupervisorMode`]. While engaged, the inner
    /// strategy's signals are reported verbatim; in hold or fallback the
    /// inner loop is not consulted, so `y_hat_s`/`error_s`/`u_tps` are
    /// NaN and only the last good cost estimate is carried through.
    fn control_state(&self) -> Option<ControlState> {
        let mode = match self.mode {
            SupervisorMode::Engaged => LoopMode::Engaged,
            SupervisorMode::Hold => LoopMode::Hold,
            SupervisorMode::Fallback => LoopMode::Fallback,
        };
        let mut st = if self.mode == SupervisorMode::Engaged {
            self.inner.control_state().unwrap_or_default()
        } else {
            ControlState {
                cost_est_us: self.last_good_cost_us,
                ..ControlState::default()
            }
        };
        st.mode = mode;
        Some(st)
    }

    /// Forwards the inner strategy's self-tuning state (if any) so the
    /// adaptive telemetry survives supervision.
    fn adapt_state(&self) -> Option<streamshed_engine::telemetry::AdaptState> {
        self.inner.adapt_state()
    }
}

impl<S: SheddingStrategy + Clone> SheddingStrategy for Supervisor<S> {
    fn name(&self) -> &'static str {
        "SUPERVISED"
    }

    /// The inner strategy's signal log. Periods spent in hold or fallback
    /// have no row — the inner loop was not consulted.
    fn signals(&self) -> &[SignalRow] {
        self.inner.signals()
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
        assert_eq!(sup.mode(), SupervisorMode::Engaged);
        assert_eq!(sup.log().rejected_cost_samples, 0);
    }

    #[test]
    fn nan_cost_is_replaced_not_forwarded() {
        let mut sup = supervised();
        for k in 0..5 {
            let d = sup.on_period(&snap(k, 400, Some(f64::NAN), Some(1900.0)));
            assert!(d.entry_drop_prob.is_finite());
        }
        assert_eq!(sup.log().rejected_cost_samples, 5);
        assert_eq!(sup.mode(), SupervisorMode::Engaged);
    }

    #[test]
    fn outlier_cost_is_rejected() {
        let mut sup = supervised();
        let _ = sup.on_period(&snap(0, 400, Some(5105.0), Some(1900.0)));
        // 100× collapse: rejected; last good (5105) substituted.
        let _ = sup.on_period(&snap(1, 400, Some(51.0), Some(1900.0)));
        assert_eq!(sup.log().rejected_cost_samples, 1);
        // Cost tracker still near the real value, not the outlier.
        let last = sup.inner().signals().last().unwrap();
        assert!(last.cost_us > 4000.0, "cost {}", last.cost_us);
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
        assert_eq!(sup.mode(), SupervisorMode::Hold);
        let _ = sup.on_period(&snap(k, 2000, None, None));
        assert_eq!(sup.mode(), SupervisorMode::Fallback);
        assert_eq!(sup.log().held_periods, 5);
    }

    #[test]
    fn short_dropout_resumes_engaged() {
        let mut sup = supervised();
        let _ = sup.on_period(&snap(0, 400, Some(5105.0), Some(1900.0)));
        let _ = sup.on_period(&snap(1, 400, None, None));
        assert_eq!(sup.mode(), SupervisorMode::Hold);
        let _ = sup.on_period(&snap(2, 400, Some(5105.0), Some(1900.0)));
        assert_eq!(sup.mode(), SupervisorMode::Engaged);
    }

    #[test]
    fn persistent_overshoot_trips_the_watchdog() {
        let mut sup = supervised();
        // Frozen small queue (the controller thinks all is well) but the
        // true delay climbs far past the 2 s target.
        for k in 0..10 {
            let _ = sup.on_period(&snap(k, 10, Some(5105.0), Some(8000.0 + 500.0 * k as f64)));
        }
        assert_eq!(sup.mode(), SupervisorMode::Fallback);
        assert!(sup.log().divergence_trips >= 1);
        // The fallback sheds aggressively: fin 400 » capacity 190.
        let d = sup.on_period(&snap(10, 10, Some(5105.0), Some(9000.0)));
        assert!(d.entry_drop_prob > 0.3, "alpha {}", d.entry_drop_prob);
    }

    #[test]
    fn recovers_and_reengages_after_healthy_window() {
        let mut sup = supervised();
        for k in 0..10 {
            let _ = sup.on_period(&snap(k, 10, Some(5105.0), Some(9000.0)));
        }
        assert_eq!(sup.mode(), SupervisorMode::Fallback);
        // Signals recover: delay back at target, cost valid.
        for k in 10..30 {
            let _ = sup.on_period(&snap(k, 300, Some(5105.0), Some(1800.0)));
        }
        assert_eq!(sup.mode(), SupervisorMode::Engaged);
        assert_eq!(sup.log().reengagements, 1);
        // The transitions were recorded in order.
        let modes: Vec<_> = sup.events().iter().map(|e| e.entered).collect();
        assert_eq!(
            modes,
            vec![SupervisorMode::Fallback, SupervisorMode::Engaged]
        );
        // And surface in telemetry terms for the observability plane,
        // with the period indices preserved.
        let diag = sup.diagnostic_events();
        assert_eq!(diag.len(), 2);
        assert_eq!(diag[0].1, LoopMode::Fallback);
        assert_eq!(diag[1].1, LoopMode::Engaged);
        assert_eq!(diag[0].0, sup.events()[0].k);
        assert!(diag[0].0 < diag[1].0, "transition order preserved");
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
        assert_eq!(sup.mode(), SupervisorMode::Fallback);
        assert!(
            (d.entry_drop_prob - prev).abs() <= sup.cfg.max_alpha_step + 1e-12,
            "first fallback step {} from {prev}",
            d.entry_drop_prob
        );
        // Subsequent periods keep climbing monotonically toward the
        // open-loop factor.
        prev = d.entry_drop_prob;
        for k in 7..12 {
            let d = sup.on_period(&snap(k, 10, Some(5105.0), Some(9000.0)));
            assert!(d.entry_drop_prob >= prev);
            assert!(d.entry_drop_prob - prev <= sup.cfg.max_alpha_step + 1e-12);
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
        }
        assert!(sup.log().rejected_cost_samples > 0);
        assert!(sup.log().rejected_delay_samples > 0);
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
    fn named_and_delegating() {
        let sup = supervised();
        assert_eq!(sup.name(), "SUPERVISED");
        assert!(sup.signals().is_empty());
    }
}
