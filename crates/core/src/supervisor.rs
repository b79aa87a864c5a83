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
//! * **the loop's health verdict** — the supervisor judges no trajectory
//!   itself: the loop's one classifier
//!   ([`ControllerHealth`](streamshed_engine::diagnostics::ControllerHealth))
//!   judges every period in the engine's control step, which hands the
//!   verdict over through [`InstrumentedHook::on_verdict`] and records it
//!   as the trace's `health` column. The supervisor acts on it one
//!   period later, so `/health`, the flight recorder and the campaign
//!   see the verdict it acted on.
//! * **safe fallback** — on a `Diverging` verdict or prolonged dropout
//!   the supervisor switches to open-loop capacity matching
//!   (Aurora-style): `α = 1 − (1 − trim)·(H/c)/fin`, where a bang-bang
//!   trim from the true delay scales the capacity it admits between
//!   150 % and 10 %. Scaling capacity, not `α`, keeps a trim earned at
//!   low load from flooding the shard when a burst multiplies `fin`, and
//!   never shedding everything keeps the delay it steers on measured.
//!   In fallback, and for `RECOVERY_PERIODS` after a mode switch, the
//!   shed factor rises at once but falls by at most `MAX_ALPHA_STEP` per
//!   period: over-shedding costs a period's goodput, over-admission a
//!   backlog that takes many periods to drain.
//! * **supervised re-engagement** — after `RECOVERY_PERIODS` (10)
//!   consecutive `Healthy` verdicts on periods whose cost sample was
//!   valid, the inner strategy is rebuilt from its pristine state
//!   (controller history cleared) and re-engaged on the next period,
//!   again rate-limited.
//!
//! Whatever mode it is in, the supervisor's output is always sanitised:
//! the entry-drop probability is finite and in `[0, 1]`, the in-network
//! shed load finite and non-negative.

use crate::loop_::LoopConfig;
use crate::strategy::SheddingStrategy;
use streamshed_engine::diagnostics::HealthState;
use streamshed_engine::hook::{ControlHook, Decision, PeriodSnapshot};
use streamshed_engine::telemetry::{ControlState, InstrumentedHook, LoopMode};

/// Periods to hold the last actuation on sensor dropout before falling
/// back.
pub const MAX_STALE_PERIODS: u64 = 5;
/// A cost sample further than this factor from the last accepted one (in
/// either direction) is rejected as an outlier.
const COST_OUTLIER_FACTOR: f64 = 8.0;
/// Consecutive `Healthy` verdicts with valid cost samples required
/// before re-engaging the inner strategy; also the length of the
/// rate-limited ramp after a mode switch.
pub const RECOVERY_PERIODS: u64 = 10;
/// Maximum fall of the shed factor per period while in fallback or
/// ramping after a mode switch; also the fallback trim's step.
const MAX_ALPHA_STEP: f64 = 0.1;

/// Wraps a strategy with validation, fallback, and recovery. See the
/// module docs.
#[derive(Debug, Clone)]
pub struct Supervisor<S> {
    inner: S,
    /// A pristine copy used to reset controller state on re-engagement.
    pristine: S,
    /// Delay target `yd`, seconds (the fallback trim).
    target_s: f64,
    /// Headroom factor `H` (the open-loop fallback capacity).
    headroom: f64,
    /// `Engaged` (the inner strategy acts), `Hold` (sensor dropout: the
    /// last actuation is held) or `Fallback` (the open-loop fallback
    /// acts); never `Direct`.
    mode: LoopMode,
    stale_periods: u64,
    last_good_cost_us: f64,
    /// Whether this period's cost sample arrived and was accepted.
    cost_valid: bool,
    last_alpha: f64,
    last_applied: Decision,
    /// The loop's verdict on the previous period.
    verdict: HealthState,
    /// Consecutive fallback periods judged `Healthy` with a valid cost
    /// sample.
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
            cost_valid: false,
            last_alpha: 0.0,
            last_applied: Decision::NONE,
            verdict: HealthState::Healthy,
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

    /// The open-loop fallback decision: admit the capacity, scaled by the
    /// trim, which the true delay moves when one is available.
    fn fallback_decision(&mut self, snap: &PeriodSnapshot, delay_ms: Option<f64>) -> Decision {
        if let Some(d_ms) = delay_ms {
            let d_s = d_ms / 1e3;
            if d_s > self.target_s {
                self.fallback_trim += MAX_ALPHA_STEP;
            } else if d_s < 0.5 * self.target_s {
                self.fallback_trim -= MAX_ALPHA_STEP;
            }
            // Admit between 150 % and 10 % of capacity.
            self.fallback_trim = self.fallback_trim.clamp(-0.5, 0.9);
        }
        let fin = snap.fin_rate();
        if fin <= f64::EPSILON || !fin.is_finite() {
            return Decision::entry(0.0);
        }
        let admit_tps = (1.0 - self.fallback_trim) * self.headroom / (self.last_good_cost_us / 1e6);
        Decision::entry((1.0 - admit_tps / fin).clamp(0.0, 1.0))
    }

    /// Clamps a decision into its valid domain; with `rate_limit` the
    /// shed factor falls by at most `MAX_ALPHA_STEP` (it may rise at once).
    fn sanitise(&mut self, mut d: Decision, rate_limit: bool) -> Decision {
        if !d.entry_drop_prob.is_finite() {
            d.entry_drop_prob = self.last_alpha;
        } else {
            d.entry_drop_prob = d.entry_drop_prob.clamp(0.0, 1.0);
        }
        if rate_limit {
            d.entry_drop_prob = d.entry_drop_prob.max(self.last_alpha - MAX_ALPHA_STEP);
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
        self.cost_valid = cost.is_some() && cost == snap.measured_cost_us;
        let delay_ms = Self::validate_delay(snap.mean_delay_ms);

        if self.mode != LoopMode::Fallback {
            if cost.is_none() {
                if self.stale_periods > MAX_STALE_PERIODS {
                    self.transition(LoopMode::Fallback);
                } else {
                    // Hold the last actuation through the dropout.
                    self.transition(LoopMode::Hold);
                    return self.sanitise(self.last_applied, false);
                }
            } else if self.verdict == HealthState::Diverging {
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
        if self.healthy_streak >= RECOVERY_PERIODS {
            // Re-engage with a pristine controller; the decision this
            // period already comes from the inner strategy again.
            self.inner = self.pristine.clone();
            self.transition(LoopMode::Engaged);
            let mut sanitised = *snap;
            sanitised.measured_cost_us = cost;
            sanitised.mean_delay_ms = delay_ms;
            let d = self.inner.on_period(&sanitised);
            return self.sanitise(d, true);
        }
        let d = self.fallback_decision(snap, delay_ms);
        self.sanitise(d, true)
    }
}

impl<S: SheddingStrategy + Clone> InstrumentedHook for Supervisor<S> {
    /// The supervised loop's state for telemetry.
    ///
    /// The mode and the target are the supervisor's. While engaged, the
    /// inner strategy's signals are reported verbatim; in hold or
    /// fallback the inner loop is not consulted, so `y_hat_s`/`error_s`/
    /// `u_tps` are NaN and only the last good cost estimate is carried
    /// through.
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
        st.target_delay_s = self.target_s;
        Some(st)
    }

    /// Keeps the verdict for the next period, and counts it toward
    /// re-engagement while in fallback.
    fn on_verdict(&mut self, verdict: HealthState) {
        self.verdict = verdict;
        let counts =
            self.mode == LoopMode::Fallback && verdict == HealthState::Healthy && self.cost_valid;
        self.healthy_streak = if counts { self.healthy_streak + 1 } else { 0 };
    }
}

impl<S: SheddingStrategy + Clone> SheddingStrategy for Supervisor<S> {
    /// Moves the fallback trim and the inner strategy to the new target —
    /// the pristine copy too, so a re-engagement after fallback keeps it.
    /// The target is reported in every mode, so the loop's classifier
    /// judges the next period against it too.
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
    use std::time::Duration;
    use streamshed_engine::diagnostics::{ControllerHealth, DiagnosticsConfig};
    use streamshed_engine::telemetry::control_step;
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

    /// The supervised loop as the simulator runs it: every period goes
    /// through `control_step`, judged by the loop's one classifier.
    struct Judged {
        sup: Supervisor<CtrlStrategy>,
        health: ControllerHealth,
    }

    impl Judged {
        fn new(target_s: u64) -> Self {
            let health = DiagnosticsConfig::for_simulation(Duration::from_secs(target_s));
            Self { sup: supervised(), health: ControllerHealth::new(health) }
        }

        fn step(&mut self, s: &PeriodSnapshot) -> Decision {
            let health = &mut self.health;
            control_step(&mut self.sup, s, |t, yd| health.judge(t, yd)).0
        }
    }

    #[test]
    fn transparent_when_healthy() {
        let mut judged = Judged::new(2);
        let mut raw = CtrlStrategy::paper_default();
        for k in 0..10 {
            let s = snap(k, 400, Some(5105.0), Some(1900.0));
            let a = judged.step(&s);
            let b = raw.on_period(&s);
            assert!((a.entry_drop_prob - b.entry_drop_prob).abs() < 1e-12);
        }
        let sup = &judged.sup;
        assert_eq!(sup.mode(), LoopMode::Engaged);
        assert_eq!(judged.health.state(), HealthState::Healthy);
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
        // A Diverging verdict sends the loop to its fallback on the next
        // period, and only then.
        let mut sup = supervised();
        let _ = sup.on_period(&snap(0, 400, Some(5105.0), Some(1900.0)));
        sup.on_verdict(HealthState::Diverging);
        assert_eq!(sup.mode(), LoopMode::Engaged, "the verdict acts next period");
        let _ = sup.on_period(&snap(1, 400, Some(5105.0), Some(1900.0)));
        assert_eq!(sup.mode(), LoopMode::Fallback);

        // End to end: a frozen small queue (the controller thinks all is
        // well) while the true delay climbs far past the 2 s target. The
        // classifier calls the loop blind on its second such period.
        let mut judged = Judged::new(2);
        for k in 0..3 {
            let _ = judged.step(&snap(k, 10, Some(5105.0), Some(8000.0 + 500.0 * k as f64)));
            let want = if k < 2 { LoopMode::Engaged } else { LoopMode::Fallback };
            assert_eq!(judged.sup.mode(), want, "k={k}");
        }
        // The fallback sheds aggressively: fin 400 » capacity 190.
        let d = judged.step(&snap(3, 10, Some(5105.0), Some(9000.0)));
        assert!(d.entry_drop_prob > 0.3, "alpha {}", d.entry_drop_prob);
    }

    #[test]
    fn recovers_and_reengages_after_healthy_window() {
        let mut judged = Judged::new(2);
        let mut transitions = Vec::new();
        let mut mode = judged.sup.mode();
        for k in 0..30 {
            // The true delay sits far over target for ten periods, then
            // the signals recover: delay back at target, cost valid.
            let s = if k < 10 {
                snap(k, 10, Some(5105.0), Some(9000.0))
            } else {
                snap(k, 300, Some(5105.0), Some(1800.0))
            };
            let _ = judged.step(&s);
            if judged.sup.mode() != mode {
                mode = judged.sup.mode();
                transitions.push((k, mode));
            }
        }
        // Blind at k = 0 and 1, so Diverging at 1 and fallback at 2; the
        // tenth Healthy verdict (k = 19) re-engages at 20.
        assert_eq!(
            transitions,
            vec![(2, LoopMode::Fallback), (20, LoopMode::Engaged)]
        );
    }

    #[test]
    fn reengagement_counts_only_healthy_verdicts_with_valid_cost() {
        let mut sup = supervised();
        let _ = sup.on_period(&snap(0, 400, Some(5105.0), Some(1900.0)));
        sup.on_verdict(HealthState::Diverging);
        let mut k = 1;
        let mut period = |sup: &mut Supervisor<CtrlStrategy>, cost, verdict| {
            let _ = sup.on_period(&snap(k, 300, cost, Some(1800.0)));
            sup.on_verdict(verdict);
            k += 1;
        };
        period(&mut sup, Some(5105.0), HealthState::Healthy);
        assert_eq!(sup.mode(), LoopMode::Fallback);
        // Nine healthy verdicts, then one on a NaN cost sample and one
        // Settling: each restarts the count.
        for _ in 0..8 {
            period(&mut sup, Some(5105.0), HealthState::Healthy);
        }
        period(&mut sup, Some(f64::NAN), HealthState::Healthy);
        for _ in 0..9 {
            period(&mut sup, Some(5105.0), HealthState::Healthy);
        }
        period(&mut sup, Some(5105.0), HealthState::Settling);
        assert_eq!(sup.mode(), LoopMode::Fallback);
        for _ in 0..10 {
            period(&mut sup, Some(5105.0), HealthState::Healthy);
        }
        assert_eq!(sup.mode(), LoopMode::Fallback, "acts on the next period");
        period(&mut sup, Some(5105.0), HealthState::Healthy);
        assert_eq!(sup.mode(), LoopMode::Engaged);
    }

    #[test]
    fn fallback_output_is_rate_limited() {
        // Only toward admitting: the fallback sheds at once and admits
        // gradually. A healthy period first, then a persistently huge
        // true delay the frozen-queue controller cannot see.
        let mut judged = Judged::new(2);
        let prev = judged.step(&snap(0, 10, Some(5105.0), Some(100.0))).entry_drop_prob;
        let mut k = 1;
        let first = loop {
            let d = judged.step(&snap(k, 10, Some(5105.0), Some(9000.0))).entry_drop_prob;
            k += 1;
            if judged.sup.mode() == LoopMode::Fallback {
                break d;
            }
        };
        assert_eq!(k, 4, "blind at 1 and 2, fallback at 3");
        // First fallback period: the delay is over target, so the trim
        // admits 90 % of the 190 tuples/s capacity out of fin = 400 —
        // at once, however far that is from the engaged loop's α.
        let open_loop = 1.0 - 0.9 * 190.0 / 400.0;
        assert!((first - open_loop).abs() < 0.01, "first fallback α {first}");
        assert!(first - prev > MAX_ALPHA_STEP, "{prev} → {first} in one step");
        // A tenfold burst: the fallback sheds it at once.
        let mut burst = snap(4, 10, Some(5105.0), Some(9000.0));
        burst.offered = 4000;
        let peak = judged.step(&burst).entry_drop_prob;
        assert!(peak > 0.95, "burst α {peak}");
        // The burst passes: α falls back towards ≈ 0.7 one step per period.
        let mut prev = peak;
        for k in 5..7 {
            let d = judged.step(&snap(k, 10, Some(5105.0), Some(9000.0))).entry_drop_prob;
            assert!((prev - d - MAX_ALPHA_STEP).abs() < 1e-12, "k={k}: {prev} → {d}");
            prev = d;
        }
        // However long the delay stays high, the trim stops at admitting
        // 10 % of capacity: the fallback never sheds every tuple.
        for k in 7..40 {
            prev = judged.step(&snap(k, 10, Some(5105.0), Some(9000.0))).entry_drop_prob;
        }
        assert!((prev - (1.0 - 0.1 * 190.0 / 400.0)).abs() < 0.01, "floor α {prev}");
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
        // The engine judges the loop against its 2 s target until the
        // target moves to 5 s at runtime, in the middle of a fallback.
        let mut judged = Judged::new(2);
        // A sensor dropout forces the fallback whatever the target.
        let _ = judged.step(&snap(0, 400, Some(5105.0), Some(1900.0)));
        for k in 1..=6 {
            let _ = judged.step(&snap(k, 400, None, None));
        }
        assert_eq!(judged.sup.mode(), LoopMode::Fallback);
        judged.sup.set_target_delay_s(5.0);
        // A 5.2 s true delay is healthy only against the new 5 s target
        // (the 2 s target's band ends at 3.5 s): the fallback re-engages.
        for k in 7..30 {
            let _ = judged.step(&snap(k, 900, Some(5105.0), Some(5200.0)));
        }
        assert_eq!(judged.sup.mode(), LoopMode::Engaged);
        assert_eq!(judged.health.snapshot().target_delay_s, 5.0);
        // The re-engaged inner strategy came from the pristine copy, and
        // measures its error against the new target.
        let st = judged.sup.control_state().unwrap();
        assert_eq!(st.error_s, 5.0 - st.y_hat_s);
    }
}
