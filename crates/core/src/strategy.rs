//! The three load-shedding strategies evaluated in §5:
//!
//! * [`CtrlStrategy`] — the paper's contribution: virtual-queue delay
//!   estimation + pole-placement feedback controller;
//! * [`BaselineStrategy`] — model-based feedback heuristic
//!   (`v(k) = −q(k) + yd·H/c + T·H/c`), "used to test the importance of
//!   controller design";
//! * [`AuroraStrategy`] — the open-loop Aurora/Borealis load shedder of
//!   Fig. 1 (`shed L − L0` whenever measured load exceeds capacity).
//!
//! All three implement the engine's [`ControlHook`] and keep their latest
//! period's [`ControlState`] for telemetry; the per-period history is the
//! engine's `ControlTrace` log.

use crate::controller::FeedbackController;
use crate::estimator::{CostEstimator, DelayEstimator};
use crate::loop_::{LoopConfig, ShedMode};
use crate::shedder::{EntryShedder, NetworkShedder};
use streamshed_engine::hook::{ControlHook, Decision, NoShedding, PeriodSnapshot};
use streamshed_engine::telemetry::{ControlState, InstrumentedHook, LoopMode};

/// The period's signals of a strategy steering `ŷ` to `target_s` alone
/// (`Direct` mode; a supervisor overrides the mode).
fn direct_state(target_s: f64, y_hat_s: f64, u_tps: f64, cost_est_us: f64) -> ControlState {
    ControlState {
        y_hat_s,
        error_s: target_s - y_hat_s,
        u_tps,
        cost_est_us,
        mode: LoopMode::Direct,
        fault_flags: 0,
        target_delay_s: target_s,
    }
}

/// A load-shedding strategy: an instrumented hook whose delay target can
/// move at runtime. Its latest period's signals are its
/// [`InstrumentedHook::control_state`].
pub trait SheddingStrategy: InstrumentedHook {
    /// Changes the delay target at runtime (the Fig. 18 experiment).
    /// Open-loop strategies have no target, so the default ignores it.
    fn set_target_delay_s(&mut self, yd_s: f64) {
        let _ = yd_s;
    }
}

/// Admitting everything is the strategy of identification runs.
impl SheddingStrategy for NoShedding {}

// ---------------------------------------------------------------------------
// CTRL
// ---------------------------------------------------------------------------

/// The control-theoretic strategy (the paper's CTRL system): each
/// period (Fig. 3, Eq. 10) it tracks `c(k)`, estimates `ŷ(k)` from the
/// virtual queue, computes `u(k)`, turns `v = u + fout` into the
/// actuation, and keeps the period's signals.
#[derive(Debug, Clone)]
pub struct CtrlStrategy {
    cfg: LoopConfig,
    cost: CostEstimator,
    delay: DelayEstimator,
    controller: FeedbackController,
    target_s: f64,
    last: Option<ControlState>,
}

impl CtrlStrategy {
    /// Builds the strategy from a loop configuration.
    pub fn from_config(cfg: &LoopConfig) -> Self {
        Self {
            cost: CostEstimator::new(cfg.prior_cost_us),
            delay: DelayEstimator::new(cfg.headroom),
            controller: FeedbackController::new(cfg.controller),
            target_s: cfg.target_delay_s(),
            last: None,
            cfg: cfg.clone(),
        }
    }

    /// Paper-default CTRL (yd = 2 s, T = 1 s, published tuning).
    pub fn paper_default() -> Self {
        Self::from_config(&LoopConfig::paper_default())
    }

    /// The active target, seconds.
    pub fn target_delay_s(&self) -> f64 {
        self.target_s
    }
}

impl ControlHook for CtrlStrategy {
    fn on_period(&mut self, snap: &PeriodSnapshot) -> Decision {
        let period_s = snap.period.as_secs_f64();
        let c_us = self.cost.update(snap.measured_cost_us);
        // ŷ from the virtual queue (Eq. 11) — never from true delays.
        let y_hat = self.delay.estimate_delay_s(snap.outstanding, c_us);

        let e = self.target_s - y_hat;
        let h = self.cfg.headroom;
        let u = self.controller.compute(e, c_us / 1e6, period_s, h);
        let fout = snap.fout_rate();
        let v = u + fout;
        let fin = snap.fin_rate();
        // Actuator saturation: can admit at most what arrives, at least 0.
        let v_applied = v.clamp(0.0, fin.max(0.0));
        // Anti-windup: store the saturated control effort (the raw one
        // when the ablation disables back-calculation).
        let committed = if self.cfg.anti_windup { v_applied - fout } else { u };
        self.controller.commit(e, committed);

        let decision = match self.cfg.shed_mode {
            ShedMode::Entry => Decision::entry(EntryShedder::alpha_for(v, fin)),
            ShedMode::Network => Decision::network(NetworkShedder::load_to_shed_us(
                snap.queued_load_us,
                fin,
                v,
                c_us,
                period_s,
            )),
        };
        self.last = Some(direct_state(self.target_s, y_hat, u, c_us));
        decision
    }
}

impl SheddingStrategy for CtrlStrategy {
    fn set_target_delay_s(&mut self, yd_s: f64) {
        assert!(yd_s > 0.0);
        self.target_s = yd_s;
    }
}

impl InstrumentedHook for CtrlStrategy {
    fn control_state(&self) -> Option<ControlState> {
        self.last
    }
}

// ---------------------------------------------------------------------------
// BASELINE
// ---------------------------------------------------------------------------

/// The simple model-based feedback heuristic of §5.
///
/// The target `yd` permits `yd·H/c` outstanding tuples, so
/// `u(k) = yd·H/c − q(k)` more may be added; with the departures
/// `fout·T = T·H/c` (at capacity), the desired per-period admission is
/// `v(k) = −q(k) + yd·H/c + T·H/c` tuples. `c(k)` is estimated by the
/// previous period's measurement.
#[derive(Debug, Clone)]
pub struct BaselineStrategy {
    target_s: f64,
    headroom: f64,
    last_cost_us: f64,
    shed_mode: ShedMode,
    last: Option<ControlState>,
}

impl BaselineStrategy {
    /// Builds the strategy from a loop configuration.
    pub fn from_config(cfg: &LoopConfig) -> Self {
        Self {
            target_s: cfg.target_delay_s(),
            headroom: cfg.headroom,
            last_cost_us: cfg.prior_cost_us,
            shed_mode: cfg.shed_mode,
            last: None,
        }
    }
}

impl ControlHook for BaselineStrategy {
    fn on_period(&mut self, snap: &PeriodSnapshot) -> Decision {
        let period_s = snap.period.as_secs_f64();
        // c(k) ≈ c(k−1): raw last measurement, no smoothing (the paper's
        // BASELINE applies the model rules directly).
        if let Some(m) = snap.measured_cost_us {
            if m.is_finite() && m > 0.0 {
                self.last_cost_us = m;
            }
        }
        let c_s = self.last_cost_us / 1e6;
        let h = self.headroom;

        // v(k) in tuples per period, then as a rate.
        let q = snap.outstanding as f64;
        let v_tuples = -q + self.target_s * h / c_s + period_s * h / c_s;
        let v_tps = v_tuples / period_s;
        let fin = snap.fin_rate();

        let decision = match self.shed_mode {
            ShedMode::Entry => Decision::entry(EntryShedder::alpha_for(v_tps, fin)),
            ShedMode::Network => Decision::network(NetworkShedder::load_to_shed_us(
                snap.queued_load_us,
                fin,
                v_tps,
                self.last_cost_us,
                period_s,
            )),
        };
        let y_hat = (q + 1.0) * c_s / h;
        self.last = Some(direct_state(self.target_s, y_hat, f64::NAN, self.last_cost_us));
        decision
    }
}

impl SheddingStrategy for BaselineStrategy {
    fn set_target_delay_s(&mut self, yd_s: f64) {
        assert!(yd_s > 0.0);
        self.target_s = yd_s;
    }
}

impl InstrumentedHook for BaselineStrategy {
    fn control_state(&self) -> Option<ControlState> {
        self.last
    }
}

// ---------------------------------------------------------------------------
// AURORA
// ---------------------------------------------------------------------------

/// The open-loop Aurora/Borealis shedder (Fig. 1).
///
/// Every period: measured load `L = fin(k−1)`; if `L > L0` shed `L − L0`,
/// else admit `L0 − L` more. `L0 = H/c(k−1)` (capacity). System state —
/// queue length, delays — plays no role; that is the point of §4.3.2.
#[derive(Debug, Clone)]
pub struct AuroraStrategy {
    headroom_for_l0: f64,
    last_cost_us: f64,
    last: Option<ControlState>,
}

impl AuroraStrategy {
    /// Builds the strategy; `headroom_for_l0` is the `H` in `L0 = H/c`
    /// (Fig. 16 retunes it to 0.96).
    pub fn new(headroom_for_l0: f64, prior_cost_us: f64) -> Self {
        assert!(headroom_for_l0 > 0.0 && headroom_for_l0 <= 1.0);
        assert!(prior_cost_us > 0.0);
        Self {
            headroom_for_l0,
            last_cost_us: prior_cost_us,
            last: None,
        }
    }

    /// Builds the strategy from a loop configuration (uses the loop's `H`).
    pub fn from_config(cfg: &LoopConfig) -> Self {
        Self::new(cfg.headroom, cfg.prior_cost_us)
    }
}

impl ControlHook for AuroraStrategy {
    fn on_period(&mut self, snap: &PeriodSnapshot) -> Decision {
        if let Some(m) = snap.measured_cost_us {
            if m.is_finite() && m > 0.0 {
                self.last_cost_us = m;
            }
        }
        let c_s = self.last_cost_us / 1e6;
        let l0 = self.headroom_for_l0 / c_s; // tuples/s
        let l = snap.fin_rate();
        let alpha = if l > l0 { 1.0 - l0 / l } else { 0.0 };
        // Open loop: no estimate, error or controller output to report.
        self.last = Some(ControlState {
            cost_est_us: self.last_cost_us,
            ..ControlState::default()
        });
        Decision::entry(alpha)
    }
}

impl SheddingStrategy for AuroraStrategy {}

impl InstrumentedHook for AuroraStrategy {
    fn control_state(&self) -> Option<ControlState> {
        self.last
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamshed_engine::time::{secs, SimTime};

    fn snap(k: u64, offered: u64, outstanding: u64, cost_us: Option<f64>) -> PeriodSnapshot {
        PeriodSnapshot {
            k,
            now: SimTime::ZERO + secs(k + 1),
            period: secs(1),
            offered,
            admitted: offered,
            dropped_entry: 0,
            dropped_network: 0,
            completed: 180,
            outstanding,
            queued_tuples: outstanding,
            queued_load_us: outstanding as f64 * 5105.0,
            measured_cost_us: cost_us,
            mean_delay_ms: None,
            cpu_busy_us: 950_000,
        }
    }

    #[test]
    fn ctrl_sheds_nothing_when_under_target() {
        let mut s = CtrlStrategy::paper_default();
        assert!(s.control_state().is_none(), "no state before first period");
        // q = 10 → ŷ ≈ 58 ms « 2 s target: no shedding.
        let d = s.on_period(&snap(0, 150, 10, Some(5105.0)));
        assert_eq!(d.entry_drop_prob, 0.0);
        let state = s.control_state().expect("one period logged");
        assert!(state.error_s > 1.5);
        assert_eq!(state.error_s, 2.0 - state.y_hat_s);
        assert_eq!((state.mode, state.fault_flags), (LoopMode::Direct, 0));
    }

    #[test]
    fn ctrl_sheds_when_far_over_target() {
        let mut s = CtrlStrategy::paper_default();
        // q = 2000 → ŷ ≈ 10.5 s » 2 s target: strong shedding.
        let d = s.on_period(&snap(0, 400, 2000, Some(5105.0)));
        assert!(d.entry_drop_prob > 0.5, "alpha {}", d.entry_drop_prob);
    }

    #[test]
    fn ctrl_alpha_moderates_near_target() {
        let mut s = CtrlStrategy::paper_default();
        // q ≈ q* = 368: v should be near capacity, shed share near the
        // overload fraction.
        let d = s.on_period(&snap(0, 400, 368, Some(5105.0)));
        assert!(
            d.entry_drop_prob > 0.2 && d.entry_drop_prob < 0.8,
            "alpha {}",
            d.entry_drop_prob
        );
    }

    #[test]
    fn ctrl_network_mode_emits_load() {
        let cfg = LoopConfig::paper_default().with_shed_mode(ShedMode::Network);
        let mut s = CtrlStrategy::from_config(&cfg);
        let d = s.on_period(&snap(0, 400, 2000, Some(5105.0)));
        assert_eq!(d.entry_drop_prob, 0.0);
        assert!(d.shed_load_us > 0.0);
    }

    #[test]
    fn ctrl_tracks_cost_changes() {
        let mut s = CtrlStrategy::paper_default();
        for k in 0..20 {
            let _ = s.on_period(&snap(k, 200, 100, Some(10_000.0)));
        }
        let cost = s.control_state().unwrap().cost_est_us;
        assert!((cost - 10_000.0).abs() < 200.0, "{cost}");
    }

    #[test]
    fn baseline_matches_model_formula() {
        let cfg = LoopConfig::paper_default();
        let mut s = BaselineStrategy::from_config(&cfg);
        let snapshot = snap(0, 400, 100, Some(5105.0));
        let d = s.on_period(&snapshot);
        // v = (−q + yd·H/c + T·H/c)/T = −100 + 380 + 190 = 470 t/s > fin
        // → no shedding.
        assert_eq!(d.entry_drop_prob, 0.0);
        // With a huge queue, v goes negative → full shedding.
        let d2 = s.on_period(&snap(1, 400, 5000, Some(5105.0)));
        assert_eq!(d2.entry_drop_prob, 1.0);
    }

    #[test]
    fn aurora_is_open_loop_in_queue() {
        let mut s = AuroraStrategy::new(0.97, 5105.0);
        // Same fin, wildly different queues → identical decision.
        let d1 = s.on_period(&snap(0, 400, 0, Some(5105.0)));
        let d2 = s.on_period(&snap(1, 400, 100_000, Some(5105.0)));
        assert!((d1.entry_drop_prob - d2.entry_drop_prob).abs() < 1e-12);
        // α = 1 − L0/L ≈ 1 − 190/400 (L0 from the measured cost).
        assert!((d1.entry_drop_prob - (1.0 - 190.0 / 400.0)).abs() < 1e-3);
    }

    #[test]
    fn aurora_admits_all_under_capacity() {
        let mut s = AuroraStrategy::new(0.97, 5105.0);
        let d = s.on_period(&snap(0, 150, 50, Some(5105.0)));
        assert_eq!(d.entry_drop_prob, 0.0);
    }

    #[test]
    fn aurora_lower_h_sheds_more() {
        let mut a97 = AuroraStrategy::new(0.97, 5105.0);
        let mut a96 = AuroraStrategy::new(0.96, 5105.0);
        let s0 = snap(0, 400, 0, Some(5105.0));
        assert!(
            a96.on_period(&s0).entry_drop_prob > a97.on_period(&s0).entry_drop_prob
        );
    }

    #[test]
    fn runtime_target_change() {
        let mut s = CtrlStrategy::paper_default();
        assert_eq!(s.target_delay_s(), 2.0);
        s.set_target_delay_s(5.0);
        assert_eq!(s.target_delay_s(), 5.0);
        // With yd = 5 s and q = 368 (ŷ ≈ 2 s) there is slack: the loop
        // admits *more* than capacity to grow the queue toward the new
        // target, so it sheds less than it would at yd = 2 s.
        let d5 = s.on_period(&snap(0, 400, 368, Some(5105.0)));
        let mut s2 = CtrlStrategy::paper_default();
        let d2 = s2.on_period(&snap(0, 400, 368, Some(5105.0)));
        assert!(
            d5.entry_drop_prob < d2.entry_drop_prob,
            "relaxed target sheds less: {} vs {}",
            d5.entry_drop_prob,
            d2.entry_drop_prob
        );
    }
}
