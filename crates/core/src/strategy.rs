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
//! All three implement the engine's [`ControlHook`] and log their internal
//! signals for the transient plots. CTRL and both self-tuners
//! ([`crate::adaptive`]) run one copy of the Eq. 10 step, `Eq10Law`.

use crate::controller::FeedbackController;
use crate::estimator::{CostEstimator, DelayEstimator};
use crate::loop_::{LoopConfig, ShedMode, SignalRow};
use crate::shedder::{EntryShedder, NetworkShedder};
use streamshed_engine::hook::{ControlHook, Decision, NoShedding, PeriodSnapshot};
use streamshed_engine::telemetry::{ControlState, InstrumentedHook, LoopMode};
use streamshed_zdomain::design::ControllerParams;

/// Maps a strategy's most recent [`SignalRow`] to the engine's
/// telemetry [`ControlState`] (strategies acting alone run `Direct`).
fn state_from_signals(signals: &[SignalRow]) -> Option<ControlState> {
    signals.last().map(|r| ControlState {
        y_hat_s: r.y_hat_s,
        error_s: r.error_s,
        u_tps: r.u_tps,
        cost_est_us: r.cost_us,
        mode: LoopMode::Direct,
        fault_flags: 0,
    })
}

/// A named load-shedding strategy.
pub trait SheddingStrategy: InstrumentedHook {
    /// Display name for experiment output ("CTRL", "BASELINE", "AURORA").
    fn name(&self) -> &'static str;

    /// Internal signal log, one row per period.
    fn signals(&self) -> &[SignalRow];

    /// Returns `true` (and clears the flag) when the strategy re-tuned
    /// its controller since the last call. A supervisor uses this to
    /// rate-limit the actuation for a couple of periods after a
    /// parameter swap — defence in depth on top of the strategy's own
    /// bumpless transfer. Non-adaptive strategies never re-tune.
    fn take_retune(&mut self) -> bool {
        false
    }

    /// Changes the delay target at runtime (the Fig. 18 experiment).
    /// Open-loop strategies have no target, so the default ignores it.
    fn set_target_delay_s(&mut self, yd_s: f64) {
        let _ = yd_s;
    }
}

/// Admitting everything is the strategy of identification runs.
impl SheddingStrategy for NoShedding {
    fn name(&self) -> &'static str {
        "NONE"
    }

    fn signals(&self) -> &[SignalRow] {
        &[]
    }
}

// ---------------------------------------------------------------------------
// The Eq. 10 law
// ---------------------------------------------------------------------------

/// The paper's per-period control step (Fig. 3, Eq. 10), shared by CTRL
/// and the self-tuners: track `c(k)`, estimate `ŷ(k)` from the virtual
/// queue, compute `u(k)`, turn `v = u + fout` into the actuation, and
/// log the period's signals.
#[derive(Debug, Clone)]
pub(crate) struct Eq10Law {
    pub(crate) cfg: LoopConfig,
    cost: CostEstimator,
    delay: DelayEstimator,
    pub(crate) controller: FeedbackController,
    target_s: f64,
    signals: Vec<SignalRow>,
}

impl Eq10Law {
    /// A law for `cfg` whose controller starts at `params`.
    pub(crate) fn new(cfg: &LoopConfig, params: ControllerParams) -> Self {
        Self {
            cost: CostEstimator::new(cfg.prior_cost_us),
            delay: DelayEstimator::new(cfg.headroom),
            controller: FeedbackController::new(params),
            target_s: cfg.target_delay_s(),
            signals: Vec::new(),
            cfg: cfg.clone(),
        }
    }

    pub(crate) fn target_s(&self) -> f64 {
        self.target_s
    }

    pub(crate) fn set_target_delay_s(&mut self, yd_s: f64) {
        assert!(yd_s > 0.0);
        self.target_s = yd_s;
    }

    pub(crate) fn signals(&self) -> &[SignalRow] {
        &self.signals
    }

    pub(crate) fn control_state(&self) -> Option<ControlState> {
        state_from_signals(&self.signals)
    }

    /// Runs one period. `gain_cost` receives the controller (for a
    /// re-tune), the tracked cost `c(k)` in µs and `ŷ(k)`, and returns
    /// the cost the gain `H/(c·T)` uses, in seconds, plus the cost to log,
    /// in µs. Returns the decision and the applied control effort
    /// `v_applied − fout`.
    pub(crate) fn step(
        &mut self,
        snap: &PeriodSnapshot,
        gain_cost: impl FnOnce(&mut FeedbackController, f64, f64) -> (f64, f64),
    ) -> (Decision, f64) {
        let period_s = snap.period.as_secs_f64();
        let c_us = self.cost.update(snap.measured_cost_us);
        // ŷ from the virtual queue (Eq. 11) — never from true delays.
        let y_hat = self.delay.estimate_delay_s(snap.outstanding, c_us);
        let (gain_c_s, logged_cost_us) = gain_cost(&mut self.controller, c_us, y_hat);

        let e = self.target_s - y_hat;
        let h = self.cfg.headroom;
        let u = self.controller.compute(e, gain_c_s, period_s, h);
        let fout = snap.fout_rate();
        let v = u + fout;
        let fin = snap.fin_rate();
        // Actuator saturation: can admit at most what arrives, at least 0.
        let v_applied = v.clamp(0.0, fin.max(0.0));
        let applied_u = v_applied - fout;
        // Anti-windup: store the saturated control effort (the raw one
        // when the ablation disables back-calculation).
        let committed = if self.cfg.anti_windup { applied_u } else { u };
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
        self.signals.push(SignalRow {
            k: snap.k,
            y_hat_s: y_hat,
            error_s: e,
            u_tps: u,
            v_tps: v,
            alpha: decision.entry_drop_prob,
            cost_us: logged_cost_us,
        });
        (decision, applied_u)
    }
}

// ---------------------------------------------------------------------------
// CTRL
// ---------------------------------------------------------------------------

/// The control-theoretic strategy (the paper's CTRL system).
#[derive(Debug, Clone)]
pub struct CtrlStrategy {
    law: Eq10Law,
    /// When set, the loop gain `H/(c·T)` is computed from this cost
    /// forever — a design-time tuning that is never re-derived. The
    /// delay estimate still follows the live cost tracker, so the loop
    /// gain seen by the plant scales with `c_live/c_frozen`: the
    /// textbook gain-mismatch instability the self-tuning plane exists
    /// to prevent.
    gain_cost_us: Option<f64>,
}

impl CtrlStrategy {
    /// Builds the strategy from a loop configuration.
    pub fn from_config(cfg: &LoopConfig) -> Self {
        Self {
            law: Eq10Law::new(cfg, cfg.controller),
            gain_cost_us: None,
        }
    }

    /// Freezes the controller's gain conversion at `cost_us` — the
    /// "fixed tuning" arm of the self-tuning experiments. The delay
    /// estimator keeps using the live cost tracker; only the
    /// seconds-to-rate gain stays pinned at its design-time value, so a
    /// per-tuple cost that doubles doubles the effective loop gain.
    pub fn with_frozen_gain_at(mut self, cost_us: f64) -> Self {
        assert!(cost_us > 0.0 && cost_us.is_finite());
        self.gain_cost_us = Some(cost_us);
        self
    }

    /// Paper-default CTRL (yd = 2 s, T = 1 s, published tuning).
    pub fn paper_default() -> Self {
        Self::from_config(&LoopConfig::paper_default())
    }

    /// The active target, seconds.
    pub fn target_delay_s(&self) -> f64 {
        self.law.target_s()
    }
}

impl ControlHook for CtrlStrategy {
    fn on_period(&mut self, snap: &PeriodSnapshot) -> Decision {
        let (decision, _) = self.law.step(snap, |_, c_us, _| {
            let c_s = c_us / 1e6;
            // Frozen-gain arm: the rate conversion stays at the design cost.
            (self.gain_cost_us.map_or(c_s, |c| c / 1e6), c_us)
        });
        decision
    }
}

impl SheddingStrategy for CtrlStrategy {
    fn name(&self) -> &'static str {
        "CTRL"
    }

    fn signals(&self) -> &[SignalRow] {
        self.law.signals()
    }

    fn set_target_delay_s(&mut self, yd_s: f64) {
        self.law.set_target_delay_s(yd_s);
    }
}

impl InstrumentedHook for CtrlStrategy {
    fn control_state(&self) -> Option<ControlState> {
        self.law.control_state()
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
    signals: Vec<SignalRow>,
}

impl BaselineStrategy {
    /// Builds the strategy from a loop configuration.
    pub fn from_config(cfg: &LoopConfig) -> Self {
        Self {
            target_s: cfg.target_delay_s(),
            headroom: cfg.headroom,
            last_cost_us: cfg.prior_cost_us,
            shed_mode: cfg.shed_mode,
            signals: Vec::new(),
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
        self.signals.push(SignalRow {
            k: snap.k,
            y_hat_s: (q + 1.0) * c_s / h,
            error_s: self.target_s - (q + 1.0) * c_s / h,
            u_tps: f64::NAN,
            v_tps,
            alpha: decision.entry_drop_prob,
            cost_us: self.last_cost_us,
        });
        decision
    }
}

impl SheddingStrategy for BaselineStrategy {
    fn name(&self) -> &'static str {
        "BASELINE"
    }

    fn signals(&self) -> &[SignalRow] {
        &self.signals
    }

    fn set_target_delay_s(&mut self, yd_s: f64) {
        assert!(yd_s > 0.0);
        self.target_s = yd_s;
    }
}

impl InstrumentedHook for BaselineStrategy {
    fn control_state(&self) -> Option<ControlState> {
        state_from_signals(&self.signals)
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
    signals: Vec<SignalRow>,
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
            signals: Vec::new(),
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
        self.signals.push(SignalRow {
            k: snap.k,
            y_hat_s: f64::NAN,
            error_s: f64::NAN,
            u_tps: f64::NAN,
            v_tps: l0.min(l),
            alpha,
            cost_us: self.last_cost_us,
        });
        Decision::entry(alpha)
    }
}

impl SheddingStrategy for AuroraStrategy {
    fn name(&self) -> &'static str {
        "AURORA"
    }

    fn signals(&self) -> &[SignalRow] {
        &self.signals
    }
}

impl InstrumentedHook for AuroraStrategy {
    fn control_state(&self) -> Option<ControlState> {
        state_from_signals(&self.signals)
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
        // q = 10 → ŷ ≈ 58 ms « 2 s target: no shedding.
        let d = s.on_period(&snap(0, 150, 10, Some(5105.0)));
        assert_eq!(d.entry_drop_prob, 0.0);
        assert_eq!(s.name(), "CTRL");
        assert_eq!(s.signals().len(), 1);
        assert!(s.signals()[0].error_s > 1.5);
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
        let last = s.signals().last().unwrap();
        assert!((last.cost_us - 10_000.0).abs() < 200.0, "{}", last.cost_us);
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
        assert_eq!(s.name(), "BASELINE");
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
        assert_eq!(s.name(), "AURORA");
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
    fn control_state_mirrors_last_signal_row() {
        let mut s = CtrlStrategy::paper_default();
        assert!(s.control_state().is_none(), "no state before first period");
        let _ = s.on_period(&snap(0, 400, 2000, Some(5105.0)));
        let state = s.control_state().expect("one period logged");
        let row = s.signals().last().unwrap();
        assert_eq!(state.y_hat_s, row.y_hat_s);
        assert_eq!(state.error_s, row.error_s);
        assert_eq!(state.u_tps, row.u_tps);
        assert_eq!(state.cost_est_us, row.cost_us);
        assert_eq!(state.mode, LoopMode::Direct);
        assert_eq!(state.fault_flags, 0);
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
