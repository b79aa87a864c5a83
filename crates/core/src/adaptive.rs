//! Self-tuning control: online re-identification, gain-scheduled pole
//! placement with bumpless transfer, and a model-free comparator.
//!
//! The paper's conclusion names this as immediate follow-up work: "use
//! adaptive control techniques to capture the internal variations of the
//! system model and provide better control over the whole system". The
//! basic CTRL loop already *tolerates* slow cost drift through its cost
//! estimator; this module closes a second, slower loop around the
//! controller itself. Three layers:
//!
//! 1. **Online re-identification.** Two recursive-least-squares
//!    estimators run against live period data:
//!
//!    * the *closed-loop gain* RLS fits the plant gain `b` in
//!
//!      ```text
//!      ŷ(k+1) − ŷ(k) = b · Δq(k) + disturbance,   b = c/H
//!      ```
//!
//!      from the strategy's own estimated-delay increments (no extra
//!      sensors needed);
//!    * the *measured-delay* RLS fits the per-tuple cost directly from
//!      the delayed-but-real mean-delay measurement via the virtual-queue
//!      model `y = (q+1)·c/H` — regressor `x = (q+1)/H`, observation
//!      `y = mean delay (s)`, parameter `θ = c` (seconds). This estimate
//!      is anchored in ground truth, so it cannot chase the controller's
//!      own assumptions in a circle.
//!
//! 2. **Gain scheduling.** [`GainScheduler`] holds the cost estimate the
//!    controller gain is currently *derived from*. When the re-identified
//!    cost drifts outside a hysteresis band around the scheduled value,
//!    the scheduler snaps to the new estimate and the controller is
//!    re-tuned through
//!    [`FeedbackController::retune_bumpless`] — the stored error history
//!    is rescaled so the output is continuous across the swap (no
//!    actuation bump at the handover). The `(z − 0.7)²` pole placement is
//!    re-derived against the new gain; hysteresis keeps the loop from
//!    re-tuning on estimator noise.
//!
//! 3. **Model-free comparison.** [`ComparatorStrategy`] drops the
//!    pole-placement *model* entirely and instead hill-climbs over a
//!    fixed ladder of candidate double-pole tunings. Each candidate is
//!    probed for a fixed window and scored by a private
//!    [`ControllerHealth`] scorer (windowed SLO burn rate plus EWMA
//!    overshoot); the arg-min becomes the incumbent. Every arm change
//!    goes through the same bumpless transfer. The probe cycle is fully
//!    deterministic (no RNG), so campaign outputs stay byte-identical
//!    across worker counts.
//!
//! Both self-tuning strategies report their state through
//! [`InstrumentedHook::adapt_state`], which flows through the
//! [`ControlTrace`] seam into
//! the observability plane (`streamshed_adapt_*` Prometheus families)
//! and flight-recorder bundles.

use crate::controller::FeedbackController;
use crate::estimator::{CostEstimator, DelayEstimator};
use crate::loop_::{LoopConfig, SignalRow};
use crate::shedder::EntryShedder;
use crate::strategy::SheddingStrategy;
use serde::{Deserialize, Serialize};
use std::time::Duration;
use streamshed_engine::diagnostics::{ControllerHealth, DiagnosticsConfig};
use streamshed_engine::hook::{ControlHook, Decision, PeriodSnapshot};
use streamshed_engine::telemetry::{
    AdaptState, ControlState, ControlTrace, InstrumentedHook, LoopMode,
};
use streamshed_zdomain::design::{design_for_integrator, ControllerParams, DesignSpec};

/// Scalar recursive-least-squares estimator with exponential forgetting:
/// fits `y = θ·x` online.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RlsEstimator {
    theta: f64,
    covariance: f64,
    forgetting: f64,
}

impl RlsEstimator {
    /// Creates an estimator.
    ///
    /// * `prior` — initial parameter estimate;
    /// * `prior_cov` — confidence in the prior (larger = adapt faster);
    /// * `forgetting` — λ ∈ (0, 1]; smaller discounts old data faster.
    pub fn new(prior: f64, prior_cov: f64, forgetting: f64) -> Self {
        assert!(prior_cov > 0.0);
        assert!(forgetting > 0.0 && forgetting <= 1.0);
        Self {
            theta: prior,
            covariance: prior_cov,
            forgetting,
        }
    }

    /// Feeds one observation pair, returns the updated estimate.
    ///
    /// Near-zero regressors carry no information and are skipped (they
    /// would otherwise blow the gain up).
    pub fn update(&mut self, x: f64, y: f64) -> f64 {
        if !x.is_finite() || !y.is_finite() || x.abs() < 1e-12 {
            return self.theta;
        }
        let lambda = self.forgetting;
        let px = self.covariance * x;
        let gain = px / (lambda + x * px);
        self.theta += gain * (y - self.theta * x);
        self.covariance = (self.covariance - gain * x * self.covariance) / lambda;
        // Keep the covariance bounded away from degeneracy.
        self.covariance = self.covariance.clamp(1e-12, 1e12);
        self.theta
    }

    /// Current parameter estimate.
    pub fn estimate(&self) -> f64 {
        self.theta
    }

    /// Current covariance (uncertainty) of the estimate.
    pub fn covariance(&self) -> f64 {
        self.covariance
    }
}

/// Decides *when* a re-identified cost becomes the cost the controller
/// gain is derived from.
///
/// The scheduler holds the scheduled cost `ĉ` and snaps to a new
/// estimate only when it leaves the relative hysteresis band
/// `|est − ĉ| > band · ĉ` — estimator noise inside the band never
/// re-tunes the controller. Each snap bumps the gain generation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GainScheduler {
    scheduled_cost_us: f64,
    hysteresis_frac: f64,
    generation: u64,
}

impl GainScheduler {
    /// Creates a scheduler holding `initial_cost_us` with a relative
    /// hysteresis band (e.g. `0.25` = re-tune on >25% drift).
    pub fn new(initial_cost_us: f64, hysteresis_frac: f64) -> Self {
        assert!(initial_cost_us > 0.0 && initial_cost_us.is_finite());
        assert!(hysteresis_frac > 0.0);
        Self {
            scheduled_cost_us: initial_cost_us,
            hysteresis_frac,
            generation: 0,
        }
    }

    /// Feeds the latest cost estimate; on a snap, returns the *previous*
    /// scheduled cost (so the caller can compute old/new gains for the
    /// bumpless handover). Invalid estimates are ignored.
    pub fn observe(&mut self, est_cost_us: f64) -> Option<f64> {
        if !(est_cost_us.is_finite() && est_cost_us > 0.0) {
            return None;
        }
        let drift = (est_cost_us - self.scheduled_cost_us).abs() / self.scheduled_cost_us;
        if drift > self.hysteresis_frac {
            let old = self.scheduled_cost_us;
            self.scheduled_cost_us = est_cost_us;
            self.generation += 1;
            Some(old)
        } else {
            None
        }
    }

    /// The cost the controller gain is currently derived from, µs.
    pub fn scheduled_cost_us(&self) -> f64 {
        self.scheduled_cost_us
    }

    /// How many times the schedule snapped (0 = still on the initial
    /// design).
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

/// Minimum measured-delay samples before the measured-delay RLS is
/// trusted over the closed-loop gain RLS.
const MIN_DELAY_SAMPLES: u64 = 3;

/// CTRL with online re-identification and gain-scheduled, bumpless
/// re-tuning. See the module docs for the three-layer design.
#[derive(Debug, Clone)]
pub struct AdaptiveCtrlStrategy {
    cfg: LoopConfig,
    cost: CostEstimator,
    delay: DelayEstimator,
    controller: FeedbackController,
    params: ControllerParams,
    /// Identified plant gain `b ≈ c/(H·T)` in delay-seconds per
    /// (queued-tuple), i.e. ŷ(k+1) = ŷ(k) + b·Δq.
    gain_rls: RlsEstimator,
    /// Per-tuple cost (seconds) identified from the *measured* delay via
    /// `y = (q+1)·c/H`.
    cost_rls: RlsEstimator,
    delay_samples: u64,
    scheduler: GainScheduler,
    swaps: u64,
    retune_pending: bool,
    target_s: f64,
    prev_yhat: Option<f64>,
    prev_delta_q: f64,
    /// Queue length at the previous period boundary — the regressor the
    /// measured-delay model pairs with (`ŷ(k) = (q(k−1)+1)·c/H`):
    /// tuples whose delays average into period `k` queued behind the
    /// backlog standing at the period's *start*.
    prev_q: u64,
    signals: Vec<SignalRow>,
}

/// Default relative hysteresis band of the gain scheduler.
pub const DEFAULT_HYSTERESIS_FRAC: f64 = 0.25;

impl AdaptiveCtrlStrategy {
    /// Builds the adaptive strategy around a loop configuration; the
    /// configuration's controller parameters are only the starting point.
    pub fn from_config(cfg: &LoopConfig) -> Self {
        let prior_gain = cfg.prior_cost_us / 1e6 / cfg.headroom; // c/H
        let prior_cost_s = cfg.prior_cost_us / 1e6;
        let params = design_for_integrator(&DesignSpec::paper_default());
        Self {
            cost: CostEstimator::new(cfg.prior_cost_us, cfg.cost_smoothing),
            delay: DelayEstimator::new(cfg.headroom),
            controller: FeedbackController::new(params),
            params,
            gain_rls: RlsEstimator::new(prior_gain, prior_gain * prior_gain, 0.97),
            cost_rls: RlsEstimator::new(prior_cost_s, prior_cost_s * prior_cost_s, 0.9),
            delay_samples: 0,
            scheduler: GainScheduler::new(cfg.prior_cost_us, DEFAULT_HYSTERESIS_FRAC),
            swaps: 0,
            retune_pending: false,
            target_s: cfg.target_delay_s(),
            prev_yhat: None,
            prev_delta_q: 0.0,
            prev_q: 0,
            signals: Vec::new(),
            cfg: cfg.clone(),
        }
    }

    /// Changes the delay target at runtime.
    pub fn set_target_delay_s(&mut self, yd_s: f64) {
        assert!(yd_s > 0.0);
        self.target_s = yd_s;
    }

    /// The currently identified per-tuple delay gain (seconds of delay
    /// per outstanding tuple ≈ `c/H`).
    pub fn identified_gain(&self) -> f64 {
        self.gain_rls.estimate()
    }

    /// The controller parameters currently in force.
    pub fn current_params(&self) -> ControllerParams {
        self.controller.params()
    }

    /// The gain scheduler (scheduled cost, generation).
    pub fn scheduler(&self) -> &GainScheduler {
        &self.scheduler
    }

    /// Bumpless parameter swaps performed so far.
    pub fn swaps(&self) -> u64 {
        self.swaps
    }

    /// The cost estimate driving the scheduler this period: the
    /// measured-delay RLS once it has seen enough real samples, else the
    /// closed-loop gain RLS mapped back to a cost (`c = b·H`).
    fn reidentified_cost_us(&self) -> f64 {
        if self.delay_samples >= MIN_DELAY_SAMPLES {
            self.cost_rls.estimate() * 1e6
        } else {
            self.gain_rls.estimate().max(1e-9) * self.cfg.headroom * 1e6
        }
    }
}

impl ControlHook for AdaptiveCtrlStrategy {
    fn on_period(&mut self, snap: &PeriodSnapshot) -> Decision {
        let period_s = snap.period.as_secs_f64();
        let h = self.cfg.headroom;
        let c_us = self.cost.update(snap.measured_cost_us);
        let y_hat = self.delay.estimate_delay_s(snap.outstanding, c_us);

        // --- re-identification ------------------------------------------
        // Closed-loop gain: ŷ(k) − ŷ(k−1) = b · Δq(k−1).
        if let Some(prev) = self.prev_yhat {
            self.gain_rls.update(self.prev_delta_q, y_hat - prev);
        }
        self.prev_yhat = Some(y_hat);
        // Measured-delay cost: y(k) = (q(k−1)+1)·c/H, anchored in ground
        // truth. Pairing with the PREVIOUS boundary queue matters: with
        // the current one, a fast-moving queue decorrelates (or
        // anti-correlates) the pairs and the slope collapses.
        if let Some(d_ms) = snap.mean_delay_ms {
            if d_ms.is_finite() && d_ms >= 0.0 {
                let x = (self.prev_q as f64 + 1.0) / h;
                self.cost_rls.update(x, d_ms / 1e3);
                self.delay_samples += 1;
            }
        }
        self.prev_q = snap.outstanding;

        // --- gain scheduling with bumpless handover ---------------------
        if let Some(old_c_us) = self.scheduler.observe(self.reidentified_cost_us()) {
            let new_c_us = self.scheduler.scheduled_cost_us();
            let g_old = h / (old_c_us / 1e6 * period_s);
            let g_new = h / (new_c_us / 1e6 * period_s);
            self.controller.retune_bumpless(self.params, g_old, g_new);
            self.swaps += 1;
            self.retune_pending = true;
        }
        let c_sched_s = self.scheduler.scheduled_cost_us() / 1e6;

        // --- the Eq. 10 law against the *scheduled* cost ----------------
        let e = self.target_s - y_hat;
        let u = self.controller.compute(e, c_sched_s, period_s, h);
        let fout = snap.fout_rate();
        let v = u + fout;
        let fin = snap.fin_rate();
        let v_applied = v.clamp(0.0, fin.max(0.0));
        if self.cfg.anti_windup {
            self.controller.commit(e, v_applied - fout);
        } else {
            self.controller.commit(e, u);
        }
        // Record the queue change the plant will see this period (for
        // the next identification step).
        self.prev_delta_q = (v_applied - fout) * period_s;

        let alpha = EntryShedder::alpha_for(v, fin);
        self.signals.push(SignalRow {
            k: snap.k,
            y_hat_s: y_hat,
            error_s: e,
            u_tps: u,
            v_tps: v,
            alpha,
            cost_us: c_sched_s * 1e6,
        });
        Decision::entry(alpha)
    }
}

impl SheddingStrategy for AdaptiveCtrlStrategy {
    fn name(&self) -> &'static str {
        "CTRL-ADAPTIVE"
    }

    fn signals(&self) -> &[SignalRow] {
        &self.signals
    }

    fn take_retune(&mut self) -> bool {
        std::mem::take(&mut self.retune_pending)
    }
}

impl InstrumentedHook for AdaptiveCtrlStrategy {
    fn control_state(&self) -> Option<ControlState> {
        crate::strategy::state_from_signals(&self.signals)
    }

    fn adapt_state(&self) -> Option<AdaptState> {
        Some(AdaptState {
            cost_est_us: self.scheduler.scheduled_cost_us(),
            generation: self.scheduler.generation(),
            swaps: self.swaps,
            arm: -1,
        })
    }
}

/// The candidate double-pole tunings the comparator hill-climbs over
/// (slowest/most damped first).
pub const COMPARATOR_ARMS: [f64; 4] = [0.5, 0.6, 0.7, 0.8];

/// Periods each probe arm is held and scored before the next probe.
const PROBE_WINDOW: u64 = 12;

/// A model-free self-tuner: an online hill-climber over a fixed ladder
/// of double-pole tunings ([`COMPARATOR_ARMS`]).
///
/// Each cycle probes the incumbent arm and its ladder neighbours for
/// a fixed window (12 periods) each, scoring every probe with a private
/// [`ControllerHealth`] (score = windowed SLO burn rate + EWMA
/// overshoot; lower is better). The arg-min becomes the new incumbent —
/// ties keep the incumbent, so the tuner is stable on flat terrain.
/// Every arm change is a bumpless parameter swap; the cost-driven gain
/// scheduling of [`AdaptiveCtrlStrategy`] runs underneath unchanged, so
/// cost steps re-settle fast while the slower hill-climb picks the pole.
///
/// The probe cycle is deterministic (no RNG): campaign outputs stay
/// byte-identical regardless of worker count.
#[derive(Debug, Clone)]
pub struct ComparatorStrategy {
    cfg: LoopConfig,
    cost: CostEstimator,
    delay: DelayEstimator,
    controller: FeedbackController,
    cost_rls: RlsEstimator,
    delay_samples: u64,
    /// Queue at the previous period boundary (see
    /// [`AdaptiveCtrlStrategy`]'s regressor pairing).
    prev_q: u64,
    scheduler: GainScheduler,
    swaps: u64,
    retune_pending: bool,
    target_s: f64,
    /// Index into [`COMPARATOR_ARMS`] of the incumbent.
    current: usize,
    /// Arm indices probed this cycle (incumbent first).
    plan: Vec<usize>,
    /// Position within `plan`.
    probe_idx: usize,
    periods_in_probe: u64,
    scores: Vec<f64>,
    health: ControllerHealth,
    signals: Vec<SignalRow>,
}

impl ComparatorStrategy {
    /// Builds the comparator around a loop configuration, starting from
    /// the paper's 0.7 double pole.
    pub fn from_config(cfg: &LoopConfig) -> Self {
        let current = COMPARATOR_ARMS
            .iter()
            .position(|&p| p == 0.7)
            .expect("paper pole is an arm");
        let prior_cost_s = cfg.prior_cost_us / 1e6;
        let params = Self::params_for(current);
        let plan = Self::plan_for(current);
        Self {
            cost: CostEstimator::new(cfg.prior_cost_us, cfg.cost_smoothing),
            delay: DelayEstimator::new(cfg.headroom),
            controller: FeedbackController::new(params),
            cost_rls: RlsEstimator::new(prior_cost_s, prior_cost_s * prior_cost_s, 0.9),
            delay_samples: 0,
            prev_q: 0,
            scheduler: GainScheduler::new(cfg.prior_cost_us, DEFAULT_HYSTERESIS_FRAC),
            swaps: 0,
            retune_pending: false,
            target_s: cfg.target_delay_s(),
            current,
            scores: vec![f64::INFINITY; plan.len()],
            plan,
            probe_idx: 0,
            periods_in_probe: 0,
            health: Self::fresh_health(cfg.target_delay_s()),
            signals: Vec::new(),
            cfg: cfg.clone(),
        }
    }

    fn params_for(arm: usize) -> ControllerParams {
        design_for_integrator(&DesignSpec::from_double_pole(COMPARATOR_ARMS[arm]))
    }

    /// The probe plan for an incumbent: itself first, then its ladder
    /// neighbours (deduplicated at the ladder ends).
    fn plan_for(current: usize) -> Vec<usize> {
        let mut plan = vec![current];
        if current > 0 {
            plan.push(current - 1);
        }
        if current + 1 < COMPARATOR_ARMS.len() {
            plan.push(current + 1);
        }
        plan
    }

    fn fresh_health(target_s: f64) -> ControllerHealth {
        ControllerHealth::new(DiagnosticsConfig::for_target(Duration::from_secs_f64(
            target_s,
        )))
    }

    /// Swaps to `arm` bumplessly (the gain is unchanged — only the pole
    /// placement moves).
    fn switch_to(&mut self, arm: usize, period_s: f64) {
        let g = self.cfg.headroom / (self.scheduler.scheduled_cost_us() / 1e6 * period_s);
        self.controller
            .retune_bumpless(Self::params_for(arm), g, g);
        self.swaps += 1;
        self.retune_pending = true;
    }

    /// Changes the target delay at runtime; probe scoring restarts so
    /// old-target burn does not bias the next arm choice.
    pub fn set_target_delay_s(&mut self, yd_s: f64) {
        assert!(yd_s > 0.0);
        self.target_s = yd_s;
        self.health = Self::fresh_health(yd_s);
    }

    /// The incumbent arm's index into [`COMPARATOR_ARMS`].
    pub fn current_arm(&self) -> usize {
        self.current
    }

    /// The incumbent arm's double pole.
    pub fn current_pole(&self) -> f64 {
        COMPARATOR_ARMS[self.current]
    }

    /// Bumpless parameter swaps performed so far.
    pub fn swaps(&self) -> u64 {
        self.swaps
    }

    /// The arm the controller is actually running *this* period (the
    /// probe arm, which differs from the incumbent mid-cycle).
    pub fn active_arm(&self) -> usize {
        self.plan[self.probe_idx]
    }
}

impl ControlHook for ComparatorStrategy {
    fn on_period(&mut self, snap: &PeriodSnapshot) -> Decision {
        let period_s = snap.period.as_secs_f64();
        let h = self.cfg.headroom;
        let c_us = self.cost.update(snap.measured_cost_us);
        let y_hat = self.delay.estimate_delay_s(snap.outstanding, c_us);

        // Measured-delay re-identification (same seam as the adaptive
        // strategy, paired with the previous boundary queue); the
        // tracker estimate is the model-free fallback.
        if let Some(d_ms) = snap.mean_delay_ms {
            if d_ms.is_finite() && d_ms >= 0.0 {
                let x = (self.prev_q as f64 + 1.0) / h;
                self.cost_rls.update(x, d_ms / 1e3);
                self.delay_samples += 1;
            }
        }
        self.prev_q = snap.outstanding;
        let est_us = if self.delay_samples >= MIN_DELAY_SAMPLES {
            self.cost_rls.estimate() * 1e6
        } else {
            c_us
        };
        if let Some(old_c_us) = self.scheduler.observe(est_us) {
            let new_c_us = self.scheduler.scheduled_cost_us();
            let g_old = h / (old_c_us / 1e6 * period_s);
            let g_new = h / (new_c_us / 1e6 * period_s);
            let params = self.controller.params();
            self.controller.retune_bumpless(params, g_old, g_new);
            self.swaps += 1;
            self.retune_pending = true;
        }
        let c_sched_s = self.scheduler.scheduled_cost_us() / 1e6;

        let e = self.target_s - y_hat;
        let u = self.controller.compute(e, c_sched_s, period_s, h);
        let fout = snap.fout_rate();
        let v = u + fout;
        let fin = snap.fin_rate();
        let v_applied = v.clamp(0.0, fin.max(0.0));
        if self.cfg.anti_windup {
            self.controller.commit(e, v_applied - fout);
        } else {
            self.controller.commit(e, u);
        }

        let alpha = EntryShedder::alpha_for(v, fin);
        self.signals.push(SignalRow {
            k: snap.k,
            y_hat_s: y_hat,
            error_s: e,
            u_tps: u,
            v_tps: v,
            alpha,
            cost_us: c_sched_s * 1e6,
        });
        let decision = Decision::entry(alpha);

        // --- score the active probe -------------------------------------
        let state = ControlState {
            y_hat_s: y_hat,
            error_s: e,
            u_tps: u,
            cost_est_us: c_sched_s * 1e6,
            mode: LoopMode::Direct,
            fault_flags: 0,
        };
        let trace = ControlTrace::capture(snap, &decision, Some(&state), 0);
        let _ = self.health.observe(&trace);
        self.periods_in_probe += 1;

        if self.periods_in_probe >= PROBE_WINDOW {
            let s = self.health.snapshot();
            let nan0 = |v: f64| if v.is_finite() { v } else { 0.0 };
            self.scores[self.probe_idx] = nan0(s.slo_burn_rate) + nan0(s.overshoot_ewma_frac);
            self.probe_idx += 1;
            if self.probe_idx >= self.plan.len() {
                // Cycle complete: adopt the arg-min. The incumbent is
                // plan[0], so exact ties keep it.
                let mut best = 0;
                for (i, &sc) in self.scores.iter().enumerate() {
                    if sc < self.scores[best] {
                        best = i;
                    }
                }
                self.current = self.plan[best];
                self.plan = Self::plan_for(self.current);
                self.scores = vec![f64::INFINITY; self.plan.len()];
                self.probe_idx = 0;
            }
            self.switch_to(self.plan[self.probe_idx], period_s);
            self.health = Self::fresh_health(self.target_s);
            self.periods_in_probe = 0;
        }
        decision
    }
}

impl SheddingStrategy for ComparatorStrategy {
    fn name(&self) -> &'static str {
        "CTRL-COMPARATOR"
    }

    fn signals(&self) -> &[SignalRow] {
        &self.signals
    }

    fn take_retune(&mut self) -> bool {
        std::mem::take(&mut self.retune_pending)
    }
}

impl InstrumentedHook for ComparatorStrategy {
    fn control_state(&self) -> Option<ControlState> {
        crate::strategy::state_from_signals(&self.signals)
    }

    fn adapt_state(&self) -> Option<AdaptState> {
        Some(AdaptState {
            cost_est_us: self.scheduler.scheduled_cost_us(),
            generation: self.scheduler.generation(),
            swaps: self.swaps,
            arm: self.active_arm() as i64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamshed_engine::time::{secs, SimTime};

    #[test]
    fn rls_identifies_static_parameter() {
        let mut rls = RlsEstimator::new(0.0, 100.0, 1.0);
        for i in 1..50 {
            let x = (i % 7 + 1) as f64;
            rls.update(x, 3.5 * x);
        }
        // Noise-free convergence is geometric in Σx²·P₀; 49 samples from
        // a P₀ = 100 prior land within ~1e-4.
        assert!((rls.estimate() - 3.5).abs() < 1e-3, "{}", rls.estimate());
    }

    #[test]
    fn rls_tracks_parameter_changes_with_forgetting() {
        let mut rls = RlsEstimator::new(0.0, 100.0, 0.9);
        for i in 1..60 {
            rls.update((i % 5 + 1) as f64, 2.0 * (i % 5 + 1) as f64);
        }
        assert!((rls.estimate() - 2.0).abs() < 1e-3);
        for i in 1..60 {
            rls.update((i % 5 + 1) as f64, 5.0 * (i % 5 + 1) as f64);
        }
        assert!((rls.estimate() - 5.0).abs() < 0.05, "{}", rls.estimate());
    }

    #[test]
    fn rls_ignores_degenerate_regressors() {
        let mut rls = RlsEstimator::new(1.0, 10.0, 1.0);
        rls.update(0.0, 100.0);
        rls.update(f64::NAN, 1.0);
        rls.update(1.0, f64::NAN);
        assert_eq!(rls.estimate(), 1.0);
    }

    #[test]
    fn scheduler_hysteresis_gates_snaps() {
        let mut s = GainScheduler::new(5000.0, 0.25);
        // Inside the band: no snap.
        assert_eq!(s.observe(5500.0), None);
        assert_eq!(s.observe(4000.0), None);
        assert_eq!(s.generation(), 0);
        assert_eq!(s.scheduled_cost_us(), 5000.0);
        // Garbage: ignored.
        assert_eq!(s.observe(f64::NAN), None);
        assert_eq!(s.observe(-1.0), None);
        // Outside the band: snap, returning the old cost.
        assert_eq!(s.observe(10_000.0), Some(5000.0));
        assert_eq!(s.scheduled_cost_us(), 10_000.0);
        assert_eq!(s.generation(), 1);
        // The band re-centres on the new schedule.
        assert_eq!(s.observe(11_000.0), None);
        assert_eq!(s.observe(20_000.0), Some(10_000.0));
        assert_eq!(s.generation(), 2);
    }

    fn snap(k: u64, offered: u64, outstanding: u64, cost_us: f64) -> PeriodSnapshot {
        PeriodSnapshot {
            k,
            now: SimTime::ZERO + secs(k + 1),
            period: secs(1),
            offered,
            admitted: offered,
            dropped_entry: 0,
            dropped_network: 0,
            completed: 190,
            outstanding,
            queued_tuples: outstanding,
            queued_load_us: outstanding as f64 * cost_us,
            measured_cost_us: Some(cost_us),
            mean_delay_ms: None,
            cpu_busy_us: 970_000,
        }
    }

    #[test]
    fn adaptive_identifies_gain_from_closed_loop_data() {
        // Simulate the ideal plant q(k+1) = q(k) + Δq where Δq is what
        // the strategy decided; the identified gain must converge to c/H.
        let cfg = LoopConfig::paper_default();
        let mut s = AdaptiveCtrlStrategy::from_config(&cfg);
        // Perturb the prior so convergence is observable.
        s.gain_rls = RlsEstimator::new(0.002, 1.0, 0.97);
        let c_us = 5105.0;
        let true_gain = c_us / 1e6 / 0.97;
        let mut q = 0.0f64;
        for k in 0..200 {
            let d = s.on_period(&snap(k, 400, q.round() as u64, c_us));
            // Ideal actuator: admitted = (1−α)·400, processed 190.
            let admitted = (1.0 - d.entry_drop_prob) * 400.0;
            q = (q + admitted - 190.0).max(0.0);
        }
        let got = s.identified_gain();
        assert!(
            (got - true_gain).abs() < true_gain * 0.25,
            "identified {got}, true {true_gain}"
        );
        assert_eq!(s.name(), "CTRL-ADAPTIVE");
        assert_eq!(s.signals().len(), 200);
    }

    #[test]
    fn adaptive_loop_still_reaches_target() {
        let cfg = LoopConfig::paper_default();
        let mut s = AdaptiveCtrlStrategy::from_config(&cfg);
        let mut q = 0.0f64;
        let mut last_y = 0.0;
        for k in 0..120 {
            let d = s.on_period(&snap(k, 400, q.round() as u64, 5105.0));
            let admitted = (1.0 - d.entry_drop_prob) * 400.0;
            q = (q + admitted - 190.0).max(0.0);
            last_y = (q + 1.0) * 5105.0 / 1e6 / 0.97;
        }
        assert!((last_y - 2.0).abs() < 0.3, "settled at {last_y}");
    }

    #[test]
    fn adaptive_recovers_from_wrong_prior_cost() {
        // Prior cost off by 4×: the fixed loop would be badly detuned at
        // start; the adaptive loop identifies and settles anyway.
        let cfg = LoopConfig::paper_default().with_prior_cost_us(4.0 * 5105.0);
        let mut s = AdaptiveCtrlStrategy::from_config(&cfg);
        let mut q = 0.0f64;
        let mut last_y = 0.0;
        for k in 0..150 {
            // Measured cost feeds the c-tracker the truth; the identified
            // gain cross-checks it.
            let d = s.on_period(&snap(k, 400, q.round() as u64, 5105.0));
            let admitted = (1.0 - d.entry_drop_prob) * 400.0;
            q = (q + admitted - 190.0).max(0.0);
            last_y = (q + 1.0) * 5105.0 / 1e6 / 0.97;
        }
        assert!((last_y - 2.0).abs() < 0.35, "settled at {last_y}");
        // The wrong prior was corrected through at least one scheduled
        // re-tune, and every swap was flagged for the supervisor.
        assert!(s.scheduler().generation() >= 1, "no re-tune happened");
        assert!(s.swaps() >= 1);
    }

    /// A measured-delay feed (the true delay of the simulated queue)
    /// drives the cost re-identification even when the tracker is frozen
    /// on a stale prior — the re-id path is anchored in ground truth.
    #[test]
    fn measured_delay_reidentification_tracks_a_cost_step() {
        let cfg = LoopConfig::paper_default();
        let mut s = AdaptiveCtrlStrategy::from_config(&cfg);
        let mut q = 200.0f64;
        let mut q_prev = 200.0f64;
        for k in 0..120 {
            let c_true = if k < 40 { 5105.0 } else { 2.0 * 5105.0 };
            let mut sn = snap(k, 400, q.round() as u64, c_true);
            // The delayed-but-real measurement: the virtual-queue model
            // evaluated with the *true* cost against the queue standing
            // at the period's start (the strategy pairs with q(k−1)).
            sn.mean_delay_ms = Some((q_prev + 1.0) * c_true / 1e3 / 0.97);
            q_prev = q;
            let d = s.on_period(&sn);
            let admitted = (1.0 - d.entry_drop_prob) * 400.0;
            let service = 0.97 / (c_true / 1e6); // capacity shrank with the step
            q = (q + admitted - service).max(0.0);
        }
        let sched = s.scheduler().scheduled_cost_us();
        assert!(
            (sched - 2.0 * 5105.0).abs() < 0.25 * 2.0 * 5105.0,
            "scheduled cost {sched} did not track the ×2 step"
        );
        assert!(s.scheduler().generation() >= 1);
        let st = s.adapt_state().unwrap();
        assert_eq!(st.generation, s.scheduler().generation());
        assert_eq!(st.arm, -1);
    }

    #[test]
    fn comparator_is_deterministic_and_reaches_target() {
        let cfg = LoopConfig::paper_default();
        let run = || {
            let mut s = ComparatorStrategy::from_config(&cfg);
            let mut q = 0.0f64;
            let mut last_y = 0.0;
            for k in 0..200 {
                let d = s.on_period(&snap(k, 400, q.round() as u64, 5105.0));
                let admitted = (1.0 - d.entry_drop_prob) * 400.0;
                q = (q + admitted - 190.0).max(0.0);
                last_y = (q + 1.0) * 5105.0 / 1e6 / 0.97;
            }
            (last_y, s.current_arm(), s.swaps())
        };
        let (y1, arm1, swaps1) = run();
        let (y2, arm2, swaps2) = run();
        assert_eq!(y1.to_bits(), y2.to_bits(), "comparator must be RNG-free");
        assert_eq!((arm1, swaps1), (arm2, swaps2));
        assert!((y1 - 2.0).abs() < 0.3, "settled at {y1}");
        assert_eq!(
            ComparatorStrategy::from_config(&cfg).name(),
            "CTRL-COMPARATOR"
        );
    }

    #[test]
    fn comparator_probes_every_neighbour_and_reports_state() {
        let cfg = LoopConfig::paper_default();
        let mut s = ComparatorStrategy::from_config(&cfg);
        let mut arms_seen = std::collections::BTreeSet::new();
        let mut q = 0.0f64;
        for k in 0..40 {
            arms_seen.insert(s.active_arm());
            let d = s.on_period(&snap(k, 400, q.round() as u64, 5105.0));
            let admitted = (1.0 - d.entry_drop_prob) * 400.0;
            q = (q + admitted - 190.0).max(0.0);
        }
        // One full cycle (3 probes × 12 periods = 36) visits the
        // incumbent (0.7) and both neighbours (0.6, 0.8).
        assert!(arms_seen.len() >= 3, "probed {arms_seen:?}");
        let st = s.adapt_state().unwrap();
        assert!(st.arm >= 0, "comparator reports its active arm");
        assert!(st.swaps >= 3, "each probe handover is a swap");
        // The swaps were flagged for the supervisor ramp.
        assert!(s.take_retune());
        assert!(!s.take_retune(), "flag is consumed");
    }
}
