//! Online controller-health diagnostics.
//!
//! The paper's pole placement at `(z − 0.7)²` is a *trajectory* promise:
//! the closed loop settles in ~3 control periods with damping 1 (no
//! overshoot). PR 2 made those properties checkable offline from
//! exported traces; this module checks them **online**, one period at a
//! time, at the same [`ControlTrace`] seam — so an oscillating or
//! saturated controller is visible the period it happens, not in a
//! post-mortem.
//!
//! [`ControllerHealth::observe`] consumes each period's trace and
//! maintains:
//!
//! * **Settling-time estimator** — every excursion of the (estimated)
//!   delay beyond the error band around the target is an episode; its
//!   length in periods is a settling-time sample, tracked as
//!   last/EWMA/max against the paper's 3-period design target.
//! * **Overshoot estimator** — the peak fractional excursion
//!   `(y − y_d)/y_d` within each episode, against the paper's
//!   zero-overshoot (damping-1) target.
//! * **Oscillation detection** — the sign-flip rate of `e(k)` over a
//!   sliding window (flips gated by a minimum magnitude so settled-state
//!   noise does not count), plus actuation flapping: alternating
//!   direction reversals of `α(k)` with swing ≥ a threshold. Either
//!   signal crossing the flip threshold classifies the loop
//!   `Oscillating` — a bang-bang actuation pattern is flagged even while
//!   the delay signal itself is still slewing.
//! * **Actuator-saturation tracking** — periods with `α` pinned at 0 or
//!   1 while the delay violates its band. A pinned actuator during a
//!   violation means the controller's command is not moving the plant:
//!   either it is at its physical limit (`α = 1`) or its output is not
//!   being applied (`α` stuck at 0 under overload — e.g. an ignored
//!   actuator).
//! * **SLO burn counters** — periods (and accumulated seconds) with the
//!   delay above target, total and over a rolling burn window.
//! * **Supervisor-mode accounting** — periods spent in
//!   [`LoopMode::Hold`]/[`LoopMode::Fallback`] and mode transitions, so
//!   the supervisor's interventions surface as diagnostic events.
//!
//! A small state machine classifies each period
//! [`Healthy`](HealthState::Healthy) /
//! [`Settling`](HealthState::Settling) /
//! [`Oscillating`](HealthState::Oscillating) /
//! [`Saturated`](HealthState::Saturated) /
//! [`Diverging`](HealthState::Diverging), with precedence
//! `Diverging > Saturated > Oscillating > Settling`. Transitions are
//! recorded as [`DiagEvent`]s in a fixed ring; transitions *into* an
//! anomalous state are what the flight recorder
//! ([`flight`](crate::flight)) snapshots.
//!
//! [`SharedDiagnostics`] is the cloneable, thread-safe handle that
//! implements [`EventSink`], so the engine's tracing seam
//! ([`TracingHook`](crate::telemetry::TracingHook), the sharded
//! controller loop) feeds diagnostics with no extra plumbing.

use crate::telemetry::{ControlTrace, EventSink, LoopMode, PromText, Ring};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Classification of the control loop for one period.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HealthState {
    /// Delay within the error band; no oscillation or saturation.
    #[default]
    Healthy,
    /// Delay outside the band but the loop is still within its grace
    /// budget to bring it back (the paper's transient).
    Settling,
    /// The error (or the actuation) is flapping sign at a rate no
    /// damping-1 loop should show.
    Oscillating,
    /// `α` pinned at 0/1 while the delay violates its band — the
    /// commanded actuation is not moving the plant.
    Saturated,
    /// The delay has stayed outside the band beyond the grace budget:
    /// the loop is not converging.
    Diverging,
}

impl HealthState {
    /// Stable lowercase name, used by the exporters and endpoints.
    pub fn as_str(&self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Settling => "settling",
            HealthState::Oscillating => "oscillating",
            HealthState::Saturated => "saturated",
            HealthState::Diverging => "diverging",
        }
    }

    /// Stable ordinal (0 = healthy … 4 = diverging), used as the gauge
    /// value of `streamshed_diag_state`.
    pub fn ordinal(&self) -> u8 {
        match self {
            HealthState::Healthy => 0,
            HealthState::Settling => 1,
            HealthState::Oscillating => 2,
            HealthState::Saturated => 3,
            HealthState::Diverging => 4,
        }
    }

    /// True for the states that should trip alerts and the flight
    /// recorder (`Oscillating`, `Saturated`, `Diverging`).
    pub fn is_anomalous(&self) -> bool {
        matches!(
            self,
            HealthState::Oscillating | HealthState::Saturated | HealthState::Diverging
        )
    }

    /// All states, in ordinal order.
    pub const ALL: [HealthState; 5] = [
        HealthState::Healthy,
        HealthState::Settling,
        HealthState::Oscillating,
        HealthState::Saturated,
        HealthState::Diverging,
    ];
}

/// One health-state transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiagEvent {
    /// Period index at which the transition happened.
    pub k: u64,
    /// State left.
    pub from: HealthState,
    /// State entered.
    pub to: HealthState,
}

/// Largest supported sliding window (fixed so the engine never
/// allocates per period).
pub const MAX_DIAG_WINDOW: usize = 64;

/// Tuning of the diagnostics engine. Defaults encode the paper's design
/// targets (3-period settling, zero overshoot) with bands sized for
/// wall-clock noise.
#[derive(Debug, Clone)]
pub struct DiagnosticsConfig {
    /// The delay target `y_d`, seconds.
    pub target_delay_s: f64,
    /// The design settling time, periods (the paper's `(z − 0.7)²`
    /// placement: ~3).
    pub settle_target_periods: u64,
    /// Half-width of the error band as a fraction of the target: the
    /// delay is "settled" while `y ≤ y_d · (1 + band)`. Sized generously
    /// (wall-clock delay measurements are noisy).
    pub error_band_frac: f64,
    /// Sliding-window length for oscillation detection, periods
    /// (≤ [`MAX_DIAG_WINDOW`]).
    pub window: usize,
    /// Sign flips (of `e(k)`, or actuation reversals) within the window
    /// that classify the loop `Oscillating`.
    pub osc_min_flips: u32,
    /// A sign flip of `e(k)` only counts when both samples exceed this
    /// fraction of the target in magnitude (noise gate).
    pub osc_min_error_frac: f64,
    /// An `α` move only counts as an actuation reversal when its
    /// magnitude is at least this much.
    pub alpha_swing: f64,
    /// `α ≥ 1 − eps` (or `≤ eps`) counts as pinned.
    pub alpha_pin_eps: f64,
    /// Consecutive pinned-while-violating periods that classify the
    /// loop `Saturated`.
    pub saturation_periods: u64,
    /// Consecutive out-of-band periods beyond which the loop is
    /// `Diverging` (the grace budget; ≥ the settle target).
    pub grace_periods: u64,
    /// Rolling window for the SLO burn rate, periods
    /// (≤ [`MAX_DIAG_WINDOW`]).
    pub burn_window: usize,
    /// Fast SLO burn window, periods: the multi-window burn-rate pair's
    /// short arm (≤ [`Self::burn_slow_window`]).
    pub burn_fast_window: usize,
    /// Slow SLO burn window, periods (≤ [`MAX_DIAG_WINDOW`]). Both burn
    /// rates must exceed [`Self::burn_diverge_frac`] — with this window
    /// *full* — before burn evidence alone escalates to `Diverging`.
    pub burn_slow_window: usize,
    /// Burn-rate fraction at which the fast/slow pair escalates the
    /// loop to `Diverging`.
    pub burn_diverge_frac: f64,
}

impl DiagnosticsConfig {
    /// Defaults for a delay target: 3-period settle target, 30% error
    /// band, 16-period oscillation window, 3-flip threshold, 12-period
    /// grace.
    pub fn for_target(target_delay: Duration) -> Self {
        Self {
            target_delay_s: target_delay.as_secs_f64(),
            settle_target_periods: 3,
            error_band_frac: 0.3,
            window: 16,
            osc_min_flips: 3,
            osc_min_error_frac: 0.10,
            alpha_swing: 0.25,
            alpha_pin_eps: 1e-3,
            saturation_periods: 3,
            grace_periods: 12,
            burn_window: 32,
            burn_fast_window: 5,
            burn_slow_window: 60,
            burn_diverge_frac: 0.9,
        }
    }

    fn validate(&self) {
        assert!(
            self.target_delay_s > 0.0 && self.target_delay_s.is_finite(),
            "target delay must be positive"
        );
        assert!(
            (1..=MAX_DIAG_WINDOW).contains(&self.window),
            "window must be 1..={MAX_DIAG_WINDOW}"
        );
        assert!(
            (1..=MAX_DIAG_WINDOW).contains(&self.burn_window),
            "burn window must be 1..={MAX_DIAG_WINDOW}"
        );
        assert!(
            (1..=MAX_DIAG_WINDOW).contains(&self.burn_slow_window),
            "slow burn window must be 1..={MAX_DIAG_WINDOW}"
        );
        assert!(
            (1..=self.burn_slow_window).contains(&self.burn_fast_window),
            "fast burn window must be 1..=burn_slow_window"
        );
        assert!(
            self.burn_diverge_frac > 0.0 && self.burn_diverge_frac <= 1.0,
            "burn divergence fraction must be in (0, 1]"
        );
        assert!(self.error_band_frac >= 0.0);
        assert!(self.alpha_swing > 0.0);
        assert!(self.saturation_periods >= 1);
        assert!(
            self.grace_periods >= self.settle_target_periods,
            "grace must cover the settle target"
        );
    }
}

/// A point-in-time copy of everything the diagnostics engine knows —
/// what `/health` serializes and the flight recorder embeds in its
/// bundle header.
#[derive(Debug, Clone)]
pub struct DiagnosticsSnapshot {
    /// Current classification.
    pub state: HealthState,
    /// Period index of the last observed trace (0 if none yet).
    pub k: u64,
    /// Periods observed.
    pub periods: u64,
    /// The delay target, seconds.
    pub target_delay_s: f64,
    /// Last observed (estimated, else measured) delay, seconds. `NaN`
    /// until a period carries one.
    pub y_s: f64,
    /// Last observed error `e(k)`, seconds (`NaN` if unavailable).
    pub error_s: f64,
    /// Last commanded `α`.
    pub alpha: f64,
    /// Consecutive periods with the delay outside the band.
    pub violation_streak: u64,
    /// Consecutive periods with `α` pinned while violating.
    pub pinned_streak: u64,
    /// Sign flips (error or actuation) in the current window.
    pub flips_in_window: u32,
    /// Flip rate: flips / window.
    pub flip_rate: f64,
    /// Settling-time samples seen (completed excursion episodes).
    pub settle_samples: u64,
    /// Last settling time, periods (`NaN` before any episode).
    pub settle_last_periods: f64,
    /// EWMA settling time, periods (`NaN` before any episode).
    pub settle_ewma_periods: f64,
    /// Worst settling time, periods (`NaN` before any episode).
    pub settle_max_periods: f64,
    /// The design settling target, periods.
    pub settle_target_periods: u64,
    /// Last episode's peak overshoot fraction (`NaN` before any).
    pub overshoot_last_frac: f64,
    /// EWMA overshoot fraction (`NaN` before any episode).
    pub overshoot_ewma_frac: f64,
    /// Worst overshoot fraction (`NaN` before any episode).
    pub overshoot_max_frac: f64,
    /// Periods with `α` pinned at 1, total.
    pub pinned_high_periods: u64,
    /// Periods with `α` pinned at 0 while violating, total.
    pub pinned_low_periods: u64,
    /// Periods with the delay above target (no band), total.
    pub slo_violation_periods: u64,
    /// Fraction of the burn window with the delay above target.
    pub slo_burn_rate: f64,
    /// Burn rate over the fast window (most recent
    /// `burn_fast_window` periods).
    pub slo_burn_fast: f64,
    /// Burn rate over the slow window (most recent
    /// `burn_slow_window` periods; 0.0 until any period arrives).
    pub slo_burn_slow: f64,
    /// Σ (y − y_d)⁺ · T over observed periods, seconds.
    pub slo_violation_seconds: f64,
    /// Periods spent in supervisor hold.
    pub hold_periods: u64,
    /// Periods spent in supervisor fallback.
    pub fallback_periods: u64,
    /// Supervisor/loop mode transitions observed.
    pub mode_transitions: u64,
    /// Periods with any fault flag set.
    pub faulted_periods: u64,
    /// Health-state transitions, total.
    pub transitions: u64,
    /// Entries into an anomalous state, total.
    pub anomalies: u64,
    /// Period index of the first entry into an anomalous state.
    pub first_anomaly_k: Option<u64>,
    /// Periods spent in each state, ordinal order.
    pub periods_in_state: [u64; 5],
    /// True once any observed trace carried self-tuning state (the
    /// `streamshed_adapt_*` families render only then).
    pub adapt_seen: bool,
    /// Last re-identified per-tuple cost `ĉ`, µs (`NaN` when the loop
    /// has no adaptive layer).
    pub adapt_cost_est_us: f64,
    /// Last gain generation of the adaptive layer.
    pub adapt_generation: u64,
    /// Total bumpless parameter swaps reported.
    pub adapt_swaps: u64,
    /// Active comparator arm (−1 = no comparator).
    pub adapt_arm: i64,
    /// The most recent transitions (oldest first).
    pub recent_events: Vec<DiagEvent>,
}

impl DiagnosticsSnapshot {
    /// True when the loop needs no operator attention (`Healthy` or
    /// `Settling`).
    pub fn ok(&self) -> bool {
        !self.state.is_anomalous()
    }

    /// The HTTP status `/health` maps this snapshot to: 503 while
    /// `Diverging`, 200 otherwise (per the endpoint contract, only
    /// divergence is fatal to the verdict).
    pub fn http_status(&self) -> u16 {
        if self.state == HealthState::Diverging {
            503
        } else {
            200
        }
    }

    /// Fraction of observed periods classified `Healthy` (1.0 when no
    /// period was observed yet).
    pub fn healthy_fraction(&self) -> f64 {
        if self.periods == 0 {
            1.0
        } else {
            self.periods_in_state[0] as f64 / self.periods as f64
        }
    }

    /// The snapshot as one JSON object (strictly valid: `NaN` renders
    /// as `null`).
    pub fn to_json(&self) -> String {
        fn num(v: f64) -> String {
            if v.is_finite() {
                let s = format!("{v:.9}");
                let s = s.trim_end_matches('0').trim_end_matches('.');
                if s.is_empty() || s == "-" {
                    "0".into()
                } else {
                    s.into()
                }
            } else {
                "null".into()
            }
        }
        let events = self
            .recent_events
            .iter()
            .map(|e| {
                format!(
                    "{{\"k\":{},\"from\":\"{}\",\"to\":\"{}\"}}",
                    e.k,
                    e.from.as_str(),
                    e.to.as_str()
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let in_state = self
            .periods_in_state
            .iter()
            .zip(HealthState::ALL.iter())
            .map(|(n, s)| format!("\"{}\":{n}", s.as_str()))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"state\":\"{}\",\"ok\":{},\"k\":{},\"periods\":{},\
             \"target_delay_s\":{},\"y_s\":{},\"error_s\":{},\"alpha\":{},\
             \"violation_streak\":{},\"pinned_streak\":{},\
             \"flips_in_window\":{},\"flip_rate\":{},\
             \"settle_samples\":{},\"settle_last_periods\":{},\
             \"settle_ewma_periods\":{},\"settle_max_periods\":{},\
             \"settle_target_periods\":{},\
             \"overshoot_last_frac\":{},\"overshoot_ewma_frac\":{},\
             \"overshoot_max_frac\":{},\
             \"pinned_high_periods\":{},\"pinned_low_periods\":{},\
             \"slo_violation_periods\":{},\"slo_burn_rate\":{},\
             \"slo_burn_fast\":{},\"slo_burn_slow\":{},\
             \"slo_violation_seconds\":{},\
             \"hold_periods\":{},\"fallback_periods\":{},\
             \"mode_transitions\":{},\"faulted_periods\":{},\
             \"transitions\":{},\"anomalies\":{},\"first_anomaly_k\":{},\
             \"adapt_cost_est_us\":{},\"adapt_generation\":{},\
             \"adapt_swaps\":{},\"adapt_arm\":{},\
             \"periods_in_state\":{{{}}},\"recent_events\":[{}]}}",
            self.state.as_str(),
            self.ok(),
            self.k,
            self.periods,
            num(self.target_delay_s),
            num(self.y_s),
            num(self.error_s),
            num(self.alpha),
            self.violation_streak,
            self.pinned_streak,
            self.flips_in_window,
            num(self.flip_rate),
            self.settle_samples,
            num(self.settle_last_periods),
            num(self.settle_ewma_periods),
            num(self.settle_max_periods),
            self.settle_target_periods,
            num(self.overshoot_last_frac),
            num(self.overshoot_ewma_frac),
            num(self.overshoot_max_frac),
            self.pinned_high_periods,
            self.pinned_low_periods,
            self.slo_violation_periods,
            num(self.slo_burn_rate),
            num(self.slo_burn_fast),
            num(self.slo_burn_slow),
            num(self.slo_violation_seconds),
            self.hold_periods,
            self.fallback_periods,
            self.mode_transitions,
            self.faulted_periods,
            self.transitions,
            self.anomalies,
            self.first_anomaly_k
                .map(|k| k.to_string())
                .unwrap_or_else(|| "null".into()),
            num(self.adapt_cost_est_us),
            self.adapt_generation,
            self.adapt_swaps,
            self.adapt_arm,
            in_state,
            events,
        )
    }

    /// Appends the diagnostics metric families to a Prometheus builder
    /// (the `/metrics` extension).
    pub fn render_prom(&self, p: &mut PromText) {
        p.gauge(
            "diag_state",
            "Controller health state ordinal (0 healthy, 1 settling, 2 oscillating, 3 saturated, 4 diverging)",
            self.state.ordinal() as f64,
        )
        .gauge_labeled(
            "diag_state_info",
            "Controller health state as a label (value is always 1)",
            "state",
            self.state.as_str(),
            1.0,
        )
        .counter(
            "diag_periods_total",
            "Control periods observed by the diagnostics engine",
            self.periods as f64,
        )
        .counter(
            "diag_transitions_total",
            "Health-state transitions",
            self.transitions as f64,
        )
        .counter(
            "diag_anomalies_total",
            "Entries into an anomalous state (oscillating/saturated/diverging)",
            self.anomalies as f64,
        )
        .gauge(
            "diag_violation_streak",
            "Consecutive periods with the delay outside its band",
            self.violation_streak as f64,
        )
        .gauge(
            "diag_settle_ewma_periods",
            "EWMA settling time of delay excursions, periods (paper design target: 3)",
            self.settle_ewma_periods,
        )
        .gauge(
            "diag_settle_max_periods",
            "Worst observed settling time, periods",
            self.settle_max_periods,
        )
        .gauge(
            "diag_overshoot_ewma_frac",
            "EWMA peak overshoot per excursion, fraction of target (design target: 0)",
            self.overshoot_ewma_frac,
        )
        .gauge(
            "diag_overshoot_max_frac",
            "Worst observed overshoot, fraction of target",
            self.overshoot_max_frac,
        )
        .gauge(
            "diag_flip_rate",
            "Error/actuation sign-flip rate over the sliding window",
            self.flip_rate,
        )
        .gauge(
            "diag_alpha_pinned_streak",
            "Consecutive periods with alpha pinned while violating",
            self.pinned_streak as f64,
        )
        .counter(
            "diag_alpha_pinned_high_total",
            "Periods with alpha pinned at 1",
            self.pinned_high_periods as f64,
        )
        .counter(
            "diag_alpha_pinned_low_total",
            "Periods with alpha pinned at 0 while the delay violated its band",
            self.pinned_low_periods as f64,
        )
        .counter(
            "diag_slo_violation_periods_total",
            "Periods with the delay above target",
            self.slo_violation_periods as f64,
        )
        .gauge(
            "diag_slo_burn_rate",
            "Fraction of the burn window with the delay above target",
            self.slo_burn_rate,
        )
        .gauge(
            "diag_slo_burn_fast",
            "SLO burn rate over the fast (short) window",
            self.slo_burn_fast,
        )
        .gauge(
            "diag_slo_burn_slow",
            "SLO burn rate over the slow (long) window",
            self.slo_burn_slow,
        )
        .counter(
            "diag_slo_violation_seconds_total",
            "Accumulated delay violation, target-relative seconds",
            self.slo_violation_seconds,
        )
        .counter(
            "diag_hold_periods_total",
            "Periods the supervisor spent holding the last actuation",
            self.hold_periods as f64,
        )
        .counter(
            "diag_fallback_periods_total",
            "Periods the supervisor spent in open-loop fallback",
            self.fallback_periods as f64,
        )
        .counter(
            "diag_mode_transitions_total",
            "Supervisor/loop mode transitions observed",
            self.mode_transitions as f64,
        )
        .counter(
            "diag_faulted_periods_total",
            "Periods with any fault flag set",
            self.faulted_periods as f64,
        );
        // Self-tuning families only render once an adaptive layer has
        // reported state — non-adaptive loops keep the exposition clean.
        if self.adapt_seen {
            p.gauge(
                "adapt_cost_est_us",
                "Re-identified per-tuple cost estimate in force, microseconds",
                self.adapt_cost_est_us,
            )
            .gauge(
                "adapt_gain_generation",
                "Gain generation of the self-tuning controller (0 = initial design)",
                self.adapt_generation as f64,
            )
            .counter(
                "adapt_swaps_total",
                "Bumpless controller parameter swaps performed",
                self.adapt_swaps as f64,
            )
            .gauge(
                "adapt_comparator_arm",
                "Active model-free comparator arm index (-1 = no comparator)",
                self.adapt_arm as f64,
            );
        }
    }
}

/// The online controller-health engine. Feed it one [`ControlTrace`]
/// per period via [`ControllerHealth::observe`]; read the verdict via
/// [`ControllerHealth::snapshot`]. `Clone` so a strategy can embed a
/// private scorer (the model-free comparator keeps one per probe arm).
#[derive(Debug, Clone)]
pub struct ControllerHealth {
    cfg: DiagnosticsConfig,
    state: HealthState,
    periods: u64,
    last_k: u64,
    // Last observed signals.
    last_y: f64,
    last_error: f64,
    last_alpha: f64,
    // Sliding windows (chronological via cursor arithmetic).
    err_win: [f64; MAX_DIAG_WINDOW],
    alpha_win: [f64; MAX_DIAG_WINDOW],
    win_len: usize,
    win_next: usize,
    burn_win: [bool; MAX_DIAG_WINDOW],
    burn_len: usize,
    burn_next: usize,
    // The fast/slow burn pair shares one ring sized by the slow window;
    // the fast rate reads its most recent samples.
    burn2_win: [bool; MAX_DIAG_WINDOW],
    burn2_len: usize,
    burn2_next: usize,
    // Streaks + episode tracking.
    violation_streak: u64,
    pinned_streak: u64,
    episode_peak_frac: f64,
    flips: u32,
    // Settling estimator.
    settle_samples: u64,
    settle_last: f64,
    settle_ewma: f64,
    settle_max: f64,
    // Overshoot estimator.
    overshoot_last: f64,
    overshoot_ewma: f64,
    overshoot_max: f64,
    // Saturation + SLO totals.
    pinned_high_periods: u64,
    pinned_low_periods: u64,
    slo_violation_periods: u64,
    slo_violation_seconds: f64,
    // Mode + fault accounting.
    last_mode: Option<LoopMode>,
    hold_periods: u64,
    fallback_periods: u64,
    mode_transitions: u64,
    faulted_periods: u64,
    // Self-tuning state mirrored from the traces.
    adapt_seen: bool,
    adapt_cost_us: f64,
    adapt_generation: u64,
    adapt_swaps: u64,
    adapt_arm: i64,
    // State machine bookkeeping.
    transitions: u64,
    anomalies: u64,
    first_anomaly_k: Option<u64>,
    periods_in_state: [u64; 5],
    events: Ring<DiagEvent>,
}

/// EWMA weight for the settling/overshoot estimators.
const EST_EWMA: f64 = 0.3;
/// Capacity of the transition-event ring.
const EVENT_RING: usize = 64;

impl ControllerHealth {
    /// Creates the engine (panics on an invalid configuration).
    pub fn new(cfg: DiagnosticsConfig) -> Self {
        cfg.validate();
        Self {
            cfg,
            state: HealthState::Healthy,
            periods: 0,
            last_k: 0,
            last_y: f64::NAN,
            last_error: f64::NAN,
            last_alpha: 0.0,
            err_win: [f64::NAN; MAX_DIAG_WINDOW],
            alpha_win: [0.0; MAX_DIAG_WINDOW],
            win_len: 0,
            win_next: 0,
            burn_win: [false; MAX_DIAG_WINDOW],
            burn_len: 0,
            burn_next: 0,
            burn2_win: [false; MAX_DIAG_WINDOW],
            burn2_len: 0,
            burn2_next: 0,
            violation_streak: 0,
            pinned_streak: 0,
            episode_peak_frac: 0.0,
            flips: 0,
            settle_samples: 0,
            settle_last: f64::NAN,
            settle_ewma: f64::NAN,
            settle_max: f64::NAN,
            overshoot_last: f64::NAN,
            overshoot_ewma: f64::NAN,
            overshoot_max: f64::NAN,
            pinned_high_periods: 0,
            pinned_low_periods: 0,
            slo_violation_periods: 0,
            slo_violation_seconds: 0.0,
            last_mode: None,
            hold_periods: 0,
            fallback_periods: 0,
            mode_transitions: 0,
            faulted_periods: 0,
            adapt_seen: false,
            adapt_cost_us: f64::NAN,
            adapt_generation: 0,
            adapt_swaps: 0,
            adapt_arm: -1,
            transitions: 0,
            anomalies: 0,
            first_anomaly_k: None,
            periods_in_state: [0; 5],
            events: Ring::with_capacity(EVENT_RING),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &DiagnosticsConfig {
        &self.cfg
    }

    /// The current classification.
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// Consumes one period's trace; returns `Some((from, to))` when the
    /// classification changed.
    pub fn observe(&mut self, trace: &ControlTrace) -> Option<(HealthState, HealthState)> {
        let t = self.cfg.target_delay_s;
        let band = t * (1.0 + self.cfg.error_band_frac);

        // The delay signal: prefer the controller's own estimate ŷ(k)
        // (what the loop regulates), fall back to the measured mean
        // delay. The error likewise prefers the reported e(k).
        let y = if trace.y_hat_s.is_finite() {
            trace.y_hat_s
        } else if trace.mean_delay_ms.is_finite() {
            trace.mean_delay_ms / 1e3
        } else {
            f64::NAN
        };
        let e = if trace.error_s.is_finite() {
            trace.error_s
        } else if y.is_finite() {
            t - y
        } else {
            f64::NAN
        };
        // Out-of-band: delay above the band. (e = y_d − y, so e < −band·y_d
        // is the same condition when only the error is reported.)
        let viol = if y.is_finite() {
            y > band
        } else if e.is_finite() {
            e < t - band
        } else {
            false
        };
        let alpha = trace.alpha;

        self.periods += 1;
        self.last_k = trace.k;
        self.last_y = y;
        self.last_error = e;
        self.last_alpha = alpha;

        // --- Settling/overshoot episode tracking -----------------------
        if viol {
            self.violation_streak += 1;
            if y.is_finite() {
                self.episode_peak_frac = self.episode_peak_frac.max((y - t) / t);
            }
        } else if self.violation_streak > 0 {
            // Episode ended: its length is a settling-time sample, its
            // peak excursion an overshoot sample.
            let settle = self.violation_streak as f64;
            self.settle_last = settle;
            self.settle_max = if self.settle_max.is_finite() {
                self.settle_max.max(settle)
            } else {
                settle
            };
            self.settle_ewma = if self.settle_ewma.is_finite() {
                EST_EWMA * settle + (1.0 - EST_EWMA) * self.settle_ewma
            } else {
                settle
            };
            self.settle_samples += 1;
            let os = self.episode_peak_frac;
            self.overshoot_last = os;
            self.overshoot_max = if self.overshoot_max.is_finite() {
                self.overshoot_max.max(os)
            } else {
                os
            };
            self.overshoot_ewma = if self.overshoot_ewma.is_finite() {
                EST_EWMA * os + (1.0 - EST_EWMA) * self.overshoot_ewma
            } else {
                os
            };
            self.violation_streak = 0;
            self.episode_peak_frac = 0.0;
        }

        // --- SLO burn ---------------------------------------------------
        let above_target = y.is_finite() && y > t;
        if above_target {
            self.slo_violation_periods += 1;
            self.slo_violation_seconds += (y - t) * trace.period_s.max(0.0);
        }
        let bw = self.cfg.burn_window;
        if self.burn_len < bw {
            self.burn_len += 1;
        }
        self.burn_win[self.burn_next] = above_target;
        self.burn_next = (self.burn_next + 1) % bw;
        let sw = self.cfg.burn_slow_window;
        if self.burn2_len < sw {
            self.burn2_len += 1;
        }
        self.burn2_win[self.burn2_next] = above_target;
        self.burn2_next = (self.burn2_next + 1) % sw;

        // --- Actuator saturation ---------------------------------------
        let eps = self.cfg.alpha_pin_eps;
        let pinned_high = alpha >= 1.0 - eps;
        let pinned_low = alpha <= eps;
        if pinned_high {
            self.pinned_high_periods += 1;
        }
        if pinned_low && viol {
            self.pinned_low_periods += 1;
        }
        if (pinned_high || pinned_low) && viol {
            self.pinned_streak += 1;
        } else {
            self.pinned_streak = 0;
        }

        // --- Oscillation window ----------------------------------------
        let w = self.cfg.window;
        if self.win_len < w {
            self.err_win[self.win_next] = e;
            self.alpha_win[self.win_next] = alpha;
            self.win_len += 1;
        } else {
            self.err_win[self.win_next] = e;
            self.alpha_win[self.win_next] = alpha;
        }
        self.win_next = (self.win_next + 1) % w;
        self.flips = self.count_flips();

        // --- Mode + fault accounting -----------------------------------
        match trace.mode {
            LoopMode::Hold => self.hold_periods += 1,
            LoopMode::Fallback => self.fallback_periods += 1,
            LoopMode::Direct | LoopMode::Engaged => {}
        }
        if let Some(prev) = self.last_mode {
            if prev != trace.mode {
                self.mode_transitions += 1;
            }
        }
        self.last_mode = Some(trace.mode);
        if trace.fault_flags != 0 {
            self.faulted_periods += 1;
        }

        // --- Self-tuning state mirror ----------------------------------
        if trace.adapt_cost_us.is_finite() || trace.adapt_arm >= 0 {
            self.adapt_seen = true;
            self.adapt_cost_us = trace.adapt_cost_us;
            self.adapt_generation = trace.adapt_generation;
            self.adapt_swaps = trace.adapt_swaps;
            self.adapt_arm = trace.adapt_arm;
        }

        // --- Classification --------------------------------------------
        // Burn evidence escalates only once the slow window is full:
        // both arms of the fast/slow pair must burn at or above the
        // configured fraction, so a short spike (fast-only) or a stale
        // historical burn (slow-only) never trips it alone.
        let (burn_fast, burn_slow) = self.burn_pair();
        let burn_alarm = self.burn2_len == self.cfg.burn_slow_window
            && burn_fast >= self.cfg.burn_diverge_frac
            && burn_slow >= self.cfg.burn_diverge_frac;
        let new_state = if self.violation_streak > self.cfg.grace_periods || burn_alarm {
            HealthState::Diverging
        } else if self.pinned_streak >= self.cfg.saturation_periods {
            HealthState::Saturated
        } else if self.flips >= self.cfg.osc_min_flips {
            HealthState::Oscillating
        } else if viol {
            HealthState::Settling
        } else {
            HealthState::Healthy
        };
        self.periods_in_state[new_state.ordinal() as usize] += 1;

        if new_state != self.state {
            let from = self.state;
            self.state = new_state;
            self.transitions += 1;
            if new_state.is_anomalous() {
                self.anomalies += 1;
                if self.first_anomaly_k.is_none() {
                    self.first_anomaly_k = Some(trace.k);
                }
            }
            self.events.push(DiagEvent {
                k: trace.k,
                from,
                to: new_state,
            });
            Some((from, new_state))
        } else {
            None
        }
    }

    /// The (fast, slow) SLO burn rates: fractions of the most recent
    /// `burn_fast_window` / `burn_slow_window` periods with the delay
    /// above target (0.0 before any period).
    fn burn_pair(&self) -> (f64, f64) {
        if self.burn2_len == 0 {
            return (0.0, 0.0);
        }
        let sw = self.cfg.burn_slow_window;
        let slow_hits = self.burn2_win[..self.burn2_len].iter().filter(|&&b| b).count();
        let slow = slow_hits as f64 / self.burn2_len as f64;
        let fw = self.cfg.burn_fast_window.min(self.burn2_len);
        let mut fast_hits = 0usize;
        for back in 1..=fw {
            // Most recent sample is one slot behind the cursor.
            let idx = (self.burn2_next + sw - (back % sw)) % sw;
            if self.burn2_win[idx] {
                fast_hits += 1;
            }
        }
        (fast_hits as f64 / fw as f64, slow)
    }

    /// Counts oscillation evidence over the window: gated sign flips of
    /// `e(k)` plus direction reversals of `α(k)` with sufficient swing;
    /// the larger of the two is the loop's flip count.
    fn count_flips(&self) -> u32 {
        let w = self.cfg.window;
        let n = self.win_len;
        if n < 3 {
            return 0;
        }
        // Chronological index: oldest sample first.
        let at = |i: usize| -> usize {
            if n < w {
                i
            } else {
                (self.win_next + i) % w
            }
        };
        let gate = self.cfg.osc_min_error_frac * self.cfg.target_delay_s;
        let mut err_flips = 0u32;
        let mut prev_sig: Option<f64> = None;
        for i in 0..n {
            let e = self.err_win[at(i)];
            if !e.is_finite() || e.abs() < gate {
                continue;
            }
            if let Some(p) = prev_sig {
                if (e > 0.0) != (p > 0.0) {
                    err_flips += 1;
                }
            }
            prev_sig = Some(e);
        }
        let mut alpha_revs = 0u32;
        let mut prev_delta: Option<f64> = None;
        for i in 1..n {
            let d = self.alpha_win[at(i)] - self.alpha_win[at(i - 1)];
            if d.abs() < self.cfg.alpha_swing {
                continue;
            }
            if let Some(p) = prev_delta {
                if (d > 0.0) != (p > 0.0) {
                    alpha_revs += 1;
                }
            }
            prev_delta = Some(d);
        }
        err_flips.max(alpha_revs)
    }

    /// A point-in-time copy of the verdict and every estimator.
    pub fn snapshot(&self) -> DiagnosticsSnapshot {
        let (slo_burn_fast, slo_burn_slow) = self.burn_pair();
        DiagnosticsSnapshot {
            state: self.state,
            k: self.last_k,
            periods: self.periods,
            target_delay_s: self.cfg.target_delay_s,
            y_s: self.last_y,
            error_s: self.last_error,
            alpha: self.last_alpha,
            violation_streak: self.violation_streak,
            pinned_streak: self.pinned_streak,
            flips_in_window: self.flips,
            flip_rate: self.flips as f64 / self.cfg.window as f64,
            settle_samples: self.settle_samples,
            settle_last_periods: self.settle_last,
            settle_ewma_periods: self.settle_ewma,
            settle_max_periods: self.settle_max,
            settle_target_periods: self.cfg.settle_target_periods,
            overshoot_last_frac: self.overshoot_last,
            overshoot_ewma_frac: self.overshoot_ewma,
            overshoot_max_frac: self.overshoot_max,
            pinned_high_periods: self.pinned_high_periods,
            pinned_low_periods: self.pinned_low_periods,
            slo_violation_periods: self.slo_violation_periods,
            slo_burn_rate: if self.burn_len == 0 {
                0.0
            } else {
                self.burn_win[..self.burn_len]
                    .iter()
                    .filter(|&&b| b)
                    .count() as f64
                    / self.burn_len as f64
            },
            slo_burn_fast,
            slo_burn_slow,
            slo_violation_seconds: self.slo_violation_seconds,
            hold_periods: self.hold_periods,
            fallback_periods: self.fallback_periods,
            mode_transitions: self.mode_transitions,
            faulted_periods: self.faulted_periods,
            transitions: self.transitions,
            anomalies: self.anomalies,
            first_anomaly_k: self.first_anomaly_k,
            periods_in_state: self.periods_in_state,
            adapt_seen: self.adapt_seen,
            adapt_cost_est_us: self.adapt_cost_us,
            adapt_generation: self.adapt_generation,
            adapt_swaps: self.adapt_swaps,
            adapt_arm: self.adapt_arm,
            recent_events: self.events.to_vec(),
        }
    }
}

impl EventSink for ControllerHealth {
    fn record(&mut self, trace: &ControlTrace) {
        let _ = self.observe(trace);
    }
}

/// A cloneable, thread-safe handle to a [`ControllerHealth`] engine —
/// shared between the controller thread (writer, via [`EventSink`]) and
/// the HTTP endpoints (readers).
#[derive(Debug, Clone)]
pub struct SharedDiagnostics(Arc<Mutex<ControllerHealth>>);

impl SharedDiagnostics {
    /// Creates a shared diagnostics engine.
    pub fn new(cfg: DiagnosticsConfig) -> Self {
        Self(Arc::new(Mutex::new(ControllerHealth::new(cfg))))
    }

    /// The estimators are plain numbers, valid after any interrupted
    /// update.
    fn lock(&self) -> MutexGuard<'_, ControllerHealth> {
        crate::lock_unpoisoned(&self.0)
    }

    /// Consumes one period's trace; returns the transition, if any.
    pub fn observe(&self, trace: &ControlTrace) -> Option<(HealthState, HealthState)> {
        self.lock().observe(trace)
    }

    /// The current classification.
    pub fn state(&self) -> HealthState {
        self.lock().state()
    }

    /// A point-in-time copy of the verdict and every estimator.
    pub fn snapshot(&self) -> DiagnosticsSnapshot {
        self.lock().snapshot()
    }
}

impl EventSink for SharedDiagnostics {
    fn record(&mut self, trace: &ControlTrace) {
        let _ = self.observe(trace);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hook::{Decision, PeriodSnapshot};
    use crate::time::{secs, SimTime};

    const TARGET: f64 = 2.0;

    fn cfg() -> DiagnosticsConfig {
        DiagnosticsConfig::for_target(Duration::from_secs(2))
    }

    /// A trace with a chosen estimated delay (s) and alpha.
    fn trace(k: u64, y_s: f64, alpha: f64) -> ControlTrace {
        let snap = PeriodSnapshot {
            k,
            now: SimTime::ZERO + secs(k + 1),
            period: secs(1),
            offered: 300,
            admitted: 250,
            dropped_entry: 50,
            dropped_network: 0,
            completed: 190,
            outstanding: 60,
            queued_tuples: 60,
            queued_load_us: 300_000.0,
            measured_cost_us: Some(5000.0),
            mean_delay_ms: Some(y_s * 1e3),
            cpu_busy_us: 950_000,
        };
        let mut t = ControlTrace::capture(&snap, &Decision::entry(alpha), None, 500);
        t.y_hat_s = y_s;
        t.error_s = TARGET - y_s;
        t
    }

    #[test]
    fn burn_pair_escalates_only_with_full_slow_window() {
        let mut h = ControllerHealth::new(cfg());
        // A dip below target every 12th period keeps the violation
        // streak under the grace budget, so only burn evidence can
        // reach `Diverging` — and it must wait for a full slow window.
        let y_at = |k: u64| match k % 12 {
            0 => 0.5,
            _ => 3.0 * TARGET,
        };
        for k in 0..40 {
            h.observe(&trace(k, y_at(k), 0.5));
        }
        assert_ne!(
            h.state(),
            HealthState::Diverging,
            "burn cannot escalate before the slow window fills"
        );
        // k = 66..=70 are all above target, so at k = 70 the fast
        // window burns at 1.0 and the slow window at 55/60.
        for k in 40..71 {
            h.observe(&trace(k, y_at(k), 0.5));
        }
        let snap = h.snapshot();
        assert!((snap.slo_burn_fast - 1.0).abs() < 1e-9, "{}", snap.slo_burn_fast);
        assert!(snap.slo_burn_slow >= 0.9, "{}", snap.slo_burn_slow);
        assert_eq!(h.state(), HealthState::Diverging);
        assert!(snap.to_json().contains("\"slo_burn_fast\":1"));
    }

    #[test]
    fn nominal_run_stays_healthy() {
        let mut h = ControllerHealth::new(cfg());
        for k in 0..40 {
            h.observe(&trace(k, TARGET * (1.0 + 0.05 * ((k % 3) as f64 - 1.0)), 0.35));
        }
        assert_eq!(h.state(), HealthState::Healthy);
        let s = h.snapshot();
        assert_eq!(s.anomalies, 0);
        assert!(s.healthy_fraction() > 0.9, "{}", s.healthy_fraction());
        assert_eq!(s.http_status(), 200);
    }

    #[test]
    fn excursion_settles_and_records_settling_time() {
        let mut h = ControllerHealth::new(cfg());
        // Settled, then a 3-period excursion peaking at 2× target, then
        // settled again — exactly the paper's design trajectory.
        for k in 0..5 {
            h.observe(&trace(k, TARGET, 0.3));
        }
        assert_eq!(h.state(), HealthState::Healthy);
        for (i, y) in [4.0, 3.2, 2.8].iter().enumerate() {
            h.observe(&trace(5 + i as u64, *y, 0.5));
            assert_eq!(h.state(), HealthState::Settling, "period {i}");
        }
        h.observe(&trace(8, TARGET, 0.4));
        assert_eq!(h.state(), HealthState::Healthy);
        let s = h.snapshot();
        assert_eq!(s.settle_samples, 1);
        assert_eq!(s.settle_last_periods, 3.0);
        assert!((s.overshoot_last_frac - 1.0).abs() < 1e-9, "{}", s.overshoot_last_frac);
        assert!(s.slo_violation_periods >= 3);
        assert!(s.slo_violation_seconds > 0.0);
        assert_eq!(s.transitions, 2, "healthy→settling→healthy");
    }

    #[test]
    fn persistent_violation_diverges_after_grace() {
        let mut h = ControllerHealth::new(cfg());
        let mut first_div = None;
        for k in 0..20 {
            // Delay stuck at 3× target with alpha mid-range (not pinned,
            // not flapping) — nothing explains the error but divergence.
            h.observe(&trace(k, 3.0 * TARGET, 0.5));
            if h.state() == HealthState::Diverging && first_div.is_none() {
                first_div = Some(k);
            }
        }
        assert_eq!(h.state(), HealthState::Diverging);
        let grace = cfg().grace_periods;
        assert_eq!(first_div, Some(grace), "diverging right after grace");
        assert_eq!(h.snapshot().http_status(), 503);
        assert_eq!(h.snapshot().first_anomaly_k, Some(grace));
    }

    #[test]
    fn pinned_actuator_under_violation_is_saturated() {
        let mut h = ControllerHealth::new(cfg());
        h.observe(&trace(0, TARGET, 0.3));
        // α pinned at 1 while the delay violates: saturated after the
        // configured streak.
        for k in 1..=3 {
            h.observe(&trace(k, 2.0 * TARGET, 1.0));
        }
        assert_eq!(h.state(), HealthState::Saturated);
        let s = h.snapshot();
        assert_eq!(s.first_anomaly_k, Some(3));
        assert!(s.pinned_high_periods >= 3);
        assert_eq!(s.http_status(), 200, "saturated is alertable but not fatal");

        // α pinned at 0 while violating (ignored actuator) saturates too.
        let mut h2 = ControllerHealth::new(cfg());
        for k in 0..4 {
            h2.observe(&trace(k, 2.0 * TARGET, 0.0));
        }
        assert_eq!(h2.state(), HealthState::Saturated);
        assert!(h2.snapshot().pinned_low_periods >= 3);
    }

    #[test]
    fn bang_bang_actuation_is_oscillating_within_five_periods() {
        let mut h = ControllerHealth::new(cfg());
        let mut detected = None;
        for k in 0..10 {
            // Full-swing alternation of α, delay hovering near target.
            let alpha = if k % 2 == 0 { 1.0 } else { 0.0 };
            h.observe(&trace(k, TARGET * 1.05, alpha));
            if h.state() == HealthState::Oscillating && detected.is_none() {
                detected = Some(k);
            }
        }
        assert_eq!(h.state(), HealthState::Oscillating);
        assert!(detected.unwrap() <= 5, "detected at k={detected:?}");
    }

    #[test]
    fn error_sign_flips_detect_oscillation() {
        let mut h = ControllerHealth::new(cfg());
        let mut detected = None;
        for k in 0..10 {
            // Delay alternating ±50% around the target (outside the
            // noise gate), alpha steady — the e(k) flip path.
            let y = if k % 2 == 0 { TARGET * 1.5 } else { TARGET * 0.5 };
            h.observe(&trace(k, y, 0.5));
            if h.state() == HealthState::Oscillating && detected.is_none() {
                detected = Some(k);
            }
        }
        assert_eq!(h.state(), HealthState::Oscillating);
        assert!(detected.unwrap() <= 6, "detected at k={detected:?}");
    }

    #[test]
    fn small_noise_never_counts_as_oscillation() {
        let mut h = ControllerHealth::new(cfg());
        for k in 0..40 {
            // e(k) flips sign every period but inside the noise gate;
            // alpha wiggles below the swing threshold.
            let y = TARGET * (1.0 + 0.02 * if k % 2 == 0 { 1.0 } else { -1.0 });
            let alpha = 0.4 + 0.05 * ((k % 2) as f64);
            h.observe(&trace(k, y, alpha));
        }
        assert_eq!(h.state(), HealthState::Healthy);
        assert_eq!(h.snapshot().flips_in_window, 0);
    }

    #[test]
    fn mode_and_fault_accounting() {
        let mut h = ControllerHealth::new(cfg());
        let mut t0 = trace(0, TARGET, 0.3);
        t0.mode = LoopMode::Engaged;
        h.observe(&t0);
        let mut t1 = trace(1, TARGET, 0.3);
        t1.mode = LoopMode::Hold;
        t1.fault_flags = crate::telemetry::FLAG_SENSOR_DROPOUT;
        h.observe(&t1);
        let mut t2 = trace(2, TARGET, 0.3);
        t2.mode = LoopMode::Fallback;
        h.observe(&t2);
        let s = h.snapshot();
        assert_eq!(s.hold_periods, 1);
        assert_eq!(s.fallback_periods, 1);
        assert_eq!(s.mode_transitions, 2);
        assert_eq!(s.faulted_periods, 1);
    }

    #[test]
    fn snapshot_json_is_valid_and_nan_safe() {
        let h = ControllerHealth::new(cfg());
        let json = h.snapshot().to_json();
        assert!(json.contains("\"state\":\"healthy\""));
        assert!(json.contains("\"settle_ewma_periods\":null"), "{json}");
        assert!(json.contains("\"first_anomaly_k\":null"));
        assert!(!json.contains("NaN"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());

        let mut h = ControllerHealth::new(cfg());
        for k in 0..4 {
            h.observe(&trace(k, 2.0 * TARGET, 1.0));
        }
        let json = h.snapshot().to_json();
        assert!(json.contains("\"state\":\"saturated\""));
        assert!(json.contains("\"to\":\"saturated\""), "{json}");
        assert!(json.contains("\"first_anomaly_k\":"));
    }

    #[test]
    fn prom_families_render_with_state_label() {
        let mut h = ControllerHealth::new(cfg());
        for k in 0..4 {
            h.observe(&trace(k, 2.0 * TARGET, 1.0));
        }
        let mut p = PromText::new("streamshed");
        h.snapshot().render_prom(&mut p);
        let text = p.finish();
        assert!(text.contains("streamshed_diag_state 3"), "{text}");
        assert!(text.contains("streamshed_diag_state_info{state=\"saturated\"} 1"));
        assert!(text.contains("# TYPE streamshed_diag_anomalies_total counter"));
        assert!(text.contains("streamshed_diag_periods_total 4"));
    }

    #[test]
    fn adaptive_state_mirrors_into_snapshot_json_and_prom() {
        let mut h = ControllerHealth::new(cfg());
        // A plain trace leaves the adapt families dark.
        h.observe(&trace(0, TARGET, 0.3));
        let s = h.snapshot();
        assert!(!s.adapt_seen);
        assert!(s.adapt_cost_est_us.is_nan());
        let mut p = PromText::new("streamshed");
        s.render_prom(&mut p);
        assert!(!p.finish().contains("streamshed_adapt_"));
        assert!(s.to_json().contains("\"adapt_cost_est_us\":null"));

        // An adaptive trace lights them up.
        let mut t = trace(1, TARGET, 0.3);
        t.adapt_cost_us = 10_210.5;
        t.adapt_generation = 2;
        t.adapt_swaps = 3;
        t.adapt_arm = 1;
        h.observe(&t);
        let s = h.snapshot();
        assert!(s.adapt_seen);
        assert_eq!(s.adapt_cost_est_us, 10_210.5);
        assert_eq!(s.adapt_generation, 2);
        assert_eq!(s.adapt_swaps, 3);
        assert_eq!(s.adapt_arm, 1);
        let mut p = PromText::new("streamshed");
        s.render_prom(&mut p);
        let text = p.finish();
        assert!(text.contains("streamshed_adapt_cost_est_us 10210.5"), "{text}");
        assert!(text.contains("streamshed_adapt_gain_generation 2"));
        assert!(text.contains("streamshed_adapt_swaps_total 3"));
        assert!(text.contains("streamshed_adapt_comparator_arm 1"));
        assert!(s.to_json().contains("\"adapt_swaps\":3"));
    }

    #[test]
    fn shared_handle_works_as_event_sink() {
        let diag = SharedDiagnostics::new(cfg());
        let mut sink = diag.clone();
        for k in 0..5 {
            sink.record(&trace(k, TARGET, 0.3));
        }
        assert_eq!(diag.state(), HealthState::Healthy);
        assert_eq!(diag.snapshot().periods, 5);
    }
}
