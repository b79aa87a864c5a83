//! Online controller-health diagnostics.
//!
//! The paper's pole placement at `(z − 0.7)²` is a *trajectory* promise:
//! the closed loop settles in ~3 control periods with damping 1 (no
//! overshoot). This module checks it **online**, one period at a time,
//! at the [`ControlTrace`] seam — so an oscillating, saturated or blind
//! controller is visible the period it happens, not in a post-mortem.
//! Each loop owns one [`ControllerHealth`], fed by
//! [`control_step`](crate::telemetry::control_step): its verdict is the
//! trace's `health` column, and the supervisor acts on it.
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
//! * **Blindness** — the departures' measured delay beyond the band
//!   around the target and every `ŷ` made while they queued: the loop
//!   regulates an estimate the measurement contradicts (a frozen queue
//!   sensor), so it is `Diverging` without a grace budget.
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
//! [`SharedDiagnostics`] is the cloneable, thread-safe handle the
//! sharded engine's controller feeds and its observability plane
//! ([`ObsPlane`](crate::obs::ObsPlane)) reads.

use crate::telemetry::{
    write_json_object, Cell, ControlTrace, LoopMode, MetricKind, PromText, Ring,
};
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
    /// The delay has stayed outside the band beyond the grace budget,
    /// or the loop is blind: it is not converging.
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

/// The design settling time, periods (the paper's `(z − 0.7)²`
/// placement: ~3).
const SETTLE_TARGET_PERIODS: u64 = 3;
/// Sliding-window length for oscillation detection, periods.
const OSC_WINDOW: usize = 16;
/// `α ≥ 1 − eps` (or `≤ eps`) counts as pinned.
const ALPHA_PIN_EPS: f64 = 1e-3;
/// Rolling window for the SLO burn rate, periods.
const BURN_WINDOW: usize = 32;
/// Fast SLO burn window, periods: the multi-window burn-rate pair's short
/// arm.
const BURN_FAST_WINDOW: usize = 5;
/// Slow SLO burn window, periods, and the burn history kept: every burn
/// rate reads the most recent periods of one history. Both rates of the
/// pair must reach [`BURN_DIVERGE_FRAC`] — with this window *full* —
/// before burn evidence alone escalates to `Diverging`.
const BURN_SLOW_WINDOW: usize = 60;
/// Burn-rate fraction at which the fast/slow pair escalates the loop to
/// `Diverging`.
const BURN_DIVERGE_FRAC: f64 = 0.9;
/// Consecutive blind periods that classify the loop `Diverging`.
const BLIND_PERIODS: u64 = 2;
/// [`DiagnosticsConfig::for_target`]'s error band, a fraction of the target.
pub const WALL_CLOCK_BAND_FRAC: f64 = 0.3;

/// Tuning of the diagnostics engine: [`Self::for_target`] in the sharded
/// engine, [`Self::for_simulation`] in the simulator (CONTROL.md, "Loop
/// health", says why there are two).
#[derive(Debug, Clone)]
pub struct DiagnosticsConfig {
    /// The delay target `y_d`, seconds.
    pub target_delay_s: f64,
    /// Half-width of the error band as a fraction of the target: the
    /// delay is "settled" while `y ≤ y_d · (1 + band)`. Sized generously
    /// (wall-clock delay measurements are noisy).
    pub error_band_frac: f64,
    /// Sign flips (of `e(k)`, or actuation reversals) within the window
    /// that classify the loop `Oscillating`.
    pub osc_min_flips: u32,
    /// A sign flip of `e(k)` only counts when both samples exceed this
    /// fraction of the target in magnitude (noise gate).
    pub osc_min_error_frac: f64,
    /// An `α` move only counts as an actuation reversal when its
    /// magnitude is at least this much.
    pub alpha_swing: f64,
    /// Consecutive pinned-while-violating periods that classify the
    /// loop `Saturated`.
    pub saturation_periods: u64,
    /// Consecutive out-of-band periods beyond which the loop is
    /// `Diverging` (the grace budget; ≥ the settle target).
    pub grace_periods: u64,
}

impl DiagnosticsConfig {
    /// The wall-clock engine's tuning: the paper's 3-period settling with
    /// a 30% band, 3 flips in the 16-period window, a 3-period pin and a
    /// 12-period grace — a broken loop is flagged within 5 periods.
    pub fn for_target(target_delay: Duration) -> Self {
        Self {
            target_delay_s: target_delay.as_secs_f64(),
            error_band_frac: WALL_CLOCK_BAND_FRAC,
            osc_min_flips: 3,
            osc_min_error_frac: 0.10,
            alpha_swing: 0.25,
            saturation_periods: 3,
            grace_periods: 12,
        }
    }

    /// The simulator's tuning, detuned for the campaign's loops: a
    /// well-regulated stochastic loop at 1.6× overload crosses its target
    /// every few periods, moves `α` with every burst and can sit above a
    /// tight band for tens of periods while it tracks a cost ramp, all
    /// with a bounded tail. These gates only trip on what a broken loop
    /// produces: 6+ large flips in the window (|e| > 0.6·target on both
    /// sides, `α` reversals ≥ 0.6), a 24-period out-of-band streak (band
    /// 75 %), or a 10-period full-shed pin.
    pub fn for_simulation(target_delay: Duration) -> Self {
        Self {
            error_band_frac: 0.75,
            osc_min_flips: 6,
            osc_min_error_frac: 0.6,
            alpha_swing: 0.6,
            grace_periods: 24,
            saturation_periods: 10,
            ..Self::for_target(target_delay)
        }
    }

    fn validate(&self) {
        assert!(
            self.target_delay_s > 0.0 && self.target_delay_s.is_finite(),
            "target delay must be positive"
        );
        assert!(self.error_band_frac >= 0.0);
        assert!(self.alpha_swing > 0.0);
        assert!(self.saturation_periods >= 1);
        assert!(
            self.grace_periods >= SETTLE_TARGET_PERIODS,
            "grace must cover the settle target"
        );
    }
}

/// A point-in-time copy of everything the diagnostics engine knows —
/// what `/health` serializes and the flight recorder embeds in its
/// bundle header. (`Default` is all zeros; a fresh engine's snapshot
/// reads `NaN` for what it has not measured yet.)
#[derive(Debug, Clone, Default)]
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
    /// Consecutive blind periods.
    pub blind_streak: u64,
    /// Consecutive periods with `α` pinned while violating.
    pub pinned_streak: u64,
    /// Sign flips (error or actuation) in the current window.
    pub flips_in_window: u32,
    /// Flip rate: flips / window.
    pub flip_rate: f64,
    /// Settling-time samples seen (completed excursion episodes).
    pub settle_samples: u64,
    /// Settling time of the excursion episodes, periods.
    pub settle: EpisodeEstimate,
    /// The design settling target, periods.
    pub settle_target_periods: u64,
    /// Peak overshoot of the excursion episodes, fraction of the target.
    pub overshoot: EpisodeEstimate,
    /// Periods with `α` pinned at 1, total.
    pub pinned_high_periods: u64,
    /// Periods with `α` pinned at 0 while violating, total.
    pub pinned_low_periods: u64,
    /// Periods with the delay above target (no band), total.
    pub slo_violation_periods: u64,
    /// Fraction of the burn window (32 periods) with the delay above
    /// target.
    pub slo_burn_rate: f64,
    /// Burn rate over the fast window (the 5 most recent periods).
    pub slo_burn_fast: f64,
    /// Burn rate over the slow window (the 60 most recent periods; 0.0
    /// until any period arrives).
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
        use Cell::{F, U};
        let mut in_state = String::new();
        let counts = self.periods_in_state.iter().zip(HealthState::ALL);
        write_json_object(&mut in_state, counts.map(|(&n, s)| (s.as_str(), U(n))));
        let mut events = String::from("[");
        for (i, e) in self.recent_events.iter().enumerate() {
            if i > 0 {
                events.push(',');
            }
            let (from, to) = (Cell::Str(e.from.as_str()), Cell::Str(e.to.as_str()));
            write_json_object(&mut events, [("k", U(e.k)), ("from", from), ("to", to)]);
        }
        events.push(']');
        let mut out = String::with_capacity(1536);
        write_json_object(
            &mut out,
            [
                ("state", Cell::Str(self.state.as_str())),
                ("ok", Cell::Bool(self.ok())),
                ("k", U(self.k)),
                ("periods", U(self.periods)),
                ("target_delay_s", F(self.target_delay_s)),
                ("y_s", F(self.y_s)),
                ("error_s", F(self.error_s)),
                ("alpha", F(self.alpha)),
                ("violation_streak", U(self.violation_streak)),
                ("blind_streak", U(self.blind_streak)),
                ("pinned_streak", U(self.pinned_streak)),
                ("flips_in_window", U(self.flips_in_window.into())),
                ("flip_rate", F(self.flip_rate)),
                ("settle_samples", U(self.settle_samples)),
                ("settle_last_periods", F(self.settle.last)),
                ("settle_ewma_periods", F(self.settle.ewma)),
                ("settle_max_periods", F(self.settle.max)),
                ("settle_target_periods", U(self.settle_target_periods)),
                ("overshoot_last_frac", F(self.overshoot.last)),
                ("overshoot_ewma_frac", F(self.overshoot.ewma)),
                ("overshoot_max_frac", F(self.overshoot.max)),
                ("pinned_high_periods", U(self.pinned_high_periods)),
                ("pinned_low_periods", U(self.pinned_low_periods)),
                ("slo_violation_periods", U(self.slo_violation_periods)),
                ("slo_burn_rate", F(self.slo_burn_rate)),
                ("slo_burn_fast", F(self.slo_burn_fast)),
                ("slo_burn_slow", F(self.slo_burn_slow)),
                ("slo_violation_seconds", F(self.slo_violation_seconds)),
                ("hold_periods", U(self.hold_periods)),
                ("fallback_periods", U(self.fallback_periods)),
                ("mode_transitions", U(self.mode_transitions)),
                ("faulted_periods", U(self.faulted_periods)),
                ("transitions", U(self.transitions)),
                ("anomalies", U(self.anomalies)),
                ("first_anomaly_k", self.first_anomaly_k.map_or(Cell::Raw("null"), U)),
                ("periods_in_state", Cell::Raw(&in_state)),
                ("recent_events", Cell::Raw(&events)),
            ],
        );
        out
    }

    /// Appends the diagnostics metric families to a Prometheus builder
    /// (the `/metrics` extension).
    pub fn render_prom(&self, p: &mut PromText) {
        p.gauge(
            "diag_state",
            "Controller health state ordinal (0 healthy, 1 settling, 2 oscillating, 3 saturated, 4 diverging)",
            self.state.ordinal() as f64,
        )
        .family(
            "diag_state_info",
            "Controller health state as a label (value is always 1)",
            MetricKind::Gauge,
        )
        .sample(&[("state", self.state.as_str())], 1.0);
        p.counter(
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
            self.settle.ewma,
        )
        .gauge(
            "diag_settle_max_periods",
            "Worst observed settling time, periods",
            self.settle.max,
        )
        .gauge(
            "diag_overshoot_ewma_frac",
            "EWMA peak overshoot per excursion, fraction of target (design target: 0)",
            self.overshoot.ewma,
        )
        .gauge(
            "diag_overshoot_max_frac",
            "Worst observed overshoot, fraction of target",
            self.overshoot.max,
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
    }
}

/// Last, EWMA and worst of a per-episode sample (each `NaN` before the
/// first episode ends).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EpisodeEstimate {
    /// The last episode's sample.
    pub last: f64,
    /// EWMA of the samples (weight [`EST_EWMA`] on the newest).
    pub ewma: f64,
    /// The worst sample.
    pub max: f64,
}

impl EpisodeEstimate {
    const UNSEEN: Self = Self {
        last: f64::NAN,
        ewma: f64::NAN,
        max: f64::NAN,
    };

    fn push(&mut self, x: f64) {
        self.last = x;
        self.max = if self.max.is_finite() { self.max.max(x) } else { x };
        self.ewma = if self.ewma.is_finite() {
            EST_EWMA * x + (1.0 - EST_EWMA) * self.ewma
        } else {
            x
        };
    }
}

/// The online controller-health engine. Feed it one [`ControlTrace`]
/// per period via [`ControllerHealth::observe`]; read the verdict via
/// [`ControllerHealth::snapshot`].
#[derive(Debug, Clone)]
pub struct ControllerHealth {
    cfg: DiagnosticsConfig,
    /// The verdict and every counter and estimator it reports; the rates
    /// and the event list are filled in by [`Self::snapshot`].
    report: DiagnosticsSnapshot,
    // Oscillation window (chronological via cursor arithmetic).
    err_win: [f64; OSC_WINDOW],
    alpha_win: [f64; OSC_WINDOW],
    /// The estimates ŷ, for the blindness test.
    y_hat_win: [f64; OSC_WINDOW],
    win_len: usize,
    win_next: usize,
    /// Above-target flags of the most recent periods, newest in bit 0;
    /// `burn_len` (≤ [`BURN_SLOW_WINDOW`]) of them are valid.
    burn: u64,
    burn_len: usize,
    /// Peak excursion of the episode in progress.
    episode_peak_frac: f64,
    last_mode: Option<LoopMode>,
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
        let report = DiagnosticsSnapshot {
            target_delay_s: cfg.target_delay_s,
            y_s: f64::NAN,
            error_s: f64::NAN,
            settle: EpisodeEstimate::UNSEEN,
            settle_target_periods: SETTLE_TARGET_PERIODS,
            overshoot: EpisodeEstimate::UNSEEN,
            ..DiagnosticsSnapshot::default()
        };
        Self {
            cfg,
            report,
            err_win: [f64::NAN; OSC_WINDOW],
            alpha_win: [0.0; OSC_WINDOW],
            y_hat_win: [f64::NAN; OSC_WINDOW],
            win_len: 0,
            win_next: 0,
            burn: 0,
            burn_len: 0,
            episode_peak_frac: 0.0,
            last_mode: None,
            events: Ring::with_capacity(EVENT_RING),
        }
    }

    /// The current classification.
    pub fn state(&self) -> HealthState {
        self.report.state
    }

    /// Observes one period of a loop now steering to `target_s` (`NaN`
    /// keeps the target in force); returns the period's verdict.
    pub fn judge(&mut self, trace: &ControlTrace, target_s: f64) -> HealthState {
        if target_s.is_finite() && target_s > 0.0 {
            self.cfg.target_delay_s = target_s;
            self.report.target_delay_s = target_s;
        }
        self.observe(trace)
    }

    /// Consumes one period's trace; returns the period's verdict.
    pub fn observe(&mut self, trace: &ControlTrace) -> HealthState {
        let t = self.cfg.target_delay_s;
        let band = t * (1.0 + self.cfg.error_band_frac);

        // The delay signal: prefer the controller's own estimate ŷ(k)
        // (what the loop regulates), fall back to the measured mean
        // delay. The error likewise prefers the reported e(k).
        let measured = trace.mean_delay_ms / 1e3;
        let y = if trace.y_hat_s.is_finite() { trace.y_hat_s } else { measured };
        let e = if trace.error_s.is_finite() { trace.error_s } else { t - y };
        // Out-of-band: delay above the band (never when neither signal
        // exists).
        let viol = y > band;
        let alpha = trace.alpha;

        let r = &mut self.report;
        r.periods += 1;
        r.k = trace.k;
        r.y_s = y;
        r.error_s = e;
        r.alpha = alpha;

        // --- Settling/overshoot episode tracking -----------------------
        if viol {
            r.violation_streak += 1;
            if y.is_finite() {
                self.episode_peak_frac = self.episode_peak_frac.max((y - t) / t);
            }
        } else if r.violation_streak > 0 {
            // Episode ended: its length is a settling-time sample, its
            // peak excursion an overshoot sample.
            r.settle.push(r.violation_streak as f64);
            r.settle_samples += 1;
            r.overshoot.push(self.episode_peak_frac);
            r.violation_streak = 0;
            self.episode_peak_frac = 0.0;
        }

        // --- SLO burn ---------------------------------------------------
        let above_target = y.is_finite() && y > t;
        if above_target {
            r.slo_violation_periods += 1;
            r.slo_violation_seconds += (y - t) * trace.period_s.max(0.0);
        }
        self.burn = (self.burn << 1) | u64::from(above_target);
        self.burn_len = (self.burn_len + 1).min(BURN_SLOW_WINDOW);

        // --- Actuator saturation ---------------------------------------
        let pinned_high = alpha >= 1.0 - ALPHA_PIN_EPS;
        let pinned_low = alpha <= ALPHA_PIN_EPS;
        if pinned_high {
            r.pinned_high_periods += 1;
        }
        if pinned_low && viol {
            r.pinned_low_periods += 1;
        }
        if (pinned_high || pinned_low) && viol {
            r.pinned_streak += 1;
        } else {
            r.pinned_streak = 0;
        }

        // --- Mode + fault accounting -----------------------------------
        match trace.mode {
            LoopMode::Hold => r.hold_periods += 1,
            LoopMode::Fallback => r.fallback_periods += 1,
            LoopMode::Direct | LoopMode::Engaged => {}
        }
        if self.last_mode.is_some_and(|prev| prev != trace.mode) {
            r.mode_transitions += 1;
        }
        self.last_mode = Some(trace.mode);
        if trace.fault_flags != 0 {
            r.faulted_periods += 1;
        }

        // --- Oscillation window ----------------------------------------
        if self.win_len < OSC_WINDOW {
            self.win_len += 1;
        }
        self.err_win[self.win_next] = e;
        self.alpha_win[self.win_next] = alpha;
        self.y_hat_win[self.win_next] = trace.y_hat_s;
        self.win_next = (self.win_next + 1) % OSC_WINDOW;
        let flips = self.count_flips();
        self.report.flips_in_window = flips;

        // --- Blindness ---------------------------------------------------
        // This period's departures queued for about ⌈measured / T⌉
        // periods; blind when their delay lies beyond the band around the
        // target and every ŷ reported meanwhile.
        let queued = ((measured / trace.period_s).ceil() as usize).saturating_add(1);
        let believed = (0..queued.min(self.win_len))
            .map(|i| self.y_hat_win[(self.win_next + OSC_WINDOW - 1 - i) % OSC_WINDOW])
            .fold(t, f64::max);
        let blind = trace.y_hat_s.is_finite()
            && measured > believed * (1.0 + self.cfg.error_band_frac);
        let streak = &mut self.report.blind_streak;
        *streak = if blind { *streak + 1 } else { 0 };

        // --- Classification --------------------------------------------
        // Burn evidence escalates only once the slow window is full:
        // both arms of the fast/slow pair must burn at or above the
        // escalation fraction, so a short spike (fast-only) or a stale
        // historical burn (slow-only) never trips it alone.
        let burn_alarm = self.burn_len == BURN_SLOW_WINDOW
            && self.burn_rate(BURN_FAST_WINDOW) >= BURN_DIVERGE_FRAC
            && self.burn_rate(BURN_SLOW_WINDOW) >= BURN_DIVERGE_FRAC;
        let r = &mut self.report;
        let new_state = if r.violation_streak > self.cfg.grace_periods
            || r.blind_streak >= BLIND_PERIODS
            || burn_alarm
        {
            HealthState::Diverging
        } else if r.pinned_streak >= self.cfg.saturation_periods {
            HealthState::Saturated
        } else if flips >= self.cfg.osc_min_flips {
            HealthState::Oscillating
        } else if viol {
            HealthState::Settling
        } else {
            HealthState::Healthy
        };
        r.periods_in_state[new_state.ordinal() as usize] += 1;

        if new_state != r.state {
            let from = std::mem::replace(&mut r.state, new_state);
            r.transitions += 1;
            if new_state.is_anomalous() {
                r.anomalies += 1;
                r.first_anomaly_k.get_or_insert(trace.k);
            }
            self.events.push(DiagEvent {
                k: trace.k,
                from,
                to: new_state,
            });
        }
        new_state
    }

    /// Fraction of the most recent `window` periods (all of them while
    /// fewer were observed; 0.0 before any) with the delay above target.
    fn burn_rate(&self, window: usize) -> f64 {
        let n = window.min(self.burn_len);
        if n == 0 {
            return 0.0;
        }
        (self.burn & ((1u64 << n) - 1)).count_ones() as f64 / n as f64
    }

    /// Counts oscillation evidence over the window: gated sign flips of
    /// `e(k)` plus direction reversals of `α(k)` with sufficient swing;
    /// the larger of the two is the loop's flip count.
    fn count_flips(&self) -> u32 {
        let w = OSC_WINDOW;
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
        DiagnosticsSnapshot {
            flip_rate: self.report.flips_in_window as f64 / OSC_WINDOW as f64,
            slo_burn_rate: self.burn_rate(BURN_WINDOW),
            slo_burn_fast: self.burn_rate(BURN_FAST_WINDOW),
            slo_burn_slow: self.burn_rate(BURN_SLOW_WINDOW),
            recent_events: self.events.to_vec(),
            ..self.report.clone()
        }
    }
}

/// A cloneable, thread-safe handle to a [`ControllerHealth`] engine —
/// shared between the controller thread (writer) and the HTTP endpoints
/// (readers).
#[derive(Debug, Clone)]
pub struct SharedDiagnostics(Arc<Mutex<ControllerHealth>>);

impl SharedDiagnostics {
    /// Shares `health`.
    pub fn new(health: ControllerHealth) -> Self {
        Self(Arc::new(Mutex::new(health)))
    }

    /// The engine itself, for the loop that feeds it. The estimators are
    /// plain numbers, valid after any interrupted update.
    pub(crate) fn lock(&self) -> MutexGuard<'_, ControllerHealth> {
        crate::lock_unpoisoned(&self.0)
    }

    /// A point-in-time copy of the verdict and every estimator.
    pub fn snapshot(&self) -> DiagnosticsSnapshot {
        self.lock().snapshot()
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
        assert_eq!(s.settle.last, 3.0);
        assert!((s.overshoot.last - 1.0).abs() < 1e-9, "{}", s.overshoot.last);
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
    fn a_blind_loop_diverges_without_waiting_out_the_grace() {
        // ŷ sits on target while the departures' measured delay climbs:
        // the queue sensor is frozen. Blind from the period the
        // measurement passes the band around every recent estimate.
        let mut h = ControllerHealth::new(cfg());
        let mut column = Vec::new();
        for k in 0..8 {
            let mut t = trace(k, TARGET, 0.1);
            t.mean_delay_ms = 1000.0 * (1.0 + 0.5 * k as f64);
            column.push(h.observe(&t));
        }
        // 2.6 s (the 30 % band) is passed at k = 4 (3.0 s); the second
        // blind period decides.
        let first = column.iter().position(|s| *s == HealthState::Diverging);
        assert_eq!(first, Some(5), "{column:?}");
        assert_eq!(h.snapshot().blind_streak, 4);
        assert_eq!(h.snapshot().violation_streak, 0, "ŷ itself stayed in band");

        // The same measurement behind a burst the controller saw is not
        // blind: its departures queued while ŷ was high.
        let mut h = ControllerHealth::new(cfg());
        for k in 0..8 {
            let y_hat = if k < 4 { 3.0 * TARGET } else { TARGET };
            let mut t = trace(k, y_hat, 0.5);
            t.mean_delay_ms = 1000.0 * (1.0 + 0.5 * k as f64);
            h.observe(&t);
        }
        assert_eq!(h.snapshot().blind_streak, 0);
        assert_ne!(h.state(), HealthState::Diverging);
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
    fn shared_handle_observes_through_clones() {
        let diag = SharedDiagnostics::new(ControllerHealth::new(cfg()));
        let writer = diag.clone();
        for k in 0..5 {
            writer.lock().observe(&trace(k, TARGET, 0.3));
        }
        assert_eq!(diag.snapshot().state, HealthState::Healthy);
        assert_eq!(diag.snapshot().periods, 5);
    }
}
