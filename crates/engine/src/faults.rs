//! Deterministic fault injection for the control loop.
//!
//! The paper evaluates the closed loop under *hostile workloads* (bursty
//! arrivals, time-varying cost) but assumes the loop's own sensors and
//! actuators are perfect. This module injects the failures a production
//! DSMS actually sees, at the one seam every runner shares — the
//! [`ControlHook`] boundary — so the same fault plan drives both the
//! virtual-time [`Simulator`](crate::sim::Simulator) and the threaded
//! [`shard`](crate::shard) engine:
//!
//! * **sensor faults** — dropout (no `c(k)`/`y` sample, `q(k)` frozen)
//!   and stale `q(k)` samples (the monitor keeps reporting an old queue
//!   length);
//! * **cost-measurement corruption** — NaN samples and outlier spikes
//!   (both directions: a collapse makes the controller *under*-estimate
//!   delay, the dangerous case);
//! * **actuator faults** — shed commands ignored or only partially
//!   applied;
//! * **control-period overruns/jitter** — the period the monitor reports
//!   differs from the real one, corrupting every rate computed from it.
//!
//! Two fault classes live in the *plant* rather than the loop and are
//! expressed as inputs to the engine instead: **operator stalls** become
//! a [`CostSchedule`] overlay ([`stall_schedule`]) and **arrival flash
//! floods** are spliced into the arrival trace
//! ([`inject_flash_flood`]). Everything is seeded and replayable.

use crate::cost::CostSchedule;
use crate::diagnostics::HealthState;
use crate::hook::{ControlHook, Decision, PeriodSnapshot};
use crate::telemetry::{
    ControlState, InstrumentedHook, FLAG_ACTUATOR_IGNORE, FLAG_ACTUATOR_PARTIAL, FLAG_COST_NAN,
    FLAG_COST_SPIKE, FLAG_PERIOD_JITTER, FLAG_SENSOR_DROPOUT, FLAG_STALE_QUEUE,
};
use crate::time::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One class of injectable fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The monitor produces no sample this period: `measured_cost_us` and
    /// `mean_delay_ms` become `None`, and the virtual-queue reading
    /// (`outstanding`, `queued_tuples`, `queued_load_us`) freezes at its
    /// last pre-fault value.
    SensorDropout,
    /// Stale `q(k)`: the queue-length block freezes at its last pre-fault
    /// value while the rest of the snapshot stays live. The controller
    /// keeps acting on an old queue reading — the classic way a
    /// virtual-queue loop diverges.
    StaleQueue,
    /// `measured_cost_us` is replaced by NaN.
    CostNan,
    /// `measured_cost_us` is multiplied by `factor` (an outlier spike for
    /// `factor > 1`, a collapse for `factor < 1`).
    CostSpike {
        /// Multiplier applied to the measured cost.
        factor: f64,
    },
    /// The engine ignores the hook's decision entirely and keeps the
    /// previous actuation.
    ActuatorIgnore,
    /// The engine applies only `applied` (in `[0, 1]`) of the commanded
    /// entry-drop probability and in-network shed load.
    ActuatorPartial {
        /// Fraction of the command that reaches the plant.
        applied: f64,
    },
    /// Control-period overrun/jitter: the period reported to the hook is
    /// scaled by `factor`, corrupting every rate derived from it
    /// (`fin`, `fout`).
    PeriodJitter {
        /// Multiplier on the reported control period.
        factor: f64,
    },
}

impl FaultKind {
    /// The [`telemetry`](crate::telemetry) fault-flag bit recording this
    /// fault class in a [`ControlTrace`](crate::telemetry::ControlTrace).
    pub fn flag(&self) -> u16 {
        match self {
            FaultKind::SensorDropout => FLAG_SENSOR_DROPOUT,
            FaultKind::StaleQueue => FLAG_STALE_QUEUE,
            FaultKind::CostNan => FLAG_COST_NAN,
            FaultKind::CostSpike { .. } => FLAG_COST_SPIKE,
            FaultKind::ActuatorIgnore => FLAG_ACTUATOR_IGNORE,
            FaultKind::ActuatorPartial { .. } => FLAG_ACTUATOR_PARTIAL,
            FaultKind::PeriodJitter { .. } => FLAG_PERIOD_JITTER,
        }
    }
}

/// A fault active over a half-open period window `[from_k, to_k)`, firing
/// each period with probability `prob` (seeded, deterministic).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultWindow {
    /// The fault class.
    pub kind: FaultKind,
    /// First period index (inclusive) the fault may fire.
    pub from_k: u64,
    /// First period index (exclusive) after the window.
    pub to_k: u64,
    /// Per-period firing probability in `[0, 1]` (1 = every period in the
    /// window).
    pub prob: f64,
}

impl FaultWindow {
    /// A fault active on every period of `[from_k, to_k)`.
    pub fn new(kind: FaultKind, from_k: u64, to_k: u64) -> Self {
        Self {
            kind,
            from_k,
            to_k,
            prob: 1.0,
        }
    }

    /// Same, firing each period only with probability `prob`.
    pub fn intermittent(kind: FaultKind, from_k: u64, to_k: u64, prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "prob must be in [0, 1]");
        Self {
            kind,
            from_k,
            to_k,
            prob,
        }
    }

    fn covers(&self, k: u64) -> bool {
        (self.from_k..self.to_k).contains(&k)
    }
}

/// A seeded, schedulable collection of fault windows.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    windows: Vec<FaultWindow>,
    seed: u64,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new(seed: u64) -> Self {
        Self {
            windows: Vec::new(),
            seed,
        }
    }

    /// Adds a fault window.
    pub fn with(mut self, window: FaultWindow) -> Self {
        self.windows.push(window);
        self
    }

    /// Concatenates another plan's windows onto this one — compound
    /// faults (e.g. a stale queue sensor *and* a half-dead actuator) are
    /// built by merging single-fault plans. The receiver's seed stays in
    /// force for intermittent-window draws.
    pub fn merge(mut self, other: &FaultPlan) -> Self {
        self.windows.extend_from_slice(&other.windows);
        self
    }

    /// The scheduled windows.
    pub fn windows(&self) -> &[FaultWindow] {
        &self.windows
    }

    /// The plan's RNG seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

/// Counters of what was actually injected, for post-hoc verification.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultLog {
    /// Periods where the sensor block was dropped.
    pub sensor_dropouts: u64,
    /// Periods where a stale queue reading was served.
    pub stale_queue_samples: u64,
    /// Periods where the cost measurement was corrupted (NaN or spike).
    pub cost_corruptions: u64,
    /// Periods where the actuation was ignored or attenuated.
    pub actuator_faults: u64,
    /// Periods where the reported control period was jittered.
    pub jitter_events: u64,
}

impl FaultLog {
    /// Total injected fault events.
    pub fn total(&self) -> u64 {
        self.sensor_dropouts
            + self.stale_queue_samples
            + self.cost_corruptions
            + self.actuator_faults
            + self.jitter_events
    }
}

/// Wraps any [`ControlHook`], corrupting the snapshot it observes and the
/// decision it returns according to a [`FaultPlan`].
///
/// Because the wrapper *is* a `ControlHook`, the same fault plan runs
/// unchanged against the virtual-time simulator and the threaded `rt`
/// runner.
pub struct FaultyHook<H> {
    inner: H,
    plan: FaultPlan,
    rng: StdRng,
    /// Last *clean* queue-sensor block `(outstanding, queued_tuples,
    /// queued_load_us)` — what a frozen monitor keeps reporting.
    frozen_queue: Option<(u64, u64, f64)>,
    last_decision: Decision,
    log: FaultLog,
    /// OR of the `telemetry::FLAG_*` bits that fired last period.
    last_flags: u16,
}

impl<H: ControlHook> FaultyHook<H> {
    /// Wraps `inner` with the given plan.
    pub fn new(inner: H, plan: FaultPlan) -> Self {
        let rng = StdRng::seed_from_u64(plan.seed ^ 0xFA17_FA17_FA17_FA17);
        Self {
            inner,
            plan,
            rng,
            frozen_queue: None,
            last_decision: Decision::NONE,
            log: FaultLog::default(),
            last_flags: 0,
        }
    }

    /// What was injected so far.
    pub fn log(&self) -> &FaultLog {
        &self.log
    }

    /// The wrapped hook.
    pub fn inner(&self) -> &H {
        &self.inner
    }

    /// Consumes the wrapper, returning the inner hook.
    pub fn into_inner(self) -> H {
        self.inner
    }
}

impl<H: ControlHook> ControlHook for FaultyHook<H> {
    fn on_period(&mut self, snapshot: &PeriodSnapshot) -> Decision {
        let mut snap = *snapshot;
        let mut actuator: Option<FaultKind> = None;
        let mut queue_frozen = false;
        self.last_flags = 0;

        // Collect the faults firing this period; sensor faults mutate the
        // snapshot before the inner hook sees it, actuator faults mutate
        // the decision after.
        for i in 0..self.plan.windows.len() {
            let w = self.plan.windows[i];
            if !w.covers(snapshot.k) {
                continue;
            }
            if w.prob < 1.0 && self.rng.gen::<f64>() >= w.prob {
                continue;
            }
            match w.kind {
                FaultKind::SensorDropout => {
                    snap.measured_cost_us = None;
                    snap.mean_delay_ms = None;
                    queue_frozen = true;
                    self.log.sensor_dropouts += 1;
                    self.last_flags |= w.kind.flag();
                }
                FaultKind::StaleQueue => {
                    queue_frozen = true;
                    self.log.stale_queue_samples += 1;
                    self.last_flags |= w.kind.flag();
                }
                FaultKind::CostNan => {
                    snap.measured_cost_us = Some(f64::NAN);
                    self.log.cost_corruptions += 1;
                    self.last_flags |= w.kind.flag();
                }
                FaultKind::CostSpike { factor } => {
                    if let Some(c) = snap.measured_cost_us {
                        snap.measured_cost_us = Some(c * factor);
                        self.log.cost_corruptions += 1;
                        self.last_flags |= w.kind.flag();
                    }
                }
                FaultKind::PeriodJitter { factor } => {
                    snap.period = snap.period.mul_f64(factor.max(1e-3));
                    self.log.jitter_events += 1;
                    self.last_flags |= w.kind.flag();
                }
                FaultKind::ActuatorIgnore | FaultKind::ActuatorPartial { .. } => {
                    actuator = Some(w.kind);
                }
            }
        }

        if queue_frozen {
            // Serve the last clean reading (or the current one if the
            // fault begins on the very first period).
            let (q, qt, ql) = *self.frozen_queue.get_or_insert((
                snapshot.outstanding,
                snapshot.queued_tuples,
                snapshot.queued_load_us,
            ));
            snap.outstanding = q;
            snap.queued_tuples = qt;
            snap.queued_load_us = ql;
        } else {
            self.frozen_queue =
                Some((snapshot.outstanding, snapshot.queued_tuples, snapshot.queued_load_us));
        }

        let commanded = self.inner.on_period(&snap);
        let applied = match actuator {
            Some(k @ FaultKind::ActuatorIgnore) => {
                self.log.actuator_faults += 1;
                self.last_flags |= k.flag();
                self.last_decision
            }
            Some(k @ FaultKind::ActuatorPartial { applied }) => {
                self.log.actuator_faults += 1;
                self.last_flags |= k.flag();
                let f = applied.clamp(0.0, 1.0);
                Decision {
                    entry_drop_prob: commanded.entry_drop_prob * f,
                    shed_load_us: commanded.shed_load_us * f,
                }
            }
            _ => commanded,
        };
        self.last_decision = applied;
        applied
    }
}

impl<H: InstrumentedHook> InstrumentedHook for FaultyHook<H> {
    /// Forwards the wrapped hook's state, stamped with the fault flags
    /// that fired last period — so the engine's trace records both the
    /// controller's view and what interfered with it.
    fn control_state(&self) -> Option<ControlState> {
        let mut state = self.inner.control_state().unwrap_or_default();
        state.fault_flags |= self.last_flags;
        Some(state)
    }

    /// Forwarded unaltered: the verdict judges the engine's trace.
    fn on_verdict(&mut self, verdict: HealthState) {
        self.inner.on_verdict(verdict);
    }
}

/// Builds a [`CostSchedule`] that multiplies operator costs by `factor`
/// during each stall window `(from_s, to_s, factor)` — an operator stall
/// seen from the CPU-accounting side.
///
/// Windows must not overlap; between windows the multiplier returns to 1.
pub fn stall_schedule(stalls: &[(f64, f64, f64)]) -> CostSchedule {
    let mut points = Vec::with_capacity(stalls.len() * 2);
    for &(from_s, to_s, factor) in stalls {
        assert!(from_s >= 0.0 && to_s > from_s, "stall window must be ordered");
        assert!(factor > 0.0 && factor.is_finite(), "stall factor must be positive");
        points.push((SimTime((from_s * 1e6) as u64), factor));
        points.push((SimTime((to_s * 1e6) as u64), 1.0));
    }
    CostSchedule::from_points(points)
}

/// Splices a flash flood into a sorted arrival trace: `extra` additional
/// arrivals uniformly distributed over `[from_s, to_s)`, deterministically
/// from `seed`. The trace stays sorted.
pub fn inject_flash_flood(times: &mut Vec<SimTime>, from_s: f64, to_s: f64, extra: u64, seed: u64) {
    assert!(to_s > from_s && from_s >= 0.0, "flood window must be ordered");
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF100D);
    let span_us = (to_s - from_s) * 1e6;
    let base_us = from_s * 1e6;
    for _ in 0..extra {
        let t = base_us + rng.gen::<f64>() * span_us;
        times.push(SimTime(t as u64));
    }
    times.sort();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::secs;

    fn snap(k: u64, outstanding: u64, cost: Option<f64>) -> PeriodSnapshot {
        PeriodSnapshot {
            k,
            now: SimTime::ZERO + secs(k + 1),
            period: secs(1),
            offered: 300,
            admitted: 300,
            dropped_entry: 0,
            dropped_network: 0,
            completed: 190,
            outstanding,
            queued_tuples: outstanding,
            queued_load_us: outstanding as f64 * 5000.0,
            measured_cost_us: cost,
            mean_delay_ms: Some(1500.0),
            cpu_busy_us: 950_000,
        }
    }

    /// A probe hook recording what it observed.
    struct Probe(Vec<PeriodSnapshot>, Decision);

    impl ControlHook for Probe {
        fn on_period(&mut self, s: &PeriodSnapshot) -> Decision {
            self.0.push(*s);
            self.1
        }
    }

    impl InstrumentedHook for Probe {}

    #[test]
    fn stale_queue_freezes_the_reading() {
        let plan = FaultPlan::new(1).with(FaultWindow::new(FaultKind::StaleQueue, 2, 5));
        let mut h = FaultyHook::new(Probe(Vec::new(), Decision::NONE), plan);
        for k in 0..6 {
            let _ = h.on_period(&snap(k, 100 * (k + 1), Some(5000.0)));
        }
        let seen = &h.inner().0;
        // Periods 0–1 live, 2–4 frozen at the period-1 value, 5 live again.
        assert_eq!(seen[1].outstanding, 200);
        assert_eq!(seen[2].outstanding, 200);
        assert_eq!(seen[4].outstanding, 200);
        assert_eq!(seen[5].outstanding, 600);
        assert_eq!(h.log().stale_queue_samples, 3);
        // Cost stays live under a pure queue-staleness fault.
        assert_eq!(seen[3].measured_cost_us, Some(5000.0));
    }

    #[test]
    fn sensor_dropout_blanks_cost_and_delay() {
        let plan = FaultPlan::new(1).with(FaultWindow::new(FaultKind::SensorDropout, 1, 3));
        let mut h = FaultyHook::new(Probe(Vec::new(), Decision::NONE), plan);
        for k in 0..4 {
            let _ = h.on_period(&snap(k, 50, Some(5000.0)));
        }
        let seen = &h.inner().0;
        assert_eq!(seen[0].measured_cost_us, Some(5000.0));
        assert_eq!(seen[1].measured_cost_us, None);
        assert_eq!(seen[1].mean_delay_ms, None);
        assert_eq!(seen[3].measured_cost_us, Some(5000.0));
        assert_eq!(h.log().sensor_dropouts, 2);
    }

    #[test]
    fn cost_corruption_nan_and_spike() {
        let plan = FaultPlan::new(1)
            .with(FaultWindow::new(FaultKind::CostNan, 0, 1))
            .with(FaultWindow::new(FaultKind::CostSpike { factor: 10.0 }, 1, 2));
        let mut h = FaultyHook::new(Probe(Vec::new(), Decision::NONE), plan);
        let _ = h.on_period(&snap(0, 50, Some(5000.0)));
        let _ = h.on_period(&snap(1, 50, Some(5000.0)));
        let seen = &h.inner().0;
        assert!(seen[0].measured_cost_us.unwrap().is_nan());
        assert_eq!(seen[1].measured_cost_us, Some(50_000.0));
        assert_eq!(h.log().cost_corruptions, 2);
    }

    #[test]
    fn actuator_ignore_replays_previous_decision() {
        let plan = FaultPlan::new(1).with(FaultWindow::new(FaultKind::ActuatorIgnore, 1, 2));
        let mut h = FaultyHook::new(Probe(Vec::new(), Decision::entry(0.8)), plan);
        let d0 = h.on_period(&snap(0, 50, Some(5000.0)));
        assert_eq!(d0.entry_drop_prob, 0.8);
        // Fault: the commanded 0.8 is discarded, the previous decision
        // (also 0.8 here) is held — change the command to observe it.
        h.inner.1 = Decision::entry(0.1);
        let d1 = h.on_period(&snap(1, 50, Some(5000.0)));
        assert_eq!(d1.entry_drop_prob, 0.8, "held last applied actuation");
        let d2 = h.on_period(&snap(2, 50, Some(5000.0)));
        assert_eq!(d2.entry_drop_prob, 0.1, "fault window over");
        assert_eq!(h.log().actuator_faults, 1);
    }

    #[test]
    fn actuator_partial_scales_commands() {
        let plan = FaultPlan::new(1)
            .with(FaultWindow::new(FaultKind::ActuatorPartial { applied: 0.25 }, 0, 1));
        let mut probe = Probe(Vec::new(), Decision::entry(0.8));
        probe.1.shed_load_us = 1000.0;
        let mut h = FaultyHook::new(probe, plan);
        let d = h.on_period(&snap(0, 50, Some(5000.0)));
        assert!((d.entry_drop_prob - 0.2).abs() < 1e-12);
        assert!((d.shed_load_us - 250.0).abs() < 1e-12);
    }

    #[test]
    fn jitter_scales_reported_period() {
        let plan = FaultPlan::new(1)
            .with(FaultWindow::new(FaultKind::PeriodJitter { factor: 2.0 }, 0, 1));
        let mut h = FaultyHook::new(Probe(Vec::new(), Decision::NONE), plan);
        let _ = h.on_period(&snap(0, 50, Some(5000.0)));
        assert_eq!(h.inner().0[0].period, secs(2));
        assert_eq!(h.log().jitter_events, 1);
    }

    #[test]
    fn intermittent_faults_are_seeded_and_deterministic() {
        let run = || {
            let plan = FaultPlan::new(42)
                .with(FaultWindow::intermittent(FaultKind::CostNan, 0, 100, 0.5));
            let mut h = FaultyHook::new(Probe(Vec::new(), Decision::NONE), plan);
            for k in 0..100 {
                let _ = h.on_period(&snap(k, 50, Some(5000.0)));
            }
            (h.log().cost_corruptions, h.inner().0.iter().map(|s| s.measured_cost_us.map_or(0, |c| c.is_nan() as u8)).collect::<Vec<_>>())
        };
        let (n1, pattern1) = run();
        let (n2, pattern2) = run();
        assert_eq!(n1, n2);
        assert_eq!(pattern1, pattern2);
        assert!(n1 > 25 && n1 < 75, "≈half the periods fire, got {n1}");
    }

    #[test]
    fn merged_plans_inject_both_fault_classes() {
        let stale = FaultPlan::new(5).with(FaultWindow::new(FaultKind::StaleQueue, 0, 2));
        let partial = FaultPlan::new(9)
            .with(FaultWindow::new(FaultKind::ActuatorPartial { applied: 0.5 }, 1, 2));
        let compound = stale.merge(&partial);
        assert_eq!(compound.windows().len(), 2);
        assert_eq!(compound.seed(), 5, "receiver's seed wins");
        let mut h = FaultyHook::new(Probe(Vec::new(), Decision::entry(0.8)), compound);
        let _ = h.on_period(&snap(0, 100, Some(5000.0)));
        let d = h.on_period(&snap(1, 200, Some(5000.0)));
        assert_eq!(h.inner().0[1].outstanding, 100, "queue frozen by merged window");
        assert!((d.entry_drop_prob - 0.4).abs() < 1e-12, "actuation halved");
        assert_eq!(h.log().stale_queue_samples, 2);
        assert_eq!(h.log().actuator_faults, 1);
    }

    #[test]
    fn no_faults_is_transparent() {
        let mut h = FaultyHook::new(Probe(Vec::new(), Decision::entry(0.3)), FaultPlan::new(9));
        let s = snap(0, 77, Some(4321.0));
        let d = h.on_period(&s);
        assert_eq!(d.entry_drop_prob, 0.3);
        assert_eq!(h.inner().0[0], s);
        assert_eq!(h.log().total(), 0);
    }

    #[test]
    fn stall_schedule_multiplies_inside_windows() {
        let s = stall_schedule(&[(10.0, 20.0, 6.0)]);
        assert_eq!(s.multiplier(SimTime::ZERO + secs(5)), 1.0);
        assert_eq!(s.multiplier(SimTime::ZERO + secs(15)), 6.0);
        assert_eq!(s.multiplier(SimTime::ZERO + secs(25)), 1.0);
    }

    #[test]
    fn flash_flood_adds_sorted_arrivals_in_window() {
        let mut times: Vec<SimTime> =
            (0..100).map(|i| SimTime(i * 100_000)).collect(); // 10/s for 10 s
        let before = times.len();
        inject_flash_flood(&mut times, 4.0, 6.0, 500, 7);
        assert_eq!(times.len(), before + 500);
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "still sorted");
        let in_window = times
            .iter()
            .filter(|t| (4_000_000..6_000_000).contains(&t.0))
            .count();
        assert!(in_window >= 500, "flood landed in the window");
        // Deterministic from the seed.
        let mut again: Vec<SimTime> = (0..100).map(|i| SimTime(i * 100_000)).collect();
        inject_flash_flood(&mut again, 4.0, 6.0, 500, 7);
        assert_eq!(times, again);
    }

    #[test]
    fn fault_flags_stamp_the_fired_period_only() {
        let plan = FaultPlan::new(1)
            .with(FaultWindow::new(FaultKind::StaleQueue, 1, 2))
            .with(FaultWindow::new(FaultKind::ActuatorPartial { applied: 0.5 }, 1, 2));
        let mut h = FaultyHook::new(Probe(Vec::new(), Decision::entry(0.4)), plan);
        let flags = |h: &FaultyHook<Probe>| h.control_state().unwrap().fault_flags;
        let _ = h.on_period(&snap(0, 50, Some(5000.0)));
        assert_eq!(flags(&h), 0, "clean period");
        let _ = h.on_period(&snap(1, 50, Some(5000.0)));
        // The InstrumentedHook impl surfaces the bits (the probe itself
        // reports no state, so everything else defaults to NaN).
        let state = h.control_state().expect("fault harness always reports");
        assert_eq!(state.fault_flags, FLAG_STALE_QUEUE | FLAG_ACTUATOR_PARTIAL);
        assert!(state.y_hat_s.is_nan());
        let _ = h.on_period(&snap(2, 50, Some(5000.0)));
        assert_eq!(flags(&h), 0, "flags reset after the window");
    }

    #[test]
    fn every_fault_kind_maps_to_a_distinct_flag() {
        let kinds = [
            FaultKind::SensorDropout,
            FaultKind::StaleQueue,
            FaultKind::CostNan,
            FaultKind::CostSpike { factor: 2.0 },
            FaultKind::ActuatorIgnore,
            FaultKind::ActuatorPartial { applied: 0.5 },
            FaultKind::PeriodJitter { factor: 2.0 },
        ];
        let mut seen = 0u16;
        for k in kinds {
            let f = k.flag();
            assert_eq!(f.count_ones(), 1, "single bit per kind");
            assert_eq!(seen & f, 0, "no two kinds share a bit");
            seen |= f;
        }
    }

    #[test]
    fn faulty_hook_drives_a_full_simulation() {
        use crate::network::NetworkBuilder;
        use crate::operator::Map;
        use crate::sim::{SimConfig, Simulator};
        use crate::time::millis;

        let mut b = NetworkBuilder::new();
        let m = b.add("m", millis(5), Map::identity());
        b.entry(m);
        let net = b.build().expect("single map node is a valid DAG");
        let sim = Simulator::new(net, SimConfig::paper_default());
        let arrivals: Vec<SimTime> = (0..4000).map(|i| SimTime(i * 2_500)).collect();
        let plan = FaultPlan::new(3)
            .with(FaultWindow::new(FaultKind::ActuatorPartial { applied: 0.5 }, 2, 8));
        let mut hook = FaultyHook::new(|_s: &PeriodSnapshot| Decision::entry(1.0), plan);
        let report = sim.run(&arrivals, &mut hook, secs(10));
        // Periods 3..: alpha 1.0 commanded, 0.5 applied during the fault —
        // some tuples survive entry shedding that would otherwise all drop.
        assert!(hook.log().actuator_faults > 0);
        assert!(report.dropped_entry > 0);
        let admitted = report.offered - report.dropped_entry;
        assert!(admitted > 400, "partial actuation admitted tuples, got {admitted}");
    }
}
