//! The supervisor's re-engagement ramp, seen from outside.
//!
//! Re-engagement after the fallback restarts the inner strategy from its
//! pristine copy, and the first engaged decision falls at most one step
//! below the fallback's last shed factor. The loop runs as the simulator
//! runs it: each period through `control_step`, judged by the loop's
//! classifier.

use std::time::Duration;
use streamshed_control::loop_::LoopConfig;
use streamshed_control::strategy::CtrlStrategy;
use streamshed_control::supervisor::Supervisor;
use streamshed_engine::diagnostics::{ControllerHealth, DiagnosticsConfig};
use streamshed_engine::hook::{ControlHook, PeriodSnapshot};
use streamshed_engine::telemetry::{control_step, InstrumentedHook, LoopMode};
use streamshed_engine::time::{secs, SimTime};

fn snap(k: u64, outstanding: u64, cost_us: Option<f64>, delay_ms: Option<f64>) -> PeriodSnapshot {
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
        measured_cost_us: cost_us,
        mean_delay_ms: delay_ms,
        cpu_busy_us: 970_000,
    }
}

#[test]
fn reengagement_restarts_the_inner_strategy_from_pristine() {
    let cfg = LoopConfig::paper_default();
    let mut sup = Supervisor::from_loop(CtrlStrategy::from_config(&cfg), &cfg);
    let target = Duration::from_micros(cfg.target_delay().as_micros());
    let mut health = ControllerHealth::new(DiagnosticsConfig::for_simulation(target));
    let mut step = |sup: &mut Supervisor<CtrlStrategy>, s: &PeriodSnapshot| {
        control_step(sup, s, |t, yd| health.judge(t, yd)).0.entry_drop_prob
    };
    // Twenty engaged periods on a deep queue and a doubled cost leave
    // the controller with history and the cost tracker far from its
    // prior.
    for k in 0..20 {
        let _ = step(&mut sup, &snap(k, 2000, Some(10_210.0), Some(1500.0)));
    }
    assert_eq!(sup.control_state().unwrap().mode, LoopMode::Engaged);

    // A dropout outlasts the hold: fallback.
    let healthy = |k| snap(k, 300, Some(10_210.0), Some(1500.0));
    let mut alpha = 0.0;
    for k in 20..26 {
        alpha = step(&mut sup, &snap(k, 300, None, None));
    }
    assert_eq!(sup.control_state().unwrap().mode, LoopMode::Fallback);
    for k in 26..36 {
        alpha = step(&mut sup, &healthy(k));
        assert_eq!(
            sup.control_state().unwrap().mode,
            LoopMode::Fallback,
            "k={k}"
        );
    }

    // The period after the tenth Healthy verdict re-engages; its decision
    // already comes from a strategy rebuilt from the pristine copy, and
    // falls at most one step below the fallback's last shed factor.
    let s = healthy(36);
    let got = step(&mut sup, &s);
    let mut fresh = CtrlStrategy::from_config(&cfg);
    let want = fresh.on_period(&s).entry_drop_prob;
    assert!(want < alpha - 0.1, "the ramp binds: {want} vs {alpha}");
    let expect = want.max(alpha - 0.1);
    assert!((got - expect).abs() < 1e-12, "{got} vs {expect}");

    let (st, fresh_st) = (sup.control_state().unwrap(), fresh.control_state().unwrap());
    assert_eq!(st.mode, LoopMode::Engaged);
    for (a, b) in [
        (st.y_hat_s, fresh_st.y_hat_s),
        (st.error_s, fresh_st.error_s),
        (st.u_tps, fresh_st.u_tps),
        (st.cost_est_us, fresh_st.cost_est_us),
    ] {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
