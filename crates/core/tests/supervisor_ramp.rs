//! The supervisor's re-tune ramp and re-engagement, seen from outside.
//!
//! After a self-tuning inner strategy swaps its controller parameters,
//! the supervisor rate-limits the shed factor for that period and the
//! next — whether the swap came from the tuner's own probe cycle or from
//! a target change. Re-engagement after the fallback restarts the inner
//! strategy from its pristine copy.

use streamshed_control::adaptive::ComparatorStrategy;
use streamshed_control::loop_::LoopConfig;
use streamshed_control::strategy::{CtrlStrategy, SheddingStrategy};
use streamshed_control::supervisor::Supervisor;
use streamshed_engine::hook::{ControlHook, PeriodSnapshot};
use streamshed_engine::telemetry::{InstrumentedHook, LoopMode};
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

/// Deep-overload spikes at the periods a ramp may cover, so the raw shed
/// factor jumps by far more than the ramp's step there.
fn queue_at(k: u64) -> u64 {
    if matches!(k, 11 | 12 | 18 | 19) {
        5000
    } else {
        300
    }
}

/// Runs `strategy` alone and under a supervisor on the same 25 periods,
/// moving both to a 3 s target just before period 18. Returns the
/// periods whose supervised shed factor differs from the raw one.
fn rate_limited_periods<S: SheddingStrategy + Clone>(strategy: S) -> Vec<u64> {
    let cfg = LoopConfig::paper_default();
    let mut raw = strategy.clone();
    let mut sup = Supervisor::from_loop(strategy, &cfg);
    let mut limited = Vec::new();
    let mut prev = 0.0;
    for k in 0..25 {
        if k == 18 {
            raw.set_target_delay_s(3.0);
            sup.set_target_delay_s(3.0);
        }
        let s = snap(k, queue_at(k), Some(5105.0), None);
        let want = raw.on_period(&s).entry_drop_prob;
        let got = sup.on_period(&s).entry_drop_prob;
        assert_eq!(
            sup.control_state().unwrap().mode,
            LoopMode::Engaged,
            "k={k}"
        );
        if got.to_bits() != want.to_bits() {
            assert!(
                (got - prev).abs() <= 0.1 + 1e-12,
                "k={k}: a ramp moves α by one step at most ({prev} to {got})"
            );
            limited.push(k);
        }
        prev = got;
    }
    limited
}

#[test]
fn a_retune_rate_limits_the_swap_period_and_the_next() {
    let cfg = LoopConfig::paper_default();
    // The comparator's first probe handover lands at the end of period
    // 11; the target change at period 18 finds it probing a neighbour
    // and swaps it back to the incumbent.
    let mut probe = ComparatorStrategy::from_config(&cfg);
    for k in 0..18 {
        let _ = probe.on_period(&snap(k, queue_at(k), Some(5105.0), None));
    }
    assert_ne!(probe.active_arm(), probe.current_arm(), "mid-probe at k=18");
    assert_eq!(probe.swaps(), 1);
    probe.set_target_delay_s(3.0);
    assert_eq!(probe.swaps(), 2, "the swap back is a swap");

    assert_eq!(
        rate_limited_periods(ComparatorStrategy::from_config(&cfg)),
        vec![11, 12, 18, 19]
    );
    // The same input without a self-tuner: nothing is rate-limited.
    assert_eq!(
        rate_limited_periods(CtrlStrategy::from_config(&cfg)),
        Vec::<u64>::new()
    );
}

#[test]
fn reengagement_restarts_the_inner_strategy_from_pristine() {
    let cfg = LoopConfig::paper_default();
    let mut sup = Supervisor::from_loop(ComparatorStrategy::from_config(&cfg), &cfg);
    let healthy = |k| snap(k, 300, Some(5105.0), Some(1500.0));
    for k in 0..20 {
        let _ = sup.on_period(&healthy(k));
    }
    assert_eq!(sup.adapt_state().unwrap().swaps, 1, "one probe handover");

    // A dropout outlasts the hold: fallback.
    let mut alpha = 0.0;
    for k in 20..26 {
        alpha = sup.on_period(&snap(k, 300, None, None)).entry_drop_prob;
    }
    assert_eq!(sup.control_state().unwrap().mode, LoopMode::Fallback);
    for k in 26..35 {
        alpha = sup.on_period(&healthy(k)).entry_drop_prob;
        assert_eq!(
            sup.control_state().unwrap().mode,
            LoopMode::Fallback,
            "k={k}"
        );
    }

    // The tenth healthy period re-engages; its decision already comes
    // from a strategy rebuilt from the pristine copy, rate-limited from
    // the fallback's last shed factor.
    let s = healthy(35);
    let got = sup.on_period(&s).entry_drop_prob;
    let mut fresh = ComparatorStrategy::from_config(&cfg);
    let want = fresh.on_period(&s).entry_drop_prob;
    let expect = alpha + (want - alpha).clamp(-0.1, 0.1);
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
    assert_eq!(
        sup.adapt_state(),
        fresh.adapt_state(),
        "swaps start over at 0"
    );
}
