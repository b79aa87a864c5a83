//! Capacity-knee detection (Fig. 5's 190 tuples/s threshold).
//!
//! Below the processing capacity `H/c`, the engine drains every period
//! and delays stay constant; above it, the virtual queue integrates the
//! excess. The knee is located by bisection on the sustained arrival
//! rate, classifying each probe run by end-of-run queue growth.

use streamshed_engine::hook::NoShedding;
use streamshed_engine::network::QueryNetwork;
use streamshed_engine::sim::{SimConfig, Simulator};
use streamshed_engine::time::{secs, SimTime};
use streamshed_workload::{to_micros, ArrivalTrace, StepTrace};

/// Result of a knee search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KneeEstimate {
    /// Estimated capacity, tuples/s.
    pub capacity_tps: f64,
    /// The naive per-tuple cost implied under H = 1 (the paper's first
    /// estimate, `c ≈ 1000/190 ms`), µs.
    pub naive_cost_us: f64,
    /// Probe runs performed.
    pub probes: u32,
}

/// Classifies one sustained rate as overloaded (queue grows) or not.
fn is_overloaded(
    make_network: &dyn Fn() -> QueryNetwork,
    rate: f64,
    probe_s: u64,
    cfg: &SimConfig,
) -> bool {
    let trace = StepTrace::constant(rate);
    let times = trace.arrival_times(probe_s as f64);
    let arrivals: Vec<SimTime> = to_micros(&times).into_iter().map(SimTime).collect();
    let sim = Simulator::new(make_network(), cfg.clone());
    let report = sim.run(&arrivals, &mut NoShedding, secs(probe_s));
    // Sustained overload: the queue at the end holds more than a couple of
    // seconds' worth of the *excess* — use an absolute threshold scaled to
    // the probe length so borderline rates classify stably.
    let q_end = report.periods.last().map(|p| p.outstanding).unwrap_or(0);
    q_end as f64 > (probe_s as f64) * 1.5 + 20.0
}

/// Bisects the capacity knee within `[lo, hi]` tuples/s to the requested
/// resolution.
pub fn find_capacity_knee(
    make_network: impl Fn() -> QueryNetwork,
    mut lo: f64,
    mut hi: f64,
    resolution_tps: f64,
    probe_s: u64,
    cfg: &SimConfig,
) -> KneeEstimate {
    assert!(lo > 0.0 && hi > lo && resolution_tps > 0.0);
    let f = &make_network;
    let mut probes = 0u32;
    assert!(
        !is_overloaded(&f, lo, probe_s, cfg),
        "lower bound {lo} t/s is already overloaded"
    );
    assert!(
        is_overloaded(&f, hi, probe_s, cfg),
        "upper bound {hi} t/s is not overloaded"
    );
    probes += 2;
    while hi - lo > resolution_tps {
        let mid = (lo + hi) / 2.0;
        if is_overloaded(&f, mid, probe_s, cfg) {
            hi = mid;
        } else {
            lo = mid;
        }
        probes += 1;
    }
    let capacity = (lo + hi) / 2.0;
    KneeEstimate {
        capacity_tps: capacity,
        naive_cost_us: 1e6 / capacity,
        probes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamshed_engine::networks::{identification_network, uniform_chain};
    use streamshed_engine::time::micros;

    #[test]
    fn finds_identification_network_knee_near_190() {
        let est = find_capacity_knee(
            identification_network,
            120.0,
            280.0,
            4.0,
            25,
            &SimConfig::paper_default(),
        );
        assert!(
            (est.capacity_tps - 190.0).abs() < 10.0,
            "knee at {} t/s",
            est.capacity_tps
        );
        // The paper's naive estimate: c ≈ 1000/190 ≈ 5.26 ms.
        assert!(
            (est.naive_cost_us - 5263.0).abs() < 300.0,
            "naive cost {} µs",
            est.naive_cost_us
        );
    }

    #[test]
    fn knee_scales_with_cost() {
        // A 10 ms chain at H = 0.97 has capacity 97 t/s.
        let est = find_capacity_knee(
            || uniform_chain(4, micros(10_000)),
            50.0,
            200.0,
            4.0,
            25,
            &SimConfig::paper_default(),
        );
        assert!(
            (est.capacity_tps - 97.0).abs() < 8.0,
            "knee at {} t/s",
            est.capacity_tps
        );
    }

    #[test]
    #[should_panic(expected = "not overloaded")]
    fn rejects_bad_bracket() {
        let _ = find_capacity_knee(
            identification_network,
            10.0,
            50.0,
            5.0,
            20,
            &SimConfig::paper_default(),
        );
    }
}
