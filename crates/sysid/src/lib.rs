//! # streamshed-sysid
//!
//! System identification for the stream engine, following §4.2 of the
//! paper: feed the engine synthetic streams with known arrival patterns,
//! record the responses, and verify/fit the dynamic model
//! `y(k) = (c/H)·(q(k−1) + 1)`.
//!
//! * [`run_identification`] — drives a network with a trace (no shedding)
//!   and collects the `(fin, q, y)` series;
//! * [`model`] — computes model predictions and modeling errors for
//!   candidate `(c, H)` (Figs. 6–7);
//! * [`knee`] — locates the processing-capacity knee by scanning arrival
//!   rates (Fig. 5's 190 tuples/s threshold).

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod knee;
pub mod model;

use streamshed_engine::hook::NoShedding;
use streamshed_engine::network::QueryNetwork;
use streamshed_engine::sim::{SimConfig, Simulator};
use streamshed_engine::time::{secs, SimTime};
use streamshed_workload::{to_micros, ArrivalTrace};

pub use knee::{find_capacity_knee, KneeEstimate};
pub use model::{fit_headroom, model_error_s, predict_delays_s, rmse, ModelFit};

/// One observed control period of an identification run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObservedPeriod {
    /// Period index.
    pub k: u64,
    /// Offered arrival rate, tuples/s.
    pub fin_tps: f64,
    /// Virtual queue length at the period boundary.
    pub q: u64,
    /// Measured mean delay (ms) of tuples that *arrived* in this period
    /// (the paper's `y(k)`), `NaN` if none departed.
    pub y_real_ms: f64,
    /// Measured per-tuple cost this period, µs (`NaN` if nothing
    /// completed).
    pub measured_cost_us: f64,
}

/// The collected series of an identification run.
#[derive(Debug, Clone, PartialEq)]
pub struct IdentificationRun {
    /// Observed periods covering the observation window.
    pub periods: Vec<ObservedPeriod>,
    /// Mean of the (finite) measured per-tuple costs, µs.
    pub mean_cost_us: f64,
}

impl IdentificationRun {
    /// The `y(k)` series in seconds (`NaN` where unobserved).
    pub fn y_series_s(&self) -> Vec<f64> {
        self.periods.iter().map(|p| p.y_real_ms / 1e3).collect()
    }

    /// The per-period delay increments `Δy(k) = y(k) − y(k−1)` in ms
    /// (Fig. 5C). `NaN` where either sample is missing.
    pub fn delta_y_ms(&self) -> Vec<f64> {
        let mut out = vec![f64::NAN];
        for w in self.periods.windows(2) {
            out.push(w[1].y_real_ms - w[0].y_real_ms);
        }
        out
    }
}

/// Runs the engine open-loop (no shedding) against an arrival trace and
/// collects the identification series.
///
/// `observe_s` is the window the returned series covers; the simulation
/// itself runs `observe_s + drain_s` seconds so that tuples arriving late
/// in the window still depart and contribute their delays (the engine can
/// only attribute a delay at departure).
pub fn run_identification(
    network: QueryNetwork,
    trace: &dyn ArrivalTrace,
    observe_s: u64,
    drain_s: u64,
    sim_cfg: SimConfig,
) -> IdentificationRun {
    let times = trace.arrival_times(observe_s as f64);
    let arrivals: Vec<SimTime> = to_micros(&times).into_iter().map(SimTime).collect();
    let sim = Simulator::new(network, sim_cfg.clone());
    let report = sim.run(&arrivals, &mut NoShedding, secs(observe_s + drain_s));

    let period_s = sim_cfg.period.as_secs_f64();
    let mut periods = Vec::new();
    let mut cost_sum = 0.0;
    let mut cost_n = 0u32;
    for p in report
        .periods
        .iter()
        .take_while(|p| p.time_s <= observe_s as f64 + 1e-9)
    {
        if p.measured_cost_us.is_finite() {
            cost_sum += p.measured_cost_us;
            cost_n += 1;
        }
        periods.push(ObservedPeriod {
            k: p.k,
            fin_tps: p.offered as f64 / period_s,
            q: p.outstanding,
            y_real_ms: p.arrival_mean_delay_ms,
            measured_cost_us: p.measured_cost_us,
        });
    }
    IdentificationRun {
        periods,
        mean_cost_us: if cost_n > 0 {
            cost_sum / cost_n as f64
        } else {
            f64::NAN
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamshed_engine::networks::identification_network;
    use streamshed_workload::StepTrace;

    #[test]
    fn collects_expected_number_of_periods() {
        let run = run_identification(
            identification_network(),
            &StepTrace::constant(100.0),
            20,
            5,
            SimConfig::paper_default(),
        );
        assert_eq!(run.periods.len(), 20);
        assert!(run.mean_cost_us.is_finite());
    }

    #[test]
    fn underload_delays_are_flat() {
        let run = run_identification(
            identification_network(),
            &StepTrace::constant(150.0),
            30,
            5,
            SimConfig::paper_default(),
        );
        let ys = run.y_series_s();
        // Constant small delay (Fig. 5B below the knee).
        for y in ys.iter().skip(2) {
            assert!(y.is_finite() && *y < 0.25, "delay {y}");
        }
    }

    #[test]
    fn overload_delta_y_converges() {
        // Fig. 5C: Δy converges to a stable positive value — the signature
        // of a pure integrator with no further dynamics.
        let run = run_identification(
            identification_network(),
            &StepTrace::paper_step(300.0),
            50,
            120,
            SimConfig::paper_default(),
        );
        let dys = run.delta_y_ms();
        let tail: Vec<f64> = dys[30..50]
            .iter()
            .copied()
            .filter(|d| d.is_finite())
            .collect();
        assert!(tail.len() > 10);
        let mean = tail.iter().sum::<f64>() / tail.len() as f64;
        let spread = tail.iter().map(|d| (d - mean).abs()).fold(0.0f64, f64::max);
        assert!(mean > 100.0, "Δy should be clearly positive: {mean}");
        assert!(spread < mean * 0.8, "Δy spread {spread} vs mean {mean}");
    }

    #[test]
    fn measured_cost_near_calibration() {
        let run = run_identification(
            identification_network(),
            &StepTrace::constant(150.0),
            30,
            5,
            SimConfig::paper_default(),
        );
        // Calibrated network: c ≈ 5105 µs.
        assert!(
            (run.mean_cost_us - 5105.0).abs() < 300.0,
            "mean cost {}",
            run.mean_cost_us
        );
    }
}
