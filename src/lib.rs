//! # streamshed
//!
//! A feedback-control load-shedding framework for stream databases,
//! reproducing *"Load Shedding in Stream Databases: A Control-Based
//! Approach"* (Tu, Liu, Prabhakar, Yao — VLDB 2006 line of work).
//!
//! The crate is an umbrella over the workspace members:
//!
//! * [`engine`] — a Borealis-like stream query engine with a virtual-time
//!   simulator and a real-time sharded engine.
//! * [`workload`] — arrival-rate and processing-cost trace generators
//!   (step, sinusoid, Pareto, self-similar web-like).
//! * [`control`] — the paper's contribution: the DSMS delay model, the
//!   virtual-queue delay estimator, the pole-placement feedback
//!   controller (Appendix A's design in closed form), and the `CTRL` /
//!   `BASELINE` / `AURORA` shedding strategies.
//! * [`net`] — the network ingestion plane: a zero-copy binary wire
//!   protocol, thread-per-core TCP/HTTP listeners feeding the sharded
//!   engine, and a seeded load-generator fleet.
//! * [`sysid`] — system-identification experiments (model verification).
//! * [`experiments`] — reproduction harness for every figure in the
//!   paper.
//!
//! ## Quickstart
//!
//! ```
//! use streamshed::prelude::*;
//!
//! // The paper's 14-operator identification network (§4.2), calibrated
//! // to a processing capacity of 190 tuples/s at headroom H = 0.97.
//! let network = identification_network();
//!
//! // A bursty Pareto workload: 60 s at ~300 tuples/s mean — sustained
//! // overload against the 190 t/s capacity.
//! let trace = ParetoTrace::builder()
//!     .mean_rate(300.0)
//!     .bias(1.0)
//!     .seed(42)
//!     .build();
//! let arrivals: Vec<SimTime> = to_micros(&trace.arrival_times(60.0))
//!     .into_iter()
//!     .map(SimTime)
//!     .collect();
//!
//! // Feedback-control shedding: target delay 2 s, control period 1 s.
//! let mut strategy = CtrlStrategy::from_config(&LoopConfig::paper_default());
//!
//! let sim = Simulator::new(network, SimConfig::paper_default());
//! let report = sim.run(&arrivals, &mut strategy, secs(60));
//!
//! // The controller keeps the average delay near the 2 s target while
//! // shedding roughly the overload fraction (1 − 190/300 ≈ 37%).
//! assert!(report.mean_delay_ms() < 3500.0);
//! assert!(report.loss_ratio() > 0.2 && report.loss_ratio() < 0.55);
//! ```

pub use streamshed_control as control;
pub use streamshed_engine as engine;
pub use streamshed_experiments as experiments;
pub use streamshed_net as net;
pub use streamshed_sysid as sysid;
pub use streamshed_workload as workload;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use streamshed_control::{
        controller::{ControllerParams, FeedbackController},
        estimator::{CostEstimator, DelayEstimator},
        loop_::{LoopConfig, ShedMode},
        model::PlantModel,
        strategy::{AuroraStrategy, BaselineStrategy, CtrlStrategy, SheddingStrategy},
        supervisor::Supervisor,
    };
    pub use streamshed_engine::{
        faults::{FaultKind, FaultPlan, FaultWindow, FaultyHook},
        hook::{ControlHook, Decision, NoShedding, PeriodSnapshot},
        metrics::RunReport,
        network::{NetworkBuilder, QueryNetwork},
        networks::{identification_network, monitoring_network, uniform_chain},
        sim::{SimConfig, Simulator},
        time::{micros, millis, secs, SimDuration, SimTime},
        tuple::Tuple,
    };
    pub use streamshed_workload::{
        to_micros, ArrivalTrace, CostTrace, ParetoTrace, SineTrace, StepTrace, WebLikeTrace,
    };
}
