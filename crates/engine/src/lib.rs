//! # streamshed-engine
//!
//! A Borealis-like stream query engine, built as the substrate for the
//! control-based load-shedding framework of Tu et al. (VLDB 2006).
//!
//! The engine provides exactly the properties the paper's DSMS model
//! relies on (§3–4.2):
//!
//! * a **query network**: a DAG of operators (filter, map, union,
//!   sliding-window join, windowed aggregate, split) with per-operator
//!   FIFO queues and per-operator CPU costs;
//! * a **round-robin scheduler** with no tuple priorities;
//! * a CPU-bound execution model with a **headroom factor** `H` (fraction
//!   of CPU available to query processing);
//! * per-tuple **processing delay** measurement from network-buffer
//!   arrival to departure (longest path, as the paper specifies);
//! * a **virtual queue** of outstanding tuples (`q(k)`), the quantity the
//!   paper's controller actually manipulates;
//! * a per-period [`hook::ControlHook`] where a load-shedding strategy
//!   observes the system and actuates (entry coin-flip shedding and/or
//!   in-network load shedding from random queue locations).
//!
//! Two runners are provided: the deterministic virtual-time
//! [`sim::Simulator`] used by all experiments, and the real-time sharded
//! engine in [`shard`] running the same loop against the wall clock (a
//! single-worker pipeline is `shards: 1`).
//! Both, plus the fault harness, emit one structured [`telemetry`]
//! record per control period through the same [`hook::ControlHook`]
//! seam.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod affinity;
pub mod cost;
pub mod describe;
pub mod diagnostics;
pub mod faults;
pub mod flight;
pub mod histo;
pub mod hook;
pub mod metrics;
pub mod network;
pub mod networks;
pub mod obs;
pub mod operator;
pub mod ring;
pub mod rng;
pub mod shard;
pub mod sim;
pub mod spans;
pub mod telemetry;
pub mod time;
pub mod tuple;
pub mod worker;

pub use diagnostics::{
    ControllerHealth, DiagEvent, DiagnosticsConfig, DiagnosticsSnapshot, HealthState,
    SharedDiagnostics,
};
pub use faults::{FaultKind, FaultLog, FaultPlan, FaultWindow, FaultyHook};
pub use flight::{FlightConfig, FlightRecorder};
pub use obs::{http_get, HttpConfig, ObsHandle, ObsOptions, ObsPlane, ObsServer};
pub use hook::{ControlHook, Decision, NoShedding, PeriodSnapshot};
pub use metrics::{DelayStats, RunReport};
pub use network::{NetworkBuilder, NodeId, QueryNetwork};
pub use ring::{Push, SpscRing};
pub use rng::{engine_rng, AtomicShedder, EngineRng, EntryShedder, GeometricSkip};
pub use shard::{BatchResult, Dispatch, ShardConfig, ShardReport, ShardStat, ShardedEngine};
pub use histo::{AtomicHisto, Histo};
pub use sim::{SimConfig, Simulator};
pub use spans::{ProfileSnapshot, SpanHandle, SpanRegistry, Stage};
pub use telemetry::{
    ControlState, ControlTrace, EventSink, InstrumentedHook, LoopMode, Ring, RingRecorder,
    SharedRecorder, TracingHook,
};
pub use time::{micros, millis, millis_f64, secs, secs_f64, SimDuration, SimTime};
pub use tuple::{RootId, Tuple};
pub use worker::{CostModel, WorkerConfig, WorkerStats};

/// Locks `m`, clearing poison instead of propagating it. Only for state
/// every update leaves valid at every step (counters, preallocated
/// rings): there, a thread that panicked while holding the lock — a
/// faulty hook, a scrape handler — must not wedge the control loop or
/// the endpoints for the rest of the run.
pub(crate) fn lock_unpoisoned<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
