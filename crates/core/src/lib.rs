//! # streamshed-control
//!
//! The paper's primary contribution: quality-driven load shedding as a
//! feedback-control problem.
//!
//! * [`model`] — the dynamic DSMS model `G(z) = cT/(H(z−1))` relating
//!   average delay to the virtual queue length (§4.2);
//! * [`estimator`] — the virtual-queue delay estimator
//!   `ŷ(k) = (q(k)+1)·c(k)/H` and the EWMA cost tracker (§4.5.1);
//! * [`controller`] — the pole-placement runtime controller
//!   `u(k) = (H/cT)[b0·e(k) + b1·e(k−1)] − a·u(k−1)` with anti-windup
//!   (Eq. 10, Appendix A);
//! * [`shedder`] — actuator arithmetic: entry coin-flip factor `α`
//!   (Eq. 13) and in-network load `Ls = Lq + Li − La` (§4.5.2);
//! * [`strategy`] — the three evaluated strategies: `CTRL`, `BASELINE`,
//!   `AURORA` (§5);
//! * [`loop_`] — the loop configuration every strategy shares;
//! * [`supervisor`] — the safety layer around a strategy: signal
//!   validation, hold on dropout, and the open-loop fallback it enters on
//!   the loop's `Diverging` health verdict.
//!
//! ```
//! use streamshed_control::loop_::LoopConfig;
//! use streamshed_control::strategy::CtrlStrategy;
//! use streamshed_engine::hook::ControlHook;
//! # use streamshed_engine::hook::PeriodSnapshot;
//! # use streamshed_engine::time::{secs, SimTime};
//!
//! let mut ctrl = CtrlStrategy::from_config(&LoopConfig::paper_default());
//! # let snapshot = PeriodSnapshot {
//! #     k: 0, now: SimTime::ZERO + secs(1), period: secs(1),
//! #     offered: 400, admitted: 400, dropped_entry: 0, dropped_network: 0,
//! #     completed: 190, outstanding: 2000, queued_tuples: 2000,
//! #     queued_load_us: 2000.0 * 5105.0, measured_cost_us: Some(5105.0),
//! #     mean_delay_ms: None, cpu_busy_us: 970_000,
//! # };
//! // Deep overload (ŷ ≈ 10.5 s against a 2 s target): CTRL sheds hard.
//! let decision = ctrl.on_period(&snapshot);
//! assert!(decision.entry_drop_prob > 0.5);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod controller;
pub mod estimator;
pub mod loop_;
pub mod model;
pub mod shedder;
pub mod strategy;
pub mod supervisor;

// Appendix A's claims as closed-form tests of `controller`: the design
// equations, the loop's responses, and the character of its poles.
#[cfg(test)]
mod analysis;
#[cfg(test)]
mod design;
#[cfg(test)]
mod tf;

pub use controller::FeedbackController;
pub use estimator::{CostEstimator, DelayEstimator};
pub use loop_::{LoopConfig, ShedMode};
pub use model::PlantModel;
pub use shedder::{EntryShedder, NetworkShedder};
pub use strategy::{AuroraStrategy, BaselineStrategy, CtrlStrategy, SheddingStrategy};
pub use supervisor::Supervisor;
