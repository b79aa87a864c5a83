//! Discrete-time (z-domain) control mathematics.
//!
//! This crate provides the analysis and design tools the paper uses
//! implicitly ("by mathematical reasoning exclusively", §5.2): complex
//! arithmetic, polynomials over ℝ, numerically robust root finding,
//! rational transfer functions, closed-loop algebra, step-response
//! simulation, and the pole-placement design of Appendix A.
//!
//! Everything is `f64`-based and allocation-light; the heaviest routine
//! (Durand–Kerner root finding) only allocates the root vector.
//!
//! # Example: re-deriving the paper's controller
//!
//! ```
//! use streamshed_zdomain::design::{design_for_integrator, DesignSpec};
//!
//! // Plant G(z) = g / (z - 1) with g = cT/H (the units cancel in the
//! // normalised controller parameters).
//! let spec = DesignSpec::paper_default(); // double pole at 0.7, b0 = 0.4
//! let params = design_for_integrator(&spec);
//! assert!((params.b0 - 0.4).abs() < 1e-12);
//! assert!((params.b1 - (-0.31)).abs() < 1e-12);
//! assert!((params.a - (-0.8)).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod analysis;
pub mod complex;
pub mod design;
pub mod linalg;
pub mod poly;
pub mod roots;
pub mod tf;

pub use analysis::{damping_of_pole, DiscretePoleInfo};
pub use complex::Complex;
pub use design::{design_for_integrator, ControllerParams, DesignSpec};
pub use poly::Poly;
pub use tf::TransferFunction;
