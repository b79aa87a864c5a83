//! Loop configuration shared by all shedding strategies.

use crate::controller::ControllerParams;
use streamshed_engine::time::{millis_f64, SimDuration};

/// Where the actuator sheds load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShedMode {
    /// Coin-flip shedding at the network entry (Eq. 13) — the "blackbox"
    /// shedder of §4.5.2.
    #[default]
    Entry,
    /// Load-based shedding from random in-network queue locations
    /// (`Ls = Lq + Li − La`) — the shedder the authors built for §5.
    Network,
}

/// Configuration of a quality-driven load-shedding loop.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopConfig {
    /// Target delay `yd` in milliseconds.
    pub target_delay_ms: f64,
    /// Control period `T` in milliseconds.
    pub period_ms: f64,
    /// Headroom factor `H` assumed by the model.
    pub headroom: f64,
    /// Prior per-tuple cost estimate, µs (before any measurement).
    pub prior_cost_us: f64,
    /// Controller parameters (CTRL strategy only).
    pub controller: ControllerParams,
    /// Actuation mode.
    pub shed_mode: ShedMode,
    /// Anti-windup by back-calculation: feed the *saturated* control
    /// effort back into the controller state (on by default; exposed for
    /// the ablation benches).
    pub anti_windup: bool,
}

impl LoopConfig {
    /// The paper's experiment configuration: `yd = 2000 ms`, `T = 1000 ms`,
    /// `H = 0.97`, `c` prior from the 190 t/s knee, published controller
    /// parameters, entry shedding.
    pub fn paper_default() -> Self {
        Self {
            target_delay_ms: 2000.0,
            period_ms: 1000.0,
            headroom: 0.97,
            prior_cost_us: 0.97 / 190.0 * 1e6, // ≈ 5105 µs
            controller: ControllerParams::PAPER,
            shed_mode: ShedMode::Entry,
            anti_windup: true,
        }
    }

    /// Builder-style setter for anti-windup (ablation only).
    pub fn with_anti_windup(mut self, on: bool) -> Self {
        self.anti_windup = on;
        self
    }

    /// Builder-style setter for the target delay.
    pub fn with_target_delay_ms(mut self, ms: f64) -> Self {
        assert!(ms > 0.0);
        self.target_delay_ms = ms;
        self
    }

    /// Builder-style setter for the control period.
    pub fn with_period_ms(mut self, ms: f64) -> Self {
        assert!(ms > 0.0);
        self.period_ms = ms;
        self
    }

    /// Builder-style setter for the headroom.
    pub fn with_headroom(mut self, h: f64) -> Self {
        assert!(h > 0.0 && h <= 1.0);
        self.headroom = h;
        self
    }

    /// Builder-style setter for the prior cost.
    pub fn with_prior_cost_us(mut self, c: f64) -> Self {
        assert!(c > 0.0);
        self.prior_cost_us = c;
        self
    }

    /// Builder-style setter for the controller parameters.
    pub fn with_controller(mut self, p: ControllerParams) -> Self {
        self.controller = p;
        self
    }

    /// Builder-style setter for the shed mode.
    pub fn with_shed_mode(mut self, m: ShedMode) -> Self {
        self.shed_mode = m;
        self
    }

    /// Target delay in seconds.
    pub fn target_delay_s(&self) -> f64 {
        self.target_delay_ms / 1e3
    }

    /// Control period as a [`SimDuration`].
    pub fn period(&self) -> SimDuration {
        millis_f64(self.period_ms)
    }

    /// Target delay as a [`SimDuration`].
    pub fn target_delay(&self) -> SimDuration {
        millis_f64(self.target_delay_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_values() {
        let cfg = LoopConfig::paper_default();
        assert_eq!(cfg.target_delay_ms, 2000.0);
        assert_eq!(cfg.period_ms, 1000.0);
        assert_eq!(cfg.headroom, 0.97);
        assert!((cfg.prior_cost_us - 5105.3).abs() < 1.0);
        assert_eq!(cfg.shed_mode, ShedMode::Entry);
    }

    #[test]
    fn builders_chain() {
        let cfg = LoopConfig::paper_default()
            .with_target_delay_ms(1000.0)
            .with_period_ms(500.0)
            .with_headroom(0.9)
            .with_shed_mode(ShedMode::Network);
        assert_eq!(cfg.target_delay_ms, 1000.0);
        assert_eq!(cfg.period().as_millis_f64(), 500.0);
        assert_eq!(cfg.headroom, 0.9);
        assert_eq!(cfg.shed_mode, ShedMode::Network);
    }

    #[test]
    fn conversions() {
        let cfg = LoopConfig::paper_default();
        assert_eq!(cfg.target_delay_s(), 2.0);
        assert_eq!(cfg.period().as_secs_f64(), 1.0);
        assert_eq!(cfg.target_delay().as_millis_f64(), 2000.0);
    }

    #[test]
    #[should_panic]
    fn rejects_zero_period() {
        let _ = LoopConfig::paper_default().with_period_ms(0.0);
    }
}
