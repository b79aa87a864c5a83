//! Time-varying per-tuple cost traces (the paper's Fig. 14).
//!
//! §5: "We first generate the cost variations following a Pareto
//! distribution and then modify the trace by adding 'circumstances' to it
//! ... a small peak at the 50th second, a large peak with a sudden jump
//! (starting from the 125th second), and a high terrace with a sudden
//! drop (250th to 350th second)."

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A scripted "circumstance" layered on the Pareto base cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Circumstance {
    /// A smooth triangular peak centred at `at_s`, reaching `peak_ms`.
    Peak {
        /// Centre of the peak, seconds.
        at_s: f64,
        /// Half-width, seconds.
        half_width_s: f64,
        /// Peak cost, ms.
        peak_ms: f64,
    },
    /// A sudden jump to `peak_ms` at `at_s` followed by a linear decay
    /// over `decay_s` seconds.
    JumpDecay {
        /// Jump instant, seconds.
        at_s: f64,
        /// Peak cost at the jump, ms.
        peak_ms: f64,
        /// Seconds to decay back to base.
        decay_s: f64,
    },
    /// A gradual ramp up to a sustained `level_ms` terrace between
    /// `from_s` and `to_s`, with a sudden drop at the end.
    Terrace {
        /// Ramp start, seconds.
        ramp_from_s: f64,
        /// Terrace start (ramp complete), seconds.
        from_s: f64,
        /// Sudden drop instant, seconds.
        to_s: f64,
        /// Terrace level, ms.
        level_ms: f64,
    },
}

/// The Fig. 14 cost trace: Pareto base noise plus scripted circumstances.
#[derive(Debug, Clone, PartialEq)]
pub struct CostTrace {
    /// Baseline cost, ms.
    pub base_ms: f64,
    /// Pareto tail index of the multiplicative noise.
    pub noise_shape: f64,
    /// Cap on the noise factor.
    pub noise_cap: f64,
    /// Scripted circumstances.
    pub circumstances: Vec<Circumstance>,
    /// RNG seed.
    pub seed: u64,
}

impl CostTrace {
    /// A constant cost trace (no variation).
    pub fn constant(base_ms: f64) -> Self {
        Self {
            base_ms,
            noise_shape: f64::INFINITY,
            noise_cap: 1.0,
            circumstances: Vec::new(),
            seed: 0,
        }
    }

    /// The paper's Fig. 14 profile over 400 s: base ≈ 4 ms with noise in
    /// the 3–8 ms band, a small peak at 50 s (~10 ms), a sudden jump to
    /// ~22 ms at 125 s, and a ~15 ms terrace over 250–350 s reached by a
    /// gradual rise and ended by a sudden drop.
    pub fn paper_fig14(base_ms: f64, seed: u64) -> Self {
        Self {
            base_ms,
            noise_shape: 3.0,
            noise_cap: 2.0,
            circumstances: vec![
                Circumstance::Peak {
                    at_s: 50.0,
                    half_width_s: 8.0,
                    peak_ms: base_ms * 2.2,
                },
                Circumstance::JumpDecay {
                    at_s: 125.0,
                    peak_ms: base_ms * 4.5,
                    decay_s: 40.0,
                },
                Circumstance::Terrace {
                    ramp_from_s: 220.0,
                    from_s: 250.0,
                    to_s: 350.0,
                    level_ms: base_ms * 3.0,
                },
            ],
            seed,
        }
    }

    fn circumstance_ms(&self, t: f64) -> f64 {
        let mut extra = 0.0f64;
        for c in &self.circumstances {
            let v = match *c {
                Circumstance::Peak {
                    at_s,
                    half_width_s,
                    peak_ms,
                } => {
                    let d = (t - at_s).abs();
                    if d < half_width_s {
                        (peak_ms - self.base_ms) * (1.0 - d / half_width_s)
                    } else {
                        0.0
                    }
                }
                Circumstance::JumpDecay {
                    at_s,
                    peak_ms,
                    decay_s,
                } => {
                    if t >= at_s && t < at_s + decay_s {
                        (peak_ms - self.base_ms) * (1.0 - (t - at_s) / decay_s)
                    } else {
                        0.0
                    }
                }
                Circumstance::Terrace {
                    ramp_from_s,
                    from_s,
                    to_s,
                    level_ms,
                } => {
                    if t >= ramp_from_s && t < from_s {
                        (level_ms - self.base_ms) * (t - ramp_from_s) / (from_s - ramp_from_s)
                    } else if t >= from_s && t < to_s {
                        level_ms - self.base_ms
                    } else {
                        0.0
                    }
                }
            };
            extra = extra.max(v);
        }
        extra
    }

    /// Samples the cost (ms) once per second over `duration_s` seconds,
    /// returning `(time_s, cost_ms)` points.
    pub fn points_ms(&self, duration_s: f64) -> Vec<(f64, f64)> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let n = duration_s.ceil() as usize;
        let mut out = Vec::with_capacity(n);
        for k in 0..n {
            let t = k as f64;
            let noise = if self.noise_shape.is_finite() {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                (1.0 / u.powf(1.0 / self.noise_shape)).min(self.noise_cap)
            } else {
                1.0
            };
            // Noise perturbs the base; circumstances add on top.
            let ms = self.base_ms * noise + self.circumstance_ms(t);
            out.push((t, ms));
        }
        out
    }

    /// Same profile expressed as multipliers of the base cost, suitable
    /// for the engine's `CostSchedule`.
    pub fn multiplier_points(&self, duration_s: f64) -> Vec<(f64, f64)> {
        self.points_ms(duration_s)
            .into_iter()
            .map(|(t, ms)| (t, ms / self.base_ms))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_trace_is_flat() {
        let trace = CostTrace::constant(5.0);
        let pts = trace.points_ms(10.0);
        assert_eq!(pts.len(), 10);
        for (_, ms) in pts {
            assert_eq!(ms, 5.0);
        }
    }

    #[test]
    fn fig14_has_paper_features() {
        let trace = CostTrace::paper_fig14(4.5, 42);
        let pts = trace.points_ms(400.0);
        let at = |s: usize| pts[s].1;

        // Small peak near 50 s clearly above the local baseline.
        assert!(at(50) > at(20) + 2.0, "peak at 50s: {} vs {}", at(50), at(20));
        // Sudden jump at 125 s: cost at 125 far above cost at 124.
        assert!(at(125) > at(123) + 5.0, "jump: {} vs {}", at(125), at(123));
        // Terrace: sustained high level at 300 s...
        assert!(at(300) > at(20) + 4.0, "terrace at 300s: {}", at(300));
        // ...with a sudden drop after 350 s.
        assert!(at(349) > at(360) + 4.0, "drop: {} vs {}", at(349), at(360));
    }

    #[test]
    fn costs_stay_in_plot_range() {
        // Fig. 14's y-axis spans 0–25 ms.
        let trace = CostTrace::paper_fig14(4.5, 7);
        for (t, ms) in trace.points_ms(400.0) {
            assert!(ms > 2.0 && ms < 26.0, "cost {ms} at {t}");
        }
    }

    #[test]
    fn multipliers_normalise_base() {
        let trace = CostTrace::paper_fig14(4.5, 7);
        let pts = trace.multiplier_points(400.0);
        // Quiet stretch: multiplier near 1.
        let early: f64 = pts[5..15].iter().map(|&(_, m)| m).sum::<f64>() / 10.0;
        assert!(early > 0.9 && early < 1.8, "early multiplier {early}");
        // Jump region: multiplier well above 3.
        assert!(pts[125].1 > 3.0);
    }

    #[test]
    fn deterministic_for_seed() {
        let a = CostTrace::paper_fig14(4.5, 3).points_ms(100.0);
        let b = CostTrace::paper_fig14(4.5, 3).points_ms(100.0);
        assert_eq!(a, b);
    }

    #[test]
    fn gradual_rise_before_terrace() {
        // The paper notes the cost "increases gradually before the
        // terrace", which is what lets CTRL track it (Fig. 15 analysis).
        let trace = CostTrace::paper_fig14(4.5, 3);
        let pts = trace.points_ms(400.0);
        let ramp_mid = pts[235].1;
        assert!(
            ramp_mid > pts[210].1 && ramp_mid < pts[300].1 + 3.0,
            "ramp at 235s: {ramp_mid}"
        );
    }
}
