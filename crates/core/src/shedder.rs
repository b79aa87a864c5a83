//! Actuator arithmetic: turning a desired admission rate `v` into shedding
//! commands (§4.5.2).

/// Entry-point ("blackbox") shedding: Borealis flips an unfair coin per
/// arriving tuple; the head probability is the shedding factor `α`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EntryShedder;

impl EntryShedder {
    /// Eq. 13: `α = 1 − v(k)/fin(k+1)`, with `fin(k)` as the estimate of
    /// the unknown `fin(k+1)`. Clamped to `[0, 1]`; a vanishing `fin`
    /// yields `α = 0` (nothing arriving, nothing to shed).
    pub fn alpha_for(desired_rate_tps: f64, fin_estimate_tps: f64) -> f64 {
        if fin_estimate_tps <= f64::EPSILON {
            return 0.0;
        }
        (1.0 - desired_rate_tps / fin_estimate_tps).clamp(0.0, 1.0)
    }
}

/// In-network load-based shedding: drop queued (possibly partially
/// processed) tuples so that the remaining load matches what the
/// controller allows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetworkShedder;

impl NetworkShedder {
    /// The queue-conserving load-shedding amount.
    ///
    /// Requiring the virtual queue to follow the controller —
    /// `q(k+1) = q(k) + u·T` with `v = u + fout` — and allowing the cut
    /// to be taken anywhere (input or queues) gives
    /// `Ls = Lq + Li − (q + v·T)·c = (fin − v)·T·c`, clamped to
    /// `[0, Lq + Li]`. With `v ≥ 0` this distributes exactly the
    /// entry-shedder's cut; with `v < 0` (the controller wants the queue
    /// to shrink faster than processing alone can) the excess is culled
    /// from the queues. Returns µs of CPU work. §4.5.2 prints
    /// `Ls = Lq + Li − v·T·c`, which also sheds the standing queue;
    /// CONTROL.md §1 says why that over-sheds.
    pub fn load_to_shed_us(
        queued_load_us: f64,
        fin_estimate_tps: f64,
        desired_rate_tps: f64,
        cost_us: f64,
        period_s: f64,
    ) -> f64 {
        let li = fin_estimate_tps * period_s * cost_us;
        let ls = (fin_estimate_tps - desired_rate_tps) * period_s * cost_us;
        ls.clamp(0.0, queued_load_us + li)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_zero_when_everything_admitted() {
        assert_eq!(EntryShedder::alpha_for(300.0, 200.0), 0.0);
        assert_eq!(EntryShedder::alpha_for(200.0, 200.0), 0.0);
    }

    #[test]
    fn alpha_fraction_when_overloaded() {
        let a = EntryShedder::alpha_for(100.0, 400.0);
        assert!((a - 0.75).abs() < 1e-12);
    }

    #[test]
    fn alpha_one_when_nothing_allowed() {
        assert_eq!(EntryShedder::alpha_for(0.0, 400.0), 1.0);
        assert_eq!(EntryShedder::alpha_for(-50.0, 400.0), 1.0);
    }

    #[test]
    fn alpha_zero_when_no_input() {
        assert_eq!(EntryShedder::alpha_for(100.0, 0.0), 0.0);
    }

    #[test]
    fn network_shed_matches_entry_cut_for_positive_v() {
        // 400 t/s arriving at 5 ms each, controller allows 190 t/s:
        // Ls = (400 − 190)·1·5000 = 1.05e6 µs — the queue is untouched.
        let ls = NetworkShedder::load_to_shed_us(1e6, 400.0, 190.0, 5000.0, 1.0);
        assert!((ls - 1.05e6).abs() < 1.0);
    }

    #[test]
    fn network_shed_culls_queue_for_negative_v() {
        // v = −100 t/s: shed all input plus 100·T tuples from the queue.
        let ls = NetworkShedder::load_to_shed_us(1e6, 100.0, -100.0, 5000.0, 1.0);
        assert!((ls - 1.0e6).abs() < 1.0);
    }

    #[test]
    fn network_shed_clamps_at_zero_and_at_available() {
        assert_eq!(
            NetworkShedder::load_to_shed_us(0.0, 100.0, 400.0, 5000.0, 1.0),
            0.0
        );
        // Cannot shed more than exists (queue + incoming).
        let ls = NetworkShedder::load_to_shed_us(1e5, 10.0, -10_000.0, 5000.0, 1.0);
        assert!((ls - (1e5 + 10.0 * 5000.0)).abs() < 1.0);
    }
}
