//! Frame schedules for client fleets.
//!
//! The network load generator drives each connection from a
//! *precomputed, seeded* schedule: a list of `(send_time_us, tuples)`
//! frames derived from an [`ArrivalTrace`]. Precomputing keeps the fleet
//! deterministic (two runs with the same seed offer the same tuples on
//! the same connections in the same frames, regardless of wall-clock
//! pacing jitter) and keeps the send loop allocation-free.
//!
//! Grouping rule: consecutive arrivals are packed into frames of at most
//! `batch` tuples, and a frame's send time is the arrival time of its
//! *last* tuple — a frame is sent once every tuple in it has "arrived",
//! so batching never sends traffic earlier than the trace generated it.

use crate::ArrivalTrace;

/// One scheduled frame: send at `at_us` microseconds from the run start,
/// carrying `tuples` tuples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameAt {
    /// Send time, µs from run start.
    pub at_us: u64,
    /// Tuples in the frame (≥ 1).
    pub tuples: u32,
}

/// Packs a trace's arrivals over `duration_s` into frames of at most
/// `batch` tuples each (see the module docs for the grouping rule).
pub fn frame_schedule(trace: &dyn ArrivalTrace, duration_s: f64, batch: usize) -> Vec<FrameAt> {
    assert!(batch >= 1, "batch must be >= 1");
    // Grouped as the arrivals are generated: a minutes-long fleet
    // schedule never holds its per-tuple instants, only its frames.
    let expected = trace.mean_rate() * duration_s / batch as f64;
    let mut frames = Vec::with_capacity(if expected.is_finite() { expected as usize + 1 } else { 0 });
    let frame = |last: f64, tuples: usize| FrameAt {
        at_us: (last.max(0.0) * 1e6) as u64,
        tuples: tuples as u32,
    };
    let (mut last, mut tuples) = (0.0f64, 0usize);
    trace.for_each_arrival(duration_s, &mut |t| {
        last = t;
        tuples += 1;
        if tuples == batch {
            frames.push(frame(last, tuples));
            tuples = 0;
        }
    });
    if tuples > 0 {
        frames.push(frame(last, tuples));
    }
    frames
}

/// An analytic uniform schedule: `total` tuples spread evenly over
/// `duration_s` in frames of `batch`. No trace and no RNG — this is the
/// loadgen's constant-rate mode, usable at rates where materializing
/// per-arrival times would dominate memory.
pub fn uniform_schedule(total: u64, duration_s: f64, batch: usize) -> Vec<FrameAt> {
    assert!(batch >= 1, "batch must be >= 1");
    let frames_n = total.div_ceil(batch as u64);
    let mut frames = Vec::with_capacity(frames_n as usize);
    for f in 0..frames_n {
        let tuples = (total - f * batch as u64).min(batch as u64) as u32;
        // Send time of the last tuple in the frame under even spacing.
        let last_idx = (f * batch as u64 + tuples as u64).min(total);
        let at_us = if total == 0 {
            0
        } else {
            (duration_s * 1e6 * last_idx as f64 / total as f64) as u64
        };
        frames.push(FrameAt { at_us, tuples });
    }
    frames
}

/// Total tuples across a schedule.
pub fn schedule_tuples(frames: &[FrameAt]) -> u64 {
    frames.iter().map(|f| u64::from(f.tuples)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ParetoTrace, PoissonTrace, WebLikeTrace};

    /// The materializing formulation `frame_schedule` replaced, kept as
    /// the oracle: all instants first, then `chunks(batch)`.
    fn chunked(trace: &dyn ArrivalTrace, duration_s: f64, batch: usize) -> Vec<FrameAt> {
        trace
            .arrival_times(duration_s)
            .chunks(batch)
            .map(|group| FrameAt {
                at_us: (group.last().unwrap().max(0.0) * 1e6) as u64,
                tuples: group.len() as u32,
            })
            .collect()
    }

    #[test]
    fn streamed_grouping_matches_the_materialized_one() {
        let traces: [(&str, Box<dyn ArrivalTrace>); 3] = [
            ("poisson", Box::new(PoissonTrace::new(5_000.0, 7))),
            ("web", Box::new(WebLikeTrace::paper_default(11))),
            ("pareto", Box::new(ParetoTrace::builder().mean_rate(400.0).bias(0.5).seed(9).build())),
        ];
        for (name, trace) in &traces {
            for batch in [1usize, 7, 64] {
                let got = frame_schedule(trace.as_ref(), 20.0, batch);
                assert_eq!(got, chunked(trace.as_ref(), 20.0, batch), "{name} / {batch}");
                assert!(!got.is_empty(), "{name}");
            }
            // A batch that does not divide the count leaves a short
            // last frame, and it is kept.
            let n = trace.arrival_times(20.0).len();
            let batch = (2..).find(|b| n % b != 0).unwrap();
            let got = frame_schedule(trace.as_ref(), 20.0, batch);
            assert_eq!(got.last().unwrap().tuples as usize, n % batch, "{name}");
            assert_eq!(got, chunked(trace.as_ref(), 20.0, batch), "{name}");
        }
    }

    #[test]
    fn frames_conserve_and_order() {
        let trace = PoissonTrace::new(500.0, 7);
        let frames = frame_schedule(&trace, 2.0, 16);
        let total = schedule_tuples(&frames);
        assert_eq!(total, trace.arrival_times(2.0).len() as u64);
        assert!(frames.windows(2).all(|w| w[0].at_us <= w[1].at_us));
        assert!(frames.iter().all(|f| (1..=16).contains(&f.tuples)));
    }

    #[test]
    fn frames_never_early() {
        // A frame's send time is >= every member arrival: check against
        // the raw trace times.
        let trace = WebLikeTrace::builder().sources(3).seed(11).build();
        let times = trace.arrival_times(3.0);
        let frames = frame_schedule(&trace, 3.0, 8);
        let mut i = 0usize;
        for f in &frames {
            for _ in 0..f.tuples {
                assert!((times[i].max(0.0) * 1e6) as u64 <= f.at_us);
                i += 1;
            }
        }
        assert_eq!(i, times.len());
    }

    #[test]
    fn deterministic_for_seed() {
        let a = frame_schedule(&PoissonTrace::new(200.0, 42), 1.5, 32);
        let b = frame_schedule(&PoissonTrace::new(200.0, 42), 1.5, 32);
        assert_eq!(a, b);
    }

    #[test]
    fn uniform_is_exact() {
        let frames = uniform_schedule(1000, 2.0, 64);
        assert_eq!(schedule_tuples(&frames), 1000);
        assert!(frames.windows(2).all(|w| w[0].at_us <= w[1].at_us));
        assert_eq!(frames.last().unwrap().at_us, 2_000_000);
        assert!(uniform_schedule(0, 1.0, 8).is_empty());
    }
}
