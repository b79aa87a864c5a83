//! Query operators.
//!
//! Operators are *logic only*; their CPU cost is a property of the network
//! node (the paper's identification network fixes a cost per operator,
//! §4.2). Built-in operators cover the shapes in Fig. 2 of the paper:
//! filters, maps, unions, sliding-window joins, windowed aggregates, and
//! splits. Custom logic can be plugged in via the [`OperatorLogic`] trait.

use crate::time::{SimDuration, SimTime};
use crate::tuple::Tuple;
use std::collections::VecDeque;
use std::fmt;

/// Input port index of an operator (0 for unary; 0/1 for binary).
pub type PortId = usize;

/// Collects the output tuples of one operator invocation.
///
/// `emit` broadcasts to every outgoing edge; `emit_to` targets one output
/// *branch* (used by [`Split`]). Branch indices map to edge groups in the
/// network description.
#[derive(Debug, Default)]
pub struct OutputBuffer {
    pub(crate) items: Vec<(Option<usize>, Tuple)>,
}

impl OutputBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Broadcasts a tuple to all output edges.
    pub fn emit(&mut self, tuple: Tuple) {
        self.items.push((None, tuple));
    }

    /// Sends a tuple to one output branch only.
    pub fn emit_to(&mut self, branch: usize, tuple: Tuple) {
        self.items.push((Some(branch), tuple));
    }

    /// Number of buffered outputs.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether no outputs were produced.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Clears the buffer for reuse (workhorse pattern — one buffer per
    /// scheduler, reused across invocations).
    pub fn clear(&mut self) {
        self.items.clear();
    }
}

/// The behaviour of a query operator.
pub trait OperatorLogic: Send {
    /// Operator kind name, for diagnostics.
    fn kind(&self) -> &'static str;

    /// Processes one input tuple, producing zero or more outputs.
    fn process(&mut self, port: PortId, tuple: &Tuple, now: SimTime, out: &mut OutputBuffer);

    /// Expected number of output tuples per input tuple, used for load
    /// (`downstream cost`) estimation. Defaults to 1.
    fn expected_selectivity(&self) -> f64 {
        1.0
    }

    /// True if this operator forwards every input tuple unchanged on its
    /// default branch (identity maps, unions). The scheduler uses this to
    /// route such tuples without an indirect `process` call; the answer
    /// must never change over the operator's lifetime.
    fn is_passthrough(&self) -> bool {
        false
    }

    /// Number of input ports (1 for unary, 2 for binary operators).
    fn ports(&self) -> usize {
        1
    }
}

impl fmt::Debug for dyn OperatorLogic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "OperatorLogic({})", self.kind())
    }
}

// ---------------------------------------------------------------------------
// Filter
// ---------------------------------------------------------------------------

/// A selection operator: passes tuples matching a predicate.
pub struct Filter {
    predicate: Box<dyn FnMut(&Tuple) -> bool + Send>,
    declared_selectivity: f64,
}

impl Filter {
    /// Filter with an arbitrary predicate and a declared expected
    /// selectivity (used only for load estimation).
    pub fn new(
        declared_selectivity: f64,
        predicate: impl FnMut(&Tuple) -> bool + Send + 'static,
    ) -> Self {
        assert!((0.0..=1.0).contains(&declared_selectivity));
        Self {
            predicate: Box::new(predicate),
            declared_selectivity,
        }
    }

    /// Passes tuples whose `value` is below `threshold`.
    ///
    /// With values uniform in `[0, 1)` this realises a fixed selectivity of
    /// `threshold` — exactly how the paper pins selectivities during system
    /// identification (§4.2).
    pub fn value_below(threshold: f64) -> Self {
        Self::new(threshold.clamp(0.0, 1.0), move |t: &Tuple| {
            t.value < threshold
        })
    }
}

impl OperatorLogic for Filter {
    fn kind(&self) -> &'static str {
        "filter"
    }

    fn process(&mut self, _port: PortId, tuple: &Tuple, _now: SimTime, out: &mut OutputBuffer) {
        if (self.predicate)(tuple) {
            out.emit(*tuple);
        }
    }

    fn expected_selectivity(&self) -> f64 {
        self.declared_selectivity
    }
}

// ---------------------------------------------------------------------------
// Map
// ---------------------------------------------------------------------------

/// A stateless transformation operator (one output per input).
pub struct Map {
    f: Box<dyn FnMut(&Tuple) -> Tuple + Send>,
    identity: bool,
}

impl Map {
    /// Map with an arbitrary transform. The transform should use
    /// [`Tuple::derive`] to preserve delay attribution.
    pub fn new(f: impl FnMut(&Tuple) -> Tuple + Send + 'static) -> Self {
        Self {
            f: Box::new(f),
            identity: false,
        }
    }

    /// Scales the value by a constant.
    pub fn scale(factor: f64) -> Self {
        Self::new(move |t: &Tuple| t.derive(t.key, t.value * factor))
    }

    /// Identity map — a pure cost carrier, as used for most of the 14
    /// operators of the identification network.
    pub fn identity() -> Self {
        let mut m = Self::new(|t: &Tuple| *t);
        m.identity = true;
        m
    }
}

impl OperatorLogic for Map {
    fn kind(&self) -> &'static str {
        "map"
    }

    fn process(&mut self, _port: PortId, tuple: &Tuple, _now: SimTime, out: &mut OutputBuffer) {
        out.emit((self.f)(tuple));
    }

    fn is_passthrough(&self) -> bool {
        self.identity
    }
}

// ---------------------------------------------------------------------------
// Union
// ---------------------------------------------------------------------------

/// Merges two input streams (binary, order of arrival).
#[derive(Debug, Default)]
pub struct Union;

impl OperatorLogic for Union {
    fn kind(&self) -> &'static str {
        "union"
    }

    fn process(&mut self, _port: PortId, tuple: &Tuple, _now: SimTime, out: &mut OutputBuffer) {
        out.emit(*tuple);
    }

    fn ports(&self) -> usize {
        2
    }

    fn is_passthrough(&self) -> bool {
        true
    }
}

// ---------------------------------------------------------------------------
// Sliding-window join
// ---------------------------------------------------------------------------

/// A binary equi-join over sliding time windows (§3: "multi-stream joins
/// are performed over a sliding window whose size is specified ... in
/// number of tuples or time").
pub struct WindowJoin {
    window: WindowSpec,
    buffers: [VecDeque<(SimTime, Tuple)>; 2],
    declared_selectivity: f64,
}

/// Window extent for stateful operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowSpec {
    /// Keep tuples younger than the given age.
    Time(SimDuration),
    /// Keep at most this many tuples.
    Count(usize),
}

impl WindowJoin {
    /// Creates a join with the given window applied to both inputs and a
    /// declared expected selectivity (expected matches per probe) for load
    /// estimation.
    pub fn new(window: WindowSpec, declared_selectivity: f64) -> Self {
        Self {
            window,
            buffers: [VecDeque::new(), VecDeque::new()],
            declared_selectivity,
        }
    }

    fn evict(&mut self, side: usize, now: SimTime) {
        match self.window {
            WindowSpec::Time(w) => {
                while let Some(&(t, _)) = self.buffers[side].front() {
                    if now - t > w {
                        self.buffers[side].pop_front();
                    } else {
                        break;
                    }
                }
            }
            WindowSpec::Count(n) => {
                while self.buffers[side].len() > n {
                    self.buffers[side].pop_front();
                }
            }
        }
    }

    /// Current number of buffered tuples on a side (test/diagnostic hook).
    pub fn window_len(&self, side: usize) -> usize {
        self.buffers[side].len()
    }
}

impl OperatorLogic for WindowJoin {
    fn kind(&self) -> &'static str {
        "window-join"
    }

    fn process(&mut self, port: PortId, tuple: &Tuple, now: SimTime, out: &mut OutputBuffer) {
        debug_assert!(port < 2);
        let other = 1 - port;
        self.evict(other, now);
        for (_, buffered) in &self.buffers[other] {
            if buffered.key == tuple.key {
                // The joined tuple is attributed to the probing input.
                out.emit(tuple.derive(tuple.key, tuple.value + buffered.value));
            }
        }
        self.buffers[port].push_back((now, *tuple));
        self.evict(port, now);
    }

    fn expected_selectivity(&self) -> f64 {
        self.declared_selectivity
    }

    fn ports(&self) -> usize {
        2
    }
}

// ---------------------------------------------------------------------------
// Windowed aggregate
// ---------------------------------------------------------------------------

/// The aggregate function of an [`Aggregate`] operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Arithmetic mean of values in the window.
    Avg,
    /// Sum of values in the window.
    Sum,
    /// Count of tuples in the window.
    Count,
    /// Maximum value in the window.
    Max,
}

/// A tumbling count-window aggregate: consumes `window` tuples, emits one.
pub struct Aggregate {
    window: usize,
    func: AggFunc,
    count: usize,
    sum: f64,
    max: f64,
}

impl Aggregate {
    /// Creates an aggregate over tumbling windows of `window` tuples.
    pub fn new(window: usize, func: AggFunc) -> Self {
        assert!(window >= 1);
        Self {
            window,
            func,
            count: 0,
            sum: 0.0,
            max: f64::NEG_INFINITY,
        }
    }
}

impl OperatorLogic for Aggregate {
    fn kind(&self) -> &'static str {
        "aggregate"
    }

    fn process(&mut self, _port: PortId, tuple: &Tuple, _now: SimTime, out: &mut OutputBuffer) {
        self.count += 1;
        self.sum += tuple.value;
        self.max = self.max.max(tuple.value);
        if self.count == self.window {
            let value = match self.func {
                AggFunc::Avg => self.sum / self.count as f64,
                AggFunc::Sum => self.sum,
                AggFunc::Count => self.count as f64,
                AggFunc::Max => self.max,
            };
            // Attributed to the window-closing tuple.
            out.emit(tuple.derive(tuple.key, value));
            self.count = 0;
            self.sum = 0.0;
            self.max = f64::NEG_INFINITY;
        }
    }

    fn expected_selectivity(&self) -> f64 {
        1.0 / self.window as f64
    }
}

// ---------------------------------------------------------------------------
// Split
// ---------------------------------------------------------------------------

/// Routes each tuple to exactly one output branch by predicate
/// (branch 0 if the predicate holds, branch 1 otherwise).
pub struct Split {
    predicate: Box<dyn FnMut(&Tuple) -> bool + Send>,
    branch0_fraction: f64,
}

impl Split {
    /// Creates a split with a routing predicate; `branch0_fraction` is the
    /// expected fraction routed to branch 0, for load estimation.
    pub fn new(
        branch0_fraction: f64,
        predicate: impl FnMut(&Tuple) -> bool + Send + 'static,
    ) -> Self {
        Self {
            predicate: Box::new(predicate),
            branch0_fraction: branch0_fraction.clamp(0.0, 1.0),
        }
    }

    /// Splits on value below a threshold; with uniform values this routes
    /// a `threshold` fraction to branch 0.
    pub fn value_below(threshold: f64) -> Self {
        Self::new(threshold, move |t: &Tuple| t.value < threshold)
    }

    /// Expected fraction of input routed to branch 0.
    pub fn branch0_fraction(&self) -> f64 {
        self.branch0_fraction
    }
}

impl OperatorLogic for Split {
    fn kind(&self) -> &'static str {
        "split"
    }

    fn process(&mut self, _port: PortId, tuple: &Tuple, _now: SimTime, out: &mut OutputBuffer) {
        let branch = if (self.predicate)(tuple) { 0 } else { 1 };
        out.emit_to(branch, *tuple);
    }
}

// ---------------------------------------------------------------------------
// Time-window aggregate
// ---------------------------------------------------------------------------

/// A tumbling **time**-window aggregate: closes a window whenever an
/// input crosses the next boundary and emits one summary tuple
/// (complementing the count-window [`Aggregate`]).
pub struct TimeAggregate {
    window: SimDuration,
    func: AggFunc,
    window_end: Option<SimTime>,
    count: u64,
    sum: f64,
    max: f64,
}

impl TimeAggregate {
    /// Creates a time-window aggregate.
    pub fn new(window: SimDuration, func: AggFunc) -> Self {
        assert!(window.as_micros() > 0);
        Self {
            window,
            func,
            window_end: None,
            count: 0,
            sum: 0.0,
            max: f64::NEG_INFINITY,
        }
    }

    fn emit_window(&mut self, tuple: &Tuple, out: &mut OutputBuffer) {
        if self.count == 0 {
            return;
        }
        let value = match self.func {
            AggFunc::Avg => self.sum / self.count as f64,
            AggFunc::Sum => self.sum,
            AggFunc::Count => self.count as f64,
            AggFunc::Max => self.max,
        };
        out.emit(tuple.derive(tuple.key, value));
        self.count = 0;
        self.sum = 0.0;
        self.max = f64::NEG_INFINITY;
    }
}

impl OperatorLogic for TimeAggregate {
    fn kind(&self) -> &'static str {
        "time-aggregate"
    }

    fn process(&mut self, _port: PortId, tuple: &Tuple, now: SimTime, out: &mut OutputBuffer) {
        let end = *self.window_end.get_or_insert(now + self.window);
        if now >= end {
            // Close the previous window (attributed to the tuple that
            // crossed the boundary) and start the next.
            self.emit_window(tuple, out);
            // Advance the boundary past `now` in whole windows.
            let mut e = end;
            while e <= now {
                e += self.window;
            }
            self.window_end = Some(e);
        }
        self.count += 1;
        self.sum += tuple.value;
        self.max = self.max.max(tuple.value);
    }

    fn expected_selectivity(&self) -> f64 {
        // Unknown without an arrival rate; assume sparse windows (one out
        // per handful of inputs) for load purposes.
        0.2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::RootId;

    fn t(key: u64, value: f64) -> Tuple {
        Tuple::new(RootId(0), SimTime::ZERO, key, value)
    }

    fn run(op: &mut dyn OperatorLogic, port: PortId, tuple: Tuple, now: SimTime) -> Vec<Tuple> {
        let mut out = OutputBuffer::new();
        op.process(port, &tuple, now, &mut out);
        out.items.into_iter().map(|(_, t)| t).collect()
    }

    #[test]
    fn filter_passes_and_drops() {
        let mut f = Filter::value_below(0.5);
        assert_eq!(run(&mut f, 0, t(1, 0.2), SimTime::ZERO).len(), 1);
        assert_eq!(run(&mut f, 0, t(1, 0.9), SimTime::ZERO).len(), 0);
        assert!((f.expected_selectivity() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn filter_key_mod_selectivity() {
        // Keys congruent to 1 (mod 4): a deterministic 1/4 selectivity.
        let mut f = Filter::new(0.25, |t: &Tuple| t.key % 4 == 1);
        let passed: usize = (0..100)
            .map(|k| run(&mut f, 0, t(k, 0.0), SimTime::ZERO).len())
            .sum();
        assert_eq!(passed, 25);
    }

    #[test]
    fn map_transforms_and_preserves_root() {
        let mut m = Map::scale(2.0);
        let input = Tuple::new(RootId(42), SimTime(5), 3, 1.5);
        let out = run(&mut m, 0, input, SimTime::ZERO);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].value, 3.0);
        assert_eq!(out[0].root, RootId(42));
        assert_eq!(out[0].arrival, SimTime(5));
    }

    #[test]
    fn union_merges_both_ports() {
        let mut u = Union;
        assert_eq!(run(&mut u, 0, t(1, 1.0), SimTime::ZERO).len(), 1);
        assert_eq!(run(&mut u, 1, t(2, 2.0), SimTime::ZERO).len(), 1);
        assert_eq!(u.ports(), 2);
    }

    #[test]
    fn join_matches_on_key_within_window() {
        let mut j = WindowJoin::new(WindowSpec::Time(crate::time::millis(100)), 0.1);
        // Left tuple arrives, no match yet.
        assert!(run(&mut j, 0, t(7, 1.0), SimTime(0)).is_empty());
        // Right tuple with same key joins.
        let out = run(&mut j, 1, t(7, 2.0), SimTime(1000));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].value, 3.0);
        // Different key: no join.
        assert!(run(&mut j, 1, t(8, 2.0), SimTime(2000)).is_empty());
    }

    #[test]
    fn join_evicts_expired_tuples() {
        let mut j = WindowJoin::new(WindowSpec::Time(crate::time::millis(10)), 0.1);
        run(&mut j, 0, t(7, 1.0), SimTime(0));
        // 20 ms later the left tuple is out of the window.
        let out = run(&mut j, 1, t(7, 2.0), SimTime(20_000));
        assert!(out.is_empty());
        assert_eq!(j.window_len(0), 0);
    }

    #[test]
    fn join_count_window_caps_buffer() {
        let mut j = WindowJoin::new(WindowSpec::Count(2), 0.1);
        for i in 0..5 {
            run(&mut j, 0, t(i, 1.0), SimTime(i * 10));
        }
        assert_eq!(j.window_len(0), 2);
    }

    #[test]
    fn join_output_attributed_to_probe() {
        let mut j = WindowJoin::new(WindowSpec::Count(10), 0.1);
        let left = Tuple::new(RootId(1), SimTime(0), 5, 1.0);
        let right = Tuple::new(RootId(2), SimTime(100), 5, 2.0);
        run(&mut j, 0, left, SimTime(0));
        let out = run(&mut j, 1, right, SimTime(100));
        assert_eq!(out[0].root, RootId(2));
    }

    #[test]
    fn aggregate_tumbling_avg() {
        let mut a = Aggregate::new(3, AggFunc::Avg);
        assert!(run(&mut a, 0, t(1, 1.0), SimTime::ZERO).is_empty());
        assert!(run(&mut a, 0, t(1, 2.0), SimTime::ZERO).is_empty());
        let out = run(&mut a, 0, t(1, 6.0), SimTime::ZERO);
        assert_eq!(out.len(), 1);
        assert!((out[0].value - 3.0).abs() < 1e-12);
        // Window resets.
        assert!(run(&mut a, 0, t(1, 1.0), SimTime::ZERO).is_empty());
    }

    #[test]
    fn aggregate_functions() {
        for (func, want) in [
            (AggFunc::Sum, 9.0),
            (AggFunc::Count, 3.0),
            (AggFunc::Max, 6.0),
        ] {
            let mut a = Aggregate::new(3, func);
            run(&mut a, 0, t(1, 1.0), SimTime::ZERO);
            run(&mut a, 0, t(1, 2.0), SimTime::ZERO);
            let out = run(&mut a, 0, t(1, 6.0), SimTime::ZERO);
            assert_eq!(out[0].value, want, "{func:?}");
        }
        assert!((Aggregate::new(4, AggFunc::Avg).expected_selectivity() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn split_routes_by_predicate() {
        let mut s = Split::value_below(0.5);
        let mut out = OutputBuffer::new();
        s.process(0, &t(1, 0.2), SimTime::ZERO, &mut out);
        s.process(0, &t(1, 0.8), SimTime::ZERO, &mut out);
        assert_eq!(out.items[0].0, Some(0));
        assert_eq!(out.items[1].0, Some(1));
    }

    #[test]
    fn time_aggregate_closes_windows_on_boundaries() {
        let mut a = TimeAggregate::new(crate::time::millis(100), AggFunc::Sum);
        // Window 1: three tuples.
        assert!(run(&mut a, 0, t(1, 1.0), SimTime(0)).is_empty());
        assert!(run(&mut a, 0, t(1, 2.0), SimTime(40_000)).is_empty());
        assert!(run(&mut a, 0, t(1, 3.0), SimTime(80_000)).is_empty());
        // First tuple past the boundary closes the window: sum = 6.
        let out = run(&mut a, 0, t(1, 10.0), SimTime(120_000));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].value, 6.0);
        // Next boundary: only the 10.0 tuple was in window 2.
        let out = run(&mut a, 0, t(1, 0.5), SimTime(230_000));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].value, 10.0);
    }

    #[test]
    fn time_aggregate_skips_empty_windows() {
        let mut a = TimeAggregate::new(crate::time::millis(10), AggFunc::Count);
        run(&mut a, 0, t(1, 1.0), SimTime(0));
        // A long gap spans many empty windows; exactly one summary (count
        // = 1) is emitted for the window that had data.
        let out = run(&mut a, 0, t(1, 1.0), SimTime(1_000_000));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].value, 1.0);
    }

    #[test]
    fn output_buffer_reuse() {
        let mut out = OutputBuffer::new();
        out.emit(t(1, 1.0));
        assert_eq!(out.len(), 1);
        assert!(!out.is_empty());
        out.clear();
        assert!(out.is_empty());
    }
}
