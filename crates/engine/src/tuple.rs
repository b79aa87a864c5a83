//! Stream tuples.

use crate::time::SimTime;

/// Identifier of a *root* tuple — one admission into the query network.
///
/// Derived tuples (join outputs, aggregate emissions, fan-out copies) keep
/// the root id of the input tuple whose processing produced them, so the
/// engine can attribute a single processing delay to each admission, per
/// the paper's definition ("time elapsed since it arrives ... till it
/// leaves the query network", recording the departure of the longest
/// path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RootId(pub u64);

/// A data tuple flowing through the query network.
///
/// Payloads are deliberately minimal — a join `key` and a numeric `value` —
/// which is all the paper's workloads require (values drawn from uniform
/// distributions to pin operator selectivities, §4.2). The processing-cost
/// model lives on operators, not tuples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tuple {
    /// The admission this tuple's work is attributed to.
    pub root: RootId,
    /// Arrival time of the root tuple at the network buffer.
    pub arrival: SimTime,
    /// Join/grouping key.
    pub key: u64,
    /// Numeric payload.
    pub value: f64,
}

impl Tuple {
    /// Creates a fresh root tuple at its admission time.
    pub fn new(root: RootId, arrival: SimTime, key: u64, value: f64) -> Self {
        Self {
            root,
            arrival,
            key,
            value,
        }
    }

    /// Derives an output tuple that inherits this tuple's root and arrival
    /// (delay attribution) but carries new data.
    pub fn derive(&self, key: u64, value: f64) -> Tuple {
        Tuple {
            root: self.root,
            arrival: self.arrival,
            key,
            value,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_keeps_root_and_arrival() {
        let t = Tuple::new(RootId(7), SimTime(123), 1, 2.0);
        let d = t.derive(9, -1.0);
        assert_eq!(d.root, RootId(7));
        assert_eq!(d.arrival, SimTime(123));
        assert_eq!(d.key, 9);
        assert_eq!(d.value, -1.0);
    }
}
