//! Statistics primitives: counters, busy-time accumulators and finish-time
//! summaries.
//!
//! The paper's evaluation reports, per design point: total execution time
//! (slowest unit), average unit time, wait (non-execution) time, message
//! and traffic counts, and an energy breakdown. These small accumulators
//! are the building blocks for all of that.

use std::fmt;

use crate::time::SimTime;

/// A monotonically increasing event/byte counter.
///
/// # Example
///
/// ```
/// use ndpb_sim::stats::Counter;
/// let mut c = Counter::default();
/// c.add(3);
/// c.inc();
/// assert_eq!(c.get(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Adds one.
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Current value.
    pub fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Accumulates disjoint busy intervals, e.g. the total time an NDP core
/// spent executing tasks or a bus spent transferring data.
///
/// Intervals are added as `(start, end)` pairs; the accumulator does not
/// check for overlap (components that own a resource serialize their own
/// intervals by construction).
#[derive(Debug, Clone, Copy, Default)]
pub struct BusyTime {
    total: SimTime,
}

impl BusyTime {
    /// Records a busy interval `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `end < start`.
    pub fn record(&mut self, start: SimTime, end: SimTime) {
        debug_assert!(end >= start);
        self.total += end - start;
    }

    /// Total accumulated busy time.
    pub fn total(&self) -> SimTime {
        self.total
    }

    /// Utilization over a window `[0, horizon)`, in `[0, 1]`.
    /// Returns 0 for a zero horizon.
    pub fn utilization(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            0.0
        } else {
            self.total.ticks() as f64 / horizon.ticks() as f64
        }
    }
}

/// Helper summarizing a set of per-unit finish times into the paper's
/// "maximum" and "average" bars (Figures 2 and 10).
#[derive(Debug, Clone, Default)]
pub struct FinishTimes {
    times: Vec<SimTime>,
}

impl FinishTimes {
    /// Records one unit's finish (or total-busy) time.
    pub fn push(&mut self, t: SimTime) {
        self.times.push(t);
    }

    /// The slowest unit — the paper's "overall time".
    pub fn max(&self) -> SimTime {
        self.times.iter().copied().fold(SimTime::ZERO, SimTime::max)
    }

    /// Arithmetic mean across units.
    pub fn mean(&self) -> SimTime {
        if self.times.is_empty() {
            return SimTime::ZERO;
        }
        let sum: u128 = self.times.iter().map(|t| t.ticks() as u128).sum();
        SimTime::from_ticks((sum / self.times.len() as u128) as u64)
    }

    /// Mean/max ratio — the paper's load-balance quality metric
    /// (e.g. 22.4% for B, 59.0% for O).
    pub fn balance(&self) -> f64 {
        let max = self.max();
        if max == SimTime::ZERO {
            1.0
        } else {
            self.mean().ticks() as f64 / max.ticks() as f64
        }
    }

    /// Number of recorded units.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether no times have been recorded.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::default();
        c.add(10);
        c.inc();
        assert_eq!(c.get(), 11);
        assert_eq!(c.to_string(), "11");
    }

    #[test]
    fn busy_time_totals() {
        let mut b = BusyTime::default();
        b.record(SimTime::from_ticks(10), SimTime::from_ticks(30));
        b.record(SimTime::from_ticks(40), SimTime::from_ticks(45));
        assert_eq!(b.total(), SimTime::from_ticks(25));
        assert!((b.utilization(SimTime::from_ticks(100)) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn busy_time_zero_horizon() {
        let b = BusyTime::default();
        assert_eq!(b.utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    fn finish_times_summary() {
        let mut f = FinishTimes::default();
        f.push(SimTime::from_ticks(100));
        f.push(SimTime::from_ticks(50));
        f.push(SimTime::from_ticks(150));
        assert_eq!(f.max(), SimTime::from_ticks(150));
        assert_eq!(f.mean(), SimTime::from_ticks(100));
        assert!((f.balance() - 100.0 / 150.0).abs() < 1e-9);
        assert_eq!(f.len(), 3);
    }

    #[test]
    fn finish_times_empty() {
        let f = FinishTimes::default();
        assert!(f.is_empty());
        assert_eq!(f.mean(), SimTime::ZERO);
        assert_eq!(f.balance(), 1.0);
    }
}
