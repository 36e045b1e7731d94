//! Trace sinks: where hot-path hooks deposit [`TraceRecord`]s.
//!
//! Hook sites throughout the simulator take `Option<&mut dyn TraceSink>`
//! and pass `None` when tracing is off, so the disabled cost is a single
//! discriminant branch — no virtual call, no allocation.

use crate::event::TraceRecord;
use std::collections::VecDeque;

/// A destination for trace records.
///
/// Implementations must be cheap per [`record`](TraceSink::record) call:
/// the simulator can emit millions of events per run.
///
/// `Send` is a supertrait so a `System` holding a boxed sink stays
/// `Send`: the sweep engine moves whole simulations onto worker
/// threads. Sinks are still driven by exactly one simulation at a time,
/// so `Sync` is not required.
pub trait TraceSink: Send {
    /// Deposit one record.
    fn record(&mut self, rec: TraceRecord);

    /// Drain everything recorded so far, in arrival order.
    fn take_records(&mut self) -> Vec<TraceRecord>;

    /// How many records were offered but not kept (bounded sinks).
    fn dropped(&self) -> u64 {
        0
    }
}

/// A bounded ring-buffer recorder: keeps the **most recent** `capacity`
/// records, counting (not storing) older overflow. Bounded so a traced
/// full-scale run cannot exhaust memory; the end of a run is where the
/// interesting tail (stragglers, final barriers) lives.
#[derive(Debug)]
pub struct RingRecorder {
    buf: VecDeque<TraceRecord>,
    capacity: usize,
    dropped: u64,
}

impl RingRecorder {
    /// A recorder keeping at most `capacity` records (min 1).
    pub fn new(capacity: usize) -> Self {
        RingRecorder {
            buf: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// Records currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been recorded (or everything drained).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The configured bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl TraceSink for RingRecorder {
    fn record(&mut self, rec: TraceRecord) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(rec);
    }

    fn take_records(&mut self) -> Vec<TraceRecord> {
        self.buf.drain(..).collect()
    }

    fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ComponentId, TraceEvent};
    use ndpb_sim::SimTime;

    fn rec(t: u64) -> TraceRecord {
        TraceRecord::instant(
            SimTime::from_ticks(t),
            ComponentId::Unit(0),
            TraceEvent::BankPrecharge,
        )
    }

    #[test]
    fn ring_keeps_most_recent_and_counts_drops() {
        let mut r = RingRecorder::new(3);
        for t in 0..10 {
            r.record(rec(t));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 7);
        let out = r.take_records();
        let ticks: Vec<u64> = out.iter().map(|x| x.at.ticks()).collect();
        assert_eq!(ticks, vec![7, 8, 9]);
        assert!(r.is_empty());
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut r = RingRecorder::new(0);
        assert_eq!(r.capacity(), 1);
        r.record(rec(1));
        r.record(rec(2));
        assert_eq!(r.take_records().len(), 1);
    }
}
