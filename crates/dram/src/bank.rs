//! Per-bank DRAM state machine and access arbitration.
//!
//! In NDPBridge every DRAM access — from the local NDP core, from the
//! level-1 bridge's forged GATHER/SCATTER commands, and (in the baselines)
//! from the host — is coordinated *at the bank* by the access arbiter
//! (Section V-A, following [15]). We model that by serializing all access
//! requests through this per-bank structure: a request issued at `now`
//! starts at `max(now, busy_until)` and the bank tracks its open row to
//! price hits, closed-bank activations and row conflicts.

use ndpb_sim::stats::{BusyTime, Counter};
use ndpb_sim::SimTime;
use ndpb_trace::{ComponentId, TraceEvent, TraceRecord, TraceSink};

use crate::timing::DramTiming;

/// The timing outcome of one bank access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankAccess {
    /// When the bank actually started serving the request.
    pub start: SimTime,
    /// When the data burst completed (request latency = `end - issue`).
    pub end: SimTime,
    /// Whether a row activation was needed (energy-relevant).
    pub activated: bool,
}

/// One DRAM bank: open-row state, serialization point, and access stats.
///
/// # Example
///
/// ```
/// use ndpb_dram::{BankModel, DramTiming};
/// use ndpb_sim::SimTime;
/// let t = DramTiming::ddr4_2400();
/// let mut bank = BankModel::new();
/// let a = bank.access(SimTime::ZERO, 7, 64, false, &t);
/// let b = bank.access(SimTime::ZERO, 7, 64, false, &t);
/// assert!(b.start >= a.end); // serialized
/// assert!(!b.activated);     // row hit
/// ```
#[derive(Debug, Clone, Default)]
pub struct BankModel {
    open_row: Option<u64>,
    busy_until: SimTime,
    last_was_write: bool,
    /// Row activations performed.
    pub activations: Counter,
    /// Bytes read from the array.
    pub bytes_read: Counter,
    /// Bytes written to the array.
    pub bytes_written: Counter,
    /// Total time the bank spent servicing requests.
    pub busy: BusyTime,
}

impl BankModel {
    /// A bank with all rows closed.
    pub fn new() -> Self {
        Self::default()
    }

    /// When the bank becomes free.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// The currently open row, if any.
    pub fn open_row(&self) -> Option<u64> {
        self.open_row
    }

    /// Issues an access of `bytes` bytes to `row` at time `now`; returns
    /// its service window. The access is appended after any in-flight
    /// access (this *is* the access arbiter: core, bridge and host
    /// requests all call here and are served in arrival order).
    pub fn access(
        &mut self,
        now: SimTime,
        row: u64,
        bytes: u32,
        write: bool,
        timing: &DramTiming,
    ) -> BankAccess {
        let mut start = now.max(self.busy_until);
        // Write-to-read turnaround penalty on direction switch.
        if self.last_was_write && !write {
            start += timing.t_wtr;
        }
        let (latency, activated) = match self.open_row {
            Some(r) if r == row => (timing.row_hit(bytes), false),
            Some(_) => (timing.row_conflict(bytes), true),
            None => (timing.row_closed(bytes), true),
        };
        let end = start + latency;
        self.open_row = Some(row);
        self.busy_until = end;
        self.last_was_write = write;
        if activated {
            self.activations.inc();
        }
        if write {
            self.bytes_written.add(bytes as u64);
        } else {
            self.bytes_read.add(bytes as u64);
        }
        self.busy.record(start, end);
        BankAccess {
            start,
            end,
            activated,
        }
    }

    /// [`access`](Self::access) with a trace hook: when `trace` is
    /// `Some` and the access opened a row, emits a
    /// [`TraceEvent::BankActivate`] span covering the service window.
    /// Only activations are recorded (row hits are the common case and
    /// would dominate the ring buffer); with tracing off the extra cost
    /// is the single `Option` branch.
    #[allow(clippy::too_many_arguments)]
    pub fn access_traced(
        &mut self,
        now: SimTime,
        row: u64,
        bytes: u32,
        write: bool,
        timing: &DramTiming,
        comp: ComponentId,
        trace: Option<&mut dyn TraceSink>,
    ) -> BankAccess {
        let a = self.access(now, row, bytes, write, timing);
        if let Some(t) = trace {
            if a.activated {
                t.record(TraceRecord::span(
                    a.start,
                    a.end - a.start,
                    comp,
                    TraceEvent::BankActivate { row, write },
                ));
            }
        }
        a
    }

    /// Precharges the bank (closes the open row); used when RowClone
    /// transfers reset row state.
    pub fn precharge(&mut self) {
        self.open_row = None;
    }

    /// [`precharge`](Self::precharge) with a trace hook.
    pub fn precharge_traced(
        &mut self,
        now: SimTime,
        comp: ComponentId,
        trace: Option<&mut dyn TraceSink>,
    ) {
        self.precharge();
        if let Some(t) = trace {
            t.record(TraceRecord::instant(now, comp, TraceEvent::BankPrecharge));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> DramTiming {
        DramTiming::ddr4_2400()
    }

    #[test]
    fn first_access_activates() {
        let mut b = BankModel::new();
        let a = b.access(SimTime::ZERO, 3, 64, false, &t());
        assert!(a.activated);
        assert_eq!(a.start, SimTime::ZERO);
        assert_eq!(a.end, t().row_closed(64));
        assert_eq!(b.activations.get(), 1);
    }

    #[test]
    fn row_hit_is_cheaper() {
        let mut b = BankModel::new();
        let first = b.access(SimTime::ZERO, 3, 64, false, &t());
        let hit = b.access(first.end, 3, 64, false, &t());
        assert!(!hit.activated);
        assert_eq!(hit.end - hit.start, t().row_hit(64));
    }

    #[test]
    fn row_conflict_pays_precharge() {
        let mut b = BankModel::new();
        let first = b.access(SimTime::ZERO, 3, 64, false, &t());
        let conflict = b.access(first.end, 9, 64, false, &t());
        assert!(conflict.activated);
        assert_eq!(conflict.end - conflict.start, t().row_conflict(64));
        assert_eq!(b.open_row(), Some(9));
    }

    #[test]
    fn concurrent_requests_serialize() {
        let mut b = BankModel::new();
        let a = b.access(SimTime::ZERO, 1, 64, false, &t());
        let c = b.access(SimTime::ZERO, 1, 64, false, &t());
        assert_eq!(c.start, a.end);
        assert!(b.busy_until() >= c.end - SimTime::from_ticks(1));
    }

    #[test]
    fn write_read_turnaround_charged() {
        let mut b = BankModel::new();
        let w = b.access(SimTime::ZERO, 1, 64, true, &t());
        let r = b.access(w.end, 1, 64, false, &t());
        assert_eq!(r.start, w.end + t().t_wtr);
        // Read then read: no penalty.
        let r2 = b.access(r.end, 1, 64, false, &t());
        assert_eq!(r2.start, r.end);
    }

    #[test]
    fn stats_accumulate() {
        let mut b = BankModel::new();
        b.access(SimTime::ZERO, 0, 64, false, &t());
        b.access(SimTime::ZERO, 0, 32, true, &t());
        assert_eq!(b.bytes_read.get(), 64);
        assert_eq!(b.bytes_written.get(), 32);
        assert!(b.busy.total() > SimTime::ZERO);
    }

    #[test]
    fn traced_access_records_activations_only() {
        use ndpb_trace::RingRecorder;
        let mut b = BankModel::new();
        let mut rec = RingRecorder::new(16);
        let comp = ComponentId::Unit(4);
        // Cold row: activation recorded.
        let a = b.access_traced(SimTime::ZERO, 3, 64, false, &t(), comp, Some(&mut rec));
        // Row hit: nothing recorded.
        b.access_traced(a.end, 3, 64, false, &t(), comp, Some(&mut rec));
        // Tracing off: one branch, no record even on conflict.
        b.access_traced(a.end, 9, 64, false, &t(), comp, None);
        let out = rec.take_records();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].comp, comp);
        assert!(matches!(
            out[0].event,
            TraceEvent::BankActivate {
                row: 3,
                write: false
            }
        ));
        assert_eq!(out[0].at, a.start);
        assert_eq!(out[0].dur, a.end - a.start);
    }

    #[test]
    fn precharge_closes_row() {
        let mut b = BankModel::new();
        b.access(SimTime::ZERO, 5, 64, false, &t());
        b.precharge();
        assert_eq!(b.open_row(), None);
    }
}
