//! Reservation-based bus/link models.
//!
//! Two kinds of links matter in NDPBridge (Table I):
//!
//! * the **intra-rank bus** between the banks of a rank and its level-1
//!   bridge — 2400 MT/s × 64 bits aggregated across the rank's chips
//!   (each chip contributes its DQ pins; one bridge command moves data
//!   for the same bank position of every chip in parallel);
//! * the **channel** between level-1 bridges and the level-2 bridge /
//!   host — 2400 MT/s × 64 bits, shared by all ranks of the channel and
//!   by host memory traffic in the baselines.
//!
//! A [`Bus`] hands out the earliest available time window for a transfer
//! of N bytes; callers chain the returned completion times into their own
//! event schedules.

use ndpb_sim::stats::{BusyTime, Counter};
use ndpb_sim::SimTime;
use ndpb_trace::{ComponentId, TraceEvent, TraceRecord, TraceSink};

/// A shared, serializing link with a fixed data rate.
///
/// # Example
///
/// ```
/// use ndpb_dram::Bus;
/// use ndpb_sim::SimTime;
/// let mut ch = Bus::new(64); // 64 bits/tick = 8 B/tick
/// let a = ch.reserve(SimTime::ZERO, 256);
/// let b = ch.reserve(SimTime::ZERO, 256);
/// assert_eq!(a.end.ticks(), 32);
/// assert_eq!(b.start, a.end); // second transfer waits
/// ```
#[derive(Debug, Clone)]
pub struct Bus {
    bits_per_tick: u32,
    free_at: SimTime,
    /// Total busy time (for utilization reporting).
    pub busy: BusyTime,
    /// Total bytes transferred.
    pub bytes: Counter,
}

/// The time window granted for one transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusGrant {
    /// When the transfer begins occupying the link.
    pub start: SimTime,
    /// When the last beat completes.
    pub end: SimTime,
}

impl Bus {
    /// Creates a bus moving `bits_per_tick` data bits per tick.
    ///
    /// # Panics
    ///
    /// Panics if `bits_per_tick` is zero.
    pub fn new(bits_per_tick: u32) -> Self {
        assert!(bits_per_tick > 0, "bus must have positive bandwidth");
        Bus {
            bits_per_tick,
            free_at: SimTime::ZERO,
            busy: BusyTime::default(),
            bytes: Counter::default(),
        }
    }

    /// The configured data rate in bits per tick.
    pub fn bits_per_tick(&self) -> u32 {
        self.bits_per_tick
    }

    /// Time needed to move `bytes` once the link is free.
    pub fn transfer_time(&self, bytes: u64) -> SimTime {
        // Shift instead of hardware divide for power-of-two link widths
        // (all evaluated configurations); results are identical.
        let bits = bytes * 8;
        let w = self.bits_per_tick as u64;
        let ticks = if w.is_power_of_two() {
            (bits + w - 1) >> w.trailing_zeros()
        } else {
            bits.div_ceil(w)
        };
        SimTime::from_ticks(ticks.max(1))
    }

    /// Reserves the earliest window of `bytes` starting no sooner than
    /// `now`; the link is busy until the returned `end`.
    pub fn reserve(&mut self, now: SimTime, bytes: u64) -> BusGrant {
        let start = now.max(self.free_at);
        let end = start + self.transfer_time(bytes);
        self.free_at = end;
        self.busy.record(start, end);
        self.bytes.add(bytes);
        BusGrant { start, end }
    }

    /// [`reserve`](Self::reserve) with a trace hook: when `trace` is
    /// `Some`, emits a [`TraceEvent::BusTransfer`] span over the granted
    /// window. With tracing off the extra cost is one `Option` branch.
    pub fn reserve_traced(
        &mut self,
        now: SimTime,
        bytes: u64,
        comp: ComponentId,
        trace: Option<&mut dyn TraceSink>,
    ) -> BusGrant {
        let g = self.reserve(now, bytes);
        if let Some(t) = trace {
            t.record(TraceRecord::span(
                g.start,
                g.end - g.start,
                comp,
                TraceEvent::BusTransfer { bytes },
            ));
        }
        g
    }

    /// When the link next becomes idle.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_rounds_up() {
        let bus = Bus::new(64);
        assert_eq!(bus.transfer_time(8).ticks(), 1);
        assert_eq!(bus.transfer_time(9).ticks(), 2);
        assert_eq!(bus.transfer_time(0).ticks(), 1); // min one slot
    }

    #[test]
    fn reservations_serialize() {
        let mut bus = Bus::new(8); // 1 B/tick
        let a = bus.reserve(SimTime::ZERO, 10);
        let b = bus.reserve(SimTime::from_ticks(5), 10);
        assert_eq!(a.end.ticks(), 10);
        assert_eq!(b.start, a.end);
        assert_eq!(b.end.ticks(), 20);
        assert_eq!(bus.bytes.get(), 20);
    }

    #[test]
    fn idle_gap_honoured() {
        let mut bus = Bus::new(8);
        bus.reserve(SimTime::ZERO, 4);
        let late = bus.reserve(SimTime::from_ticks(100), 4);
        assert_eq!(late.start.ticks(), 100);
    }

    #[test]
    fn narrow_bus_is_slower() {
        let wide = Bus::new(64).transfer_time(256);
        let narrow = Bus::new(48).transfer_time(256); // chameleon-s
        assert!(narrow > wide);
    }

    #[test]
    #[should_panic(expected = "positive bandwidth")]
    fn zero_bandwidth_panics() {
        Bus::new(0);
    }

    #[test]
    fn traced_reserve_records_window() {
        use ndpb_trace::RingRecorder;
        let mut bus = Bus::new(8);
        let mut rec = RingRecorder::new(4);
        let g = bus.reserve_traced(SimTime::ZERO, 10, ComponentId::RankBus(2), Some(&mut rec));
        bus.reserve_traced(g.end, 10, ComponentId::RankBus(2), None);
        let out = rec.take_records();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].at, g.start);
        assert_eq!(out[0].dur, g.end - g.start);
        assert!(matches!(
            out[0].event,
            TraceEvent::BusTransfer { bytes: 10 }
        ));
    }

    #[test]
    fn busy_time_tracks_utilization() {
        let mut bus = Bus::new(8);
        bus.reserve(SimTime::ZERO, 50);
        assert!((bus.busy.utilization(SimTime::from_ticks(100)) - 0.5).abs() < 1e-12);
    }
}
