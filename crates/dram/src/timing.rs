//! DDR timing parameters, expressed in simulator ticks.
//!
//! The paper uses DDR4-2400-style DIMMs with 17 ns CAS/RCD/RP (Table I).
//! One tick = one half bus cycle at 2400 MT/s, so a 64-bit channel (or the
//! 8 chips of a rank acting in parallel) moves 8 bytes per tick and a
//! single x8 chip moves 1 byte per tick.

use ndpb_sim::SimTime;

/// DRAM bank timing parameters.
///
/// # Example
///
/// ```
/// use ndpb_dram::DramTiming;
/// let t = DramTiming::ddr4_2400();
/// assert_eq!(t.t_cas.ticks(), 41); // 17 ns, rounded up
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DramTiming {
    /// Column access (CAS) latency.
    pub t_cas: SimTime,
    /// RAS-to-CAS delay (row activation).
    pub t_rcd: SimTime,
    /// Row precharge time.
    pub t_rp: SimTime,
    /// Write-to-read turnaround penalty applied when a bank switches
    /// direction (the access arbiter "optimizes issues like ... write-read
    /// turn-around delays" per Section V-A; we charge it on switches).
    pub t_wtr: SimTime,
    /// Bytes per row per bank (column granularity for row-hit decisions).
    pub row_bytes: u32,
    /// Data bits a single bank's chip interface moves per tick. With x8
    /// chips each bank can source 8 bits/tick.
    pub bank_io_bits: u32,
}

impl DramTiming {
    /// DDR4-2400 with the paper's 17-17-17 ns core timings, 1 KB rows per
    /// chip and x8 IO.
    pub fn ddr4_2400() -> Self {
        DramTiming {
            t_cas: SimTime::from_ns_ceil(17),
            t_rcd: SimTime::from_ns_ceil(17),
            t_rp: SimTime::from_ns_ceil(17),
            t_wtr: SimTime::from_ns_ceil(8),
            row_bytes: 1024,
            bank_io_bits: 8,
        }
    }

    /// Data transfer time for `bytes` through one bank's IO pins.
    pub(crate) fn burst_time(&self, bytes: u32) -> SimTime {
        // Runs once per bank access: shift instead of hardware divide
        // when the IO width is a power of two (it always is in
        // practice), with identical results either way.
        let bits = bytes as u64 * 8;
        let io = self.bank_io_bits as u64;
        let ticks = if io.is_power_of_two() {
            (bits + io - 1) >> io.trailing_zeros()
        } else {
            bits.div_ceil(io)
        };
        SimTime::from_ticks(ticks.max(1))
    }

    /// Latency of an access that hits the open row: CAS + burst.
    pub fn row_hit(&self, bytes: u32) -> SimTime {
        self.t_cas + self.burst_time(bytes)
    }

    /// Latency of an access to a closed bank: RCD + CAS + burst.
    pub fn row_closed(&self, bytes: u32) -> SimTime {
        self.t_rcd + self.row_hit(bytes)
    }

    /// Latency of an access that conflicts with another open row:
    /// RP + RCD + CAS + burst.
    pub fn row_conflict(&self, bytes: u32) -> SimTime {
        self.t_rp + self.row_closed(bytes)
    }

    /// Approximate row-to-row copy time used by the RowClone baseline:
    /// two back-to-back row cycles (ACT+PRE twice), independent of the
    /// external bus.
    pub fn rowclone_row_copy(&self) -> SimTime {
        let trc = self.t_rcd + self.t_cas + self.t_rp;
        trc + trc
    }
}

impl Default for DramTiming {
    fn default() -> Self {
        Self::ddr4_2400()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_ddr4_2400() {
        assert_eq!(DramTiming::default(), DramTiming::ddr4_2400());
    }

    #[test]
    fn burst_time_scales_with_bytes() {
        let t = DramTiming::ddr4_2400();
        // 64 bytes over 8 bits/tick = 64 ticks.
        assert_eq!(t.burst_time(64).ticks(), 64);
        assert_eq!(t.burst_time(1).ticks(), 1);
        assert_eq!(t.burst_time(256).ticks(), 256);
    }

    #[test]
    fn latency_ordering() {
        let t = DramTiming::ddr4_2400();
        assert!(t.row_hit(64) < t.row_closed(64));
        assert!(t.row_closed(64) < t.row_conflict(64));
    }

    #[test]
    fn conflict_adds_precharge() {
        let t = DramTiming::ddr4_2400();
        assert_eq!(t.row_conflict(64), t.row_closed(64) + t.t_rp);
    }

    #[test]
    fn rowclone_copy_is_two_row_cycles() {
        let t = DramTiming::ddr4_2400();
        assert_eq!(t.rowclone_row_copy(), {
            let trc = t.t_rcd + t.t_cas + t.t_rp;
            trc + trc
        });
        // ~100ns-scale: far cheaper than moving a row over a chip's pins.
        assert!(t.rowclone_row_copy() < t.burst_time(1024));
    }
}
