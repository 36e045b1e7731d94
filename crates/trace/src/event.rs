//! Typed trace events and the components that emit them.

use ndpb_sim::SimTime;

/// Identifies the simulated component a [`TraceRecord`] originated from.
///
/// The variants mirror the physical hierarchy of the modelled machine:
/// per-bank NDP units, the level-1 rank bridges (and the rank-internal
/// data buses they drive), the memory channels, the level-2 host bridge,
/// and the optional DIMM-Link peer-to-peer links.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComponentId {
    /// A per-bank NDP unit (flat unit index across the whole machine).
    Unit(u32),
    /// The level-1 bridge of a rank.
    Bridge(u32),
    /// The level-2 bridge at the host memory controller.
    Host,
    /// The shared data bus inside a rank.
    RankBus(u32),
    /// A host memory channel.
    Channel(u32),
    /// A DIMM-Link peer-to-peer link (extension; rank-pair index).
    Link(u32),
}

impl ComponentId {
    /// Chrome `pid` for this component kind — one "process" row per
    /// hardware layer keeps Perfetto timelines grouped sensibly.
    pub fn pid(self) -> u32 {
        match self {
            ComponentId::Unit(_) => 1,
            ComponentId::Bridge(_) => 2,
            ComponentId::Host => 3,
            ComponentId::RankBus(_) => 4,
            ComponentId::Channel(_) => 5,
            ComponentId::Link(_) => 6,
        }
    }

    /// Chrome `tid` within the [`pid`](Self::pid) row: the component
    /// instance index.
    pub(crate) fn tid(self) -> u32 {
        match self {
            ComponentId::Unit(i)
            | ComponentId::Bridge(i)
            | ComponentId::RankBus(i)
            | ComponentId::Channel(i)
            | ComponentId::Link(i) => i,
            ComponentId::Host => 0,
        }
    }

    /// Human-readable name of the component *kind* (used as the Chrome
    /// process name).
    pub(crate) fn kind_name(self) -> &'static str {
        match self {
            ComponentId::Unit(_) => "ndp-units",
            ComponentId::Bridge(_) => "rank-bridges",
            ComponentId::Host => "host-bridge",
            ComponentId::RankBus(_) => "rank-buses",
            ComponentId::Channel(_) => "channels",
            ComponentId::Link(_) => "dimm-links",
        }
    }
}

/// What happened. Payload fields carry the quantities a timeline viewer
/// wants to see without cross-referencing other events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A bank row activation (row conflict or cold row); `write` is the
    /// access direction that forced it.
    BankActivate {
        /// Row address that was opened.
        row: u64,
        /// Whether the triggering access was a write.
        write: bool,
    },
    /// An explicit precharge (e.g. around a RowClone copy).
    BankPrecharge,
    /// A reservation on a shared bus (rank bus, channel or link).
    BusTransfer {
        /// Bytes moved by this reservation.
        bytes: u64,
    },
    /// A bridge GATHER burst draining one bank mailbox upward.
    Gather {
        /// Bytes pulled out of the mailbox.
        bytes: u64,
        /// Messages pulled out of the mailbox.
        msgs: u32,
        /// True if the slot was reserved but the mailbox was empty.
        wasted: bool,
    },
    /// A bridge SCATTER burst delivering messages down into a bank.
    Scatter {
        /// Bytes written toward the bank.
        bytes: u64,
        /// Messages delivered.
        msgs: u32,
    },
    /// A STATE-GATHER round harvesting per-bank load state.
    StateGather {
        /// Bytes of state records moved over the bus.
        bytes: u64,
    },
    /// A SCHEDULE decision by the load balancer.
    Schedule {
        /// Workload (weighted cycles) the giver was asked to shed.
        budget: u64,
        /// Number of receiver units in this round.
        receivers: u32,
    },
    /// A message accepted into a bank mailbox.
    MailboxEnqueue {
        /// Wire size of the message.
        bytes: u32,
        /// Ring-buffer occupancy after the enqueue.
        used: u64,
    },
    /// A mailbox rejected an enqueue. Emitted once per contiguous
    /// full episode (latched until space frees), not once per retry.
    MailboxFull {
        /// Wire size of the rejected message.
        needed: u32,
        /// Ring-buffer occupancy at the time of rejection.
        used: u64,
    },
    /// A task executed on an NDP core (duration = execute span).
    TaskExec {
        /// Application function id of the task.
        func: u16,
        /// Abstract workload units the task charged.
        workload: u64,
    },
    /// A data block (plus its tasks) migrated between units.
    Migrate {
        /// Block address being moved.
        block: u64,
        /// Source unit.
        from: u32,
        /// Destination unit.
        to: u32,
        /// Tasks that travelled with the block.
        tasks: u32,
    },
    /// The bulk-synchronous epoch barrier opened for a new epoch.
    EpochAdvance {
        /// The epoch that just became current.
        epoch: u32,
    },
}

impl TraceEvent {
    /// Short stable name used as the Chrome event name.
    pub fn name(self) -> &'static str {
        match self {
            TraceEvent::BankActivate { .. } => "bank-activate",
            TraceEvent::BankPrecharge => "bank-precharge",
            TraceEvent::BusTransfer { .. } => "bus-transfer",
            TraceEvent::Gather { .. } => "gather",
            TraceEvent::Scatter { .. } => "scatter",
            TraceEvent::StateGather { .. } => "state-gather",
            TraceEvent::Schedule { .. } => "schedule",
            TraceEvent::MailboxEnqueue { .. } => "mailbox-enqueue",
            TraceEvent::MailboxFull { .. } => "mailbox-full",
            TraceEvent::TaskExec { .. } => "task",
            TraceEvent::Migrate { .. } => "migrate",
            TraceEvent::EpochAdvance { .. } => "epoch",
        }
    }
}

/// One recorded occurrence: an event, where it happened, when, and for
/// how long (`dur` is [`SimTime::ZERO`] for instantaneous events).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Start time of the event.
    pub at: SimTime,
    /// Duration (zero for instants).
    pub dur: SimTime,
    /// Emitting component.
    pub comp: ComponentId,
    /// The event payload.
    pub event: TraceEvent,
}

impl TraceRecord {
    /// An instantaneous record (zero duration).
    pub fn instant(at: SimTime, comp: ComponentId, event: TraceEvent) -> Self {
        TraceRecord {
            at,
            dur: SimTime::ZERO,
            comp,
            event,
        }
    }

    /// A record spanning `[at, at + dur)`.
    pub fn span(at: SimTime, dur: SimTime, comp: ComponentId, event: TraceEvent) -> Self {
        TraceRecord {
            at,
            dur,
            comp,
            event,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pid_tid_partition_components() {
        let comps = [
            ComponentId::Unit(3),
            ComponentId::Bridge(3),
            ComponentId::Host,
            ComponentId::RankBus(3),
            ComponentId::Channel(3),
            ComponentId::Link(3),
        ];
        for (i, a) in comps.iter().enumerate() {
            for b in &comps[i + 1..] {
                assert_ne!(a.pid(), b.pid(), "{a:?} vs {b:?}");
            }
        }
        assert_eq!(ComponentId::Unit(7).tid(), 7);
        assert_eq!(ComponentId::Host.tid(), 0);
    }

    #[test]
    fn instant_has_zero_duration() {
        let r = TraceRecord::instant(
            SimTime::from_ticks(5),
            ComponentId::Host,
            TraceEvent::BankPrecharge,
        );
        assert_eq!(r.dur, SimTime::ZERO);
        assert_eq!(r.event.name(), "bank-precharge");
    }
}
