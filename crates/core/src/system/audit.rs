//! The conservation audit: scans component state for violations of the
//! laws listed in [`crate::audit`].

use ndpb_dram::Bus;
use ndpb_proto::Message;

use super::System;
use crate::audit::Violation;
use crate::fasthash::FastMap;

/// Audit switch plus the violations flagged inline at update sites.
/// Everything else the audit checks it re-derives from component state
/// at scan time.
#[derive(Debug)]
pub(super) struct AuditState {
    /// Whether inline checks run (`cfg.audit != Off`).
    pub(super) enabled: bool,
    /// Violations caught at update sites (e.g. a `toArrive` counter
    /// that would have gone negative), reported at the next scan.
    flagged: Vec<Violation>,
}

impl AuditState {
    pub(super) fn new(enabled: bool) -> Self {
        AuditState {
            enabled,
            flagged: Vec::new(),
        }
    }

    pub(super) fn flag(&mut self, law: &'static str, detail: String) {
        if self.flagged.len() < 16 {
            self.flagged.push(Violation { law, detail });
        }
    }
}

/// Every in-flight message, found by scanning mailboxes, buffers and
/// the message slab behind queued delivery events.
struct InFlight {
    msgs: u64,
    data_blocks: FastMap<u64, u32>,
    task_toward: FastMap<u32, u64>,
}

impl System {
    /// Collects every in-flight message: unit mailboxes and pending-out
    /// queues, bridge and host buffers, and the messages parked in
    /// [`System::msgs`] behind queued `Deliver`/`LinkDeliver` events.
    fn scan_in_flight(&self) -> InFlight {
        let mut f = InFlight {
            msgs: 0,
            data_blocks: FastMap::default(),
            task_toward: FastMap::default(),
        };
        fn note(f: &mut InFlight, msg: &Message) {
            f.msgs += 1;
            match msg {
                Message::Task(t, Some(dest)) => {
                    *f.task_toward.entry(dest.0).or_insert(0) += t.workload_or_default();
                }
                Message::Data(dm, _) => {
                    *f.data_blocks.entry(dm.block.0).or_insert(0) += 1;
                }
                _ => {}
            }
        }
        for m in self.msgs.iter() {
            note(&mut f, m);
        }
        for u in &self.units {
            for m in u.mailbox.iter() {
                note(&mut f, m);
            }
            for m in &u.pending_out {
                note(&mut f, m);
            }
        }
        for b in &self.bridges {
            for m in b.buffered_messages() {
                note(&mut f, m);
            }
            for m in b.up_mailbox.iter() {
                note(&mut f, m);
            }
        }
        for m in self.host.buffered_messages() {
            note(&mut f, m);
        }
        f
    }

    /// Scans the whole system for conservation-law violations (see
    /// [`crate::audit`] for the laws). Purely observational: no
    /// simulator state changes, so audited results are bit-identical to
    /// unaudited ones. Called between event handlers only, where all
    /// component state is consistent.
    pub(super) fn collect_violations(&self) -> Vec<Violation> {
        let mut v: Vec<Violation> = self.audit.flagged.clone();
        let f = self.scan_in_flight();
        let g = &self.cfg.geometry;

        // Message conservation: every message ever emitted was either
        // delivered or sits in exactly one queue, buffer, or event.
        let emitted: u64 = self.units.iter().map(|u| u.stats.msgs_emitted.get()).sum();
        let delivered = self.metrics.get(self.m.msgs_delivered);
        if emitted != delivered + f.msgs {
            v.push(Violation {
                law: "message-conservation",
                detail: format!(
                    "emitted {emitted} != delivered {delivered} + in-flight {}",
                    f.msgs
                ),
            });
        }

        // toArrive balance: each correction counter equals the workload
        // of scheduled tasks still in flight toward that child, and the
        // host-level counter covers its whole rank.
        let upr = g.units_per_rank() as usize;
        for (r, b) in self.bridges.iter().enumerate() {
            let mut rank_expect = 0u64;
            for (i, &ta) in b.to_arrive.iter().enumerate() {
                let expect = f
                    .task_toward
                    .get(&((r * upr + i) as u32))
                    .copied()
                    .unwrap_or(0);
                rank_expect += expect;
                if ta != expect {
                    v.push(Violation {
                        law: "to-arrive",
                        detail: format!(
                            "bridge {r} child {i}: toArrive {ta} != in-flight scheduled \
                             workload {expect}"
                        ),
                    });
                }
            }
            if self.host.to_arrive[r] != rank_expect {
                v.push(Violation {
                    law: "to-arrive",
                    detail: format!(
                        "host toArrive[{r}] = {} != in-flight scheduled workload {rank_expect}",
                        self.host.to_arrive[r]
                    ),
                });
            }
        }

        // dataBorrowed inclusivity, bottom-up: unit borrow ⊆ bridge
        // entry ⊆ host entry (for cross-rank blocks), all covered by
        // the home's isLent bit.
        for u in &self.units {
            let r = g.rank_of(u.id).index();
            for blk in u.borrowed_blocks() {
                let home = self.map.block_home(blk);
                if !self.units[home.index()].is_lent.is_lent(blk) {
                    v.push(Violation {
                        law: "data-borrowed-inclusivity",
                        detail: format!(
                            "block {} borrowed at u{} but not lent at home",
                            blk.0, u.id
                        ),
                    });
                }
                if self.bridges[r].data_borrowed.peek(&blk) != Some(&u.id) {
                    v.push(Violation {
                        law: "data-borrowed-inclusivity",
                        detail: format!(
                            "block {} borrowed at u{} without matching bridge {r} entry",
                            blk.0, u.id
                        ),
                    });
                }
                if g.rank_of(home).index() != r
                    && self.host.data_borrowed.peek(&blk) != Some(&g.rank_of(u.id))
                {
                    v.push(Violation {
                        law: "data-borrowed-inclusivity",
                        detail: format!(
                            "cross-rank block {} borrowed at u{} without host entry",
                            blk.0, u.id
                        ),
                    });
                }
            }
        }
        for (r, br) in self.bridges.iter().enumerate() {
            for (&blk, &holder) in br.data_borrowed.iter() {
                let home = self.map.block_home(blk);
                if g.rank_of(holder).index() != r {
                    v.push(Violation {
                        law: "data-borrowed-inclusivity",
                        detail: format!(
                            "bridge {r} entry for block {} names foreign u{holder}",
                            blk.0
                        ),
                    });
                }
                if !self.units[home.index()].is_lent.is_lent(blk) {
                    v.push(Violation {
                        law: "data-borrowed-inclusivity",
                        detail: format!("bridge {r} entry for block {} but home not lent", blk.0),
                    });
                }
                if !self.units[holder.index()].is_borrowed(blk)
                    && !f.data_blocks.contains_key(&blk.0)
                {
                    v.push(Violation {
                        law: "data-borrowed-inclusivity",
                        detail: format!(
                            "bridge {r} entry for block {} orphaned: u{holder} does not hold \
                             it and no data message is in flight",
                            blk.0
                        ),
                    });
                }
            }
        }
        for (&blk, &rank) in self.host.data_borrowed.iter() {
            let home = self.map.block_home(blk);
            if !self.units[home.index()].is_lent.is_lent(blk) {
                v.push(Violation {
                    law: "data-borrowed-inclusivity",
                    detail: format!("host entry for block {} but home not lent", blk.0),
                });
            }
            if self.bridges[rank.index()]
                .data_borrowed
                .peek(&blk)
                .is_none()
                && !f.data_blocks.contains_key(&blk.0)
            {
                v.push(Violation {
                    law: "data-borrowed-inclusivity",
                    detail: format!(
                        "host entry for block {} orphaned: rank {rank} has no bridge entry \
                         and no data message is in flight",
                        blk.0
                    ),
                });
            }
        }
        // No lent block may be unreachable: it is either borrowed
        // somewhere, tracked by a table, or its data is in flight.
        for u in &self.units {
            for blk in u.is_lent.iter() {
                let tracked = f.data_blocks.contains_key(&blk.0)
                    || self.host.data_borrowed.peek(&blk).is_some()
                    || self
                        .bridges
                        .iter()
                        .any(|b| b.data_borrowed.peek(&blk).is_some())
                    || self.units.iter().any(|w| w.is_borrowed(blk));
                if !tracked {
                    v.push(Violation {
                        law: "data-borrowed-inclusivity",
                        detail: format!(
                            "block {} lent by u{} is unreachable (no borrow, no table \
                             entry, nothing in flight)",
                            blk.0, u.id
                        ),
                    });
                }
            }
        }

        // Ledger totals: per-cause rows sum exactly to the system byte
        // totals they decompose.
        let comm_total = self.metrics.get(self.m.comm_dram_bytes);
        let comm_ledger: u64 = self
            .m
            .ledger_comm
            .iter()
            .map(|&id| self.metrics.get(id))
            .sum();
        if comm_total != comm_ledger {
            v.push(Violation {
                law: "ledger-totals",
                detail: format!("comm ledger rows sum to {comm_ledger}, total is {comm_total}"),
            });
        }
        let sram_total = self.metrics.get(self.m.sram_staged_bytes);
        let sram_ledger: u64 = self
            .m
            .ledger_sram
            .iter()
            .map(|&id| self.metrics.get(id))
            .sum();
        if sram_total != sram_ledger {
            v.push(Violation {
                law: "ledger-totals",
                detail: format!("sram ledger rows sum to {sram_ledger}, total is {sram_total}"),
            });
        }

        // Bus sanity: accumulated busy time never exceeds the horizon a
        // bus has been driven to.
        let mut check_bus = |name: &str, i: usize, b: &Bus| {
            if b.busy.total() > b.free_at() {
                v.push(Violation {
                    law: "bus-sanity",
                    detail: format!(
                        "{name} {i}: busy {:?} exceeds horizon {:?}",
                        b.busy.total(),
                        b.free_at()
                    ),
                });
            }
        };
        for (i, b) in self.rank_bus.iter().enumerate() {
            check_bus("rank bus", i, b);
        }
        for (i, b) in self.channel.iter().enumerate() {
            check_bus("channel", i, b);
        }
        for (i, b) in self.link_bus.iter().enumerate() {
            check_bus("link", i, b);
        }
        v
    }

    /// Runs one audit scan and panics with the full violation list if
    /// any law fails.
    pub(super) fn run_audit(&self, label: &str) {
        let violations = self.collect_violations();
        if violations.is_empty() {
            return;
        }
        let mut msg = format!(
            "conservation audit failed at {label} ({} on {}, {} violation(s)):",
            self.design,
            self.app.name(),
            violations.len()
        );
        for w in violations.iter().take(20) {
            msg.push_str("\n  ");
            msg.push_str(&w.to_string());
        }
        panic!("{msg}");
    }
}

#[cfg(test)]
mod tests {
    use ndpb_dram::UnitId;
    use ndpb_proto::message::DataMessage;
    use ndpb_proto::Message;
    use ndpb_sim::SimTime;

    use crate::design::DesignPoint;
    use crate::system::tests::{sys, task_on};
    use crate::system::Ev;

    #[test]
    fn a_message_dropped_from_the_slab_trips_message_conservation() {
        let mut s = sys(DesignPoint::B);
        s.audit.enabled = true;
        let msg = Message::Task(task_on(&s, 9, 0), None);
        // Emitted at u5 and parked in the slab behind a `Deliver`
        // event: the scan finds it in flight.
        s.units[5].stats.msgs_emitted.inc();
        s.schedule_delivery(SimTime::ZERO, Ev::Deliver, 9, msg.clone());
        assert!(s.collect_violations().is_empty());
        // Taken out of the slab without being delivered: lost.
        let Some((_, Ev::Deliver(9, h))) = s.q.pop() else {
            panic!("expected the queued delivery");
        };
        s.msgs.take(h);
        let v = s.collect_violations();
        assert!(
            v.iter().any(|x| x.law == "message-conservation"),
            "lost message not detected: {v:?}"
        );
        // Delivered instead, the books balance again.
        let h = s.msgs.insert(msg);
        s.dispatch(Ev::Deliver(9, h));
        assert!(s.collect_violations().is_empty());
    }

    #[test]
    fn a_data_message_in_the_slab_keeps_its_bridge_entry_from_orphaning() {
        let mut s = sys(DesignPoint::O);
        s.audit.enabled = true;
        let a = s.map.block_of(task_on(&s, 5, 0).data);
        let dmsg = Message::Data(
            DataMessage {
                block: a,
                bytes: s.cfg.g_xfer,
                workload: 1,
            },
            UnitId(9),
        );
        // u5 lends block A to u9: lent bit and bridge entry set, but u9
        // does not hold A and no data message exists.
        s.units[5].is_lent.set(a);
        s.note_block_in_rank(0, &dmsg);
        let v = s.collect_violations();
        assert!(v.iter().any(|x| x.detail.contains("orphaned")), "{v:?}");
        // With A's data parked in the slab on its way to u9, the entry
        // is accounted for.
        s.units[5].stats.msgs_emitted.inc();
        s.schedule_delivery(SimTime::ZERO, Ev::Deliver, 9, dmsg);
        let v = s.collect_violations();
        assert!(v.is_empty(), "{v:?}");
    }
}
