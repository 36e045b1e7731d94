//! Level-2 host bridge: host state polls, cross-rank load balancing,
//! host forwarding rounds and DIMM-Link rounds.

use ndpb_proto::Message;
use ndpb_sim::SimTime;
use ndpb_trace::{ComponentId, TraceEvent, TraceRecord};

use super::{sink, CommCause, Ev, SramCause, System, BORROW_ROW, MAILBOX_ROW};
use crate::design::CommPath;

impl System {
    /// Host-level routing: which rank should receive this message.
    pub(super) fn route_at_host(&mut self, msg: &Message) -> usize {
        let g = &self.cfg.geometry;
        match msg {
            Message::Task(task, _) => {
                let block = self.map.block_of(task.data);
                if let Some(&rank) = self.host.data_borrowed.peek(&block) {
                    return rank.index();
                }
                g.rank_of(self.map.block_home(block)).index()
            }
            Message::Data(_, dest) => g.rank_of(*dest).index(),
        }
    }

    // ---- DIMM-Link rounds (optional extension, Section V-A) ---------------

    pub(super) fn consider_link_round(&mut self, r: usize, now: SimTime) {
        if self.done || self.link_scheduled[r] || self.bridges[r].up_mailbox.is_empty() {
            return;
        }
        self.link_scheduled[r] = true;
        self.q
            .schedule(now.max(self.q.now()), Ev::LinkRound(r as u32));
    }

    pub(super) fn on_link_round(&mut self, r: usize) {
        self.link_scheduled[r] = false;
        let now = self.q.now();
        let mut msgs = std::mem::take(&mut self.msg_scratch);
        self.bridges[r]
            .up_mailbox
            .drain_up_to_into(u32::MAX, &mut msgs);
        for msg in msgs.drain(..) {
            let dest_rank = self.route_at_host(&msg);
            let bytes = msg.wire_bytes() as u64;
            let grant = self.link_bus[r].reserve_traced(
                now,
                bytes,
                ComponentId::Link(r as u32),
                sink(&mut self.trace),
            );
            self.charge_sram(SramCause::Link, bytes);
            self.schedule_delivery(grant.end, Ev::LinkDeliver, dest_rank, msg);
        }
        self.msg_scratch = msgs;
    }

    pub(super) fn on_link_deliver(&mut self, dest: usize, msg: Message) {
        let now = self.q.now();
        match self.absorb_at_rank(dest, msg) {
            Ok(()) => self.consider_rank_round(dest, now),
            Err(back) => {
                // Destination bridge full: hold the message on the link
                // and retry after a round's worth of draining.
                self.schedule_delivery(now + self.cfg.i_min(), Ev::LinkDeliver, dest, back);
            }
        }
    }

    // ---- host-level state + rounds -------------------------------------------

    pub(super) fn on_host_state(&mut self) {
        if self.done {
            return;
        }
        let now = self.q.now();
        match self.comm {
            CommPath::Bridges => {
                // Hierarchical LB: only ranks whose units are ALL idle
                // become receivers (Section VI-A).
                if self.lb.enabled {
                    self.lb_cross_rank(now);
                }
                self.consider_host_round(now);
            }
            CommPath::HostForward | CommPath::RowClone => {
                // C/R poll units directly.
                self.consider_host_round(now);
            }
        }
        self.q.schedule(now + self.cfg.i_state(), Ev::HostState);
    }

    fn lb_cross_rank(&mut self, now: SimTime) {
        let ranks = self.bridges.len();
        let w_th_global: u64 = (0..ranks)
            .map(|r| self.rank_w_threshold(r))
            .max()
            .unwrap_or(1);
        let idle_ranks: Vec<usize> = (0..ranks)
            .filter(|&r| {
                let mut w = self.host.rank_queue_workload[r];
                if self.lb.workload_correction {
                    w += self.host.to_arrive[r];
                }
                // Every unit idle: aggregate under one unit's threshold.
                w < w_th_global.max(1)
            })
            .collect();
        if idle_ranks.is_empty() {
            return;
        }
        let upr = self.cfg.geometry.units_per_rank() as u64;
        let busy_ranks: Vec<usize> = (0..ranks)
            .filter(|&r| self.host.rank_queue_workload[r] > 4 * w_th_global.max(1) * upr / 8)
            .collect();
        if busy_ranks.is_empty() {
            return;
        }
        self.host.stats.lb_rounds.inc();
        for &recv_rank in &idle_ranks {
            let gi = self.host.rng.next_index(busy_ranks.len());
            let giver_rank = busy_ranks[gi];
            if giver_rank == recv_rank {
                continue;
            }
            // Budget: cross-rank transfers are slow; move a few units'
            // worth of fine-grained budgets (or steal-half without).
            let budget = if self.lb.fine_grained {
                2 * w_th_global * 4
            } else {
                self.host.rank_queue_workload[giver_rank] / 2
            };
            if budget == 0 {
                continue;
            }
            // The giver rank's bridge picks its busiest child.
            let gbase = giver_rank * self.cfg.geometry.units_per_rank() as usize;
            let giver_local = (0..self.cfg.geometry.units_per_rank() as usize)
                .max_by_key(|&i| self.bridges[giver_rank].child_state[i].queue_workload)
                .unwrap_or(0);
            // Receivers: idle units of the receiving rank.
            let rbase = recv_rank * self.cfg.geometry.units_per_rank() as usize;
            let recvs: Vec<usize> = (0..self.cfg.geometry.units_per_rank() as usize)
                .filter(|&i| self.bridges[recv_rank].child_state[i].queue_workload == 0)
                .map(|i| rbase + i)
                .collect();
            if recvs.is_empty() {
                continue;
            }
            self.schedule_giver(giver_rank, gbase + giver_local, budget, &recvs, now, true);
        }
    }

    pub(super) fn consider_host_round(&mut self, now: SimTime) {
        if self.done || self.host.round_scheduled {
            return;
        }
        let pending = match self.comm {
            CommPath::Bridges if self.cfg.dimm_link.is_some() => {
                // Links handle bridge-to-bridge traffic; the host only
                // drains its own leftovers.
                self.host.has_pending()
            }
            CommPath::Bridges => {
                self.bridges.iter().any(|b| !b.up_mailbox.is_empty()) || self.host.has_pending()
            }
            CommPath::HostForward | CommPath::RowClone => {
                self.units.iter().any(|u| !u.mailbox.is_empty())
                    || self.host.has_pending()
                    || self.units.iter().any(|u| !u.pending_out.is_empty())
            }
        };
        if !pending {
            return;
        }
        self.host.round_scheduled = true;
        // Host rounds are software polling loops. With bridges the host
        // only forwards pre-aggregated cross-rank batches and can chain
        // rounds; in C/R it pays a full every-bank poll per round, which
        // real runtimes rate-limit (we use the I_state period).
        let at = match self.comm {
            CommPath::Bridges => now.max(self.host.last_round_end),
            CommPath::HostForward | CommPath::RowClone => now
                .max(self.host.last_round_start + self.cfg.i_min())
                .max(self.host.last_round_end),
        };
        self.q.schedule(at, Ev::HostRound);
    }

    pub(super) fn on_host_round(&mut self) {
        self.host.round_scheduled = false;
        self.host.last_round_start = self.q.now();
        match self.comm {
            CommPath::Bridges => self.host_round_bridges(),
            CommPath::HostForward | CommPath::RowClone => self.host_round_direct(),
        }
    }

    /// Level-2 round: move cross-rank messages bridge → host → bridge
    /// over the DDR channels.
    fn host_round_bridges(&mut self) {
        let now = self.q.now();
        let mut t_end = now;
        // Gather from rank bridges' upward mailboxes.
        for r in 0..self.bridges.len() {
            if self.bridges[r].up_mailbox.is_empty() {
                continue;
            }
            let ch = self
                .cfg
                .geometry
                .channel_of_rank(ndpb_dram::RankId(r as u32))
                .index();
            let bytes = self.bridges[r].up_mailbox.bytes_used();
            let grant = self.channel[ch].reserve_traced(
                now,
                bytes,
                ComponentId::Channel(ch as u32),
                sink(&mut self.trace),
            );
            t_end = t_end.max(grant.end);
            let mut msgs = std::mem::take(&mut self.msg_scratch);
            self.bridges[r]
                .up_mailbox
                .drain_up_to_into(u32::MAX, &mut msgs);
            self.host.stats.bytes_gathered.add(bytes);
            self.charge_sram(SramCause::HostGather, bytes);
            if let Some(tr) = sink(&mut self.trace) {
                tr.record(TraceRecord::span(
                    grant.start,
                    grant.end - grant.start,
                    ComponentId::Host,
                    TraceEvent::Gather {
                        bytes,
                        msgs: msgs.len() as u32,
                        wasted: msgs.is_empty(),
                    },
                ));
            }
            for msg in msgs.drain(..) {
                let dest_rank = self.route_at_host(&msg);
                self.host.enqueue_scatter(dest_rank, msg);
            }
            self.msg_scratch = msgs;
        }
        let t = t_end + self.cfg.host_round_latency;
        // Scatter down to rank bridges.
        let mut final_end = t;
        for r in 0..self.bridges.len() {
            if self.host.scatter_pending(r) == 0 {
                continue;
            }
            let ch = self
                .cfg
                .geometry
                .channel_of_rank(ndpb_dram::RankId(r as u32))
                .index();
            let bytes = self.host.scatter_pending(r);
            let grant = self.channel[ch].reserve_traced(
                t,
                bytes,
                ComponentId::Channel(ch as u32),
                sink(&mut self.trace),
            );
            final_end = final_end.max(grant.end);
            let mut msgs = std::mem::take(&mut self.msg_scratch);
            self.host.drain_scatter_into(r, &mut msgs);
            self.host.stats.bytes_scattered.add(bytes);
            if let Some(tr) = sink(&mut self.trace) {
                tr.record(TraceRecord::span(
                    grant.start,
                    grant.end - grant.start,
                    ComponentId::Host,
                    TraceEvent::Scatter {
                        bytes,
                        msgs: msgs.len() as u32,
                    },
                ));
            }
            // `absorb_at_rank` never touches the host scatter queues, so
            // rejected messages re-enqueue directly in encounter order —
            // same final order the old leftover buffer produced.
            for msg in msgs.drain(..) {
                if let Err(back) = self.absorb_at_rank(r, msg) {
                    self.host.enqueue_scatter(r, back);
                }
            }
            self.msg_scratch = msgs;
            self.consider_rank_round(r, grant.end);
        }
        self.host.last_round_end = final_end;
        self.consider_host_round(final_end);
    }

    /// Baseline C/R round: the host gathers directly from every bank
    /// over both the rank bus and the channel, forwards, and scatters
    /// back.
    fn host_round_direct(&mut self) {
        let now = self.q.now();
        let gxfer = self.cfg.g_xfer;
        let chips = self.cfg.geometry.chips_per_rank as usize;
        let banks = self.cfg.geometry.banks_per_chip as usize;
        let upr = self.cfg.geometry.units_per_rank() as usize;
        let mut t_end = now;
        // Gather: per rank, per bank position (all chips parallel), the
        // data crosses the intra-rank wires AND the shared channel. The
        // host is software: it cannot see remote mailbox state, so every
        // round polls every bank position — the fundamental bandwidth
        // waste of host forwarding (Section II-C).
        for r in 0..self.bridges.len() {
            let base = r * upr;
            let ch = self
                .cfg
                .geometry
                .channel_of_rank(ndpb_dram::RankId(r as u32))
                .index();
            for pos in 0..banks {
                let unit_at = |c: usize| base + c * banks + pos;
                let bytes = (chips as u64) * gxfer as u64;
                let start = self.rank_bus[r]
                    .free_at()
                    .max(self.channel[ch].free_at())
                    .max(now);
                let cg = self.channel[ch].reserve_traced(
                    start,
                    bytes,
                    ComponentId::Channel(ch as u32),
                    sink(&mut self.trace),
                );
                self.rank_bus[r].reserve_traced(
                    start,
                    bytes,
                    ComponentId::RankBus(r as u32),
                    sink(&mut self.trace),
                );
                t_end = t_end.max(cg.end);
                for u in (0..chips).map(unit_at) {
                    self.host.stats.gathers.inc();
                    self.units[u].bank.access_traced(
                        cg.start,
                        MAILBOX_ROW,
                        gxfer,
                        false,
                        &self.cfg.timing,
                        ComponentId::Unit(u as u32),
                        sink(&mut self.trace),
                    );
                    self.charge_comm(CommCause::HostGather, gxfer as u64);
                    let mut msgs = std::mem::take(&mut self.msg_scratch);
                    self.units[u].mailbox.drain_up_to_into(gxfer, &mut msgs);
                    if msgs.is_empty() {
                        self.host.stats.wasted_gathers.inc();
                    }
                    let mut gathered = 0u64;
                    let msg_count = msgs.len() as u32;
                    for msg in msgs.drain(..) {
                        gathered += msg.wire_bytes() as u64;
                        self.host.stats.bytes_gathered.add(msg.wire_bytes() as u64);
                        let dest_rank = self.route_at_host(&msg);
                        self.host.enqueue_scatter(dest_rank, msg);
                    }
                    self.msg_scratch = msgs;
                    if let Some(tr) = sink(&mut self.trace) {
                        tr.record(TraceRecord::span(
                            cg.start,
                            cg.end - cg.start,
                            ComponentId::Host,
                            TraceEvent::Gather {
                                bytes: gathered,
                                msgs: msg_count,
                                wasted: msg_count == 0,
                            },
                        ));
                    }
                    if !self.units[u].pending_out.is_empty() {
                        self.flush_pending_out(u);
                    }
                }
            }
        }
        let t = t_end + self.cfg.host_round_latency;
        // Scatter: host → banks, again over channel + rank bus.
        let mut final_end = t;
        for r in 0..self.bridges.len() {
            if self.host.scatter_pending(r) == 0 {
                continue;
            }
            let ch = self
                .cfg
                .geometry
                .channel_of_rank(ndpb_dram::RankId(r as u32))
                .index();
            let mut drained = std::mem::take(&mut self.msg_scratch);
            self.host.drain_scatter_into(r, &mut drained);
            // Group by destination unit, recycling the grouping table and
            // its inner `Vec`s across rounds.
            let mut per_unit = std::mem::take(&mut self.per_unit_scratch);
            for msg in drained.drain(..) {
                let dest = self.direct_dest_unit(&msg);
                match per_unit.iter_mut().find(|(u, _)| *u == dest) {
                    Some((_, v)) => v.push(msg),
                    None => {
                        let mut v = self.vec_pool.get();
                        v.push(msg);
                        per_unit.push((dest, v));
                    }
                }
            }
            self.msg_scratch = drained;
            for (u, mut msgs) in per_unit.drain(..) {
                let bytes: u64 = msgs.iter().map(|m| m.wire_bytes() as u64).sum();
                let start = self.rank_bus[r]
                    .free_at()
                    .max(self.channel[ch].free_at())
                    .max(t);
                let cg = self.channel[ch].reserve_traced(
                    start,
                    bytes,
                    ComponentId::Channel(ch as u32),
                    sink(&mut self.trace),
                );
                self.rank_bus[r].reserve_traced(
                    start,
                    bytes,
                    ComponentId::RankBus(r as u32),
                    sink(&mut self.trace),
                );
                final_end = final_end.max(cg.end);
                self.host.stats.scatters.inc();
                self.host.stats.bytes_scattered.add(bytes);
                self.units[u].bank.access_traced(
                    cg.start,
                    BORROW_ROW,
                    bytes as u32,
                    true,
                    &self.cfg.timing,
                    ComponentId::Unit(u as u32),
                    sink(&mut self.trace),
                );
                self.charge_comm(CommCause::HostScatter, bytes);
                if let Some(tr) = sink(&mut self.trace) {
                    tr.record(TraceRecord::span(
                        cg.start,
                        cg.end - cg.start,
                        ComponentId::Host,
                        TraceEvent::Scatter {
                            bytes,
                            msgs: msgs.len() as u32,
                        },
                    ));
                }
                for msg in msgs.drain(..) {
                    self.schedule_delivery(cg.end, Ev::Deliver, u, msg);
                }
                self.vec_pool.put(msgs);
            }
            self.per_unit_scratch = per_unit;
        }
        self.host.last_round_end = final_end;
        self.consider_host_round(final_end);
    }

    /// Destination unit for direct (C/R) forwarding: home unit (no
    /// migration exists without load balancing).
    pub(super) fn direct_dest_unit(&self, msg: &Message) -> usize {
        match msg {
            Message::Task(task, _) => self.map.home_unit(task.data).index(),
            Message::Data(_, dest) => dest.index(),
        }
    }
}
