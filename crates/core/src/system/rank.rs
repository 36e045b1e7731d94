//! Level-1 rank bridge: gather/scatter rounds, STATE-GATHER and
//! rank-level load balancing.

use ndpb_dram::{BlockAddr, UnitId};
use ndpb_proto::message::DataMessage;
use ndpb_proto::Message;
use ndpb_sim::{SimTime, TICKS_PER_CORE_CYCLE};
use ndpb_trace::{ComponentId, TraceEvent, TraceRecord};

use super::{sink, CommCause, Ev, SramCause, System, BORROW_ROW, MAILBOX_ROW};
use crate::config::{w_threshold, TriggerPolicy};
use crate::design::CommPath;
use crate::fasthash::FastMap;
use crate::steal;
use crate::unit::ScheduledBlock;

impl System {
    // ---- routing -----------------------------------------------------------

    pub(super) fn local_index(&self, u: usize) -> usize {
        // Per-gathered-message hot path: mask instead of hardware
        // divide for power-of-two per-rank unit counts (identical
        // results; every evaluated geometry qualifies).
        let upr = self.cfg.geometry.units_per_rank() as usize;
        if upr.is_power_of_two() {
            u & (upr - 1)
        } else {
            u % upr
        }
    }

    /// Rank-bridge routing decision for a gathered message: a local
    /// destination unit, or `None` meaning "send to the upper level".
    pub(super) fn route_at_rank(&mut self, r: usize, msg: &Message) -> Option<usize> {
        let g = &self.cfg.geometry;
        match msg {
            Message::Task(task, _) => {
                let block = self.map.block_of(task.data);
                if let Some(&unit) = self.bridges[r].data_borrowed.peek(&block) {
                    return Some(unit.index());
                }
                let home = self.map.block_home(block);
                if g.rank_of(home).index() == r {
                    if self.units[home.index()].is_lent.is_lent(block) {
                        // Lent out of this rank entirely.
                        None
                    } else {
                        Some(home.index())
                    }
                } else {
                    None
                }
            }
            Message::Data(_, dest) => {
                if g.rank_of(*dest).index() == r {
                    Some(dest.index())
                } else {
                    None
                }
            }
        }
    }

    // ---- rank bridge rounds -------------------------------------------------

    pub(super) fn consider_rank_round(&mut self, r: usize, now: SimTime) {
        if self.done || self.bridges[r].round_scheduled || self.comm != CommPath::Bridges {
            return;
        }
        let base = r * self.cfg.geometry.units_per_rank() as usize;
        let n = self.cfg.geometry.units_per_rank() as usize;
        let units = &self.units[base..base + n];
        let any_msgs =
            units.iter().any(|u| !u.mailbox.is_empty()) || self.bridges[r].has_pending_output();
        let at = match self.cfg.trigger {
            TriggerPolicy::Dynamic => {
                if !any_msgs {
                    return;
                }
                let big = units
                    .iter()
                    .any(|u| u.mailbox.bytes_used() >= self.cfg.g_xfer as u64);
                let pending_scatter = (0..n).any(|i| self.bridges[r].scatter_pending(i) > 0)
                    || self.bridges[r].backup_pending() > 0;
                if big || pending_scatter {
                    // An unproductive round (nothing gathered or
                    // scattered) must back off instead of re-running at
                    // the same instant.
                    if self.bridges[r].last_round_idle {
                        now.max(self.bridges[r].last_round_end + self.cfg.i_min())
                    } else {
                        now.max(self.bridges[r].last_round_end)
                    }
                } else {
                    let idle = units.iter().any(|u| u.queue_workload() == 0);
                    if idle {
                        now.max(self.bridges[r].last_round_start + self.cfg.i_min())
                            .max(self.bridges[r].last_round_end)
                    } else {
                        return; // wait for the next state gather to re-check
                    }
                }
            }
            TriggerPolicy::FixedIMin => now
                .max(self.bridges[r].last_round_start + self.cfg.i_min())
                .max(self.bridges[r].last_round_end),
            TriggerPolicy::Fixed2IMin => {
                let two = self.cfg.i_min() + self.cfg.i_min();
                now.max(self.bridges[r].last_round_start + two)
                    .max(self.bridges[r].last_round_end)
            }
        };
        self.bridges[r].round_scheduled = true;
        self.q.schedule(at, Ev::RankRound(r as u32));
    }

    pub(super) fn on_rank_round(&mut self, r: usize) {
        self.bridges[r].round_scheduled = false;
        let now = self.q.now();
        let gxfer = self.cfg.g_xfer;
        let base = r * self.cfg.geometry.units_per_rank() as usize;
        let chips = self.cfg.geometry.chips_per_rank as usize;
        let banks = self.cfg.geometry.banks_per_chip as usize;
        let fixed_trigger = self.cfg.trigger != TriggerPolicy::Dynamic;
        self.bridges[r].last_round_start = now;
        let mut t = now;
        let mut paused = false;
        let mut moved = 0u64;

        // GATHER phase: one command per bank position serves all chips.
        // Positions are visited round-robin starting at the bridge's
        // cursor so a buffer-full pause cannot starve late positions.
        let start_pos = self.bridges[r].gather_cursor as usize % banks;
        'positions: for step in 0..banks {
            let pos = (start_pos + step) % banks;
            let unit_at = |c: usize| base + c * banks + pos;
            let wanted = fixed_trigger
                || (0..chips).map(unit_at).any(|u| {
                    !self.units[u].mailbox.is_empty() || !self.units[u].pending_out.is_empty()
                });
            if !wanted {
                continue;
            }
            let grant = self.rank_bus[r].reserve_traced(
                t,
                (chips as u64) * gxfer as u64,
                ComponentId::RankBus(r as u32),
                sink(&mut self.trace),
            );
            t = grant.end;
            for u in (0..chips).map(unit_at) {
                self.bridges[r].stats.gathers.inc();
                // The bank read of the mailbox region (access arbiter).
                self.units[u].bank.access_traced(
                    grant.start,
                    MAILBOX_ROW,
                    gxfer,
                    false,
                    &self.cfg.timing,
                    ComponentId::Unit(u as u32),
                    sink(&mut self.trace),
                );
                self.charge_comm(CommCause::Gather, gxfer as u64);
                let mut msgs = std::mem::take(&mut self.msg_scratch);
                self.units[u].mailbox.drain_up_to_into(gxfer, &mut msgs);
                let msg_count = msgs.len() as u32;
                if msgs.is_empty() {
                    self.bridges[r].stats.wasted_gathers.inc();
                } else {
                    moved += msgs.len() as u64;
                }
                let mut gathered = 0u64;
                for msg in msgs.drain(..) {
                    gathered += msg.wire_bytes() as u64;
                    if paused {
                        // Put it back; we stopped absorbing.
                        let unit = &mut self.units[u];
                        if let Some(back) = unit.mailbox.try_push(msg) {
                            unit.pending_out.push_front(back);
                        }
                        continue;
                    }
                    if let Err(back) = self.absorb_at_rank(r, msg) {
                        paused = true;
                        let unit = &mut self.units[u];
                        if let Some(back) = unit.mailbox.try_push(back) {
                            unit.pending_out.push_front(back);
                        }
                    }
                }
                self.msg_scratch = msgs;
                self.bridges[r].stats.bytes_gathered.add(gathered);
                self.charge_sram(SramCause::BridgeGather, gathered);
                if let Some(tr) = sink(&mut self.trace) {
                    tr.record(TraceRecord::span(
                        grant.start,
                        grant.end - grant.start,
                        ComponentId::Bridge(r as u32),
                        TraceEvent::Gather {
                            bytes: gathered,
                            msgs: msg_count,
                            wasted: msg_count == 0,
                        },
                    ));
                }
                // Space freed: unblock a stalled core.
                if !self.units[u].pending_out.is_empty() {
                    self.flush_pending_out(u);
                }
                if paused {
                    self.bridges[r].gather_cursor = (pos as u32 + 1) % banks as u32;
                    break 'positions;
                }
            }
            if step == banks - 1 {
                self.bridges[r].gather_cursor = (pos as u32 + 1) % banks as u32;
            }
        }

        // SCATTER phase.
        self.bridges[r].refill_from_backup();
        for pos in 0..banks {
            let unit_at = |c: usize| base + c * banks + pos;
            let wanted = (0..chips)
                .map(unit_at)
                .any(|u| self.bridges[r].scatter_pending(self.local_index(u)) > 0);
            if !wanted {
                continue;
            }
            let grant = self.rank_bus[r].reserve_traced(
                t,
                (chips as u64) * gxfer as u64,
                ComponentId::RankBus(r as u32),
                sink(&mut self.trace),
            );
            t = grant.end;
            for u in (0..chips).map(unit_at) {
                let local = self.local_index(u);
                let mut msgs = std::mem::take(&mut self.msg_scratch);
                self.bridges[r].drain_scatter_into(local, gxfer, &mut msgs);
                if msgs.is_empty() {
                    self.msg_scratch = msgs;
                    continue;
                }
                self.bridges[r].stats.scatters.inc();
                moved += msgs.len() as u64;
                let bytes: u64 = msgs.iter().map(|m| m.wire_bytes() as u64).sum();
                self.bridges[r].stats.bytes_scattered.add(bytes);
                self.charge_sram(SramCause::BridgeScatter, bytes);
                // Bank write of the delivered messages.
                self.units[u].bank.access_traced(
                    grant.start,
                    BORROW_ROW,
                    bytes as u32,
                    true,
                    &self.cfg.timing,
                    ComponentId::Unit(u as u32),
                    sink(&mut self.trace),
                );
                self.charge_comm(CommCause::Scatter, bytes);
                if let Some(tr) = sink(&mut self.trace) {
                    tr.record(TraceRecord::span(
                        grant.start,
                        grant.end - grant.start,
                        ComponentId::Bridge(r as u32),
                        TraceEvent::Scatter {
                            bytes,
                            msgs: msgs.len() as u32,
                        },
                    ));
                }
                for msg in msgs.drain(..) {
                    self.schedule_delivery(grant.end, Ev::Deliver, u, msg);
                }
                self.msg_scratch = msgs;
            }
        }

        // Move spilled messages into the just-drained scatter buffers so
        // the backup cannot be starved by freshly gathered traffic.
        self.bridges[r].refill_from_backup();
        self.bridges[r].last_round_idle = moved == 0;
        self.bridges[r].last_round_end = t;
        // Anything still pending chains another round.
        self.consider_rank_round(r, t);
        // Upward messages leave via DIMM-Links when present, else via a
        // host (level-2) round.
        if !self.bridges[r].up_mailbox.is_empty() {
            if self.cfg.dimm_link.is_some() {
                self.consider_link_round(r, t);
            } else {
                self.consider_host_round(t);
            }
        }
    }

    /// Routes one gathered message at rank `r`. On buffer exhaustion the
    /// message is handed back and gathering must pause.
    pub(super) fn absorb_at_rank(&mut self, r: usize, msg: Message) -> Result<(), Message> {
        match self.route_at_rank(r, &msg) {
            Some(dest_unit) => {
                let local = self.local_index(dest_unit);
                if self.is_data_block_assignment(&msg, r) {
                    self.note_block_in_rank(r, &msg);
                }
                self.bridges[r].enqueue_scatter(local, msg)
            }
            None => match self.bridges[r].up_mailbox.try_push(msg) {
                None => Ok(()),
                Some(back) => Err(back),
            },
        }
    }

    fn is_data_block_assignment(&self, msg: &Message, r: usize) -> bool {
        match msg {
            Message::Data(dm, dest) => {
                let home = self.map.block_home(dm.block);
                // Arriving at the receiver's rank and not a return-home.
                self.cfg.geometry.rank_of(*dest).index() == r && home != *dest
            }
            _ => false,
        }
    }

    /// Records block→receiver metadata when a lent block enters the
    /// receiver's rank (inclusive two-level dataBorrowed).
    pub(super) fn note_block_in_rank(&mut self, r: usize, msg: &Message) {
        if let Message::Data(dm, dest) = msg {
            // A cross-rank assignment must mirror a live host entry: if
            // the host evicted or reassigned the block while the data
            // was in flight, recording it here would orphan the
            // metadata — skip, and let the arrival bounce home via the
            // stale check in `on_deliver`.
            let home = self.map.block_home(dm.block);
            if self.cfg.geometry.rank_of(home).index() != r {
                let recv_rank = self.cfg.geometry.rank_of(*dest);
                if self.host.data_borrowed.peek(&dm.block) != Some(&recv_rank) {
                    return;
                }
            }
            if let Some((evicted_block, holder)) =
                self.bridges[r].data_borrowed.insert(dm.block, *dest)
            {
                // Inclusive metadata overflow: force the evicted block
                // home to keep tables consistent. If its data has not
                // been admitted yet (still in flight), there is nothing
                // to send back; dropping the host entry as well lets
                // the arrival bounce home on its own.
                let at = self.q.now();
                if self.units[holder.index()].remove_borrow(evicted_block) {
                    self.return_block_home(holder.index(), evicted_block, at);
                } else {
                    self.host.data_borrowed.remove(&evicted_block);
                }
            }
        }
    }

    // ---- state gathering + rank-level load balancing -------------------------

    pub(super) fn on_rank_state(&mut self, r: usize) {
        self.bridges[r].state_scheduled = false;
        if self.done {
            return;
        }
        let now = self.q.now();
        let n = self.cfg.geometry.units_per_rank() as usize;
        let base = r * n;
        // STATE-GATHER: one 64 B state message per child, all chips in
        // parallel per bank position.
        let state_bytes = 64u64 * n as u64;
        let grant = self.rank_bus[r].reserve_traced(
            now,
            state_bytes,
            ComponentId::RankBus(r as u32),
            sink(&mut self.trace),
        );
        if let Some(tr) = sink(&mut self.trace) {
            tr.record(TraceRecord::span(
                grant.start,
                grant.end - grant.start,
                ComponentId::Bridge(r as u32),
                TraceEvent::StateGather { bytes: state_bytes },
            ));
        }
        let mut finished_total = 0u64;
        for i in 0..n {
            let u = base + i;
            let st = crate::bridge::ChildState {
                queue_workload: self.units[u].queue_workload(),
                finished_workload: self.units[u].take_finished(),
            };
            finished_total += st.finished_workload;
            self.bridges[r].child_state[i] = st;
        }
        self.charge_sram(SramCause::State, state_bytes);
        self.bridges[r].update_speed_estimate(self.cfg.i_state_cycles, finished_total);
        // Host's aggregate view (used by level-2 LB).
        self.host.rank_queue_workload[r] = self.bridges[r]
            .child_state
            .iter()
            .map(|s| s.queue_workload)
            .sum();
        self.host.rank_mailbox_bytes[r] = self.bridges[r].up_mailbox.bytes_used();

        if self.lb.enabled {
            self.lb_rank(r, grant.end);
        }
        self.consider_rank_round(r, grant.end);
        if self.cfg.dimm_link.is_some() && !self.bridges[r].up_mailbox.is_empty() {
            self.consider_link_round(r, grant.end);
        }

        // Re-arm.
        self.bridges[r].state_scheduled = true;
        self.q
            .schedule(now + self.cfg.i_state(), Ev::RankState(r as u32));
    }

    /// Workload-transfer threshold `W_th` for rank `r`, in workload
    /// units.
    pub(super) fn rank_w_threshold(&self, r: usize) -> u64 {
        let per_chip_bits =
            self.cfg.geometry.intra_rank_data_bits() / self.cfg.geometry.chips_per_rank;
        let s_xfer_bytes_per_cycle = per_chip_bits as f64 * TICKS_PER_CORE_CYCLE as f64 / 8.0;
        w_threshold(
            self.cfg.g_xfer,
            self.bridges[r].s_exe_cycles_per_wl,
            s_xfer_bytes_per_cycle,
        )
    }

    /// Rank-level load balancing (Figure 6): match idle receivers to
    /// random givers, SCHEDULE budgets, move blocks + tasks.
    fn lb_rank(&mut self, r: usize, now: SimTime) {
        let w_th = if self.lb.in_advance {
            self.rank_w_threshold(r)
        } else {
            1 // steal only when the queue is empty
        };
        let receivers = self.bridges[r].idle_children(w_th, self.lb.workload_correction);
        if receivers.is_empty() {
            return;
        }
        let giver_floor = if self.lb.fine_grained {
            2 * w_th
        } else {
            w_th.max(1)
        };
        let givers = self.bridges[r].busy_children(giver_floor);
        if givers.is_empty() {
            return;
        }
        self.bridges[r].stats.lb_rounds.inc();
        let base = r * self.cfg.geometry.units_per_rank() as usize;
        // Random matching: receiver → giver; budgets accumulate per giver.
        let mut budgets: Vec<(usize, u64, Vec<usize>)> = Vec::new(); // (giver, budget, receivers)
        for &recv in &receivers {
            let gi = self.bridges[r].rng.next_index(givers.len());
            let giver = givers[gi];
            if giver == recv {
                continue;
            }
            let amount = if self.lb.fine_grained {
                2 * w_th
            } else {
                self.bridges[r].child_state[giver].queue_workload / 2
            };
            if amount == 0 {
                continue;
            }
            match budgets.iter_mut().find(|(g2, _, _)| *g2 == giver) {
                Some((_, b, rs)) => {
                    *b += amount;
                    rs.push(recv);
                }
                None => budgets.push((giver, amount, vec![recv])),
            }
        }
        for (giver, budget, recvs) in budgets {
            // Traditional stealing takes at most half the victim's queue
            // per round, no matter how many receivers matched to it.
            let cap = (self.bridges[r].child_state[giver].queue_workload / 2).max(1);
            self.schedule_giver(r, base + giver, budget.min(cap), &recvs, now, false);
        }
    }

    /// Sends a SCHEDULE to a giver unit and moves its chosen blocks +
    /// tasks into its mailbox, assigning receivers round-robin.
    /// `cross_rank` receivers are global unit indices already.
    pub(super) fn schedule_giver(
        &mut self,
        r: usize,
        giver: usize,
        budget: u64,
        receivers: &[usize],
        now: SimTime,
        cross_rank: bool,
    ) {
        self.bridges[r].stats.schedules.inc();
        if let Some(tr) = sink(&mut self.trace) {
            tr.record(TraceRecord::instant(
                now,
                ComponentId::Bridge(r as u32),
                TraceEvent::Schedule {
                    budget,
                    receivers: receivers.len() as u32,
                },
            ));
        }
        if self.lb.byte_budget || self.lb.prefer_lent {
            return self.schedule_giver_aware(r, giver, budget, receivers, now, cross_rank);
        }
        let hot = self.lb.hot_data;
        let chosen = {
            let map = &self.map;
            self.units[giver].choose_scheduled_out(budget, hot, map)
        };
        if chosen.is_empty() {
            return;
        }
        let base = r * self.cfg.geometry.units_per_rank() as usize;
        for (rr, sb) in chosen.into_iter().enumerate() {
            let recv_global = if cross_rank {
                receivers[rr % receivers.len()]
            } else {
                base + receivers[rr % receivers.len()]
            };
            self.emit_scheduled_block(r, giver, sb, recv_global, false, cross_rank, now);
        }
        self.consider_comm(giver, now);
    }

    /// Gather-cost-aware variant of `schedule_giver`
    /// (`LbPolicy::byte_budget` / `prefer_lent`, DESIGN.md §10): the
    /// round's workload budget is converted into a wire-byte budget via
    /// `steal::steal_byte_budget`, the giver's queued tasks for blocks
    /// already lent to one of this round's receivers become task-only
    /// forward candidates, and `steal::plan_steal` picks in preference
    /// order (task-only → hot → densest) until either budget runs dry.
    fn schedule_giver_aware(
        &mut self,
        r: usize,
        giver: usize,
        budget: u64,
        receivers: &[usize],
        now: SimTime,
        cross_rank: bool,
    ) {
        let byte_budget = if self.lb.byte_budget {
            let w_th = self.rank_w_threshold(r);
            // Overload gate: moving a block only pays when the giver is
            // genuinely backlogged (DESIGN.md §10). Each block move
            // provokes a full gather-round sweep — `chips · G_xfer` of
            // ledger traffic, far more than the message's own wire
            // bytes — so a queue shallower than `steal_gate_wth · W_th`
            // (transient imbalance that drains on its own) gets a zero
            // *data* budget. Task-only forwards, which ride the reroute
            // path's mail anyway, are still allowed. This is what stops
            // low-parallelism apps from re-stealing thin blocks every
            // idle round.
            let gate = u64::from(self.cfg.steal_gate_wth) * w_th.max(1);
            if self.units[giver].queue_workload() < gate {
                0
            } else {
                // Rate-limit: the *byte* allowance per round is what
                // the fine-grained policy would move (2·W_th per giver
                // round), even when the workload budget is steal-half's
                // much larger half-queue. Deliberately NOT multiplied
                // by the receiver count: a starved rank has many idle
                // receivers, and that is exactly when per-round traffic
                // must stay bounded. Task-only forwards cost almost no
                // bytes, so they can still fill the rest of the
                // workload budget past this cap.
                let fine_equiv = 2 * w_th.max(1);
                steal::steal_byte_budget(
                    budget.min(fine_equiv),
                    w_th,
                    self.cfg.g_xfer,
                    self.cfg.steal_budget_gxfer,
                )
            }
        } else {
            u64::MAX
        };
        // Blocks this giver owns that are currently lent out with a
        // known holder in this rank: their queued tasks would be
        // rerouted to the holder one-by-one on pop anyway, so the steal
        // round forwards them eagerly, task-only — no gather/scatter at
        // all. Intra-rank only — at the host level borrowed blocks are
        // tracked per rank, not per holder unit.
        let mut lent_to: FastMap<u64, UnitId> = FastMap::default();
        if self.lb.prefer_lent && !cross_rank {
            for block in self.units[giver].queued_lent_home_blocks(&self.map) {
                if let Some(&holder) = self.bridges[r].data_borrowed.peek(&block) {
                    if holder.index() != giver {
                        lent_to.insert(block.0, holder);
                    }
                }
            }
        }
        let data_wire = u64::from(
            DataMessage {
                block: BlockAddr(0),
                bytes: self.cfg.g_xfer,
                workload: 0,
            }
            .wire_bytes(),
        );
        let hot = self.lb.hot_data;
        let amortize = self.lb.byte_budget.then(|| steal::AmortizeCfg {
            g_xfer: self.cfg.g_xfer,
            budget_gxfer: self.cfg.steal_budget_gxfer,
            w_th: self.rank_w_threshold(r),
        });
        let picks = {
            let map = &self.map;
            self.units[giver].choose_scheduled_out_aware(
                budget,
                byte_budget,
                hot,
                &lent_to,
                data_wire,
                amortize,
                map,
            )
        };
        if picks.is_empty() {
            return;
        }
        let base = r * self.cfg.geometry.units_per_rank() as usize;
        let mut rr = 0usize;
        for pick in picks {
            let (recv_global, task_only) = match pick.pinned_recv {
                Some(holder) => (holder.index(), true),
                None => {
                    let g = if cross_rank {
                        receivers[rr % receivers.len()]
                    } else {
                        base + receivers[rr % receivers.len()]
                    };
                    rr += 1;
                    (g, false)
                }
            };
            self.emit_scheduled_block(r, giver, pick.sb, recv_global, task_only, cross_rank, now);
        }
        self.consider_comm(giver, now);
    }

    /// Emits one scheduled block toward `recv_global`: migration
    /// metadata, `toArrive` accounting at both levels, the data message
    /// and the task messages. `task_only` (gather-aware forwards to the
    /// block's current holder) skips everything data-related — no
    /// migration count, no metadata update, no data message — because
    /// the block does not move; only the task descriptors travel.
    #[allow(clippy::too_many_arguments)]
    fn emit_scheduled_block(
        &mut self,
        r: usize,
        giver: usize,
        sb: ScheduledBlock,
        recv_global: usize,
        task_only: bool,
        cross_rank: bool,
        now: SimTime,
    ) {
        let recv_id = UnitId(recv_global as u32);
        if !task_only {
            self.metrics.inc(self.m.blocks_migrated);
            if let Some(tr) = sink(&mut self.trace) {
                tr.record(TraceRecord::instant(
                    now,
                    ComponentId::Bridge(r as u32),
                    TraceEvent::Migrate {
                        block: sb.block.0,
                        from: giver as u32,
                        to: recv_global as u32,
                        tasks: sb.tasks.len() as u32,
                    },
                ));
            }
            // Metadata at assignment time (step ④).
            if cross_rank {
                let recv_rank = self.cfg.geometry.rank_of(recv_id);
                if let Some((evb, evr)) = self.host.data_borrowed.insert(sb.block, recv_rank) {
                    // Overflow: return that block home from wherever it
                    // is. A holder that has not admitted it yet (data
                    // still in flight) has nothing to send back; drop
                    // the rank entry too and let the arrival bounce.
                    if let Some(&holder) = self.bridges[evr.index()].data_borrowed.peek(&evb) {
                        let h = holder.index();
                        if self.units[h].remove_borrow(evb) {
                            self.return_block_home(h, evb, now);
                        } else {
                            self.bridges[evr.index()].data_borrowed.remove(&evb);
                        }
                    }
                }
            } else {
                self.note_block_in_rank(
                    r,
                    &Message::Data(
                        DataMessage {
                            block: sb.block,
                            bytes: self.cfg.g_xfer,
                            workload: sb.workload,
                        },
                        recv_id,
                    ),
                );
            }
        }
        // Both `toArrive` levels track the in-flight scheduled
        // workload toward the intended receiver from SCHEDULE until
        // first delivery, so host-level idle detection also sees
        // intra-rank transfers under way (Section VI-C).
        let recv_rank_idx = self.cfg.geometry.rank_of(recv_id).index();
        let recv_local = self.local_index(recv_global);
        self.host.to_arrive[recv_rank_idx] += sb.workload;
        self.bridges[recv_rank_idx].to_arrive[recv_local] += sb.workload;
        if !task_only {
            // Giver reads the block from its bank and mails it out.
            let dm = DataMessage {
                block: sb.block,
                bytes: self.cfg.g_xfer,
                workload: sb.workload,
            };
            self.emit_message(giver, Message::Data(dm, recv_id), now);
        }
        for task in sb.tasks {
            self.emit_message(giver, Message::Task(task, Some(recv_id)), now);
        }
    }
}
