//! Unit layer: core execution, spawn routing, mailbox emission,
//! message delivery and borrow/return of lent blocks.

use ndpb_dram::BlockAddr;
use ndpb_proto::message::DataMessage;
use ndpb_proto::Message;
use ndpb_sim::{SimTime, TICKS_PER_CORE_CYCLE};
use ndpb_tasks::Task;
use ndpb_trace::{ComponentId, TraceEvent, TraceRecord};

use super::{sink, CommCause, Ev, SramCause, System, BORROW_ROW, MAILBOX_ROW, TASKQ_ROW};
use crate::design::CommPath;

impl System {
    // ---- setup ------------------------------------------------------------

    pub(super) fn inject_initial(&mut self) {
        let initial = self.app.initial_tasks();
        for task in initial {
            self.epochs.spawned(task.ts);
            let home = self.map.home_unit(task.data);
            let hot = self.lb.hot_data;
            let idx = home.index();
            if self.epochs.is_ready(task.ts) {
                let map = &self.map;
                self.units[idx].enqueue_ready(task, hot, map);
            } else {
                self.units[idx].enqueue_future(task);
            }
        }
        for u in 0..self.units.len() {
            if self.units[u].queued_tasks() > 0 {
                self.wake_unit(u, SimTime::ZERO);
            }
        }
    }

    fn wake_unit(&mut self, u: usize, at: SimTime) {
        let unit = &mut self.units[u];
        if unit.wake_scheduled {
            return;
        }
        unit.wake_scheduled = true;
        let at = at.max(self.q.now());
        self.q.schedule(at, Ev::CoreWake(u as u32));
    }

    // ---- core execution ---------------------------------------------------

    pub(super) fn on_core_wake(&mut self, u: usize) {
        self.units[u].wake_scheduled = false;
        let now = self.q.now();
        if now < self.units[u].core_free_at {
            let at = self.units[u].core_free_at;
            self.wake_unit(u, at);
            return;
        }
        // A core with undelivered outgoing messages is stalled until the
        // next gather drains the mailbox (Section V-A).
        if !self.units[u].pending_out.is_empty() {
            self.flush_pending_out(u);
            if !self.units[u].pending_out.is_empty() {
                self.units[u].stats.mailbox_stalls.inc();
                return;
            }
        }
        let Some(task) = ({
            let map = &self.map;
            self.units[u].pop_task(map)
        }) else {
            return;
        };
        let block = self.map.block_of(task.data);
        if !self.units[u].holds_block(block, &self.map) {
            // The block migrated while this task waited: re-route it.
            self.units[u].stats.tasks_rerouted.inc();
            let msg = Message::Task(task, None);
            self.emit_message(u, msg, now);
            self.wake_unit(u, now);
            return;
        }
        if self.units[u].is_borrowed(block) {
            self.units[u].touch_borrow(block);
        }
        // Execute, reusing the persistent context: reads/writes land in
        // recycled buffers and the spawn `Vec` comes off the free list.
        let spawn_buf = self.spawn_pool.get();
        self.exec_ctx.reset(self.units[u].id, spawn_buf);
        self.app.execute(&task, &mut self.exec_ctx);
        let ctx = &self.exec_ctx;
        let mut t = now + SimTime::from_ticks(ctx.compute_cycles() * TICKS_PER_CORE_CYCLE);
        let timing = &self.cfg.timing;
        let comp = ComponentId::Unit(u as u32);
        {
            let unit = &mut self.units[u];
            for &(addr, bytes) in ctx.reads() {
                let row = self.map.row_of(addr);
                t = unit
                    .bank
                    .access_traced(t, row, bytes, false, timing, comp, sink(&mut self.trace))
                    .end;
                unit.stats.dram_local_bytes.add(bytes as u64);
            }
            for &(addr, bytes) in ctx.writes() {
                let row = self.map.row_of(addr);
                t = unit
                    .bank
                    .access_traced(t, row, bytes, true, timing, comp, sink(&mut self.trace))
                    .end;
                unit.stats.dram_local_bytes.add(bytes as u64);
            }
            unit.core_free_at = t;
            unit.stats.busy.record(now, t);
            unit.stats.last_finish = t;
            unit.stats.tasks_executed.inc();
            unit.add_finished(task.workload_or_default());
        }
        if let Some(tr) = sink(&mut self.trace) {
            tr.record(TraceRecord::span(
                now,
                t - now,
                comp,
                TraceEvent::TaskExec {
                    func: task.func.0,
                    workload: task.workload_or_default(),
                },
            ));
        }
        let children = self.exec_ctx.take_spawned();
        for c in &children {
            self.epochs.spawned(c.ts);
        }
        // One task executes per core at a time: a wake before `t` finds
        // the core busy and re-arms at `core_free_at`, and a wake at `t`
        // was scheduled after this `TaskDone`, so it pops after it.
        let busy = self.units[u].in_flight.replace((task, children));
        assert!(busy.is_none(), "unit {u} started a task with one in flight");
        self.q.schedule(t, Ev::TaskDone(u as u32));
    }

    pub(super) fn on_task_done(&mut self, u: usize) {
        let now = self.q.now();
        let (task, mut children) = self.units[u]
            .in_flight
            .take()
            .expect("TaskDone without an in-flight task");
        for child in children.drain(..) {
            self.route_spawn(u, child, now);
        }
        self.spawn_pool.put(children);
        if let Some(new_epoch) = self.epochs.completed(task.ts) {
            self.note_epoch_advance(new_epoch, now);
            let hot = self.lb.hot_data;
            for i in 0..self.units.len() {
                let released = {
                    let map = &self.map;
                    self.units[i].release_epoch(new_epoch, hot, map)
                };
                if released > 0 {
                    self.wake_unit(i, now);
                }
            }
        }
        if self.epochs.all_done() {
            self.done = true;
        }
        self.wake_unit(u, now);
    }

    /// Routes a freshly spawned child task from unit `u`.
    fn route_spawn(&mut self, u: usize, task: Task, now: SimTime) {
        let block = self.map.block_of(task.data);
        if self.units[u].holds_block(block, &self.map) {
            // Local: enqueue directly (a cheap in-DRAM task-queue append).
            self.charge_comm(CommCause::Taskq, task.wire_bytes() as u64);
            let timing = &self.cfg.timing;
            let unit = &mut self.units[u];
            unit.bank.access_traced(
                now,
                TASKQ_ROW,
                task.wire_bytes(),
                true,
                timing,
                ComponentId::Unit(u as u32),
                sink(&mut self.trace),
            );
            let hot = self.lb.hot_data;
            if self.epochs.is_ready(task.ts) {
                let map = &self.map;
                unit.enqueue_ready(task, hot, map);
                self.wake_unit(u, now);
            } else {
                unit.enqueue_future(task);
            }
            return;
        }
        // RowClone fast path: same-chip destination.
        if self.comm == CommPath::RowClone {
            let home = self.map.block_home(block);
            if self.cfg.geometry.same_chip(self.units[u].id, home) {
                self.rowclone_transfer(u, home.index(), task, now);
                return;
            }
        }
        self.emit_message(u, Message::Task(task, None), now);
    }

    /// Direct bank-to-bank transfer over the chip-internal bus (R).
    fn rowclone_transfer(&mut self, src: usize, dst: usize, task: Task, now: SimTime) {
        let copy = self.cfg.timing.rowclone_row_copy();
        let timing = &self.cfg.timing;
        // Both banks are busy for the copy; serialize behind each.
        let s = self.units[src]
            .bank
            .access(now, MAILBOX_ROW, 64, false, timing)
            .end;
        let start = s.max(self.units[dst].bank.busy_until());
        let end = start + copy;
        // Occupy the destination bank for the copy window.
        self.units[dst]
            .bank
            .access(start, BORROW_ROW, 64, true, timing);
        self.units[src].bank.precharge_traced(
            s,
            ComponentId::Unit(src as u32),
            sink(&mut self.trace),
        );
        self.units[dst].bank.precharge_traced(
            end,
            ComponentId::Unit(dst as u32),
            sink(&mut self.trace),
        );
        self.charge_comm(CommCause::RowClone, 128);
        self.units[src].stats.msgs_emitted.inc();
        self.schedule_delivery(end, Ev::Deliver, dst, Message::Task(task, None));
    }

    /// Puts a message into `u`'s mailbox (stalling the core when full),
    /// charging the in-DRAM mailbox write.
    pub(super) fn emit_message(&mut self, u: usize, msg: Message, now: SimTime) {
        let bytes = msg.wire_bytes();
        let cause = match &msg {
            Message::Task(_, None) => CommCause::MailTask,
            Message::Task(_, Some(_)) => CommCause::MailSched,
            Message::Data(dm, dest) => {
                if *dest == self.map.block_home(dm.block) {
                    CommCause::MailReturn
                } else {
                    CommCause::MailData
                }
            }
        };
        self.charge_comm(cause, bytes as u64);
        let timing = &self.cfg.timing;
        let comp = ComponentId::Unit(u as u32);
        let unit = &mut self.units[u];
        unit.bank.access_traced(
            now,
            MAILBOX_ROW,
            bytes,
            true,
            timing,
            comp,
            sink(&mut self.trace),
        );
        unit.stats.msgs_emitted.inc();
        if !unit.pending_out.is_empty() {
            unit.pending_out.push_back(msg);
        } else if let Some(back) =
            unit.mailbox
                .try_push_traced(msg, now, comp, sink(&mut self.trace))
        {
            // Mailbox full: park the message and stall the core until a
            // gather frees space (Section V-A).
            unit.pending_out.push_back(back);
            unit.stats.mailbox_stalls.inc();
        }
        self.consider_comm(u, now);
    }

    pub(super) fn consider_comm(&mut self, u: usize, now: SimTime) {
        match self.comm {
            CommPath::Bridges => {
                let r = self.cfg.geometry.rank_of(self.units[u].id).index();
                self.consider_rank_round(r, now);
            }
            CommPath::HostForward | CommPath::RowClone => {
                self.consider_host_round(now);
            }
        }
    }

    /// Moves messages parked in `pending_out` into the mailbox as space
    /// allows; wakes the core when fully drained.
    pub(super) fn flush_pending_out(&mut self, u: usize) {
        let now = self.q.now();
        let comp = ComponentId::Unit(u as u32);
        let unit = &mut self.units[u];
        while let Some(front) = unit.pending_out.pop_front() {
            if let Some(back) =
                unit.mailbox
                    .try_push_traced(front, now, comp, sink(&mut self.trace))
            {
                unit.pending_out.push_front(back);
                break;
            }
        }
        if unit.pending_out.is_empty() {
            self.wake_unit(u, now);
        }
    }

    // ---- message delivery --------------------------------------------------

    pub(super) fn on_deliver(&mut self, u: usize, msg: Message) {
        let now = self.q.now();
        self.metrics.inc(self.m.msgs_delivered);
        match msg {
            Message::Task(task, scheduled) => {
                // First delivery of an LB-scheduled task settles the
                // `toArrive` correction for its *intended* receiver at
                // both hierarchy levels (both were incremented at
                // SCHEDULE time), no matter where the task actually
                // lands; a reroute below clears the marker so this
                // happens exactly once.
                if let Some(intended) = scheduled {
                    if self.comm == CommPath::Bridges {
                        let wl = task.workload_or_default();
                        let ir = self.cfg.geometry.rank_of(intended).index();
                        let il = self.local_index(intended.index());
                        if self.audit.enabled
                            && (self.bridges[ir].to_arrive[il] < wl || self.host.to_arrive[ir] < wl)
                        {
                            let detail = format!(
                                "toArrive underflow settling a scheduled task for u{}: \
                                 bridge {} / host {} against workload {wl}",
                                intended.0, self.bridges[ir].to_arrive[il], self.host.to_arrive[ir],
                            );
                            self.audit.flag("to-arrive", detail);
                        }
                        self.bridges[ir].to_arrive[il] =
                            self.bridges[ir].to_arrive[il].saturating_sub(wl);
                        self.host.to_arrive[ir] = self.host.to_arrive[ir].saturating_sub(wl);
                    }
                }
                let block = self.map.block_of(task.data);
                if !self.units[u].holds_block(block, &self.map) {
                    // Stale routing: forward to the current holder.
                    self.units[u].stats.tasks_rerouted.inc();
                    self.emit_message(u, Message::Task(task, None), now);
                    return;
                }
                let hot = self.lb.hot_data;
                if self.epochs.is_ready(task.ts) {
                    let map = &self.map;
                    self.units[u].enqueue_ready(task, hot, map);
                    self.wake_unit(u, now);
                } else {
                    self.units[u].enqueue_future(task);
                }
            }
            Message::Data(dm, _) => {
                let home = self.map.block_home(dm.block);
                if home.index() == u {
                    // The block returned home.
                    self.units[u].is_lent.clear(dm.block);
                    self.wake_unit(u, now);
                } else {
                    // An assignment is only admitted while the rank
                    // bridge still maps the block to this unit; a stale
                    // arrival (metadata evicted while the data was in
                    // flight) bounces straight home instead of creating
                    // an orphan borrow.
                    let uid = self.units[u].id;
                    let r = self.cfg.geometry.rank_of(uid).index();
                    let stale = self.comm == CommPath::Bridges
                        && self.bridges[r].data_borrowed.peek(&dm.block) != Some(&uid);
                    if stale {
                        self.return_block_home(u, dm.block, now);
                    } else {
                        self.admit_borrowed_block(u, dm, now);
                    }
                }
            }
        }
    }

    fn admit_borrowed_block(&mut self, u: usize, dm: DataMessage, now: SimTime) {
        let evicted = self.units[u].admit_borrow(dm.block);
        // Borrowed-region write charged during scatter already; the
        // metadata update is an SRAM access.
        self.charge_sram(SramCause::BorrowMeta, 16);
        if let Some(victim) = evicted {
            self.return_block_home(u, victim, now);
        }
    }

    /// Sends an evicted borrowed block back to its home unit, cleaning
    /// bridge metadata along the way.
    pub(super) fn return_block_home(&mut self, u: usize, block: BlockAddr, now: SimTime) {
        let home = self.map.block_home(block);
        let my_rank = self.cfg.geometry.rank_of(self.units[u].id);
        self.bridges[my_rank.index()].data_borrowed.remove(&block);
        self.host.data_borrowed.remove(&block);
        let dm = DataMessage {
            block,
            bytes: self.cfg.g_xfer,
            workload: 0,
        };
        self.emit_message(u, Message::Data(dm, home), now);
    }
}
