//! The full-system discrete-event simulation.
//!
//! [`System`] wires the NDP units, rank bridges, host bridge, buses and
//! an [`Application`] together and runs the workload to completion under
//! one [`DesignPoint`]. Everything the paper evaluates flows through
//! here: data-local task execution, mailbox-based message passing,
//! bridge gather/scatter rounds with dynamic triggering (Section V),
//! and hierarchical data-transfer-aware load balancing (Section VI).
//!
//! This module holds the struct, its construction, the event loop and
//! dispatch, the metrics harvest and finalize. The event handlers live
//! in one child module per hardware layer of the paper:
//!
//! * `unit` — core execution, spawn routing, mailbox emission, message
//!   delivery and borrow/return of lent blocks;
//! * `rank` — the level-1 rank bridge: gather/scatter rounds,
//!   STATE-GATHER and rank-level load balancing;
//! * `host` — the level-2 host bridge: host polls and rounds,
//!   cross-rank load balancing and DIMM-Link rounds;
//! * `audit` — the conservation-law scans of [`crate::audit`].

use std::time::Instant;

use ndpb_dram::{AddressMap, Bus, EnergyBreakdown};
use ndpb_proto::Message;
use ndpb_sim::stats::FinishTimes;
use ndpb_sim::{EventQueue, SimRng, SimTime};
use ndpb_tasks::{Application, ExecCtx, Task, Timestamp};
use ndpb_trace::{ComponentId, MetricId, MetricsRegistry, TraceEvent, TraceRecord, TraceSink};

use crate::audit::AuditLevel;
use crate::bridge::{HostBridge, RankBridge};
use crate::config::SystemConfig;
use crate::design::{CommPath, DesignPoint, LbPolicy};
use crate::epoch::EpochTracker;
use crate::pool::Slab;
use crate::result::{ProfileStats, RunResult};
use crate::unit::NdpUnit;

use audit::AuditState;

mod audit;
mod host;
mod rank;
#[cfg(test)]
mod tests;
mod unit;

/// Synthetic row ids for controller-managed bank regions (beyond the
/// data rows, like the paper's reserved addresses).
const MAILBOX_ROW: u64 = 1 << 21;
const TASKQ_ROW: u64 = (1 << 21) + 1;
const BORROW_ROW: u64 = (1 << 21) + 2;

/// Hard event cap: a correctness watchdog against livelock, far above
/// anything a legitimate run needs.
const MAX_EVENTS: u64 = 2_000_000_000;

/// A queued event. Events carry handles, not payloads: a finished
/// task waits in its unit's in-flight slot and a message in transit in
/// [`System::msgs`], so the queue moves a few bytes per event instead of
/// a task, its spawn list or a message.
#[derive(Debug)]
enum Ev {
    /// Wake a unit's core to execute the next task.
    CoreWake(u32),
    /// The task in a unit's in-flight slot finished; deliver its
    /// children.
    TaskDone(u32),
    /// A message (slab handle) arrives at a unit.
    Deliver(u32, u32),
    /// Periodic STATE-GATHER + load-balancing pass at a rank bridge.
    RankState(u32),
    /// A gather/scatter round at a rank bridge.
    RankRound(u32),
    /// Periodic host-side state poll (level-2 LB + round triggering).
    HostState,
    /// A host (level-2 / baseline-C) forwarding round.
    HostRound,
    /// A DIMM-Link round: drain one rank bridge's upward mailbox over
    /// its peer-to-peer link (bypassing the host).
    LinkRound(u32),
    /// A message (slab handle) arriving at a rank bridge over a
    /// DIMM-Link.
    LinkDeliver(u32, u32),
}

// Handle-sized events keep the timer wheel's nodes small; a payload
// creeping back into `Ev` fails the build.
const _: () = assert!(std::mem::size_of::<Ev>() <= 16);

/// The simulated NDP system.
pub struct System {
    cfg: SystemConfig,
    design: DesignPoint,
    comm: CommPath,
    lb: LbPolicy,
    map: AddressMap,
    app: Box<dyn Application>,
    /// The event queue: one timer wheel popping in `(time, seq)` order.
    q: EventQueue<Ev>,
    units: Vec<NdpUnit>,
    bridges: Vec<RankBridge>,
    host: HostBridge,
    rank_bus: Vec<Bus>,
    channel: Vec<Bus>,
    /// Per-rank egress DIMM-Links (empty unless `cfg.dimm_link`).
    link_bus: Vec<Bus>,
    link_scheduled: Vec<bool>,
    epochs: EpochTracker,
    done: bool,
    /// Optional event trace sink (`None` = tracing off: hooks cost one
    /// branch). Attached via [`System::set_trace`], drained into
    /// [`RunResult::trace`] by `finalize`.
    trace: Option<Box<dyn TraceSink>>,
    /// Hierarchical run metrics, snapshotted at every epoch barrier.
    /// Supersedes the loose aggregate fields this struct used to carry.
    metrics: MetricsRegistry,
    m: SysMetrics,
    /// The audit switch and the violations flagged inline (see
    /// [`crate::audit`]); inert when `cfg.audit` is [`AuditLevel::Off`].
    audit: AuditState,
    /// Recycled staging buffer for gather/scatter message batches. Round
    /// handlers `mem::take` it, drain a mailbox or scatter buffer into
    /// it, consume it, and hand it back — so the steady-state event loop
    /// does no per-batch heap allocation.
    msg_scratch: Vec<Message>,
    /// Messages riding `Deliver`/`LinkDeliver` events, parked behind
    /// the events' slab handles. The audit counts them as in flight.
    msgs: Slab<Message>,
    /// Recycled per-destination grouping table for the direct (C/R)
    /// scatter path; inner `Vec`s cycle through [`Self::vec_pool`].
    per_unit_scratch: Vec<(usize, Vec<Message>)>,
    /// Free list of empty message `Vec`s backing `per_unit_scratch`.
    vec_pool: crate::pool::BufPool<Message>,
    /// Persistent execution context: task reads/writes/spawns land in
    /// recycled buffers instead of three fresh `Vec`s per task.
    exec_ctx: ExecCtx,
    /// Free list of spawn `Vec`s cycling between units' in-flight slots
    /// and [`Self::exec_ctx`].
    spawn_pool: crate::pool::BufPool<Task>,
    /// Event-loop phase profile, armed by [`System::set_profile`] and
    /// surfaced as [`RunResult::profile`]. Deliberately *not* part of
    /// [`SystemConfig`]: the config's debug representation is hashed
    /// into cache fingerprints, and a wall-clock measurement toggle
    /// must never change a result's identity.
    profile: Option<ProfileStats>,
}

/// Per-cause attribution of communication-DRAM traffic. Every byte
/// added to `system/comm_dram_bytes` is also charged to exactly one
/// cause (via [`System::charge_comm`]), so the ledger rows sum to the
/// total — an equality the auditor checks.
#[derive(Debug, Clone, Copy)]
enum CommCause {
    /// Local in-DRAM task-queue appends (same-unit spawns).
    Taskq,
    /// RowClone bank-to-bank copies (design R).
    RowClone,
    /// Mailbox writes of ordinary task messages.
    MailTask,
    /// Mailbox writes of LB-scheduled task messages.
    MailSched,
    /// Mailbox writes of block-assignment data messages.
    MailData,
    /// Mailbox writes of return-home data messages.
    MailReturn,
    /// Bridge gather reads of bank mailbox regions.
    Gather,
    /// Bridge scatter writes into destination banks.
    Scatter,
    /// Host direct-poll gather reads (designs C/R).
    HostGather,
    /// Host direct scatter writes (designs C/R).
    HostScatter,
}

impl CommCause {
    const NAMES: [&'static str; 10] = [
        "ledger/comm/taskq",
        "ledger/comm/rowclone",
        "ledger/comm/mail_task",
        "ledger/comm/mail_sched",
        "ledger/comm/mail_data",
        "ledger/comm/mail_return",
        "ledger/comm/gather",
        "ledger/comm/scatter",
        "ledger/comm/host_gather",
        "ledger/comm/host_scatter",
    ];
}

/// Per-cause attribution of SRAM staging traffic (the
/// `system/sram_staged_bytes` counterpart of [`CommCause`]).
#[derive(Debug, Clone, Copy)]
enum SramCause {
    /// Borrowed-region metadata updates on block admission.
    BorrowMeta,
    /// Messages staged into bridge buffers during gathers.
    BridgeGather,
    /// Messages staged out of bridge buffers during scatters.
    BridgeScatter,
    /// STATE-GATHER child-state bytes.
    State,
    /// DIMM-Link staging.
    Link,
    /// Host-bridge gather staging (level-2 rounds).
    HostGather,
}

impl SramCause {
    const NAMES: [&'static str; 6] = [
        "ledger/sram/borrow_meta",
        "ledger/sram/bridge_gather",
        "ledger/sram/bridge_scatter",
        "ledger/sram/state",
        "ledger/sram/link",
        "ledger/sram/host_gather",
    ];
}

/// Pre-registered [`MetricId`]s for the system's counters, so hot paths
/// update by index instead of by name.
struct SysMetrics {
    // Hot counters, updated inline.
    comm_dram_bytes: MetricId,
    msgs_delivered: MetricId,
    blocks_migrated: MetricId,
    sram_staged_bytes: MetricId,
    epoch: MetricId,
    // Gauges harvested from component stats at snapshot time.
    unit_tasks_executed: MetricId,
    unit_tasks_rerouted: MetricId,
    unit_mailbox_stalls: MetricId,
    sketch_reserved_hits: MetricId,
    sketch_reserved_overflows: MetricId,
    bridge_gathers: MetricId,
    bridge_wasted_gathers: MetricId,
    bridge_scatters: MetricId,
    bridge_bytes_gathered: MetricId,
    bridge_bytes_scattered: MetricId,
    bridge_lb_rounds: MetricId,
    bridge_schedules: MetricId,
    host_bytes_gathered: MetricId,
    host_bytes_scattered: MetricId,
    host_lb_rounds: MetricId,
    bus_rank_bytes: MetricId,
    bus_channel_bytes: MetricId,
    sketch_reserved_peak_chunks: MetricId,
    sketch_reserved_peak_tasks: MetricId,
    /// Per-cause traffic ledger rows, indexed by [`CommCause`].
    ledger_comm: [MetricId; 10],
    /// Per-cause SRAM staging rows, indexed by [`SramCause`].
    ledger_sram: [MetricId; 6],
}

impl SysMetrics {
    fn register(reg: &mut MetricsRegistry) -> Self {
        SysMetrics {
            comm_dram_bytes: reg.register("system/comm_dram_bytes"),
            msgs_delivered: reg.register("system/msgs_delivered"),
            blocks_migrated: reg.register("system/blocks_migrated"),
            sram_staged_bytes: reg.register("system/sram_staged_bytes"),
            epoch: reg.register("system/epoch"),
            unit_tasks_executed: reg.register("unit/tasks_executed"),
            unit_tasks_rerouted: reg.register("unit/tasks_rerouted"),
            unit_mailbox_stalls: reg.register("unit/mailbox_stalls"),
            sketch_reserved_hits: reg.register("sketch/reserved_hits"),
            sketch_reserved_overflows: reg.register("sketch/reserved_overflows"),
            bridge_gathers: reg.register("bridge/gathers"),
            bridge_wasted_gathers: reg.register("bridge/wasted_gathers"),
            bridge_scatters: reg.register("bridge/scatters"),
            bridge_bytes_gathered: reg.register("bridge/bytes_gathered"),
            bridge_bytes_scattered: reg.register("bridge/bytes_scattered"),
            bridge_lb_rounds: reg.register("bridge/lb_rounds"),
            bridge_schedules: reg.register("bridge/schedules"),
            host_bytes_gathered: reg.register("host/bytes_gathered"),
            host_bytes_scattered: reg.register("host/bytes_scattered"),
            host_lb_rounds: reg.register("host/lb_rounds"),
            bus_rank_bytes: reg.register("bus/rank_bytes"),
            bus_channel_bytes: reg.register("bus/channel_bytes"),
            sketch_reserved_peak_chunks: reg.register("sketch/reserved_peak_chunks"),
            sketch_reserved_peak_tasks: reg.register("sketch/reserved_peak_tasks"),
            ledger_comm: CommCause::NAMES.map(|n| reg.register(n)),
            ledger_sram: SramCause::NAMES.map(|n| reg.register(n)),
        }
    }
}

// The sweep engine builds a `System` on one thread and may run it on
// another, and ships `RunResult`s back over channels. Every field is
// owned data; the two boxed trait objects (`Application`, `TraceSink`)
// carry `Send` as a supertrait. This assertion turns any future
// `Rc`/non-`Send` regression into a compile error at the source.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<System>();
    assert_send::<RunResult>();
};

/// Reborrows the optional sink as the `Option<&mut dyn TraceSink>` the
/// component hooks take. (`Option::as_deref_mut` alone cannot shorten
/// the trait object's `'static` bound inside the `Option`, so every
/// hook site goes through this.)
fn sink(trace: &mut Option<Box<dyn TraceSink>>) -> Option<&mut dyn TraceSink> {
    match trace {
        Some(b) => Some(b.as_mut()),
        None => None,
    }
}

impl System {
    /// Builds a system running `app` under `design` with `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`SystemConfig::validate`]).
    pub fn new(cfg: SystemConfig, design: DesignPoint, app: Box<dyn Application>) -> Self {
        cfg.validate();
        let mut rng = SimRng::new(cfg.seed);
        let map = AddressMap::new(&cfg.geometry, cfg.g_xfer, cfg.timing.row_bytes);
        // Fork order (units, then bridges, then host) fixes every
        // component's RNG stream.
        let units: Vec<NdpUnit> = cfg
            .geometry
            .all_units()
            .map(|id| NdpUnit::new(id, &cfg, rng.fork(id.0 as u64)))
            .collect();
        let bridges: Vec<RankBridge> = (0..cfg.geometry.total_ranks())
            .map(|r| {
                RankBridge::new(
                    cfg.geometry.units_per_rank() as usize,
                    &cfg,
                    rng.fork(1_000_000 + r as u64),
                )
            })
            .collect();
        let host_rng = rng.fork(2_000_000);
        let host = HostBridge::new(cfg.geometry.total_ranks() as usize, &cfg, host_rng);
        let rank_bus = (0..cfg.geometry.total_ranks())
            .map(|_| Bus::new(cfg.geometry.intra_rank_data_bits()))
            .collect();
        let channel = (0..cfg.geometry.channels)
            .map(|_| Bus::new(cfg.geometry.channel_dq_bits()))
            .collect();
        let link_bus = match cfg.dimm_link {
            Some(bits) => (0..cfg.geometry.total_ranks())
                .map(|_| Bus::new(bits))
                .collect(),
            None => Vec::new(),
        };
        let link_scheduled = vec![false; cfg.geometry.total_ranks() as usize];
        let mut metrics = MetricsRegistry::new();
        let m = SysMetrics::register(&mut metrics);
        let audit = AuditState::new(cfg.audit != AuditLevel::Off);
        System {
            comm: design.comm_path(),
            lb: design.lb_policy(),
            design,
            map,
            app,
            q: EventQueue::new(),
            units,
            bridges,
            host,
            rank_bus,
            channel,
            link_bus,
            link_scheduled,
            epochs: EpochTracker::new(),
            done: false,
            trace: None,
            metrics,
            m,
            audit,
            cfg,
            msg_scratch: Vec::new(),
            msgs: Slab::new(),
            per_unit_scratch: Vec::new(),
            vec_pool: crate::pool::BufPool::new(),
            exec_ctx: ExecCtx::new(ndpb_dram::UnitId(0)),
            spawn_pool: crate::pool::BufPool::new(),
            profile: None,
        }
    }

    /// Charges communication-DRAM traffic to the system total and the
    /// matching per-cause ledger row (the audit checks they stay equal).
    fn charge_comm(&mut self, cause: CommCause, bytes: u64) {
        self.metrics.add(self.m.comm_dram_bytes, bytes);
        self.metrics.add(self.m.ledger_comm[cause as usize], bytes);
    }

    /// Charges SRAM staging traffic to the total and its ledger row.
    fn charge_sram(&mut self, cause: SramCause, bytes: u64) {
        self.metrics.add(self.m.sram_staged_bytes, bytes);
        self.metrics.add(self.m.ledger_sram[cause as usize], bytes);
    }

    /// Parks `msg` in [`Self::msgs`] and schedules its arrival at `dest`
    /// as `ev` (`Ev::Deliver` to a unit, `Ev::LinkDeliver` to a rank).
    fn schedule_delivery(
        &mut self,
        at: SimTime,
        ev: fn(u32, u32) -> Ev,
        dest: usize,
        msg: Message,
    ) {
        let m = self.msgs.insert(msg);
        self.q.schedule(at, ev(dest as u32, m));
    }

    /// Attaches a trace sink; events recorded during [`run`](Self::run)
    /// are drained into [`RunResult::trace`](crate::result::RunResult).
    /// Without a sink every hook costs a single branch.
    pub fn set_trace(&mut self, sink: Box<dyn TraceSink>) {
        self.trace = Some(sink);
    }

    /// Arms the event-loop phase profiler: [`run`](Self::run) will
    /// attribute wall time to queue ops vs. handler dispatch vs.
    /// finalization and count same-tick batches, surfacing both as
    /// [`RunResult::profile`]. Profiled runs produce
    /// byte-identical results; the profile itself never reaches golden
    /// JSON or the result cache.
    pub fn set_profile(&mut self) {
        self.profile = Some(ProfileStats::default());
    }

    /// The address map in force (for tests and workload setup).
    pub fn address_map(&self) -> &AddressMap {
        &self.map
    }

    /// Dispatches one event to its handler.
    fn dispatch(&mut self, ev: Ev) {
        match ev {
            Ev::CoreWake(u) => self.on_core_wake(u as usize),
            Ev::TaskDone(u) => self.on_task_done(u as usize),
            Ev::Deliver(u, m) => {
                let msg = self.msgs.take(m);
                self.on_deliver(u as usize, msg);
            }
            Ev::RankState(r) => self.on_rank_state(r as usize),
            Ev::RankRound(r) => self.on_rank_round(r as usize),
            Ev::HostState => self.on_host_state(),
            Ev::HostRound => self.on_host_round(),
            Ev::LinkRound(r) => self.on_link_round(r as usize),
            Ev::LinkDeliver(r, m) => {
                let msg = self.msgs.take(m);
                self.on_link_deliver(r as usize, msg);
            }
        }
    }

    /// Runs the application to completion and returns the metrics.
    pub fn run(mut self) -> RunResult {
        self.inject_initial();
        // An application with no tasks is already done; don't arm the
        // periodic machinery at all.
        if self.epochs.all_done() {
            self.done = true;
            return self.finalize();
        }
        // Periodic machinery.
        for r in 0..self.bridges.len() {
            if self.comm == CommPath::Bridges {
                self.bridges[r].state_scheduled = true;
                self.q.schedule(self.cfg.i_state(), Ev::RankState(r as u32));
            }
        }
        self.q.schedule(self.cfg.i_state(), Ev::HostState);

        // Batched same-tick dispatch: one head scan + bitmap walk +
        // overflow compare per *run* instead of per event, with pop
        // order byte-identical to single pops by the `pop_run` contract
        // (DESIGN.md §3c). An armed profile brackets each pop and each
        // batch with clock reads; unarmed, the reads are skipped.
        let mut prof = self.profile.take();
        let mut batch: Vec<Ev> = Vec::with_capacity(64);
        loop {
            let t0 = prof.is_some().then(Instant::now);
            let popped = self.q.pop_run(&mut batch).is_some();
            if let (Some(p), Some(t0)) = (&mut prof, t0) {
                p.queue_ns += t0.elapsed().as_nanos() as u64;
            }
            if !popped {
                break;
            }
            assert!(
                self.q.popped() < MAX_EVENTS,
                "event watchdog tripped: likely livelock in {} on {}",
                self.design,
                self.app.name()
            );
            if let Some(p) = &mut prof {
                p.note_batch(batch.len());
            }
            let t1 = prof.is_some().then(Instant::now);
            for ev in batch.drain(..) {
                self.dispatch(ev);
            }
            if let (Some(p), Some(t1)) = (&mut prof, t1) {
                p.dispatch_ns += t1.elapsed().as_nanos() as u64;
            }
        }
        self.profile = prof;
        assert!(
            self.epochs.all_done(),
            "simulation drained its event queue with {} tasks outstanding ({} on {})",
            self.epochs.total_outstanding(),
            self.design,
            self.app.name()
        );
        self.finalize()
    }

    // ---- metrics + finalize ---------------------------------------------------

    /// Refreshes the harvested gauges (component-owned counters) in the
    /// registry so a snapshot sees a consistent picture.
    fn harvest_metrics(&mut self) {
        let mut tasks = 0u64;
        let mut rerouted = 0u64;
        let mut stalls = 0u64;
        let mut hits = 0u64;
        let mut overflows = 0u64;
        let mut peak_chunks = 0u64;
        let mut peak_tasks = 0u64;
        for u in &self.units {
            tasks += u.stats.tasks_executed.get();
            rerouted += u.stats.tasks_rerouted.get();
            stalls += u.stats.mailbox_stalls.get();
            let (h, o) = u.reserved_stats();
            hits += h;
            overflows += o;
            let (pc, pt) = u.reserved_peaks();
            peak_chunks = peak_chunks.max(pc as u64);
            peak_tasks = peak_tasks.max(pt as u64);
        }
        self.metrics.set(self.m.unit_tasks_executed, tasks);
        self.metrics.set(self.m.unit_tasks_rerouted, rerouted);
        self.metrics.set(self.m.unit_mailbox_stalls, stalls);
        self.metrics.set(self.m.sketch_reserved_hits, hits);
        self.metrics
            .set(self.m.sketch_reserved_overflows, overflows);
        self.metrics
            .set(self.m.sketch_reserved_peak_chunks, peak_chunks);
        self.metrics
            .set(self.m.sketch_reserved_peak_tasks, peak_tasks);
        let sum = |f: &dyn Fn(&RankBridge) -> u64| self.bridges.iter().map(f).sum::<u64>();
        self.metrics
            .set(self.m.bridge_gathers, sum(&|b| b.stats.gathers.get()));
        self.metrics.set(
            self.m.bridge_wasted_gathers,
            sum(&|b| b.stats.wasted_gathers.get()),
        );
        self.metrics
            .set(self.m.bridge_scatters, sum(&|b| b.stats.scatters.get()));
        self.metrics.set(
            self.m.bridge_bytes_gathered,
            sum(&|b| b.stats.bytes_gathered.get()),
        );
        self.metrics.set(
            self.m.bridge_bytes_scattered,
            sum(&|b| b.stats.bytes_scattered.get()),
        );
        self.metrics
            .set(self.m.bridge_lb_rounds, sum(&|b| b.stats.lb_rounds.get()));
        self.metrics
            .set(self.m.bridge_schedules, sum(&|b| b.stats.schedules.get()));
        self.metrics.set(
            self.m.host_bytes_gathered,
            self.host.stats.bytes_gathered.get(),
        );
        self.metrics.set(
            self.m.host_bytes_scattered,
            self.host.stats.bytes_scattered.get(),
        );
        self.metrics
            .set(self.m.host_lb_rounds, self.host.stats.lb_rounds.get());
        self.metrics.set(
            self.m.bus_rank_bytes,
            self.rank_bus.iter().map(|b| b.bytes.get()).sum(),
        );
        self.metrics.set(
            self.m.bus_channel_bytes,
            self.channel.iter().map(|b| b.bytes.get()).sum(),
        );
    }

    /// A bulk-synchronization barrier cleared: snapshot the metrics for
    /// this epoch and note it in the trace.
    fn note_epoch_advance(&mut self, new_epoch: Timestamp, now: SimTime) {
        self.harvest_metrics();
        self.metrics.set(self.m.epoch, new_epoch.0 as u64);
        self.metrics.snapshot(format!("epoch-{}", new_epoch.0), now);
        if let Some(tr) = sink(&mut self.trace) {
            tr.record(TraceRecord::instant(
                now,
                ComponentId::Host,
                TraceEvent::EpochAdvance { epoch: new_epoch.0 },
            ));
        }
        if self.cfg.audit.at_epochs() {
            self.run_audit(&format!("epoch-{}", new_epoch.0));
        }
    }

    fn finalize(mut self) -> RunResult {
        let finalize_start = self.profile.is_some().then(Instant::now);
        let mut finish = FinishTimes::default();
        let mut busy = FinishTimes::default();
        let mut per_unit_busy = Vec::with_capacity(self.units.len());
        let mut makespan = SimTime::ZERO;
        let mut tasks = 0u64;
        let mut rerouted = 0u64;
        let mut local_bytes = 0u64;
        for u in &self.units {
            finish.push(u.stats.last_finish);
            busy.push(u.stats.busy.total());
            per_unit_busy.push(u.stats.busy.total().ticks());
            makespan = makespan.max(u.stats.last_finish);
            tasks += u.stats.tasks_executed.get();
            rerouted += u.stats.tasks_rerouted.get();
            local_bytes += u.stats.dram_local_bytes.get();
        }
        self.harvest_metrics();
        self.metrics.snapshot("final", makespan);
        if self.cfg.audit.at_end() {
            self.run_audit("final");
        }
        let trace = self
            .trace
            .take()
            .map(|mut s| s.take_records())
            .unwrap_or_default();
        let comm_dram_bytes = self.metrics.get(self.m.comm_dram_bytes);
        let sram_staged_bytes = self.metrics.get(self.m.sram_staged_bytes);
        let max_busy = busy.max();
        let avg_busy = busy.mean();
        let wait_fraction = if makespan == SimTime::ZERO {
            0.0
        } else {
            1.0 - max_busy.ticks() as f64 / makespan.ticks() as f64
        };
        let rank_bus_bytes: u64 = self.rank_bus.iter().map(|b| b.bytes.get()).sum();
        let channel_bytes: u64 = self.channel.iter().map(|b| b.bytes.get()).sum();
        let lb_rounds = self
            .bridges
            .iter()
            .map(|b| b.stats.lb_rounds.get())
            .sum::<u64>()
            + self.host.stats.lb_rounds.get();

        let e = &self.cfg.energy;
        let core_busy_total: SimTime = self
            .units
            .iter()
            .fold(SimTime::ZERO, |acc, u| acc + u.stats.busy.total());
        let energy = EnergyBreakdown {
            core_sram_pj: e.core_pj(core_busy_total) + e.sram_pj(sram_staged_bytes),
            dram_local_pj: e.dram_pj(local_bytes),
            dram_comm_pj: e.dram_pj(comm_dram_bytes)
                + e.channel_pj(channel_bytes)
                + e.rank_pj(rank_bus_bytes),
            static_pj: e.static_pj(
                self.cfg.geometry.total_units(),
                self.cfg.geometry.total_ranks(),
                makespan,
            ),
        };
        let profile = self.profile.take().map(|mut p| {
            p.finalize_ns = finalize_start
                .map(|t| t.elapsed().as_nanos() as u64)
                .unwrap_or(0);
            p
        });
        RunResult {
            app: self.app.name().to_string(),
            design: self.design.to_string(),
            makespan,
            avg_unit_time: avg_busy,
            max_unit_time: max_busy,
            wait_fraction,
            balance: if makespan == SimTime::ZERO {
                1.0
            } else {
                avg_busy.ticks() as f64 / makespan.ticks() as f64
            },
            tasks_executed: tasks,
            tasks_rerouted: rerouted,
            messages_delivered: self.metrics.get(self.m.msgs_delivered),
            rank_bus_bytes,
            channel_bytes,
            comm_dram_bytes,
            local_dram_bytes: local_bytes,
            lb_rounds,
            blocks_migrated: self.metrics.get(self.m.blocks_migrated),
            energy,
            checksum: self.app.checksum(),
            events: self.q.popped(),
            per_unit_busy,
            metrics: self.metrics.into_report(),
            trace,
            profile,
        }
    }
}
