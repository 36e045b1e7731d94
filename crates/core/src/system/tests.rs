//! Unit tests of the simulator, grouped by the layer they exercise.
//! Helpers are shared with the layer modules' own tests.

use ndpb_dram::{AddressMap, BlockAddr, Geometry, UnitId};
use ndpb_proto::message::DataMessage;
use ndpb_proto::Message;
use ndpb_sim::SimTime;
use ndpb_tasks::{Application, ExecCtx, Task, TaskArgs, TaskFnId, Timestamp};

use super::{Ev, System};
use crate::audit::AuditLevel;
use crate::config::SystemConfig;
use crate::design::DesignPoint;

/// A do-nothing app for constructing systems in unit tests.
struct Noop;

impl Application for Noop {
    fn name(&self) -> &str {
        "noop"
    }
    fn initial_tasks(&mut self) -> Vec<Task> {
        Vec::new()
    }
    fn execute(&mut self, _t: &Task, ctx: &mut ExecCtx) {
        ctx.compute(1);
    }
}

pub(super) fn sys(design: DesignPoint) -> System {
    let mut cfg = SystemConfig::with_geometry(Geometry::with_total_ranks(2));
    cfg.seed = 5;
    System::new(cfg, design, Box::new(Noop))
}

pub(super) fn task_on(s: &System, unit: u32, offset: u64) -> Task {
    Task::new(
        TaskFnId(0),
        Timestamp(0),
        s.map.addr_in_unit(UnitId(unit), offset),
        3,
        TaskArgs::EMPTY,
    )
}

/// Delivers `msg` at unit `u` the way the event loop does: parked in
/// the message slab behind a `Deliver` event, then dispatched.
fn deliver(s: &mut System, u: usize, msg: Message) {
    let h = s.msgs.insert(msg);
    s.dispatch(Ev::Deliver(u as u32, h));
}

// ---- unit layer ----------------------------------------------------

#[test]
fn emit_stalls_into_pending_when_mailbox_full() {
    let mut s = sys(DesignPoint::B);
    // Shrink unit 0's mailbox to one message.
    s.units[0].mailbox = ndpb_proto::Mailbox::new(24);
    let m1 = Message::Task(task_on(&s, 7, 0), None);
    let m2 = Message::Task(task_on(&s, 8, 0), None);
    s.emit_message(0, m1, SimTime::ZERO);
    assert!(s.units[0].pending_out.is_empty());
    s.emit_message(0, m2, SimTime::ZERO);
    assert_eq!(s.units[0].pending_out.len(), 1);
    assert_eq!(s.units[0].stats.mailbox_stalls.get(), 1);
}

#[test]
fn return_block_home_clears_all_metadata() {
    let mut s = sys(DesignPoint::O);
    let t = task_on(&s, 5, 0);
    let block = s.map.block_of(t.data);
    s.units[5].is_lent.set(block);
    s.bridges[0].data_borrowed.insert(block, UnitId(9));
    s.host.data_borrowed.insert(block, ndpb_dram::RankId(0));
    s.units[9].admit_borrow(block);
    s.return_block_home(9, block, SimTime::ZERO);
    assert!(s.bridges[0].data_borrowed.peek(&block).is_none());
    assert!(s.host.data_borrowed.peek(&block).is_none());
    // The return data message is in unit 9's mailbox.
    assert!(!s.units[9].mailbox.is_empty());
}

#[test]
fn scheduled_task_settles_to_arrive_for_intended_receiver_once() {
    let mut s = sys(DesignPoint::W);
    s.audit.enabled = true;
    // A scheduled task intended for u9 is delivered at u9, which
    // does not hold the block: the reroute must still settle both
    // toArrive levels (u9 was the intended receiver) and clear the
    // marker so the forwarded copy settles nothing further.
    let t = task_on(&s, 5, 0);
    let wl = t.workload_or_default();
    s.bridges[0].to_arrive[9] = wl;
    s.host.to_arrive[0] = wl;
    let msg = Message::Task(t, Some(UnitId(9)));
    deliver(&mut s, 9, msg);
    assert_eq!(s.bridges[0].to_arrive[9], 0);
    assert_eq!(s.host.to_arrive[0], 0);
    assert_eq!(s.units[9].stats.tasks_rerouted.get(), 1);
    // The re-emitted copy carries no marker.
    let mut fwd = s.units[9].mailbox.iter();
    assert!(matches!(fwd.next(), Some(Message::Task(_, None))));
    assert!(fwd.next().is_none());
}

#[test]
fn returned_block_can_be_relent_cleanly() {
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
    // First lend: u5 → u9, admitted.
    s.units[5].is_lent.set(a);
    s.note_block_in_rank(0, &dmsg);
    deliver(&mut s, 9, dmsg.clone());
    assert!(s.units[9].is_borrowed(a));
    // Return home: metadata cleared, lent bit dropped.
    assert!(s.units[9].remove_borrow(a));
    s.return_block_home(9, a, SimTime::ZERO);
    let ret = Message::Data(
        DataMessage {
            block: a,
            bytes: s.cfg.g_xfer,
            workload: 0,
        },
        UnitId(5),
    );
    deliver(&mut s, 5, ret);
    assert!(!s.units[5].is_lent.is_lent(a));
    // Immediate re-lend of the just-returned block is clean.
    s.units[5].is_lent.set(a);
    s.note_block_in_rank(0, &dmsg);
    deliver(&mut s, 9, dmsg);
    assert!(s.units[9].is_borrowed(a));
    assert_eq!(s.bridges[0].data_borrowed.peek(&a), Some(&UnitId(9)));
}

// ---- rank bridge ---------------------------------------------------

#[test]
fn route_at_rank_sends_home_by_default() {
    let mut s = sys(DesignPoint::B);
    let msg = Message::Task(task_on(&s, 5, 0), None);
    assert_eq!(s.route_at_rank(0, &msg), Some(5));
    // A unit of the other rank routes upward.
    let far = Message::Task(task_on(&s, 64, 0), None);
    assert_eq!(s.route_at_rank(0, &far), None);
    assert_eq!(s.route_at_rank(1, &far), Some(64));
}

#[test]
fn route_follows_bridge_metadata_for_borrowed_blocks() {
    let mut s = sys(DesignPoint::O);
    let t = task_on(&s, 5, 0);
    let block = s.map.block_of(t.data);
    // Simulate a migration: home marks lent, bridge maps to unit 9.
    s.units[5].is_lent.set(block);
    s.bridges[0].data_borrowed.insert(block, UnitId(9));
    let msg = Message::Task(t, None);
    assert_eq!(s.route_at_rank(0, &msg), Some(9));
}

#[test]
fn lent_block_without_local_entry_routes_upward() {
    let mut s = sys(DesignPoint::O);
    let t = task_on(&s, 5, 0);
    let block = s.map.block_of(t.data);
    // Lent cross-rank: home bitmap set, no rank-bridge entry, host
    // knows the rank.
    s.units[5].is_lent.set(block);
    s.host.data_borrowed.insert(block, ndpb_dram::RankId(1));
    let msg = Message::Task(t, None);
    assert_eq!(s.route_at_rank(0, &msg), None, "must escalate");
    assert_eq!(s.route_at_host(&msg), 1);
}

#[test]
fn data_messages_route_by_explicit_destination() {
    let mut s = sys(DesignPoint::O);
    let dm = DataMessage {
        block: BlockAddr(0),
        bytes: 256,
        workload: 1,
    };
    let msg = Message::Data(dm, UnitId(70));
    assert_eq!(s.route_at_rank(0, &msg), None);
    assert_eq!(s.route_at_rank(1, &msg), Some(70));
    assert_eq!(s.route_at_host(&msg), 1);
}

#[test]
fn w_threshold_falls_back_before_estimates() {
    let s = sys(DesignPoint::O);
    // No state gathers yet: S_exe estimate is 0 → conservative
    // G_xfer fallback.
    assert_eq!(s.rank_w_threshold(0), s.cfg.g_xfer as u64);
}

#[test]
fn evicting_an_in_flight_block_leaves_no_orphan() {
    let mut s = sys(DesignPoint::O);
    s.audit.enabled = true;
    let cap = s.bridges[0].data_borrowed.capacity();
    // Block A is scheduled toward u9 but its data is still in
    // flight (not admitted anywhere).
    let a = s.map.block_of(task_on(&s, 5, 0).data);
    s.units[5].is_lent.set(a);
    let gx = s.cfg.g_xfer;
    let dm = move |block| DataMessage {
        block,
        bytes: gx,
        workload: 1,
    };
    s.note_block_in_rank(0, &Message::Data(dm(a), UnitId(9)));
    assert_eq!(s.bridges[0].data_borrowed.peek(&a), Some(&UnitId(9)));
    // Fill the table until A's entry is evicted while in flight.
    for i in 0..cap as u64 {
        let b = s.map.block_of(task_on(&s, 6, s.cfg.g_xfer as u64 * i).data);
        s.units[6].is_lent.set(b);
        s.note_block_in_rank(0, &Message::Data(dm(b), UnitId(10)));
    }
    assert!(s.bridges[0].data_borrowed.peek(&a).is_none());
    // No bogus return was emitted from u9 (it never held A).
    assert!(s.units[9].mailbox.is_empty());
    // When A's data finally arrives, the stale check bounces it
    // home instead of admitting an orphan borrow.
    deliver(&mut s, 9, Message::Data(dm(a), UnitId(9)));
    assert!(!s.units[9].is_borrowed(a));
    let mut bounced = s.units[9].mailbox.iter();
    match bounced.next() {
        Some(Message::Data(d, dest)) if d.block == a && *dest == UnitId(5) => {}
        other => panic!("expected a bounce-home data message, got {other:?}"),
    }
}

// ---- host bridge ---------------------------------------------------

#[test]
fn direct_dest_is_home_unit() {
    let s = sys(DesignPoint::C);
    let t = task_on(&s, 42, 128);
    assert_eq!(s.direct_dest_unit(&Message::Task(t, None)), 42);
}

// ---- event loop, metrics and trace ---------------------------------

#[test]
fn noop_system_terminates_immediately() {
    let r = sys(DesignPoint::O).run();
    assert_eq!(r.tasks_executed, 0);
    assert_eq!(r.makespan, SimTime::ZERO);
    assert_eq!(r.balance, 1.0);
    // No sink attached: the trace comes back empty, metrics still
    // carry the final snapshot.
    assert!(r.trace.is_empty());
    assert_eq!(r.metrics.final_value("unit/tasks_executed"), Some(0));
}

/// Epoch-0 tasks on unit 0 that each spawn an epoch-1 child on the
/// far rank: forces mailbox traffic, bridge rounds and an epoch
/// barrier, i.e. every traced subsystem.
struct Fan {
    map: AddressMap,
}

impl Application for Fan {
    fn name(&self) -> &str {
        "fan"
    }
    fn initial_tasks(&mut self) -> Vec<Task> {
        (0..8)
            .map(|i| {
                Task::new(
                    TaskFnId(0),
                    Timestamp(0),
                    self.map.addr_in_unit(UnitId(0), 64 * i),
                    3,
                    TaskArgs::EMPTY,
                )
            })
            .collect()
    }
    fn execute(&mut self, t: &Task, ctx: &mut ExecCtx) {
        ctx.compute(10);
        ctx.read(t.data, 64);
        if t.func.0 == 0 {
            ctx.spawn(Task::new(
                TaskFnId(1),
                Timestamp(1),
                self.map.addr_in_unit(UnitId(70), t.data.0 % 512),
                3,
                TaskArgs::EMPTY,
            ));
        }
    }
}

#[test]
fn traced_run_captures_bridge_mailbox_and_task_events() {
    let mut cfg = SystemConfig::with_geometry(Geometry::with_total_ranks(2));
    cfg.seed = 5;
    let map = AddressMap::new(&cfg.geometry, cfg.g_xfer, cfg.timing.row_bytes);
    let mut s = System::new(cfg, DesignPoint::O, Box::new(Fan { map }));
    s.set_trace(Box::new(ndpb_trace::RingRecorder::new(1 << 16)));
    let r = s.run();
    assert_eq!(r.tasks_executed, 16);
    let names: std::collections::HashSet<&str> = r.trace.iter().map(|t| t.event.name()).collect();
    for required in [
        "task",
        "gather",
        "scatter",
        "mailbox-enqueue",
        "epoch",
        "bus-transfer",
    ] {
        assert!(names.contains(required), "missing {required} in {names:?}");
    }
    // The metrics report agrees with the headline result fields and
    // holds one snapshot per epoch barrier plus the final one.
    assert_eq!(
        r.metrics.final_value("system/msgs_delivered"),
        Some(r.messages_delivered)
    );
    assert_eq!(
        r.metrics.final_value("unit/tasks_executed"),
        Some(r.tasks_executed)
    );
    let labels: Vec<&str> = r
        .metrics
        .snapshots
        .iter()
        .map(|s| s.label.as_str())
        .collect();
    assert!(labels.contains(&"epoch-1"), "snapshots: {labels:?}");
    assert_eq!(labels.last(), Some(&"final"));
    // Chrome export of a real trace is structurally valid JSON.
    let json = ndpb_trace::chrome_trace_string(&r.trace);
    assert!(json.starts_with("{\"displayTimeUnit\""));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
}

// ---- conservation audit --------------------------------------------

#[test]
fn audit_trips_on_corrupted_data_borrowed_entry() {
    let mut s = sys(DesignPoint::O);
    s.audit.enabled = true;
    // Fabricate a bridge entry for a block whose home never lent it
    // and which nobody holds: two inclusivity laws must fire.
    let t = task_on(&s, 5, 0);
    let block = s.map.block_of(t.data);
    s.bridges[0].data_borrowed.insert(block, UnitId(9));
    let v = s.collect_violations();
    assert!(
        v.iter().any(|x| x.law == "data-borrowed-inclusivity"),
        "corruption not detected: {v:?}"
    );
    assert!(v.iter().any(|x| x.detail.contains("orphaned")), "{v:?}");
    // Repairing the entry silences the auditor again.
    s.bridges[0].data_borrowed.remove(&block);
    assert!(s.collect_violations().is_empty());
}

#[test]
fn audit_trips_on_corrupted_to_arrive_counter() {
    let mut s = sys(DesignPoint::W);
    s.audit.enabled = true;
    assert!(s.collect_violations().is_empty());
    s.bridges[1].to_arrive[3] = 7; // no scheduled task is in flight
    let v = s.collect_violations();
    assert!(
        v.iter()
            .any(|x| x.law == "to-arrive" && x.detail.contains("bridge 1 child 3")),
        "{v:?}"
    );
    // Corrupting the host-level counter trips its own law.
    s.bridges[1].to_arrive[3] = 0;
    s.host.to_arrive[0] = 9;
    let v = s.collect_violations();
    assert!(
        v.iter()
            .any(|x| x.law == "to-arrive" && x.detail.contains("host toArrive[0]")),
        "{v:?}"
    );
}

#[test]
fn audited_run_is_bit_identical_to_unaudited() {
    let run = |audit| {
        let mut cfg = SystemConfig::with_geometry(Geometry::with_total_ranks(2));
        cfg.seed = 5;
        cfg.audit = audit;
        let map = AddressMap::new(&cfg.geometry, cfg.g_xfer, cfg.timing.row_bytes);
        System::new(cfg, DesignPoint::W, Box::new(Fan { map })).run()
    };
    let a = run(AuditLevel::Full);
    let b = run(AuditLevel::Off);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.checksum, b.checksum);
    assert_eq!(a.events, b.events);
    assert_eq!(a.messages_delivered, b.messages_delivered);
    assert_eq!(a.comm_dram_bytes, b.comm_dram_bytes);
    assert_eq!(a.energy.total_pj(), b.energy.total_pj());
}
