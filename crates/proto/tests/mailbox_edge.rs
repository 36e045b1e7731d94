//! Mailbox edge cases: ring wrap-around accounting, enqueue-on-full
//! backpressure, and the once-per-stall `mailbox-full` trace latch.

use ndpb_dram::{BlockAddr, DataAddr};
use ndpb_proto::{DataMessage, Mailbox, Message};
use ndpb_sim::SimTime;
use ndpb_tasks::{Task, TaskArgs, TaskFnId, Timestamp};
use ndpb_trace::{ComponentId, RingRecorder, TraceEvent, TraceSink};

fn task_msg() -> Message {
    Message::Task(
        Task::new(TaskFnId(0), Timestamp(0), DataAddr(0), 1, TaskArgs::EMPTY),
        None,
    )
}

fn data_msg(bytes: u32, block: u64) -> Message {
    Message::Data(
        DataMessage {
            block: BlockAddr(block),
            bytes,
            workload: 1,
        },
        None,
    )
}

/// The ring's byte accounting must survive many fill/drain cycles: after
/// wrapping the region hundreds of times, `bytes_used` still equals the
/// sum of the queued messages' wire sizes, the peak never exceeds the
/// capacity, and FIFO order is preserved across the wrap point.
#[test]
fn wraparound_keeps_accounting_and_fifo_order() {
    let msg_sz = task_msg().wire_bytes() as u64;
    // Room for exactly four task messages: every refill wraps the ring.
    let mut mb = Mailbox::new(4 * msg_sz);
    let mut next_block = 0u64;
    let mut expect_front = 0u64;
    // Seed with data messages of the same wire size as a task message so
    // the block addresses give us a sequence number to check order with.
    let data_payload = task_msg().wire_bytes() - (data_msg(0, 0).wire_bytes());
    for _round in 0..300 {
        while mb.bytes_used() + msg_sz <= mb.capacity() {
            mb.push(data_msg(data_payload, next_block)).unwrap();
            next_block += 1;
        }
        assert_eq!(mb.bytes_used(), mb.len() as u64 * msg_sz);
        assert!(mb.peak_bytes() <= mb.capacity());
        // Drain half (two messages) and check they come out in order.
        for got in mb.drain_up_to(2 * msg_sz as u32) {
            match got {
                Message::Data(d, _) => assert_eq!(d.block.0, expect_front),
                other => panic!("unexpected message {other:?}"),
            }
            expect_front += 1;
        }
        assert_eq!(mb.bytes_used(), mb.len() as u64 * msg_sz);
    }
    // The ring wrapped many times: far more messages flowed through than
    // ever fit at once.
    assert!(next_block > 500);
    assert_eq!(mb.peak_bytes(), mb.capacity());
}

/// A full mailbox must exert backpressure without losing anything: the
/// rejected message is handed back intact, the queue is untouched, the
/// stall is counted, and the retry succeeds once a drain frees space.
#[test]
fn enqueue_on_full_backpressure_preserves_state() {
    let msg_sz = task_msg().wire_bytes() as u64;
    // Capacity sized so the two seed messages fill the region exactly.
    let mut mb = Mailbox::new(data_msg(0, 10).wire_bytes() as u64 + msg_sz);
    mb.push(data_msg(0, 10)).unwrap();
    mb.push(task_msg()).unwrap();
    let used_before = mb.bytes_used();
    assert_eq!(used_before, mb.capacity());

    // `try_push` hands the message back unchanged...
    let bounced = mb
        .try_push(data_msg(0, 99))
        .expect("mailbox should be full");
    match bounced {
        Message::Data(d, _) => assert_eq!(d.block.0, 99),
        other => panic!("bounced message mutated: {other:?}"),
    }
    // ...and the mailbox is exactly as it was.
    assert_eq!(mb.bytes_used(), used_before);
    assert_eq!(mb.len(), 2);
    assert_eq!(mb.stalls(), 1);

    // `push` reports the same condition as an error with the free bytes.
    let err = mb.push(task_msg()).unwrap_err();
    assert_eq!(err.free, 0);
    assert_eq!(mb.stalls(), 2);

    // After a drain frees space the retry goes through.
    assert_eq!(mb.drain_up_to(u32::MAX).len(), 2);
    mb.push(task_msg()).expect("space was freed");
    assert_eq!(mb.len(), 1);
}

fn count_events(recs: &[ndpb_trace::TraceRecord], name: &str) -> usize {
    recs.iter().filter(|r| r.event.name() == name).count()
}

/// One traced push of a task message at tick `at`; true if accepted.
fn push(mb: &mut Mailbox, rec: &mut RingRecorder, comp: ComponentId, at: u64) -> bool {
    mb.try_push_traced(task_msg(), SimTime::from_ticks(at), comp, Some(rec))
        .is_none()
}

/// The traced push path must emit `mailbox-full` exactly once per
/// contiguous full episode — retries while still full stay silent, and
/// only a drain re-arms the latch for the next episode.
#[test]
fn full_event_emitted_once_per_stall_episode() {
    let msg_sz = task_msg().wire_bytes() as u64;
    let mut mb = Mailbox::new(msg_sz);
    let mut rec = RingRecorder::new(64);
    let comp = ComponentId::Unit(7);

    assert!(push(&mut mb, &mut rec, comp, 0));
    // First rejection of the episode: one mailbox-full event...
    assert!(!push(&mut mb, &mut rec, comp, 1));
    // ...retries while still full add nothing.
    assert!(!push(&mut mb, &mut rec, comp, 2));
    assert!(!push(&mut mb, &mut rec, comp, 3));
    let recs = rec.take_records();
    assert_eq!(count_events(&recs, "mailbox-enqueue"), 1);
    assert_eq!(count_events(&recs, "mailbox-full"), 1, "{recs:?}");
    assert_eq!(mb.stalls(), 3, "every retry still counts as a stall");

    // Draining ends the episode; the next full period emits exactly one
    // more event.
    assert_eq!(mb.drain_up_to(u32::MAX).len(), 1);
    assert!(push(&mut mb, &mut rec, comp, 4));
    assert!(!push(&mut mb, &mut rec, comp, 5));
    assert!(!push(&mut mb, &mut rec, comp, 6));
    let recs = rec.take_records();
    assert_eq!(count_events(&recs, "mailbox-full"), 1);
    let full = recs
        .iter()
        .find(|r| r.event.name() == "mailbox-full")
        .unwrap();
    assert_eq!(full.at.ticks(), 5, "event stamps the first rejection");
    match full.event {
        TraceEvent::MailboxFull { needed, used } => {
            assert_eq!(needed, task_msg().wire_bytes());
            assert_eq!(used, msg_sz);
        }
        other => panic!("wrong payload {other:?}"),
    }
}

/// A successful enqueue also clears the latch (space may be freed by the
/// consumer side between retries), so the next full period is a new
/// episode even without an intervening drain call.
#[test]
fn successful_push_rearms_full_latch() {
    let msg_sz = task_msg().wire_bytes() as u64;
    let mut mb = Mailbox::new(msg_sz);
    let mut rec = RingRecorder::new(64);
    let comp = ComponentId::Bridge(0);

    assert!(push(&mut mb, &mut rec, comp, 0));
    assert!(!push(&mut mb, &mut rec, comp, 1));
    mb.drain_up_to(u32::MAX);
    // Episode 2: fill, reject.
    assert!(push(&mut mb, &mut rec, comp, 2));
    assert!(!push(&mut mb, &mut rec, comp, 3));
    let recs = rec.take_records();
    assert_eq!(count_events(&recs, "mailbox-full"), 2);
    assert_eq!(count_events(&recs, "mailbox-enqueue"), 2);
}
