//! Mailbox ring buffers.
//!
//! Each NDP unit statically reserves a *mailbox region* in its local DRAM
//! bank (1 MB in Table I) holding outgoing messages as a ring buffer; the
//! unit controller keeps the head/tail pointers. When the region is full
//! the next enqueue stalls the core (Section V-A). Level-1 bridges keep a
//! similar (128 kB SRAM) mailbox for messages headed to other ranks.

use std::collections::VecDeque;

use ndpb_sim::SimTime;
use ndpb_trace::{ComponentId, TraceEvent, TraceRecord, TraceSink};

use crate::message::Message;

/// Error returned when a mailbox has no room for a message; the caller
/// (core or bridge) must stall and retry after the next gather.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MailboxFull {
    /// Bytes the rejected message needed.
    pub needed: u32,
    /// Bytes currently free.
    pub free: u64,
}

impl std::fmt::Display for MailboxFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "mailbox full: message needs {} bytes, {} free",
            self.needed, self.free
        )
    }
}

impl std::error::Error for MailboxFull {}

/// A bounded FIFO of outgoing messages, accounted in wire bytes.
///
/// # Example
///
/// ```
/// use ndpb_proto::{Mailbox, Message};
/// use ndpb_tasks::{Task, TaskArgs, TaskFnId, Timestamp};
/// use ndpb_dram::DataAddr;
///
/// let mut mb = Mailbox::new(1 << 20);
/// let task = Task::new(TaskFnId(0), Timestamp(0), DataAddr(0), 1, TaskArgs::EMPTY);
/// mb.push(Message::Task(task, None))?;
/// assert!(mb.bytes_used() > 0);
/// # Ok::<(), ndpb_proto::MailboxFull>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Mailbox {
    queue: VecDeque<Message>,
    capacity_bytes: u64,
    used_bytes: u64,
    /// High-water mark of used bytes, for buffer-sizing reports.
    peak_bytes: u64,
    /// Count of enqueues rejected because the region was full.
    stalls: u64,
    /// Latch for the full-mailbox trace event: set on the first rejected
    /// enqueue of a full episode, cleared when space frees. Keeps the
    /// traced paths from emitting one event per retry.
    full_latched: bool,
}

impl Mailbox {
    /// Creates a mailbox of `capacity_bytes`.
    pub fn new(capacity_bytes: u64) -> Self {
        Mailbox {
            queue: VecDeque::new(),
            capacity_bytes,
            used_bytes: 0,
            peak_bytes: 0,
            stalls: 0,
            full_latched: false,
        }
    }

    /// Appends a message to the tail.
    ///
    /// # Errors
    ///
    /// Returns [`MailboxFull`] (and records a stall) if the message does
    /// not fit; the mailbox is unchanged.
    pub fn push(&mut self, msg: Message) -> Result<(), MailboxFull> {
        let needed = msg.wire_bytes();
        let free = self.capacity_bytes - self.used_bytes;
        match self.try_push(msg) {
            None => Ok(()),
            Some(_) => Err(MailboxFull { needed, free }),
        }
    }

    /// Like [`Mailbox::push`], but hands the message back on failure
    /// instead of an error (for callers that park it elsewhere).
    pub fn try_push(&mut self, msg: Message) -> Option<Message> {
        let needed = msg.wire_bytes();
        if (needed as u64) > self.capacity_bytes - self.used_bytes {
            self.stalls += 1;
            self.full_latched = true;
            return Some(msg);
        }
        self.used_bytes += needed as u64;
        self.peak_bytes = self.peak_bytes.max(self.used_bytes);
        self.queue.push_back(msg);
        self.full_latched = false;
        None
    }

    /// [`try_push`](Self::try_push) with a trace hook: emits
    /// [`TraceEvent::MailboxEnqueue`] on success, and on failure a
    /// [`TraceEvent::MailboxFull`] — but only for the *first* rejection
    /// of a full episode (latched until space frees), so one stall
    /// produces exactly one event no matter how often it is retried.
    pub fn try_push_traced(
        &mut self,
        msg: Message,
        now: SimTime,
        comp: ComponentId,
        trace: Option<&mut dyn TraceSink>,
    ) -> Option<Message> {
        let was_latched = self.full_latched;
        let needed = msg.wire_bytes();
        let res = self.try_push(msg);
        if let Some(t) = trace {
            match &res {
                None => t.record(TraceRecord::instant(
                    now,
                    comp,
                    TraceEvent::MailboxEnqueue {
                        bytes: needed,
                        used: self.used_bytes,
                    },
                )),
                Some(_) if !was_latched => t.record(TraceRecord::instant(
                    now,
                    comp,
                    TraceEvent::MailboxFull {
                        needed,
                        used: self.used_bytes,
                    },
                )),
                Some(_) => {}
            }
        }
        res
    }

    /// Pops messages from the head until up to `budget_bytes` have been
    /// drained (at least one message if any is pending, matching the
    /// fixed `G_xfer` gather granularity which always moves a full slot).
    pub fn drain_up_to(&mut self, budget_bytes: u32) -> Vec<Message> {
        let mut out = Vec::new();
        self.drain_up_to_into(budget_bytes, &mut out);
        out
    }

    /// Like [`drain_up_to`](Self::drain_up_to), but appends into a
    /// caller-provided buffer so the hot gather path can recycle one
    /// allocation across rounds. Returns the number of messages drained.
    pub fn drain_up_to_into(&mut self, budget_bytes: u32, out: &mut Vec<Message>) -> usize {
        let start = out.len();
        let mut drained = 0u32;
        while let Some(front) = self.queue.front() {
            let sz = front.wire_bytes();
            if drained != 0 && drained + sz > budget_bytes {
                break;
            }
            drained += sz;
            self.used_bytes -= sz as u64;
            out.push(self.queue.pop_front().expect("front exists"));
            if drained >= budget_bytes {
                break;
            }
        }
        if drained != 0 {
            self.full_latched = false;
        }
        out.len() - start
    }

    /// Bytes currently queued (the paper's `L_mailbox`).
    pub fn bytes_used(&self) -> u64 {
        self.used_bytes
    }

    /// Peak bytes ever queued.
    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity_bytes
    }

    /// Number of rejected enqueues.
    pub fn stalls(&self) -> u64 {
        self.stalls
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the mailbox is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Iterates over queued messages head-first (for tests/inspection).
    pub fn iter(&self) -> impl Iterator<Item = &Message> {
        self.queue.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::DataMessage;
    use ndpb_dram::{BlockAddr, DataAddr};
    use ndpb_tasks::{Task, TaskArgs, TaskFnId, Timestamp};

    fn task_msg() -> Message {
        Message::Task(
            Task::new(TaskFnId(0), Timestamp(0), DataAddr(0), 1, TaskArgs::EMPTY),
            None,
        )
    }

    fn data_msg(bytes: u32) -> Message {
        Message::Data(
            DataMessage {
                block: BlockAddr(0),
                bytes,
                workload: 1,
            },
            None,
        )
    }

    #[test]
    fn push_and_drain_fifo() {
        let mut mb = Mailbox::new(4096);
        mb.push(task_msg()).unwrap();
        mb.push(data_msg(64)).unwrap();
        let all = mb.drain_up_to(4096);
        assert_eq!(all.len(), 2);
        assert!(all[0].is_task());
        assert!(all[1].is_data());
        assert!(mb.is_empty());
        assert_eq!(mb.bytes_used(), 0);
    }

    #[test]
    fn full_mailbox_rejects_and_counts_stall() {
        let sz = task_msg().wire_bytes() as u64;
        let mut mb = Mailbox::new(sz);
        mb.push(task_msg()).unwrap();
        let err = mb.push(task_msg()).unwrap_err();
        assert_eq!(err.free, 0);
        assert_eq!(mb.stalls(), 1);
        assert_eq!(mb.len(), 1);
    }

    #[test]
    fn drain_respects_budget_but_moves_at_least_one() {
        let mut mb = Mailbox::new(1 << 20);
        for _ in 0..10 {
            mb.push(task_msg()).unwrap();
        }
        let one_size = task_msg().wire_bytes();
        // A budget smaller than one message still drains one (the gather
        // slot always moves a full G_xfer window).
        let got = mb.drain_up_to(1);
        assert_eq!(got.len(), 1);
        // A budget of 3 messages drains exactly 3.
        let got = mb.drain_up_to(3 * one_size);
        assert_eq!(got.len(), 3);
        assert_eq!(mb.len(), 6);
    }

    #[test]
    fn peak_tracks_high_water() {
        let mut mb = Mailbox::new(1 << 20);
        mb.push(data_msg(256)).unwrap();
        let peak = mb.bytes_used();
        mb.drain_up_to(u32::MAX);
        assert_eq!(mb.peak_bytes(), peak);
        assert_eq!(mb.bytes_used(), 0);
    }

    #[test]
    fn display_of_full_error() {
        let mut mb = Mailbox::new(1);
        let err = mb.push(task_msg()).unwrap_err();
        let s = err.to_string();
        assert!(s.contains("mailbox full"), "{s}");
    }

    #[test]
    fn iter_sees_queue_order() {
        let mut mb = Mailbox::new(1 << 20);
        mb.push(task_msg()).unwrap();
        mb.push(data_msg(8)).unwrap();
        let kinds: Vec<bool> = mb.iter().map(|m| m.is_task()).collect();
        assert_eq!(kinds, vec![true, false]);
    }
}
