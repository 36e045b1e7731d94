//! Generic discrete-event queue.

use crate::time::SimTime;
use crate::wheel::TimerWheel;

/// An event queue ordering events by timestamp, breaking ties in
/// first-scheduled-first-popped (FIFO) order so simulations are
/// deterministic: events pop in strictly nondecreasing `(time, seq)`
/// order, where `seq` is the global schedule order.
///
/// Storage is a two-tier [`TimerWheel`] — per-tick FIFO buckets for the
/// near horizon (`O(1)` schedule/pop for the bounded DRAM/bus latencies
/// that dominate this simulator) backed by a sorted overflow heap for
/// far-future events. The tie-break contract is independent of which tier
/// an event lands in; see [`crate::wheel`] for the geometry.
///
/// # Example
///
/// ```
/// use ndpb_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_ticks(5), 'b');
/// q.schedule(SimTime::from_ticks(5), 'c');
/// q.schedule(SimTime::from_ticks(1), 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, vec!['a', 'b', 'c']);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    wheel: TimerWheel<E>,
    seq: u64,
    now: SimTime,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            wheel: TimerWheel::new(),
            seq: 0,
            now: SimTime::ZERO,
            popped: 0,
        }
    }

    /// Creates an empty queue whose timer wheel's near tier initially
    /// covers at least `horizon` ticks (see
    /// [`TimerWheel::with_horizon`]). Use when the caller knows its
    /// schedule is far-heavy — e.g. host-model completion times under
    /// channel contention — to skip the auto-tuning warm-up. Pop order
    /// is identical for any horizon.
    pub fn with_horizon(horizon: u64) -> Self {
        EventQueue {
            wheel: TimerWheel::with_horizon(horizon),
            seq: 0,
            now: SimTime::ZERO,
            popped: 0,
        }
    }

    /// Current near-tier width of the backing wheel, in ticks.
    #[inline]
    pub fn horizon(&self) -> usize {
        self.wheel.horizon()
    }

    /// Current simulation time: the timestamp of the most recently popped
    /// event (zero before the first pop).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events popped so far; useful as a progress/abort metric.
    #[inline]
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.wheel.len()
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.wheel.is_empty()
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// Scheduling at exactly [`now`](Self::now) — e.g. from inside the
    /// handler of the event that advanced the clock to `at` — is legal
    /// and ordered FIFO *after* every event already pending at that
    /// tick: ties break strictly by schedule order, never by storage
    /// internals (bucket, heap tier, or bitmap position).
    /// `crates/sim/tests/event_order.rs` pins this contract.
    ///
    /// # Panics
    ///
    /// Panics if `at` is strictly earlier than the current time: the
    /// simulation cannot travel backwards.
    #[inline]
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "scheduled event in the past: at={:?} now={:?}",
            at,
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.wheel.insert(self.now, at, seq, event);
    }

    /// Schedules `event` `delay` after the current time.
    #[inline]
    pub fn schedule_after(&mut self, delay: SimTime, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// Pops the next event, advancing the clock to its timestamp.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (at, _seq, event) = self.wheel.pop(self.now)?;
        debug_assert!(at >= self.now);
        self.now = at;
        self.popped += 1;
        Some((at, event))
    }

    /// Pops the run of events at the head of the queue — a maximal
    /// same-tick batch, in exactly the order repeated [`pop`](Self::pop)
    /// calls would yield it — appending the events to `out` and
    /// advancing the clock to the shared timestamp.
    ///
    /// Returns that timestamp, or `None` if the queue is empty. A run
    /// never spans ticks; it may cover *less* than a full tick when the
    /// tick straddles the wheel's near/overflow tiers, in which case the
    /// next call continues the same tick. Draining a queue through
    /// `pop_run` is byte-identical to draining it through `pop`
    /// (`crates/sim/tests/wheel_prop.rs` pins this).
    #[inline]
    pub fn pop_run(&mut self, out: &mut Vec<E>) -> Option<SimTime> {
        let before = out.len();
        let at = self.wheel.pop_run(self.now, out)?;
        debug_assert!(at >= self.now);
        self.now = at;
        self.popped += (out.len() - before) as u64;
        Some(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ticks(30), 3);
        q.schedule(SimTime::from_ticks(10), 1);
        q.schedule(SimTime::from_ticks(20), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::from_ticks(7), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ticks(42), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_ticks(42));
    }

    #[test]
    fn schedule_after_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ticks(10), 'a');
        q.pop();
        q.schedule_after(SimTime::from_ticks(5), 'b');
        let (t, e) = q.pop().unwrap();
        assert_eq!((t, e), (SimTime::from_ticks(15), 'b'));
    }

    #[test]
    #[should_panic(expected = "scheduled event in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ticks(10), ());
        q.pop();
        q.schedule(SimTime::from_ticks(5), ());
    }

    #[test]
    fn scheduling_does_not_advance_the_clock() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ticks(9), ());
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn far_future_and_near_events_interleave_in_time_order() {
        use crate::wheel::WHEEL_SLOTS;
        let mut q = EventQueue::new();
        let far = WHEEL_SLOTS as u64 * 3 + 17;
        q.schedule(SimTime::from_ticks(far), 'z');
        q.schedule(SimTime::from_ticks(2), 'a');
        q.schedule(SimTime::from_ticks(far), 'y'); // same far tick, later seq
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().unwrap().1, 'a');
        assert_eq!(q.pop().unwrap(), (SimTime::from_ticks(far), 'z'));
        assert_eq!(q.pop().unwrap(), (SimTime::from_ticks(far), 'y'));
    }

    #[test]
    fn popped_counts() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, ());
        q.schedule(SimTime::ZERO, ());
        q.pop();
        q.pop();
        assert_eq!(q.popped(), 2);
    }
}
