//! Two-tier timer wheel: the storage backend of [`EventQueue`].
//!
//! Nearly every event in this simulator is scheduled a bounded DRAM or bus
//! latency ahead of the clock — tens to a few thousand ticks (CAS ≈ 41
//! ticks, a gather round ≈ `I_min` = 4096 ticks at Table I geometry). A
//! comparison-based heap pays `O(log n)` per operation and a cache miss per
//! level for what is almost always a "schedule a few hundred ticks out"
//! pattern. The wheel turns that common case into `O(1)`:
//!
//! * **Near tier** — a calendar of per-tick FIFO buckets, one revolution
//!   wide. An event at absolute tick `t` with `t - now < horizon` lands in
//!   bucket `t % horizon`. Because the live window is exactly one
//!   revolution wide, a non-empty bucket always holds a single tick's
//!   events, in insertion order — FIFO within the bucket *is* the
//!   `(time, seq)` order. A two-level occupancy bitmap (summary words over
//!   slot words) finds the next non-empty bucket with a handful of bit
//!   operations instead of a scan.
//! * **Arena-threaded buckets** — a bucket is only a `(head, tail)` pair
//!   of `u32` node indices. Every near-tier event lives in one shared
//!   node arena, linked into its bucket's FIFO list; popped nodes go on a
//!   LIFO free list and are reused by the next insert. The arena grows
//!   only when the free list is empty, so retained storage is bounded by
//!   the peak number of near-tier events live at once, not by
//!   slots × the largest burst any one slot ever saw (what per-slot
//!   growable queues retain), and a recycled node is cache-warm.
//! * **Far tier** — a sorted overflow heap for events at or beyond the
//!   horizon (periodic `I_state` timers, congested bus grants). Overflow
//!   entries are never migrated into the wheel during steady state;
//!   [`TimerWheel::pop`] compares the wheel front against the heap front
//!   by `(time, seq)` and takes the smaller, so an old far-future event
//!   still pops before a younger same-tick event that was scheduled
//!   directly into the wheel.
//!
//! # Horizon configuration and auto-tuning
//!
//! The near-tier horizon defaults to [`WHEEL_SLOTS`] ticks, which covers
//! every DRAM/bus latency of the NDP designs. Some schedules are
//! *far-heavy* — the host-only baseline accumulates multi-revolution
//! completion times under channel contention, pushing most inserts into
//! the overflow heap and losing the wheel's O(1) advantage (the H-design
//! regression noted after the wheel landed). Two mechanisms address this:
//!
//! * [`TimerWheel::with_horizon`] / [`EventQueue::with_horizon`] pick a
//!   larger initial horizon when the caller knows its latency profile.
//! * **Auto-tuning:** the wheel counts overflow inserts whose delta would
//!   fit under [`MAX_WHEEL_SLOTS`]; once [`GROW_TRIGGER`] such inserts
//!   accumulate, the horizon doubles (at least) to cover the largest of
//!   them, re-bucketing pending near-tier events and pulling newly
//!   capturable overflow entries into the wheel. Growth is bounded by
//!   [`MAX_WHEEL_SLOTS`], so a stray far-future timer cannot balloon the
//!   calendar. At the paper's Table I geometry (512 units, full-scale
//!   inputs) design O grows to 65,536–131,072 slots on the apps with
//!   cross-rank traffic, so each slot must stay a few bytes.
//!
//! Re-tiering never reorders anything: pop order is defined purely by
//! `(time, seq)`, independent of which tier an event happens to sit in,
//! so results are byte-identical for any horizon (the golden suites pin
//! this).
//!
//! The determinism contract is exactly the one the old `BinaryHeap`
//! implementation had: events pop in strictly nondecreasing `(time, seq)`
//! order, where `seq` is the global schedule order. `crates/sim/tests/`
//! pins this against a reference heap model with randomized schedules.
//!
//! [`EventQueue`]: crate::EventQueue
//! [`EventQueue::with_horizon`]: crate::EventQueue::with_horizon

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Default number of per-tick buckets in the near tier. Events scheduled
/// fewer than this many ticks ahead of the clock go to the wheel;
/// everything else goes to the overflow heap (until auto-tuning widens
/// the window).
///
/// 4096 ticks ≈ 1.7 µs covers every DRAM/bus latency and the Table I
/// gather interval; the coarse periodic timers (`I_state` = 12000
/// ticks) and congested bus grants overflow, and auto-tuning widens the
/// window once they are frequent enough to matter.
pub const WHEEL_SLOTS: usize = 4096;

/// Upper bound on the auto-tuned horizon (2^17 ticks ≈ 55 µs). Bounds
/// the calendar's memory: a far-future outlier beyond this never
/// triggers growth.
pub(crate) const MAX_WHEEL_SLOTS: usize = 1 << 17;

/// Capturable overflow inserts tolerated before the horizon grows. Each
/// pre-growth overflow insert costs one heap push — a few thousand of
/// them are noise, while a persistent far-heavy schedule (millions of
/// events) amortizes the one-off re-bucketing instantly.
const GROW_TRIGGER: u64 = 2048;

/// End-of-list marker for node links (never a valid arena index).
const NIL: u32 = u32::MAX;

/// A two-tier calendar queue ordering `(time, seq, event)` triples by
/// `(time, seq)`.
///
/// The wheel does not own the clock or the sequence counter — the caller
/// ([`EventQueue`]) passes `now` into [`insert`](Self::insert),
/// [`pop`](Self::pop) and [`peek`](Self::peek) and guarantees that
/// * every inserted `at` is `>= now`,
/// * `seq` values are inserted in strictly increasing order, and
/// * `now` only advances to timestamps returned by `pop` (so no pending
///   event is ever earlier than `now`).
///
/// [`EventQueue`]: crate::EventQueue
#[derive(Debug)]
pub(crate) struct TimerWheel<E> {
    /// Current near-tier width in ticks; always a power of two in
    /// `[64, MAX_WHEEL_SLOTS]`.
    slots: usize,
    /// Per-slot `[head, tail]` node indices of the bucket's FIFO list
    /// (both [`NIL`] when empty). All live nodes of a bucket share one
    /// `at`, linked in insertion (= `seq`) order.
    lists: Vec<[u32; 2]>,
    /// Node arena backing every bucket list.
    nodes: Vec<Node<E>>,
    /// Head of the LIFO free list threaded through [`Node::next`].
    free: u32,
    /// Bit `i % 64` of word `i / 64` set ⇔ bucket `i` is non-empty.
    words: Vec<u64>,
    /// Bit `w % 64` of summary word `w / 64` set ⇔ `words[w] != 0`.
    summary: Vec<u64>,
    /// Events currently in the near tier.
    wheel_len: usize,
    overflow: BinaryHeap<Overflow<E>>,
    /// Overflow inserts since the last growth that a `MAX_WHEEL_SLOTS`
    /// wheel would have captured, and the widest such delta.
    capturable: u64,
    capturable_max: u64,
}

#[derive(Debug)]
struct Node<E> {
    at: SimTime,
    seq: u64,
    /// Next node of the same bucket, or of the free list.
    next: u32,
    /// `None` while the node sits on the free list.
    event: Option<E>,
}

#[derive(Debug)]
struct Overflow<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Overflow<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Overflow<E> {}
impl<E> PartialOrd for Overflow<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Overflow<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq)
        // surfaces first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl<E> Default for TimerWheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> TimerWheel<E> {
    /// Creates an empty wheel with the default [`WHEEL_SLOTS`] horizon.
    /// The node arena starts empty and grows with the live event count.
    pub fn new() -> Self {
        Self::with_horizon(WHEEL_SLOTS as u64)
    }

    /// Creates an empty wheel whose near tier covers at least `horizon`
    /// ticks (rounded up to a power of two, clamped to
    /// `[64, MAX_WHEEL_SLOTS]`). Auto-tuning can still widen it later.
    pub fn with_horizon(horizon: u64) -> Self {
        let slots = horizon
            .clamp(64, MAX_WHEEL_SLOTS as u64)
            .next_power_of_two() as usize;
        TimerWheel {
            slots,
            lists: vec![[NIL; 2]; slots],
            nodes: Vec::new(),
            free: NIL,
            words: vec![0; slots / 64],
            summary: vec![0; (slots / 64).div_ceil(64)],
            wheel_len: 0,
            overflow: BinaryHeap::new(),
            capturable: 0,
            capturable_max: 0,
        }
    }

    /// Current near-tier width in ticks.
    #[inline]
    pub fn horizon(&self) -> usize {
        self.slots
    }

    /// Total pending events across both tiers.
    #[inline]
    pub fn len(&self) -> usize {
        self.wheel_len + self.overflow.len()
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn slot_mask(&self) -> u64 {
        self.slots as u64 - 1
    }

    /// Places an event that is known to fall inside the near window.
    #[inline]
    fn insert_near(&mut self, at: SimTime, seq: u64, event: E) {
        let idx = (at.ticks() & self.slot_mask()) as usize;
        let node = Node {
            at,
            seq,
            next: NIL,
            event: Some(event),
        };
        let n = if self.free != NIL {
            let n = self.free;
            let slot = &mut self.nodes[n as usize];
            self.free = slot.next;
            *slot = node;
            n
        } else {
            let n = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&n| n != NIL)
                .expect("timer wheel node arena exhausted");
            self.nodes.push(node);
            n
        };
        let [head, tail] = &mut self.lists[idx];
        if *tail == NIL {
            *head = n;
            self.words[idx >> 6] |= 1 << (idx & 63);
            self.summary[idx >> 12] |= 1 << ((idx >> 6) & 63);
        } else {
            // The live window is exactly one wheel revolution wide, so a
            // live bucket holds a single tick.
            debug_assert_eq!(self.nodes[*tail as usize].at, at);
            self.nodes[*tail as usize].next = n;
        }
        *tail = n;
        self.wheel_len += 1;
    }

    /// Inserts `event` at `(at, seq)`. The caller guarantees `at >= now`
    /// and that `seq` is strictly greater than every previously inserted
    /// sequence number.
    #[inline]
    pub fn insert(&mut self, now: SimTime, at: SimTime, seq: u64, event: E) {
        debug_assert!(at >= now);
        let delta = at.ticks() - now.ticks();
        if delta < self.slots as u64 {
            self.insert_near(at, seq, event);
            return;
        }
        if delta < MAX_WHEEL_SLOTS as u64 && self.slots < MAX_WHEEL_SLOTS {
            self.capturable += 1;
            self.capturable_max = self.capturable_max.max(delta);
            if self.capturable >= GROW_TRIGGER {
                let target = self.capturable_max + 1;
                self.capturable = 0;
                self.capturable_max = 0;
                self.grow(now, target);
                if delta < self.slots as u64 {
                    self.insert_near(at, seq, event);
                    return;
                }
            }
        }
        self.overflow.push(Overflow { at, seq, event });
    }

    /// Widens the near tier to cover at least `target` ticks,
    /// re-bucketing pending near-tier events and pulling newly
    /// capturable overflow entries in. Pop order is unaffected — it is
    /// defined by `(time, seq)` regardless of tier.
    fn grow(&mut self, now: SimTime, target: u64) {
        let new_slots = target
            .min(MAX_WHEEL_SLOTS as u64)
            .next_power_of_two()
            .clamp(self.slots as u64 * 2, MAX_WHEEL_SLOTS as u64) as usize;
        if new_slots <= self.slots {
            return;
        }
        // Collect everything that belongs in the widened window: every
        // live arena node (free nodes carry no event) plus overflow
        // entries now inside it (the heap front carries the minimum
        // time, so the first non-capturable entry means the rest are
        // non-capturable too). An overflow entry can share a tick with
        // near-tier events while carrying a *smaller* seq — see
        // `overflow_interleaves_with_wheel_by_seq` — so the merged set is
        // sorted by (time, seq) before re-bucketing to keep
        // FIFO-within-bucket equal to seq order. The arena keeps its
        // capacity; clearing it empties the free list.
        let mut pending: Vec<(SimTime, u64, E)> = self
            .nodes
            .drain(..)
            .filter_map(|n| Some((n.at, n.seq, n.event?)))
            .collect();
        self.free = NIL;
        while let Some(o) = self.overflow.peek() {
            if o.at.ticks() - now.ticks() >= new_slots as u64 {
                break;
            }
            let o = self.overflow.pop().expect("peeked entry vanished");
            pending.push((o.at, o.seq, o.event));
        }
        self.slots = new_slots;
        self.lists = vec![[NIL; 2]; new_slots];
        self.words = vec![0; new_slots / 64];
        self.summary = vec![0; (new_slots / 64).div_ceil(64)];
        self.wheel_len = 0;
        pending.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
        for (at, seq, event) in pending {
            self.insert_near(at, seq, event);
        }
    }

    /// Moves node `n` (already unlinked from its bucket) onto the free
    /// list and returns its event.
    #[inline]
    fn release(&mut self, n: u32) -> E {
        let node = &mut self.nodes[n as usize];
        node.next = self.free;
        self.free = n;
        node.event.take().expect("live node without an event")
    }

    /// Marks bucket `idx` empty after its last node was popped.
    #[inline]
    fn clear_bucket(&mut self, idx: usize) {
        self.lists[idx] = [NIL; 2];
        self.words[idx >> 6] &= !(1 << (idx & 63));
        if self.words[idx >> 6] == 0 {
            self.summary[idx >> 12] &= !(1 << ((idx >> 6) & 63));
        }
    }

    /// Removes and returns the pending event with the smallest
    /// `(time, seq)`, or `None` if the wheel is empty.
    #[inline]
    pub fn pop(&mut self, now: SimTime) -> Option<(SimTime, u64, E)> {
        let wheel_front = self.front_bucket(now);
        let take_overflow = match (wheel_front, self.overflow.peek()) {
            (None, None) => return None,
            (None, Some(_)) => true,
            (Some(_), None) => false,
            (Some((at, seq, _)), Some(o)) => (o.at, o.seq) < (at, seq),
        };
        if take_overflow {
            let o = self.overflow.pop().expect("peeked entry vanished");
            return Some((o.at, o.seq, o.event));
        }
        let (at, seq, idx) = wheel_front.expect("non-overflow pop with empty wheel");
        let n = self.lists[idx][0];
        let next = self.nodes[n as usize].next;
        let event = self.release(n);
        self.wheel_len -= 1;
        if next == NIL {
            self.clear_bucket(idx);
        } else {
            self.lists[idx][0] = next;
        }
        Some((at, seq, event))
    }

    /// Drains the *run* at the head of the queue — the maximal prefix of
    /// same-tick events whose `(time, seq)` keys are below this wheel's
    /// overflow front — appending the events to `out` in pop order.
    ///
    /// A live bucket holds exactly one tick's events in seq order, so
    /// the run is a prefix of its list: one occupancy-bitmap scan and
    /// one overflow compare cover the whole batch, where a
    /// pop-at-a-time loop re-pays both per event. When the overflow
    /// front is the global minimum (rare — far-future timers), the run
    /// is that single heap entry.
    ///
    /// Returns the run's timestamp, or `None` if the wheel is empty.
    /// Pop order over repeated calls is byte-identical to single pops
    /// because the run boundary only ever *stops early* at a key that
    /// must interleave with the overflow tier.
    #[inline]
    pub fn pop_run(&mut self, now: SimTime, out: &mut Vec<E>) -> Option<SimTime> {
        let wheel_front = self.front_bucket(now);
        let overflow_key = self.overflow.peek().map(|o| (o.at, o.seq));
        let take_overflow = match (wheel_front, overflow_key) {
            (None, None) => return None,
            (None, Some(_)) => true,
            (Some(_), None) => false,
            (Some((at, seq, _)), Some(ok)) => ok < (at, seq),
        };
        if take_overflow {
            let o = self.overflow.pop().expect("peeked entry vanished");
            out.push(o.event);
            return Some(o.at);
        }
        let (at, _, idx) = wheel_front.expect("non-overflow pop with empty wheel");
        // The run must stop at this wheel's overflow front: an overflow
        // entry can share the tick with a *smaller* seq (see
        // `overflow_interleaves_with_wheel_by_seq`).
        let cap_seq = match overflow_key {
            Some((ot, os)) if ot == at => os,
            _ => u64::MAX,
        };
        let mut n = self.lists[idx][0];
        let mut popped = 0usize;
        while n != NIL && self.nodes[n as usize].seq < cap_seq {
            let next = self.nodes[n as usize].next;
            out.push(self.release(n));
            popped += 1;
            n = next;
        }
        debug_assert!(
            popped > 0,
            "pop_run front key was not below the overflow front"
        );
        self.wheel_len -= popped;
        if n == NIL {
            self.clear_bucket(idx);
        } else {
            self.lists[idx][0] = n;
        }
        Some(at)
    }

    /// `(at, seq, bucket_index)` of the earliest near-tier event, if any.
    #[inline]
    fn front_bucket(&self, now: SimTime) -> Option<(SimTime, u64, usize)> {
        if self.wheel_len == 0 {
            return None;
        }
        let idx = self.next_occupied((now.ticks() & self.slot_mask()) as usize);
        let head = self.lists[idx][0];
        debug_assert!(head != NIL, "occupancy bit set on empty bucket");
        let node = &self.nodes[head as usize];
        Some((node.at, node.seq, idx))
    }

    /// First word index `>= w` whose occupancy word is non-empty, if any
    /// (no wrap-around).
    #[inline]
    fn next_word_at_or_after(&self, w: usize) -> Option<usize> {
        let sw = w >> 6;
        if sw >= self.summary.len() {
            return None;
        }
        let first = self.summary[sw] & (!0u64 << (w & 63));
        if first != 0 {
            return Some((sw << 6) | first.trailing_zeros() as usize);
        }
        for (i, &s) in self.summary.iter().enumerate().skip(sw + 1) {
            if s != 0 {
                return Some((i << 6) | s.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Index of the first non-empty bucket at or after `start` in circular
    /// slot order. Requires `wheel_len > 0`.
    ///
    /// Circular order from `now % slots` is tick order: every pending
    /// near-tier event lies in `[now, now + slots)`, and that window maps
    /// one-to-one onto the slots.
    #[inline]
    fn next_occupied(&self, start: usize) -> usize {
        debug_assert!(self.wheel_len > 0);
        let sw = start >> 6;
        let sb = start & 63;
        // Bits of the start word at or after the start slot.
        let hi = self.words[sw] & (!0u64 << sb);
        if hi != 0 {
            return (sw << 6) | hi.trailing_zeros() as usize;
        }
        // Whole words strictly after the start word.
        if let Some(w) = self.next_word_at_or_after(sw + 1) {
            return (w << 6) | self.words[w].trailing_zeros() as usize;
        }
        // Wrapped: whole words before (or at) the start word…
        if let Some(w) = self.next_word_at_or_after(0) {
            if w != sw {
                return (w << 6) | self.words[w].trailing_zeros() as usize;
            }
        }
        // …then the low bits of the start word itself.
        let lo = self.words[sw] & !(!0u64 << sb);
        debug_assert!(lo != 0, "wheel_len > 0 but no occupancy bit set");
        (sw << 6) | lo.trailing_zeros() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<E>(w: &mut TimerWheel<E>) -> Vec<(SimTime, u64, E)> {
        let mut now = SimTime::ZERO;
        std::iter::from_fn(|| {
            let e = w.pop(now)?;
            now = e.0;
            Some(e)
        })
        .collect()
    }

    #[test]
    fn single_bucket_is_fifo() {
        let mut w = TimerWheel::new();
        for seq in 0..10u64 {
            w.insert(SimTime::ZERO, SimTime::from_ticks(3), seq, seq);
        }
        let order: Vec<u64> = drain(&mut w).into_iter().map(|(_, _, e)| e).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn node_arena_is_bounded_by_peak_live_events() {
        // Bursts of uneven size into ever-new ticks: across two
        // revolutions every slot sees large bursts. Per-slot growable
        // storage would retain each slot's largest burst (slots × burst);
        // the shared arena only ever holds the peak live count.
        let mut w = TimerWheel::new();
        let mut now = SimTime::ZERO;
        let mut seq = 0u64;
        let mut peak_live = 0;
        let mut out = Vec::new();
        for round in 0..2 * WHEEL_SLOTS as u64 {
            for k in 0..1 + round % 3 {
                let at = SimTime::from_ticks(now.ticks() + 1 + k);
                for _ in 0..8 + (round * 7 + k) % 40 {
                    w.insert(now, at, seq, seq);
                    seq += 1;
                }
            }
            peak_live = peak_live.max(w.len());
            // Drain one run per round so buckets stay live across rounds
            // and freed nodes are recycled by the next burst.
            out.clear();
            now = w.pop_run(now, &mut out).unwrap();
        }
        while let Some(t) = w.pop_run(now, &mut out) {
            now = t;
        }
        assert!(w.is_empty());
        assert!(peak_live < 200, "bursts stay small: {peak_live}");
        assert!(
            w.nodes.len() <= peak_live,
            "arena holds {} nodes for a peak of {peak_live} live events",
            w.nodes.len()
        );
    }

    #[test]
    fn overflow_interleaves_with_wheel_by_seq() {
        let mut w = TimerWheel::new();
        let far = SimTime::from_ticks(2 * WHEEL_SLOTS as u64);
        // seq 0 goes far-future (overflow tier).
        w.insert(SimTime::ZERO, far, 0, "overflow");
        // Clock moves close enough that the same tick is now near-tier.
        let now = SimTime::from_ticks(far.ticks() - 10);
        w.insert(now, far, 1, "wheel");
        assert_eq!(w.len(), 2);
        let (t1, s1, e1) = w.pop(now).unwrap();
        let (t2, s2, e2) = w.pop(far).unwrap();
        assert_eq!((t1, s1, e1), (far, 0, "overflow"));
        assert_eq!((t2, s2, e2), (far, 1, "wheel"));
    }

    #[test]
    fn slot_collision_across_revolutions_is_impossible_but_ordered() {
        // Tick t and t + WHEEL_SLOTS share a slot; the second must sit in
        // the overflow tier until the window advances past t.
        let mut w = TimerWheel::new();
        let t = SimTime::from_ticks(100);
        let t2 = SimTime::from_ticks(100 + WHEEL_SLOTS as u64);
        w.insert(SimTime::ZERO, t, 0, "near");
        w.insert(SimTime::ZERO, t2, 1, "far");
        let (a, _, ea) = w.pop(SimTime::ZERO).unwrap();
        let (b, _, eb) = w.pop(a).unwrap();
        assert_eq!((a, ea), (t, "near"));
        assert_eq!((b, eb), (t2, "far"));
    }

    #[test]
    fn occupancy_bitmap_survives_sparse_times() {
        let mut w = TimerWheel::new();
        // One event per occupancy word, popped in order.
        for i in 0..(WHEEL_SLOTS / 64) as u64 {
            w.insert(SimTime::ZERO, SimTime::from_ticks(i * 64 + 7), i, i);
        }
        let order: Vec<u64> = drain(&mut w).into_iter().map(|(_, _, e)| e).collect();
        assert_eq!(order, (0..(WHEEL_SLOTS / 64) as u64).collect::<Vec<_>>());
        assert!(w.is_empty());
        assert!(w.summary.iter().all(|&s| s == 0));
    }

    #[test]
    fn horizon_is_configurable_and_clamped() {
        let w: TimerWheel<()> = TimerWheel::with_horizon(10_000);
        assert_eq!(w.horizon(), 16_384, "rounded up to a power of two");
        let w: TimerWheel<()> = TimerWheel::with_horizon(1);
        assert_eq!(w.horizon(), 64, "clamped below");
        let w: TimerWheel<()> = TimerWheel::with_horizon(u64::MAX);
        assert_eq!(w.horizon(), MAX_WHEEL_SLOTS, "clamped above");
    }

    #[test]
    fn wide_horizon_keeps_midrange_events_near_tier() {
        let mut w = TimerWheel::with_horizon(1 << 16);
        w.insert(SimTime::ZERO, SimTime::from_ticks(40_000), 0, "mid");
        assert_eq!(w.overflow.len(), 0, "inside the configured horizon");
        let (t, _, e) = w.pop(SimTime::ZERO).unwrap();
        assert_eq!((t, e), (SimTime::from_ticks(40_000), "mid"));
    }

    #[test]
    fn auto_growth_captures_far_heavy_schedules_in_order() {
        // Far-heavy, H-style: every event lands a few revolutions out.
        let mut w = TimerWheel::new();
        let mut now = SimTime::ZERO;
        let mut seq = 0u64;
        let mut popped = Vec::new();
        for round in 0..3 * GROW_TRIGGER {
            let at = SimTime::from_ticks(now.ticks() + 3 * WHEEL_SLOTS as u64 + round % 97);
            w.insert(now, at, seq, seq);
            seq += 1;
            if round % 2 == 0 {
                let (t, s, e) = w.pop(now).unwrap();
                now = t;
                popped.push((t, s, e));
            }
        }
        while let Some((t, s, e)) = w.pop(now) {
            now = t;
            popped.push((t, s, e));
        }
        assert!(
            w.horizon() > WHEEL_SLOTS,
            "far-heavy schedule must trigger growth"
        );
        // The pop stream respects the (time, seq) contract and is
        // complete, growth or not.
        assert!(popped
            .windows(2)
            .all(|p| (p[0].0, p[0].1) < (p[1].0, p[1].1)));
        let mut events: Vec<u64> = popped.iter().map(|&(_, _, e)| e).collect();
        events.sort_unstable();
        assert_eq!(events, (0..seq).collect::<Vec<_>>());
        assert!(w.is_empty());
    }

    #[test]
    fn growth_merges_same_tick_overflow_before_younger_near_events() {
        let mut w = TimerWheel::new();
        // seq 0 lands far-future (overflow tier) at tick t…
        let t = SimTime::from_ticks(WHEEL_SLOTS as u64 + 100);
        w.insert(SimTime::ZERO, t, 0, "old-overflow");
        // …then the clock advances until t is near-tier and seq 1 is
        // scheduled directly into the wheel at the same tick.
        let now = SimTime::from_ticks(101);
        w.insert(now, t, 1, "young-near");
        // A growth at this point merges both tiers into one bucket; the
        // overflow entry must keep its earlier-seq position.
        w.grow(now, 4 * WHEEL_SLOTS as u64);
        assert_eq!(w.overflow.len(), 0, "entry migrated into the wheel");
        let (t1, s1, e1) = w.pop(now).unwrap();
        let (t2, s2, e2) = w.pop(t).unwrap();
        assert_eq!((t1, s1, e1), (t, 0, "old-overflow"));
        assert_eq!((t2, s2, e2), (t, 1, "young-near"));
    }

    #[test]
    fn growth_is_capped_and_ignores_uncapturable_outliers() {
        let mut w = TimerWheel::new();
        for seq in 0..3 * GROW_TRIGGER {
            // Far beyond MAX_WHEEL_SLOTS: never worth growing for.
            w.insert(
                SimTime::ZERO,
                SimTime::from_ticks(10 * MAX_WHEEL_SLOTS as u64 + seq),
                seq,
                seq,
            );
        }
        assert_eq!(w.horizon(), WHEEL_SLOTS, "no growth");
        let order: Vec<u64> = drain(&mut w).into_iter().map(|(_, _, e)| e).collect();
        assert_eq!(order, (0..3 * GROW_TRIGGER).collect::<Vec<_>>());
    }
}
