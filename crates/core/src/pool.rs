//! Free-list pools for the event loop: [`BufPool`] for hot-path `Vec`
//! buffers and [`Slab`] for values parked behind event handles.
//!
//! The event loop constantly needs short-lived vectors — spawned-task
//! lists riding `TaskDone` events, per-round message scratch in bridge
//! forwarding, completion batches in the host-only model. Allocating
//! them per event shows up directly in the profiler's dispatch phase,
//! so the system recycles them instead: `get` hands back a cleared
//! buffer with its old capacity intact, `put` returns it. This
//! generalizes the ad-hoc `spawn_pool`/`vec_pool` fields the simulator
//! grew organically (DESIGN.md §3c).
//!
//! Determinism note: pooling only reuses *capacity*; every buffer is
//! cleared on `put`, so observable state is identical to fresh
//! allocation and goldens cannot see the pool.

/// A LIFO free list of `Vec<T>` buffers.
///
/// LIFO keeps the most recently used (cache-warm, grown-to-size)
/// buffer on top. The pool is bounded so a one-off burst cannot pin
/// its high-water mark of memory forever.
#[derive(Debug)]
pub struct BufPool<T> {
    free: Vec<Vec<T>>,
    cap: usize,
}

impl<T> Default for BufPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> BufPool<T> {
    /// Default bound on retained buffers: enough for every in-flight
    /// event class the system model produces per tick, small enough to
    /// be irrelevant memory-wise.
    const DEFAULT_CAP: usize = 64;

    /// Creates an empty pool with the default retention bound.
    pub fn new() -> Self {
        Self::with_cap(Self::DEFAULT_CAP)
    }

    /// Creates an empty pool retaining at most `cap` free buffers.
    pub fn with_cap(cap: usize) -> Self {
        BufPool {
            free: Vec::new(),
            cap,
        }
    }

    /// Takes a buffer from the pool (empty, capacity preserved from its
    /// last use) or allocates a fresh one.
    #[inline]
    pub fn get(&mut self) -> Vec<T> {
        self.free.pop().unwrap_or_default()
    }

    /// Returns a buffer to the pool. The buffer is cleared here, so
    /// callers may hand back leftovers; capacity is retained. Buffers
    /// beyond the retention bound are dropped.
    #[inline]
    pub fn put(&mut self, mut buf: Vec<T>) {
        if self.free.len() >= self.cap {
            return;
        }
        buf.clear();
        self.free.push(buf);
    }
}

/// Values parked behind `u32` handles, with freed slots reused LIFO.
///
/// Events carry a handle instead of the value itself, so the event
/// queue moves a few bytes per event; the slab grows only to the peak
/// number of values parked at once.
#[derive(Debug)]
pub(crate) struct Slab<T> {
    slots: Vec<Option<T>>,
    free: Vec<u32>,
}

impl<T> Slab<T> {
    /// Creates an empty slab.
    pub fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Parks `value` and returns its handle.
    #[inline]
    pub fn insert(&mut self, value: T) -> u32 {
        if let Some(h) = self.free.pop() {
            self.slots[h as usize] = Some(value);
            return h;
        }
        let h = u32::try_from(self.slots.len()).expect("slab handle space exhausted");
        self.slots.push(Some(value));
        h
    }

    /// Removes and returns the value behind `handle`.
    ///
    /// # Panics
    ///
    /// Panics if the handle is not live (taken twice or never issued).
    #[inline]
    pub fn take(&mut self, handle: u32) -> T {
        let v = self.slots[handle as usize]
            .take()
            .expect("slab handle is not live");
        self.free.push(handle);
        v
    }

    /// The live (inserted, not yet taken) values, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_reuses_cleared_capacity() {
        let mut p: BufPool<u32> = BufPool::new();
        let mut v = p.get();
        v.extend([1, 2, 3]);
        let cap = v.capacity();
        p.put(v);
        assert_eq!(p.free.len(), 1);
        let v = p.get();
        assert!(v.is_empty(), "pooled buffers must come back cleared");
        assert_eq!(v.capacity(), cap, "capacity survives the round trip");
        assert_eq!(p.free.len(), 0);
    }

    #[test]
    fn lifo_returns_most_recent() {
        let mut p: BufPool<u8> = BufPool::new();
        let mut a = p.get();
        a.reserve_exact(10);
        let mut b = p.get();
        b.reserve_exact(100);
        let (ca, cb) = (a.capacity(), b.capacity());
        p.put(a);
        p.put(b);
        assert_eq!(p.get().capacity(), cb);
        assert_eq!(p.get().capacity(), ca);
    }

    #[test]
    fn slab_reuses_freed_handles() {
        let mut s: Slab<&str> = Slab::new();
        let a = s.insert("a");
        let b = s.insert("b");
        assert_eq!(s.take(a), "a");
        let c = s.insert("c");
        assert_eq!(c, a, "the freed slot is reused");
        assert_eq!((s.take(b), s.take(c)), ("b", "c"));
        assert_eq!(s.slots.len(), 2, "grows only to the peak parked count");
    }

    #[test]
    fn slab_iter_yields_exactly_the_live_values() {
        let mut s: Slab<u32> = Slab::new();
        let h: Vec<u32> = (0..6).map(|v| s.insert(v)).collect();
        s.take(h[1]);
        s.take(h[4]);
        let h6 = s.insert(6); // reuses slot 4
        s.take(h[0]);
        s.insert(7); // reuses slot 0
        s.take(h6);
        let mut live: Vec<u32> = s.iter().copied().collect();
        live.sort_unstable();
        assert_eq!(live, [2, 3, 5, 7]);
        for h in [h[2], h[3], h[5], h[0]] {
            s.take(h);
        }
        assert_eq!(s.iter().count(), 0, "an emptied slab yields nothing");
    }

    #[test]
    #[should_panic(expected = "not live")]
    fn slab_handle_taken_twice_panics() {
        let mut s = Slab::new();
        let h = s.insert(1u8);
        s.take(h);
        s.take(h);
    }

    #[test]
    fn retention_is_bounded() {
        let mut p: BufPool<u8> = BufPool::with_cap(2);
        for _ in 0..5 {
            p.put(Vec::with_capacity(8));
        }
        assert_eq!(p.free.len(), 2, "excess buffers are dropped, not hoarded");
    }
}
