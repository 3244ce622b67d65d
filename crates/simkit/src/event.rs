//! The future-event list.
//!
//! A classic discrete-event simulation calendar: events are popped in
//! non-decreasing time order, with FIFO tie-breaking (two events scheduled
//! for the same instant fire in the order they were scheduled). Stability
//! matters for reproducibility and for modelling conventions such as "the
//! deadline watchdog was armed before the completion event, so at an exact
//! tie the deadline fires first".
//!
//! The calendar is a **four-ary min-heap of packed 16-byte keys** over an
//! **event slab**. Each key is the `u128`
//! `time_bits << 64 | seq << 22 | slot`: the order-preserving image of the
//! event time, a 42-bit scheduling sequence number, and the 22-bit index of
//! the slab slot holding the payload. Sifts move only keys — a 3,000-event
//! calendar's heap is ~48 KB, about one L1d — while each payload is
//! written once on `schedule` and moved out once on `pop`. Vacated slots go
//! on a LIFO free list, so the next schedule reuses the slot (and cache
//! line) the last pop just touched.
//!
//! Because `seq` is unique, `(time, seq)` is a strict total order and the
//! slot bits never decide a comparison: *any* correct heap over these keys
//! pops the exact sequence the seed `BinaryHeap` calendar (preserved in
//! [`reference`] as the benchmark baseline and proptest oracle) pops, so
//! the layout cannot change simulation results. A 4-ary heap is half as
//! deep as a binary one, so a sift-down touches half as many cache lines.

use crate::time::SimTime;

/// Bits of a key that name the payload's slab slot.
const SLOT_BITS: u32 = 22;

/// Most events that may be pending at once (slab slots).
pub const MAX_PENDING: usize = 1 << SLOT_BITS;

/// Most events one calendar may ever schedule (the `seq` field's range).
pub const MAX_SCHEDULED: u64 = 1 << (64 - SLOT_BITS);

/// Order-preserving bijection from the `f64` total order to the `u64`
/// order: the same sign-flip trick `f64::total_cmp` performs on *every*
/// comparison, hoisted so it runs once per `schedule` instead of O(log n)
/// times per sift. Self-inverse up to the final sign toggle — see
/// [`bits_to_secs`].
#[inline]
fn secs_to_bits(secs: f64) -> u64 {
    let b = secs.to_bits() as i64;
    (b ^ (((b >> 63) as u64) >> 1) as i64) as u64 ^ (1 << 63)
}

/// Inverse of [`secs_to_bits`]: the conditional mantissa flip depends only
/// on the (preserved) sign bit, so undoing the sign toggle and re-applying
/// the flip recovers the original bits exactly.
#[inline]
fn bits_to_secs(bits: u64) -> f64 {
    let m = (bits ^ (1 << 63)) as i64;
    f64::from_bits((m ^ (((m >> 63) as u64) >> 1) as i64) as u64)
}

#[inline]
fn key_time(key: u128) -> SimTime {
    SimTime::from_secs(bits_to_secs((key >> 64) as u64))
}

#[inline]
fn key_slot(key: u128) -> usize {
    (key as usize) & (MAX_PENDING - 1)
}

/// Heap arity: each node has up to four children.
const ARITY: usize = 4;

/// End of the free-slot list.
const NIL: u32 = u32::MAX;

/// One slab slot: a pending event, or a link in the free-slot list.
enum Slot<E> {
    Full(E),
    Free { next: u32 },
}

/// A future-event list holding events of type `E`.
pub struct EventQueue<E> {
    /// Four-ary min-heap of packed keys.
    heap: Vec<u128>,
    /// Payloads, indexed by the slot bits of their key.
    slab: Vec<Slot<E>>,
    /// Head of the list of vacated slots, reused last-in first-out.
    free: u32,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty calendar.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty calendar with room for `cap` pending events, so a
    /// run with a known population (e.g. one watchdog per view object)
    /// never reallocates.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: Vec::with_capacity(cap),
            slab: Vec::with_capacity(cap),
            free: NIL,
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at `time`.
    ///
    /// # Panics
    ///
    /// Panics if [`MAX_PENDING`] events are already pending, or if this
    /// calendar has already scheduled [`MAX_SCHEDULED`] events.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        assert!(
            seq < MAX_SCHEDULED,
            "event calendar: more than 2^42 events scheduled"
        );
        self.next_seq += 1;
        let slot = if self.free == NIL {
            assert!(
                self.slab.len() < MAX_PENDING,
                "event calendar: more than 2^22 events pending"
            );
            self.slab.push(Slot::Full(event));
            self.slab.len() - 1
        } else {
            let slot = self.free as usize;
            match std::mem::replace(&mut self.slab[slot], Slot::Full(event)) {
                Slot::Free { next } => self.free = next,
                Slot::Full(_) => unreachable!("the free list names an occupied slot"),
            }
            slot
        };
        let key = (u128::from(secs_to_bits(time.as_secs())) << 64)
            | u128::from(seq << SLOT_BITS)
            | slot as u128;
        self.heap.push(key);
        self.sift_up(self.heap.len() - 1, key);
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let last = self.heap.pop()?;
        let key = match self.heap.first().copied() {
            Some(root) => {
                self.sift_down_to_bottom(last);
                root
            }
            None => last,
        };
        let slot = key_slot(key);
        let vacated = Slot::Free { next: self.free };
        let Slot::Full(event) = std::mem::replace(&mut self.slab[slot], vacated) else {
            unreachable!("a pending key names a free slot")
        };
        self.free = slot as u32;
        Some((key_time(key), event))
    }

    /// The time of the earliest pending event, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|&key| key_time(key))
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events ever scheduled (for diagnostics).
    #[must_use]
    pub fn total_scheduled(&self) -> u64 {
        self.next_seq
    }

    /// How many events can be pending before the calendar reallocates
    /// (for diagnostics).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.heap.capacity().min(self.slab.capacity())
    }

    /// Fills the hole at `pos` with `key`, after moving each ancestor
    /// larger than `key` one level down (the hole climbs past it).
    fn sift_up(&mut self, mut pos: usize, key: u128) {
        let heap = &mut self.heap[..];
        while pos > 0 {
            let parent = (pos - 1) / ARITY;
            if heap[parent] <= key {
                break;
            }
            heap[pos] = heap[parent];
            pos = parent;
        }
        heap[pos] = key;
    }

    /// Restores the heap after a pop took the root and `key` (the former
    /// last element) must fill its place: the hole is driven straight to a
    /// leaf along the smallest-child path — *without* comparing `key` at
    /// each level — and `key` is then bubbled back up from there. Because
    /// `key` came from the bottom of the heap, it almost always belongs
    /// near a leaf, so skipping the per-level comparison saves a quarter
    /// of the comparisons on the hot pop path (the same "bounce" strategy
    /// `BinaryHeap::pop` uses).
    fn sift_down_to_bottom(&mut self, key: u128) {
        let heap = &mut self.heap[..];
        let n = heap.len();
        let mut pos = 0;
        loop {
            let first = pos * ARITY + 1;
            if first + ARITY <= n {
                // All four children exist (the common case everywhere
                // above the last level): a balanced tournament, which the
                // optimiser lowers to conditional moves instead of a chain
                // of mispredictable branches.
                let kids = &heap[first..first + ARITY];
                let (ia, ka) = if kids[1] < kids[0] {
                    (1, kids[1])
                } else {
                    (0, kids[0])
                };
                let (ib, kb) = if kids[3] < kids[2] {
                    (3, kids[3])
                } else {
                    (2, kids[2])
                };
                let (i, k) = if kb < ka { (ib, kb) } else { (ia, ka) };
                heap[pos] = k;
                pos = first + i;
            } else {
                // Partial last level: the smallest of the 0–3 leaves.
                if first < n {
                    let mut best = first;
                    for c in first + 1..n {
                        if heap[c] < heap[best] {
                            best = c;
                        }
                    }
                    heap[pos] = heap[best];
                    pos = best;
                }
                break;
            }
        }
        self.sift_up(pos, key);
    }
}

/// The seed `BinaryHeap` calendar, kept verbatim as the baseline for the
/// micro benchmarks and as the oracle for the pop-order proptests. Not used
/// by the engine.
pub mod reference {
    use core::cmp::Ordering;
    use std::collections::BinaryHeap;

    use crate::time::SimTime;

    struct Entry<E> {
        time: SimTime,
        seq: u64,
        event: E,
    }

    impl<E> PartialEq for Entry<E> {
        fn eq(&self, other: &Self) -> bool {
            self.time == other.time && self.seq == other.seq
        }
    }

    impl<E> Eq for Entry<E> {}

    impl<E> PartialOrd for Entry<E> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl<E> Ord for Entry<E> {
        fn cmp(&self, other: &Self) -> Ordering {
            // BinaryHeap is a max-heap; reverse so the earliest entry is
            // popped first.
            other
                .time
                .cmp(&self.time)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    /// The seed future-event list (see the module docs).
    pub struct EventQueue<E> {
        heap: BinaryHeap<Entry<E>>,
        next_seq: u64,
        scheduled: u64,
    }

    impl<E> Default for EventQueue<E> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<E> EventQueue<E> {
        /// Creates an empty calendar.
        #[must_use]
        pub fn new() -> Self {
            EventQueue {
                heap: BinaryHeap::new(),
                next_seq: 0,
                scheduled: 0,
            }
        }

        /// Schedules `event` to fire at `time`.
        pub fn schedule(&mut self, time: SimTime, event: E) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.scheduled += 1;
            self.heap.push(Entry { time, seq, event });
        }

        /// Removes and returns the earliest event, if any.
        pub fn pop(&mut self) -> Option<(SimTime, E)> {
            self.heap.pop().map(|e| (e.time, e.event))
        }

        /// The time of the earliest pending event, if any.
        #[must_use]
        pub fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|e| e.time)
        }

        /// Number of pending events.
        #[must_use]
        pub fn len(&self) -> usize {
            self.heap.len()
        }

        /// True when no events are pending.
        #[must_use]
        pub fn is_empty(&self) -> bool {
            self.heap.is_empty()
        }

        /// Total number of events ever scheduled (for diagnostics).
        #[must_use]
        pub fn total_scheduled(&self) -> u64 {
            self.scheduled
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(3.0), "c");
        q.schedule(t(1.0), "a");
        q.schedule(t(2.0), "b");
        assert_eq!(q.pop(), Some((t(1.0), "a")));
        assert_eq!(q.pop(), Some((t(2.0), "b")));
        assert_eq!(q.pop(), Some((t(3.0), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(1.0), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(1.0), i)));
        }
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(t(5.0), ());
        q.schedule(t(4.0), ());
        assert_eq!(q.peek_time(), Some(t(4.0)));
        assert!(!q.is_empty());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.peek_time(), Some(t(5.0)));
    }

    #[test]
    fn counts_scheduled() {
        let mut q = EventQueue::new();
        q.schedule(t(1.0), ());
        q.schedule(t(2.0), ());
        q.pop();
        assert_eq!(q.total_scheduled(), 2);
    }

    #[test]
    fn with_capacity_never_reallocates_within_budget() {
        let mut q = EventQueue::with_capacity(64);
        let cap = q.capacity();
        for i in 0..64 {
            q.schedule(t(64.0 - i as f64), i);
        }
        assert_eq!(q.capacity(), cap);
        while q.pop().is_some() {}
        assert_eq!(q.capacity(), cap);
    }

    #[test]
    #[should_panic(expected = "more than 2^22 events pending")]
    fn pending_limit_is_asserted() {
        let mut q = EventQueue::new();
        q.slab.resize_with(MAX_PENDING, || Slot::Full(()));
        q.schedule(t(1.0), ());
    }

    #[test]
    #[should_panic(expected = "more than 2^42 events scheduled")]
    fn scheduling_limit_is_asserted() {
        let mut q = EventQueue::new();
        q.next_seq = MAX_SCHEDULED - 1;
        q.schedule(t(1.0), ());
        q.pop();
        q.schedule(t(2.0), ());
    }

    #[test]
    fn matches_reference_heap_on_adversarial_interleaving() {
        // Deterministic pseudo-random mix of schedules (with many exact-tie
        // times) and pops; the 4-ary heap must emit the identical sequence
        // as the seed BinaryHeap, including FIFO tie order.
        let mut quad = EventQueue::new();
        let mut oracle = reference::EventQueue::new();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..10_000u64 {
            if rng() % 3 != 0 {
                // Coarse times (one of 64 values) force frequent ties.
                let time = t((rng() % 64) as f64);
                quad.schedule(time, i);
                oracle.schedule(time, i);
            } else {
                assert_eq!(quad.peek_time(), oracle.peek_time());
                assert_eq!(quad.pop(), oracle.pop());
            }
            assert_eq!(quad.len(), oracle.len());
        }
        loop {
            let (a, b) = (quad.pop(), oracle.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
