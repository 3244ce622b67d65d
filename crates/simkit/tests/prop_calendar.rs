//! Property tests for the calendar: the four-ary heap of packed keys over
//! an event slab, against the seed `BinaryHeap` implementation and an
//! ordered-map model, under arbitrary schedule/pop interleavings.
//!
//! Because both calendars are keyed on the strict total order
//! `(time, seq)`, they must emit **identical** pop sequences — including
//! FIFO order at exact time ties — for any interleaving. The slab adds
//! its own ways to fail: a reused slot must hand back the payload
//! scheduled under the popped key, events scheduled below the last popped
//! key must still come out in order, and the reserved capacity must hold
//! until the pending count exceeds it.

use std::collections::BTreeMap;

use proptest::prelude::*;
use strip_sim::event::{reference, EventQueue};
use strip_sim::time::SimTime;

#[derive(Debug, Clone)]
enum Op {
    /// Schedule at one of a few coarse times (collisions exercise the FIFO
    /// tie-break).
    Schedule {
        time_ms: u32,
    },
    Pop,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u32..64).prop_map(|slot| Op::Schedule { time_ms: slot * 250 }),
        2 => Just(Op::Pop),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn quad_heap_matches_seed_binary_heap(
        ops in prop::collection::vec(op_strategy(), 1..400),
    ) {
        let mut quad = EventQueue::new();
        let mut seed = reference::EventQueue::new();
        let mut payload = 0u64;
        for op in ops {
            match op {
                Op::Schedule { time_ms } => {
                    let time = SimTime::from_secs(f64::from(time_ms) / 1000.0);
                    quad.schedule(time, payload);
                    seed.schedule(time, payload);
                    payload += 1;
                }
                Op::Pop => {
                    prop_assert_eq!(quad.peek_time(), seed.peek_time());
                    prop_assert_eq!(quad.pop(), seed.pop());
                }
            }
            prop_assert_eq!(quad.len(), seed.len());
            prop_assert_eq!(quad.is_empty(), seed.is_empty());
            prop_assert_eq!(quad.total_scheduled(), seed.total_scheduled());
        }
        // Drain both: the tails must agree too.
        loop {
            let (a, b) = (quad.pop(), seed.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn pops_are_globally_time_sorted_with_fifo_ties(
        times in prop::collection::vec(0u32..32, 1..200),
    ) {
        let mut q = EventQueue::with_capacity(times.len());
        for (i, slot) in times.iter().enumerate() {
            q.schedule(SimTime::from_secs(f64::from(*slot)), i as u64);
        }
        let mut popped = Vec::new();
        while let Some((t, i)) = q.pop() {
            popped.push((t, i));
        }
        prop_assert_eq!(popped.len(), times.len());
        // Non-decreasing in time; at equal times, ascending in schedule
        // order (the payload is the insertion index).
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1);
            }
        }
    }

    #[test]
    fn reused_slots_return_the_payload_scheduled_under_each_key(
        ops in prop::collection::vec(op_strategy(), 1..400),
    ) {
        // Heap-allocated payloads: a slot mix-up shows as a wrong string,
        // a lost or doubled move as a leak or a double free.
        let mut q = EventQueue::new();
        let mut model: BTreeMap<(SimTime, u64), String> = BTreeMap::new();
        let mut seq = 0u64;
        for op in ops {
            match op {
                Op::Schedule { time_ms } => {
                    let time = SimTime::from_secs(f64::from(time_ms) / 1000.0);
                    let payload = format!("event {seq} at {time_ms} ms");
                    q.schedule(time, payload.clone());
                    model.insert((time, seq), payload);
                    seq += 1;
                }
                Op::Pop => {
                    let expected = model.pop_first().map(|((time, _), p)| (time, p));
                    prop_assert_eq!(q.pop(), expected);
                }
            }
            prop_assert_eq!(q.len(), model.len());
        }
        while let Some(((time, _), payload)) = model.pop_first() {
            prop_assert_eq!(q.pop(), Some((time, payload)));
        }
        prop_assert_eq!(q.pop(), None);
    }

    #[test]
    fn schedules_below_the_last_popped_key_still_pop_in_order(
        first in prop::collection::vec(0u32..64, 1..100),
        pops in 1usize..100,
        later in prop::collection::vec(-64i32..64, 1..100),
    ) {
        // The engine never schedules into the past, but the calendar must
        // not depend on that: keys below the last popped one (including
        // negative times) go to the front like any other.
        let mut q = EventQueue::new();
        let mut model: BTreeMap<(SimTime, u64), u64> = BTreeMap::new();
        let mut seq = 0u64;
        for slot in first {
            let time = SimTime::from_secs(f64::from(slot));
            q.schedule(time, seq);
            model.insert((time, seq), seq);
            seq += 1;
        }
        for _ in 0..pops {
            let expected = model.pop_first().map(|((time, _), p)| (time, p));
            prop_assert_eq!(q.pop(), expected);
        }
        for slot in later {
            let time = SimTime::from_secs(f64::from(slot) / 2.0);
            q.schedule(time, seq);
            model.insert((time, seq), seq);
            seq += 1;
        }
        while let Some(((time, _), payload)) = model.pop_first() {
            prop_assert_eq!(q.pop(), Some((time, payload)));
        }
        prop_assert_eq!(q.pop(), None);
    }

    #[test]
    fn reserved_capacity_holds_until_the_pending_count_exceeds_it(
        cap in 0usize..64,
        ops in prop::collection::vec(op_strategy(), 1..300),
    ) {
        let mut q = EventQueue::with_capacity(cap);
        let reserved = q.capacity();
        prop_assert!(reserved >= cap);
        let mut peak = 0;
        for (i, op) in ops.into_iter().enumerate() {
            match op {
                Op::Schedule { time_ms } => {
                    q.schedule(SimTime::from_secs(f64::from(time_ms) / 1000.0), i);
                }
                Op::Pop => {
                    q.pop();
                }
            }
            peak = peak.max(q.len());
            if peak <= reserved {
                prop_assert_eq!(q.capacity(), reserved);
            } else {
                prop_assert!(q.capacity() >= peak);
            }
        }
    }
}
