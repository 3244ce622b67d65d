//! Host speed reference.
//!
//! On a shared host the CPU speed a guest gets moves by up to 1.7×
//! between runs with no steal to show for it (another guest on the
//! sibling hyperthread or in the shared cache, frequency changes). The
//! reference is a fixed piece of work that lives in the benchmark and
//! never changes with the program: a calendar-like binary heap in hold
//! mode with a random read-modify-write per operation, once on a
//! cache-resident heap and table and once, for a quarter as many
//! operations, on a heap and table that spill into the shared cache and
//! memory, as the simulator's and the server's working sets do. Timed
//! in the same process, interleaved with the workload, it measures how
//! fast the host is right now; the workloads report their timings
//! scaled to a host on which the reference takes [`NOMINAL_NS`] per
//! operation.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Reference time per operation of the host the scaled metrics are
/// expressed on, ns (a 2-vCPU Xeon guest in its usual phase).
pub const NOMINAL_NS: f64 = 175.0;

/// Hold operations of the cache-resident phase per repetition.
const OPS: usize = 16_384;
/// Heap entries and table words of the cache-resident phase (32 KiB).
const SMALL: (usize, usize) = (4096, 1 << 12);
/// Heap entries and table words of the memory-bound phase (8 MiB).
const LARGE: (usize, usize) = (1 << 16, 1 << 20);
/// Repetitions per probe; the fastest one is the probe's reading.
const REPS: usize = 9;

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// `ops` pops of the earliest of `pending` entries, each re-inserted
/// later, with a table update per operation.
fn hold(table: &mut [u64], pending: usize, ops: usize) -> u64 {
    let mut heap = BinaryHeap::with_capacity(pending + 1);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..pending {
        x = xorshift(x);
        heap.push(Reverse(x >> 24));
    }
    let mut acc = 0u64;
    for _ in 0..ops {
        let Some(Reverse(t)) = heap.pop() else { break };
        x = xorshift(x);
        let slot = (x as usize) & (table.len() - 1);
        table[slot] = table[slot].wrapping_add(t);
        acc ^= table[slot];
        heap.push(Reverse(t + (x >> 44)));
    }
    acc
}

/// Times the reference: the fastest of [`REPS`] repetitions, in ns per
/// cache-resident operation. The minimum leaves out repetitions another
/// thread or guest preempted; what remains is the speed of the CPU the
/// thread runs on and of the memory behind it.
#[must_use]
pub fn reference_ns() -> f64 {
    let mut small = vec![0u64; SMALL.1];
    let mut large = vec![0u64; LARGE.1];
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let t0 = Instant::now();
        black_box(hold(black_box(&mut small), SMALL.0, OPS));
        black_box(hold(black_box(&mut large), LARGE.0, OPS / 4));
        best = best.min(t0.elapsed().as_secs_f64() * 1e9 / OPS as f64);
    }
    best
}

/// How much slower than the nominal host the host ran, from the
/// reference readings taken around one sample: > 1 on a slow host.
#[must_use]
pub fn slowness(readings: &[f64]) -> f64 {
    if readings.is_empty() {
        return 1.0;
    }
    readings.iter().sum::<f64>() / readings.len() as f64 / NOMINAL_NS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_is_deterministic_work() {
        let mut a = vec![0u64; SMALL.1];
        let mut b = vec![0u64; SMALL.1];
        assert_eq!(hold(&mut a, SMALL.0, OPS), hold(&mut b, SMALL.0, OPS));
        assert_eq!(a, b);
        assert!(reference_ns() > 0.0);
    }

    #[test]
    fn slowness_is_the_mean_reading_over_nominal() {
        assert_eq!(slowness(&[]), 1.0);
        assert_eq!(slowness(&[NOMINAL_NS]), 1.0);
        assert_eq!(slowness(&[NOMINAL_NS, 3.0 * NOMINAL_NS]), 2.0);
    }
}
