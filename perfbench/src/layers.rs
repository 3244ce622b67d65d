//! Prices the server-side and simulator layers the benchmark cannot see
//! from outside, by replaying a run's own generated inputs through each
//! layer's public functions. Each function returns nanoseconds per
//! operation; the caller multiplies by the operation count from the
//! run's own report, so the layer costs can be checked against the
//! end-to-end time (`layers.unexplained_ratio`).

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use strip_core::config::SimConfig;
use strip_db::dag::{generate_dag, DagSpec, DagState};
use strip_db::object::{Importance, ViewObjectId};
use strip_db::osqueue::OsQueue;
use strip_db::staleness::{StalenessSpec, StalenessTracker};
use strip_db::store::{InstallOutcome, Store};
use strip_db::update::Update;
use strip_db::update_queue::UpdateQueue;
use strip_live::protocol::{encode_batch_body, for_each_batch_update, WireUpdate};
use strip_live::spsc;
use strip_live::wal::{DurabilityConfig, WalHandle};
use strip_sim::rng::Xoshiro256pp;
use strip_sim::time::SimTime;
use strip_sim::EventQueue;

fn per_op(started: Instant, ops: usize) -> f64 {
    if ops == 0 {
        return 0.0;
    }
    started.elapsed().as_nanos() as f64 / ops as f64
}

/// Calendar cost per event: a hold model (pop the earliest event,
/// schedule one at an exponential offset) over `pending` queued events,
/// `events` times. One event = one pop + one schedule.
#[must_use]
pub fn calendar_ns_per_event(pending: usize, events: usize, seed: u64) -> f64 {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut q: EventQueue<u32> = EventQueue::with_capacity(pending + 1);
    for i in 0..pending {
        q.schedule(SimTime::from_secs(rng.next_f64() * 10.0), i as u32);
    }
    let offsets: Vec<f64> = (0..events.min(1 << 16))
        .map(|_| -rng.next_f64_open_zero().ln() * 10.0)
        .collect();
    let started = Instant::now();
    for i in 0..events {
        let Some((t, e)) = q.pop() else { break };
        q.schedule(t + offsets[i % offsets.len()], black_box(e));
    }
    per_op(started, events)
}

/// Update-queue cost per operation (an insert or a removal): the run's
/// updates are inserted in arrival order and the oldest is removed
/// whenever the queue holds more than `depth` entries, then the rest is
/// drained.
#[must_use]
pub fn update_queue_ns_per_op(
    updates: &[Update],
    capacity: usize,
    dedup: bool,
    depth: usize,
) -> f64 {
    let mut q = UpdateQueue::new(capacity, dedup);
    let mut ops = 0usize;
    let started = Instant::now();
    for u in updates {
        black_box(q.insert(*u));
        ops += 1;
        if q.len() > depth {
            black_box(q.pop_oldest());
            ops += 1;
        }
    }
    while let Some(u) = q.pop_oldest() {
        black_box(u);
        ops += 1;
    }
    per_op(started, ops)
}

/// OS receive-queue cost per delivered update: `OsQueue::deliver` into
/// a full queue of `capacity`, so every delivery sheds one update — the
/// steady state of an ingest stream that outruns the executor.
#[must_use]
pub fn os_deliver_ns_per_update(updates: &[Update], capacity: usize) -> f64 {
    let mut q = OsQueue::new(capacity);
    for u in updates.iter().cycle().take(capacity) {
        let _ = q.deliver(*u);
    }
    let started = Instant::now();
    for u in updates {
        black_box(q.deliver(*u));
    }
    per_op(started, updates.len())
}

/// Install cost per update: `Store::install` plus the staleness
/// tracker's `on_install`, over the run's updates. Returns `(ns per
/// update, superseded share)`.
#[must_use]
pub fn install_ns_per_update(
    updates: &[Update],
    n_low: u32,
    n_high: u32,
    alpha: f64,
) -> (f64, f64) {
    let mut store = Store::new(n_low, n_high, 0, SimTime::ZERO);
    let mut tracker = StalenessTracker::new(
        StalenessSpec::MaxAge { alpha },
        n_low,
        n_high,
        SimTime::ZERO,
        |_| SimTime::ZERO,
    );
    let mut superseded = 0u64;
    let started = Instant::now();
    for u in updates {
        match store.install(u) {
            InstallOutcome::Installed {
                new_version,
                min_generation,
            } => {
                black_box(tracker.on_install(u.object, min_generation, new_version, u.arrival_ts));
            }
            InstallOutcome::Superseded => superseded += 1,
        }
    }
    let ns = per_op(started, updates.len());
    let share = if updates.is_empty() {
        0.0
    } else {
        superseded as f64 / updates.len() as f64
    };
    (ns, share)
}

/// DAG cost per applied delta: the run's updates are installed and fed
/// to `DagState::on_base_install`; every `apply_every` installs all
/// pending deltas are applied in ascending (topological) node order.
/// The time spent in `on_base_install` and `apply` (not in the store
/// installs) is divided by the deltas applied; 0 when none was.
#[must_use]
pub fn dag_ns_per_apply(
    cfg: &SimConfig,
    spec: &DagSpec,
    updates: &[Update],
    apply_every: usize,
) -> f64 {
    let mut rng = Xoshiro256pp::seed_from_u64(cfg.seed).substream(0xDA6);
    let dag = generate_dag(spec, cfg.n_low, cfg.n_high, &mut rng);
    let mut store = Store::new(cfg.n_low, cfg.n_high, 0, SimTime::ZERO);
    let mut state = DagState::new(&dag, &store, spec.max_pending);
    let nodes = dag.len() as u32;
    let mut busy_ns = 0u128;
    let mut applied = 0u64;
    for (i, u) in updates.iter().enumerate() {
        let _ = store.install(u);
        let started = Instant::now();
        state.on_base_install(&dag, u.object, u.payload, u.arrival_ts);
        if (i + 1) % apply_every.max(1) == 0 {
            for node in 0..nodes {
                if state.apply(&dag, &store, node, u.arrival_ts).is_some() {
                    applied += 1;
                }
            }
        }
        busy_ns += started.elapsed().as_nanos();
    }
    if applied == 0 {
        return 0.0;
    }
    busy_ns as f64 / applied as f64
}

/// Batch-frame encode cost per update over the run's updates, in frames
/// of `batch`. Returns `(ns per update, the encoded bodies)`.
#[must_use]
pub fn encode_ns_per_update(updates: &[WireUpdate], batch: usize) -> (f64, Vec<Vec<u8>>) {
    let mut bodies = Vec::with_capacity(updates.len() / batch.max(1) + 1);
    let started = Instant::now();
    for chunk in updates.chunks(batch.max(1)) {
        let mut body = Vec::new();
        encode_batch_body(&mut body, chunk).expect("batch within the frame limit");
        bodies.push(body);
    }
    (per_op(started, updates.len()), bodies)
}

/// Zero-copy batch decode cost per update over already-encoded bodies.
#[must_use]
pub fn decode_ns_per_update(bodies: &[Vec<u8>]) -> f64 {
    let mut n = 0usize;
    let started = Instant::now();
    for body in bodies {
        for_each_batch_update(body, |w| {
            black_box(w);
            n += 1;
        })
        .expect("well-formed batch");
    }
    per_op(started, n)
}

/// SPSC ring cost per update: push then pop each update through a ring
/// of `capacity`, in bursts of up to half the ring, on one thread (the
/// cross-core cache traffic of the live ring is not included).
#[must_use]
pub fn spsc_ns_per_update(updates: &[WireUpdate], capacity: usize) -> f64 {
    let (mut tx, mut rx) = spsc::ring(capacity);
    let started = Instant::now();
    for chunk in updates.chunks((capacity / 2).max(1)) {
        for &u in chunk {
            if tx.push(u).is_err() {
                unreachable!("a burst of half the ring always fits");
            }
        }
        while let Some(u) = rx.pop() {
            black_box(u);
        }
    }
    per_op(started, updates.len())
}

/// WAL cost per update: `WalHandle::append` of every update, then one
/// `barrier` that waits until the flusher has written them, under the
/// default group commit, into `dir` (which is removed afterwards).
///
/// # Errors
///
/// Propagates WAL start-up and seal errors.
pub fn wal_ns_per_update(updates: &[WireUpdate], dir: &Path) -> std::io::Result<f64> {
    let _ = std::fs::remove_dir_all(dir);
    let mut cfg = DurabilityConfig::new(dir);
    cfg.snapshot_secs = f64::INFINITY;
    let mut wal = WalHandle::start(&cfg, 0x5EED, 0)?;
    let started = Instant::now();
    for (seq, u) in updates.iter().enumerate() {
        wal.append(seq as u64, *u, 0);
    }
    wal.barrier(updates.len() as u64);
    let ns = per_op(started, updates.len());
    wal.seal()?;
    let _ = std::fs::remove_dir_all(dir);
    Ok(ns)
}

/// A wire update as the executor's `Update` (global id space, one
/// arrival per microsecond of generation).
#[must_use]
pub fn to_update(seq: u64, w: &WireUpdate) -> Update {
    let class = Importance::from_index(usize::from(w.class)).unwrap_or(Importance::Low);
    let gen = SimTime::from_secs(w.generation_micros as f64 * 1e-6);
    Update {
        seq,
        object: ViewObjectId::new(class, w.index),
        generation_ts: gen,
        arrival_ts: gen,
        payload: w.payload,
        attr_mask: w.attr_mask,
    }
}
