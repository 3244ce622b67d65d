//! Property tests for the derived-view DAG (DESIGN.md §17): delta
//! conservation under random generated DAGs and interleavings, the
//! incremental path against the full-recompute oracle at quiescent points,
//! and the dense `DagState` against an ordered-map reference model.

use std::collections::BTreeMap;

use proptest::prelude::*;
use strip_db::dag::{
    full_recompute, generate_dag, DagCounters, DagInput, DagSpec, DagState, DeltaKind,
    PendingDelta, ViewDag,
};
use strip_db::object::{Importance, ViewObjectId};
use strip_db::store::Store;
use strip_db::update::Update;
use strip_sim::rng::Xoshiro256pp;
use strip_sim::time::SimTime;

const N_LOW: u32 = 8;
const N_HIGH: u32 = 4;

fn object_for(k: u32) -> ViewObjectId {
    let k = k % (N_LOW + N_HIGH);
    if k < N_LOW {
        ViewObjectId::new(Importance::Low, k)
    } else {
        ViewObjectId::new(Importance::High, k - N_LOW)
    }
}

/// One step of the random interleaving: install a base update (and
/// propagate it into the DAG) or apply the next pending delta.
#[derive(Debug, Clone, Copy)]
enum Step {
    Install { obj: u32, payload_milli: i32 },
    ApplyNext,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u32..(N_LOW + N_HIGH), -5_000i32..5_000)
            .prop_map(|(obj, payload_milli)| { Step::Install { obj, payload_milli } }),
        Just(Step::ApplyNext),
    ]
}

fn shape_strategy() -> impl Strategy<Value = (u32, u32, u32)> {
    (1u32..4, 1u32..6, 1u32..4)
}

/// Runs the interleaving over a generated DAG, asserting per-step delta
/// conservation, and returns the final `(store, state)` pair.
fn drive(dag: &strip_db::dag::ViewDag, max_pending: u32, steps: &[Step]) -> (Store, DagState) {
    let mut store = Store::new(N_LOW, N_HIGH, 0, SimTime::ZERO);
    let mut state = DagState::new(dag, &store, max_pending);
    let mut seq = 0u64;
    for (i, step) in steps.iter().enumerate() {
        let now = SimTime::from_secs(i as f64 * 0.01);
        match *step {
            Step::Install { obj, payload_milli } => {
                seq += 1;
                let object = object_for(obj);
                let payload = f64::from(payload_milli) / 1_000.0;
                store.install(&Update {
                    seq,
                    object,
                    generation_ts: now,
                    arrival_ts: now,
                    payload,
                    attr_mask: Update::COMPLETE,
                });
                state.on_base_install(dag, object, payload, now);
            }
            Step::ApplyNext => {
                if let Some(node) = state.next_pending() {
                    assert!(state.apply(dag, &store, node, now).is_some());
                }
            }
        }
        let s = state.stats;
        assert_eq!(
            s.enqueued,
            s.applied + s.coalesced + s.shed + state.pending_len() as u64,
            "conservation broke at step {i}"
        );
    }
    (store, state)
}

/// The DAG maintenance state written from its definitions: pending
/// deltas in an ordered map, and staleness and both closures recomputed
/// from the graph on every query instead of maintained incrementally.
struct Model {
    values: Vec<f64>,
    pending: BTreeMap<u32, PendingDelta>,
    max_pending: usize,
    stats: DagCounters,
}

impl Model {
    fn new(dag: &ViewDag, store: &Store, max_pending: u32) -> Self {
        Model {
            values: full_recompute(dag, store),
            pending: BTreeMap::new(),
            max_pending: max_pending.max(1) as usize,
            stats: DagCounters::default(),
        }
    }

    /// Per node: pending, or reading a stale derived node.
    fn stale(&self, dag: &ViewDag) -> Vec<bool> {
        let mut stale = vec![false; dag.len()];
        for n in 0..dag.len() {
            stale[n] = self.pending.contains_key(&(n as u32))
                || dag
                    .inputs(n as u32)
                    .iter()
                    .any(|i| matches!(*i, DagInput::Derived(j) if stale[j as usize]));
        }
        stale
    }

    /// `node` and its ancestors reached through stale inputs, filtered by
    /// `keep`, ascending.
    fn closure(&self, dag: &ViewDag, node: u32, keep: impl Fn(u32) -> bool) -> Vec<u32> {
        let stale = self.stale(dag);
        let mut reached = vec![false; dag.len()];
        reached[node as usize] = true;
        for n in (0..=node).rev() {
            if reached[n as usize] {
                for input in dag.inputs(n) {
                    if let DagInput::Derived(j) = *input {
                        reached[j as usize] |= stale[j as usize];
                    }
                }
            }
        }
        (0..=node)
            .filter(|&n| reached[n as usize] && keep(n))
            .collect()
    }

    fn enqueue(&mut self, node: u32, kind: DeltaKind, magnitude: f64, now: SimTime) {
        self.stats.enqueued += 1;
        if let Some(p) = self.pending.get_mut(&node) {
            p.merged += 1;
            p.magnitude += magnitude;
            self.stats.coalesced += 1;
        } else if self.pending.len() >= self.max_pending {
            self.stats.shed += 1;
        } else {
            self.pending.insert(
                node,
                PendingDelta {
                    kind,
                    merged: 1,
                    magnitude,
                    first_enqueued: now,
                },
            );
        }
    }

    /// Nodes whose inputs include `input`, ascending.
    fn readers(dag: &ViewDag, input: DagInput) -> Vec<u32> {
        (0..dag.len() as u32)
            .filter(|&n| dag.inputs(n).contains(&input))
            .collect()
    }

    fn on_base_install(
        &mut self,
        dag: &ViewDag,
        object: ViewObjectId,
        magnitude: f64,
        now: SimTime,
    ) {
        for d in Self::readers(dag, DagInput::Base(object)) {
            self.enqueue(d, DeltaKind::Base, magnitude, now);
        }
    }

    fn apply(&mut self, dag: &ViewDag, store: &Store, node: u32, now: SimTime) -> Option<f64> {
        self.pending.remove(&node)?;
        self.stats.applied += 1;
        let inputs = dag.inputs(node);
        let sum: f64 = inputs
            .iter()
            .map(|input| match *input {
                DagInput::Base(obj) => store.view(obj).payload,
                DagInput::Derived(j) => self.values[j as usize],
            })
            .sum();
        let old = self.values[node as usize];
        let new = if inputs.is_empty() {
            0.0
        } else {
            sum / inputs.len() as f64
        };
        self.values[node as usize] = new;
        if new.to_bits() != old.to_bits() {
            for d in Self::readers(dag, DagInput::Derived(node)) {
                self.enqueue(d, DeltaKind::Cascade, new - old, now);
            }
        }
        Some(new)
    }

    /// Asserts that `state` is indistinguishable from the model.
    fn assert_matches(&self, dag: &ViewDag, state: &DagState, step: usize) {
        let stale = self.stale(dag);
        assert_eq!(
            state.next_pending(),
            self.pending.keys().next().copied(),
            "step {step}"
        );
        assert_eq!(state.pending_len(), self.pending.len(), "step {step}");
        assert_eq!(state.stats, self.stats, "step {step}");
        let stale_count = stale.iter().filter(|&&s| s).count() as u32;
        assert_eq!(state.stale_count(), stale_count, "step {step}");
        for n in 0..dag.len() as u32 {
            assert_eq!(state.is_stale(n), stale[n as usize], "step {step} node {n}");
            assert_eq!(
                state.pending(n),
                self.pending.get(&n),
                "step {step} node {n}"
            );
            assert_eq!(state.value(n).to_bits(), self.values[n as usize].to_bits());
            assert_eq!(
                state.pending_closure(dag, n),
                self.closure(dag, n, |m| self.pending.contains_key(&m)),
                "step {step} node {n}: pending closure"
            );
            assert_eq!(
                state.stale_closure(dag, n),
                self.closure(dag, n, |m| stale[m as usize]),
                "step {step} node {n}: stale closure"
            );
        }
    }
}

/// One step of the model comparison: an install, an apply of the lowest
/// pending node, or an apply of an arbitrary (possibly not pending) node.
#[derive(Debug, Clone, Copy)]
enum ModelStep {
    Install { obj: u32, payload_milli: i32 },
    ApplyNext,
    Apply { node: u32 },
}

fn model_step_strategy() -> impl Strategy<Value = ModelStep> {
    prop_oneof![
        3 => (0u32..(N_LOW + N_HIGH), -5_000i32..5_000)
            .prop_map(|(obj, payload_milli)| ModelStep::Install { obj, payload_milli }),
        2 => Just(ModelStep::ApplyNext),
        1 => (0u32..24).prop_map(|node| ModelStep::Apply { node }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The dense pending slots, occupancy bitset and reused cascade stack
    /// against the ordered-map model, under a pending bound tight enough
    /// to shed: same drain order, pending set, staleness, closures, values
    /// and conservation counters after every step.
    #[test]
    fn dense_state_matches_the_ordered_map_model(
        shape in shape_strategy(),
        dag_seed in 0u64..1_000,
        max_pending in 1u32..5,
        steps in prop::collection::vec(model_step_strategy(), 1..100),
    ) {
        let (depth, width, fanout) = shape;
        let spec = DagSpec { depth, width, fanout, ..DagSpec::default() };
        let mut dag_rng = Xoshiro256pp::seed_from_u64(dag_seed).substream(0xDA6);
        let dag = generate_dag(&spec, N_LOW, N_HIGH, &mut dag_rng);
        let mut store = Store::new(N_LOW, N_HIGH, 0, SimTime::ZERO);
        let mut state = DagState::new(&dag, &store, max_pending);
        let mut model = Model::new(&dag, &store, max_pending);
        for (i, step) in steps.iter().enumerate() {
            let now = SimTime::from_secs(i as f64 * 0.01);
            match *step {
                ModelStep::Install { obj, payload_milli } => {
                    let object = object_for(obj);
                    let payload = f64::from(payload_milli) / 1_000.0;
                    store.install(&Update {
                        seq: i as u64 + 1,
                        object,
                        generation_ts: now,
                        arrival_ts: now,
                        payload,
                        attr_mask: Update::COMPLETE,
                    });
                    state.on_base_install(&dag, object, payload, now);
                    model.on_base_install(&dag, object, payload, now);
                }
                ModelStep::ApplyNext => {
                    if let Some(node) = model.pending.keys().next().copied() {
                        let got = state.apply(&dag, &store, node, now).map(|r| r.value.to_bits());
                        let want = model.apply(&dag, &store, node, now).map(f64::to_bits);
                        prop_assert_eq!(got, want);
                    }
                }
                ModelStep::Apply { node } => {
                    let node = node % dag.len() as u32;
                    let got = state.apply(&dag, &store, node, now).map(|r| r.value.to_bits());
                    let want = model.apply(&dag, &store, node, now).map(f64::to_bits);
                    prop_assert_eq!(got, want);
                }
            }
            model.assert_matches(&dag, &state, i);
        }
    }

    /// With a pending bound the DAG can never hit (it is keyed by node, so
    /// at most `depth × width` entries exist), no delta is ever shed:
    /// draining to quiescence must reproduce the full-recompute oracle
    /// bit for bit with zero transitive staleness, and every enqueue ends
    /// applied or coalesced.
    #[test]
    fn quiescent_incremental_matches_full_recompute(
        shape in shape_strategy(),
        dag_seed in 0u64..1_000,
        steps in prop::collection::vec(step_strategy(), 1..120),
    ) {
        let (depth, width, fanout) = shape;
        let spec = DagSpec { depth, width, fanout, ..DagSpec::default() };
        let mut dag_rng = Xoshiro256pp::seed_from_u64(dag_seed).substream(0xDA6);
        let dag = generate_dag(&spec, N_LOW, N_HIGH, &mut dag_rng);
        let roomy = depth * width + 1;
        let (store, mut state) = drive(&dag, roomy, &steps);
        let end = SimTime::from_secs(1e6);
        while let Some(node) = state.next_pending() {
            prop_assert!(state.apply(&dag, &store, node, end).is_some());
        }
        prop_assert_eq!(state.pending_len(), 0);
        prop_assert_eq!(state.stale_count(), 0, "quiescent DAG must be fresh");
        let oracle = full_recompute(&dag, &store);
        for (node, expect) in oracle.iter().enumerate() {
            prop_assert_eq!(
                state.value(node as u32).to_bits(),
                expect.to_bits(),
                "node {} diverged from the full-recompute oracle",
                node
            );
        }
        let s = state.stats;
        prop_assert_eq!(s.shed, 0, "roomy bound must never shed");
        prop_assert_eq!(s.enqueued, s.applied + s.coalesced);
    }

    /// With a tight pending bound the interleaving sheds deltas; the
    /// conservation identity must keep holding through shed and drain
    /// (shed deltas are *lost work*, accounted but never applied).
    #[test]
    fn tight_pending_bound_sheds_but_conserves(
        shape in shape_strategy(),
        dag_seed in 0u64..1_000,
        steps in prop::collection::vec(step_strategy(), 30..120),
    ) {
        let (depth, width, fanout) = shape;
        let spec = DagSpec { depth, width, fanout, ..DagSpec::default() };
        let mut dag_rng = Xoshiro256pp::seed_from_u64(dag_seed).substream(0xDA6);
        let dag = generate_dag(&spec, N_LOW, N_HIGH, &mut dag_rng);
        let (store, mut state) = drive(&dag, 1, &steps);
        let end = SimTime::from_secs(1e6);
        while let Some(node) = state.next_pending() {
            prop_assert!(state.apply(&dag, &store, node, end).is_some());
        }
        let s = state.stats;
        prop_assert_eq!(s.enqueued, s.applied + s.coalesced + s.shed);
    }
}
