//! The controller: CPU scheduling of transactions and the update process.
//!
//! This module is the paper's core contribution (§3.1, §4). A single CPU is
//! shared between transaction processes and one update-installation process;
//! the scheduling policy decides, at every scheduling point, whether the
//! next CPU slice goes to a transaction (chosen by value density, subject to
//! the feasible-deadline purge) or to update work (receiving arrivals from
//! the OS queue, moving them into the generation-ordered update queue, and
//! installing them into the store).
//!
//! The four algorithms of §4 map onto two mechanisms:
//!
//! * **arrival reaction** — UF and SU preempt a running transaction when an
//!   update arrives (charging `2·x_switch`); TF, OD and the fixed-fraction
//!   extension let arrivals wait in the OS queue;
//! * **dispatch priority** — UF and SU (for its immediate class) serve the
//!   OS queue before transactions; TF/OD serve transactions first and drain
//!   queues only when idle; OD additionally refreshes stale objects from the
//!   update queue *during* a transaction's view read.
//!
//! All CPU consumption — including queue inserts (`x_queue·ln n`), queue
//! scans (`x_scan·N_q`) and on-demand installs — is modelled as cancellable
//! CPU slices, so preemption and the firm-deadline watchdog interact with
//! every activity exactly as they would in the real system.

use strip_db::cost::CostModel;
use strip_db::dag::{generate_dag, DagState, ViewDag};
use strip_db::history::HistoryStore;
use strip_db::object::{Importance, ViewObjectId};
use strip_db::osqueue::OsQueue;
use strip_db::staleness::{DerivedStaleness, ExpiryWatch, StalenessSpec, StalenessTracker};
use strip_db::store::{InstallOutcome, Store};
use strip_db::triggers::{generate_rules, RuleSet};
use strip_db::update::Update;
use strip_db::update_queue::DualUpdateQueue;
use strip_obs::{
    GaugeValues, TraceAbort, TraceConfig, TraceData, TraceJob, TraceKind, TracePath, TraceSink,
    TraceTrack,
};
use strip_sim::dist::{Distribution, Exponential};
use strip_sim::engine::{Ctx, Engine, Simulation};
use strip_sim::rng::Xoshiro256pp;
use strip_sim::time::SimTime;

use crate::config::{ConfigError, SimConfig};
use crate::metrics::{AbortReason, Activity, InstallPath, Metrics, QueueDrops};
use crate::policy::{self, ArrivalRoute, ReadCheck, ServiceOrder, WorkState};
use crate::ready::ReadyQueue;
use crate::report::{ResilienceStats, RunReport};
use crate::sources::{TxnSource, UpdateSource};
use crate::txn::{Segment, Transaction, TxnSpec};

/// Events of the controller model.
#[derive(Debug, Clone)]
pub enum Event {
    /// An external update arrives at the system.
    UpdateArrival(crate::sources::UpdateSpec),
    /// A transaction arrives. Boxed: arrivals are rare (about 1 % of
    /// events) and the spec is the largest payload, so boxing it halves
    /// the size of every calendar slot.
    TxnArrival(Box<TxnSpec>),
    /// The current CPU slice completes (valid only for the matching epoch).
    CpuDone {
        /// Epoch the slice was started under; stale epochs are ignored.
        epoch: u64,
    },
    /// Firm-deadline watchdog for one transaction.
    Deadline {
        /// Transaction id.
        txn_id: u64,
    },
    /// MA staleness watchdog for one installed value.
    Expiry(ExpiryWatch),
    /// End of the metric warm-up window.
    WarmupEnd,
}

// Every calendar slot holds one `Event`; keep the rare large payloads boxed.
const _: () = assert!(core::mem::size_of::<Event>() <= 48);

/// What kind of transaction-attributed CPU slice is running.
#[derive(Debug, Clone, Copy, PartialEq)]
enum TxnSliceKind {
    /// The current plan segment (work or view-read lookup).
    Segment,
    /// Scanning the update queue (UU staleness check, or OD's search for an
    /// applicable update under MA).
    StaleScan {
        obj: ViewObjectId,
        /// Seconds left in the scan (survives preemption).
        remaining: f64,
    },
    /// Applying an on-demand update taken from the queue (OD).
    OdApply { obj: ViewObjectId, remaining: f64 },
    /// Waiting out a buffer-pool miss on a view read (disk extension).
    IoStall { obj: ViewObjectId, remaining: f64 },
    /// Recursively refreshing the stale ancestors of a derived node before
    /// its read is answered (OD generalised to the view DAG).
    DagRefresh { node: u32, remaining: f64 },
}

/// The job occupying the CPU.
#[derive(Debug, Clone)]
enum Job {
    /// Running the current transaction (`running` field).
    Txn(TxnSliceKind),
    /// Installing one update (lookup + write, or lookup-only when
    /// superseded).
    Install {
        update: Update,
        path: InstallPath,
        superseded: bool,
    },
    /// Receiving/enqueueing updates from the OS queue into the update queue.
    QueueTransfer,
    /// Executing one fired rule (triggers extension).
    RuleExec { rule_id: u32, fired_at: SimTime },
    /// Applying one pending DAG delta in the background (derived-view
    /// extension): recompute the node from its current inputs, cascade on
    /// change.
    DagApply { node: u32 },
}

#[derive(Debug, Clone)]
enum CpuState {
    Idle,
    Busy {
        epoch: u64,
        started: SimTime,
        job: Job,
    },
}

/// The transaction currently bound to the CPU (possibly preempted).
#[derive(Debug)]
struct RunningTxn {
    txn: Transaction,
    /// Kind of the slice in progress or to resume.
    slice: TxnSliceKind,
    /// OD update taken from the queue, to be installed by `OdApply`.
    pending_apply: Option<Update>,
}

/// Result of one attempted step of update work.
enum UpdateStep {
    /// A CPU slice was started.
    StartedSlice,
    /// Zero-cost work was performed (e.g. a free enqueue); re-evaluate.
    InstantProgress,
    /// No update work available.
    Nothing,
}

/// The controller simulation: drives a [`Store`], the queues and the
/// scheduler from workload sources, producing a [`RunReport`].
pub struct Controller<U, T> {
    cfg: SimConfig,
    costs: CostModel,
    alpha: Option<f64>,
    store: Store,
    tracker: StalenessTracker,
    os_queue: OsQueue,
    uq: DualUpdateQueue,
    ready: ReadyQueue,
    running: Option<RunningTxn>,
    cpu: CpuState,
    epoch: u64,
    update_src: U,
    txn_src: T,
    metrics: Metrics,
    update_seq: u64,
    /// `2·x_switch` owed by the next update slice after a preemption.
    pending_preempt_cost: f64,
    horizon: SimTime,
    /// Historical views (extension): version chains plus the RNG deciding
    /// which reads are as-of reads.
    history: Option<HistoryStore>,
    hist_rng: Xoshiro256pp,
    /// Update-triggered rules (extension). `rule_pending` maps a pending
    /// rule to the set of distinct sources that changed since it was
    /// queued — the delta-scaled execution charge depends on it.
    rules: Option<RuleSet>,
    rule_queue: std::collections::VecDeque<(u32, SimTime)>,
    rule_pending: std::collections::BTreeMap<u32, std::collections::BTreeSet<ViewObjectId>>,
    /// Derived-view DAG (extension): topology, maintenance state and the
    /// transitive-staleness observer.
    dag: Option<ViewDag>,
    dag_state: Option<DagState>,
    derived_stale: Option<DerivedStaleness>,
    /// Buffer-pool model (disk extension).
    io_rng: Xoshiro256pp,
    /// Per-object view-read counts, feeding the HotFirst discipline
    /// (indexed `[class][index]`).
    read_counts: [Vec<u64>; 2],
    /// Outage window from the disturbance spec (robustness extension),
    /// driving the staleness-recovery measurement.
    outage: Option<(SimTime, SimTime)>,
    /// Stale-object count sampled at the first event inside the outage.
    outage_baseline: Option<f64>,
    /// First post-outage event at which staleness was back at (or below)
    /// the baseline.
    recovery_at: Option<SimTime>,
    /// Flight recorder (strip-obs). `None` unless tracing was requested;
    /// every record site is behind one `is_some` check, and the sink never
    /// feeds back into scheduling, so a traced run is bit-identical to an
    /// untraced one.
    trace: Option<Box<TraceSink>>,
}

impl<U: UpdateSource, T: TxnSource> Controller<U, T> {
    /// Builds a controller for `cfg`, initialising view objects with
    /// steady-state exponential ages (see DESIGN.md).
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation.
    #[must_use]
    pub fn new(cfg: SimConfig, update_src: U, txn_src: T) -> Self {
        Self::try_new(cfg, update_src, txn_src).expect("invalid SimConfig")
    }

    /// Fallible variant of [`Controller::new`]: surfaces the validation
    /// error instead of panicking, so sweep drivers can report a bad
    /// config point without aborting the whole campaign.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `cfg` fails validation.
    pub fn try_new(cfg: SimConfig, update_src: U, txn_src: T) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let costs = cfg.costs;
        let alpha = cfg.staleness.alpha();
        let root = Xoshiro256pp::seed_from_u64(cfg.seed);
        let mut init_rng = root.substream(0xA9E);
        let mean_low = cfg.per_object_refresh_mean(true);
        let mean_high = cfg.per_object_refresh_mean(false);
        let mut init_ages: Vec<SimTime> = Vec::with_capacity((cfg.n_low + cfg.n_high) as usize);
        for _ in 0..cfg.n_low {
            let age = if mean_low.is_finite() {
                Exponential::new(mean_low).sample(&mut init_rng)
            } else {
                0.0
            };
            init_ages.push(SimTime::from_secs(-age));
        }
        for _ in 0..cfg.n_high {
            let age = if mean_high.is_finite() {
                Exponential::new(mean_high).sample(&mut init_rng)
            } else {
                0.0
            };
            init_ages.push(SimTime::from_secs(-age));
        }
        let idx = |id: ViewObjectId| -> usize {
            match id.class {
                Importance::Low => id.index as usize,
                Importance::High => cfg.n_low as usize + id.index as usize,
            }
        };
        let store = Store::with_initial_timestamps(
            cfg.n_low,
            cfg.n_high,
            cfg.n_general,
            cfg.attrs_per_object,
            |id| init_ages[idx(id)],
        );
        let tracker =
            StalenessTracker::new(cfg.staleness, cfg.n_low, cfg.n_high, SimTime::ZERO, |id| {
                init_ages[idx(id)]
            });
        let mut metrics = Metrics::new(SimTime::from_secs(cfg.warmup));
        if let Some(width) = cfg.timeline_window {
            metrics.enable_timeline(width);
        }
        let horizon = SimTime::from_secs(cfg.duration);
        let history = cfg
            .history
            .map(|h| HistoryStore::new(h.policy, cfg.n_low, cfg.n_high));
        let hist_rng = root.substream(0x415);
        let rules = cfg.triggers.map(|t| {
            let mut rule_rng = root.substream(0x712);
            generate_rules(
                t.n_rules,
                t.sources_per_rule,
                t.exec_instr,
                cfg.n_low,
                cfg.n_high,
                cfg.n_general,
                &mut rule_rng,
            )
        });
        let outage = cfg
            .disturbance
            .and_then(|d| d.outage_window())
            .map(|(from, to)| (SimTime::from_secs(from), SimTime::from_secs(to)));
        // The DAG sub-stream (0xDA6) is only drawn when the extension is
        // on, so DAG-less configs stay bit-identical to the seed.
        let dag = cfg.dag.map(|spec| {
            let mut dag_rng = root.substream(0xDA6);
            generate_dag(&spec, cfg.n_low, cfg.n_high, &mut dag_rng)
        });
        let dag_state = dag
            .as_ref()
            .map(|d| DagState::new(d, &store, cfg.dag.map_or(1, |s| s.max_pending)));
        let derived_stale = dag
            .as_ref()
            .map(|d| DerivedStaleness::new(d.len(), SimTime::ZERO));
        Ok(Controller {
            costs,
            alpha,
            store,
            tracker,
            os_queue: OsQueue::with_shed(cfg.os_max, cfg.os_shed),
            uq: DualUpdateQueue::with_shed(
                cfg.uq_max,
                cfg.indexed_queue,
                cfg.split_update_queue,
                cfg.uq_shed,
            ),
            ready: ReadyQueue::new(),
            running: None,
            cpu: CpuState::Idle,
            epoch: 0,
            update_src,
            txn_src,
            metrics,
            update_seq: 0,
            pending_preempt_cost: 0.0,
            horizon,
            history,
            hist_rng,
            rules,
            rule_queue: std::collections::VecDeque::new(),
            rule_pending: std::collections::BTreeMap::new(),
            dag,
            dag_state,
            derived_stale,
            io_rng: root.substream(0xD15C),
            read_counts: [vec![0; cfg.n_low as usize], vec![0; cfg.n_high as usize]],
            outage,
            outage_baseline: None,
            recovery_at: None,
            trace: None,
            cfg,
        })
    }

    /// Draws the buffer-pool miss penalty for one object access (seconds);
    /// 0 for the paper's main-memory model.
    fn io_penalty(&mut self, now: SimTime, on_install: bool) -> f64 {
        let Some(io) = self.cfg.io else {
            return 0.0;
        };
        if self.io_rng.chance(io.hit_ratio) {
            return 0.0;
        }
        self.metrics.io_miss(now, on_install);
        self.costs.secs(io.x_io)
    }

    /// Primes the engine with the first arrivals, the warm-up boundary and
    /// the initial staleness watchdogs.
    pub fn prime(&mut self, engine: &mut Engine<Event>) {
        for watch in self.tracker.initial_watches() {
            engine.prime(watch.at.max(SimTime::ZERO), Event::Expiry(watch));
        }
        if self.cfg.warmup > 0.0 {
            engine.prime(SimTime::from_secs(self.cfg.warmup), Event::WarmupEnd);
        }
        if let Some(u) = self.update_src.next_update() {
            engine.prime(u.arrival, Event::UpdateArrival(u));
        }
        if let Some(t) = self.txn_src.next_txn() {
            engine.prime(t.arrival, Event::TxnArrival(Box::new(t)));
        }
    }

    /// Consumes the controller and produces the final report; `end` is the
    /// simulation horizon, `events` the engine's processed-event count.
    #[must_use]
    pub fn finalize(mut self, end: SimTime, events: u64) -> RunReport {
        // Charge any slice still on the CPU up to the horizon.
        if let CpuState::Busy {
            started, ref job, ..
        } = self.cpu
        {
            let activity = Self::activity_of(job);
            self.metrics.charge_busy(activity, started, end);
        }
        if let Some(rt) = &self.running {
            self.metrics.txn_in_flight(&rt.txn);
        }
        while let Some(t) = self.ready.pop_best() {
            self.metrics.txn_in_flight(&t);
        }
        let in_flight_install = match &self.cpu {
            CpuState::Busy {
                job: Job::Install { .. },
                ..
            } => 1,
            _ => 0,
        };
        let pending_od = self
            .running
            .as_ref()
            .map_or(0, |rt| u64::from(rt.pending_apply.is_some()));
        if let Some(history) = self.history.as_ref() {
            self.metrics.history_store_totals(
                history.appends(),
                history.pruned(),
                history.total_entries() as u64,
            );
        }
        let rule_on_cpu = matches!(
            self.cpu,
            CpuState::Busy {
                job: Job::RuleExec { .. },
                ..
            }
        ) as u64;
        self.metrics
            .rules_pending_at_end(self.rule_queue.len() as u64 + rule_on_cpu);
        // A DagApply slice cut off by the horizon never removed its entry
        // from the pending map, so the map alone is the pending bucket.
        if let Some(state) = self.dag_state.as_ref() {
            let fold = self.derived_stale.as_ref().map_or(0.0, |ds| ds.fold(end));
            self.metrics
                .dag_totals(state.stats, state.pending_len() as u64, fold);
        }
        let drops = QueueDrops {
            expired: self.uq.expired_dropped(),
            overflow: self.uq.overflow_dropped(),
            dedup: self.uq.dedup_dropped(),
            left_in_os: self.os_queue.len() as u64,
            left_in_uq: self.uq.len() as u64,
            in_flight: in_flight_install + pending_od,
        };
        let stream = self.update_src.disturbance_stats();
        let resilience = ResilienceStats {
            duplicated: stream.duplicated,
            reordered: stream.reordered,
            outage_held: stream.outage_held,
            burst_grouped: stream.burst_grouped,
            // Filled in from the update counters by `Metrics::finalize`.
            admission_shed: 0,
            recovery_secs: match (self.outage, self.recovery_at) {
                (Some((_, outage_end)), Some(at)) => Some(at.since(outage_end)),
                _ => None,
            },
        };
        self.metrics.finalize(
            self.cfg.policy.label(),
            self.cfg.seed,
            self.cfg.duration,
            end,
            &self.tracker,
            drops,
            resilience,
            events,
        )
    }

    /// Read-only access to the store (for examples and tests).
    #[must_use]
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Read-only access to the staleness tracker.
    #[must_use]
    pub fn tracker(&self) -> &StalenessTracker {
        &self.tracker
    }

    /// Current update-queue length.
    #[must_use]
    pub fn update_queue_len(&self) -> usize {
        self.uq.len()
    }

    // ---- scheduling invariants ----------------------------------------------

    /// The running transaction, with a descriptive panic when the
    /// scheduling invariant (an event that implies a bound transaction)
    /// is violated. Takes the field rather than `&mut self` so callers
    /// can keep other field borrows alive.
    fn running<'a>(
        running: &'a mut Option<RunningTxn>,
        now: SimTime,
        event: &str,
    ) -> &'a mut RunningTxn {
        running.as_mut().unwrap_or_else(|| {
            panic!(
                "invariant violated: no running transaction at t={:.6}s while handling {event}",
                now.as_secs()
            )
        })
    }

    /// Unbinds and returns the running transaction; panics like
    /// [`Controller::running`] when the invariant is violated.
    fn take_running(running: &mut Option<RunningTxn>, now: SimTime, event: &str) -> RunningTxn {
        running.take().unwrap_or_else(|| {
            panic!(
                "invariant violated: no running transaction at t={:.6}s while handling {event}",
                now.as_secs()
            )
        })
    }

    // ---- resilience (robustness extension) ----------------------------------

    /// Currently-stale view objects across both classes (UU/MA per the
    /// configured criterion).
    fn stale_total(&self) -> f64 {
        self.tracker.stale_count(Importance::Low) + self.tracker.stale_count(Importance::High)
    }

    /// Tracks staleness recovery around a configured outage window,
    /// sampled at event granularity: the baseline is the stale count at
    /// the first event inside the outage (arrivals have just stopped, so
    /// this is the pre-outage operating level), and recovery is the first
    /// post-outage event at which the count is back at or below it.
    fn note_resilience(&mut self, now: SimTime) {
        let Some((start, end)) = self.outage else {
            return;
        };
        if self.recovery_at.is_some() || now < start {
            return;
        }
        let Some(baseline) = self.outage_baseline else {
            self.outage_baseline = Some(self.stale_total());
            return;
        };
        if now >= end && self.stale_total() <= baseline {
            self.recovery_at = Some(now);
        }
    }

    /// True when the admission controller sheds this arrival: low
    /// importance only, and the measured CPU utilisation so far exceeds
    /// the configured threshold.
    fn admission_sheds(&self, class: Importance, now: SimTime) -> bool {
        let Some(admission) = self.cfg.admission else {
            return false;
        };
        if class != Importance::Low {
            return false;
        }
        let elapsed = now.as_secs();
        if elapsed <= 0.0 {
            return false;
        }
        let busy = self.metrics.busy_update_so_far() + self.metrics.busy_txn_so_far();
        busy / elapsed > admission.util_threshold
    }

    // ---- tracing (strip-obs) ------------------------------------------------

    /// Installs a flight recorder; subsequent scheduling points are
    /// recorded into it. Tracing is observation-only: it must not (and by
    /// construction cannot) change the simulated schedule.
    pub fn set_trace(&mut self, cfg: TraceConfig) {
        let policy = self.cfg.policy.label();
        self.trace = Some(Box::new(TraceSink::new(cfg, policy)));
    }

    /// Detaches the recorder and returns its capture; `None` when tracing
    /// was never enabled.
    pub fn take_trace(&mut self) -> Option<TraceData> {
        self.trace.take().map(|sink| sink.finish())
    }

    /// Like [`Controller::finalize`], but first closes any slice still on
    /// the CPU in the trace and returns the capture alongside the report.
    #[must_use]
    pub fn finalize_traced(mut self, end: SimTime, events: u64) -> (RunReport, Option<TraceData>) {
        let in_flight = match &self.cpu {
            CpuState::Busy { job, .. } => Some(Self::trace_job(job)),
            CpuState::Idle => None,
        };
        if let Some((track, job)) = in_flight {
            self.emit(
                end,
                TraceKind::SliceEnd {
                    track,
                    job,
                    interrupted: true,
                },
            );
        }
        let data = self.take_trace();
        (self.finalize(end, events), data)
    }

    /// Records one trace event when a sink is installed; a single branch
    /// otherwise, keeping untraced runs at full speed.
    #[inline]
    fn emit(&mut self, now: SimTime, kind: TraceKind) {
        if let Some(sink) = self.trace.as_deref_mut() {
            sink.record(now.as_secs(), kind);
        }
    }

    /// Records the post-change OS/update queue depths.
    #[inline]
    fn emit_queue_depth(&mut self, now: SimTime) {
        if self.trace.is_some() {
            let os = self.os_queue.len() as u32;
            let uq = self.uq.len() as u32;
            self.emit(now, TraceKind::QueueDepth { os, uq });
        }
    }

    /// Maps a CPU job onto its exported (track, job-kind) pair.
    fn trace_job(job: &Job) -> (TraceTrack, TraceJob) {
        let track = match Self::activity_of(job) {
            Activity::Txn => TraceTrack::Txn,
            Activity::Update => TraceTrack::Update,
        };
        let kind = match job {
            Job::Txn(TxnSliceKind::Segment) => TraceJob::Segment,
            Job::Txn(TxnSliceKind::StaleScan { .. }) => TraceJob::StaleScan,
            Job::Txn(TxnSliceKind::OdApply { .. }) => TraceJob::OdApply,
            Job::Txn(TxnSliceKind::IoStall { .. }) => TraceJob::IoStall,
            Job::Txn(TxnSliceKind::DagRefresh { .. }) => TraceJob::DagRefresh,
            Job::Install { .. } => TraceJob::Install,
            Job::QueueTransfer => TraceJob::QueueTransfer,
            Job::RuleExec { .. } => TraceJob::RuleExec,
            Job::DagApply { .. } => TraceJob::DagApply,
        };
        (track, kind)
    }

    fn trace_path(path: InstallPath) -> TracePath {
        match path {
            InstallPath::Background => TracePath::Background,
            InstallPath::Immediate => TracePath::Immediate,
            InstallPath::OnDemand => TracePath::OnDemand,
        }
    }

    // ---- slice management ---------------------------------------------------

    fn activity_of(job: &Job) -> Activity {
        match job {
            Job::Txn(TxnSliceKind::Segment) | Job::Txn(TxnSliceKind::IoStall { .. }) => {
                Activity::Txn
            }
            // Queue scans, on-demand installs and on-demand DAG refreshes
            // are update work (the paper counts OD's on-demand installs in
            // ρu — Figure 3b).
            Job::Txn(_) => Activity::Update,
            Job::Install { .. }
            | Job::QueueTransfer
            | Job::RuleExec { .. }
            | Job::DagApply { .. } => Activity::Update,
        }
    }

    fn start_slice(&mut self, now: SimTime, duration: f64, job: Job, ctx: &mut Ctx<'_, Event>) {
        debug_assert!(matches!(self.cpu, CpuState::Idle), "CPU already busy");
        debug_assert!(duration >= 0.0);
        if self.trace.is_some() {
            let (track, job) = Self::trace_job(&job);
            self.emit(
                now,
                TraceKind::SliceStart {
                    track,
                    job,
                    secs: duration,
                },
            );
        }
        self.epoch += 1;
        self.cpu = CpuState::Busy {
            epoch: self.epoch,
            started: now,
            job,
        };
        ctx.schedule_at(now + duration, Event::CpuDone { epoch: self.epoch });
    }

    /// Charges the in-progress slice to its activity and frees the CPU,
    /// recording partial progress for a preempted transaction slice.
    fn interrupt_slice(&mut self, now: SimTime) {
        let CpuState::Busy { started, job, .. } = std::mem::replace(&mut self.cpu, CpuState::Idle)
        else {
            return;
        };
        let elapsed = now.since(started);
        self.metrics
            .charge_busy(Self::activity_of(&job), started, now);
        if self.trace.is_some() {
            let (track, tjob) = Self::trace_job(&job);
            self.emit(
                now,
                TraceKind::SliceEnd {
                    track,
                    job: tjob,
                    interrupted: true,
                },
            );
        }
        if let Job::Txn(kind) = job {
            if let Some(rt) = self.running.as_mut() {
                match kind {
                    TxnSliceKind::Segment => rt.txn.consume(elapsed),
                    TxnSliceKind::StaleScan { obj, remaining } => {
                        rt.slice = TxnSliceKind::StaleScan {
                            obj,
                            remaining: (remaining - elapsed).max(0.0),
                        };
                    }
                    TxnSliceKind::OdApply { obj, remaining } => {
                        rt.slice = TxnSliceKind::OdApply {
                            obj,
                            remaining: (remaining - elapsed).max(0.0),
                        };
                    }
                    TxnSliceKind::IoStall { obj, remaining } => {
                        rt.slice = TxnSliceKind::IoStall {
                            obj,
                            remaining: (remaining - elapsed).max(0.0),
                        };
                    }
                    TxnSliceKind::DagRefresh { node, remaining } => {
                        rt.slice = TxnSliceKind::DagRefresh {
                            node,
                            remaining: (remaining - elapsed).max(0.0),
                        };
                    }
                }
            }
        }
        // Invalidate the pending CpuDone.
        self.epoch += 1;
    }

    // ---- installs -----------------------------------------------------------

    /// Starts an install slice for `update`. `path` records how the install
    /// was triggered; `extra` is additional CPU owed by this slice (queue
    /// dequeue cost, preemption switches).
    fn start_install_slice(
        &mut self,
        now: SimTime,
        update: Update,
        path: InstallPath,
        extra: f64,
        ctx: &mut Ctx<'_, Event>,
    ) {
        let obj = self.store.view(update.object);
        let superseded = if obj.attr_count() == 1 {
            update.generation_ts <= obj.generation_ts
        } else {
            // Partial updates: superseded only if no covered attribute
            // would advance.
            (0..obj.attr_count())
                .filter(|a| *a < 64 && (update.attr_mask >> a) & 1 == 1)
                .all(|a| update.generation_ts <= obj.attr_generation(a))
        };
        let work = if superseded {
            // The lookup reveals a value at least as recent; skip the write.
            self.costs.lookup_time()
        } else {
            // A partial update writes only its covered attributes, so its
            // write cost scales with the fraction provided.
            let attrs = self.cfg.attrs_per_object.max(1);
            let frac = f64::from(update.provided_attrs(attrs)) / f64::from(attrs);
            self.costs.lookup_time() + self.costs.update_write_time() * frac
        };
        let io = self.io_penalty(now, true);
        let duration = work + extra + io + self.take_preempt_cost();
        self.start_slice(
            now,
            duration,
            Job::Install {
                update,
                path,
                superseded,
            },
            ctx,
        );
    }

    fn take_preempt_cost(&mut self) -> f64 {
        std::mem::take(&mut self.pending_preempt_cost)
    }

    /// Applies a (non-superseded) update to the store and staleness
    /// tracking; schedules the MA expiry watchdog.
    fn apply_update(&mut self, update: &Update, now: SimTime, ctx: &mut Ctx<'_, Event>) -> bool {
        match self.store.install(update) {
            InstallOutcome::Installed {
                new_version,
                min_generation,
            } => {
                // The MA-relevant generation is the object's oldest
                // attribute after the write (equals the update's generation
                // for complete updates on single-attribute objects).
                if let Some(watch) =
                    self.tracker
                        .on_install(update.object, min_generation, new_version, now)
                {
                    ctx.schedule_at(watch.at, Event::Expiry(watch));
                }
                if let Some(history) = self.history.as_mut() {
                    history.record(update.object, update.generation_ts, update.payload);
                }
                self.fire_rules(update.object, now);
                self.propagate_base_install(update, now);
                true
            }
            InstallOutcome::Superseded => false,
        }
    }

    // ---- dispatch -----------------------------------------------------------

    /// The observable scheduler state the pure policy functions decide on.
    fn work_state(&self) -> WorkState {
        WorkState {
            os_empty: self.os_queue.is_empty(),
            uq_empty: self.uq.is_empty(),
            busy_update: self.metrics.busy_update_so_far(),
            busy_txn: self.metrics.busy_txn_so_far(),
        }
    }

    /// True when the policy serves update work before transactions at this
    /// dispatch point (delegates to the clock-agnostic [`policy`] module
    /// shared with the `strip-live` executor).
    fn updates_have_priority(&self) -> bool {
        policy::updates_have_priority(self.cfg.policy, &self.work_state())
    }

    /// The main scheduling point. Chooses the next CPU slice.
    fn dispatch(&mut self, now: SimTime, ctx: &mut Ctx<'_, Event>) {
        debug_assert!(matches!(self.cpu, CpuState::Idle));
        // Scheduling-point housekeeping: discard MA-expired queued updates
        // (constant-time head checks on the generation-ordered queue).
        if let Some(alpha) = self.alpha {
            if self.cfg.policy.uses_update_queue() {
                self.uq.discard_expired(now, alpha);
            }
        }
        loop {
            if self.updates_have_priority() {
                match self.try_update_step(now, false, ctx) {
                    UpdateStep::StartedSlice => return,
                    UpdateStep::InstantProgress => continue,
                    UpdateStep::Nothing => {}
                }
            }
            // Prompt receive (§3.3 step 3): arrivals buffered by the OS are
            // moved into the searchable update queue at every scheduling
            // point. Receiving is instantaneous when the CPU is free (only
            // the queue insert costs CPU); *installs* still wait for idle
            // under TF/OD, so this is what lets OD find unapplied updates
            // while transactions monopolise the processor.
            if self.cfg.policy.uses_update_queue() && !self.os_queue.is_empty() {
                match self.try_update_step(now, true, ctx) {
                    UpdateStep::StartedSlice => return,
                    UpdateStep::InstantProgress => continue,
                    UpdateStep::Nothing => {}
                }
            }
            // Resume a preempted transaction.
            if self.running.is_some() {
                if self.resume_running(now, ctx) {
                    return;
                }
                continue; // the resumed txn was aborted; re-evaluate
            }
            // Feasible-deadline purge, then highest value density.
            if self.cfg.feasible_deadline {
                for t in self.ready.drain_infeasible(now) {
                    self.metrics
                        .txn_aborted_at(&t, AbortReason::Infeasible, now);
                    self.emit(
                        now,
                        TraceKind::Abort {
                            txn: t.id(),
                            reason: TraceAbort::Infeasible,
                        },
                    );
                }
            }
            if let Some(txn) = self.ready.pop_best() {
                self.running = Some(RunningTxn {
                    txn,
                    slice: TxnSliceKind::Segment,
                    pending_apply: None,
                });
                if self.resume_running(now, ctx) {
                    return;
                }
                continue;
            }
            // No transactions: background update work.
            match self.try_update_step(now, false, ctx) {
                UpdateStep::StartedSlice => return,
                UpdateStep::InstantProgress => continue,
                UpdateStep::Nothing => {
                    debug_assert!(matches!(self.cpu, CpuState::Idle));
                    return;
                }
            }
        }
    }

    /// Schedules the running transaction's current slice. Returns `false`
    /// if the transaction was aborted instead (infeasible).
    fn resume_running(&mut self, now: SimTime, ctx: &mut Ctx<'_, Event>) -> bool {
        let rt = Self::running(&mut self.running, now, "resume of the bound transaction");
        if self.cfg.feasible_deadline
            && matches!(rt.slice, TxnSliceKind::Segment)
            && !rt.txn.feasible_at(now)
        {
            let rt = Self::take_running(&mut self.running, now, "infeasibility abort at resume");
            self.metrics
                .txn_aborted_at(&rt.txn, AbortReason::Infeasible, now);
            self.emit(
                now,
                TraceKind::Abort {
                    txn: rt.txn.id(),
                    reason: TraceAbort::Infeasible,
                },
            );
            return false;
        }
        let (kind, duration) = match rt.slice {
            TxnSliceKind::Segment => (TxnSliceKind::Segment, rt.txn.segment_remaining()),
            s @ TxnSliceKind::StaleScan { remaining, .. } => (s, remaining),
            s @ TxnSliceKind::OdApply { remaining, .. } => (s, remaining),
            s @ TxnSliceKind::IoStall { remaining, .. } => (s, remaining),
            s @ TxnSliceKind::DagRefresh { remaining, .. } => (s, remaining),
        };
        self.start_slice(now, duration, Job::Txn(kind), ctx);
        true
    }

    /// Fires every rule watching `object` (triggers extension), coalescing
    /// rules that are already pending and bounding the pending queue.
    fn fire_rules(&mut self, object: ViewObjectId, now: SimTime) {
        let Some(rules) = self.rules.as_ref() else {
            return;
        };
        let max_pending = self.cfg.triggers.map_or(usize::MAX, |t| t.max_pending);
        // Collect first: firing mutates queue/pending while `rules` borrows.
        let fired: Vec<u32> = rules.triggered_by(object).to_vec();
        for id in fired {
            if let Some(changed) = self.rule_pending.get_mut(&id) {
                changed.insert(object);
                self.metrics.rule_fired(now, true, false);
            } else if self.rule_queue.len() >= max_pending {
                self.metrics.rule_fired(now, false, true);
            } else {
                self.rule_pending
                    .insert(id, std::iter::once(object).collect());
                self.rule_queue.push_back((id, now));
                self.metrics.rule_fired(now, false, false);
            }
        }
        self.metrics.observe_rule_queue(self.rule_queue.len());
    }

    /// Starts a rule-execution slice if a firing is pending; otherwise
    /// falls through to DAG delta propagation.
    fn try_rule_step(&mut self, now: SimTime, ctx: &mut Ctx<'_, Event>) -> UpdateStep {
        let Some((rule_id, fired_at)) = self.rule_queue.pop_front() else {
            return self.try_dag_step(now, ctx);
        };
        // Delta-scaled charge (see `RuleSet::exec_cost`): a coalesced
        // execution recomputes only its changed sources' share of the
        // refresh, not the whole rule every time.
        let changed = self
            .rule_pending
            .get(&rule_id)
            .map_or(0, std::collections::BTreeSet::len);
        let exec_instr = self
            .rules
            .as_ref()
            .map_or(0.0, |r| r.exec_cost(rule_id, changed));
        let duration = self.costs.secs(exec_instr) + self.take_preempt_cost();
        self.start_slice(now, duration, Job::RuleExec { rule_id, fired_at }, ctx);
        UpdateStep::StartedSlice
    }

    /// Starts a delta-application slice when the DAG has pending deltas:
    /// the rank-order drain always applies the lowest pending node id,
    /// which (ids being topological) is never waiting on a node below it.
    fn try_dag_step(&mut self, now: SimTime, ctx: &mut Ctx<'_, Event>) -> UpdateStep {
        let Some(node) = self.dag_state.as_ref().and_then(DagState::next_pending) else {
            return UpdateStep::Nothing;
        };
        let inputs = self.dag.as_ref().map_or(0, |d| d.inputs(node).len());
        let instr = self.cfg.dag.map_or(0.0, |s| s.edge_cost_instr) * inputs as f64;
        let duration = self.costs.secs(instr) + self.take_preempt_cost();
        self.start_slice(now, duration, Job::DagApply { node }, ctx);
        UpdateStep::StartedSlice
    }

    /// Performs one step of update work if any is available. With
    /// `receive_only` the step is limited to moving one OS-queue arrival to
    /// its destination (update queue, or an immediate install for classes
    /// that are applied on arrival); background installs from the update
    /// queue are excluded.
    fn try_update_step(
        &mut self,
        now: SimTime,
        receive_only: bool,
        ctx: &mut Ctx<'_, Event>,
    ) -> UpdateStep {
        if !self.cfg.policy.uses_update_queue() {
            if receive_only {
                return UpdateStep::Nothing;
            }
            // UF: install straight off the OS queue, in arrival order; fired
            // rules run once the install burst has drained.
            return match self.os_queue.receive() {
                Some(u) => {
                    self.start_install_slice(now, u, InstallPath::Immediate, 0.0, ctx);
                    UpdateStep::StartedSlice
                }
                None => self.try_rule_step(now, ctx),
            };
        }
        // Queue-using policies: first receive arrivals from the OS queue.
        if let Some(u) = self.os_queue.receive() {
            if policy::arrival_route(self.cfg.policy, u.object.class)
                == ArrivalRoute::InstallImmediate
            {
                self.start_install_slice(now, u, InstallPath::Immediate, 0.0, ctx);
                return UpdateStep::StartedSlice;
            }
            let cost = self.costs.queue_op_time(self.uq.len() + 1) + self.take_preempt_cost();
            self.uq.insert(u);
            self.metrics.update_enqueued(now);
            // An update already past the maximum age on receipt is discarded
            // immediately (the generation-ordered queue makes this a
            // constant-time head check).
            if let Some(alpha) = self.alpha {
                self.uq.discard_expired(now, alpha);
            }
            self.metrics
                .observe_queue_lengths(self.os_queue.len(), self.uq.len());
            self.emit_queue_depth(now);
            if cost > 0.0 {
                self.start_slice(now, cost, Job::QueueTransfer, ctx);
                return UpdateStep::StartedSlice;
            }
            return UpdateStep::InstantProgress;
        }
        if receive_only {
            return UpdateStep::Nothing;
        }
        // Then drain the update queue (background installs); with the split
        // extension the high-importance partition is served first.
        let popped = match policy::service_order(self.cfg.queue_policy) {
            ServiceOrder::OldestFirst => self.uq.pop(false),
            ServiceOrder::NewestFirst => self.uq.pop(true),
            ServiceOrder::HottestFirst => {
                let counts = &self.read_counts;
                self.uq
                    .pop_hottest(|id| counts[id.class.index()][id.index as usize])
            }
        };
        match popped {
            Some(u) => {
                let dequeue_cost = self.costs.queue_op_time(self.uq.len() + 1);
                self.start_install_slice(now, u, InstallPath::Background, dequeue_cost, ctx);
                UpdateStep::StartedSlice
            }
            // Fired rules run when no installs are waiting.
            None => self.try_rule_step(now, ctx),
        }
    }

    // ---- event handlers -----------------------------------------------------

    fn on_update_arrival(
        &mut self,
        spec: crate::sources::UpdateSpec,
        now: SimTime,
        ctx: &mut Ctx<'_, Event>,
    ) {
        debug_assert!(spec.arrival == now);
        // Admission control (robustness extension): past the utilisation
        // threshold, low-importance arrivals are shed before the OS queue.
        // The object still becomes UU-stale — the external world moved on
        // whether or not the message was kept.
        if self.admission_sheds(spec.object.class, now) {
            self.metrics.update_admission_shed(now);
            self.tracker
                .on_receive(spec.object, spec.generation_ts, now);
            self.metrics
                .observe_queue_lengths(self.os_queue.len(), self.uq.len());
            self.emit_queue_depth(now);
            if let Some(next) = self.update_src.next_update() {
                ctx.schedule_at(next.arrival, Event::UpdateArrival(next));
            }
            return;
        }
        let update = Update {
            seq: self.update_seq,
            object: spec.object,
            generation_ts: spec.generation_ts,
            arrival_ts: now,
            payload: spec.payload,
            attr_mask: spec.attr_mask,
        };
        self.update_seq += 1;
        // Exactly one update is lost per overflow event, whichever victim
        // the shedding policy picked.
        let outcome = self.os_queue.deliver(update);
        self.metrics.update_arrived(now, !outcome.lost_one());
        // The system has been handed this update: under UU the object is now
        // stale until a value at least this recent is installed.
        self.tracker
            .on_receive(spec.object, spec.generation_ts, now);
        self.metrics
            .observe_queue_lengths(self.os_queue.len(), self.uq.len());
        self.emit_queue_depth(now);
        // Schedule the next arrival.
        if let Some(next) = self.update_src.next_update() {
            ctx.schedule_at(next.arrival, Event::UpdateArrival(next));
        }
        // Policy reaction.
        if policy::preempts_on_arrival(self.cfg.policy) {
            match self.cpu {
                CpuState::Idle => self.dispatch(now, ctx),
                CpuState::Busy {
                    job: Job::Txn(_), ..
                } => {
                    // Preempt the running transaction to receive the update.
                    self.interrupt_slice(now);
                    self.pending_preempt_cost = self.costs.preempt_time();
                    if let Some(txn) = self.running.as_ref().map(|rt| rt.txn.id()) {
                        let cost_secs = self.pending_preempt_cost;
                        self.emit(now, TraceKind::Preempt { txn, cost_secs });
                    }
                    self.dispatch(now, ctx);
                }
                CpuState::Busy { .. } => {
                    // Installs are not preempted (§4.2); the arrival waits
                    // in the OS queue until the current slice completes.
                }
            }
        } else if matches!(self.cpu, CpuState::Idle) {
            self.dispatch(now, ctx);
        }
    }

    fn on_txn_arrival(&mut self, spec: TxnSpec, now: SimTime, ctx: &mut Ctx<'_, Event>) {
        debug_assert!(spec.arrival == now);
        self.metrics.txn_arrived(now, spec.class);
        let txn = Transaction::new(spec, self.cfg.p_view, &self.costs);
        ctx.schedule_at(txn.deadline(), Event::Deadline { txn_id: txn.id() });
        // Optional extension: value-density preemption between transactions.
        let preempt = self.cfg.txn_preemption
            && matches!(
                self.cpu,
                CpuState::Busy {
                    job: Job::Txn(TxnSliceKind::Segment),
                    ..
                }
            )
            && self
                .running
                .as_ref()
                .is_some_and(|rt| txn.value_density() > rt.txn.value_density());
        self.ready.push(txn);
        if let Some(next) = self.txn_src.next_txn() {
            ctx.schedule_at(next.arrival, Event::TxnArrival(Box::new(next)));
        }
        if preempt {
            self.interrupt_slice(now);
            if let Some(rt) = self.running.take() {
                self.emit(
                    now,
                    TraceKind::Preempt {
                        txn: rt.txn.id(),
                        cost_secs: 0.0,
                    },
                );
                self.ready.push(rt.txn);
            }
            self.dispatch(now, ctx);
        } else if matches!(self.cpu, CpuState::Idle) {
            self.dispatch(now, ctx);
        }
    }

    fn on_cpu_done(&mut self, done_epoch: u64, now: SimTime, ctx: &mut Ctx<'_, Event>) {
        let CpuState::Busy {
            epoch,
            started,
            ref job,
        } = self.cpu
        else {
            return;
        };
        if epoch != done_epoch {
            return; // stale completion from a preempted slice
        }
        let job = job.clone();
        self.metrics
            .charge_busy(Self::activity_of(&job), started, now);
        self.cpu = CpuState::Idle;
        if self.trace.is_some() {
            let (track, tjob) = Self::trace_job(&job);
            self.emit(
                now,
                TraceKind::SliceEnd {
                    track,
                    job: tjob,
                    interrupted: false,
                },
            );
        }
        match job {
            Job::Install {
                update,
                path,
                superseded,
            } => {
                let applied = !superseded && self.apply_update(&update, now, ctx);
                if applied {
                    self.metrics.update_installed(now, path);
                } else {
                    self.metrics.update_superseded(now);
                }
                self.emit(
                    now,
                    TraceKind::Install {
                        path: Self::trace_path(path),
                        high_class: update.object.class == Importance::High,
                        superseded: !applied,
                    },
                );
                self.dispatch(now, ctx);
            }
            Job::QueueTransfer => self.dispatch(now, ctx),
            Job::RuleExec { rule_id, fired_at } => {
                if let Some(rules) = self.rules.as_ref() {
                    rules.execute(rule_id, &mut self.store);
                }
                self.rule_pending.remove(&rule_id);
                self.metrics.rule_executed(now, now.since(fired_at));
                self.dispatch(now, ctx);
            }
            Job::DagApply { node } => {
                self.dag_apply(node, now);
                self.dispatch(now, ctx);
            }
            Job::Txn(kind) => self.on_txn_slice_done(kind, now, ctx),
        }
    }

    fn on_txn_slice_done(&mut self, kind: TxnSliceKind, now: SimTime, ctx: &mut Ctx<'_, Event>) {
        match kind {
            TxnSliceKind::Segment => {
                let rt = Self::running(&mut self.running, now, "segment completion");
                let finished = rt.txn.complete_segment();
                rt.txn.arm_segment(&self.costs);
                match finished {
                    Segment::Work(_) => self.continue_txn(now, ctx),
                    Segment::ReadDerived(node) => self.handle_derived_read(node, now, ctx),
                    Segment::ReadView(obj) => {
                        self.read_counts[obj.class.index()][obj.index as usize] += 1;
                        // Disk extension: the lookup may miss the buffer
                        // pool, stalling the transaction before the
                        // staleness check.
                        let stall = self.io_penalty(now, false);
                        if stall > 0.0 {
                            let rt = Self::running(&mut self.running, now, "view-read buffer miss");
                            rt.slice = TxnSliceKind::IoStall {
                                obj,
                                remaining: stall,
                            };
                            self.start_slice(
                                now,
                                stall,
                                Job::Txn(TxnSliceKind::IoStall {
                                    obj,
                                    remaining: stall,
                                }),
                                ctx,
                            );
                        } else {
                            self.handle_view_read(obj, now, ctx);
                        }
                    }
                }
            }
            TxnSliceKind::StaleScan { obj, .. } => self.handle_post_scan(obj, now, ctx),
            TxnSliceKind::DagRefresh { node, .. } => {
                let rt = Self::running(&mut self.running, now, "derived-read refresh completion");
                rt.slice = TxnSliceKind::Segment;
                self.perform_dag_refresh(node, now);
                self.finalize_derived_read(node, now, ctx);
            }
            TxnSliceKind::IoStall { obj, .. } => {
                let rt = Self::running(&mut self.running, now, "I/O stall completion");
                rt.slice = TxnSliceKind::Segment;
                self.handle_view_read(obj, now, ctx);
            }
            TxnSliceKind::OdApply { obj, .. } => {
                let rt = Self::running(&mut self.running, now, "on-demand apply completion");
                rt.slice = TxnSliceKind::Segment;
                let update = rt.pending_apply.take().unwrap_or_else(|| {
                    panic!(
                        "invariant violated: no pending OD update at t={:.6}s \
                         while handling on-demand apply completion",
                        now.as_secs()
                    )
                });
                let applied = self.apply_update(&update, now, ctx);
                if applied {
                    self.metrics.update_installed(now, InstallPath::OnDemand);
                } else {
                    self.metrics.update_superseded(now);
                }
                self.emit(
                    now,
                    TraceKind::Install {
                        path: TracePath::OnDemand,
                        high_class: obj.class == Importance::High,
                        superseded: !applied,
                    },
                );
                self.finalize_read(obj, now, ctx);
            }
        }
    }

    /// A view-read lookup just completed: perform the staleness check
    /// (paper §3.4 step 2), possibly starting a queue scan.
    fn handle_view_read(&mut self, obj: ViewObjectId, now: SimTime, ctx: &mut Ctx<'_, Event>) {
        // Historical views (extension): some reads are as-of reads against
        // a past instant. The past is immutable, so they are never stale
        // and never trigger on-demand refreshes; they can *miss* when the
        // instant predates the retained window.
        if let (Some(history), Some(access)) = (self.history.as_ref(), self.cfg.history) {
            if access.p_historical_read > 0.0 && self.hist_rng.chance(access.p_historical_read) {
                let lag =
                    access.lag_min + (access.lag_max - access.lag_min) * self.hist_rng.next_f64();
                let as_of = SimTime::from_secs(now.as_secs() - lag);
                let hit = history.value_as_of(obj, as_of).is_some();
                let arrival = Self::running(&mut self.running, now, "historical view read")
                    .txn
                    .spec()
                    .arrival;
                self.metrics.historical_read(arrival, hit);
                self.continue_txn(now, ctx);
                return;
            }
        }
        // The scan decision (OD's on-demand search under MA; the UU check
        // itself under the queue criteria) lives in the shared policy
        // module; only the MA timestamp compare is evaluated here.
        let ma_stale = match self.cfg.staleness {
            StalenessSpec::MaxAge { alpha } => self.store.is_stale_ma(obj, now, alpha),
            StalenessSpec::UnappliedUpdate | StalenessSpec::Either { .. } => false,
        };
        match policy::read_check(self.cfg.policy, self.cfg.staleness, ma_stale) {
            ReadCheck::Scan => self.begin_scan(obj, now, ctx),
            ReadCheck::Direct => self.finalize_read(obj, now, ctx),
        }
    }

    fn begin_scan(&mut self, obj: ViewObjectId, now: SimTime, ctx: &mut Ctx<'_, Event>) {
        let duration = if self.cfg.indexed_queue {
            self.costs.indexed_probe_time()
        } else {
            self.costs.scan_time(self.uq.len())
        };
        if duration > 0.0 {
            let rt = Self::running(&mut self.running, now, "start of a staleness scan");
            rt.slice = TxnSliceKind::StaleScan {
                obj,
                remaining: duration,
            };
            self.start_slice(
                now,
                duration,
                Job::Txn(TxnSliceKind::StaleScan {
                    obj,
                    remaining: duration,
                }),
                ctx,
            );
        } else {
            self.handle_post_scan(obj, now, ctx);
        }
    }

    /// The queue scan finished: decide whether an on-demand install happens.
    fn handle_post_scan(&mut self, obj: ViewObjectId, now: SimTime, ctx: &mut Ctx<'_, Event>) {
        if let Some(rt) = self.running.as_mut() {
            rt.slice = TxnSliceKind::Segment;
        }
        let queued_newest = self.uq.newest_for(obj).map(|u| u.generation_ts);
        let installed_gen = self.store.view(obj).generation_ts;
        let refresh = if policy::od_refresh(self.cfg.policy, queued_newest, installed_gen) {
            self.uq.take_newest_for(obj)
        } else {
            None
        };
        match refresh {
            Some(update) => {
                // Applying the found update costs x_update (the object is
                // already located by the read's lookup — §5.3).
                let duration = self.costs.update_write_time();
                let rt = Self::running(&mut self.running, now, "on-demand refresh decision");
                rt.pending_apply = Some(update);
                if duration > 0.0 {
                    rt.slice = TxnSliceKind::OdApply {
                        obj,
                        remaining: duration,
                    };
                    self.start_slice(
                        now,
                        duration,
                        Job::Txn(TxnSliceKind::OdApply {
                            obj,
                            remaining: duration,
                        }),
                        ctx,
                    );
                } else {
                    self.on_txn_slice_done(
                        TxnSliceKind::OdApply {
                            obj,
                            remaining: 0.0,
                        },
                        now,
                        ctx,
                    );
                }
            }
            None => self.finalize_read(obj, now, ctx),
        }
    }

    /// Concludes a view read: record staleness, possibly abort, continue.
    fn finalize_read(&mut self, obj: ViewObjectId, now: SimTime, ctx: &mut Ctx<'_, Event>) {
        // Both verdicts delegate to the shared policy module: the *metric*
        // verdict (what the evaluation reports) and the *system* verdict
        // (what abort-on-stale can actually detect — an update dropped
        // before being applied is invisible to the running system).
        let ma_stale = match self.cfg.staleness {
            StalenessSpec::MaxAge { alpha } | StalenessSpec::Either { alpha } => {
                self.store.is_stale_ma(obj, now, alpha)
            }
            StalenessSpec::UnappliedUpdate => false,
        };
        let metric_stale = if policy::metric_uses_tracker(self.cfg.staleness) {
            self.tracker.is_stale(obj)
        } else {
            ma_stale
        };
        let queue_has_newer = self
            .uq
            .newest_for(obj)
            .is_some_and(|u| u.generation_ts > self.store.view(obj).generation_ts);
        let sys_stale = policy::system_stale(self.cfg.staleness, ma_stale, queue_has_newer);
        let rt = Self::running(&mut self.running, now, "view-read finalisation");
        let arrival = rt.txn.spec().arrival;
        if metric_stale {
            rt.txn.mark_stale_read();
        }
        self.metrics.view_read(arrival, metric_stale);
        if self.cfg.abort_on_stale && sys_stale {
            let rt = Self::take_running(&mut self.running, now, "abort-on-stale");
            self.metrics
                .txn_aborted_at(&rt.txn, AbortReason::StaleRead, now);
            self.emit(
                now,
                TraceKind::Abort {
                    txn: rt.txn.id(),
                    reason: TraceAbort::StaleRead,
                },
            );
            self.dispatch(now, ctx);
            return;
        }
        self.continue_txn(now, ctx);
    }

    // ---- derived-view DAG (extension) ---------------------------------------

    /// A base install landed: enqueue typed deltas for every DAG dependent
    /// and account the transitive-staleness change.
    fn propagate_base_install(&mut self, update: &Update, now: SimTime) {
        let (Some(dag), Some(state)) = (self.dag.as_ref(), self.dag_state.as_mut()) else {
            return;
        };
        state.on_base_install(dag, update.object, update.payload, now);
        self.metrics.observe_dag_pending(state.pending_len());
        let stale = state.stale_count();
        if let Some(ds) = self.derived_stale.as_mut() {
            ds.observe(now, stale);
        }
    }

    /// A background delta-application slice completed: recompute the node,
    /// cascade on change, account the outcome.
    fn dag_apply(&mut self, node: u32, now: SimTime) {
        let (Some(dag), Some(state)) = (self.dag.as_ref(), self.dag_state.as_mut()) else {
            return;
        };
        if let Some(r) = state.apply(dag, &self.store, node, now) {
            self.metrics.dag_delta_applied(now, r.lag);
        }
        self.metrics.observe_dag_pending(state.pending_len());
        let stale = state.stale_count();
        if let Some(ds) = self.derived_stale.as_mut() {
            ds.observe(now, stale);
        }
    }

    /// CPU seconds a recursive on-demand refresh of `node` costs: one
    /// recompute per stale ancestor, at `edge_cost_instr` per input edge.
    fn dag_refresh_work(&self, node: u32) -> f64 {
        let (Some(dag), Some(state)) = (self.dag.as_ref(), self.dag_state.as_ref()) else {
            return 0.0;
        };
        let per_edge = self.cfg.dag.map_or(0.0, |s| s.edge_cost_instr);
        let instr: f64 = state
            .stale_closure(dag, node)
            .iter()
            .map(|&n| per_edge * dag.inputs(n).len() as f64)
            .sum();
        self.costs.secs(instr)
    }

    /// Applies the stale ancestor closure of `node` in topological order —
    /// the recursive on-demand refresh performed before a derived read is
    /// answered. Cascades that leave the ancestor cone stay pending for
    /// background propagation (the refresh repairs the read, not the
    /// world).
    fn perform_dag_refresh(&mut self, node: u32, now: SimTime) {
        let (Some(dag), Some(state)) = (self.dag.as_ref(), self.dag_state.as_mut()) else {
            return;
        };
        self.metrics.dag_od_refresh(now);
        for n in state.stale_closure(dag, node) {
            // Transitively stale ancestors may have nothing pending yet;
            // apply() is a no-op for them unless an in-cone cascade (from a
            // lower closure member, already applied — ascending order)
            // queued one.
            if let Some(r) = state.apply(dag, &self.store, n, now) {
                self.metrics.dag_delta_applied(now, r.lag);
            }
        }
        self.metrics.observe_dag_pending(state.pending_len());
        let stale = state.stale_count();
        if let Some(ds) = self.derived_stale.as_mut() {
            ds.observe(now, stale);
        }
    }

    /// A derived-node read finished its lookup: under OD a stale node is
    /// recursively refreshed along the DAG before the read is answered
    /// (the generalisation of §4.4 to multi-level views; the scan/refresh
    /// decision lives in the shared policy module).
    fn handle_derived_read(&mut self, node: u32, now: SimTime, ctx: &mut Ctx<'_, Event>) {
        let node_stale = self.dag_state.as_ref().is_some_and(|s| s.is_stale(node));
        if policy::dag_refresh(self.cfg.policy, node_stale) {
            let work = self.dag_refresh_work(node);
            if work > 0.0 {
                let rt = Self::running(&mut self.running, now, "derived-read refresh decision");
                rt.slice = TxnSliceKind::DagRefresh {
                    node,
                    remaining: work,
                };
                self.start_slice(
                    now,
                    work,
                    Job::Txn(TxnSliceKind::DagRefresh {
                        node,
                        remaining: work,
                    }),
                    ctx,
                );
                return;
            }
            self.perform_dag_refresh(node, now);
        }
        self.finalize_derived_read(node, now, ctx);
    }

    /// Concludes a derived-node read: record (transitive) staleness and
    /// continue. Derived staleness is advisory — like the paper's fold
    /// metrics it is reported, not aborted on.
    fn finalize_derived_read(&mut self, node: u32, now: SimTime, ctx: &mut Ctx<'_, Event>) {
        let stale = self.dag_state.as_ref().is_some_and(|s| s.is_stale(node));
        let arrival = Self::running(&mut self.running, now, "derived-read finalisation")
            .txn
            .spec()
            .arrival;
        self.metrics.derived_read(arrival, stale);
        self.continue_txn(now, ctx);
    }

    /// Starts the next planned segment, or commits if the plan is complete.
    fn continue_txn(&mut self, now: SimTime, ctx: &mut Ctx<'_, Event>) {
        let rt = Self::running(&mut self.running, now, "transaction continuation");
        if rt.txn.finished() {
            let rt = Self::take_running(&mut self.running, now, "commit");
            debug_assert!(
                now <= rt.txn.deadline() + 1e-9,
                "commit after deadline should have been cut off by the watchdog"
            );
            self.metrics.txn_committed(&rt.txn, now);
            self.emit(now, TraceKind::Commit { txn: rt.txn.id() });
            self.dispatch(now, ctx);
            return;
        }
        let duration = rt.txn.segment_remaining();
        self.start_slice(now, duration, Job::Txn(TxnSliceKind::Segment), ctx);
    }

    fn on_deadline(&mut self, txn_id: u64, now: SimTime, ctx: &mut Ctx<'_, Event>) {
        // Running (or preempted) transaction?
        if self
            .running
            .as_ref()
            .is_some_and(|rt| rt.txn.id() == txn_id)
        {
            let on_cpu = matches!(
                self.cpu,
                CpuState::Busy {
                    job: Job::Txn(_),
                    ..
                }
            );
            if on_cpu {
                self.interrupt_slice(now);
            }
            let rt = Self::take_running(&mut self.running, now, "deadline abort");
            if rt.pending_apply.is_some() {
                self.metrics.update_od_abandoned(now);
            }
            self.metrics
                .txn_aborted_at(&rt.txn, AbortReason::MissedDeadline, now);
            self.emit(
                now,
                TraceKind::Abort {
                    txn: rt.txn.id(),
                    reason: TraceAbort::MissedDeadline,
                },
            );
            if on_cpu {
                self.dispatch(now, ctx);
            }
            return;
        }
        // Waiting in the ready queue?
        if let Some(t) = self.ready.remove(txn_id) {
            self.metrics
                .txn_aborted_at(&t, AbortReason::MissedDeadline, now);
            self.emit(
                now,
                TraceKind::Abort {
                    txn: t.id(),
                    reason: TraceAbort::MissedDeadline,
                },
            );
        }
        // Otherwise it already finished — nothing to do.
    }
}

impl<U: UpdateSource, T: TxnSource> Simulation for Controller<U, T> {
    type Event = Event;

    fn handle(&mut self, event: Event, ctx: &mut Ctx<'_, Event>) {
        let now = ctx.now();
        if now > self.horizon {
            return;
        }
        self.note_resilience(now);
        match event {
            Event::UpdateArrival(spec) => self.on_update_arrival(spec, now, ctx),
            Event::TxnArrival(spec) => self.on_txn_arrival(*spec, now, ctx),
            Event::CpuDone { epoch } => self.on_cpu_done(epoch, now, ctx),
            Event::Deadline { txn_id } => self.on_deadline(txn_id, now, ctx),
            Event::Expiry(watch) => self.tracker.on_expiry(watch, now),
            Event::WarmupEnd => {
                let tracker = &self.tracker;
                self.metrics.snapshot_warmup(tracker, now);
            }
        }
    }

    /// Gauge sampling rides the engine's observation hook rather than
    /// calendar events, so a traced run processes exactly the same event
    /// sequence (and `events_processed` count) as an untraced one.
    fn after_event(&mut self, now: SimTime) {
        let Some(sink) = self.trace.as_deref_mut() else {
            return;
        };
        let at = now.as_secs();
        if !sink.gauge_due(at) {
            return;
        }
        let elapsed = at;
        let (rho_t, rho_u) = if elapsed > 0.0 {
            (
                self.metrics.busy_txn_so_far() / elapsed,
                self.metrics.busy_update_so_far() / elapsed,
            )
        } else {
            (0.0, 0.0)
        };
        let values = GaugeValues {
            os_depth: self.os_queue.len() as u32,
            uq_depth: self.uq.len() as u32,
            ready_len: self.ready.len() as u32,
            stale_low: self.tracker.stale_count(Importance::Low),
            stale_high: self.tracker.stale_count(Importance::High),
            rho_t,
            rho_u,
        };
        sink.push_gauges(at, values);
    }
}

/// Runs one complete simulation of `cfg` against the given sources.
///
/// # Example
///
/// ```
/// use strip_core::config::{Policy, SimConfig};
/// use strip_core::controller::run_simulation;
/// use strip_core::sources::{NoArrivals, ScriptedTxns};
/// use strip_core::txn::TxnSpec;
/// use strip_db::object::Importance;
/// use strip_sim::time::SimTime;
///
/// let cfg = SimConfig::builder()
///     .lambda_u(0.0)
///     .lambda_t(0.0)
///     .policy(Policy::TransactionsFirst)
///     .duration(5.0)
///     .build()
///     .unwrap();
/// let txns = ScriptedTxns::new(vec![TxnSpec {
///     id: 1,
///     class: Importance::Low,
///     value: 2.0,
///     arrival: SimTime::from_secs(1.0),
///     slack: 0.5,
///     compute_time: 0.1,
///     reads: vec![],
///     derived_reads: vec![],
/// }]);
/// let report = run_simulation(&cfg, NoArrivals, txns);
/// assert_eq!(report.txns.committed, 1);
/// assert!((report.av() - 2.0 / 5.0).abs() < 1e-12);
/// ```
#[must_use]
pub fn run_simulation<U: UpdateSource, T: TxnSource>(
    cfg: &SimConfig,
    update_src: U,
    txn_src: T,
) -> RunReport {
    run_simulation_checked(cfg, update_src, txn_src).expect("invalid SimConfig")
}

/// Fallible variant of [`run_simulation`]: surfaces config-validation
/// failures as a value so sweep drivers can record them per point.
///
/// # Errors
///
/// Returns [`ConfigError`] if `cfg` fails validation.
pub fn run_simulation_checked<U: UpdateSource, T: TxnSource>(
    cfg: &SimConfig,
    update_src: U,
    txn_src: T,
) -> Result<RunReport, ConfigError> {
    let mut controller = Controller::try_new(cfg.clone(), update_src, txn_src)?;
    let mut engine = Engine::with_capacity(cfg.calendar_capacity_hint());
    controller.prime(&mut engine);
    let horizon = SimTime::from_secs(cfg.duration);
    engine.run_until(&mut controller, horizon);
    Ok(controller.finalize(horizon, engine.events_processed()))
}

/// Like [`run_simulation_checked`], but with a flight recorder attached:
/// returns the capture alongside the report. The report is bit-identical
/// to the untraced run's — tracing is observation-only.
///
/// # Errors
///
/// Returns [`ConfigError`] if `cfg` fails validation.
pub fn run_simulation_traced<U: UpdateSource, T: TxnSource>(
    cfg: &SimConfig,
    update_src: U,
    txn_src: T,
    trace: TraceConfig,
) -> Result<(RunReport, TraceData), ConfigError> {
    let mut controller = Controller::try_new(cfg.clone(), update_src, txn_src)?;
    controller.set_trace(trace);
    let mut engine = Engine::with_capacity(cfg.calendar_capacity_hint());
    controller.prime(&mut engine);
    let horizon = SimTime::from_secs(cfg.duration);
    engine.run_until(&mut controller, horizon);
    let (report, data) = controller.finalize_traced(horizon, engine.events_processed());
    Ok((
        report,
        data.expect("trace sink was installed before the run"),
    ))
}
