//! Results of one simulation run.
//!
//! [`RunReport`] carries every raw counter plus the paper's derived metrics
//! (§3.5): missed-deadline fraction `pMD`, `psuccess`, `psuc|nontardy`,
//! average value per second `AV`, CPU-time split `ρt`/`ρu`, and the
//! time-weighted stale fractions `fold_l`/`fold_h`.

use serde::{Deserialize, Serialize};
use strip_sim::stats::Welford;

/// Per-value-class transaction outcomes (Low = index 0, High = index 1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ClassCounts {
    /// Arrivals of this class.
    pub arrived: u64,
    /// On-time commits of this class.
    pub committed: u64,
    /// On-time fresh commits of this class.
    pub committed_fresh: u64,
}

/// Transaction accounting.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TxnCounts {
    /// Transactions that arrived inside the measurement window.
    pub arrived: u64,
    /// Committed at or before their deadline.
    pub committed: u64,
    /// Committed on time having read only fresh data.
    pub committed_fresh: u64,
    /// Aborted by the firm-deadline watchdog (reached the deadline while
    /// queued or running).
    pub missed_deadline: u64,
    /// Aborted early by the feasible-deadline policy (could no longer make
    /// the deadline).
    pub aborted_infeasible: u64,
    /// Aborted because a view read observed stale data (abort-on-stale
    /// mode).
    pub aborted_stale: u64,
    /// Still queued or running when the simulation horizon was reached.
    pub in_flight_at_end: u64,
    /// Total value of on-time commits.
    pub value_committed: f64,
    /// View reads that observed stale data (metric criterion).
    pub stale_reads: u64,
    /// Total view reads performed.
    pub view_reads: u64,
    /// Mean response time (commit − arrival) over committed transactions.
    pub response_mean: f64,
    /// Std. dev. of response time over committed transactions.
    pub response_sd: f64,
    /// Per-value-class breakdown (`[low, high]`).
    pub by_class: [ClassCounts; 2],
}

impl TxnCounts {
    /// Transactions with a decided outcome (everything except in-flight).
    #[must_use]
    pub fn finished(&self) -> u64 {
        self.committed + self.missed_deadline + self.aborted_infeasible + self.aborted_stale
    }

    /// `pMD` — fraction of transactions that did not complete by their
    /// deadline (all abort categories count as not completing).
    #[must_use]
    pub fn p_md(&self) -> f64 {
        let f = self.finished();
        if f == 0 {
            return 0.0;
        }
        1.0 - self.committed as f64 / f as f64
    }

    /// `psuccess` — fraction of transactions that committed on time *and*
    /// read only fresh data.
    #[must_use]
    pub fn p_success(&self) -> f64 {
        let f = self.finished();
        if f == 0 {
            return 0.0;
        }
        self.committed_fresh as f64 / f as f64
    }

    /// `psuc|nontardy` — of the transactions that met their deadline, the
    /// fraction that also read only fresh data.
    #[must_use]
    pub fn p_suc_nontardy(&self) -> f64 {
        if self.committed == 0 {
            return 0.0;
        }
        self.committed_fresh as f64 / self.committed as f64
    }

    /// Fraction of view reads that observed stale data.
    #[must_use]
    pub fn stale_read_fraction(&self) -> f64 {
        if self.view_reads == 0 {
            return 0.0;
        }
        self.stale_reads as f64 / self.view_reads as f64
    }
}

/// Update-stream accounting.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct UpdateCounts {
    /// Updates that arrived inside the measurement window.
    pub arrived: u64,
    /// Arrivals discarded because the OS queue was full.
    pub os_dropped: u64,
    /// Updates placed into the application-level update queue.
    pub enqueued: u64,
    /// Updates installed from the update queue by the background update
    /// process (or straight off the OS queue under UF).
    pub installed_background: u64,
    /// Updates installed on arrival (UF always; SU for high importance).
    pub installed_immediate: u64,
    /// Updates installed on demand while a transaction waited (OD).
    pub installed_on_demand: u64,
    /// Updates skipped after lookup because the store already held a value
    /// at least as recent.
    pub superseded_skips: u64,
    /// Queued updates discarded as MA-expired.
    pub expired_dropped: u64,
    /// Queued updates discarded by the `UQ_max` overflow policy.
    pub overflow_dropped: u64,
    /// Queued updates removed as superseded by the hash-index extension.
    pub dedup_dropped: u64,
    /// Arrivals shed by controller admission control before entering the OS
    /// queue (robustness extension).
    pub admission_shed: u64,
    /// Largest update-queue length observed.
    pub max_uq_len: u64,
    /// Largest OS-queue length observed.
    pub max_os_len: u64,
    /// Updates still waiting in the OS queue at the horizon.
    pub left_in_os: u64,
    /// Updates still waiting in the update queue at the horizon.
    pub left_in_update_queue: u64,
    /// Updates on the CPU (being installed, or taken for an on-demand
    /// apply) when the horizon was reached.
    pub in_flight_at_end: u64,
    /// Updates taken from the queue for an on-demand apply whose
    /// transaction missed its deadline before the apply finished: the
    /// update is discarded with the aborted transaction.
    pub od_abandoned: u64,
}

impl UpdateCounts {
    /// All installs, regardless of path.
    #[must_use]
    pub fn installed_total(&self) -> u64 {
        self.installed_background + self.installed_immediate + self.installed_on_demand
    }

    /// Every arrived update ends in exactly one terminal bucket; with no
    /// warm-up window this sums back to `arrived` (see the conservation
    /// integration tests).
    #[must_use]
    pub fn terminal_total(&self) -> u64 {
        self.installed_total()
            + self.superseded_skips
            + self.expired_dropped
            + self.overflow_dropped
            + self.dedup_dropped
            + self.admission_shed
            + self.os_dropped
            + self.left_in_os
            + self.left_in_update_queue
            + self.in_flight_at_end
            + self.od_abandoned
    }
}

/// Historical-view accounting (zeros when the extension is disabled).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HistoryStats {
    /// View reads served as-of a past instant.
    pub historical_reads: u64,
    /// As-of reads whose instant predated the retained window.
    pub misses: u64,
    /// Versions appended to the chains.
    pub appends: u64,
    /// Versions pruned by retention or the per-object cap.
    pub pruned: u64,
    /// Versions retained at the horizon.
    pub entries_at_end: u64,
}

impl HistoryStats {
    /// Fraction of historical reads that missed the retained window.
    #[must_use]
    pub fn miss_fraction(&self) -> f64 {
        if self.historical_reads == 0 {
            return 0.0;
        }
        self.misses as f64 / self.historical_reads as f64
    }
}

/// Update-triggered rule accounting (zeros when the extension is disabled).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TriggerStats {
    /// Rule firings caused by installs.
    pub fired: u64,
    /// Firings coalesced because the rule was already pending.
    pub coalesced: u64,
    /// Firings dropped by the pending-queue bound.
    pub dropped: u64,
    /// Rule executions completed.
    pub executed: u64,
    /// Pending executions at the horizon (including one on the CPU).
    pub pending_at_end: u64,
    /// Mean delay from firing to execution completion, seconds.
    pub lag_mean: f64,
    /// Largest pending-queue length observed.
    pub max_pending: u64,
}

/// Derived-view DAG accounting (extension; zeros when no DAG is
/// configured). The propagation buckets obey the conservation law
/// `enqueued = applied + coalesced + shed + pending_at_end` on run totals.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DagStats {
    /// Delta enqueue events (base installs plus cascades).
    pub enqueued: u64,
    /// Pending deltas applied (background drain plus on-demand refreshes).
    pub applied: u64,
    /// Enqueues merged into an already-pending node.
    pub coalesced: u64,
    /// Enqueues rejected by the pending bound.
    pub shed: u64,
    /// Pending deltas left at the horizon.
    pub pending_at_end: u64,
    /// Derived-node reads performed by transactions.
    pub derived_reads: u64,
    /// Derived reads that observed a (transitively) stale node.
    pub stale_derived_reads: u64,
    /// Recursive on-demand refresh passes performed before derived reads.
    pub od_refreshes: u64,
    /// Mean delay from a delta's first enqueue to its application, seconds.
    pub lag_mean: f64,
    /// Largest number of simultaneously pending nodes observed.
    pub max_pending: u64,
    /// Time-weighted fraction of transitively stale derived nodes
    /// (`fold_derived` — the DAG twin of `fold_l`/`fold_h`).
    pub fold_derived: f64,
}

impl DagStats {
    /// Every enqueue ends in exactly one terminal bucket.
    #[must_use]
    pub fn terminal_total(&self) -> u64 {
        self.applied + self.coalesced + self.shed + self.pending_at_end
    }

    /// Fraction of derived reads that observed a stale node.
    #[must_use]
    pub fn stale_derived_fraction(&self) -> f64 {
        if self.derived_reads == 0 {
            return 0.0;
        }
        self.stale_derived_reads as f64 / self.derived_reads as f64
    }
}

/// Resilience accounting (robustness extension; all zeros/`None` for an
/// undisturbed run with the paper's queue policies).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ResilienceStats {
    /// Duplicate deliveries injected by the disturbance layer.
    pub duplicated: u64,
    /// Out-of-order deliveries observed at the source.
    pub reordered: u64,
    /// Arrivals held during the outage window and released in the catch-up
    /// flood.
    pub outage_held: u64,
    /// Arrivals delivered as part of a multi-arrival batch.
    pub burst_grouped: u64,
    /// Arrivals shed by controller admission control (mirrors
    /// `UpdateCounts::admission_shed`).
    pub admission_shed: u64,
    /// Seconds after the outage ended until the stale-object count first
    /// returned to its pre-outage baseline; `None` when no outage was
    /// configured or the system had not recovered by the horizon.
    pub recovery_secs: Option<f64>,
}

/// Durability accounting (live-runtime WAL/snapshot/recovery subsystem;
/// all zeros for simulator runs and for live runs without `--wal`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DurabilityStats {
    /// Records appended to the write-ahead log.
    pub wal_appended: u64,
    /// `fsync` calls issued by the group-commit flusher.
    pub wal_fsyncs: u64,
    /// Bytes written to the log (records plus segment headers).
    pub wal_bytes: u64,
    /// Largest number of records covered by a single fsync (group size).
    pub wal_group_max: u64,
    /// Store snapshots sealed (atomic write-rename completed).
    pub snapshots_written: u64,
    /// Sealed-segment rotations performed by the flusher (size-bounded
    /// log growth; each rotation chains a new active segment).
    pub wal_rotations: u64,
    /// WAL records replayed into the store during recovery.
    pub recovery_replayed: u64,
    /// Torn or CRC-failing tail records discarded during recovery.
    pub recovery_discarded: u64,
}

/// CPU-time accounting over the measurement window.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CpuStats {
    /// Seconds spent on transaction work (ρt numerator).
    pub busy_txn: f64,
    /// Seconds spent on update work — receiving, queueing, scanning,
    /// installing (ρu numerator).
    pub busy_update: f64,
    /// Length of the measurement window in seconds.
    pub measured_secs: f64,
    /// Discrete events processed by the engine (diagnostic).
    pub events_processed: u64,
    /// Buffer-pool misses charged to view reads (disk extension).
    pub io_misses_reads: u64,
    /// Buffer-pool misses charged to installs (disk extension).
    pub io_misses_installs: u64,
}

impl CpuStats {
    /// `ρt` — fraction of CPU time spent on transactions.
    #[must_use]
    pub fn rho_t(&self) -> f64 {
        if self.measured_secs <= 0.0 {
            return 0.0;
        }
        self.busy_txn / self.measured_secs
    }

    /// `ρu` — fraction of CPU time spent on updates.
    #[must_use]
    pub fn rho_u(&self) -> f64 {
        if self.measured_secs <= 0.0 {
            return 0.0;
        }
        self.busy_update / self.measured_secs
    }

    /// Total utilisation `ρt + ρu`.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.rho_t() + self.rho_u()
    }
}

/// One timeline window of transaction outcomes (extension; populated when
/// `timeline_window` is configured).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TimelineWindow {
    /// Window start, seconds.
    pub t_start: f64,
    /// Transactions that finished (any outcome) in this window.
    pub finished: u64,
    /// Commits in this window.
    pub committed: u64,
    /// Fresh commits in this window.
    pub committed_fresh: u64,
}

impl TimelineWindow {
    /// Per-window `psuccess` (0 when the window saw no outcomes).
    #[must_use]
    pub fn p_success(&self) -> f64 {
        if self.finished == 0 {
            return 0.0;
        }
        self.committed_fresh as f64 / self.finished as f64
    }

    /// Per-window missed-deadline fraction.
    #[must_use]
    pub fn p_md(&self) -> f64 {
        if self.finished == 0 {
            return 0.0;
        }
        1.0 - self.committed as f64 / self.finished as f64
    }
}

/// Per-stripe slice of a sharded run (scale-out extension; empty for
/// single-stripe runs). Carries the full counter sets of the stripe's own
/// executor so per-stripe conservation (`updates.terminal_total() ==
/// updates.arrived`) can be checked independently of the aggregate.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StripeSummary {
    /// Stripe index in `[0, stripes)`.
    pub stripe: u32,
    /// Low-importance objects owned by this stripe.
    pub n_low: u32,
    /// High-importance objects owned by this stripe.
    pub n_high: u32,
    /// The stripe's transaction accounting.
    pub txns: TxnCounts,
    /// The stripe's update accounting.
    pub updates: UpdateCounts,
    /// Stale fraction of the stripe's low partition.
    pub fold_low: f64,
    /// Stale fraction of the stripe's high partition.
    pub fold_high: f64,
    /// The stripe's WAL/snapshot/recovery accounting.
    pub durability: DurabilityStats,
}

/// The complete result of one simulation run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Policy label ("UF", "TF", "SU", "OD", "FX").
    pub policy: String,
    /// Master seed of the run.
    pub seed: u64,
    /// Configured duration (seconds).
    pub duration: f64,
    /// Configured warm-up prefix excluded from metrics (seconds).
    pub warmup: f64,
    /// Transaction accounting.
    pub txns: TxnCounts,
    /// Update accounting.
    pub updates: UpdateCounts,
    /// CPU accounting.
    pub cpu: CpuStats,
    /// `fold_l` — time-weighted stale fraction, low-importance partition.
    pub fold_low: f64,
    /// `fold_h` — time-weighted stale fraction, high-importance partition.
    pub fold_high: f64,
    /// Historical-view accounting (extension).
    pub history: HistoryStats,
    /// Update-triggered rule accounting (extension).
    pub triggers: TriggerStats,
    /// Derived-view DAG accounting (extension).
    pub dag: DagStats,
    /// Resilience accounting (robustness extension).
    pub resilience: ResilienceStats,
    /// Durability accounting (live-runtime WAL extension).
    pub durability: DurabilityStats,
    /// Per-window outcomes (extension; empty unless `timeline_window` set).
    pub timeline: Vec<TimelineWindow>,
    /// Per-stripe slices (scale-out extension; empty unless `stripes > 1`).
    pub stripes: Vec<StripeSummary>,
}

/// JSON string literal with the escapes required by RFC 8259.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Shortest round-tripping decimal for a finite float; non-finite values
/// (which no healthy run produces) become `null` so the output stays JSON.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

impl RunReport {
    /// Renders the full report as a JSON object.
    ///
    /// The workspace's `serde` is an offline no-op stand-in, so this is the
    /// one hand-rolled serialisation every consumer shares: `repro report
    /// --json`, the `strip-loadgen` client, and the `stripd` server's
    /// `ReportJson` frame. Raw counters mirror the struct fields;
    /// paper-derived metrics (§3.5) ride along under `"derived"`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let class = |c: &ClassCounts| {
            format!(
                "{{\"arrived\":{},\"committed\":{},\"committed_fresh\":{}}}",
                c.arrived, c.committed, c.committed_fresh
            )
        };
        let timeline = self
            .timeline
            .iter()
            .map(|w| {
                format!(
                    "{{\"t_start\":{},\"finished\":{},\"committed\":{},\"committed_fresh\":{}}}",
                    json_f64(w.t_start),
                    w.finished,
                    w.committed,
                    w.committed_fresh
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let mut out = String::with_capacity(2048);
        out.push('{');
        out.push_str(&format!("\"policy\":{},", json_str(&self.policy)));
        out.push_str(&format!("\"seed\":{},", self.seed));
        out.push_str(&format!("\"duration\":{},", json_f64(self.duration)));
        out.push_str(&format!("\"warmup\":{},", json_f64(self.warmup)));
        let t = &self.txns;
        out.push_str(&format!(
            "\"txns\":{{\"arrived\":{},\"committed\":{},\"committed_fresh\":{},\
             \"missed_deadline\":{},\"aborted_infeasible\":{},\"aborted_stale\":{},\
             \"in_flight_at_end\":{},\"value_committed\":{},\"stale_reads\":{},\
             \"view_reads\":{},\"response_mean\":{},\"response_sd\":{},\
             \"by_class\":[{},{}]}},",
            t.arrived,
            t.committed,
            t.committed_fresh,
            t.missed_deadline,
            t.aborted_infeasible,
            t.aborted_stale,
            t.in_flight_at_end,
            json_f64(t.value_committed),
            t.stale_reads,
            t.view_reads,
            json_f64(t.response_mean),
            json_f64(t.response_sd),
            class(&t.by_class[0]),
            class(&t.by_class[1]),
        ));
        let u = &self.updates;
        out.push_str(&format!(
            "\"updates\":{{\"arrived\":{},\"os_dropped\":{},\"enqueued\":{},\
             \"installed_background\":{},\"installed_immediate\":{},\
             \"installed_on_demand\":{},\"superseded_skips\":{},\
             \"expired_dropped\":{},\"overflow_dropped\":{},\"dedup_dropped\":{},\
             \"admission_shed\":{},\"max_uq_len\":{},\"max_os_len\":{},\
             \"left_in_os\":{},\"left_in_update_queue\":{},\"in_flight_at_end\":{},\
             \"od_abandoned\":{}}},",
            u.arrived,
            u.os_dropped,
            u.enqueued,
            u.installed_background,
            u.installed_immediate,
            u.installed_on_demand,
            u.superseded_skips,
            u.expired_dropped,
            u.overflow_dropped,
            u.dedup_dropped,
            u.admission_shed,
            u.max_uq_len,
            u.max_os_len,
            u.left_in_os,
            u.left_in_update_queue,
            u.in_flight_at_end,
            u.od_abandoned,
        ));
        let c = &self.cpu;
        out.push_str(&format!(
            "\"cpu\":{{\"busy_txn\":{},\"busy_update\":{},\"measured_secs\":{},\
             \"events_processed\":{},\"io_misses_reads\":{},\"io_misses_installs\":{}}},",
            json_f64(c.busy_txn),
            json_f64(c.busy_update),
            json_f64(c.measured_secs),
            c.events_processed,
            c.io_misses_reads,
            c.io_misses_installs,
        ));
        out.push_str(&format!("\"fold_low\":{},", json_f64(self.fold_low)));
        out.push_str(&format!("\"fold_high\":{},", json_f64(self.fold_high)));
        let h = &self.history;
        out.push_str(&format!(
            "\"history\":{{\"historical_reads\":{},\"misses\":{},\"appends\":{},\
             \"pruned\":{},\"entries_at_end\":{}}},",
            h.historical_reads, h.misses, h.appends, h.pruned, h.entries_at_end,
        ));
        let g = &self.triggers;
        out.push_str(&format!(
            "\"triggers\":{{\"fired\":{},\"coalesced\":{},\"dropped\":{},\
             \"executed\":{},\"pending_at_end\":{},\"lag_mean\":{},\"max_pending\":{}}},",
            g.fired,
            g.coalesced,
            g.dropped,
            g.executed,
            g.pending_at_end,
            json_f64(g.lag_mean),
            g.max_pending,
        ));
        let dg = &self.dag;
        out.push_str(&format!(
            "\"dag\":{{\"enqueued\":{},\"applied\":{},\"coalesced\":{},\"shed\":{},\
             \"pending_at_end\":{},\"derived_reads\":{},\"stale_derived_reads\":{},\
             \"od_refreshes\":{},\"lag_mean\":{},\"max_pending\":{},\"fold_derived\":{}}},",
            dg.enqueued,
            dg.applied,
            dg.coalesced,
            dg.shed,
            dg.pending_at_end,
            dg.derived_reads,
            dg.stale_derived_reads,
            dg.od_refreshes,
            json_f64(dg.lag_mean),
            dg.max_pending,
            json_f64(dg.fold_derived),
        ));
        let r = &self.resilience;
        out.push_str(&format!(
            "\"resilience\":{{\"duplicated\":{},\"reordered\":{},\"outage_held\":{},\
             \"burst_grouped\":{},\"admission_shed\":{},\"recovery_secs\":{}}},",
            r.duplicated,
            r.reordered,
            r.outage_held,
            r.burst_grouped,
            r.admission_shed,
            r.recovery_secs.map_or("null".to_string(), json_f64),
        ));
        let d = &self.durability;
        out.push_str(&format!(
            "\"durability\":{{\"wal_appended\":{},\"wal_fsyncs\":{},\"wal_bytes\":{},\
             \"wal_group_max\":{},\"snapshots_written\":{},\"wal_rotations\":{},\
             \"recovery_replayed\":{},\"recovery_discarded\":{}}},",
            d.wal_appended,
            d.wal_fsyncs,
            d.wal_bytes,
            d.wal_group_max,
            d.snapshots_written,
            d.wal_rotations,
            d.recovery_replayed,
            d.recovery_discarded,
        ));
        out.push_str(&format!("\"timeline\":[{timeline}],"));
        let stripes = self
            .stripes
            .iter()
            .map(|s| {
                format!(
                    "{{\"stripe\":{},\"n_low\":{},\"n_high\":{},\"arrived\":{},\
                     \"installed_total\":{},\"terminal_total\":{},\"txn_arrived\":{},\
                     \"txn_committed\":{},\"fold_low\":{},\"fold_high\":{},\
                     \"wal_appended\":{}}}",
                    s.stripe,
                    s.n_low,
                    s.n_high,
                    s.updates.arrived,
                    s.updates.installed_total(),
                    s.updates.terminal_total(),
                    s.txns.arrived,
                    s.txns.committed,
                    json_f64(s.fold_low),
                    json_f64(s.fold_high),
                    s.durability.wal_appended,
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        out.push_str(&format!("\"stripes\":[{stripes}],"));
        out.push_str(&format!(
            "\"derived\":{{\"p_md\":{},\"p_success\":{},\"p_suc_nontardy\":{},\
             \"stale_read_fraction\":{},\"av\":{},\"rho_t\":{},\"rho_u\":{},\
             \"installed_total\":{},\"terminal_total\":{}}}",
            json_f64(t.p_md()),
            json_f64(t.p_success()),
            json_f64(t.p_suc_nontardy()),
            json_f64(t.stale_read_fraction()),
            json_f64(self.av()),
            json_f64(c.rho_t()),
            json_f64(c.rho_u()),
            u.installed_total(),
            u.terminal_total(),
        ));
        out.push('}');
        out
    }

    /// `AV` — average value per second returned by on-time commits.
    #[must_use]
    pub fn av(&self) -> f64 {
        if self.cpu.measured_secs <= 0.0 {
            return 0.0;
        }
        self.txns.value_committed / self.cpu.measured_secs
    }

    /// Field-wise mean across replica runs of the same configuration.
    ///
    /// Real-valued fields are averaged exactly. Counters are averaged and
    /// rounded to the nearest integer **except** the two totals bound by a
    /// conservation law (`txns.arrived`, `updates.arrived`): those are
    /// re-derived as the sum of their rounded outcome buckets, so the
    /// averaged report satisfies the same conservation invariants as every
    /// input (independent rounding of total and parts would break them).
    /// Response-time moments are pooled with a Welford merge weighted by
    /// each replica's commit count, not averaged naively (a mean of
    /// standard deviations is not the standard deviation of the pooled
    /// population). Label fields (`policy`, `seed`, `duration`, `warmup`)
    /// come from the first report, so the result keeps the base replica's
    /// identity. Timeline windows are averaged per index out to the
    /// *longest* replica timeline, dividing by the number of replicas that
    /// actually cover each window.
    ///
    /// # Panics
    /// Panics when `reports` is empty.
    #[must_use]
    pub fn average(reports: &[RunReport]) -> RunReport {
        assert!(!reports.is_empty(), "cannot average zero reports");
        let n = reports.len() as f64;
        // lint: allow(raw-f64-sum, reason=field-wise replica mean; exact sum/n semantics are pinned by the conservation-rounding proptests)
        let mf = |f: &dyn Fn(&RunReport) -> f64| reports.iter().map(f).sum::<f64>() / n;
        let mu = |f: &dyn Fn(&RunReport) -> u64| {
            // lint: allow(raw-f64-sum, reason=lossless u128 count sum, not a float reduction)
            (reports.iter().map(|r| f(r) as u128).sum::<u128>() as f64 / n).round() as u64
        };
        let first = &reports[0];
        // Pool response moments over commits; a single replica passes its
        // moments through untouched (exact identity).
        let (response_mean, response_sd) = if reports.len() == 1 {
            (first.txns.response_mean, first.txns.response_sd)
        } else {
            let mut pooled = Welford::new();
            for r in reports {
                pooled.merge(&Welford::from_moments(
                    r.txns.committed,
                    r.txns.response_mean,
                    r.txns.response_sd,
                ));
            }
            (pooled.mean(), pooled.std_dev())
        };
        let class = |c: usize| ClassCounts {
            arrived: mu(&|r| r.txns.by_class[c].arrived),
            committed: mu(&|r| r.txns.by_class[c].committed),
            committed_fresh: mu(&|r| r.txns.by_class[c].committed_fresh),
        };
        let windows = reports.iter().map(|r| r.timeline.len()).max().unwrap_or(0);
        let timeline = (0..windows)
            .map(|w| {
                let covering = reports.iter().filter(|r| r.timeline.len() > w).count() as f64;
                let muw = |f: &dyn Fn(&TimelineWindow) -> u64| {
                    (reports
                        .iter()
                        .filter_map(|r| r.timeline.get(w))
                        .map(|t| f(t) as u128)
                        // lint: allow(raw-f64-sum, reason=lossless u128 count sum, not a float reduction)
                        .sum::<u128>() as f64
                        / covering)
                        .round() as u64
                };
                TimelineWindow {
                    t_start: reports
                        .iter()
                        .find_map(|r| r.timeline.get(w))
                        .map_or(0.0, |t| t.t_start),
                    finished: muw(&|t| t.finished),
                    committed: muw(&|t| t.committed),
                    committed_fresh: muw(&|t| t.committed_fresh),
                }
            })
            .collect();
        let txns = {
            let committed = mu(&|r| r.txns.committed);
            let missed_deadline = mu(&|r| r.txns.missed_deadline);
            let aborted_infeasible = mu(&|r| r.txns.aborted_infeasible);
            let aborted_stale = mu(&|r| r.txns.aborted_stale);
            let in_flight_at_end = mu(&|r| r.txns.in_flight_at_end);
            TxnCounts {
                arrived: committed
                    + missed_deadline
                    + aborted_infeasible
                    + aborted_stale
                    + in_flight_at_end,
                committed,
                committed_fresh: mu(&|r| r.txns.committed_fresh),
                missed_deadline,
                aborted_infeasible,
                aborted_stale,
                in_flight_at_end,
                value_committed: mf(&|r| r.txns.value_committed),
                stale_reads: mu(&|r| r.txns.stale_reads),
                view_reads: mu(&|r| r.txns.view_reads),
                response_mean,
                response_sd,
                by_class: [class(0), class(1)],
            }
        };
        RunReport {
            policy: first.policy.clone(),
            seed: first.seed,
            duration: first.duration,
            warmup: first.warmup,
            txns,
            updates: {
                let mut u = UpdateCounts {
                    // Re-derived below from the rounded terminal buckets.
                    arrived: 0,
                    os_dropped: mu(&|r| r.updates.os_dropped),
                    enqueued: mu(&|r| r.updates.enqueued),
                    installed_background: mu(&|r| r.updates.installed_background),
                    installed_immediate: mu(&|r| r.updates.installed_immediate),
                    installed_on_demand: mu(&|r| r.updates.installed_on_demand),
                    superseded_skips: mu(&|r| r.updates.superseded_skips),
                    expired_dropped: mu(&|r| r.updates.expired_dropped),
                    overflow_dropped: mu(&|r| r.updates.overflow_dropped),
                    dedup_dropped: mu(&|r| r.updates.dedup_dropped),
                    admission_shed: mu(&|r| r.updates.admission_shed),
                    max_uq_len: mu(&|r| r.updates.max_uq_len),
                    max_os_len: mu(&|r| r.updates.max_os_len),
                    left_in_os: mu(&|r| r.updates.left_in_os),
                    left_in_update_queue: mu(&|r| r.updates.left_in_update_queue),
                    in_flight_at_end: mu(&|r| r.updates.in_flight_at_end),
                    od_abandoned: mu(&|r| r.updates.od_abandoned),
                };
                u.arrived = u.terminal_total();
                u
            },
            cpu: CpuStats {
                busy_txn: mf(&|r| r.cpu.busy_txn),
                busy_update: mf(&|r| r.cpu.busy_update),
                measured_secs: mf(&|r| r.cpu.measured_secs),
                events_processed: mu(&|r| r.cpu.events_processed),
                io_misses_reads: mu(&|r| r.cpu.io_misses_reads),
                io_misses_installs: mu(&|r| r.cpu.io_misses_installs),
            },
            fold_low: mf(&|r| r.fold_low),
            fold_high: mf(&|r| r.fold_high),
            history: HistoryStats {
                historical_reads: mu(&|r| r.history.historical_reads),
                misses: mu(&|r| r.history.misses),
                appends: mu(&|r| r.history.appends),
                pruned: mu(&|r| r.history.pruned),
                entries_at_end: mu(&|r| r.history.entries_at_end),
            },
            triggers: TriggerStats {
                fired: mu(&|r| r.triggers.fired),
                coalesced: mu(&|r| r.triggers.coalesced),
                dropped: mu(&|r| r.triggers.dropped),
                executed: mu(&|r| r.triggers.executed),
                pending_at_end: mu(&|r| r.triggers.pending_at_end),
                lag_mean: mf(&|r| r.triggers.lag_mean),
                max_pending: mu(&|r| r.triggers.max_pending),
            },
            dag: {
                let mut d = DagStats {
                    // Re-derived below from the rounded terminal buckets so
                    // the delta conservation law survives per-field rounding.
                    enqueued: 0,
                    applied: mu(&|r| r.dag.applied),
                    coalesced: mu(&|r| r.dag.coalesced),
                    shed: mu(&|r| r.dag.shed),
                    pending_at_end: mu(&|r| r.dag.pending_at_end),
                    derived_reads: mu(&|r| r.dag.derived_reads),
                    stale_derived_reads: mu(&|r| r.dag.stale_derived_reads),
                    od_refreshes: mu(&|r| r.dag.od_refreshes),
                    lag_mean: mf(&|r| r.dag.lag_mean),
                    max_pending: mu(&|r| r.dag.max_pending),
                    fold_derived: mf(&|r| r.dag.fold_derived),
                };
                d.enqueued = d.terminal_total();
                d
            },
            resilience: ResilienceStats {
                duplicated: mu(&|r| r.resilience.duplicated),
                reordered: mu(&|r| r.resilience.reordered),
                outage_held: mu(&|r| r.resilience.outage_held),
                burst_grouped: mu(&|r| r.resilience.burst_grouped),
                admission_shed: mu(&|r| r.resilience.admission_shed),
                // Mean over the replicas that did recover; `None` only when
                // none of them did (or no outage was configured).
                recovery_secs: {
                    let recovered: Vec<f64> = reports
                        .iter()
                        .filter_map(|r| r.resilience.recovery_secs)
                        .collect();
                    if recovered.is_empty() {
                        None
                    } else {
                        // lint: allow(raw-f64-sum, reason=exact mean over the recovering replicas; Welford would shift the pinned resilience figures by an ulp)
                        Some(recovered.iter().sum::<f64>() / recovered.len() as f64)
                    }
                },
            },
            durability: DurabilityStats {
                wal_appended: mu(&|r| r.durability.wal_appended),
                wal_fsyncs: mu(&|r| r.durability.wal_fsyncs),
                wal_bytes: mu(&|r| r.durability.wal_bytes),
                wal_group_max: mu(&|r| r.durability.wal_group_max),
                snapshots_written: mu(&|r| r.durability.snapshots_written),
                wal_rotations: mu(&|r| r.durability.wal_rotations),
                recovery_replayed: mu(&|r| r.durability.recovery_replayed),
                recovery_discarded: mu(&|r| r.durability.recovery_discarded),
            },
            timeline,
            stripes: Vec::new(),
        }
    }

    /// Collect-and-merge of per-stripe reports into one aggregate (the
    /// cross-stripe barrier of the sharded runtime, and the striped
    /// simulator's report composition).
    ///
    /// Unlike [`RunReport::average`] this *sums*: each stripe saw a
    /// disjoint slice of the object space and the update stream, so the
    /// aggregate counters are exact totals and every conservation identity
    /// that holds per stripe holds for the merge. Response moments are
    /// pooled with a commit-weighted Welford merge; the stale-fraction
    /// folds are means weighted by each stripe's partition size (a stripe
    /// owning no objects of a class contributes no weight); peak queue
    /// lengths and the WAL group maximum take the max across stripes, and
    /// `measured_secs` / `events_processed` take the longest stripe window
    /// and the summed event count. The input reports are retained verbatim
    /// as [`StripeSummary`] rows in `stripes`, indexed by position.
    ///
    /// # Panics
    /// Panics when `parts` is empty or its length differs from `shapes`.
    #[must_use]
    pub fn merge_stripes(parts: &[RunReport], shapes: &[(u32, u32)]) -> RunReport {
        assert!(!parts.is_empty(), "cannot merge zero stripe reports");
        assert_eq!(parts.len(), shapes.len(), "one shape per stripe report");
        let su = |f: &dyn Fn(&RunReport) -> u64| -> u64 { parts.iter().map(f).sum() }; // lint: allow(raw-f64-sum, reason=u64 counter totals over disjoint stripes are exact)
                                                                                       // lint: allow(raw-f64-sum, reason=stripe totals are exact sums of disjoint slices; pinned by the per-stripe conservation tests)
        let sf = |f: &dyn Fn(&RunReport) -> f64| -> f64 { parts.iter().map(f).sum() };
        let mx = |f: &dyn Fn(&RunReport) -> u64| -> u64 { parts.iter().map(f).max().unwrap_or(0) };
        let mut pooled = Welford::new();
        for r in parts {
            pooled.merge(&Welford::from_moments(
                r.txns.committed,
                r.txns.response_mean,
                r.txns.response_sd,
            ));
        }
        // Partition-size-weighted stale folds: each stripe's fold covers
        // only the objects it owns.
        let weighted = |pick: &dyn Fn(&RunReport) -> f64, weight: &dyn Fn(&(u32, u32)) -> u32| {
            let total: u64 = shapes.iter().map(|s| u64::from(weight(s))).sum(); // lint: allow(raw-f64-sum, reason=u64 partition sizes sum exactly)
            if total == 0 {
                return 0.0;
            }
            parts
                .iter()
                .zip(shapes)
                .map(|(r, s)| pick(r) * f64::from(weight(s)))
                // lint: allow(raw-f64-sum, reason=weighted mean over <=256 stripes; no catastrophic cancellation possible for values in [0,1])
                .sum::<f64>()
                / total as f64
        };
        let class = |c: usize| ClassCounts {
            arrived: su(&|r| r.txns.by_class[c].arrived),
            committed: su(&|r| r.txns.by_class[c].committed),
            committed_fresh: su(&|r| r.txns.by_class[c].committed_fresh),
        };
        let windows = parts.iter().map(|r| r.timeline.len()).max().unwrap_or(0);
        let timeline = (0..windows)
            .map(|w| TimelineWindow {
                t_start: parts
                    .iter()
                    .find_map(|r| r.timeline.get(w))
                    .map_or(0.0, |t| t.t_start),
                finished: parts
                    .iter()
                    .filter_map(|r| r.timeline.get(w))
                    .map(|t| t.finished)
                    .sum(), // lint: allow(raw-f64-sum, reason=u64 window counts over disjoint stripes are exact)
                committed: parts
                    .iter()
                    .filter_map(|r| r.timeline.get(w))
                    .map(|t| t.committed)
                    .sum(), // lint: allow(raw-f64-sum, reason=u64 window counts over disjoint stripes are exact)
                committed_fresh: parts
                    .iter()
                    .filter_map(|r| r.timeline.get(w))
                    .map(|t| t.committed_fresh)
                    // lint: allow(raw-f64-sum, reason=u64 window counts over disjoint stripes are exact)
                    .sum(),
            })
            .collect();
        let first = &parts[0];
        RunReport {
            policy: first.policy.clone(),
            seed: first.seed,
            duration: first.duration,
            warmup: first.warmup,
            txns: TxnCounts {
                arrived: su(&|r| r.txns.arrived),
                committed: su(&|r| r.txns.committed),
                committed_fresh: su(&|r| r.txns.committed_fresh),
                missed_deadline: su(&|r| r.txns.missed_deadline),
                aborted_infeasible: su(&|r| r.txns.aborted_infeasible),
                aborted_stale: su(&|r| r.txns.aborted_stale),
                in_flight_at_end: su(&|r| r.txns.in_flight_at_end),
                value_committed: sf(&|r| r.txns.value_committed),
                stale_reads: su(&|r| r.txns.stale_reads),
                view_reads: su(&|r| r.txns.view_reads),
                response_mean: pooled.mean(),
                response_sd: pooled.std_dev(),
                by_class: [class(0), class(1)],
            },
            updates: UpdateCounts {
                arrived: su(&|r| r.updates.arrived),
                os_dropped: su(&|r| r.updates.os_dropped),
                enqueued: su(&|r| r.updates.enqueued),
                installed_background: su(&|r| r.updates.installed_background),
                installed_immediate: su(&|r| r.updates.installed_immediate),
                installed_on_demand: su(&|r| r.updates.installed_on_demand),
                superseded_skips: su(&|r| r.updates.superseded_skips),
                expired_dropped: su(&|r| r.updates.expired_dropped),
                overflow_dropped: su(&|r| r.updates.overflow_dropped),
                dedup_dropped: su(&|r| r.updates.dedup_dropped),
                admission_shed: su(&|r| r.updates.admission_shed),
                max_uq_len: mx(&|r| r.updates.max_uq_len),
                max_os_len: mx(&|r| r.updates.max_os_len),
                left_in_os: su(&|r| r.updates.left_in_os),
                left_in_update_queue: su(&|r| r.updates.left_in_update_queue),
                in_flight_at_end: su(&|r| r.updates.in_flight_at_end),
                od_abandoned: su(&|r| r.updates.od_abandoned),
            },
            cpu: CpuStats {
                busy_txn: sf(&|r| r.cpu.busy_txn),
                busy_update: sf(&|r| r.cpu.busy_update),
                measured_secs: parts
                    .iter()
                    .map(|r| r.cpu.measured_secs)
                    .fold(0.0, f64::max),
                events_processed: su(&|r| r.cpu.events_processed),
                io_misses_reads: su(&|r| r.cpu.io_misses_reads),
                io_misses_installs: su(&|r| r.cpu.io_misses_installs),
            },
            fold_low: weighted(&|r| r.fold_low, &|s| s.0),
            fold_high: weighted(&|r| r.fold_high, &|s| s.1),
            history: HistoryStats {
                historical_reads: su(&|r| r.history.historical_reads),
                misses: su(&|r| r.history.misses),
                appends: su(&|r| r.history.appends),
                pruned: su(&|r| r.history.pruned),
                entries_at_end: su(&|r| r.history.entries_at_end),
            },
            triggers: TriggerStats {
                fired: su(&|r| r.triggers.fired),
                coalesced: su(&|r| r.triggers.coalesced),
                dropped: su(&|r| r.triggers.dropped),
                executed: su(&|r| r.triggers.executed),
                pending_at_end: su(&|r| r.triggers.pending_at_end),
                lag_mean: weighted(&|r| r.triggers.lag_mean, &|_| 1),
                max_pending: mx(&|r| r.triggers.max_pending),
            },
            // Each stripe drives a full DAG replica over its own slice of the
            // update stream, so counters sum exactly; the lag and staleness
            // folds are per-stripe means averaged with equal weight.
            dag: DagStats {
                enqueued: su(&|r| r.dag.enqueued),
                applied: su(&|r| r.dag.applied),
                coalesced: su(&|r| r.dag.coalesced),
                shed: su(&|r| r.dag.shed),
                pending_at_end: su(&|r| r.dag.pending_at_end),
                derived_reads: su(&|r| r.dag.derived_reads),
                stale_derived_reads: su(&|r| r.dag.stale_derived_reads),
                od_refreshes: su(&|r| r.dag.od_refreshes),
                lag_mean: weighted(&|r| r.dag.lag_mean, &|_| 1),
                max_pending: mx(&|r| r.dag.max_pending),
                fold_derived: weighted(&|r| r.dag.fold_derived, &|_| 1),
            },
            resilience: ResilienceStats {
                duplicated: su(&|r| r.resilience.duplicated),
                reordered: su(&|r| r.resilience.reordered),
                outage_held: su(&|r| r.resilience.outage_held),
                burst_grouped: su(&|r| r.resilience.burst_grouped),
                admission_shed: su(&|r| r.resilience.admission_shed),
                recovery_secs: parts
                    .iter()
                    .filter_map(|r| r.resilience.recovery_secs)
                    .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v)))),
            },
            durability: DurabilityStats {
                wal_appended: su(&|r| r.durability.wal_appended),
                wal_fsyncs: su(&|r| r.durability.wal_fsyncs),
                wal_bytes: su(&|r| r.durability.wal_bytes),
                wal_group_max: mx(&|r| r.durability.wal_group_max),
                snapshots_written: su(&|r| r.durability.snapshots_written),
                wal_rotations: su(&|r| r.durability.wal_rotations),
                recovery_replayed: su(&|r| r.durability.recovery_replayed),
                recovery_discarded: su(&|r| r.durability.recovery_discarded),
            },
            timeline,
            stripes: parts
                .iter()
                .zip(shapes)
                .enumerate()
                .map(|(i, (r, &(n_low, n_high)))| StripeSummary {
                    stripe: i as u32,
                    n_low,
                    n_high,
                    txns: r.txns.clone(),
                    updates: r.updates.clone(),
                    fold_low: r.fold_low,
                    fold_high: r.fold_high,
                    durability: r.durability,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_txn_metrics() {
        let t = TxnCounts {
            arrived: 12,
            committed: 8,
            committed_fresh: 6,
            missed_deadline: 1,
            aborted_infeasible: 1,
            aborted_stale: 0,
            in_flight_at_end: 2,
            value_committed: 16.0,
            stale_reads: 4,
            view_reads: 20,
            ..TxnCounts::default()
        };
        assert_eq!(t.finished(), 10);
        assert!((t.p_md() - 0.2).abs() < 1e-12);
        assert!((t.p_success() - 0.6).abs() < 1e-12);
        assert!((t.p_suc_nontardy() - 0.75).abs() < 1e-12);
        assert!((t.stale_read_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn empty_counts_do_not_divide_by_zero() {
        let t = TxnCounts::default();
        assert_eq!(t.p_md(), 0.0);
        assert_eq!(t.p_success(), 0.0);
        assert_eq!(t.p_suc_nontardy(), 0.0);
        assert_eq!(t.stale_read_fraction(), 0.0);
        let c = CpuStats::default();
        assert_eq!(c.rho_t(), 0.0);
        assert_eq!(c.utilization(), 0.0);
        let r = RunReport::default();
        assert_eq!(r.av(), 0.0);
    }

    #[test]
    fn cpu_fractions() {
        let c = CpuStats {
            busy_txn: 30.0,
            busy_update: 20.0,
            measured_secs: 100.0,
            ..CpuStats::default()
        };
        assert!((c.rho_t() - 0.3).abs() < 1e-12);
        assert!((c.rho_u() - 0.2).abs() < 1e-12);
        assert!((c.utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn av_is_value_per_second() {
        let r = RunReport {
            txns: TxnCounts {
                value_committed: 150.0,
                ..TxnCounts::default()
            },
            cpu: CpuStats {
                measured_secs: 10.0,
                ..CpuStats::default()
            },
            ..RunReport::default()
        };
        assert!((r.av() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn average_of_one_is_identity() {
        let r = RunReport {
            policy: "UF".into(),
            seed: 7,
            duration: 10.0,
            txns: TxnCounts {
                arrived: 3,
                committed: 2,
                in_flight_at_end: 1,
                value_committed: 1.25,
                response_mean: 0.37,
                response_sd: 0.21,
                ..TxnCounts::default()
            },
            fold_low: 0.125,
            ..RunReport::default()
        };
        assert_eq!(RunReport::average(std::slice::from_ref(&r)), r);
    }

    #[test]
    fn average_means_fields() {
        let mut a = RunReport::default();
        a.txns.arrived = 10;
        a.txns.committed = 10;
        a.txns.value_committed = 2.0;
        a.fold_low = 0.2;
        let mut b = a.clone();
        b.seed = 1;
        b.txns.arrived = 13;
        b.txns.committed = 13;
        b.txns.value_committed = 4.0;
        b.fold_low = 0.6;
        let avg = RunReport::average(&[a, b]);
        assert_eq!(avg.seed, 0); // identity comes from the first replica
        assert_eq!(avg.txns.committed, 12); // (10+13)/2 rounds to nearest
        assert_eq!(avg.txns.arrived, 12); // derived from the rounded buckets
        assert!((avg.txns.value_committed - 3.0).abs() < 1e-12);
        assert!((avg.fold_low - 0.4).abs() < 1e-12);
    }

    #[test]
    fn average_preserves_conservation_under_rounding() {
        // Per-replica conservation holds, but the bucket means all land on
        // .5: independent rounding of `arrived` would disagree with the
        // rounded bucket sum.
        let mut a = RunReport::default();
        a.txns.arrived = 5;
        a.txns.committed = 2;
        a.txns.missed_deadline = 2;
        a.txns.in_flight_at_end = 1;
        a.updates.arrived = 3;
        a.updates.installed_background = 2;
        a.updates.left_in_os = 1;
        let mut b = RunReport::default();
        b.txns.arrived = 8;
        b.txns.committed = 3;
        b.txns.missed_deadline = 3;
        b.txns.in_flight_at_end = 2;
        b.updates.arrived = 6;
        b.updates.installed_background = 3;
        b.updates.left_in_os = 2;
        b.updates.superseded_skips = 1;
        let avg = RunReport::average(&[a, b]);
        assert_eq!(
            avg.txns.finished() + avg.txns.in_flight_at_end,
            avg.txns.arrived
        );
        assert_eq!(avg.updates.terminal_total(), avg.updates.arrived);
    }

    #[test]
    fn average_pools_response_moments() {
        // Replica A holds samples {0, 2}, replica B holds {2, 4}; the
        // pooled population {0, 2, 2, 4} has mean 2 and variance 8/3.
        let mut a = RunReport::default();
        a.txns.arrived = 2;
        a.txns.committed = 2;
        a.txns.response_mean = 1.0;
        a.txns.response_sd = 2.0_f64.sqrt();
        let mut b = a.clone();
        b.txns.response_mean = 3.0;
        let avg = RunReport::average(&[a, b]);
        assert!((avg.txns.response_mean - 2.0).abs() < 1e-12);
        assert!((avg.txns.response_sd - (8.0_f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn average_timeline_spans_longest_replica() {
        let window = |t_start: f64, finished: u64| TimelineWindow {
            t_start,
            finished,
            committed: finished,
            committed_fresh: finished,
        };
        let a = RunReport {
            timeline: vec![window(0.0, 4)],
            ..RunReport::default()
        };
        let b = RunReport {
            timeline: vec![window(0.0, 2), window(5.0, 9)],
            ..RunReport::default()
        };
        let avg = RunReport::average(&[a, b]);
        assert_eq!(avg.timeline.len(), 2);
        assert_eq!(avg.timeline[0].finished, 3); // (4 + 2) / 2 replicas
        assert_eq!(avg.timeline[1].t_start, 5.0);
        assert_eq!(avg.timeline[1].finished, 9); // only one replica covers it
    }

    #[test]
    fn average_resilience_recovery_over_recovered_replicas() {
        let mut a = RunReport::default();
        a.resilience.recovery_secs = Some(2.0);
        a.resilience.duplicated = 4;
        let mut b = RunReport::default();
        b.resilience.recovery_secs = None;
        b.resilience.duplicated = 6;
        let avg = RunReport::average(&[a, b]);
        assert_eq!(avg.resilience.recovery_secs, Some(2.0));
        assert_eq!(avg.resilience.duplicated, 5);
        let c = RunReport::default();
        let none = RunReport::average(&[c.clone(), c]);
        assert_eq!(none.resilience.recovery_secs, None);
    }

    #[test]
    fn to_json_is_balanced_and_carries_derived_metrics() {
        let mut r = RunReport {
            policy: "OD".into(),
            seed: 42,
            duration: 5.0,
            ..RunReport::default()
        };
        // Fractions chosen to be exactly representable: pMD = 1 - 6/8 = 0.25.
        r.txns.arrived = 10;
        r.txns.committed = 6;
        r.txns.committed_fresh = 4;
        r.txns.missed_deadline = 2;
        r.cpu.measured_secs = 5.0;
        r.txns.value_committed = 20.0;
        let json = r.to_json();
        let depth = json.chars().fold(0i64, |d, c| match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0, "unbalanced JSON: {json}");
        assert!(json.starts_with('{') && json.ends_with('}'));
        for key in [
            "\"policy\":\"OD\"",
            "\"seed\":42",
            "\"arrived\":10",
            "\"p_md\":0.25",
            "\"av\":4.0",
            "\"recovery_secs\":null",
            "\"wal_appended\":0",
            "\"terminal_total\":0",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn json_string_escaping() {
        assert_eq!(json_str("plain"), "\"plain\"");
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_str("tab\there"), "\"tab\\u0009here\"");
        assert_eq!(json_f64(0.1), "0.1");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }

    #[test]
    fn update_totals() {
        let u = UpdateCounts {
            installed_background: 3,
            installed_immediate: 4,
            installed_on_demand: 5,
            ..UpdateCounts::default()
        };
        assert_eq!(u.installed_total(), 12);
    }
}
