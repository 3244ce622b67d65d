//! Crash-isolated, checkpointing sweep execution.
//!
//! The plain sweep in [`crate::sweep`] assumes every simulation returns; one
//! panicking point would tear down the whole campaign and lose hours of
//! completed work. [`SweepRunner`] hardens that path for long reproduction
//! runs:
//!
//! * every point runs under [`std::panic::catch_unwind`], so a crash is
//!   confined to its own point;
//! * a crashed point is retried once with the same seed (distinguishing a
//!   transient environment fault from a deterministic bug);
//! * points that still fail are recorded as [`PointFailure`]s in the
//!   [`SweepOutcome`] instead of aborting the remaining points;
//! * when a checkpoint directory is configured, every completed point is
//!   serialised to disk, and a rerun of the same sweep resumes from those
//!   files instead of re-simulating.
//!
//! Checkpoints are plain `key value` text (one field per line) so they stay
//! inspectable and diffable. A version header plus a fingerprint of the
//! *complete* [`SimConfig`] (see [`config_fingerprint`]) protect against
//! stale files from a differently-parameterised run: any changed parameter
//! — not just policy/seed/duration — invalidates the checkpoint, and the
//! point is re-simulated.

use std::any::Any;
use std::fmt;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use strip_core::config::SimConfig;
use strip_core::report::{RunReport, TimelineWindow};
use strip_workload::run_paper_sim;

use crate::sweep::{run_indexed, RunSettings};

/// The simulation entry point used for each point. Injectable so tests can
/// substitute a run function that panics on chosen configurations.
pub type RunFn = Arc<dyn Fn(&SimConfig) -> RunReport + Send + Sync>;

/// One point that panicked on both its attempts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointFailure {
    /// Sweep namespace the point belonged to (the memoisation key).
    pub sweep: String,
    /// Expanded job index within the sweep (replica-expanded order).
    pub index: usize,
    /// Human-readable point identity (policy label and seed).
    pub label: String,
    /// Attempts made (always 2: the initial run plus one same-seed retry).
    pub attempts: u32,
    /// Panic payload of the final attempt.
    pub message: String,
}

/// Result of a crash-isolated sweep.
#[derive(Debug, Clone, Default)]
pub struct SweepOutcome {
    /// Per-configuration replica sets in input order. Replicas whose runs
    /// failed are omitted from their set; a point where every replica failed
    /// yields an empty set.
    pub replica_sets: Vec<Vec<RunReport>>,
    /// Points that panicked twice, in job-index order.
    pub failures: Vec<PointFailure>,
    /// Points satisfied from checkpoint files instead of simulation.
    pub resumed: usize,
}

/// Crash-isolated sweep driver. See the module docs for semantics.
#[derive(Clone)]
pub struct SweepRunner {
    checkpoint_dir: Option<PathBuf>,
    run: RunFn,
}

impl fmt::Debug for SweepRunner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SweepRunner")
            .field("checkpoint_dir", &self.checkpoint_dir)
            .finish_non_exhaustive()
    }
}

impl Default for SweepRunner {
    fn default() -> Self {
        SweepRunner {
            checkpoint_dir: None,
            run: Arc::new(run_paper_sim),
        }
    }
}

impl SweepRunner {
    /// A runner with no checkpointing that executes the paper simulation.
    #[must_use]
    pub fn new() -> Self {
        SweepRunner::default()
    }

    /// Persists every completed point under `dir` and resumes from any
    /// matching checkpoint already there.
    #[must_use]
    pub fn with_checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// Substitutes the per-point run function (test hook for fault
    /// injection).
    #[must_use]
    pub fn with_run_fn(mut self, run: RunFn) -> Self {
        self.run = run;
        self
    }

    /// The configured checkpoint directory, if any.
    #[must_use]
    pub fn checkpoint_dir(&self) -> Option<&Path> {
        self.checkpoint_dir.as_deref()
    }

    /// Replica-expands `configs` exactly like
    /// [`crate::sweep::run_sweep_replicated`] (replica `r` runs with
    /// `cfg.seed.wrapping_add(r)`) and executes every job crash-isolated.
    ///
    /// `sweep` namespaces the checkpoint files so distinct sweeps sharing a
    /// directory cannot collide.
    #[must_use]
    pub fn run_replicated(
        &self,
        settings: &RunSettings,
        sweep: &str,
        configs: Vec<SimConfig>,
    ) -> SweepOutcome {
        let replicas = settings.replicas.max(1);
        if configs.is_empty() {
            return SweepOutcome::default();
        }
        if let Some(dir) = &self.checkpoint_dir {
            // Best-effort: an unwritable directory degrades to a plain run.
            let _ = std::fs::create_dir_all(dir);
        }
        let mut jobs = Vec::with_capacity(configs.len() * replicas);
        for cfg in &configs {
            for rep in 0..replicas {
                let mut c = cfg.clone();
                c.seed = c.seed.wrapping_add(rep as u64);
                jobs.push(c);
            }
        }
        let workers = settings.worker_count(jobs.len());
        let failures = Mutex::new(Vec::new());
        let resumed = AtomicUsize::new(0);
        let results: Vec<Option<RunReport>> = run_indexed(jobs.len(), workers, |i| {
            let Some(cfg) = jobs.get(i) else {
                // run_indexed only hands out indices < jobs.len().
                return None;
            };
            if let Some(report) = self.load_checkpoint(sweep, i, cfg) {
                resumed.fetch_add(1, Ordering::Relaxed);
                return Some(report);
            }
            let mut message = String::new();
            for _attempt in 0..2 {
                match catch_unwind(AssertUnwindSafe(|| (self.run)(cfg))) {
                    Ok(report) => {
                        self.store_checkpoint(sweep, i, cfg, &report);
                        return Some(report);
                    }
                    Err(payload) => message = panic_message(payload.as_ref()),
                }
            }
            // A panic while another worker held the lock only poisons the
            // Vec push, which cannot leave it inconsistent: recover the
            // guard rather than cascading the panic through the sweep.
            failures
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(PointFailure {
                    sweep: sweep.to_string(),
                    index: i,
                    label: format!("{} seed={:#x}", cfg.policy.label(), cfg.seed),
                    attempts: 2,
                    message,
                });
            None
        });
        let mut failures = failures
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        failures.sort_by_key(|f| f.index);
        let replica_sets = results
            .chunks(replicas)
            .map(|chunk| chunk.iter().filter_map(Clone::clone).collect())
            .collect();
        SweepOutcome {
            replica_sets,
            failures,
            resumed: resumed.into_inner(),
        }
    }

    fn checkpoint_path(&self, sweep: &str, index: usize) -> Option<PathBuf> {
        self.checkpoint_dir
            .as_ref()
            .map(|d| d.join(format!("{sweep}-{index:04}.ckpt")))
    }

    /// Loads a completed point, rejecting checkpoints whose stored
    /// [`config_fingerprint`] does not match the configuration being
    /// resumed — e.g. files left by a run with a different `--seconds`,
    /// `--seed`, or *any* other simulation parameter. The legacy identity
    /// fields (policy/seed/duration) are still cross-checked as a
    /// belt-and-braces guard against hand-edited files.
    fn load_checkpoint(&self, sweep: &str, index: usize, cfg: &SimConfig) -> Option<RunReport> {
        let path = self.checkpoint_path(sweep, index)?;
        let text = std::fs::read_to_string(&path).ok()?;
        let Some(report) = parse_report(&text) else {
            let found = text.lines().next().unwrap_or("").trim_end();
            if found.starts_with("strip-checkpoint") && found != CHECKPOINT_HEADER {
                eprintln!(
                    "# checkpoint {}: version mismatch (found \"{found}\", \
                     expected \"{CHECKPOINT_HEADER}\"); re-running point",
                    path.display()
                );
            }
            return None;
        };
        let expected = config_fingerprint(cfg);
        let stored = text
            .lines()
            .find_map(|l| l.strip_prefix("config_fingerprint "))
            .and_then(|v| u64::from_str_radix(v.trim_end(), 16).ok());
        match stored {
            None => {
                eprintln!(
                    "# checkpoint {}: no config fingerprint; re-running point",
                    path.display()
                );
                return None;
            }
            Some(got) if got != expected => {
                eprintln!(
                    "# checkpoint {}: config fingerprint {got:016x} does not match \
                     the resumed configuration ({expected:016x}) — a simulation \
                     parameter changed; re-running point",
                    path.display()
                );
                return None;
            }
            Some(_) => {}
        }
        let matches = report.policy == cfg.policy.label()
            && report.seed == cfg.seed
            && (report.duration - cfg.duration).abs() < 1e-9;
        if !matches {
            eprintln!(
                "# checkpoint {}: identity fields disagree with the fingerprinted \
                 config; re-running point",
                path.display()
            );
        }
        matches.then_some(report)
    }

    /// Persists a completed point atomically (write-then-rename), so a kill
    /// mid-write leaves either no checkpoint or a complete one. The full
    /// config fingerprint rides along as an extra `key value` line (ignored
    /// by [`parse_report`], checked on resume).
    fn store_checkpoint(&self, sweep: &str, index: usize, cfg: &SimConfig, report: &RunReport) {
        let Some(path) = self.checkpoint_path(sweep, index) else {
            return;
        };
        let mut text = serialize_report(report);
        let _ = writeln!(text, "config_fingerprint {:016x}", config_fingerprint(cfg));
        let tmp = path.with_extension("ckpt.tmp");
        if std::fs::write(&tmp, text).is_ok() {
            let _ = std::fs::rename(&tmp, &path);
        }
    }
}

/// A 64-bit FNV-1a fingerprint of the *complete* configuration, taken over
/// its `Debug` form (every `SimConfig` field derives `Debug`, and floats
/// render in shortest-round-trip form, so two configs fingerprint equal iff
/// every parameter is bit-identical). Stored in each checkpoint and checked
/// on resume, so changing any parameter — `lambda_u`, queue bounds, cost
/// model, staleness criterion, … — invalidates old checkpoints instead of
/// silently serving results from a different experiment.
///
/// The hash itself lives in [`strip_core::fingerprint`] so the live
/// runtime's WAL segments and snapshots can carry the identical identity
/// without depending on this crate; this re-export keeps the historic
/// checkpoint API in place.
pub use strip_core::fingerprint::config_fingerprint;

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

// ---- checkpoint format ------------------------------------------------------
//
// One `key value` pair per line; floats use Rust's shortest round-trip
// display form, so parse(serialize(r)) == r bit-for-bit. Timeline windows
// are one `timeline t finished committed fresh` line each, in order.
// `resilience.recovery_secs` is written only when present.

// v2: checkpoints carry a `config_fingerprint` of the full SimConfig; v1
// files (identity = policy/seed/duration only) are rejected and re-run.
const CHECKPOINT_HEADER: &str = "strip-checkpoint v2";

/// Serialises a report to the checkpoint text form.
#[must_use]
pub fn serialize_report(r: &RunReport) -> String {
    let mut s = String::with_capacity(2048);
    let _ = writeln!(s, "{CHECKPOINT_HEADER}");
    let mut kv = |k: &str, v: &dyn fmt::Display| {
        let _ = writeln!(s, "{k} {v}");
    };
    kv("policy", &r.policy);
    kv("seed", &r.seed);
    kv("duration", &r.duration);
    kv("warmup", &r.warmup);
    let t = &r.txns;
    kv("txns.arrived", &t.arrived);
    kv("txns.committed", &t.committed);
    kv("txns.committed_fresh", &t.committed_fresh);
    kv("txns.missed_deadline", &t.missed_deadline);
    kv("txns.aborted_infeasible", &t.aborted_infeasible);
    kv("txns.aborted_stale", &t.aborted_stale);
    kv("txns.in_flight_at_end", &t.in_flight_at_end);
    kv("txns.value_committed", &t.value_committed);
    kv("txns.stale_reads", &t.stale_reads);
    kv("txns.view_reads", &t.view_reads);
    kv("txns.response_mean", &t.response_mean);
    kv("txns.response_sd", &t.response_sd);
    for (c, name) in t.by_class.iter().zip(["low", "high"]) {
        kv(&format!("txns.{name}.arrived"), &c.arrived);
        kv(&format!("txns.{name}.committed"), &c.committed);
        kv(&format!("txns.{name}.committed_fresh"), &c.committed_fresh);
    }
    let u = &r.updates;
    kv("updates.arrived", &u.arrived);
    kv("updates.os_dropped", &u.os_dropped);
    kv("updates.enqueued", &u.enqueued);
    kv("updates.installed_background", &u.installed_background);
    kv("updates.installed_immediate", &u.installed_immediate);
    kv("updates.installed_on_demand", &u.installed_on_demand);
    kv("updates.superseded_skips", &u.superseded_skips);
    kv("updates.expired_dropped", &u.expired_dropped);
    kv("updates.overflow_dropped", &u.overflow_dropped);
    kv("updates.dedup_dropped", &u.dedup_dropped);
    kv("updates.admission_shed", &u.admission_shed);
    kv("updates.max_uq_len", &u.max_uq_len);
    kv("updates.max_os_len", &u.max_os_len);
    kv("updates.left_in_os", &u.left_in_os);
    kv("updates.left_in_update_queue", &u.left_in_update_queue);
    kv("updates.in_flight_at_end", &u.in_flight_at_end);
    kv("updates.od_abandoned", &u.od_abandoned);
    let c = &r.cpu;
    kv("cpu.busy_txn", &c.busy_txn);
    kv("cpu.busy_update", &c.busy_update);
    kv("cpu.measured_secs", &c.measured_secs);
    kv("cpu.events_processed", &c.events_processed);
    kv("cpu.io_misses_reads", &c.io_misses_reads);
    kv("cpu.io_misses_installs", &c.io_misses_installs);
    kv("fold_low", &r.fold_low);
    kv("fold_high", &r.fold_high);
    let h = &r.history;
    kv("history.historical_reads", &h.historical_reads);
    kv("history.misses", &h.misses);
    kv("history.appends", &h.appends);
    kv("history.pruned", &h.pruned);
    kv("history.entries_at_end", &h.entries_at_end);
    let g = &r.triggers;
    kv("triggers.fired", &g.fired);
    kv("triggers.coalesced", &g.coalesced);
    kv("triggers.dropped", &g.dropped);
    kv("triggers.executed", &g.executed);
    kv("triggers.pending_at_end", &g.pending_at_end);
    kv("triggers.lag_mean", &g.lag_mean);
    kv("triggers.max_pending", &g.max_pending);
    let z = &r.resilience;
    kv("resilience.duplicated", &z.duplicated);
    kv("resilience.reordered", &z.reordered);
    kv("resilience.outage_held", &z.outage_held);
    kv("resilience.burst_grouped", &z.burst_grouped);
    kv("resilience.admission_shed", &z.admission_shed);
    if let Some(rec) = z.recovery_secs {
        kv("resilience.recovery_secs", &rec);
    }
    let y = &r.durability;
    kv("durability.wal_appended", &y.wal_appended);
    kv("durability.wal_fsyncs", &y.wal_fsyncs);
    kv("durability.wal_bytes", &y.wal_bytes);
    kv("durability.wal_group_max", &y.wal_group_max);
    kv("durability.snapshots_written", &y.snapshots_written);
    kv("durability.recovery_replayed", &y.recovery_replayed);
    kv("durability.recovery_discarded", &y.recovery_discarded);
    for w in &r.timeline {
        kv(
            "timeline",
            &format!(
                "{} {} {} {}",
                w.t_start, w.finished, w.committed, w.committed_fresh
            ),
        );
    }
    s
}

/// Parses the checkpoint text form back into a report. Returns `None` on any
/// missing field, malformed line, or version mismatch — callers treat that
/// as "no checkpoint" and re-run the point.
#[must_use]
pub fn parse_report(text: &str) -> Option<RunReport> {
    let mut lines = text.lines();
    if lines.next()?.trim_end() != CHECKPOINT_HEADER {
        return None;
    }
    let mut map: std::collections::BTreeMap<&str, &str> = std::collections::BTreeMap::new();
    let mut timeline = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (key, value) = line.split_once(' ')?;
        if key == "timeline" {
            let mut it = value.split(' ');
            timeline.push(TimelineWindow {
                t_start: it.next()?.parse().ok()?,
                finished: it.next()?.parse().ok()?,
                committed: it.next()?.parse().ok()?,
                committed_fresh: it.next()?.parse().ok()?,
            });
        } else {
            map.insert(key, value);
        }
    }
    let u = |k: &str| -> Option<u64> { map.get(k)?.parse().ok() };
    let f = |k: &str| -> Option<f64> { map.get(k)?.parse().ok() };
    let mut r = RunReport {
        policy: (*map.get("policy")?).to_string(),
        seed: u("seed")?,
        duration: f("duration")?,
        warmup: f("warmup")?,
        ..RunReport::default()
    };
    let t = &mut r.txns;
    t.arrived = u("txns.arrived")?;
    t.committed = u("txns.committed")?;
    t.committed_fresh = u("txns.committed_fresh")?;
    t.missed_deadline = u("txns.missed_deadline")?;
    t.aborted_infeasible = u("txns.aborted_infeasible")?;
    t.aborted_stale = u("txns.aborted_stale")?;
    t.in_flight_at_end = u("txns.in_flight_at_end")?;
    t.value_committed = f("txns.value_committed")?;
    t.stale_reads = u("txns.stale_reads")?;
    t.view_reads = u("txns.view_reads")?;
    t.response_mean = f("txns.response_mean")?;
    t.response_sd = f("txns.response_sd")?;
    for (class, name) in t.by_class.iter_mut().zip(["low", "high"]) {
        class.arrived = u(&format!("txns.{name}.arrived"))?;
        class.committed = u(&format!("txns.{name}.committed"))?;
        class.committed_fresh = u(&format!("txns.{name}.committed_fresh"))?;
    }
    let d = &mut r.updates;
    d.arrived = u("updates.arrived")?;
    d.os_dropped = u("updates.os_dropped")?;
    d.enqueued = u("updates.enqueued")?;
    d.installed_background = u("updates.installed_background")?;
    d.installed_immediate = u("updates.installed_immediate")?;
    d.installed_on_demand = u("updates.installed_on_demand")?;
    d.superseded_skips = u("updates.superseded_skips")?;
    d.expired_dropped = u("updates.expired_dropped")?;
    d.overflow_dropped = u("updates.overflow_dropped")?;
    d.dedup_dropped = u("updates.dedup_dropped")?;
    d.admission_shed = u("updates.admission_shed")?;
    d.max_uq_len = u("updates.max_uq_len")?;
    d.max_os_len = u("updates.max_os_len")?;
    d.left_in_os = u("updates.left_in_os")?;
    d.left_in_update_queue = u("updates.left_in_update_queue")?;
    d.in_flight_at_end = u("updates.in_flight_at_end")?;
    d.od_abandoned = u("updates.od_abandoned")?;
    let c = &mut r.cpu;
    c.busy_txn = f("cpu.busy_txn")?;
    c.busy_update = f("cpu.busy_update")?;
    c.measured_secs = f("cpu.measured_secs")?;
    c.events_processed = u("cpu.events_processed")?;
    c.io_misses_reads = u("cpu.io_misses_reads")?;
    c.io_misses_installs = u("cpu.io_misses_installs")?;
    r.fold_low = f("fold_low")?;
    r.fold_high = f("fold_high")?;
    let h = &mut r.history;
    h.historical_reads = u("history.historical_reads")?;
    h.misses = u("history.misses")?;
    h.appends = u("history.appends")?;
    h.pruned = u("history.pruned")?;
    h.entries_at_end = u("history.entries_at_end")?;
    let g = &mut r.triggers;
    g.fired = u("triggers.fired")?;
    g.coalesced = u("triggers.coalesced")?;
    g.dropped = u("triggers.dropped")?;
    g.executed = u("triggers.executed")?;
    g.pending_at_end = u("triggers.pending_at_end")?;
    g.lag_mean = f("triggers.lag_mean")?;
    g.max_pending = u("triggers.max_pending")?;
    let z = &mut r.resilience;
    z.duplicated = u("resilience.duplicated")?;
    z.reordered = u("resilience.reordered")?;
    z.outage_held = u("resilience.outage_held")?;
    z.burst_grouped = u("resilience.burst_grouped")?;
    z.admission_shed = u("resilience.admission_shed")?;
    z.recovery_secs = f("resilience.recovery_secs");
    // Durability keys default to zero when absent: checkpoints written
    // before the live WAL subsystem existed (and every simulator run, which
    // has no durability layer) simply omit them.
    let y = &mut r.durability;
    y.wal_appended = u("durability.wal_appended").unwrap_or_default();
    y.wal_fsyncs = u("durability.wal_fsyncs").unwrap_or_default();
    y.wal_bytes = u("durability.wal_bytes").unwrap_or_default();
    y.wal_group_max = u("durability.wal_group_max").unwrap_or_default();
    y.snapshots_written = u("durability.snapshots_written").unwrap_or_default();
    y.recovery_replayed = u("durability.recovery_replayed").unwrap_or_default();
    y.recovery_discarded = u("durability.recovery_discarded").unwrap_or_default();
    r.timeline = timeline;
    Some(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use strip_core::config::Policy;

    fn sample_report() -> RunReport {
        let mut r = RunReport {
            policy: "TF".into(),
            seed: 0xDEAD_BEEF,
            duration: 51.5,
            warmup: 5.25,
            fold_low: 0.123_456_789_012_345,
            fold_high: 1.0 / 3.0,
            ..RunReport::default()
        };
        r.txns.arrived = 1201;
        r.txns.committed = 1100;
        r.txns.value_committed = 9_876.543_21;
        r.txns.response_mean = 0.033;
        r.txns.by_class[1].committed_fresh = 17;
        r.updates.arrived = 20_000;
        r.updates.overflow_dropped = 55;
        r.updates.admission_shed = 7;
        r.cpu.busy_txn = 12.75;
        r.cpu.events_processed = 123_456;
        r.history.appends = 42;
        r.triggers.lag_mean = 0.25;
        r.resilience.duplicated = 31;
        r.resilience.recovery_secs = Some(std::f64::consts::PI);
        r.durability.wal_appended = 4_096;
        r.durability.wal_fsyncs = 16;
        r.durability.recovery_replayed = 128;
        r.timeline = vec![
            TimelineWindow {
                t_start: 0.0,
                finished: 10,
                committed: 9,
                committed_fresh: 8,
            },
            TimelineWindow {
                t_start: 12.5,
                finished: 11,
                committed: 7,
                committed_fresh: 5,
            },
        ];
        r
    }

    fn fake_run() -> RunFn {
        Arc::new(|cfg: &SimConfig| RunReport {
            policy: cfg.policy.label().to_string(),
            seed: cfg.seed,
            duration: cfg.duration,
            ..RunReport::default()
        })
    }

    fn configs(n: usize) -> Vec<SimConfig> {
        (0..n)
            .map(|i| {
                SimConfig::builder()
                    .policy(Policy::PAPER_SET[i % 4])
                    .duration(2.0)
                    .seed(40 + i as u64 * 10)
                    .build()
                    .unwrap()
            })
            .collect()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "strip-runner-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn checkpoint_round_trips_bit_for_bit() {
        let r = sample_report();
        let parsed = parse_report(&serialize_report(&r)).expect("parse");
        assert_eq!(parsed, r);
        // No recovery and no timeline also round-trip.
        let plain = RunReport {
            policy: "UF".into(),
            ..RunReport::default()
        };
        assert_eq!(parse_report(&serialize_report(&plain)), Some(plain));
    }

    #[test]
    fn parse_rejects_garbage_and_missing_fields() {
        assert!(parse_report("").is_none());
        assert!(parse_report("strip-checkpoint v0\npolicy UF\n").is_none());
        // Pre-fingerprint checkpoints are rejected wholesale by the version
        // bump, even when their body would otherwise parse.
        let v1 = serialize_report(&sample_report())
            .replace("strip-checkpoint v2", "strip-checkpoint v1");
        assert!(parse_report(&v1).is_none());
        let full = serialize_report(&sample_report());
        let truncated: String = full.lines().take(10).collect::<Vec<_>>().join("\n");
        assert!(parse_report(&truncated).is_none());
    }

    #[test]
    fn config_fingerprint_covers_every_parameter() {
        let base = configs(1).remove(0);
        let same = configs(1).remove(0);
        assert_eq!(config_fingerprint(&base), config_fingerprint(&same));
        // Parameters outside the legacy policy/seed/duration identity must
        // still change the fingerprint.
        let mut lam = base.clone();
        lam.lambda_u += 1.0;
        assert_ne!(config_fingerprint(&base), config_fingerprint(&lam));
        let mut uq = base.clone();
        uq.uq_max = 17;
        assert_ne!(config_fingerprint(&base), config_fingerprint(&uq));
        let mut cost = base.clone();
        cost.costs.x_scan += 1.0;
        assert_ne!(config_fingerprint(&base), config_fingerprint(&cost));
    }

    #[test]
    fn panicking_point_is_retried_recorded_and_isolated() {
        let calls = Arc::new(AtomicU64::new(0));
        let calls_in_run = Arc::clone(&calls);
        let run: RunFn = Arc::new(move |cfg: &SimConfig| {
            calls_in_run.fetch_add(1, Ordering::Relaxed);
            assert!(cfg.seed != 50, "injected crash for seed 50");
            RunReport {
                policy: cfg.policy.label().to_string(),
                seed: cfg.seed,
                duration: cfg.duration,
                ..RunReport::default()
            }
        });
        let runner = SweepRunner::new().with_run_fn(run);
        let settings = RunSettings::quick(2.0);
        let out = runner.run_replicated(&settings, "iso", configs(3));
        // Point 1 (seed 50) fails twice; the other points survive.
        assert_eq!(out.replica_sets.len(), 3);
        assert_eq!(out.replica_sets[0].len(), 1);
        assert!(out.replica_sets[1].is_empty());
        assert_eq!(out.replica_sets[2].len(), 1);
        assert_eq!(out.failures.len(), 1);
        let fail = &out.failures[0];
        assert_eq!(fail.index, 1);
        assert_eq!(fail.attempts, 2);
        assert!(fail.message.contains("seed 50"), "got: {}", fail.message);
        assert_eq!(fail.sweep, "iso");
        // 2 good points + 2 attempts on the crashing one.
        assert_eq!(calls.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn flaky_point_succeeds_on_retry() {
        let first = Arc::new(AtomicU64::new(1));
        let first_in_run = Arc::clone(&first);
        let run: RunFn = Arc::new(move |cfg: &SimConfig| {
            if cfg.seed == 50 && first_in_run.swap(0, Ordering::Relaxed) == 1 {
                panic!("transient fault");
            }
            RunReport {
                policy: cfg.policy.label().to_string(),
                seed: cfg.seed,
                duration: cfg.duration,
                ..RunReport::default()
            }
        });
        let runner = SweepRunner::new().with_run_fn(run);
        let out = runner.run_replicated(&RunSettings::quick(2.0), "flaky", configs(2));
        assert!(out.failures.is_empty());
        assert_eq!(out.replica_sets[1].len(), 1);
        assert_eq!(out.replica_sets[1][0].seed, 50);
    }

    #[test]
    fn checkpoints_resume_without_resimulating() {
        let dir = temp_dir("resume");
        let settings = RunSettings::quick(2.0);
        let runner = SweepRunner::new()
            .with_checkpoint_dir(&dir)
            .with_run_fn(fake_run());
        let first = runner.run_replicated(&settings, "ckpt", configs(3));
        assert_eq!(first.resumed, 0);
        assert!(first.failures.is_empty());
        // Second pass: the run function refuses to work, so every point must
        // come from disk.
        let poisoned: RunFn = Arc::new(|_: &SimConfig| panic!("should have resumed"));
        let second = SweepRunner::new()
            .with_checkpoint_dir(&dir)
            .with_run_fn(poisoned)
            .run_replicated(&settings, "ckpt", configs(3));
        assert_eq!(second.resumed, 3);
        assert!(second.failures.is_empty());
        assert_eq!(second.replica_sets, first.replica_sets);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn changed_non_identity_param_invalidates_checkpoints() {
        // Regression: v1 checkpoints keyed identity on policy/seed/duration
        // only, so changing e.g. the update arrival rate silently resumed
        // results from the *old* experiment. The fingerprint catches it.
        let dir = temp_dir("fingerprint");
        let runner = SweepRunner::new()
            .with_checkpoint_dir(&dir)
            .with_run_fn(fake_run());
        let settings = RunSettings::quick(2.0);
        let first = runner.run_replicated(&settings, "fp", configs(2));
        assert_eq!(first.resumed, 0);
        // Same policy/seed/duration, different lambda_u: must re-simulate.
        let mut changed = configs(2);
        for c in &mut changed {
            c.lambda_u += 5.0;
        }
        let out = runner.run_replicated(&settings, "fp", changed.clone());
        assert_eq!(
            out.resumed, 0,
            "stale checkpoint served for a changed config"
        );
        assert!(out.failures.is_empty());
        // The re-run overwrote the checkpoints; an identical third pass now
        // resumes all points from disk.
        let poisoned: RunFn = Arc::new(|_: &SimConfig| panic!("should have resumed"));
        let third = SweepRunner::new()
            .with_checkpoint_dir(&dir)
            .with_run_fn(poisoned)
            .run_replicated(&settings, "fp", changed);
        assert_eq!(third.resumed, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_checkpoints_are_ignored() {
        let dir = temp_dir("stale");
        let runner = SweepRunner::new()
            .with_checkpoint_dir(&dir)
            .with_run_fn(fake_run());
        let settings = RunSettings::quick(2.0);
        let _ = runner.run_replicated(&settings, "mix", configs(2));
        // Same sweep name, different seed: identities no longer match.
        let mut moved = configs(2);
        for c in &mut moved {
            c.seed += 1;
        }
        let out = runner.run_replicated(&settings, "mix", moved);
        assert_eq!(out.resumed, 0);
        assert_eq!(out.replica_sets[0][0].seed, 41);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replica_expansion_matches_plain_sweep() {
        let mut settings = RunSettings::quick(2.0);
        settings.replicas = 3;
        let runner = SweepRunner::new().with_run_fn(fake_run());
        let out = runner.run_replicated(&settings, "reps", configs(2));
        assert_eq!(out.replica_sets.len(), 2);
        for (i, reps) in out.replica_sets.iter().enumerate() {
            assert_eq!(reps.len(), 3);
            for (rep, r) in reps.iter().enumerate() {
                assert_eq!(r.seed, 40 + i as u64 * 10 + rep as u64);
            }
        }
    }
}
