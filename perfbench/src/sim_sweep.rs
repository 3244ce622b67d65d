//! `sim_sweep`: the paper's Figure 3 grid (UF/TF/SU/OD × λt ∈ {5, 10,
//! 15}) plus one `derived_analytics` row (four policies, DAG depth 3),
//! each point a full 1000-simulated-second run of the simulator.
//!
//! This workload exercises the simulator's calendar, update queue,
//! staleness tracker, controller and DAG, and none of the live runtime.
//! A "request" is one whole sweep: its latency is the sweep's wall time.

use std::path::Path;
use std::time::Instant;

use strip_core::config::{Policy, SimConfig};
use strip_core::controller::run_simulation;
use strip_core::report::RunReport;
use strip_core::sources::{TxnSource, UpdateSource, UpdateSpec};
use strip_core::txn::TxnSpec;
use strip_db::dag::DagSpec;
use strip_db::update::Update;
use strip_obs::TraceConfig;
use strip_workload::generators::{PoissonTxns, UpdateStream};
use strip_workload::scenarios::derived_analytics;
use strip_workload::{run_paper_sim, run_paper_sim_traced};

use crate::calib;
use crate::layers;
use crate::procfs;
use crate::spans::{Tracer, NONE};
use crate::stats::{median, quantile, tail};
use crate::{Args, Outcome};

/// λt values of the Figure 3 points.
const LAMBDA_T: [f64; 3] = [5.0, 10.0, 15.0];

/// Simulated seconds per point in the golden check.
const GOLDEN_SECS: f64 = 20.0;

/// Seed of the golden check (independent of `--seed`).
const GOLDEN_SEED: u64 = 1995;

/// Seconds of measurement one sweep is budgeted; the untraced pass runs
/// `max(2, seconds / SWEEP_BUDGET)` sweeps, so every run of a given
/// `--seconds` holds the same number of samples whatever the speed.
const SWEEP_BUDGET: u64 = 6;

/// The sweep's points for `seed`, labelled `POLICY/lt<λt>` and
/// `POLICY/dag3`.
#[must_use]
pub fn points(seed: u64) -> Vec<(String, SimConfig)> {
    let mut out = Vec::new();
    for policy in Policy::PAPER_SET {
        for lt in LAMBDA_T {
            let cfg = SimConfig::builder()
                .policy(policy)
                .lambda_t(lt)
                .seed(seed)
                .build()
                .expect("Figure 3 point is a valid config");
            out.push((format!("{}/lt{lt}", policy.label()), cfg));
        }
    }
    for policy in Policy::PAPER_SET {
        let cfg = derived_analytics(policy, seed, DagSpec::default());
        out.push((format!("{}/dag3", policy.label()), cfg));
    }
    out
}

/// Conservation laws every report must keep.
fn conserved(r: &RunReport) -> bool {
    r.updates.terminal_total() == r.updates.arrived && r.dag.terminal_total() == r.dag.enqueued
}

/// One golden line: label, events processed, `p_success` bits.
fn golden_line(label: &str, r: &RunReport) -> String {
    format!(
        "{label} {} {:016x}",
        r.cpu.events_processed,
        r.txns.p_success().to_bits()
    )
}

/// Short runs of every point at [`GOLDEN_SEED`], as golden lines.
fn golden_lines() -> Vec<String> {
    points(GOLDEN_SEED)
        .into_iter()
        .map(|(label, mut cfg)| {
            cfg.duration = GOLDEN_SECS;
            golden_line(&label, &run_paper_sim(&cfg))
        })
        .collect()
}

/// Rewrites the golden file from the current simulator.
///
/// # Errors
///
/// Propagates the write error.
pub fn write_golden(path: &Path) -> std::io::Result<()> {
    let mut text = golden_lines().join("\n");
    text.push('\n');
    std::fs::write(path, text)
}

/// Compares the simulator against the golden file; returns the number
/// of points that differ (a missing file counts every point).
fn golden_mismatches(path: &Path) -> u64 {
    let expected = std::fs::read_to_string(path).unwrap_or_default();
    let expected: Vec<&str> = expected.lines().collect();
    let got = golden_lines();
    let mut bad = 0;
    for (i, line) in got.iter().enumerate() {
        if expected.get(i) != Some(&line.as_str()) {
            eprintln!(
                "sim_sweep: golden mismatch: expected {:?}, got {line:?}",
                expected.get(i)
            );
            bad += 1;
        }
    }
    bad
}

/// Set-up cost of the sweep: build every point's config and run it for
/// one simulated millisecond (store, tracker, expiry watches, calendar,
/// generators, DAG and report are all built; almost nothing simulated).
fn setup_once(seed: u64) -> f64 {
    let started = Instant::now();
    for (_, mut cfg) in points(seed) {
        cfg.duration = 1e-3;
        std::hint::black_box(run_paper_sim(&cfg));
    }
    started.elapsed().as_secs_f64()
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let golden = args.bench_dir.join("sim_golden.txt");
    let bad = golden_mismatches(&golden);
    out.attempt(points(GOLDEN_SEED).len() as u64, bad);
    if args.trace {
        traced(args, &mut out);
    } else {
        untraced(args, &mut out);
    }
    out
}

fn untraced(args: &Args, out: &mut Outcome) {
    let points = points(args.seed);
    let sweeps = (args.seconds / SWEEP_BUDGET).max(2);
    let mut sweep_secs = Vec::new();
    let mut sweep_cpu_secs = Vec::new();
    let mut events_per_sweep = 0u64;
    let mut first: Vec<(u64, u64)> = Vec::new();
    let mut success = Vec::new();
    // Host speed (see `calib`) is read after every point from the second
    // sweep on; a point's CPU time, and a set-up run after it, are scaled
    // by the readings on either side of them, so the set-up samples
    // spread over the whole run. The reference's tables would raise the
    // process's peak memory, so the first sweep runs before any reading:
    // the peak read after it is the simulator's own, and it is scaled by
    // the reading taken right after it.
    let mut peak_rss = 0.0;
    let mut refs: Vec<f64> = Vec::new();
    let (mut setups, mut scaled_setups) = (Vec::new(), Vec::new());
    let mut scaled_cpu_secs = Vec::new();
    for sweep in 0..sweeps {
        let started = Instant::now();
        let mut events = 0u64;
        let (mut cpu_s, mut scaled_s) = (0.0, 0.0);
        for (i, (label, cfg)) in points.iter().enumerate() {
            let cpu_start = procfs::this_thread().cpu_ns;
            let r = run_paper_sim(cfg);
            let point_s = procfs::this_thread().cpu_ns.saturating_sub(cpu_start) as f64 * 1e-9;
            cpu_s += point_s;
            if let Some(&before) = refs.last() {
                let setup_s = setup_once(args.seed);
                let after = calib::reference_ns();
                refs.push(after);
                let slowness = calib::slowness(&[before, after]);
                scaled_s += point_s / slowness;
                setups.push(setup_s);
                scaled_setups.push(setup_s / slowness);
            }
            events += r.cpu.events_processed;
            let key = (r.cpu.events_processed, r.txns.p_success().to_bits());
            let mut ok = conserved(&r);
            if sweep == 0 {
                first.push(key);
                success.push(r.txns.p_success());
            } else if first[i] != key {
                eprintln!(
                    "sim_sweep: {label} did not repeat: {:?} vs {key:?}",
                    first[i]
                );
                ok = false;
            }
            out.attempt(1, u64::from(!ok));
        }
        if refs.is_empty() {
            peak_rss = procfs::peak_rss_mib();
            refs.push(calib::reference_ns());
            scaled_s = cpu_s / calib::slowness(&refs);
        }
        sweep_secs.push(started.elapsed().as_secs_f64());
        sweep_cpu_secs.push(cpu_s);
        scaled_cpu_secs.push(scaled_s);
        events_per_sweep = events;
    }
    // The sweep is single-threaded and CPU-bound: its thread CPU time is
    // its wall time on an unshared CPU, while wall time also counts the
    // time the hypervisor runs other guests (`host.steal_share`). The
    // end-to-end figures use CPU time scaled to the nominal host (see
    // `calib`); raw CPU and wall time are printed beside them.
    let mut latencies: Vec<f64> = scaled_cpu_secs.iter().map(|s| s * 1e6).collect();
    latencies.sort_by(f64::total_cmp);
    // Fewer than 11 sweeps: the tail is the slowest sweep.
    let (tail_us, _) = tail(&latencies, 10);
    let sweep_s = median(&sweep_secs);
    let sweep_cpu_s = median(&scaled_cpu_secs);
    let events = events_per_sweep as f64;
    let m = &mut out.sheet;
    m.set("setup_s", median(&scaled_setups), "s");
    m.set("peak_rss_mib", peak_rss, "MiB");
    m.set("goodput_per_s", events / sweep_cpu_s, "1/s");
    m.set("cpu_ns_per_op", sweep_cpu_s * 1e9 / events, "ns");
    m.set("latency_p50_us", quantile(&latencies, 0.5), "us");
    m.set("latency_tail_us", tail_us, "us");
    m.set(
        "success_ratio",
        success.iter().sum::<f64>() / success.len() as f64,
        "ratio",
    );
    m.set("sim_sweep_s", sweep_s, "s");
    m.set("host.ref_ns", median(&refs), "ns");
    m.set("sim.raw_setup_s", median(&setups), "s");
    m.set(
        "sim.raw_goodput_per_s",
        events / median(&sweep_cpu_secs),
        "1/s",
    );
    m.set("sim.wall_goodput_per_s", events / sweep_s, "1/s");
    out.note(format!(
        "sim_sweep: {} points x {sweeps} sweeps, {events_per_sweep} events/sweep, sweep seconds {sweep_secs:?}, sweep CPU seconds {sweep_cpu_secs:?}, reference ns/op {refs:?}",
        points.len(),
    ));
}

/// Counts and times every arrival a source hands the simulator, and
/// keeps the first `keep` update arrivals for the layer replays.
struct Timed<S> {
    inner: S,
    ns: u128,
    calls: u64,
    keep: usize,
    kept: Vec<UpdateSpec>,
}

impl<S> Timed<S> {
    fn new(inner: S, keep: usize) -> Self {
        Timed {
            inner,
            ns: 0,
            calls: 0,
            keep,
            kept: Vec::new(),
        }
    }
}

impl<S: UpdateSource> UpdateSource for &mut Timed<S> {
    fn next_update(&mut self) -> Option<UpdateSpec> {
        let t0 = Instant::now();
        let u = self.inner.next_update();
        self.ns += t0.elapsed().as_nanos();
        self.calls += 1;
        if let Some(u) = u {
            if self.kept.len() < self.keep {
                self.kept.push(u);
            }
        }
        u
    }
}

impl<S: TxnSource> TxnSource for &mut Timed<S> {
    fn next_txn(&mut self) -> Option<TxnSpec> {
        let t0 = Instant::now();
        let t = self.inner.next_txn();
        self.ns += t0.elapsed().as_nanos();
        self.calls += 1;
        t
    }
}

/// Updates kept per point for the layer replays.
const KEEP_UPDATES: usize = 50_000;

fn to_updates(specs: &[UpdateSpec]) -> Vec<Update> {
    specs
        .iter()
        .enumerate()
        .map(|(seq, u)| Update {
            seq: seq as u64,
            object: u.object,
            generation_ts: u.generation_ts,
            arrival_ts: u.arrival,
            payload: u.payload,
            attr_mask: u.attr_mask,
        })
        .collect()
}

#[allow(clippy::too_many_lines)]
fn traced(args: &Args, out: &mut Outcome) {
    let mut tracer = Tracer::new(true);
    let points = points(args.seed);
    let sweep = tracer.begin("sim.sweep", NONE, 0);
    let mut gen_ns = 0u128;
    let mut arrivals = 0u64;
    let mut events = 0u64;
    let mut uq_ops = 0u64;
    let mut installs = 0u64;
    let mut superseded = 0u64;
    let mut arrived = 0u64;
    let mut dag_applied = 0u64;
    let mut dag_enqueued = 0u64;
    let mut dag_coalesced = 0u64;
    let mut od_refreshes = 0u64;
    let mut dag_lag = Vec::new();
    let mut rho = (0.0, 0.0);
    let mut fold_high = 0.0;
    let mut success = 0.0;
    let mut layer_ns = 0.0;
    let mut wall_ns = 0u128;
    // Per-point layer prices; the sheet gets their medians.
    let (mut cal_ns, mut uq_ns, mut ins_ns, mut dag_apply_ns) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (i, (label, cfg)) in points.iter().enumerate() {
        let span = tracer.begin("sim.run_simulation", sweep, i as u64);
        let t0 = Instant::now();
        let mut ups = Timed::new(UpdateStream::from_config(cfg), KEEP_UPDATES);
        let mut txns = Timed::new(PoissonTxns::from_config(cfg), 0);
        let r = run_simulation(cfg, &mut ups, &mut txns);
        wall_ns += t0.elapsed().as_nanos();
        tracer.end(span);
        let check = tracer.begin("sim.run_paper_sim", sweep, i as u64);
        let untraced = run_paper_sim(cfg);
        tracer.end(check);
        let ok = conserved(&r) && r.cpu.events_processed == untraced.cpu.events_processed;
        if !ok {
            eprintln!("sim_sweep: traced {label} diverged from the untraced run");
        }
        out.attempt(1, u64::from(!ok));
        let point_gen = ups.ns + txns.ns;
        let point_arrivals = ups.calls + txns.calls;
        gen_ns += point_gen;
        arrivals += point_arrivals;
        events += r.cpu.events_processed;
        let u = &r.updates;
        let point_uq = u.enqueued + u.installed_background + u.installed_on_demand;
        uq_ops += point_uq;
        installs += u.installed_total();
        superseded += u.superseded_skips;
        arrived += u.arrived;
        dag_applied += r.dag.applied;
        dag_enqueued += r.dag.enqueued;
        dag_coalesced += r.dag.coalesced;
        od_refreshes += r.dag.od_refreshes;
        if r.dag.enqueued > 0 {
            dag_lag.push(r.dag.lag_mean);
        }
        rho.0 += r.cpu.rho_u() / points.len() as f64;
        rho.1 += r.cpu.rho_t() / points.len() as f64;
        fold_high += r.fold_high / points.len() as f64;
        success += r.txns.p_success() / points.len() as f64;

        // Price this point's layers on its own inputs.
        let span = tracer.begin("sim.layer_replay", sweep, i as u64);
        let updates = to_updates(&ups.kept);
        let objects = (cfg.n_low + cfg.n_high) as usize;
        let cal = layers::calendar_ns_per_event(objects, 200_000, cfg.seed);
        let uq = layers::update_queue_ns_per_op(&updates, cfg.uq_max, cfg.indexed_queue, 64);
        let (ins, _) = layers::install_ns_per_update(&updates, cfg.n_low, cfg.n_high, cfg.max_age);
        let mut dag_ns = 0.0;
        if let Some(spec) = &cfg.dag {
            dag_ns = layers::dag_ns_per_apply(cfg, spec, &updates, 64);
        }
        tracer.end(span);
        layer_ns += point_gen as f64
            + cal * r.cpu.events_processed as f64
            + uq * point_uq as f64
            + ins * u.installed_total() as f64
            + dag_ns * r.dag.applied as f64;
        cal_ns.push(cal);
        uq_ns.push(uq);
        ins_ns.push(ins);
        if cfg.dag.is_some() {
            dag_apply_ns.push(dag_ns);
        }
    }
    tracer.end(sweep);

    // Tracing overhead: the simulator's own flight recorder against the
    // untraced run, one point per policy at λt = 10, alternating order.
    let span = tracer.begin("sim.trace_overhead", NONE, 0);
    let mut ratios = Vec::new();
    for (label, cfg) in points.iter().filter(|(l, _)| l.ends_with("/lt10")) {
        let t0 = Instant::now();
        let plain = run_paper_sim(cfg);
        let plain_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let traced = run_paper_sim_traced(cfg, TraceConfig::default());
        let traced_s = t1.elapsed().as_secs_f64();
        let same = traced
            .as_ref()
            .is_ok_and(|(r, _)| r.cpu.events_processed == plain.cpu.events_processed);
        if !same {
            eprintln!("sim_sweep: traced {label} processed a different event count");
        }
        out.attempt(1, u64::from(!same));
        ratios.push(traced_s / plain_s - 1.0);
    }
    tracer.end(span);

    let m = &mut out.sheet;
    m.set("workload.arrivals", arrivals as f64, "count");
    m.set(
        "workload.gen_ns_per_arrival",
        gen_ns as f64 / arrivals.max(1) as f64,
        "ns",
    );
    m.set("simkit.events", events as f64, "count");
    m.set("simkit.calendar_ns_per_op", median(&cal_ns), "ns");
    m.set("uq.ns_per_op", median(&uq_ns), "ns");
    m.set("install.ns_per_update", median(&ins_ns), "ns");
    m.set("dag.apply_ns_per_delta", median(&dag_apply_ns), "ns");
    m.set("uq.ops", uq_ops as f64, "count");
    m.set("install.ops", installs as f64, "count");
    m.set("dag.deltas", dag_enqueued as f64, "count");
    m.set(
        "dag.coalesce_ratio",
        dag_coalesced as f64 / dag_enqueued.max(1) as f64,
        "ratio",
    );
    m.set("dag.od_refreshes", od_refreshes as f64, "count");
    m.set("dag.lag_mean_us", median(&dag_lag) * 1e6, "us");
    m.set("dag.applied", dag_applied as f64, "count");
    m.set("exec.rho_u", rho.0, "ratio");
    m.set("exec.rho_t", rho.1, "ratio");
    m.set("txn_success_ratio", success, "ratio");
    m.set("fold_high", fold_high, "ratio");
    m.set("obs.trace_overhead_ratio", median(&ratios), "ratio");
    m.set(
        "layers.unexplained_ratio",
        1.0 - layer_ns / wall_ns as f64,
        "ratio",
    );
    m.set("sim_sweep_s", wall_ns as f64 * 1e-9, "s");
    // One traced sweep: it is its own tail.
    m.set("latency_tail_us", wall_ns as f64 * 1e-3, "us");
    m.set(
        "install.superseded_ratio",
        superseded as f64 / arrived.max(1) as f64,
        "ratio",
    );
    out.finish_trace(args, "sim_sweep", tracer);
}
