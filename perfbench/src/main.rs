//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sim_sweep|ingest_bulk|mixed_open> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every metric the run measured is printed as `name value unit`; the
//! last line is one JSON object `{"correct", "attempted", "failed",
//! "metrics"}` holding the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics of the separate traced pass (`--trace 1`). The
//! metric lists below are the ones `BENCHMARK.json` declares; see
//! `perfbench/README.md` for what each means on each workload.

mod calib;
mod ingest_bulk;
mod layers;
mod mixed_open;
mod procfs;
mod sim_sweep;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use spans::Tracer;
use stats::{result_json, Metric, Sheet};

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("goodput_per_s", "1/s"),
    ("cpu_ns_per_op", "ns"),
    ("latency_p50_us", "us"),
    ("success_ratio", "ratio"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`; a
/// layer the workload does not exercise reads 0. `latency_tail_us` is
/// here rather than end to end: on a shared two-CPU host it moves with
/// the CPU time the hypervisor steals (`host.steal_share`) far more than
/// any regression bound could absorb.
pub const PER_LAYER: [(&str, &str); 58] = [
    ("latency_tail_us", "us"),
    ("host.steal_share", "ratio"),
    ("host.ref_ns", "ns"),
    ("workload.arrivals", "count"),
    ("workload.gen_ns_per_arrival", "ns"),
    ("simkit.events", "count"),
    ("simkit.calendar_ns_per_op", "ns"),
    ("uq.ops", "count"),
    ("uq.ns_per_op", "ns"),
    ("os.deliver_ns_per_update", "ns"),
    ("install.ops", "count"),
    ("install.ns_per_update", "ns"),
    ("install.superseded_ratio", "ratio"),
    ("install.applied_share", "ratio"),
    ("dag.deltas", "count"),
    ("dag.applied", "count"),
    ("dag.apply_ns_per_delta", "ns"),
    ("dag.coalesce_ratio", "ratio"),
    ("dag.od_refreshes", "count"),
    ("dag.lag_mean_us", "us"),
    ("protocol.updates", "count"),
    ("protocol.encode_ns_per_update", "ns"),
    ("protocol.decode_ns_per_update", "ns"),
    ("spsc.ns_per_update", "ns"),
    ("credit.wait_s", "s"),
    ("credit.grants", "count"),
    ("client.write_s", "s"),
    ("client.barrier_s", "s"),
    ("exec.cpu_s", "s"),
    ("exec.runq_wait_s", "s"),
    ("exec.rho_u", "ratio"),
    ("exec.rho_t", "ratio"),
    ("wal.appends", "count"),
    ("wal.append_ns_per_update", "ns"),
    ("wal.fsyncs", "count"),
    ("wal.group_max", "count"),
    ("wal.cpu_s", "s"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("gen.late_p50_us", "us"),
    ("gen.late_p99_us", "us"),
    ("gen.clock_skew_us", "us"),
    ("gen.cpu_s", "s"),
    ("layers.unexplained_ratio", "ratio"),
    ("sim_sweep_s", "s"),
    ("ingest_updates_per_s", "1/s"),
    ("ingest_cpu_ns_per_update", "ns"),
    ("ingest.fast_mode_share", "ratio"),
    ("ingest.streams", "count"),
    ("txn_success_ratio", "ratio"),
    ("fold_high", "ratio"),
    ("query_p50_us", "us"),
    ("query_tail_us", "us"),
    ("dquery_p50_us", "us"),
    ("dquery_tail_us", "us"),
    ("queries", "count"),
    ("dqueries", "count"),
    ("failed_ratio", "ratio"),
    ("spans.recorded", "count"),
];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed all generated inputs derive from.
    pub seed: u64,
    /// Seconds of measurement.
    pub seconds: u64,
    /// Run the traced pass instead of the end-to-end pass.
    pub trace: bool,
    /// The benchmark's own directory (golden file, span output).
    pub bench_dir: PathBuf,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = 1u64;
        let mut seconds = 10u64;
        let mut trace = false;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut val = || {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(val()?),
                "--seed" => seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
                "--trace" => {
                    trace = match val()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, got {other}")),
                    }
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
            bench_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")),
        })
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every metric measured.
    pub sheet: Sheet,
    /// Operations attempted (points, streams, requests, checks).
    pub attempted: u64,
    /// Operations that failed: hung streams, unanswered requests,
    /// conservation breaks, outputs that did not repeat or match.
    pub failed: u64,
    notes: Vec<String>,
}

impl Outcome {
    /// Counts `n` attempted operations of which `failed` failed.
    pub fn attempt(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Adds a line of context printed before the metrics.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Summarises the traced pass's spans (self time per layer) and
    /// writes them to `<bench_dir>/out/spans-<workload>-<seed>.json`.
    pub fn finish_trace(&mut self, args: &Args, workload: &str, tracer: Tracer) {
        for (name, t) in tracer.layer_times() {
            self.note(format!(
                "span {name}: count {} total {:.6} s self {:.6} s",
                t.count,
                t.total_ns as f64 * 1e-9,
                t.self_ns as f64 * 1e-9
            ));
        }
        self.sheet
            .set("spans.recorded", tracer.spans().len() as f64, "count");
        if tracer.dropped() > 0 {
            self.note(format!(
                "{} spans dropped: the tracer was full",
                tracer.dropped()
            ));
        }
        let path = args
            .bench_dir
            .join("out")
            .join(format!("spans-{workload}-{}.json", args.seed));
        match tracer.write_json(&path) {
            Ok(()) => self.note(format!("spans written to {}", path.display())),
            Err(e) => self.note(format!("could not write spans to {}: {e}", path.display())),
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--write-golden") {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("sim_golden.txt");
        return match sim_sweep::write_golden(&path) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let steal0 = procfs::cpu_steal();
    let mut out = match args.workload.as_str() {
        "sim_sweep" => sim_sweep::run(&args),
        "ingest_bulk" => ingest_bulk::run(&args),
        "mixed_open" => mixed_open::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let (stolen, total) = procfs::cpu_steal();
    let steal = (stolen - steal0.0) as f64 / (total - steal0.1).max(1) as f64;
    out.sheet.set("host.steal_share", steal, "ratio");
    if out.sheet.get("host.ref_ns").is_none() {
        out.sheet.set("host.ref_ns", calib::reference_ns(), "ns");
    }
    let failed_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    out.sheet.set("failed_ratio", failed_ratio, "ratio");
    for line in &out.notes {
        println!("# {line}");
    }
    for (name, m) in out.sheet.iter() {
        println!("{name} {} {}", m.value, m.unit);
    }
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut missing = false;
    let metrics: Vec<(&str, Metric)> = wanted
        .iter()
        .map(|&(name, unit)| {
            let value = match out.sheet.get(name) {
                Some(v) => v,
                None if args.trace => 0.0,
                None => {
                    eprintln!("perfbench: {} did not measure {name}", args.workload);
                    missing = true;
                    f64::NAN
                }
            };
            (name, Metric { value, unit })
        })
        .collect();
    let attempted = out.attempted.max(1);
    let correct = out.failed == 0 && !missing;
    println!("{}", result_json(correct, attempted, out.failed, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared() -> String {
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json next to the benchmark directory")
    }

    #[test]
    fn benchmark_json_declares_every_metric_with_its_unit() {
        let json = declared();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared_names = json.matches("\"name\":").count();
        let workloads = 3;
        assert_eq!(
            declared_names,
            END_TO_END.len() + PER_LAYER.len() + workloads
        );
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.0)
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn args_parse_the_benchmark_command_line() {
        let argv: Vec<String> = [
            "--workload",
            "sim_sweep",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        let a = Args::parse(&argv).expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("sim_sweep", 7, 3, true)
        );
        let bad: Vec<String> = ["--workload", "x", "--trace", "2"]
            .iter()
            .map(ToString::to_string)
            .collect();
        assert!(Args::parse(&bad).is_err());
    }
}
