//! CPU and memory accounting read from `/proc` (Linux only).
//!
//! `/proc/<pid>/task/<tid>/schedstat` holds three numbers per thread:
//! nanoseconds on the CPU, nanoseconds waiting on a run queue, and the
//! number of time slices run.

use std::collections::BTreeMap;
use std::fs;

/// CPU and run-queue wait of one thread, nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStat {
    /// Time on a CPU.
    pub cpu_ns: u64,
    /// Time runnable but waiting for a CPU.
    pub wait_ns: u64,
}

impl SchedStat {
    fn parse(text: &str) -> Option<SchedStat> {
        let mut it = text.split_whitespace().map(str::parse::<u64>);
        let cpu_ns = it.next()?.ok()?;
        let wait_ns = it.next()?.ok()?;
        Some(SchedStat { cpu_ns, wait_ns })
    }
}

/// The calling thread's scheduler counters.
#[must_use]
pub fn this_thread() -> SchedStat {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|t| SchedStat::parse(&t))
        .unwrap_or_default()
}

/// One live thread of this process: its name and counters, keyed by tid.
pub type Threads = BTreeMap<u64, (String, SchedStat)>;

/// Counters of every live thread of this process.
#[must_use]
pub fn threads() -> Threads {
    let mut out = BTreeMap::new();
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let path = entry.path();
        let comm = fs::read_to_string(path.join("comm")).unwrap_or_default();
        let stat = fs::read_to_string(path.join("schedstat"))
            .ok()
            .and_then(|t| SchedStat::parse(&t));
        if let Some(stat) = stat {
            out.insert(tid, (comm.trim().to_string(), stat));
        }
    }
    out
}

/// Counters accumulated between two [`threads`] snapshots by the threads
/// whose name starts with `prefix`. A thread absent from `before` counts
/// from zero (it started in between); one absent from `after` has exited
/// and is not counted, so take `after` before joining the threads.
#[must_use]
pub fn delta(before: &Threads, after: &Threads, prefix: &str) -> SchedStat {
    let mut sum = SchedStat::default();
    for (tid, (name, end)) in after {
        if !name.starts_with(prefix) {
            continue;
        }
        let start = before.get(tid).map(|(_, s)| *s).unwrap_or_default();
        sum.cpu_ns += end.cpu_ns.saturating_sub(start.cpu_ns);
        sum.wait_ns += end.wait_ns.saturating_sub(start.wait_ns);
    }
    sum
}

/// `(steal, total)` jiffies of all CPUs from `/proc/stat`: the time the
/// hypervisor ran something else while this machine wanted the CPU.
#[must_use]
pub fn cpu_steal() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

/// Peak resident set size of this process so far, MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_schedstat_line() {
        assert_eq!(
            SchedStat::parse("123 45 6\n"),
            Some(SchedStat {
                cpu_ns: 123,
                wait_ns: 45
            })
        );
        assert_eq!(SchedStat::parse("garbage"), None);
    }

    #[test]
    fn delta_counts_only_named_threads() {
        let mut before = Threads::new();
        before.insert(
            1,
            (
                "stripd-exec-0".into(),
                SchedStat {
                    cpu_ns: 10,
                    wait_ns: 1,
                },
            ),
        );
        let mut after = before.clone();
        after.insert(
            1,
            (
                "stripd-exec-0".into(),
                SchedStat {
                    cpu_ns: 25,
                    wait_ns: 4,
                },
            ),
        );
        after.insert(
            2,
            (
                "stripd-conn".into(),
                SchedStat {
                    cpu_ns: 7,
                    wait_ns: 0,
                },
            ),
        );
        after.insert(
            3,
            (
                "main".into(),
                SchedStat {
                    cpu_ns: 99,
                    wait_ns: 9,
                },
            ),
        );
        assert_eq!(
            delta(&before, &after, "stripd-"),
            SchedStat {
                cpu_ns: 22,
                wait_ns: 3
            }
        );
    }

    #[test]
    fn reads_this_process() {
        assert!(peak_rss_mib() > 0.0);
        assert!(!threads().is_empty());
    }
}
