//! Order statistics and the metric sheet every workload fills in.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Value at quantile `q` (0..=1) of `sorted`, by the nearest-rank rule.
/// Returns 0 for an empty slice.
#[must_use]
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (sorts a copy). 0 for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The tail of a latency sample: the highest percentile that still has at
/// least `beyond` samples above it. Returns `(value, quantile used)`.
/// Fewer than `beyond + 1` samples fall back to the maximum.
#[must_use]
pub fn tail(sorted: &[f64], beyond: usize) -> (f64, f64) {
    let n = sorted.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    if n <= beyond {
        return (sorted[n - 1], 1.0);
    }
    let q = (n - beyond) as f64 / n as f64;
    (quantile(sorted, q), q)
}

/// Median over fixed windows of each window's [`tail`]: `samples` are
/// `(time, value)` pairs, grouped into windows of `window` by time;
/// windows with no more than `beyond` samples are skipped. A burst that
/// inflates the tail of one window does not move the median.
#[must_use]
pub fn windowed_tail(samples: &[(f64, f64)], window: f64, beyond: usize) -> f64 {
    let mut windows: BTreeMap<i64, Vec<f64>> = BTreeMap::new();
    for &(t, v) in samples {
        windows
            .entry((t / window).floor() as i64)
            .or_default()
            .push(v);
    }
    let tails: Vec<f64> = windows
        .into_values()
        .filter(|w| w.len() > beyond)
        .map(|mut w| {
            w.sort_by(f64::total_cmp);
            tail(&w, beyond).0
        })
        .collect();
    median(&tails)
}

/// Median over the quieter half of fixed windows of each window's
/// median: `samples` are `(time, value)` pairs, grouped into windows of
/// `window` by time, and `noise[w]` is how disturbed window `w` was (the
/// share of CPU time the host stole). Windows no noisier than the median
/// window are kept; windows without a noise reading are skipped. On a
/// shared host a burst of stolen time inflates the latencies of the
/// seconds it hits; a change in the program moves every second.
#[must_use]
pub fn quiet_median(samples: &[(f64, f64)], window: f64, noise: &[f64]) -> f64 {
    let mut windows: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for &(t, v) in samples {
        let w = (t / window).floor();
        if w >= 0.0 && (w as usize) < noise.len() {
            windows.entry(w as usize).or_default().push(v);
        }
    }
    let levels: Vec<f64> = windows.keys().map(|&w| noise[w]).collect();
    let calm = median(&levels);
    let medians: Vec<f64> = windows
        .into_iter()
        .filter(|(w, _)| noise[*w] <= calm)
        .map(|(_, mut v)| {
            v.sort_by(f64::total_cmp);
            quantile(&v, 0.5)
        })
        .collect();
    median(&medians)
}

/// Unit and value of one reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// The measured value.
    pub value: f64,
    /// Its unit (`s`, `ns`, `1/s`, `count`, ...).
    pub unit: &'static str,
}

/// Every metric a run measured, by name.
#[derive(Debug, Default)]
pub struct Sheet {
    metrics: BTreeMap<String, Metric>,
}

impl Sheet {
    /// Records `name` (overwriting an earlier value).
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics
            .insert(name.to_string(), Metric { value, unit });
    }

    /// The value recorded under `name`.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|m| m.value)
    }

    /// All metrics, in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Metric)> {
        self.metrics.iter()
    }
}

/// Renders the one-line result object the benchmark prints last.
#[must_use]
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, Metric)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, m)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if m.value.is_finite() {
            format!("{:?}", m.value)
        } else {
            "null".to_string()
        };
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_uses_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // 1000 samples: p99 leaves exactly 10 above it.
        let (value, q) = tail(&v, 10);
        assert_eq!(q, 0.99);
        assert_eq!(value, 990.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
        // Too few samples: the maximum.
        assert_eq!(tail(&v[..5], 10), (5.0, 1.0));
    }

    #[test]
    fn windowed_tail_is_the_median_of_window_tails() {
        // Three 1-s windows of 100 samples: values 1..=100 in two, and a
        // window whose values are ten times larger.
        let mut samples = Vec::new();
        for w in 0..3 {
            let scale = if w == 1 { 10.0 } else { 1.0 };
            for i in 1..=100 {
                samples.push((f64::from(w) + f64::from(i) / 101.0, scale * f64::from(i)));
            }
        }
        // Each window's tail is its p90 (10 samples beyond); the median
        // ignores the inflated window.
        assert_eq!(windowed_tail(&samples, 1.0, 10), 90.0);
        // Windows too small to have 10 samples beyond are skipped.
        assert_eq!(windowed_tail(&samples[..5], 1.0, 10), 0.0);
    }

    #[test]
    fn quiet_median_keeps_the_calmer_half_of_windows() {
        // Four 1-s windows of values 1..=9 plus one per window scale;
        // the two noisiest windows (0.2, 0.3) hold inflated values.
        let mut samples = Vec::new();
        for (w, scale) in [1.0, 10.0, 1.0, 10.0].into_iter().enumerate() {
            for i in 1..=9 {
                samples.push((w as f64 + f64::from(i) / 10.0, scale * f64::from(i)));
            }
        }
        let noise = [0.0, 0.2, 0.01, 0.3];
        assert_eq!(quiet_median(&samples, 1.0, &noise), 5.0);
        // Windows without a noise reading are skipped.
        assert_eq!(quiet_median(&samples, 1.0, &noise[..1]), 5.0);
        assert_eq!(quiet_median(&samples, 1.0, &[]), 0.0);
    }

    #[test]
    fn result_json_has_the_four_keys() {
        let line = result_json(
            true,
            3,
            0,
            &[(
                "setup_s",
                Metric {
                    value: 0.5,
                    unit: "s",
                },
            )],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
