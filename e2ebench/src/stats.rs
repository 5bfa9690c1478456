//! Small statistics helpers, the failure tally shared by all phases, and the
//! metric list the command prints.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Nearest-rank percentile `p` (0..=100) of `xs`, which is sorted in place.
/// NaN for an empty sample.
pub fn percentile(xs: &mut [f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * xs.len() as f64).ceil().max(1.0) as usize;
    xs[rank.min(xs.len()) - 1]
}

/// Median (nearest-rank p50) of `xs`.
pub fn median(xs: &mut [f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    let log_sum: f64 = xs.iter().map(|v| v.ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

/// Microseconds of a duration, as a float.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Peak resident set size of this process in MiB (`VmHWM`), or NaN where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Counts every checked operation. `failed` covers wrong results, wrong
/// bytes, shed, rejected, deadline-expired and panicked requests; any
/// failure makes the run fail.
#[derive(Default)]
pub struct Tally {
    attempted: AtomicU64,
    failed: AtomicU64,
}

impl Tally {
    /// Records one operation whose output was `ok`; `what` names it in the
    /// diagnostic printed for the first few wrong outputs.
    pub fn check(&self, ok: bool, what: impl FnOnce() -> String) {
        self.count(ok, || format!("WRONG OUTPUT: {}", what()));
    }

    /// Records one service request that ended in an error response (shed,
    /// rejected, deadline, panic).
    pub fn refused(&self, why: impl FnOnce() -> String) {
        self.count(false, || format!("request failed: {}", why()));
    }

    fn count(&self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted.fetch_add(1, Ordering::Relaxed);
        if !ok && self.failed.fetch_add(1, Ordering::Relaxed) < 10 {
            eprintln!("e2ebench: {}", what());
        }
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }
}

/// Named metrics in print order.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    pub fn iter(&self) -> impl Iterator<Item = &(&'static str, f64, &'static str)> {
        self.0.iter()
    }

    /// The `metrics` object of the result line. Non-finite values (an
    /// empty sample) are printed as `null`.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, v, unit)| {
                let value = if v.is_finite() {
                    format!("{v:?}")
                } else {
                    "null".to_string()
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut xs, 50.0), 50.0);
        assert_eq!(percentile(&mut xs, 99.0), 99.0);
        assert_eq!(percentile(&mut xs, 100.0), 100.0);
        assert!(percentile(&mut [], 50.0).is_nan());
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn tally_counts_wrong_and_refused_as_failed() {
        let t = Tally::default();
        t.check(true, String::new);
        t.check(false, || "x".into());
        t.refused(|| "shed".into());
        assert_eq!((t.attempted(), t.failed()), (3, 2));
    }
}
