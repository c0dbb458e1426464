//! Sample statistics and the result line.

use std::fmt::Write as _;

/// Median of the samples (0 for none).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Nearest-rank quantile `q` in `[0, 1]` (0 for no samples). With
/// fewer than `1 / (1 - q)` samples the high quantiles are the maximum.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Peak resident set of a process in MiB, from `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The host's aggregate CPU times (`/proc/stat` line `cpu`), in ticks.
pub fn cpu_ticks() -> Option<Vec<u64>> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    line.split_whitespace().map(|v| v.parse().ok()).collect()
}

/// The share of CPU time the hypervisor took from this host between two
/// [`cpu_ticks`] readings (the `steal` column).
pub fn steal_frac(before: &[u64], after: &[u64]) -> f64 {
    let delta: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    ratio(
        delta.get(7).copied().unwrap_or(0) as f64,
        delta.iter().sum::<u64>() as f64,
    )
}

/// One run's outcome: the operation counts, the checks, and the named
/// metrics in the order they were recorded.
#[derive(Default)]
pub struct RunReport {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that failed, one line each.
    pub check_failures: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    /// Metrics printed with the run's metadata but not in the result
    /// line: too noisy on a shared host to carry a regression bound.
    reported: Vec<(String, f64, &'static str)>,
}

impl RunReport {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn reported(&mut self, name: &str, value: f64, unit: &'static str) {
        self.reported.push((name.to_string(), value, unit));
    }

    /// Records a failed output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("check failed: {msg}");
            self.check_failures.push(msg);
        }
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.check_failures.is_empty(),
            self.attempted,
            self.failed,
            metrics_json(&self.metrics),
        )
    }

    /// Failed ÷ attempted operations.
    pub fn failed_frac(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }

    /// The reported-only metrics plus `failed_frac`, as one JSON object.
    pub fn reported_json(&self) -> String {
        let mut all = self.reported.clone();
        all.push(("failed_frac".to_string(), self.failed_frac(), "ratio"));
        metrics_json(&all)
    }
}

fn metrics_json(metrics: &[(String, f64, &'static str)]) -> String {
    let mut out = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push('}');
    out
}

/// A JSON string literal (for the metadata line).
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A seeded splitmix64 stream: the benchmark's only source of input
/// randomness.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&xs), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.99), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut r = RunReport {
            attempted: 3,
            ..RunReport::default()
        };
        r.metric("x", 1.5, "s");
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"x\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }
}
