//! What one benchmark run reports: operations attempted and failed,
//! named output checks, and metrics with units. The last line printed
//! is the JSON result object.

pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    pub fn new() -> Self {
        Report {
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Record `ops` operations; when `ok` is false they all count as
    /// failed and the check is named in the output.
    pub fn check(&mut self, ok: bool, ops: u64, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += ops.max(1);
            let msg = what();
            eprintln!("CHECK FAILED: {msg}");
            self.failures.push(msg);
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty() && self.attempted > 0
    }

    /// Print the readable lines, then the JSON result as the last line.
    pub fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("metric {name:<34} {value:>18.6} {unit}");
        }
        for f in &self.failures {
            println!("failed check: {f}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(*value)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Median of a sample (mean of the middle pair for even sizes).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` of a sample; 0 for an empty one.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// FNV-1a, 64-bit: a stable digest of an output string.
pub fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Peak resident set of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    farm_obs::rss::peak_rss_bytes().map_or(0.0, |b| b as f64 / (1024.0 * 1024.0))
}
