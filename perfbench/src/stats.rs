//! Order statistics and the measured-metric record the workloads return.

use std::time::{Duration, Instant};

/// Fewest measured repetitions, however short the window.
const MIN_REPS: usize = 3;

/// One reported metric: a name from `BENCHMARK.json`, its value and unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run returns to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Every correctness check made, with its result; a failed check also
    /// adds its operations to `failed`.
    pub checks: Vec<(String, bool)>,
    pub attempted: u64,
    pub failed: u64,
    /// Input size facts for the provenance line (events, requests, ...).
    pub inputs: Vec<(&'static str, u64)>,
    /// Values printed in the summary but not reported as metrics.
    pub notes: Vec<Metric>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, name: &str, value: f64, unit: &'static str) {
        self.notes.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    /// Records a check; on failure `ops` operations count as failed.
    pub fn check(&mut self, what: impl Into<String>, ok: bool, ops: u64) {
        if !ok {
            self.failed += ops;
        }
        self.checks.push((what.into(), ok));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }
}

/// The `q`-quantile (0..=1) of `values` by the nearest-rank rule.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Repeats `op` until `seconds` have passed and at least `MIN_REPS`
/// repetitions ran.
pub fn repeat(seconds: f64, mut op: impl FnMut(usize)) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut rep = 0;
    while rep < MIN_REPS || Instant::now() < deadline {
        op(rep);
        rep += 1;
    }
}

/// Seconds elapsed since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Runs `op` once and returns its result and wall seconds.
pub fn timed<T>(op: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = std::hint::black_box(op());
    (value, secs(start))
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A 64-bit mix (splitmix64) for deriving sub-seeds from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
