//! Metrics, the printed report, and the determinism anchors.

use std::fmt::Write as _;
use std::path::PathBuf;

/// Which clock a metric is read from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// gpusim's cost model: deterministic.
    Sim,
    /// Host time: noisy, compare medians and quartiles.
    Wall,
    /// A count, byte total or memory figure: no clock.
    None,
}

impl Clock {
    fn label(self) -> &'static str {
        match self {
            Clock::Sim => "sim",
            Clock::Wall => "wall",
            Clock::None => "-",
        }
    }
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub clock: Clock,
}

/// Outcome of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Batches attempted and failed (ΔM mismatch, panic, or lost).
    pub attempted: u64,
    pub failed: u64,
    /// Named failures of whole-run checks (ledger, traced-run equality,
    /// determinism, stationarity).
    pub violations: Vec<String>,
    /// Figures printed for the reader but not part of the result object.
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str, clock: Clock) {
        self.metrics.push(Metric { name: name.to_string(), value, unit, clock });
    }

    pub fn note(&mut self, name: &str, value: impl std::fmt::Display) {
        self.notes.push((name.to_string(), value.to_string()));
    }

    pub fn violate(&mut self, what: impl Into<String>) {
        self.violations.push(what.into());
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    /// Human-readable lines: every metric with its unit and clock.
    pub fn print(&self, workload: &str) {
        for m in &self.metrics {
            println!(
                "{workload:<14} {:<34} {:>18} {:<8} [{}]",
                m.name,
                m.value,
                m.unit,
                m.clock.label()
            );
        }
        for (k, v) in &self.notes {
            println!("{workload:<14} {k:<34} {v}");
        }
        let ratio =
            if self.attempted == 0 { 0.0 } else { self.failed as f64 / self.attempted as f64 };
        println!(
            "{workload:<14} {:<34} {:>18} {:<8} [-]  ({} of {} batches)",
            "failed_batch_ratio", ratio, "ratio", self.failed, self.attempted
        );
        for v in &self.violations {
            println!("{workload:<14} VIOLATION {v}");
        }
    }
}

/// The result object: the last line of standard output. Values use Rust's
/// shortest round-trip form, which keeps every digit of the measurement.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit);
    }
    s.push_str("}}");
    s
}

/// Nearest-rank percentile of `v` (`q` in 0..=1); 0 for an empty slice.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Median (the mean of the middle two for an even count); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Each replayed batch at its best: the smallest sample per key, for keys
/// `0..keys`; a key without samples is left out. A batch is replayed on the
/// same graph, so host load from outside the process must hit every replay
/// of it to move the figure, while a cost the program pays itself shows in
/// every replay.
pub fn best_of(samples: impl IntoIterator<Item = (usize, f64)>, keys: usize) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; keys];
    for (k, v) in samples {
        best[k] = best[k].min(v);
    }
    best.retain(|v| v.is_finite());
    best
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// This process's peak resident set (VmHWM), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Exact values a run must repeat on the same seed: named integer counts
/// and f64 bit patterns of the sim metrics.
pub type Anchors = Vec<(String, u64)>;

/// Compare `anchors` with the ones an earlier run of this same binary
/// recorded for the same workload, seed and work; record them if none
/// exist. Returns the names whose values differ.
pub fn check_anchors(key: &str, anchors: &Anchors) -> Vec<String> {
    let dir = anchor_dir();
    let path = dir.join(format!("{key}-{:016x}.txt", exe_digest()));
    let body: String = anchors.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    match std::fs::read_to_string(&path) {
        Ok(old) => {
            let old: std::collections::BTreeMap<&str, &str> =
                old.lines().filter_map(|l| l.split_once(' ')).collect();
            anchors
                .iter()
                .filter(|(k, v)| old.get(k.as_str()).is_some_and(|o| *o != v.to_string()))
                .map(|(k, _)| k.clone())
                .collect()
        }
        Err(_) => {
            // Best effort: a read-only tree only loses the cross-run check.
            let _ = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, body));
            Vec::new()
        }
    }
}

fn anchor_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"));
    target.join("perfbench-anchors")
}

/// FNV-1a of this executable, so anchors of another build never compare.
fn exe_digest() -> u64 {
    let bytes = std::env::current_exe().and_then(std::fs::read).unwrap_or_default();
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn best_of_keeps_the_smallest_sample_per_key() {
        // Three replays of two batches; the burst hits one replay of each.
        let samples = [(0, 9.0), (1, 2.0), (0, 1.0), (1, 8.0), (0, 1.5), (1, 2.5)];
        assert_eq!(best_of(samples, 2), vec![1.0, 2.0]);
        assert_eq!(best_of([(1, 3.0)], 3), vec![3.0]);
    }

    #[test]
    fn json_has_exact_keys() {
        let m = [Metric { name: "setup_s".into(), value: 0.5, unit: "s", clock: Clock::Wall }];
        assert_eq!(
            result_json(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
