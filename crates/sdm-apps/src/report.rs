//! Phase-time reports shared by the templates and figure harnesses.

use std::collections::BTreeMap;

/// Named phase durations (virtual seconds, max over ranks) plus counters.
#[derive(Debug, Clone, Default)]
pub struct PhaseReport {
    phases: BTreeMap<String, f64>,
    /// Bytes moved per phase (for bandwidth rows).
    bytes: BTreeMap<String, u64>,
}

impl PhaseReport {
    /// Empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a phase duration (adds to any existing total).
    pub fn add(&mut self, phase: &str, seconds: f64) {
        *self.phases.entry(phase.to_string()).or_insert(0.0) += seconds;
    }

    /// Record bytes moved in a phase.
    pub fn add_bytes(&mut self, phase: &str, bytes: u64) {
        *self.bytes.entry(phase.to_string()).or_insert(0) += bytes;
    }

    /// Duration of a phase (0 if absent).
    pub fn get(&self, phase: &str) -> f64 {
        self.phases.get(phase).copied().unwrap_or(0.0)
    }

    /// Bytes of a phase.
    pub fn get_bytes(&self, phase: &str) -> u64 {
        self.bytes.get(phase).copied().unwrap_or(0)
    }

    /// Bandwidth of a phase in MB/s (0 if no time recorded).
    pub fn bandwidth_mbs(&self, phase: &str) -> f64 {
        let t = self.get(phase);
        if t <= 0.0 {
            0.0
        } else {
            self.get_bytes(phase) as f64 / 1e6 / t
        }
    }

    /// Sum of all phase durations.
    pub fn total(&self) -> f64 {
        self.phases.values().sum()
    }

    /// All phases, sorted by name.
    pub fn phases(&self) -> impl Iterator<Item = (&str, f64)> {
        self.phases.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Reduce per-rank reports into one: per-phase max duration (the
    /// collective finishes when the slowest rank does) and max bytes
    /// (bytes are recorded as global totals on every rank).
    pub fn reduce_max(reports: &[PhaseReport]) -> PhaseReport {
        let mut out = PhaseReport::new();
        for r in reports {
            for (k, &v) in &r.phases {
                let e = out.phases.entry(k.clone()).or_insert(0.0);
                *e = e.max(v);
            }
            for (k, &v) in &r.bytes {
                let e = out.bytes.entry(k.clone()).or_insert(0);
                *e = (*e).max(v);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_get() {
        let mut r = PhaseReport::new();
        r.add("import", 2.0);
        r.add("import", 1.0);
        r.add_bytes("import", 100_000_000);
        assert_eq!(r.get("import"), 3.0);
        assert!((r.bandwidth_mbs("import") - 100.0 / 3.0).abs() < 1e-9);
        assert_eq!(r.get("missing"), 0.0);
        assert_eq!(r.total(), 3.0);
    }

    #[test]
    fn reduce_takes_max() {
        let mut a = PhaseReport::new();
        a.add("x", 1.0);
        a.add_bytes("x", 10);
        let mut b = PhaseReport::new();
        b.add("x", 3.0);
        b.add("y", 0.5);
        let m = PhaseReport::reduce_max(&[a, b]);
        assert_eq!(m.get("x"), 3.0);
        assert_eq!(m.get("y"), 0.5);
        assert_eq!(m.get_bytes("x"), 10);
    }

    #[test]
    fn zero_time_bandwidth_is_zero() {
        let mut r = PhaseReport::new();
        r.add_bytes("w", 5);
        assert_eq!(r.bandwidth_mbs("w"), 0.0);
    }
}
