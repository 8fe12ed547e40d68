//! Fault injection for resilience tests.
//!
//! `sdm-core` must fall back gracefully when a history file is missing,
//! unreadable, or truncated; these knobs let tests create those worlds.

use std::collections::HashSet;

/// Declarative fault plan installed on a [`crate::Pfs`].
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// Opens of these exact file names fail with `PfsError::OpenFailed`.
    fail_open: HashSet<String>,
    /// Reads of these files are truncated to this many bytes from offset 0
    /// (simulates a torn/partial history file). Built before the plan is
    /// installed and never changed after, so it needs no lock.
    truncate_read: Vec<(String, u64)>,
    /// Files whose first byte is flipped on read (checksum tests).
    corrupt_first_byte: HashSet<String>,
}

impl FaultPlan {
    /// A plan with no faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// Fail every open of `name`.
    pub fn fail_open(mut self, name: impl Into<String>) -> Self {
        self.fail_open.insert(name.into());
        self
    }

    /// Make `name` appear truncated to `len` bytes.
    pub fn truncate(mut self, name: impl Into<String>, len: u64) -> Self {
        self.truncate_read.push((name.into(), len));
        self
    }

    /// Flip the first byte of `name` on every read that covers offset 0.
    pub fn corrupt_first_byte(mut self, name: impl Into<String>) -> Self {
        self.corrupt_first_byte.insert(name.into());
        self
    }

    /// Should an open of `name` fail?
    pub fn open_fails(&self, name: &str) -> bool {
        self.fail_open.contains(name)
    }

    /// Effective visible length of `name` given a real length.
    pub fn visible_len(&self, name: &str, real: u64) -> u64 {
        self.truncate_read
            .iter()
            .filter(|(n, _)| n == name)
            .map(|&(_, l)| l)
            .min()
            .map_or(real, |l| l.min(real))
    }

    /// Should data read from `name` at `offset` be corrupted?
    pub fn corrupts(&self, name: &str, offset: u64) -> bool {
        offset == 0 && self.corrupt_first_byte.contains(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_benign() {
        let p = FaultPlan::none();
        assert!(!p.open_fails("x"));
        assert_eq!(p.visible_len("x", 100), 100);
        assert!(!p.corrupts("x", 0));
    }

    #[test]
    fn open_failure_is_name_specific() {
        let p = FaultPlan::none().fail_open("bad.dat");
        assert!(p.open_fails("bad.dat"));
        assert!(!p.open_fails("good.dat"));
    }

    #[test]
    fn truncation_caps_length() {
        let p = FaultPlan::none().truncate("t.dat", 10);
        assert_eq!(p.visible_len("t.dat", 100), 10);
        assert_eq!(p.visible_len("t.dat", 5), 5);
        assert_eq!(p.visible_len("other", 100), 100);
    }

    #[test]
    fn corruption_only_at_offset_zero() {
        let p = FaultPlan::none().corrupt_first_byte("c.dat");
        assert!(p.corrupts("c.dat", 0));
        assert!(!p.corrupts("c.dat", 1));
    }
}
