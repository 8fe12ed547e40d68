//! Shared counters.
//!
//! Rank threads increment counters concurrently (bytes written, messages
//! sent, history hits...); harnesses snapshot them to build report rows.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A registry of named monotonically increasing counters, shareable across
/// rank threads.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    inner: Arc<RwLock<BTreeMap<String, Arc<AtomicU64>>>>,
}

impl Counters {
    /// New empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The registry, read-locked (a poisoned lock's map is used as it is).
    fn map(&self) -> RwLockReadGuard<'_, BTreeMap<String, Arc<AtomicU64>>> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The registry, write-locked.
    fn map_mut(&self) -> RwLockWriteGuard<'_, BTreeMap<String, Arc<AtomicU64>>> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    fn handle(&self, name: &str) -> Arc<AtomicU64> {
        if let Some(c) = self.map().get(name) {
            return Arc::clone(c);
        }
        let mut w = self.map_mut();
        Arc::clone(
            w.entry(name.to_string())
                .or_insert_with(|| Arc::new(AtomicU64::new(0))),
        )
    }

    /// Add `n` to counter `name`, creating it at zero if absent.
    pub fn add(&self, name: &str, n: u64) {
        self.handle(name).fetch_add(n, Ordering::Relaxed);
    }

    /// Increment counter `name` by one.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Current value of `name` (zero if never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.map()
            .get(name)
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Snapshot of all counters, sorted by name.
    pub fn snapshot(&self) -> BTreeMap<String, u64> {
        self.map()
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect()
    }

    /// Reset every counter to zero (bench repetitions).
    pub fn reset(&self) {
        for c in self.map().values() {
            c.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counters_accumulate() {
        let c = Counters::new();
        c.add("bytes", 10);
        c.add("bytes", 5);
        c.incr("msgs");
        assert_eq!(c.get("bytes"), 15);
        assert_eq!(c.get("msgs"), 1);
        assert_eq!(c.get("missing"), 0);
    }

    #[test]
    fn counters_are_thread_safe() {
        let c = Counters::new();
        thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.incr("hits");
                    }
                });
            }
        });
        assert_eq!(c.get("hits"), 8000);
    }

    #[test]
    fn snapshot_and_reset() {
        let c = Counters::new();
        c.add("a", 1);
        c.add("b", 2);
        let snap = c.snapshot();
        assert_eq!(snap["a"], 1);
        assert_eq!(snap["b"], 2);
        c.reset();
        assert_eq!(c.get("a"), 0);
        assert_eq!(c.get("b"), 0);
    }
}
