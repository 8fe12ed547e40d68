//! Per-rank virtual clocks.
//!
//! Each simulated process (rank) owns a [`VClock`]. Operations that cost
//! time — computation, message transfers, file-system requests — advance
//! the clock via the cost models in [`crate::cost`]. Synchronizing
//! operations (barriers, collective completions, message receives) move a
//! clock *forward* to an externally determined instant but never backward.

/// Virtual time in seconds since the start of the simulated run.
pub type Seconds = f64;

/// A monotone virtual clock owned by a single simulated rank.
///
/// The clock is deliberately not shared: cross-rank time relationships are
/// established only through explicit synchronization (message timestamps,
/// barrier maxima, server queues), mirroring how distributed wall clocks
/// interact on a real machine.
#[derive(Debug, Clone, Default)]
pub struct VClock {
    now: Seconds,
}

impl VClock {
    /// A clock starting at virtual time zero.
    pub fn new() -> Self {
        Self { now: 0.0 }
    }

    /// A clock starting at the given instant.
    pub fn starting_at(t: Seconds) -> Self {
        assert!(
            t.is_finite() && t >= 0.0,
            "clock must start at finite t >= 0"
        );
        Self { now: t }
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> Seconds {
        self.now
    }

    /// Advance by a non-negative duration and return the new time.
    #[inline]
    pub fn advance(&mut self, dt: Seconds) -> Seconds {
        debug_assert!(
            dt.is_finite() && dt >= 0.0,
            "advance must be finite and >= 0, got {dt}"
        );
        self.now += dt.max(0.0);
        self.now
    }

    /// Move forward to `t` if `t` is later than the current time
    /// (synchronization point). Returns the new time.
    #[inline]
    pub fn sync_to(&mut self, t: Seconds) -> Seconds {
        if t > self.now {
            self.now = t;
        }
        self.now
    }

    /// Reset to zero. Used between repetitions in benchmarks.
    pub fn reset(&mut self) {
        self.now = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_starts_at_zero() {
        assert_eq!(VClock::new().now(), 0.0);
    }

    #[test]
    fn advance_accumulates() {
        let mut c = VClock::new();
        c.advance(1.5);
        c.advance(0.25);
        assert!((c.now() - 1.75).abs() < 1e-12);
    }

    #[test]
    fn zero_advance_is_identity() {
        let mut c = VClock::starting_at(2.0);
        c.advance(0.0);
        assert_eq!(c.now(), 2.0);
    }

    #[test]
    fn sync_to_only_moves_forward() {
        let mut c = VClock::starting_at(5.0);
        c.sync_to(3.0);
        assert_eq!(c.now(), 5.0);
        c.sync_to(7.0);
        assert_eq!(c.now(), 7.0);
    }

    #[test]
    fn starting_at_rejects_nan() {
        assert!(std::panic::catch_unwind(|| VClock::starting_at(f64::NAN)).is_err());
    }
}
