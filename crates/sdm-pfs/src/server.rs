//! I/O servers with FIFO virtual-time queues.

use std::sync::{Mutex, MutexGuard, PoisonError};

use sdm_sim::Seconds;

/// One I/O server (a controller+disk group on the Origin2000).
///
/// Requests arriving while the server is busy queue behind the in-flight
/// work: `completion = max(busy_until, arrival) + service`. This is what
/// creates contention when many ranks hit the same stripe set, and the
/// bandwidth collapse the paper observes when per-process buffers shrink.
#[derive(Debug, Default)]
pub struct IoServer {
    busy_until: Mutex<Seconds>,
}

impl IoServer {
    /// A new idle server.
    pub fn new() -> Self {
        Self::default()
    }

    /// Submit a request arriving at `arrival` requiring `service` seconds;
    /// returns its completion time.
    pub fn submit(&self, arrival: Seconds, service: Seconds) -> Seconds {
        debug_assert!(service >= 0.0);
        let mut busy = self.busy();
        let start = busy.max(arrival);
        let done = start + service;
        *busy = done;
        done
    }

    /// Earliest time a new request could start service.
    pub fn busy_until(&self) -> Seconds {
        *self.busy()
    }

    /// Reset the queue to idle (bench repetitions).
    pub fn reset(&self) {
        *self.busy() = 0.0;
    }

    /// The queue's end, locked (a poisoned lock's value is used as it is).
    fn busy(&self) -> MutexGuard<'_, Seconds> {
        self.busy_until
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_server_serves_immediately() {
        let s = IoServer::new();
        assert_eq!(s.submit(5.0, 2.0), 7.0);
    }

    #[test]
    fn requests_queue_fifo() {
        let s = IoServer::new();
        assert_eq!(s.submit(0.0, 3.0), 3.0);
        // Arrives at t=1 while busy until 3: starts at 3.
        assert_eq!(s.submit(1.0, 2.0), 5.0);
        // Arrives after the queue drains: starts immediately.
        assert_eq!(s.submit(10.0, 1.0), 11.0);
    }

    #[test]
    fn contention_from_many_clients() {
        let s = IoServer::new();
        // Four clients all arrive at t=0 with 1s of work: total 4s.
        let mut last = 0.0f64;
        for _ in 0..4 {
            last = last.max(s.submit(0.0, 1.0));
        }
        assert_eq!(last, 4.0);
    }

    #[test]
    fn reset_clears_queue() {
        let s = IoServer::new();
        s.submit(0.0, 100.0);
        s.reset();
        assert_eq!(s.submit(0.0, 1.0), 1.0);
    }
}
