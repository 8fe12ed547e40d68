//! The reference kernel the host times are divided by.
//!
//! On a shared host the same repetition takes up to twice as long for
//! minutes on end while other tenants use the caches and the memory. The
//! workloads here mostly copy arrays, and they slow down together with a
//! loop that copies arrays (correlation 0.6 to 0.8 over 300 repetitions),
//! not with one that only computes (-0.2 to 0.3): README, "Steadiness". So
//! this kernel runs between the timed repetitions, and a host time is
//! reported as a multiple of the kernel's time around it: what the machine
//! lost to its neighbours cancels for the most part; what the code under
//! test gained or lost does not, because none of it runs here.

use std::sync::Mutex;
use std::time::Instant;

/// As many threads as the workloads have ranks on this sandbox, each
/// copying between two buffers of its own.
const THREADS: usize = 2;
const WORDS: usize = 2 << 20; // 16 MiB of u64
/// Enough for 30 ms, so that starting the threads is below 1 % of it.
const COPIES: usize = 20;

pub struct Reference {
    buffers: Vec<(Vec<u64>, Mutex<Vec<u64>>)>,
}

impl Reference {
    /// Allocates and touches the buffers (64 MiB in all).
    pub fn new() -> Reference {
        let buffers = (0..THREADS)
            .map(|_| ((0..WORDS as u64).collect(), Mutex::new(vec![0; WORDS])))
            .collect();
        Reference { buffers }
    }

    /// Wall seconds of one run of the kernel.
    pub fn run(&self) -> f64 {
        let start = Instant::now();
        std::thread::scope(|scope| {
            for (src, dst) in &self.buffers {
                scope.spawn(move || {
                    let mut dst = dst.lock().expect("no thread panics holding the buffer");
                    for _ in 0..COPIES {
                        dst.copy_from_slice(src);
                        std::hint::black_box(&mut *dst);
                    }
                });
            }
        });
        start.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_copies_and_takes_time() {
        let r = Reference::new();
        assert!(r.run() > 0.0);
        for (src, dst) in &r.buffers {
            assert_eq!(*src, *dst.lock().unwrap());
        }
    }
}
