//! SPMD world launch and the per-rank communicator.

use std::sync::Arc;

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex};
use sdm_sim::stats::Counters;
use sdm_sim::{MachineConfig, Seconds, VClock};

use crate::envelope::{tags, Envelope, Tag};
use crate::error::{MpiError, MpiResult};
use crate::pod::{as_bytes, vec_from_bytes, Pod};

/// Sense-reversing barrier that also computes the max of a value carried
/// by each participant (used to synchronize virtual clocks).
#[derive(Debug)]
struct MaxBarrier {
    state: Mutex<BarrierState>,
    cv: Condvar,
}

#[derive(Debug)]
struct BarrierState {
    size: usize,
    count: usize,
    generation: u64,
    acc: f64,
    /// Results of the two most recent generations (gen % 2 indexes).
    results: [f64; 2],
}

impl MaxBarrier {
    fn new(size: usize) -> Self {
        Self {
            state: Mutex::new(BarrierState {
                size,
                count: 0,
                generation: 0,
                acc: f64::NEG_INFINITY,
                results: [0.0; 2],
            }),
            cv: Condvar::new(),
        }
    }

    /// Enter with value `x`; returns the max over all participants of
    /// this generation.
    fn rendezvous_max(&self, x: f64) -> f64 {
        let mut s = self.state.lock();
        let gen = s.generation;
        s.acc = s.acc.max(x);
        s.count += 1;
        if s.count == s.size {
            let result = s.acc;
            s.results[(gen % 2) as usize] = result;
            s.count = 0;
            s.acc = f64::NEG_INFINITY;
            s.generation += 1;
            self.cv.notify_all();
            result
        } else {
            while s.generation == gen {
                self.cv.wait(&mut s);
            }
            s.results[(gen % 2) as usize]
        }
    }
}

/// State shared by every rank of a world.
#[derive(Debug)]
pub(crate) struct Shared {
    pub(crate) config: Arc<MachineConfig>,
    barrier: MaxBarrier,
    counters: Counters,
}

/// SPMD launcher.
///
/// ```
/// use sdm_mpi::World;
/// use sdm_sim::MachineConfig;
///
/// let sums = World::run(4, MachineConfig::test_tiny(), |comm| {
///     let me = comm.rank() as u64;
///     comm.allreduce_sum(&[me]).unwrap()[0]
/// });
/// assert_eq!(sums, vec![6, 6, 6, 6]);
/// ```
pub struct World;

impl World {
    /// Run `f` on `n` ranks and return each rank's result, indexed by rank.
    ///
    /// Panics in any rank propagate after all threads join.
    pub fn run<T, F>(n: usize, config: MachineConfig, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Sync,
    {
        assert!(n > 0, "world needs at least one rank");
        let shared = Arc::new(Shared {
            config: Arc::new(config),
            barrier: MaxBarrier::new(n),
            counters: Counters::new(),
        });
        let mut txs = Vec::with_capacity(n);
        let mut rxs = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded::<Envelope>();
            txs.push(tx);
            rxs.push(rx);
        }
        let f = &f;
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n);
            for (rank, rx) in rxs.into_iter().enumerate() {
                let txs = txs.clone();
                let shared = Arc::clone(&shared);
                handles.push(scope.spawn(move || {
                    let mut comm = Comm {
                        rank,
                        size: n,
                        clock: VClock::new(),
                        rx,
                        txs,
                        pending: Vec::new(),
                        finished: vec![false; n],
                        shared,
                    };
                    f(&mut comm)
                }));
            }
            // Drop our copies of the senders so rank recv() can observe
            // disconnection once all peers are done.
            drop(txs);
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        })
    }
}

/// The per-rank communicator: identity, virtual clock, mailbox, and the
/// point-to-point layer. Collectives live in [`crate::collective`], file
/// I/O in [`crate::io`].
pub struct Comm {
    rank: usize,
    size: usize,
    clock: VClock,
    rx: Receiver<Envelope>,
    txs: Vec<Sender<Envelope>>,
    /// Arrived-but-unmatched messages, in arrival order.
    pending: Vec<Envelope>,
    /// Peers whose communicator has been dropped (FIN received).
    finished: Vec<bool>,
    shared: Arc<Shared>,
}

impl Drop for Comm {
    fn drop(&mut self) {
        // Tell every peer this rank is gone, so their blocking receives
        // from us error out instead of waiting forever. Failures are
        // fine: the peer may already be gone itself.
        for dst in 0..self.size {
            if dst != self.rank {
                let _ = self.txs[dst].send(Envelope {
                    src: self.rank,
                    tag: tags::FIN,
                    depart: self.clock.now(),
                    payload: Vec::new(),
                });
            }
        }
    }
}

impl Comm {
    /// This rank's id in `[0, size)`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> Seconds {
        self.clock.now()
    }

    /// Charge local computation time.
    #[inline]
    pub fn compute(&mut self, dt: Seconds) {
        self.clock.advance(dt);
    }

    /// Move the clock forward to `t` (e.g. after a PFS operation).
    #[inline]
    pub fn sync_to(&mut self, t: Seconds) {
        self.clock.sync_to(t);
    }

    /// Machine configuration in force.
    pub fn config(&self) -> &MachineConfig {
        &self.shared.config
    }

    /// World-shared counters.
    pub fn counters(&self) -> &Counters {
        &self.shared.counters
    }

    fn check_rank(&self, r: usize) -> MpiResult<()> {
        if r >= self.size {
            return Err(MpiError::InvalidRank {
                rank: r,
                size: self.size,
            });
        }
        Ok(())
    }

    /// Eager byte send. The sender is busy for the injection cost; the
    /// message's wire time is charged on the receive side.
    pub fn send_bytes(&mut self, dst: usize, tag: Tag, payload: &[u8]) -> MpiResult<()> {
        self.send_owned(dst, tag, payload.to_vec())
    }

    /// [`Comm::send_bytes`] for a payload the caller is done with: the
    /// buffer itself travels in the envelope instead of a copy of it.
    /// Charged exactly like `send_bytes`.
    pub fn send_owned(&mut self, dst: usize, tag: Tag, payload: Vec<u8>) -> MpiResult<()> {
        self.check_rank(dst)?;
        let depart = self.clock.now();
        self.clock
            .advance(self.shared.config.network.send_busy(payload.len()));
        self.shared
            .counters
            .add("mpi.send_bytes", payload.len() as u64);
        self.shared.counters.incr("mpi.sends");
        self.txs[dst]
            .send(Envelope {
                src: self.rank,
                tag,
                depart,
                payload,
            })
            .map_err(|_| MpiError::Disconnected)
    }

    /// Typed send of a Pod slice.
    pub fn send<T: Pod>(&mut self, dst: usize, tag: Tag, data: &[T]) -> MpiResult<()> {
        self.send_bytes(dst, tag, as_bytes(data))
    }

    /// Take the first pending or incoming envelope matching `(src, tag)`.
    fn take_matching(&mut self, src: usize, tag: Tag) -> MpiResult<Envelope> {
        if let Some(pos) = self
            .pending
            .iter()
            .position(|e| e.src == src && e.tag == tag)
        {
            return Ok(self.pending.remove(pos));
        }
        loop {
            // A peer that has dropped its communicator can never send the
            // message we are waiting for.
            if self.finished[src] {
                return Err(MpiError::Disconnected);
            }
            let env = self.rx.recv().map_err(|_| MpiError::Disconnected)?;
            if env.tag == tags::FIN {
                self.finished[env.src] = true;
                continue;
            }
            if env.src == src && env.tag == tag {
                return Ok(env);
            }
            self.pending.push(env);
        }
    }

    /// Blocking byte receive from a specific source and tag. Advances the
    /// clock to the message completion time.
    pub fn recv_bytes(&mut self, src: usize, tag: Tag) -> MpiResult<Vec<u8>> {
        self.check_rank(src)?;
        let env = self.take_matching(src, tag)?;
        let net = &self.shared.config.network;
        let arrival = env.depart + net.wire_time(env.payload.len());
        self.clock.sync_to(arrival);
        self.clock.advance(net.recv_overhead());
        self.shared
            .counters
            .add("mpi.recv_bytes", env.payload.len() as u64);
        self.shared.counters.incr("mpi.recvs");
        Ok(env.payload)
    }

    /// Typed receive into a fresh vector.
    pub fn recv_vec<T: Pod>(&mut self, src: usize, tag: Tag) -> MpiResult<Vec<T>> {
        let bytes = self.recv_bytes(src, tag)?;
        if bytes.len() % std::mem::size_of::<T>() != 0 {
            return Err(MpiError::LengthMismatch {
                expected: bytes.len() / std::mem::size_of::<T>() * std::mem::size_of::<T>(),
                got: bytes.len(),
            });
        }
        Ok(vec_from_bytes(&bytes))
    }

    /// Barrier: all ranks wait; every clock jumps to the max entry time
    /// plus one synchronization latency.
    pub fn barrier(&mut self) {
        let done = self.barrier_begin(self.clock.now());
        self.clock.sync_to(done);
    }

    /// Enter a barrier and return when it completes, without waiting for
    /// that: the caller passes the result to [`Comm::sync_to`] when it
    /// has to know that every rank arrived. This rank arrives at `at`
    /// (its clock, or later: when work it has handed off completes). All
    /// ranks still meet on the host, so what they did before is visible
    /// to all of them afterwards.
    pub fn barrier_begin(&mut self, at: Seconds) -> Seconds {
        let arrival = at.max(self.clock.now());
        let t_max = self.shared.barrier.rendezvous_max(arrival);
        self.shared.counters.incr("mpi.barriers");
        t_max + self.shared.config.network.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> MachineConfig {
        MachineConfig::test_tiny()
    }

    #[test]
    fn world_returns_results_by_rank() {
        let out = World::run(5, tiny(), |c| c.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40]);
    }

    #[test]
    fn ping_pong_round_trips_data() {
        let out = World::run(2, tiny(), |c| {
            if c.rank() == 0 {
                c.send(1, 7, &[1.5f64, 2.5]).unwrap();
                c.recv_vec::<f64>(1, 8).unwrap()
            } else {
                let v = c.recv_vec::<f64>(0, 7).unwrap();
                let doubled: Vec<f64> = v.iter().map(|x| x * 2.0).collect();
                c.send(0, 8, &doubled).unwrap();
                doubled
            }
        });
        assert_eq!(out[0], vec![3.0, 5.0]);
    }

    #[test]
    fn out_of_order_tags_match_correctly() {
        let out = World::run(2, tiny(), |c| {
            if c.rank() == 0 {
                c.send(1, 1, &[1u32]).unwrap();
                c.send(1, 2, &[2u32]).unwrap();
                0
            } else {
                // Receive tag 2 first even though tag 1 arrived first.
                let b = c.recv_vec::<u32>(0, 2).unwrap();
                let a = c.recv_vec::<u32>(0, 1).unwrap();
                (b[0] * 10 + a[0]) as usize
            }
        });
        assert_eq!(out[1], 21);
    }

    #[test]
    fn clock_advances_with_message_size() {
        let cfg = MachineConfig::origin2000();
        let out = World::run(2, cfg, |c| {
            if c.rank() == 0 {
                c.send(1, 1, &vec![0u8; 1 << 20]).unwrap();
                c.now()
            } else {
                c.recv_bytes(0, 1).unwrap();
                c.now()
            }
        });
        assert!(
            out[1] > out[0],
            "receiver {}'s clock should trail sender {}",
            out[1],
            out[0]
        );
        assert!(out[1] > 1e-4, "1MB transfer should cost real virtual time");
    }

    #[test]
    fn barrier_synchronizes_clocks() {
        let out = World::run(4, tiny(), |c| {
            c.compute(c.rank() as f64); // rank r is r seconds ahead
            c.barrier();
            c.now()
        });
        let expected = out[3];
        for t in &out {
            assert!(
                (t - expected).abs() < 1e-9,
                "all clocks equal after barrier: {out:?}"
            );
        }
        assert!(expected >= 3.0);
    }

    #[test]
    fn invalid_rank_is_error() {
        World::run(2, tiny(), |c| {
            let err = c.send(5, 0, &[0u8]).unwrap_err();
            assert!(matches!(err, MpiError::InvalidRank { rank: 5, size: 2 }));
        });
    }

    #[test]
    fn disconnection_surfaces_as_error() {
        let out = World::run(2, tiny(), |c| {
            if c.rank() == 0 {
                // Rank 1 exits immediately; this recv must error, not hang.
                matches!(c.recv_bytes(1, 9), Err(MpiError::Disconnected))
            } else {
                true
            }
        });
        assert!(out[0]);
    }

    #[test]
    fn typed_length_mismatch_detected() {
        World::run(2, tiny(), |c| {
            if c.rank() == 0 {
                c.send_bytes(1, 3, &[1, 2, 3]).unwrap();
            } else {
                let err = c.recv_vec::<u32>(0, 3).unwrap_err();
                assert!(matches!(err, MpiError::LengthMismatch { .. }));
            }
        });
    }

    #[test]
    fn self_send_recv_works() {
        let out = World::run(1, tiny(), |c| {
            c.send(0, 1, &[42u64]).unwrap();
            c.recv_vec::<u64>(0, 1).unwrap()[0]
        });
        assert_eq!(out[0], 42);
    }

    #[test]
    fn counters_accumulate_world_traffic() {
        let cfg = tiny();
        World::run(2, cfg, |c| {
            if c.rank() == 0 {
                c.send(1, 1, &[0u8; 100]).unwrap();
            } else {
                c.recv_bytes(0, 1).unwrap();
            }
            c.barrier();
            if c.rank() == 0 {
                assert_eq!(c.counters().get("mpi.send_bytes"), 100);
                assert_eq!(c.counters().get("mpi.recv_bytes"), 100);
            }
        });
    }

    #[test]
    fn repeated_barriers_do_not_deadlock_or_cross_talk() {
        let out = World::run(3, tiny(), |c| {
            let mut acc = 0.0;
            for i in 0..50 {
                if c.rank() == i % 3 {
                    c.compute(0.001);
                }
                c.barrier();
                acc = c.now();
            }
            acc
        });
        assert!((out[0] - out[1]).abs() < 1e-9 && (out[1] - out[2]).abs() < 1e-9);
    }
}
