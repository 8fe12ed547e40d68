//! Exclusive prefix scan.
//!
//! SDM uses exclusive scans to turn per-rank byte counts into file
//! offsets when appending datasets under Level 2/3 organization, and to
//! place each rank's partitioned index block in the history file.

use crate::collective::NumPod;
use crate::comm::Comm;
use crate::envelope::tags;
use crate::error::MpiResult;
use crate::pod::Pod;

impl Comm {
    /// Exclusive scan with combiner `f` and identity `id`: rank `r`
    /// returns `f(x_0, ..., x_{r-1})` elementwise (rank 0 returns `id`s).
    /// Linear chain — offsets are tiny, latency is irrelevant.
    pub fn exscan_with<T: Pod>(
        &mut self,
        local: &[T],
        id: T,
        f: impl Fn(T, T) -> T,
    ) -> MpiResult<Vec<T>> {
        let rank = self.rank();
        let size = self.size();
        let prefix: Vec<T> = if rank == 0 {
            vec![id; local.len()]
        } else {
            self.recv_vec(rank - 1, tags::SCAN)?
        };
        if rank + 1 < size {
            let mut next = prefix.clone();
            for (n, &l) in next.iter_mut().zip(local) {
                *n = f(*n, l);
            }
            self.send(rank + 1, tags::SCAN, &next)?;
        }
        self.counters().incr("mpi.scans");
        Ok(prefix)
    }

    /// Exclusive prefix sum.
    pub fn exscan_sum<T: NumPod>(&mut self, local: &[T]) -> MpiResult<Vec<T>> {
        self.exscan_with(local, T::zero(), |a, b| a.add(b))
    }
}

#[cfg(test)]
mod tests {
    use crate::comm::World;
    use sdm_sim::MachineConfig;

    #[test]
    fn exscan_sum_offsets() {
        let out = World::run(4, MachineConfig::test_tiny(), |c| {
            // Rank r contributes r+1 "bytes".
            c.exscan_sum(&[(c.rank() + 1) as u64]).unwrap()[0]
        });
        assert_eq!(out, vec![0, 1, 3, 6]);
    }

    #[test]
    fn exscan_elementwise() {
        let out = World::run(3, MachineConfig::test_tiny(), |c| {
            c.exscan_sum(&[c.rank() as u32, 10]).unwrap()
        });
        assert_eq!(out[0], vec![0, 0]);
        assert_eq!(out[1], vec![0, 10]);
        assert_eq!(out[2], vec![1, 20]);
    }

    #[test]
    fn exscan_single_rank_is_identity() {
        let out = World::run(1, MachineConfig::test_tiny(), |c| {
            c.exscan_sum(&[9u8]).unwrap()
        });
        assert_eq!(out[0], vec![0]);
    }

    #[test]
    fn exscan_custom_op_max() {
        let vals = [3u64, 1, 4, 1, 5];
        let out = World::run(5, MachineConfig::test_tiny(), move |c| {
            c.exscan_with(&[vals[c.rank()]], 0u64, |a, b| a.max(b))
                .unwrap()[0]
        });
        assert_eq!(out, vec![0, 3, 3, 4, 4]);
    }
}
