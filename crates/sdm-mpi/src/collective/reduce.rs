//! Binomial-tree reduce and allreduce.

use crate::collective::{combine, NumPod};
use crate::comm::Comm;
use crate::envelope::tags;
use crate::error::MpiResult;
use crate::pod::Pod;

impl Comm {
    /// Reduce `local` to `root` with the elementwise combiner `f`.
    /// Returns `Some(result)` at the root, `None` elsewhere.
    pub fn reduce_with<T: Pod>(
        &mut self,
        root: usize,
        local: &[T],
        f: impl Fn(T, T) -> T,
    ) -> MpiResult<Option<Vec<T>>> {
        let size = self.size();
        let rank = self.rank();
        let mut acc = local.to_vec();
        if size == 1 {
            return Ok(Some(acc));
        }
        let vrank = (rank + size - root) % size;
        let mut mask = 1usize;
        while mask < size {
            if vrank & mask == 0 {
                let child_v = vrank | mask;
                if child_v < size {
                    let child = (child_v + root) % size;
                    let theirs: Vec<T> = self.recv_vec(child, tags::REDUCE)?;
                    combine(&mut acc, &theirs, &f);
                }
            } else {
                let parent = ((vrank & !mask) + root) % size;
                self.send(parent, tags::REDUCE, &acc)?;
                break;
            }
            mask <<= 1;
        }
        self.counters().incr("mpi.reduces");
        Ok(if rank == root { Some(acc) } else { None })
    }

    /// Allreduce with an arbitrary combiner: reduce to rank 0, broadcast.
    pub fn allreduce_with<T: Pod>(
        &mut self,
        local: &[T],
        f: impl Fn(T, T) -> T,
    ) -> MpiResult<Vec<T>> {
        let reduced = self.reduce_with(0, local, f)?;
        let root_buf = reduced.unwrap_or_default();
        self.bcast(0, &root_buf)
    }

    /// Elementwise sum across all ranks.
    pub fn allreduce_sum<T: NumPod>(&mut self, local: &[T]) -> MpiResult<Vec<T>> {
        self.allreduce_with(local, |a, b| a.add(b))
    }

    /// Elementwise max across all ranks.
    pub fn allreduce_max<T: NumPod>(&mut self, local: &[T]) -> MpiResult<Vec<T>> {
        self.allreduce_with(local, |a, b| if b > a { b } else { a })
    }

    /// Elementwise min across all ranks.
    pub fn allreduce_min<T: NumPod>(&mut self, local: &[T]) -> MpiResult<Vec<T>> {
        self.allreduce_with(local, |a, b| if b < a { b } else { a })
    }
}

#[cfg(test)]
mod tests {
    use crate::comm::World;
    use sdm_sim::MachineConfig;

    #[test]
    fn reduce_sum_to_root() {
        for n in [1, 2, 5, 8] {
            let out = World::run(n, MachineConfig::test_tiny(), |c| {
                c.reduce_with(0, &[c.rank() as u64, 1u64], |a, b| a + b)
                    .unwrap()
            });
            let expect: u64 = (0..n as u64).sum();
            assert_eq!(out[0], Some(vec![expect, n as u64]), "n={n}");
            for o in &out[1..] {
                assert_eq!(*o, None);
            }
        }
    }

    #[test]
    fn reduce_to_nonzero_root() {
        let out = World::run(6, MachineConfig::test_tiny(), |c| {
            c.reduce_with(4, &[c.rank() as i64], |a, b| a.max(b))
                .unwrap()
        });
        assert_eq!(out[4], Some(vec![5]));
        assert!(out.iter().enumerate().all(|(r, v)| (r == 4) == v.is_some()));
    }

    #[test]
    fn allreduce_sum_everywhere() {
        let out = World::run(7, MachineConfig::test_tiny(), |c| {
            c.allreduce_sum(&[1u32, c.rank() as u32]).unwrap()
        });
        for v in out {
            assert_eq!(v, vec![7, 21]);
        }
    }

    #[test]
    fn allreduce_min_max_f64() {
        let out = World::run(4, MachineConfig::test_tiny(), |c| {
            let x = c.rank() as f64 * 1.5 - 2.0;
            (
                c.allreduce_min(&[x]).unwrap()[0],
                c.allreduce_max(&[x]).unwrap()[0],
            )
        });
        for (lo, hi) in out {
            assert_eq!(lo, -2.0);
            assert_eq!(hi, 2.5);
        }
    }

    #[test]
    fn single_rank_identity() {
        let out = World::run(1, MachineConfig::test_tiny(), |c| {
            c.allreduce_sum(&[5u8]).unwrap()
        });
        assert_eq!(out[0], vec![5]);
    }
}
