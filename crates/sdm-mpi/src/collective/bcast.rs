//! Binomial-tree broadcast.

use crate::comm::Comm;
use crate::envelope::tags;
use crate::error::MpiResult;
use crate::pod::{as_bytes, vec_from_bytes, Pod};

impl Comm {
    /// Broadcast bytes from `root`. Only the root's `data` is read; every
    /// rank returns the broadcast payload.
    pub fn bcast_bytes(&mut self, root: usize, data: &[u8]) -> MpiResult<Vec<u8>> {
        let size = self.size();
        let rank = self.rank();
        if size == 1 {
            return Ok(data.to_vec());
        }
        let vrank = (rank + size - root) % size;
        // Receive phase: the lowest set bit of a non-root names its
        // parent; the root's mask starts above every rank.
        let (buf, mut mask) = if vrank == 0 {
            (data.to_vec(), size.next_power_of_two())
        } else {
            let mask = 1usize << vrank.trailing_zeros();
            let parent = ((vrank & !mask) + root) % size;
            (self.recv_bytes(parent, tags::BCAST)?, mask)
        };
        // Send phase: forward to children under decreasing masks.
        mask >>= 1;
        while mask > 0 {
            if vrank + mask < size {
                let child = ((vrank + mask) + root) % size;
                self.send_bytes(child, tags::BCAST, &buf)?;
            }
            mask >>= 1;
        }
        self.counters().incr("mpi.bcasts");
        Ok(buf)
    }

    /// Typed broadcast: the root's slice is distributed to every rank.
    pub fn bcast<T: Pod>(&mut self, root: usize, data: &[T]) -> MpiResult<Vec<T>> {
        Ok(vec_from_bytes(&self.bcast_bytes(root, as_bytes(data))?))
    }
}

#[cfg(test)]
mod tests {
    use crate::comm::World;
    use sdm_sim::MachineConfig;

    #[test]
    fn bcast_from_rank0() {
        for n in [1, 2, 3, 4, 7, 8] {
            let out = World::run(n, MachineConfig::test_tiny(), |c| {
                let data = if c.rank() == 0 {
                    vec![3.25f64, -1.0]
                } else {
                    vec![]
                };
                c.bcast(0, &data).unwrap()
            });
            for v in out {
                assert_eq!(v, vec![3.25, -1.0], "n={n}");
            }
        }
    }

    #[test]
    fn bcast_from_nonzero_root() {
        let out = World::run(5, MachineConfig::test_tiny(), |c| {
            let data = if c.rank() == 3 {
                vec![9u32, 8, 7]
            } else {
                vec![0u32; 3]
            };
            c.bcast(3, &data).unwrap()
        });
        for v in out {
            assert_eq!(v, vec![9, 8, 7]);
        }
    }

    #[test]
    fn bcast_empty_payload() {
        let out = World::run(4, MachineConfig::test_tiny(), |c| {
            c.bcast::<u8>(0, &[]).unwrap().len()
        });
        assert_eq!(out, vec![0, 0, 0, 0]);
    }

    #[test]
    fn bcast_cost_scales_logarithmically() {
        // With p ranks a binomial bcast of a large buffer should cost
        // about ceil(log2 p) transfer times, far less than (p-1).
        let cfg = MachineConfig::origin2000();
        let one_transfer = cfg.network.wire_time(1 << 20);
        let out = World::run(8, cfg, |c| {
            let data = if c.rank() == 0 {
                vec![0u8; 1 << 20]
            } else {
                vec![]
            };
            c.bcast_bytes(0, &data).unwrap();
            c.barrier();
            c.now()
        });
        let t = out[0];
        assert!(
            t < one_transfer * 5.0,
            "8-rank bcast {t}s should be ~3 transfers, not 7"
        );
        assert!(
            t > one_transfer * 1.5,
            "tree depth must show up: {t}s vs {one_transfer}s"
        );
    }

    #[test]
    fn consecutive_bcasts_do_not_cross_match() {
        let out = World::run(4, MachineConfig::test_tiny(), |c| {
            let a = c
                .bcast(0, &(if c.rank() == 0 { vec![1u8] } else { vec![] }))
                .unwrap();
            let b = c
                .bcast(0, &(if c.rank() == 0 { vec![2u8] } else { vec![] }))
                .unwrap();
            (a[0], b[0])
        });
        for (a, b) in out {
            assert_eq!((a, b), (1, 2));
        }
    }
}
