//! Pairwise-exchange alltoall with variable block lengths (alltoallv).

use crate::comm::Comm;
use crate::envelope::tags;
use crate::error::MpiResult;
use crate::pod::{as_bytes, vec_from_bytes, Pod};

impl Comm {
    /// Personalized exchange: `blocks[d]` is sent to rank `d`; the return
    /// value's entry `s` is the block received from rank `s`. Blocks may
    /// be empty and of different lengths (alltoallv semantics).
    ///
    /// Uses the pairwise-exchange schedule (`size` phases, in phase `i`
    /// exchange with `rank±i`), the algorithm ROMIO itself uses inside
    /// two-phase collective I/O.
    pub fn alltoallv_bytes(&mut self, blocks: Vec<Vec<u8>>) -> MpiResult<Vec<Vec<u8>>> {
        let size = self.size();
        let rank = self.rank();
        assert_eq!(
            blocks.len(),
            size,
            "alltoallv needs one block per destination"
        );
        let mut outgoing = blocks;
        let mut out: Vec<Vec<u8>> = vec![Vec::new(); size];
        // Self block: local copy, charged at memory speed.
        let copy = self.config().io.client_copy(outgoing[rank].len());
        self.compute(copy);
        out[rank] = std::mem::take(&mut outgoing[rank]);
        // Phase loop: exchange with (rank+i) while receiving from (rank-i).
        // Outgoing blocks stay in their own buffer: with three or more
        // ranks a later phase's destination index coincides with an
        // earlier phase's source index, so parking them in `out` would
        // send received data onward instead.
        for i in 1..size {
            let dst = (rank + i) % size;
            let src = (rank + size - i) % size;
            let payload = std::mem::take(&mut outgoing[dst]);
            self.send_owned(dst, tags::ALLTOALL, payload)?;
            out[src] = self.recv_bytes(src, tags::ALLTOALL)?;
        }
        self.counters().incr("mpi.alltoalls");
        Ok(out)
    }

    /// Typed alltoallv.
    pub fn alltoallv<T: Pod>(&mut self, blocks: Vec<Vec<T>>) -> MpiResult<Vec<Vec<T>>> {
        let byte_blocks = blocks.iter().map(|b| as_bytes(b).to_vec()).collect();
        Ok(self
            .alltoallv_bytes(byte_blocks)?
            .iter()
            .map(|b| vec_from_bytes(b))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use crate::comm::World;
    use sdm_sim::MachineConfig;

    #[test]
    fn alltoall_transposes() {
        for n in [1, 2, 4, 5] {
            let out = World::run(n, MachineConfig::test_tiny(), |c| {
                // blocks[d] = [rank*100 + d]
                let blocks: Vec<Vec<u32>> =
                    (0..n).map(|d| vec![(c.rank() * 100 + d) as u32]).collect();
                c.alltoallv(blocks).unwrap()
            });
            for (r, recv) in out.iter().enumerate() {
                for (s, b) in recv.iter().enumerate() {
                    assert_eq!(b, &vec![(s * 100 + r) as u32], "n={n} r={r} s={s}");
                }
            }
        }
    }

    #[test]
    fn alltoallv_variable_and_empty_blocks() {
        let out = World::run(3, MachineConfig::test_tiny(), |c| {
            // Rank r sends d copies of r to destination d (zero to rank 0).
            let blocks: Vec<Vec<u8>> = (0..3).map(|d| vec![c.rank() as u8; d]).collect();
            c.alltoallv(blocks).unwrap()
        });
        for (r, recv) in out.iter().enumerate() {
            for (s, b) in recv.iter().enumerate() {
                assert_eq!(b, &vec![s as u8; r], "r={r} s={s}");
            }
        }
    }

    #[test]
    fn self_block_preserved() {
        let out = World::run(2, MachineConfig::test_tiny(), |c| {
            let blocks = vec![vec![c.rank() as u64; 2]; 2];
            c.alltoallv(blocks).unwrap()
        });
        assert_eq!(out[0][0], vec![0, 0]);
        assert_eq!(out[1][1], vec![1, 1]);
    }

    #[test]
    fn repeated_alltoalls_stay_ordered() {
        let out = World::run(3, MachineConfig::test_tiny(), |c| {
            let mut results = Vec::new();
            for round in 0..4u32 {
                let blocks: Vec<Vec<u32>> = (0..3).map(|_| vec![round]).collect();
                let r = c.alltoallv(blocks).unwrap();
                results.push(r[0][0]);
            }
            results
        });
        for v in out {
            assert_eq!(v, vec![0, 1, 2, 3]);
        }
    }
}
