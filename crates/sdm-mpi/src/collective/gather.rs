//! Gather (variable-length) to a root.

use crate::comm::Comm;
use crate::envelope::tags;
use crate::error::MpiResult;
use crate::pod::{as_bytes, vec_from_bytes, Pod};

impl Comm {
    /// Gather each rank's bytes at `root`. Returns `Some(blocks)` (indexed
    /// by source rank) at the root, `None` elsewhere. Blocks may have
    /// different lengths (gatherv semantics).
    pub fn gather_bytes(&mut self, root: usize, data: &[u8]) -> MpiResult<Option<Vec<Vec<u8>>>> {
        if self.rank() == root {
            let mut out: Vec<Vec<u8>> = vec![Vec::new(); self.size()];
            out[root] = data.to_vec();
            for src in (0..self.size()).filter(|&s| s != root) {
                let block = self.recv_bytes(src, tags::GATHER)?;
                out[src] = block;
            }
            self.counters().incr("mpi.gathers");
            Ok(Some(out))
        } else {
            self.send_bytes(root, tags::GATHER, data)?;
            self.counters().incr("mpi.gathers");
            Ok(None)
        }
    }

    /// Typed gather: root receives every rank's slice, indexed by rank.
    pub fn gather<T: Pod>(&mut self, root: usize, data: &[T]) -> MpiResult<Option<Vec<Vec<T>>>> {
        Ok(self
            .gather_bytes(root, as_bytes(data))?
            .map(|blocks| blocks.iter().map(|b| vec_from_bytes(b)).collect()))
    }
}

#[cfg(test)]
mod tests {
    use crate::comm::World;
    use sdm_sim::MachineConfig;

    #[test]
    fn gather_variable_lengths() {
        let out = World::run(4, MachineConfig::test_tiny(), |c| {
            // Rank r contributes r copies of its rank id.
            let mine = vec![c.rank() as u32; c.rank()];
            c.gather(2, &mine).unwrap()
        });
        let blocks = out[2].as_ref().unwrap();
        assert_eq!(blocks.len(), 4);
        for (r, b) in blocks.iter().enumerate() {
            assert_eq!(b, &vec![r as u32; r]);
        }
        assert!(out[0].is_none() && out[1].is_none() && out[3].is_none());
    }

    #[test]
    fn gather_single_rank() {
        let out = World::run(1, MachineConfig::test_tiny(), |c| {
            c.gather(0, &[42u8]).unwrap()
        });
        assert_eq!(out[0], Some(vec![vec![42u8]]));
    }
}
