//! Index partitioning: partitioning vector, ring-pipelined edge
//! distribution, ghosts, the doubling receive buffers, and the local
//! numbering the partition hands back.
//!
//! Paper, Section 3.2: every rank imports a contiguous chunk of the
//! `edge1`/`edge2` arrays, then the chunks circulate around a ring; at
//! each step a rank keeps every passing edge with at least one endpoint
//! it owns ("if at least a node of an edge has been partitioned to a
//! process, the edge is assigned to the process" — shared edges become
//! ghost edges on both sides). Nodes partition by the replicated
//! partitioning vector; nodes touched by my edges but owned elsewhere
//! become ghost nodes.
//!
//! **Local numbering.** A [`PartitionedIndex`] translates global node ids
//! to local ones once, when it is built (the inspector half of an
//! inspector–executor scheme): a rank's local nodes, owned and ghost
//! together in ascending global id, are numbered `0..n` — a node's number
//! is its *slot*, its position in [`PartitionedIndex::all_nodes`] and so
//! in every array [`Sdm::partition_data_nodes`] imports. Every edge
//! carries the slots of its two endpoints and every slot knows its
//! position in `owned_nodes`, so a sweep over the edges does indexed
//! loads where it would otherwise search.
//!
//! **Ring message.** A circulating chunk is a contiguous import, so its
//! edge ids are `start_id..start_id + n` and only the endpoints travel:
//! `[start_id u64][n u64][edge1 i32 × n][edge2 i32 × n]`, native
//! endianness, 8 bytes per edge. A rank sends a chunk on *before* it
//! scans it and scans the received bytes where they lie, so the transfer
//! to the next rank runs under the scan.

use sdm_mpi::envelope::tags;
use sdm_mpi::pod::as_bytes;
use sdm_mpi::Comm;

use crate::error::{SdmError, SdmResult};
use crate::memory::DoublingBuf;
use crate::sdm::{GroupHandle, Sdm};

/// `slot_owned` entry of a ghost slot. Also the table's "not local" mark
/// while the numbering is built, which is why a partitioning vector may
/// not reach this many nodes.
const NOT_OWNED: u32 = u32::MAX;

/// The outcome of `SDM_partition_index` + `SDM_partition_table`: this
/// rank's share of the irregular problem, with its local numbering.
///
/// Built only by [`PartitionedIndex::from_edges`] (and the history-file
/// decoder), which derive the numbering from the four public lists; the
/// lists are public to be read, and the numbering describes them only as
/// long as they are left as built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionedIndex {
    /// Global ids of my edges (strictly ascending), ghosts included.
    pub edge_ids: Vec<u64>,
    /// Edge endpoints aligned with `edge_ids`.
    pub edge_nodes: Vec<(u32, u32)>,
    /// Nodes owned by this rank (partitioning vector says so), sorted.
    pub owned_nodes: Vec<u32>,
    /// Ghost nodes: endpoints of my edges owned by other ranks, sorted.
    pub ghost_nodes: Vec<u32>,
    /// Per edge, the slots of its two endpoints.
    edge_slots: Vec<(u32, u32)>,
    /// Per slot, the node's position in `owned_nodes`, or [`NOT_OWNED`].
    slot_owned: Vec<u32>,
}

impl PartitionedIndex {
    /// Build a rank's partition from the edges assigned to it: derive the
    /// owned nodes from the replicated `partitioning_vector`, the ghosts
    /// from the endpoints it does not own, and number the local nodes.
    /// One pass over the partitioning vector and two over the edges,
    /// through one transient `u32`-per-global-node table.
    ///
    /// Errors (`Usage`) when the two edge lists differ in length, the ids
    /// are not strictly ascending, or an endpoint lies outside the
    /// partitioning vector.
    pub fn from_edges(
        partitioning_vector: &[u32],
        rank: u32,
        edge_ids: Vec<u64>,
        edge_nodes: Vec<(u32, u32)>,
    ) -> SdmResult<Self> {
        if edge_ids.len() != edge_nodes.len() {
            return Err(SdmError::Usage(format!(
                "{} edge ids for {} edges",
                edge_ids.len(),
                edge_nodes.len()
            )));
        }
        if edge_ids.windows(2).any(|w| w[0] >= w[1]) {
            return Err(SdmError::Usage(
                "edge ids are not strictly ascending".into(),
            ));
        }
        let n = partitioning_vector.len();
        if n >= NOT_OWNED as usize {
            return Err(SdmError::Usage(format!(
                "partitioning vector of {n} nodes exceeds the u32 node-id range"
            )));
        }
        if let Some(&(a, b)) = edge_nodes
            .iter()
            .find(|&&(a, b)| a as usize >= n || b as usize >= n)
        {
            return Err(SdmError::Usage(format!(
                "edge ({a}, {b}) out of range for partitioning vector of {n}"
            )));
        }
        Ok(Self::number(
            partitioning_vector,
            rank,
            edge_ids,
            edge_nodes,
        ))
    }

    /// [`PartitionedIndex::from_edges`] past its checks.
    fn number(
        partitioning_vector: &[u32],
        rank: u32,
        edge_ids: Vec<u64>,
        edge_nodes: Vec<(u32, u32)>,
    ) -> Self {
        // Global node → slot. First mark the endpoints (any value other
        // than NOT_OWNED), then number every owned or marked node in
        // ascending global id, which is the order of `all_nodes`.
        let mut slot_of = vec![NOT_OWNED; partitioning_vector.len()];
        for &(a, b) in &edge_nodes {
            slot_of[a as usize] = 0;
            slot_of[b as usize] = 0;
        }
        let mut owned_nodes = Vec::new();
        let mut ghost_nodes = Vec::new();
        let mut slot_owned = Vec::new();
        for (node, (&owner, slot)) in partitioning_vector.iter().zip(&mut slot_of).enumerate() {
            let mine = owner == rank;
            if !mine && *slot == NOT_OWNED {
                continue;
            }
            *slot = slot_owned.len() as u32;
            if mine {
                slot_owned.push(owned_nodes.len() as u32);
                owned_nodes.push(node as u32);
            } else {
                slot_owned.push(NOT_OWNED);
                ghost_nodes.push(node as u32);
            }
        }
        let edge_slots = edge_nodes
            .iter()
            .map(|&(a, b)| (slot_of[a as usize], slot_of[b as usize]))
            .collect();
        Self {
            edge_ids,
            edge_nodes,
            owned_nodes,
            ghost_nodes,
            edge_slots,
            slot_owned,
        }
    }

    /// Rebuild a partition from what a history block stores: the edge
    /// ids, the endpoint *slots*, and the two node lists (each strictly
    /// ascending — the block's gap coding cannot express anything else).
    /// `BadHistory` when a node is in both lists or a slot is out of
    /// range.
    pub(crate) fn from_slots(
        edge_ids: Vec<u64>,
        edge_slots: Vec<(u32, u32)>,
        owned_nodes: Vec<u32>,
        ghost_nodes: Vec<u32>,
    ) -> SdmResult<Self> {
        let bad = |m: &str| SdmError::BadHistory(m.to_string());
        let slots = owned_nodes.len() + ghost_nodes.len();
        if slots >= NOT_OWNED as usize {
            return Err(bad("more local nodes than u32 slots"));
        }
        // Merge the lists: slot → global id and slot → owned position.
        let mut all = Vec::with_capacity(slots);
        let mut slot_owned = Vec::with_capacity(slots);
        let (mut i, mut j) = (0, 0);
        while all.len() < slots {
            let take_owned = match (owned_nodes.get(i), ghost_nodes.get(j)) {
                (Some(a), Some(b)) if a == b => return Err(bad("a node is owned and ghost")),
                (Some(a), Some(b)) => a < b,
                (owned, _) => owned.is_some(),
            };
            if take_owned {
                all.push(owned_nodes[i]);
                slot_owned.push(i as u32);
                i += 1;
            } else {
                all.push(ghost_nodes[j]);
                slot_owned.push(NOT_OWNED);
                j += 1;
            }
        }
        let edge_nodes = edge_slots
            .iter()
            .map(|&(a, b)| Some((*all.get(a as usize)?, *all.get(b as usize)?)))
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| bad("edge slot out of range"))?;
        debug_assert_eq!(edge_ids.len(), edge_nodes.len());
        Ok(Self {
            edge_ids,
            edge_nodes,
            owned_nodes,
            ghost_nodes,
            edge_slots,
            slot_owned,
        })
    }

    /// `SDM_partition_index_size`: number of local (incl. ghost) edges.
    pub fn index_size(&self) -> usize {
        self.edge_ids.len()
    }

    /// `SDM_partition_data_size`: number of owned nodes.
    pub fn data_size(&self) -> usize {
        self.owned_nodes.len()
    }

    /// Number of local nodes, owned and ghost: the length of
    /// [`PartitionedIndex::all_nodes`] and of a node array imported
    /// through it.
    pub fn num_slots(&self) -> usize {
        self.slot_owned.len()
    }

    /// Per edge, aligned with `edge_ids`, the slots of its two endpoints:
    /// `edge_nodes[k] == (all[a], all[b])` for `(a, b) = edge_slots()[k]`
    /// and `all = all_nodes()`.
    pub fn edge_slots(&self) -> &[(u32, u32)] {
        &self.edge_slots
    }

    /// Where the node in `slot` sits in `owned_nodes`; `None` for a ghost.
    ///
    /// # Panics
    /// When `slot >= num_slots()`.
    #[inline]
    pub fn owned_position(&self, slot: u32) -> Option<usize> {
        let at = self.slot_owned[slot as usize];
        (at != NOT_OWNED).then_some(at as usize)
    }

    /// Owned + ghost nodes, merged sorted (the map array for node-data
    /// imports that must cover ghosts): slot → global node id.
    pub fn all_nodes(&self) -> Vec<u32> {
        let mut ghosts = self.ghost_nodes.iter();
        self.slot_owned
            .iter()
            .filter_map(|&at| match at {
                NOT_OWNED => ghosts.next().copied(),
                at => self.owned_nodes.get(at as usize).copied(),
            })
            .collect()
    }

    /// Map arrays as u64 (for file views).
    pub fn owned_nodes_u64(&self) -> Vec<u64> {
        self.owned_nodes.iter().map(|&n| n as u64).collect()
    }
}

/// Length of the ring message's `[start_id][n]` header.
const RING_HEADER: usize = 16;

/// Serialize a chunk for the ring (layout in the module docs).
fn ring_message(start_id: u64, e1: &[i32], e2: &[i32]) -> Vec<u8> {
    debug_assert_eq!(e1.len(), e2.len());
    let mut msg = Vec::with_capacity(RING_HEADER + e1.len() * 8);
    msg.extend_from_slice(&start_id.to_ne_bytes());
    msg.extend_from_slice(&(e1.len() as u64).to_ne_bytes());
    msg.extend_from_slice(as_bytes(e1));
    msg.extend_from_slice(as_bytes(e2));
    msg
}

/// Check a received ring message and split it into `(start_id, edge1
/// bytes, edge2 bytes)`. The count comes off the wire: it must account
/// for the message length exactly, and the id range must fit in `u64`.
fn ring_chunk(msg: &[u8]) -> SdmResult<(u64, &[u8], &[u8])> {
    if msg.len() < RING_HEADER {
        return Err(SdmError::Usage("short ring message".into()));
    }
    let start_id = crate::history::read_u64_ne(msg, 0);
    let n = crate::history::read_u64_ne(msg, 8);
    let body = &msg[RING_HEADER..];
    let column = usize::try_from(n)
        .ok()
        .and_then(|n| n.checked_mul(4))
        .filter(|&c| c.checked_mul(2) == Some(body.len()))
        .ok_or_else(|| {
            SdmError::Usage(format!(
                "ring message of {} bytes cannot hold {n} edges",
                msg.len()
            ))
        })?;
    if start_id.checked_add(n).is_none() {
        return Err(SdmError::Usage(format!(
            "ring chunk of {n} edges at id {start_id} overflows the id range"
        )));
    }
    let (e1, e2) = body.split_at(column);
    Ok((start_id, e1, e2))
}

/// The `i32`s of a native-endian byte column, read where they lie.
fn ne_i32s(bytes: &[u8]) -> impl ExactSizeIterator<Item = i32> + '_ {
    bytes
        .chunks_exact(4)
        .map(|c| i32::from_ne_bytes([c[0], c[1], c[2], c[3]]))
}

/// The edges a rank keeps while the chunks pass: doubling buffers filled
/// in a single pass (the paper's realloc trick — no counting pre-pass).
struct Kept {
    ids: DoublingBuf<u64>,
    nodes: DoublingBuf<(u32, u32)>,
}

impl Sdm {
    /// `SDM_partition_table`: convert the replicated partitioning vector
    /// into this rank's owned-node list ("to determine which node should
    /// be assigned to which process"). Local; charges one scan.
    pub fn partition_table(&self, comm: &mut Comm, partitioning_vector: &[u32]) -> Vec<u32> {
        let me = comm.rank() as u32;
        let owned: Vec<u32> = partitioning_vector
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p == me)
            .map(|(n, _)| n as u32)
            .collect();
        comm.compute(self.partition_table_cost(partitioning_vector));
        owned
    }

    /// Modeled CPU cost of one pass over the partitioning vector.
    fn partition_table_cost(&self, partitioning_vector: &[u32]) -> f64 {
        partitioning_vector.len() as f64 * self.cfg.per_edge_scan_cost * 0.25
    }

    /// One pass over a circulating chunk whose first edge has global id
    /// `start_id`: keep every edge with an endpoint `me` owns.
    fn scan_chunk(
        &self,
        comm: &mut Comm,
        partitioning_vector: &[u32],
        start_id: u64,
        edges: impl ExactSizeIterator<Item = (i32, i32)>,
        kept: &mut Kept,
    ) -> SdmResult<()> {
        let me = comm.rank() as u32;
        let n = edges.len();
        for (id, (a, b)) in (start_id..).zip(edges) {
            // A negative endpoint wraps far out of range.
            let owners = (
                partitioning_vector.get(a as usize),
                partitioning_vector.get(b as usize),
            );
            let (Some(&pa), Some(&pb)) = owners else {
                return Err(SdmError::Usage(format!(
                    "edge ({a}, {b}) out of range for partitioning vector of {}",
                    partitioning_vector.len()
                )));
            };
            if pa == me || pb == me {
                kept.ids.push(id);
                kept.nodes.push((a as u32, b as u32));
            }
        }
        comm.compute(n as f64 * self.cfg.per_edge_scan_cost);
        Ok(())
    }

    /// `SDM_partition_index` (fresh path): distribute edges by
    /// circulating each rank's imported chunk around the ring. `start_id`
    /// is the global id of `e1[0]` (from the contiguous import);
    /// `partitioning_vector` is replicated. Collective.
    ///
    /// The history-file fast path lives in [`Sdm::partition_index`]
    /// (`crate::history`), which calls this on a miss.
    pub fn partition_index_fresh(
        &self,
        comm: &mut Comm,
        partitioning_vector: &[u32],
        start_id: u64,
        e1: &[i32],
        e2: &[i32],
    ) -> SdmResult<PartitionedIndex> {
        if e1.len() != e2.len() {
            return Err(SdmError::Usage("edge1/edge2 length mismatch".into()));
        }
        if start_id.checked_add(e1.len() as u64).is_none() {
            return Err(SdmError::Usage(format!(
                "chunk of {} edges at id {start_id} overflows the id range",
                e1.len()
            )));
        }
        let p = comm.size();
        let right = (comm.rank() + 1) % p;
        let left = (comm.rank() + p - 1) % p;
        let mut kept = Kept {
            ids: DoublingBuf::with_initial_capacity(self.cfg.initial_buf_capacity),
            nodes: DoublingBuf::with_initial_capacity(self.cfg.initial_buf_capacity),
        };

        // "the edges in each process are moved to the next process
        // located at a ring network". Every chunk, mine first, goes on to
        // the right-hand neighbour before it is scanned here: the
        // neighbour's receive then completes at max(scan, wire) after
        // the send instead of scan + wire.
        if p > 1 {
            comm.send_owned(right, tags::SDM_RING, ring_message(start_id, e1, e2))?;
        }
        let mine = e1.iter().copied().zip(e2.iter().copied());
        self.scan_chunk(comm, partitioning_vector, start_id, mine, &mut kept)?;
        for step in 1..p {
            let msg = comm.recv_bytes(left, tags::SDM_RING)?;
            let (chunk_start, c1, c2) = ring_chunk(&msg)?;
            if step + 1 < p {
                comm.send_bytes(right, tags::SDM_RING, &msg)?;
            }
            let passing = ne_i32s(c1).zip(ne_i32s(c2));
            self.scan_chunk(comm, partitioning_vector, chunk_start, passing, &mut kept)?;
        }

        // Sort my edges by global id (ring arrival order is rotated).
        let kept_ids = kept.ids.into_vec();
        let kept_nodes = kept.nodes.into_vec();
        let mut order: Vec<u32> = (0..kept_ids.len() as u32).collect();
        order.sort_unstable_by_key(|&k| kept_ids[k as usize]);
        let edge_ids: Vec<u64> = order.iter().map(|&k| kept_ids[k as usize]).collect();
        let edge_nodes: Vec<(u32, u32)> = order.iter().map(|&k| kept_nodes[k as usize]).collect();

        // Owned and ghost nodes and the local numbering; the pass over
        // the partitioning vector is `partition_table`'s.
        let pi = PartitionedIndex::from_edges(
            partitioning_vector,
            comm.rank() as u32,
            edge_ids,
            edge_nodes,
        )?;
        comm.compute(self.partition_table_cost(partitioning_vector));
        comm.counters().incr("sdm.index_distributions");
        Ok(pi)
    }

    /// Sequential reference implementation of the edge distribution
    /// (used by tests and the "original application" baseline): given the
    /// full edge list, compute the partition for `rank` directly.
    ///
    /// # Panics
    /// When an endpoint lies outside `partitioning_vector`.
    pub fn partition_index_reference(
        partitioning_vector: &[u32],
        e1: &[i32],
        e2: &[i32],
        rank: u32,
    ) -> PartitionedIndex {
        let mut edge_ids = Vec::new();
        let mut edge_nodes = Vec::new();
        for k in 0..e1.len() {
            let (a, b) = (e1[k] as usize, e2[k] as usize);
            if partitioning_vector[a] == rank || partitioning_vector[b] == rank {
                edge_ids.push(k as u64);
                edge_nodes.push((e1[k] as u32, e2[k] as u32));
            }
        }
        PartitionedIndex::number(partitioning_vector, rank, edge_ids, edge_nodes)
    }

    /// Import the per-edge data arrays for the partitioned edges
    /// (Figure 3's "Import x"): a collective irregular import through the
    /// edge map array.
    pub fn partition_data_edges(
        &mut self,
        comm: &mut Comm,
        h: GroupHandle,
        name: &str,
        file_offset: u64,
        pi: &PartitionedIndex,
        total_edges: u64,
    ) -> SdmResult<Vec<f64>> {
        self.import_view::<f64>(comm, h, name, file_offset, &pi.edge_ids, total_edges)
    }

    /// Import the per-node data arrays for owned + ghost nodes
    /// (Figure 3's "Import y"), in slot order.
    pub fn partition_data_nodes(
        &mut self,
        comm: &mut Comm,
        h: GroupHandle,
        name: &str,
        file_offset: u64,
        pi: &PartitionedIndex,
        total_nodes: u64,
    ) -> SdmResult<Vec<f64>> {
        let map: Vec<u64> = pi.all_nodes().iter().map(|&n| n as u64).collect();
        self.import_view::<f64>(comm, h, name, file_offset, &map, total_nodes)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use proptest::prelude::*;
    use sdm_mpi::World;
    use sdm_pfs::Pfs;
    use sdm_sim::MachineConfig;

    use super::*;
    use crate::sdm::SdmConfig;

    #[test]
    fn pack_unpack_round_trip() {
        let e1 = vec![0i32, 2, 4];
        let e2 = vec![1i32, 3, 5];
        let msg = ring_message(5, &e1, &e2);
        assert_eq!(msg.len(), RING_HEADER + 8 * 3, "8 bytes per edge");
        let (start, c1, c2) = ring_chunk(&msg).unwrap();
        assert_eq!(start, 5);
        assert_eq!(ne_i32s(c1).collect::<Vec<_>>(), e1);
        assert_eq!(ne_i32s(c2).collect::<Vec<_>>(), e2);
        let empty = ring_message(9, &[], &[]);
        assert_eq!(ring_chunk(&empty).unwrap(), (9, &[][..], &[][..]));
    }

    #[test]
    fn unpack_rejects_garbage() {
        assert!(ring_chunk(&[1, 2, 3]).is_err());
        let good = ring_message(0, &[0], &[1]);
        assert!(ring_chunk(&good[..good.len() - 1]).is_err(), "truncated");
        let mut long = good.clone();
        long.push(0);
        assert!(ring_chunk(&long).is_err(), "trailing byte");
        // Counts no message could hold: 8 * n wraps to the body length
        // (2^61 + 1) or overflows outright (u64::MAX).
        for n in [(1u64 << 61) + 1, u64::MAX] {
            let mut msg = good.clone();
            msg[8..16].copy_from_slice(&n.to_ne_bytes());
            assert!(ring_chunk(&msg).is_err(), "count {n}");
        }
        let mut msg = good;
        msg[..8].copy_from_slice(&u64::MAX.to_ne_bytes());
        assert!(ring_chunk(&msg).is_err(), "ids past u64::MAX");
    }

    #[test]
    fn reference_matches_paper_example() {
        // Figure 1: 5 nodes, partitioning vector [0,1,1,0,1], 4 edges
        // with edge1 = [0,1,0,1], edge2 = [1,4,3,2], i.e. e0=(0,1),
        // e1=(1,4), e2=(0,3), e3=(1,2). The paper's stated outcome:
        // "edges 0 and 2 are assigned to process 0, and edges 0, 1, and
        // 3 are assigned to process 1".
        let pv = vec![0u32, 1, 1, 0, 1];
        let e1 = vec![0, 1, 0, 1];
        let e2 = vec![1, 4, 3, 2];
        let p0 = Sdm::partition_index_reference(&pv, &e1, &e2, 0);
        let p1 = Sdm::partition_index_reference(&pv, &e1, &e2, 1);
        assert_eq!(
            p0.edge_ids,
            vec![0, 2],
            "p0 gets edges touching nodes 0 or 3"
        );
        assert_eq!(
            p1.edge_ids,
            vec![0, 1, 3],
            "p1 gets edges touching nodes 1, 2, 4"
        );
        // Nodes: p0 owns {0,3}, p1 owns {1,2,4} (paper: "nodes 0 and 3
        // are assigned to process 0, and nodes 1, 2, and 4 to process 1").
        assert_eq!(p0.owned_nodes, vec![0, 3]);
        assert_eq!(p1.owned_nodes, vec![1, 2, 4]);
        // Ghosts: edge 0 is "a ghost edge of both processes"; p0 sees
        // node 1 through it, p1 sees node 0.
        assert_eq!(p0.ghost_nodes, vec![1]);
        assert_eq!(p1.ghost_nodes, vec![0]);
        // Paper: "nodes 0, 1, and 3 are assigned to process 0, and nodes
        // 0, 1, 2, and 4 to process 1" (owned + ghost views).
        assert_eq!(p0.all_nodes(), vec![0, 1, 3]);
        assert_eq!(p1.all_nodes(), vec![0, 1, 2, 4]);
        // The numbering of p0: slots 0, 1, 2 hold nodes 0, 1 (ghost), 3.
        assert_eq!(p0.edge_slots(), [(0, 1), (0, 2)]);
        assert_eq!(
            (0..3).map(|s| p0.owned_position(s)).collect::<Vec<_>>(),
            [Some(0), None, Some(1)]
        );
    }

    #[test]
    fn edge_shared_by_both_is_ghost_on_both() {
        let pv = vec![0u32, 1];
        let e1 = vec![0];
        let e2 = vec![1];
        let p0 = Sdm::partition_index_reference(&pv, &e1, &e2, 0);
        let p1 = Sdm::partition_index_reference(&pv, &e1, &e2, 1);
        assert_eq!(p0.edge_ids, vec![0]);
        assert_eq!(p1.edge_ids, vec![0]);
        assert_eq!(
            p0.index_size() + p1.index_size(),
            2,
            "shared edge counted on both"
        );
    }

    #[test]
    fn all_nodes_merges_sorted() {
        let pv = [1u32, 0, 1, 1, 0, 1, 0];
        let pi = PartitionedIndex::from_edges(&pv, 0, vec![3, 8], vec![(0, 1), (5, 4)]).unwrap();
        assert_eq!(pi.owned_nodes, vec![1, 4, 6]);
        assert_eq!(pi.ghost_nodes, vec![0, 5]);
        assert_eq!(pi.all_nodes(), vec![0, 1, 4, 5, 6]);
        assert_eq!(pi.data_size(), 3);
        assert_eq!(pi.num_slots(), 5);
    }

    #[test]
    fn from_edges_rejects_what_it_cannot_number() {
        let pv = [0u32, 1, 0];
        let build = |ids: Vec<u64>, nodes| PartitionedIndex::from_edges(&pv, 0, ids, nodes);
        assert!(build(vec![1, 2], vec![(0, 1), (1, 2)]).is_ok());
        for (ids, nodes, why) in [
            (vec![1], vec![(0, 1), (1, 2)], "fewer ids than edges"),
            (vec![2, 2], vec![(0, 1), (1, 2)], "repeated id"),
            (vec![3, 2], vec![(0, 1), (1, 2)], "descending ids"),
            (vec![1, 2], vec![(0, 1), (1, 3)], "endpoint past the vector"),
        ] {
            assert!(
                matches!(build(ids, nodes), Err(SdmError::Usage(_))),
                "{why}"
            );
        }
    }

    /// A partitioning vector over `ranks + 1` owners with `ranks` of them
    /// asked about (so one owner's nodes are only ever ghosts), an edge
    /// list over a prefix of the nodes (the tail stays isolated), and one
    /// rank guaranteed to own nothing.
    pub(crate) fn random_problem(
        ranks: u32,
        owners: &[u32],
        picks: &[(u32, u32)],
    ) -> (Vec<u32>, Vec<i32>, Vec<i32>) {
        let empty = ranks - 1;
        let pv: Vec<u32> = owners
            .iter()
            .map(|&o| {
                if o % (ranks + 1) == empty {
                    ranks
                } else {
                    o % (ranks + 1)
                }
            })
            .collect();
        let reach = (pv.len() * 3 / 4).max(1) as u32;
        let e1 = picks.iter().map(|&(a, _)| (a % reach) as i32).collect();
        let e2 = picks.iter().map(|&(_, b)| (b % reach) as i32).collect();
        (pv, e1, e2)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The numbering is what searching the sorted lists would find.
        #[test]
        fn slots_are_positions_in_the_sorted_lists(
            ranks in 1u32..5,
            owners in proptest::collection::vec(0u32..64, 1..60),
            picks in proptest::collection::vec((0u32..1000, 0u32..1000), 0..120),
        ) {
            let (pv, e1, e2) = random_problem(ranks, &owners, &picks);
            for rank in 0..ranks {
                let pi = Sdm::partition_index_reference(&pv, &e1, &e2, rank);
                let all = pi.all_nodes();
                prop_assert_eq!(all.len(), pi.num_slots());
                prop_assert!(all.windows(2).all(|w| w[0] < w[1]));
                prop_assert_eq!(pi.edge_slots().len(), pi.edge_nodes.len());
                for (&(a, b), &(sa, sb)) in pi.edge_nodes.iter().zip(pi.edge_slots()) {
                    prop_assert_eq!(all.binary_search(&a), Ok(sa as usize));
                    prop_assert_eq!(all.binary_search(&b), Ok(sb as usize));
                }
                for (slot, node) in all.iter().enumerate() {
                    prop_assert_eq!(
                        pi.owned_position(slot as u32),
                        pi.owned_nodes.binary_search(node).ok()
                    );
                }
                if rank == ranks - 1 {
                    prop_assert!(pi.owned_nodes.is_empty() && pi.edge_ids.is_empty());
                }
            }
        }
    }

    /// One ring pass over equal chunks of `n` edges on `p` ranks: each
    /// rank's elapsed virtual time and the `mpi.send_bytes` the pass added
    /// across the world.
    fn ring_pass(p: usize, n: usize, cfg: &MachineConfig) -> (Vec<f64>, u64) {
        let pfs = Pfs::new(cfg.clone());
        let store = crate::store::in_memory();
        // 2n nodes dealt round-robin; edge k of every chunk joins nodes k
        // and k + n, both of rank k % p when p divides n.
        let pv: Vec<u32> = (0..2 * n).map(|node| (node % p) as u32).collect();
        let e1: Vec<i32> = (0..n as i32).collect();
        let e2: Vec<i32> = (n as i32..2 * n as i32).collect();
        let out = World::run(p, cfg.clone(), move |c| {
            let sdm = Sdm::initialize_with(c, &pfs, &store, "ring", SdmConfig::default()).unwrap();
            c.barrier();
            let sent0 = c.counters().get("mpi.send_bytes");
            // Every rank has read the counter, and all clocks agree.
            c.barrier();
            let t0 = c.now();
            let start = (c.rank() * n) as u64;
            let pi = sdm.partition_index_fresh(c, &pv, start, &e1, &e2).unwrap();
            let elapsed = c.now() - t0;
            assert_eq!(pi.edge_ids.len(), n, "rank {}", c.rank());
            c.barrier();
            (elapsed, c.counters().get("mpi.send_bytes") - sent0)
        });
        let sent = out[0].1;
        assert!(out.iter().all(|o| o.1 == sent));
        (out.into_iter().map(|o| o.0).collect(), sent)
    }

    #[test]
    fn ring_forwards_under_the_scan() {
        let cfg = MachineConfig::origin2000();
        let net = &cfg.network;
        let scan_cost = SdmConfig::default().per_edge_scan_cost;
        let n = 4096;
        let msg = RING_HEADER + 8 * n;
        let scan = n as f64 * scan_cost;
        assert!(net.wire_time(msg) < scan, "the chunks must be scan-bound");
        let hop = net.send_busy(msg) + net.recv_overhead();
        let table = 2.0 * n as f64 * scan_cost * 0.25;
        for p in [2usize, 4] {
            let (elapsed, sent) = ring_pass(p, n, &cfg);
            // p scans, and per hop only what the sender and the receiver
            // are busy for: the wire time hides behind the scan.
            let want = p as f64 * scan + (p - 1) as f64 * hop + table;
            for (rank, t) in elapsed.iter().enumerate() {
                assert!((t - want).abs() < 1e-7, "p={p} rank {rank}: {t} vs {want}");
            }
            // Scanning before sending (16 bytes per edge, at that) paid
            // scan + wire per hop.
            let before = p as f64 * scan
                + (p - 1) as f64 * (net.wire_time(8 + 16 * n) + net.recv_overhead())
                + table;
            assert!(want < before, "p={p}: {want} vs {before}");
            // Every rank passes on p - 1 chunks of 16 + 8n bytes.
            assert_eq!(sent, (p * (p - 1) * msg) as u64, "p={p}");
        }
    }
}
