//! History files: cache the index distribution across runs.
//!
//! After partitioning, "the local index subsets of all processes are
//! asynchronously written to a history file, and the associated metadata
//! is stored in database. When the same index distribution is needed in
//! subsequent runs, the index values are read from the history file...
//! thereby the user can avoid repeating the communication and
//! computation". The history is keyed by (problem size, process count):
//! it "cannot be used if the program is run on a different number of
//! processes".
//!
//! Block format per rank, version 2:
//! `[magic u64][checksum u64][payload]`, both words native-endian, the
//! checksum FNV-1a over the payload. The payload is a run of unsigned
//! LEB128 varints:
//!
//! ```text
//! E N G                 edge, owned-node and ghost-node counts
//! N x gap, G x gap      owned_nodes, then ghost_nodes: the first value as
//!                       it is, every later one minus (predecessor + 1)
//! E x (gap, za, zb)     per edge: its id, coded like the node lists; the
//!                       slot of its first endpoint as a zig-zag delta
//!                       from the previous edge's (from 0 for the first);
//!                       the slot of its second as one from the first's
//! ```
//!
//! Slots are the local numbering of [`PartitionedIndex`]; the endpoints'
//! global ids are not stored, the decoder reads them off the node lists.
//! Sorted ids and neighbouring slots make most varints one byte: about
//! 4 bytes per edge where version 1 spent 16. A file of any other
//! version (another magic) is unusable like a corrupt one: the replay
//! misses, drops the registration, and the run distributes afresh and
//! may register again.

use sdm_mpi::io::MpiFile;
use sdm_mpi::Comm;

use crate::error::{SdmError, SdmResult};
use crate::partition_api::PartitionedIndex;
use crate::sdm::{MetaReply, Sdm};
use crate::store::{HistoryBlock, MetadataStore};

const MAGIC: u64 = 0x5344_4D48_4953_5432; // "SDMHIST2"

/// Bytes of `[magic][checksum]`.
const FRAME: usize = 16;

fn checksum(words: &[u8]) -> u64 {
    // FNV-1a over the payload: cheap, deterministic, catches truncation
    // and bit corruption.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in words {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

fn bad(what: &str) -> SdmError {
    SdmError::BadHistory(what.to_string())
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn zigzag(d: i64) -> u64 {
    ((d << 1) ^ (d >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    (v >> 1) as i64 ^ -((v & 1) as i64)
}

/// Gap coder of a strictly ascending list: the first value as it is,
/// every later one minus (predecessor + 1).
#[derive(Default)]
struct Gaps {
    /// The smallest value the list may hold next.
    floor: u64,
}

impl Gaps {
    fn put(&mut self, out: &mut Vec<u8>, v: u64) {
        put_varint(out, v - self.floor);
        // Only a list's last value can be `u64::MAX`.
        self.floor = v.wrapping_add(1);
    }
}

/// Serialize one rank's block.
pub(crate) fn encode_block(pi: &PartitionedIndex) -> Vec<u8> {
    let slots = pi.edge_slots();
    let mut out = Vec::with_capacity(FRAME + 12 + slots.len() * 4 + pi.num_slots() * 2);
    out.resize(FRAME, 0);
    for count in [slots.len(), pi.owned_nodes.len(), pi.ghost_nodes.len()] {
        put_varint(&mut out, count as u64);
    }
    for nodes in [&pi.owned_nodes, &pi.ghost_nodes] {
        let mut gaps = Gaps::default();
        for &n in nodes {
            gaps.put(&mut out, n as u64);
        }
    }
    let (mut ids, mut last_a) = (Gaps::default(), 0);
    for (&id, &(a, b)) in pi.edge_ids.iter().zip(slots) {
        ids.put(&mut out, id);
        put_varint(&mut out, zigzag(a as i64 - last_a));
        put_varint(&mut out, zigzag(b as i64 - a as i64));
        last_a = a as i64;
    }
    let sum = checksum(&out[FRAME..]);
    out[..8].copy_from_slice(&MAGIC.to_ne_bytes());
    out[8..FRAME].copy_from_slice(&sum.to_ne_bytes());
    out
}

/// Read a native-endian `u64` at byte offset `at`; the caller has
/// already length-checked `bytes` past `at + 8`.
pub(crate) fn read_u64_ne(bytes: &[u8], at: usize) -> u64 {
    let mut buf = [0u8; 8];
    buf.copy_from_slice(&bytes[at..at + 8]);
    u64::from_ne_bytes(buf)
}

/// Cursor over a block's payload. Every read is checked: hostile bytes
/// come back as `BadHistory`, never as a panic.
struct Payload<'a> {
    bytes: &'a [u8],
}

impl Payload<'_> {
    fn varint(&mut self) -> SdmResult<u64> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let (&byte, rest) = self
                .bytes
                .split_first()
                .ok_or_else(|| bad("payload ends inside a number"))?;
            self.bytes = rest;
            let low = (byte & 0x7f) as u64;
            if shift == 63 && low > 1 {
                break;
            }
            v |= low << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(bad("number wider than 64 bits"))
    }

    fn count(&mut self) -> SdmResult<usize> {
        usize::try_from(self.varint()?).map_err(|_| bad("count out of range"))
    }

    /// The next value of a strictly ascending list ([`Gaps`] read back):
    /// `floor` is the smallest it may be, `None` once `u64::MAX` is used.
    fn ascend(&mut self, floor: &mut Option<u64>, max: u64) -> SdmResult<u64> {
        let gap = self.varint()?;
        let v = floor
            .and_then(|f| f.checked_add(gap))
            .filter(|&v| v <= max)
            .ok_or_else(|| bad("list leaves its value range"))?;
        *floor = v.checked_add(1);
        Ok(v)
    }

    fn ascending_nodes(&mut self, count: usize) -> SdmResult<Vec<u32>> {
        let mut floor = Some(0);
        (0..count)
            .map(|_| Ok(self.ascend(&mut floor, u32::MAX as u64)? as u32))
            .collect()
    }

    /// A slot `delta` away from `from`.
    fn slot(&mut self, from: u32) -> SdmResult<u32> {
        (from as i64)
            .checked_add(unzigzag(self.varint()?))
            .and_then(|s| u32::try_from(s).ok())
            .ok_or_else(|| bad("edge slot out of range"))
    }
}

/// Parse a block, verifying magic, checksum and every invariant of the
/// [`PartitionedIndex`] it describes.
pub(crate) fn decode_block(bytes: &[u8]) -> SdmResult<PartitionedIndex> {
    if bytes.len() < FRAME {
        return Err(SdmError::BadHistory(format!(
            "block too short: {} bytes",
            bytes.len()
        )));
    }
    let magic = read_u64_ne(bytes, 0);
    if magic != MAGIC {
        return Err(SdmError::BadHistory(format!("bad magic {magic:#x}")));
    }
    let mut payload = Payload {
        bytes: &bytes[FRAME..],
    };
    if checksum(payload.bytes) != read_u64_ne(bytes, 8) {
        return Err(bad("checksum mismatch"));
    }
    let (e, n, g) = (payload.count()?, payload.count()?, payload.count()?);
    // A node costs at least one byte and an edge three: the counts must
    // fit the bytes that are there before anything is sized by them.
    let least = e
        .checked_mul(3)
        .and_then(|b| b.checked_add(n))
        .and_then(|b| b.checked_add(g));
    if least.is_none_or(|least| least > payload.bytes.len()) {
        return Err(bad("counts exceed the payload"));
    }
    let owned_nodes = payload.ascending_nodes(n)?;
    let ghost_nodes = payload.ascending_nodes(g)?;
    let mut edge_ids = Vec::with_capacity(e);
    let mut edge_slots = Vec::with_capacity(e);
    let (mut floor, mut last_a) = (Some(0), 0);
    for _ in 0..e {
        edge_ids.push(payload.ascend(&mut floor, u64::MAX)?);
        let a = payload.slot(last_a)?;
        edge_slots.push((a, payload.slot(a)?));
        last_a = a;
    }
    if !payload.bytes.is_empty() {
        return Err(bad("bytes after the last edge"));
    }
    PartitionedIndex::from_slots(edge_ids, edge_slots, owned_nodes, ghost_nodes)
}

/// What a block row tells a rank: `[edge_count, node_count, ghost_count,
/// file_offset, byte_len]`, and the row of a rank that has none.
const ROW: usize = 5;
const NO_ROW: [i64; ROW] = [-1; ROW];

impl Sdm {
    fn history_file_name(&self, problem_size: u64, nprocs: usize) -> String {
        format!("{}.hist.{problem_size}.{nprocs}", self.app)
    }

    /// `SDM_index_registry`: write the partitioned index sets to a
    /// history file (asynchronously — the caller is only charged the
    /// enqueue cost) and store the per-rank metadata in `index_table` /
    /// `index_history_table`. Optional per the paper. Collective.
    pub fn index_registry(
        &mut self,
        comm: &mut Comm,
        pi: &PartitionedIndex,
        problem_size: u64,
    ) -> SdmResult<()> {
        let nprocs = comm.size();
        let block = encode_block(pi);
        let my_len = block.len() as u64;

        // A file left by an earlier registration (invalidated since, or
        // of an older format) may be longer than what is about to be
        // written; start from nothing rather than leave its tail behind.
        // Rank 0 deletes it before it opens the new one, and no rank
        // takes a handle before rank 0's open.
        let name = self.history_file_name(problem_size, nprocs);
        if comm.rank() == 0 && self.pfs.exists(&name) {
            let t = self.pfs.delete(&name, comm.now())?;
            comm.sync_to(t);
        }
        let my_off = comm.exscan_sum(&[my_len])?[0];

        let file = MpiFile::open_collective(comm, &self.pfs, &name, true)?;
        // "the partitioned edges are asynchronously written"
        let (caller_t, _bg_t) =
            self.pfs
                .write_at_async(file.pfs_file(), my_off, &block, comm.now())?;
        comm.sync_to(caller_t);

        // Rank 0 stores the registry row + every rank's block metadata.
        let metas = comm.gather(
            0,
            &[
                pi.edge_ids.len() as u64,
                pi.owned_nodes.len() as u64,
                pi.ghost_nodes.len() as u64,
                my_off,
                my_len,
            ],
        )?;
        self.metadata_call(comm, |store| {
            store.record_index_registry(
                problem_size as i64,
                nprocs as i64,
                self.cfg.dimension,
                &name,
            )?;
            for (rank, m) in metas.iter().flatten().enumerate() {
                store.record_history_block(
                    problem_size as i64,
                    nprocs as i64,
                    &HistoryBlock {
                        rank: rank as i64,
                        edge_count: m[0] as i64,
                        node_count: m[1] as i64,
                        ghost_count: m[2] as i64,
                        file_offset: m[3] as i64,
                        byte_len: m[4] as i64,
                    },
                )?;
            }
            Ok(MetaReply::trips(1))
        })?;
        // Registration must be visible before any rank can attempt a
        // same-run replay lookup.
        comm.barrier();
        comm.counters().incr("sdm.history_writes");
        Ok(())
    }

    /// Rank 0's half of a replay: ask the database whether a history is
    /// registered and, if so, for every rank's block row — two round
    /// trips whatever the process count, one on a miss. Replies with the
    /// file name and the rows laid out by rank ([`NO_ROW`] where the
    /// database has none), both empty when nothing is registered.
    fn lookup_history(
        store: &dyn MetadataStore,
        problem_size: i64,
        nprocs: usize,
    ) -> SdmResult<MetaReply> {
        // "the SDM_import first accesses the index table in the database
        // to see whether a history file exists with this problem size"
        let Some(name) = store.lookup_index_registry(problem_size, nprocs as i64)? else {
            return Ok(MetaReply::trips(1));
        };
        let blocks = store.lookup_history_blocks(problem_size, nprocs as i64)?;
        let mut table = NO_ROW.repeat(nprocs);
        for b in blocks {
            let row = usize::try_from(b.rank)
                .ok()
                .and_then(|rank| table.chunks_exact_mut(ROW).nth(rank));
            if let Some(row) = row {
                row.copy_from_slice(&[
                    b.edge_count,
                    b.node_count,
                    b.ghost_count,
                    b.file_offset,
                    b.byte_len,
                ]);
            }
        }
        Ok(MetaReply {
            trips: 2,
            words: table,
            name,
        })
    }

    /// Try to replay the index distribution from a registered history
    /// file. Returns `None` (on every rank, consistently) when there is
    /// no usable history — missing registration, missing/corrupt file —
    /// in which case the caller falls back to the fresh distribution.
    ///
    /// Only rank 0 talks to the database; it broadcasts what it learnt.
    pub fn partition_index_from_history(
        &mut self,
        comm: &mut Comm,
        problem_size: u64,
    ) -> SdmResult<Option<PartitionedIndex>> {
        let nprocs = comm.size();
        let MetaReply {
            words: table, name, ..
        } = self.metadata_call(comm, |store| {
            Self::lookup_history(store, problem_size as i64, nprocs)
        })?;
        if table.is_empty() {
            return Ok(None);
        }

        // Open the file once for all ranks (a missing one fails every
        // rank), then read and validate my block; any rank's failure
        // aborts for all.
        let opened = MpiFile::open_collective(comm, &self.pfs, &name, false);
        let attempt: SdmResult<PartitionedIndex> = (|| {
            let opened = opened?;
            let file = opened.pfs_file();
            let row = table
                .chunks_exact(ROW)
                .nth(comm.rank())
                .filter(|row| row[..] != NO_ROW)
                .ok_or_else(|| {
                    SdmError::BadHistory(format!("no block row for rank {}", comm.rank()))
                })?;
            // The row is the database's word; size nothing by it that
            // the file does not hold.
            let span = u64::try_from(row[3])
                .ok()
                .zip(u64::try_from(row[4]).ok())
                .filter(|&(at, len)| at.checked_add(len).is_some_and(|end| end <= file.len()));
            let Some((offset, len)) = span else {
                return Err(bad("block row points outside the file"));
            };
            let mut buf = vec![0u8; len as usize];
            let t = self.pfs.read_exact_at(file, offset, &mut buf, comm.now())?;
            comm.sync_to(t);
            let pi = decode_block(&buf)?;
            let counts = [
                pi.edge_ids.len(),
                pi.owned_nodes.len(),
                pi.ghost_nodes.len(),
            ];
            if counts.map(|c| c as i64) != row[..3] {
                return Err(bad("block counts disagree with metadata"));
            }
            Ok(pi)
        })();

        let ok_here = attempt.is_ok() as u8;
        let all_ok = comm.allreduce_min(&[ok_here])?[0] == 1;
        if !all_ok {
            // Drop the poisoned registration so later runs go fresh
            // immediately ("fall back to the fresh distribution").
            self.metadata_call(comm, |store| {
                store.delete_index_registry(problem_size as i64, nprocs as i64)?;
                Ok(MetaReply::trips(1))
            })?;
            comm.counters().incr("sdm.history_invalid");
            return Ok(None);
        }
        comm.counters().incr("sdm.history_hits");
        // `all_ok` was computed from `attempt.is_ok()` on every rank, so
        // locally Err is unreachable here — but `?` states that without
        // a panic path.
        Ok(Some(attempt?))
    }

    /// `SDM_partition_index`: the full paper semantics — use the history
    /// file when one is registered for this (problem size, process
    /// count), otherwise run the ring distribution. `edges` supplies the
    /// freshly imported contiguous chunk for the fresh path (start id,
    /// edge1, edge2).
    pub fn partition_index(
        &mut self,
        comm: &mut Comm,
        partitioning_vector: &[u32],
        problem_size: u64,
        edges: (u64, &[i32], &[i32]),
    ) -> SdmResult<(PartitionedIndex, bool)> {
        if let Some(pi) = self.partition_index_from_history(comm, problem_size)? {
            return Ok((pi, true));
        }
        let (start_id, e1, e2) = edges;
        let pi = self.partition_index_fresh(comm, partitioning_vector, start_id, e1, e2)?;
        Ok((pi, false))
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::partition_api::tests::random_problem;

    fn sample_pi() -> PartitionedIndex {
        // Rank 1 of 2 on six nodes: owns 1 and 2, sees 0 and 5 as ghosts.
        let pv = [0, 1, 1, 0, 0, 0];
        PartitionedIndex::from_edges(&pv, 1, vec![3, 7, 9], vec![(0, 1), (1, 2), (2, 5)]).unwrap()
    }

    /// Frame a payload the way `encode_block` does.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut out = MAGIC.to_ne_bytes().to_vec();
        out.extend_from_slice(&checksum(payload).to_ne_bytes());
        out.extend_from_slice(payload);
        out
    }

    /// What every decoded block must satisfy, whatever bytes it came from.
    fn invariants_hold(pi: &PartitionedIndex) -> Result<(), String> {
        let ascending = |l: &[u32]| l.windows(2).all(|w| w[0] < w[1]);
        prop_assert!(ascending(&pi.owned_nodes) && ascending(&pi.ghost_nodes));
        prop_assert!(pi.edge_ids.windows(2).all(|w| w[0] < w[1]));
        let all = pi.all_nodes();
        prop_assert_eq!(all.len(), pi.owned_nodes.len() + pi.ghost_nodes.len());
        prop_assert!(ascending(&all), "a node is owned and ghost");
        prop_assert_eq!(pi.edge_slots().len(), pi.edge_ids.len());
        prop_assert_eq!(pi.edge_nodes.len(), pi.edge_ids.len());
        for (&(a, b), &(sa, sb)) in pi.edge_nodes.iter().zip(pi.edge_slots()) {
            prop_assert!((sa as usize) < all.len() && (sb as usize) < all.len());
            prop_assert_eq!((a, b), (all[sa as usize], all[sb as usize]));
        }
        for (slot, node) in all.iter().enumerate() {
            prop_assert_eq!(
                pi.owned_position(slot as u32),
                pi.owned_nodes.binary_search(node).ok()
            );
        }
        Ok(())
    }

    #[test]
    fn block_round_trip() {
        let pi = sample_pi();
        let bytes = encode_block(&pi);
        let back = decode_block(&bytes).unwrap();
        assert_eq!(back, pi);
        assert_eq!(bytes.len(), FRAME + 3 + 4 + 9, "one byte per number");
    }

    #[test]
    fn empty_block_round_trip() {
        let pi = PartitionedIndex::from_edges(&[], 0, vec![], vec![]).unwrap();
        let bytes = encode_block(&pi);
        assert_eq!(decode_block(&bytes).unwrap(), pi);
    }

    #[test]
    fn extreme_values_round_trip() {
        let pv = [0, 1];
        let pi =
            PartitionedIndex::from_edges(&pv, 0, vec![0, u64::MAX], vec![(1, 0), (0, 1)]).unwrap();
        assert_eq!(decode_block(&encode_block(&pi)).unwrap(), pi);
    }

    #[test]
    fn corruption_detected() {
        let mut bytes = encode_block(&sample_pi());
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert!(matches!(decode_block(&bytes), Err(SdmError::BadHistory(_))));
    }

    #[test]
    fn truncation_detected() {
        let bytes = encode_block(&sample_pi());
        assert!(decode_block(&bytes[..bytes.len() - 4]).is_err());
        assert!(decode_block(&bytes[..10]).is_err());
    }

    #[test]
    fn wrong_magic_detected() {
        let mut bytes = encode_block(&sample_pi());
        bytes[0] ^= 1;
        assert!(
            matches!(decode_block(&bytes), Err(SdmError::BadHistory(m)) if m.contains("magic"))
        );
        // A version 1 block of the same partition is just another magic.
        bytes[..8].copy_from_slice(&0x5344_4D48_4953_5431u64.to_ne_bytes());
        assert!(decode_block(&bytes).is_err());
    }

    #[test]
    fn well_framed_nonsense_is_rejected() {
        let v = |xs: &[u64]| {
            let mut out = Vec::new();
            for &x in xs {
                put_varint(&mut out, x);
            }
            out
        };
        for (payload, why) in [
            (v(&[]), "no counts"),
            (v(&[u64::MAX, 0, 0]), "edge count no payload could hold"),
            (
                v(&[0, u64::MAX / 2, u64::MAX / 2 + 2]),
                "counts whose sum wraps",
            ),
            (v(&[0, 5, 0, 1]), "owned list cut short"),
            (v(&[0, 2, 0, 7, u32::MAX as u64]), "node past u32::MAX"),
            (v(&[0, 1, 1, 4, 4]), "node owned and ghost"),
            (v(&[1, 1, 0, 4, 0, 0, 2]), "second slot out of range"),
            (v(&[1, 1, 0, 4, 0, 1, 0]), "first slot below zero"),
            (
                v(&[2, 1, 0, 4, u64::MAX, 0, 0, 0, 0, 0]),
                "id past u64::MAX",
            ),
            (v(&[0, 1, 0, 4, 9]), "trailing number"),
            (vec![0x80; 11], "number that never ends"),
            (
                [&[0xff; 9][..], &[0x02]].concat(),
                "number wider than 64 bits",
            ),
        ] {
            let got = decode_block(&framed(&payload));
            assert!(
                matches!(got, Err(SdmError::BadHistory(_))),
                "{why}: {got:?}"
            );
        }
        // And the smallest thing that is a block: three zero counts.
        assert!(decode_block(&framed(&v(&[0, 0, 0]))).is_ok());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn random_blocks_round_trip(
            ranks in 1u32..5,
            owners in proptest::collection::vec(0u32..64, 1..80),
            picks in proptest::collection::vec((0u32..1000, 0u32..1000), 0..200),
        ) {
            let (pv, e1, e2) = random_problem(ranks, &owners, &picks);
            for rank in 0..ranks {
                let pi = Sdm::partition_index_reference(&pv, &e1, &e2, rank);
                let back = decode_block(&encode_block(&pi));
                prop_assert_eq!(back.ok(), Some(pi));
            }
        }

        /// Arbitrary bytes — bare, and behind a valid frame so that the
        /// payload parser sees them — are an error or a sound partition.
        #[test]
        fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
            prop_assert!(decode_block(&bytes).is_err());
            match decode_block(&framed(&bytes)) {
                Ok(pi) => invariants_hold(&pi)?,
                Err(e) => prop_assert!(matches!(e, SdmError::BadHistory(_))),
            }
        }

        /// A valid block with one payload byte changed and the checksum
        /// made to match again.
        #[test]
        fn one_changed_byte_never_panics(
            owners in proptest::collection::vec(0u32..64, 1..40),
            picks in proptest::collection::vec((0u32..1000, 0u32..1000), 0..60),
            at in 0usize..10_000,
            to in any::<u8>(),
        ) {
            let (pv, e1, e2) = random_problem(2, &owners, &picks);
            let block = encode_block(&Sdm::partition_index_reference(&pv, &e1, &e2, 0));
            let mut payload = block[FRAME..].to_vec();
            let at = at % payload.len();
            payload[at] = to;
            match decode_block(&framed(&payload)) {
                Ok(pi) => invariants_hold(&pi)?,
                Err(e) => prop_assert!(matches!(e, SdmError::BadHistory(_))),
            }
        }
    }
}
