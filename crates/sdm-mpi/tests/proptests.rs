//! Property tests: collectives equal their sequential references for
//! arbitrary inputs; datatype flattening conserves bytes; the view
//! mapper agrees with a brute-force reference; pipelined two-phase
//! collective I/O equals a sequentially applied file image.

use std::sync::Arc;

use proptest::prelude::*;
use sdm_mpi::datatype::Datatype;
use sdm_mpi::io::view::FileView;
use sdm_mpi::io::{Hints, MpiFile};
use sdm_mpi::World;
use sdm_pfs::Pfs;
use sdm_sim::MachineConfig;

/// Bytes of file the collective-I/O property spans: on `test_tiny` (one
/// stripe cycle = 16 KiB) a lone aggregator needs four rounds for it.
const SPAN: u64 = 50_000;

/// One rank's request: ascending, disjoint segments between random cut
/// points, each kept or dropped at random (dropped ones are holes; an
/// empty list is an empty rank). Ranks draw independently, so their
/// segments overlap.
fn rank_segments() -> impl Strategy<Value = Vec<(u64, u64)>> {
    (
        proptest::collection::btree_set(0u64..SPAN, 0..24),
        any::<u32>(),
    )
        .prop_map(|(cuts, keep)| {
            let cuts: Vec<u64> = cuts.into_iter().collect();
            cuts.windows(2)
                .enumerate()
                .filter(|(i, _)| keep >> (i % 32) & 1 == 1)
                .map(|(_, w)| (w[0], w[1] - w[0]))
                .collect()
        })
}

/// What rank `rank` writes at byte `i` of its buffer in the collective
/// `step`: never 0 (a hole past EOF) and never 0xAA (the prefill),
/// different for every rank and from one collective to the next.
fn payload_byte(rank: usize, step: usize, i: usize) -> u8 {
    (rank * 40 + (i + step * 7) % 40 + 1) as u8
}

/// The bytes `image` holds at `segs`, in order.
fn image_bytes(image: &[u8], segs: &[(u64, u64)]) -> Vec<u8> {
    segs.iter()
        .flat_map(|&(off, len)| &image[off as usize..(off + len) as usize])
        .copied()
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn allreduce_sum_equals_sequential(values in proptest::collection::vec(-1000i64..1000, 1..6)) {
        let n = values.len();
        let expect: i64 = values.iter().sum();
        let out = World::run(n, MachineConfig::test_tiny(), {
            let values = values.clone();
            move |c| c.allreduce_sum(&[values[c.rank()]]).unwrap()[0]
        });
        for v in out {
            prop_assert_eq!(v, expect);
        }
    }

    #[test]
    fn exscan_equals_prefix_sums(values in proptest::collection::vec(0u64..1000, 1..6)) {
        let n = values.len();
        let out = World::run(n, MachineConfig::test_tiny(), {
            let values = values.clone();
            move |c| c.exscan_sum(&[values[c.rank()]]).unwrap()[0]
        });
        let mut acc = 0;
        for (r, v) in out.into_iter().enumerate() {
            prop_assert_eq!(v, acc, "rank {}", r);
            acc += values[r];
        }
    }

    #[test]
    fn alltoallv_is_transpose(n in 1usize..5, seed in any::<u64>()) {
        // blocks[s][d] = f(s, d); after exchange rank d holds f(s, d) from s.
        let out = World::run(n, MachineConfig::test_tiny(), move |c| {
            let blocks: Vec<Vec<u64>> = (0..n)
                .map(|d| vec![seed ^ (c.rank() as u64) << 16 ^ d as u64; (c.rank() + d) % 3])
                .collect();
            c.alltoallv(blocks).unwrap()
        });
        for (d, recv) in out.iter().enumerate() {
            for (s, b) in recv.iter().enumerate() {
                let want = vec![seed ^ (s as u64) << 16 ^ d as u64; (s + d) % 3];
                prop_assert_eq!(b, &want, "s={} d={}", s, d);
            }
        }
    }

    /// The pipelined two-phase engine against a sequential reference, over
    /// a sequence of collectives on one handle: writes that are waited
    /// for, writes that are only begun, `sync`s and reads in between, and
    /// a final read. The reference applies every write's segments in rank
    /// order (so the higher rank wins an overlap) to an image of the
    /// prefilled file, and reads from the image as it is at that point.
    #[test]
    fn collective_io_equals_sequential_reference(
        // Per collective: four ranks' segments (the first `nprocs` are
        // used), what it is (0: `write_all_segments_begin`, 1:
        // `write_all_segments`, 2: read back what was written last) and
        // whether a `sync` follows. The first one always writes.
        ops in proptest::collection::vec(
            (proptest::collection::vec(rank_segments(), 4), 0u8..3, any::<bool>()),
            1..4,
        ),
        nprocs in 1usize..5,
        cb_nodes in prop_oneof![Just(None), Just(Some(1)), Just(Some(2))],
        // 16 and 100: rounds far smaller than a stripe cycle. 16 KiB on
        // 256 B stripes: windows of 1, 2, 4, 8, 8, ... KiB.
        cb_buffer_size in prop_oneof![Just(16usize), Just(100), Just(5000), Just(16 << 10), Just(16 << 20)],
        stripe_size in prop_oneof![Just(256usize), Just(4096)],
        prefill in 0u64..SPAN,
    ) {
        let mut image = vec![0xAAu8; prefill as usize];
        // The segments of the last write, and per read what every rank
        // must get back.
        let mut written: &[Vec<(u64, u64)>] = &[];
        let mut expected: Vec<Vec<Vec<u8>>> = Vec::new();
        for (step, (segs, kind, _)) in ops.iter().enumerate() {
            if step == 0 || *kind < 2 {
                written = &segs[..nprocs];
                for (rank, mine) in written.iter().enumerate() {
                    let mut i = 0;
                    for &(off, len) in mine {
                        let end = (off + len) as usize;
                        if image.len() < end {
                            image.resize(end, 0);
                        }
                        for b in &mut image[off as usize..end] {
                            *b = payload_byte(rank, step, i);
                            i += 1;
                        }
                    }
                }
            } else {
                // The next rank's segments, so that requests and file
                // domains pair up differently than in the write.
                expected.push(
                    (0..nprocs).map(|r| image_bytes(&image, &written[(r + 1) % nprocs])).collect(),
                );
            }
        }
        expected.push((0..nprocs).map(|r| image_bytes(&image, &written[(r + 1) % nprocs])).collect());

        let machine = MachineConfig { stripe_size, ..MachineConfig::test_tiny() };
        let pfs = Pfs::new(machine.clone());
        {
            let (f, _) = pfs.open_or_create("ref.dat", 0.0).unwrap();
            pfs.write_at(&f, 0, &vec![0xAA; prefill as usize], 0.0).unwrap();
        }
        let read_back = World::run(nprocs, machine, {
            let (pfs, ops) = (Arc::clone(&pfs), ops.clone());
            move |c| {
                let mut f = MpiFile::open_collective(c, &pfs, "ref.dat", false).unwrap();
                f.set_hints(Hints { cb_nodes, cb_buffer_size, ..Default::default() });
                let read = |f: &mut MpiFile, c: &mut sdm_mpi::Comm, segs: &[(u64, u64)]| {
                    let nbytes: u64 = segs.iter().map(|&(_, l)| l).sum();
                    let mut back = vec![0u8; nbytes as usize];
                    f.read_all_segments(c, segs, &mut back).unwrap();
                    back
                };
                let mut written: &[Vec<(u64, u64)>] = &[];
                let mut back = Vec::new();
                for (step, (segs, kind, sync)) in ops.iter().enumerate() {
                    if step == 0 || *kind < 2 {
                        written = &segs[..nprocs];
                        let mine = &written[c.rank()];
                        let nbytes: u64 = mine.iter().map(|&(_, l)| l).sum();
                        let data: Vec<u8> =
                            (0..nbytes as usize).map(|i| payload_byte(c.rank(), step, i)).collect();
                        if *kind == 0 {
                            f.write_all_segments_begin(c, mine, &data).unwrap();
                        } else {
                            f.write_all_segments(c, mine, &data).unwrap();
                        }
                    } else {
                        back.push(read(&mut f, c, &written[(c.rank() + 1) % nprocs]));
                    }
                    if *sync {
                        f.sync(c);
                    }
                }
                back.push(read(&mut f, c, &written[(c.rank() + 1) % nprocs]));
                f.close(c);
                back
            }
        });

        let (f, _) = pfs.open("ref.dat", 0.0).unwrap();
        let mut stored = vec![0u8; f.len() as usize];
        pfs.read_exact_at(&f, 0, &mut stored, 0.0).unwrap();
        prop_assert!(stored == image, "file image differs from the reference");
        for (rank, back) in read_back.iter().enumerate() {
            for (nth, want) in expected.iter().enumerate() {
                prop_assert!(
                    back[nth] == want[rank],
                    "rank {}, read {}: other bytes than the image held", rank, nth
                );
            }
        }
    }

    #[test]
    fn flatten_conserves_size(displs in proptest::collection::btree_set(0u64..2000, 1..100), blocklen in 1usize..4) {
        // btree_set gives sorted unique displacements; scale them apart so
        // blocks of `blocklen` cannot overlap.
        let displs: Vec<u64> = displs.into_iter().map(|d| d * blocklen as u64).collect();
        let nblocks = displs.len();
        let t = Datatype::indexed_block(blocklen, displs, Datatype::double());
        let f = t.flatten().unwrap();
        prop_assert_eq!(f.size, (nblocks * blocklen * 8) as u64);
        // Segments sorted, non-overlapping, lengths sum to size.
        let mut sum = 0;
        let mut prev_end = 0;
        for &(off, len) in &f.segments {
            prop_assert!(off >= prev_end);
            prev_end = off + len;
            sum += len;
        }
        prop_assert_eq!(sum, f.size);
    }

    #[test]
    fn view_segments_match_bruteforce(
        displs in proptest::collection::btree_set(0u64..64, 1..16),
        start in 0u64..64,
        len in 0u64..128,
    ) {
        let displs: Vec<u64> = displs.into_iter().collect();
        let nvis = displs.len() as u64 * 8;
        let t = Datatype::resized(64 * 8, Datatype::indexed_block(1, displs.clone(), Datatype::double()));
        let view = FileView::new(0, t.flatten().unwrap()).unwrap();
        let start = start % nvis.max(1);
        let len = len.min(3 * nvis);
        // Brute force: visible byte v lives at file byte F(v).
        let file_byte = |v: u64| -> u64 {
            let tile = v / nvis;
            let within = v % nvis;
            let elem = within / 8;
            let byte = within % 8;
            tile * 64 * 8 + displs[elem as usize] * 8 + byte
        };
        let segs = view.segments(start, len);
        let mut covered = 0u64;
        let mut v = start;
        for (off, slen) in segs {
            for k in 0..slen {
                prop_assert_eq!(off + k, file_byte(v), "visible byte {}", v);
                v += 1;
            }
            covered += slen;
        }
        prop_assert_eq!(covered, len);
    }
}
