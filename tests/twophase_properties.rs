//! Property tests for the I/O core: arbitrary disjoint rank requests
//! round-trip through two-phase collective I/O; views conserve bytes;
//! history blocks survive encode/decode under arbitrary contents.

use std::sync::Arc;

use proptest::prelude::*;
use sdm::core::SdmType;
use sdm::mpi::io::MpiFile;
use sdm::mpi::pod::{as_bytes, as_bytes_mut};
use sdm::mpi::World;
use sdm::pfs::Pfs;
use sdm::sim::MachineConfig;

/// Generate disjoint per-rank segment lists over a small file.
fn disjoint_segments(nprocs: usize) -> impl Strategy<Value = Vec<Vec<(u64, u64)>>> {
    // Random cut points over [0, 4096), assigned round-robin to ranks.
    proptest::collection::btree_set(0u64..4096, 2..40).prop_map(move |cuts| {
        let cuts: Vec<u64> = cuts.into_iter().collect();
        let mut per_rank: Vec<Vec<(u64, u64)>> = vec![Vec::new(); nprocs];
        for (i, w) in cuts.windows(2).enumerate() {
            // Leave every third region a hole.
            if i % 3 != 2 {
                per_rank[i % nprocs].push((w[0], w[1] - w[0]));
            }
        }
        per_rank
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn twophase_write_read_round_trip(segs in disjoint_segments(3), seed in 0u64..100) {
        let nprocs = 3;
        let pfs = Pfs::new(MachineConfig::test_tiny());
        let all = World::run(nprocs, MachineConfig::test_tiny(), {
            let (pfs, segs) = (Arc::clone(&pfs), segs.clone());
            move |c| {
                let mut f = MpiFile::open_collective(c, &pfs, "prop.dat", true).unwrap();
                let mine = &segs[c.rank()];
                let nbytes: usize = mine.iter().map(|&(_, l)| l as usize).sum();
                let data: Vec<u8> =
                    (0..nbytes).map(|i| (i as u64 * 31 + seed + c.rank() as u64 * 7) as u8).collect();
                f.write_all_segments(c, mine, &data).unwrap();
                let mut back = vec![0u8; nbytes];
                f.read_all_segments(c, mine, &mut back).unwrap();
                f.close(c);
                (data, back)
            }
        });
        for (rank, (data, back)) in all.into_iter().enumerate() {
            prop_assert_eq!(data, back, "rank {} round trip", rank);
        }
    }

    #[test]
    fn view_compile_conserves_and_inverts(mut map in proptest::collection::vec(0u64..500, 1..64)) {
        map.sort_unstable();
        map.dedup();
        let view = sdm::core::view::DataView::compile(&map, 500, SdmType::Double).unwrap();
        // Total bytes conserved.
        let total: u64 = view.ftype.segments.iter().map(|&(_, l)| l).sum();
        prop_assert_eq!(total, map.len() as u64 * 8);
        // Permutation round trip.
        let user: Vec<f64> = (0..map.len()).map(|i| i as f64 * 1.25).collect();
        let file = view.to_file_order(&user).unwrap();
        let back = view.to_user_order(&file).unwrap();
        prop_assert_eq!(back, user);
    }

    #[test]
    fn collective_read_matches_independent_read(
        content in proptest::collection::vec(any::<u8>(), 64..512),
    ) {
        let nprocs = 2;
        let pfs = Pfs::new(MachineConfig::test_tiny());
        {
            let (f, _) = pfs.open_or_create("src.dat", 0.0).unwrap();
            pfs.write_at(&f, 0, &content, 0.0).unwrap();
        }
        let len = content.len();
        let out = World::run(nprocs, MachineConfig::test_tiny(), {
            let pfs = Arc::clone(&pfs);
            move |c| {
                let mut f = MpiFile::open_collective(c, &pfs, "src.dat", false).unwrap();
                // Rank r reads the r-th half collectively and independently.
                let half = len / 2;
                let (lo, n) = if c.rank() == 0 { (0u64, half) } else { (half as u64, len - half) };
                let mut coll = vec![0u8; n];
                f.read_all_segments(c, &[(lo, n as u64)], &mut coll).unwrap();
                let mut ind = vec![0u8; n];
                f.read_at(c, lo, &mut ind).unwrap();
                f.close(c);
                (coll, ind)
            }
        });
        for (coll, ind) in out {
            prop_assert_eq!(coll, ind);
        }
    }
}

#[test]
fn typed_round_trip_f64_through_segments() {
    let pfs = Pfs::new(MachineConfig::test_tiny());
    World::run(2, MachineConfig::test_tiny(), {
        let pfs = Arc::clone(&pfs);
        move |c| {
            let mut f = MpiFile::open_collective(c, &pfs, "t.dat", true).unwrap();
            let vals: Vec<f64> = (0..32).map(|i| (c.rank() * 100 + i) as f64 / 3.0).collect();
            let off = c.rank() as u64 * 256;
            f.write_all_segments(c, &[(off, 256)], as_bytes(&vals))
                .unwrap();
            let mut back = vec![0.0f64; 32];
            f.read_all_segments(c, &[(off, 256)], as_bytes_mut(&mut back))
                .unwrap();
            assert_eq!(back, vals);
            f.close(c);
        }
    });
}
