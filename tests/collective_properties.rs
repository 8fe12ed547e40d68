//! Property tests on the MPI substrate's collectives: results must equal
//! their sequential references for arbitrary inputs, rank counts, and
//! block shapes. The alltoallv case is the direct regression test for a
//! pairwise-exchange routing bug that only appears at three or more
//! ranks (a later phase's destination slot colliding with an earlier
//! phase's source slot).

use proptest::prelude::*;
use sdm::mpi::World;
use sdm::sim::MachineConfig;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// alltoallv transposes arbitrary variable-length byte blocks.
    #[test]
    fn alltoallv_transposes_arbitrary_blocks(
        n in 1usize..6,
        lens in proptest::collection::vec(0usize..40, 36),
        seed in 0u8..200,
    ) {
        let out = World::run(n, MachineConfig::test_tiny(), {
            let lens = lens.clone();
            move |c| {
                // blocks[d]: length lens[rank*6+d], filled with a value
                // identifying (source, dest).
                let blocks: Vec<Vec<u8>> = (0..n)
                    .map(|d| {
                        let len = lens[c.rank() * 6 + d];
                        vec![seed ^ (c.rank() * 16 + d) as u8; len]
                    })
                    .collect();
                c.alltoallv(blocks).unwrap()
            }
        });
        for (r, recv) in out.iter().enumerate() {
            for (s, block) in recv.iter().enumerate() {
                let want_len = lens[s * 6 + r];
                prop_assert_eq!(block.len(), want_len, "r={} s={}", r, s);
                let want_val = seed ^ (s * 16 + r) as u8;
                prop_assert!(
                    block.iter().all(|&b| b == want_val),
                    "r={} s={}: payload mixed with another pair's data",
                    r, s
                );
            }
        }
    }

    /// allreduce(sum) agrees with a sequential fold.
    #[test]
    fn reductions_match_reference(
        n in 1usize..5,
        vals in proptest::collection::vec(-1000i64..1000, 5),
    ) {
        let out = World::run(n, MachineConfig::test_tiny(), {
            let vals = vals.clone();
            move |c| {
                let mine = [vals[c.rank() % 5], vals[(c.rank() + 1) % 5]];
                c.allreduce_sum(&mine)
            }
        });
        let mut want_sum = [0i64; 2];
        for r in 0..n {
            want_sum[0] += vals[r % 5];
            want_sum[1] += vals[(r + 1) % 5];
        }
        for sum in out {
            prop_assert_eq!(&sum[..], &want_sum[..]);
        }
    }
}

/// Deterministic regression: the exact 3-rank alltoallv pattern that the
/// parked-outgoing-block bug corrupted (payloads from phase 1 being
/// forwarded in phase 2).
#[test]
fn alltoallv_three_rank_regression() {
    let n = 3;
    let out = World::run(n, MachineConfig::test_tiny(), move |c| {
        let blocks: Vec<Vec<u32>> = (0..n)
            .map(|d| vec![(c.rank() * 100 + d) as u32; 4])
            .collect();
        c.alltoallv(blocks).unwrap()
    });
    for (r, recv) in out.iter().enumerate() {
        for (s, block) in recv.iter().enumerate() {
            assert_eq!(block, &vec![(s * 100 + r) as u32; 4], "r={r} s={s}");
        }
    }
}
