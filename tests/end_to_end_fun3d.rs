//! Cross-crate integration: the full FUN3D pipeline (mesh generation →
//! staging → import → ring distribution → data imports → edge sweep →
//! checkpoint writes → read-back) produces exactly the data a sequential
//! reference computes, under every file organization and several process
//! counts.

use std::sync::Arc;

use sdm::apps::fun3d::{edge_sweep_reference, run_sdm, Fun3dOptions, RESULT_DATASETS};
use sdm::apps::Fun3dWorkload;
use sdm::core::{store, OrgLevel};
use sdm::mpi::pod::as_bytes_mut;
use sdm::mpi::World;
use sdm::pfs::Pfs;
use sdm::sim::MachineConfig;

fn run_and_verify(nprocs: usize, org: OrgLevel) {
    let w = Fun3dWorkload::new(220, nprocs, 13);
    let pfs = Pfs::new(MachineConfig::test_tiny());
    let store = store::in_memory();
    w.stage(&pfs).unwrap();
    let out = World::run(nprocs, MachineConfig::test_tiny(), {
        let (pfs, store, w) = (Arc::clone(&pfs), Arc::clone(&store), w.clone());
        move |c| {
            run_sdm(
                c,
                &pfs,
                &store,
                &w,
                &Fun3dOptions {
                    org,
                    ..Default::default()
                },
            )
            .unwrap()
        }
    });
    assert!(out.iter().all(|r| !r.history_hit));

    // Verify the written files against the sequential reference for
    // every dataset and timestep.
    let (e1, e2) = w.mesh.indirection_arrays();
    let n = w.mesh.num_nodes();
    let runid = store.latest_runid_for_app("fun3d").unwrap().unwrap();
    for t in 0..w.timesteps {
        let want = edge_sweep_reference(&e1, &e2, n, t);
        for ds in RESULT_DATASETS {
            let name = org.file_name("fun3d", 0, ds, t as i64);
            let (f, _) = pfs.open(&name, 0.0).unwrap();
            // Level 2/3 append: find the offset from the metadata table.
            let (offset, _) = store
                .lookup_execution(runid, ds, t as i64)
                .unwrap()
                .unwrap();
            let mut vals = vec![0.0f64; n];
            pfs.read_exact_at(&f, offset as u64, as_bytes_mut(&mut vals), 0.0)
                .unwrap();
            for (node, (&got, &exp)) in vals.iter().zip(&want).enumerate() {
                assert!(
                    (got - exp).abs() <= 1e-6 * exp.abs().max(1.0),
                    "org={org:?} t={t} ds={ds} node={node}: {got} vs {exp}"
                );
            }
        }
    }
}

#[test]
fn fun3d_level1_two_ranks() {
    run_and_verify(2, OrgLevel::Level1);
}

#[test]
fn fun3d_level2_three_ranks() {
    run_and_verify(3, OrgLevel::Level2);
}

#[test]
fn fun3d_level3_four_ranks() {
    run_and_verify(4, OrgLevel::Level3);
}

#[test]
fn fun3d_single_rank_degenerate() {
    run_and_verify(1, OrgLevel::Level2);
}

#[test]
fn file_counts_match_levels() {
    // 5 result datasets x 2 timesteps: Level1 -> 10 result files,
    // Level2 -> 5, Level3 -> 1.
    for (org, expect) in [
        (OrgLevel::Level1, 10),
        (OrgLevel::Level2, 5),
        (OrgLevel::Level3, 1),
    ] {
        let w = Fun3dWorkload::new(200, 2, 5);
        let pfs = Pfs::new(MachineConfig::test_tiny());
        let store = store::in_memory();
        w.stage(&pfs).unwrap();
        World::run(2, MachineConfig::test_tiny(), {
            let (pfs, store, w) = (Arc::clone(&pfs), Arc::clone(&store), w.clone());
            move |c| {
                run_sdm(
                    c,
                    &pfs,
                    &store,
                    &w,
                    &Fun3dOptions {
                        org,
                        ..Default::default()
                    },
                )
                .unwrap();
            }
        });
        let results = pfs
            .list()
            .iter()
            .filter(|f| f.starts_with("fun3d.g0"))
            .count();
        assert_eq!(results, expect, "org {org:?}");
    }
}
