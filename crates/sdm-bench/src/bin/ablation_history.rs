//! Ablation A1: history files are keyed by (problem size, process
//! count). Running on a different process count misses; pre-creating
//! histories "for the various numbers of processes of interest" hits.

use std::sync::Arc;

use sdm_apps::fun3d::{run_sdm, Fun3dOptions};
use sdm_apps::{Fun3dWorkload, PhaseReport};
use sdm_bench::{fresh_world, print_header, HarnessArgs};
use sdm_mpi::World;
use sdm_sim::MachineConfig;

fn main() {
    let args = HarnessArgs::from_env();
    let cfg = MachineConfig::origin2000();
    print_header(
        "Ablation A1: history validity across process counts",
        &cfg,
        "",
    );
    let (pfs, store) = fresh_world(&cfg);

    // Register a history at p=8.
    let w8 = Fun3dWorkload::new(args.fun3d_nodes() / 4, 8, args.seed);
    w8.stage(&pfs).unwrap();
    let rep = PhaseReport::reduce_max(&World::run(8, cfg.clone(), {
        let (pfs, store, w) = (Arc::clone(&pfs), Arc::clone(&store), w8.clone());
        move |c| {
            let opts = Fun3dOptions {
                register_history: true,
                ..Default::default()
            };
            run_sdm(c, &pfs, &store, &w, &opts).unwrap().report
        }
    }));
    println!(
        "register at p=8: index_distri={:.3}s",
        rep.get("index-distribution")
    );

    // Same problem at p=4: MISS (different partition shapes entirely).
    let w4 = Fun3dWorkload::new(args.fun3d_nodes() / 4, 4, args.seed);
    let miss = World::run(4, cfg.clone(), {
        let (pfs, store, w) = (Arc::clone(&pfs), Arc::clone(&store), w4.clone());
        move |c| {
            let opts = Fun3dOptions {
                use_history: true,
                ..Default::default()
            };
            run_sdm(c, &pfs, &store, &w, &opts).unwrap().history_hit
        }
    });
    println!("replay at p=4: hits={:?} (expected all false)", miss);
    assert!(miss.iter().all(|&h| !h), "p=4 must miss a p=8 history");

    // Pre-create for p=4 too ("create it in advance for the various
    // numbers of processes of interest"), then both hit.
    World::run(4, cfg.clone(), {
        let (pfs, store, w) = (Arc::clone(&pfs), Arc::clone(&store), w4.clone());
        move |c| {
            let opts = Fun3dOptions {
                register_history: true,
                ..Default::default()
            };
            run_sdm(c, &pfs, &store, &w, &opts).unwrap();
        }
    });
    for (p, w) in [(4usize, &w4), (8, &w8)] {
        let hits = World::run(p, cfg.clone(), {
            let (pfs, store, w) = (Arc::clone(&pfs), Arc::clone(&store), w.clone());
            move |c| {
                let opts = Fun3dOptions {
                    use_history: true,
                    ..Default::default()
                };
                run_sdm(c, &pfs, &store, &w, &opts).unwrap().history_hit
            }
        });
        println!("replay at p={p}: hits={hits:?}");
        assert!(hits.iter().all(|&h| h), "p={p} must hit after pre-creation");
    }
    println!("PASS: history misses across process counts, hits after pre-creation");
}
