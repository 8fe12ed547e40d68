//! Ablation A5: Level 1 vs Level 3 bandwidth gap as the file-open cost
//! grows. Reproduces the paper's explanation for Figure 6: "On the SGI
//! Origin2000, the difference between three file organizations is not
//! significant because the file-open cost is small" — and its converse,
//! "if a file system has high file-open and file-close costs ... SDM can
//! generate a very small number of files."

use std::sync::Arc;

use sdm_apps::fun3d::{run_sdm, Fun3dOptions};
use sdm_apps::Fun3dWorkload;
use sdm_bench::{aggregate, print_header, HarnessArgs};
use sdm_core::store;
use sdm_core::OrgLevel;
use sdm_mpi::World;
use sdm_pfs::Pfs;

fn main() {
    let args = HarnessArgs::from_env();
    let procs = args.procs.unwrap_or(16);
    let w = Fun3dWorkload::new(args.fun3d_nodes() / 4, procs, args.seed);
    let base = args.machine_config();
    print_header(
        "Ablation A5: open-cost sensitivity of Level 1 vs 3",
        &base,
        &format!("procs={procs}"),
    );
    println!(
        "{:<14} {:>12} {:>12} {:>8}",
        "open_cost", "L1 MB/s", "L3 MB/s", "L3/L1"
    );

    let mut ratios = Vec::new();
    for mult in [1.0, 10.0, 100.0, 1000.0] {
        let mut cfg = base.clone();
        cfg.io.open_cost *= mult;
        cfg.io.close_cost *= mult;
        cfg.io.view_cost *= mult;
        let mut bws = Vec::new();
        for org in [OrgLevel::Level1, OrgLevel::Level3] {
            let pfs = Pfs::new(cfg.clone());
            let store = store::in_memory();
            w.stage(&pfs).unwrap();
            let rep = aggregate(World::run(procs, cfg.clone(), {
                let (pfs, store, w) = (Arc::clone(&pfs), Arc::clone(&store), w.clone());
                move |c| {
                    let opts = Fun3dOptions {
                        org,
                        ..Default::default()
                    };
                    run_sdm(c, &pfs, &store, &w, &opts).unwrap().report
                }
            }));
            bws.push(rep.bandwidth_mbs("write"));
        }
        let ratio = bws[1] / bws[0];
        println!(
            "{:<14.4} {:>12.1} {:>12.1} {:>8.2}",
            cfg.io.open_cost, bws[0], bws[1], ratio
        );
        ratios.push(ratio);
    }
    println!();
    assert!(
        ratios.windows(2).all(|w| w[1] > w[0]),
        "Level 3's advantage must grow monotonically with open cost: {ratios:?}"
    );
    assert!(
        ratios[0] == ratios.iter().cloned().fold(f64::INFINITY, f64::min),
        "the gap must be smallest at the Origin2000's real (low) open cost"
    );
    println!(
        "PASS: L3/L1 advantage grows monotonically from {:.2}x to {:.2}x",
        ratios[0],
        ratios.last().unwrap()
    );
    println!(
        "(at paper scale the base gap shrinks toward 1 — Figure 6's \
         \"difference is not significant\")"
    );
}
