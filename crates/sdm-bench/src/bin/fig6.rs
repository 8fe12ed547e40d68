//! Figure 6: FUN3D write/read bandwidth under Level 1 / 2 / 3 file
//! organizations (paper: ~379 MB over 5 datasets × 2 timesteps on 64
//! procs; Level 3 best, gaps small because XFS opens are cheap). Here
//! one process opens and closes each file for all of them, so Level 1
//! pays one open and one close per file at any process count.
//!
//! Usage: `cargo run --release -p sdm-bench --bin fig6 [--scale F]
//! [--procs N] [--machine origin2000|high-open-cost]`

use std::sync::Arc;

use sdm_apps::fun3d::{run_sdm, Fun3dOptions};
use sdm_apps::Fun3dWorkload;
use sdm_bench::{aggregate, fresh_world, print_bw_row, print_header, HarnessArgs};
use sdm_core::OrgLevel;
use sdm_mpi::World;

fn main() {
    let args = HarnessArgs::from_env();
    let cfg = args.machine_config();
    let procs = args.procs.unwrap_or(64);
    let w = Fun3dWorkload::new(args.fun3d_nodes(), procs, args.seed);
    let total_mb = (w.checkpoint_bytes() * w.timesteps as u64) as f64 / 1e6;

    print_header(
        "Figure 6: FUN3D I/O bandwidth by file organization",
        &cfg,
        &format!("procs={procs} data={total_mb:.1}MB (paper: 379MB, 64 procs)"),
    );
    println!();

    let mut write_bw = Vec::new();
    let mut read_bw = Vec::new();
    for org in OrgLevel::all() {
        let (pfs, store) = fresh_world(&cfg);
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
        let files = pfs
            .list()
            .iter()
            .filter(|f| f.starts_with("fun3d.g0"))
            .count();
        let wbw = rep.bandwidth_mbs("write");
        let rbw = rep.bandwidth_mbs("read");
        print_bw_row(
            &format!("{} ({files} files)", org.label()),
            &[("write", wbw), ("read", rbw)],
        );
        write_bw.push(wbw);
        read_bw.push(rbw);
    }

    println!();
    println!(
        "shape: write L3/L1 = {:.3}x, read L3/L1 = {:.3}x",
        write_bw[2] / write_bw[0],
        read_bw[2] / read_bw[0]
    );
    // Paper shape: level 3 >= level 2 >= level 1 (small gaps at low open
    // cost; see --machine high-open-cost for when it matters). Below 1/16
    // scale a file's one open and one close are small next to where a
    // level's regions fall on the stripes, which moves a write by up to
    // 2 % either way: there two levels within 2 % tie. From 1/16 up the
    // order is strict.
    let tie = if args.scale < 1.0 / 16.0 { 0.98 } else { 0.999 };
    let order = |lo: f64, hi: f64| {
        assert!(hi >= lo * tie, "write out of order: {lo:.1} > {hi:.1} MB/s");
        if hi >= lo * 0.999 {
            "<="
        } else {
            "~"
        }
    };
    let l1_l2 = order(write_bw[0], write_bw[1]);
    let l2_l3 = order(write_bw[1], write_bw[2]);
    assert!(read_bw[2] >= read_bw[0] * 0.999);
    println!("PASS: BW(L1) {l1_l2} BW(L2) {l2_l3} BW(L3)");
    if l1_l2 == "~" || l2_l3 == "~" {
        println!("(~: a tie within 2 %, allowed below 1/16 scale)");
    }
}
