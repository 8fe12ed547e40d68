//! Figure 7: Rayleigh-Taylor write bandwidth — Original vs SDM Level 1
//! vs SDM Level 2/3, at 32 and 64 processors (paper: ~550 MB total;
//! SDM an order of magnitude over the serialized original; 64 procs
//! slower than 32 for the same data because per-process buffers shrink).
//!
//! Usage: `cargo run --release -p sdm-bench --bin fig7 [--scale F]`

use std::sync::Arc;

use sdm_apps::rt::{run_original, run_sdm};
use sdm_apps::{PhaseReport, RtWorkload};
use sdm_bench::{fresh_world, print_bw_row, print_header, HarnessArgs};
use sdm_core::OrgLevel;
use sdm_mpi::World;
use sdm_sim::MachineConfig;

fn main() {
    let args = HarnessArgs::from_env();
    let cfg = MachineConfig::origin2000();
    let proc_counts = match args.procs {
        Some(p) => vec![p],
        None => vec![32, 64],
    };

    print_header(
        "Figure 7: RT write bandwidth",
        &cfg,
        "(paper: 550MB total, 32 and 64 procs)",
    );

    let mut rows: Vec<(String, f64)> = Vec::new();
    for &procs in &proc_counts {
        let w = RtWorkload::new(args.rt_nodes(), procs, args.seed);
        println!(
            "\n-- procs={procs} nodes={} tris={} total={:.1}MB --",
            w.mesh.num_nodes(),
            w.mesh.num_cells(),
            w.total_bytes() as f64 / 1e6
        );

        // Original (serialized writes).
        let (pfs, _db) = fresh_world(&cfg);
        let orig = PhaseReport::reduce_max(&World::run(procs, cfg.clone(), {
            let (pfs, w) = (Arc::clone(&pfs), w.clone());
            move |c| run_original(c, &pfs, &w).unwrap()
        }));
        let obw = orig.bandwidth_mbs("write");
        print_bw_row(&format!("Original p={procs}"), &[("write", obw)]);
        rows.push((format!("orig-{procs}"), obw));

        // SDM Level 1 and Level 2/3.
        for (label, org) in [
            ("Level 1", OrgLevel::Level1),
            ("Level 2/3", OrgLevel::Level2),
        ] {
            let (pfs, store) = fresh_world(&cfg);
            let rep = PhaseReport::reduce_max(&World::run(procs, cfg.clone(), {
                let (pfs, store, w) = (Arc::clone(&pfs), Arc::clone(&store), w.clone());
                move |c| run_sdm(c, &pfs, &store, &w, org).unwrap()
            }));
            let bw = rep.bandwidth_mbs("write");
            print_bw_row(&format!("SDM {label} p={procs}"), &[("write", bw)]);
            rows.push((format!("sdm-{label}-{procs}"), bw));
        }
    }

    println!();
    // Shape checks.
    let get = |k: &str| {
        rows.iter()
            .find(|(n, _)| n == k)
            .map(|&(_, v)| v)
            .unwrap_or(0.0)
    };
    for &procs in &proc_counts {
        let orig = get(&format!("orig-{procs}"));
        let sdm1 = get(&format!("sdm-Level 1-{procs}"));
        let sdm23 = get(&format!("sdm-Level 2/3-{procs}"));
        println!(
            "shape p={procs}: SDM/original = {:.1}x, |L1 - L2/3|/L1 = {:.3}",
            sdm23 / orig,
            (sdm1 - sdm23).abs() / sdm1
        );
        assert!(sdm23 > orig, "p={procs}: SDM must beat the original");
        if args.scale >= 0.2 {
            assert!(
                sdm23 > orig * 2.0,
                "p={procs}: SDM must significantly beat the original"
            );
        }
        assert!(
            (sdm1 - sdm23).abs() / sdm1 < 0.35,
            "p={procs}: levels should be close on the Origin2000 model"
        );
    }
    if proc_counts.len() == 2 {
        let bw32 = get("sdm-Level 2/3-32");
        let bw64 = get("sdm-Level 2/3-64");
        println!(
            "shape: SDM BW 64p/32p = {:.3}x (paper: < 1 — smaller per-process buffers)",
            bw64 / bw32
        );
        assert!(
            bw64 < bw32,
            "64 procs must be slower than 32 for the same data"
        );
    }
    println!(
        "PASS: SDM {} original; L1 ~ L2/3; BW(64) < BW(32)",
        if args.scale >= 0.2 { ">>" } else { ">" }
    );
}
