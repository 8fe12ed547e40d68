//! Figure 5: execution time for partitioning indices and data in FUN3D.
//!
//! Three configurations, each split into the paper's two bars:
//! `index distri.` and `import`:
//!   1. Original — rank-0 read + broadcast, two-pass edge scan;
//!   2. SDM without history — parallel MPI-IO import + ring distribution;
//!   3. SDM with history — replay from the history file.
//!
//! Paper shape: Original > SDM(no history) > SDM(with history), with the
//! history run's `index distri.` reduced to a contiguous history-file
//! read and its `import` shrunk by the skipped edge arrays.
//!
//! Usage: `cargo run --release -p sdm-bench --bin fig5 [--scale F]
//! [--procs N] [--machine origin2000|high-open-cost] [--seed S]`

use std::sync::Arc;

use sdm_apps::fun3d::{run_sdm, Fun3dOptions};
use sdm_apps::original::fun3d_original_import;
use sdm_apps::{Fun3dWorkload, PhaseReport};
use sdm_bench::{aggregate, fresh_world, print_header, print_time_row, HarnessArgs};
use sdm_mpi::World;

fn main() {
    let args = HarnessArgs::from_env();
    let cfg = args.machine_config();
    let procs = args.procs.unwrap_or(64);
    let w = Fun3dWorkload::new(args.fun3d_nodes(), procs, args.seed);

    print_header(
        "Figure 5: FUN3D index distribution + import time",
        &cfg,
        &format!(
            "procs={procs} nodes={} edges={} import={:.1}MB (paper: 64 procs, 2.2M nodes, 18M edges, 807MB)",
            w.mesh.num_nodes(),
            w.mesh.num_edges(),
            w.import_bytes() as f64 / 1e6
        ),
    );

    // --- Original ---
    let (pfs, _db) = fresh_world(&cfg);
    w.stage(&pfs).unwrap();
    let reports = World::run(procs, cfg.clone(), {
        let (pfs, w) = (Arc::clone(&pfs), w.clone());
        move |c| fun3d_original_import(c, &pfs, &w).unwrap().0
    });
    let orig = aggregate(reports);

    // --- SDM without history ---
    let (pfs, store) = fresh_world(&cfg);
    w.stage(&pfs).unwrap();
    let no_hist: PhaseReport = aggregate(World::run(procs, cfg.clone(), {
        let (pfs, store, w) = (Arc::clone(&pfs), Arc::clone(&store), w.clone());
        move |c| {
            let opts = Fun3dOptions {
                register_history: true,
                ..Default::default()
            };
            run_sdm(c, &pfs, &store, &w, &opts).unwrap().report
        }
    }));

    // --- SDM with history (same pfs + store: the registration persists) ---
    pfs.reset_timing();
    let results = World::run(procs, cfg.clone(), {
        let (pfs, store, w) = (Arc::clone(&pfs), Arc::clone(&store), w.clone());
        move |c| {
            let opts = Fun3dOptions {
                use_history: true,
                ..Default::default()
            };
            run_sdm(c, &pfs, &store, &w, &opts).unwrap()
        }
    });
    assert!(
        results.iter().all(|r| r.history_hit),
        "history must hit on the second run"
    );
    let with_hist = aggregate(results.into_iter().map(|r| r.report).collect());

    println!();
    for (label, r) in [
        ("Original", &orig),
        ("SDM (without history)", &no_hist),
        ("SDM (with history)", &with_hist),
    ] {
        print_time_row(
            label,
            &[
                ("index_distri", r.get("index-distribution")),
                ("import", r.get("import")),
                ("total", r.get("index-distribution") + r.get("import")),
            ],
        );
    }

    // Shape checks (the paper's qualitative claims).
    let t = |r: &PhaseReport| r.get("index-distribution") + r.get("import");
    println!();
    println!(
        "shape: original/sdm = {:.2}x, no-history/history = {:.2}x",
        t(&orig) / t(&no_hist),
        t(&no_hist) / t(&with_hist)
    );
    assert!(t(&orig) > t(&no_hist), "SDM must beat the original");
    assert!(
        with_hist.get("import") <= no_hist.get("import"),
        "history skips the edge import"
    );
    // A replay costs what does not shrink with the problem: two database
    // round trips on rank 0 (whatever the process count), a broadcast,
    // and every rank's open of the history file. The run still wins in
    // total at every scale at which SDM beats the original at all,
    // because it also skips the edge import.
    assert!(
        t(&no_hist) > t(&with_hist),
        "history must beat fresh distribution"
    );
    // Phase by phase the ring over a small enough problem is cheaper than
    // that fixed cost — a real crossover, at about 1/16 of the paper's
    // problem on 64 processes; the paper's 807 MB workload sits far above
    // it. Enforce the per-phase claim only above it.
    if args.scale >= 0.1 {
        assert!(
            with_hist.get("index-distribution") < no_hist.get("index-distribution"),
            "history replaces the ring distribution with a contiguous read"
        );
        println!("PASS: Original > SDM(no hist) > SDM(hist), per-phase shape holds");
    } else {
        println!(
            "PASS: Original > SDM(no hist) > SDM(hist) in total. NOTE: at scale {} the
             index-distribution phase alone is below the history crossover (the
             replay's fixed costs can outweigh a ring this small); rerun with
             --scale 0.125 or larger to see the paper's per-phase shape.",
            args.scale
        );
    }
}
