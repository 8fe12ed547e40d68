//! The FUN3D pipeline end to end at example scale: stage a synthetic
//! tetrahedral mesh, import + ring-distribute the edges, import the data
//! arrays through the partitioned maps, run the edge-sweep kernel, and
//! checkpoint results — then run again with a history file and show the
//! saved time.
//!
//! Run: `cargo run --example fun3d_checkpoint`

use std::sync::Arc;

use sdm::apps::fun3d::{run_sdm, Fun3dOptions};
use sdm::apps::{Fun3dWorkload, PhaseReport};
use sdm::mpi::World;
use sdm::pfs::Pfs;
use sdm::sim::MachineConfig;

fn main() {
    let nprocs = 8;
    let cfg = MachineConfig::origin2000();
    // Above the history crossover: with too little data the saved ring
    // distribution is cheaper than the history lookup's metadata round
    // trips (see EXPERIMENTS.md, Figure 5).
    let w = Fun3dWorkload::new(60_000, nprocs, 42);
    println!(
        "mesh: {} nodes, {} edges; import volume {:.1} MB",
        w.mesh.num_nodes(),
        w.mesh.num_edges(),
        w.import_bytes() as f64 / 1e6
    );

    let pfs = Pfs::new(cfg.clone());
    let store = sdm::core::store::in_memory();
    w.stage(&pfs).unwrap();

    // First run: fresh distribution, register a history file.
    let first = World::run(nprocs, cfg.clone(), {
        let (pfs, store, w) = (Arc::clone(&pfs), Arc::clone(&store), w.clone());
        move |c| {
            let opts = Fun3dOptions {
                register_history: true,
                ..Default::default()
            };
            run_sdm(c, &pfs, &store, &w, &opts).unwrap().report
        }
    });
    let first = PhaseReport::reduce_max(&first);

    // Second run: replays the index distribution from the history file.
    pfs.reset_timing();
    let second = World::run(nprocs, cfg, {
        let (pfs, store, w) = (Arc::clone(&pfs), Arc::clone(&store), w.clone());
        move |c| {
            let opts = Fun3dOptions {
                use_history: true,
                ..Default::default()
            };
            let r = run_sdm(c, &pfs, &store, &w, &opts).unwrap();
            assert!(r.history_hit, "second run must hit the history file");
            r.report
        }
    });
    let second = PhaseReport::reduce_max(&second);

    println!(
        "\n{:<22} {:>12} {:>12}",
        "phase", "fresh (s)", "history (s)"
    );
    for phase in ["import", "index-distribution", "compute", "write", "read"] {
        println!(
            "{:<22} {:>12.4} {:>12.4}",
            phase,
            first.get(phase),
            second.get(phase)
        );
    }
    let f = first.get("import") + first.get("index-distribution");
    let s = second.get("import") + second.get("index-distribution");
    println!("\nimport+distribution speedup from history: {:.2}x", f / s);
    assert!(s < f);
    println!("OK");
}
