//! The Rayleigh-Taylor template: write node + triangle datasets at each
//! time step through SDM, compare the three file organizations and the
//! original serialized-writer baseline.
//!
//! Run: `cargo run --example rt_instability`

use std::sync::Arc;

use sdm::apps::rt::{run_original, run_sdm};
use sdm::apps::{PhaseReport, RtWorkload};
use sdm::core::OrgLevel;
use sdm::mpi::World;
use sdm::pfs::Pfs;
use sdm::sim::MachineConfig;

fn main() {
    let nprocs = 8;
    let cfg = MachineConfig::origin2000();
    let w = RtWorkload::new(30_000, nprocs, 7);
    println!(
        "RT mesh: {} nodes, {} triangles; {:.1} MB per step x {} steps",
        w.mesh.num_nodes(),
        w.mesh.num_cells(),
        w.step_bytes() as f64 / 1e6,
        w.timesteps
    );

    // Original: token-serialized writes.
    let pfs = Pfs::new(cfg.clone());
    let orig = PhaseReport::reduce_max(&World::run(nprocs, cfg.clone(), {
        let (pfs, w) = (Arc::clone(&pfs), w.clone());
        move |c| run_original(c, &pfs, &w).unwrap()
    }));
    println!(
        "\noriginal (serialized):  {:>8.1} MB/s  ({} files)",
        orig.bandwidth_mbs("write"),
        pfs.list().len()
    );

    // SDM under each level.
    for org in OrgLevel::all() {
        let pfs = Pfs::new(cfg.clone());
        let store = sdm::core::store::in_memory();
        let rep = PhaseReport::reduce_max(&World::run(nprocs, cfg.clone(), {
            let (pfs, store, w) = (Arc::clone(&pfs), Arc::clone(&store), w.clone());
            move |c| run_sdm(c, &pfs, &store, &w, org).unwrap()
        }));
        println!(
            "SDM {:<18} {:>8.1} MB/s  ({} files)",
            format!("({}):", org.label()),
            rep.bandwidth_mbs("write"),
            pfs.list().len()
        );
    }
    println!("OK");
}
