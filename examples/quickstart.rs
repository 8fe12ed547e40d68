//! Quickstart: the smallest complete SDM program, in the typed session
//! style.
//!
//! Four simulated ranks write an irregularly partitioned dataset through
//! SDM and read it back. The flow is the paper's Figure 2 — initialize,
//! register a data group, install views, write a timestep, read it back,
//! finalize — but expressed through the typed session API:
//!
//! * `sdm.group(comm)` starts a **group builder**; `build()` registers
//!   every dataset in one collective and hands back typed
//!   `DatasetHandle<f64>`s, so writes and reads are checked against the
//!   dataset's element type at compile time and never look a name up
//!   again.
//! * `sdm.timestep(comm, t)` opens a **timestep scope**; all datasets
//!   written inside it land as one collective I/O burst with exactly one
//!   metadata round-trip for the whole step (the paper's `SDM_write`
//!   paid one per dataset).
//!
//! Run: `cargo run --example quickstart`

use std::sync::Arc;

use sdm::core::Sdm;
use sdm::mpi::World;
use sdm::pfs::Pfs;
use sdm::sim::MachineConfig;

fn main() {
    let nprocs = 4;
    let global_size = 1000u64;
    let cfg = MachineConfig::origin2000();
    let pfs = Pfs::new(cfg.clone());
    let store = sdm::core::store::in_memory();

    let reports = World::run(nprocs, cfg, {
        let (pfs, store) = (Arc::clone(&pfs), Arc::clone(&store));
        move |comm| {
            // SDM_initialize: connect the metadata database.
            let mut sdm = Sdm::initialize(comm, &pfs, &store, "quickstart").unwrap();

            // One group, two datasets sharing type and global size
            // (like the paper's p and q), registered in one collective.
            // The handles are typed: a `DatasetHandle<f64>` only writes
            // and reads `&[f64]`.
            let g = sdm
                .group(comm)
                .dataset::<f64>("p", global_size)
                .dataset::<f64>("q", global_size)
                .build()
                .unwrap();
            let hp = g.handle::<f64>("p").unwrap();
            let hq = g.handle::<f64>("q").unwrap();

            // Views: this rank owns every nprocs-th element — a
            // deliberately irregular (interleaved) map array.
            let mine: Vec<u64> = (comm.rank() as u64..global_size)
                .step_by(comm.size())
                .collect();
            sdm.set_view(comm, hp, &mine).unwrap();
            sdm.set_view(comm, hq, &mine).unwrap();

            // Compute something per element and checkpoint both
            // datasets in one timestep scope: one collective burst, one
            // metadata sync for the whole step.
            let p: Vec<f64> = mine.iter().map(|&g| g as f64 * 1.5).collect();
            let q: Vec<f64> = mine.iter().map(|&g| -(g as f64)).collect();
            let mut step = sdm.timestep(comm, 0);
            step.write(hp, &p).unwrap();
            step.write(hq, &q).unwrap();
            step.commit().unwrap();

            // Read back through the same view and verify.
            let mut back = vec![0.0f64; mine.len()];
            sdm.read_handle(comm, hp, 0, &mut back).unwrap();
            assert_eq!(back, p, "rank {}: read-back must match", comm.rank());

            let t = comm.now();
            sdm.finalize(comm).unwrap();
            (comm.rank(), mine.len(), t)
        }
    });

    for (rank, n, t) in reports {
        println!("rank {rank}: wrote+read {n} elements, virtual time {t:.4}s");
    }
    println!("files created: {:?}", pfs.list());
    println!(
        "metadata rows: {:?}",
        store.execution_history("quickstart").unwrap().len()
    );
    println!("OK");
}
