//! History files in isolation: register an index distribution, replay
//! it, watch it miss on a different process count, and survive file
//! corruption by falling back to the fresh path.
//!
//! Run: `cargo run --example history_replay`

use std::sync::Arc;

use sdm::core::{Sdm, SdmConfig, SharedStore};
use sdm::mpi::World;
use sdm::partition::partition_block;
use sdm::pfs::Pfs;
use sdm::sim::MachineConfig;

/// A small synthetic edge list: a ring over `n` nodes plus chords.
fn edges(n: usize) -> (Vec<i32>, Vec<i32>) {
    let mut e1 = Vec::new();
    let mut e2 = Vec::new();
    for i in 0..n {
        let (a, b) = (i as i32, ((i + 1) % n) as i32);
        e1.push(a.min(b));
        e2.push(a.max(b));
        if i % 3 == 0 {
            let c = ((i + n / 2) % n) as i32;
            e1.push((i as i32).min(c));
            e2.push((i as i32).max(c));
        }
    }
    (e1, e2)
}

fn run(nprocs: usize, pfs: &Arc<Pfs>, store: &SharedStore, label: &str) -> bool {
    // Every "job" talks to the one metadata store, as later jobs talk to
    // one database server.
    let n = 600usize;
    let (e1, e2) = edges(n);
    let pv = partition_block(n, nprocs);
    let total_edges = e1.len() as u64;
    let hits = World::run(nprocs, MachineConfig::origin2000(), {
        let (pfs, store, pv, e1, e2) = (
            Arc::clone(pfs),
            Arc::clone(store),
            pv.clone(),
            e1.clone(),
            e2.clone(),
        );
        move |c| {
            let mut sdm =
                Sdm::initialize_with(c, &pfs, &store, "hist_demo", SdmConfig::default()).unwrap();
            // Each rank holds a contiguous chunk (as an import would give).
            let chunk = e1.len().div_ceil(c.size());
            let lo = (c.rank() * chunk).min(e1.len());
            let hi = ((c.rank() + 1) * chunk).min(e1.len());
            let (pi, hit) = sdm
                .partition_index(c, &pv, total_edges, (lo as u64, &e1[lo..hi], &e2[lo..hi]))
                .unwrap();
            if !hit {
                sdm.index_registry(c, &pi, total_edges).unwrap();
            }
            hit
        }
    });
    let hit = hits.iter().all(|&h| h);
    println!(
        "{label}: history {}",
        if hit { "HIT" } else { "MISS (registered now)" }
    );
    hit
}

fn main() {
    let cfg = MachineConfig::origin2000();
    let pfs = Pfs::new(cfg);
    let store = sdm::core::store::in_memory();

    assert!(
        !run(4, &pfs, &store, "run 1 @ 4 procs"),
        "first run must miss"
    );
    assert!(
        run(4, &pfs, &store, "run 2 @ 4 procs"),
        "second run must hit"
    );
    assert!(
        !run(2, &pfs, &store, "run 3 @ 2 procs"),
        "different proc count must miss"
    );
    assert!(
        run(2, &pfs, &store, "run 4 @ 2 procs"),
        "now both counts are pre-created"
    );
    assert!(
        run(4, &pfs, &store, "run 5 @ 4 procs"),
        "4-proc history still valid"
    );

    // Corrupt the 4-proc history file: the next run must detect it
    // (checksum), fall back to fresh distribution, and deregister.
    let name = "hist_demo.hist.800.4";
    let (f, _) = pfs.open(name, 0.0).unwrap();
    pfs.write_at(&f, 20, &[0xFFu8; 8], 0.0).unwrap();
    println!("(corrupted {name})");
    assert!(
        !run(4, &pfs, &store, "run 6 @ 4 procs after corruption"),
        "corruption must force fresh"
    );
    assert!(
        run(4, &pfs, &store, "run 7 @ 4 procs"),
        "re-registered after fallback"
    );
    println!("OK");
}
