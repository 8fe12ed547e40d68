//! Integration: one rank talks to the database. Every SDM call that
//! reaches it costs the same number of metadata round trips at any
//! process count: `pfs.metadata_ops` and `sdm.metadata_syncs` per
//! `initialize`, group build, `make_importlist`, `index_registry`,
//! committed step and read are the same at p = 1, 3 and 8 (and
//! `finalize` costs none).

use std::sync::Arc;

use sdm::core::{CachedStore, ImportDesc, PartitionedIndex, Sdm};
use sdm::metadb::Database;
use sdm::mpi::{Comm, World};
use sdm::pfs::Pfs;
use sdm::sim::MachineConfig;

/// Run one collective call and return its result with the
/// `(pfs.metadata_ops, sdm.metadata_syncs)` it added across the world.
fn counted<T>(c: &mut Comm, pfs: &Pfs, call: impl FnOnce(&mut Comm) -> T) -> (T, (u64, u64)) {
    let read = |c: &Comm| {
        (
            pfs.counters().get("pfs.metadata_ops"),
            c.counters().get("sdm.metadata_syncs"),
        )
    };
    c.barrier();
    let before = read(c);
    c.barrier();
    let out = call(c);
    c.barrier();
    let after = read(c);
    (out, (after.0 - before.0, after.1 - before.1))
}

#[test]
fn metadata_round_trips_do_not_grow_with_the_process_count() {
    const GLOBAL: u64 = 24;
    for nprocs in [1, 3, 8] {
        let pfs = Pfs::new(MachineConfig::test_tiny());
        let store = CachedStore::shared(&Arc::new(Database::new()));
        let per_rank = World::run(nprocs, MachineConfig::test_tiny(), |c| {
            let mut calls = Vec::new();
            let (mut sdm, n) = counted(c, &pfs, |c| {
                Sdm::initialize(c, &pfs, &store, "p-free").unwrap()
            });
            calls.push(("initialize", n));
            let (g, n) = counted(c, &pfs, |c| {
                sdm.group(c).dataset::<f64>("p", GLOBAL).build().unwrap()
            });
            calls.push(("group build", n));
            let h = g.handle::<f64>("p").unwrap();
            let mine: Vec<u64> = (c.rank() as u64..GLOBAL).step_by(c.size()).collect();
            sdm.set_view(c, h, &mine).unwrap();
            let (_, n) = counted(c, &pfs, |c| {
                let imports = vec![ImportDesc::index("edge1", "mesh")];
                sdm.make_importlist(c, g.group(), imports).unwrap()
            });
            calls.push(("make_importlist", n));
            let pi = PartitionedIndex::from_edges(&[], c.rank() as u32, vec![], vec![]).unwrap();
            let (_, n) = counted(c, &pfs, |c| sdm.index_registry(c, &pi, 0).unwrap());
            calls.push(("index_registry", n));
            let vals: Vec<f64> = mine.iter().map(|&g| g as f64 * 0.5).collect();
            let (_, n) = counted(c, &pfs, |c| {
                let mut step = sdm.timestep(c, 0);
                step.write(h, &vals).unwrap();
                step.commit().unwrap()
            });
            calls.push(("committed step", n));
            let mut back = vec![0.0; mine.len()];
            let (_, n) = counted(c, &pfs, |c| sdm.read_handle(c, h, 0, &mut back).unwrap());
            calls.push(("read", n));
            assert_eq!(back, vals);
            let (_, n) = counted(c, &pfs, |c| sdm.finalize(c).unwrap());
            calls.push(("finalize", n));
            calls
        });
        for calls in per_rank {
            for (call, trips) in calls {
                let want = u64::from(call != "finalize");
                assert_eq!(
                    trips,
                    (want, want),
                    "{call} at p={nprocs}: (metadata ops, syncs)"
                );
            }
        }
    }
}
