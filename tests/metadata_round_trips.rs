//! Integration: one rank talks to the database. Every SDM call that
//! reaches it costs the same number of metadata round trips at any
//! process count: `pfs.metadata_ops` and `sdm.metadata_syncs` per
//! `initialize`, group build, `make_importlist`, `index_registry`,
//! committed step and read are the same at p = 1, 3 and 8 (and
//! `finalize` costs none). Likewise one rank opens and closes a file at
//! the metadata service: `pfs.opens` and `pfs.closes` are one per file at
//! every file organization and process count.

use std::sync::Arc;

use sdm::core::{CachedStore, ImportDesc, OrgLevel, PartitionedIndex, Sdm, SdmConfig};
use sdm::metadb::Database;
use sdm::mpi::{Comm, World};
use sdm::pfs::Pfs;
use sdm::sim::MachineConfig;

/// Run one collective call and return its result with what it added
/// across the world to the two counts `read` takes.
fn counted<T>(
    c: &mut Comm,
    read: impl Fn(&Comm) -> (u64, u64),
    call: impl FnOnce(&mut Comm) -> T,
) -> (T, (u64, u64)) {
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
        let trips = |c: &Comm| {
            (
                pfs.counters().get("pfs.metadata_ops"),
                c.counters().get("sdm.metadata_syncs"),
            )
        };
        let per_rank = World::run(nprocs, MachineConfig::test_tiny(), |c| {
            let mut calls = Vec::new();
            let (mut sdm, n) = counted(c, trips, |c| {
                Sdm::initialize(c, &pfs, &store, "p-free").unwrap()
            });
            calls.push(("initialize", n));
            let (g, n) = counted(c, trips, |c| {
                sdm.group(c).dataset::<f64>("p", GLOBAL).build().unwrap()
            });
            calls.push(("group build", n));
            let h = g.handle::<f64>("p").unwrap();
            let mine: Vec<u64> = (c.rank() as u64..GLOBAL).step_by(c.size()).collect();
            sdm.set_view(c, h, &mine).unwrap();
            let (_, n) = counted(c, trips, |c| {
                let imports = vec![ImportDesc::index("edge1", "mesh")];
                sdm.make_importlist(c, g.group(), imports).unwrap()
            });
            calls.push(("make_importlist", n));
            let pi = PartitionedIndex::from_edges(&[], c.rank() as u32, vec![], vec![]).unwrap();
            let (_, n) = counted(c, trips, |c| sdm.index_registry(c, &pi, 0).unwrap());
            calls.push(("index_registry", n));
            let vals: Vec<f64> = mine.iter().map(|&g| g as f64 * 0.5).collect();
            let (_, n) = counted(c, trips, |c| {
                let mut step = sdm.timestep(c, 0);
                step.write(h, &vals).unwrap();
                step.commit().unwrap()
            });
            calls.push(("committed step", n));
            let mut back = vec![0.0; mine.len()];
            let (_, n) = counted(c, trips, |c| sdm.read_handle(c, h, 0, &mut back).unwrap());
            calls.push(("read", n));
            assert_eq!(back, vals);
            let (_, n) = counted(c, trips, |c| sdm.finalize(c).unwrap());
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

/// `(pfs.opens, pfs.closes)` so far.
fn opens_closes(pfs: &Pfs) -> (u64, u64) {
    (
        pfs.counters().get("pfs.opens"),
        pfs.counters().get("pfs.closes"),
    )
}

/// A committed Level-1 step opens and closes one file per dataset, and a
/// Level-2/3 file is opened once and closed once over the whole run (at
/// `finalize`), whatever the process count.
#[test]
fn a_file_is_opened_and_closed_once_whatever_the_process_count() {
    const GLOBAL: u64 = 24;
    const DATASETS: [&str; 3] = ["p", "q", "r"];
    const STEPS: i64 = 2;
    for org in OrgLevel::all() {
        for nprocs in [1, 3, 8] {
            let pfs = Pfs::new(MachineConfig::test_tiny());
            let store = CachedStore::shared(&Arc::new(Database::new()));
            let files_touched = |_: &Comm| opens_closes(&pfs);
            let per_step = World::run(nprocs, MachineConfig::test_tiny(), |c| {
                let cfg = SdmConfig {
                    org,
                    ..SdmConfig::default()
                };
                let mut sdm = Sdm::initialize_with(c, &pfs, &store, "opens", cfg).unwrap();
                let mut b = sdm.group(c);
                for name in DATASETS {
                    b = b.dataset::<f64>(name, GLOBAL);
                }
                let g = b.build().unwrap();
                let mine: Vec<u64> = (c.rank() as u64..GLOBAL).step_by(c.size()).collect();
                let handles: Vec<_> = DATASETS
                    .iter()
                    .map(|n| g.handle::<f64>(n).unwrap())
                    .collect();
                for &h in &handles {
                    sdm.set_view(c, h, &mine).unwrap();
                }
                let vals = vec![1.5; mine.len()];
                let per_step: Vec<_> = (0..STEPS)
                    .map(|t| {
                        counted(c, files_touched, |c| {
                            let mut step = sdm.timestep(c, t);
                            for &h in &handles {
                                step.write(h, &vals).unwrap();
                            }
                            step.commit().unwrap()
                        })
                        .1
                    })
                    .collect();
                sdm.finalize(c).unwrap();
                per_step
            });
            let case = format!("{org:?} at p={nprocs}");
            let files = org.files_created(DATASETS.len(), STEPS as usize) as u64;
            assert_eq!(
                opens_closes(&pfs),
                (files, files),
                "{case}: (opens, closes) over the run"
            );
            if org == OrgLevel::Level1 {
                let each = DATASETS.len() as u64;
                for steps in per_step {
                    assert_eq!(steps, vec![(each, each); STEPS as usize], "{case}");
                }
            }
        }
    }
}
