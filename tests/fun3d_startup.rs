//! Integration: the FUN3D start-up path at the `Sdm` level — the ring,
//! the history replay and the sequential reference hand back the same
//! `PartitionedIndex` (numbering included), a replay talks to the
//! database twice whatever the process count, and the run and registry
//! rows carry SDM's fixed date, time and dimension.

use std::sync::Arc;

use sdm::apps::Fun3dWorkload;
use sdm::core::schema::{IndexCol, IndexHistoryCol, IndexHistoryRow, IndexRow, RunCol, RunRow};
use sdm::core::{CachedStore, ImportDesc, MetadataStore, PartitionedIndex, Sdm, SdmConfig};
use sdm::metadb::stmt::{Delete, Query, TypedColumn};
use sdm::metadb::{Database, Value};
use sdm::mpi::{Comm, World};
use sdm::pfs::Pfs;
use sdm::sim::MachineConfig;

struct Site {
    nprocs: usize,
    w: Fun3dWorkload,
    pfs: Arc<Pfs>,
    db: Arc<Database>,
}

impl Site {
    fn new(nprocs: usize) -> Self {
        let w = Fun3dWorkload::new(200, nprocs, 5);
        let pfs = Pfs::new(MachineConfig::test_tiny());
        w.stage(&pfs).unwrap();
        Site {
            nprocs,
            w,
            pfs,
            db: Arc::new(Database::new()),
        }
    }

    /// One job: `f` on every rank over a fresh store on the site's
    /// database, like a later session re-attaching.
    fn job<T: Send + 'static>(
        &self,
        f: impl Fn(&mut Comm, &mut Sdm, &Fun3dWorkload) -> T + Send + Sync + 'static,
    ) -> Vec<T> {
        let store = CachedStore::shared(&self.db);
        let (pfs, w) = (Arc::clone(&self.pfs), self.w.clone());
        World::run(self.nprocs, MachineConfig::test_tiny(), move |c| {
            let mut sdm =
                Sdm::initialize_with(c, &pfs, &store, "startup", SdmConfig::default()).unwrap();
            f(c, &mut sdm, &w)
        })
    }

    /// Import the edges, run the ring, register the result.
    fn distribute_and_register(&self) -> Vec<PartitionedIndex> {
        self.job(|c, sdm, w| {
            let total = w.mesh.num_edges() as u64;
            let h = sdm.group(c).dataset::<f64>("d", 1).build().unwrap().group();
            sdm.make_importlist(
                c,
                h,
                vec![
                    ImportDesc::index("edge1", &w.mesh_file),
                    ImportDesc::index("edge2", &w.mesh_file),
                ],
            )
            .unwrap();
            let (start, e1) = sdm
                .import_contiguous::<i32>(c, h, "edge1", w.layout.edge1_offset(), total)
                .unwrap();
            let (_, e2) = sdm
                .import_contiguous::<i32>(c, h, "edge2", w.layout.edge2_offset(), total)
                .unwrap();
            let pi = sdm
                .partition_index_fresh(c, &w.partitioning_vector, start, &e1, &e2)
                .unwrap();
            sdm.index_registry(c, &pi, total).unwrap();
            pi
        })
    }

    /// A replay on every rank, and the `sdm.metadata_syncs` it added
    /// across the world.
    fn replay(&self) -> Vec<(Option<PartitionedIndex>, u64)> {
        self.job(|c, sdm, w| {
            c.barrier();
            let syncs = c.counters().get("sdm.metadata_syncs");
            c.barrier();
            let found = sdm
                .partition_index_from_history(c, w.mesh.num_edges() as u64)
                .unwrap();
            c.barrier();
            (found, c.counters().get("sdm.metadata_syncs") - syncs)
        })
    }
}

#[test]
fn fresh_history_and_reference_are_one_partition() {
    for nprocs in [1, 2, 3] {
        let site = Site::new(nprocs);
        let fresh = site.distribute_and_register();
        let replayed = site.replay();
        let (e1, e2) = site.w.mesh.indirection_arrays();
        for rank in 0..nprocs {
            let want =
                Sdm::partition_index_reference(&site.w.partitioning_vector, &e1, &e2, rank as u32);
            // Whole structs: the four lists and the local numbering.
            assert_eq!(fresh[rank], want, "ring, rank {rank} of {nprocs}");
            assert_eq!(
                replayed[rank].0.as_ref(),
                Some(&want),
                "replay, rank {rank} of {nprocs}"
            );
        }
    }
}

#[test]
fn a_replay_asks_the_database_twice_at_any_process_count() {
    for nprocs in [1, 3, 8] {
        let site = Site::new(nprocs);
        // Nothing registered: the registry lookup alone.
        for (found, syncs) in site.replay() {
            assert!(found.is_none());
            assert_eq!(syncs, 1, "miss at p={nprocs}");
        }
        site.distribute_and_register();
        // Registered: the registry row, then every rank's block row.
        for (found, syncs) in site.replay() {
            assert!(found.is_some());
            assert_eq!(syncs, 2, "hit at p={nprocs}");
        }
    }
}

#[test]
fn one_missing_block_row_sends_every_rank_to_the_fresh_path() {
    let site = Site::new(3);
    site.distribute_and_register();
    site.db
        .exec_stmt(
            &Delete::<IndexHistoryRow>::filter(IndexHistoryCol::Rank.eq(1i64)).compile(),
            &[],
        )
        .unwrap();
    assert!(
        site.replay().iter().all(|(found, _)| found.is_none()),
        "ranks 0 and 2 have their rows, but the replay is all or nothing"
    );
    // The poisoned registration is gone with its remaining rows.
    let store = sdm::core::SqlStore::new(Arc::clone(&site.db));
    let key = (site.w.mesh.num_edges() as i64, 3);
    assert_eq!(store.lookup_index_registry(key.0, key.1).unwrap(), None);
    assert_eq!(store.lookup_history_blocks(key.0, key.1).unwrap(), []);
}

#[test]
fn run_and_registry_rows_record_the_fixed_date_time_and_dimension() {
    let site = Site::new(2);
    site.distribute_and_register();
    let run = site
        .db
        .exec_stmt(
            &Query::<RunRow>::filter(RunCol::Application.eq("startup"))
                .select(&[
                    RunCol::Dimension,
                    RunCol::Year,
                    RunCol::Month,
                    RunCol::Day,
                    RunCol::Hour,
                    RunCol::Min,
                ])
                .compile(),
            &[],
        )
        .unwrap();
    let ints = |xs: &[i64]| xs.iter().map(|&x| Value::Int(x)).collect::<Vec<_>>();
    // Three dimensions, on the paper's arXiv date at noon.
    assert_eq!(run.rows, vec![ints(&[3, 2001, 2, 20, 12, 0])]);
    let registry = site
        .db
        .exec_stmt(
            &Query::<IndexRow>::all()
                .select(&[IndexCol::Dimension])
                .compile(),
            &[],
        )
        .unwrap();
    assert_eq!(registry.rows, vec![ints(&[3])]);
}
