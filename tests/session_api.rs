//! Integration tests for the typed session API.
//!
//! * Property: `DataView::compile`'s permutation round-trips — writing
//!   through the permutation and reading back through its inverse is
//!   the identity, for arbitrary (unique, in-range, ascending or
//!   shuffled) map arrays.
//! * `TimestepScope` writes produce exactly the expected files and
//!   bytes at all three file-organization levels, computed from the
//!   written values and each level's naming/append rule; a step pays
//!   one metadata sync per timestep instead of one per dataset and
//!   lands its execution rows in a single store transaction.
//! * A scope's commit drains the step's data before the first execution
//!   row is recorded, and returns with nothing of the step in flight; a
//!   Level-1 commit closes each file inside that drain.
//! * A store error on rank 0 — at group build, commit or read — and an
//!   open the file system refuses fail every rank, with no rank left
//!   waiting.
//! * A write at the far end of a 1 TiB dataset commits and reads back:
//!   the hole before it costs nothing.
//! * Over a logged store, each commit is one transaction and one log
//!   sync, and `StoreStats` reads the same through a wrapper store and
//!   through the stack built by hand.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use sdm::core::store::{self, HistoryBlock, MetadataStore, RunRecord, SharedStore, StoreStats};
use sdm::core::view::DataView;
use sdm::core::SqlStore;
use sdm::core::{CachedStore, ImportDesc, OrgLevel, Sdm, SdmConfig, SdmError, SdmResult, SdmType};
use sdm::metadb::stmt::Stmt;
use sdm::metadb::{Database, DbError, DbResult, MemStorage, ResultSet, Value};
use sdm::mpi::{Comm, MpiError, World};
use sdm::pfs::{FaultPlan, Pfs, PfsError};
use sdm::sim::MachineConfig;

// ---------------------------------------------------------------------
// DataView permutation round-trip (proptest)
// ---------------------------------------------------------------------

/// Deterministic Fisher-Yates, so a generated map array is shuffled
/// rather than ascending as `btree_set` yields it (the two cases take
/// different paths through `DataView::compile`).
fn shuffle(xs: &mut [u64], mut seed: u64) {
    for i in (1..xs.len()).rev() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (seed >> 33) as usize % (i + 1);
        xs.swap(i, j);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn view_permutation_round_trips(
        picks in proptest::collection::btree_set(0u64..400, 0..48),
        seed in 0u64..10_000,
        shuffled in any::<bool>(),
    ) {
        let mut map: Vec<u64> = picks.into_iter().collect();
        if shuffled {
            shuffle(&mut map, seed);
        }
        let v = DataView::compile(&map, 400, SdmType::Double).unwrap();

        // The compiled permutation is a bijection over the local
        // elements and the sorted map is strictly increasing.
        let mut seen = vec![false; map.len()];
        for &p in &v.perm {
            prop_assert!(!seen[p as usize], "perm repeats index {p}");
            seen[p as usize] = true;
        }
        prop_assert!(v.sorted_map.windows(2).all(|w| w[0] < w[1]));

        // write-permute then read-inverse is the identity on values.
        let user: Vec<f64> = map.iter().map(|&g| g as f64 * 1.25 - 3.0).collect();
        let file_order = v.to_file_order(&user).unwrap();
        // In file order, values must sit at their sorted global slots.
        for (k, &g) in v.sorted_map.iter().enumerate() {
            prop_assert_eq!(file_order[k], g as f64 * 1.25 - 3.0);
        }
        let back = v.to_user_order(&file_order).unwrap();
        prop_assert_eq!(back, user);
    }
}

// ---------------------------------------------------------------------
// TimestepScope writes: expected bytes and sync cadence, at every level
// ---------------------------------------------------------------------

const GLOBAL: u64 = 48;
const STEPS: i64 = 4;
const DATASETS: [&str; 3] = ["a", "b", "c"];

fn value(ds: usize, g: u64, t: i64) -> f64 {
    (ds as f64 + 1.0) * 1000.0 + g as f64 + t as f64 * 0.5
}

/// Run the workload and return the backing Pfs, the store and the
/// metadata syncs the steps paid. Each step writes every dataset
/// through one scope, or — with `scope_per_dataset` — through one scope
/// per dataset.
fn run(org: OrgLevel, nprocs: usize, scope_per_dataset: bool) -> (Arc<Pfs>, SharedStore, u64) {
    let pfs = Pfs::new(MachineConfig::test_tiny());
    let store = store::in_memory();
    let syncs = World::run(nprocs, MachineConfig::test_tiny(), {
        let (pfs, store) = (Arc::clone(&pfs), Arc::clone(&store));
        move |c| {
            let cfg = SdmConfig {
                org,
                ..SdmConfig::default()
            };
            let mut sdm = Sdm::initialize_with(c, &pfs, &store, "eqv", cfg).unwrap();
            let mut b = sdm.group(c);
            for name in DATASETS {
                b = b.dataset::<f64>(name, GLOBAL);
            }
            let g = b.build().unwrap();
            let handles: Vec<_> = DATASETS
                .iter()
                .map(|n| g.handle::<f64>(n).unwrap())
                .collect();
            let mine: Vec<u64> = (c.rank() as u64..GLOBAL).step_by(c.size()).collect();
            for &h in &handles {
                sdm.set_view(c, h, &mine).unwrap();
            }
            let before = c.counters().get("sdm.metadata_syncs");
            for t in 0..STEPS {
                let bufs: Vec<Vec<f64>> = (0..DATASETS.len())
                    .map(|d| mine.iter().map(|&g| value(d, g, t)).collect())
                    .collect();
                if scope_per_dataset {
                    for (i, &h) in handles.iter().enumerate() {
                        let mut step = sdm.timestep(c, t);
                        step.write(h, &bufs[i]).unwrap();
                        step.commit().unwrap();
                    }
                } else {
                    let mut step = sdm.timestep(c, t);
                    for (i, &h) in handles.iter().enumerate() {
                        step.write(h, &bufs[i]).unwrap();
                    }
                    step.commit().unwrap();
                }
            }
            let syncs = c.counters().get("sdm.metadata_syncs") - before;
            sdm.finalize(c).unwrap();
            syncs
        }
    });
    (pfs, store, syncs[0])
}

fn file_bytes(pfs: &Arc<Pfs>, name: &str) -> Vec<u8> {
    let len = pfs.file_len(name).unwrap();
    let (f, _) = pfs.open(name, 0.0).unwrap();
    let mut buf = vec![0u8; len as usize];
    pfs.read_exact_at(&f, 0, &mut buf, 0.0).unwrap();
    buf
}

/// One (dataset, timestep) region as it must sit in the file: every
/// global element in index order, little-endian.
fn region(ds: usize, t: i64) -> Vec<u8> {
    (0..GLOBAL)
        .flat_map(|g| value(ds, g, t).to_le_bytes())
        .collect()
}

/// The file set a run must leave behind, with each file's bytes, from
/// the levels' rules: Level 1 one file per (dataset, step); Level 2 one
/// file per dataset, its steps appended; Level 3 one file per group, its
/// steps appended and each step's datasets in staging order.
fn expected_files(org: OrgLevel) -> Vec<(String, Vec<u8>)> {
    let mut files = Vec::new();
    match org {
        OrgLevel::Level1 => {
            for (d, name) in DATASETS.iter().enumerate() {
                for t in 0..STEPS {
                    files.push((format!("eqv.g0.{name}.t{t}.dat"), region(d, t)));
                }
            }
        }
        OrgLevel::Level2 => {
            for (d, name) in DATASETS.iter().enumerate() {
                let bytes = (0..STEPS).flat_map(|t| region(d, t)).collect();
                files.push((format!("eqv.g0.{name}.dat"), bytes));
            }
        }
        OrgLevel::Level3 => {
            let bytes = (0..STEPS)
                .flat_map(|t| (0..DATASETS.len()).flat_map(move |d| region(d, t)))
                .collect();
            files.push(("eqv.g0.dat".to_string(), bytes));
        }
    }
    files.sort();
    files
}

#[test]
fn scoped_writes_produce_expected_bytes_at_all_levels() {
    for org in OrgLevel::all() {
        let (pfs, _, _) = run(org, 3, false);
        let mut names = pfs.list();
        names.sort();
        let expected = expected_files(org);
        assert_eq!(
            names,
            expected.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>(),
            "org {org:?}: file set"
        );
        for (name, bytes) in &expected {
            assert!(
                file_bytes(&pfs, name) == *bytes,
                "org {org:?}: {name} differs from the expected bytes"
            );
        }
    }
}

#[test]
fn scoped_timestep_pays_one_sync_and_one_transaction() {
    let nprocs = 2;
    // Baseline: one scope per dataset pays one sync per dataset write.
    let (_, _, per_dataset_syncs) = run(OrgLevel::Level2, nprocs, true);
    assert_eq!(
        per_dataset_syncs,
        DATASETS.len() as u64 * STEPS as u64,
        "one scope per dataset syncs once per dataset write"
    );
    // One scope per step: exactly one metadata sync per timestep...
    let (_, store, scoped_syncs) = run(OrgLevel::Level2, nprocs, false);
    assert_eq!(
        scoped_syncs, STEPS as u64,
        "scoped path must sync exactly once per timestep"
    );
    // ...and exactly one store transaction per timestep: STEPS scope
    // commits plus the one `allocate_runid` reservation at initialize.
    assert_eq!(
        store.stats().transactions,
        1 + STEPS as u64,
        "each scope commit is one BEGIN..COMMIT"
    );
    // ...and one execution row per (dataset, timestep).
    assert_eq!(
        store.execution_history("eqv").unwrap().len(),
        DATASETS.len() * STEPS as usize
    );
}

// ---------------------------------------------------------------------
// Commit order: data drain, then execution rows
// ---------------------------------------------------------------------

/// The store call a [`RecordingStore`] can be told to refuse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Refuses {
    RecordAccessPattern,
    Flush,
    LookupExecution,
}

/// A store that passes everything on and notes, at each
/// `record_execution`, the timestep and how many PFS writes had been
/// issued by then — except the call it `refuses`, which fails.
struct RecordingStore {
    inner: SharedStore,
    pfs: Arc<Pfs>,
    seen: std::sync::Mutex<Vec<(i64, u64)>>,
    refuses: Option<Refuses>,
}

impl RecordingStore {
    fn new(inner: SharedStore, pfs: &Arc<Pfs>, refuses: Option<Refuses>) -> Self {
        RecordingStore {
            inner,
            pfs: Arc::clone(pfs),
            seen: Default::default(),
            refuses,
        }
    }

    fn at(&self, call: Refuses) -> DbResult<()> {
        if self.refuses == Some(call) {
            Err(DbError::Persist(format!("injected {call:?} failure")))
        } else {
            Ok(())
        }
    }
}

impl MetadataStore for RecordingStore {
    fn ensure_schema(&self) -> DbResult<()> {
        self.inner.ensure_schema()
    }
    fn allocate_runid(&self, application: &str) -> DbResult<i64> {
        self.inner.allocate_runid(application)
    }
    fn latest_runid_for_app(&self, application: &str) -> DbResult<Option<i64>> {
        self.inner.latest_runid_for_app(application)
    }
    fn run_exists(&self, runid: i64) -> DbResult<bool> {
        self.inner.run_exists(runid)
    }
    fn record_run(&self, rec: &RunRecord) -> DbResult<()> {
        self.inner.record_run(rec)
    }
    fn record_access_pattern(
        &self,
        runid: i64,
        dataset: &str,
        data_type: &str,
        storage_order: &str,
        access_pattern: &str,
        global_size: i64,
    ) -> DbResult<()> {
        self.at(Refuses::RecordAccessPattern)?;
        self.inner.record_access_pattern(
            runid,
            dataset,
            data_type,
            storage_order,
            access_pattern,
            global_size,
        )
    }
    fn record_execution(
        &self,
        runid: i64,
        dataset: &str,
        timestep: i64,
        file_offset: i64,
        file_name: &str,
    ) -> DbResult<()> {
        let issued = self.pfs.counters().get("pfs.write_ops");
        self.seen.lock().unwrap().push((timestep, issued));
        self.inner
            .record_execution(runid, dataset, timestep, file_offset, file_name)
    }
    fn lookup_execution(
        &self,
        runid: i64,
        dataset: &str,
        timestep: i64,
    ) -> DbResult<Option<(i64, String)>> {
        self.at(Refuses::LookupExecution)?;
        self.inner.lookup_execution(runid, dataset, timestep)
    }
    fn record_import(
        &self,
        runid: i64,
        imported_name: &str,
        file_name: &str,
        data_type: &str,
        storage_order: &str,
        file_content: &str,
    ) -> DbResult<()> {
        self.inner.record_import(
            runid,
            imported_name,
            file_name,
            data_type,
            storage_order,
            file_content,
        )
    }
    fn record_index_registry(
        &self,
        problem_size: i64,
        num_procs: i64,
        dimension: i64,
        file_name: &str,
    ) -> DbResult<()> {
        self.inner
            .record_index_registry(problem_size, num_procs, dimension, file_name)
    }
    fn lookup_index_registry(&self, problem_size: i64, num_procs: i64) -> DbResult<Option<String>> {
        self.inner.lookup_index_registry(problem_size, num_procs)
    }
    fn record_history_block(
        &self,
        problem_size: i64,
        num_procs: i64,
        block: &HistoryBlock,
    ) -> DbResult<()> {
        self.inner
            .record_history_block(problem_size, num_procs, block)
    }
    fn lookup_history_block(
        &self,
        problem_size: i64,
        num_procs: i64,
        rank: i64,
    ) -> DbResult<Option<HistoryBlock>> {
        self.inner
            .lookup_history_block(problem_size, num_procs, rank)
    }
    fn delete_index_registry(&self, problem_size: i64, num_procs: i64) -> DbResult<()> {
        self.inner.delete_index_registry(problem_size, num_procs)
    }
    fn run(&self, stmt: &Stmt, params: &[Value]) -> DbResult<ResultSet> {
        self.inner.run(stmt, params)
    }
    fn flush(&self) -> DbResult<()> {
        self.at(Refuses::Flush)?;
        self.inner.flush()
    }
    fn database(&self) -> &Arc<Database> {
        self.inner.database()
    }
}

/// The order of a commit: every dataset's bytes are issued and drained
/// before the first execution row is recorded — with a store that does
/// not buffer, a row recorded between two datasets would be in the
/// database while later bytes of the step are still on their way — and
/// when `commit` returns nothing of the step is in flight at the servers.
#[test]
fn commit_drains_the_data_before_it_records_any_row() {
    for org in [OrgLevel::Level1, OrgLevel::Level3] {
        let nprocs = 2;
        let pfs = Pfs::new(MachineConfig::origin2000());
        let recording = Arc::new(RecordingStore::new(store::in_memory(), &pfs, None));
        let store: SharedStore = recording.clone();
        let issued_by_step = World::run(nprocs, MachineConfig::origin2000(), {
            let (pfs, store) = (Arc::clone(&pfs), Arc::clone(&store));
            move |c| {
                let cfg = SdmConfig {
                    org,
                    ..SdmConfig::default()
                };
                let mut sdm = Sdm::initialize_with(c, &pfs, &store, "order", cfg).unwrap();
                let mut b = sdm.group(c);
                for name in DATASETS {
                    b = b.dataset::<f64>(name, GLOBAL);
                }
                let g = b.build().unwrap();
                let handles: Vec<_> = DATASETS
                    .iter()
                    .map(|n| g.handle::<f64>(n).unwrap())
                    .collect();
                let mine: Vec<u64> = (c.rank() as u64..GLOBAL).step_by(c.size()).collect();
                for &h in &handles {
                    sdm.set_view(c, h, &mine).unwrap();
                }
                let mut issued_by_step = Vec::new();
                for t in 0..STEPS {
                    let mut step = sdm.timestep(c, t);
                    for (d, &h) in handles.iter().enumerate() {
                        let buf: Vec<f64> = mine.iter().map(|&g| value(d, g, t)).collect();
                        step.write(h, &buf).unwrap();
                    }
                    step.commit().unwrap();
                    assert!(
                        c.now() >= pfs.drained_at(),
                        "org {org:?} step {t} rank {}: back at {} s, servers busy until {} s",
                        c.rank(),
                        c.now(),
                        pfs.drained_at()
                    );
                    issued_by_step.push(pfs.counters().get("pfs.write_ops"));
                    // Nobody starts the next step before everyone looked.
                    c.barrier();
                }
                sdm.finalize(c).unwrap();
                issued_by_step
            }
        });
        let seen = recording.seen.lock().unwrap();
        assert_eq!(seen.len(), DATASETS.len() * STEPS as usize);
        for &(t, issued) in seen.iter() {
            assert_eq!(
                issued, issued_by_step[0][t as usize],
                "org {org:?}: a row of step {t} was recorded with writes of the step still to come"
            );
        }
    }
}

// ---------------------------------------------------------------------
// A store error on rank 0 reaches every rank
// ---------------------------------------------------------------------

/// Build a group, commit one Level-2 step, read it back, finalize.
fn one_step(c: &mut Comm, pfs: &Arc<Pfs>, store: &SharedStore) -> SdmResult<()> {
    let cfg = SdmConfig {
        org: OrgLevel::Level2,
        ..SdmConfig::default()
    };
    let mut sdm = Sdm::initialize_with(c, pfs, store, "faulty", cfg)?;
    let g = sdm.group(c).dataset::<f64>("p", GLOBAL).build()?;
    let h = g.handle::<f64>("p")?;
    let mine: Vec<u64> = (c.rank() as u64..GLOBAL).step_by(c.size()).collect();
    sdm.set_view(c, h, &mine)?;
    let mut step = sdm.timestep(c, 0);
    step.write(h, &vec![1.0; mine.len()])?;
    step.commit()?;
    let mut back = vec![0.0; mine.len()];
    sdm.read_handle(c, h, 0, &mut back)?;
    sdm.finalize(c)
}

/// Run `rank` on `nprocs` ranks, failing the test (`what` names the
/// fault) if the world has not returned within 20 s.
fn run_with_watchdog<T: Send + 'static>(
    what: String,
    nprocs: usize,
    rank: impl Fn(&mut Comm) -> T + Send + Sync + 'static,
) -> Vec<T> {
    let (tx, rx) = mpsc::channel();
    // Not joined on a timeout: a hung world never returns, and the
    // test reports the hang instead of waiting with it.
    let world = std::thread::spawn(move || {
        let out = World::run(nprocs, MachineConfig::test_tiny(), rank);
        let _ = tx.send(out);
    });
    match rx.recv_timeout(Duration::from_secs(20)) {
        Ok(out) => out,
        Err(RecvTimeoutError::Timeout) => {
            panic!("{what}: ranks still waiting after 20 s")
        }
        Err(RecvTimeoutError::Disconnected) => match world.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(()) => unreachable!("the world thread sends before it ends"),
        },
    }
}

/// A refused build, commit or read fails on rank 0 with the store's
/// error and on every other rank with rank 0's message — none of them
/// is left waiting at a collective rank 0 never enters.
#[test]
fn a_store_error_on_rank_0_fails_every_rank_without_a_hang() {
    for call in [
        Refuses::RecordAccessPattern,
        Refuses::Flush,
        Refuses::LookupExecution,
    ] {
        let pfs = Pfs::new(MachineConfig::test_tiny());
        let store: SharedStore =
            Arc::new(RecordingStore::new(store::in_memory(), &pfs, Some(call)));
        let out = run_with_watchdog(format!("{call:?} refused"), 3, move |c| {
            one_step(c, &pfs, &store)
        });
        let message = match &out[0] {
            Err(e @ SdmError::Db(_)) => e.to_string(),
            other => panic!("{call:?} refused: rank 0 returned {other:?}"),
        };
        assert!(message.contains(&format!("injected {call:?} failure")));
        for (rank, got) in out.iter().enumerate().skip(1) {
            match got {
                Err(SdmError::Root(m)) if *m == message => {}
                other => panic!("{call:?} refused: rank {rank} returned {other:?}"),
            }
        }
    }
}

/// An open the file system refuses fails the commit on every rank, with
/// the same error and no rank left waiting: rank 0 alone asks the
/// metadata service and broadcasts the outcome.
#[test]
fn a_refused_collective_open_fails_every_rank_without_a_hang() {
    let file = OrgLevel::Level2.file_name("faulty", 0, "p", 0);
    let pfs = Pfs::with_faults(
        MachineConfig::test_tiny(),
        FaultPlan::none().fail_open(file.clone()),
    );
    let store = store::in_memory();
    let out = run_with_watchdog(format!("opening {file} refused"), 3, move |c| {
        one_step(c, &pfs, &store)
    });
    for (rank, got) in out.iter().enumerate() {
        assert!(
            matches!(got, Err(SdmError::Mpi(MpiError::Pfs(PfsError::OpenFailed(n)))) if *n == file),
            "rank {rank} returned {got:?}"
        );
    }
}

/// A map-array import whose element count overflows the byte offsets
/// is refused with `Usage` on every rank before the collective open, so
/// no rank waits for another and the ranks still finalize together.
#[test]
fn an_import_whose_byte_size_overflows_fails_every_rank_without_a_hang() {
    let pfs = Pfs::new(MachineConfig::test_tiny());
    let store = store::in_memory();
    let out = run_with_watchdog("an overflowing import".into(), 2, move |c| {
        let mut sdm = Sdm::initialize(c, &pfs, &store, "overflow")?;
        let h = sdm.group(c).dataset::<f64>("d", 4).build()?.group();
        sdm.make_importlist(c, h, vec![ImportDesc::data("x", "x.dat")])?;
        let map = [c.rank() as u64, 3];
        let got = sdm.import_view::<f64>(c, h, "x", 0, &map, u64::MAX / 4);
        sdm.finalize(c)?;
        got
    });
    for (rank, got) in out.iter().enumerate() {
        assert!(
            matches!(got, Err(SdmError::Usage(_))),
            "rank {rank} returned {got:?}"
        );
    }
}

// ---------------------------------------------------------------------
// A Level-1 commit closes its files inside the drain
// ---------------------------------------------------------------------

/// Eight Level-1 datasets of 32 KB on two ranks: every file closes as
/// soon as it is drained, so `commit` returns one close, one metadata
/// round trip and a few message latencies after the servers finish,
/// not after a close per file.
#[test]
fn a_level_1_commit_returns_one_close_and_one_round_trip_after_the_drain() {
    const N: u64 = 32 * 1024 / 8;
    let cfg = MachineConfig::origin2000();
    let slack = cfg.io.close_cost
        + cfg.io.metadata_cost
        + 4.0 * (cfg.network.latency + cfg.network.overhead);
    let pfs = Pfs::new(cfg.clone());
    let store = sdm::core::store::in_memory();
    World::run(2, cfg, |c| {
        let level1 = SdmConfig {
            org: OrgLevel::Level1,
            ..SdmConfig::default()
        };
        let mut sdm = Sdm::initialize_with(c, &pfs, &store, "drain", level1).unwrap();
        let names: Vec<String> = (0..8).map(|d| format!("d{d}")).collect();
        let mut b = sdm.group(c);
        for name in &names {
            b = b.dataset::<f64>(name.as_str(), N);
        }
        let g = b.build().unwrap();
        let mine: Vec<u64> = (c.rank() as u64..N).step_by(c.size()).collect();
        let mut handles = Vec::new();
        for name in &names {
            let h = g.handle::<f64>(name).unwrap();
            sdm.set_view(c, h, &mine).unwrap();
            handles.push(h);
        }
        let vals: Vec<f64> = mine.iter().map(|&g| g as f64).collect();
        let mut step = sdm.timestep(c, 0);
        for &h in &handles {
            step.write(h, &vals).unwrap();
        }
        step.commit().unwrap();
        let late = c.now() - pfs.drained_at();
        assert!(
            (0.0..=slack).contains(&late),
            "rank {}: commit returned {:.3} ms after the drain, allowed {:.3} ms",
            c.rank(),
            late * 1e3,
            slack * 1e3
        );
        sdm.finalize(c).unwrap();
    });
}

// ---------------------------------------------------------------------
// A far write leaves a hole, not a terabyte of zeros
// ---------------------------------------------------------------------

/// Two ranks each write one element at the end of a Level-1 dataset of
/// 2^37 `f64`s (1 TiB, inside the `i64` limit `GroupBuilder` enforces).
/// The step commits, both values read back, and the file is 2^40 bytes
/// long: the file system stores what was written, not the hole before it.
#[test]
fn a_write_at_the_end_of_a_1_tib_dataset_commits_and_reads_back() {
    const N: u64 = 1 << 37;
    let pfs = Pfs::new(MachineConfig::test_tiny());
    let store = sdm::core::store::in_memory();
    let back = World::run(2, MachineConfig::test_tiny(), |c| {
        let level1 = SdmConfig {
            org: OrgLevel::Level1,
            ..SdmConfig::default()
        };
        let mut sdm = Sdm::initialize_with(c, &pfs, &store, "far", level1).unwrap();
        let g = sdm.group(c).dataset::<f64>("x", N).build().unwrap();
        let h = g.handle::<f64>("x").unwrap();
        let mine = [N - 2 + c.rank() as u64];
        sdm.set_view(c, h, &mine).unwrap();
        let mut step = sdm.timestep(c, 0);
        step.write(h, &[mine[0] as f64]).unwrap();
        step.commit().unwrap();
        let mut back = [0.0];
        sdm.read_handle(c, h, 0, &mut back).unwrap();
        sdm.finalize(c).unwrap();
        back[0]
    });
    assert_eq!(back, vec![(N - 2) as f64, (N - 1) as f64]);
    let file = OrgLevel::Level1.file_name("far", 0, "x", 0);
    assert_eq!(pfs.file_len(&file).unwrap(), 1 << 40);
}

// ---------------------------------------------------------------------
// StoreStats over a logged store
// ---------------------------------------------------------------------

/// Initialize, build 8 datasets and commit 3 timesteps on 2 ranks. Rank
/// 0 alone calls the store, so the stats it reads after initialize and
/// after each commit are exact.
fn stats_per_commit(store: &SharedStore) -> Vec<StoreStats> {
    let pfs = Pfs::new(MachineConfig::test_tiny());
    let per_rank = World::run(2, MachineConfig::test_tiny(), |c| {
        let mut sdm = Sdm::initialize(c, &pfs, store, "stats").unwrap();
        let names: Vec<String> = (0..8).map(|d| format!("d{d}")).collect();
        let mut b = sdm.group(c);
        for name in &names {
            b = b.dataset::<f64>(name.as_str(), GLOBAL);
        }
        let g = b.build().unwrap();
        let mine: Vec<u64> = (c.rank() as u64..GLOBAL).step_by(c.size()).collect();
        let handles: Vec<_> = names.iter().map(|n| g.handle::<f64>(n).unwrap()).collect();
        for &h in &handles {
            sdm.set_view(c, h, &mine).unwrap();
        }
        let mut seen = vec![store.stats()];
        for t in 0..3 {
            let mut step = sdm.timestep(c, t);
            for (d, &h) in handles.iter().enumerate() {
                let vals: Vec<f64> = mine.iter().map(|&g| value(d, g, t)).collect();
                step.write(h, &vals).unwrap();
            }
            step.commit().unwrap();
            seen.push(store.stats());
        }
        sdm.finalize(c).unwrap();
        seen
    });
    per_rank.into_iter().next().unwrap()
}

/// What the benchmark's logged workload reads. Each timestep commit is
/// one transaction and one log sync, none batched by group commit; the
/// `logged_in_memory` stack reports exactly what the stack built by hand
/// over a `MemStorage` log reports, and its `log_bytes` is the log that
/// storage holds; a wrapper that does not implement `stats` reports its
/// inner store's numbers.
#[test]
fn a_logged_store_counts_one_transaction_and_one_sync_per_commit() {
    let logged = stats_per_commit(&store::logged_in_memory().unwrap());
    for (t, w) in logged.windows(2).enumerate() {
        assert_eq!(w[1].transactions - w[0].transactions, 1, "commit {t}");
        assert_eq!(w[1].log_syncs - w[0].log_syncs, 1, "commit {t}");
        assert!(w[1].log_bytes > w[0].log_bytes, "commit {t} logged nothing");
    }
    assert!(logged.iter().all(|s| s.group_commit_batched == 0));

    let (log, handle) = MemStorage::new();
    let db = Arc::new(Database::open_with_storage(Box::new(log)).unwrap());
    let sql = SqlStore::new(Arc::clone(&db));
    sql.ensure_schema().unwrap();
    let by_hand: SharedStore = Arc::new(CachedStore::new(Arc::new(sql)));
    let by_hand_stats = stats_per_commit(&by_hand);
    assert_eq!(by_hand_stats, logged);
    drop((by_hand, db));
    let persisted = handle.persisted();
    let log_bytes = persisted.segments.iter().map(Vec::len).sum::<usize>()
        + persisted.snapshot.map_or(0, |s| s.len());
    assert_eq!(logged.last().unwrap().log_bytes, log_bytes as u64);

    let pfs = Pfs::new(MachineConfig::test_tiny());
    let wrapped: SharedStore = Arc::new(RecordingStore::new(
        store::logged_in_memory().unwrap(),
        &pfs,
        None,
    ));
    assert_eq!(stats_per_commit(&wrapped), logged);
}
