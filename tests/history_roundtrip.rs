//! Integration: history files across runs — registration, replay
//! equivalence, cross-process-count invalidation, corruption fallback,
//! re-registration over an unusable file, block size, and database
//! persistence across "sessions".

use std::sync::Arc;

use sdm::apps::fun3d::{run_sdm, Fun3dOptions};
use sdm::apps::Fun3dWorkload;
use sdm::core::{HistoryBlock, MetadataStore, SqlStore};
use sdm::metadb::Database;
use sdm::mpi::World;
use sdm::pfs::Pfs;
use sdm::sim::MachineConfig;

fn world() -> (Fun3dWorkload, Arc<Pfs>, Arc<Database>) {
    let w = Fun3dWorkload::new(220, 3, 21);
    let pfs = Pfs::new(MachineConfig::test_tiny());
    let db = Arc::new(Database::new());
    w.stage(&pfs);
    (w, pfs, db)
}

fn run(
    w: &Fun3dWorkload,
    pfs: &Arc<Pfs>,
    db: &Arc<Database>,
    nprocs: usize,
    opts: Fun3dOptions,
) -> Vec<sdm::apps::fun3d::Fun3dResult> {
    // Each run gets a fresh store over the shared database, exactly like
    // a separate job session re-attaching to the metadata service.
    let store = sdm::core::CachedStore::shared(db);
    World::run(nprocs, MachineConfig::test_tiny(), {
        let (pfs, store, w, opts) = (Arc::clone(pfs), Arc::clone(&store), w.clone(), opts);
        move |c| run_sdm(c, &pfs, &store, &w, &opts).unwrap()
    })
}

fn history_file(w: &Fun3dWorkload, nprocs: usize) -> String {
    format!("fun3d.hist.{}.{nprocs}", w.mesh.num_edges())
}

fn block_rows(w: &Fun3dWorkload, db: &Arc<Database>, nprocs: usize) -> Vec<HistoryBlock> {
    SqlStore::new(Arc::clone(db))
        .lookup_history_blocks(w.mesh.num_edges() as i64, nprocs as i64)
        .unwrap()
}

const REGISTER: Fun3dOptions = Fun3dOptions {
    org: sdm::core::OrgLevel::Level2,
    use_history: false,
    register_history: true,
};
const REPLAY_OR_REGISTER: Fun3dOptions = Fun3dOptions {
    org: sdm::core::OrgLevel::Level2,
    use_history: true,
    register_history: true,
};

/// A run that finds the registered file unusable goes fresh, registers
/// again over it, and leaves a file of exactly the new blocks that the
/// next run replays.
fn assert_reregisters_cleanly(w: &Fun3dWorkload, pfs: &Arc<Pfs>, db: &Arc<Database>) {
    let first = run(w, pfs, db, 3, REPLAY_OR_REGISTER);
    assert!(first.iter().all(|r| !r.history_hit), "unusable file: miss");
    let rows = block_rows(w, db, 3);
    assert_eq!(rows.len(), 3, "registered again");
    assert_eq!(
        pfs.file_len(&history_file(w, 3)).unwrap(),
        rows.iter().map(|b| b.byte_len as u64).sum::<u64>(),
        "nothing of the old file is left behind the new blocks"
    );
    let second = run(w, pfs, db, 3, REPLAY_OR_REGISTER);
    assert!(second.iter().all(|r| r.history_hit), "the new file replays");
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.partition, b.partition);
    }
}

#[test]
fn reregistration_after_corruption_leaves_no_stale_bytes() {
    let (w, pfs, db) = world();
    run(&w, &pfs, &db, 3, REGISTER);
    // Corrupt the first block and hang a long dead tail on the file.
    let name = history_file(&w, 3);
    let (f, _) = pfs.open(&name, 0.0).unwrap();
    let len = f.len();
    pfs.write_at(&f, 20, &[0xA5; 8], 0.0).unwrap();
    pfs.write_at(&f, len, &vec![0xEE; 3 * len as usize], 0.0)
        .unwrap();
    assert_reregisters_cleanly(&w, &pfs, &db);
}

#[test]
fn version_1_file_misses_reregisters_then_hits() {
    let (w, pfs, db) = world();
    run(&w, &pfs, &db, 3, REGISTER);
    // What an SDMHIST1 registration looks like to this reader: blocks
    // under the old magic, in a file four times as long.
    let name = history_file(&w, 3);
    let (f, _) = pfs.open(&name, 0.0).unwrap();
    let len = f.len();
    for b in block_rows(&w, &db, 3) {
        let magic = 0x5344_4D48_4953_5431u64.to_ne_bytes(); // "SDMHIST1"
        pfs.write_at(&f, b.file_offset as u64, &magic, 0.0).unwrap();
    }
    pfs.write_at(&f, len, &vec![0u8; 3 * len as usize], 0.0)
        .unwrap();
    assert_reregisters_cleanly(&w, &pfs, &db);
}

#[test]
fn a_block_is_under_eight_bytes_per_local_edge() {
    let w = Fun3dWorkload::new(220, 4, 21);
    let pfs = Pfs::new(MachineConfig::test_tiny());
    let db = Arc::new(Database::new());
    w.stage(&pfs);
    run(&w, &pfs, &db, 4, REGISTER);
    let rows = block_rows(&w, &db, 4);
    assert_eq!(rows.len(), 4);
    for b in rows {
        // Version 1 stored 16 bytes per edge and 4 per node.
        assert!(
            b.byte_len < 8 * b.edge_count,
            "rank {}: {} bytes for {} edges",
            b.rank,
            b.byte_len,
            b.edge_count
        );
    }
}

#[test]
fn replay_produces_identical_partitions_and_results() {
    let (w, pfs, db) = world();
    let fresh = run(
        &w,
        &pfs,
        &db,
        3,
        Fun3dOptions {
            register_history: true,
            ..Default::default()
        },
    );
    let replay = run(
        &w,
        &pfs,
        &db,
        3,
        Fun3dOptions {
            use_history: true,
            ..Default::default()
        },
    );
    for (a, b) in fresh.iter().zip(&replay) {
        assert!(!a.history_hit && b.history_hit);
        assert_eq!(a.partition, b.partition, "partitions must be identical");
        assert!(
            (a.p_checksum - b.p_checksum).abs() < 1e-9,
            "results must be identical"
        );
    }
}

#[test]
fn use_history_without_registration_falls_back() {
    let (w, pfs, db) = world();
    let out = run(
        &w,
        &pfs,
        &db,
        3,
        Fun3dOptions {
            use_history: true,
            ..Default::default()
        },
    );
    assert!(
        out.iter().all(|r| !r.history_hit),
        "no registration: must run fresh"
    );
}

#[test]
fn different_process_count_misses() {
    let (w3, pfs, db) = world();
    run(
        &w3,
        &pfs,
        &db,
        3,
        Fun3dOptions {
            register_history: true,
            ..Default::default()
        },
    );
    // Same mesh partitioned for 2 ranks.
    let w2 = Fun3dWorkload::new(220, 2, 21);
    // Note: same problem size key (edge count), different nprocs.
    assert_eq!(w2.mesh.num_edges(), w3.mesh.num_edges());
    let out = run(
        &w2,
        &pfs,
        &db,
        2,
        Fun3dOptions {
            use_history: true,
            ..Default::default()
        },
    );
    assert!(
        out.iter().all(|r| !r.history_hit),
        "2-proc run must miss a 3-proc history"
    );
}

#[test]
fn truncated_history_file_falls_back_and_deregisters() {
    let (w, pfs, db) = world();
    run(
        &w,
        &pfs,
        &db,
        3,
        Fun3dOptions {
            register_history: true,
            ..Default::default()
        },
    );
    // Truncate the history file to a few bytes.
    let name = format!("fun3d.hist.{}.3", w.mesh.num_edges());
    assert!(pfs.exists(&name), "history file {name} must exist");
    let (f, _) = pfs.open(&name, 0.0).unwrap();
    let len = f.len();
    pfs.delete(&name, 0.0).unwrap();
    let (f2, _) = pfs.open_or_create(&name, 0.0).unwrap();
    pfs.write_at(&f2, 0, &vec![0u8; (len / 10) as usize], 0.0)
        .unwrap();

    let out = run(
        &w,
        &pfs,
        &db,
        3,
        Fun3dOptions {
            use_history: true,
            ..Default::default()
        },
    );
    assert!(
        out.iter().all(|r| !r.history_hit),
        "corrupt history must fall back"
    );
    // The poisoned registration is gone: next run misses cleanly too.
    let again = run(
        &w,
        &pfs,
        &db,
        3,
        Fun3dOptions {
            use_history: true,
            ..Default::default()
        },
    );
    assert!(again.iter().all(|r| !r.history_hit));
}

#[test]
fn metadata_persists_across_database_sessions() {
    let (w, pfs, _) = world();
    let dir = tempfile::tempdir().unwrap();
    let db = Arc::new(Database::open(dir.path()).unwrap());
    run(
        &w,
        &pfs,
        &db,
        3,
        Fun3dOptions {
            register_history: true,
            ..Default::default()
        },
    );
    // Close and reopen the durable DB (a new "MySQL session"), keep the
    // PFS.
    drop(db);
    let db2 = Arc::new(Database::open(dir.path()).unwrap());
    let out = run(
        &w,
        &pfs,
        &db2,
        3,
        Fun3dOptions {
            use_history: true,
            ..Default::default()
        },
    );
    assert!(
        out.iter().all(|r| r.history_hit),
        "a reopened metadata DB must still resolve the history file"
    );
}
