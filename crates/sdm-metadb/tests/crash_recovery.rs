//! Crash-recovery property tests: kill the database at *every* point.
//!
//! The durability contract (`src/wal/`): a transaction whose COMMIT
//! returned is recovered exactly; a transaction that never committed —
//! rolled back, or in flight when the crash hit — leaves no trace. These
//! tests enforce the contract mechanically:
//!
//! * run a workload against the fault-injectable in-memory backend,
//!   recording the oracle state at every WAL byte boundary;
//! * then simulate a crash at **every byte** of the log (truncation) and
//!   at corrupted positions (torn writes flipping bits inside a frame),
//!   reopen, and demand the recovered state equal the oracle state of
//!   the last boundary at or before the cut;
//! * plus live `crash_after_bytes` faults (the storage dies mid-append),
//!   checkpoint crash windows, and the real file backend with a
//!   physically truncated segment.

use proptest::prelude::*;
use sdm_metadb::{Database, DbError, DbResult, MemPersisted, MemStorage, Value, WalFaults};

// ---------------------------------------------------------------- workload

/// One workload step. Every variant is applied through SQL autocommit or
/// an explicit transaction, so each completed op is a committed (and
/// therefore durable) transaction — one oracle boundary.
#[derive(Debug, Clone)]
enum Op {
    /// Autocommit `INSERT INTO t VALUES (k, v)`.
    Insert(i64, i64),
    /// Autocommit `UPDATE t SET v = v WHERE k = k`.
    Update(i64, i64),
    /// Autocommit `DELETE FROM t WHERE k = k`.
    Delete(i64),
    /// Autocommit `DELETE FROM t` (logs a CLEAR record).
    Clear,
    /// One transaction of inserts that commits — all rows or none.
    TxCommit(Vec<(i64, i64)>),
    /// One transaction of inserts that rolls back — must never resurrect.
    TxRollback(Vec<(i64, i64)>),
    /// `CREATE INDEX tk ON t (k)` / `DROP INDEX tk ON t` (idempotence
    /// errors ignored: an invalid DDL statement logs nothing).
    CreateIndex,
    DropIndex,
    /// `CREATE TABLE u …` / `DROP TABLE u` (ignored when wrong-state).
    CreateTable2,
    DropTable2,
}

/// Apply one op. Wrong-state DDL errors (index/table already there or
/// missing) are tolerated — the executor pre-validates, so a rejected
/// statement appends nothing to the log and mutates nothing. Every
/// *other* error (a failed fsync above all) propagates: the op did not
/// durably happen.
fn apply(db: &Database, op: &Op) -> DbResult<()> {
    // Wrong-state DDL is a no-op, not a failure.
    let ddl = |r: DbResult<sdm_metadb::ResultSet>| match r {
        Ok(_)
        | Err(DbError::IndexExists(_))
        | Err(DbError::NoSuchIndex(_))
        | Err(DbError::TableExists(_))
        | Err(DbError::NoSuchTable(_)) => Ok(()),
        Err(e) => Err(e),
    };
    match op {
        Op::Insert(k, v) => {
            db.exec(
                "INSERT INTO t VALUES (?, ?)",
                &[Value::Int(*k), Value::Int(*v)],
            )?;
        }
        Op::Update(k, v) => {
            db.exec(
                "UPDATE t SET v = ? WHERE k = ?",
                &[Value::Int(*v), Value::Int(*k)],
            )?;
        }
        Op::Delete(k) => {
            db.exec("DELETE FROM t WHERE k = ?", &[Value::Int(*k)])?;
        }
        Op::Clear => {
            db.exec("DELETE FROM t", &[])?;
        }
        Op::TxCommit(rows) => {
            db.transaction(|tx| {
                for (k, v) in rows {
                    tx.exec(
                        "INSERT INTO t VALUES (?, ?)",
                        &[Value::Int(*k), Value::Int(*v)],
                    )?;
                }
                Ok(())
            })?;
        }
        Op::TxRollback(rows) => {
            let rollback = DbError::Tx("roll back".into());
            let rolled = db.transaction(|tx| {
                for (k, v) in rows {
                    tx.exec(
                        "INSERT INTO t VALUES (?, ?)",
                        &[Value::Int(*k), Value::Int(*v)],
                    )?;
                }
                Err(rollback.clone())
            });
            match rolled {
                Err(e) if e == rollback => {}
                other => other?,
            }
        }
        Op::CreateIndex => ddl(db.exec("CREATE INDEX tk ON t (k)", &[]))?,
        Op::DropIndex => ddl(db.exec("DROP INDEX tk ON t", &[]))?,
        Op::CreateTable2 => ddl(db.exec("CREATE TABLE u (a INT)", &[]))?,
        Op::DropTable2 => ddl(db.exec("DROP TABLE u", &[]))?,
    }
    Ok(())
}

/// Observable database state: the ordered rows of `t` and `u`, `None`
/// when the table does not exist. Index presence is exercised through
/// replay (CREATE/DROP INDEX records) but equality is judged on rows.
type State = (Option<Vec<Vec<Value>>>, Option<Vec<Vec<Value>>>);

fn dump(db: &Database, table: &str) -> Option<Vec<Vec<Value>>> {
    let sql = match table {
        "t" => "SELECT k, v FROM t ORDER BY k, v",
        _ => "SELECT a FROM u ORDER BY a",
    };
    db.exec(sql, &[]).ok().map(|rs| rs.rows)
}

fn state(db: &Database) -> State {
    (dump(db, "t"), dump(db, "u"))
}

/// Reopen a database from a snapshot plus a (possibly cut) log.
fn reopen(snapshot: Option<Vec<u8>>, log: &[u8]) -> Database {
    let (storage, _h) = MemStorage::from_persisted(MemPersisted {
        snapshot,
        segments: vec![log.to_vec()],
    });
    Database::open_with_storage(Box::new(storage)).unwrap()
}

/// Run `ops` against a fresh in-memory durable database (creating table
/// `t` first) and return the full log plus the oracle: `(boundary,
/// state)` pairs, starting at `(0, empty-pre-create state)`.
fn run_workload(ops: &[Op]) -> (Vec<u8>, Vec<(u64, State)>) {
    let (storage, h) = MemStorage::new();
    let db = Database::open_with_storage(Box::new(storage)).unwrap();
    let mut oracle: Vec<(u64, State)> = vec![(0, state(&db))];
    db.exec("CREATE TABLE t (k INT, v INT)", &[]).unwrap();
    oracle.push((h.log_len(), state(&db)));
    for op in ops {
        apply(&db, op).unwrap();
        oracle.push((h.log_len(), state(&db)));
    }
    let log = h.persisted().log_bytes();
    assert_eq!(log.len() as u64, h.log_len());
    (log, oracle)
}

/// The oracle state for a crash at byte `cut`: the last boundary at or
/// before the cut — everything past it is an uncommitted torn tail.
fn expected_at(oracle: &[(u64, State)], cut: u64) -> &State {
    &oracle
        .iter()
        .rev()
        .find(|(b, _)| *b <= cut)
        .expect("boundary 0 always present")
        .1
}

// ----------------------------------------------------- every-byte cuts

/// A fixed workload covering every redo record kind, cut at every
/// single byte of the log. Deterministic twin of the proptest below, so
/// a regression fails without shrinking.
#[test]
fn scripted_workload_survives_a_cut_at_every_byte() {
    let ops = vec![
        Op::Insert(1, 10),
        Op::Insert(2, 20),
        Op::CreateIndex,
        Op::TxCommit(vec![(3, 30), (4, 40)]),
        Op::Update(2, 21),
        Op::TxRollback(vec![(9, 90)]),
        Op::Delete(1),
        Op::CreateTable2,
        Op::DropIndex,
        Op::Clear,
        Op::DropTable2,
        Op::Insert(5, 50),
    ];
    let (log, oracle) = run_workload(&ops);
    assert!(log.len() > 200, "workload produced a real log");
    for cut in 0..=log.len() {
        let db = reopen(None, &log[..cut]);
        assert_eq!(
            &state(&db),
            expected_at(&oracle, cut as u64),
            "cut at byte {cut} of {}",
            log.len()
        );
    }
}

/// Rolled-back work must not resurrect at *any* cut point — even a cut
/// that lands inside the rolled-back transaction's own frames.
#[test]
fn rolled_back_rows_never_resurrect_at_any_cut() {
    let marker = 777;
    let ops = vec![
        Op::Insert(1, 10),
        Op::TxRollback(vec![(marker, marker)]),
        Op::Insert(2, 20),
    ];
    let (log, _) = run_workload(&ops);
    for cut in 0..=log.len() {
        let db = reopen(None, &log[..cut]);
        if let Some(rows) = dump(&db, "t") {
            assert!(
                !rows.iter().any(|r| r[0] == Value::Int(marker)),
                "rolled-back row resurrected at cut {cut}"
            );
        }
    }
}

/// Monotonic txids across reopens: recovery must restart the txid
/// counter past everything in the log — including aborted transactions —
/// or a reused txid could make old frames look committed.
#[test]
fn txids_stay_monotonic_across_reopen() {
    let ops = vec![
        Op::Insert(1, 1),
        Op::TxRollback(vec![(2, 2)]),
        Op::Insert(3, 3),
    ];
    let (log, oracle) = run_workload(&ops);
    let db = reopen(None, &log);
    db.exec("INSERT INTO t VALUES (4, 4)", &[]).unwrap();
    let info = db.recovery_info().unwrap();
    assert!(info.last_committed_tx > 0);
    assert_eq!(
        dump(&db, "t").unwrap().len(),
        oracle.last().unwrap().1 .0.as_ref().unwrap().len() + 1
    );
}

// ------------------------------------------------------ random workloads

fn arb_op() -> impl Strategy<Value = Op> {
    (
        0u8..10,
        0i64..8,
        0i64..100,
        proptest::collection::vec((0i64..8, 0i64..100), 1..4),
    )
        .prop_map(|(sel, k, v, rows)| match sel {
            0 | 1 => Op::Insert(k, v),
            2 => Op::Update(k, v),
            3 => Op::Delete(k),
            4 => Op::Clear,
            5 => Op::TxCommit(rows),
            6 => Op::TxRollback(rows),
            7 => Op::CreateIndex,
            8 => Op::DropIndex,
            _ => {
                if k % 2 == 0 {
                    Op::CreateTable2
                } else {
                    Op::DropTable2
                }
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random workloads, every-byte cuts: for each cut the recovered
    /// state equals the last committed oracle state. This is the
    /// paper-facing guarantee: no lost committed transaction, no
    /// resurrected uncommitted one, at any crash point.
    #[test]
    fn recovered_state_is_last_committed_at_every_cut(
        ops in proptest::collection::vec(arb_op(), 1..10),
    ) {
        let (log, oracle) = run_workload(&ops);
        for cut in 0..=log.len() {
            let db = reopen(None, &log[..cut]);
            prop_assert_eq!(
                &state(&db),
                expected_at(&oracle, cut as u64),
                "cut at byte {} of {}", cut, log.len()
            );
        }
    }

    /// Torn writes: flip a byte inside the log (not just truncate).
    /// CRC validation must stop replay at the frame containing the
    /// corruption, landing on the last boundary before it.
    #[test]
    fn torn_write_corruption_recovers_to_a_prior_boundary(
        ops in proptest::collection::vec(arb_op(), 1..8),
        poke in 0usize..4096,
        flip in 1u8..255,
    ) {
        let (log, oracle) = run_workload(&ops);
        // CREATE TABLE t always logs, so the log is never empty.
        prop_assert!(!log.is_empty());
        let poke = poke % log.len();
        let mut torn = log.clone();
        torn[poke] ^= flip;
        let db = reopen(None, &torn);
        let got = state(&db);
        // The corrupted frame starts at or after the last boundary
        // ≤ poke; replay keeps everything before that frame, and a
        // mid-transaction stop discards the uncommitted pieces — so the
        // recovered state is *some* boundary state at or before poke's.
        let valid: Vec<&State> = oracle
            .iter()
            .filter(|(b, _)| *b <= poke as u64)
            .map(|(_, s)| s)
            .collect();
        prop_assert!(
            valid.contains(&&got),
            "corruption at byte {} recovered to a non-boundary state", poke
        );
    }

    /// Live crash: the storage itself dies mid-append after a random
    /// byte budget. Ops fail from that point on; the harvested log must
    /// recover to the state after the last *successful* op.
    #[test]
    fn live_crash_after_n_bytes_keeps_every_acknowledged_commit(
        ops in proptest::collection::vec(arb_op(), 1..10),
        budget in 1u64..2000,
    ) {
        let (storage, h) =
            MemStorage::with_faults(WalFaults::none().crash_after_bytes(budget));
        let db = Database::open_with_storage(Box::new(storage)).unwrap();
        let mut last_ok: Option<State> = None;
        if db.exec("CREATE TABLE t (k INT, v INT)", &[]).is_ok() {
            last_ok = Some(state(&db));
            for op in &ops {
                // After the crash point every durable op errors; the
                // first failure ends the run (the process "died").
                if apply(&db, op).is_err() {
                    break;
                }
                last_ok = Some(state(&db));
            }
        }
        let p = h.persisted();
        let (storage2, _h2) = MemStorage::from_persisted(p);
        let db2 = Database::open_with_storage(Box::new(storage2)).unwrap();
        if let Some(exp) = last_ok {
            prop_assert_eq!(state(&db2), exp, "acknowledged commit lost");
        } else {
            prop_assert_eq!(state(&db2), (None, None));
        }
    }

    /// Checkpoint crash window: cut the post-checkpoint log at every
    /// byte. The snapshot floor holds — recovery never regresses below
    /// the checkpointed state, and replays exactly the committed suffix.
    #[test]
    fn checkpoint_then_cuts_replay_exactly_the_committed_suffix(
        pre in proptest::collection::vec(arb_op(), 1..6),
        post in proptest::collection::vec(arb_op(), 1..6),
    ) {
        let (storage, h) = MemStorage::new();
        let db = Database::open_with_storage(Box::new(storage)).unwrap();
        db.exec("CREATE TABLE t (k INT, v INT)", &[]).unwrap();
        for op in &pre {
            apply(&db, op).unwrap();
        }
        db.checkpoint().unwrap();
        let mut oracle: Vec<(u64, State)> = vec![(h.log_len(), state(&db))];
        for op in &post {
            apply(&db, op).unwrap();
            oracle.push((h.log_len(), state(&db)));
        }
        let p = h.persisted();
        prop_assert!(p.snapshot.is_some(), "checkpoint installed a snapshot");
        let log = p.log_bytes();
        for cut in 0..=log.len() {
            let db2 = reopen(p.snapshot.clone(), &log[..cut]);
            let exp = &oracle
                .iter()
                .rev()
                .find(|(b, _)| *b <= cut as u64)
                .unwrap_or(&oracle[0])
                .1;
            prop_assert_eq!(&state(&db2), exp, "cut at byte {}", cut);
            let info = db2.recovery_info().unwrap();
            prop_assert!(info.snapshot_last_tx > 0, "recovery used the snapshot");
        }
    }
}

// --------------------------------------------------------- checkpoints

/// Back-to-back checkpoints are idempotent, and a torn snapshot install
/// (crash during checkpoint) leaves the previous snapshot + log intact.
#[test]
fn checkpoint_is_idempotent_and_survives_torn_install() {
    let (storage, h) = MemStorage::new();
    let db = Database::open_with_storage(Box::new(storage)).unwrap();
    db.exec("CREATE TABLE t (k INT, v INT)", &[]).unwrap();
    db.exec("INSERT INTO t VALUES (1, 10)", &[]).unwrap();
    let c1 = db.checkpoint().unwrap();
    let c2 = db.checkpoint().unwrap();
    assert!(c2 >= c1, "checkpoint txid floor is monotonic");
    let healthy = h.persisted();

    // Crash during a later checkpoint's snapshot install: the install
    // is atomic, so the torn attempt changes nothing.
    db.exec("INSERT INTO t VALUES (2, 20)", &[]).unwrap();
    h.set_faults(WalFaults::none().torn_snapshot());
    assert!(db.checkpoint().is_err(), "torn install must surface");
    let after = h.persisted();
    assert_eq!(
        after.snapshot, healthy.snapshot,
        "torn install corrupted the snapshot"
    );
    // Snapshot + surviving log still recover everything committed.
    let (storage2, _h2) = MemStorage::from_persisted(after);
    let db2 = Database::open_with_storage(Box::new(storage2)).unwrap();
    assert_eq!(
        dump(&db2, "t").unwrap(),
        vec![
            vec![Value::Int(1), Value::Int(10)],
            vec![Value::Int(2), Value::Int(20)],
        ]
    );
}

// -------------------------------------------------------- file backend

/// The real file backend: reopen from disk, then physically truncate
/// the tail of the newest segment (a torn commit) and reopen again.
#[test]
fn file_backend_reopens_and_discards_a_physically_torn_tail() {
    let dir = tempfile::tempdir().unwrap();
    {
        let db = Database::open(dir.path()).unwrap();
        db.exec("CREATE TABLE t (k INT, v INT)", &[]).unwrap();
        for i in 0..3 {
            db.exec(
                "INSERT INTO t VALUES (?, ?)",
                &[Value::Int(i), Value::Int(i * 10)],
            )
            .unwrap();
        }
    }
    {
        let db = Database::open(dir.path()).unwrap();
        assert_eq!(dump(&db, "t").unwrap().len(), 3, "clean reopen");
    }
    // Tear the last commit: chop 5 bytes off the newest segment — well
    // inside the final COMMIT frame (17 bytes), so insert #2 loses its
    // commit record. (The clean reopen above rotated to a fresh empty
    // segment; the torn one is the newest non-empty.)
    let mut segs: Vec<_> = std::fs::read_dir(dir.path())
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name().unwrap().to_string_lossy().starts_with("wal-")
                && p.metadata().unwrap().len() > 0
        })
        .collect();
    segs.sort();
    let newest = segs.last().expect("a non-empty wal segment exists");
    let len = newest.metadata().unwrap().len();
    #[expect(
        clippy::disallowed_methods,
        reason = "the test tears a WAL segment on disk, as a crash mid-write would"
    )]
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(newest)
        .unwrap();
    f.set_len(len - 5).unwrap();
    drop(f);

    let db = Database::open(dir.path()).unwrap();
    let rows = dump(&db, "t").unwrap();
    assert_eq!(rows.len(), 2, "torn final commit discarded, prefix kept");
    let info = db.recovery_info().unwrap();
    assert!(info.torn_bytes > 0, "recovery reported the torn tail");
    // The database keeps working — and the new commit is durable.
    db.exec("INSERT INTO t VALUES (9, 90)", &[]).unwrap();
    drop(db);
    let db2 = Database::open(dir.path()).unwrap();
    assert_eq!(dump(&db2, "t").unwrap().len(), 3);
}

/// File backend + checkpoint: the snapshot file appears, old segments
/// vanish, and a reopen recovers from snapshot + suffix.
#[test]
fn file_backend_checkpoint_truncates_and_recovers() {
    let dir = tempfile::tempdir().unwrap();
    {
        let db = Database::open(dir.path()).unwrap();
        db.exec("CREATE TABLE t (k INT, v INT)", &[]).unwrap();
        db.exec("INSERT INTO t VALUES (1, 10)", &[]).unwrap();
        db.checkpoint().unwrap();
        db.exec("INSERT INTO t VALUES (2, 20)", &[]).unwrap();
    }
    assert!(dir.path().join("snapshot.db").exists());
    let db = Database::open(dir.path()).unwrap();
    assert_eq!(dump(&db, "t").unwrap().len(), 2);
    let info = db.recovery_info().unwrap();
    assert!(info.snapshot_last_tx > 0, "recovered from the snapshot");
    assert_eq!(info.replayed_txs, 1, "replayed exactly the suffix commit");
}
