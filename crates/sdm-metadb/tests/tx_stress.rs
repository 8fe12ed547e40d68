//! Threaded transaction stress: N reader threads run indexed SELECTs
//! while one writer repeatedly runs a transaction that mutates rows
//! (insert + update + delete) and rolls back. The transaction holds the
//! database's one lock from its first statement to its rollback, so the
//! readers must never observe its uncommitted rows, and after every
//! rollback the table must be byte-identical to its pre-transaction
//! state — with the undo counter witnessing O(rows touched) work, not
//! O(table).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use sdm_metadb::{Database, DbError, DbResult, Value};

const SEED_ROWS: i64 = 200;
const WRITER_TXS: u64 = 25;
/// Rows touched per transaction: 3 inserts + 1 update + 1 delete.
const TOUCHED_PER_TX: u64 = 5;

fn seed(db: &Database) {
    db.exec("CREATE TABLE t (k INT, v TEXT)", &[]).unwrap();
    for k in 0..SEED_ROWS {
        db.exec(
            "INSERT INTO t VALUES (?, ?)",
            &[Value::Int(k), Value::from(format!("base-{k}"))],
        )
        .unwrap();
    }
    db.exec("CREATE INDEX tk ON t (k)", &[]).unwrap();
}

/// Full ordered image of the table (k then v, ordered by k).
fn snapshot(db: &Database) -> Vec<Vec<Value>> {
    db.exec("SELECT k, v FROM t ORDER BY k", &[]).unwrap().rows
}

#[test]
fn rollback_under_concurrent_readers_restores_exact_rows() {
    let db = Arc::new(Database::new());
    seed(&db);
    let before = snapshot(&db);
    assert_eq!(before.len(), SEED_ROWS as usize);

    let stop = Arc::new(AtomicBool::new(false));
    let reads = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        // Readers: indexed point probes; every probe must return the
        // seed's row ("base-{k}"), never one a transaction wrote
        // ("tx-{k}") or deleted and then rolled back.
        let mut readers = Vec::new();
        for r in 0..4 {
            let db = Arc::clone(&db);
            let stop = Arc::clone(&stop);
            let reads = Arc::clone(&reads);
            readers.push(s.spawn(move || {
                let mut i: i64 = r;
                while !stop.load(Ordering::Relaxed) {
                    let k = i % SEED_ROWS;
                    let rs = db
                        .exec("SELECT k, v FROM t WHERE k = ?", &[Value::Int(k)])
                        .unwrap();
                    assert_eq!(rs.rows.len(), 1, "a reader saw uncommitted state");
                    for row in &rs.rows {
                        let got_k = row[0].as_i64().expect("k is INT");
                        let v = row[1].as_str().expect("v is TEXT").to_string();
                        assert_eq!(v, format!("base-{got_k}"), "a reader saw uncommitted state");
                    }
                    reads.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
            }));
        }

        // Writer: every transaction touches exactly TOUCHED_PER_TX rows
        // of the 200-row table, then rolls back, and each rollback must
        // restore the exact pre-transaction image. It starts once
        // a reader is demonstrably running: on a loaded two-core host
        // all 25 transactions can otherwise finish before any reader
        // thread is scheduled, and the progress assertion below fails
        // for no fault of the database.
        while reads.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
        for tx in 0..WRITER_TXS {
            let k = (tx as i64 * 7) % SEED_ROWS;
            let rolled = db.transaction(|t| -> DbResult<()> {
                for j in 0..3 {
                    let nk = SEED_ROWS + tx as i64 * 3 + j;
                    t.exec(
                        "INSERT INTO t VALUES (?, ?)",
                        &[Value::Int(nk), Value::from(format!("tx-{nk}"))],
                    )?;
                }
                t.exec(
                    "UPDATE t SET v = ? WHERE k = ?",
                    &[Value::from(format!("tx-{k}")), Value::Int(k)],
                )?;
                t.exec(
                    "DELETE FROM t WHERE k = ?",
                    &[Value::Int((k + 1) % SEED_ROWS)],
                )?;
                Err(DbError::Tx("roll back".into()))
            });
            assert_eq!(rolled, Err(DbError::Tx("roll back".into())));
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
    });

    // Byte-identical restoration.
    assert_eq!(snapshot(&db), before, "rollback must restore exact rows");
    // O(touched) undo: 25 transactions × 5 rows, although the table
    // held 200 rows throughout.
    assert_eq!(
        db.stats().tx_rows_undone,
        WRITER_TXS * TOUCHED_PER_TX,
        "undo work must track rows touched, not table size"
    );
    assert!(
        reads.load(Ordering::Relaxed) > 0,
        "readers made progress during the writer's transactions"
    );
}
