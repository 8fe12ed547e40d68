//! Property tests for the metadata database: index probes and
//! transactions agree with naive in-memory references on arbitrary
//! data.

#![expect(
    clippy::disallowed_methods,
    reason = "these properties are stated in SQL text: the parser is part of what they test"
)]

use proptest::prelude::*;
use sdm::metadb::{Database, DbError, Value};

fn db_with_rows(rows: &[(i64, i64)]) -> Database {
    let db = Database::new();
    db.exec("CREATE TABLE t (k INT, v INT)", &[]).unwrap();
    for &(k, v) in rows {
        db.exec(
            "INSERT INTO t VALUES (?, ?)",
            &[Value::Int(k), Value::Int(v)],
        )
        .unwrap();
    }
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// An indexed equality probe returns exactly the scan answer.
    #[test]
    fn index_probe_matches_scan(
        rows in proptest::collection::vec((0i64..8, 0i64..50), 1..80),
        probe in 0i64..8,
    ) {
        let db = db_with_rows(&rows);
        // Scan answer before creating the index...
        let scan = db
            .exec("SELECT v FROM t WHERE k = ? ORDER BY v", &[Value::Int(probe)])
            .unwrap();
        // ...index-probe answer after.
        db.exec("CREATE INDEX ik ON t (k)", &[]).unwrap();
        db.reset_stats();
        let probed = db
            .exec("SELECT v FROM t WHERE k = ? ORDER BY v", &[Value::Int(probe)])
            .unwrap();
        prop_assert_eq!(scan.rows, probed.rows);
        prop_assert_eq!(db.stats().index_scans, 1, "the probe must use the index");
    }

    /// A rolled-back batch leaves the table exactly as before, no matter
    /// what the batch inserted or deleted.
    #[test]
    fn rollback_is_exact(
        initial in proptest::collection::vec((0i64..5, 0i64..50), 0..20),
        batch in proptest::collection::vec((0i64..5, 0i64..50), 1..20),
        del_key in 0i64..5,
    ) {
        let db = db_with_rows(&initial);
        let before = db.exec("SELECT k, v FROM t ORDER BY k, v", &[]).unwrap();
        let rollback = DbError::Tx("roll back".into());
        let rolled = db.transaction(|tx| {
            for &(k, v) in &batch {
                tx.exec("INSERT INTO t VALUES (?, ?)", &[Value::Int(k), Value::Int(v)])?;
            }
            tx.exec("DELETE FROM t WHERE k = ?", &[Value::Int(del_key)])?;
            Err::<(), _>(rollback.clone())
        });
        prop_assert_eq!(rolled, Err(rollback));
        let after = db.exec("SELECT k, v FROM t ORDER BY k, v", &[]).unwrap();
        prop_assert_eq!(before.rows, after.rows);
    }
}
