//! Property tests for the metadata database's reporting surface:
//! aggregates, GROUP BY, DISTINCT, joins, index probes, and transactions
//! agree with naive in-memory references on arbitrary data.

#![expect(
    clippy::disallowed_methods,
    reason = "these properties are stated in SQL text: the parser is part of what they test"
)]

use std::collections::{HashMap, HashSet};

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

    /// GROUP BY k: COUNT/SUM/MIN/MAX per group match a HashMap fold.
    #[test]
    fn group_by_matches_reference(rows in proptest::collection::vec((0i64..6, -100i64..100), 0..60)) {
        let db = db_with_rows(&rows);
        let rs = db
            .exec(
                "SELECT k, COUNT(*) AS n, SUM(v) AS s, MIN(v) AS lo, MAX(v) AS hi \
                 FROM t GROUP BY k ORDER BY k",
                &[],
            )
            .unwrap();
        let mut want: HashMap<i64, (i64, i64, i64, i64)> = HashMap::new();
        for &(k, v) in &rows {
            let e = want.entry(k).or_insert((0, 0, i64::MAX, i64::MIN));
            e.0 += 1;
            e.1 += v;
            e.2 = e.2.min(v);
            e.3 = e.3.max(v);
        }
        prop_assert_eq!(rs.len(), want.len());
        for r in &rs.rows {
            let k = r[0].as_i64().unwrap();
            let (n, s, lo, hi) = want[&k];
            prop_assert_eq!(r[1].as_i64(), Some(n), "count of {}", k);
            prop_assert_eq!(r[2].as_i64(), Some(s), "sum of {}", k);
            prop_assert_eq!(r[3].as_i64(), Some(lo), "min of {}", k);
            prop_assert_eq!(r[4].as_i64(), Some(hi), "max of {}", k);
        }
        // Groups come out sorted (ORDER BY k).
        let ks: Vec<i64> = rs.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
        let mut sorted = ks.clone();
        sorted.sort_unstable();
        prop_assert_eq!(ks, sorted);
    }

    /// DISTINCT k equals the set of keys, and an indexed equality probe
    /// returns exactly the scan answer.
    #[test]
    fn distinct_and_index_probe_match_scan(
        rows in proptest::collection::vec((0i64..8, 0i64..50), 1..80),
        probe in 0i64..8,
    ) {
        let db = db_with_rows(&rows);
        let rs = db.exec("SELECT DISTINCT k FROM t", &[]).unwrap();
        let got: HashSet<i64> = rs.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
        let want: HashSet<i64> = rows.iter().map(|&(k, _)| k).collect();
        prop_assert_eq!(got, want);

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
        del_below in 0i64..50,
    ) {
        let db = db_with_rows(&initial);
        let before = db.exec("SELECT k, v FROM t ORDER BY k, v", &[]).unwrap();
        let rollback = DbError::Tx("roll back".into());
        let rolled = db.transaction(|tx| {
            for &(k, v) in &batch {
                tx.exec("INSERT INTO t VALUES (?, ?)", &[Value::Int(k), Value::Int(v)])?;
            }
            tx.exec("DELETE FROM t WHERE v < ?", &[Value::Int(del_below)])?;
            Err::<(), _>(rollback.clone())
        });
        prop_assert_eq!(rolled, Err(rollback));
        let after = db.exec("SELECT k, v FROM t ORDER BY k, v", &[]).unwrap();
        prop_assert_eq!(before.rows, after.rows);
    }
}

/// Join over the SDM schema shape: run_table ⋈ execution_table with an
/// aggregate, as a bench-report query would issue.
#[test]
fn report_query_over_sdm_tables() {
    let db = Database::new();
    db.exec_batch(&[
        "CREATE TABLE run_table (runid INT, application TEXT)",
        "CREATE TABLE execution_table (runid INT, dataset TEXT, timestep INT)",
        "INSERT INTO run_table VALUES (1, 'fun3d'), (2, 'rt'), (3, 'fun3d')",
        "INSERT INTO execution_table VALUES
            (1, 'p', 0), (1, 'q', 0), (1, 'p', 1), (2, 'nodes', 0), (3, 'p', 0)",
    ])
    .unwrap();
    let rs = db
        .exec(
            "SELECT application, COUNT(*) AS writes FROM run_table \
             JOIN execution_table ON run_table.runid = execution_table.runid \
             GROUP BY application ORDER BY application",
            &[],
        )
        .unwrap();
    assert_eq!(rs.columns, vec!["application", "writes"]);
    assert_eq!(
        rs.rows,
        vec![
            vec![Value::Text("fun3d".into()), Value::Int(4)],
            vec![Value::Text("rt".into()), Value::Int(1)],
        ]
    );
    // HAVING filters the small group out.
    let rs = db
        .exec(
            "SELECT application, COUNT(*) AS writes FROM run_table \
             JOIN execution_table ON run_table.runid = execution_table.runid \
             GROUP BY application HAVING writes > 1",
            &[],
        )
        .unwrap();
    assert_eq!(rs.len(), 1);
    assert_eq!(rs.rows[0][0], Value::Text("fun3d".into()));
}
