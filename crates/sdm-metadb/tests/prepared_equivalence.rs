//! Property tests for the text path and the index planner: for
//! generated data and query shapes, `exec(sql, params)` and
//! `exec_stmt(&parse(sql), params)` must return identical result sets,
//! and a query against an indexed table must agree row-for-row with the
//! same query scanning an unindexed copy.

use proptest::prelude::*;
use sdm_metadb::{Database, Value};

/// Build twin tables with identical rows: `ti` carries an index on each
/// column plus a `(k, v)` composite, so every planner shape — point
/// probe, range walk, prefix walk, ordered stream — competes against
/// `tn`'s scans.
fn twin_db(rows: &[(i64, i64)]) -> Database {
    let db = Database::new();
    db.exec("CREATE TABLE ti (k INT, v INT)", &[]).unwrap();
    db.exec("CREATE TABLE tn (k INT, v INT)", &[]).unwrap();
    for &(k, v) in rows {
        db.exec(
            "INSERT INTO ti VALUES (?, ?)",
            &[Value::Int(k), Value::Int(v)],
        )
        .unwrap();
        db.exec(
            "INSERT INTO tn VALUES (?, ?)",
            &[Value::Int(k), Value::Int(v)],
        )
        .unwrap();
    }
    db.exec("CREATE INDEX ti_k ON ti (k)", &[]).unwrap();
    db.exec("CREATE INDEX ti_v ON ti (v)", &[]).unwrap();
    db.exec("CREATE INDEX ti_kv ON ti (k, v)", &[]).unwrap();
    db
}

/// Query templates over a table `{T}`; every `?` consumes one of the
/// two generated probe parameters. The back half exercises the range
/// planner: half-open and closed windows, equality-prefix + range-tail
/// composite probes, and index-streamable ORDER BY/LIMIT shapes whose
/// row *order* must match the scanned twin's sort exactly.
const TEMPLATES: &[(&str, usize)] = &[
    ("SELECT k, v FROM {T} WHERE k = ?", 1),
    ("SELECT v FROM {T} WHERE k = ? AND v >= ?", 2),
    ("SELECT k FROM {T} WHERE k = ? OR v = ?", 2),
    ("SELECT COUNT(*), MIN(v), MAX(v) FROM {T} WHERE k = ?", 1),
    ("SELECT COUNT(k), SUM(v) FROM {T} WHERE k > ?", 1),
    ("SELECT k FROM {T} WHERE v = ? ORDER BY k DESC LIMIT 3", 1),
    ("SELECT COUNT(*) AS n FROM {T} WHERE v = ? ORDER BY n", 1),
    (
        "SELECT k, v FROM {T} WHERE k >= ? AND k <= ? ORDER BY k, v",
        2,
    ),
    ("SELECT k, v FROM {T} WHERE k = ? AND v > ?", 2),
    ("SELECT v FROM {T} WHERE v < ? ORDER BY v", 1),
    (
        "SELECT k, v FROM {T} WHERE k = ? ORDER BY v DESC LIMIT 2",
        1,
    ),
    ("SELECT MIN(v), MAX(v) FROM {T} WHERE k = ?", 1),
    ("SELECT k, v FROM {T} WHERE k < ? AND v >= ? AND v <= ?", 3),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn exec_prepared_and_indexed_paths_agree(
        rows in proptest::collection::vec((0i64..12, -4i64..4), 0..60),
        template in 0..TEMPLATES.len(),
        p1 in 0i64..12,
        p2 in -4i64..4,
        p3 in -4i64..4,
    ) {
        let db = twin_db(&rows);
        let (shape, arity) = TEMPLATES[template];
        let params: Vec<Value> =
            [Value::Int(p1), Value::Int(p2), Value::Int(p3)][..arity].to_vec();

        let sql_indexed = shape.replace("{T}", "ti");
        let sql_scan = shape.replace("{T}", "tn");

        // Text vs its parsed `Stmt` on the indexed table.
        let via_exec = db.exec(&sql_indexed, &params).unwrap();
        let stmt = db.parse(&sql_indexed).unwrap();
        let via_stmt = db.exec_stmt(&stmt, &params).unwrap();
        prop_assert_eq!(&via_exec, &via_stmt, "exec != exec_stmt for {}", sql_indexed);
        // Re-executing the same `Stmt` stays stable.
        let again = db.exec_stmt(&stmt, &params).unwrap();
        prop_assert_eq!(&via_exec, &again);

        // Indexed vs unindexed execution returns identical rows.
        let via_scan = db.exec(&sql_scan, &params).unwrap();
        prop_assert_eq!(
            &via_exec.rows, &via_scan.rows,
            "indexed and scanned rows differ for {}", shape
        );
    }

    #[test]
    fn mutations_keep_twin_tables_and_paths_consistent(
        rows in proptest::collection::vec((0i64..8, 0i64..8), 1..40),
        pivot in 0i64..8,
    ) {
        let db = twin_db(&rows);
        // Mutate both tables identically through parsed statements.
        let up_i = db.parse("UPDATE ti SET v = v + 100 WHERE k = ?").unwrap();
        let up_n = db.parse("UPDATE tn SET v = v + 100 WHERE k = ?").unwrap();
        let a = db.exec_stmt(&up_i, &[Value::Int(pivot)]).unwrap();
        let b = db.exec_stmt(&up_n, &[Value::Int(pivot)]).unwrap();
        prop_assert_eq!(a.affected, b.affected);

        let del_i = db.parse("DELETE FROM ti WHERE v >= 100 AND k = ?").unwrap();
        let del_n = db.parse("DELETE FROM tn WHERE v >= 100 AND k = ?").unwrap();
        let a = db.exec_stmt(&del_i, &[Value::Int(pivot)]).unwrap();
        let b = db.exec_stmt(&del_n, &[Value::Int(pivot)]).unwrap();
        prop_assert_eq!(a.affected, b.affected);

        // After updates + deletes, the indexed table still answers
        // probes identically to the scan table.
        let qi = db.exec("SELECT k, v FROM ti WHERE k = ?", &[Value::Int(pivot)]).unwrap();
        let qn = db.exec("SELECT k, v FROM tn WHERE k = ?", &[Value::Int(pivot)]).unwrap();
        prop_assert_eq!(qi.rows, qn.rows);
    }
}

// ---------------------------------------------------------------------
// Key-encoding edge cases
// ---------------------------------------------------------------------

/// Integer cells that stress the index-key encoding: NULLs, huge
/// magnitudes beyond 2^53 (whose `f64` roundings collide), and a small
/// dense range for plentiful matches.
fn edge_int() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        Just(Value::Int(1 << 53)),
        Just(Value::Int((1 << 53) + 1)),
        Just(Value::Int(i64::MAX)),
        Just(Value::Int(i64::MIN)),
        (-3i64..4).prop_map(Value::Int),
    ]
}

/// Double cells stressing the encoding: NULLs and both zero signs.
fn edge_double() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        Just(Value::Double(0.0)),
        Just(Value::Double(-0.0)),
        Just(Value::Double(1.5)),
        Just(Value::Double(-1.5)),
        (-2i64..3).prop_map(|i| Value::Double(i as f64 * 0.25)),
    ]
}

/// Twin tables `(i INT, d DOUBLE)` with identical NULL-heavy edge-case
/// rows; `ei` indexes both columns, `en` has no indexes.
fn edge_twin_db(rows: &[(Value, Value)]) -> Database {
    let db = Database::new();
    db.exec("CREATE TABLE ei (i INT, d DOUBLE)", &[]).unwrap();
    db.exec("CREATE TABLE en (i INT, d DOUBLE)", &[]).unwrap();
    for (i, d) in rows {
        let params = [i.clone(), d.clone()];
        db.exec("INSERT INTO ei VALUES (?, ?)", &params).unwrap();
        db.exec("INSERT INTO en VALUES (?, ?)", &params).unwrap();
    }
    db.exec("CREATE INDEX ei_i ON ei (i)", &[]).unwrap();
    db.exec("CREATE INDEX ei_d ON ei (d)", &[]).unwrap();
    db.exec("CREATE INDEX ei_id ON ei (i, d)", &[]).unwrap();
    db
}

/// Edge-case templates; every `?` consumes one generated probe value.
/// The range shapes aim signed-zero, NULL, and beyond-2^53 values at
/// the indexes' key-encoding boundaries — including NULL range
/// bounds (match nothing) and ±0.0 at a range endpoint (one key).
const EDGE_TEMPLATES: &[&str] = &[
    "SELECT i, d FROM {T} WHERE i = ?",
    "SELECT i, d FROM {T} WHERE d = ?",
    "SELECT COUNT(*) FROM {T} WHERE i = ?",
    "SELECT COUNT(*), MIN(d), MAX(d) FROM {T} WHERE d = ?",
    "SELECT i FROM {T} WHERE d = ? AND i IS NOT NULL",
    "SELECT d FROM {T} WHERE i = ? OR d = ?",
    "SELECT i, d FROM {T} WHERE d >= ? AND d <= ?",
    "SELECT i, d FROM {T} WHERE i = ? AND d < ?",
    "SELECT d FROM {T} WHERE d > ? ORDER BY d LIMIT 4",
    "SELECT i, d FROM {T} WHERE i >= ?",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Indexed and unindexed plans must agree on SQL equality for the
    /// key-encoding edge cases: `-0.0` vs `0.0` (one bucket — an
    /// indexed probe for either finds both), integers beyond 2^53
    /// (bucket collisions re-verified by the predicate), and NULL-heavy
    /// columns (matched by neither `=` nor a range bound).
    #[test]
    fn key_encoding_edges_agree_between_indexed_and_scan(
        rows in proptest::collection::vec((edge_int(), edge_double()), 0..50),
        template in 0..EDGE_TEMPLATES.len(),
        p1 in prop_oneof![edge_int(), edge_double()],
        p2 in prop_oneof![edge_int(), edge_double()],
    ) {
        let db = edge_twin_db(&rows);
        let shape = EDGE_TEMPLATES[template];
        let arity = shape.matches('?').count();
        let params: Vec<Value> = [p1, p2][..arity].to_vec();

        let sql_indexed = shape.replace("{T}", "ei");
        let sql_scan = shape.replace("{T}", "en");

        let via_exec = db.exec(&sql_indexed, &params).unwrap();
        let via_stmt = db
            .exec_stmt(&db.parse(&sql_indexed).unwrap(), &params)
            .unwrap();
        prop_assert_eq!(&via_exec, &via_stmt, "exec != exec_stmt for {}", sql_indexed);

        let via_scan = db.exec(&sql_scan, &params).unwrap();
        prop_assert_eq!(
            &via_exec.rows, &via_scan.rows,
            "indexed and scanned rows differ for {} with {:?}", shape, params
        );
    }

    /// A `-0.0` probe against a table holding `0.0` rows (and vice
    /// versa) hits through the index exactly as a full scan does.
    #[test]
    fn negative_zero_probes_match_scan(
        zeros in proptest::collection::vec(
            prop_oneof![Just(Value::Double(0.0)), Just(Value::Double(-0.0)), Just(Value::Null)],
            1..30,
        ),
        probe in prop_oneof![
            Just(Value::Double(0.0)),
            Just(Value::Double(-0.0)),
            Just(Value::Int(0)),
        ],
    ) {
        let rows: Vec<(Value, Value)> =
            zeros.into_iter().map(|d| (Value::Int(0), d)).collect();
        let db = edge_twin_db(&rows);
        let expected = rows_stored_nonnull(&rows);
        let via_index = db
            .exec("SELECT d FROM ei WHERE d = ?", std::slice::from_ref(&probe))
            .unwrap();
        let via_scan = db.exec("SELECT d FROM en WHERE d = ?", &[probe]).unwrap();
        prop_assert_eq!(&via_index.rows, &via_scan.rows);
        prop_assert_eq!(via_index.rows.len(), expected, "every ±0.0 row must be found");
    }
}

/// How many of the generated rows hold a non-NULL double (those must
/// all match a ±0.0 probe).
fn rows_stored_nonnull(rows: &[(Value, Value)]) -> usize {
    rows.iter().filter(|(_, d)| !d.is_null()).count()
}
