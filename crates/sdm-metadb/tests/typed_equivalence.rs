//! Property tests for the typed statement layer, extending
//! `prepared_equivalence.rs` one layer up: for generated pins, orders
//! and projections, a compiled typed `Stmt` must return row-identical
//! results to (a) the equivalent raw-SQL text executed through the
//! parse path and (b) the same typed query against an unindexed twin
//! table — while touching no SQL text itself.

use proptest::prelude::*;
use sdm_metadb::stmt::{param, Query, Relation, Stmt, TypedColumn};
use sdm_metadb::value::OrdKey;
use sdm_metadb::{Database, Value};

sdm_metadb::relation! {
    /// Indexed twin.
    pub struct TiRow in "ti" as TiCol {
        /// Key.
        pub k: i64 => K,
        /// Value.
        pub v: i64 => V,
    }
    indexes { "ti_k" on (k), "ti_v" on (v), "ti_kv" on (k, v) }
}

sdm_metadb::relation! {
    /// Unindexed twin.
    pub struct TnRow in "tn" as TnCol {
        /// Key.
        pub k: i64 => K,
        /// Value.
        pub v: i64 => V,
    }
}

/// Build twin tables with identical rows from the relation descriptors.
fn twin_db(rows: &[(i64, i64)]) -> Database {
    let db = Database::new();
    db.exec_stmt(&TiRow::TABLE.create_table(), &[]).unwrap();
    db.exec_stmt(&TnRow::TABLE.create_table(), &[]).unwrap();
    let ins_i = sdm_metadb::stmt::Insert::<TiRow>::prepared();
    let ins_n = sdm_metadb::stmt::Insert::<TnRow>::prepared();
    for &(k, v) in rows {
        let row = &[Value::Int(k), Value::Int(v)];
        db.exec_stmt(&ins_i, row).unwrap();
        db.exec_stmt(&ins_n, row).unwrap();
    }
    for ix in TiRow::TABLE.create_indexes() {
        db.exec_stmt(&ix, &[]).unwrap();
    }
    db
}

/// A generated query shape over the (k, v) twins: pins `k = ?` and/or
/// `v = ?` (parameter slots in pin order, so the typed statement and
/// its SQL text agree on numbering), a projection, and ORDER BY keys.
#[derive(Debug, Clone, Copy)]
struct Shape {
    /// Pin `k`, `v`, or both (`v` first when `v_first`).
    pin_k: bool,
    pin_v: bool,
    v_first: bool,
    /// 0: `*`, 1: `COUNT(*)`, 2: `MAX(v)`, 3: `v, k`.
    proj: usize,
    /// 0: none, 1: `k`, 2: `v`, 3: `v, k`.
    order: usize,
}

fn build_typed<R: Relation, C: TypedColumn<R>>(s: Shape, k: C, v: C) -> Stmt {
    let mut q = Query::<R>::all();
    let mut pins = [(k, s.pin_k), (v, s.pin_v)];
    if s.v_first {
        pins.reverse();
    }
    let pinned = pins.into_iter().filter(|&(_, on)| on);
    for (slot, (col, _)) in pinned.enumerate() {
        q = q.and(col.eq(param(slot)));
    }
    q = match s.order {
        1 => q.order_by(k),
        2 => q.order_by(v),
        3 => q.order_by(v).order_by(k),
        _ => q,
    };
    match s.proj {
        1 => q.count(),
        2 => q.max(v),
        3 => q.select(&[v, k]),
        _ => q,
    }
    .compile()
}

/// The equivalent SQL text, written by hand the way the retired call
/// sites did (this test file is the one place above the engine allowed
/// to format SQL).
fn build_sql(s: Shape, table: &str) -> String {
    let proj = ["*", "COUNT(*)", "MAX(v)", "v, k"][s.proj];
    let mut pins = [("k = ?", s.pin_k), ("v = ?", s.pin_v)];
    if s.v_first {
        pins.reverse();
    }
    let pins: Vec<&str> = pins.iter().filter(|p| p.1).map(|p| p.0).collect();
    let mut sql = format!("SELECT {proj} FROM {table}");
    if !pins.is_empty() {
        sql = format!("{sql} WHERE {}", pins.join(" AND "));
    }
    let order = ["", " ORDER BY k", " ORDER BY v", " ORDER BY v, k"][s.order];
    sql + order
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    (
        (any::<bool>(), any::<bool>(), any::<bool>()),
        0usize..4,
        0usize..4,
    )
        .prop_map(|((pin_k, pin_v, v_first), proj, order)| Shape {
            pin_k,
            pin_v,
            v_first,
            proj,
            order,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn typed_statements_match_raw_sql_and_unindexed_twin(
        rows in proptest::collection::vec((0i64..10, -5i64..5), 0..50),
        shape in shape_strategy(),
        p1 in 0i64..10,
        p2 in -5i64..5,
    ) {
        let db = twin_db(&rows);
        let params: Vec<Value> = match (shape.pin_k, shape.pin_v, shape.v_first) {
            (true, true, false) => vec![Value::Int(p1), Value::Int(p2)],
            (true, true, true) => vec![Value::Int(p2), Value::Int(p1)],
            (true, false, _) => vec![Value::Int(p1)],
            (false, true, _) => vec![Value::Int(p2)],
            (false, false, _) => vec![],
        };

        // Typed, against the indexed twin — compiled once, no SQL text.
        let typed_i = build_typed(shape, TiCol::K, TiCol::V);
        db.reset_stats();
        let via_typed = db.exec_stmt(&typed_i, &params).unwrap();
        prop_assert_eq!(db.stats().parse_misses, 0, "typed path touched SQL text");

        // The same shape as raw SQL text through the parse path.
        let sql = build_sql(shape, "ti");
        let via_text = db.exec(&sql, &params).unwrap();
        prop_assert_eq!(&via_typed, &via_text, "typed != raw for {}", sql);

        // Same typed shape over the unindexed twin: planner equivalence.
        let typed_n = build_typed(shape, TnCol::K, TnCol::V);
        let via_scan = db.exec_stmt(&typed_n, &params).unwrap();
        prop_assert_eq!(&via_typed.rows, &via_scan.rows,
            "indexed and scanned rows differ for {:?}", shape);

        // Replaying the compiled statement with fresh parameters stays
        // consistent with the text path.
        let params2: Vec<Value> = params
            .iter()
            .map(|p| Value::Int((p.as_i64().unwrap_or(0) + 3) % 10))
            .collect();
        let a = db.exec_stmt(&typed_i, &params2).unwrap();
        let b = db.exec(&sql, &params2).unwrap();
        prop_assert_eq!(&a, &b);
    }

    #[test]
    fn typed_mutations_match_raw_sql(
        rows in proptest::collection::vec((0i64..8, 0i64..8), 1..40),
        pivot in 0i64..8,
    ) {
        use sdm_metadb::stmt::{Delete, Update};
        let db = twin_db(&rows);
        // Typed update on ti; the same update as text on tn.
        let up = Update::<TiRow>::new()
            .set(TiCol::V, param(0))
            .filter(TiCol::K.eq(param(1)))
            .compile();
        let a = db.exec_stmt(&up, &[Value::Int(100), Value::Int(pivot)]).unwrap();
        let b = db.exec(
            "UPDATE tn SET v = ? WHERE k = ?",
            &[Value::Int(100), Value::Int(pivot)],
        ).unwrap();
        prop_assert_eq!(a.affected, b.affected);

        let del = Delete::<TiRow>::filter(TiCol::V.eq(param(0)).and(TiCol::K.eq(param(1))))
            .compile();
        let a = db.exec_stmt(&del, &[Value::Int(100), Value::Int(pivot)]).unwrap();
        let b = db.exec(
            "DELETE FROM tn WHERE v = ? AND k = ?",
            &[Value::Int(100), Value::Int(pivot)],
        ).unwrap();
        prop_assert_eq!(a.affected, b.affected);

        // The twins still agree row-for-row afterwards.
        let qi = db.exec_stmt(
            &Query::<TiRow>::all().order_by(TiCol::K).order_by(TiCol::V).compile(),
            &[],
        ).unwrap();
        let qn = db.exec_stmt(
            &Query::<TnRow>::all().order_by(TnCol::K).order_by(TnCol::V).compile(),
            &[],
        ).unwrap();
        prop_assert_eq!(qi.rows, qn.rows);
    }
}

// ---------------------------------------------------------------------
// Key-encoding edge cases through the typed layer
// ---------------------------------------------------------------------

sdm_metadb::relation! {
    /// Indexed twin with a DOUBLE key (±0.0 edge cases) and an INT
    /// payload column fed huge and NULL values.
    pub struct TdRow in "td" as TdCol {
        /// Double key.
        pub d: f64 => D,
        /// Integer payload.
        pub n: i64 => N,
    }
    indexes { "td_d" on (d), "td_n" on (n), "td_dn" on (d, n) }
}

sdm_metadb::relation! {
    /// Unindexed twin of [`TdRow`].
    pub struct TdnRow in "tdn" as TdnCol {
        /// Double key.
        pub d: f64 => D,
        /// Integer payload.
        pub n: i64 => N,
    }
}

/// Edge-case cell generators: signed zeros, NaN and NULL for the
/// double key, huge (>2^53) and NULL values for the int payload.
fn edge_cell() -> impl Strategy<Value = (Value, Value)> {
    let d = prop_oneof![
        Just(Value::Double(f64::NAN)),
        Just(Value::Double(0.0)),
        Just(Value::Double(-0.0)),
        Just(Value::Double(2.5)),
        Just(Value::Null),
    ];
    let n = prop_oneof![
        Just(Value::Int(1 << 53)),
        Just(Value::Int((1 << 53) + 1)),
        Just(Value::Int(i64::MIN)),
        Just(Value::Null),
        (0i64..3).prop_map(Value::Int),
    ];
    (d, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Typed statements over NULL-heavy, NaN, signed-zero, huge-integer
    /// rows return identical rows through the indexed and the unindexed
    /// twin — so the `OrdKey` encoding can never make an indexed plan
    /// disagree with a scan.
    #[test]
    fn typed_key_encoding_edges_agree(
        rows in proptest::collection::vec(edge_cell(), 0..40),
        probe_d in prop_oneof![
            Just(Value::Double(f64::NAN)),
            Just(Value::Double(0.0)),
            Just(Value::Double(-0.0)),
            Just(Value::Int(0)),
            Just(Value::Null),
        ],
        probe_n in prop_oneof![
            Just(Value::Int(1 << 53)),
            Just(Value::Int((1 << 53) + 1)),
            Just(Value::Int(1)),
        ],
    ) {
        let db = Database::new();
        db.exec_stmt(&TdRow::TABLE.create_table(), &[]).unwrap();
        db.exec_stmt(&TdnRow::TABLE.create_table(), &[]).unwrap();
        for ix in TdRow::TABLE.create_indexes() {
            db.exec_stmt(&ix, &[]).unwrap();
        }
        let ins_i = sdm_metadb::stmt::Insert::<TdRow>::prepared();
        let ins_n = sdm_metadb::stmt::Insert::<TdnRow>::prepared();
        for (d, n) in &rows {
            let row = [d.clone(), n.clone()];
            db.exec_stmt(&ins_i, &row).unwrap();
            db.exec_stmt(&ins_n, &row).unwrap();
        }

        let shapes: [(Stmt, Stmt, Vec<Value>); 3] = [
            (
                Query::<TdRow>::filter(TdCol::D.eq(param(0))).compile(),
                Query::<TdnRow>::filter(TdnCol::D.eq(param(0))).compile(),
                vec![probe_d.clone()],
            ),
            (
                Query::<TdRow>::filter(TdCol::N.eq(param(0))).compile(),
                Query::<TdnRow>::filter(TdnCol::N.eq(param(0))).compile(),
                vec![probe_n.clone()],
            ),
            (
                Query::<TdRow>::filter(TdCol::N.eq(param(1)).and(TdCol::D.eq(param(0))))
                    .count()
                    .compile(),
                Query::<TdnRow>::filter(TdnCol::N.eq(param(1)).and(TdnCol::D.eq(param(0))))
                    .count()
                    .compile(),
                vec![probe_d.clone(), probe_n.clone()],
            ),
        ];
        for (typed_i, typed_n, params) in &shapes {
            db.reset_stats();
            let via_indexed = db.exec_stmt(typed_i, params).unwrap();
            prop_assert_eq!(db.stats().parse_misses, 0, "typed path touched SQL text");
            let via_scan = db.exec_stmt(typed_n, params).unwrap();
            // Compared as text, so a NaN cell equals itself.
            prop_assert_eq!(format!("{:?}", via_indexed.rows), format!("{:?}", via_scan.rows),
                "indexed != scan for probe {:?}", params);
        }
        // A NULL or NaN probe returns nothing from either plan.
        if probe_d.is_null() || probe_d.as_f64().is_some_and(f64::is_nan) {
            for stmt in [&shapes[0].0, &shapes[0].1] {
                let rs = db.exec_stmt(stmt, std::slice::from_ref(&probe_d)).unwrap();
                prop_assert!(rs.is_empty(), "{:?} matched {:?}", probe_d, rs.rows);
            }
        }
    }
}

// ---------------------------------------------------------------------
// A DOUBLE twin column: ORDER BY and MAX over NaN, ±0.0, ±inf, NULL
// ---------------------------------------------------------------------

sdm_metadb::relation! {
    /// Indexed twin with a DOUBLE column, rows in generated order.
    pub struct TxRow in "tx" as TxCol {
        /// Group key.
        pub k: i64 => K,
        /// The DOUBLE column under test.
        pub x: f64 => X,
    }
    indexes { "tx_x" on (x), "tx_kx" on (k, x) }
}

sdm_metadb::relation! {
    /// Unindexed twin of [`TxRow`], rows in generated order.
    pub struct TxnRow in "txn" as TxnCol {
        /// Group key.
        pub k: i64 => K,
        /// The DOUBLE column under test.
        pub x: f64 => X,
    }
}

sdm_metadb::relation! {
    /// Indexed twin of [`TxRow`], rows in reverse order.
    pub struct TxrRow in "txr" as TxrCol {
        /// Group key.
        pub k: i64 => K,
        /// The DOUBLE column under test.
        pub x: f64 => X,
    }
    indexes { "txr_x" on (x), "txr_kx" on (k, x) }
}

fn double_cell() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Double(f64::NAN)),
        Just(Value::Double(-0.0)),
        Just(Value::Double(0.0)),
        Just(Value::Double(f64::INFINITY)),
        Just(Value::Double(f64::NEG_INFINITY)),
        Just(Value::Null),
        (-3i64..4).prop_map(|i| Value::Double(i as f64)),
    ]
}

/// One `ORDER BY x` or `MAX(x)` shape over a DOUBLE twin, optionally
/// pinned to one `k`.
fn double_query<R: Relation, C: TypedColumn<R>>(k: C, x: C, pinned: bool, max: bool) -> Stmt {
    let q = if pinned {
        Query::<R>::filter(k.eq(param(0)))
    } else {
        Query::<R>::all()
    };
    if max {
        q.max(x).compile()
    } else {
        q.order_by(x).select(&[x]).compile()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// ORDER BY and MAX over a DOUBLE column holding NaN, signed zeros,
    /// infinities and NULLs give the same answer through the indexed
    /// twin, the unindexed twin and a twin filled in reverse order, and
    /// that answer is the index key order: NULL < numbers < NaN, MAX
    /// skipping NULL and NaN. Values are compared through `ord_key`,
    /// under which -0.0 and 0.0 tie (so their relative order is the
    /// tables' input order).
    #[test]
    fn double_order_by_and_min_max_agree_across_twins(
        rows in proptest::collection::vec((0i64..3, double_cell()), 0..40),
        key in 0i64..3,
        pinned in any::<bool>(),
    ) {
        let db = Database::new();
        db.exec_stmt(&TxRow::TABLE.create_table(), &[]).unwrap();
        db.exec_stmt(&TxnRow::TABLE.create_table(), &[]).unwrap();
        db.exec_stmt(&TxrRow::TABLE.create_table(), &[]).unwrap();
        for ix in TxRow::TABLE.create_indexes().iter().chain(&TxrRow::TABLE.create_indexes()) {
            db.exec_stmt(ix, &[]).unwrap();
        }
        let ins = [
            sdm_metadb::stmt::Insert::<TxRow>::prepared(),
            sdm_metadb::stmt::Insert::<TxnRow>::prepared(),
        ];
        for (k, x) in &rows {
            for stmt in &ins {
                db.exec_stmt(stmt, &[Value::Int(*k), x.clone()]).unwrap();
            }
        }
        let ins_r = sdm_metadb::stmt::Insert::<TxrRow>::prepared();
        for (k, x) in rows.iter().rev() {
            db.exec_stmt(&ins_r, &[Value::Int(*k), x.clone()]).unwrap();
        }
        let params = if pinned { vec![Value::Int(key)] } else { vec![] };
        let twins = |max: bool| -> Vec<Vec<OrdKey>> {
            [
                double_query(TxCol::K, TxCol::X, pinned, max),
                double_query(TxnCol::K, TxnCol::X, pinned, max),
                double_query(TxrCol::K, TxrCol::X, pinned, max),
            ]
            .iter()
            .map(|stmt| {
                db.exec_stmt(stmt, &params)
                    .unwrap()
                    .rows
                    .iter()
                    .map(|r| r[0].ord_key())
                    .collect()
            })
            .collect()
        };
        let picked: Vec<&Value> = rows
            .iter()
            .filter(|(k, _)| !pinned || *k == key)
            .map(|(_, x)| x)
            .collect();

        // ORDER BY: the key order.
        let mut want: Vec<OrdKey> = picked.iter().map(|x| x.ord_key()).collect();
        want.sort();
        for (name, got) in ["indexed", "unindexed", "reversed"].iter().zip(&twins(false)) {
            prop_assert_eq!(got, &want, "ORDER BY x: {}", name);
        }

        // MAX: NULL and NaN never win; with nothing left it is NULL.
        let nan = Value::Double(f64::NAN).ord_key();
        let want = picked
            .iter()
            .map(|x| x.ord_key())
            .filter(|k| *k != OrdKey::Null && *k != nan)
            .max()
            .unwrap_or(OrdKey::Null);
        for (name, got) in ["indexed", "unindexed", "reversed"].iter().zip(&twins(true)) {
            prop_assert_eq!(got, &vec![want.clone()], "MAX(x): {}", name);
        }
    }
}
