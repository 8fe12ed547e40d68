//! Property tests for the typed statement layer, extending
//! `prepared_equivalence.rs` one layer up: for generated filters,
//! orders, and limits, a compiled typed `Stmt` must return row-identical
//! results to (a) the equivalent raw-SQL text executed through the
//! parse path and (b) the same typed query against an unindexed twin
//! table — while touching no SQL text itself.

use proptest::prelude::*;
use sdm_metadb::stmt::{param, Filter, Query, Relation, Stmt, TypedColumn};
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

/// One generated comparison: column k/v and operator. The parameter
/// slot is positional (first comparison takes `?` 0, the second `?` 1)
/// so the typed statement and its SQL text agree on numbering.
#[derive(Debug, Clone, Copy)]
struct Cmp {
    on_v: bool,
    op: usize, // 0..6 → eq ne lt le gt ge
}

/// A generated query shape over the (k, v) twins.
#[derive(Debug, Clone, Copy)]
struct Shape {
    first: Cmp,
    second: Option<(bool, Cmp)>, // (use OR, cmp)
    order_on_v: bool,
    order_desc: bool,
    limit: Option<usize>,
    count: bool,
}

fn cmp_filter<R: Relation, C: TypedColumn<R>>(c: Cmp, slot: usize, k: C, v: C) -> Filter<R> {
    let col = if c.on_v { v } else { k };
    let rhs = param(slot);
    match c.op {
        0 => col.eq(rhs),
        1 => col.ne(rhs),
        2 => col.lt(rhs),
        3 => col.le(rhs),
        4 => col.gt(rhs),
        _ => col.ge(rhs),
    }
}

fn build_typed<R: Relation, C: TypedColumn<R>>(s: Shape, k: C, v: C) -> Stmt {
    let mut f = cmp_filter(s.first, 0, k, v);
    if let Some((use_or, c2)) = s.second {
        let g = cmp_filter(c2, 1, k, v);
        f = if use_or { f.or(g) } else { f.and(g) };
    }
    let mut q = Query::<R>::filter(f);
    if s.count {
        // Aggregates order/limit over output names; a plain COUNT(*)
        // takes neither.
        return q.count().compile();
    }
    q = if s.order_on_v {
        q.order_by_desc(v)
    } else if s.order_desc {
        q.order_by_desc(k)
    } else {
        q.order_by(k)
    };
    if let Some(lim) = s.limit {
        q = q.limit(lim);
    }
    q.compile()
}

/// The equivalent SQL text, written by hand the way the retired call
/// sites did (this test file is the one place above the engine allowed
/// to format SQL).
fn build_sql(s: Shape, table: &str) -> String {
    let cmp_sql = |c: Cmp| {
        let col = if c.on_v { "v" } else { "k" };
        let op = ["=", "!=", "<", "<=", ">", ">="][c.op];
        format!("{col} {op} ?")
    };
    let mut sql = format!(
        "SELECT {} FROM {table} WHERE {}",
        if s.count { "COUNT(*)" } else { "*" },
        cmp_sql(s.first)
    );
    if let Some((use_or, c2)) = s.second {
        sql = format!(
            "SELECT {} FROM {table} WHERE ({}) {} ({})",
            if s.count { "COUNT(*)" } else { "*" },
            cmp_sql(s.first),
            if use_or { "OR" } else { "AND" },
            cmp_sql(c2),
        );
    }
    if s.count {
        return sql;
    }
    if s.order_on_v {
        sql.push_str(" ORDER BY v DESC");
    } else if s.order_desc {
        sql.push_str(" ORDER BY k DESC");
    } else {
        sql.push_str(" ORDER BY k");
    }
    if let Some(lim) = s.limit {
        sql.push_str(&format!(" LIMIT {lim}"));
    }
    sql
}

fn cmp_strategy() -> impl Strategy<Value = Cmp> {
    (any::<bool>(), 0usize..6).prop_map(|(on_v, op)| Cmp { on_v, op })
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    (
        cmp_strategy(),
        (any::<bool>(), any::<bool>(), cmp_strategy()),
        (any::<bool>(), any::<bool>()),
        (any::<bool>(), 0usize..5),
        any::<bool>(),
    )
        .prop_map(
            |(
                first,
                (has_second, use_or, c2),
                (order_on_v, order_desc),
                (has_limit, lim),
                count,
            )| {
                Shape {
                    first,
                    second: has_second.then_some((use_or, c2)),
                    order_on_v,
                    order_desc,
                    limit: has_limit.then_some(lim),
                    count,
                }
            },
        )
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
        let params = [Value::Int(p1), Value::Int(p2)];

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
        let params2 = [Value::Int((p1 + 3) % 10), Value::Int(p2)];
        let a = db.exec_stmt(&typed_i, &params2).unwrap();
        let b = db.exec(&sql, &params2).unwrap();
        prop_assert_eq!(&a, &b);
    }

    /// Range conjuncts on the typed layer agree with the unindexed twin
    /// — row sets AND row order: an equality prefix plus a closed
    /// range, and a closed range under a top-k.
    #[test]
    fn typed_range_filters_match_scan(
        rows in proptest::collection::vec((0i64..10, -5i64..5), 0..50),
        key in 0i64..10,
        lo in -5i64..5,
        hi in -5i64..5,
    ) {
        let db = twin_db(&rows);

        let q_i = Query::<TiRow>::filter(
            TiCol::K.eq(param(0)).and(TiCol::V.ge(param(1))).and(TiCol::V.le(param(2))),
        )
        .order_by(TiCol::V)
        .compile();
        let q_n = Query::<TnRow>::filter(
            TnCol::K.eq(param(0)).and(TnCol::V.ge(param(1))).and(TnCol::V.le(param(2))),
        )
        .order_by(TnCol::V)
        .compile();
        let params = [Value::Int(key), Value::Int(lo), Value::Int(hi)];
        db.reset_stats();
        let a = db.exec_stmt(&q_i, &params).unwrap();
        prop_assert_eq!(db.stats().parse_misses, 0, "typed path touched SQL text");
        prop_assert_eq!(db.stats().full_scans, 0, "the k pin must probe an index");
        let b = db.exec_stmt(&q_n, &params).unwrap();
        prop_assert_eq!(&a.rows, &b.rows, "prefix + range: indexed != scan");

        let q_i = Query::<TiRow>::filter(TiCol::V.ge(param(0)).and(TiCol::V.le(param(1))))
            .order_by_desc(TiCol::V)
            .limit(3)
            .compile();
        let q_n = Query::<TnRow>::filter(TnCol::V.ge(param(0)).and(TnCol::V.le(param(1))))
            .order_by_desc(TnCol::V)
            .limit(3)
            .compile();
        let params = [Value::Int(lo), Value::Int(hi)];
        let a = db.exec_stmt(&q_i, &params).unwrap();
        let b = db.exec_stmt(&q_n, &params).unwrap();
        prop_assert_eq!(&a.rows, &b.rows, "range top-k: indexed != scan");
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

        let del = Delete::<TiRow>::filter(TiCol::V.ge(param(0)).and(TiCol::K.eq(param(1))))
            .compile();
        let a = db.exec_stmt(&del, &[Value::Int(100), Value::Int(pivot)]).unwrap();
        let b = db.exec(
            "DELETE FROM tn WHERE v >= ? AND k = ?",
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

/// Edge-case cell generators: signed zeros + NULL for the double key,
/// huge (>2^53) and NULL values for the int payload.
fn edge_cell() -> impl Strategy<Value = (Value, Value)> {
    let d = prop_oneof![
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

    /// Typed statements over NULL-heavy, signed-zero, huge-integer rows
    /// return identical rows through the indexed and the unindexed
    /// twin — so the `OrdKey` encoding can never make an indexed plan
    /// disagree with a scan.
    #[test]
    fn typed_key_encoding_edges_agree(
        rows in proptest::collection::vec(edge_cell(), 0..40),
        probe_d in prop_oneof![
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
                Query::<TdRow>::filter(TdCol::D.eq(param(0)).and(TdCol::N.ne(param(1))))
                    .count()
                    .compile(),
                Query::<TdnRow>::filter(TdnCol::D.eq(param(0)).and(TdnCol::N.ne(param(1))))
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
            prop_assert_eq!(&via_indexed.rows, &via_scan.rows,
                "indexed != scan for probe {:?}", params);
        }
        // A NULL probe returns nothing from either plan.
        if probe_d.is_null() {
            let rs = db
                .exec_stmt(&shapes[0].0, &[Value::Null, Value::Int(0)])
                .unwrap();
            prop_assert!(rs.is_empty(), "NULL = NULL must never match");
        }
    }
}

// ---------------------------------------------------------------------
// A DOUBLE twin column: ORDER BY and MIN/MAX over NaN, ±0.0, ±inf, NULL
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

/// One `ORDER BY x` or `MIN(x)`/`MAX(x)` shape over a DOUBLE twin,
/// optionally pinned to one `k`.
fn double_query<R: Relation, C: TypedColumn<R>>(
    k: C,
    x: C,
    pinned: bool,
    agg: Option<bool>,
    desc: bool,
    limit: Option<usize>,
) -> Stmt {
    let mut q = if pinned {
        Query::<R>::filter(k.eq(param(0)))
    } else {
        Query::<R>::all()
    };
    match agg {
        Some(true) => return q.max(x).compile(),
        Some(false) => return q.min(x).compile(),
        None => {}
    }
    q = if desc {
        q.order_by_desc(x)
    } else {
        q.order_by(x)
    };
    if let Some(l) = limit {
        q = q.limit(l);
    }
    q.select(&[x]).compile()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// ORDER BY (ASC and DESC, with and without LIMIT) and MIN/MAX over
    /// a DOUBLE column holding NaN, signed zeros, infinities and NULLs
    /// give the same answer through the indexed twin, the unindexed
    /// twin and a twin filled in reverse order, and that answer is the
    /// index key order: NULL < numbers < NaN, MIN/MAX skipping NULL and
    /// NaN. Values are compared through `ord_key`, under which -0.0 and
    /// 0.0 tie (so their relative order is the tables' input order).
    #[test]
    fn double_order_by_and_min_max_agree_across_twins(
        rows in proptest::collection::vec((0i64..3, double_cell()), 0..40),
        key in 0i64..3,
        pinned in any::<bool>(),
        desc in any::<bool>(),
        has_limit in any::<bool>(),
        lim in 0usize..6,
    ) {
        let limit = has_limit.then_some(lim);
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
        let keys_of = |stmt: &Stmt| -> Vec<OrdKey> {
            db.exec_stmt(stmt, &params)
                .unwrap()
                .rows
                .iter()
                .map(|r| r[0].ord_key())
                .collect()
        };
        let picked: Vec<&Value> = rows
            .iter()
            .filter(|(k, _)| !pinned || *k == key)
            .map(|(_, x)| x)
            .collect();

        // ORDER BY: the key order, cut at LIMIT.
        let mut want: Vec<OrdKey> = picked.iter().map(|x| x.ord_key()).collect();
        want.sort();
        if desc {
            want.reverse();
        }
        want.truncate(limit.unwrap_or(usize::MAX));
        let twins = [
            keys_of(&double_query(TxCol::K, TxCol::X, pinned, None, desc, limit)),
            keys_of(&double_query(TxnCol::K, TxnCol::X, pinned, None, desc, limit)),
            keys_of(&double_query(TxrCol::K, TxrCol::X, pinned, None, desc, limit)),
        ];
        for (name, got) in ["indexed", "unindexed", "reversed"].iter().zip(&twins) {
            prop_assert_eq!(got, &want, "ORDER BY x (desc {}, limit {:?}): {}", desc, limit, name);
        }

        // MIN/MAX: NULL and NaN never win; nothing left is NULL.
        let nan = Value::Double(f64::NAN).ord_key();
        let finite: Vec<OrdKey> = picked
            .iter()
            .map(|x| x.ord_key())
            .filter(|k| *k != OrdKey::Null && *k != nan)
            .collect();
        for max in [false, true] {
            let want = if max { finite.iter().max() } else { finite.iter().min() }
                .cloned()
                .unwrap_or(OrdKey::Null);
            let twins = [
                keys_of(&double_query(TxCol::K, TxCol::X, pinned, Some(max), desc, limit)),
                keys_of(&double_query(TxnCol::K, TxnCol::X, pinned, Some(max), desc, limit)),
                keys_of(&double_query(TxrCol::K, TxrCol::X, pinned, Some(max), desc, limit)),
            ];
            for (name, got) in ["indexed", "unindexed", "reversed"].iter().zip(&twins) {
                prop_assert_eq!(got, &vec![want.clone()], "{} (max {}): {}", "MIN/MAX", max, name);
            }
        }
    }
}
