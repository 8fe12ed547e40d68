//! Property tests for the expression evaluator and the join planner:
//!
//! * random expression trees over adversarial values (NULL, NaN,
//!   signed zero, integers beyond 2^53, `i64::MIN`) evaluate without
//!   panicking: every tree yields a value or a `DbError`, and
//!   logical, comparison and NULL-test nodes yield `0`, `1` or NULL;
//! * the three join strategies (merge over two indexes,
//!   index-nested-loop probes, every pair when nothing is indexed) must
//!   return identical result sets in identical order for the same data.

use proptest::prelude::*;
use sdm_metadb::eval::eval_ast;
use sdm_metadb::sql::ast::{BinOp, Expr};
use sdm_metadb::{ColType, Column, Database, Schema, Value};

// ------------------------------------------------------------ expressions

/// Adversarial literal pool: every value class NULL propagation,
/// numeric promotion and the comparisons must handle.
fn lit_pool() -> Vec<Value> {
    vec![
        Value::Null,
        Value::Int(0),
        Value::Int(1),
        Value::Int(-1),
        Value::Int(i64::MIN),
        Value::Int(i64::MAX),
        Value::Int(1 << 53),
        Value::Int((1 << 53) + 1),
        Value::Double(0.0),
        Value::Double(-0.0),
        Value::Double(f64::NAN),
        Value::Double(f64::INFINITY),
        Value::Double(-1.5),
        Value::Double(9_007_199_254_740_993.0),
        Value::Text(String::new()),
        Value::Text("a".into()),
    ]
}

const BINOPS: [BinOp; 12] = [
    BinOp::Eq,
    BinOp::Ne,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
    BinOp::And,
    BinOp::Or,
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
];

/// Deterministically grow an expression tree from a byte seed: each
/// byte picks leaf-vs-node and the node kind, so proptest's raw bytes
/// become structurally diverse trees without a recursive strategy.
fn build_expr(seed: &mut std::slice::Iter<'_, u8>, depth: u32, pool: &[Value]) -> Expr {
    let b = *seed.next().unwrap_or(&0) as usize;
    if depth == 0 || b < 72 {
        return match b % 3 {
            0 => Expr::Lit(pool[b % pool.len()].clone()),
            1 => Expr::Col(format!("c{}", b % 4)),
            _ => Expr::Param(b % 2),
        };
    }
    match b % 15 {
        k @ 0..=11 => Expr::Binary {
            op: BINOPS[k],
            lhs: Box::new(build_expr(seed, depth - 1, pool)),
            rhs: Box::new(build_expr(seed, depth - 1, pool)),
        },
        12 => Expr::Not(Box::new(build_expr(seed, depth - 1, pool))),
        13 => Expr::Neg(Box::new(build_expr(seed, depth - 1, pool))),
        _ => Expr::IsNull {
            expr: Box::new(build_expr(seed, depth - 1, pool)),
            negated: b % 2 == 1,
        },
    }
}

fn test_schema() -> Schema {
    Schema::new(vec![
        Column {
            name: "c0".into(),
            ctype: ColType::Int,
        },
        Column {
            name: "c1".into(),
            ctype: ColType::Double,
        },
        Column {
            name: "c2".into(),
            ctype: ColType::Text,
        },
        Column {
            name: "c3".into(),
            ctype: ColType::Int,
        },
    ])
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any expression tree over any row and parameters evaluates to a
    /// value or an error, never a panic.
    #[test]
    fn random_expression_trees_evaluate_without_panicking(
        seed in proptest::collection::vec(0u8..255, 1..48),
        row_picks in proptest::collection::vec(0usize..16, 4),
        param_picks in proptest::collection::vec(0usize..16, 0..3),
    ) {
        let pool = lit_pool();
        let schema = test_schema();
        let expr = build_expr(&mut seed.iter(), 5, &pool);
        let row: Vec<Value> = row_picks.iter().map(|&i| pool[i].clone()).collect();
        let params: Vec<Value> = param_picks.iter().map(|&i| pool[i].clone()).collect();

        // Logical, comparison and NULL-test nodes yield a verdict:
        // 0, 1 or (except IS NULL) NULL, whatever their operands were.
        if let Ok(v) = &eval_ast(&expr, &schema, &row, &params) {
            let verdict = matches!(v, Value::Int(0 | 1));
            match &expr {
                Expr::IsNull { .. } => prop_assert!(verdict, "{expr:?} -> {v:?}"),
                Expr::Not(_) => prop_assert!(verdict || v.is_null(), "{expr:?} -> {v:?}"),
                Expr::Binary { op, .. } if !matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div) => {
                    prop_assert!(verdict || v.is_null(), "{expr:?} -> {v:?}")
                }
                _ => {}
            }
        }
    }
}

// ------------------------------------------------------------------ joins

/// Three databases with identical data whose index layouts force the
/// three join strategies: both sides indexed on the join key (merge),
/// inner side only (index-nested-loop), no index (every pair).
fn join_dbs(rows_l: &[(Option<i64>, i64)], rows_r: &[(Option<i64>, i64)]) -> [Database; 3] {
    let dbs = [Database::new(), Database::new(), Database::new()];
    for db in &dbs {
        db.exec("CREATE TABLE l (k INT, v INT)", &[]).unwrap();
        db.exec("CREATE TABLE r (k INT, w INT)", &[]).unwrap();
        for &(k, v) in rows_l {
            let kv = k.map_or(Value::Null, Value::Int);
            db.exec("INSERT INTO l VALUES (?, ?)", &[kv, Value::Int(v)])
                .unwrap();
        }
        for &(k, w) in rows_r {
            let kv = k.map_or(Value::Null, Value::Int);
            db.exec("INSERT INTO r VALUES (?, ?)", &[kv, Value::Int(w)])
                .unwrap();
        }
    }
    // Merge: both sides indexed on the join key.
    dbs[0].exec("CREATE INDEX l_k ON l (k)", &[]).unwrap();
    dbs[0].exec("CREATE INDEX r_k ON r (k)", &[]).unwrap();
    // INL: only the inner (right) side is indexed.
    dbs[1].exec("CREATE INDEX r_k ON r (k, w)", &[]).unwrap();
    dbs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Merge, index-nested-loop, and every-pair joins must be observationally
    /// identical: same columns, same rows, same row order — including
    /// NULL join keys (matched by no strategy) and duplicate keys
    /// (cross-producted by all of them).
    #[test]
    fn join_strategies_agree_on_rows_and_order(
        rows_l in proptest::collection::vec((0i64..6, -3i64..3), 0..24),
        rows_r in proptest::collection::vec((0i64..6, -3i64..3), 0..24),
        null_every in 2usize..5,
        filtered in 0usize..2,
    ) {
        // Every `null_every`-th key becomes NULL: joins must skip it.
        let mk = |rows: &[(i64, i64)]| -> Vec<(Option<i64>, i64)> {
            rows.iter()
                .enumerate()
                .map(|(i, &(k, v))| ((i % null_every != 0).then_some(k), v))
                .collect()
        };
        let (rows_l, rows_r) = (mk(&rows_l), mk(&rows_r));
        let dbs = join_dbs(&rows_l, &rows_r);
        let sql = if filtered == 0 {
            "SELECT * FROM l INNER JOIN r ON l.k = r.k"
        } else {
            "SELECT * FROM l INNER JOIN r ON l.k = r.k WHERE l.v <= r.w AND l.k > 1"
        };
        let merge = dbs[0].exec(sql, &[]).unwrap();
        let inl = dbs[1].exec(sql, &[]).unwrap();
        let pairs = dbs[2].exec(sql, &[]).unwrap();
        prop_assert_eq!(&merge, &inl, "merge != index-nested-loop for {}", sql);
        prop_assert_eq!(&merge, &pairs, "merge != every-pair for {}", sql);

        // Each layout exercised the strategy it was built to force.
        let (sm, si, sp) = (dbs[0].stats(), dbs[1].stats(), dbs[2].stats());
        prop_assert!(sm.join_merge_joins >= 1, "merge layout never merge-joined");
        prop_assert_eq!(sm.join_index_probes, 0);
        // One probe per non-NULL outer (left) row.
        if rows_l.iter().any(|(k, _)| k.is_some()) {
            prop_assert!(si.join_index_probes >= 1, "INL layout never probed");
        }
        prop_assert_eq!(si.join_merge_joins, 0);
        prop_assert_eq!(
            (sp.join_merge_joins, sp.join_index_probes),
            (0, 0),
            "unindexed layout used an index strategy"
        );
    }
}
