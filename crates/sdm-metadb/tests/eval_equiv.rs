//! Property tests for the expression evaluator: random expression
//! trees over adversarial values (NULL, NaN, signed zero, integers
//! beyond 2^53, `i64::MIN`) evaluate without panicking: every tree
//! yields a value or a `DbError`, and logical, comparison and NULL-test
//! nodes yield `0`, `1` or NULL.

use proptest::prelude::*;
use sdm_metadb::eval::eval_ast;
use sdm_metadb::sql::ast::{BinOp, Expr};
use sdm_metadb::{ColType, Column, Schema, Value};

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
