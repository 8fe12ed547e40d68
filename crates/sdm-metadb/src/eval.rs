//! Expression evaluation: one tree walk over the `Expr` AST.
//!
//! [`eval_ast`] evaluates every WHERE, join, HAVING, SET and VALUES
//! expression the executor meets, one row at a time, resolving each
//! column reference through a [`Resolve`] context (a table schema, a
//! join's combined columns, or an aggregate's output names). Errors are
//! raised lazily, per evaluated row, and returned as `DbError`s rather
//! than panics: an unknown column over an empty table is not an error,
//! because no row is ever evaluated, and a short-circuited `AND`/`OR`
//! never evaluates — so never rejects — its right operand.
//!
//! The walk recurses once per tree level. Expressions parsed from SQL
//! text are bounded by the parser's nesting cap, which is therefore
//! also the evaluator's recursion bound for text-built expressions.

use std::cmp::Ordering;

use crate::error::{DbError, DbResult};
use crate::exec::Resolve;
use crate::sql::ast::{BinOp, Expr};
use crate::table::Row;
use crate::value::Value;

/// Evaluate `expr` against a row (with `res` resolving column names)
/// and positional `params` by walking the AST.
pub fn eval_ast(expr: &Expr, res: &impl Resolve, row: &Row, params: &[Value]) -> DbResult<Value> {
    match expr {
        Expr::Lit(v) => Ok(v.clone()),
        Expr::Col(name) => Ok(row[res.col_index(name)?].clone()),
        Expr::Param(i) => params.get(*i).cloned().ok_or_else(|| {
            DbError::Arity(format!(
                "missing parameter {} (got {})",
                i + 1,
                params.len()
            ))
        }),
        Expr::Neg(e) => match eval_ast(e, res, row, params)? {
            Value::Int(i) => Ok(Value::Int(i.wrapping_neg())),
            Value::Double(d) => Ok(Value::Double(-d)),
            Value::Null => Ok(Value::Null),
            other => Err(DbError::Type(format!(
                "cannot negate {}",
                other.type_name()
            ))),
        },
        Expr::Not(e) => match truthy(&eval_ast(e, res, row, params)?) {
            Some(b) => Ok(Value::Int(!b as i64)),
            None => Ok(Value::Null),
        },
        Expr::IsNull { expr, negated } => {
            let v = eval_ast(expr, res, row, params)?;
            Ok(Value::Int((v.is_null() != *negated) as i64))
        }
        Expr::Binary { op, lhs, rhs } => {
            let l = eval_ast(lhs, res, row, params)?;
            // The right operand is evaluated lazily: `AND`/`OR` skip it
            // when the left operand already decides the verdict.
            let rhs = || eval_ast(rhs, res, row, params);
            match op {
                // SQL three-valued logic: FALSE dominates AND, TRUE
                // dominates OR, and otherwise NULL is contagious.
                BinOp::And => {
                    if truthy(&l) == Some(false) {
                        return Ok(Value::Int(0));
                    }
                    Ok(match (truthy(&l), truthy(&rhs()?)) {
                        (Some(a), Some(b)) => Value::Int((a && b) as i64),
                        (_, Some(false)) => Value::Int(0),
                        _ => Value::Null,
                    })
                }
                BinOp::Or => {
                    if truthy(&l) == Some(true) {
                        return Ok(Value::Int(1));
                    }
                    Ok(match (truthy(&l), truthy(&rhs()?)) {
                        (Some(a), Some(b)) => Value::Int((a || b) as i64),
                        (_, Some(true)) => Value::Int(1),
                        _ => Value::Null,
                    })
                }
                BinOp::Eq => compare(&l, &rhs()?, |o| o == Ordering::Equal),
                BinOp::Ne => compare(&l, &rhs()?, |o| o != Ordering::Equal),
                BinOp::Lt => compare(&l, &rhs()?, |o| o == Ordering::Less),
                BinOp::Le => compare(&l, &rhs()?, |o| o != Ordering::Greater),
                BinOp::Gt => compare(&l, &rhs()?, |o| o == Ordering::Greater),
                BinOp::Ge => compare(&l, &rhs()?, |o| o != Ordering::Less),
                BinOp::Add => arith(
                    &l,
                    &rhs()?,
                    |a, b| Some(a.wrapping_add(b)),
                    |a, b| Some(a + b),
                ),
                BinOp::Sub => arith(
                    &l,
                    &rhs()?,
                    |a, b| Some(a.wrapping_sub(b)),
                    |a, b| Some(a - b),
                ),
                BinOp::Mul => arith(
                    &l,
                    &rhs()?,
                    |a, b| Some(a.wrapping_mul(b)),
                    |a, b| Some(a * b),
                ),
                // SQL: division by zero yields NULL.
                BinOp::Div => arith(
                    &l,
                    &rhs()?,
                    |a, b| (b != 0).then(|| a.wrapping_div(b)),
                    |a, b| (b != 0.0).then(|| a / b),
                ),
            }
        }
    }
}

/// SQL truthiness: NULL is unknown, numbers by non-zero, text by
/// non-empty (MySQL 3.23's permissive coercion).
pub fn truthy(v: &Value) -> Option<bool> {
    match v {
        Value::Null => None,
        Value::Int(i) => Some(*i != 0),
        Value::Double(d) => Some(*d != 0.0),
        Value::Text(s) => Some(!s.is_empty()),
    }
}

/// A comparison under [`Value::sql_cmp`]: NULL when the operands are
/// incomparable (a NULL, a NaN, or text against a number), else `hit`'s
/// verdict on their ordering as `0`/`1`.
fn compare(l: &Value, r: &Value, hit: impl Fn(Ordering) -> bool) -> DbResult<Value> {
    Ok(match l.sql_cmp(r) {
        None => Value::Null,
        Some(o) => Value::Int(hit(o) as i64),
    })
}

/// Arithmetic on two values: a NULL operand gives NULL, two integers use
/// `int` (wrapping), anything else numeric is promoted to `f64` and uses
/// `dbl`, and text is a type error. An operation returning `None`
/// (division by zero) gives NULL.
fn arith(
    l: &Value,
    r: &Value,
    int: impl Fn(i64, i64) -> Option<i64>,
    dbl: impl Fn(f64, f64) -> Option<f64>,
) -> DbResult<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    if let (Value::Int(a), Value::Int(b)) = (l, r) {
        return Ok(int(*a, *b).map_or(Value::Null, Value::Int));
    }
    let num = |v: &Value| {
        v.as_f64()
            .ok_or_else(|| DbError::Type(format!("arithmetic on {}", v.type_name())))
    };
    let (a, b) = (num(l)?, num(r)?);
    Ok(dbl(a, b).map_or(Value::Null, Value::Double))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColType, Column, Schema};

    fn schema() -> Schema {
        let col = |name: &str, ctype: ColType| Column {
            name: name.into(),
            ctype,
        };
        Schema::new(vec![
            col("id", ColType::Int),
            col("score", ColType::Double),
            col("name", ColType::Text),
        ])
        .unwrap()
    }

    fn col(n: &str) -> Expr {
        Expr::Col(n.into())
    }

    fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    fn null() -> Expr {
        Expr::Lit(Value::Null)
    }

    fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
        Expr::Binary {
            op,
            lhs: Box::new(l),
            rhs: Box::new(r),
        }
    }

    fn not(e: Expr) -> Expr {
        Expr::Not(Box::new(e))
    }

    fn neg(e: Expr) -> Expr {
        Expr::Neg(Box::new(e))
    }

    /// Evaluate over one fixed row: `id = NULL`, `score = 0.0`,
    /// `name = ''`.
    fn eval(e: &Expr, params: &[Value]) -> DbResult<Value> {
        let row = vec![Value::Null, Value::Double(0.0), Value::Text(String::new())];
        eval_ast(e, &schema(), &row, params)
    }

    /// Check each `(expression, expected value)` pair; doubles compare
    /// bit for bit, so `-0.0` and NaN payloads are pinned too.
    fn check(cases: &[(Expr, Value)]) {
        for (e, want) in cases {
            let got = eval(e, &[]).unwrap_or_else(|err| panic!("{e:?} failed: {err}"));
            match (&got, want) {
                (Value::Double(a), Value::Double(b)) => {
                    assert_eq!(a.to_bits(), b.to_bits(), "{e:?}: got {got:?}")
                }
                _ => assert_eq!(&got, want, "{e:?}"),
            }
        }
    }

    #[test]
    fn null_in_and_or_not_is_three_valued() {
        use BinOp::{And, Or};
        let (t, f) = (|| lit(1i64), || lit(0i64));
        check(&[
            (bin(And, col("id"), t()), Value::Null),   // NULL AND 1
            (bin(And, col("id"), f()), Value::Int(0)), // NULL AND 0
            (bin(And, t(), null()), Value::Null),
            (bin(And, f(), null()), Value::Int(0)),
            (bin(And, null(), null()), Value::Null),
            (bin(Or, col("id"), t()), Value::Int(1)), // NULL OR 1
            (bin(Or, col("id"), f()), Value::Null),   // NULL OR 0
            (bin(Or, t(), null()), Value::Int(1)),
            (bin(Or, f(), null()), Value::Null),
            (bin(Or, null(), null()), Value::Null),
            (not(col("id")), Value::Null),      // NOT NULL
            (not(col("score")), Value::Int(1)), // NOT 0.0
            (not(col("name")), Value::Int(1)),  // NOT ''
            (not(lit("x")), Value::Int(0)),     // non-empty text is true
            (bin(BinOp::Eq, col("id"), col("id")), Value::Null), // NULL = NULL
            (
                Expr::IsNull {
                    expr: Box::new(col("id")),
                    negated: false,
                },
                Value::Int(1),
            ),
            (
                Expr::IsNull {
                    expr: Box::new(col("score")),
                    negated: true,
                },
                Value::Int(1),
            ),
        ]);
    }

    #[test]
    fn nan_and_signed_zero_compare_like_sql() {
        use BinOp::{Eq, Ge, Gt, Le, Lt, Ne};
        let nan = || lit(f64::NAN);
        let (pz, nz) = (|| lit(0.0f64), || lit(-0.0f64));
        check(&[
            // NaN is incomparable: every comparison is NULL.
            (bin(Eq, nan(), nan()), Value::Null),
            (bin(Ne, nan(), nan()), Value::Null),
            (bin(Lt, nan(), lit(1i64)), Value::Null),
            (bin(Ge, lit(1.0f64), nan()), Value::Null),
            // -0.0 and 0.0 are equal, in either order, and against Int 0.
            (bin(Eq, nz(), pz()), Value::Int(1)),
            (bin(Ne, pz(), nz()), Value::Int(0)),
            (bin(Lt, nz(), pz()), Value::Int(0)),
            (bin(Le, nz(), pz()), Value::Int(1)),
            (bin(Gt, pz(), nz()), Value::Int(0)),
            (bin(Eq, nz(), lit(0i64)), Value::Int(1)),
            // NaN arithmetic stays NaN; negating 0.0 gives -0.0.
            (bin(BinOp::Add, nan(), lit(1i64)), Value::Double(f64::NAN)),
            (neg(pz()), Value::Double(-0.0)),
            // Text against a number is incomparable, text orders by bytes.
            (bin(Eq, lit("1"), lit(1i64)), Value::Null),
            (bin(Lt, lit("a"), lit("b")), Value::Int(1)),
        ]);
    }

    #[test]
    fn integer_arithmetic_wraps() {
        use BinOp::{Add, Div, Mul, Sub};
        let (min, max) = (|| lit(i64::MIN), || lit(i64::MAX));
        check(&[
            (bin(Add, max(), lit(1i64)), Value::Int(i64::MIN)),
            (bin(Sub, min(), lit(1i64)), Value::Int(i64::MAX)),
            (bin(Mul, min(), lit(-1i64)), Value::Int(i64::MIN)),
            (bin(Div, min(), lit(-1i64)), Value::Int(i64::MIN)),
            (neg(min()), Value::Int(i64::MIN)),
            (bin(Div, lit(7i64), lit(-2i64)), Value::Int(-3)), // truncates
            // One double operand promotes the whole operation.
            (bin(Div, lit(7i64), lit(2.0f64)), Value::Double(3.5)),
            (bin(Add, lit(1i64), null()), Value::Null),
        ]);
    }

    #[test]
    fn division_by_zero_is_null() {
        use BinOp::Div;
        check(&[
            (bin(Div, lit(1i64), lit(0i64)), Value::Null),
            (bin(Div, lit(i64::MIN), lit(0i64)), Value::Null),
            (bin(Div, lit(1.0f64), lit(0.0f64)), Value::Null),
            (bin(Div, lit(1.0f64), lit(-0.0f64)), Value::Null),
            (bin(Div, lit(1i64), lit(0.0f64)), Value::Null),
            (bin(Div, lit(0.0f64), lit(0i64)), Value::Null),
        ]);
    }

    #[test]
    fn text_arithmetic_is_a_type_error() {
        for e in [
            bin(BinOp::Add, col("name"), lit(1i64)),
            bin(BinOp::Mul, lit(2.0f64), lit("x")),
            bin(BinOp::Div, lit("a"), lit("b")),
            neg(col("name")),
        ] {
            assert!(matches!(eval(&e, &[]), Err(DbError::Type(_))), "{e:?}");
        }
        // A NULL operand wins over the type check.
        check(&[(bin(BinOp::Sub, lit("x"), null()), Value::Null)]);
    }

    #[test]
    fn short_circuit_skips_missing_param() {
        // With no parameters bound, a decided left operand never
        // evaluates `?`, so the missing parameter is not an error ...
        let skipped = [
            (bin(BinOp::And, lit(0i64), Expr::Param(0)), Value::Int(0)),
            (bin(BinOp::Or, lit(1i64), Expr::Param(0)), Value::Int(1)),
            (bin(BinOp::And, lit(""), Expr::Param(0)), Value::Int(0)),
        ];
        check(&skipped);
        // ... but an evaluated one is.
        for e in [
            bin(BinOp::And, lit(1i64), Expr::Param(0)),
            bin(BinOp::Or, null(), Expr::Param(0)),
            bin(BinOp::Eq, lit(0i64), Expr::Param(0)),
        ] {
            assert!(matches!(eval(&e, &[]), Err(DbError::Arity(_))), "{e:?}");
        }
        assert_eq!(
            eval(
                &bin(BinOp::And, lit(1i64), Expr::Param(0)),
                &[Value::Int(7)]
            )
            .unwrap(),
            Value::Int(1)
        );
    }

    #[test]
    fn deep_expression_evaluates() {
        // `1 + (1 + (… + 1))`, 100 levels deep, right-nested.
        let mut e = lit(1i64);
        for _ in 0..100 {
            e = bin(BinOp::Add, lit(1i64), e);
        }
        check(&[(e, Value::Int(101))]);
    }

    #[test]
    fn unknown_column_errors_only_when_evaluated() {
        assert!(matches!(
            eval(&col("nope"), &[]),
            Err(DbError::NoSuchColumn(_))
        ));
        check(&[(bin(BinOp::Or, lit(1i64), col("nope")), Value::Int(1))]);
    }
}
