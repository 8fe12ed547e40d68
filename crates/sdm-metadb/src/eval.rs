//! Compiled expression evaluation: `Expr` ASTs lowered to flat
//! instruction lists.
//!
//! The executor re-verifies every index candidate against the statement's
//! predicate. Walking the AST per row means a tree traversal with a
//! `Value` clone per node and a column-name hash lookup per `Expr::Col` —
//! on the hottest loop in the crate. [`compile`] lowers an expression
//! once, on first execution, into a [`Program`]: a `Vec<Op>` in post-order
//! with column references resolved to row **slots**, constants interned
//! into a side table, and the SQL three-valued `AND`/`OR` short-circuits
//! expressed as conditional jumps. [`Program::eval_truthy`] then runs the
//! ops against a fixed register file of borrowed values — zero heap
//! allocation per row.
//!
//! Compilation is allowed to fail ([`compile`] returns `None`): an
//! unresolvable column or an expression deeper than the register file
//! falls back to the per-row AST walk ([`eval_ast`], the interpreter that
//! used to live in `exec.rs`). The fallback preserves the interpreter's
//! lazily-raised errors — a bad column name over an empty table is not an
//! error today, and compiled plans must not make it one. The
//! `compiled-eval` analyzer rule keeps `eval_ast` calls from creeping
//! outside this module.

use std::cmp::Ordering;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::{DbError, DbResult};
use crate::exec::Resolve;
use crate::sql::ast::{BinOp, Expr};
use crate::table::Row;
use crate::value::Value;

/// Register-file size. Expressions needing more live registers than
/// this (nesting depth ~32) fall back to the AST walk.
const MAX_REGS: usize = 32;

// ------------------------------------------------------------------ op set

/// One instruction of a compiled expression program. Operands live on a
/// register stack; binary ops pop two and push one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Push row slot `n` (column index resolved at compile time).
    Col(u32),
    /// Push interned constant `n`.
    Const(u32),
    /// Push positional parameter `n`. Arity is checked when the op
    /// *executes*, not at compile time: a short-circuited branch may
    /// legally reference a parameter that was never bound.
    Param(u32),
    /// Arithmetic negation of the top register.
    Neg,
    /// Three-valued logical NOT of the top register.
    Not,
    /// `IS NULL` (or `IS NOT NULL` when `negated`) of the top register.
    IsNull {
        /// True for `IS NOT NULL`.
        negated: bool,
    },
    /// If the top register is SQL-false, replace it with `0` and jump
    /// to op index `n` — the `AND` short-circuit.
    JumpIfFalse(u32),
    /// If the top register is SQL-true, replace it with `1` and jump
    /// to op index `n` — the `OR` short-circuit.
    JumpIfTrue(u32),
    /// Three-valued AND of the top two registers.
    And,
    /// Three-valued OR of the top two registers.
    Or,
    /// `sql_cmp` comparisons of the top two registers (NULL → NULL).
    Eq,
    /// Not-equal.
    Ne,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
    /// Arithmetic on the top two registers (NULL operand → NULL,
    /// integer ops wrap, division by zero → NULL).
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Fused superinstruction: compare two leaf operands and push the
    /// verdict. `col <op> ?n` — the single most common predicate shape —
    /// costs one dispatch instead of three.
    CmpLL(Src, Src, CmpKind),
    /// Fused superinstruction: compare the top register against a leaf
    /// operand (lhs already computed on the stack).
    CmpSL(Src, CmpKind),
    /// Fused superinstruction: arithmetic over two leaf operands.
    ArithLL(Src, Src, ArithKind),
}

/// A leaf operand a fused op reads directly, bypassing the register
/// stack: a row slot, an interned constant, or a positional parameter.
/// Parameter arity stays execution-checked, exactly as [`Op::Param`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Src {
    /// Row slot.
    Col(u32),
    /// Interned constant.
    Const(u32),
    /// Positional parameter.
    Param(u32),
}

/// Comparison selector of a fused compare op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpKind {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpKind {
    /// Verdict for an ordering under this comparison.
    #[inline]
    fn hit(self, o: Ordering) -> bool {
        match self {
            CmpKind::Eq => o == Ordering::Equal,
            CmpKind::Ne => o != Ordering::Equal,
            CmpKind::Lt => o == Ordering::Less,
            CmpKind::Le => o != Ordering::Greater,
            CmpKind::Gt => o == Ordering::Greater,
            CmpKind::Ge => o != Ordering::Less,
        }
    }
}

/// Arithmetic selector of a fused arithmetic op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithKind {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl ArithKind {
    fn bin(self) -> BinOp {
        match self {
            ArithKind::Add => BinOp::Add,
            ArithKind::Sub => BinOp::Sub,
            ArithKind::Mul => BinOp::Mul,
            ArithKind::Div => BinOp::Div,
        }
    }
}

/// A compiled expression: post-order ops plus the interned constants
/// they reference. Built by [`compile`], immutable afterwards.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    ops: Vec<Op>,
    consts: Vec<Value>,
    /// Peak register-stack depth, fixed at compile time. Lets the
    /// evaluator size its register file to the expression instead of
    /// always initializing all `MAX_REGS` slots.
    peak: u32,
}

/// Register-file size of the fast evaluation path; almost every WHERE
/// clause in the workload fits (peak depth tracks expression *nesting*,
/// not length — `a = 1 AND b = 2 AND …` peaks at 3).
const SMALL_REGS: usize = 8;

// ----------------------------------------------------------------- compiler

struct Compiler<'r, R: Resolve> {
    res: &'r R,
    ops: Vec<Op>,
    consts: Vec<Value>,
    /// Live registers at the current point of emission.
    depth: usize,
    /// High-water mark of `depth`; becomes [`Program::peak`].
    peak: usize,
}

impl<R: Resolve> Compiler<'_, R> {
    /// Emit an op that pushes one register; `None` when the register
    /// file would overflow.
    fn push(&mut self, op: Op) -> Option<()> {
        self.depth += 1;
        if self.depth > MAX_REGS {
            return None;
        }
        self.peak = self.peak.max(self.depth);
        self.ops.push(op);
        Some(())
    }

    /// Emit an op that pops two registers and pushes one.
    fn reduce(&mut self, op: Op) {
        self.ops.push(op);
        self.depth -= 1;
    }

    /// Intern `v` by *strict* identity (variant + bits): `Int(0)` and
    /// `Double(0.0)` are SQL-equal but must stay distinct constants, and
    /// `f64` interning compares bit patterns so `-0.0` and NaN payloads
    /// are preserved exactly.
    fn intern(&mut self, v: &Value) -> u32 {
        let pos = self.consts.iter().position(|c| match (c, v) {
            (Value::Null, Value::Null) => true,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Double(a), Value::Double(b)) => a.to_bits() == b.to_bits(),
            (Value::Text(a), Value::Text(b)) => a == b,
            _ => false,
        });
        match pos {
            Some(i) => i as u32,
            None => {
                self.consts.push(v.clone());
                (self.consts.len() - 1) as u32
            }
        }
    }

    fn emit(&mut self, expr: &Expr) -> Option<()> {
        match expr {
            Expr::Lit(v) => {
                let i = self.intern(v);
                self.push(Op::Const(i))
            }
            Expr::Col(name) => {
                let slot = self.res.col_index(name).ok()?;
                self.push(Op::Col(u32::try_from(slot).ok()?))
            }
            Expr::Param(i) => self.push(Op::Param(u32::try_from(*i).ok()?)),
            Expr::Neg(e) => {
                self.emit(e)?;
                self.ops.push(Op::Neg);
                Some(())
            }
            Expr::Not(e) => {
                self.emit(e)?;
                self.ops.push(Op::Not);
                Some(())
            }
            Expr::IsNull { expr, negated } => {
                self.emit(expr)?;
                self.ops.push(Op::IsNull { negated: *negated });
                Some(())
            }
            Expr::Binary { op, lhs, rhs } => match op {
                BinOp::And | BinOp::Or => {
                    self.emit(lhs)?;
                    let jump_at = self.ops.len();
                    // Placeholder target, patched to just past the
                    // combining op once the rhs length is known.
                    self.ops.push(Op::JumpIfFalse(0));
                    self.emit(rhs)?;
                    self.reduce(if *op == BinOp::And { Op::And } else { Op::Or });
                    let target = u32::try_from(self.ops.len()).ok()?;
                    self.ops[jump_at] = if *op == BinOp::And {
                        Op::JumpIfFalse(target)
                    } else {
                        Op::JumpIfTrue(target)
                    };
                    Some(())
                }
                _ => {
                    let lhs_start = self.ops.len();
                    self.emit(lhs)?;
                    let rhs_start = self.ops.len();
                    self.emit(rhs)?;
                    let single = |ops: &[Op], start: usize, end: usize| -> Option<Src> {
                        if end - start != 1 {
                            return None;
                        }
                        match ops[start] {
                            Op::Col(i) => Some(Src::Col(i)),
                            Op::Const(i) => Some(Src::Const(i)),
                            Op::Param(i) => Some(Src::Param(i)),
                            _ => None,
                        }
                    };
                    let a = single(&self.ops, lhs_start, rhs_start);
                    let b = single(&self.ops, rhs_start, self.ops.len());
                    // Superinstruction fusion. Rewriting only the
                    // just-emitted tail keeps every patched jump target
                    // valid: targets always point just past an `And`/`Or`
                    // op, never into a leaf/compare suffix.
                    enum Fused {
                        Cmp(CmpKind),
                        Arith(ArithKind),
                    }
                    let f = match op {
                        BinOp::Eq => Fused::Cmp(CmpKind::Eq),
                        BinOp::Ne => Fused::Cmp(CmpKind::Ne),
                        BinOp::Lt => Fused::Cmp(CmpKind::Lt),
                        BinOp::Le => Fused::Cmp(CmpKind::Le),
                        BinOp::Gt => Fused::Cmp(CmpKind::Gt),
                        BinOp::Ge => Fused::Cmp(CmpKind::Ge),
                        BinOp::Add => Fused::Arith(ArithKind::Add),
                        BinOp::Sub => Fused::Arith(ArithKind::Sub),
                        BinOp::Mul => Fused::Arith(ArithKind::Mul),
                        BinOp::Div => Fused::Arith(ArithKind::Div),
                        BinOp::And | BinOp::Or => return None,
                    };
                    match (a, b, f) {
                        (Some(a), Some(b), Fused::Cmp(k)) => {
                            self.ops.truncate(lhs_start);
                            self.ops.push(Op::CmpLL(a, b, k));
                            self.depth -= 1;
                        }
                        (Some(a), Some(b), Fused::Arith(k)) => {
                            self.ops.truncate(lhs_start);
                            self.ops.push(Op::ArithLL(a, b, k));
                            self.depth -= 1;
                        }
                        (None, Some(b), Fused::Cmp(k)) => {
                            self.ops.truncate(rhs_start);
                            self.ops.push(Op::CmpSL(b, k));
                            self.depth -= 1;
                        }
                        (_, _, f) => self.reduce(match f {
                            Fused::Cmp(CmpKind::Eq) => Op::Eq,
                            Fused::Cmp(CmpKind::Ne) => Op::Ne,
                            Fused::Cmp(CmpKind::Lt) => Op::Lt,
                            Fused::Cmp(CmpKind::Le) => Op::Le,
                            Fused::Cmp(CmpKind::Gt) => Op::Gt,
                            Fused::Cmp(CmpKind::Ge) => Op::Ge,
                            Fused::Arith(ArithKind::Add) => Op::Add,
                            Fused::Arith(ArithKind::Sub) => Op::Sub,
                            Fused::Arith(ArithKind::Mul) => Op::Mul,
                            Fused::Arith(ArithKind::Div) => Op::Div,
                        }),
                    }
                    Some(())
                }
            },
        }
    }
}

/// Lower `expr` into a [`Program`] with column references resolved to
/// row slots through `res`. Returns `None` when the expression cannot
/// be compiled (unresolvable column, register file exceeded); the
/// caller falls back to [`eval_ast`], which preserves the interpreter's
/// per-row error behavior exactly.
pub fn compile(expr: &Expr, res: &impl Resolve) -> Option<Program> {
    let mut c = Compiler {
        res,
        ops: Vec::new(),
        consts: Vec::new(),
        depth: 0,
        peak: 0,
    };
    c.emit(expr)?;
    debug_assert_eq!(c.depth, 1);
    Some(Program {
        ops: c.ops,
        consts: c.consts,
        peak: c.peak as u32,
    })
}

// ---------------------------------------------------------------- evaluator

/// One register: borrowed cell/constant/parameter, or an owned scalar
/// produced by an op. No op produces a string (`Text` only flows through
/// `Ref` borrows), so owned results are inline scalars, the register is
/// 16 bytes and `Copy`, and the whole register file initializes with one
/// small memset instead of a per-slot `Value` write.
#[derive(Clone, Copy)]
enum Reg<'a> {
    Empty,
    Ref(&'a Value),
    Null,
    Int(i64),
    Double(f64),
}

/// SQL three-valued truthiness of a register, without materializing a
/// `Value` for owned scalars.
#[inline]
fn reg_truthy(r: Reg<'_>) -> Option<bool> {
    match r {
        Reg::Ref(v) => truthy(v),
        Reg::Int(i) => Some(i != 0),
        Reg::Double(d) => Some(d != 0.0),
        Reg::Null | Reg::Empty => None,
    }
}

/// A borrowed scalar view of a register. Comparison and arithmetic ops
/// work on this directly, so computed scalars never round-trip through
/// a temporary `Value`.
#[derive(Clone, Copy)]
enum View<'a> {
    Null,
    Int(i64),
    Double(f64),
    Text(&'a str),
}

impl<'a> View<'a> {
    #[inline]
    fn of(r: Reg<'a>) -> View<'a> {
        match r {
            Reg::Ref(v) => View::of_value(v),
            Reg::Int(i) => View::Int(i),
            Reg::Double(d) => View::Double(d),
            Reg::Null | Reg::Empty => View::Null,
        }
    }

    #[inline]
    fn of_value(v: &'a Value) -> View<'a> {
        match v {
            Value::Null => View::Null,
            Value::Int(i) => View::Int(*i),
            Value::Double(d) => View::Double(*d),
            Value::Text(s) => View::Text(s),
        }
    }

    #[inline]
    fn as_f64(self) -> Option<f64> {
        match self {
            View::Int(i) => Some(i as f64),
            View::Double(d) => Some(d),
            _ => None,
        }
    }

    fn type_name(self) -> &'static str {
        match self {
            View::Null => "NULL",
            View::Int(_) => "INT",
            View::Double(_) => "DOUBLE",
            View::Text(_) => "TEXT",
        }
    }
}

/// Mirror of [`Value::sql_cmp`] over views: NULL is unknown, text
/// compares lexicographically, numerics compare through `f64` — Int/Int
/// included, so huge integers collapse exactly as the AST walk does.
#[inline]
fn view_cmp(a: View<'_>, b: View<'_>) -> Option<Ordering> {
    match (a, b) {
        (View::Null, _) | (_, View::Null) => None,
        (View::Text(x), View::Text(y)) => Some(x.cmp(y)),
        (x, y) => x.as_f64()?.partial_cmp(&y.as_f64()?),
    }
}

/// Comparison verdict as a register: unknown → NULL, else 0/1.
#[inline]
fn cmp_reg(cmp: Option<Ordering>, kind: CmpKind) -> Reg<'static> {
    match cmp {
        None => Reg::Null,
        Some(o) => Reg::Int(kind.hit(o) as i64),
    }
}

/// Mirror of [`arith`] over views, producing a register directly:
/// NULL-in NULL-out, Int/Int stays wrapping integer arithmetic with
/// division by zero as NULL, anything else promotes through `f64`.
#[inline]
fn view_arith(op: BinOp, l: View<'_>, r: View<'_>) -> DbResult<Reg<'static>> {
    match (l, r) {
        (View::Null, _) | (_, View::Null) => Ok(Reg::Null),
        (View::Int(a), View::Int(b)) => Ok(match op {
            BinOp::Add => Reg::Int(a.wrapping_add(b)),
            BinOp::Sub => Reg::Int(a.wrapping_sub(b)),
            BinOp::Mul => Reg::Int(a.wrapping_mul(b)),
            BinOp::Div => {
                if b == 0 {
                    Reg::Null // SQL: division by zero yields NULL
                } else {
                    Reg::Int(a.wrapping_div(b))
                }
            }
            _ => unreachable!(),
        }),
        (l, r) => {
            let a = l
                .as_f64()
                .ok_or_else(|| DbError::Type(format!("arithmetic on {}", l.type_name())))?;
            let b = r
                .as_f64()
                .ok_or_else(|| DbError::Type(format!("arithmetic on {}", r.type_name())))?;
            Ok(match op {
                BinOp::Add => Reg::Double(a + b),
                BinOp::Sub => Reg::Double(a - b),
                BinOp::Mul => Reg::Double(a * b),
                BinOp::Div => {
                    if b == 0.0 {
                        Reg::Null
                    } else {
                        Reg::Double(a / b)
                    }
                }
                _ => unreachable!(),
            })
        }
    }
}

impl Program {
    /// Resolve a fused op's leaf operand. Parameter arity is checked
    /// here, when the op executes — same behavior as [`Op::Param`].
    #[inline]
    fn src<'a>(&'a self, s: Src, row: &'a [Value], params: &'a [Value]) -> DbResult<&'a Value> {
        Ok(match s {
            Src::Col(i) => &row[i as usize],
            Src::Const(i) => &self.consts[i as usize],
            Src::Param(i) => params.get(i as usize).ok_or_else(|| {
                DbError::Arity(format!(
                    "missing parameter {} (got {})",
                    i as usize + 1,
                    params.len()
                ))
            })?,
        })
    }

    /// Run the program against `row`/`params` and return the final
    /// register. Dispatches on the compile-time peak stack depth so the
    /// common shallow predicate pays for an 8-slot register file, not
    /// the full `MAX_REGS`.
    #[inline]
    fn run<'a>(&'a self, row: &'a [Value], params: &'a [Value]) -> DbResult<Reg<'a>> {
        if self.peak as usize <= SMALL_REGS {
            self.run_n::<SMALL_REGS>(row, params)
        } else {
            self.run_n::<MAX_REGS>(row, params)
        }
    }

    /// The interpreter loop over an `N`-slot register file. Programs
    /// produced by [`compile`] are well-formed by construction: stack
    /// depth stays in `1..=peak <= N` and jump targets land on op
    /// boundaries.
    fn run_n<'a, const N: usize>(
        &'a self,
        row: &'a [Value],
        params: &'a [Value],
    ) -> DbResult<Reg<'a>> {
        let mut regs = [Reg::Empty; N];
        let mut sp = 0usize;
        let mut pc = 0usize;
        while let Some(op) = self.ops.get(pc) {
            match *op {
                Op::Col(i) => {
                    regs[sp] = Reg::Ref(&row[i as usize]);
                    sp += 1;
                }
                Op::Const(i) => {
                    regs[sp] = Reg::Ref(&self.consts[i as usize]);
                    sp += 1;
                }
                Op::Param(i) => {
                    let v = params.get(i as usize).ok_or_else(|| {
                        DbError::Arity(format!(
                            "missing parameter {} (got {})",
                            i as usize + 1,
                            params.len()
                        ))
                    })?;
                    regs[sp] = Reg::Ref(v);
                    sp += 1;
                }
                Op::Neg => {
                    regs[sp - 1] = match regs[sp - 1] {
                        Reg::Int(i) => Reg::Int(i.wrapping_neg()),
                        Reg::Double(d) => Reg::Double(-d),
                        Reg::Null | Reg::Empty => Reg::Null,
                        Reg::Ref(v) => match v {
                            Value::Int(i) => Reg::Int(i.wrapping_neg()),
                            Value::Double(d) => Reg::Double(-d),
                            Value::Null => Reg::Null,
                            other => {
                                return Err(DbError::Type(format!(
                                    "cannot negate {}",
                                    other.type_name()
                                )))
                            }
                        },
                    };
                }
                Op::Not => {
                    regs[sp - 1] = match reg_truthy(regs[sp - 1]) {
                        Some(b) => Reg::Int(!b as i64),
                        None => Reg::Null,
                    };
                }
                Op::IsNull { negated } => {
                    let is_null = match regs[sp - 1] {
                        Reg::Ref(v) => v.is_null(),
                        Reg::Null | Reg::Empty => true,
                        _ => false,
                    };
                    regs[sp - 1] = Reg::Int((is_null != negated) as i64);
                }
                Op::JumpIfFalse(target) => {
                    if reg_truthy(regs[sp - 1]) == Some(false) {
                        regs[sp - 1] = Reg::Int(0);
                        pc = target as usize;
                        continue;
                    }
                }
                Op::JumpIfTrue(target) => {
                    if reg_truthy(regs[sp - 1]) == Some(true) {
                        regs[sp - 1] = Reg::Int(1);
                        pc = target as usize;
                        continue;
                    }
                }
                Op::And => {
                    sp -= 1;
                    let r = reg_truthy(regs[sp]);
                    let l = reg_truthy(regs[sp - 1]);
                    regs[sp - 1] = match (l, r) {
                        (Some(a), Some(b)) => Reg::Int((a && b) as i64),
                        (_, Some(false)) => Reg::Int(0),
                        _ => Reg::Null,
                    };
                }
                Op::Or => {
                    sp -= 1;
                    let r = reg_truthy(regs[sp]);
                    let l = reg_truthy(regs[sp - 1]);
                    regs[sp - 1] = match (l, r) {
                        (Some(a), Some(b)) => Reg::Int((a || b) as i64),
                        (_, Some(true)) => Reg::Int(1),
                        _ => Reg::Null,
                    };
                }
                Op::Eq | Op::Ne | Op::Lt | Op::Le | Op::Gt | Op::Ge => {
                    sp -= 1;
                    let kind = match op {
                        Op::Eq => CmpKind::Eq,
                        Op::Ne => CmpKind::Ne,
                        Op::Lt => CmpKind::Lt,
                        Op::Le => CmpKind::Le,
                        Op::Gt => CmpKind::Gt,
                        _ => CmpKind::Ge,
                    };
                    let cmp = view_cmp(View::of(regs[sp - 1]), View::of(regs[sp]));
                    regs[sp - 1] = cmp_reg(cmp, kind);
                }
                Op::Add | Op::Sub | Op::Mul | Op::Div => {
                    sp -= 1;
                    let bin = match op {
                        Op::Add => BinOp::Add,
                        Op::Sub => BinOp::Sub,
                        Op::Mul => BinOp::Mul,
                        _ => BinOp::Div,
                    };
                    regs[sp - 1] = view_arith(bin, View::of(regs[sp - 1]), View::of(regs[sp]))?;
                }
                Op::CmpLL(a, b, kind) => {
                    let a = self.src(a, row, params)?;
                    let b = self.src(b, row, params)?;
                    regs[sp] = cmp_reg(view_cmp(View::of_value(a), View::of_value(b)), kind);
                    sp += 1;
                }
                Op::CmpSL(b, kind) => {
                    let b = self.src(b, row, params)?;
                    let cmp = view_cmp(View::of(regs[sp - 1]), View::of_value(b));
                    regs[sp - 1] = cmp_reg(cmp, kind);
                }
                Op::ArithLL(a, b, kind) => {
                    let a = self.src(a, row, params)?;
                    let b = self.src(b, row, params)?;
                    regs[sp] = view_arith(kind.bin(), View::of_value(a), View::of_value(b))?;
                    sp += 1;
                }
            }
            pc += 1;
        }
        Ok(regs[sp - 1])
    }

    /// Evaluate to a [`Value`] (SET/VALUES expressions). Clones only the
    /// final result, and only when it is a borrowed `Text` cell.
    pub fn eval_value(&self, row: &[Value], params: &[Value]) -> DbResult<Value> {
        Ok(match self.run(row, params)? {
            Reg::Empty | Reg::Null => Value::Null,
            Reg::Ref(v) => v.clone(),
            Reg::Int(i) => Value::Int(i),
            Reg::Double(d) => Value::Double(d),
        })
    }

    /// Evaluate as a predicate (filters, join conditions, HAVING):
    /// SQL three-valued verdict, no clone of the final register.
    pub fn eval_truthy(&self, row: &[Value], params: &[Value]) -> DbResult<Option<bool>> {
        Ok(reg_truthy(self.run(row, params)?))
    }
}

// --------------------------------------------------- fallback entry points

/// Per-row verdict of a predicate: the compiled program when lowering
/// succeeded, else the AST walk. This and [`row_value`] are the only
/// sanctioned `eval_ast` funnels outside this module's own internals —
/// the `compiled-eval` analyzer rule flags any other call site.
pub fn row_truthy(
    prog: Option<&Program>,
    expr: &Expr,
    res: &impl Resolve,
    row: &Row,
    params: &[Value],
) -> DbResult<Option<bool>> {
    match prog {
        Some(p) => p.eval_truthy(row, params),
        None => Ok(truthy(&eval_ast(expr, res, row, params)?)),
    }
}

/// Per-row value of an expression (SET/VALUES): compiled program when
/// available, else the AST walk. See [`row_truthy`].
pub fn row_value(
    prog: Option<&Program>,
    expr: &Expr,
    res: &impl Resolve,
    row: &Row,
    params: &[Value],
) -> DbResult<Value> {
    match prog {
        Some(p) => p.eval_value(row, params),
        None => eval_ast(expr, res, row, params),
    }
}

// ------------------------------------------------------------- plan caching

/// Every program compiled for one statement, cached under the schema
/// fingerprint its slots were resolved against.
#[derive(Debug, Default)]
pub struct CompiledPlan {
    /// [`fingerprint`] of the involved tables' names + column names.
    pub fingerprint: u64,
    /// WHERE program (single-table or join resolver, per statement).
    pub filter: Option<Program>,
    /// HAVING program (resolved against aggregate output names).
    pub having: Option<Program>,
    /// UPDATE SET programs, one per assignment, in statement order.
    pub sets: Vec<Option<Program>>,
    /// INSERT VALUES programs, one per row per expression.
    pub values: Vec<Vec<Option<Program>>>,
    /// Whether any expression present in the statement failed to lower;
    /// the executor counts one AST fallback per execution of such plans.
    pub fallback: bool,
    /// Programs successfully compiled while building this plan.
    pub compiled: u32,
}

impl CompiledPlan {
    /// Compile one optional expression into the plan, recording the
    /// compiled/fallback tallies.
    pub fn lower(&mut self, expr: Option<&Expr>, res: &impl Resolve) -> Option<Program> {
        let expr = expr?;
        match compile(expr, res) {
            Some(p) => {
                self.compiled += 1;
                Some(p)
            }
            None => {
                self.fallback = true;
                None
            }
        }
    }
}

/// One statement's cached [`CompiledPlan`], keyed by schema
/// fingerprint. Lives on `Stmt`, shared by clones,
/// and revalidated on every execution: tables can only change shape by
/// being dropped and recreated (there is no `ALTER TABLE`), which
/// changes the fingerprint and invalidates the cached slots.
///
/// The interior mutex is deliberately *unranked* (rank 0): it is a leaf
/// guarding a single `Option` swap, never held across another lock
/// acquisition, and statement handles outlive any one `Database`'s lock
/// ladder.
#[derive(Debug, Default)]
pub struct PlanCell {
    slot: Mutex<Option<Arc<CompiledPlan>>>,
}

impl PlanCell {
    /// Fresh, empty cell.
    pub fn new() -> PlanCell {
        PlanCell::default()
    }

    /// The cached plan, if its fingerprint still matches.
    pub fn lookup(&self, fingerprint: u64) -> Option<Arc<CompiledPlan>> {
        self.slot
            .lock()
            .as_ref()
            .filter(|p| p.fingerprint == fingerprint)
            .cloned()
    }

    /// Install `plan` as the cached entry.
    pub fn store(&self, plan: &Arc<CompiledPlan>) {
        *self.slot.lock() = Some(Arc::clone(plan));
    }
}

/// FNV-1a over name parts with a separator, so `("ab", "c")` and
/// `("a", "bc")` hash apart. Statement plans fingerprint the involved
/// tables' names plus their column names: equal fingerprints mean the
/// compiled slots still index the same columns.
pub fn fingerprint<'a>(parts: impl IntoIterator<Item = &'a str>) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for part in parts {
        for b in part.as_bytes() {
            h = (h ^ u64::from(*b)).wrapping_mul(PRIME);
        }
        h = (h ^ 0xff).wrapping_mul(PRIME);
    }
    h
}

// ------------------------------------------------------------- interpreter

/// Evaluate `expr` against a row (with `res` resolving column names)
/// and positional `params` by walking the AST — the fallback for
/// expressions [`compile`] could not lower, and the reference semantics
/// the proptest equivalence suite pins the compiled path to.
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
            // Short-circuit logic ops (SQL three-valued).
            match op {
                BinOp::And => {
                    if truthy(&l) == Some(false) {
                        return Ok(Value::Int(0));
                    }
                    let r = eval_ast(rhs, res, row, params)?;
                    return Ok(match (truthy(&l), truthy(&r)) {
                        (Some(a), Some(b)) => Value::Int((a && b) as i64),
                        (_, Some(false)) => Value::Int(0),
                        _ => Value::Null,
                    });
                }
                BinOp::Or => {
                    if truthy(&l) == Some(true) {
                        return Ok(Value::Int(1));
                    }
                    let r = eval_ast(rhs, res, row, params)?;
                    return Ok(match (truthy(&l), truthy(&r)) {
                        (Some(a), Some(b)) => Value::Int((a || b) as i64),
                        (_, Some(true)) => Value::Int(1),
                        _ => Value::Null,
                    });
                }
                _ => {}
            }
            let r = eval_ast(rhs, res, row, params)?;
            match op {
                BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                    let cmp = l.sql_cmp(&r);
                    Ok(match cmp {
                        None => Value::Null,
                        Some(o) => {
                            let b = match op {
                                BinOp::Eq => o == Ordering::Equal,
                                BinOp::Ne => o != Ordering::Equal,
                                BinOp::Lt => o == Ordering::Less,
                                BinOp::Le => o != Ordering::Greater,
                                BinOp::Gt => o == Ordering::Greater,
                                BinOp::Ge => o != Ordering::Less,
                                // analyze:allow(panic-under-guard: the enclosing arm matches only comparison ops)
                                _ => unreachable!(),
                            };
                            Value::Int(b as i64)
                        }
                    })
                }
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => arith(*op, &l, &r),
                // analyze:allow(panic-under-guard: And/Or short-circuit before operand evaluation above)
                BinOp::And | BinOp::Or => unreachable!("handled above"),
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

pub(crate) fn arith(op: BinOp, l: &Value, r: &Value) -> DbResult<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => Ok(match op {
            BinOp::Add => Value::Int(a.wrapping_add(*b)),
            BinOp::Sub => Value::Int(a.wrapping_sub(*b)),
            BinOp::Mul => Value::Int(a.wrapping_mul(*b)),
            BinOp::Div => {
                if *b == 0 {
                    Value::Null // SQL: division by zero yields NULL
                } else {
                    Value::Int(a.wrapping_div(*b))
                }
            }
            // analyze:allow(panic-under-guard: callers only pass Add/Sub/Mul/Div)
            _ => unreachable!(),
        }),
        _ => {
            let a = l
                .as_f64()
                .ok_or_else(|| DbError::Type(format!("arithmetic on {}", l.type_name())))?;
            let b = r
                .as_f64()
                .ok_or_else(|| DbError::Type(format!("arithmetic on {}", r.type_name())))?;
            Ok(match op {
                BinOp::Add => Value::Double(a + b),
                BinOp::Sub => Value::Double(a - b),
                BinOp::Mul => Value::Double(a * b),
                BinOp::Div => {
                    if b == 0.0 {
                        Value::Null
                    } else {
                        Value::Double(a / b)
                    }
                }
                // analyze:allow(panic-under-guard: callers only pass Add/Sub/Mul/Div)
                _ => unreachable!(),
            })
        }
    }
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

    fn lit(v: Value) -> Expr {
        Expr::Lit(v)
    }

    fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
        Expr::Binary {
            op,
            lhs: Box::new(l),
            rhs: Box::new(r),
        }
    }

    #[test]
    fn compiles_cols_to_slots_and_interns_consts() {
        let e = bin(
            BinOp::And,
            bin(BinOp::Eq, col("id"), lit(Value::Int(7))),
            bin(BinOp::Ne, col("name"), lit(Value::Int(7))),
        );
        let p = compile(&e, &schema()).unwrap();
        assert_eq!(p.consts, vec![Value::Int(7)]); // interned once
                                                   // Both leaf compares fuse into superinstructions carrying the
                                                   // resolved column slots and the shared interned constant.
        assert!(p
            .ops
            .contains(&Op::CmpLL(Src::Col(0), Src::Const(0), CmpKind::Eq)));
        assert!(p
            .ops
            .contains(&Op::CmpLL(Src::Col(2), Src::Const(0), CmpKind::Ne)));
    }

    #[test]
    fn strict_interning_keeps_int_and_double_zero_apart() {
        let e = bin(BinOp::Add, lit(Value::Int(0)), lit(Value::Double(0.0)));
        let p = compile(&e, &schema()).unwrap();
        assert_eq!(p.consts.len(), 2);
    }

    #[test]
    fn unknown_column_fails_compilation() {
        assert!(compile(&col("nope"), &schema()).is_none());
    }

    #[test]
    fn deep_expression_falls_back() {
        // 40 nested additions exceed the register file.
        let mut e = lit(Value::Int(1));
        for _ in 0..40 {
            e = bin(BinOp::Add, lit(Value::Int(1)), e);
        }
        assert!(compile(&e, &schema()).is_none());
    }

    #[test]
    fn short_circuit_skips_missing_param() {
        // `0 AND ?` with no params: the AST walk never evaluates the
        // param; the compiled program must not either.
        let e = bin(BinOp::And, lit(Value::Int(0)), Expr::Param(0));
        let p = compile(&e, &schema()).unwrap();
        let row = vec![Value::Int(1), Value::Double(0.5), Value::Text("x".into())];
        assert_eq!(p.eval_truthy(&row, &[]).unwrap(), Some(false));
        // But an executed param op still checks arity.
        let e = bin(BinOp::And, lit(Value::Int(1)), Expr::Param(0));
        let p = compile(&e, &schema()).unwrap();
        assert!(matches!(p.eval_truthy(&row, &[]), Err(DbError::Arity(_))));
    }

    #[test]
    fn three_valued_logic_matches_ast() {
        let row = vec![Value::Null, Value::Double(0.0), Value::Text(String::new())];
        let cases = [
            bin(BinOp::And, col("id"), lit(Value::Int(1))), // NULL AND 1 -> NULL
            bin(BinOp::And, col("id"), lit(Value::Int(0))), // NULL AND 0 -> 0
            bin(BinOp::Or, col("id"), lit(Value::Int(1))),  // NULL OR 1 -> 1
            bin(BinOp::Or, col("id"), lit(Value::Int(0))),  // NULL OR 0 -> NULL
            bin(BinOp::Eq, col("id"), col("id")),           // NULL = NULL -> NULL
            Expr::IsNull {
                expr: Box::new(col("id")),
                negated: false,
            },
            Expr::Not(Box::new(col("score"))), // NOT 0.0 -> 1
        ];
        let s = schema();
        for e in &cases {
            let p = compile(e, &s).unwrap();
            assert_eq!(
                p.eval_value(&row, &[]).unwrap(),
                eval_ast(e, &s, &row, &[]).unwrap(),
                "{e:?}"
            );
        }
    }

    #[test]
    fn arithmetic_matches_ast_on_edges() {
        let row = vec![
            Value::Int(i64::MIN),
            Value::Double(f64::NAN),
            Value::Text("t".into()),
        ];
        let s = schema();
        let cases = [
            Expr::Neg(Box::new(col("id"))),                    // i64::MIN wraps
            bin(BinOp::Div, col("id"), lit(Value::Int(0))),    // -> NULL
            bin(BinOp::Div, col("id"), lit(Value::Int(-1))),   // wraps
            bin(BinOp::Add, col("score"), lit(Value::Int(1))), // NaN + 1
            bin(BinOp::Lt, col("score"), col("score")),        // NaN < NaN -> NULL
        ];
        for e in &cases {
            let p = compile(e, &s).unwrap();
            let got = p.eval_value(&row, &[]);
            let want = eval_ast(e, &s, &row, &[]);
            match (&got, &want) {
                (Ok(Value::Double(a)), Ok(Value::Double(b))) => {
                    assert_eq!(a.to_bits(), b.to_bits(), "{e:?}")
                }
                _ => assert_eq!(format!("{got:?}"), format!("{want:?}"), "{e:?}"),
            }
        }
    }

    #[test]
    fn type_errors_match_ast() {
        let row = vec![Value::Int(1), Value::Double(2.0), Value::Text("t".into())];
        let s = schema();
        let e = bin(BinOp::Add, col("name"), lit(Value::Int(1)));
        let p = compile(&e, &s).unwrap();
        let (got, want) = (p.eval_value(&row, &[]), eval_ast(&e, &s, &row, &[]));
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
        assert!(got.is_err());
    }

    #[test]
    fn plan_cell_revalidates_by_fingerprint() {
        let cell = PlanCell::new();
        let plan = Arc::new(CompiledPlan {
            fingerprint: 42,
            ..CompiledPlan::default()
        });
        cell.store(&plan);
        assert!(cell.lookup(42).is_some());
        assert!(cell.lookup(43).is_none());
    }

    #[test]
    fn fingerprint_separates_boundaries() {
        assert_ne!(
            fingerprint(["ab", "c"]),
            fingerprint(["a", "bc"]),
            "separator must keep part boundaries distinct"
        );
    }
}
