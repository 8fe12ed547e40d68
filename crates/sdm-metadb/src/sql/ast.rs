//! SQL abstract syntax.

use crate::schema::ColType;
use crate::value::Value;

/// Expressions appearing in WHERE, SET, and VALUES clauses.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal value.
    Lit(Value),
    /// Column reference (possibly qualified: `t.col`).
    Col(String),
    /// Positional `?` parameter (0-based).
    Param(usize),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Logical negation.
    Not(Box<Expr>),
    /// Arithmetic negation.
    Neg(Box<Expr>),
    /// `expr IS NULL` (`negated` for `IS NOT NULL`).
    IsNull {
        /// Operand.
        expr: Box<Expr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
}

impl Expr {
    /// One past the highest `?` index in the expression; 0 if it has none.
    pub(crate) fn param_count(&self) -> usize {
        match self {
            Expr::Lit(_) | Expr::Col(_) => 0,
            Expr::Param(i) => i + 1,
            Expr::Binary { lhs, rhs, .. } => lhs.param_count().max(rhs.param_count()),
            Expr::Not(e) | Expr::Neg(e) | Expr::IsNull { expr: e, .. } => e.param_count(),
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `=`
    Eq,
    /// `!=` / `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `AND`
    And,
    /// `OR`
    Or,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

/// Aggregate functions usable in a SELECT list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)` / `COUNT(col)` (non-NULL count).
    Count,
    /// `SUM(col)`; NULL over an empty/all-NULL input.
    Sum,
    /// `AVG(col)`; NULL over an empty/all-NULL input.
    Avg,
    /// `MIN(col)` under SQL ordering, NULLs skipped.
    Min,
    /// `MAX(col)` under SQL ordering, NULLs skipped.
    Max,
}

impl AggFunc {
    /// The SQL spelling, lower-cased (used for default output names).
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        }
    }
}

/// One item of a SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelExpr {
    /// Plain (possibly qualified) column reference.
    Col(String),
    /// Aggregate call; `arg = None` means `*` (COUNT only).
    Agg {
        /// The aggregate function.
        func: AggFunc,
        /// Argument column, or `None` for `*`.
        arg: Option<String>,
    },
}

/// A projected SELECT item with an optional `AS` alias.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    /// The projected expression.
    pub expr: SelExpr,
    /// `AS alias`, if given.
    pub alias: Option<String>,
}

impl SelectItem {
    /// Plain column item without alias (test/convenience constructor).
    pub fn col(name: impl Into<String>) -> Self {
        Self {
            expr: SelExpr::Col(name.into()),
            alias: None,
        }
    }

    /// The output column name: the alias if present, else the column
    /// name as written, else `func(arg)`.
    pub fn output_name(&self) -> String {
        if let Some(a) = &self.alias {
            return a.clone();
        }
        match &self.expr {
            SelExpr::Col(c) => c.clone(),
            SelExpr::Agg { func, arg } => {
                format!("{}({})", func.name(), arg.as_deref().unwrap_or("*"))
            }
        }
    }
}

/// ORDER BY key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderBy {
    /// Column name (an output name for aggregate queries).
    pub column: String,
    /// Descending if true.
    pub desc: bool,
}

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// CREATE TABLE.
    CreateTable {
        /// Table name.
        name: String,
        /// `(name, type)` pairs.
        columns: Vec<(String, ColType)>,
        /// IF NOT EXISTS present.
        if_not_exists: bool,
    },
    /// DROP TABLE.
    DropTable {
        /// Table name.
        name: String,
    },
    /// CREATE INDEX name ON table (c1, c2, ...).
    CreateIndex {
        /// Index name (unique within its table).
        name: String,
        /// Indexed table.
        table: String,
        /// Indexed columns, outermost key first.
        columns: Vec<String>,
    },
    /// DROP INDEX name ON table (MySQL 3.23 spelling).
    DropIndex {
        /// Index name.
        name: String,
        /// Owning table.
        table: String,
    },
    /// INSERT INTO ... VALUES (...), (...), ...
    Insert {
        /// Table name.
        table: String,
        /// Optional explicit column list.
        columns: Option<Vec<String>>,
        /// Value tuples.
        rows: Vec<Vec<Expr>>,
    },
    /// SELECT.
    Select {
        /// Projected items, or `None` for `*`.
        items: Option<Vec<SelectItem>>,
        /// Source table.
        table: String,
        /// WHERE predicate.
        filter: Option<Expr>,
        /// ORDER BY keys.
        order_by: Vec<OrderBy>,
        /// LIMIT.
        limit: Option<usize>,
    },
    /// UPDATE ... SET ...
    Update {
        /// Table name.
        table: String,
        /// `(column, value-expression)` assignments.
        sets: Vec<(String, Expr)>,
        /// WHERE predicate.
        filter: Option<Expr>,
    },
    /// DELETE FROM.
    Delete {
        /// Table name.
        table: String,
        /// WHERE predicate.
        filter: Option<Expr>,
    },
}

impl Statement {
    /// The parameters an execution must bind: one past the highest `?`
    /// index in any of the statement's expressions.
    pub(crate) fn param_count(&self) -> usize {
        let exprs: Vec<&Expr> = match self {
            Statement::Insert { rows, .. } => rows.iter().flatten().collect(),
            Statement::Select { filter, .. } | Statement::Delete { filter, .. } => {
                filter.iter().collect()
            }
            Statement::Update { sets, filter, .. } => {
                sets.iter().map(|(_, e)| e).chain(filter).collect()
            }
            Statement::CreateTable { .. }
            | Statement::DropTable { .. }
            | Statement::CreateIndex { .. }
            | Statement::DropIndex { .. } => Vec::new(),
        };
        exprs.into_iter().map(Expr::param_count).max().unwrap_or(0)
    }
}
