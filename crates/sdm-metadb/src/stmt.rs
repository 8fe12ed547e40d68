//! Typed statements: relational operations as **values**, not SQL text.
//!
//! The metadata control plane above this crate used to push SQL strings
//! through the store — a seam that cannot be routed to a shard, cached
//! by key, or type-checked. This module replaces that seam. A table is
//! described once by a static [`TableDesc`] (via the [`Relation`] trait,
//! usually written with the [`relation!`](crate::relation) macro), DDL
//! is *generated* from the descriptor, and queries are built fluently —
//!
//! ```
//! use sdm_metadb::stmt::{param, Query, Relation, TypedColumn};
//! use sdm_metadb::{Database, Value};
//!
//! sdm_metadb::relation! {
//!     /// One `pets` row.
//!     pub struct PetRow in "pets" as PetCol {
//!         /// Pet id.
//!         pub id: i64 => Id,
//!         /// Display name.
//!         pub name: String => Name,
//!     }
//!     indexes { "pets_id" on (id) }
//! }
//!
//! let db = Database::new();
//! db.exec_stmt(&PetRow::TABLE.create_table(), &[]).unwrap();
//! for ix in PetRow::TABLE.create_indexes() {
//!     db.exec_stmt(&ix, &[]).unwrap();
//! }
//! db.exec_stmt(
//!     &sdm_metadb::stmt::Insert::<PetRow>::prepared(),
//!     &PetRow { id: 1, name: "rex".into() }.into_row(),
//! )
//! .unwrap();
//!
//! // Compiled once; executed many times with fresh parameters.
//! let by_id = Query::<PetRow>::filter(PetCol::Id.eq(param(0))).compile();
//! let rs = db.exec_stmt(&by_id, &[Value::Int(1)]).unwrap();
//! assert_eq!(rs.rows[0][1].as_str(), Some("rex"));
//! ```
//!
//! A compiled [`Stmt`] *is* the plan: it holds the executable AST behind
//! an `Arc`, so holders (`OnceLock` slots, statics via
//! [`stmt_once!`](crate::stmt_once)) replay it with zero SQL-text
//! formatting, hashing, or parsing on the hot path —
//! [`crate::DbStats::parse_misses`] stays flat while typed statements
//! run. SQL text enters only by parsing into a `Stmt`
//! ([`crate::Database::parse`], [`Stmt::parse`]); [`Stmt::to_sql`]
//! renders one back for debugging.

use std::marker::PhantomData;
use std::sync::Arc;

use crate::error::DbResult;
use crate::schema::ColType;
use crate::sql::ast::{AggFunc, BinOp, Expr, Join, OrderBy, SelExpr, SelectItem, Statement};
use crate::sql::parse;
use crate::value::Value;

// ---------------------------------------------------------------------
// Descriptors
// ---------------------------------------------------------------------

/// Static description of one column of a relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColDesc {
    /// Column name as it appears in the table.
    pub name: &'static str,
    /// Declared type.
    pub ctype: ColType,
}

/// Static description of one secondary index of a relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexSpec {
    /// Index name, unique within the table.
    pub name: &'static str,
    /// Indexed columns, outermost key first.
    pub columns: &'static [&'static str],
}

/// Static descriptor of a metadata table: the single source of truth
/// its DDL, typed columns, and queries are all derived from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableDesc {
    /// Table name.
    pub name: &'static str,
    /// Columns in declaration order.
    pub columns: &'static [ColDesc],
    /// Declared secondary indexes (the hot lookup columns).
    pub indexes: &'static [IndexSpec],
}

impl TableDesc {
    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// `CREATE TABLE IF NOT EXISTS` statement generated from the
    /// descriptor — no hand-written DDL string.
    pub fn create_table(&self) -> Stmt {
        Stmt::from_ast(Statement::CreateTable {
            name: self.name.to_string(),
            columns: self
                .columns
                .iter()
                .map(|c| (c.name.to_string(), c.ctype))
                .collect(),
            if_not_exists: true,
        })
    }

    /// One `CREATE INDEX` statement per declared index.
    pub fn create_indexes(&self) -> Vec<Stmt> {
        self.indexes
            .iter()
            .map(|ix| {
                Stmt::from_ast(Statement::CreateIndex {
                    name: ix.name.to_string(),
                    table: self.name.to_string(),
                    columns: ix.columns.iter().map(|c| c.to_string()).collect(),
                })
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// Relation + columns
// ---------------------------------------------------------------------

/// A Rust value that maps onto one column cell.
pub trait ColValue: Sized {
    /// The declared column type this Rust type stores into.
    const COL_TYPE: ColType;
    /// Encode into a cell value.
    fn into_value(self) -> Value;
    /// Decode from a cell value. `NULL` (and any mismatched type)
    /// decodes as the type's default, mirroring the `unwrap_or_default`
    /// convention of the metadata read paths.
    fn from_value(v: &Value) -> Self;
}

impl ColValue for i64 {
    const COL_TYPE: ColType = ColType::Int;
    fn into_value(self) -> Value {
        Value::Int(self)
    }
    fn from_value(v: &Value) -> Self {
        v.as_i64().unwrap_or_default()
    }
}

impl ColValue for f64 {
    const COL_TYPE: ColType = ColType::Double;
    fn into_value(self) -> Value {
        Value::Double(self)
    }
    fn from_value(v: &Value) -> Self {
        v.as_f64().unwrap_or_default()
    }
}

impl ColValue for String {
    const COL_TYPE: ColType = ColType::Text;
    fn into_value(self) -> Value {
        Value::Text(self)
    }
    fn from_value(v: &Value) -> Self {
        v.as_str().unwrap_or_default().to_string()
    }
}

/// A table whose rows decode into (and encode from) a Rust struct.
///
/// Implementations are usually generated by the
/// [`relation!`](crate::relation) macro, which also emits a column enum
/// implementing [`TypedColumn`]:
///
/// ```
/// use sdm_metadb::stmt::Relation;
///
/// sdm_metadb::relation! {
///     /// One row of the measurement log.
///     pub struct SampleRow in "samples" as SampleCol {
///         /// Sensor id.
///         pub sensor: i64 => Sensor,
///         /// Measured value.
///         pub value: f64 => MeasuredValue,
///     }
/// }
///
/// assert_eq!(SampleRow::TABLE.name, "samples");
/// assert_eq!(SampleRow::TABLE.arity(), 2);
/// let row = SampleRow { sensor: 3, value: 0.5 }.into_row();
/// assert_eq!(SampleRow::from_row(&row).unwrap().sensor, 3);
/// ```
pub trait Relation: Sized {
    /// The table descriptor (name, columns, indexes).
    const TABLE: TableDesc;

    /// Decode a full-width row.
    fn from_row(row: &[Value]) -> DbResult<Self>;

    /// Encode into a full-width row (insert parameter order).
    fn into_row(self) -> Vec<Value>;
}

/// A typed column handle of relation `R`; the comparison methods build
/// [`Filter`]s for [`Query`], [`Update`], and [`Delete`].
pub trait TypedColumn<R: Relation>: Copy {
    /// Position of this column in the relation.
    fn index(self) -> usize;

    /// The column's SQL name.
    fn name(self) -> &'static str {
        R::TABLE.columns[self.index()].name
    }

    /// `column = rhs`.
    fn eq(self, rhs: impl Into<Operand>) -> Filter<R> {
        self.cmp(BinOp::Eq, rhs)
    }

    /// `column != rhs`.
    fn ne(self, rhs: impl Into<Operand>) -> Filter<R> {
        self.cmp(BinOp::Ne, rhs)
    }

    /// `column < rhs`.
    fn lt(self, rhs: impl Into<Operand>) -> Filter<R> {
        self.cmp(BinOp::Lt, rhs)
    }

    /// `column <= rhs`.
    fn le(self, rhs: impl Into<Operand>) -> Filter<R> {
        self.cmp(BinOp::Le, rhs)
    }

    /// `column > rhs`.
    fn gt(self, rhs: impl Into<Operand>) -> Filter<R> {
        self.cmp(BinOp::Gt, rhs)
    }

    /// `column >= rhs`.
    fn ge(self, rhs: impl Into<Operand>) -> Filter<R> {
        self.cmp(BinOp::Ge, rhs)
    }

    /// `lo <= column AND column <= hi` — the closed range the planner
    /// turns into one index walk when the column is indexed.
    fn between(self, lo: impl Into<Operand>, hi: impl Into<Operand>) -> Filter<R> {
        self.ge(lo).and(self.le(hi))
    }

    /// `column IS NULL`.
    fn is_null(self) -> Filter<R> {
        Filter {
            expr: Expr::IsNull {
                expr: Box::new(Expr::Col(self.name().to_string())),
                negated: false,
            },
            _r: PhantomData,
        }
    }

    /// `column IS NOT NULL`.
    fn is_not_null(self) -> Filter<R> {
        Filter {
            expr: Expr::IsNull {
                expr: Box::new(Expr::Col(self.name().to_string())),
                negated: true,
            },
            _r: PhantomData,
        }
    }

    /// `column <op> rhs` for an arbitrary comparison operator.
    fn cmp(self, op: BinOp, rhs: impl Into<Operand>) -> Filter<R> {
        Filter {
            expr: Expr::Binary {
                op,
                lhs: Box::new(Expr::Col(self.name().to_string())),
                rhs: Box::new(rhs.into().into_expr()),
            },
            _r: PhantomData,
        }
    }
}

// ---------------------------------------------------------------------
// Operands and filters
// ---------------------------------------------------------------------

/// The right-hand side of a comparison: a concrete value baked into the
/// compiled statement, or a positional `?` parameter supplied at
/// execution time (the compile-once hot-path shape).
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// A literal value.
    Value(Value),
    /// Positional parameter (0-based).
    Param(usize),
}

impl Operand {
    fn into_expr(self) -> Expr {
        match self {
            Operand::Value(v) => Expr::Lit(v),
            Operand::Param(i) => Expr::Param(i),
        }
    }
}

/// The 0-based positional parameter `i` (renders as the i-th `?`).
pub fn param(i: usize) -> Operand {
    Operand::Param(i)
}

impl From<Value> for Operand {
    fn from(v: Value) -> Self {
        Operand::Value(v)
    }
}

impl From<i64> for Operand {
    fn from(v: i64) -> Self {
        Operand::Value(Value::Int(v))
    }
}

impl From<i32> for Operand {
    fn from(v: i32) -> Self {
        Operand::Value(Value::Int(v as i64))
    }
}

impl From<u64> for Operand {
    fn from(v: u64) -> Self {
        Operand::Value(Value::Int(v as i64))
    }
}

impl From<usize> for Operand {
    fn from(v: usize) -> Self {
        Operand::Value(Value::Int(v as i64))
    }
}

impl From<f64> for Operand {
    fn from(v: f64) -> Self {
        Operand::Value(Value::Double(v))
    }
}

impl From<&str> for Operand {
    fn from(v: &str) -> Self {
        Operand::Value(Value::Text(v.to_string()))
    }
}

impl From<String> for Operand {
    fn from(v: String) -> Self {
        Operand::Value(Value::Text(v))
    }
}

/// A typed predicate over relation `R` (a `WHERE` clause under
/// construction). Built from [`TypedColumn`] comparisons and combined
/// with [`Filter::and`] / [`Filter::or`].
#[derive(Debug, Clone)]
pub struct Filter<R> {
    expr: Expr,
    _r: PhantomData<R>,
}

impl<R: Relation> Filter<R> {
    /// Both predicates must hold.
    pub fn and(self, other: Filter<R>) -> Filter<R> {
        self.join(BinOp::And, other)
    }

    /// Either predicate may hold.
    pub fn or(self, other: Filter<R>) -> Filter<R> {
        self.join(BinOp::Or, other)
    }

    fn join(self, op: BinOp, other: Filter<R>) -> Filter<R> {
        Filter {
            expr: Expr::Binary {
                op,
                lhs: Box::new(self.expr),
                rhs: Box::new(other.expr),
            },
            _r: PhantomData,
        }
    }
}

// ---------------------------------------------------------------------
// Compiled statements
// ---------------------------------------------------------------------

/// A compiled typed statement: the executable AST (shared, so cloning
/// and caching are free) plus the relation it touches.
///
/// Execute with [`crate::Database::exec_stmt`] or through
/// `MetadataStore::run` in the layers above. Unlike a SQL string, a
/// `Stmt` needs no lexing or parsing per call; the executor evaluates
/// its expressions by walking this AST ([`crate::eval::eval_ast`]).
#[derive(Debug, Clone)]
pub struct Stmt {
    ast: Arc<Statement>,
    table: Arc<str>,
}

impl Stmt {
    /// Wrap an AST statement.
    pub fn from_ast(ast: Statement) -> Self {
        let table = match &ast {
            Statement::CreateTable { name, .. }
            | Statement::DropTable { name }
            | Statement::Insert { table: name, .. }
            | Statement::Select { table: name, .. }
            | Statement::Update { table: name, .. }
            | Statement::Delete { table: name, .. }
            | Statement::CreateIndex { table: name, .. }
            | Statement::DropIndex { table: name, .. } => Arc::from(name.as_str()),
        };
        Stmt {
            ast: Arc::new(ast),
            table,
        }
    }

    /// Parse SQL text into a typed statement. [`crate::Database::parse`]
    /// does the same and counts the parse; typed call sites never need
    /// either.
    pub fn parse(sql: &str) -> DbResult<Stmt> {
        Ok(Stmt::from_ast(parse(sql)?))
    }

    /// The table this statement touches. This is the routing/caching
    /// key a sharded or caching store dispatches on. A `SELECT` with a
    /// join names its `FROM` table here; use [`Stmt::references`] to
    /// also cover the joined side.
    pub fn table(&self) -> &str {
        &self.table
    }

    /// Whether this statement reads or writes `table`, including as the
    /// joined side of a `SELECT … INNER JOIN`. Caching layers gate
    /// their flushes on this, not on [`Stmt::table`] alone.
    pub fn references(&self, table: &str) -> bool {
        if self.table.eq_ignore_ascii_case(table) {
            return true;
        }
        matches!(
            &*self.ast,
            Statement::Select { join: Some(j), .. } if j.table.eq_ignore_ascii_case(table)
        )
    }

    /// Whether executing this statement may change table contents or
    /// schema.
    pub fn is_mutation(&self) -> bool {
        !matches!(&*self.ast, Statement::Select { .. })
    }

    /// The executable AST.
    pub fn ast(&self) -> &Statement {
        &self.ast
    }

    /// Render back to SQL text (debugging, the deprecated veneer, and
    /// benchmarks that model parse-per-call engines). Positional
    /// parameters render as `?` and must have been numbered in source
    /// order for the text to round-trip; non-finite doubles render as
    /// `NULL`.
    pub fn to_sql(&self) -> String {
        render_statement(&self.ast)
    }
}

// ---------------------------------------------------------------------
// Query / Insert / Update / Delete builders
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Proj {
    All,
    Cols(Vec<&'static str>),
    Agg(AggFunc, Option<&'static str>),
}

/// A fluent `SELECT` over relation `R`, compiled once with
/// [`Query::compile`] and replayed with fresh parameters:
///
/// ```
/// use sdm_metadb::stmt::{param, Query, Relation, TypedColumn};
/// use sdm_metadb::{Database, Value};
///
/// sdm_metadb::relation! {
///     /// One step record.
///     pub struct StepRow in "steps" as StepCol {
///         /// Run id.
///         pub runid: i64 => Runid,
///         /// Timestep index.
///         pub timestep: i64 => Timestep,
///     }
/// }
///
/// let db = Database::new();
/// db.exec_stmt(&StepRow::TABLE.create_table(), &[]).unwrap();
/// let ins = sdm_metadb::stmt::Insert::<StepRow>::prepared();
/// for t in 0..10 {
///     db.exec_stmt(&ins, &StepRow { runid: 7, timestep: t }.into_row())
///         .unwrap();
/// }
///
/// // Latest 3 steps of a run — compiled once, zero SQL text.
/// let latest = Query::<StepRow>::filter(StepCol::Runid.eq(param(0)))
///     .order_by_desc(StepCol::Timestep)
///     .limit(3)
///     .compile();
/// let rs = db.exec_stmt(&latest, &[Value::Int(7)]).unwrap();
/// let steps: Vec<StepRow> = sdm_metadb::stmt::decode(&rs).unwrap();
/// assert_eq!(steps[0].timestep, 9);
/// ```
#[derive(Debug, Clone)]
pub struct Query<R> {
    proj: Proj,
    distinct: bool,
    filter: Option<Expr>,
    order: Vec<OrderBy>,
    limit: Option<usize>,
    _r: PhantomData<R>,
}

impl<R: Relation> Default for Query<R> {
    fn default() -> Self {
        Self::all()
    }
}

impl<R: Relation> Query<R> {
    /// `SELECT * FROM R` with no predicate.
    pub fn all() -> Self {
        Query {
            proj: Proj::All,
            distinct: false,
            filter: None,
            order: Vec::new(),
            limit: None,
            _r: PhantomData,
        }
    }

    /// `SELECT * FROM R WHERE pred`.
    pub fn filter(pred: Filter<R>) -> Self {
        Self::all().and(pred)
    }

    /// The composite-index probe shape: `prefix_col = key AND lo <=
    /// range_col <= hi`. With an index on `(prefix_col,
    /// range_col, …)` this compiles to one equality-prefix + range walk
    /// instead of a scan.
    pub fn prefix_range(
        prefix_col: impl TypedColumn<R>,
        key: impl Into<Operand>,
        range_col: impl TypedColumn<R>,
        lo: impl Into<Operand>,
        hi: impl Into<Operand>,
    ) -> Self {
        Self::filter(prefix_col.eq(key).and(range_col.between(lo, hi)))
    }

    /// AND another predicate onto the `WHERE` clause.
    pub fn and(mut self, pred: Filter<R>) -> Self {
        self.filter = Some(match self.filter.take() {
            None => pred.expr,
            Some(prev) => Expr::Binary {
                op: BinOp::And,
                lhs: Box::new(prev),
                rhs: Box::new(pred.expr),
            },
        });
        self
    }

    /// Project only the given columns (in the given order).
    pub fn select<C: TypedColumn<R>>(mut self, cols: &[C]) -> Self {
        self.proj = Proj::Cols(cols.iter().map(|c| c.name()).collect());
        self
    }

    /// Project `COUNT(*)`.
    pub fn count(mut self) -> Self {
        self.proj = Proj::Agg(AggFunc::Count, None);
        self
    }

    /// Project `MAX(col)`.
    pub fn max(mut self, col: impl TypedColumn<R>) -> Self {
        self.proj = Proj::Agg(AggFunc::Max, Some(col.name()));
        self
    }

    /// Project `MIN(col)`.
    pub fn min(mut self, col: impl TypedColumn<R>) -> Self {
        self.proj = Proj::Agg(AggFunc::Min, Some(col.name()));
        self
    }

    /// `SELECT DISTINCT`.
    pub fn distinct(mut self) -> Self {
        self.distinct = true;
        self
    }

    /// Ascending `ORDER BY` key (appends to any existing keys).
    pub fn order_by(mut self, col: impl TypedColumn<R>) -> Self {
        self.order.push(OrderBy {
            column: col.name().to_string(),
            desc: false,
        });
        self
    }

    /// Descending `ORDER BY` key.
    pub fn order_by_desc(mut self, col: impl TypedColumn<R>) -> Self {
        self.order.push(OrderBy {
            column: col.name().to_string(),
            desc: true,
        });
        self
    }

    /// `LIMIT k`.
    pub fn limit(mut self, k: usize) -> Self {
        self.limit = Some(k);
        self
    }

    /// Compile into an executable [`Stmt`].
    pub fn compile(self) -> Stmt {
        let items = match self.proj {
            Proj::All => None,
            Proj::Cols(cols) => Some(
                cols.into_iter()
                    .map(|c| SelectItem {
                        expr: SelExpr::Col(c.to_string()),
                        alias: None,
                    })
                    .collect(),
            ),
            Proj::Agg(func, arg) => Some(vec![SelectItem {
                expr: SelExpr::Agg {
                    func,
                    arg: arg.map(str::to_string),
                },
                alias: None,
            }]),
        };
        Stmt::from_ast(Statement::Select {
            distinct: self.distinct,
            items,
            table: R::TABLE.name.to_string(),
            join: None,
            filter: self.filter,
            group_by: Vec::new(),
            having: None,
            order_by: self.order,
            limit: self.limit,
        })
    }
}

impl<R: Relation> Query<R> {
    /// `… INNER JOIN S ON left = right`: lift this single-table query
    /// into a typed two-table join. The receiver's filter carries over
    /// (its columns qualified with `R`'s table name), as does a
    /// column projection set with [`Query::select`]; aggregates do not
    /// join. The executor serves the equality with a merge join or
    /// index-nested-loop probes when the join columns are indexed.
    pub fn join_on<S: Relation>(
        self,
        left: impl TypedColumn<R>,
        right: impl TypedColumn<S>,
    ) -> JoinQuery<R, S> {
        let items = match self.proj {
            Proj::Cols(cols) => cols
                .into_iter()
                .map(|c| qualified_item(R::TABLE.name, c))
                .collect(),
            Proj::All | Proj::Agg(..) => Vec::new(),
        };
        JoinQuery {
            items,
            filter: self.filter.map(|e| qualify(R::TABLE.name, e)),
            order: self
                .order
                .into_iter()
                .map(|o| qualify_order(R::TABLE.name, o))
                .collect(),
            limit: self.limit,
            on_left: format!("{}.{}", R::TABLE.name, left.name()),
            on_right: format!("{}.{}", S::TABLE.name, right.name()),
            _rs: PhantomData,
        }
    }
}

/// Qualify every unqualified column reference in `e` with `table` —
/// sound because a `Filter<R>` can only name `R`'s columns.
fn qualify(table: &str, e: Expr) -> Expr {
    match e {
        Expr::Col(c) if !c.contains('.') => Expr::Col(format!("{table}.{c}")),
        Expr::Binary { op, lhs, rhs } => Expr::Binary {
            op,
            lhs: Box::new(qualify(table, *lhs)),
            rhs: Box::new(qualify(table, *rhs)),
        },
        Expr::Not(inner) => Expr::Not(Box::new(qualify(table, *inner))),
        Expr::Neg(inner) => Expr::Neg(Box::new(qualify(table, *inner))),
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(qualify(table, *expr)),
            negated,
        },
        other => other,
    }
}

fn qualify_order(table: &str, mut o: OrderBy) -> OrderBy {
    if !o.column.contains('.') {
        o.column = format!("{table}.{}", o.column);
    }
    o
}

fn qualified_item(table: &str, col: &str) -> SelectItem {
    SelectItem {
        expr: SelExpr::Col(format!("{table}.{col}")),
        alias: None,
    }
}

/// Typed two-table `SELECT … INNER JOIN` over relations `R` (left) and
/// `S` (right), built from [`Query::join_on`]. All columns are
/// qualified with their owning table's name at build time, so filters
/// stay unambiguous even when both relations share column names (the
/// join key itself usually does).
#[derive(Debug, Clone)]
pub struct JoinQuery<R, S> {
    items: Vec<SelectItem>,
    filter: Option<Expr>,
    order: Vec<OrderBy>,
    limit: Option<usize>,
    on_left: String,
    on_right: String,
    _rs: PhantomData<(R, S)>,
}

impl<R: Relation, S: Relation> JoinQuery<R, S> {
    /// Project columns of the left relation (appended in call order).
    pub fn select_left<C: TypedColumn<R>>(mut self, cols: &[C]) -> Self {
        self.items
            .extend(cols.iter().map(|c| qualified_item(R::TABLE.name, c.name())));
        self
    }

    /// Project columns of the right relation (appended in call order).
    pub fn select_right<C: TypedColumn<S>>(mut self, cols: &[C]) -> Self {
        self.items
            .extend(cols.iter().map(|c| qualified_item(S::TABLE.name, c.name())));
        self
    }

    /// AND a predicate over the left relation onto the `WHERE` clause.
    pub fn and_left(self, pred: Filter<R>) -> Self {
        self.and_expr(qualify(R::TABLE.name, pred.expr))
    }

    /// AND a predicate over the right relation onto the `WHERE` clause.
    pub fn and_right(self, pred: Filter<S>) -> Self {
        self.and_expr(qualify(S::TABLE.name, pred.expr))
    }

    fn and_expr(mut self, expr: Expr) -> Self {
        self.filter = Some(match self.filter.take() {
            None => expr,
            Some(prev) => Expr::Binary {
                op: BinOp::And,
                lhs: Box::new(prev),
                rhs: Box::new(expr),
            },
        });
        self
    }

    /// Ascending `ORDER BY` key on the left relation.
    pub fn order_by_left(mut self, col: impl TypedColumn<R>) -> Self {
        self.order.push(OrderBy {
            column: format!("{}.{}", R::TABLE.name, col.name()),
            desc: false,
        });
        self
    }

    /// Ascending `ORDER BY` key on the right relation.
    pub fn order_by_right(mut self, col: impl TypedColumn<S>) -> Self {
        self.order.push(OrderBy {
            column: format!("{}.{}", S::TABLE.name, col.name()),
            desc: false,
        });
        self
    }

    /// `LIMIT k`.
    pub fn limit(mut self, k: usize) -> Self {
        self.limit = Some(k);
        self
    }

    /// Compile into an executable [`Stmt`].
    pub fn compile(self) -> Stmt {
        let items = if self.items.is_empty() {
            None
        } else {
            Some(self.items)
        };
        Stmt::from_ast(Statement::Select {
            distinct: false,
            items,
            table: R::TABLE.name.to_string(),
            join: Some(Join {
                table: S::TABLE.name.to_string(),
                on_left: self.on_left,
                on_right: self.on_right,
            }),
            filter: self.filter,
            group_by: Vec::new(),
            having: None,
            order_by: self.order,
            limit: self.limit,
        })
    }
}

/// Typed `INSERT` into relation `R`.
#[derive(Debug, Clone, Copy)]
pub struct Insert<R> {
    _r: PhantomData<R>,
}

impl<R: Relation> Insert<R> {
    /// The all-parameters insert (`VALUES (?, ?, …)`): compile once,
    /// execute with [`Relation::into_row`] (or any full-width row of
    /// values, `NULL`s included).
    pub fn prepared() -> Stmt {
        let row = (0..R::TABLE.arity()).map(Expr::Param).collect();
        Stmt::from_ast(Statement::Insert {
            table: R::TABLE.name.to_string(),
            columns: None,
            rows: vec![row],
        })
    }

    /// A one-shot insert with the row's values baked in as literals.
    pub fn row(r: R) -> Stmt {
        Stmt::from_ast(Statement::Insert {
            table: R::TABLE.name.to_string(),
            columns: None,
            rows: vec![r.into_row().into_iter().map(Expr::Lit).collect()],
        })
    }
}

/// Typed `UPDATE` of relation `R`: chain [`Update::set`] assignments,
/// optionally [`Update::filter`], then [`Update::compile`].
#[derive(Debug, Clone)]
pub struct Update<R> {
    sets: Vec<(&'static str, Expr)>,
    filter: Option<Expr>,
    _r: PhantomData<R>,
}

impl<R: Relation> Default for Update<R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<R: Relation> Update<R> {
    /// An update with no assignments yet.
    pub fn new() -> Self {
        Update {
            sets: Vec::new(),
            filter: None,
            _r: PhantomData,
        }
    }

    /// `SET col = rhs`.
    pub fn set(mut self, col: impl TypedColumn<R>, rhs: impl Into<Operand>) -> Self {
        self.sets.push((col.name(), rhs.into().into_expr()));
        self
    }

    /// Restrict to rows matching `pred` (ANDs onto any previous
    /// predicate).
    pub fn filter(mut self, pred: Filter<R>) -> Self {
        self.filter = Some(match self.filter.take() {
            None => pred.expr,
            Some(prev) => Expr::Binary {
                op: BinOp::And,
                lhs: Box::new(prev),
                rhs: Box::new(pred.expr),
            },
        });
        self
    }

    /// Compile into an executable [`Stmt`].
    pub fn compile(self) -> Stmt {
        Stmt::from_ast(Statement::Update {
            table: R::TABLE.name.to_string(),
            sets: self
                .sets
                .into_iter()
                .map(|(c, e)| (c.to_string(), e))
                .collect(),
            filter: self.filter,
        })
    }
}

/// Typed `DELETE` from relation `R`.
#[derive(Debug, Clone)]
pub struct Delete<R> {
    filter: Option<Expr>,
    _r: PhantomData<R>,
}

impl<R: Relation> Delete<R> {
    /// Delete every row.
    pub fn all() -> Self {
        Delete {
            filter: None,
            _r: PhantomData,
        }
    }

    /// Delete rows matching `pred`.
    pub fn filter(pred: Filter<R>) -> Self {
        Delete {
            filter: Some(pred.expr),
            _r: PhantomData,
        }
    }

    /// AND another predicate onto the `WHERE` clause.
    pub fn and(mut self, pred: Filter<R>) -> Self {
        self.filter = Some(match self.filter.take() {
            None => pred.expr,
            Some(prev) => Expr::Binary {
                op: BinOp::And,
                lhs: Box::new(prev),
                rhs: Box::new(pred.expr),
            },
        });
        self
    }

    /// Compile into an executable [`Stmt`].
    pub fn compile(self) -> Stmt {
        Stmt::from_ast(Statement::Delete {
            table: R::TABLE.name.to_string(),
            filter: self.filter,
        })
    }
}

/// Decode a full-width result set (a [`Query::all`] /
/// [`Query::filter`] projection) into typed rows.
pub fn decode<R: Relation>(rs: &crate::db::ResultSet) -> DbResult<Vec<R>> {
    rs.rows.iter().map(|r| R::from_row(r)).collect()
}

// ---------------------------------------------------------------------
// SQL rendering (the text bridge)
// ---------------------------------------------------------------------

fn render_statement(stmt: &Statement) -> String {
    let mut s = String::new();
    match stmt {
        Statement::CreateTable {
            name,
            columns,
            if_not_exists,
        } => {
            s.push_str("CREATE TABLE ");
            if *if_not_exists {
                s.push_str("IF NOT EXISTS ");
            }
            s.push_str(name);
            s.push_str(" (");
            for (i, (col, ty)) in columns.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                s.push_str(col);
                s.push(' ');
                s.push_str(match ty {
                    ColType::Int => "INT",
                    ColType::Double => "DOUBLE",
                    ColType::Text => "TEXT",
                });
            }
            s.push(')');
        }
        Statement::DropTable { name } => {
            s.push_str("DROP TABLE ");
            s.push_str(name);
        }
        Statement::CreateIndex {
            name,
            table,
            columns,
        } => {
            s.push_str("CREATE INDEX ");
            s.push_str(name);
            s.push_str(" ON ");
            s.push_str(table);
            s.push_str(" (");
            s.push_str(&columns.join(", "));
            s.push(')');
        }
        Statement::DropIndex { name, table } => {
            s.push_str("DROP INDEX ");
            s.push_str(name);
            s.push_str(" ON ");
            s.push_str(table);
        }
        Statement::Insert {
            table,
            columns,
            rows,
        } => {
            s.push_str("INSERT INTO ");
            s.push_str(table);
            if let Some(cols) = columns {
                s.push_str(" (");
                s.push_str(&cols.join(", "));
                s.push(')');
            }
            s.push_str(" VALUES ");
            for (i, row) in rows.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                s.push('(');
                for (j, e) in row.iter().enumerate() {
                    if j > 0 {
                        s.push_str(", ");
                    }
                    render_expr(e, &mut s);
                }
                s.push(')');
            }
        }
        Statement::Select {
            distinct,
            items,
            table,
            join,
            filter,
            group_by,
            having,
            order_by,
            limit,
        } => {
            s.push_str("SELECT ");
            if *distinct {
                s.push_str("DISTINCT ");
            }
            match items {
                None => s.push('*'),
                Some(items) => {
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            s.push_str(", ");
                        }
                        match &item.expr {
                            SelExpr::Col(c) => s.push_str(c),
                            SelExpr::Agg { func, arg } => {
                                s.push_str(&func.name().to_ascii_uppercase());
                                s.push('(');
                                s.push_str(arg.as_deref().unwrap_or("*"));
                                s.push(')');
                            }
                        }
                        if let Some(a) = &item.alias {
                            s.push_str(" AS ");
                            s.push_str(a);
                        }
                    }
                }
            }
            s.push_str(" FROM ");
            s.push_str(table);
            if let Some(j) = join {
                s.push_str(" INNER JOIN ");
                s.push_str(&j.table);
                s.push_str(" ON ");
                s.push_str(&j.on_left);
                s.push_str(" = ");
                s.push_str(&j.on_right);
            }
            if let Some(f) = filter {
                s.push_str(" WHERE ");
                render_expr(f, &mut s);
            }
            if !group_by.is_empty() {
                s.push_str(" GROUP BY ");
                s.push_str(&group_by.join(", "));
            }
            if let Some(h) = having {
                s.push_str(" HAVING ");
                render_expr(h, &mut s);
            }
            render_order_limit(order_by, *limit, &mut s);
        }
        Statement::Update {
            table,
            sets,
            filter,
        } => {
            s.push_str("UPDATE ");
            s.push_str(table);
            s.push_str(" SET ");
            for (i, (col, e)) in sets.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                s.push_str(col);
                s.push_str(" = ");
                render_expr(e, &mut s);
            }
            if let Some(f) = filter {
                s.push_str(" WHERE ");
                render_expr(f, &mut s);
            }
        }
        Statement::Delete { table, filter } => {
            s.push_str("DELETE FROM ");
            s.push_str(table);
            if let Some(f) = filter {
                s.push_str(" WHERE ");
                render_expr(f, &mut s);
            }
        }
    }
    s
}

fn render_order_limit(order_by: &[OrderBy], limit: Option<usize>, s: &mut String) {
    if !order_by.is_empty() {
        s.push_str(" ORDER BY ");
        for (i, o) in order_by.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&o.column);
            if o.desc {
                s.push_str(" DESC");
            }
        }
    }
    if let Some(k) = limit {
        s.push_str(&format!(" LIMIT {k}"));
    }
}

fn render_expr(e: &Expr, s: &mut String) {
    match e {
        Expr::Lit(v) => render_value(v, s),
        Expr::Col(c) => s.push_str(c),
        Expr::Param(_) => s.push('?'),
        Expr::Neg(inner) => {
            s.push('-');
            render_expr(inner, s);
        }
        Expr::Not(inner) => {
            s.push_str("NOT ");
            render_expr(inner, s);
        }
        Expr::IsNull { expr, negated } => {
            render_expr(expr, s);
            s.push_str(if *negated { " IS NOT NULL" } else { " IS NULL" });
        }
        Expr::Binary { op, lhs, rhs } => {
            s.push('(');
            render_expr(lhs, s);
            s.push_str(match op {
                BinOp::Eq => " = ",
                BinOp::Ne => " != ",
                BinOp::Lt => " < ",
                BinOp::Le => " <= ",
                BinOp::Gt => " > ",
                BinOp::Ge => " >= ",
                BinOp::And => " AND ",
                BinOp::Or => " OR ",
                BinOp::Add => " + ",
                BinOp::Sub => " - ",
                BinOp::Mul => " * ",
                BinOp::Div => " / ",
            });
            render_expr(rhs, s);
            s.push(')');
        }
    }
}

fn render_value(v: &Value, s: &mut String) {
    match v {
        Value::Null => s.push_str("NULL"),
        Value::Int(i) => s.push_str(&i.to_string()),
        Value::Double(d) if d.is_finite() => {
            let text = format!("{d}");
            s.push_str(&text);
            if !text.contains('.') {
                s.push_str(".0");
            }
        }
        Value::Double(_) => s.push_str("NULL"),
        Value::Text(t) => {
            s.push('\'');
            s.push_str(&t.replace('\'', "''"));
            s.push('\'');
        }
    }
}

// ---------------------------------------------------------------------
// relation! macro
// ---------------------------------------------------------------------

/// Declare a [`Relation`](crate::stmt::Relation): a row struct, its
/// column enum (implementing [`TypedColumn`](crate::stmt::TypedColumn)),
/// and the static [`TableDesc`](crate::stmt::TableDesc) they share.
/// Column SQL names are the field names; DDL is generated from the
/// descriptor, never hand-written.
///
/// `indexes { ... }` declares secondary indexes over one or more columns
/// (point, range, prefix, MIN/MAX-peek, and ORDER BY streaming):
///
/// ```
/// sdm_metadb::relation! {
///     /// One host heartbeat.
///     pub struct BeatRow in "beats" as BeatCol {
///         /// Host id.
///         pub host: i64 => Host,
///         /// Beat sequence number.
///         pub seq: i64 => Seq,
///     }
///     indexes { "beats_host" on (host), "beats_host_seq" on (host, seq) }
/// }
///
/// use sdm_metadb::stmt::Relation;
/// assert_eq!(BeatRow::TABLE.indexes[0].columns, ["host"]);
/// assert_eq!(BeatRow::TABLE.indexes[1].columns, ["host", "seq"]);
/// ```
#[macro_export]
macro_rules! relation {
    (
        $(#[$smeta:meta])*
        pub struct $name:ident in $table:literal as $colenum:ident {
            $( $(#[$fmeta:meta])* pub $field:ident : $fty:ty => $variant:ident ),+ $(,)?
        }
        $( indexes { $( $iname:literal on ( $($icol:ident),+ $(,)? ) ),+ $(,)? } )?
    ) => {
        $(#[$smeta])*
        #[derive(Debug, Clone, PartialEq)]
        pub struct $name {
            $( $(#[$fmeta])* pub $field : $fty, )+
        }

        #[doc = concat!("Typed columns of [`", stringify!($name), "`] (`", $table, "`).")]
        #[derive(Debug, Clone, Copy)]
        pub enum $colenum {
            $(
                #[doc = concat!("The `", stringify!($field), "` column.")]
                $variant,
            )+
        }

        impl $crate::stmt::Relation for $name {
            const TABLE: $crate::stmt::TableDesc = $crate::stmt::TableDesc {
                name: $table,
                columns: &[
                    $( $crate::stmt::ColDesc {
                        name: stringify!($field),
                        ctype: <$fty as $crate::stmt::ColValue>::COL_TYPE,
                    }, )+
                ],
                indexes: &[
                    $($( $crate::stmt::IndexSpec {
                        name: $iname,
                        columns: &[$( stringify!($icol) ),+],
                    }, )+)?
                ],
            };

            fn from_row(row: &[$crate::Value]) -> $crate::DbResult<Self> {
                let want = <Self as $crate::stmt::Relation>::TABLE.arity();
                if row.len() != want {
                    return Err($crate::DbError::Arity(format!(
                        "{} decodes {} columns, got {}",
                        stringify!($name),
                        want,
                        row.len()
                    )));
                }
                let mut cells = row.iter();
                Ok(Self {
                    $( $field: <$fty as $crate::stmt::ColValue>::from_value(
                        cells.next().ok_or_else(|| $crate::DbError::Arity(format!(
                            "{} ran out of columns at `{}`",
                            stringify!($name),
                            stringify!($field)
                        )))?,
                    ), )+
                })
            }

            fn into_row(self) -> Vec<$crate::Value> {
                vec![ $( $crate::stmt::ColValue::into_value(self.$field), )+ ]
            }
        }

        impl $crate::stmt::TypedColumn<$name> for $colenum {
            fn index(self) -> usize {
                self as usize
            }
        }
    };
}

/// Compile a typed [`Stmt`](crate::stmt::Stmt) exactly once per call
/// site and reuse it for the life of the process — the typed analogue
/// of a prepared-statement slot:
///
/// ```
/// use sdm_metadb::stmt::{Insert, Relation, Stmt};
/// use sdm_metadb::{stmt_once, Database};
///
/// sdm_metadb::relation! {
///     /// One audit line.
///     pub struct AuditRow in "audit" as AuditCol {
///         /// Event code.
///         pub code: i64 => Code,
///     }
/// }
///
/// let db = Database::new();
/// db.exec_stmt(&AuditRow::TABLE.create_table(), &[]).unwrap();
/// for code in 0..3 {
///     // Compiled on the first pass, replayed afterwards.
///     db.exec_stmt(
///         stmt_once!(Insert::<AuditRow>::prepared()),
///         &AuditRow { code }.into_row(),
///     )
///     .unwrap();
/// }
/// ```
#[macro_export]
macro_rules! stmt_once {
    ($build:expr) => {{
        static STMT: std::sync::OnceLock<$crate::stmt::Stmt> = std::sync::OnceLock::new();
        STMT.get_or_init(|| $build)
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Database;
    use crate::error::DbError;

    crate::relation! {
        /// Test relation.
        pub struct TRow in "t" as TCol {
            /// Key.
            pub k: i64 => K,
            /// Value.
            pub v: i64 => V,
            /// Label.
            pub label: String => Label,
        }
        indexes { "t_k" on (k), "t_kv" on (k, v) }
    }

    fn db_with_rows() -> Database {
        let db = Database::new();
        db.exec_stmt(&TRow::TABLE.create_table(), &[]).unwrap();
        for ix in TRow::TABLE.create_indexes() {
            db.exec_stmt(&ix, &[]).unwrap();
        }
        let ins = Insert::<TRow>::prepared();
        for i in 0..10i64 {
            db.exec_stmt(
                &ins,
                &TRow {
                    k: i % 3,
                    v: i,
                    label: format!("r{i}"),
                }
                .into_row(),
            )
            .unwrap();
        }
        db
    }

    #[test]
    fn ddl_is_generated_from_descriptor() {
        let db = Database::new();
        db.exec_stmt(&TRow::TABLE.create_table(), &[]).unwrap();
        // Idempotent (IF NOT EXISTS).
        db.exec_stmt(&TRow::TABLE.create_table(), &[]).unwrap();
        assert!(db.has_table("t"));
        for ix in TRow::TABLE.create_indexes() {
            db.exec_stmt(&ix, &[]).unwrap();
        }
        assert!(matches!(
            db.exec_stmt(&TRow::TABLE.create_indexes()[0], &[]),
            Err(DbError::IndexExists(_))
        ));
    }

    #[test]
    fn typed_query_filters_orders_limits() {
        let db = db_with_rows();
        let q = Query::<TRow>::filter(TCol::K.eq(param(0)))
            .order_by_desc(TCol::V)
            .limit(2)
            .compile();
        let rs = db.exec_stmt(&q, &[Value::Int(1)]).unwrap();
        let rows: Vec<TRow> = decode(&rs).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!((rows[0].v, rows[1].v), (7, 4));
        assert_eq!(rows[0].label, "r7");
    }

    #[test]
    fn typed_query_uses_declared_index() {
        let db = db_with_rows();
        db.reset_stats();
        let q = Query::<TRow>::filter(TCol::K.eq(1)).compile();
        db.exec_stmt(&q, &[]).unwrap();
        let stats = db.stats();
        assert_eq!((stats.index_scans, stats.full_scans), (1, 0));
        // Typed execution never touches SQL text.
        assert_eq!(stats.parse_misses, 0);
    }

    #[test]
    fn projections_and_aggregates() {
        let db = db_with_rows();
        let rs = db
            .exec_stmt(&Query::<TRow>::all().count().compile(), &[])
            .unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Int(10)));
        let rs = db
            .exec_stmt(&Query::<TRow>::all().max(TCol::V).compile(), &[])
            .unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Int(9)));
        let rs = db
            .exec_stmt(
                &Query::<TRow>::all()
                    .select(&[TCol::Label, TCol::V])
                    .order_by(TCol::V)
                    .limit(1)
                    .compile(),
                &[],
            )
            .unwrap();
        assert_eq!(rs.columns, vec!["label", "v"]);
        assert_eq!(rs.rows[0][0].as_str(), Some("r0"));
        let rs = db
            .exec_stmt(
                &Query::<TRow>::all()
                    .distinct()
                    .select(&[TCol::K])
                    .order_by(TCol::K)
                    .compile(),
                &[],
            )
            .unwrap();
        assert_eq!(rs.len(), 3);
    }

    #[test]
    fn update_and_delete_builders() {
        let db = db_with_rows();
        let up = Update::<TRow>::new()
            .set(TCol::V, param(0))
            .filter(TCol::K.eq(param(1)))
            .compile();
        let rs = db.exec_stmt(&up, &[Value::Int(-1), Value::Int(2)]).unwrap();
        assert_eq!(rs.affected, 3);
        let del = Delete::<TRow>::filter(TCol::V.eq(-1i64)).compile();
        let rs = db.exec_stmt(&del, &[]).unwrap();
        assert_eq!(rs.affected, 3);
        let rs = db
            .exec_stmt(&Query::<TRow>::all().count().compile(), &[])
            .unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Int(7)));
    }

    #[test]
    fn null_handling_and_complex_filters() {
        let db = db_with_rows();
        db.exec_stmt(
            &Insert::<TRow>::prepared(),
            &[Value::Int(99), Value::Null, Value::Null],
        )
        .unwrap();
        let q = Query::<TRow>::filter(TCol::V.is_null()).compile();
        assert_eq!(db.exec_stmt(&q, &[]).unwrap().len(), 1);
        let q = Query::<TRow>::filter(
            TCol::V
                .is_not_null()
                .and(TCol::K.eq(0i64).or(TCol::V.ge(8i64))),
        )
        .compile();
        let rs = db.exec_stmt(&q, &[]).unwrap();
        assert_eq!(rs.len(), 5); // k∈{0,3,6,9} plus v∈{8}
    }

    #[test]
    fn stmt_metadata_is_exposed() {
        let q = Query::<TRow>::all().compile();
        assert_eq!(q.table(), "t");
        assert!(!q.is_mutation());
        assert!(Insert::<TRow>::prepared().is_mutation());
        let cloned = q.clone();
        assert!(Arc::ptr_eq(&q.ast, &cloned.ast), "cloning shares the AST");
    }

    #[test]
    fn references_covers_join_sides() {
        let q = Query::<TRow>::all().compile();
        assert!(q.references("t"));
        assert!(q.references("T"), "case-insensitive like the catalog");
        assert!(!q.references("other"));
        let join = Stmt::parse("SELECT t.k FROM other INNER JOIN t ON other.k = t.k").unwrap();
        assert_eq!(join.table(), "other");
        assert!(join.references("t"), "joined table is referenced");
    }

    #[test]
    fn parse_bridge_matches_typed() {
        let db = db_with_rows();
        let typed = Query::<TRow>::filter(TCol::K.eq(param(0)))
            .order_by(TCol::V)
            .compile();
        let parsed = Stmt::parse(&typed.to_sql()).unwrap();
        let a = db.exec_stmt(&typed, &[Value::Int(2)]).unwrap();
        let b = db.exec_stmt(&parsed, &[Value::Int(2)]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn to_sql_round_trips_every_builder() {
        let db = db_with_rows();
        let stmts = [
            TRow::TABLE.create_table(),
            Insert::<TRow>::row(TRow {
                k: 5,
                v: -3,
                label: "it's".into(),
            }),
            Query::<TRow>::filter(TCol::Label.eq("it's").and(TCol::V.le(0i64)))
                .select(&[TCol::K, TCol::V])
                .order_by_desc(TCol::K)
                .limit(4)
                .compile(),
            Update::<TRow>::new()
                .set(TCol::V, 7i64)
                .filter(TCol::K.eq(5i64))
                .compile(),
            Delete::<TRow>::filter(TCol::K.eq(5i64)).compile(),
        ];
        for stmt in stmts {
            let text = stmt.to_sql();
            let reparsed = Stmt::parse(&text).unwrap();
            let a = db.exec_stmt(&stmt, &[]).unwrap();
            let b = db.exec_stmt(&reparsed, &[]).unwrap();
            // Mutations executed twice differ in affected rows only when
            // the first run changed the data the second sees; compare the
            // SELECT results instead for those.
            if !stmt.is_mutation() {
                assert_eq!(a, b, "round-trip mismatch for {text}");
            }
        }
    }

    #[test]
    fn ordered_index_ddl_round_trips() {
        let stmts = TRow::TABLE.create_indexes();
        let texts: Vec<String> = stmts.iter().map(Stmt::to_sql).collect();
        assert_eq!(texts[0], "CREATE INDEX t_k ON t (k)");
        assert_eq!(texts[1], "CREATE INDEX t_kv ON t (k, v)");
        for (stmt, text) in stmts.iter().zip(&texts) {
            assert_eq!(Stmt::parse(text).unwrap().ast(), stmt.ast());
        }
    }

    #[test]
    fn between_compiles_to_closed_range() {
        let db = db_with_rows();
        db.reset_stats();
        let q = Query::<TRow>::filter(
            TCol::K
                .eq(param(0))
                .and(TCol::V.between(param(1), param(2))),
        )
        .compile();
        let rs = db
            .exec_stmt(&q, &[Value::Int(1), Value::Int(3), Value::Int(8)])
            .unwrap();
        let rows: Vec<TRow> = decode(&rs).unwrap();
        assert_eq!(
            rows.iter().map(|r| r.v).collect::<Vec<_>>(),
            [4, 7],
            "k = 1 rows with v in [3, 8]"
        );
        let stats = db.stats();
        assert_eq!(
            (stats.plan_range_probes, stats.full_scans),
            (1, 0),
            "between rides the (k, v) index"
        );
        // The rendered text re-executes to the same rows.
        let reparsed = Stmt::parse(&q.to_sql()).unwrap();
        let rs2 = db
            .exec_stmt(&reparsed, &[Value::Int(1), Value::Int(3), Value::Int(8)])
            .unwrap();
        assert_eq!(rs, rs2);
    }

    #[test]
    fn prefix_range_round_trips_and_probes() {
        let db = db_with_rows();
        db.reset_stats();
        let q = Query::<TRow>::prefix_range(TCol::K, param(0), TCol::V, param(1), param(2))
            .order_by(TCol::V)
            .compile();
        let params = [Value::Int(0), Value::Int(0), Value::Int(6)];
        let a = db.exec_stmt(&q, &params).unwrap();
        let rows: Vec<TRow> = decode(&a).unwrap();
        assert_eq!(rows.iter().map(|r| r.v).collect::<Vec<_>>(), [0, 3, 6]);
        let b = db
            .exec_stmt(&Stmt::parse(&q.to_sql()).unwrap(), &params)
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(db.stats().full_scans, 0);
    }

    #[test]
    fn double_literals_render_parseably() {
        let mut s = String::new();
        render_value(&Value::Double(2.0), &mut s);
        assert_eq!(s, "2.0");
        s.clear();
        render_value(&Value::Double(0.25), &mut s);
        assert_eq!(s, "0.25");
        s.clear();
        render_value(&Value::Double(f64::NAN), &mut s);
        assert_eq!(s, "NULL");
    }

    #[test]
    fn from_row_checks_arity() {
        assert!(matches!(
            TRow::from_row(&[Value::Int(1)]),
            Err(DbError::Arity(_))
        ));
    }
}
