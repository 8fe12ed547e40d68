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
//! ([`crate::Database::parse`], [`Stmt::parse`]).

use std::marker::PhantomData;
use std::sync::Arc;

use crate::error::{DbError, DbResult};
use crate::schema::ColType;
use crate::sql::ast::{AggFunc, BinOp, Expr, OrderBy, SelExpr, SelectItem, Statement};
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
    /// The parameters an execution must bind.
    params: usize,
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
            params: ast.param_count(),
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

    /// The one table this statement reads or writes. This is the
    /// routing/caching key a sharded or caching store dispatches on.
    pub fn table(&self) -> &str {
        &self.table
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

    /// Fail with [`DbError::Arity`] unless `params` binds every `?` of
    /// the statement. Checked before execution, so the answer does not
    /// depend on whether some row reaches the `?`.
    pub(crate) fn check_params(&self, params: &[Value]) -> DbResult<()> {
        if params.len() < self.params {
            return Err(DbError::Arity(format!(
                "the statement takes {} parameters (got {})",
                self.params,
                params.len()
            )));
        }
        Ok(())
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
            items,
            table: R::TABLE.name.to_string(),
            filter: self.filter,
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
// relation! macro
// ---------------------------------------------------------------------

/// Declare a [`Relation`](crate::stmt::Relation): a row struct, its
/// column enum (implementing [`TypedColumn`](crate::stmt::TypedColumn)),
/// and the static [`TableDesc`](crate::stmt::TableDesc) they share.
/// Column SQL names are the field names; DDL is generated from the
/// descriptor, never hand-written.
///
/// `indexes { ... }` declares secondary indexes over one or more columns;
/// a query whose `col = ?` pins cover an index's leading columns probes
/// it instead of scanning:
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
    fn parse_bridge_matches_typed() {
        let db = db_with_rows();
        let typed = Query::<TRow>::filter(TCol::K.eq(param(0)))
            .order_by(TCol::V)
            .compile();
        let parsed = Stmt::parse("SELECT * FROM t WHERE k = ? ORDER BY v").unwrap();
        let a = db.exec_stmt(&typed, &[Value::Int(2)]).unwrap();
        let b = db.exec_stmt(&parsed, &[Value::Int(2)]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn between_compiles_to_closed_range() {
        // A closed range is two conjuncts; the k pin probes an index
        // and re-verification keeps the window.
        let db = db_with_rows();
        db.reset_stats();
        let q = Query::<TRow>::filter(
            TCol::K
                .eq(param(0))
                .and(TCol::V.ge(param(1)))
                .and(TCol::V.le(param(2))),
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
            (stats.index_scans, stats.full_scans),
            (1, 0),
            "the k pin rides an index"
        );
        // The same statement as SQL text gives the same rows.
        let rs2 = db
            .exec(
                "SELECT * FROM t WHERE k = ? AND v >= ? AND v <= ?",
                &[Value::Int(1), Value::Int(3), Value::Int(8)],
            )
            .unwrap();
        assert_eq!(rs, rs2);
    }

    #[test]
    fn prefix_window_matches_sql_and_probes() {
        let db = db_with_rows();
        db.reset_stats();
        let q = Query::<TRow>::filter(
            TCol::K
                .eq(param(0))
                .and(TCol::V.ge(param(1)))
                .and(TCol::V.le(param(2))),
        )
        .order_by(TCol::V)
        .compile();
        let params = [Value::Int(0), Value::Int(0), Value::Int(6)];
        let a = db.exec_stmt(&q, &params).unwrap();
        let rows: Vec<TRow> = decode(&a).unwrap();
        assert_eq!(rows.iter().map(|r| r.v).collect::<Vec<_>>(), [0, 3, 6]);
        let b = db
            .exec(
                "SELECT * FROM t WHERE k = ? AND v >= ? AND v <= ? ORDER BY v",
                &params,
            )
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(db.stats().full_scans, 0);
    }

    #[test]
    fn from_row_checks_arity() {
        assert!(matches!(
            TRow::from_row(&[Value::Int(1)]),
            Err(DbError::Arity(_))
        ));
    }
}
