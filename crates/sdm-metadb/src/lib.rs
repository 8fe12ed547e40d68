//! Embedded relational metadata database.
//!
//! Stands in for the MySQL 3.23 server the paper used for SDM's
//! application metadata. SDM issues embedded SQL (CREATE TABLE / INSERT /
//! SELECT / UPDATE / DELETE with WHERE, ORDER BY, LIMIT and `?`
//! placeholders) against six small tables; this crate provides that
//! surface — plus aggregates (COUNT/SUM/AVG/MIN/MAX), GROUP BY +
//! HAVING and DISTINCT (the last two reached only by tests and the
//! `metadb_tour` example), single-column INNER JOIN, ordered secondary
//! indexes (CREATE INDEX, one or more columns) with cost-based
//! point/range/stream planning and incremental maintenance, and
//! undo-log transactions (BEGIN/COMMIT/ROLLBACK cost O(rows touched),
//! never O(database)) — as an in-process engine:
//!
//! * [`value::Value`] / [`schema::Schema`] — the type system (INT,
//!   DOUBLE, TEXT + NULL).
//! * [`sql`] — lexer, AST, recursive-descent parser for the SQL subset.
//! * [`exec`] — statement execution (shared-borrow reads, undo-logging
//!   mutations) with index-backed join strategies (merge and
//!   index-nested-loop; every non-NULL pair when neither side is
//!   indexed).
//! * [`eval`] — expression evaluation: one walk over the AST per row,
//!   with SQL three-valued logic and errors (never panics) for bad
//!   columns, types and parameters.
//! * [`undo`] — per-transaction row-level undo logs (`ROLLBACK` replays
//!   them in reverse).
//! * [`Database`] — the embedded connection: `exec_stmt(stmt, params)`
//!   runs a typed statement; SQL text enters only through
//!   `parse(sql)`, which lowers it to the same [`stmt::Stmt`]
//!   (`exec(sql, params)` is parse-then-`exec_stmt`).
//! * [`stmt`] — the **typed statement layer**: tables described once by
//!   [`stmt::Relation`] descriptors (the [`relation!`] macro), DDL
//!   generated from them, and queries built fluently
//!   ([`stmt::Query`] / [`stmt::Insert`] / [`stmt::Update`] /
//!   [`stmt::Delete`]) into compiled [`stmt::Stmt`] values that execute
//!   with zero SQL-text formatting or parsing.
//! * [`wal`] — **durability**, so metadata survives "runs" the way a
//!   MySQL server's tables did: a write-ahead log with group commit,
//!   checkpoint snapshots (the one on-disk format), and crash recovery
//!   ([`Database::open`] replays the log to exactly the last committed
//!   transaction), behind a [`wal::storage::WalStorage`] trait with
//!   fsync'd-file and fault-injectable in-memory backends.
//!
//! The engine is deliberately small but real: every SDM metadata path
//! (run registration, offset tracking, import descriptions, index-history
//! lookups) goes through SQL here, as in the paper.

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod catalog;
pub mod db;
pub mod error;
pub mod eval;
pub mod exec;
pub mod schema;
pub mod sql;
pub mod stmt;
pub mod table;
pub mod undo;
pub mod value;
pub mod wal;

pub use db::{Database, ResultSet, TxTicket};
pub use error::{DbError, DbResult};
pub use exec::DbStats;
pub use schema::{ColType, Column, Schema};
pub use stmt::{Relation, Stmt, TypedColumn};
pub use table::IndexDef;
pub use value::Value;
pub use wal::storage::{FileStorage, MemHandle, MemPersisted, MemStorage, WalFaults, WalStorage};
pub use wal::RecoveryInfo;
