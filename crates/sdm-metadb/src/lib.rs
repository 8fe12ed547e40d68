//! Embedded relational metadata database.
//!
//! Stands in for the MySQL 3.23 server the paper used for SDM's
//! application metadata. SDM issues embedded SQL (CREATE TABLE / INSERT /
//! SELECT / UPDATE / DELETE with WHERE, ORDER BY, LIMIT and `?`
//! placeholders) against six small tables, one table per statement;
//! this crate provides that surface — a `SELECT` reads one table and
//! lists either columns or aggregates (COUNT/SUM/AVG/MIN/MAX, one output
//! row) — plus ordered secondary indexes (CREATE INDEX, one or more
//! columns, maintained incrementally; a statement whose `col = ?` pins
//! cover an index's leading columns probes it, any other scans), and
//! undo-log transactions (`Database::transaction`
//! closures, whose commit or rollback costs O(rows touched), never
//! O(database)) — as an in-process engine:
//!
//! * [`value::Value`] / [`schema::Schema`] — the type system (INT,
//!   DOUBLE, TEXT + NULL).
//! * [`sql`] — lexer, AST, recursive-descent parser for the SQL subset.
//! * [`exec`] — statement execution (shared-borrow reads, undo-logging
//!   mutations).
//! * [`eval`] — expression evaluation: one walk over the AST per row,
//!   with SQL three-valued logic and errors (never panics) for bad
//!   columns, types and parameters.
//! * [`undo`] — per-transaction row-level undo logs (a rollback
//!   replays them in reverse).
//! * [`Database`] — the embedded connection: one lock over the catalog,
//!   the log and the counters. `exec_stmt(stmt, params)` runs a typed
//!   statement as its own transaction, `transaction(|tx| …)` runs
//!   several as one; SQL text enters only through `parse(sql)`, which
//!   lowers it to the same [`stmt::Stmt`] (`exec(sql, params)` is
//!   parse-then-`exec_stmt`).
//! * [`stmt`] — the **typed statement layer**: tables described once by
//!   [`stmt::Relation`] descriptors (the [`relation!`] macro), DDL
//!   generated from them, and queries built fluently
//!   ([`stmt::Query`] / [`stmt::Insert`] / [`stmt::Update`] /
//!   [`stmt::Delete`]) into compiled [`stmt::Stmt`] values that execute
//!   with zero SQL-text formatting or parsing.
//! * [`wal`] — **durability**, so metadata survives "runs" the way a
//!   MySQL server's tables did: a write-ahead log with one append and
//!   one fsync per commit, checkpoint snapshots written in the log's
//!   own frames (one on-disk format for both), and crash recovery
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

pub use db::{Database, ResultSet, Transaction};
pub use error::{DbError, DbResult};
pub use exec::DbStats;
pub use schema::{ColType, Column, Schema};
pub use stmt::{Relation, Stmt, TypedColumn};
pub use table::IndexDef;
pub use value::Value;
pub use wal::storage::{FileStorage, MemHandle, MemPersisted, MemStorage, WalFaults, WalStorage};
pub use wal::RecoveryInfo;
