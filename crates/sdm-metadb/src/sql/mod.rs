//! SQL subset: lexer, AST, parser.
//!
//! Covers exactly what SDM issues: `CREATE TABLE [IF NOT EXISTS]`,
//! `DROP TABLE`, `CREATE INDEX` / `DROP INDEX ... ON`, `INSERT INTO t
//! VALUES (...)[, (...)]` with every column given, `SELECT * | c, … |
//! COUNT(*) | MAX(c) FROM <one table> [WHERE] [ORDER BY c, …]`,
//! `UPDATE t SET c = v, … [WHERE]` and `DELETE FROM t [WHERE]`. A WHERE
//! clause is a conjunction of pins, `c = v [AND c = v …]`, and every
//! `v` is a `?` positional parameter, `NULL`, a string or a number with
//! an optional leading `-`. Transactions are not SQL statements but
//! `Database::transaction` closures.

pub mod ast;
pub mod lexer;
pub mod parser;

pub use ast::{Operand, Pins, Projection, Statement};
pub use parser::parse;
