//! SQL subset: lexer, AST, parser.
//!
//! Covers what SDM issues as embedded SQL: `CREATE TABLE [IF NOT EXISTS]`,
//! `DROP TABLE`, `CREATE INDEX` / `DROP INDEX ... ON`, `INSERT INTO ...
//! VALUES`, `SELECT ... FROM <one table> [WHERE] [ORDER BY] [LIMIT]`
//! listing either columns or aggregates (COUNT/SUM/AVG/MIN/MAX),
//! `UPDATE ... SET ... [WHERE]`, `DELETE FROM ... [WHERE]`, with `?`
//! positional parameters, arithmetic, comparisons, `AND`/`OR`/`NOT`,
//! `IS [NOT] NULL`, and qualified `table.column` references. Transactions are not SQL statements but
//! `Database::transaction` closures.

pub mod ast;
pub mod lexer;
pub mod parser;

pub use ast::{AggFunc, Expr, OrderBy, SelExpr, SelectItem, Statement};
pub use parser::parse;
