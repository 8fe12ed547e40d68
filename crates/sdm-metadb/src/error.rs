//! Database error type.

use std::fmt;

/// Errors from parsing or executing SQL.
#[derive(Debug, Clone, PartialEq)]
pub enum DbError {
    /// Lexical error at a byte position.
    Lex(String),
    /// Parse error.
    Parse(String),
    /// Unknown table.
    NoSuchTable(String),
    /// Table already exists.
    TableExists(String),
    /// Unknown column.
    NoSuchColumn(String),
    /// A value of the wrong type for its column (INSERT or UPDATE).
    Type(String),
    /// Wrong number of values/parameters.
    Arity(String),
    /// I/O or serialization error during persistence.
    Persist(String),
    /// Index already exists on the table.
    IndexExists(String),
    /// Unknown index.
    NoSuchIndex(String),
    /// A statement handed to the wrong executor path (a SELECT to the
    /// mutation path, or the reverse). Also what a
    /// [`crate::Database::transaction`] closure may return to roll back
    /// when nothing else went wrong.
    Tx(String),
    /// A panic while the database's lock was held left the engine's
    /// state unknown (a statement or a transaction stopped halfway):
    /// every later statement and transaction returns this error.
    Poisoned,
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Lex(m) => write!(f, "lex error: {m}"),
            DbError::Parse(m) => write!(f, "parse error: {m}"),
            DbError::NoSuchTable(t) => write!(f, "no such table: {t}"),
            DbError::TableExists(t) => write!(f, "table already exists: {t}"),
            DbError::NoSuchColumn(c) => write!(f, "no such column: {c}"),
            DbError::Type(m) => write!(f, "type error: {m}"),
            DbError::Arity(m) => write!(f, "arity error: {m}"),
            DbError::Persist(m) => write!(f, "persistence error: {m}"),
            DbError::IndexExists(i) => write!(f, "index already exists: {i}"),
            DbError::NoSuchIndex(i) => write!(f, "no such index: {i}"),
            DbError::Tx(m) => write!(f, "transaction error: {m}"),
            DbError::Poisoned => write!(f, "database poisoned by a panic under its lock"),
        }
    }
}

impl std::error::Error for DbError {}

/// Convenience alias.
pub type DbResult<T> = Result<T, DbError>;
