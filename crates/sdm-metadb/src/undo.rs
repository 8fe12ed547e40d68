//! Per-transaction undo logging.
//!
//! A transaction never snapshots the catalog. Instead, every mutation
//! executed inside a `Database::transaction` closure appends a
//! row-level undo record; a commit discards the log and a rollback
//! replays it in reverse. Transaction cost is therefore proportional to
//! the rows the transaction *touched*, never to the database's size — a
//! transaction of one insert into a million-row catalog logs exactly
//! one record. An autocommitted statement logs into a log it throws
//! away.
//!
//! Undo records own the displaced data (old row images, dropped tables),
//! captured by move on the mutation path — logging an UPDATE's undo is a
//! `mem::replace`, not a clone.

use crate::catalog::Catalog;
use crate::error::DbResult;
use crate::table::{IndexDef, Row, Table};

/// One reversible effect of a mutation statement.
#[derive(Debug)]
pub(crate) enum UndoRecord {
    /// `n` rows were appended to `table` (INSERT).
    Append {
        /// Target table.
        table: String,
        /// How many rows were appended.
        n: usize,
    },
    /// Rows were removed from `table` (DELETE); ascending original
    /// positions paired with the removed row images.
    Delete {
        /// Target table.
        table: String,
        /// `(original position, row)` in ascending position order.
        removed: Vec<(usize, Row)>,
    },
    /// Rows of `table` were overwritten (UPDATE); the pre-update images.
    Update {
        /// Target table.
        table: String,
        /// `(position, pre-update row)` pairs.
        old: Vec<(usize, Row)>,
    },
    /// `CREATE TABLE` created `name`.
    CreateTable {
        /// Created table name.
        name: String,
    },
    /// `DROP TABLE` removed `name`; the whole table rides along (the
    /// statement itself touched every row, so its undo may too).
    DropTable {
        /// Dropped table name.
        name: String,
        /// The dropped table, rows and indexes intact.
        table: Box<Table>,
    },
    /// `CREATE INDEX` added `index` to `table`.
    CreateIndex {
        /// Owning table.
        table: String,
        /// Created index name.
        index: String,
    },
    /// `DROP INDEX` removed an index from `table`.
    DropIndex {
        /// Owning table.
        table: String,
        /// The dropped definition (the map rebuilds on undo).
        def: IndexDef,
    },
}

/// The ordered undo log of one open transaction.
#[derive(Debug, Default)]
pub struct UndoLog {
    records: Vec<UndoRecord>,
}

impl UndoLog {
    /// Append one record (called by the executor under the database's
    /// lock).
    pub(crate) fn push(&mut self, rec: UndoRecord) {
        self.records.push(rec);
    }

    /// Replay the log in reverse against `catalog`, restoring the
    /// pre-transaction state exactly. Returns the number of row images
    /// applied (the `tx_rows_undone` stat) — proportional to the rows
    /// the transaction touched, not to the catalog.
    ///
    /// Replay is infallible by construction: records are undone newest-
    /// first, so every table/index a record names was restored by the
    /// records after it (e.g. a `DROP TABLE` is re-instated before the
    /// undo of earlier inserts into it runs).
    pub(crate) fn rollback(self, catalog: &mut Catalog) -> u64 {
        let mut rows_undone = 0u64;
        for rec in self.records.into_iter().rev() {
            match rec {
                UndoRecord::Append { table, n } => {
                    rows_undone += n as u64;
                    replayed(catalog.get_mut(&table), "undo: appended-into table exists")
                        .undo_append(n);
                }
                UndoRecord::Delete { table, removed } => {
                    rows_undone += removed.len() as u64;
                    replayed(catalog.get_mut(&table), "undo: deleted-from table exists")
                        .insert_at(removed);
                }
                UndoRecord::Update { table, old } => {
                    rows_undone += old.len() as u64;
                    replayed(catalog.get_mut(&table), "undo: updated table exists")
                        .apply_updates(old);
                }
                UndoRecord::CreateTable { name } => {
                    replayed(catalog.drop_table(&name), "undo: created table exists");
                }
                UndoRecord::DropTable { name, table } => {
                    catalog.put_table(&name, *table);
                }
                UndoRecord::CreateIndex { table, index } => {
                    let t = replayed(catalog.get_mut(&table), "undo: indexed table exists");
                    replayed(t.drop_index(&index), "undo: created index exists");
                }
                UndoRecord::DropIndex { table, def } => {
                    let cols: Vec<&str> = def.columns.iter().map(String::as_str).collect();
                    let t = replayed(catalog.get_mut(&table), "undo: index's table exists");
                    replayed(
                        t.create_index(&def.name, &cols),
                        "undo: dropped index re-creates",
                    );
                }
            }
        }
        rows_undone
    }
}

/// The result of one undo step, which cannot fail: reverse replay
/// re-instates every table and index a record names before that record
/// is undone, and a dropped index's def was captured verbatim.
#[expect(
    clippy::expect_used,
    reason = "reverse replay re-instates any table or index dropped after a record was logged, \
              so every undo step finds what it names"
)]
fn replayed<T>(step: DbResult<T>, what: &str) -> T {
    step.expect(what)
}
