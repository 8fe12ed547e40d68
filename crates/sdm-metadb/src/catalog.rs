//! The catalog: named tables.

use std::collections::BTreeMap;

use crate::error::{DbError, DbResult};
use crate::schema::Schema;
use crate::table::Table;
use crate::wal::record::Replay;

/// All tables of one database, keyed by lower-cased name.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    tables: BTreeMap<String, Table>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    fn key(name: &str) -> String {
        name.to_ascii_lowercase()
    }

    /// Create a table; errors if it exists (unless `if_not_exists`).
    /// Returns whether a table was actually created (so transaction
    /// undo only logs real creations).
    pub fn create_table(
        &mut self,
        name: &str,
        schema: Schema,
        if_not_exists: bool,
    ) -> DbResult<bool> {
        let key = Self::key(name);
        if self.tables.contains_key(&key) {
            if if_not_exists {
                return Ok(false);
            }
            return Err(DbError::TableExists(name.to_string()));
        }
        self.tables.insert(key, Table::new(schema));
        Ok(true)
    }

    /// Drop a table.
    pub fn drop_table(&mut self, name: &str) -> DbResult<()> {
        self.remove_table(name).map(|_| ())
    }

    /// Drop a table, returning it (transaction undo keeps it for
    /// replay).
    pub(crate) fn remove_table(&mut self, name: &str) -> DbResult<Table> {
        self.tables
            .remove(&Self::key(name))
            .ok_or_else(|| DbError::NoSuchTable(name.to_string()))
    }

    /// Re-instate a table wholesale (transaction undo of `DROP TABLE`).
    pub(crate) fn put_table(&mut self, name: &str, table: Table) {
        self.tables.insert(Self::key(name), table);
    }

    /// Every table with its lower-cased name, in name order (what a
    /// checkpoint writes).
    pub(crate) fn tables(&self) -> impl Iterator<Item = (&str, &Table)> {
        self.tables.iter().map(|(name, t)| (name.as_str(), t))
    }

    /// Shared table access.
    pub fn get(&self, name: &str) -> DbResult<&Table> {
        self.tables
            .get(&Self::key(name))
            .ok_or_else(|| DbError::NoSuchTable(name.to_string()))
    }

    /// Mutable table access.
    pub fn get_mut(&mut self, name: &str) -> DbResult<&mut Table> {
        self.tables
            .get_mut(&Self::key(name))
            .ok_or_else(|| DbError::NoSuchTable(name.to_string()))
    }

    /// Whether a table exists.
    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(&Self::key(name))
    }

    /// Sorted table names.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.keys().cloned().collect()
    }

    /// Apply one decoded WAL redo record (crash recovery). Replay is
    /// positional and deterministic — the log was written by the same
    /// executor that produced the state being reconstructed, so every
    /// position and name is expected to resolve; a failure here means a
    /// corrupt-but-CRC-valid log and surfaces as an open error.
    pub(crate) fn apply_redo(&mut self, rec: Replay) -> DbResult<()> {
        match rec {
            Replay::Append { table, rows } => {
                let t = self.get_mut(&table)?;
                for row in rows {
                    t.insert(row)?;
                }
            }
            Replay::Update { table, news } => {
                let t = self.get_mut(&table)?;
                let news = news
                    .into_iter()
                    .map(|(pos, row)| {
                        if pos >= t.len() {
                            return Err(corrupt(format!("update of row {pos} past the end")));
                        }
                        Ok((pos, t.schema.check_row(row)?))
                    })
                    .collect::<DbResult<_>>()?;
                t.apply_updates(news);
            }
            Replay::Delete { table, positions } => {
                let t = self.get_mut(&table)?;
                let ascending = positions.windows(2).all(|w| w[0] < w[1]);
                if !ascending || positions.last().is_some_and(|&p| p >= t.len()) {
                    return Err(corrupt(
                        "delete positions not ascending inside the table".into(),
                    ));
                }
                t.delete_at(&positions);
            }
            Replay::Clear { table } => {
                self.get_mut(&table)?.clear();
            }
            Replay::CreateTable { name, schema } => {
                self.create_table(&name, schema, false)?;
            }
            Replay::DropTable { name } => {
                self.drop_table(&name)?;
            }
            Replay::CreateIndex {
                table,
                index,
                columns,
            } => {
                let cols: Vec<&str> = columns.iter().map(String::as_str).collect();
                self.get_mut(&table)?.create_index(&index, &cols)?;
            }
            Replay::DropIndex { table, index } => {
                self.get_mut(&table)?.drop_index(&index)?;
            }
            // Terminators are handled by the recovery loop; they never
            // reach the catalog.
            Replay::Commit | Replay::Abort => {}
        }
        Ok(())
    }
}

/// The error for a checksum-valid log record that cannot be replayed.
fn corrupt(what: String) -> DbError {
    DbError::Persist(format!("corrupt log record: {what}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColType, Column};
    use crate::value::Value;

    fn schema() -> Schema {
        Schema::new(vec![Column {
            name: "a".into(),
            ctype: ColType::Int,
        }])
        .unwrap()
    }

    #[test]
    fn create_get_drop() {
        let mut c = Catalog::new();
        c.create_table("T1", schema(), false).unwrap();
        assert!(c.contains("t1"), "names are case-insensitive");
        assert!(c.get("T1").is_ok());
        c.drop_table("t1").unwrap();
        assert!(matches!(c.get("T1"), Err(DbError::NoSuchTable(_))));
    }

    #[test]
    fn double_create_errors_unless_if_not_exists() {
        let mut c = Catalog::new();
        c.create_table("t", schema(), false).unwrap();
        assert!(matches!(
            c.create_table("t", schema(), false),
            Err(DbError::TableExists(_))
        ));
        assert!(c.create_table("t", schema(), true).is_ok());
    }

    #[test]
    fn table_names_sorted() {
        let mut c = Catalog::new();
        c.create_table("zeta", schema(), false).unwrap();
        c.create_table("alpha", schema(), false).unwrap();
        assert_eq!(c.table_names(), vec!["alpha", "zeta"]);
    }

    /// A table `t` holding the rows 1 and 2, with an index on `a`.
    fn two_rows() -> Catalog {
        let mut c = Catalog::new();
        c.create_table("t", schema(), false).unwrap();
        let t = c.get_mut("t").unwrap();
        t.create_index("ta", &["a"]).unwrap();
        t.insert(vec![Value::Int(1)]).unwrap();
        t.insert(vec![Value::Int(2)]).unwrap();
        c
    }

    // Checksum-valid but hostile log records, whose positions replay
    // used to index without a check.
    #[test]
    fn log_update_past_the_end_of_a_table_is_an_error() {
        let mut c = two_rows();
        let news = vec![(2, vec![Value::Int(9)])];
        let rec = Replay::Update {
            table: "t".into(),
            news,
        };
        assert!(matches!(c.apply_redo(rec), Err(DbError::Persist(_))));
        let rec = Replay::Update {
            table: "t".into(),
            news: vec![(0, vec![])],
        };
        assert!(matches!(c.apply_redo(rec), Err(DbError::Arity(_))));
        assert_eq!(c.get("t").unwrap().len(), 2);
    }

    #[test]
    fn log_delete_of_unsorted_positions_is_an_error() {
        for positions in [vec![1, 0], vec![0, 0], vec![2]] {
            let mut c = two_rows();
            let rec = Replay::Delete {
                table: "t".into(),
                positions,
            };
            assert!(matches!(c.apply_redo(rec), Err(DbError::Persist(_))));
            assert_eq!(c.get("t").unwrap().len(), 2);
        }
    }
}
