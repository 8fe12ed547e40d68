//! The embedded database connection.

use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::catalog::Catalog;
use crate::error::{DbError, DbResult};
use crate::exec::{execute_mutation, execute_read, DbStats, Outcome};
use crate::sql::ast::Statement;
use crate::stmt::Stmt;
use crate::table::Row;
use crate::undo::UndoLog;
use crate::value::Value;
use crate::wal::record::WalAppender;
use crate::wal::storage::{FileStorage, WalStorage};
use crate::wal::{encode_snapshot, RecoveryInfo, Wal};

/// Result set of a SELECT (empty for other statements).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResultSet {
    /// Projected column names.
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Row>,
    /// Rows affected (for DML).
    pub affected: usize,
}

impl ResultSet {
    /// First row, if any.
    pub fn first(&self) -> Option<&Row> {
        self.rows.first()
    }

    /// Whether the result has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Scalar convenience: the single value of a single-row,
    /// single-column result.
    pub fn scalar(&self) -> Option<&Value> {
        match (self.rows.len(), self.columns.len()) {
            (1, 1) => Some(&self.rows[0][0]),
            _ => self.rows.first().and_then(|r| r.first()),
        }
    }
}

/// An embedded SQL database ("the MySQL connection" of the paper).
///
/// One lock guards everything: the catalog, the write-ahead log and the
/// counters form one engine behind one `std::sync::Mutex`. Rank 0 alone
/// calls the database (`Sdm::metadata_call`), as process 0 alone wrote
/// the paper's execution table, so a finer lock would have nothing to
/// overlap; calls from several threads are safe and run one at a time,
/// like the table locks of the MySQL 3.23 era.
///
/// Everything executes a typed [`Stmt`]: the hot metadata path builds
/// its statements once and replays them, and SQL text is parsed into a
/// `Stmt` per call ([`Database::parse`]). [`Database::stats`] exposes
/// the parse count along with scan-strategy and row-volume counters.
///
/// A statement run on the database itself autocommits. Several
/// statements commit together through [`Database::transaction`], which
/// keeps a row-level **undo log**: each mutation appends the pre-images
/// of exactly the rows it touched, a commit discards the log, a rollback
/// replays it in reverse. A transaction touching k rows of an n-row
/// database therefore does O(k) bookkeeping.
///
/// A panic while the lock is held poisons it: the engine may have
/// stopped halfway through a statement or a transaction, so every later
/// statement, transaction and checkpoint returns [`DbError::Poisoned`].
#[derive(Debug, Default)]
pub struct Database {
    engine: Mutex<Engine>,
}

/// Everything the database's one lock guards.
#[derive(Debug, Default)]
struct Engine {
    catalog: Catalog,
    /// The write-ahead log: `Some` for durable databases
    /// ([`Database::open`]), `None` for purely in-memory ones
    /// ([`Database::new`]).
    wal: Option<Wal>,
    stats: DbStats,
}

/// The statements of one open transaction: the handle a
/// [`Database::transaction`] closure runs them through. It holds the
/// database's lock, so nothing else runs until the closure returns.
#[derive(Debug)]
pub struct Transaction<'a> {
    engine: &'a mut Engine,
    /// Pre-images of every row the transaction touched.
    undo: UndoLog,
    /// The transaction's redo frames (durable databases), written to the
    /// log at commit.
    redo: Option<WalAppender>,
}

impl Transaction<'_> {
    /// Execute a typed [`Stmt`] inside the transaction.
    pub fn exec_stmt(&mut self, stmt: &Stmt, params: &[Value]) -> DbResult<ResultSet> {
        outcome_to_set(
            self.engine
                .run(stmt, params, &mut self.undo, self.redo.as_mut()),
        )
    }

    /// Parse and execute one statement inside the transaction.
    pub fn exec(&mut self, sql: &str, params: &[Value]) -> DbResult<ResultSet> {
        let stmt = self.engine.parse(sql)?;
        self.exec_stmt(&stmt, params)
    }
}

impl Engine {
    fn parse(&mut self, sql: &str) -> DbResult<Stmt> {
        let stmt = Stmt::parse(sql)?;
        self.stats.parse_misses += 1;
        Ok(stmt)
    }

    /// Execute one statement: a SELECT reads the catalog, a mutation
    /// logs its pre-images into `undo` and, on a durable database, its
    /// redo frames into `redo` before it applies.
    fn run(
        &mut self,
        stmt: &Stmt,
        params: &[Value],
        undo: &mut UndoLog,
        redo: Option<&mut WalAppender>,
    ) -> DbResult<Outcome> {
        stmt.check_params(params)?;
        let stmt = stmt.ast();
        match stmt {
            Statement::Select { .. } => execute_read(&self.catalog, stmt, params, &mut self.stats),
            _ => execute_mutation(&mut self.catalog, stmt, params, undo, redo),
        }
    }

    /// Execute one statement as a transaction of its own. Its undo log
    /// is thrown away: nothing can roll it back.
    fn autocommit(&mut self, stmt: &Stmt, params: &[Value]) -> DbResult<ResultSet> {
        let mut redo = if stmt.is_mutation() {
            (self.wal.as_mut()).map(|wal| WalAppender::new(wal.begin_tx()))
        } else {
            None
        };
        let result = self.run(stmt, params, &mut UndoLog::default(), redo.as_mut());
        // The redo commits even when the statement *failed*: its partial
        // effects (a mid-batch INSERT error) are live in memory and later
        // records' positions build on them, so recovery must replay them.
        let committed = self.commit(redo);
        // A durability failure fails a successful statement, but never
        // masks the statement's own error.
        outcome_to_set(result.and_then(|outcome| committed.map(|()| outcome)))
    }

    /// Make a transaction's redo durable: its frames plus a COMMIT frame
    /// in one log append and one sync. A transaction that logged nothing
    /// (read-only, or an in-memory database) costs neither.
    fn commit(&mut self, redo: Option<WalAppender>) -> DbResult<()> {
        let (Some(wal), Some(mut redo)) = (self.wal.as_mut(), redo) else {
            return Ok(());
        };
        if redo.records() == 0 {
            return Ok(());
        }
        redo.commit();
        self.stats.wal_appends += redo.records();
        let txid = redo.txid();
        // A sync failure fails the commit: the transaction's effects
        // stay in memory but were never made durable (and the WAL is now
        // poisoned — see `wal` docs).
        wal.commit(txid, &redo.into_buf())?;
        self.stats.wal_fsyncs += 1;
        Ok(())
    }
}

fn outcome_to_set(result: DbResult<Outcome>) -> DbResult<ResultSet> {
    match result? {
        Outcome::Rows { columns, rows } => Ok(ResultSet {
            columns,
            rows,
            affected: 0,
        }),
        Outcome::Affected(n) => Ok(ResultSet {
            columns: vec![],
            rows: vec![],
            affected: n,
        }),
    }
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open a **durable** database backed by a write-ahead log under
    /// `dir` (created if absent), recovering whatever a previous
    /// process left: the newest valid checkpoint snapshot plus every
    /// committed transaction in the log, with any torn tail after the
    /// last valid record discarded. See [`Database::recovery_info`].
    pub fn open(dir: impl AsRef<std::path::Path>) -> DbResult<Self> {
        Self::open_with_storage(Box::new(FileStorage::open(dir)?))
    }

    /// Open a durable database over any [`WalStorage`] backend — the
    /// fault-injectable in-memory backend
    /// ([`crate::wal::storage::MemStorage`]) is how the crash-recovery
    /// tests run the full commit path without a filesystem.
    pub fn open_with_storage(storage: Box<dyn WalStorage>) -> DbResult<Self> {
        let (wal, catalog) = Wal::open(storage)?;
        Ok(Self {
            engine: Mutex::new(Engine {
                catalog,
                wal: Some(wal),
                stats: DbStats::default(),
            }),
        })
    }

    /// The engine, or [`DbError::Poisoned`] after a panic under the lock.
    fn engine(&self) -> DbResult<MutexGuard<'_, Engine>> {
        self.engine.lock().map_err(|_| DbError::Poisoned)
    }

    /// The engine for the accessors that cannot fail. They read through
    /// a poisoned lock: counters and the recovery report stay meaningful
    /// after a panic.
    fn inspect(&self) -> MutexGuard<'_, Engine> {
        self.engine.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Whether this database has a write-ahead log.
    pub fn is_durable(&self) -> bool {
        self.inspect().wal.is_some()
    }

    /// What recovery found when this database opened (`None` for
    /// in-memory databases).
    pub fn recovery_info(&self) -> Option<RecoveryInfo> {
        self.inspect().wal.as_ref().map(Wal::recovery_info)
    }

    /// Total WAL bytes appended since open (bench bookkeeping; 0 for
    /// in-memory databases).
    pub fn wal_appended_bytes(&self) -> u64 {
        self.inspect().wal.as_ref().map_or(0, Wal::appended_bytes)
    }

    /// Checkpoint: write an atomic catalog snapshot covering every
    /// committed transaction — the catalog as one committed transaction
    /// of log frames — and truncate the log. Returns the last
    /// transaction id the snapshot covers.
    ///
    /// A crash at *any* point is safe: the snapshot installs by
    /// temp+fsync+rename, and sealed log segments are deleted only
    /// after the install succeeded — until then recovery uses the old
    /// snapshot plus the full log. Errors on an in-memory database.
    pub fn checkpoint(&self) -> DbResult<u64> {
        let mut engine = self.engine()?;
        let Engine {
            catalog,
            wal,
            stats,
        } = &mut *engine;
        let Some(wal) = wal else {
            return Err(DbError::Persist(
                "checkpoint requires a durable database (Database::open)".into(),
            ));
        };
        let last_tx = wal.last_committed();
        // Seal the log: everything the snapshot covers is in sealed
        // segments, and later commits go to a fresh one.
        wal.rotate()?;
        wal.install_snapshot(&encode_snapshot(last_tx, catalog))?;
        stats.checkpoints += 1;
        Ok(last_tx)
    }

    /// Parse SQL text into the typed [`Stmt`] that
    /// [`Database::exec_stmt`] runs, counting it in
    /// [`DbStats::parse_misses`].
    pub fn parse(&self, sql: &str) -> DbResult<Stmt> {
        self.engine()?.parse(sql)
    }

    /// Parse and execute one statement with positional `?` parameters.
    pub fn exec(&self, sql: &str, params: &[Value]) -> DbResult<ResultSet> {
        let mut engine = self.engine()?;
        let stmt = engine.parse(sql)?;
        engine.autocommit(&stmt, params)
    }

    /// Execute a typed [`Stmt`] with positional `?` parameters. This is
    /// the text-free execution path: no lexing, no SQL string
    /// ([`DbStats::parse_misses`] does not move). The executor plans
    /// index use per execution and evaluates the statement's
    /// expressions by walking its AST.
    pub fn exec_stmt(&self, stmt: &Stmt, params: &[Value]) -> DbResult<ResultSet> {
        self.engine()?.autocommit(stmt, params)
    }

    /// Run `f` as one transaction: its statements, issued through the
    /// [`Transaction`] handle, commit together when `f` returns `Ok`
    /// (one log append and one sync on a durable database) and are
    /// rolled back when it returns `Err`, which is passed on. If the
    /// commit's sync fails, the transaction's effects stay in memory,
    /// undurable, and its error is returned.
    ///
    /// The database's lock is held until `f` returns, so `f` must not
    /// call this `Database` (directly or through a store over it): that
    /// call would wait for the lock `f` holds, forever.
    pub fn transaction<T>(
        &self,
        f: impl FnOnce(&mut Transaction<'_>) -> DbResult<T>,
    ) -> DbResult<T> {
        let mut engine = self.engine()?;
        let redo = engine
            .wal
            .as_mut()
            .map(|wal| WalAppender::new(wal.begin_tx()));
        let mut tx = Transaction {
            engine: &mut engine,
            undo: UndoLog::default(),
            redo,
        };
        let result = f(&mut tx);
        let Transaction { engine, undo, redo } = tx;
        match result {
            Ok(value) => {
                engine.commit(redo)?;
                engine.stats.transactions += 1;
                Ok(value)
            }
            Err(e) => {
                // Replay the undo log in reverse: O(rows touched). The
                // redo frames are dropped unwritten.
                engine.stats.tx_rows_undone += undo.rollback(&mut engine.catalog);
                Err(e)
            }
        }
    }

    /// Execute several `;`-free statements in order (schema setup).
    pub fn exec_batch(&self, stmts: &[&str]) -> DbResult<()> {
        for s in stmts {
            self.exec(s, &[])?;
        }
        Ok(())
    }

    /// Whether a table exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.inspect().catalog.contains(name)
    }

    /// Parse, scan-strategy and durability counters since the last
    /// [`Database::reset_stats`].
    pub fn stats(&self) -> DbStats {
        self.inspect().stats
    }

    /// Zero the counters.
    pub fn reset_stats(&self) {
        self.inspect().stats = DbStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_session() {
        let db = Database::new();
        db.exec("CREATE TABLE kv (k TEXT, v INT)", &[]).unwrap();
        db.exec(
            "INSERT INTO kv VALUES (?, ?)",
            &[Value::from("x"), Value::Int(1)],
        )
        .unwrap();
        db.exec(
            "INSERT INTO kv VALUES (?, ?)",
            &[Value::from("y"), Value::Int(2)],
        )
        .unwrap();
        let rs = db
            .exec("SELECT v FROM kv WHERE k = ?", &[Value::from("y")])
            .unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Int(2)));
        let rs = db.exec("UPDATE kv SET v = v * 10", &[]).unwrap();
        assert_eq!(rs.affected, 2);
        let rs = db.exec("SELECT v FROM kv ORDER BY v", &[]).unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Int(10)], vec![Value::Int(20)]]);
    }

    #[test]
    fn non_ascii_text_literal_is_stored_as_written() {
        let db = Database::new();
        db.exec("CREATE TABLE t (s TEXT, n INT)", &[]).unwrap();
        db.exec("INSERT INTO t VALUES ('é日', 1)", &[]).unwrap();
        let rs = db
            .exec("SELECT n FROM t WHERE s = ?", &[Value::Text("é日".into())])
            .unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Int(1)));
        let rs = db.exec("SELECT s FROM t WHERE s = 'é日'", &[]).unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Text("é日".into())));
    }

    #[test]
    fn concurrent_access_is_safe() {
        use std::sync::Arc;
        let db = Arc::new(Database::new());
        db.exec("CREATE TABLE c (n INT)", &[]).unwrap();
        std::thread::scope(|s| {
            for i in 0..8 {
                let db = Arc::clone(&db);
                s.spawn(move || {
                    for j in 0..50 {
                        db.exec("INSERT INTO c VALUES (?)", &[Value::Int(i * 100 + j)])
                            .unwrap();
                    }
                });
            }
        });
        let rs = db.exec("SELECT * FROM c", &[]).unwrap();
        assert_eq!(rs.len(), 400);
    }

    #[test]
    fn exec_batch_runs_all() {
        let db = Database::new();
        db.exec_batch(&[
            "CREATE TABLE a (x INT)",
            "CREATE TABLE b (y INT)",
            "INSERT INTO a VALUES (1)",
        ])
        .unwrap();
        assert!(db.has_table("a") && db.has_table("b"));
    }

    /// A statement with more `?`s than parameters is an arity error
    /// before it runs, whether or not a row would reach the `?`: on a
    /// row (1, 2) with `k` indexed, `k = 99` probes nothing.
    #[test]
    fn missing_parameters_fail_before_any_row_is_read() {
        let db = Database::new();
        db.exec_batch(&[
            "CREATE TABLE t (k INT, v INT)",
            "CREATE INDEX tk ON t (k)",
            "INSERT INTO t VALUES (1, 2)",
        ])
        .unwrap();
        for sql in [
            "SELECT * FROM t WHERE k = 99 AND v = ?",
            "UPDATE t SET v = 3 WHERE k = 99 AND v = ?",
            "DELETE FROM t WHERE k = 99 AND v = ?",
            "UPDATE t SET v = ? WHERE k = 99",
        ] {
            for k in ["99", "1"] {
                let sql = sql.replace("99", k);
                let got = db.exec(&sql, &[]);
                assert!(matches!(got, Err(DbError::Arity(_))), "{sql}: {got:?}");
                let tx = db.transaction(|tx| tx.exec(&sql, &[]));
                assert!(
                    matches!(tx, Err(DbError::Arity(_))),
                    "{sql} in a transaction"
                );
            }
        }
        let rs = db.exec("SELECT * FROM t", &[]).unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Int(1), Value::Int(2)]]);
        let rs = db
            .exec("SELECT * FROM t WHERE k = 99 AND v = ?", &[Value::Int(2)])
            .unwrap();
        assert!(rs.rows.is_empty());
    }

    #[test]
    fn errors_propagate() {
        let db = Database::new();
        assert!(db.exec("SELECT * FROM missing", &[]).is_err());
        assert!(db.exec("NOT SQL AT ALL", &[]).is_err());
    }

    #[test]
    fn result_set_helpers() {
        let db = Database::new();
        db.exec("CREATE TABLE t (a INT)", &[]).unwrap();
        let rs = db.exec("SELECT * FROM t", &[]).unwrap();
        assert!(rs.is_empty());
        assert!(rs.first().is_none());
        assert!(rs.scalar().is_none());
    }

    /// Run `sql` in one transaction, then roll it back.
    fn rolled_back(db: &Database, sql: &[&str]) {
        let rolled = db.transaction(|tx| -> DbResult<()> {
            for s in sql {
                tx.exec(s, &[])?;
            }
            Err(DbError::Tx("roll back".into()))
        });
        assert_eq!(rolled, Err(DbError::Tx("roll back".into())));
    }

    #[test]
    fn rollback_restores_data() {
        let db = Database::new();
        db.exec("CREATE TABLE t (a INT)", &[]).unwrap();
        db.exec("INSERT INTO t VALUES (1)", &[]).unwrap();
        rolled_back(
            &db,
            &["INSERT INTO t VALUES (2)", "DELETE FROM t WHERE a = 1"],
        );
        let rs = db.exec("SELECT a FROM t", &[]).unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Int(1)]]);
    }

    #[test]
    fn commit_keeps_data() {
        let db = Database::new();
        db.exec("CREATE TABLE t (a INT)", &[]).unwrap();
        let affected = db
            .transaction(|tx| Ok(tx.exec("INSERT INTO t VALUES (7)", &[])?.affected))
            .unwrap();
        assert_eq!(affected, 1);
        let rs = db.exec("SELECT a FROM t", &[]).unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Int(7)]]);
        assert_eq!(db.stats().transactions, 1);
    }

    #[test]
    fn rollback_restores_schema_changes() {
        let db = Database::new();
        rolled_back(&db, &["CREATE TABLE temp (x INT)"]);
        assert!(!db.has_table("temp"));
    }

    #[test]
    fn a_panic_inside_a_transaction_poisons_the_database() {
        let db = Database::new();
        db.exec("CREATE TABLE t (a INT)", &[]).unwrap();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            db.transaction(|tx| -> DbResult<()> {
                tx.exec("INSERT INTO t VALUES (1)", &[])?;
                panic!("halfway through a transaction");
            })
        }));
        assert!(panicked.is_err());
        // The insert was neither committed nor rolled back: the engine's
        // state is unknown, so it refuses further work.
        assert_eq!(db.exec("SELECT a FROM t", &[]), Err(DbError::Poisoned));
        assert_eq!(db.transaction(|_| Ok(())), Err(DbError::Poisoned));
        assert_eq!(db.checkpoint(), Err(DbError::Poisoned));
    }

    #[test]
    fn rollback_cost_tracks_rows_touched_not_table_size() {
        let db = Database::new();
        db.exec("CREATE TABLE t (a INT, b TEXT)", &[]).unwrap();
        for i in 0..5_000 {
            db.exec(
                "INSERT INTO t VALUES (?, ?)",
                &[Value::Int(i), Value::from("x")],
            )
            .unwrap();
        }
        db.reset_stats();
        rolled_back(
            &db,
            &[
                "INSERT INTO t VALUES (9001, 'tx')",
                "INSERT INTO t VALUES (9002, 'tx')",
                "UPDATE t SET b = 'y' WHERE a = 7",
                "DELETE FROM t WHERE a = 8",
            ],
        );
        // 2 inserts + 1 update + 1 delete = 4 row images, although the
        // table holds 5000 rows.
        assert_eq!(db.stats().tx_rows_undone, 4);
        let rs = db.exec("SELECT COUNT(*) FROM t", &[]).unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Int(5_000)));
        let rs = db.exec("SELECT b FROM t WHERE a = 7", &[]).unwrap();
        assert_eq!(rs.scalar().and_then(Value::as_str), Some("x"));
        assert_eq!(
            db.exec("SELECT COUNT(*) FROM t WHERE a = 8", &[])
                .unwrap()
                .scalar(),
            Some(&Value::Int(1))
        );
    }

    #[test]
    fn rollback_restores_ddl_and_dml_interleaved() {
        let db = Database::new();
        db.exec("CREATE TABLE keep (a INT)", &[]).unwrap();
        db.exec("INSERT INTO keep VALUES (1)", &[]).unwrap();
        db.exec("CREATE INDEX ka ON keep (a)", &[]).unwrap();
        rolled_back(
            &db,
            &[
                "INSERT INTO keep VALUES (2)",
                "DROP INDEX ka ON keep",
                "CREATE TABLE temp (x INT)",
                "INSERT INTO temp VALUES (7)",
                "DROP TABLE keep",
            ],
        );
        assert!(!db.has_table("temp"));
        assert!(db.has_table("keep"));
        let rs = db.exec("SELECT a FROM keep", &[]).unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Int(1)]]);
        // The index survived (restored by the DROP TABLE undo, and the
        // DROP INDEX undo re-created it) and still answers probes.
        db.reset_stats();
        db.exec("SELECT a FROM keep WHERE a = 1", &[]).unwrap();
        assert_eq!(db.stats().index_scans, 1);
    }

    #[test]
    fn stats_observe_index_usage() {
        let db = Database::new();
        db.exec("CREATE TABLE t (k INT)", &[]).unwrap();
        for i in 0..20 {
            db.exec("INSERT INTO t VALUES (?)", &[Value::Int(i)])
                .unwrap();
        }
        db.exec("CREATE INDEX tk ON t (k)", &[]).unwrap();
        db.reset_stats();
        db.exec("SELECT * FROM t WHERE k = 5", &[]).unwrap();
        // No index answers `k + 0`, so this one scans.
        db.exec("SELECT * FROM t WHERE k + 0 > 5", &[]).unwrap();
        let s = db.stats();
        assert_eq!((s.index_scans, s.full_scans), (1, 1));
        // The index probe touched one row; the fallback scanned all 20.
        assert_eq!(s.rows_scanned, 21);
        assert_eq!(s.rows_returned, 15);
    }

    #[test]
    fn text_parses_once_per_call_and_matches_its_typed_twin() {
        let db = Database::new();
        db.exec("CREATE TABLE t (k INT, v TEXT)", &[]).unwrap();
        for i in 0..10 {
            db.exec(
                "INSERT INTO t VALUES (?, ?)",
                &[Value::Int(i % 3), Value::from("x")],
            )
            .unwrap();
        }
        db.reset_stats();
        let sql = "SELECT COUNT(*) FROM t WHERE k = ?";
        let typed = db.parse(sql).unwrap();
        for probe in 0..4 {
            let a = db.exec(sql, &[Value::Int(probe)]).unwrap();
            let b = db.exec_stmt(&typed, &[Value::Int(probe)]).unwrap();
            assert_eq!(a, b);
        }
        // One parse for `typed`, one per text call; the typed runs
        // parse nothing.
        assert_eq!(db.stats().parse_misses, 5);
        assert!(matches!(db.parse("SELEKT nope"), Err(DbError::Parse(_))));
        assert_eq!(db.stats().parse_misses, 5);
    }

    #[test]
    fn deeply_nested_sql_is_a_parse_error_not_a_stack_overflow() {
        use crate::sql::parser::MAX_EXPR_DEPTH;
        let db = Database::new();
        db.exec("CREATE TABLE t (a INT)", &[]).unwrap();
        db.exec("INSERT INTO t VALUES (1)", &[]).unwrap();
        let n = 100_000;
        let hostile = [
            format!("{}1{}", "(".repeat(n), ")".repeat(n)),
            format!("{}1", "NOT ".repeat(n)),
            format!("{}1", "- ".repeat(n)),
            vec!["a"; n].join(" + "),
            vec!["a = 1"; n].join(" OR "),
        ];
        for where_ in &hostile {
            let sql = format!("SELECT a FROM t WHERE {where_}");
            assert!(
                matches!(db.exec(&sql, &[]), Err(DbError::Parse(_))),
                "{}…",
                &where_[..16]
            );
        }
        // Just inside the cap, the same shapes parse and evaluate.
        let d = MAX_EXPR_DEPTH - 1;
        let fine = [
            format!("{}a = 1{}", "(".repeat(d), ")".repeat(d)),
            format!("{}a = 1", "NOT NOT ".repeat(d / 2 - 1)),
            format!("{}a = 1", "- - ".repeat(d / 2 - 1)),
            format!("{} = 1", vec!["a"; d / 2].join(" * ")),
            vec!["a = 1"; d / 2].join(" OR "),
        ];
        for where_ in &fine {
            let rs = db.exec(&format!("SELECT a FROM t WHERE {where_}"), &[]);
            assert_eq!(rs.unwrap().rows, vec![vec![Value::Int(1)]], "{where_}");
        }
    }

    #[test]
    fn unknown_column_over_an_empty_table_is_not_an_error() {
        // Column names resolve per evaluated row, so no row means no
        // error — the same answer with or without an index to probe.
        let db = Database::new();
        db.exec("CREATE TABLE t (a INT)", &[]).unwrap();
        for sql in [
            "SELECT a FROM t WHERE nope = 1",
            "SELECT COUNT(*) FROM t WHERE nope = 1",
            "UPDATE t SET a = nope WHERE nope = 1",
            "DELETE FROM t WHERE nope = 1",
        ] {
            assert!(db.exec(sql, &[]).is_ok(), "{sql}");
        }
        db.exec("INSERT INTO t VALUES (1)", &[]).unwrap();
        for sql in [
            "SELECT a FROM t WHERE nope = 1",
            "SELECT COUNT(*) FROM t WHERE nope = 1",
            "UPDATE t SET a = nope",
            "DELETE FROM t WHERE nope = 1",
        ] {
            assert!(
                matches!(db.exec(sql, &[]), Err(DbError::NoSuchColumn(_))),
                "{sql}"
            );
        }
    }

    // ---- durability ----

    use crate::wal::storage::{MemStorage, WalFaults};

    fn dump(db: &Database, table: &str) -> Vec<Row> {
        db.exec(&format!("SELECT * FROM {table}"), &[])
            .unwrap()
            .rows
    }

    #[test]
    fn durable_database_survives_reopen() {
        let dir = tempfile::tempdir().unwrap();
        let db = Database::open(dir.path()).unwrap();
        assert!(db.is_durable());
        db.exec("CREATE TABLE t (a INT, b TEXT)", &[]).unwrap();
        db.exec("INSERT INTO t VALUES (1, 'x'), (2, 'y')", &[])
            .unwrap();
        db.exec("UPDATE t SET b = 'z' WHERE a = 2", &[]).unwrap();
        db.exec("DELETE FROM t WHERE a = 1", &[]).unwrap();
        let before = dump(&db, "t");
        let stats = db.stats();
        assert!(stats.wal_appends >= 4, "every mutation logged redo");
        assert!(stats.wal_fsyncs >= 1, "autocommits fsync");
        drop(db);

        let db = Database::open(dir.path()).unwrap();
        assert_eq!(dump(&db, "t"), before);
        let info = db.recovery_info().unwrap();
        assert!(info.replayed_txs >= 4);
        assert_eq!(info.torn_bytes, 0);
    }

    #[test]
    fn durable_rollback_never_resurrects() {
        let (storage, h) = MemStorage::new();
        let db = Database::open_with_storage(Box::new(storage)).unwrap();
        db.exec("CREATE TABLE t (a INT)", &[]).unwrap();
        db.exec("INSERT INTO t VALUES (1)", &[]).unwrap();
        rolled_back(&db, &["INSERT INTO t VALUES (2)"]);
        db.transaction(|tx| tx.exec("INSERT INTO t VALUES (3)", &[]))
            .unwrap();

        let (storage, _h) = MemStorage::from_persisted(h.persisted());
        let db2 = Database::open_with_storage(Box::new(storage)).unwrap();
        assert_eq!(
            dump(&db2, "t"),
            vec![vec![Value::Int(1)], vec![Value::Int(3)]]
        );
    }

    #[test]
    fn read_only_transactions_cost_no_fsync() {
        let (storage, _h) = MemStorage::new();
        let db = Database::open_with_storage(Box::new(storage)).unwrap();
        db.exec("CREATE TABLE t (a INT)", &[]).unwrap();
        db.reset_stats();
        db.transaction(|tx| tx.exec("SELECT * FROM t", &[]))
            .unwrap();
        let s = db.stats();
        assert_eq!(s.transactions, 1);
        assert_eq!((s.wal_appends, s.wal_fsyncs), (0, 0));
    }

    #[test]
    fn checkpoint_truncates_log_and_reopen_replays_the_rest() {
        let dir = tempfile::tempdir().unwrap();
        let db = Database::open(dir.path()).unwrap();
        db.exec("CREATE TABLE t (a INT)", &[]).unwrap();
        db.exec("INSERT INTO t VALUES (1)", &[]).unwrap();
        let covered = db.checkpoint().unwrap();
        assert!(covered >= 2);
        assert_eq!(db.stats().checkpoints, 1);
        db.exec("INSERT INTO t VALUES (2)", &[]).unwrap();
        drop(db);

        let db = Database::open(dir.path()).unwrap();
        let info = db.recovery_info().unwrap();
        assert_eq!(info.snapshot_last_tx, covered);
        assert_eq!(info.replayed_txs, 1, "only the post-checkpoint insert");
        assert_eq!(
            dump(&db, "t"),
            vec![vec![Value::Int(1)], vec![Value::Int(2)]]
        );
    }

    #[test]
    fn checkpoint_errors_on_in_memory_database() {
        let db = Database::new();
        assert!(!db.is_durable());
        assert!(db.recovery_info().is_none());
        assert!(db.checkpoint().is_err());
    }

    #[test]
    fn checkpoint_snapshot_keeps_nulls_and_rebuilds_indexes() {
        // The snapshot holds index *definitions*, not maps: the reopened
        // database must rebuild them before its first probe. A NULL
        // must come back as NULL.
        let dir = tempfile::tempdir().unwrap();
        let db = Database::open(dir.path()).unwrap();
        db.exec("CREATE TABLE t (k INT, b TEXT)", &[]).unwrap();
        for i in 0..20 {
            db.exec("INSERT INTO t (k) VALUES (?)", &[Value::Int(i % 4)])
                .unwrap();
        }
        db.exec("CREATE INDEX tk ON t (k)", &[]).unwrap();
        db.checkpoint().unwrap();
        drop(db);

        let db = Database::open(dir.path()).unwrap();
        assert_eq!(db.recovery_info().unwrap().replayed_txs, 0);
        db.reset_stats();
        let rs = db.exec("SELECT b FROM t WHERE k = 2", &[]).unwrap();
        assert_eq!(rs.len(), 5);
        assert!(rs.rows.iter().all(|r| r[0].is_null()));
        let s = db.stats();
        assert_eq!((s.index_scans, s.full_scans, s.rows_scanned), (1, 0, 5));
    }

    #[test]
    fn checkpoint_keeps_every_double_bit_for_bit() {
        // Compared by `to_bits`: `Value`'s `PartialEq` says NaN != NaN
        // and -0.0 == 0.0.
        let cells = [
            Value::Double(f64::INFINITY),
            Value::Double(f64::NEG_INFINITY),
            Value::Double(f64::NAN),
            Value::Double(-f64::NAN),
            Value::Double(-0.0),
            Value::Null,
            Value::Double(0.1),
        ];
        let bits = |v: &Value| v.as_f64().map(f64::to_bits);
        let dir = tempfile::tempdir().unwrap();
        let db = Database::open(dir.path()).unwrap();
        db.exec("CREATE TABLE t (x DOUBLE)", &[]).unwrap();
        for x in &cells {
            db.exec("INSERT INTO t VALUES (?)", std::slice::from_ref(x))
                .unwrap();
        }
        db.checkpoint().unwrap();
        drop(db);

        let db = Database::open(dir.path()).unwrap();
        assert_eq!(db.recovery_info().unwrap().replayed_txs, 0);
        let got: Vec<_> = dump(&db, "t").iter().map(|r| bits(&r[0])).collect();
        assert_eq!(got, cells.iter().map(bits).collect::<Vec<_>>());
    }

    #[test]
    fn autocommit_costs_one_fsync_and_wal_bytes_independent_of_table_size() {
        // 64 autocommits of an execution-shaped row, after seeding
        // `seed` rows: (fsyncs, WAL bytes) they added.
        fn autocommits(seed: i64) -> (u64, u64) {
            let (storage, _h) = MemStorage::new();
            let db = Database::open_with_storage(Box::new(storage)).unwrap();
            db.exec_batch(&[
                "CREATE TABLE ex (runid INT, dataset TEXT, timestep INT, off INT, file TEXT)",
                "CREATE INDEX ex_run ON ex (runid)",
            ])
            .unwrap();
            let insert = "INSERT INTO ex VALUES (?, 'p', ?, ?, 'f.dat')";
            let row = |runid: i64, t: i64| [runid, t, t * 512].map(Value::Int);
            db.transaction(|tx| {
                for t in 0..seed {
                    tx.exec(insert, &row(1, t))?;
                }
                Ok(())
            })
            .unwrap();
            let (fsyncs, bytes) = (db.stats().wal_fsyncs, db.wal_appended_bytes());
            for t in 0..64 {
                db.exec(insert, &row(2, t)).unwrap();
            }
            let fsyncs = db.stats().wal_fsyncs - fsyncs;
            (fsyncs, db.wal_appended_bytes() - bytes)
        }
        let (small_fsyncs, small_bytes) = autocommits(10);
        let (large_fsyncs, large_bytes) = autocommits(5_000);
        assert_eq!((small_fsyncs, large_fsyncs), (64, 64));
        assert!(small_bytes > 0);
        assert_eq!(
            small_bytes, large_bytes,
            "WAL bytes per commit grew with the table"
        );
    }

    #[test]
    fn failed_sync_fails_the_commit_and_poisons_later_ones() {
        let (storage, h) = MemStorage::new();
        let db = Database::open_with_storage(Box::new(storage)).unwrap();
        db.exec("CREATE TABLE t (a INT)", &[]).unwrap();
        // Everything so far is durable; from here every fsync fails.
        let synced = db.stats().wal_fsyncs;
        h.set_faults(WalFaults::none().fail_sync_after(synced));
        assert!(db.exec("INSERT INTO t VALUES (1)", &[]).is_err());
        // The row is live in memory (documented) but commits stay
        // refused — durability can no longer be promised.
        assert_eq!(dump(&db, "t").len(), 1);
        assert!(db.exec("INSERT INTO t VALUES (2)", &[]).is_err());
    }
}
