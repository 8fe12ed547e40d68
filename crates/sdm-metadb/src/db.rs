//! The embedded database connection.

use parking_lot::{Mutex, RwLock};

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
use crate::wal::{RecoveryInfo, Wal};

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

/// An embedded SQL database ("the MySQL connection" of the paper),
/// thread-safe: SDM ranks share one `Database` behind an `Arc`.
///
/// Everything executes a typed [`Stmt`]: the hot metadata path builds
/// its statements once and replays them, and SQL text is parsed into a
/// `Stmt` per call ([`Database::parse`]). [`Database::stats`] exposes
/// the parse count along with scan-strategy and row-volume counters.
///
/// Transactions (`BEGIN` / `COMMIT` / `ROLLBACK`) keep a row-level
/// **undo log** under a global table lock: one transaction may be open
/// at a time, and while it is open, **writes from other threads wait**
/// for it to close (reads proceed). `BEGIN` allocates an empty log —
/// nothing is cloned — and each mutation the owner executes appends the
/// undo images of exactly the rows it touched; `COMMIT` discards the
/// log, `ROLLBACK` replays it in reverse. A transaction touching k rows
/// of an n-row database therefore does O(k) bookkeeping, and a
/// `ROLLBACK` only ever discards the owning transaction's own work.
/// That matches how SDM uses the database — rank 0 brackets its
/// metadata updates — and the table-level locking of the MySQL 3.23
/// era.
///
/// The lock ladder, top to bottom (a thread only ever acquires
/// downward):
///
/// 1. `tx` — rank [`LOCK_RANK_TX`] — the transaction slot. Writers take
///    it first (waiting on `tx_freed` while a foreign transaction is
///    open) and hold it across their statement;
///    `BEGIN`/`COMMIT`/`ROLLBACK` take only it.
/// 2. `catalog` — rank [`LOCK_RANK_CATALOG`] — `read()` for SELECTs
///    (concurrent readers proceed in parallel; index probes take
///    `&Table`), `write()` for mutations and rollback replay.
/// 3. `wal_sync` — rank [`LOCK_RANK_WAL_SYNC`] — the WAL's storage
///    tail: a group-commit leader holds it across append+fsync while
///    followers queue behind it (durable databases only; taken after
///    the catalog lock is released, so an fsync never blocks readers).
/// 4. `wal_buf` — rank [`LOCK_RANK_WAL_BUF`] — the WAL's in-memory
///    record buffer, taken briefly to append encoded frames or to let
///    the leader drain them.
/// 5. `stats` — rank [`LOCK_RANK_LEAF`] — the leaf mutex, taken alone
///    and briefly; statement execution records into a local `DbStats`
///    and merges after releasing the catalog lock.
///
/// The ladder is machine-checked twice over:
///
/// * **statically** by `sdm-analyze` rule `ladder`, which scans every
///   non-test function in this crate for acquisition order, guard
///   scopes, and early drops (CI runs it in the lint job);
/// * **dynamically** by the `parking_lot` shim's rank checker: the
///   constructor below assigns each lock its rank, and under
///   `cfg(debug_assertions)` a thread-local rank stack panics on any
///   non-descending acquisition — every test that touches the database
///   is a ladder witness.
#[derive(Debug)]
pub struct Database {
    catalog: RwLock<Catalog>,
    tx: Mutex<Option<TxState>>,
    /// Signaled whenever the transaction slot frees (COMMIT/ROLLBACK);
    /// blocked writers and `begin_nested` park here instead of spinning.
    tx_freed: parking_lot::Condvar,
    stats: Mutex<DbStats>,
    /// The write-ahead log — `Some` for durable databases
    /// ([`Database::open`]), `None` for purely in-memory ones
    /// ([`Database::new`]).
    wal: Option<Wal>,
}

/// Runtime rank of the `tx` slot mutex (top of the ladder). Sourced
/// from the workspace-wide [`sdm_ranks`] registry so the shim's panic
/// message and `sdm-analyze` findings print the same names.
pub const LOCK_RANK_TX: u32 = sdm_ranks::TX;
/// Runtime rank of the `catalog` RwLock (middle of the ladder).
pub const LOCK_RANK_CATALOG: u32 = sdm_ranks::CATALOG;
/// Runtime rank of the WAL's storage-tail mutex (group-commit leader
/// election): below the catalog, above the record buffer.
pub const LOCK_RANK_WAL_SYNC: u32 = sdm_ranks::WAL_SYNC;
/// Runtime rank of the WAL's record-buffer mutex.
pub const LOCK_RANK_WAL_BUF: u32 = sdm_ranks::WAL_BUF;
/// Runtime rank of the `stats` leaf mutex (bottom of the ladder). A
/// leaf is taken alone, so nesting another leaf-ranked lock under it
/// trips the checker just like re-entering a lock.
pub const LOCK_RANK_LEAF: u32 = sdm_ranks::LEAF;

impl Default for Database {
    fn default() -> Self {
        Self {
            catalog: RwLock::new(Catalog::default()).with_rank(LOCK_RANK_CATALOG),
            tx: Mutex::new(None).with_rank(LOCK_RANK_TX),
            tx_freed: parking_lot::Condvar::new(),
            stats: Mutex::new(DbStats::default()).with_rank(LOCK_RANK_LEAF),
            wal: None,
        }
    }
}

/// An open transaction: its undo log plus the thread that owns it (the
/// owner's own writes pass the table lock and log undo; everyone
/// else's wait).
#[derive(Debug)]
struct TxState {
    undo: UndoLog,
    owner: std::thread::ThreadId,
    /// WAL transaction id (`None` on in-memory databases).
    txid: Option<u64>,
    /// Whether any redo record was appended under this transaction —
    /// read-only transactions skip the commit frame and its fsync.
    logged: bool,
}

impl TxState {
    fn open(wal: Option<&Wal>) -> Self {
        Self {
            undo: UndoLog::default(),
            owner: std::thread::current().id(),
            txid: wal.map(Wal::begin_tx),
            logged: false,
        }
    }
}

/// What [`Database::begin_nested`] acquired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxTicket {
    /// A fresh transaction was opened; the caller must `COMMIT` (or
    /// `ROLLBACK`) it.
    Owned,
    /// The calling thread already has a transaction open; the caller's
    /// statements join it and the outer owner decides its fate.
    Inherited,
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
            catalog: RwLock::new(catalog).with_rank(LOCK_RANK_CATALOG),
            tx: Mutex::new(None).with_rank(LOCK_RANK_TX),
            tx_freed: parking_lot::Condvar::new(),
            stats: Mutex::new(DbStats::default()).with_rank(LOCK_RANK_LEAF),
            wal: Some(wal),
        })
    }

    /// Whether this database has a write-ahead log.
    pub fn is_durable(&self) -> bool {
        self.wal.is_some()
    }

    /// What recovery found when this database opened (`None` for
    /// in-memory databases).
    pub fn recovery_info(&self) -> Option<RecoveryInfo> {
        self.wal.as_ref().map(Wal::recovery_info)
    }

    /// Total WAL bytes appended since open (bench bookkeeping; 0 for
    /// in-memory databases).
    pub fn wal_appended_bytes(&self) -> u64 {
        self.wal.as_ref().map_or(0, Wal::appended_bytes)
    }

    /// Checkpoint: quiesce transactions, write an atomic catalog
    /// snapshot covering every committed transaction, and truncate the
    /// log. Returns the last transaction id the snapshot covers.
    ///
    /// A crash at *any* point is safe: the snapshot installs by
    /// temp+fsync+rename, and sealed log segments are deleted only
    /// after the install succeeded — until then recovery uses the old
    /// snapshot plus the full log. Errors if called on an in-memory
    /// database or from inside the calling thread's own open
    /// transaction (it would deadlock waiting on itself).
    pub fn checkpoint(&self) -> DbResult<u64> {
        let Some(wal) = &self.wal else {
            return Err(DbError::Persist(
                "checkpoint requires a durable database (Database::open)".into(),
            ));
        };
        // Quiesce: hold the transaction slot so no new transaction or
        // mutation can start (mutations clear through this mutex), and
        // wait out any open transaction.
        let mut tx = self.tx.lock();
        while let Some(state) = &*tx {
            if state.owner == std::thread::current().id() {
                return Err(DbError::Tx(
                    "checkpoint inside the calling thread's open transaction".into(),
                ));
            }
            self.tx_freed.wait(&mut tx);
        }
        let last_tx = wal.last_committed();
        let catalog = self.catalog.read().clone();
        // Seal the log at the quiesce point: everything the snapshot
        // covers is in sealed segments, and post-checkpoint commits go
        // to a fresh one (one transaction never spans segments).
        wal.rotate()?;
        drop(tx);
        // Install outside the slot: a transaction committing during the
        // install lands in the fresh segment with a txid above
        // `last_tx`, so recovery replays it on top of the snapshot.
        let doc = crate::wal::encode_snapshot(last_tx, &catalog)?;
        wal.install_snapshot(&doc)?;
        self.stats.lock().checkpoints += 1;
        Ok(last_tx)
    }

    /// Parse SQL text into the typed [`Stmt`] that
    /// [`Database::exec_stmt`] runs, counting it in
    /// [`DbStats::parse_misses`].
    pub fn parse(&self, sql: &str) -> DbResult<Stmt> {
        let stmt = Stmt::parse(sql)?;
        self.stats.lock().parse_misses += 1;
        Ok(stmt)
    }

    /// Parse and execute one statement with positional `?` parameters.
    pub fn exec(&self, sql: &str, params: &[Value]) -> DbResult<ResultSet> {
        self.exec_stmt(&self.parse(sql)?, params)
    }

    /// Execute a typed [`Stmt`] with positional `?` parameters. This is
    /// the text-free execution path: no lexing, no SQL string
    /// ([`DbStats::parse_misses`] does not move). The executor plans
    /// index use per execution and evaluates the statement's
    /// expressions by walking its AST.
    pub fn exec_stmt(&self, stmt: &Stmt, params: &[Value]) -> DbResult<ResultSet> {
        self.run_statement(stmt.ast(), params)
    }

    fn run_statement(&self, stmt: &Statement, params: &[Value]) -> DbResult<ResultSet> {
        match stmt {
            Statement::Begin => {
                let mut tx = self.tx.lock();
                if tx.is_some() {
                    return Err(DbError::Tx("transaction already open".into()));
                }
                // O(1): an empty undo log, never a catalog clone.
                *tx = Some(TxState::open(self.wal.as_ref()));
                Ok(ResultSet::default())
            }
            Statement::Commit => {
                let mut tx = self.tx.lock();
                match &*tx {
                    None => {
                        return Err(DbError::Tx("COMMIT without an open transaction".into()));
                    }
                    Some(state) if state.owner != std::thread::current().id() => {
                        return Err(DbError::Tx(
                            "COMMIT of a transaction owned by another thread".into(),
                        ));
                    }
                    Some(_) => {}
                }
                // Append the COMMIT frame while the slot is still held
                // (no other transaction's frames can interleave), but
                // fsync only *after* releasing it — that window is what
                // lets a group-commit leader batch several committers
                // into one fsync. Read-only transactions skip both.
                let mut commit_lsn = None;
                if let (Some(wal), Some(state)) = (&self.wal, tx.as_ref()) {
                    if state.logged {
                        if let Some(txid) = state.txid {
                            let mut app = WalAppender::new(txid);
                            app.commit();
                            let lsn = wal.append_bytes(&app.into_buf(), 1);
                            wal.note_committed(txid);
                            commit_lsn = Some(lsn);
                        }
                    }
                }
                *tx = None; // the undo log is simply discarded
                self.tx_freed.notify_all();
                drop(tx);
                let mut local = DbStats {
                    transactions: 1,
                    ..DbStats::default()
                };
                if let (Some(wal), Some(lsn)) = (&self.wal, commit_lsn) {
                    local.wal_appends += 1;
                    // A sync failure fails the COMMIT: the transaction's
                    // effects stay in memory but were never made durable
                    // (and the WAL is now poisoned — see `wal` docs).
                    let (fsyncs, batched) = wal.sync_to(lsn)?;
                    local.wal_fsyncs += fsyncs;
                    local.group_commit_batched += batched;
                }
                self.stats.lock().merge(&local);
                Ok(ResultSet::default())
            }
            Statement::Rollback => {
                let mut tx = self.tx.lock();
                let state = match tx.take() {
                    None => {
                        return Err(DbError::Tx("ROLLBACK without an open transaction".into()));
                    }
                    Some(state) if state.owner != std::thread::current().id() => {
                        // Not ours: put it back untouched.
                        *tx = Some(state);
                        return Err(DbError::Tx(
                            "ROLLBACK of a transaction owned by another thread".into(),
                        ));
                    }
                    Some(state) => state,
                };
                // Append the ABORT frame (no fsync: recovery discards
                // unterminated transactions anyway, the frame just lets
                // it stop buffering them early).
                if let Some(wal) = &self.wal {
                    if state.logged {
                        if let Some(txid) = state.txid {
                            let mut app = WalAppender::new(txid);
                            app.abort();
                            wal.append_bytes(&app.into_buf(), 0);
                        }
                    }
                }
                // Replay the undo log in reverse: O(rows touched).
                let rows_undone = state.undo.rollback(&mut self.catalog.write());
                self.tx_freed.notify_all();
                drop(tx);
                self.stats.lock().tx_rows_undone += rows_undone;
                Ok(ResultSet::default())
            }
            stmt if Self::is_mutation(stmt) => {
                // Table-lock semantics: mutations from threads other
                // than an open transaction's owner wait for it to
                // close, so a ROLLBACK can never discard a foreign
                // committed write. The guard is held across execution
                // so a BEGIN cannot slip in mid-statement either — and
                // it is also where the owner's undo log lives.
                let mut clearance = self.write_clearance();
                let me = std::thread::current().id();
                let own_tx = matches!(&*clearance, Some(state) if state.owner == me);
                // Durable databases capture redo into a per-statement
                // appender: under an owned transaction it joins that
                // transaction's id, otherwise the statement autocommits
                // under a fresh one.
                let mut wal_app = self.wal.as_ref().map(|wal| {
                    let txid = clearance
                        .as_ref()
                        .filter(|_| own_tx)
                        .and_then(|state| state.txid);
                    WalAppender::new(txid.unwrap_or_else(|| wal.begin_tx()))
                });
                let undo = clearance
                    .as_mut()
                    .filter(|state| state.owner == me)
                    .map(|state| &mut state.undo);
                let mut catalog = self.catalog.write();
                let mut local = DbStats::default();
                let result = execute_mutation(&mut catalog, stmt, params, undo, wal_app.as_mut());
                drop(catalog);
                // Hand the captured frames to the shared log while the
                // clearance guard still excludes other writers, so
                // frames of different transactions never interleave.
                // This happens even when the statement *failed*: its
                // partial effects (a mid-batch INSERT error) are live in
                // memory and later records' positions build on them, so
                // recovery must replay them too.
                let mut sync_lsn = None;
                if let (Some(wal), Some(app)) = (&self.wal, wal_app) {
                    if app.records() > 0 {
                        local.wal_appends += app.records();
                        if own_tx {
                            // In-transaction: buffered only; durability
                            // comes with the COMMIT frame's fsync.
                            wal.append_bytes(&app.into_buf(), 0);
                            if let Some(state) = clearance.as_mut() {
                                state.logged = true;
                            }
                        } else {
                            let mut app = app;
                            let txid = app.txid();
                            app.commit();
                            local.wal_appends += 1;
                            let lsn = wal.append_bytes(&app.into_buf(), 1);
                            wal.note_committed(txid);
                            sync_lsn = Some(lsn);
                        }
                    }
                }
                drop(clearance);
                // Autocommit durability: fsync (or join a leader's
                // group commit) after the slot is released.
                let sync_result = match (&self.wal, sync_lsn) {
                    (Some(wal), Some(lsn)) => wal.sync_to(lsn).map(Some),
                    _ => Ok(None),
                };
                if let Ok(Some((fsyncs, batched))) = &sync_result {
                    local.wal_fsyncs += fsyncs;
                    local.group_commit_batched += batched;
                }
                self.stats.lock().merge(&local);
                let result = match sync_result {
                    // A durability failure trumps a successful statement
                    // — but never masks the statement's own error.
                    Err(e) => result.and(Err(e)),
                    Ok(_) => result,
                };
                Self::outcome_to_set(result)
            }
            stmt => {
                // SELECTs execute under the shared catalog lock:
                // concurrent readers proceed in parallel and never
                // contend with each other. Stats are recorded locally
                // and merged after the lock drops.
                let catalog = self.catalog.read();
                let mut local = DbStats::default();
                let result = execute_read(&catalog, stmt, params, &mut local);
                drop(catalog);
                self.stats.lock().merge(&local);
                Self::outcome_to_set(result)
            }
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

    /// Whether a statement mutates the catalog (subject to the table
    /// lock of an open transaction).
    fn is_mutation(stmt: &Statement) -> bool {
        !matches!(
            stmt,
            Statement::Select { .. } | Statement::Begin | Statement::Commit | Statement::Rollback
        )
    }

    /// Block until no *foreign* transaction is open, returning the tx
    /// slot guard (held while the caller executes its mutation). The
    /// owning thread of an open transaction passes straight through —
    /// its writes belong to the transaction.
    fn write_clearance(&self) -> parking_lot::MutexGuard<'_, Option<TxState>> {
        let mut tx = self.tx.lock();
        loop {
            match &*tx {
                Some(state) if state.owner != std::thread::current().id() => {
                    self.tx_freed.wait(&mut tx);
                }
                _ => return tx,
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
        self.catalog.read().contains(name)
    }

    /// Whether a transaction is currently open.
    pub fn in_transaction(&self) -> bool {
        self.tx.lock().is_some()
    }

    /// Open a transaction for a short read-modify-write sequence,
    /// cooperating with the single-transaction model:
    ///
    /// * no transaction open → opens one ([`TxTicket::Owned`]; the
    ///   caller must `COMMIT`/`ROLLBACK`);
    /// * the **calling thread** already owns the open transaction →
    ///   returns [`TxTicket::Inherited`] immediately (the caller's
    ///   statements join the outer transaction; never self-deadlocks);
    /// * another thread owns it → waits (yielding) until it closes.
    pub fn begin_nested(&self) -> TxTicket {
        let mut tx = self.tx.lock();
        loop {
            match &*tx {
                None => {
                    *tx = Some(TxState::open(self.wal.as_ref()));
                    return TxTicket::Owned;
                }
                Some(state) if state.owner == std::thread::current().id() => {
                    return TxTicket::Inherited;
                }
                Some(_) => self.tx_freed.wait(&mut tx),
            }
        }
    }

    /// Run `f` inside an owned transaction bracket, cooperating with
    /// the single-transaction model: a fresh transaction is opened and
    /// committed around `f` (rolled back if `f` errs); when the calling
    /// thread already owns the open transaction, `f` simply joins it
    /// and the outer owner decides its fate. This is the shared
    /// read-modify-write bracket (`allocate_runid`, attribute upserts);
    /// code that must distinguish the two cases on failure (partial
    /// batch requeue) drives [`Database::begin_nested`] directly.
    pub fn with_owned_tx<T>(&self, f: impl FnOnce() -> DbResult<T>) -> DbResult<T> {
        match self.begin_nested() {
            TxTicket::Inherited => f(),
            TxTicket::Owned => match f() {
                Ok(v) => {
                    self.exec_stmt(&Stmt::commit(), &[])?;
                    Ok(v)
                }
                Err(e) => {
                    let _ = self.exec_stmt(&Stmt::rollback(), &[]);
                    Err(e)
                }
            },
        }
    }

    /// Parse, scan-strategy and durability counters since the last
    /// [`Database::reset_stats`].
    pub fn stats(&self) -> DbStats {
        *self.stats.lock()
    }

    /// Zero the counters.
    pub fn reset_stats(&self) {
        *self.stats.lock() = DbStats::default();
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

    #[test]
    fn rollback_restores_data() {
        let db = Database::new();
        db.exec("CREATE TABLE t (a INT)", &[]).unwrap();
        db.exec("INSERT INTO t VALUES (1)", &[]).unwrap();
        db.exec("BEGIN", &[]).unwrap();
        assert!(db.in_transaction());
        db.exec("INSERT INTO t VALUES (2)", &[]).unwrap();
        db.exec("DELETE FROM t WHERE a = 1", &[]).unwrap();
        db.exec("ROLLBACK", &[]).unwrap();
        assert!(!db.in_transaction());
        let rs = db.exec("SELECT a FROM t", &[]).unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Int(1)]]);
    }

    #[test]
    fn commit_keeps_data() {
        let db = Database::new();
        db.exec("CREATE TABLE t (a INT)", &[]).unwrap();
        db.exec("START TRANSACTION", &[]).unwrap();
        db.exec("INSERT INTO t VALUES (7)", &[]).unwrap();
        db.exec("COMMIT", &[]).unwrap();
        let rs = db.exec("SELECT a FROM t", &[]).unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Int(7)]]);
    }

    #[test]
    fn rollback_restores_schema_changes() {
        let db = Database::new();
        db.exec("BEGIN", &[]).unwrap();
        db.exec("CREATE TABLE temp (x INT)", &[]).unwrap();
        db.exec("ROLLBACK", &[]).unwrap();
        assert!(!db.has_table("temp"));
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
        db.exec("BEGIN", &[]).unwrap();
        db.exec("INSERT INTO t VALUES (9001, 'tx')", &[]).unwrap();
        db.exec("INSERT INTO t VALUES (9002, 'tx')", &[]).unwrap();
        db.exec("UPDATE t SET b = 'y' WHERE a = 7", &[]).unwrap();
        db.exec("DELETE FROM t WHERE a = 8", &[]).unwrap();
        db.exec("ROLLBACK", &[]).unwrap();
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
        db.exec("BEGIN", &[]).unwrap();
        db.exec("INSERT INTO keep VALUES (2)", &[]).unwrap();
        db.exec("DROP INDEX ka ON keep", &[]).unwrap();
        db.exec("CREATE TABLE temp (x INT)", &[]).unwrap();
        db.exec("INSERT INTO temp VALUES (7)", &[]).unwrap();
        db.exec("DROP TABLE keep", &[]).unwrap();
        db.exec("ROLLBACK", &[]).unwrap();
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
    fn tx_misuse_errors() {
        let db = Database::new();
        assert!(matches!(db.exec("COMMIT", &[]), Err(DbError::Tx(_))));
        assert!(matches!(db.exec("ROLLBACK", &[]), Err(DbError::Tx(_))));
        db.exec("BEGIN", &[]).unwrap();
        assert!(matches!(db.exec("BEGIN", &[]), Err(DbError::Tx(_))));
        db.exec("COMMIT", &[]).unwrap();
    }

    #[test]
    fn begin_nested_owns_free_slot_and_inherits_own_tx() {
        let db = Database::new();
        db.exec("CREATE TABLE t (a INT)", &[]).unwrap();
        assert_eq!(db.begin_nested(), TxTicket::Owned);
        assert!(db.in_transaction());
        // Same thread again: join, don't deadlock, don't double-open.
        assert_eq!(db.begin_nested(), TxTicket::Inherited);
        db.exec("INSERT INTO t VALUES (1)", &[]).unwrap();
        db.exec("COMMIT", &[]).unwrap();
        assert_eq!(db.exec("SELECT a FROM t", &[]).unwrap().len(), 1);
    }

    #[test]
    fn foreign_writes_wait_for_open_transaction() {
        use std::sync::Arc;
        let db = Arc::new(Database::new());
        db.exec("CREATE TABLE t (a INT)", &[]).unwrap();
        db.exec("BEGIN", &[]).unwrap();
        db.exec("INSERT INTO t VALUES (1)", &[]).unwrap();
        // A writer on another thread must block until the transaction
        // closes — its row must NOT be erased by our rollback.
        let writer = {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                db.exec("INSERT INTO t VALUES (2)", &[]).unwrap();
            })
        };
        // Give the writer time to reach the table lock, then discard
        // only our own work.
        std::thread::sleep(std::time::Duration::from_millis(50));
        db.exec("ROLLBACK", &[]).unwrap();
        writer.join().unwrap();
        let rs = db.exec("SELECT a FROM t", &[]).unwrap();
        assert_eq!(
            rs.rows,
            vec![vec![Value::Int(2)]],
            "rollback must only discard the transaction's own writes"
        );
    }

    #[test]
    fn reads_proceed_during_foreign_transaction() {
        use std::sync::Arc;
        let db = Arc::new(Database::new());
        db.exec("CREATE TABLE t (a INT)", &[]).unwrap();
        db.exec("INSERT INTO t VALUES (1)", &[]).unwrap();
        db.exec("BEGIN", &[]).unwrap();
        let reader = {
            let db = Arc::clone(&db);
            std::thread::spawn(move || db.exec("SELECT a FROM t", &[]).unwrap().len())
        };
        assert_eq!(reader.join().unwrap(), 1, "reads are not table-locked");
        db.exec("COMMIT", &[]).unwrap();
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
        db.exec("BEGIN", &[]).unwrap();
        db.exec("INSERT INTO t VALUES (2)", &[]).unwrap();
        db.exec("ROLLBACK", &[]).unwrap();
        db.exec("BEGIN", &[]).unwrap();
        db.exec("INSERT INTO t VALUES (3)", &[]).unwrap();
        db.exec("COMMIT", &[]).unwrap();

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
        db.exec("BEGIN", &[]).unwrap();
        db.exec("SELECT * FROM t", &[]).unwrap();
        db.exec("COMMIT", &[]).unwrap();
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
    fn checkpoint_inside_own_transaction_errors() {
        let (storage, _h) = MemStorage::new();
        let db = Database::open_with_storage(Box::new(storage)).unwrap();
        db.exec("BEGIN", &[]).unwrap();
        assert!(matches!(db.checkpoint(), Err(DbError::Tx(_))));
        db.exec("COMMIT", &[]).unwrap();
        db.checkpoint().unwrap();
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
            db.exec("BEGIN", &[]).unwrap();
            for t in 0..seed {
                db.exec(insert, &row(1, t)).unwrap();
            }
            db.exec("COMMIT", &[]).unwrap();
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

    #[test]
    fn group_commit_batches_concurrent_committers() {
        use std::sync::Arc;
        // A sync that takes real time: while the leader sleeps inside
        // its fsync, the other committers append their COMMIT frames
        // and get covered by the next leader's single flush.
        #[derive(Debug)]
        struct SlowSync(MemStorage);
        impl crate::wal::storage::WalStorage for SlowSync {
            fn append(&mut self, b: &[u8]) -> DbResult<()> {
                self.0.append(b)
            }
            fn sync(&mut self) -> DbResult<()> {
                std::thread::sleep(std::time::Duration::from_millis(20));
                self.0.sync()
            }
            fn rotate(&mut self) -> DbResult<()> {
                self.0.rotate()
            }
            fn drop_sealed(&mut self) -> DbResult<()> {
                self.0.drop_sealed()
            }
            fn read_segments(&self) -> DbResult<Vec<Vec<u8>>> {
                self.0.read_segments()
            }
            fn read_snapshot(&self) -> DbResult<Option<Vec<u8>>> {
                self.0.read_snapshot()
            }
            fn install_snapshot(&mut self, b: &[u8]) -> DbResult<()> {
                self.0.install_snapshot(b)
            }
        }
        let (storage, h) = MemStorage::new();
        let db = Arc::new(Database::open_with_storage(Box::new(SlowSync(storage))).unwrap());
        db.exec("CREATE TABLE t (a INT)", &[]).unwrap();
        db.reset_stats();
        std::thread::scope(|s| {
            for i in 0..4 {
                let db = Arc::clone(&db);
                s.spawn(move || {
                    db.exec("INSERT INTO t VALUES (?)", &[Value::Int(i)])
                        .unwrap();
                });
            }
        });
        let stats = db.stats();
        assert!(
            stats.group_commit_batched >= 1,
            "4 concurrent committers against a 20ms fsync must batch \
             (fsyncs={}, batched={})",
            stats.wal_fsyncs,
            stats.group_commit_batched
        );
        assert_eq!(dump(&db, "t").len(), 4);

        // And the batched commits are all really durable.
        let (storage, _h) = MemStorage::from_persisted(h.persisted());
        let db2 = Database::open_with_storage(Box::new(storage)).unwrap();
        assert_eq!(dump(&db2, "t").len(), 4);
    }
}
