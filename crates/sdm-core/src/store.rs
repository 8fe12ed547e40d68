//! The metadata access layer: every metadata read and write in SDM goes
//! through the [`MetadataStore`] trait.
//!
//! The paper routes all application metadata — run registration, access
//! patterns, per-timestep file offsets, import descriptions, index
//! history — through a MySQL server, making the metadata path the
//! system's control plane. This module is the seam that path plugs into:
//!
//! * [`SqlStore`] executes **typed statements**
//!   ([`sdm_metadb::stmt::Stmt`]) against [`sdm_metadb::Database`]:
//!   every hot operation compiles once into an executable plan over the
//!   six [`crate::schema`] relations of the paper's Figure 4 (DDL and
//!   secondary indexes generated from their descriptors), so the warmed
//!   metadata path formats, hashes, and parses **zero SQL text**.
//! * [`CachedStore`] layers per-timestep batching on any inner store:
//!   repeated `execution_table` inserts land in one transaction per
//!   timestep.
//!
//! Rank 0 alone calls the store (`Sdm::metadata_call`) and broadcasts
//! what it learnt, so there is nothing for other ranks to cache.
//!
//! [`in_memory`], [`open_durable`] and [`logged_in_memory`] build the
//! default stack (a [`CachedStore`] over a [`SqlStore`]); callers that
//! only need a store never name the database engine. Every store reports
//! its durability counters as [`StoreStats`].

use std::path::Path;
use std::sync::Arc;

use parking_lot::Mutex;
use sdm_metadb::stmt::{param, Delete, Insert, Query, Relation, Stmt, TypedColumn};
use sdm_metadb::{Database, DbError, DbResult, MemStorage, ResultSet, Value};

use crate::schema::{
    AccessPatternRow, ExecutionCol, ExecutionRow, ImportRow, IndexCol, IndexHistoryCol,
    IndexHistoryRow, IndexRow, RunCol, RunRow, FIGURE4_TABLES,
};

/// One `run_table` row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunRecord {
    /// Run id (allocated by [`MetadataStore::allocate_runid`]).
    pub runid: i64,
    /// Application name.
    pub application: String,
    /// Spatial dimension.
    pub dimension: i64,
    /// Problem size (nodes/elements; application-defined).
    pub problem_size: i64,
    /// Declared timestep count (0 when open-ended).
    pub num_timesteps: i64,
    /// Run date `(year, month, day)`.
    pub date: (i64, i64, i64),
    /// Run time `(hour, minute)`.
    pub time: (i64, i64),
}

/// Per-rank block of a history file (one `index_history_table` row).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistoryBlock {
    /// Rank the block belongs to.
    pub rank: i64,
    /// Partitioned edge count.
    pub edge_count: i64,
    /// Owned node count.
    pub node_count: i64,
    /// Ghost node count.
    pub ghost_count: i64,
    /// Byte offset of the block in the history file.
    pub file_offset: i64,
    /// Byte length of the block.
    pub byte_len: i64,
}

/// A shared, thread-safe metadata store handle.
pub type SharedStore = Arc<dyn MetadataStore>;

/// The counts any durable metadata store keeps: transactions committed
/// and what making them durable cost in log records, syncs and bytes.
/// The simulated cost model charges none of them; they are host-side
/// bookkeeping. An in-memory store logs nothing, so only `transactions`
/// moves there.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Committed transactions (one per batched timestep, one per run-id
    /// reservation).
    pub transactions: u64,
    /// Redo records appended to the log.
    pub log_appends: u64,
    /// Log syncs issued.
    pub log_syncs: u64,
    /// Bytes appended to the log since the store opened. Unlike the
    /// other counts, [`MetadataStore::reset_stats`] leaves this one: it
    /// measures the log itself, not a window of traffic.
    pub log_bytes: u64,
    /// Always 0: the database serialises commits, so none is made durable
    /// by another's sync. The field stays because the end-to-end
    /// benchmark reports it.
    pub group_commit_batched: u64,
}

/// The default stack over a fresh in-memory database: a [`CachedStore`]
/// over a [`SqlStore`]. Its tables are created by the first
/// [`MetadataStore::ensure_schema`], which `Sdm::initialize` calls.
pub fn in_memory() -> SharedStore {
    CachedStore::shared(&Arc::new(Database::new()))
}

/// The default stack over a **durable** database at `dir`: the database
/// recovers its state from the newest snapshot plus log replay, and
/// every later committed transaction survives a crash (see
/// `sdm_metadb::Database::open`). Buffered writes become durable when
/// their batch transaction commits; [`MetadataStore::flush`] and
/// [`MetadataStore::checkpoint`] force that on demand. The schema is
/// ensured as part of opening, so the handle is ready for traffic.
pub fn open_durable(dir: impl AsRef<Path>) -> DbResult<SharedStore> {
    cached_with_schema(Database::open(dir)?)
}

/// The durable stack of [`open_durable`] with its log kept in memory:
/// every commit is logged and synced before it returns, so
/// [`MetadataStore::stats`] counts the log's records, syncs and bytes,
/// but no file is written. The schema is ensured as part of opening.
pub fn logged_in_memory() -> DbResult<SharedStore> {
    let (log, _) = MemStorage::new();
    cached_with_schema(Database::open_with_storage(Box::new(log))?)
}

fn cached_with_schema(db: Database) -> DbResult<SharedStore> {
    let sql = SqlStore::new(Arc::new(db));
    sql.ensure_schema()?;
    Ok(Arc::new(CachedStore::new(Arc::new(sql))))
}

/// Typed access to SDM's metadata tables.
///
/// All methods take `&self` and must be safe to call from any thread;
/// implementations serialize internally. `Sdm` calls every method from
/// rank 0 only, mirroring the paper's one database connection.
pub trait MetadataStore: Send + Sync {
    /// Create the six tables (and any backend index structures) if
    /// absent. Idempotent.
    fn ensure_schema(&self) -> DbResult<()>;

    /// Allocate a fresh run id and reserve it atomically: two
    /// concurrent initializers can never mint the same id. The
    /// reservation writes an *anonymous* minimal `run_table` row
    /// (`application` is recorded only when
    /// [`MetadataStore::record_run`] completes it), so an abandoned
    /// initialize never shadows a finished run in
    /// [`MetadataStore::latest_runid_for_app`]. `application` is
    /// advisory for backends (sharding keys, audit logs).
    fn allocate_runid(&self, application: &str) -> DbResult<i64>;

    /// Most recent runid recorded for an application, if any. Used by
    /// post-processing layers (visualization, containers) to re-attach
    /// to a finished run's metadata.
    fn latest_runid_for_app(&self, application: &str) -> DbResult<Option<i64>>;

    /// Whether a `run_table` row exists for `runid`. `Sdm::attach`
    /// checks this on rank 0 so attaching to a never-recorded run fails
    /// loudly instead of silently resolving no data.
    fn run_exists(&self, runid: i64) -> DbResult<bool>;

    /// Record (or complete a reserved) run row.
    fn record_run(&self, rec: &RunRecord) -> DbResult<()>;

    /// Record a dataset's attributes (the `SDM_set_attributes` step).
    fn record_access_pattern(
        &self,
        runid: i64,
        dataset: &str,
        data_type: &str,
        storage_order: &str,
        access_pattern: &str,
        global_size: i64,
    ) -> DbResult<()>;

    /// Record where a (dataset, timestep) landed (the `SDM_write` step:
    /// "the file offset for each data set is stored in the execution
    /// table by process 0").
    fn record_execution(
        &self,
        runid: i64,
        dataset: &str,
        timestep: i64,
        file_offset: i64,
        file_name: &str,
    ) -> DbResult<()>;

    /// Look up where a (dataset, timestep) was written.
    fn lookup_execution(
        &self,
        runid: i64,
        dataset: &str,
        timestep: i64,
    ) -> DbResult<Option<(i64, String)>>;

    /// The full write history of an application: every `(runid,
    /// timestep, file_offset, file_name)` recorded for any of its runs,
    /// run-then-timestep ordered — the paper's cross-table reporting
    /// query (`run_table ⋈ execution_table ON runid`). Both tables
    /// carry a runid-led index, so the executor serves this as a merge
    /// join over the two index streams: no full scan
    /// ([`sdm_metadb::DbStats::join_merge_joins`] ticks, `full_scans`
    /// does not).
    fn execution_history(&self, application: &str) -> DbResult<Vec<(i64, i64, i64, String)>> {
        let stmt =
            sdm_metadb::stmt_once!(Query::<RunRow>::filter(RunCol::Application.eq(param(0)))
                .join_on::<ExecutionRow>(RunCol::Runid, ExecutionCol::Runid)
                .select_right(&[
                    ExecutionCol::Runid,
                    ExecutionCol::Timestep,
                    ExecutionCol::FileOffset,
                    ExecutionCol::FileName,
                ])
                .order_by_right(ExecutionCol::Runid)
                .order_by_right(ExecutionCol::Timestep)
                .compile());
        let rs = self.run(stmt, &[Value::from(application)])?;
        Ok(rs
            .rows
            .into_iter()
            .map(|r| {
                (
                    r[0].as_i64().unwrap_or(0),
                    r[1].as_i64().unwrap_or(0),
                    r[2].as_i64().unwrap_or(0),
                    r[3].as_str().unwrap_or_default().to_string(),
                )
            })
            .collect())
    }

    /// Record an imported array's metadata (`SDM_make_importlist`).
    fn record_import(
        &self,
        runid: i64,
        imported_name: &str,
        file_name: &str,
        data_type: &str,
        storage_order: &str,
        file_content: &str,
    ) -> DbResult<()>;

    /// Register a history file (`SDM_index_registry`).
    fn record_index_registry(
        &self,
        problem_size: i64,
        num_procs: i64,
        dimension: i64,
        file_name: &str,
    ) -> DbResult<()>;

    /// Look up a history file for (problem_size, num_procs) — the check
    /// at the top of `SDM_import`/`SDM_partition_index`.
    fn lookup_index_registry(&self, problem_size: i64, num_procs: i64) -> DbResult<Option<String>>;

    /// Record one rank's history block metadata.
    fn record_history_block(
        &self,
        problem_size: i64,
        num_procs: i64,
        block: &HistoryBlock,
    ) -> DbResult<()>;

    /// Fetch one rank's history block metadata.
    fn lookup_history_block(
        &self,
        problem_size: i64,
        num_procs: i64,
        rank: i64,
    ) -> DbResult<Option<HistoryBlock>>;

    /// Fetch the block metadata of every rank of a registration, in one
    /// request — what a replay asks, once, on rank 0. Ranks without a row
    /// are simply absent. The default asks rank by rank; stores that can
    /// do better answer from one probe.
    fn lookup_history_blocks(
        &self,
        problem_size: i64,
        num_procs: i64,
    ) -> DbResult<Vec<HistoryBlock>> {
        let mut blocks = Vec::new();
        for rank in 0..num_procs {
            blocks.extend(self.lookup_history_block(problem_size, num_procs, rank)?);
        }
        Ok(blocks)
    }

    /// Remove a registered history (e.g. after detecting corruption).
    fn delete_index_registry(&self, problem_size: i64, num_procs: i64) -> DbResult<()>;

    /// Run a typed statement through the store (a [`CachedStore`] lands
    /// its batch first when the statement reaches the buffered
    /// relation). Nothing on SDM's path calls it: it stays, with `exec`
    /// and `database`, because the end-to-end benchmark's delegating
    /// store forwards all three.
    fn run(&self, stmt: &Stmt, params: &[Value]) -> DbResult<ResultSet>;

    /// Run arbitrary SQL text through the store: a veneer that parses
    /// the text into a typed [`Stmt`] per call ([`Database::parse`], so
    /// the text traffic shows up in `DbStats::parse_misses`) and hands
    /// it to [`MetadataStore::run`].
    #[deprecated(note = "build a typed `sdm_metadb::stmt::Stmt` and call `run`; \
                SQL text is re-parsed on every `exec` call")]
    #[expect(
        clippy::disallowed_methods,
        reason = "the deprecated text veneer exists to exercise SQL text above the engine"
    )]
    fn exec(&self, sql: &str, params: &[Value]) -> DbResult<ResultSet> {
        self.run(&self.database().parse(sql)?, params)
    }

    /// Push any buffered writes down to the backing database. A no-op
    /// for unbuffered stores.
    fn flush(&self) -> DbResult<()>;

    /// Flush buffered writes, then checkpoint the backing database's
    /// write-ahead log: snapshot the catalog atomically and truncate the
    /// log (see `sdm_metadb::Database::checkpoint`). Returns the last
    /// transaction id the snapshot covers. Errors on a non-durable
    /// (in-memory) database.
    fn checkpoint(&self) -> DbResult<u64> {
        self.flush()?;
        self.database().checkpoint()
    }

    /// The store's durability counters ([`StoreStats`]). Wrappers that
    /// delegate [`MetadataStore::database`] report their inner store's
    /// numbers without implementing this.
    fn stats(&self) -> StoreStats {
        let db = self.database();
        let s = db.stats();
        StoreStats {
            transactions: s.transactions,
            log_appends: s.wal_appends,
            log_syncs: s.wal_fsyncs,
            log_bytes: db.wal_appended_bytes(),
            group_commit_batched: s.group_commit_batched,
        }
    }

    /// Zero the counters [`MetadataStore::stats`] reports (all but
    /// `log_bytes`).
    fn reset_stats(&self) {
        self.database().reset_stats();
    }

    /// The backing embedded database (persistence snapshots, stats).
    fn database(&self) -> &Arc<Database>;
}

// ---------------------------------------------------------------------
// SqlStore
// ---------------------------------------------------------------------

/// The hot statements of the metadata path, compiled once per store and
/// held in [`SqlStore`] as typed plans: after the first call, executing
/// one is a pure AST replay — no SQL text exists to format, hash, or
/// parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Hot {
    AllocMax,
    LatestForApp,
    RunExists,
    UpdateRun,
    InsertRun,
    InsertAccessPattern,
    InsertExecution,
    LookupExecution,
    InsertImport,
    InsertRegistry,
    LookupRegistry,
    InsertBlock,
    LookupBlock,
    LookupBlocks,
    DeleteRegistry,
    DeleteBlocks,
}

/// The columns a [`HistoryBlock`] is read back from, in field order.
const BLOCK_COLUMNS: [IndexHistoryCol; 6] = [
    IndexHistoryCol::Rank,
    IndexHistoryCol::EdgeCount,
    IndexHistoryCol::NodeCount,
    IndexHistoryCol::GhostCount,
    IndexHistoryCol::FileOffset,
    IndexHistoryCol::ByteLen,
];

fn block_from_row(r: &[Value]) -> HistoryBlock {
    HistoryBlock {
        rank: r[0].as_i64().unwrap_or(0),
        edge_count: r[1].as_i64().unwrap_or(0),
        node_count: r[2].as_i64().unwrap_or(0),
        ghost_count: r[3].as_i64().unwrap_or(0),
        file_offset: r[4].as_i64().unwrap_or(0),
        byte_len: r[5].as_i64().unwrap_or(0),
    }
}

impl Hot {
    const COUNT: usize = 16;

    /// Build the typed statement for this operation.
    fn compile(self) -> Stmt {
        match self {
            Hot::AllocMax => Query::<RunRow>::all().max(RunCol::Runid).compile(),
            Hot::LatestForApp => Query::<RunRow>::filter(RunCol::Application.eq(param(0)))
                .max(RunCol::Runid)
                .compile(),
            Hot::RunExists => Query::<RunRow>::filter(RunCol::Runid.eq(param(0)))
                .count()
                .compile(),
            Hot::UpdateRun => sdm_metadb::stmt::Update::<RunRow>::new()
                .set(RunCol::Application, param(0))
                .set(RunCol::Dimension, param(1))
                .set(RunCol::ProblemSize, param(2))
                .set(RunCol::NumTimesteps, param(3))
                .set(RunCol::Year, param(4))
                .set(RunCol::Month, param(5))
                .set(RunCol::Day, param(6))
                .set(RunCol::Hour, param(7))
                .set(RunCol::Min, param(8))
                .filter(RunCol::Runid.eq(param(9)))
                .compile(),
            Hot::InsertRun => Insert::<RunRow>::prepared(),
            Hot::InsertAccessPattern => Insert::<AccessPatternRow>::prepared(),
            Hot::InsertExecution => Insert::<ExecutionRow>::prepared(),
            Hot::LookupExecution => Query::<ExecutionRow>::filter(
                ExecutionCol::Runid
                    .eq(param(0))
                    .and(ExecutionCol::Dataset.eq(param(1)))
                    .and(ExecutionCol::Timestep.eq(param(2))),
            )
            .select(&[ExecutionCol::FileOffset, ExecutionCol::FileName])
            .compile(),
            Hot::InsertImport => Insert::<ImportRow>::prepared(),
            Hot::InsertRegistry => Insert::<IndexRow>::prepared(),
            Hot::LookupRegistry => Query::<IndexRow>::filter(
                IndexCol::ProblemSize
                    .eq(param(0))
                    .and(IndexCol::NumProcs.eq(param(1))),
            )
            .select(&[IndexCol::RegisteredFileName])
            .compile(),
            Hot::InsertBlock => Insert::<IndexHistoryRow>::prepared(),
            Hot::LookupBlock => Query::<IndexHistoryRow>::filter(
                IndexHistoryCol::ProblemSize
                    .eq(param(0))
                    .and(IndexHistoryCol::NumProcs.eq(param(1)))
                    .and(IndexHistoryCol::Rank.eq(param(2))),
            )
            .select(&BLOCK_COLUMNS)
            .compile(),
            // The whole key of the (problem_size, num_procs) index: one
            // probe returns every rank's row.
            Hot::LookupBlocks => Query::<IndexHistoryRow>::filter(
                IndexHistoryCol::ProblemSize
                    .eq(param(0))
                    .and(IndexHistoryCol::NumProcs.eq(param(1))),
            )
            .select(&BLOCK_COLUMNS)
            .compile(),
            Hot::DeleteRegistry => Delete::<IndexRow>::filter(
                IndexCol::ProblemSize
                    .eq(param(0))
                    .and(IndexCol::NumProcs.eq(param(1))),
            )
            .compile(),
            Hot::DeleteBlocks => Delete::<IndexHistoryRow>::filter(
                IndexHistoryCol::ProblemSize
                    .eq(param(0))
                    .and(IndexHistoryCol::NumProcs.eq(param(1))),
            )
            .compile(),
        }
    }
}

/// Direct store over the embedded database: every method executes one
/// (or a few) typed statements, compiled lazily once and replayed for
/// the lifetime of the store.
pub struct SqlStore {
    db: Arc<Database>,
    plans: [std::sync::OnceLock<Stmt>; Hot::COUNT],
}

impl SqlStore {
    /// Wrap a database handle.
    pub fn new(db: Arc<Database>) -> Self {
        SqlStore {
            db,
            plans: std::array::from_fn(|_| std::sync::OnceLock::new()),
        }
    }

    /// A hot statement's once-compiled plan.
    fn plan(&self, which: Hot) -> &Stmt {
        self.plans[which as usize].get_or_init(|| which.compile())
    }

    /// Execute a hot statement through its once-compiled plan.
    fn run_hot(&self, which: Hot, params: &[Value]) -> DbResult<ResultSet> {
        self.db.exec_stmt(self.plan(which), params)
    }
}

impl MetadataStore for SqlStore {
    fn ensure_schema(&self) -> DbResult<()> {
        // Every table and index comes from its descriptor: `IF NOT
        // EXISTS` tables, and indexes already present are skipped.
        for desc in FIGURE4_TABLES {
            self.db.exec_stmt(&desc.create_table(), &[])?;
            for ix in desc.create_indexes() {
                match self.db.exec_stmt(&ix, &[]) {
                    Ok(_) | Err(DbError::IndexExists(_)) => {}
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(())
    }

    fn allocate_runid(&self, application: &str) -> DbResult<i64> {
        // One transaction holds the database's lock across the
        // read-modify-write, so interleaved initializers serialize
        // instead of both computing max+1 from the same state. It logs
        // exactly the single reservation row. The reservation row is
        // what makes the new id visible to the next allocator — but it
        // is *anonymous* (NULL application) until `record_run` completes
        // it, so a crashed or failed initialize can never hijack
        // `latest_runid_for_app` re-attachment.
        let _ = application;
        self.db.transaction(|tx| {
            let rs = tx.exec_stmt(self.plan(Hot::AllocMax), &[])?;
            let next = rs.scalar().and_then(Value::as_i64).unwrap_or(0) + 1;
            let mut reservation = vec![Value::Int(next), Value::Null];
            reservation.resize(RunRow::TABLE.arity(), Value::Int(0));
            tx.exec_stmt(self.plan(Hot::InsertRun), &reservation)?;
            Ok(next)
        })
    }

    fn latest_runid_for_app(&self, application: &str) -> DbResult<Option<i64>> {
        let rs = self.run_hot(Hot::LatestForApp, &[Value::from(application)])?;
        Ok(rs.scalar().and_then(Value::as_i64))
    }

    fn run_exists(&self, runid: i64) -> DbResult<bool> {
        let rs = self.run_hot(Hot::RunExists, &[Value::Int(runid)])?;
        Ok(rs.scalar().and_then(Value::as_i64).unwrap_or(0) > 0)
    }

    fn record_run(&self, rec: &RunRecord) -> DbResult<()> {
        // Complete the row reserved by `allocate_runid`; fall back to a
        // plain insert for runids minted elsewhere (imports, tests).
        let rs = self.run_hot(
            Hot::UpdateRun,
            &[
                Value::from(rec.application.as_str()),
                Value::Int(rec.dimension),
                Value::Int(rec.problem_size),
                Value::Int(rec.num_timesteps),
                Value::Int(rec.date.0),
                Value::Int(rec.date.1),
                Value::Int(rec.date.2),
                Value::Int(rec.time.0),
                Value::Int(rec.time.1),
                Value::Int(rec.runid),
            ],
        )?;
        if rs.affected == 0 {
            self.run_hot(
                Hot::InsertRun,
                &[
                    Value::Int(rec.runid),
                    Value::from(rec.application.as_str()),
                    Value::Int(rec.dimension),
                    Value::Int(rec.problem_size),
                    Value::Int(rec.num_timesteps),
                    Value::Int(rec.date.0),
                    Value::Int(rec.date.1),
                    Value::Int(rec.date.2),
                    Value::Int(rec.time.0),
                    Value::Int(rec.time.1),
                ],
            )?;
        }
        Ok(())
    }

    fn record_access_pattern(
        &self,
        runid: i64,
        dataset: &str,
        data_type: &str,
        storage_order: &str,
        access_pattern: &str,
        global_size: i64,
    ) -> DbResult<()> {
        self.run_hot(
            Hot::InsertAccessPattern,
            &[
                Value::Int(runid),
                Value::from(dataset),
                Value::from(access_pattern), // basic_pattern mirrors the access pattern here
                Value::from(data_type),
                Value::from(storage_order),
                Value::from(access_pattern),
                Value::Int(global_size),
            ],
        )?;
        Ok(())
    }

    fn record_execution(
        &self,
        runid: i64,
        dataset: &str,
        timestep: i64,
        file_offset: i64,
        file_name: &str,
    ) -> DbResult<()> {
        self.run_hot(
            Hot::InsertExecution,
            &[
                Value::Int(runid),
                Value::from(dataset),
                Value::Int(timestep),
                Value::Int(file_offset),
                Value::from(file_name),
            ],
        )?;
        Ok(())
    }

    fn lookup_execution(
        &self,
        runid: i64,
        dataset: &str,
        timestep: i64,
    ) -> DbResult<Option<(i64, String)>> {
        let rs = self.run_hot(
            Hot::LookupExecution,
            &[
                Value::Int(runid),
                Value::from(dataset),
                Value::Int(timestep),
            ],
        )?;
        Ok(rs.first().map(|r| {
            (
                r[0].as_i64().unwrap_or(0),
                r[1].as_str().unwrap_or_default().to_string(),
            )
        }))
    }

    fn record_import(
        &self,
        runid: i64,
        imported_name: &str,
        file_name: &str,
        data_type: &str,
        storage_order: &str,
        file_content: &str,
    ) -> DbResult<()> {
        self.run_hot(
            Hot::InsertImport,
            &[
                Value::Int(runid),
                Value::from(imported_name),
                Value::from(file_name),
                Value::from(data_type),
                Value::from(storage_order),
                Value::from("DISTRIBUTED"),
                Value::from(file_content),
            ],
        )?;
        Ok(())
    }

    fn record_index_registry(
        &self,
        problem_size: i64,
        num_procs: i64,
        dimension: i64,
        file_name: &str,
    ) -> DbResult<()> {
        self.run_hot(
            Hot::InsertRegistry,
            &[
                Value::Int(problem_size),
                Value::Int(num_procs),
                Value::Int(dimension),
                Value::from(file_name),
            ],
        )?;
        Ok(())
    }

    fn lookup_index_registry(&self, problem_size: i64, num_procs: i64) -> DbResult<Option<String>> {
        let rs = self.run_hot(
            Hot::LookupRegistry,
            &[Value::Int(problem_size), Value::Int(num_procs)],
        )?;
        Ok(rs.first().and_then(|r| r[0].as_str().map(str::to_string)))
    }

    fn record_history_block(
        &self,
        problem_size: i64,
        num_procs: i64,
        b: &HistoryBlock,
    ) -> DbResult<()> {
        self.run_hot(
            Hot::InsertBlock,
            &[
                Value::Int(problem_size),
                Value::Int(num_procs),
                Value::Int(b.rank),
                Value::Int(b.edge_count),
                Value::Int(b.node_count),
                Value::Int(b.ghost_count),
                Value::Int(b.file_offset),
                Value::Int(b.byte_len),
            ],
        )?;
        Ok(())
    }

    fn lookup_history_block(
        &self,
        problem_size: i64,
        num_procs: i64,
        rank: i64,
    ) -> DbResult<Option<HistoryBlock>> {
        let rs = self.run_hot(
            Hot::LookupBlock,
            &[
                Value::Int(problem_size),
                Value::Int(num_procs),
                Value::Int(rank),
            ],
        )?;
        Ok(rs.first().map(|r| block_from_row(r)))
    }

    fn lookup_history_blocks(
        &self,
        problem_size: i64,
        num_procs: i64,
    ) -> DbResult<Vec<HistoryBlock>> {
        let rs = self.run_hot(
            Hot::LookupBlocks,
            &[Value::Int(problem_size), Value::Int(num_procs)],
        )?;
        Ok(rs.rows.iter().map(|r| block_from_row(r)).collect())
    }

    fn delete_index_registry(&self, problem_size: i64, num_procs: i64) -> DbResult<()> {
        self.run_hot(
            Hot::DeleteRegistry,
            &[Value::Int(problem_size), Value::Int(num_procs)],
        )?;
        self.run_hot(
            Hot::DeleteBlocks,
            &[Value::Int(problem_size), Value::Int(num_procs)],
        )?;
        Ok(())
    }

    fn run(&self, stmt: &Stmt, params: &[Value]) -> DbResult<ResultSet> {
        self.db.exec_stmt(stmt, params)
    }

    fn flush(&self) -> DbResult<()> {
        Ok(())
    }

    fn database(&self) -> &Arc<Database> {
        &self.db
    }
}

// ---------------------------------------------------------------------
// CachedStore
// ---------------------------------------------------------------------

/// Buffered per-timestep execution inserts.
struct PendingExec {
    runid: i64,
    dataset: String,
    timestep: i64,
    file_offset: i64,
    file_name: String,
}

#[derive(Default)]
struct CacheState {
    /// Execution rows recorded but not yet in the database; all share
    /// `pending_key`'s (runid, timestep).
    pending: Vec<PendingExec>,
    pending_key: Option<(i64, i64)>,
}

/// Batching layer over an inner [`MetadataStore`].
///
/// All ranks of a run hold one `CachedStore`, and rank 0 alone calls it
/// (`Sdm::metadata_call`). Buffered `execution_table` inserts are
/// flushed in one database transaction whenever the (runid, timestep)
/// key advances, on [`MetadataStore::flush`], and on drop —
/// turning N-datasets-per-timestep metadata traffic into one round trip
/// per timestep. Reads go to the inner store; one that can see the
/// buffered relation lands the batch first.
pub struct CachedStore {
    inner: SharedStore,
    state: Mutex<CacheState>,
    /// The `execution_table` insert a flushed batch runs per row.
    insert: Stmt,
}

impl CachedStore {
    /// Layer the batching over `inner`.
    pub fn new(inner: SharedStore) -> Self {
        CachedStore {
            inner,
            state: Mutex::new(CacheState::default()),
            insert: Insert::<ExecutionRow>::prepared(),
        }
    }

    /// The default stack over an existing database handle, for callers
    /// that hold two stores over one database (a later attach).
    pub fn shared(db: &Arc<Database>) -> SharedStore {
        Arc::new(CachedStore::new(Arc::new(SqlStore::new(Arc::clone(db)))))
    }

    /// Detach the pending batch so it is written without holding the
    /// cache mutex.
    fn take_pending(state: &mut CacheState) -> Vec<PendingExec> {
        state.pending_key = None;
        std::mem::take(&mut state.pending)
    }

    /// Write a detached batch in one transaction of the inner store's
    /// database. Called WITHOUT the cache mutex held.
    fn write_batch(&self, batch: Vec<PendingExec>) -> DbResult<()> {
        if batch.is_empty() {
            return Ok(());
        }
        // Set just before the closure returns `Ok`: from then on every
        // row is applied, and an error can only be the commit's failed
        // sync, which leaves the rows in memory — writing them again
        // would insert them twice.
        let mut applied = false;
        let written = self.inner.database().transaction(|tx| {
            for p in &batch {
                tx.exec_stmt(
                    &self.insert,
                    &[
                        Value::Int(p.runid),
                        Value::from(p.dataset.as_str()),
                        Value::Int(p.timestep),
                        Value::Int(p.file_offset),
                        Value::from(p.file_name.as_str()),
                    ],
                )?;
            }
            applied = true;
            Ok(())
        });
        if written.is_err() && !applied {
            // Rolled back, so nothing landed: requeue the whole batch
            // for a later retry.
            self.requeue(batch);
        }
        written
    }

    /// Put unwritten rows back at the head of the pending queue.
    fn requeue(&self, mut batch: Vec<PendingExec>) {
        if batch.is_empty() {
            return;
        }
        let mut state = self.state.lock();
        batch.append(&mut state.pending);
        state.pending = batch;
        // The queue may now span timesteps; the next flush writes it as
        // one batch, which is still atomic per flush.
        state.pending_key = None;
    }

    /// Take and write everything currently pending.
    fn flush_pending(&self) -> DbResult<()> {
        let batch = Self::take_pending(&mut self.state.lock());
        self.write_batch(batch)
    }
}

impl Drop for CachedStore {
    fn drop(&mut self) {
        let _ = self.flush_pending();
    }
}

impl MetadataStore for CachedStore {
    fn ensure_schema(&self) -> DbResult<()> {
        self.inner.ensure_schema()
    }

    fn allocate_runid(&self, application: &str) -> DbResult<i64> {
        self.inner.allocate_runid(application)
    }

    fn latest_runid_for_app(&self, application: &str) -> DbResult<Option<i64>> {
        self.inner.latest_runid_for_app(application)
    }

    fn run_exists(&self, runid: i64) -> DbResult<bool> {
        self.inner.run_exists(runid)
    }

    fn record_run(&self, rec: &RunRecord) -> DbResult<()> {
        self.inner.record_run(rec)
    }

    fn record_access_pattern(
        &self,
        runid: i64,
        dataset: &str,
        data_type: &str,
        storage_order: &str,
        access_pattern: &str,
        global_size: i64,
    ) -> DbResult<()> {
        self.inner.record_access_pattern(
            runid,
            dataset,
            data_type,
            storage_order,
            access_pattern,
            global_size,
        )
    }

    fn record_execution(
        &self,
        runid: i64,
        dataset: &str,
        timestep: i64,
        file_offset: i64,
        file_name: &str,
    ) -> DbResult<()> {
        let closed_batch = {
            let mut state = self.state.lock();
            // A new (runid, timestep) closes the previous batch.
            let closed = if state.pending_key.is_some_and(|k| k != (runid, timestep)) {
                Self::take_pending(&mut state)
            } else {
                Vec::new()
            };
            state.pending_key = Some((runid, timestep));
            state.pending.push(PendingExec {
                runid,
                dataset: dataset.to_string(),
                timestep,
                file_offset,
                file_name: file_name.to_string(),
            });
            closed
        };
        self.write_batch(closed_batch)
    }

    fn lookup_execution(
        &self,
        runid: i64,
        dataset: &str,
        timestep: i64,
    ) -> DbResult<Option<(i64, String)>> {
        // The row may still be buffered: land the batch first.
        self.flush_pending()?;
        self.inner.lookup_execution(runid, dataset, timestep)
    }

    fn record_import(
        &self,
        runid: i64,
        imported_name: &str,
        file_name: &str,
        data_type: &str,
        storage_order: &str,
        file_content: &str,
    ) -> DbResult<()> {
        self.inner.record_import(
            runid,
            imported_name,
            file_name,
            data_type,
            storage_order,
            file_content,
        )
    }

    fn record_index_registry(
        &self,
        problem_size: i64,
        num_procs: i64,
        dimension: i64,
        file_name: &str,
    ) -> DbResult<()> {
        self.inner
            .record_index_registry(problem_size, num_procs, dimension, file_name)
    }

    fn lookup_index_registry(&self, problem_size: i64, num_procs: i64) -> DbResult<Option<String>> {
        self.inner.lookup_index_registry(problem_size, num_procs)
    }

    fn record_history_block(
        &self,
        problem_size: i64,
        num_procs: i64,
        block: &HistoryBlock,
    ) -> DbResult<()> {
        self.inner
            .record_history_block(problem_size, num_procs, block)
    }

    fn lookup_history_block(
        &self,
        problem_size: i64,
        num_procs: i64,
        rank: i64,
    ) -> DbResult<Option<HistoryBlock>> {
        self.inner
            .lookup_history_block(problem_size, num_procs, rank)
    }

    fn lookup_history_blocks(
        &self,
        problem_size: i64,
        num_procs: i64,
    ) -> DbResult<Vec<HistoryBlock>> {
        // History rows are written through, never buffered: the inner
        // store's one probe is the whole answer.
        self.inner.lookup_history_blocks(problem_size, num_procs)
    }

    fn delete_index_registry(&self, problem_size: i64, num_procs: i64) -> DbResult<()> {
        self.inner.delete_index_registry(problem_size, num_procs)
    }

    fn run(&self, stmt: &Stmt, params: &[Value]) -> DbResult<ResultSet> {
        // Only statements that touch the relation with buffered rows —
        // as FROM table, join side, or mutation target — force the
        // pending batch down first. Statements over other relations pass
        // straight through.
        if stmt.references(ExecutionRow::TABLE.name) {
            self.flush()?;
        }
        self.inner.run(stmt, params)
    }

    fn flush(&self) -> DbResult<()> {
        self.flush_pending()?;
        self.inner.flush()
    }

    fn database(&self) -> &Arc<Database> {
        self.inner.database()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdm_metadb::WalFaults;

    fn sql_store() -> SqlStore {
        let store = SqlStore::new(Arc::new(Database::new()));
        store.ensure_schema().unwrap();
        store
    }

    fn cached_store() -> SharedStore {
        let db = Arc::new(Database::new());
        let store = CachedStore::shared(&db);
        store.ensure_schema().unwrap();
        store
    }

    fn run_rec(runid: i64, app: &str) -> RunRecord {
        RunRecord {
            runid,
            application: app.to_string(),
            dimension: 3,
            problem_size: 1000,
            num_timesteps: 2,
            date: (2001, 2, 20),
            time: (12, 0),
        }
    }

    #[test]
    fn execution_history_merge_joins_off_the_runid_indexes() {
        let s = sql_store();
        s.record_run(&run_rec(1, "fun3d")).unwrap();
        s.record_run(&run_rec(2, "rt")).unwrap();
        s.record_run(&run_rec(3, "fun3d")).unwrap();
        for ts in 0..3 {
            s.record_execution(1, "pressure", ts, ts * 100, "f1.dat")
                .unwrap();
            s.record_execution(2, "pressure", ts, ts * 100, "f2.dat")
                .unwrap();
            s.record_execution(3, "pressure", ts, ts * 100, "f3.dat")
                .unwrap();
        }
        let before = s.database().stats();
        let hist = s.execution_history("fun3d").unwrap();
        let after = s.database().stats();
        // Runs 1 and 3 belong to fun3d, 3 timesteps each, ordered by
        // (runid, timestep).
        assert_eq!(hist.len(), 6);
        assert_eq!(hist[0], (1, 0, 0, "f1.dat".to_string()));
        assert_eq!(hist[5], (3, 2, 200, "f3.dat".to_string()));
        // The eq-join is served by a merge over the two runid-led
        // indexes — never by a full scan.
        assert_eq!(after.join_merge_joins - before.join_merge_joins, 1);
        assert_eq!(after.full_scans, before.full_scans);
    }

    #[test]
    fn schema_setup_is_idempotent() {
        let s = sql_store();
        s.ensure_schema().unwrap();
        assert!(s.database().has_table("run_table"));
        assert!(s.database().has_table("index_history_table"));
    }

    #[test]
    fn runid_allocation_reserves_and_advances() {
        let s = sql_store();
        assert_eq!(s.allocate_runid("fun3d").unwrap(), 1);
        assert_eq!(s.allocate_runid("rt").unwrap(), 2);
        // Reservations are anonymous: an allocated-but-never-recorded
        // run must not be discoverable by application name.
        assert_eq!(s.latest_runid_for_app("fun3d").unwrap(), None);
        s.record_run(&run_rec(2, "rt")).unwrap();
        assert_eq!(s.latest_runid_for_app("rt").unwrap(), Some(2));
        // record_run completes the reserved row instead of duplicating it.
        s.record_run(&run_rec(1, "fun3d")).unwrap();
        let rs = s
            .run(
                &Query::<RunRow>::filter(RunCol::Runid.eq(1))
                    .count()
                    .compile(),
                &[],
            )
            .unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Int(1)));
        let rs = s
            .run(
                &Query::<RunRow>::filter(RunCol::Runid.eq(1))
                    .select(&[RunCol::ProblemSize])
                    .compile(),
                &[],
            )
            .unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Int(1000)));
    }

    #[test]
    fn concurrent_runid_allocation_never_duplicates() {
        use std::collections::HashSet;
        let store: SharedStore = Arc::new(sql_store());
        let ids = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let store = Arc::clone(&store);
                    scope.spawn(move || {
                        (0..10)
                            .map(|_| store.allocate_runid("race").unwrap())
                            .collect::<Vec<i64>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect::<Vec<i64>>()
        });
        let unique: HashSet<i64> = ids.iter().copied().collect();
        assert_eq!(unique.len(), ids.len(), "duplicate run ids minted: {ids:?}");
        assert_eq!(ids.len(), 80);
    }

    #[test]
    fn record_run_without_reservation_inserts() {
        let s = sql_store();
        s.record_run(&run_rec(42, "import")).unwrap();
        assert_eq!(s.latest_runid_for_app("import").unwrap(), Some(42));
    }

    #[test]
    fn execution_round_trip() {
        let s = sql_store();
        s.record_execution(1, "p", 10, 4096, "fun3d.g0.dat")
            .unwrap();
        let hit = s.lookup_execution(1, "p", 10).unwrap();
        assert_eq!(hit, Some((4096, "fun3d.g0.dat".to_string())));
        assert_eq!(s.lookup_execution(1, "p", 20).unwrap(), None);
        assert_eq!(s.lookup_execution(2, "p", 10).unwrap(), None);
    }

    #[test]
    fn index_registry_round_trip() {
        let s = sql_store();
        s.record_index_registry(18_000_000, 64, 3, "hist.18M.64")
            .unwrap();
        assert_eq!(
            s.lookup_index_registry(18_000_000, 64).unwrap(),
            Some("hist.18M.64".to_string())
        );
        // Different process count: miss (the paper's key limitation).
        assert_eq!(s.lookup_index_registry(18_000_000, 32).unwrap(), None);
        s.delete_index_registry(18_000_000, 64).unwrap();
        assert_eq!(s.lookup_index_registry(18_000_000, 64).unwrap(), None);
    }

    #[test]
    fn history_blocks_round_trip() {
        let s = sql_store();
        let b = HistoryBlock {
            rank: 3,
            edge_count: 1000,
            node_count: 300,
            ghost_count: 40,
            file_offset: 65536,
            byte_len: 20480,
        };
        s.record_history_block(500, 8, &b).unwrap();
        assert_eq!(s.lookup_history_block(500, 8, 3).unwrap(), Some(b));
        assert_eq!(s.lookup_history_block(500, 8, 4).unwrap(), None);
    }

    #[test]
    fn all_blocks_of_a_registration_come_from_one_probe() {
        let block = |rank| HistoryBlock {
            rank,
            edge_count: 100 + rank,
            node_count: 30,
            ghost_count: 4,
            file_offset: rank * 512,
            byte_len: 512,
        };
        let db = Arc::new(Database::new());
        let s = SqlStore::new(Arc::clone(&db));
        s.ensure_schema().unwrap();
        for rank in [2, 0, 1] {
            s.record_history_block(500, 3, &block(rank)).unwrap();
        }
        // Same problem on other process counts: not part of the answer.
        s.record_history_block(500, 2, &block(0)).unwrap();
        s.record_history_block(500, 4, &block(3)).unwrap();
        db.reset_stats();
        let mut found = s.lookup_history_blocks(500, 3).unwrap();
        found.sort_by_key(|b| b.rank);
        assert_eq!(found, [block(0), block(1), block(2)]);
        let stats = db.stats();
        assert_eq!((stats.index_scans, stats.full_scans), (1, 0));
        assert_eq!(s.lookup_history_blocks(500, 5).unwrap(), []);

        // The default stack passes the one probe through.
        let cached = CachedStore::new(Arc::new(s));
        db.reset_stats();
        assert_eq!(cached.lookup_history_blocks(500, 3).unwrap().len(), 3);
        assert_eq!((db.stats().index_scans, db.stats().full_scans), (1, 0));
    }

    #[test]
    fn access_pattern_and_import_records() {
        let s = sql_store();
        use crate::schema::{AccessPatternCol, ImportCol};
        s.record_access_pattern(1, "p", "DOUBLE", "ROW_MAJOR", "IRREGULAR", 2_000_000)
            .unwrap();
        s.record_import(1, "edge1", "uns3d.msh", "INTEGER", "ROW_MAJOR", "INDEX")
            .unwrap();
        let rs = s
            .run(
                &Query::<AccessPatternRow>::filter(AccessPatternCol::Dataset.eq("p"))
                    .select(&[AccessPatternCol::DataType])
                    .compile(),
                &[],
            )
            .unwrap();
        assert_eq!(rs.scalar().and_then(Value::as_str), Some("DOUBLE"));
        let rs = s
            .run(
                &Query::<ImportRow>::filter(ImportCol::ImportedName.eq("edge1"))
                    .select(&[ImportCol::FileContent])
                    .compile(),
                &[],
            )
            .unwrap();
        assert_eq!(rs.scalar().and_then(Value::as_str), Some("INDEX"));
    }

    #[test]
    fn lookups_use_declared_indexes() {
        let s = sql_store();
        for ts in 0..50 {
            s.record_execution(7, "p", ts, ts * 512, "f.dat").unwrap();
        }
        s.database().reset_stats();
        assert!(s.lookup_execution(7, "p", 25).unwrap().is_some());
        let stats = s.database().stats();
        assert_eq!(
            stats.index_scans, 1,
            "execution lookup must probe the runid index"
        );
        assert_eq!(stats.full_scans, 0);
    }

    #[test]
    fn typed_hot_path_touches_no_sql_text() {
        let s = sql_store();
        s.database().reset_stats();
        for ts in 0..20 {
            s.record_execution(1, "p", ts, 0, "f").unwrap();
            s.lookup_execution(1, "p", ts).unwrap();
        }
        let stats = s.database().stats();
        // Typed statements are built ASTs: nothing is ever lexed or
        // parsed.
        assert_eq!(stats.parse_misses, 0, "no SQL text entered the engine");
    }

    // ---- CachedStore ----

    /// Rows currently in `execution_table` as the database sees them
    /// (bypassing the store's batch).
    fn db_exec_rows(db: &Database) -> i64 {
        db.exec_stmt(&Query::<ExecutionRow>::all().count().compile(), &[])
            .unwrap()
            .scalar()
            .and_then(Value::as_i64)
            .unwrap()
    }

    #[test]
    fn cached_store_batches_per_timestep() {
        let s = cached_store();
        let count = |s: &SharedStore| db_exec_rows(s.database());
        // Three datasets in timestep 0: buffered, not yet in the DB.
        s.record_execution(1, "p", 0, 0, "f").unwrap();
        s.record_execution(1, "q", 0, 100, "f").unwrap();
        s.record_execution(1, "r", 0, 200, "f").unwrap();
        assert_eq!(count(&s), 0, "same-timestep inserts stay buffered");
        // Moving to timestep 1 flushes the batch in one transaction.
        s.record_execution(1, "p", 1, 300, "f").unwrap();
        assert_eq!(count(&s), 3);
        // A lookup lands the buffered row before it asks.
        assert_eq!(
            s.lookup_execution(1, "p", 1).unwrap(),
            Some((300, "f".into()))
        );
        assert_eq!(count(&s), 4);
    }

    #[test]
    fn cached_store_serves_foreign_rows_after_flush() {
        let db = Arc::new(Database::new());
        let writer = CachedStore::shared(&db);
        writer.ensure_schema().unwrap();
        writer.record_execution(1, "p", 0, 42, "f").unwrap();
        writer.flush().unwrap();
        // A second store over the same database (a later attach).
        let reader = CachedStore::shared(&db);
        assert_eq!(
            reader.lookup_execution(1, "p", 0).unwrap(),
            Some((42, "f".into()))
        );
    }

    #[test]
    fn cached_store_run_sees_buffered_rows() {
        let s = cached_store();
        s.record_execution(5, "p", 0, 7, "f").unwrap();
        // A statement over the buffered relation flushes it first.
        let rs = s
            .run(
                &Query::<ExecutionRow>::filter(ExecutionCol::Runid.eq(5))
                    .select(&[ExecutionCol::FileOffset])
                    .compile(),
                &[],
            )
            .unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Int(7)));
    }

    #[test]
    fn cached_store_run_on_other_relations_keeps_batch_buffered() {
        let s = cached_store();
        s.record_execution(5, "p", 0, 7, "f").unwrap();
        // A statement over a *different* relation must not flush the
        // execution batch: the cache routes by (relation, key).
        s.run(&Query::<RunRow>::all().max(RunCol::Runid).compile(), &[])
            .unwrap();
        assert_eq!(db_exec_rows(s.database()), 0, "batch stayed buffered");
        s.flush().unwrap();
        assert_eq!(db_exec_rows(s.database()), 1);
    }

    #[test]
    #[allow(deprecated)]
    fn raw_sql_veneer_parses_into_typed_statements() {
        // The stringly escape hatch survives as a veneer over `run`:
        // text in, typed statement out, same rows — at the cost of one
        // parse per call, which the text counters must witness (that is
        // how a regression back to stringly call sites shows up).
        let s = cached_store();
        s.record_execution(5, "p", 0, 7, "f").unwrap();
        s.database().reset_stats();
        let rs = s
            .exec(
                "SELECT file_offset FROM execution_table WHERE runid = 5",
                &[],
            )
            .unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Int(7)));
        let stats = s.database().stats();
        assert_eq!(stats.parse_misses, 1, "veneer text must be counted");
        assert!(s.exec("SELEKT nope", &[]).is_err());
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "SQL text is the shortest way to write this join; the test is about flush gating"
    )]
    fn run_flushes_when_a_join_reaches_the_buffered_relation() {
        // A SELECT whose FROM table is elsewhere but whose JOIN side is
        // execution_table must still see buffered rows: flush gating
        // goes by Stmt::references, not the primary table alone.
        let s = cached_store();
        s.record_run(&run_rec(5, "app")).unwrap();
        s.record_execution(5, "p", 0, 7, "f").unwrap();
        let join = Stmt::parse(
            "SELECT run_table.runid, execution_table.file_offset FROM run_table \
             INNER JOIN execution_table ON run_table.runid = execution_table.runid",
        )
        .unwrap();
        assert_eq!(join.table(), "run_table");
        assert!(join.references("execution_table"));
        let rs = s.run(&join, &[]).unwrap();
        assert_eq!(rs.len(), 1, "buffered execution row must be visible");
        assert_eq!(rs.rows[0][1], Value::Int(7));
    }

    #[test]
    fn abandoned_allocation_does_not_shadow_finished_runs() {
        // A finished run for an app, then a crashed/abandoned initialize
        // (allocation without record_run): re-attachment by name must
        // still resolve the finished run.
        let s = sql_store();
        let good = s.allocate_runid("viz").unwrap();
        s.record_run(&run_rec(good, "viz")).unwrap();
        let _abandoned = s.allocate_runid("viz").unwrap();
        assert_eq!(s.latest_runid_for_app("viz").unwrap(), Some(good));
    }

    /// The `(runid, dataset, timestep)` key of every `execution_table`
    /// row, in table order.
    fn exec_keys(db: &Database) -> Vec<Vec<Value>> {
        let keys = Query::<ExecutionRow>::all()
            .select(&[
                ExecutionCol::Runid,
                ExecutionCol::Dataset,
                ExecutionCol::Timestep,
            ])
            .compile();
        db.exec_stmt(&keys, &[]).unwrap().rows
    }

    #[test]
    fn a_rolled_back_batch_is_requeued_and_lands_once() {
        let db = Arc::new(Database::new());
        let s = CachedStore::shared(&db);
        s.ensure_schema().unwrap();
        s.record_execution(1, "p", 0, 0, "f").unwrap();
        s.record_execution(1, "q", 0, 64, "f").unwrap();
        // Without its table the batch's first insert fails, and its
        // transaction rolls back.
        let drop = sdm_metadb::sql::Statement::DropTable {
            name: ExecutionRow::TABLE.name.into(),
        };
        db.exec_stmt(&Stmt::from_ast(drop), &[]).unwrap();
        assert!(matches!(s.flush(), Err(DbError::NoSuchTable(_))));
        s.ensure_schema().unwrap();
        s.flush().unwrap();
        assert_eq!(exec_keys(&db).len(), 2, "the requeued batch landed once");
    }

    #[test]
    fn a_batch_whose_commit_fails_to_sync_is_not_written_again() {
        let (log, h) = MemStorage::new();
        let db = Arc::new(Database::open_with_storage(Box::new(log)).unwrap());
        let s = CachedStore::shared(&db);
        s.ensure_schema().unwrap();
        s.record_execution(1, "p", 0, 0, "f").unwrap();
        s.record_execution(1, "q", 0, 64, "f").unwrap();
        // Everything so far is durable; from here every fsync fails.
        h.set_faults(WalFaults::none().fail_sync_after(db.stats().wal_fsyncs));
        assert!(s.flush().is_err(), "the batch's commit could not sync");
        // The rows are applied in memory, undurable; a retry has nothing
        // left to write and must not insert them again.
        let retry = s.flush();
        let keys = exec_keys(&db);
        assert_eq!(keys.len(), 2, "a key was inserted twice: {keys:?}");
        assert_ne!(keys[0], keys[1]);
        retry.unwrap();
    }

    #[test]
    fn cached_store_flushes_on_drop() {
        let db = Arc::new(Database::new());
        {
            let s = CachedStore::shared(&db);
            s.ensure_schema().unwrap();
            s.record_execution(1, "p", 0, 1, "f").unwrap();
        }
        assert_eq!(db_exec_rows(&db), 1);
    }

    #[test]
    fn durable_store_survives_reopen() {
        let dir = tempfile::tempdir().unwrap();
        let runid;
        {
            let s = open_durable(dir.path()).unwrap();
            runid = s.allocate_runid("fun3d").unwrap();
            s.record_run(&run_rec(runid, "fun3d")).unwrap();
            s.record_execution(runid, "pressure", 0, 512, "f1.dat")
                .unwrap();
        }
        let s = open_durable(dir.path()).unwrap();
        // ensure_schema already ran inside open_durable and is
        // idempotent over the recovered catalog.
        assert_eq!(s.latest_runid_for_app("fun3d").unwrap(), Some(runid));
        assert_eq!(
            s.lookup_execution(runid, "pressure", 0).unwrap(),
            Some((512, "f1.dat".into()))
        );
    }

    #[test]
    fn durable_cached_store_flush_and_checkpoint() {
        let dir = tempfile::tempdir().unwrap();
        let runid;
        {
            let s = open_durable(dir.path()).unwrap();
            s.ensure_schema().unwrap();
            runid = s.allocate_runid("rt").unwrap();
            s.record_run(&run_rec(runid, "rt")).unwrap();
            // Buffered execution rows become durable through checkpoint:
            // it flushes the batch transaction, then snapshots + truncates.
            s.record_execution(runid, "p", 0, 0, "f").unwrap();
            s.record_execution(runid, "q", 0, 64, "f").unwrap();
            let covered = s.checkpoint().unwrap();
            assert!(covered > 0, "checkpoint covers the flushed commits");
        }
        let s = open_durable(dir.path()).unwrap();
        s.ensure_schema().unwrap();
        assert_eq!(
            s.lookup_execution(runid, "p", 0).unwrap(),
            Some((0, "f".into()))
        );
        assert_eq!(
            s.lookup_execution(runid, "q", 0).unwrap(),
            Some((64, "f".into()))
        );
        // Recovery started from the checkpoint snapshot, not a full
        // log replay.
        let info = s.database().recovery_info().unwrap();
        assert!(info.snapshot_last_tx > 0, "reopen used the snapshot");
    }

    #[test]
    fn stats_count_log_traffic_and_reset_keeps_the_log_size() {
        let s = logged_in_memory().unwrap();
        s.reset_stats();
        let before = s.stats().log_bytes;
        assert!(before > 0, "the schema's DDL is in the log");
        s.allocate_runid("rt").unwrap();
        let one = s.stats();
        assert_eq!((one.transactions, one.log_syncs), (1, 1));
        assert_eq!(one.group_commit_batched, 0);
        assert!(one.log_appends >= 1 && one.log_bytes > before);
        s.reset_stats();
        assert_eq!(
            s.stats(),
            StoreStats {
                log_bytes: one.log_bytes,
                ..StoreStats::default()
            }
        );

        // An in-memory store commits but logs nothing.
        let m = in_memory();
        m.ensure_schema().unwrap();
        m.allocate_runid("rt").unwrap();
        assert_eq!(
            m.stats(),
            StoreStats {
                transactions: 1,
                ..StoreStats::default()
            }
        );
    }

    #[test]
    fn checkpoint_errors_on_in_memory_store() {
        let s = sql_store();
        assert!(s.checkpoint().is_err());
    }
}
