//! A `MetadataStore` that delegates every call and records a span around
//! it: the one place where calls from `sdm-core` into the store and
//! `sdm-metadb` can be interposed from outside. The span lands on the
//! calling rank's thread, as a child of whatever `core.*` span is open.

use std::sync::Arc;

use sdm_core::{HistoryBlock, MetadataStore, RunRecord, SharedStore};
use sdm_metadb::stmt::Stmt;
use sdm_metadb::{Database, DbResult, ResultSet, Value};

use crate::trace::host_only;

pub struct TimedStore {
    inner: SharedStore,
}

impl TimedStore {
    pub fn shared(inner: SharedStore) -> SharedStore {
        Arc::new(TimedStore { inner })
    }
}

impl MetadataStore for TimedStore {
    fn ensure_schema(&self) -> DbResult<()> {
        host_only("store.ensure_schema", || self.inner.ensure_schema())
    }

    fn allocate_runid(&self, application: &str) -> DbResult<i64> {
        host_only("store.allocate_runid", || {
            self.inner.allocate_runid(application)
        })
    }

    fn latest_runid_for_app(&self, application: &str) -> DbResult<Option<i64>> {
        host_only("store.latest_runid_for_app", || {
            self.inner.latest_runid_for_app(application)
        })
    }

    fn run_exists(&self, runid: i64) -> DbResult<bool> {
        host_only("store.run_exists", || self.inner.run_exists(runid))
    }

    fn record_run(&self, rec: &RunRecord) -> DbResult<()> {
        host_only("store.record_run", || self.inner.record_run(rec))
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
        host_only("store.record_access_pattern", || {
            self.inner.record_access_pattern(
                runid,
                dataset,
                data_type,
                storage_order,
                access_pattern,
                global_size,
            )
        })
    }

    fn record_execution(
        &self,
        runid: i64,
        dataset: &str,
        timestep: i64,
        file_offset: i64,
        file_name: &str,
    ) -> DbResult<()> {
        host_only("store.record_execution", || {
            self.inner
                .record_execution(runid, dataset, timestep, file_offset, file_name)
        })
    }

    fn lookup_execution(
        &self,
        runid: i64,
        dataset: &str,
        timestep: i64,
    ) -> DbResult<Option<(i64, String)>> {
        host_only("store.lookup_execution", || {
            self.inner.lookup_execution(runid, dataset, timestep)
        })
    }

    fn execution_history(&self, application: &str) -> DbResult<Vec<(i64, i64, i64, String)>> {
        host_only("store.execution_history", || {
            self.inner.execution_history(application)
        })
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
        host_only("store.record_import", || {
            self.inner.record_import(
                runid,
                imported_name,
                file_name,
                data_type,
                storage_order,
                file_content,
            )
        })
    }

    fn record_index_registry(
        &self,
        problem_size: i64,
        num_procs: i64,
        dimension: i64,
        file_name: &str,
    ) -> DbResult<()> {
        host_only("store.record_index_registry", || {
            self.inner
                .record_index_registry(problem_size, num_procs, dimension, file_name)
        })
    }

    fn lookup_index_registry(&self, problem_size: i64, num_procs: i64) -> DbResult<Option<String>> {
        host_only("store.lookup_index_registry", || {
            self.inner.lookup_index_registry(problem_size, num_procs)
        })
    }

    fn record_history_block(
        &self,
        problem_size: i64,
        num_procs: i64,
        block: &HistoryBlock,
    ) -> DbResult<()> {
        host_only("store.record_history_block", || {
            self.inner
                .record_history_block(problem_size, num_procs, block)
        })
    }

    fn lookup_history_block(
        &self,
        problem_size: i64,
        num_procs: i64,
        rank: i64,
    ) -> DbResult<Option<HistoryBlock>> {
        host_only("store.lookup_history_block", || {
            self.inner
                .lookup_history_block(problem_size, num_procs, rank)
        })
    }

    fn delete_index_registry(&self, problem_size: i64, num_procs: i64) -> DbResult<()> {
        host_only("store.delete_index_registry", || {
            self.inner.delete_index_registry(problem_size, num_procs)
        })
    }

    fn run(&self, stmt: &Stmt, params: &[Value]) -> DbResult<ResultSet> {
        host_only("store.run", || self.inner.run(stmt, params))
    }

    #[allow(deprecated)] // delegated so that no call can bypass the spans
    fn exec(&self, sql: &str, params: &[Value]) -> DbResult<ResultSet> {
        host_only("store.exec", || self.inner.exec(sql, params))
    }

    fn flush(&self) -> DbResult<()> {
        host_only("store.flush", || self.inner.flush())
    }

    fn checkpoint(&self) -> DbResult<u64> {
        host_only("store.checkpoint", || self.inner.checkpoint())
    }

    fn database(&self) -> &Arc<Database> {
        self.inner.database()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace;
    use sdm_core::CachedStore;
    use sdm_metadb::stmt::Query;
    use std::time::Instant;

    /// Everything a store can be asked, in an order that makes each answer
    /// depend on the writes before it.
    #[allow(deprecated)]
    fn exercise(store: &dyn MetadataStore) -> Vec<String> {
        let mut seen = Vec::new();
        let mut see = |what: &str, v: String| seen.push(format!("{what}: {v}"));
        see("ensure_schema", format!("{:?}", store.ensure_schema()));
        see("run_exists before", format!("{:?}", store.run_exists(1)));
        let runid = store.allocate_runid("app").unwrap();
        see("allocate_runid", runid.to_string());
        let rec = RunRecord {
            runid,
            application: "app".into(),
            dimension: 3,
            problem_size: 64,
            num_timesteps: 0,
            date: (2001, 2, 20),
            time: (12, 0),
        };
        see("record_run", format!("{:?}", store.record_run(&rec)));
        see("run_exists", format!("{:?}", store.run_exists(runid)));
        see("latest", format!("{:?}", store.latest_runid_for_app("app")));
        see(
            "record_access_pattern",
            format!(
                "{:?}",
                store.record_access_pattern(runid, "p", "DOUBLE", "ROW", "IRREGULAR", 64)
            ),
        );
        see(
            "record_import",
            format!(
                "{:?}",
                store.record_import(runid, "x0", "m.msh", "DOUBLE", "ROW", "DATA")
            ),
        );
        for t in 0..3 {
            let r = store.record_execution(runid, "p", t, t * 512, "app.g0.p.dat");
            see("record_execution", format!("{r:?}"));
        }
        see(
            "lookup buffered",
            format!("{:?}", store.lookup_execution(runid, "p", 2)),
        );
        see("flush", format!("{:?}", store.flush()));
        see(
            "lookup flushed",
            format!("{:?}", store.lookup_execution(runid, "p", 1)),
        );
        see(
            "lookup missing",
            format!("{:?}", store.lookup_execution(runid, "p", 9)),
        );
        see("history", format!("{:?}", store.execution_history("app")));
        see(
            "record_index_registry",
            format!(
                "{:?}",
                store.record_index_registry(64, 2, 3, "app.hist.64.2")
            ),
        );
        let block = HistoryBlock {
            rank: 1,
            edge_count: 10,
            node_count: 5,
            ghost_count: 2,
            file_offset: 128,
            byte_len: 256,
        };
        see(
            "record_history_block",
            format!("{:?}", store.record_history_block(64, 2, &block)),
        );
        see(
            "lookup_index_registry",
            format!("{:?}", store.lookup_index_registry(64, 2)),
        );
        see(
            "lookup_history_block",
            format!("{:?}", store.lookup_history_block(64, 2, 1)),
        );
        see(
            "delete",
            format!("{:?}", store.delete_index_registry(64, 2)),
        );
        see(
            "lookup deleted",
            format!("{:?}", store.lookup_index_registry(64, 2)),
        );
        let all_runs = Query::<sdm_core::schema::RunRow>::all().compile();
        see(
            "run",
            format!("{:?}", store.run(&all_runs, &[]).map(|r| r.len())),
        );
        see(
            "exec",
            format!(
                "{:?}",
                store
                    .exec("SELECT COUNT(*) FROM execution_table", &[])
                    .map(|r| r.scalar().cloned())
            ),
        );
        see("checkpoint", format!("{:?}", store.checkpoint().is_err()));
        see("durable", store.database().is_durable().to_string());
        seen
    }

    #[test]
    fn timed_store_is_equivalent_to_the_bare_cached_store() {
        let bare_db = Arc::new(Database::new());
        let bare = exercise(&*CachedStore::shared(&bare_db));

        let timed_db = Arc::new(Database::new());
        let timed_store = TimedStore::shared(CachedStore::shared(&timed_db));
        trace::install(0, Instant::now());
        let timed = exercise(&*timed_store);
        let spans = trace::take();

        assert_eq!(bare, timed);
        // `execution_history` compiles its statement once per process, so
        // only the first database sees that compilation.
        let stats = |db: &Database| sdm_metadb::DbStats {
            exprs_compiled: 0,
            ..db.stats()
        };
        assert_eq!(
            stats(&bare_db),
            stats(&timed_db),
            "the same statements must reach the database"
        );
        assert!(Arc::ptr_eq(timed_store.database(), &timed_db));

        // Every method of the trait (bar `database`, a plain accessor)
        // left a span, so nothing reaches the inner store untimed.
        let mut names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names,
            [
                "store.allocate_runid",
                "store.checkpoint",
                "store.delete_index_registry",
                "store.ensure_schema",
                "store.exec",
                "store.execution_history",
                "store.flush",
                "store.latest_runid_for_app",
                "store.lookup_execution",
                "store.lookup_history_block",
                "store.lookup_index_registry",
                "store.record_access_pattern",
                "store.record_execution",
                "store.record_history_block",
                "store.record_import",
                "store.record_index_registry",
                "store.record_run",
                "store.run",
                "store.run_exists",
            ]
        );
    }
}
