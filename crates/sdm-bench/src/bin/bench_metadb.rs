//! Metadata-path micro-benchmark: ops/sec for the hot `MetadataStore`
//! statements, **stringly** (SQL text formatted + parsed per call, no
//! indexes) vs **typed** (statements compiled once + secondary
//! indexes), plus the `next_runid` aggregate fast path and the typed
//! session API's scoped write path. Emits `BENCH_metadb.json` for the
//! perf trajectory and asserts the invariants the refactors exist for:
//! the warmed typed hot path performs zero re-parses, zero full scans,
//! and **zero SQL-text formatting** (`typed_sql_strings_formatted`),
//! and a `TimestepScope` performs exactly **one** metadata sync and
//! **one** store transaction per timestep regardless of how many
//! datasets the step writes.
//!
//! This is also where the engine's transaction/locking invariants are
//! enforced on every run: the **mixed insert/lookup** workload must stay
//! on index probes (incremental map maintenance — no insert may trigger
//! a rebuild-on-probe), a `ROLLBACK` must undo exactly the rows the
//! transaction touched (`tx_rows_undone == tx_rows_touched`, the undo
//! log's O(touched) witness), and 4 concurrent reader threads must beat
//! one thread ≥2x where the cores exist (read-locked SELECTs).
//!
//! Run: `cargo run --release --bin bench_metadb [-- --rows 20000]`

use std::sync::Arc;
use std::time::Instant;

use sdm_core::schema::{ExecutionCol, ExecutionRow, RunCol, RunRow};
use sdm_core::{CachedStore, MetadataStore, RunRecord, Sdm, SdmConfig, SqlStore};
use sdm_metadb::eval::{compile, eval_ast, truthy};
use sdm_metadb::sql::ast::{BinOp, Expr};
use sdm_metadb::stmt::{param, Delete, Insert, Query, Relation, Stmt, TypedColumn, Update};
use sdm_metadb::{relation, Column, Database, DbResult, MemStorage, Schema, Value, WalStorage};
use sdm_mpi::World;
use sdm_pfs::Pfs;
use sdm_sim::MachineConfig;

relation! {
    /// Twin of `execution_table` with no secondary indexes: the
    /// full-scan baseline the indexed lookup is measured against.
    pub struct ExecutionNoIdxRow in "execution_noidx" as ExecutionNoIdxCol {
        /// Owning run.
        pub runid: i64 => Runid,
        /// Dataset name.
        pub dataset: String => Dataset,
        /// Timestep index.
        pub timestep: i64 => Timestep,
        /// Byte offset within the file.
        pub file_offset: i64 => FileOffset,
        /// File the burst landed in.
        pub file_name: String => FileName,
    }
}

/// Time `iters` calls of `f`; returns ops/sec.
fn ops_per_sec(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let start = Instant::now();
    for i in 0..iters {
        f(i);
    }
    iters as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

struct Section {
    name: &'static str,
    cold: f64,
    prepared: f64,
}

fn main() {
    let mut rows: u64 = 20_000;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        if argv[i] == "--rows" {
            rows = argv.get(i + 1).and_then(|v| v.parse().ok()).unwrap_or(rows);
            i += 2;
        } else {
            i += 1;
        }
    }
    // The lookup probes index into the populated key space; keep it
    // large enough that every (runid, timestep) probe can hit.
    rows = rows.max(128);

    let mut sections = Vec::new();

    // ---- INSERT: format+parse-per-call vs typed compiled-once ----
    // Stringly: each call renders the statement to SQL text (distinct
    // text per row, as a report generator interpolating values would)
    // and hands the string to the engine — per-call formatting, lexing,
    // and parsing, the shape the typed layer retired.
    let db = Database::new();
    db.exec_stmt(&ExecutionRow::TABLE.create_table(), &[])
        .unwrap();
    let cold_insert = ops_per_sec(rows, |i| {
        let sql = Insert::<ExecutionRow>::row(ExecutionRow {
            runid: 1,
            dataset: "p".into(),
            timestep: i as i64,
            file_offset: i as i64 * 512,
            file_name: "f.dat".into(),
        })
        .to_sql();
        db.exec(&sql, &[]).unwrap();
    });

    let db = Database::new();
    db.exec_stmt(&ExecutionRow::TABLE.create_table(), &[])
        .unwrap();
    let ins = Insert::<ExecutionRow>::prepared();
    let prep_insert = ops_per_sec(rows, |i| {
        db.exec_stmt(
            &ins,
            &[
                Value::Int(1),
                Value::from("p"),
                Value::Int(i as i64),
                Value::Int(i as i64 * 512),
                Value::from("f.dat"),
            ],
        )
        .unwrap();
    });
    sections.push(Section {
        name: "insert",
        cold: cold_insert,
        prepared: prep_insert,
    });

    // ---- Point lookup: full scan vs index probe through the store ----
    let store = SqlStore::new(Arc::new(Database::new()));
    store.ensure_schema().unwrap();
    for ts in 0..rows as i64 {
        store
            .record_execution(ts % 64, "p", ts, ts * 512, "f.dat")
            .unwrap();
    }

    // Cold: the same query over an unindexed twin of the same table
    // (identical row count and predicate), so the ratio isolates the
    // index probe. Fewer iterations keep the full scans affordable;
    // ops/sec normalizes.
    let db = store.database();
    db.exec_stmt(&ExecutionNoIdxRow::TABLE.create_table(), &[])
        .unwrap();
    let ins_noidx = Insert::<ExecutionNoIdxRow>::prepared();
    for ts in 0..rows as i64 {
        db.exec_stmt(
            &ins_noidx,
            &ExecutionNoIdxRow {
                runid: ts % 64,
                dataset: "p".into(),
                timestep: ts,
                file_offset: ts * 512,
                file_name: "f.dat".into(),
            }
            .into_row(),
        )
        .unwrap();
    }
    let lookups = 2_000u64;
    let cold_lookups = 200u64;
    let noidx_lookup = Query::<ExecutionNoIdxRow>::filter(
        ExecutionNoIdxCol::Runid
            .eq(param(0))
            .and(ExecutionNoIdxCol::Dataset.eq(param(1)))
            .and(ExecutionNoIdxCol::Timestep.eq(param(2))),
    )
    .select(&[ExecutionNoIdxCol::FileOffset, ExecutionNoIdxCol::FileName])
    .compile();
    let cold_lookup = ops_per_sec(cold_lookups, |i| {
        let rs = db
            .exec_stmt(
                &noidx_lookup,
                &[
                    Value::Int(i as i64 % 64),
                    Value::from("p"),
                    Value::Int(i as i64 % 64),
                ],
            )
            .unwrap();
        assert!(!rs.is_empty());
    });

    // Warm the typed plans with one lookup, then measure: from here on
    // the hot path must never re-parse — and never even *touch* SQL
    // text.
    store.lookup_execution(0, "p", 0).unwrap();
    db.reset_stats();
    let prep_lookup = ops_per_sec(lookups, |i| {
        let hit = store
            .lookup_execution(i as i64 % 64, "p", i as i64 % 64)
            .unwrap();
        assert!(hit.is_some());
    });
    let stats = db.stats();
    sections.push(Section {
        name: "indexed_lookup",
        cold: cold_lookup,
        prepared: prep_lookup,
    });

    // ---- Range probe: ordered (runid, timestep) walk vs full scan ----
    // A timestep window inside one run: `runid = ? AND timestep BETWEEN
    // ? AND ?`. Every 64th timestep belongs to the probed run, so a
    // 640-wide window selects ~10 rows out of `rows`. The baseline runs
    // the identical predicate over the unindexed twin; the indexed side
    // must resolve it as one equality-prefix + range walk of the
    // ordered composite, never a scan.
    let window = 640i64;
    let span = (rows as i64 - window).max(1);
    let range_q = Query::<ExecutionRow>::prefix_range(
        ExecutionCol::Runid,
        param(0),
        ExecutionCol::Timestep,
        param(1),
        param(2),
    )
    .select(&[ExecutionCol::Timestep, ExecutionCol::FileOffset])
    .compile();
    let range_noidx = Query::<ExecutionNoIdxRow>::prefix_range(
        ExecutionNoIdxCol::Runid,
        param(0),
        ExecutionNoIdxCol::Timestep,
        param(1),
        param(2),
    )
    .select(&[ExecutionNoIdxCol::Timestep, ExecutionNoIdxCol::FileOffset])
    .compile();
    let range_params = |i: u64| {
        let lo = (i as i64 * 97) % span;
        [
            Value::Int(lo % 64),
            Value::Int(lo),
            Value::Int(lo + window - 1),
        ]
    };
    let range_baseline = ops_per_sec(cold_lookups, |i| {
        let rs = db.exec_stmt(&range_noidx, &range_params(i)).unwrap();
        assert!(!rs.is_empty());
    });
    db.reset_stats();
    let range_lookup = ops_per_sec(lookups, |i| {
        let rs = db.exec_stmt(&range_q, &range_params(i)).unwrap();
        assert!(!rs.is_empty());
    });
    let range_stats = db.stats();
    assert_eq!(
        range_stats.full_scans, 0,
        "range window fell back to a full scan: {range_stats:?}"
    );
    assert_eq!(
        range_stats.plan_range_probes, lookups,
        "every window must be planned as a range probe: {range_stats:?}"
    );
    let range_speedup = range_lookup / range_baseline.max(1e-9);
    assert!(
        range_speedup >= 25.0,
        "ordered-index range probe must beat the full scan ≥25x, \
         got {range_speedup:.1}x ({range_lookup:.0} vs {range_baseline:.0} ops/s)"
    );

    // ---- Composite point probe: full (runid, timestep) key ----
    // Both key columns pinned: the planner must collapse the ordered
    // composite to a single-bucket point probe.
    let point_q = Query::<ExecutionRow>::filter(
        ExecutionCol::Runid
            .eq(param(0))
            .and(ExecutionCol::Timestep.eq(param(1))),
    )
    .select(&[ExecutionCol::FileOffset])
    .compile();
    db.reset_stats();
    let composite_probe = ops_per_sec(lookups, |i| {
        let k = i as i64 % 64;
        let rs = db
            .exec_stmt(&point_q, &[Value::Int(k), Value::Int(k)])
            .unwrap();
        assert!(!rs.is_empty());
    });
    let point_stats = db.stats();
    assert_eq!(
        point_stats.plan_point_probes, lookups,
        "full-key probes must be planned as point probes: {point_stats:?}"
    );

    // ---- Top-k: ORDER BY … LIMIT streamed off the ordered index ----
    // "Latest 10 timesteps of a run" must walk the (runid, timestep)
    // composite backwards and stop at the limit — zero sorts on the hot
    // path, witnessed by the planner counters.
    let topk_q = Query::<ExecutionRow>::filter(ExecutionCol::Runid.eq(param(0)))
        .order_by_desc(ExecutionCol::Timestep)
        .limit(10)
        .compile();
    db.reset_stats();
    let topk = ops_per_sec(lookups, |i| {
        let rs = db.exec_stmt(&topk_q, &[Value::Int(i as i64 % 64)]).unwrap();
        assert_eq!(rs.rows.len(), 10);
    });
    let topk_stats = db.stats();
    let hot_path_sorts = topk_stats.order_sorts;
    assert_eq!(
        hot_path_sorts, 0,
        "top-k hot path sorted instead of streaming: {topk_stats:?}"
    );
    assert_eq!(
        topk_stats.sorts_avoided, lookups,
        "every top-k query must stream off the ordered index: {topk_stats:?}"
    );

    // ---- Mixed insert/lookup: incremental index maintenance ----
    // The workload that used to collapse: every insert invalidated all
    // index maps, so the next probe rebuilt them over every row —
    // interleaved write/read traffic ran at full-rebuild speed. The
    // maps are now patched in place, so a probe right after an insert
    // costs the same as a probe after a thousand of them.
    let mixed_iters = 4_000u64;
    let base = rows as i64;
    db.reset_stats();
    let mixed_rw = ops_per_sec(mixed_iters, |i| {
        let ts = base + i as i64;
        store
            .record_execution(ts % 64, "p", ts, ts * 512, "f.dat")
            .unwrap();
        let hit = store
            .lookup_execution(i as i64 % 64, "p", i as i64 % 64)
            .unwrap();
        assert!(hit.is_some());
    });
    let mixed_stats = db.stats();
    assert_eq!(
        mixed_stats.full_scans, 0,
        "mixed-workload lookups fell back to full scans: {mixed_stats:?}"
    );
    assert_eq!(
        mixed_stats.index_scans, mixed_iters,
        "every mixed-workload lookup must probe an index: {mixed_stats:?}"
    );

    // ---- Concurrent readers: SELECTs hold the shared lock ----
    // 4 reader threads against one thread's throughput; reads no longer
    // funnel through the catalog write lock, so on ≥4 cores they scale
    // near-linearly (single-core CI containers can't show parallelism,
    // so the hard gate applies only where the cores exist).
    let read_threads = 4usize;
    let per_thread = 4_000u64;
    let single = ops_per_sec(per_thread, |i| {
        let hit = store
            .lookup_execution(i as i64 % 64, "p", i as i64 % 64)
            .unwrap();
        assert!(hit.is_some());
    });
    let start = Instant::now();
    std::thread::scope(|s| {
        for r in 0..read_threads as u64 {
            let store = &store;
            s.spawn(move || {
                for i in 0..per_thread {
                    let k = (i + r * 13) % 64;
                    let hit = store.lookup_execution(k as i64, "p", k as i64).unwrap();
                    assert!(hit.is_some());
                }
            });
        }
    });
    let aggregate =
        (read_threads as u64 * per_thread) as f64 / start.elapsed().as_secs_f64().max(1e-9);
    let concurrent_read_speedup = aggregate / single.max(1e-9);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores >= read_threads {
        assert!(
            concurrent_read_speedup >= 2.0,
            "4 reader threads on {cores} cores must beat one thread ≥2x, \
             got {concurrent_read_speedup:.2}x"
        );
    } else {
        assert!(
            concurrent_read_speedup > 0.2,
            "concurrent readers collapsed ({concurrent_read_speedup:.2}x on {cores} cores)"
        );
    }

    // ---- Transactions: undo log is O(rows touched) ----
    // A transaction logs row-level undo records; BEGIN never clones the
    // catalog. Touch exactly 64 rows of the (now much larger) execution
    // table — 32 inserts, 16 single-row updates, 16 single-row deletes
    // — and roll back: the engine must report exactly 64 rows undone.
    let tx_rows_touched = 64u64;
    let upd = Update::<ExecutionRow>::new()
        .set(ExecutionCol::FileOffset, param(0))
        .filter(ExecutionCol::Timestep.eq(param(1)))
        .compile();
    let del = Delete::<ExecutionRow>::filter(ExecutionCol::Timestep.eq(param(0))).compile();
    db.reset_stats();
    db.exec_stmt(&Stmt::begin(), &[]).unwrap();
    let tx_base = base + mixed_iters as i64;
    for i in 0..32 {
        store
            .record_execution(7, "tx", tx_base + i, i * 512, "tx.dat")
            .unwrap();
    }
    for i in 0..16i64 {
        // Each timestep value is unique in the table: one row per hit.
        let rs = db
            .exec_stmt(&upd, &[Value::Int(-1), Value::Int(base + i)])
            .unwrap();
        assert_eq!(rs.affected, 1);
    }
    for i in 16..32i64 {
        let rs = db.exec_stmt(&del, &[Value::Int(base + i)]).unwrap();
        assert_eq!(rs.affected, 1);
    }
    db.exec_stmt(&Stmt::rollback(), &[]).unwrap();
    let tx_rows_undone = db.stats().tx_rows_undone;
    assert_eq!(
        tx_rows_undone, tx_rows_touched,
        "rollback must undo exactly the rows touched, not the table"
    );
    let table_rows = db
        .exec_stmt(&Query::<ExecutionRow>::all().count().compile(), &[])
        .unwrap()
        .scalar()
        .and_then(Value::as_i64)
        .unwrap();
    assert!(
        table_rows as u64 > 4 * tx_rows_touched,
        "the table must dwarf the transaction for the O(touched) claim to mean anything"
    );

    // Begin→insert→rollback cycles on the big table: with clone-the-
    // catalog snapshots this paid O(table) per cycle; the undo log pays
    // O(1).
    let small_txs = 2_000u64;
    let small_tx = ops_per_sec(small_txs, |i| {
        db.exec_stmt(&Stmt::begin(), &[]).unwrap();
        store
            .record_execution(9, "cycle", tx_base + 100 + i as i64, 0, "c.dat")
            .unwrap();
        db.exec_stmt(&Stmt::rollback(), &[]).unwrap();
    });

    // ---- next_runid: MAX() fast path over a populated run_table ----
    for k in 0..512 {
        store
            .allocate_runid(if k % 2 == 0 { "fun3d" } else { "rt" })
            .unwrap();
    }
    let next_runid = ops_per_sec(lookups, |_| {
        store.latest_runid_for_app("fun3d").unwrap();
    });

    // ---- Filter evaluation: compiled program vs AST-walk twin ----
    // The predicate the executor runs per candidate row, both ways: the
    // instruction-list program (column slots, interned constants,
    // short-circuit jumps, zero allocation) against the interpreted
    // tree walk it replaced (per-node dispatch, name-hash column
    // lookups, a `Value` clone per node). Same expression, same rows,
    // same verdicts — the proptest suite pins the equivalence, this
    // section pins the price.
    let eval_schema = Schema::new(
        ExecutionRow::TABLE
            .columns
            .iter()
            .map(|c| Column {
                name: c.name.to_string(),
                ctype: c.ctype,
            })
            .collect(),
    )
    .unwrap();
    // runid = ? AND dataset = ? AND (timestep >= ? OR file_offset + 512 < ?)
    let bin = |op: BinOp, lhs: Expr, rhs: Expr| Expr::Binary {
        op,
        lhs: Box::new(lhs),
        rhs: Box::new(rhs),
    };
    let filter_expr = bin(
        BinOp::And,
        bin(
            BinOp::And,
            bin(BinOp::Eq, Expr::Col("runid".into()), Expr::Param(0)),
            bin(BinOp::Eq, Expr::Col("dataset".into()), Expr::Param(1)),
        ),
        bin(
            BinOp::Or,
            bin(BinOp::Ge, Expr::Col("timestep".into()), Expr::Param(2)),
            bin(
                BinOp::Lt,
                bin(
                    BinOp::Add,
                    Expr::Col("file_offset".into()),
                    Expr::Lit(Value::Int(512)),
                ),
                Expr::Param(3),
            ),
        ),
    );
    let filter_prog = compile(&filter_expr, &eval_schema).expect("predicate compiles");
    let eval_rows: Vec<Vec<Value>> = (0..rows as i64)
        .map(|i| {
            vec![
                Value::Int(i % 64),
                Value::from("p"),
                Value::Int(i),
                Value::Int(i * 512),
                Value::from("f.dat"),
            ]
        })
        .collect();
    let filter_params = [
        Value::Int(7),
        Value::from("p"),
        Value::Int(rows as i64 / 2),
        Value::Int(4096),
    ];
    // Interleave the two variants and score each by its best pass:
    // back-to-back timing windows on a shared core let frequency drift
    // and interference skew the ratio run-to-run, while best-of-N pins
    // both sides to their least-disturbed pass.
    let eval_passes = 40u64;
    let (mut compiled_best, mut ast_best) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..eval_passes {
        let t = Instant::now();
        let mut hits = 0u64;
        for row in &eval_rows {
            if filter_prog.eval_truthy(row, &filter_params).unwrap() == Some(true) {
                hits += 1;
            }
        }
        compiled_best = compiled_best.min(t.elapsed().as_secs_f64());
        assert!(hits > 0, "predicate selected nothing");

        let t = Instant::now();
        let mut hits = 0u64;
        for row in &eval_rows {
            // analyze:allow(compiled-eval: the AST-walk baseline twin this section measures)
            let v = eval_ast(&filter_expr, &eval_schema, row, &filter_params).unwrap();
            if truthy(&v) == Some(true) {
                hits += 1;
            }
        }
        ast_best = ast_best.min(t.elapsed().as_secs_f64());
        assert!(hits > 0, "predicate selected nothing");
    }
    let filter_eval_ops = rows as f64 / compiled_best.max(1e-12);
    let filter_eval_ast_ops = rows as f64 / ast_best.max(1e-12);
    let filter_eval_speedup = filter_eval_ops / filter_eval_ast_ops.max(1e-9);
    assert!(
        filter_eval_speedup >= 3.0,
        "compiled evaluation must beat the AST walk ≥3x, got {filter_eval_speedup:.1}x \
         ({filter_eval_ops:.0} vs {filter_eval_ast_ops:.0} rows/s)"
    );

    // ---- Joins: merge + index-nested-loop off the runid indexes ----
    // The paper's cross-table history shape (runs ⋈ executions ON
    // runid) on a dedicated store: 64 recorded runs × 32 timesteps.
    // Both sides carry a runid-led ordered index, so the hot eq-join
    // must stream as a merge; the unindexed `execution_noidx` twin on
    // the left forces index-nested-loop probes into the indexed right
    // side. A hash table must never be built on this workload.
    let jstore = SqlStore::new(Arc::new(Database::new()));
    jstore.ensure_schema().unwrap();
    let join_runs = 64i64;
    let join_steps = 32i64;
    for run in 1..=join_runs {
        jstore
            .record_run(&RunRecord {
                runid: run,
                application: "fun3d".into(),
                dimension: 3,
                problem_size: 1000,
                num_timesteps: join_steps,
                date: (2001, 2, 20),
                time: (12, 0),
            })
            .unwrap();
        for ts in 0..join_steps {
            jstore
                .record_execution(run, "p", ts, ts * 512, "f.dat")
                .unwrap();
        }
    }
    let jdb = jstore.database();
    jdb.exec_stmt(&ExecutionNoIdxRow::TABLE.create_table(), &[])
        .unwrap();
    let ins_jnoidx = Insert::<ExecutionNoIdxRow>::prepared();
    for run in 1..=join_runs {
        jdb.exec_stmt(
            &ins_jnoidx,
            &ExecutionNoIdxRow {
                runid: run,
                dataset: "p".into(),
                timestep: 0,
                file_offset: 0,
                file_name: "f.dat".into(),
            }
            .into_row(),
        )
        .unwrap();
    }
    let merge_q = Query::<RunRow>::filter(RunCol::Application.eq(param(0)))
        .join_on::<ExecutionRow>(RunCol::Runid, ExecutionCol::Runid)
        .select_right(&[ExecutionCol::Timestep, ExecutionCol::FileOffset])
        .compile();
    let inl_q = Query::<ExecutionNoIdxRow>::all()
        .join_on::<ExecutionRow>(ExecutionNoIdxCol::Runid, ExecutionCol::Runid)
        .select_right(&[ExecutionCol::Timestep])
        .compile();
    let expect_pairs = (join_runs * join_steps) as usize;
    // Warm both plans (first execution compiles the predicates), then
    // measure with clean counters.
    jdb.exec_stmt(&merge_q, &[Value::from("fun3d")]).unwrap();
    jdb.exec_stmt(&inl_q, &[]).unwrap();
    let exprs_compiled_joins = jdb.stats().exprs_compiled;
    assert!(
        exprs_compiled_joins >= 1,
        "warming the join plans must compile their predicates"
    );
    jdb.reset_stats();
    let join_iters = 200u64;
    let merge_join_ops = ops_per_sec(join_iters, |_| {
        let rs = jdb.exec_stmt(&merge_q, &[Value::from("fun3d")]).unwrap();
        assert_eq!(rs.rows.len(), expect_pairs);
    });
    let inl_join_ops = ops_per_sec(join_iters, |_| {
        let rs = jdb.exec_stmt(&inl_q, &[]).unwrap();
        assert_eq!(rs.rows.len(), expect_pairs);
    });
    let join_stats = jdb.stats();
    assert_eq!(
        join_stats.join_merge_joins, join_iters,
        "every run⋈execution join must merge the ordered indexes: {join_stats:?}"
    );
    assert_eq!(
        join_stats.join_index_probes,
        join_iters * join_runs as u64,
        "the unindexed-left join must probe the indexed right side per outer row: {join_stats:?}"
    );
    assert_eq!(
        join_stats.join_hash_builds, 0,
        "no hash table may be built on the indexed join workload: {join_stats:?}"
    );
    let ast_walks_hot_path = stats.ast_eval_fallbacks + join_stats.ast_eval_fallbacks;
    assert_eq!(
        ast_walks_hot_path, 0,
        "the warmed hot path must never fall back to walking an AST"
    );

    // ---- Scoped session writes: metadata syncs per timestep ----
    // N datasets written per step through a TimestepScope must cost
    // exactly one metadata round trip, whatever the process count, and
    // one store transaction per timestep.
    let procs = 4usize;
    let scope_datasets = 6usize;
    let scope_steps = 10i64;
    let global = 64u64;
    let (scoped_syncs_per_step, scoped_txs) = {
        let pfs = Pfs::new(MachineConfig::test_tiny());
        let db = Arc::new(Database::new());
        let store = CachedStore::shared(&db);
        let syncs = World::run(procs, MachineConfig::test_tiny(), {
            let (pfs, store) = (Arc::clone(&pfs), Arc::clone(&store));
            move |c| {
                let mut sdm =
                    Sdm::initialize_with(c, &pfs, &store, "scoped", SdmConfig::default()).unwrap();
                let mut b = sdm.group(c);
                for d in 0..scope_datasets {
                    b = b.dataset::<f64>(format!("d{d}"), global);
                }
                let g = b.build().unwrap();
                let handles: Vec<_> = (0..scope_datasets)
                    .map(|d| g.handle::<f64>(&format!("d{d}")).unwrap())
                    .collect();
                let mine: Vec<u64> = (c.rank() as u64..global).step_by(c.size()).collect();
                for &h in &handles {
                    sdm.set_view(c, h, &mine).unwrap();
                }
                let vals: Vec<f64> = mine.iter().map(|&g| g as f64).collect();
                let before = c.counters().get("sdm.metadata_syncs");
                for t in 0..scope_steps {
                    let mut step = sdm.timestep(c, t);
                    for &h in &handles {
                        step.write(h, &vals).unwrap();
                    }
                    step.commit().unwrap();
                }
                let after = c.counters().get("sdm.metadata_syncs");
                sdm.finalize(c).unwrap();
                after - before
            }
        });
        // World-shared counter of round trips: divide by steps to get
        // syncs-per-timestep; transactions are counted by the database
        // (rank 0 writes), minus the one `allocate_runid` reservation.
        let per_step = syncs[0] / scope_steps as u64;
        (per_step, db.stats().transactions - 1)
    };
    assert_eq!(
        scoped_syncs_per_step, 1,
        "a TimestepScope must perform exactly one metadata sync per timestep"
    );
    assert_eq!(
        scoped_txs, scope_steps as u64,
        "a TimestepScope must land each step's execution rows in one transaction"
    );

    // The refactor's core invariant: after warmup, the typed hot path
    // never re-parses, never falls back to a full scan — and formats
    // zero SQL text (no string ever reaches the engine).
    assert_eq!(stats.parse_misses, 0, "typed path re-parsed: {stats:?}");
    assert_eq!(
        stats.sql_texts, 0,
        "typed path formatted/handled SQL text: {stats:?}"
    );
    assert_eq!(
        stats.full_scans, 0,
        "typed path fell back to full scans: {stats:?}"
    );
    assert_eq!(
        stats.index_scans, lookups,
        "every lookup must probe the index: {stats:?}"
    );

    // ---- Durability: WAL commits, group commit, recovery replay ----
    // File-backed: every autocommit INSERT is a redo append plus a
    // group-committed fsync — the durable metadata commit rate a crash
    // can never roll back past.
    let wal_dir = tempfile::tempdir().expect("wal tempdir");
    let durable_commits: u64 = 512;
    let ins_durable = Insert::<ExecutionRow>::prepared();
    let (durable_commit_ops, wal_bytes_per_commit, wal_fsyncs) = {
        let db = Database::open(wal_dir.path()).expect("open durable database");
        db.exec_stmt(&ExecutionRow::TABLE.create_table(), &[])
            .unwrap();
        let bytes_before = db.wal_appended_bytes();
        let ops = ops_per_sec(durable_commits, |i| {
            db.exec_stmt(
                &ins_durable,
                &[
                    Value::Int(1),
                    Value::from("p"),
                    Value::Int(i as i64),
                    Value::Int(i as i64 * 512),
                    Value::from("f.dat"),
                ],
            )
            .unwrap();
        });
        let per_commit = (db.wal_appended_bytes() - bytes_before) as f64 / durable_commits as f64;
        (ops, per_commit, db.stats().wal_fsyncs)
    };
    assert!(
        wal_fsyncs >= durable_commits,
        "single-threaded autocommits must fsync per commit"
    );

    // Crash recovery: reopen the directory and replay the whole log.
    let recovery_start = Instant::now();
    let recovered = Database::open(wal_dir.path()).expect("recover durable database");
    let recovery_secs = recovery_start.elapsed().as_secs_f64().max(1e-9);
    let rinfo = recovered.recovery_info().expect("durable database");
    let recovery_replay_txs = rinfo.replayed_txs as f64 / recovery_secs;
    let count_execs = Query::<ExecutionRow>::all().count().compile();
    assert_eq!(
        recovered.exec_stmt(&count_execs, &[]).unwrap().scalar(),
        Some(&Value::Int(durable_commits as i64)),
        "recovery must replay every committed insert"
    );

    // Group commit, deterministically: a backend whose fsync takes 10ms
    // forces concurrent committers to pile onto one leader flush, so
    // `group_commit_batched` counts followers that rode a shared fsync.
    #[derive(Debug)]
    struct SlowSync(MemStorage);
    impl WalStorage for SlowSync {
        fn append(&mut self, bytes: &[u8]) -> DbResult<()> {
            self.0.append(bytes)
        }
        fn sync(&mut self) -> DbResult<()> {
            std::thread::sleep(std::time::Duration::from_millis(10));
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
        fn install_snapshot(&mut self, bytes: &[u8]) -> DbResult<()> {
            self.0.install_snapshot(bytes)
        }
    }
    let (mem, _mem_handle) = MemStorage::new();
    let slow_db =
        Arc::new(Database::open_with_storage(Box::new(SlowSync(mem))).expect("open slow-sync db"));
    slow_db
        .exec_stmt(&ExecutionRow::TABLE.create_table(), &[])
        .unwrap();
    let committers = 4;
    let handles: Vec<_> = (0..committers)
        .map(|t| {
            let db = Arc::clone(&slow_db);
            let ins = Insert::<ExecutionRow>::prepared();
            std::thread::spawn(move || {
                db.exec_stmt(
                    &ins,
                    &[
                        Value::Int(t),
                        Value::from("p"),
                        Value::Int(t),
                        Value::Int(0),
                        Value::from("f.dat"),
                    ],
                )
                .unwrap();
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let group_commit_batched = slow_db.stats().group_commit_batched;
    assert!(
        group_commit_batched >= 1,
        "concurrent committers must share at least one fsync (batched = {group_commit_batched})"
    );

    println!("# bench_metadb: rows={rows} lookups={lookups}");
    for s in &sections {
        println!(
            "{:<16} stringly={:>12.0} ops/s   typed+indexed={:>12.0} ops/s   speedup={:>6.1}x",
            s.name,
            s.cold,
            s.prepared,
            s.prepared / s.cold
        );
    }
    println!(
        "range_window     scan={range_baseline:>12.0} ops/s   ordered-index={range_lookup:>12.0} ops/s   speedup={range_speedup:>6.1}x"
    );
    println!("composite_probe  {composite_probe:>12.0} ops/s (full (runid, timestep) key)");
    println!(
        "top-k stream     {topk:>12.0} ops/s ({} ordered scans, {} sorts avoided, {hot_path_sorts} sorts)",
        topk_stats.plan_ordered_scans, topk_stats.sorts_avoided
    );
    println!("next_runid       {next_runid:>12.0} ops/s (MAX fast path)");
    println!(
        "filter_eval      ast={filter_eval_ast_ops:>12.0} rows/s   compiled={filter_eval_ops:>12.0} rows/s   speedup={filter_eval_speedup:>6.1}x"
    );
    println!(
        "joins            merge={merge_join_ops:>10.0} ops/s   inl={inl_join_ops:>10.0} ops/s \
         ({} merges, {} probes, {} hash builds, {ast_walks_hot_path} ast walks)",
        join_stats.join_merge_joins, join_stats.join_index_probes, join_stats.join_hash_builds
    );
    println!("mixed_rw         {mixed_rw:>12.0} pairs/s (insert+lookup, incremental maps)");
    println!(
        "concurrent reads {concurrent_read_speedup:>11.2}x aggregate over 1 thread \
         ({read_threads} threads, {cores} cores)"
    );
    println!(
        "tx rollback      {tx_rows_undone} rows undone for {tx_rows_touched} touched \
         (table: {table_rows} rows); small tx cycles {small_tx:.0} ops/s"
    );
    println!(
        "scoped writes    {scoped_syncs_per_step} sync/timestep ({scope_datasets} datasets), {scoped_txs} txs / {scope_steps} steps"
    );
    println!(
        "durable commits  {durable_commit_ops:>12.0} ops/s ({wal_bytes_per_commit:.0} wal bytes/commit, \
         {wal_fsyncs} fsyncs)"
    );
    println!(
        "recovery replay  {recovery_replay_txs:>12.0} txs/s ({} txs, {} records)",
        rinfo.replayed_txs, rinfo.replayed_records
    );
    println!("group commit     {group_commit_batched} followers rode a shared fsync ({committers} committers)");

    // Machine-readable trajectory point.
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"rows\": {rows},\n"));
    for s in &sections {
        json.push_str(&format!(
            "  \"{0}_cold_ops_per_sec\": {1:.1},\n  \"{0}_prepared_ops_per_sec\": {2:.1},\n",
            s.name, s.cold, s.prepared
        ));
    }
    json.push_str(&format!(
        "  \"range_lookup_ops_per_sec\": {range_lookup:.1},\n  \"range_baseline_ops_per_sec\": {range_baseline:.1},\n  \"range_speedup\": {range_speedup:.1},\n"
    ));
    json.push_str(&format!(
        "  \"composite_probe_ops_per_sec\": {composite_probe:.1},\n  \"topk_stream_ops_per_sec\": {topk:.1},\n"
    ));
    json.push_str(&format!(
        "  \"plan_point_probes\": {},\n  \"plan_range_probes\": {},\n  \"plan_ordered_scans\": {},\n  \"sorts_avoided\": {},\n  \"hot_path_sorts\": {hot_path_sorts},\n",
        point_stats.plan_point_probes,
        range_stats.plan_range_probes,
        topk_stats.plan_ordered_scans,
        topk_stats.sorts_avoided
    ));
    json.push_str(&format!("  \"next_runid_ops_per_sec\": {next_runid:.1},\n"));
    json.push_str(&format!(
        "  \"filter_eval_ops_per_sec\": {filter_eval_ops:.1},\n  \"filter_eval_ast_ops_per_sec\": {filter_eval_ast_ops:.1},\n  \"filter_eval_speedup\": {filter_eval_speedup:.1},\n"
    ));
    json.push_str(&format!(
        "  \"join_ops_per_sec\": {merge_join_ops:.1},\n  \"join_inl_ops_per_sec\": {inl_join_ops:.1},\n"
    ));
    json.push_str(&format!(
        "  \"join_merge_joins\": {},\n  \"join_index_probes\": {},\n  \"join_hash_builds\": {},\n  \"ast_walks_hot_path\": {ast_walks_hot_path},\n  \"exprs_compiled\": {exprs_compiled_joins},\n",
        join_stats.join_merge_joins,
        join_stats.join_index_probes,
        join_stats.join_hash_builds
    ));
    json.push_str(&format!(
        "  \"mixed_rw_lookup_ops_per_sec\": {mixed_rw:.1},\n"
    ));
    // `gate_armed` records whether the ≥2x scaling gate actually
    // applied on this machine: on fewer cores than reader threads the
    // speedup number is a liveness check, not a scaling measurement,
    // and must not be read as a regression.
    json.push_str(&format!(
        "  \"concurrent_read_speedup\": {concurrent_read_speedup:.2},\n  \"concurrent_read_gate_armed\": {},\n  \"concurrent_read_threads\": {read_threads},\n  \"concurrent_read_cores\": {cores},\n",
        cores >= read_threads
    ));
    json.push_str(&format!(
        "  \"tx_rows_touched\": {tx_rows_touched},\n  \"tx_rows_undone\": {tx_rows_undone},\n  \"small_tx_rollback_ops_per_sec\": {small_tx:.1},\n"
    ));
    json.push_str(&format!(
        "  \"scoped_syncs_per_timestep\": {scoped_syncs_per_step},\n  \"scoped_store_tx_per_timestep\": {},\n",
        scoped_txs / scope_steps as u64
    ));
    json.push_str(&format!(
        "  \"durable_commit_ops_per_sec\": {durable_commit_ops:.1},\n  \"wal_bytes_per_commit\": {wal_bytes_per_commit:.1},\n  \"recovery_replay_txs_per_sec\": {recovery_replay_txs:.1},\n  \"group_commit_batched\": {group_commit_batched},\n"
    ));
    json.push_str(&format!(
        "  \"parse_misses_hot_path\": {},\n  \"full_scans_hot_path\": {},\n  \"typed_sql_strings_formatted\": {}\n}}\n",
        stats.parse_misses, stats.full_scans, stats.sql_texts
    ));
    std::fs::write("BENCH_metadb.json", json).expect("write BENCH_metadb.json");
    println!("wrote BENCH_metadb.json");
}
