//! Tour of the metadata layer: the `MetadataStore` trait over the six
//! SDM tables, typed statements compiled once (what PR 4 replaced the
//! stringly SQL surface with), raw SQL at the embedded-engine level,
//! and durability: a write-ahead log that a reopened database replays —
//! what MySQL did for the paper's SDM.
//!
//! Run: `cargo run --example metadb_tour`

use std::sync::Arc;

use sdm::core::schema::{ExecutionCol, ExecutionRow};
use sdm::core::{MetadataStore, RunRecord, SqlStore};
use sdm::metadb::stmt::{param, Query, TypedColumn};
use sdm::metadb::{Database, Value};

fn main() {
    let dir = tempfile::tempdir().unwrap();
    let db = Arc::new(Database::open(dir.path()).unwrap());
    let store = SqlStore::new(Arc::clone(&db));

    // The six tables of Figure 4, plus secondary indexes on the hot
    // lookup columns.
    store.ensure_schema().unwrap();
    println!("tables created: run, access_pattern, execution, import, index, index_history");

    // A run writes two datasets over three checkpoints (Level 3: one
    // file, offsets tracked per write).
    let runid = store.allocate_runid("fun3d").unwrap();
    store
        .record_run(&RunRecord {
            runid,
            application: "fun3d".into(),
            dimension: 3,
            problem_size: 2_000_000,
            num_timesteps: 3,
            date: (2001, 2, 20),
            time: (14, 30),
        })
        .unwrap();
    for ds in ["p", "q"] {
        store
            .record_access_pattern(runid, ds, "DOUBLE", "ROW_MAJOR", "IRREGULAR", 2_000_000)
            .unwrap();
    }
    let mut offset = 0i64;
    for t in 0..3 {
        for ds in ["p", "q"] {
            store
                .record_execution(runid, ds, t, offset, "fun3d.g0.dat")
                .unwrap();
            offset += 2_000_000 * 8;
        }
    }

    // Ad-hoc queries are typed statements too: built fluently over the
    // schema's column enums, compiled once, and replayed with fresh
    // parameters — no SQL text is ever formatted or parsed.
    let p_writes = Query::<ExecutionRow>::filter(
        ExecutionCol::Runid
            .eq(param(0))
            .and(ExecutionCol::Dataset.eq(param(1))),
    )
    .select(&[ExecutionCol::Timestep, ExecutionCol::FileOffset])
    .order_by(ExecutionCol::Timestep)
    .compile();
    let rs = store
        .run(&p_writes, &[Value::Int(runid), Value::from("p")])
        .unwrap();
    println!("\nwrites of dataset p (by timestep):");
    for row in &rs.rows {
        println!("  t={} offset={}", row[0], row[1]);
    }
    assert_eq!(rs.len(), 3);
    let latest = Query::<ExecutionRow>::filter(ExecutionCol::Runid.eq(param(0)))
        .max(ExecutionCol::Timestep)
        .compile();
    let rs = store.run(&latest, &[Value::Int(runid)]).unwrap();
    println!("latest timestep: {}", rs.rows[0][0]);
    assert_eq!(rs.scalar(), Some(&Value::Int(2)));
    let stats = db.stats();
    println!(
        "engine: {} SQL texts parsed; scans: {} indexed / {} full",
        stats.parse_misses, stats.index_scans, stats.full_scans
    );

    // History registry: key by (problem_size, nprocs).
    store
        .record_index_registry(18_000_000, 64, 3, "fun3d.hist.18M.64")
        .unwrap();
    match store.lookup_index_registry(18_000_000, 64).unwrap() {
        Some(f) => println!("\nhistory hit for (18M, 64): {f}"),
        None => unreachable!(),
    }
    assert!(store
        .lookup_index_registry(18_000_000, 32)
        .unwrap()
        .is_none());
    println!("history miss for (18M, 32): fresh distribution required");

    // Persistence: metadata must survive across runs. Close the
    // database and reopen its directory; recovery replays the log.
    drop(store);
    drop(db);
    let db2 = Database::open(dir.path()).unwrap();
    #[expect(
        clippy::disallowed_methods,
        reason = "the tour shows raw SQL at the embedded-engine level"
    )]
    let n = db2
        .exec("SELECT * FROM execution_table", &[])
        .unwrap()
        .len();
    println!("\nreopened database: {n} execution rows survive");
    assert_eq!(n, 6);
    println!("OK");
}
