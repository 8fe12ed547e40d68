//! Statement execution.

use crate::catalog::Catalog;
use crate::error::{DbError, DbResult};
use crate::schema::{Column, Schema};
use crate::sql::ast::{Operand, Projection, Statement};
use crate::table::{Row, Table};
use crate::undo::{UndoLog, UndoRecord};
use crate::value::Value;
use crate::wal::record::WalAppender;

/// Result of executing a statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// SELECT result: projected column names + rows.
    Rows {
        /// Projected column names.
        columns: Vec<String>,
        /// Result rows.
        rows: Vec<Row>,
    },
    /// Row count affected by INSERT/UPDATE/DELETE, or 0 for DDL.
    Affected(usize),
}

/// Per-connection execution counters; exposed by `Database::stats` so
/// tests and benches can observe parse reuse, index usage, and row
/// volumes per query shape.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DbStats {
    /// SELECTs answered by a full table scan.
    pub full_scans: u64,
    /// SELECTs answered through one secondary-index probe: the rows
    /// whose leading key columns equal the WHERE clause's `col = ?`
    /// pins (the whole key or a prefix of it).
    pub index_scans: u64,
    /// SQL texts lexed and parsed (`Database::parse`, and so every
    /// `Database::exec`). Typed statements run through
    /// `Database::exec_stmt` never move this counter.
    pub parse_misses: u64,
    /// Source rows visited by SELECTs (index candidates for probes,
    /// whole tables for scans).
    pub rows_scanned: u64,
    /// Rows returned by SELECTs after filtering/aggregation/limit.
    pub rows_returned: u64,
    /// Successfully committed `Database::transaction`s (autocommitted
    /// statements are not counted). Batching layers (`CachedStore`)
    /// assert on this: a scoped timestep must land all its execution
    /// inserts in exactly one transaction.
    pub transactions: u64,
    /// Row images replayed by rollbacks. Transactions log row-level
    /// undo records instead of snapshotting the catalog, so after a
    /// rollback this counter equals the rows the transaction *touched*
    /// — the bench asserts it is independent of table size.
    pub tx_rows_undone: u64,
    /// Always 0: a WHERE clause is a list of equality pins, matched
    /// directly, and nothing is compiled. The field stays because the
    /// end-to-end benchmark constructs it.
    pub exprs_compiled: u64,
    /// Always 0: there is one way to match a row, so there is no
    /// fallback to count. The field stays because the end-to-end
    /// benchmark reports it.
    pub ast_eval_fallbacks: u64,
    /// Redo records appended to the write-ahead log (durable databases
    /// only; always 0 for in-memory ones).
    pub wal_appends: u64,
    /// WAL fsyncs issued: one per commit that logged anything.
    pub wal_fsyncs: u64,
    /// Always 0: one lock serialises commits, so no commit is made
    /// durable by another's fsync. The field stays because the
    /// end-to-end benchmark reports it.
    pub group_commit_batched: u64,
    /// Checkpoints taken (snapshot installed + log truncated).
    pub checkpoints: u64,
}

/// The value `op` stands for under `params`.
fn value_of<'a>(op: &'a Operand, params: &'a [Value]) -> DbResult<&'a Value> {
    match op {
        Operand::Value(v) => Ok(v),
        Operand::Param(i) => params.get(*i).ok_or_else(|| {
            DbError::Arity(format!(
                "missing parameter {} (got {})",
                i + 1,
                params.len()
            ))
        }),
    }
}

/// `(column, operand)` pairs (WHERE pins or SET assignments) resolved
/// once per execution: each column's position in `schema` and its
/// value. An unknown column fails here, before any row is read.
fn resolve<'a>(
    schema: &Schema,
    pairs: &'a [(String, Operand)],
    params: &'a [Value],
) -> DbResult<Vec<(usize, &'a Value)>> {
    pairs
        .iter()
        .map(|(c, op)| Ok((schema.index_of(c)?, value_of(op, params)?)))
        .collect()
}

/// The one access path of SELECT, UPDATE and DELETE: the candidate
/// rows of `t` for `pins`, in ascending position, or `None` to scan
/// every row.
///
/// It probes the index whose leading columns the most pins cover (the
/// first declared index on a tie) with those pins as the key prefix; a
/// NULL pin matches nothing. Candidates are a superset of the matching
/// rows, and [`matching`] re-checks each against every pin.
fn candidates(t: &Table, pins: &[(usize, &Value)]) -> Option<Vec<usize>> {
    let mut best: Option<(usize, Vec<&Value>)> = None;
    for (i, def) in t.indexes().iter().enumerate() {
        let prefix: Vec<&Value> = def
            .columns
            .iter()
            .map_while(|c| {
                let c = t.schema.index_of(c).ok()?;
                pins.iter().find(|&&(p, _)| p == c).map(|&(_, v)| v)
            })
            .collect();
        if prefix.len() > best.as_ref().map_or(0, |(_, b)| b.len()) {
            best = Some((i, prefix));
        }
    }
    let (i, prefix) = best?;
    Some(t.probe_prefix(i, &prefix))
}

/// The ascending positions of the rows of `t` every pin holds for,
/// under SQL equality ([`Value::sql_eq`]): a NULL or NaN on either side
/// matches nothing, `-0.0 = 0.0` and `2 = 2.0`. Only the
/// [`candidates`] are visited when an index applies. SELECTs pass their
/// `stats`, which count the access and the rows visited.
fn matching(t: &Table, pins: &[(usize, &Value)], stats: Option<&mut DbStats>) -> Vec<usize> {
    let visit = candidates(t, pins);
    if let Some(stats) = stats {
        match &visit {
            Some(c) => {
                stats.index_scans += 1;
                stats.rows_scanned += c.len() as u64;
            }
            None => {
                stats.full_scans += 1;
                stats.rows_scanned += t.len() as u64;
            }
        }
    }
    let rows = t.rows();
    visit
        .unwrap_or_else(|| (0..t.len()).collect())
        .into_iter()
        .filter(|&p| {
            pins.iter()
                .all(|&(i, v)| rows[p][i].sql_eq(v) == Some(true))
        })
        .collect()
}

/// Execute a read-only statement against a **shared** catalog borrow:
/// SELECTs — index probes included, since the maps are maintained
/// incrementally rather than rebuilt on first probe — never need `&mut`.
///
/// The pipeline over one table: the matching rows (an index probe or a
/// scan, then the pins) → ORDER BY (a stable sort in the index key
/// order, [`Value::key_cmp`]: NULL < numbers < NaN < text, ties keeping
/// scan order whatever the access path) → the projection.
pub fn execute_read(
    catalog: &Catalog,
    stmt: &Statement,
    params: &[Value],
    stats: &mut DbStats,
) -> DbResult<Outcome> {
    let Statement::Select {
        proj,
        table,
        filter,
        order_by,
    } = stmt
    else {
        return Err(DbError::Tx(
            "execute_read only accepts SELECT statements".into(),
        ));
    };
    let t = catalog.get(table)?;
    let schema = &t.schema;
    let pins = resolve(schema, filter, params)?;
    let keys = order_by
        .iter()
        .map(|c| schema.index_of(c))
        .collect::<DbResult<Vec<_>>>()?;
    let cols = match proj {
        Projection::All => (0..schema.arity()).collect(),
        Projection::Cols(cs) => cs
            .iter()
            .map(|c| schema.index_of(c))
            .collect::<DbResult<_>>()?,
        Projection::Count => Vec::new(),
        Projection::Max(c) => vec![schema.index_of(c)?],
    };
    let all = t.rows();
    let mut hits = matching(t, &pins, Some(stats));
    if !keys.is_empty() {
        hits.sort_by(|&a, &b| {
            keys.iter()
                .map(|&k| all[a][k].key_cmp(&all[b][k]))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
    }
    let project = || {
        hits.iter()
            .map(|&p| cols.iter().map(|&i| all[p][i].clone()).collect())
            .collect()
    };
    let (columns, rows) = match proj {
        Projection::All => (
            schema.columns.iter().map(|c| c.name.clone()).collect(),
            project(),
        ),
        Projection::Cols(cs) => (cs.clone(), project()),
        Projection::Count => (
            vec!["count(*)".to_string()],
            vec![vec![Value::Int(hits.len() as i64)]],
        ),
        // NULL and NaN never win (NaN compares as unknown in SQL); the
        // first row holding the largest key is kept.
        Projection::Max(c) => {
            let max = hits
                .iter()
                .map(|&p| &all[p][cols[0]])
                .filter(|v| !v.is_null() && !v.as_f64().is_some_and(f64::is_nan))
                .reduce(|best, v| if v.key_cmp(best).is_gt() { v } else { best });
            (
                vec![format!("max({c})")],
                vec![vec![max.cloned().unwrap_or(Value::Null)]],
            )
        }
    };
    stats.rows_returned += rows.len() as u64;
    Ok(Outcome::Rows { columns, rows })
}

/// Execute a mutating statement, appending row-level records to `undo`
/// (an autocommit passes a log it then throws away). Undo images are
/// captured by move (displaced rows, dropped tables) — a transaction
/// touching k rows logs O(k) work regardless of table size.
///
/// `wal` is the durable twin: when supplied, each mutation encodes its
/// redo record (post-images, mirroring the undo pre-images) into the
/// appender **before** it applies, and only for mutations that will
/// actually apply — every site pre-validates so the log never carries a
/// record whose mutation then failed. The `Database` writes the filled
/// buffer to the log when the transaction commits.
pub(crate) fn execute_mutation(
    catalog: &mut Catalog,
    stmt: &Statement,
    params: &[Value],
    undo: &mut UndoLog,
    wal: Option<&mut WalAppender>,
) -> DbResult<Outcome> {
    match stmt {
        Statement::CreateTable {
            name,
            columns,
            if_not_exists,
        } => {
            let schema = Schema::new(
                columns
                    .iter()
                    .map(|(n, t)| Column {
                        name: n.clone(),
                        ctype: *t,
                    })
                    .collect(),
            )?;
            // Redo before apply: log only when the create will happen
            // (an existing table either errors or is a no-op).
            if !catalog.contains(name) {
                if let Some(wal) = wal {
                    wal.create_table(name, &schema);
                }
            }
            let created = catalog.create_table(name, schema, *if_not_exists)?;
            if created {
                undo.push(UndoRecord::CreateTable { name: name.clone() });
            }
            Ok(Outcome::Affected(0))
        }
        Statement::DropTable { name } => {
            if catalog.contains(name) {
                if let Some(wal) = wal {
                    wal.drop_table(name);
                }
            }
            let dropped = catalog.remove_table(name)?;
            undo.push(UndoRecord::DropTable {
                name: name.clone(),
                table: Box::new(dropped),
            });
            Ok(Outcome::Affected(0))
        }
        Statement::CreateIndex {
            name,
            table,
            columns,
        } => {
            let cols: Vec<&str> = columns.iter().map(String::as_str).collect();
            let t = catalog.get_mut(table)?;
            // Pre-validate (mirroring `Table::create_index`) so the
            // redo record is only logged for a create that will apply;
            // invalid requests fall through to the canonical error.
            let will_create = !columns.is_empty()
                && columns.iter().all(|c| t.schema.index_of(c).is_ok())
                && !t
                    .indexes()
                    .iter()
                    .any(|i| i.name.eq_ignore_ascii_case(name));
            if will_create {
                if let Some(wal) = wal {
                    wal.create_index(table, name, columns);
                }
            }
            t.create_index(name, &cols)?;
            undo.push(UndoRecord::CreateIndex {
                table: table.clone(),
                index: name.clone(),
            });
            Ok(Outcome::Affected(0))
        }
        Statement::DropIndex { name, table } => {
            let t = catalog.get_mut(table)?;
            let def = t
                .indexes()
                .iter()
                .find(|i| i.name.eq_ignore_ascii_case(name))
                .cloned();
            if def.is_some() {
                if let Some(wal) = wal {
                    wal.drop_index(table, name);
                }
            }
            t.drop_index(name)?;
            // `drop_index` succeeded, so `def` is the index it dropped.
            if let Some(def) = def {
                undo.push(UndoRecord::DropIndex {
                    table: table.clone(),
                    def,
                });
            }
            Ok(Outcome::Affected(0))
        }
        Statement::Insert { table, rows } => {
            let prepared = rows
                .iter()
                .map(|row| row.iter().map(|op| value_of(op, params).cloned()).collect())
                .collect::<DbResult<Vec<Row>>>()?;
            let t = catalog.get_mut(table)?;
            let n = prepared.len();
            // Validate + coerce up front, stopping at the first bad row
            // — exactly the prefix the one-at-a-time insert loop used
            // to land — so the redo record can be written before any
            // row applies and still cover only rows that will apply.
            let mut checked: Vec<Row> = Vec::with_capacity(n);
            let mut first_err = None;
            for row in prepared {
                match t.schema.check_row(row) {
                    Ok(row) => checked.push(row),
                    Err(e) => {
                        first_err = Some(e);
                        break;
                    }
                }
            }
            let appended = checked.len();
            if appended > 0 {
                if let Some(wal) = wal {
                    wal.append_rows(table, &checked);
                }
            }
            for row in checked {
                t.insert(row)?;
            }
            // Log however many rows landed, even on a mid-batch type
            // error, so a rollback removes exactly them.
            if appended > 0 {
                undo.push(UndoRecord::Append {
                    table: table.clone(),
                    n: appended,
                });
            }
            match first_err {
                Some(e) => Err(e),
                None => Ok(Outcome::Affected(n)),
            }
        }
        Statement::Update {
            table,
            sets,
            filter,
        } => {
            // Phase 1 (shared borrow): pick the touched rows and build
            // the validated replacement rows.
            let t = catalog.get(table)?;
            let schema = &t.schema;
            let pins = resolve(schema, filter, params)?;
            let sets = resolve(schema, sets, params)?;
            let rows = t.rows();
            let mut updates: Vec<(usize, Row)> = Vec::new();
            for pos in matching(t, &pins, None) {
                let mut new_row = rows[pos].clone();
                for &(i, v) in &sets {
                    let col = &schema.columns[i];
                    if !col.ctype.admits(v) {
                        return Err(DbError::Type(format!(
                            "column {} cannot store {}",
                            col.name,
                            v.type_name()
                        )));
                    }
                    new_row[i] = col.ctype.coerce(v.clone());
                }
                updates.push((pos, new_row));
            }
            // Phase 2 (exclusive borrow): swap the new rows in; the
            // displaced originals are the undo images, the replacements
            // (already validated + coerced) are the redo images.
            let n = updates.len();
            if n > 0 {
                if let Some(wal) = wal {
                    wal.update_rows(table, &updates);
                }
            }
            let old = catalog.get_mut(table)?.apply_updates(updates);
            if n > 0 {
                undo.push(UndoRecord::Update {
                    table: table.clone(),
                    old,
                });
            }
            Ok(Outcome::Affected(n))
        }
        Statement::Delete { table, filter } => {
            if filter.is_empty() {
                // No WHERE: take every row in one sweep (the undo
                // record restores them at their enumerated positions).
                let t = catalog.get_mut(table)?;
                if !t.rows().is_empty() {
                    if let Some(wal) = wal {
                        wal.clear_table(table);
                    }
                }
                let removed = t.clear();
                let n = removed.len();
                if n > 0 {
                    undo.push(UndoRecord::Delete {
                        table: table.clone(),
                        removed: removed.into_iter().enumerate().collect(),
                    });
                }
                return Ok(Outcome::Affected(n));
            }
            let t = catalog.get(table)?;
            let pins = resolve(&t.schema, filter, params)?;
            let positions = matching(t, &pins, None);
            if !positions.is_empty() {
                if let Some(wal) = wal {
                    wal.delete_rows(table, &positions);
                }
            }
            let removed = catalog.get_mut(table)?.delete_at(&positions);
            let n = removed.len();
            if n > 0 {
                undo.push(UndoRecord::Delete {
                    table: table.clone(),
                    removed: positions.into_iter().zip(removed).collect(),
                });
            }
            Ok(Outcome::Affected(n))
        }
        Statement::Select { .. } => Err(DbError::Tx(
            "execute_mutation does not run SELECT statements".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::parse;

    /// Dispatch `stmt` the way `Database` does for an autocommit (the
    /// undo log is thrown away).
    fn execute(
        catalog: &mut Catalog,
        stmt: &Statement,
        params: &[Value],
        stats: &mut DbStats,
    ) -> DbResult<Outcome> {
        match stmt {
            Statement::Select { .. } => execute_read(catalog, stmt, params, stats),
            _ => execute_mutation(catalog, stmt, params, &mut UndoLog::default(), None),
        }
    }

    fn run(catalog: &mut Catalog, sql: &str, params: &[Value]) -> Outcome {
        try_run(catalog, sql, params).unwrap()
    }

    fn try_run(catalog: &mut Catalog, sql: &str, params: &[Value]) -> DbResult<Outcome> {
        execute(
            catalog,
            &parse(sql).unwrap(),
            params,
            &mut DbStats::default(),
        )
    }

    /// `sql`'s rows and the counters its execution moved.
    fn counted(catalog: &mut Catalog, sql: &str, params: &[Value]) -> (Vec<Row>, DbStats) {
        let mut stats = DbStats::default();
        let out = execute(catalog, &parse(sql).unwrap(), params, &mut stats).unwrap();
        (rows_of(out), stats)
    }

    fn rows_of(o: Outcome) -> Vec<Row> {
        match o {
            Outcome::Rows { rows, .. } => rows,
            other => panic!("expected rows, got {other:?}"),
        }
    }

    fn setup() -> Catalog {
        let mut c = Catalog::new();
        run(
            &mut c,
            "CREATE TABLE t (id INT, score DOUBLE, name TEXT)",
            &[],
        );
        run(
            &mut c,
            "INSERT INTO t VALUES (1, 3.5, 'a'), (2, 1.0, 'b'), (3, 9.25, 'c')",
            &[],
        );
        c
    }

    #[test]
    fn select_all() {
        let mut c = setup();
        match run(&mut c, "SELECT * FROM t", &[]) {
            Outcome::Rows { columns, rows } => {
                assert_eq!(columns, vec!["id", "score", "name"]);
                assert_eq!(rows.len(), 3);
            }
            other => panic!("wrong: {other:?}"),
        }
    }

    #[test]
    fn select_where_params() {
        let mut c = setup();
        let rows = rows_of(run(
            &mut c,
            "SELECT name FROM t WHERE id = ?",
            &[Value::Int(2)],
        ));
        assert_eq!(rows, vec![vec![Value::Text("b".into())]]);
    }

    #[test]
    fn delete_where() {
        let mut c = setup();
        let out = run(&mut c, "DELETE FROM t WHERE score = 9.25", &[]);
        assert_eq!(out, Outcome::Affected(1));
        let out = run(
            &mut c,
            "DELETE FROM t WHERE name = ? AND id = 1",
            &[Value::from("a")],
        );
        assert_eq!(out, Outcome::Affected(1));
        let rows = rows_of(run(&mut c, "SELECT id FROM t", &[]));
        assert_eq!(rows, vec![vec![Value::Int(2)]]);
    }

    #[test]
    fn missing_param_errors() {
        let mut c = setup();
        let err = try_run(&mut c, "SELECT * FROM t WHERE id = ?", &[]);
        assert!(matches!(err, Err(DbError::Arity(_))));
    }

    #[test]
    fn type_error_on_bad_insert() {
        let mut c = setup();
        let err = try_run(&mut c, "INSERT INTO t VALUES ('not an int', 0.0, 'x')", &[]);
        assert!(matches!(err, Err(DbError::Type(_))));
    }

    // ---- the pin rules, through an index probe and a scan ----

    /// `CREATE TABLE p (k DOUBLE, tag TEXT)` holding `keys` (tagged by
    /// position), with an index on `k` when `indexed`.
    fn pinned(keys: &[Value], indexed: bool) -> Catalog {
        let mut c = Catalog::new();
        run(&mut c, "CREATE TABLE p (k DOUBLE, tag TEXT)", &[]);
        for (i, k) in keys.iter().enumerate() {
            run(
                &mut c,
                "INSERT INTO p VALUES (?, ?)",
                &[k.clone(), Value::Text(i.to_string())],
            );
        }
        if indexed {
            run(&mut c, "CREATE INDEX pk ON p (k)", &[]);
        }
        c
    }

    /// The tags of the rows `k = probe` matches: the same through the
    /// index and the scan, each taking the access path it should.
    fn tags_pinned_to(keys: &[Value], probe: Value) -> String {
        let sql = "SELECT tag FROM p WHERE k = ?";
        let probe = [probe];
        let (probed, stats) = counted(&mut pinned(keys, true), sql, &probe);
        assert_eq!((stats.index_scans, stats.full_scans), (1, 0));
        let (scanned, stats) = counted(&mut pinned(keys, false), sql, &probe);
        assert_eq!((stats.index_scans, stats.full_scans), (0, 1));
        assert_eq!(probed, scanned, "probe and scan disagree on {probe:?}");
        probed.iter().filter_map(|r| r[0].as_str()).collect()
    }

    #[test]
    fn null_pins_match_nothing() {
        let keys = [Value::Null, Value::Double(1.0), Value::Null];
        assert_eq!(tags_pinned_to(&keys, Value::Null), "");
        assert_eq!(tags_pinned_to(&keys, Value::Double(1.0)), "1");
        // A NULL pin beside a matching one still rejects the row.
        let mut c = pinned(&keys, false);
        let rows = rows_of(run(
            &mut c,
            "SELECT tag FROM p WHERE k = 1 AND tag = NULL",
            &[],
        ));
        assert!(rows.is_empty());
    }

    #[test]
    fn null_comparisons_filter_out() {
        let mut c = setup();
        run(&mut c, "INSERT INTO t VALUES (10, NULL, NULL)", &[]);
        // The NULL cells compare unknown with every value, and unknown
        // rejects the row.
        for (sql, param) in [
            ("SELECT id FROM t WHERE score = ?", Value::Double(1.0)),
            ("SELECT id FROM t WHERE name = ?", Value::from("b")),
            ("SELECT id FROM t WHERE id = 10 AND score = ?", Value::Null),
        ] {
            let rows = rows_of(run(&mut c, sql, &[param]));
            assert!(!rows.contains(&vec![Value::Int(10)]), "{sql}");
        }
    }

    #[test]
    fn nan_and_signed_zero_compare_like_sql() {
        let keys = [
            Value::Double(f64::NAN),
            Value::Double(-0.0),
            Value::Double(0.0),
            Value::Double(2.0),
            Value::Null,
        ];
        // NaN = NaN is unknown, so NaN matches nothing.
        assert_eq!(tags_pinned_to(&keys, Value::Double(f64::NAN)), "");
        // -0.0 = 0.0, either way round, and against Int 0.
        assert_eq!(tags_pinned_to(&keys, Value::Double(0.0)), "12");
        assert_eq!(tags_pinned_to(&keys, Value::Double(-0.0)), "12");
        assert_eq!(tags_pinned_to(&keys, Value::Int(0)), "12");
        // 2 = 2.0.
        assert_eq!(tags_pinned_to(&keys, Value::Int(2)), "3");
        // Text against a number is unknown.
        assert_eq!(tags_pinned_to(&keys, Value::from("2")), "");
    }

    #[test]
    fn unknown_columns_fail_before_any_row_is_read() {
        let mut c = Catalog::new();
        run(&mut c, "CREATE TABLE e (x INT)", &[]);
        for sql in [
            "SELECT x FROM e WHERE nope = 1",
            "SELECT nope FROM e",
            "SELECT MAX(nope) FROM e",
            "SELECT x FROM e ORDER BY nope",
            "UPDATE e SET nope = 1",
            "DELETE FROM e WHERE nope = 1",
        ] {
            assert!(
                matches!(try_run(&mut c, sql, &[]), Err(DbError::NoSuchColumn(_))),
                "{sql}"
            );
        }
    }

    // ---- aggregates ----

    #[test]
    fn count_star_and_column() {
        // COUNT(*) counts rows whatever their NULLs; COUNT(column) is
        // not in the grammar.
        let mut c = setup();
        run(&mut c, "INSERT INTO t VALUES (4, NULL, NULL)", &[]);
        let rows = rows_of(run(&mut c, "SELECT COUNT(*) FROM t", &[]));
        assert_eq!(rows, vec![vec![Value::Int(4)]]);
        assert!(matches!(
            parse("SELECT COUNT(name) FROM t"),
            Err(DbError::Parse(_))
        ));
    }

    #[test]
    fn aggregates_over_empty_table() {
        let mut c = Catalog::new();
        run(&mut c, "CREATE TABLE e (x INT)", &[]);
        let rows = rows_of(run(&mut c, "SELECT COUNT(*) FROM e", &[]));
        assert_eq!(rows, vec![vec![Value::Int(0)]]);
        let rows = rows_of(run(&mut c, "SELECT MAX(x) FROM e", &[]));
        assert_eq!(rows, vec![vec![Value::Null]]);
    }

    #[test]
    fn aggregate_over_empty_table_still_null() {
        // A filter that matches nothing leaves one NULL row, through
        // the probe and the scan alike.
        let mut c = exec_like();
        let (rows, stats) = counted(&mut c, "SELECT MAX(off) FROM e WHERE runid = 99", &[]);
        assert_eq!(rows, vec![vec![Value::Null]]);
        assert_eq!((stats.index_scans, stats.rows_returned), (1, 1));
        let (rows, _) = counted(&mut c, "SELECT COUNT(*) FROM e WHERE off = -1", &[]);
        assert_eq!(rows, vec![vec![Value::Int(0)]]);
    }

    #[test]
    fn bare_column_outside_group_by_rejected() {
        let mut c = setup();
        assert!(matches!(
            parse("SELECT name, COUNT(*) FROM t"),
            Err(DbError::Parse(_))
        ));
        assert!(try_run(&mut c, "SELECT COUNT(*) FROM t", &[]).is_ok());
    }

    #[test]
    fn max_fast_path_matches_generic_answer() {
        let mut c = Catalog::new();
        run(&mut c, "CREATE TABLE r (runid INT)", &[]);
        for i in [3, 9, 1, 7, 9, 2] {
            run(&mut c, "INSERT INTO r VALUES (?)", &[Value::Int(i)]);
        }
        let (rows, stats) = counted(&mut c, "SELECT MAX(runid) FROM r", &[]);
        assert_eq!(rows, vec![vec![Value::Int(9)]]);
        assert_eq!((stats.rows_scanned, stats.rows_returned), (6, 1));
        // Same answer as the last row of the ORDER BY spelling.
        let sorted = rows_of(run(&mut c, "SELECT runid FROM r ORDER BY runid", &[]));
        assert_eq!(sorted.last(), Some(&vec![Value::Int(9)]));
    }

    #[test]
    fn aggregate_fast_path_honors_filter_and_index() {
        let mut c = Catalog::new();
        run(&mut c, "CREATE TABLE t (k INT, v INT)", &[]);
        for i in 0..30 {
            run(
                &mut c,
                "INSERT INTO t VALUES (?, ?)",
                &[Value::Int(i % 3), Value::Int(i)],
            );
        }
        run(&mut c, "CREATE INDEX tk ON t (k)", &[]);
        let k = [Value::Int(1)];
        let (count, stats) = counted(&mut c, "SELECT COUNT(*) FROM t WHERE k = ?", &k);
        assert_eq!(count, vec![vec![Value::Int(10)]]);
        assert_eq!((stats.index_scans, stats.rows_scanned), (1, 10));
        let (max, stats) = counted(&mut c, "SELECT MAX(v) FROM t WHERE k = ?", &k);
        assert_eq!(max, vec![vec![Value::Int(28)]]);
        assert_eq!((stats.index_scans, stats.rows_scanned), (1, 10));
    }

    // ---- index usage ----

    #[test]
    fn index_probe_is_used_and_correct() {
        let mut c = Catalog::new();
        run(&mut c, "CREATE TABLE h (k INT, v TEXT)", &[]);
        for i in 0..50 {
            run(
                &mut c,
                "INSERT INTO h VALUES (?, ?)",
                &[
                    Value::Int(i % 10),
                    Value::from(if i < 20 { "x" } else { "y" }),
                ],
            );
        }
        run(&mut c, "CREATE INDEX hk ON h (k)", &[]);
        let (rows, stats) = counted(
            &mut c,
            "SELECT COUNT(*) FROM h WHERE k = ?",
            &[Value::Int(3)],
        );
        assert_eq!(rows, vec![vec![Value::Int(5)]]);
        assert_eq!((stats.full_scans, stats.index_scans), (0, 1));
        assert_eq!(
            stats.rows_scanned, 5,
            "probe visits only the candidate bucket"
        );
        // A pin no index leads with scans.
        let (rows, stats) = counted(&mut c, "SELECT COUNT(*) FROM h WHERE v = 'y'", &[]);
        assert_eq!(rows, vec![vec![Value::Int(30)]]);
        assert_eq!((stats.full_scans, stats.rows_scanned), (1, 50));
    }

    #[test]
    fn index_probe_respects_extra_conjuncts() {
        let mut c = Catalog::new();
        run(&mut c, "CREATE TABLE h (k INT, v INT)", &[]);
        run(
            &mut c,
            "INSERT INTO h VALUES (1, 10), (1, 20), (2, 20)",
            &[],
        );
        run(&mut c, "CREATE INDEX hk ON h (k)", &[]);
        let rows = rows_of(run(&mut c, "SELECT v FROM h WHERE k = 1 AND v = 20", &[]));
        assert_eq!(rows, vec![vec![Value::Int(20)]]);
    }

    // ---- composite indexes ----

    /// 4 runs × 25 timesteps with a `(runid, ts)` composite index.
    fn exec_like() -> Catalog {
        let mut c = Catalog::new();
        run(&mut c, "CREATE TABLE e (runid INT, ts INT, off INT)", &[]);
        for ts in 0..25 {
            for runid in 0..4 {
                run(
                    &mut c,
                    "INSERT INTO e VALUES (?, ?, ?)",
                    &[
                        Value::Int(runid),
                        Value::Int(ts),
                        Value::Int(runid * 1000 + ts),
                    ],
                );
            }
        }
        run(&mut c, "CREATE INDEX e_rt ON e (runid, ts)", &[]);
        c
    }

    #[test]
    fn full_key_equality_is_a_point_probe() {
        let mut c = exec_like();
        let (rows, stats) = counted(
            &mut c,
            "SELECT off FROM e WHERE ts = ? AND runid = ?",
            &[Value::Int(7), Value::Int(3)],
        );
        assert_eq!(rows, vec![vec![Value::Int(3007)]]);
        assert_eq!(
            (stats.index_scans, stats.full_scans),
            (1, 0),
            "conjunct order does not matter for the composite key"
        );
        assert_eq!(stats.rows_scanned, 1);
    }

    #[test]
    fn null_bound_short_circuits_to_empty() {
        let mut c = exec_like();
        // A NULL literal pin on the key's tail: the runid prefix's rows
        // are candidates, and the NULL pin rejects every one.
        let out = run(
            &mut c,
            "SELECT ts FROM e WHERE runid = 1 AND off = NULL",
            &[],
        );
        assert!(rows_of(out).is_empty(), "NULL comparison matches nothing");
        // A NULL pin inside the probed key probes no row at all.
        let (rows, stats) = counted(
            &mut c,
            "SELECT ts FROM e WHERE runid = 1 AND ts = ?",
            &[Value::Null],
        );
        assert!(rows.is_empty(), "NULL pin matches nothing");
        assert_eq!((stats.index_scans, stats.rows_scanned), (1, 0));
    }

    #[test]
    fn prefix_probe_without_range_bounds_scans_the_prefix() {
        let mut c = exec_like();
        let (rows, stats) = counted(
            &mut c,
            "SELECT COUNT(*) FROM e WHERE runid = ?",
            &[Value::Int(2)],
        );
        assert_eq!(rows, vec![vec![Value::Int(25)]]);
        assert_eq!(
            (stats.full_scans, stats.index_scans),
            (0, 1),
            "leading-column equality rides the composite as a prefix walk"
        );
        assert_eq!(stats.rows_scanned, 25);
    }

    #[test]
    fn streamed_order_matches_sorted_order() {
        // With and without an index on the sort key: the same rows in
        // the same order, ties in scan order.
        let build = |indexed: bool| {
            let mut c = Catalog::new();
            run(&mut c, "CREATE TABLE s (k INT, tag TEXT)", &[]);
            for (k, tag) in [(2, "a"), (1, "b"), (2, "c"), (1, "d"), (2, "e")] {
                run(
                    &mut c,
                    "INSERT INTO s VALUES (?, ?)",
                    &[Value::Int(k), Value::Text(tag.into())],
                );
            }
            if indexed {
                run(&mut c, "CREATE INDEX sk ON s (k)", &[]);
            }
            c
        };
        for (sql, tags) in [
            ("SELECT tag FROM s ORDER BY k", "bdace"),
            ("SELECT tag FROM s WHERE k = 2 ORDER BY k", "ace"),
            ("SELECT tag FROM s ORDER BY k, tag", "bdace"),
        ] {
            let want: Vec<Row> = tags
                .chars()
                .map(|t| vec![Value::Text(t.to_string())])
                .collect();
            assert_eq!(rows_of(run(&mut build(true), sql, &[])), want, "{sql}");
            assert_eq!(rows_of(run(&mut build(false), sql, &[])), want, "{sql}");
        }
    }

    #[test]
    fn min_max_peek_reads_index_edges_without_rows() {
        let mut c = exec_like();
        run(
            &mut c,
            "INSERT INTO e VALUES (1, NULL, NULL), (9, NULL, NULL)",
            &[],
        );
        // MAX skips NULLs; the probe visits the runid prefix.
        let (rows, stats) = counted(
            &mut c,
            "SELECT MAX(ts) FROM e WHERE runid = ?",
            &[Value::Int(1)],
        );
        assert_eq!(rows, vec![vec![Value::Int(24)]]);
        assert_eq!(
            (stats.index_scans, stats.rows_scanned),
            (1, 26),
            "one probe of the runid prefix, NULL-tail row included"
        );
        // An all-NULL column aggregates to NULL.
        let out = run(&mut c, "SELECT MAX(ts) FROM e WHERE runid = 9", &[]);
        assert_eq!(rows_of(out), vec![vec![Value::Null]]);
        // Unfiltered MAX (run_table's AllocMax) scans, index or not.
        run(&mut c, "CREATE INDEX e_ts ON e (ts)", &[]);
        let (rows, stats) = counted(&mut c, "SELECT MAX(ts) FROM e", &[]);
        assert_eq!(rows, vec![vec![Value::Int(24)]]);
        assert_eq!(stats.full_scans, 1);
    }
}
