//! Expression evaluation and statement execution.

use std::cmp::Ordering;

use crate::catalog::Catalog;
use crate::error::{DbError, DbResult};
use crate::eval::{eval_ast, truthy};
use crate::schema::{Column, Schema};
use crate::sql::ast::{AggFunc, BinOp, Expr, OrderBy, SelExpr, SelectItem, Statement};
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
    /// Always 0. Expressions are evaluated by one AST walk
    /// ([`crate::eval::eval_ast`]) and nothing is compiled; the field
    /// stays because the end-to-end benchmark constructs it.
    pub exprs_compiled: u64,
    /// Always 0: the AST walk is the only evaluator, so there is no
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

/// Column-name resolution context for expression evaluation.
///
/// `Schema` resolves plain names; a table with its name resolves
/// qualified `table.column` names too.
pub trait Resolve {
    /// Index of `name` in a row, or an error naming the problem.
    fn col_index(&self, name: &str) -> DbResult<usize>;
}

impl Resolve for Schema {
    fn col_index(&self, name: &str) -> DbResult<usize> {
        self.index_of(name)
    }
}

/// A single table with its name: resolves both `col` and `table.col`.
struct TableRel<'a> {
    table: &'a str,
    schema: &'a Schema,
}

impl Resolve for TableRel<'_> {
    fn col_index(&self, name: &str) -> DbResult<usize> {
        match name.split_once('.') {
            None => self.schema.index_of(name),
            Some((t, c)) if t.eq_ignore_ascii_case(self.table) => self.schema.index_of(c),
            Some(_) => Err(DbError::NoSuchColumn(name.to_string())),
        }
    }
}

/// Whether predicate `pred` is SQL-true for `row`: NULL (unknown) and
/// false both reject the row.
fn holds(pred: &Expr, res: &impl Resolve, row: &Row, params: &[Value]) -> DbResult<bool> {
    Ok(truthy(&eval_ast(pred, res, row, params)?) == Some(true))
}

/// Compute one aggregate over the given column values.
fn aggregate(func: AggFunc, vals: &[&Value]) -> Value {
    match func {
        AggFunc::Count => Value::Int(vals.iter().filter(|v| !v.is_null()).count() as i64),
        AggFunc::Sum => {
            let mut int_sum = 0i64;
            let mut dbl_sum = 0.0f64;
            let mut any = false;
            let mut all_int = true;
            for v in vals.iter().filter(|v| !v.is_null()) {
                any = true;
                match v {
                    Value::Int(i) => {
                        int_sum = int_sum.wrapping_add(*i);
                        dbl_sum += *i as f64;
                    }
                    Value::Double(d) => {
                        all_int = false;
                        dbl_sum += d;
                    }
                    _ => all_int = false, // text sums to 0 contribution, MySQL-ish leniency
                }
            }
            match (any, all_int) {
                (false, _) => Value::Null,
                (true, true) => Value::Int(int_sum),
                (true, false) => Value::Double(dbl_sum),
            }
        }
        AggFunc::Avg => {
            let nums: Vec<f64> = vals.iter().filter_map(|v| v.as_f64()).collect();
            if nums.is_empty() {
                Value::Null
            } else {
                Value::Double(nums.iter().sum::<f64>() / nums.len() as f64)
            }
        }
        AggFunc::Min | AggFunc::Max => {
            // NULL and NaN never win: NaN compares as unknown in SQL.
            // The first row holding the extreme key is kept.
            let wanted = if func == AggFunc::Min {
                Ordering::Less
            } else {
                Ordering::Greater
            };
            let mut best: Option<&Value> = None;
            for v in vals
                .iter()
                .filter(|v| !v.is_null() && !v.as_f64().is_some_and(f64::is_nan))
            {
                if best.is_none_or(|b| v.key_cmp(b) == wanted) {
                    best = Some(v);
                }
            }
            best.cloned().unwrap_or(Value::Null)
        }
    }
}

/// The `col = <literal|param>` conjuncts of `filter`'s top-level AND,
/// as (plain column name, value) pins. Other conjuncts are left to
/// re-verification.
fn eq_pins<'a>(
    filter: &'a Expr,
    params: &'a [Value],
    rel: &TableRel<'_>,
    out: &mut Vec<(&'a str, &'a Value)>,
) {
    let const_of = |e: &'a Expr| match e {
        Expr::Lit(v) => Some(v),
        Expr::Param(i) => params.get(*i),
        _ => None,
    };
    match filter {
        Expr::Binary {
            op: BinOp::And,
            lhs,
            rhs,
        } => {
            eq_pins(lhs, params, rel, out);
            eq_pins(rhs, params, rel, out);
        }
        Expr::Binary {
            op: BinOp::Eq,
            lhs,
            rhs,
        } => {
            let pin = match (lhs.as_ref(), rhs.as_ref()) {
                (Expr::Col(c), e) | (e, Expr::Col(c)) => const_of(e).map(|v| (c.as_str(), v)),
                _ => None,
            };
            if let Some((col, v)) = pin {
                if rel.col_index(col).is_ok() {
                    out.push((col.rsplit('.').next().unwrap_or(col), v));
                }
            }
        }
        _ => {}
    }
}

/// The one access path of SELECT, UPDATE and DELETE: the candidate
/// rows of `t` for `filter`, in ascending position, or `None` to scan
/// every row.
///
/// It probes the index whose leading columns the most `col = ?` pins
/// cover (the first declared index on a tie) with those pins as the
/// key prefix; a NULL pin matches nothing. Candidates are a superset of
/// the matching rows, and callers re-verify each against the whole
/// predicate.
fn candidates(
    t: &Table,
    rel: &TableRel<'_>,
    filter: &Option<Expr>,
    params: &[Value],
) -> Option<Vec<usize>> {
    let mut pins = Vec::new();
    eq_pins(filter.as_ref()?, params, rel, &mut pins);
    let mut best: Option<(usize, Vec<&Value>)> = None;
    for (i, def) in t.indexes().iter().enumerate() {
        let prefix: Vec<&Value> = def
            .columns
            .iter()
            .map_while(|c| {
                pins.iter()
                    .find(|(p, _)| p.eq_ignore_ascii_case(c))
                    .map(|&(_, v)| v)
            })
            .collect();
        if prefix.len() > best.as_ref().map_or(0, |(_, b)| b.len()) {
            best = Some((i, prefix));
        }
    }
    let (i, prefix) = best?;
    Some(t.probe_prefix(i, &prefix))
}

/// The ascending positions of the rows of `t` that `filter` holds for,
/// visiting only the [`candidates`] when an index applies. SELECTs pass
/// their `stats`, which count the access and the rows visited.
fn matching(
    t: &Table,
    rel: &TableRel<'_>,
    filter: &Option<Expr>,
    params: &[Value],
    stats: Option<&mut DbStats>,
) -> DbResult<Vec<usize>> {
    let visit = candidates(t, rel, filter, params);
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
    let visit = visit.unwrap_or_else(|| (0..t.len()).collect());
    let Some(f) = filter else {
        return Ok(visit);
    };
    let rows = t.rows();
    let mut out = Vec::with_capacity(visit.len());
    for p in visit {
        if holds(f, rel, &rows[p], params)? {
            out.push(p);
        }
    }
    Ok(out)
}

/// `SELECT <aggregates only> FROM t [WHERE ...]`: one row, from one
/// pass over the matching rows.
fn exec_simple_aggregates(
    t: &Table,
    rel: &TableRel<'_>,
    params: &[Value],
    stats: &mut DbStats,
    items: &[SelectItem],
    filter: &Option<Expr>,
    limit: Option<usize>,
) -> DbResult<Outcome> {
    let aggs: Vec<(AggFunc, Option<usize>)> = items
        .iter()
        .map(|it| match &it.expr {
            SelExpr::Agg { func, arg: Some(c) } => Ok((*func, Some(rel.col_index(c)?))),
            SelExpr::Agg { func, arg: None } => Ok((*func, None)),
            SelExpr::Col(_) => unreachable!("caller checked all items are aggregates"),
        })
        .collect::<DbResult<_>>()?;
    let matching = matching(t, rel, filter, params, Some(stats))?;
    let rows = t.rows();
    let out = aggs
        .iter()
        .map(|&(func, idx)| match idx {
            None => Value::Int(matching.len() as i64), // COUNT(*)
            Some(i) => {
                let vals: Vec<&Value> = matching.iter().map(|&p| &rows[p][i]).collect();
                aggregate(func, &vals)
            }
        })
        .collect();
    let mut rows = vec![out];
    if let Some(l) = limit {
        rows.truncate(l);
    }
    stats.rows_returned += rows.len() as u64;
    Ok(Outcome::Rows {
        columns: items.iter().map(SelectItem::output_name).collect(),
        rows,
    })
}

/// Execute a read-only statement against a **shared** catalog borrow:
/// SELECTs — index probes included, since the maps are maintained
/// incrementally rather than rebuilt on first probe — never need `&mut`.
pub fn execute_read(
    catalog: &Catalog,
    stmt: &Statement,
    params: &[Value],
    stats: &mut DbStats,
) -> DbResult<Outcome> {
    match stmt {
        Statement::Select {
            items,
            table,
            filter,
            order_by,
            limit,
        } => exec_select(
            catalog, params, stats, items, table, filter, order_by, *limit,
        ),
        _ => Err(DbError::Tx(
            "execute_read only accepts SELECT statements".into(),
        )),
    }
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
        Statement::Insert {
            table,
            columns,
            rows,
        } => {
            let empty_schema = Schema::new(vec![])?;
            let empty_row: Row = vec![];
            // Evaluate expressions first (no column refs allowed in
            // VALUES: an `Expr::Col` resolves against an empty schema
            // and fails with `NoSuchColumn`).
            let t = catalog.get(table)?;
            let schema = &t.schema;
            let mut prepared: Vec<Row> = Vec::with_capacity(rows.len());
            for row_exprs in rows {
                let vals: Vec<Value> = row_exprs
                    .iter()
                    .map(|e| eval_ast(e, &empty_schema, &empty_row, params))
                    .collect::<DbResult<_>>()?;
                let full = match columns {
                    None => vals,
                    Some(cols) => {
                        if cols.len() != vals.len() {
                            return Err(DbError::Arity(format!(
                                "{} columns but {} values",
                                cols.len(),
                                vals.len()
                            )));
                        }
                        let mut full = vec![Value::Null; schema.arity()];
                        for (c, v) in cols.iter().zip(vals) {
                            full[schema.index_of(c)?] = v;
                        }
                        full
                    }
                };
                prepared.push(full);
            }
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
            let rel = TableRel {
                table,
                schema: &t.schema,
            };
            let schema = &t.schema;
            let set_idx: Vec<(usize, &Expr)> = sets
                .iter()
                .map(|(c, e)| Ok((schema.index_of(c)?, e)))
                .collect::<DbResult<_>>()?;
            let rows = t.rows();
            let mut updates: Vec<(usize, Row)> = Vec::new();
            for pos in matching(t, &rel, filter, params, None)? {
                let row = &rows[pos];
                // Evaluate against the pre-update row (snapshot
                // semantics: `SET a = b, b = a` swaps).
                let mut new_row = row.clone();
                for &(i, e) in &set_idx {
                    let v = eval_ast(e, schema, row, params)?;
                    let col = &schema.columns[i];
                    if !col.ctype.admits(&v) {
                        return Err(DbError::Type(format!(
                            "column {} cannot store {}",
                            col.name,
                            v.type_name()
                        )));
                    }
                    new_row[i] = col.ctype.coerce(v);
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
            if filter.is_none() {
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
            let rel = TableRel {
                table,
                schema: &t.schema,
            };
            let positions = matching(t, &rel, filter, params, None)?;
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

/// The SELECT pipeline over one table: [`matching`] rows (an index
/// probe or a scan, then WHERE) → ORDER BY → LIMIT → projection. A list of
/// aggregates only is one row ([`exec_simple_aggregates`]); a list
/// mixing columns and aggregates is an error.
#[allow(clippy::too_many_arguments)]
fn exec_select(
    catalog: &Catalog,
    params: &[Value],
    stats: &mut DbStats,
    items: &Option<Vec<SelectItem>>,
    table: &str,
    filter: &Option<Expr>,
    order_by: &[OrderBy],
    limit: Option<usize>,
) -> DbResult<Outcome> {
    let t = catalog.get(table)?;
    let rel = TableRel {
        table,
        schema: &t.schema,
    };
    if let Some(items) = items {
        if items
            .iter()
            .any(|it| matches!(it.expr, SelExpr::Agg { .. }))
        {
            if let Some(c) = items.iter().find_map(|it| match &it.expr {
                SelExpr::Col(c) => Some(c),
                SelExpr::Agg { .. } => None,
            }) {
                return Err(DbError::Parse(format!(
                    "column {c} cannot be listed beside aggregates"
                )));
            }
            // The one output row sorts trivially, but ORDER BY may still
            // name only its columns.
            if let Some(o) = order_by.iter().find(|o| {
                !items
                    .iter()
                    .any(|it| it.output_name().eq_ignore_ascii_case(&o.column))
            }) {
                return Err(DbError::NoSuchColumn(format!(
                    "{} (not an output column)",
                    o.column
                )));
            }
            return exec_simple_aggregates(t, &rel, params, stats, items, filter, limit);
        }
    }
    let all = t.rows();
    let mut rows: Vec<&Row> = matching(t, &rel, filter, params, Some(stats))?
        .into_iter()
        .map(|p| &all[p])
        .collect();
    sort_rows(&mut rows, order_by, &rel)?;
    let rows = rows.into_iter().take(limit.unwrap_or(usize::MAX));
    let (columns, rows): (Vec<String>, Vec<Row>) = match items {
        None => (
            t.schema.columns.iter().map(|c| c.name.clone()).collect(),
            rows.cloned().collect(),
        ),
        Some(items) => {
            let idx: Vec<usize> = items
                .iter()
                .map(|it| match &it.expr {
                    SelExpr::Col(c) => rel.col_index(c),
                    SelExpr::Agg { .. } => unreachable!("aggregate lists returned above"),
                })
                .collect::<DbResult<_>>()?;
            (
                items.iter().map(SelectItem::output_name).collect(),
                rows.map(|r| idx.iter().map(|&i| r[i].clone()).collect())
                    .collect(),
            )
        }
    };
    stats.rows_returned += rows.len() as u64;
    Ok(Outcome::Rows { columns, rows })
}

/// Sort rows by the ORDER BY keys in the index key order
/// ([`Value::key_cmp`]: NULL < numbers < NaN < text; DESC reverses it).
/// The order is total and the sort stable, so rows with equal keys keep
/// their input (scan) order whatever access path produced them.
fn sort_rows(rows: &mut [&Row], order_by: &[OrderBy], rel: &impl Resolve) -> DbResult<()> {
    if order_by.is_empty() {
        return Ok(());
    }
    let keys: Vec<(usize, bool)> = order_by
        .iter()
        .map(|o| Ok((rel.col_index(&o.column)?, o.desc)))
        .collect::<DbResult<_>>()?;
    rows.sort_by(|a, b| {
        keys.iter()
            .map(|&(i, desc)| {
                let o = a[i].key_cmp(&b[i]);
                if desc {
                    o.reverse()
                } else {
                    o
                }
            })
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    });
    Ok(())
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
    fn select_order_desc_limit() {
        let mut c = setup();
        let rows = rows_of(run(
            &mut c,
            "SELECT id FROM t ORDER BY score DESC LIMIT 2",
            &[],
        ));
        assert_eq!(rows, vec![vec![Value::Int(3)], vec![Value::Int(1)]]);
    }

    #[test]
    fn update_with_expression() {
        let mut c = setup();
        let out = run(&mut c, "UPDATE t SET score = score + 1 WHERE id < 3", &[]);
        assert_eq!(out, Outcome::Affected(2));
        let rows = rows_of(run(&mut c, "SELECT score FROM t WHERE id = 1", &[]));
        assert_eq!(rows[0][0].as_f64(), Some(4.5));
    }

    #[test]
    fn delete_where() {
        let mut c = setup();
        let out = run(&mut c, "DELETE FROM t WHERE score > 2.0", &[]);
        assert_eq!(out, Outcome::Affected(2));
        let rows = rows_of(run(&mut c, "SELECT id FROM t", &[]));
        assert_eq!(rows, vec![vec![Value::Int(2)]]);
    }

    #[test]
    fn insert_with_column_list_fills_nulls() {
        let mut c = setup();
        run(&mut c, "INSERT INTO t (id) VALUES (4)", &[]);
        let rows = rows_of(run(&mut c, "SELECT name FROM t WHERE id = 4", &[]));
        assert!(rows[0][0].is_null());
    }

    #[test]
    fn is_null_predicates() {
        let mut c = setup();
        run(&mut c, "INSERT INTO t (id) VALUES (9)", &[]);
        let rows = rows_of(run(&mut c, "SELECT id FROM t WHERE name IS NULL", &[]));
        assert_eq!(rows, vec![vec![Value::Int(9)]]);
        let rows = rows_of(run(
            &mut c,
            "SELECT id FROM t WHERE name IS NOT NULL ORDER BY id LIMIT 1",
            &[],
        ));
        assert_eq!(rows, vec![vec![Value::Int(1)]]);
    }

    #[test]
    fn null_comparisons_filter_out() {
        let mut c = setup();
        run(&mut c, "INSERT INTO t (id) VALUES (10)", &[]);
        // score IS NULL on the new row: comparison yields unknown -> excluded.
        let rows = rows_of(run(&mut c, "SELECT id FROM t WHERE score > 0", &[]));
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn division_by_zero_is_null() {
        let mut c = setup();
        let rows = rows_of(run(&mut c, "SELECT id FROM t WHERE id / 0 IS NULL", &[]));
        assert_eq!(rows.len(), 3);
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

    #[test]
    fn update_snapshot_semantics() {
        let mut c = Catalog::new();
        run(&mut c, "CREATE TABLE s (a INT, b INT)", &[]);
        run(&mut c, "INSERT INTO s VALUES (1, 10)", &[]);
        // Both assignments read the pre-update row.
        run(&mut c, "UPDATE s SET a = b, b = a", &[]);
        let rows = rows_of(run(&mut c, "SELECT a, b FROM s", &[]));
        assert_eq!(rows[0], vec![Value::Int(10), Value::Int(1)]);
    }

    #[test]
    fn and_or_three_valued_logic() {
        let mut c = setup();
        run(&mut c, "INSERT INTO t (id) VALUES (11)", &[]);
        // (score > 0 OR id = 11): unknown OR true = true.
        let rows = rows_of(run(
            &mut c,
            "SELECT id FROM t WHERE score > 0 OR id = 11",
            &[],
        ));
        assert_eq!(rows.len(), 4);
    }

    // ---- aggregates ----

    #[test]
    fn count_star_and_column() {
        let mut c = setup();
        run(&mut c, "INSERT INTO t (id) VALUES (4)", &[]); // NULL name
        let rows = rows_of(run(&mut c, "SELECT COUNT(*), COUNT(name) FROM t", &[]));
        assert_eq!(rows, vec![vec![Value::Int(4), Value::Int(3)]]);
    }

    #[test]
    fn sum_avg_min_max() {
        let mut c = setup();
        let rows = rows_of(run(
            &mut c,
            "SELECT SUM(id), AVG(score), MIN(score), MAX(name) FROM t",
            &[],
        ));
        assert_eq!(rows[0][0], Value::Int(6));
        assert!((rows[0][1].as_f64().unwrap() - (3.5 + 1.0 + 9.25) / 3.0).abs() < 1e-12);
        assert_eq!(rows[0][2], Value::Double(1.0));
        assert_eq!(rows[0][3], Value::Text("c".into()));
    }

    #[test]
    fn aggregates_over_empty_table() {
        let mut c = Catalog::new();
        run(&mut c, "CREATE TABLE e (x INT)", &[]);
        let rows = rows_of(run(&mut c, "SELECT COUNT(*), SUM(x), AVG(x) FROM e", &[]));
        assert_eq!(rows, vec![vec![Value::Int(0), Value::Null, Value::Null]]);
    }

    #[test]
    fn bare_column_outside_group_by_rejected() {
        let mut c = setup();
        let err = try_run(&mut c, "SELECT name, COUNT(*) FROM t", &[]);
        assert!(matches!(err, Err(DbError::Parse(_))));
    }

    #[test]
    fn aggregate_order_by_names_only_output_columns() {
        let mut c = setup();
        let rows = rows_of(run(
            &mut c,
            "SELECT COUNT(*) AS n, MAX(id) FROM t ORDER BY n DESC LIMIT 1",
            &[],
        ));
        assert_eq!(rows, vec![vec![Value::Int(3), Value::Int(3)]]);
        let err = try_run(&mut c, "SELECT COUNT(*) AS n FROM t ORDER BY id", &[]);
        assert!(matches!(err, Err(DbError::NoSuchColumn(m)) if m.contains("not an output column")));
    }

    // ---- index usage ----

    #[test]
    fn index_probe_is_used_and_correct() {
        let mut c = Catalog::new();
        run(&mut c, "CREATE TABLE h (k INT, v TEXT)", &[]);
        for i in 0..50 {
            run(
                &mut c,
                "INSERT INTO h VALUES (?, 'x')",
                &[Value::Int(i % 10)],
            );
        }
        run(&mut c, "CREATE INDEX hk ON h (k)", &[]);
        let mut stats = DbStats::default();
        let out = execute(
            &mut c,
            &parse("SELECT COUNT(*) FROM h WHERE k = ?").unwrap(),
            &[Value::Int(3)],
            &mut stats,
        )
        .unwrap();
        assert_eq!(rows_of(out), vec![vec![Value::Int(5)]]);
        assert_eq!((stats.full_scans, stats.index_scans), (0, 1));
        assert_eq!(
            stats.rows_scanned, 5,
            "probe visits only the candidate bucket"
        );
        // A predicate no index can answer falls back to a scan.
        let out = execute(
            &mut c,
            &parse("SELECT COUNT(*) FROM h WHERE k + 0 > 3").unwrap(),
            &[],
            &mut stats,
        )
        .unwrap();
        assert_eq!(rows_of(out), vec![vec![Value::Int(30)]]);
        assert_eq!(stats.full_scans, 1);
    }

    #[test]
    fn index_probe_respects_extra_conjuncts() {
        let mut c = Catalog::new();
        run(&mut c, "CREATE TABLE h (k INT, v INT)", &[]);
        run(
            &mut c,
            "INSERT INTO h VALUES (1, 10), (1, 20), (2, 30)",
            &[],
        );
        run(&mut c, "CREATE INDEX hk ON h (k)", &[]);
        let rows = rows_of(run(&mut c, "SELECT v FROM h WHERE k = 1 AND v > 15", &[]));
        assert_eq!(rows, vec![vec![Value::Int(20)]]);
    }

    // ---- aggregates and ORDER BY ... LIMIT ----

    #[test]
    fn max_fast_path_matches_generic_answer() {
        let mut c = Catalog::new();
        run(&mut c, "CREATE TABLE r (runid INT)", &[]);
        for i in [3, 9, 1, 7, 9, 2] {
            run(&mut c, "INSERT INTO r VALUES (?)", &[Value::Int(i)]);
        }
        let mut stats = DbStats::default();
        let out = execute(
            &mut c,
            &parse("SELECT MAX(runid) FROM r").unwrap(),
            &[],
            &mut stats,
        )
        .unwrap();
        assert_eq!(rows_of(out), vec![vec![Value::Int(9)]]);
        // Same answer as the ORDER BY ... LIMIT 1 spelling.
        let out = run(
            &mut c,
            "SELECT runid FROM r ORDER BY runid DESC LIMIT 1",
            &[],
        );
        assert_eq!(rows_of(out), vec![vec![Value::Int(9)]]);
        assert_eq!((stats.rows_scanned, stats.rows_returned), (6, 1));
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
        let mut stats = DbStats::default();
        let out = execute(
            &mut c,
            &parse("SELECT COUNT(*), MIN(v), MAX(v) FROM t WHERE k = ?").unwrap(),
            &[Value::Int(1)],
            &mut stats,
        )
        .unwrap();
        assert_eq!(
            rows_of(out),
            vec![vec![Value::Int(10), Value::Int(1), Value::Int(28)]]
        );
        assert_eq!(stats.index_scans, 1, "fast path still probes the index");
        assert_eq!(stats.rows_scanned, 10);
    }

    #[test]
    fn aggregate_over_empty_table_still_null() {
        let mut c = Catalog::new();
        run(&mut c, "CREATE TABLE e (x INT)", &[]);
        let rows = rows_of(run(&mut c, "SELECT MAX(x), COUNT(*) FROM e", &[]));
        assert_eq!(rows, vec![vec![Value::Null, Value::Int(0)]]);
    }

    #[test]
    fn order_by_limit_partial_sort_matches_full_sort() {
        let mut c = Catalog::new();
        run(&mut c, "CREATE TABLE t (k INT)", &[]);
        for i in [5i64, 3, 8, 1, 9, 2, 7, 4, 6, 0] {
            run(&mut c, "INSERT INTO t VALUES (?)", &[Value::Int(i)]);
        }
        let top3 = rows_of(run(&mut c, "SELECT k FROM t ORDER BY k LIMIT 3", &[]));
        assert_eq!(
            top3,
            vec![
                vec![Value::Int(0)],
                vec![Value::Int(1)],
                vec![Value::Int(2)]
            ]
        );
        let bottom2 = rows_of(run(&mut c, "SELECT k FROM t ORDER BY k DESC LIMIT 2", &[]));
        assert_eq!(bottom2, vec![vec![Value::Int(9)], vec![Value::Int(8)]]);
        // LIMIT larger than the table falls back to a plain sort.
        let all = rows_of(run(&mut c, "SELECT k FROM t ORDER BY k LIMIT 99", &[]));
        assert_eq!(all.len(), 10);
        let none = rows_of(run(&mut c, "SELECT k FROM t ORDER BY k LIMIT 0", &[]));
        assert!(none.is_empty());
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
        let mut stats = DbStats::default();
        let out = execute(
            &mut c,
            &parse("SELECT off FROM e WHERE ts = ? AND runid = ?").unwrap(),
            &[Value::Int(7), Value::Int(3)],
            &mut stats,
        )
        .unwrap();
        assert_eq!(rows_of(out), vec![vec![Value::Int(3007)]]);
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
        // `ts < NULL` is unknown for every row, so re-verification drops
        // every candidate of the runid prefix.
        let out = run(
            &mut c,
            "SELECT ts FROM e WHERE runid = 1 AND ts < ?",
            &[Value::Null],
        );
        assert!(rows_of(out).is_empty(), "NULL comparison matches nothing");
        // A NULL pin probes no row at all.
        let mut stats = DbStats::default();
        let out = execute(
            &mut c,
            &parse("SELECT ts FROM e WHERE runid = 1 AND ts = ?").unwrap(),
            &[Value::Null],
            &mut stats,
        )
        .unwrap();
        assert!(rows_of(out).is_empty(), "NULL pin matches nothing");
        assert_eq!((stats.index_scans, stats.rows_scanned), (1, 0));
    }

    #[test]
    fn prefix_probe_without_range_bounds_scans_the_prefix() {
        let mut c = exec_like();
        let mut stats = DbStats::default();
        let out = execute(
            &mut c,
            &parse("SELECT COUNT(off) FROM e WHERE runid = ?").unwrap(),
            &[Value::Int(2)],
            &mut stats,
        )
        .unwrap();
        assert_eq!(rows_of(out), vec![vec![Value::Int(25)]]);
        assert_eq!(
            (stats.full_scans, stats.index_scans),
            (0, 1),
            "leading-column equality rides the composite as a prefix walk"
        );
        assert_eq!(stats.rows_scanned, 25);
    }

    #[test]
    fn range_probe_walks_ordered_index() {
        // The runid pin probes the composite; the ts window is answered
        // by re-verifying the rows of that prefix.
        let mut c = exec_like();
        let mut stats = DbStats::default();
        let out = execute(
            &mut c,
            &parse("SELECT off FROM e WHERE runid = ? AND ts >= ? AND ts <= ?").unwrap(),
            &[Value::Int(2), Value::Int(10), Value::Int(13)],
            &mut stats,
        )
        .unwrap();
        assert_eq!(
            rows_of(out),
            (10..=13)
                .map(|t| vec![Value::Int(2000 + t)])
                .collect::<Vec<_>>()
        );
        assert_eq!((stats.full_scans, stats.index_scans), (0, 1));
        assert_eq!(stats.rows_scanned, 25, "the runid prefix is visited");
    }

    #[test]
    fn strict_bounds_and_merging_give_exact_rows() {
        // Strict and repeated bounds give exactly (5, 8].
        let mut c = exec_like();
        let rows = rows_of(run(
            &mut c,
            "SELECT ts FROM e WHERE runid = 1 AND ts > 2 AND ts > 5 AND ts <= 8",
            &[],
        ));
        assert_eq!(
            rows,
            (6..=8).map(|t| vec![Value::Int(t)]).collect::<Vec<_>>()
        );
    }

    #[test]
    fn order_by_limit_streams_off_ordered_index() {
        // ORDER BY ... LIMIT over a probed prefix: one stable sort of
        // the prefix, then the first LIMIT rows.
        let mut c = exec_like();
        let mut stats = DbStats::default();
        let out = execute(
            &mut c,
            &parse("SELECT ts FROM e WHERE runid = ? ORDER BY ts DESC LIMIT 3").unwrap(),
            &[Value::Int(1)],
            &mut stats,
        )
        .unwrap();
        assert_eq!(
            rows_of(out),
            vec![
                vec![Value::Int(24)],
                vec![Value::Int(23)],
                vec![Value::Int(22)]
            ]
        );
        assert_eq!((stats.full_scans, stats.index_scans), (0, 1));
        // A range bound on the order column clips the rows too.
        let rows = rows_of(run(
            &mut c,
            "SELECT ts FROM e WHERE runid = 1 AND ts >= 20 ORDER BY ts LIMIT 2",
            &[],
        ));
        assert_eq!(rows, vec![vec![Value::Int(20)], vec![Value::Int(21)]]);
    }

    #[test]
    fn streamed_order_matches_sorted_order() {
        // With and without an index on the sort key: the same rows in
        // the same order, ties in scan order (ASC and DESC alike).
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
            ("SELECT tag FROM s ORDER BY k LIMIT 3", "bda"),
            ("SELECT tag FROM s ORDER BY k DESC LIMIT 3", "ace"),
            ("SELECT tag FROM s ORDER BY k", "bdace"),
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
        // NULLs are skipped by MIN even though they sort first.
        let mut stats = DbStats::default();
        let out = execute(
            &mut c,
            &parse("SELECT MIN(ts), MAX(ts) FROM e WHERE runid = ?").unwrap(),
            &[Value::Int(1)],
            &mut stats,
        )
        .unwrap();
        assert_eq!(rows_of(out), vec![vec![Value::Int(0), Value::Int(24)]]);
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
        let out = run(&mut c, "SELECT MAX(ts) FROM e", &[]);
        assert_eq!(rows_of(out), vec![vec![Value::Int(24)]]);
    }

    #[test]
    fn peek_falls_back_when_any_item_is_not_peekable() {
        // MIN/MAX mix freely with other aggregates in one pass.
        let mut c = exec_like();
        let mut stats = DbStats::default();
        let out = execute(
            &mut c,
            &parse("SELECT MAX(ts), SUM(off) FROM e WHERE runid = 0").unwrap(),
            &[],
            &mut stats,
        )
        .unwrap();
        assert_eq!(rows_of(out), vec![vec![Value::Int(24), Value::Int(300)]]);
        assert_eq!(stats.rows_scanned, 25, "the pass visits the bucket");
    }
}
