//! Expression evaluation and statement execution.

use std::cmp::Ordering;
use std::collections::HashMap;

use crate::catalog::Catalog;
use crate::error::{DbError, DbResult};
use crate::eval::{eval_ast, truthy};
use crate::schema::{Column, Schema};
use crate::sql::ast::{AggFunc, BinOp, Expr, Join, OrderBy, SelExpr, SelectItem, Statement};
use crate::table::{Row, Table};
use crate::undo::{UndoLog, UndoRecord};
use crate::value::{OrdKey, Value};
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
    /// SELECTs answered by a full table (or join) scan.
    pub full_scans: u64,
    /// SELECTs answered through a secondary-index probe (point, range,
    /// or key-ordered stream).
    pub index_scans: u64,
    /// SELECT plans that probed an index with a full equality key
    /// (includes MIN/MAX first/last-key peeks).
    pub plan_point_probes: u64,
    /// SELECT plans that probed an index with an equality prefix plus a
    /// range (or open prefix) on the next key column.
    pub plan_range_probes: u64,
    /// SELECT plans that streamed an index in key order to satisfy
    /// ORDER BY (stopping at LIMIT) instead of sorting.
    pub plan_ordered_scans: u64,
    /// ORDER BY clauses that materialized rows and sorted them.
    pub order_sorts: u64,
    /// ORDER BY clauses satisfied by an index's key order — the sort
    /// that never ran.
    pub sorts_avoided: u64,
    /// SQL texts lexed and parsed (`Database::parse`, and so every
    /// `Database::exec`). Typed statements run through
    /// `Database::exec_stmt` never move this counter.
    pub parse_misses: u64,
    /// Source rows visited by SELECTs (index candidates for probes,
    /// whole tables for scans, both sides for joins).
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
    /// Index probes issued by index-nested-loop joins (one per
    /// non-NULL outer join key).
    pub join_index_probes: u64,
    /// Merge joins streamed off two indexes in key order.
    pub join_merge_joins: u64,
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
/// `Schema` resolves plain names; relations built for joins resolve
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

/// The concatenated schema of an equi-join: qualified names plus
/// unambiguous plain names.
struct JoinRel {
    /// `(qualified, plain)` per combined column.
    cols: Vec<(String, String)>,
}

impl Resolve for JoinRel {
    fn col_index(&self, name: &str) -> DbResult<usize> {
        if name.contains('.') {
            return self
                .cols
                .iter()
                .position(|(q, _)| q.eq_ignore_ascii_case(name))
                .ok_or_else(|| DbError::NoSuchColumn(name.to_string()));
        }
        let mut hits = self
            .cols
            .iter()
            .enumerate()
            .filter(|(_, (_, p))| p.eq_ignore_ascii_case(name));
        match (hits.next(), hits.next()) {
            (Some((i, _)), None) => Ok(i),
            (Some(_), Some(_)) => Err(DbError::NoSuchColumn(format!(
                "ambiguous column {name} (qualify it)"
            ))),
            _ => Err(DbError::NoSuchColumn(name.to_string())),
        }
    }
}

/// Output rows of an aggregate query: resolves projected output names.
struct NamedRel {
    names: Vec<String>,
}

impl Resolve for NamedRel {
    fn col_index(&self, name: &str) -> DbResult<usize> {
        self.names
            .iter()
            .position(|n| n.eq_ignore_ascii_case(name))
            .ok_or_else(|| DbError::NoSuchColumn(format!("{name} (not an output column)")))
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
            let mut best: Option<&Value> = None;
            for v in vals.iter().filter(|v| !v.is_null()) {
                best = Some(match best {
                    None => v,
                    Some(b) => match v.sql_cmp(b) {
                        Some(Ordering::Less) if func == AggFunc::Min => v,
                        Some(Ordering::Greater) if func == AggFunc::Max => v,
                        _ => b,
                    },
                });
            }
            best.cloned().unwrap_or(Value::Null)
        }
    }
}

/// Per-column constraints harvested from the top-level AND conjuncts of
/// a WHERE clause: an equality pin and/or inclusive range bounds, each
/// known without a row (literal or parameter). Strict bounds (`<`, `>`)
/// are *widened* to inclusive — probes return candidate supersets and
/// every caller re-verifies against the real predicate, so the boundary
/// rows a widened range sweeps up are filtered back out.
struct ColBounds<'a> {
    /// Plain (unqualified) column name.
    col: &'a str,
    /// `col = v` pin.
    eq: Option<Value>,
    /// Inclusive lower bound (from `>` / `>=`).
    lo: Option<Value>,
    /// Inclusive upper bound (from `<` / `<=`).
    hi: Option<Value>,
}

impl ColBounds<'_> {
    /// Whether any constraint compares against NULL — such a conjunct
    /// is unknown for every row, so the whole AND-filter matches
    /// nothing.
    fn has_null(&self) -> bool {
        [&self.eq, &self.lo, &self.hi]
            .iter()
            .any(|v| v.as_ref().is_some_and(Value::is_null))
    }
}

/// Walk the top-level AND tree collecting per-column equality pins and
/// range bounds that resolve in `rel`. Multiple bounds on one column
/// merge to the tightest comparable pair; conflicting or incomparable
/// extras stay behind in the predicate, which callers re-verify anyway.
fn collect_bounds<'a>(
    filter: &'a Expr,
    params: &[Value],
    rel: &TableRel<'_>,
    out: &mut Vec<ColBounds<'a>>,
) {
    let const_of = |e: &Expr| -> Option<Value> {
        match e {
            Expr::Lit(v) => Some(v.clone()),
            Expr::Param(i) => params.get(*i).cloned(),
            _ => None,
        }
    };
    match filter {
        Expr::Binary {
            op: BinOp::And,
            lhs,
            rhs,
        } => {
            collect_bounds(lhs, params, rel, out);
            collect_bounds(rhs, params, rel, out);
        }
        Expr::Binary { op, lhs, rhs }
            if matches!(
                op,
                BinOp::Eq | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
            ) =>
        {
            // Normalize to `col <op> const`, flipping the comparison
            // when the column sits on the right.
            let (col, val, op) = match (lhs.as_ref(), rhs.as_ref()) {
                (Expr::Col(c), e) => match const_of(e) {
                    Some(v) => (c.as_str(), v, *op),
                    None => return,
                },
                (e, Expr::Col(c)) => match const_of(e) {
                    Some(v) => {
                        let flipped = match op {
                            BinOp::Lt => BinOp::Gt,
                            BinOp::Le => BinOp::Ge,
                            BinOp::Gt => BinOp::Lt,
                            BinOp::Ge => BinOp::Le,
                            other => *other,
                        };
                        (c.as_str(), v, flipped)
                    }
                    None => return,
                },
                _ => return,
            };
            if rel.col_index(col).is_err() {
                return; // must resolve in this table
            }
            let plain = col.rsplit('.').next().unwrap_or(col);
            let i = match out.iter().position(|b| b.col.eq_ignore_ascii_case(plain)) {
                Some(i) => i,
                None => {
                    out.push(ColBounds {
                        col: plain,
                        eq: None,
                        lo: None,
                        hi: None,
                    });
                    out.len() - 1
                }
            };
            let b = &mut out[i];
            // Tightest comparable bound wins; ties and incomparable
            // pairs keep the first seen (re-verification covers the
            // rest of the predicate).
            let tighter = |cur: &mut Option<Value>, v: Value, keep_greater: bool| match cur {
                None => *cur = Some(v),
                Some(c) => {
                    if let Some(o) = v.sql_cmp(c) {
                        if (o == Ordering::Greater) == keep_greater && o != Ordering::Equal {
                            *cur = Some(v);
                        }
                    }
                }
            };
            match op {
                BinOp::Eq if b.eq.is_none() => b.eq = Some(val),
                BinOp::Gt | BinOp::Ge => tighter(&mut b.lo, val, true),
                BinOp::Lt | BinOp::Le => tighter(&mut b.hi, val, false),
                // A repeated equality keeps the first pin; the arm's
                // guard admits no other operator.
                _ => {}
            }
        }
        _ => {}
    }
}

/// Candidate row positions chosen by the planner: borrowed straight out
/// of an index bucket (point probes) or collected by a range walk.
/// Always ascending, i.e. scan order.
enum Candidates<'c> {
    Borrowed(&'c [usize]),
    Owned(Vec<usize>),
}

impl Candidates<'_> {
    fn as_slice(&self) -> &[usize] {
        match self {
            Candidates::Borrowed(s) => s,
            Candidates::Owned(v) => v,
        }
    }
}

/// How the chosen plan restricted the candidates, for `DbStats`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum PlanKind {
    /// Full-key equality probe.
    Point,
    /// Equality-prefix + range (or open prefix) walk of an index.
    Range,
}

/// The cost-based access-path choice for one table: `None` means full
/// scan.
///
/// The planner harvests per-column bounds from the WHERE conjuncts,
/// then costs every index against them using the table's statistics —
/// `Table::len` (row count) and `Table::index_distinct_keys`
/// (cardinality). Indexes are tried most-selective-first (fewest
/// estimated rows per key); point probes cost their exact bucket
/// length, and range walks count candidates as they collect, aborting
/// as soon as they exceed the best plan so far — or the full-scan cost,
/// so a range that would sweep the whole table loses to the scan that
/// avoids the extra bookkeeping. Candidates are a superset of the
/// matching rows; callers re-verify with the full predicate.
fn plan_candidates<'c>(
    t: &'c crate::table::Table,
    rel: &TableRel<'_>,
    filter: &Option<Expr>,
    params: &[Value],
) -> Option<(Candidates<'c>, PlanKind)> {
    let f = filter.as_ref()?;
    let mut bounds = Vec::new();
    collect_bounds(f, params, rel, &mut bounds);
    if bounds.is_empty() {
        return None;
    }
    if bounds.iter().any(ColBounds::has_null) {
        // A NULL comparison is unknown everywhere: nothing matches.
        return Some((Candidates::Borrowed(&[]), PlanKind::Point));
    }
    let rows = t.len();
    let mut order: Vec<usize> = (0..t.indexes().len()).collect();
    order.sort_by_key(|&i| rows / t.index_distinct_keys(i).max(1));
    let mut best: Option<(Candidates<'c>, PlanKind)> = None;
    for i in order {
        let def = &t.indexes()[i];
        let best_len = best
            .as_ref()
            .map_or(usize::MAX, |(c, _)| c.as_slice().len());
        // Longest equality-pinned prefix of this index's columns.
        let eq_vals: Vec<&Value> = def
            .columns
            .iter()
            .map_while(|c| {
                bounds
                    .iter()
                    .find(|b| b.col.eq_ignore_ascii_case(c))
                    .and_then(|b| b.eq.as_ref())
            })
            .collect();
        let k = eq_vals.len();
        if k == def.columns.len() {
            if let Some(hits) = t.probe_point(i, &eq_vals) {
                if hits.len() < best_len {
                    best = Some((Candidates::Borrowed(hits), PlanKind::Point));
                }
            }
            continue;
        }
        // Range (or open prefix) walk on the first unpinned column.
        let (lo, hi) = bounds
            .iter()
            .find(|b| b.col.eq_ignore_ascii_case(&def.columns[k]))
            .map_or((None, None), |b| (b.lo.as_ref(), b.hi.as_ref()));
        if k == 0 && lo.is_none() && hi.is_none() {
            continue; // unrestricted: that is just a scan
        }
        let abort_at = best_len.min(rows).saturating_sub(1);
        if let Some(hits) = t.probe_range(i, &eq_vals, lo, hi, abort_at) {
            best = Some((Candidates::Owned(hits), PlanKind::Range));
        }
    }
    best
}

/// Record the chosen plan in the SELECT counters and hand back the
/// candidate list (`None` = full scan).
fn note_plan<'c>(
    plan: &'c Option<(Candidates<'c>, PlanKind)>,
    stats: &mut DbStats,
) -> Option<&'c [usize]> {
    match plan {
        Some((c, kind)) => {
            stats.index_scans += 1;
            match kind {
                PlanKind::Point => stats.plan_point_probes += 1,
                PlanKind::Range => stats.plan_range_probes += 1,
            }
            Some(c.as_slice())
        }
        None => {
            stats.full_scans += 1;
            None
        }
    }
}

/// Decompose `filter` into pure `col = <const>` conjuncts. Returns
/// `None` when any conjunct is something else (a range, OR, IS NULL,
/// arithmetic, ...) — the peek fast path then does not apply.
fn pure_eq_conjuncts<'a>(
    filter: &'a Expr,
    params: &[Value],
    rel: &TableRel<'_>,
    out: &mut Vec<(&'a str, Value)>,
) -> Option<()> {
    match filter {
        Expr::Binary {
            op: BinOp::And,
            lhs,
            rhs,
        } => {
            pure_eq_conjuncts(lhs, params, rel, out)?;
            pure_eq_conjuncts(rhs, params, rel, out)
        }
        Expr::Binary {
            op: BinOp::Eq,
            lhs,
            rhs,
        } => {
            let const_of = |e: &Expr| -> Option<Value> {
                match e {
                    Expr::Lit(v) => Some(v.clone()),
                    Expr::Param(i) => params.get(*i).cloned(),
                    _ => None,
                }
            };
            let (col, val) = match (lhs.as_ref(), rhs.as_ref()) {
                (Expr::Col(c), e) => (c.as_str(), const_of(e)?),
                (e, Expr::Col(c)) => (c.as_str(), const_of(e)?),
                _ => return None,
            };
            if rel.col_index(col).is_err() {
                return None;
            }
            out.push((col.rsplit('.').next().unwrap_or(col), val));
            Some(())
        }
        _ => None,
    }
}

/// Try to answer every aggregate item by peeking at an index edge (MIN/MAX) or the table length (unfiltered COUNT(*)), without
/// visiting any rows. All-or-nothing: if any item can't be peeked the
/// whole query falls back to the streaming pass, so the recorded plan
/// stats describe the real access path.
///
/// A MIN(c)/MAX(c) peek needs an index whose columns are
/// exactly the equality-pinned conjunct columns followed by `c` — the
/// pinned prefix covers *all but the last* key column, so every row
/// that is SQL-equal on `c` lands in one bucket and the bucket's first
/// entry is the row a scan would have reported.
fn peek_aggregates(
    t: &crate::table::Table,
    rel: &TableRel<'_>,
    params: &[Value],
    items: &[SelectItem],
    arg_idx: &[Option<usize>],
    filter: &Option<Expr>,
    stats: &mut DbStats,
) -> Option<Vec<Value>> {
    let mut conjuncts = Vec::new();
    if let Some(f) = filter {
        pure_eq_conjuncts(f, params, rel, &mut conjuncts)?;
    }
    if conjuncts.iter().any(|(_, v)| v.is_null()) {
        return None; // `col = NULL` matches nothing; let the scan say so
    }
    let rows = t.rows();
    let mut out = Vec::with_capacity(items.len());
    let mut peeks = 0u64;
    for (it, idx) in items.iter().zip(arg_idx) {
        let SelExpr::Agg { func, .. } = &it.expr else {
            unreachable!()
        };
        let v = match (func, idx) {
            (AggFunc::Count, None) if conjuncts.is_empty() => Value::Int(t.len() as i64),
            (AggFunc::Min | AggFunc::Max, Some(c)) => {
                let agg_col = &rel.schema.columns[*c].name;
                let (i, def) = t.indexes().iter().enumerate().find(|(_, d)| {
                    d.columns.len() == conjuncts.len() + 1
                        && d.columns
                            .last()
                            .is_some_and(|l| l.eq_ignore_ascii_case(agg_col))
                        && d.columns[..conjuncts.len()]
                            .iter()
                            .all(|dc| conjuncts.iter().any(|(cc, _)| cc.eq_ignore_ascii_case(dc)))
                })?;
                let prefix: Vec<&Value> = def.columns[..conjuncts.len()]
                    .iter()
                    .map(|dc| {
                        conjuncts
                            .iter()
                            .find(|(cc, _)| cc.eq_ignore_ascii_case(dc))
                            .map(|(_, v)| v)
                    })
                    .collect::<Option<_>>()?;
                let pos = t.peek_edge(i, &prefix, matches!(func, AggFunc::Max))?;
                peeks += 1;
                pos.map_or(Value::Null, |p| rows[p][*c].clone())
            }
            _ => return None,
        };
        out.push(v);
    }
    // All items peeked — only now touch the counters (a mixed item list
    // falls through to the streaming pass with clean stats).
    stats.index_scans += peeks;
    stats.plan_point_probes += peeks;
    stats.rows_scanned += peeks;
    Some(out)
}

/// `SELECT <aggregates only> FROM t [WHERE ...]`: one streaming pass over
/// borrowed rows (index-probed when possible). This is the `next_runid`
/// fast path — `SELECT MAX(runid)` touches each candidate row once and
/// clones nothing; when an index covers the aggregate it touches
/// **no** rows and peeks the index edge instead.
fn exec_simple_aggregates(
    catalog: &Catalog,
    params: &[Value],
    stats: &mut DbStats,
    items: &[SelectItem],
    table: &str,
    filter: &Option<Expr>,
    limit: Option<usize>,
) -> DbResult<Outcome> {
    let t = catalog.get(table)?;
    let rel = TableRel {
        table,
        schema: &t.schema,
    };
    let arg_idx: Vec<Option<usize>> = items
        .iter()
        .map(|it| match &it.expr {
            SelExpr::Agg { arg: Some(c), .. } => rel.col_index(c).map(Some),
            SelExpr::Agg { arg: None, .. } => Ok(None),
            SelExpr::Col(_) => unreachable!("caller checked all items are aggregates"),
        })
        .collect::<DbResult<_>>()?;
    if let Some(out) = peek_aggregates(t, &rel, params, items, &arg_idx, filter, stats) {
        let names = items.iter().map(SelectItem::output_name).collect();
        let mut rows_out = vec![out];
        if let Some(l) = limit {
            rows_out.truncate(l);
        }
        stats.rows_returned += rows_out.len() as u64;
        return Ok(Outcome::Rows {
            columns: names,
            rows: rows_out,
        });
    }
    let plan = plan_candidates(t, &rel, filter, params);
    let candidates = note_plan(&plan, stats);
    let rows = t.rows();
    let visited: Vec<&Row> = match candidates {
        Some(pos) => pos.iter().map(|&p| &rows[p]).collect(),
        None => rows.iter().collect(),
    };
    stats.rows_scanned += visited.len() as u64;
    let mut matching: Vec<&Row> = Vec::with_capacity(visited.len());
    for row in visited {
        if let Some(f) = filter {
            if !holds(f, &rel, row, params)? {
                continue;
            }
        }
        matching.push(row);
    }
    let mut out = Vec::with_capacity(items.len());
    for (it, idx) in items.iter().zip(&arg_idx) {
        let SelExpr::Agg { func, .. } = &it.expr else {
            unreachable!()
        };
        let v = match idx {
            None => Value::Int(matching.len() as i64), // COUNT(*)
            Some(i) => {
                let vals: Vec<&Value> = matching.iter().map(|r| &r[*i]).collect();
                aggregate(*func, &vals)
            }
        };
        out.push(v);
    }
    let names = items.iter().map(SelectItem::output_name).collect();
    let mut rows_out = vec![out];
    if let Some(l) = limit {
        rows_out.truncate(l);
    }
    stats.rows_returned += rows_out.len() as u64;
    Ok(Outcome::Rows {
        columns: names,
        rows: rows_out,
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
            distinct,
            items,
            table,
            join,
            filter,
            group_by,
            having,
            order_by,
            limit,
        } => exec_select(
            catalog, params, stats, *distinct, items, table, join, filter, group_by, having,
            order_by, *limit,
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
            // Phase 1 (shared borrow): pick the touched rows — through
            // an index probe when an equality conjunct allows — and
            // build the validated replacement rows.
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
            let plan = plan_candidates(t, &rel, filter, params);
            let candidates = plan.as_ref().map(|(c, _)| c.as_slice());
            let rows = t.rows();
            let mut updates: Vec<(usize, Row)> = Vec::new();
            let mut visit = |pos: usize, row: &Row| -> DbResult<()> {
                if let Some(f) = filter {
                    if !holds(f, schema, row, params)? {
                        return Ok(());
                    }
                }
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
                Ok(())
            };
            match candidates {
                Some(pos) => {
                    for &p in pos {
                        visit(p, &rows[p])?;
                    }
                }
                None => {
                    for (p, row) in rows.iter().enumerate() {
                        visit(p, row)?;
                    }
                }
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
            let Some(f) = filter else {
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
            };
            let t = catalog.get(table)?;
            let rel = TableRel {
                table,
                schema: &t.schema,
            };
            let schema = &t.schema;
            let plan = plan_candidates(t, &rel, filter, params);
            let candidates = plan.as_ref().map(|(c, _)| c.as_slice());
            let rows = t.rows();
            let hit = |p: usize| -> DbResult<Option<usize>> {
                Ok(holds(f, schema, &rows[p], params)?.then_some(p))
            };
            let positions: Vec<usize> = match candidates {
                Some(pos) => pos
                    .iter()
                    .filter_map(|&p| hit(p).transpose())
                    .collect::<DbResult<_>>()?,
                None => (0..rows.len())
                    .filter_map(|p| hit(p).transpose())
                    .collect::<DbResult<_>>()?,
            };
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

/// The SELECT pipeline: source (scan / index probe / join) → WHERE →
/// [GROUP BY + aggregates + HAVING] → ORDER BY → projection → DISTINCT
/// → LIMIT.
#[allow(clippy::too_many_arguments)]
fn exec_select(
    catalog: &Catalog,
    params: &[Value],
    stats: &mut DbStats,
    distinct: bool,
    items: &Option<Vec<SelectItem>>,
    table: &str,
    join: &Option<Join>,
    filter: &Option<Expr>,
    group_by: &[String],
    having: &Option<Expr>,
    order_by: &[OrderBy],
    limit: Option<usize>,
) -> DbResult<Outcome> {
    // ---- Streaming aggregate fast path ----
    // Plain aggregates over one table (`SELECT MAX(runid) FROM
    // run_table`, the COUNTs of report queries) accumulate over borrowed
    // rows in a single pass: no row clones, no sort, no group machinery.
    if join.is_none() && !distinct && group_by.is_empty() && having.is_none() && order_by.is_empty()
    {
        if let Some(items) = items {
            if !items.is_empty()
                && items
                    .iter()
                    .all(|it| matches!(it.expr, SelExpr::Agg { .. }))
            {
                return exec_simple_aggregates(catalog, params, stats, items, table, filter, limit);
            }
        }
    }

    // ---- Source relation ----
    // Set when an index already delivered the rows in ORDER BY
    // order (and honored LIMIT): the sort below is skipped.
    let mut ordered_by_index = false;
    let (rel_cols, mut rows): (Vec<(String, String)>, Vec<Row>) = match join {
        None => {
            let t = catalog.get(table)?;
            let schema = &t.schema;
            let rel = TableRel { table, schema };
            let plan = plan_candidates(t, &rel, filter, params);
            let has_agg_items = items
                .as_ref()
                .is_some_and(|is| is.iter().any(|i| matches!(i.expr, SelExpr::Agg { .. })));
            // Index-backed ORDER BY: stream rows straight out of an
            // index when one delivers the requested order, and
            // either a LIMIT makes early exit pay or no probe plan
            // beats walking keys in order anyway.
            let streamed = if !distinct
                && group_by.is_empty()
                && !has_agg_items
                && !order_by.is_empty()
                && order_by.iter().all(|o| o.desc == order_by[0].desc)
                && (limit.is_some() || plan.is_none())
            {
                stream_ordered_rows(t, &rel, filter, params, order_by, limit, stats)?
            } else {
                None
            };
            let out = match streamed {
                Some(out) => {
                    ordered_by_index = true;
                    out
                }
                None => {
                    let candidates = note_plan(&plan, stats);
                    let mut out = Vec::new();
                    match candidates {
                        Some(pos) => {
                            stats.rows_scanned += pos.len() as u64;
                            for &p in pos {
                                let row = &t.rows()[p];
                                if let Some(f) = filter {
                                    if !holds(f, &rel, row, params)? {
                                        continue;
                                    }
                                }
                                out.push(row.clone());
                            }
                        }
                        None => {
                            stats.rows_scanned += t.len() as u64;
                            for row in t.rows() {
                                if let Some(f) = filter {
                                    if !holds(f, &rel, row, params)? {
                                        continue;
                                    }
                                }
                                out.push(row.clone());
                            }
                        }
                    }
                    out
                }
            };
            let cols = schema
                .columns
                .iter()
                .map(|c| (format!("{table}.{}", c.name), c.name.clone()))
                .collect();
            (cols, out)
        }
        Some(j) => {
            let left = catalog.get(table)?;
            let right = catalog.get(&j.table)?;
            stats.rows_scanned += (left.len() + right.len()) as u64;
            let lschema = &left.schema;
            let rschema = &right.schema;
            let cols: Vec<(String, String)> = lschema
                .columns
                .iter()
                .map(|c| (format!("{table}.{}", c.name), c.name.clone()))
                .chain(
                    rschema
                        .columns
                        .iter()
                        .map(|c| (format!("{}.{}", j.table, c.name), c.name.clone())),
                )
                .collect();
            let rel = JoinRel { cols: cols.clone() };
            // Resolve the ON columns against each side.
            let lrel = TableRel {
                table,
                schema: lschema,
            };
            let rrel = TableRel {
                table: &j.table,
                schema: rschema,
            };
            let (lcol, rcol) = match (lrel.col_index(&j.on_left), rrel.col_index(&j.on_right)) {
                (Ok(a), Ok(b)) => (a, b),
                // Allow the ON sides in either order.
                _ => match (lrel.col_index(&j.on_right), rrel.col_index(&j.on_left)) {
                    (Ok(a), Ok(b)) => (a, b),
                    _ => {
                        return Err(DbError::NoSuchColumn(format!(
                            "ON {} = {} does not name one column from each side",
                            j.on_left, j.on_right
                        )))
                    }
                },
            };
            // Candidate pairs by the cheapest strategy the indexes
            // allow, canonicalized to (left, right) position order, so
            // the strategy choice is invisible in the result.
            let mut pairs = join_pairs(left, right, lcol, rcol, stats);
            pairs.sort_unstable();
            let mut out = Vec::with_capacity(pairs.len());
            for (lp, rp) in pairs {
                let l = &left.rows()[lp];
                let r = &right.rows()[rp];
                // Re-verify under SQL equality: index strategies group
                // candidates by canonicalized keys, which collide across
                // numeric types after rounding and group NaNs that are
                // never equal; the unindexed fallback pairs everything.
                if l[lcol].sql_eq(&r[rcol]) != Some(true) {
                    continue;
                }
                let mut combined = l.clone();
                combined.extend(r.iter().cloned());
                if let Some(f) = filter {
                    if !holds(f, &rel, &combined, params)? {
                        continue;
                    }
                }
                out.push(combined);
            }
            (cols, out)
        }
    };
    let rel = JoinRel {
        cols: rel_cols.clone(),
    };

    // ---- Aggregate path ----
    let has_agg = items
        .as_ref()
        .map(|is| is.iter().any(|i| matches!(i.expr, SelExpr::Agg { .. })))
        .unwrap_or(false);
    if has_agg || !group_by.is_empty() {
        let items = items.as_ref().ok_or_else(|| {
            DbError::Parse("SELECT * cannot be combined with GROUP BY / aggregates".into())
        })?;
        // Validate: plain columns must be grouping columns.
        for it in items {
            if let SelExpr::Col(c) = &it.expr {
                if !group_by.iter().any(|g| g.eq_ignore_ascii_case(c)) {
                    return Err(DbError::Parse(format!(
                        "column {c} must appear in GROUP BY or inside an aggregate"
                    )));
                }
            }
        }
        let gidx: Vec<usize> = group_by
            .iter()
            .map(|g| rel.col_index(g))
            .collect::<DbResult<_>>()?;
        // Group rows by typed key vectors, preserving first-seen order.
        let mut order: Vec<Vec<OrdKey>> = Vec::new();
        let mut groups: HashMap<Vec<OrdKey>, Vec<Row>> = HashMap::new();
        if gidx.is_empty() {
            order.push(Vec::new());
            groups.insert(Vec::new(), std::mem::take(&mut rows));
        } else {
            for row in rows.drain(..) {
                let key: Vec<OrdKey> = gidx.iter().map(|&i| row[i].ord_key()).collect();
                if !groups.contains_key(&key) {
                    order.push(key.clone());
                }
                groups.entry(key).or_default().push(row);
            }
        }
        let names: Vec<String> = items.iter().map(SelectItem::output_name).collect();
        let mut out_rows: Vec<Row> = Vec::with_capacity(order.len());
        for key in &order {
            let grp = &groups[key];
            let mut out = Vec::with_capacity(items.len());
            for it in items {
                match &it.expr {
                    SelExpr::Col(c) => {
                        let i = rel.col_index(c)?;
                        out.push(grp.first().map(|r| r[i].clone()).unwrap_or(Value::Null));
                    }
                    SelExpr::Agg { func, arg } => {
                        let v = match arg {
                            None => Value::Int(grp.len() as i64), // COUNT(*)
                            Some(c) => {
                                let i = rel.col_index(c)?;
                                let vals: Vec<&Value> = grp.iter().map(|r| &r[i]).collect();
                                aggregate(*func, &vals)
                            }
                        };
                        out.push(v);
                    }
                }
            }
            out_rows.push(out);
        }
        let out_rel = NamedRel {
            names: names.clone(),
        };
        if let Some(h) = having {
            let mut kept = Vec::with_capacity(out_rows.len());
            for r in out_rows {
                if holds(h, &out_rel, &r, params)? {
                    kept.push(r);
                }
            }
            out_rows = kept;
        }
        let top_k = if distinct { None } else { limit };
        sort_rows(&mut out_rows, order_by, &out_rel, top_k, stats)?;
        finish(names, out_rows, distinct, limit, stats)
    } else {
        // ---- Plain path: sort on the source relation, then project ----
        if !ordered_by_index {
            let top_k = if distinct { None } else { limit };
            sort_rows(&mut rows, order_by, &rel, top_k, stats)?;
        }
        let (names, rows) = match items {
            None => {
                // `*`: plain names for single tables, qualified for joins.
                let names = if join.is_none() {
                    rel_cols.iter().map(|(_, p)| p.clone()).collect()
                } else {
                    rel_cols.iter().map(|(q, _)| q.clone()).collect()
                };
                (names, rows)
            }
            Some(items) => {
                let idx: Vec<usize> = items
                    .iter()
                    .map(|it| match &it.expr {
                        SelExpr::Col(c) => rel.col_index(c),
                        SelExpr::Agg { .. } => unreachable!("aggregate handled above"),
                    })
                    .collect::<DbResult<_>>()?;
                let names = items.iter().map(SelectItem::output_name).collect();
                let rows = rows
                    .into_iter()
                    .map(|r| idx.iter().map(|&i| r[i].clone()).collect())
                    .collect();
                (names, rows)
            }
        };
        finish(names, rows, distinct, limit, stats)
    }
}

/// Candidate row pairs of an eq-join, picked by index availability:
///
/// 1. **merge join** when both sides have an index *led* by their join
///    column — stream both key orders once, cross-producting runs of
///    equal keys;
/// 2. **index-nested-loop** probing the right side's index per left row
///    (or, failing that, the left side's per right row);
/// 3. with no index on either side, **every pair** of non-NULL keys.
///
/// Every strategy yields a superset of the SQL-equal pairs (keys are
/// canonicalized, so numeric types collide after rounding and NaNs
/// group); the caller re-verifies each pair under `sql_eq` and sorts
/// into (left, right) position order, making the choice invisible in
/// the result.
fn join_pairs(
    left: &Table,
    right: &Table,
    lcol: usize,
    rcol: usize,
    stats: &mut DbStats,
) -> Vec<(usize, usize)> {
    let lix = left.join_index(&left.schema.columns[lcol].name);
    let rix = right.join_index(&right.schema.columns[rcol].name);
    if let (Some(li), Some(ri)) = (lix, rix) {
        stats.index_scans += 1;
        stats.join_merge_joins += 1;
        return merge_pairs(left.ordered_groups(li), right.ordered_groups(ri));
    }
    let mut pairs = Vec::new();
    let mut buf = Vec::new();
    if let Some(ri) = rix {
        stats.index_scans += 1;
        for (lp, l) in left.rows().iter().enumerate() {
            if l[lcol].is_null() {
                continue;
            }
            stats.join_index_probes += 1;
            right.probe_leading(ri, &l[lcol], &mut buf);
            pairs.extend(buf.iter().map(|&rp| (lp, rp)));
        }
        return pairs;
    }
    if let Some(li) = lix {
        stats.index_scans += 1;
        for (rp, r) in right.rows().iter().enumerate() {
            if r[rcol].is_null() {
                continue;
            }
            stats.join_index_probes += 1;
            left.probe_leading(li, &r[rcol], &mut buf);
            pairs.extend(buf.iter().map(|&lp| (lp, rp)));
        }
        return pairs;
    }
    stats.full_scans += 1;
    let keyed = |t: &Table, c: usize| -> Vec<usize> {
        (0..t.len())
            .filter(|&p| !t.rows()[p][c].is_null())
            .collect()
    };
    let rps = keyed(right, rcol);
    for lp in keyed(left, lcol) {
        pairs.extend(rps.iter().map(|&rp| (lp, rp)));
    }
    pairs
}

/// Merge two key-ordered `(leading key, positions)` streams: advance
/// the lesser side; on a common key, gather both sides' *runs*
/// (adjacent groups sharing the leading key — composite indexes split
/// one leading key across many tail keys) and emit their cross
/// product. NULL keys sort first and never join, so they are skipped
/// outright.
fn merge_pairs<'a>(
    lg: impl Iterator<Item = (&'a OrdKey, &'a [usize])>,
    rg: impl Iterator<Item = (&'a OrdKey, &'a [usize])>,
) -> Vec<(usize, usize)> {
    let mut lg = lg.filter(|(k, _)| **k != OrdKey::Null).peekable();
    let mut rg = rg.filter(|(k, _)| **k != OrdKey::Null).peekable();
    let mut pairs = Vec::new();
    let (mut lrun, mut rrun) = (Vec::new(), Vec::new());
    while let (Some((lk, _)), Some((rk, _))) = (lg.peek(), rg.peek()) {
        match lk.cmp(rk) {
            Ordering::Less => {
                lg.next();
            }
            Ordering::Greater => {
                rg.next();
            }
            Ordering::Equal => {
                let key = (*lk).clone();
                lrun.clear();
                rrun.clear();
                while lg.peek().is_some_and(|(k, _)| **k == key) {
                    if let Some((_, b)) = lg.next() {
                        lrun.extend_from_slice(b);
                    }
                }
                while rg.peek().is_some_and(|(k, _)| **k == key) {
                    if let Some((_, b)) = rg.next() {
                        rrun.extend_from_slice(b);
                    }
                }
                for &lp in &lrun {
                    for &rp in &rrun {
                        pairs.push((lp, rp));
                    }
                }
            }
        }
    }
    pairs
}

/// Stream the source rows of a single-table SELECT out of an index
/// that already delivers the ORDER BY order, honoring LIMIT as an
/// early exit. Returns `None` when no index qualifies.
///
/// An index qualifies when its key columns are exactly an
/// equality-pinned prefix (from the WHERE conjuncts) followed by the
/// ORDER BY columns in sequence — nothing more. The exact-cover rule is
/// what makes ties deterministic: rows equal on every key column share
/// one bucket, and buckets store ascending positions, so ties come out
/// in scan order just as the position-stable sort would emit them.
/// Range bounds on the first ORDER BY column clip the walk; the full
/// predicate is still re-verified per row.
fn stream_ordered_rows(
    t: &crate::table::Table,
    rel: &TableRel<'_>,
    filter: &Option<Expr>,
    params: &[Value],
    order_by: &[OrderBy],
    limit: Option<usize>,
    stats: &mut DbStats,
) -> DbResult<Option<Vec<Row>>> {
    let desc = order_by[0].desc;
    let mut order_cols: Vec<&str> = Vec::with_capacity(order_by.len());
    for o in order_by {
        if rel.col_index(&o.column).is_err() {
            return Ok(None); // e.g. ORDER BY an output alias
        }
        order_cols.push(o.column.rsplit('.').next().unwrap_or(&o.column));
    }
    let mut bounds = Vec::new();
    if let Some(f) = filter {
        collect_bounds(f, params, rel, &mut bounds);
    }
    if bounds.iter().any(ColBounds::has_null) {
        return Ok(None); // empty result; the probe plan reports it
    }
    for (i, def) in t.indexes().iter().enumerate() {
        let prefix: Vec<&Value> = def
            .columns
            .iter()
            .map_while(|c| {
                bounds
                    .iter()
                    .find(|b| b.col.eq_ignore_ascii_case(c))
                    .and_then(|b| b.eq.as_ref())
            })
            .collect();
        let e = prefix.len();
        if def.columns.len() != e + order_cols.len()
            || !def.columns[e..]
                .iter()
                .zip(&order_cols)
                .all(|(dc, oc)| dc.eq_ignore_ascii_case(oc))
        {
            continue;
        }
        let (lo, hi) = bounds
            .iter()
            .find(|b| b.col.eq_ignore_ascii_case(&def.columns[e]))
            .map_or((None, None), |b| (b.lo.as_ref(), b.hi.as_ref()));
        let iter = t.stream_ordered(i, &prefix, lo, hi, desc);
        stats.index_scans += 1;
        stats.plan_ordered_scans += 1;
        stats.sorts_avoided += 1;
        let rows = t.rows();
        let mut out = Vec::new();
        for p in iter {
            stats.rows_scanned += 1;
            let row = &rows[p];
            if let Some(f) = filter {
                if !holds(f, rel, row, params)? {
                    continue;
                }
            }
            out.push(row.clone());
            if limit.is_some_and(|l| out.len() >= l) {
                break;
            }
        }
        return Ok(Some(out));
    }
    Ok(None)
}

/// Sort rows by the ORDER BY keys. When a `top_k` row budget applies
/// (LIMIT without DISTINCT), the sort is a partial selection: pick the
/// first `k` under the ordering, then sort only those — `ORDER BY ...
/// LIMIT k` stops paying for a full sort of the table.
///
/// NULLs sort first ascending (last descending), matching the indexes'
/// key order, and ties are resolved by input position in both
/// the full and the top-k variants, so a sorted result is byte-for-byte
/// the one an index-backed ordered stream produces.
fn sort_rows(
    rows: &mut Vec<Row>,
    order_by: &[OrderBy],
    rel: &impl Resolve,
    top_k: Option<usize>,
    stats: &mut DbStats,
) -> DbResult<()> {
    if order_by.is_empty() {
        return Ok(());
    }
    stats.order_sorts += 1;
    let keys: Vec<(usize, bool)> = order_by
        .iter()
        .map(|o| Ok((rel.col_index(&o.column)?, o.desc)))
        .collect::<DbResult<_>>()?;
    let cmp = |a: &Row, b: &Row| {
        for &(i, desc) in &keys {
            let o = match (a[i].is_null(), b[i].is_null()) {
                (true, true) => Ordering::Equal,
                (true, false) => Ordering::Less,
                (false, true) => Ordering::Greater,
                (false, false) => a[i].sql_cmp(&b[i]).unwrap_or(Ordering::Equal),
            };
            let o = if desc { o.reverse() } else { o };
            if o != Ordering::Equal {
                return o;
            }
        }
        Ordering::Equal
    };
    match top_k {
        Some(k) if k > 0 && k < rows.len() => {
            // Tag with input position so the unstable selection stays
            // deterministic across equal keys at the cut line.
            let mut tagged: Vec<(usize, Row)> = rows.drain(..).enumerate().collect();
            let cmp2 = |a: &(usize, Row), b: &(usize, Row)| cmp(&a.1, &b.1).then(a.0.cmp(&b.0));
            tagged.select_nth_unstable_by(k - 1, cmp2);
            tagged.truncate(k);
            tagged.sort_by(cmp2);
            rows.extend(tagged.into_iter().map(|(_, r)| r));
        }
        _ => rows.sort_by(cmp),
    }
    Ok(())
}

/// DISTINCT + LIMIT + wrap-up.
fn finish(
    names: Vec<String>,
    mut rows: Vec<Row>,
    distinct: bool,
    limit: Option<usize>,
    stats: &mut DbStats,
) -> DbResult<Outcome> {
    if distinct {
        let mut seen = std::collections::HashSet::new();
        rows.retain(|r| seen.insert(r.iter().map(Value::ord_key).collect::<Vec<OrdKey>>()));
    }
    if let Some(l) = limit {
        rows.truncate(l);
    }
    stats.rows_returned += rows.len() as u64;
    Ok(Outcome::Rows {
        columns: names,
        rows,
    })
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

    // ---- aggregates / grouping ----

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
    fn group_by_counts() {
        let mut c = Catalog::new();
        run(&mut c, "CREATE TABLE g (ds TEXT, bytes INT)", &[]);
        run(
            &mut c,
            "INSERT INTO g VALUES ('p', 10), ('q', 20), ('p', 30), ('q', 40), ('p', 50)",
            &[],
        );
        match run(
            &mut c,
            "SELECT ds, COUNT(*) AS n, SUM(bytes) AS total FROM g GROUP BY ds ORDER BY ds",
            &[],
        ) {
            Outcome::Rows { columns, rows } => {
                assert_eq!(columns, vec!["ds", "n", "total"]);
                assert_eq!(
                    rows,
                    vec![
                        vec![Value::Text("p".into()), Value::Int(3), Value::Int(90)],
                        vec![Value::Text("q".into()), Value::Int(2), Value::Int(60)],
                    ]
                );
            }
            other => panic!("wrong: {other:?}"),
        }
    }

    #[test]
    fn having_filters_groups() {
        let mut c = Catalog::new();
        run(&mut c, "CREATE TABLE g (ds TEXT)", &[]);
        run(&mut c, "INSERT INTO g VALUES ('p'), ('q'), ('p')", &[]);
        let rows = rows_of(run(
            &mut c,
            "SELECT ds, COUNT(*) AS n FROM g GROUP BY ds HAVING n > 1",
            &[],
        ));
        assert_eq!(rows, vec![vec![Value::Text("p".into()), Value::Int(2)]]);
    }

    #[test]
    fn bare_column_outside_group_by_rejected() {
        let mut c = setup();
        let err = try_run(&mut c, "SELECT name, COUNT(*) FROM t", &[]);
        assert!(matches!(err, Err(DbError::Parse(_))));
    }

    #[test]
    fn distinct_dedups() {
        let mut c = Catalog::new();
        run(&mut c, "CREATE TABLE d (x INT)", &[]);
        run(&mut c, "INSERT INTO d VALUES (1), (2), (1), (3), (2)", &[]);
        let rows = rows_of(run(&mut c, "SELECT DISTINCT x FROM d ORDER BY x", &[]));
        assert_eq!(
            rows,
            vec![
                vec![Value::Int(1)],
                vec![Value::Int(2)],
                vec![Value::Int(3)]
            ]
        );
    }

    // ---- joins ----

    fn join_setup() -> Catalog {
        let mut c = Catalog::new();
        run(&mut c, "CREATE TABLE runs (runid INT, app TEXT)", &[]);
        run(
            &mut c,
            "CREATE TABLE execs (runid INT, ds TEXT, off INT)",
            &[],
        );
        run(
            &mut c,
            "INSERT INTO runs VALUES (1, 'fun3d'), (2, 'rt')",
            &[],
        );
        run(
            &mut c,
            "INSERT INTO execs VALUES (1, 'p', 0), (1, 'q', 100), (2, 'nodes', 0)",
            &[],
        );
        c
    }

    #[test]
    fn inner_join_matches() {
        let mut c = join_setup();
        let rows = rows_of(run(
            &mut c,
            "SELECT app, ds FROM runs JOIN execs ON runs.runid = execs.runid \
             WHERE app = 'fun3d' ORDER BY ds",
            &[],
        ));
        assert_eq!(
            rows,
            vec![
                vec![Value::Text("fun3d".into()), Value::Text("p".into())],
                vec![Value::Text("fun3d".into()), Value::Text("q".into())],
            ]
        );
    }

    #[test]
    fn join_star_uses_qualified_names() {
        let mut c = join_setup();
        match run(
            &mut c,
            "SELECT * FROM runs JOIN execs ON runs.runid = execs.runid",
            &[],
        ) {
            Outcome::Rows { columns, rows } => {
                assert_eq!(columns[0], "runs.runid");
                assert_eq!(columns[2], "execs.runid");
                assert_eq!(rows.len(), 3);
            }
            other => panic!("wrong: {other:?}"),
        }
    }

    #[test]
    fn ambiguous_unqualified_column_rejected() {
        let mut c = join_setup();
        let err = try_run(
            &mut c,
            "SELECT runid FROM runs JOIN execs ON runs.runid = execs.runid",
            &[],
        );
        assert!(matches!(err, Err(DbError::NoSuchColumn(m)) if m.contains("ambiguous")));
    }

    #[test]
    fn join_with_aggregates() {
        let mut c = join_setup();
        let rows = rows_of(run(
            &mut c,
            "SELECT app, COUNT(*) AS n FROM runs JOIN execs ON runs.runid = execs.runid \
             GROUP BY app ORDER BY app",
            &[],
        ));
        assert_eq!(
            rows,
            vec![
                vec![Value::Text("fun3d".into()), Value::Int(2)],
                vec![Value::Text("rt".into()), Value::Int(1)],
            ]
        );
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

    // ---- streaming aggregates / top-k ----

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

    #[test]
    fn distinct_with_limit_dedups_before_truncating() {
        let mut c = Catalog::new();
        run(&mut c, "CREATE TABLE d (x INT)", &[]);
        run(
            &mut c,
            "INSERT INTO d VALUES (2), (2), (2), (1), (1), (3)",
            &[],
        );
        let rows = rows_of(run(
            &mut c,
            "SELECT DISTINCT x FROM d ORDER BY x LIMIT 2",
            &[],
        ));
        assert_eq!(rows, vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
    }

    // ---- range planner / composite indexes ----

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
    fn range_probe_walks_ordered_index() {
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
        assert_eq!(
            (stats.full_scans, stats.index_scans, stats.plan_range_probes),
            (0, 1, 1)
        );
        assert_eq!(stats.rows_scanned, 4, "only the window is visited");
    }

    #[test]
    fn strict_bounds_and_merging_give_exact_rows() {
        let mut c = exec_like();
        let mut stats = DbStats::default();
        // Strict bounds are widened for the probe; re-verification and
        // tightest-bound merging still yield exactly (5, 8].
        let out = execute(
            &mut c,
            &parse("SELECT ts FROM e WHERE runid = 1 AND ts > 2 AND ts > 5 AND ts <= 8").unwrap(),
            &[],
            &mut stats,
        )
        .unwrap();
        assert_eq!(
            rows_of(out),
            (6..=8).map(|t| vec![Value::Int(t)]).collect::<Vec<_>>()
        );
        assert_eq!(stats.plan_range_probes, 1);
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
            (stats.plan_point_probes, stats.plan_range_probes),
            (1, 0),
            "conjunct order does not matter for the composite key"
        );
        assert_eq!(stats.rows_scanned, 1);
    }

    #[test]
    fn null_bound_short_circuits_to_empty() {
        let mut c = exec_like();
        let mut stats = DbStats::default();
        let out = execute(
            &mut c,
            &parse("SELECT ts FROM e WHERE runid = 1 AND ts < ?").unwrap(),
            &[Value::Null],
            &mut stats,
        )
        .unwrap();
        assert!(rows_of(out).is_empty(), "NULL comparison matches nothing");
        assert_eq!((stats.index_scans, stats.rows_scanned), (1, 0));
    }

    #[test]
    fn order_by_limit_streams_off_ordered_index() {
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
        assert_eq!(
            (
                stats.plan_ordered_scans,
                stats.sorts_avoided,
                stats.order_sorts
            ),
            (1, 1, 0),
            "top-k streams keys backwards, no sort"
        );
        assert_eq!(stats.rows_scanned, 3, "LIMIT stops the walk");
        // A range bound on the order column clips the stream too.
        let out = execute(
            &mut c,
            &parse("SELECT ts FROM e WHERE runid = 1 AND ts >= 20 ORDER BY ts LIMIT 2").unwrap(),
            &[],
            &mut stats,
        )
        .unwrap();
        assert_eq!(
            rows_of(out),
            vec![vec![Value::Int(20)], vec![Value::Int(21)]]
        );
        assert_eq!(stats.plan_ordered_scans, 2);
    }

    #[test]
    fn streamed_order_matches_sorted_order() {
        // Same query with and without the index: identical rows
        // in identical order, including scan-order ties.
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
        for sql in [
            "SELECT tag FROM s ORDER BY k LIMIT 3",
            "SELECT tag FROM s ORDER BY k DESC LIMIT 3",
            "SELECT tag FROM s ORDER BY k",
        ] {
            let mut stats = DbStats::default();
            let a =
                rows_of(execute(&mut build(true), &parse(sql).unwrap(), &[], &mut stats).unwrap());
            assert_eq!(stats.sorts_avoided, 1, "indexed run streams: {sql}");
            let b = rows_of(run(&mut build(false), sql, &[]));
            assert_eq!(a, b, "stream/sort divergence for: {sql}");
        }
    }

    #[test]
    fn min_max_peek_reads_index_edges_without_rows() {
        let mut c = exec_like();
        // NULLs are skipped by MIN even though they sort first.
        run(
            &mut c,
            "INSERT INTO e VALUES (1, NULL, NULL), (9, NULL, NULL)",
            &[],
        );
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
            (stats.plan_point_probes, stats.rows_scanned),
            (2, 2),
            "one edge peek per aggregate, no bucket sweep"
        );
        // An all-NULL bucket peeks to NULL, like the scan would report.
        let out = run(&mut c, "SELECT MAX(ts) FROM e WHERE runid = 9", &[]);
        assert_eq!(rows_of(out), vec![vec![Value::Null]]);
        // Unfiltered MAX peeks the index tail (run_table's AllocMax).
        run(&mut c, "CREATE INDEX e_ts ON e (ts)", &[]);
        let mut stats = DbStats::default();
        let out = execute(
            &mut c,
            &parse("SELECT MAX(ts) FROM e").unwrap(),
            &[],
            &mut stats,
        )
        .unwrap();
        assert_eq!(rows_of(out), vec![vec![Value::Int(24)]]);
        assert_eq!(stats.rows_scanned, 1);
    }

    #[test]
    fn peek_falls_back_when_any_item_is_not_peekable() {
        let mut c = exec_like();
        let mut stats = DbStats::default();
        // SUM can't peek, so the whole item list takes the generic pass.
        let out = execute(
            &mut c,
            &parse("SELECT MAX(ts), SUM(off) FROM e WHERE runid = 0").unwrap(),
            &[],
            &mut stats,
        )
        .unwrap();
        assert_eq!(rows_of(out), vec![vec![Value::Int(24), Value::Int(300)]]);
        assert_eq!(stats.rows_scanned, 25, "generic pass visits the bucket");
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
            (stats.full_scans, stats.plan_range_probes),
            (0, 1),
            "leading-column equality rides the composite as a prefix walk"
        );
        assert_eq!(stats.rows_scanned, 25);
    }
}
