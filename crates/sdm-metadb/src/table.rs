//! Row storage and secondary indexes.
//!
//! Every secondary index (`OrdIndex`) is `BTreeMap`-backed over one or
//! more columns, keyed by composite [`OrdKey`] vectors. It answers one
//! question, [`Table::probe_prefix`]: the rows whose leading key
//! columns equal the given values, in ascending row position.
//!
//! A probe returns *candidates*: rows whose keys match under the
//! canonical key encoding. Callers re-verify candidates against the
//! real predicate, which is what drops NaN rows: they share one key,
//! but `NaN = NaN` is unknown.

use std::collections::BTreeMap;
use std::ops::Bound;

use crate::error::{DbError, DbResult};
use crate::schema::Schema;
use crate::value::{OrdKey, Value};

/// A row: one value per schema column.
pub type Row = Vec<Value>;

/// A secondary-index definition (`CREATE INDEX name ON t (c1, c2, ...)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexDef {
    /// Index name, unique within the table.
    pub name: String,
    /// Indexed column names, outermost key first.
    pub columns: Vec<String>,
}

/// Drop `deleted` positions from an ascending bucket and shift the
/// survivors down past them (one pass; `rank` = deleted positions below
/// the survivor).
fn shift_down(bucket: &mut Vec<usize>, deleted: &[usize]) {
    let mut w = 0;
    for r in 0..bucket.len() {
        let p = bucket[r];
        match deleted.binary_search(&p) {
            Ok(_) => {} // this row was deleted
            Err(rank) => {
                bucket[w] = p - rank;
                w += 1;
            }
        }
    }
    bucket.truncate(w);
}

/// Undo of [`shift_down`]: shift survivors back up past the
/// re-inserted ascending `entries` (two-pointer walk; both sides
/// ascending).
fn shift_up(bucket: &mut [usize], entries: &[(usize, Row)]) {
    let mut j = 0usize; // entries consumed so far for this bucket
    for p in bucket.iter_mut() {
        let mut f = *p + j;
        while j < entries.len() && entries[j].0 <= f {
            j += 1;
            f = *p + j;
        }
        *p = f;
    }
}

/// A secondary index: resolved column positions plus a `BTreeMap` from
/// composite [`OrdKey`] to **ascending** row positions.
///
/// The map is maintained *incrementally*: INSERT appends the new
/// position to its bucket, DELETE drops removed positions and shifts the
/// survivors, UPDATE moves a position between buckets only when the
/// indexed cells actually changed. Nothing rebuilds a whole map on the
/// read path, and probes take `&self`, so they run under a shared lock.
/// Buckets stay in ascending row order so a probe returns rows in the
/// order a full scan would.
///
/// *Every* row is indexed — including rows whose key columns are NULL
/// ([`OrdKey::Null`] sorts first). A prefix probe
/// for `(runid = 5)` on a `(runid, timestep)` index must see rows whose
/// `timestep` is NULL, or the index would hide rows a full scan finds.
/// A probe never looks a NULL up (it answers that with no rows), so
/// NULL-keyed rows only surface under a shorter prefix, where
/// re-verification decides.
#[derive(Debug, Clone, PartialEq)]
struct OrdIndex {
    cols: Vec<usize>,
    map: BTreeMap<Vec<OrdKey>, Vec<usize>>,
}

impl OrdIndex {
    fn build(cols: Vec<usize>, rows: &[Row]) -> Self {
        let mut o = OrdIndex {
            cols,
            map: BTreeMap::new(),
        };
        for (pos, row) in rows.iter().enumerate() {
            o.note_append(pos, row);
        }
        o
    }

    /// The composite key of `row`.
    fn key_of(&self, row: &Row) -> Vec<OrdKey> {
        self.cols.iter().map(|&c| row[c].ord_key()).collect()
    }

    fn note_append(&mut self, pos: usize, row: &Row) {
        self.map.entry(self.key_of(row)).or_default().push(pos);
    }

    fn forget_tail(&mut self, pos: usize, row: &Row) {
        self.remove_entry(self.key_of(row), pos);
    }

    fn remove_entry(&mut self, key: Vec<OrdKey>, pos: usize) {
        let Some(bucket) = self.map.get_mut(&key) else {
            return;
        };
        if let Ok(at) = bucket.binary_search(&pos) {
            bucket.remove(at);
        }
        if bucket.is_empty() {
            self.map.remove(&key);
        }
    }

    fn insert_entry(&mut self, key: Vec<OrdKey>, pos: usize) {
        let bucket = self.map.entry(key).or_default();
        let at = bucket.partition_point(|&q| q < pos);
        bucket.insert(at, pos);
    }

    fn note_delete(&mut self, deleted: &[usize]) {
        for bucket in self.map.values_mut() {
            shift_down(bucket, deleted);
        }
        self.map.retain(|_, b| !b.is_empty());
    }

    fn note_insert_at(&mut self, entries: &[(usize, Row)]) {
        for bucket in self.map.values_mut() {
            shift_up(bucket, entries);
        }
        for (pos, row) in entries {
            self.insert_entry(self.key_of(row), *pos);
        }
    }

    fn note_update(&mut self, pos: usize, old: &Row, new: &Row) {
        let (old_key, new_key) = (self.key_of(old), self.key_of(new));
        if old_key == new_key {
            return;
        }
        self.remove_entry(old_key, pos);
        self.insert_entry(new_key, pos);
    }
}

/// A heap table: schema plus rows in insertion order, with optional
/// secondary indexes maintained incrementally (`maps` parallels
/// `indexes`).
///
/// A checkpoint persists the definitions, not the maps: replaying its
/// CREATE INDEX frames after the rows builds each map once.
#[derive(Debug, Clone)]
pub struct Table {
    /// The table's schema.
    pub schema: Schema,
    rows: Vec<Row>,
    /// Declared secondary indexes.
    indexes: Vec<IndexDef>,
    maps: Vec<OrdIndex>,
}

impl Table {
    /// An empty table with the given schema.
    pub fn new(schema: Schema) -> Self {
        Self {
            schema,
            rows: Vec::new(),
            indexes: Vec::new(),
            maps: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Validate, coerce, and append a row, patching each index map in
    /// place (O(#indexes · log rows), independent of table size).
    pub fn insert(&mut self, row: Row) -> DbResult<()> {
        let row = self.schema.check_row(row)?;
        let pos = self.rows.len();
        for m in &mut self.maps {
            m.note_append(pos, &row);
        }
        self.rows.push(row);
        Ok(())
    }

    /// Undo of the last `n` [`Table::insert`]s: truncate the appended
    /// rows and pop their index entries. O(n · #indexes).
    pub(crate) fn undo_append(&mut self, n: usize) {
        for _ in 0..n {
            let pos = self.rows.len() - 1;
            let row = &self.rows[pos];
            for m in &mut self.maps {
                m.forget_tail(pos, row);
            }
            self.rows.pop();
        }
    }

    /// All rows, insertion-ordered.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Remove the rows at `positions` (ascending, deduplicated),
    /// returning them in the same order. Index maps are patched in
    /// place; untouched rows keep their relative order.
    pub fn delete_at(&mut self, positions: &[usize]) -> Vec<Row> {
        if positions.is_empty() {
            return Vec::new();
        }
        debug_assert!(positions.windows(2).all(|w| w[0] < w[1]));
        let mut removed = Vec::with_capacity(positions.len());
        let mut next = 0; // index into positions
        let mut w = 0;
        for r in 0..self.rows.len() {
            if next < positions.len() && positions[next] == r {
                removed.push(std::mem::take(&mut self.rows[r]));
                next += 1;
            } else {
                self.rows.swap(w, r);
                w += 1;
            }
        }
        self.rows.truncate(w);
        for m in &mut self.maps {
            m.note_delete(positions);
        }
        removed
    }

    /// Undo of [`Table::delete_at`]: restore `entries` (ascending by
    /// original position) to exactly where they were.
    pub(crate) fn insert_at(&mut self, entries: Vec<(usize, Row)>) {
        if entries.is_empty() {
            return;
        }
        for m in &mut self.maps {
            m.note_insert_at(&entries);
        }
        let mut merged = Vec::with_capacity(self.rows.len() + entries.len());
        let mut old = std::mem::take(&mut self.rows).into_iter();
        let mut entries = entries.into_iter().peekable();
        loop {
            if let Some((_, row)) = entries.next_if(|(p, _)| *p == merged.len()) {
                merged.push(row);
            } else if let Some(row) = old.next() {
                merged.push(row);
            } else if let Some((_, row)) = entries.next() {
                merged.push(row); // restores past the current tail
            } else {
                break;
            }
        }
        self.rows = merged;
    }

    /// Remove every row, returning them (DELETE without WHERE; the
    /// caller keeps the rows for undo).
    pub fn clear(&mut self) -> Vec<Row> {
        for m in &mut self.maps {
            m.map.clear();
        }
        std::mem::take(&mut self.rows)
    }

    /// Replace the rows at the given positions with pre-validated,
    /// pre-coerced replacements, returning the displaced originals
    /// (the UPDATE undo records). Index maps are patched only for
    /// cells that actually changed.
    pub fn apply_updates(&mut self, updates: Vec<(usize, Row)>) -> Vec<(usize, Row)> {
        let mut old_rows = Vec::with_capacity(updates.len());
        for (pos, new_row) in updates {
            let old_row = std::mem::replace(&mut self.rows[pos], new_row);
            for m in &mut self.maps {
                m.note_update(pos, &old_row, &self.rows[pos]);
            }
            old_rows.push((pos, old_row));
        }
        old_rows
    }

    /// Declare a secondary index over one or more columns; its map is
    /// built once here (O(rows)) and patched incrementally from then on.
    /// Errors if a column is unknown or the name is taken.
    pub fn create_index(&mut self, name: &str, columns: &[&str]) -> DbResult<()> {
        let cols = columns
            .iter()
            .map(|c| self.schema.index_of(c))
            .collect::<DbResult<Vec<usize>>>()?;
        if cols.is_empty() {
            return Err(DbError::Arity(format!("index {name} names no columns")));
        }
        if self
            .indexes
            .iter()
            .any(|i| i.name.eq_ignore_ascii_case(name))
        {
            return Err(DbError::IndexExists(name.to_string()));
        }
        self.indexes.push(IndexDef {
            name: name.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
        });
        self.maps.push(OrdIndex::build(cols, &self.rows));
        Ok(())
    }

    /// Drop an index by name.
    pub fn drop_index(&mut self, name: &str) -> DbResult<()> {
        match self
            .indexes
            .iter()
            .position(|i| i.name.eq_ignore_ascii_case(name))
        {
            None => Err(DbError::NoSuchIndex(name.to_string())),
            Some(i) => {
                self.indexes.remove(i);
                self.maps.remove(i);
                Ok(())
            }
        }
    }

    /// Declared index definitions.
    pub fn indexes(&self) -> &[IndexDef] {
        &self.indexes
    }

    /// Prefix probe through index `i`: the ascending positions of the
    /// rows whose leading `vals.len()` key columns equal `vals`, the
    /// whole key or any prefix of it. Rows whose later key columns are
    /// NULL are included; a NULL in `vals` matches nothing (`NULL = x`
    /// is unknown). Callers re-verify the rows against their predicate.
    pub fn probe_prefix(&self, i: usize, vals: &[&Value]) -> Vec<usize> {
        if vals.iter().any(|v| v.is_null()) {
            return Vec::new();
        }
        let prefix: Vec<OrdKey> = vals.iter().map(|v| v.ord_key()).collect();
        let mut out: Vec<usize> = self.maps[i]
            .map
            .range::<[OrdKey], _>((Bound::Included(prefix.as_slice()), Bound::Unbounded))
            .take_while(|(key, _)| key.starts_with(&prefix))
            .flat_map(|(_, bucket)| bucket.iter().copied())
            .collect();
        out.sort_unstable();
        out
    }

    /// Test/debug invariant: every patched map equals a from-scratch
    /// rebuild (same buckets, same ascending positions).
    #[cfg(test)]
    fn maps_match_rebuild(&self) -> bool {
        self.maps
            .iter()
            .all(|o| o.map == OrdIndex::build(o.cols.clone(), &self.rows).map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColType, Column};

    fn table() -> Table {
        Table::new(
            Schema::new(vec![
                Column {
                    name: "k".into(),
                    ctype: ColType::Int,
                },
                Column {
                    name: "v".into(),
                    ctype: ColType::Text,
                },
            ])
            .unwrap(),
        )
    }

    #[test]
    fn insert_and_scan() {
        let mut t = table();
        t.insert(vec![Value::Int(1), Value::from("a")]).unwrap();
        t.insert(vec![Value::Int(2), Value::from("b")]).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.rows()[1][1].as_str(), Some("b"));
    }

    #[test]
    fn insert_validates() {
        let mut t = table();
        assert!(t
            .insert(vec![Value::from("bad"), Value::from("a")])
            .is_err());
        assert!(t.is_empty());
    }

    #[test]
    fn delete_where_counts() {
        let mut t = table();
        for i in 0..5 {
            t.insert(vec![Value::Int(i), Value::from("x")]).unwrap();
        }
        let removed = t.delete_at(&[0, 2, 4]);
        assert_eq!(removed.len(), 3);
        assert_eq!(t.len(), 2);
        assert_eq!(t.rows()[1][0], Value::Int(3));
    }

    #[test]
    fn index_lookup_finds_rows() {
        let mut t = table();
        for i in 0..10 {
            t.insert(vec![Value::Int(i % 3), Value::from("x")]).unwrap();
        }
        t.create_index("ik", &["k"]).unwrap();
        assert_eq!(t.probe_prefix(0, &[&Value::Int(1)]), [1, 4, 7]);
        // A key longer than the index matches nothing.
        assert!(t
            .probe_prefix(0, &[&Value::Int(1), &Value::from("x")])
            .is_empty());
        // Probe miss.
        assert!(t.probe_prefix(0, &[&Value::Int(99)]).is_empty());
    }

    #[test]
    fn index_tracks_mutations() {
        let mut t = table();
        t.insert(vec![Value::Int(7), Value::from("a")]).unwrap();
        t.create_index("ik", &["k"]).unwrap();
        let seven = |t: &Table| t.probe_prefix(0, &[&Value::Int(7)]).len();
        assert_eq!(seven(&t), 1);
        t.insert(vec![Value::Int(7), Value::from("b")]).unwrap();
        assert_eq!(seven(&t), 2);
        t.delete_at(&[0]);
        assert_eq!(t.probe_prefix(0, &[&Value::Int(7)]), [0]);
        assert!(t.maps_match_rebuild());
    }

    #[test]
    fn index_cross_type_numeric_probe() {
        let mut t = table();
        t.insert(vec![Value::Int(2), Value::from("a")]).unwrap();
        t.create_index("ik", &["k"]).unwrap();
        // SQL: 2 = 2.0, so a Double probe must find the Int row.
        assert_eq!(t.probe_prefix(0, &[&Value::Double(2.0)]), [0]);
    }

    #[test]
    fn null_probe_returns_nothing() {
        let mut t = table();
        t.insert(vec![Value::Null, Value::from("a")]).unwrap();
        t.create_index("ik", &["k"]).unwrap();
        assert!(t.probe_prefix(0, &[&Value::Null]).is_empty());
    }

    #[test]
    fn duplicate_index_name_rejected() {
        let mut t = table();
        t.create_index("i", &["k"]).unwrap();
        assert!(matches!(
            t.create_index("i", &["v"]),
            Err(DbError::IndexExists(_))
        ));
        assert!(matches!(
            t.create_index("j", &["nope"]),
            Err(DbError::NoSuchColumn(_))
        ));
        assert!(matches!(t.create_index("j", &[]), Err(DbError::Arity(_))));
    }

    #[test]
    fn drop_index_removes() {
        let mut t = table();
        t.create_index("i", &["k"]).unwrap();
        t.drop_index("i").unwrap();
        assert!(t.indexes().is_empty());
        assert!(matches!(t.drop_index("i"), Err(DbError::NoSuchIndex(_))));
    }

    #[test]
    fn incremental_maintenance_matches_rebuild() {
        // A deterministic mixed workload: inserts, point updates,
        // range deletes, undo of each — after every step the patched
        // maps must equal a from-scratch rebuild. A composite index
        // rides along with the two single-column ones.
        let mut t = table();
        t.create_index("ik", &["k"]).unwrap();
        t.create_index("iv", &["v"]).unwrap();
        t.create_index("okv", &["k", "v"]).unwrap();
        for i in 0..40 {
            let v = if i % 5 == 0 {
                Value::Null
            } else {
                Value::from(format!("s{}", i % 4))
            };
            t.insert(vec![Value::Int(i % 7), v]).unwrap();
            assert!(t.maps_match_rebuild(), "after insert {i}");
        }
        // Point updates that move keys between buckets (and to NULL).
        let updates: Vec<(usize, Row)> = vec![
            (3, vec![Value::Int(100), Value::from("moved")]),
            (10, vec![Value::Null, Value::Null]),
            (11, vec![Value::Int(11 % 7), Value::from("s0")]),
        ];
        let old = t.apply_updates(updates);
        assert!(t.maps_match_rebuild(), "after updates");
        // Undo the updates by applying the old rows back.
        t.apply_updates(old);
        assert!(t.maps_match_rebuild(), "after update undo");
        // Delete a scattered set, check, then restore it.
        let positions: Vec<usize> = vec![0, 1, 7, 13, 14, 15, 39];
        let removed = t.delete_at(&positions);
        assert_eq!(removed.len(), positions.len());
        assert!(t.maps_match_rebuild(), "after delete");
        let entries: Vec<(usize, Row)> = positions.into_iter().zip(removed).collect();
        t.insert_at(entries);
        assert_eq!(t.len(), 40);
        assert!(t.maps_match_rebuild(), "after delete undo");
        // Undo a batch of appends.
        for i in 0..4 {
            t.insert(vec![Value::Int(i), Value::from("tail")]).unwrap();
        }
        t.undo_append(4);
        assert_eq!(t.len(), 40);
        assert!(t.maps_match_rebuild(), "after append undo");
        // Clear drops everything.
        let all = t.clear();
        assert_eq!(all.len(), 40);
        assert!(t.maps_match_rebuild(), "after clear");
    }

    #[test]
    fn negative_zero_probe_finds_positive_zero_rows() {
        let mut t = Table::new(
            Schema::new(vec![Column {
                name: "d".into(),
                ctype: ColType::Double,
            }])
            .unwrap(),
        );
        t.insert(vec![Value::Double(-0.0)]).unwrap();
        t.insert(vec![Value::Double(0.0)]).unwrap();
        t.create_index("od", &["d"]).unwrap();
        // SQL: -0.0 = 0.0, so either probe must return both rows.
        for probe in [Value::Double(0.0), Value::Double(-0.0), Value::Int(0)] {
            assert_eq!(t.probe_prefix(0, &[&probe]), [0, 1]);
        }
    }

    /// A (runid, timestep)-shaped table for prefix-probe tests.
    fn composite_table() -> Table {
        let mut t = Table::new(
            Schema::new(vec![
                Column {
                    name: "runid".into(),
                    ctype: ColType::Int,
                },
                Column {
                    name: "ts".into(),
                    ctype: ColType::Int,
                },
            ])
            .unwrap(),
        );
        // Interleave runs so positions don't follow key order.
        for ts in 0..12 {
            for run in 0..3 {
                t.insert(vec![Value::Int(run), Value::Int(ts)]).unwrap();
            }
        }
        t.create_index("o_run_ts", &["runid", "ts"]).unwrap();
        t
    }

    #[test]
    fn prefix_probe_takes_the_whole_key_or_a_prefix() {
        let t = composite_table();
        let hits = t.probe_prefix(0, &[&Value::Int(2), &Value::Int(5)]);
        assert_eq!(hits.len(), 1);
        assert_eq!(t.rows()[hits[0]], vec![Value::Int(2), Value::Int(5)]);
        // A leading-column prefix spans many keys; the positions come
        // back ascending, in scan order.
        let scan: Vec<usize> = (0..t.len())
            .filter(|&p| t.rows()[p][0] == Value::Int(1))
            .collect();
        assert_eq!(t.probe_prefix(0, &[&Value::Int(1)]), scan);
        // NULL anywhere in the key matches nothing.
        assert!(t
            .probe_prefix(0, &[&Value::Null, &Value::Int(5)])
            .is_empty());
    }

    #[test]
    fn prefix_probe_includes_null_tail_rows() {
        let mut t = composite_table();
        // A row whose tail key column is NULL must still be found by a
        // prefix probe on runid — a full scan would return it.
        t.insert(vec![Value::Int(1), Value::Null]).unwrap();
        let pos = t.len() - 1;
        assert!(t.probe_prefix(0, &[&Value::Int(1)]).contains(&pos));
    }

    #[test]
    fn text_range_probe() {
        // Text keys probe by equality; a numeric key never meets a text
        // key (disjoint key classes), through SQL pins as well.
        let mut t = table();
        for (i, name) in ["alpha", "beta", "delta", "gamma"].iter().enumerate() {
            t.insert(vec![Value::Int(i as i64), Value::from(*name)])
                .unwrap();
        }
        t.create_index("ov", &["v"]).unwrap();
        assert_eq!(t.probe_prefix(0, &[&Value::from("delta")]), [2]);
        assert!(t.probe_prefix(0, &[&Value::Int(0)]).is_empty());

        let db = crate::db::Database::new();
        db.exec("CREATE TABLE w (i INT, name TEXT)", &[]).unwrap();
        db.exec(
            "INSERT INTO w VALUES (0, 'alpha'), (1, 'beta'), (2, 'delta'), (3, 'gamma')",
            &[],
        )
        .unwrap();
        db.exec("CREATE INDEX w_name ON w (name)", &[]).unwrap();
        let ids = |sql: &str| -> Vec<Value> {
            db.exec(sql, &[])
                .unwrap()
                .rows
                .into_iter()
                .map(|r| r[0].clone())
                .collect()
        };
        assert_eq!(ids("SELECT i FROM w WHERE name = 'delta'"), [Value::Int(2)]);
        assert!(ids("SELECT i FROM w WHERE name = 0").is_empty());
    }
}
