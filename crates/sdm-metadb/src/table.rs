//! Row storage and secondary indexes.
//!
//! Every secondary index (`OrdIndex`) is `BTreeMap`-backed over one or
//! more columns, keyed by composite [`OrdKey`] vectors whose total order
//! agrees with [`Value::sql_cmp`]. It answers point probes, half-open
//! and closed range probes, prefix ranges, key-ordered streams
//! (index-backed ORDER BY), and first/last-key peeks (MIN/MAX).
//!
//! Every probe returns *candidates*: rows whose keys match under the
//! canonical key encoding. Callers re-verify candidates against the
//! real predicate, which is what keeps NULL, NaN, and cross-type rows
//! correct when a key range sweeps them up.

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
/// Equality and range probes never *produce* NULL bounds (the planner
/// answers those with an empty set), so NULL-keyed rows only surface
/// through prefix/unbounded scans, where re-verification decides.
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

    /// `BTreeMap` bounds covering exactly the keys that extend `prefix`
    /// with a component in `[lo, hi]` (inclusive; callers widen strict
    /// bounds and re-verify). Relies on [`OrdKey::successor`] to turn
    /// inclusive upper bounds into exclusive ends, which keeps keys
    /// with further tail columns inside the range.
    #[allow(clippy::type_complexity)]
    fn bounds(
        prefix: &[OrdKey],
        lo: Option<&OrdKey>,
        hi: Option<&OrdKey>,
    ) -> Option<(Bound<Vec<OrdKey>>, Bound<Vec<OrdKey>>)> {
        if let (Some(l), Some(h)) = (lo, hi) {
            if l > h {
                return None; // empty range; BTreeMap::range would panic
            }
        }
        let mut start = prefix.to_vec();
        if let Some(l) = lo {
            start.push(l.clone());
        }
        let end = match hi {
            Some(h) => {
                let mut e = prefix.to_vec();
                e.push(h.successor());
                Bound::Excluded(e)
            }
            None if prefix.is_empty() => Bound::Unbounded,
            None => {
                let mut e = prefix.to_vec();
                let last = e.pop()?.successor();
                e.push(last);
                Bound::Excluded(e)
            }
        };
        Some((Bound::Included(start), end))
    }

    /// Key-ordered buckets whose keys extend `prefix` with component
    /// `prefix.len()` in `[lo, hi]`.
    fn scan(
        &self,
        prefix: &[OrdKey],
        lo: Option<&OrdKey>,
        hi: Option<&OrdKey>,
    ) -> std::collections::btree_map::Range<'_, Vec<OrdKey>, Vec<usize>> {
        match Self::bounds(prefix, lo, hi) {
            Some((s, e)) => self.map.range((s, e)),
            // lo > hi: an empty, non-panicking range.
            None => self.map.range((
                Bound::Included(prefix.to_vec()),
                Bound::Excluded(prefix.to_vec()),
            )),
        }
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

/// Empty candidate list for probes that miss (a borrowed `&[]`).
const NO_ROWS: &[usize] = &[];

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

    /// Number of rows — the planner's per-table row-count statistic.
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

    /// Distinct-key count of index `i` — the per-index cardinality
    /// statistic (`rows / distinct` estimates bucket size). O(1).
    pub fn index_distinct_keys(&self, i: usize) -> usize {
        self.maps[i].map.len()
    }

    /// Full-key equality probe through index `i`: borrowed ascending
    /// positions for the composite key `vals` (one value per index
    /// column). `None` when the arity doesn't match the index.
    pub fn probe_point(&self, i: usize, vals: &[&Value]) -> Option<&[usize]> {
        let o = &self.maps[i];
        if vals.len() != o.cols.len() {
            return None;
        }
        if vals.iter().any(|v| v.is_null()) {
            return Some(NO_ROWS); // NULL = x matches nothing
        }
        let key: Vec<OrdKey> = vals.iter().map(|v| v.ord_key()).collect();
        Some(o.map.get(&key).map_or(NO_ROWS, Vec::as_slice))
    }

    /// Range probe through index `i`: positions of rows whose
    /// leading `prefix.len()` key columns equal `prefix` and whose next
    /// key column lies in `[lo, hi]` (inclusive; either side may be
    /// open — callers widen strict bounds and re-verify). Returns
    /// **ascending** positions, i.e. scan order. Collection aborts and
    /// returns `None` once more than `abort_at` candidates accumulate —
    /// the cost-based planner passes the best plan found so far.
    /// Also `None` when the prefix is too long.
    pub fn probe_range(
        &self,
        i: usize,
        prefix: &[&Value],
        lo: Option<&Value>,
        hi: Option<&Value>,
        abort_at: usize,
    ) -> Option<Vec<usize>> {
        let o = &self.maps[i];
        if prefix.len() >= o.cols.len() && (lo.is_some() || hi.is_some()) {
            return None;
        }
        let pkeys: Vec<OrdKey> = prefix.iter().map(|v| v.ord_key()).collect();
        let (lok, hik) = (lo.map(Value::ord_key), hi.map(Value::ord_key));
        let mut out = Vec::new();
        for (_, bucket) in o.scan(&pkeys, lok.as_ref(), hik.as_ref()) {
            out.extend_from_slice(bucket);
            if out.len() > abort_at {
                return None;
            }
        }
        out.sort_unstable();
        Some(out)
    }

    /// Key-ordered position stream through index `i`: rows
    /// whose leading key columns equal `prefix`, with the next key
    /// column optionally bounded to `[lo, hi]`, in ascending
    /// (`desc = false`) or descending key order. Ties (equal keys)
    /// always stream in ascending row position — the order a stable
    /// sort of the scan would produce. This is the index-backed
    /// ORDER BY path: the caller stops at LIMIT instead of sorting.
    pub fn stream_ordered(
        &self,
        i: usize,
        prefix: &[&Value],
        lo: Option<&Value>,
        hi: Option<&Value>,
        desc: bool,
    ) -> Box<dyn Iterator<Item = usize> + '_> {
        let pkeys: Vec<OrdKey> = prefix.iter().map(|v| v.ord_key()).collect();
        let (lok, hik) = (lo.map(Value::ord_key), hi.map(Value::ord_key));
        let range = self.maps[i].scan(&pkeys, lok.as_ref(), hik.as_ref());
        if desc {
            Box::new(range.rev().flat_map(|(_, b)| b.iter().copied()))
        } else {
            Box::new(range.flat_map(|(_, b)| b.iter().copied()))
        }
    }

    /// First/last-key peek through index `i`: the position of a
    /// row holding the MIN (`max = false`) or MAX (`max = true`) of the
    /// index's *last* key column among rows whose leading columns equal
    /// `prefix`. Only defined when `prefix` covers all but the last
    /// index column, so every SQL-equal extremum shares one bucket and
    /// the returned position is the scan-first row bearing it — exactly
    /// what a streaming MIN/MAX aggregate would keep.
    ///
    /// NULL keys are skipped on both ends (aggregates ignore NULL); the
    /// canonical NaN key is skipped too (`NaN < x` and `NaN > x` are
    /// unknown, so NaN can never be a comparison-won extremum). Outer
    /// `None` means the peek doesn't apply; inner `None` means no
    /// qualifying row (the aggregate is NULL).
    pub fn peek_edge(&self, i: usize, prefix: &[&Value], max: bool) -> Option<Option<usize>> {
        let o = &self.maps[i];
        if prefix.len() + 1 != o.cols.len() {
            return None;
        }
        if prefix.iter().any(|v| v.is_null()) {
            return Some(None); // NULL prefix equality matches nothing
        }
        let pkeys: Vec<OrdKey> = prefix.iter().map(|v| v.ord_key()).collect();
        let k = pkeys.len();
        if max {
            for (key, bucket) in o.scan(&pkeys, None, None).rev() {
                if key[k].is_nan() {
                    continue;
                }
                if key[k] == OrdKey::Null {
                    return Some(None); // only NULL keys left below
                }
                return Some(Some(bucket[0]));
            }
        } else {
            for (key, bucket) in o.scan(&pkeys, None, None) {
                if key[k] == OrdKey::Null {
                    continue;
                }
                if key[k].is_nan() {
                    return Some(None); // only NaN keys left above
                }
                return Some(Some(bucket[0]));
            }
        }
        Some(None)
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
        assert_eq!(t.probe_point(0, &[&Value::Int(1)]).unwrap(), &[1, 4, 7]);
        // Wrong key arity: no index answer.
        assert!(t
            .probe_point(0, &[&Value::Int(1), &Value::from("x")])
            .is_none());
        // Probe miss: empty borrowed slice, not None.
        assert_eq!(t.probe_point(0, &[&Value::Int(99)]), Some(NO_ROWS));
    }

    #[test]
    fn index_tracks_mutations() {
        let mut t = table();
        t.insert(vec![Value::Int(7), Value::from("a")]).unwrap();
        t.create_index("ik", &["k"]).unwrap();
        let seven = |t: &Table| t.probe_point(0, &[&Value::Int(7)]).unwrap().len();
        assert_eq!(seven(&t), 1);
        t.insert(vec![Value::Int(7), Value::from("b")]).unwrap();
        assert_eq!(seven(&t), 2);
        t.delete_at(&[0]);
        assert_eq!(t.probe_point(0, &[&Value::Int(7)]).unwrap(), &[0]);
        assert!(t.maps_match_rebuild());
    }

    #[test]
    fn index_cross_type_numeric_probe() {
        let mut t = table();
        t.insert(vec![Value::Int(2), Value::from("a")]).unwrap();
        t.create_index("ik", &["k"]).unwrap();
        // SQL: 2 = 2.0, so a Double probe must find the Int row.
        assert_eq!(t.probe_point(0, &[&Value::Double(2.0)]).unwrap(), &[0]);
    }

    #[test]
    fn null_probe_returns_nothing() {
        let mut t = table();
        t.insert(vec![Value::Null, Value::from("a")]).unwrap();
        t.create_index("ik", &["k"]).unwrap();
        assert!(t.probe_point(0, &[&Value::Null]).unwrap().is_empty());
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
            assert_eq!(t.probe_point(0, &[&probe]).unwrap(), &[0, 1]);
        }
        assert_eq!(
            t.probe_range(
                0,
                &[],
                Some(&Value::Double(-0.0)),
                Some(&Value::Int(0)),
                usize::MAX
            ),
            Some(vec![0, 1])
        );
    }

    /// A (runid, timestep)-shaped table for range/stream tests.
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
    fn range_probe_shapes() {
        let t = composite_table();
        let one = Value::Int(1);
        let scan = |lo: Option<&Value>, hi: Option<&Value>| {
            t.probe_range(0, &[&one], lo, hi, usize::MAX).unwrap()
        };
        let expect = |pred: &dyn Fn(i64) -> bool| -> Vec<usize> {
            t.rows()
                .iter()
                .enumerate()
                .filter(|(_, r)| r[0].as_i64() == Some(1) && pred(r[1].as_i64().unwrap()))
                .map(|(i, _)| i)
                .collect()
        };
        // Closed, half-open both sides, and unbounded (prefix) ranges.
        assert_eq!(
            scan(Some(&Value::Int(3)), Some(&Value::Int(7))),
            expect(&|ts| (3..=7).contains(&ts))
        );
        assert_eq!(scan(Some(&Value::Int(9)), None), expect(&|ts| ts >= 9));
        assert_eq!(scan(None, Some(&Value::Int(2))), expect(&|ts| ts <= 2));
        assert_eq!(scan(None, None), expect(&|_| true));
        // Inverted range: empty, not a panic.
        assert_eq!(
            scan(Some(&Value::Int(7)), Some(&Value::Int(3))),
            Vec::<usize>::new()
        );
        // Cross-type bounds land between integers.
        assert_eq!(
            scan(Some(&Value::Double(2.5)), Some(&Value::Double(4.5))),
            expect(&|ts| ts == 3 || ts == 4)
        );
        // Cost abort: more candidates than `abort_at` returns None.
        assert!(t.probe_range(0, &[&one], None, None, 3).is_none());
    }

    #[test]
    fn full_key_point_probe_and_distinct_stats() {
        let t = composite_table();
        let hits = t.probe_point(0, &[&Value::Int(2), &Value::Int(5)]).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(t.rows()[hits[0]], vec![Value::Int(2), Value::Int(5)]);
        // 3 runs × 12 timesteps = 36 distinct composite keys.
        assert_eq!(t.index_distinct_keys(0), 36);
        // NULL in a point key matches nothing.
        assert_eq!(
            t.probe_point(0, &[&Value::Null, &Value::Int(5)]).unwrap(),
            NO_ROWS
        );
    }

    #[test]
    fn stream_ordered_yields_key_order_and_scan_order_ties() {
        let mut t = composite_table();
        // A duplicate key: ties must stream in ascending position.
        t.insert(vec![Value::Int(1), Value::Int(5)]).unwrap();
        let one = Value::Int(1);
        let asc: Vec<usize> = t.stream_ordered(0, &[&one], None, None, false).collect();
        let ts_of = |p: usize| t.rows()[p][1].as_i64().unwrap();
        assert!(asc
            .windows(2)
            .all(|w| { ts_of(w[0]) < ts_of(w[1]) || (ts_of(w[0]) == ts_of(w[1]) && w[0] < w[1]) }));
        assert_eq!(asc.len(), 13);
        let desc: Vec<usize> = t.stream_ordered(0, &[&one], None, None, true).collect();
        assert!(desc
            .windows(2)
            .all(|w| { ts_of(w[0]) > ts_of(w[1]) || (ts_of(w[0]) == ts_of(w[1]) && w[0] < w[1]) }));
        // Bounded stream honors the range.
        let bounded: Vec<usize> = t
            .stream_ordered(0, &[&one], Some(&Value::Int(4)), Some(&Value::Int(6)), true)
            .collect();
        assert!(bounded.iter().all(|&p| (4..=6).contains(&ts_of(p))));
    }

    #[test]
    fn prefix_probe_includes_null_tail_rows() {
        let mut t = composite_table();
        // A row whose tail key column is NULL must still be found by a
        // prefix probe on runid — a full scan would return it.
        t.insert(vec![Value::Int(1), Value::Null]).unwrap();
        let pos = t.len() - 1;
        let hits = t
            .probe_range(0, &[&Value::Int(1)], None, None, usize::MAX)
            .unwrap();
        assert!(hits.contains(&pos));
        // But a bounded range never reports it (ts <= 2 is unknown for
        // NULL): OrdKey::Null sorts below every numeric bound.
        let bounded = t
            .probe_range(0, &[&Value::Int(1)], Some(&Value::Int(0)), None, usize::MAX)
            .unwrap();
        assert!(!bounded.contains(&pos));
    }

    #[test]
    fn peek_edge_min_max() {
        let t = composite_table();
        // MAX(ts) within runid = 0: the row (0, 11).
        let at = t.peek_edge(0, &[&Value::Int(0)], true).unwrap().unwrap();
        assert_eq!(t.rows()[at], vec![Value::Int(0), Value::Int(11)]);
        // MIN(ts) within runid = 2: the row (2, 0).
        let at = t.peek_edge(0, &[&Value::Int(2)], false).unwrap().unwrap();
        assert_eq!(t.rows()[at], vec![Value::Int(2), Value::Int(0)]);
        // Missing prefix: no qualifying row.
        assert_eq!(t.peek_edge(0, &[&Value::Int(99)], true), Some(None));
        // Wrong prefix arity: the peek does not apply.
        assert!(t.peek_edge(0, &[], true).is_none());
    }

    #[test]
    fn peek_edge_skips_null_and_nan() {
        let mut t = Table::new(
            Schema::new(vec![Column {
                name: "d".into(),
                ctype: ColType::Double,
            }])
            .unwrap(),
        );
        t.insert(vec![Value::Null]).unwrap();
        t.insert(vec![Value::Double(f64::NAN)]).unwrap();
        t.insert(vec![Value::Double(2.5)]).unwrap();
        t.insert(vec![Value::Double(-1.0)]).unwrap();
        t.create_index("od", &["d"]).unwrap();
        let min = t.peek_edge(0, &[], false).unwrap().unwrap();
        assert_eq!(t.rows()[min][0], Value::Double(-1.0));
        let max = t.peek_edge(0, &[], true).unwrap().unwrap();
        assert_eq!(t.rows()[max][0], Value::Double(2.5));
        // Only NULL and NaN left: both peeks report "no qualifying row".
        let mut t2 = t.clone();
        t2.delete_at(&[2, 3]); // the two finite rows
        assert_eq!(t2.peek_edge(0, &[], false), Some(None));
        assert_eq!(t2.peek_edge(0, &[], true), Some(None));
    }

    #[test]
    fn text_range_probe() {
        let mut t = table();
        for (i, name) in ["alpha", "beta", "delta", "gamma"].iter().enumerate() {
            t.insert(vec![Value::Int(i as i64), Value::from(*name)])
                .unwrap();
        }
        t.create_index("ov", &["v"]).unwrap();
        let hits = t
            .probe_range(
                0,
                &[],
                Some(&Value::from("beta")),
                Some(&Value::from("delta")),
                usize::MAX,
            )
            .unwrap();
        assert_eq!(hits, vec![1, 2]);
        // A numeric bound never sweeps text keys (disjoint key classes).
        let none = t
            .probe_range(
                0,
                &[],
                Some(&Value::Int(0)),
                Some(&Value::Int(100)),
                usize::MAX,
            )
            .unwrap();
        assert!(none.is_empty());
    }
}
