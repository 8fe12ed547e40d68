//! Property tests: INSERT/SELECT round-trips for arbitrary values;
//! WHERE pins match an in-memory reference; ORDER BY sorts stably;
//! parsing hostile text returns `Ok` or `Err` and never panics.

use proptest::prelude::*;
use sdm_metadb::{Database, Value};

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        (-1e9f64..1e9).prop_map(Value::Double),
        "[a-zA-Z0-9 _.-]{0,24}".prop_map(Value::Text),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn insert_select_round_trip(rows in proptest::collection::vec((any::<i64>(), value_strategy()), 1..30)) {
        let db = Database::new();
        db.exec("CREATE TABLE t (k INT, v TEXT)", &[]).unwrap();
        // v column is TEXT: coerce non-text to NULL-safe text form first.
        let mut expected = Vec::new();
        for (i, (k, v)) in rows.iter().enumerate() {
            let tv = match v {
                Value::Text(s) => Value::Text(s.clone()),
                _ => Value::Null,
            };
            db.exec("INSERT INTO t VALUES (?, ?)", &[Value::Int(*k ^ i as i64), tv.clone()]).unwrap();
            expected.push((k ^ i as i64, tv));
        }
        let rs = db.exec("SELECT k, v FROM t", &[]).unwrap();
        prop_assert_eq!(rs.len(), expected.len());
        for (row, (k, v)) in rs.rows.iter().zip(&expected) {
            prop_assert_eq!(row[0].as_i64(), Some(*k));
            prop_assert_eq!(&row[1], v);
        }
    }

    #[test]
    fn where_filter_matches_reference(
        rows in proptest::collection::vec((-3i64..3, 0i64..3), 1..40),
        k in -3i64..3,
        v in 0i64..3,
        both in any::<bool>(),
    ) {
        let db = Database::new();
        db.exec("CREATE TABLE t (k INT, v INT)", &[]).unwrap();
        for &(rk, rv) in &rows {
            db.exec("INSERT INTO t VALUES (?, ?)", &[Value::Int(rk), Value::Int(rv)]).unwrap();
        }
        let (sql, params) = if both {
            ("SELECT k, v FROM t WHERE v = ? AND k = ?", vec![Value::Int(v), Value::Int(k)])
        } else {
            ("SELECT k, v FROM t WHERE k = ?", vec![Value::Int(k)])
        };
        let rs = db.exec(sql, &params).unwrap();
        let want: Vec<(i64, i64)> = rows
            .iter()
            .copied()
            .filter(|&(rk, rv)| rk == k && (!both || rv == v))
            .collect();
        let got: Vec<(i64, i64)> = rs
            .rows
            .iter()
            .map(|r| (r[0].as_i64().unwrap(), r[1].as_i64().unwrap()))
            .collect();
        prop_assert_eq!(got, want, "insertion order preserved under filter");
    }

    #[test]
    fn order_by_sorts(rows in proptest::collection::vec((-5i64..5, -1000i64..1000), 1..40)) {
        let db = Database::new();
        db.exec("CREATE TABLE t (k INT, v INT)", &[]).unwrap();
        for &(k, v) in &rows {
            db.exec("INSERT INTO t VALUES (?, ?)", &[Value::Int(k), Value::Int(v)]).unwrap();
        }
        let ints = |sql: &str| -> Vec<(i64, i64)> {
            db.exec(sql, &[])
                .unwrap()
                .rows
                .iter()
                .map(|r| (r[0].as_i64().unwrap(), r[1].as_i64().unwrap()))
                .collect()
        };
        let mut want = rows.clone();
        want.sort_unstable();
        prop_assert_eq!(ints("SELECT k, v FROM t ORDER BY k, v"), want);
        // One key: a stable sort, ties in insertion order.
        let mut want = rows.clone();
        want.sort_by_key(|&(k, _)| k);
        prop_assert_eq!(ints("SELECT k, v FROM t ORDER BY k"), want);
    }

    #[test]
    fn update_delete_counts_match(keys in proptest::collection::vec(0i64..10, 1..40), pivot in 0i64..10) {
        let db = Database::new();
        db.exec("CREATE TABLE t (k INT)", &[]).unwrap();
        for k in &keys {
            db.exec("INSERT INTO t VALUES (?)", &[Value::Int(*k)]).unwrap();
        }
        let hits = keys.iter().filter(|&&k| k == pivot).count();
        let rs = db.exec("UPDATE t SET k = ? WHERE k = ?", &[Value::Int(1000), Value::Int(pivot)]).unwrap();
        prop_assert_eq!(rs.affected, hits);
        let rs = db.exec("DELETE FROM t WHERE k = 1000", &[]).unwrap();
        prop_assert_eq!(rs.affected, hits);
        let rs = db.exec("SELECT k FROM t", &[]).unwrap();
        prop_assert_eq!(rs.len(), keys.len() - hits);
    }
}

/// One spelling of every token the lexer produces and every keyword the
/// parser accepts, plus malformed fragments: constructs outside the
/// grammar (`OR`, `<`, `+`, `t.a`, `DESC`, …), an unterminated string, a
/// lone `!`, a non-ASCII letter, a comment opener, an out-of-range
/// integer. Separated by single spaces.
const TOKENS: &str = "SELECT INSERT INTO VALUES UPDATE SET DELETE FROM WHERE CREATE DROP \
    TABLE INDEX ON IF NOT EXISTS INT DOUBLE TEXT VARCHAR AND OR IS NULL ORDER GROUP BY ASC \
    DESC LIMIT HAVING DISTINCT INNER JOIN AS COUNT SUM AVG MIN MAX t a t.a 0 42 1.5e3 'x' '' 'it''s' ? ( ) , * = != <> < <= > >= + - / ; \
    'open ! \u{e9} -- 99999999999999999999";

/// Prefixes the random token tails are appended to; `""` leaves the
/// whole statement random.
const HEADS: &[&str] = &[
    "",
    "SELECT a FROM t WHERE",
    "SELECT",
    "INSERT INTO t VALUES (",
    "UPDATE t SET a =",
    "CREATE TABLE t (",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parsing_arbitrary_bytes_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let db = Database::new();
        let _ = db.parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn parsing_random_token_sequences_never_panics(
        head in 0usize..HEADS.len(),
        picks in proptest::collection::vec(any::<usize>(), 0..48),
    ) {
        let db = Database::new();
        let tokens: Vec<&str> = TOKENS.split(' ').collect();
        let tail: Vec<&str> = picks.iter().map(|&i| tokens[i % tokens.len()]).collect();
        let sql = format!("{} {}", HEADS[head], tail.join(" "));
        let _ = db.parse(&sql);
    }
}
