//! The log and snapshot decoders never panic, whatever bytes they read.
//!
//! Recovery reads what a crash, a torn write or a stray editor left on
//! disk, so hostile bytes must come back as a clean stop (the log) or a
//! [`DbError`] (the snapshot), never as a panic:
//!
//! * `decode_all` over arbitrary bytes, over one-byte mutations of a
//!   valid log, and over mutations whose frame checksum was recomputed,
//!   so the damage reaches the payload decoder;
//! * `Database::open_with_storage` over a snapshot of arbitrary bytes or
//!   a one-byte mutation of a valid snapshot.
//!
//! Each panic these properties found is kept below as a named case.

use proptest::prelude::*;
use sdm_metadb::wal::record::{crc32, decode_all};
use sdm_metadb::{Database, DbError, MemPersisted, MemStorage, Value};

/// A database that exercises every record kind and every value type,
/// checkpointed halfway: returns the snapshot and the log after it.
fn valid_state() -> (Vec<u8>, Vec<u8>) {
    let (storage, h) = MemStorage::new();
    let db = Database::open_with_storage(Box::new(storage)).unwrap();
    db.exec(
        "CREATE TABLE runs (id INT, name TEXT, dt DOUBLE, note TEXT)",
        &[],
    )
    .unwrap();
    db.exec("CREATE INDEX runs_id ON runs (id, name)", &[])
        .unwrap();
    for i in 0..4 {
        db.exec(
            "INSERT INTO runs VALUES (?, ?, ?, ?)",
            &[
                Value::Int(i),
                Value::from(format!("run \"{i}\"\n").as_str()),
                Value::Double(i as f64 * 0.25),
                Value::Null,
            ],
        )
        .unwrap();
    }
    db.checkpoint().unwrap();
    db.exec(
        "UPDATE runs SET dt = ? WHERE id = ?",
        &[Value::Double(9.5), Value::Int(1)],
    )
    .unwrap();
    db.exec("DELETE FROM runs WHERE id = ?", &[Value::Int(2)])
        .unwrap();
    db.exec("CREATE TABLE steps (t INT)", &[]).unwrap();
    db.exec("CREATE INDEX steps_t ON steps (t)", &[]).unwrap();
    db.exec("INSERT INTO steps VALUES (?)", &[Value::Int(7)])
        .unwrap();
    db.exec("DROP INDEX steps_t ON steps", &[]).unwrap();
    db.exec("DELETE FROM steps", &[]).unwrap();
    db.exec("DROP TABLE steps", &[]).unwrap();
    let MemPersisted { snapshot, segments } = h.persisted();
    (snapshot.unwrap(), segments.concat())
}

/// Open a database whose snapshot is `snapshot` and whose log is `log`.
fn open(snapshot: Vec<u8>, log: Vec<u8>) -> Result<Database, DbError> {
    let (storage, _h) = MemStorage::from_persisted(MemPersisted {
        snapshot: Some(snapshot),
        segments: vec![log],
    });
    Database::open_with_storage(Box::new(storage))
}

/// The byte ranges of the log's frames: `[len u32][crc u32][payload]`.
fn frames(log: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut at = 0;
    while at + 8 <= log.len() {
        let len = u32::from_le_bytes([log[at], log[at + 1], log[at + 2], log[at + 3]]) as usize;
        out.push((at, at + 8 + len));
        at += 8 + len;
    }
    out
}

/// A byte to put in place of another: often a neighbour of the old one
/// (a digit, a quote, a bracket), sometimes anything.
fn mutate(old: u8, pick: u8, delta: u8) -> u8 {
    match pick % 4 {
        0 => delta,
        1 => old ^ (1 << (delta % 8)),
        2 => old.wrapping_add(1 + delta % 4),
        _ => old.wrapping_sub(1 + delta % 4),
    }
}

/// Pieces of a snapshot's JSON, for snapshots that parse further than
/// random bytes do.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"tables\"",
    "\"runs\"",
    "\"schema\"",
    "\"columns\"",
    "\"name\"",
    "\"ctype\"",
    "\"Int\"",
    "\"Double\"",
    "\"Text\"",
    "\"rows\"",
    "\"indexes\"",
    "\"id\"",
    "0",
    "-1",
    "18446744073709551615",
    "1e999",
    "0.5",
    "null",
    "true",
    "\"\\u0000\"",
    "\"\\ud800\"",
    "\"\\",
];

#[test]
fn the_valid_state_round_trips() {
    let (snapshot, log) = valid_state();
    let (frames_read, consumed) = decode_all(&log);
    assert_eq!(consumed, log.len());
    assert_eq!(frames_read.len(), frames(&log).len());
    let db = open(snapshot, log).unwrap();
    let rows = db.exec("SELECT id FROM runs", &[]).unwrap();
    assert_eq!(rows.rows.len(), 3);
    assert!(db.exec("SELECT t FROM steps", &[]).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic_the_log_decoder(
        bytes in proptest::collection::vec(any::<u8>(), 0..600),
    ) {
        let (_, consumed) = decode_all(&bytes);
        prop_assert!(consumed <= bytes.len());
    }

    #[test]
    fn mutated_logs_stop_cleanly(at in any::<usize>(), pick in any::<u8>(), delta in any::<u8>()) {
        let (snapshot, mut log) = valid_state();
        let at = at % log.len();
        log[at] = mutate(log[at], pick, delta);
        let (_, consumed) = decode_all(&log);
        prop_assert!(consumed <= log.len());
        // Whatever the decoder kept, recovery opens or errors.
        let _ = open(snapshot, log);
    }

    #[test]
    fn mutated_payloads_under_a_good_checksum_never_panic(
        at in any::<usize>(),
        pick in any::<u8>(),
        delta in any::<u8>(),
    ) {
        let (snapshot, mut log) = valid_state();
        let spans = frames(&log);
        let (lo, hi) = spans[at % spans.len()];
        let payload = lo + 8..hi;
        let at = payload.start + at % payload.len();
        log[at] = mutate(log[at], pick, delta);
        let crc = crc32(&log[payload]);
        log[lo + 4..lo + 8].copy_from_slice(&crc.to_le_bytes());
        let (_, consumed) = decode_all(&log);
        prop_assert!(consumed <= log.len());
        let _ = open(snapshot, log);
    }

    #[test]
    fn arbitrary_snapshots_open_or_fail(
        bytes in proptest::collection::vec(any::<u8>(), 0..300),
        tokens in proptest::collection::vec(0..TOKENS.len(), 0..60),
    ) {
        let _ = open(bytes, Vec::new());
        let text: String = tokens.iter().map(|&t| TOKENS[t]).collect();
        let _ = open(format!("3\n{text}").into_bytes(), Vec::new());
    }

    #[test]
    fn mutated_snapshots_open_or_fail(at in any::<usize>(), pick in any::<u8>(), delta in any::<u8>()) {
        let (mut snapshot, log) = valid_state();
        let at = at % snapshot.len();
        snapshot[at] = mutate(snapshot[at], pick, delta);
        let _ = open(snapshot.clone(), Vec::new());
        let _ = open(snapshot, log);
    }
}

/// The valid snapshot with its one `from` replaced by `to`.
fn edited_snapshot(from: &str, to: &str) -> Vec<u8> {
    let text = String::from_utf8(valid_state().0).unwrap();
    assert_eq!(text.matches(from).count(), 1, "{from} is not in {text}");
    text.replacen(from, to, 1).into_bytes()
}

// Each panic the properties found, kept as a named case.

#[test]
fn snapshot_index_on_a_missing_column_is_an_error() {
    let s = edited_snapshot(r#""columns":["id","name"]"#, r#""columns":["id","nope"]"#);
    assert!(matches!(open(s, Vec::new()), Err(DbError::NoSuchColumn(_))));
    let s = edited_snapshot(r#""columns":["id","name"]"#, r#""columns":[]"#);
    assert!(matches!(open(s, Vec::new()), Err(DbError::Arity(_))));
}

#[test]
fn snapshot_row_of_the_wrong_shape_is_an_error() {
    let s = edited_snapshot(r#""rows":[["#, r#""rows":[[],["#);
    assert!(matches!(open(s, Vec::new()), Err(DbError::Arity(_))));
    let s = edited_snapshot(r#"{"Int":2}"#, r#"{"Text":"2"}"#);
    assert!(matches!(open(s, Vec::new()), Err(DbError::Type(_))));
}

#[test]
fn deeply_nested_snapshot_json_is_an_error() {
    let s = format!("3\n{}", "[".repeat(1 << 20));
    assert!(matches!(
        open(s.into_bytes(), Vec::new()),
        Err(DbError::Persist(_))
    ));
}
