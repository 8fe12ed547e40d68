//! The log and snapshot decoders never panic, whatever bytes they read.
//!
//! Recovery reads what a crash, a torn write or a stray editor left on
//! disk, so hostile bytes must come back as a clean stop (the log) or a
//! [`DbError`] (the snapshot), never as a panic:
//!
//! * `decode_all` over arbitrary bytes, over one-byte mutations of a
//!   valid log, and over mutations whose frame checksum was recomputed,
//!   so the damage reaches the payload decoder;
//! * `Database::open_with_storage` over a snapshot of arbitrary bytes,
//!   of valid frames drawn in any order, or of a one-byte mutation of a
//!   valid snapshot, with and without its frame checksum recomputed.
//!
//! A snapshot is written in the log's own frames, so its hostile-input
//! cases sit beside the log's. Each panic these properties found is kept
//! below as a named case, rebuilt on checksum-valid frames.

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

/// The byte ranges of the frames of a log or a snapshot:
/// `[len u32][crc u32][payload]`.
fn frames(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut at = 0;
    while at + 8 <= bytes.len() {
        let len =
            u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]]) as usize;
        out.push((at, at + 8 + len));
        at += 8 + len;
    }
    out
}

/// A byte to put in place of another: often a neighbour of the old one
/// (a count, a tag, a character), sometimes anything.
fn mutate(old: u8, pick: u8, delta: u8) -> u8 {
    match pick % 4 {
        0 => delta,
        1 => old ^ (1 << (delta % 8)),
        2 => old.wrapping_add(1 + delta % 4),
        _ => old.wrapping_sub(1 + delta % 4),
    }
}

/// One frame around `payload`: `[len u32][crc u32][payload]`.
fn frame(payload: &[u8]) -> Vec<u8> {
    let len = payload.len() as u32;
    [
        &len.to_le_bytes()[..],
        &crc32(payload).to_le_bytes(),
        payload,
    ]
    .concat()
}

/// Mutate one payload byte of `bytes`' frames and recompute that frame's
/// checksum, so the damage reaches the payload decoder.
fn mutate_under_checksum(bytes: &mut [u8], at: usize, pick: u8, delta: u8) {
    let spans = frames(bytes);
    let (lo, hi) = spans[at % spans.len()];
    let payload = lo + 8..hi;
    let at = payload.start + at % payload.len();
    bytes[at] = mutate(bytes[at], pick, delta);
    let crc = crc32(&bytes[payload]);
    bytes[lo + 4..lo + 8].copy_from_slice(&crc.to_le_bytes());
}

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
        mutate_under_checksum(&mut log, at, pick, delta);
        let (_, consumed) = decode_all(&log);
        prop_assert!(consumed <= log.len());
        let _ = open(snapshot, log);
    }

    #[test]
    fn arbitrary_snapshots_open_or_fail(
        bytes in proptest::collection::vec(any::<u8>(), 0..300),
        picks in proptest::collection::vec(any::<usize>(), 0..40),
    ) {
        let _ = open(bytes, Vec::new());
        // Valid frames of the snapshot and the log, any number in any
        // order, stamped with one txid: they pass the checksums and the
        // one-transaction check, so the replay sees them.
        let (snapshot, log) = valid_state();
        let payloads: Vec<&[u8]> = [&snapshot, &log]
            .into_iter()
            .flat_map(|bytes| frames(bytes).into_iter().map(move |(lo, hi)| &bytes[lo + 8..hi]))
            .collect();
        let drawn: Vec<u8> = picks
            .iter()
            .flat_map(|&p| {
                let mut payload = payloads[p % payloads.len()].to_vec();
                payload[..8].copy_from_slice(&1u64.to_le_bytes());
                frame(&payload)
            })
            .collect();
        let _ = open(drawn, Vec::new());
    }

    #[test]
    fn mutated_snapshots_open_or_fail(at in any::<usize>(), pick in any::<u8>(), delta in any::<u8>()) {
        let (snapshot, log) = valid_state();
        let mut torn = snapshot.clone();
        let i = at % torn.len();
        torn[i] = mutate(torn[i], pick, delta);
        let _ = open(torn.clone(), Vec::new());
        let _ = open(torn, log.clone());
        let mut edited = snapshot;
        mutate_under_checksum(&mut edited, at, pick, delta);
        let _ = open(edited.clone(), Vec::new());
        let _ = open(edited, log);
    }
}

/// `s` as a frame encodes a string: `[len u32][bytes]`.
fn lp(s: &str) -> Vec<u8> {
    [&(s.len() as u32).to_le_bytes()[..], s.as_bytes()].concat()
}

/// The valid snapshot with its one `from` replaced by `to`, inside a
/// frame whose length and checksum are recomputed to match.
fn edited_snapshot(from: &[u8], to: &[u8]) -> Vec<u8> {
    let snapshot = valid_state().0;
    let hits = snapshot.windows(from.len()).filter(|w| *w == from).count();
    assert_eq!(hits, 1, "{from:?} is not in the snapshot exactly once");
    frames(&snapshot)
        .into_iter()
        .flat_map(|(lo, hi)| {
            let payload = &snapshot[lo + 8..hi];
            match payload.windows(from.len()).position(|w| w == from) {
                Some(at) => frame(&[&payload[..at], to, &payload[at + from.len()..]].concat()),
                None => snapshot[lo..hi].to_vec(),
            }
        })
        .collect()
}

// Each panic the properties found, kept as a named case.

#[test]
fn snapshot_index_on_a_missing_column_is_an_error() {
    // The index's columns (`id`, `name`): a count, then each string.
    let columns = [lp("id"), lp("name")].concat();
    let s = edited_snapshot(&columns, &[lp("id"), lp("nope")].concat());
    assert!(matches!(open(s, Vec::new()), Err(DbError::NoSuchColumn(_))));
    let s = edited_snapshot(
        &[&2u32.to_le_bytes()[..], &columns].concat(),
        &0u32.to_le_bytes(),
    );
    assert!(matches!(open(s, Vec::new()), Err(DbError::Arity(_))));
}

#[test]
fn snapshot_row_of_the_wrong_shape_is_an_error() {
    // The APPEND of row 0: one row of four cells, the first `Int 0`;
    // and row 2's first cell, `Int 2`.
    let cell = |tag: u8, body: &[u8]| [&[tag][..], body].concat();
    let int = |i: i64| cell(1, &i.to_le_bytes());
    let count = |n: u32| n.to_le_bytes().to_vec();
    let row0 = [count(1), count(4), int(0)].concat();
    let s = edited_snapshot(&row0, &[count(2), count(0), count(4), int(0)].concat());
    assert!(matches!(open(s, Vec::new()), Err(DbError::Arity(_))));
    let s = edited_snapshot(
        &[count(4), int(2)].concat(),
        &[count(4), cell(3, &lp("2"))].concat(),
    );
    assert!(matches!(open(s, Vec::new()), Err(DbError::Type(_))));
}
