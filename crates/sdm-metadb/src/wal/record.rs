//! WAL record encoding and decoding.
//!
//! Every record is one self-delimiting **frame**:
//!
//! ```text
//! [u32 len][u32 crc][payload]        (all integers little-endian)
//! payload = [u64 txid][u8 kind][kind-specific body]
//! ```
//!
//! `len` is the payload length and `crc` is CRC-32 (IEEE) over the
//! payload, so recovery can walk a byte stream frame by frame and stop
//! exactly at the first torn or corrupted record: a crash mid-append
//! leaves either a short frame (fewer than `len` bytes follow) or a
//! checksum mismatch, never a silently half-applied record.
//!
//! Record kinds mirror the `crate::undo::UndoRecord` shapes — they
//! are the *redo* twins. Data records carry post-images (the rows an
//! INSERT appended, the replacement rows of an UPDATE, the positions a
//! DELETE removed), because recovery replays forward from a snapshot;
//! the undo log keeps the pre-images for an in-memory rollback. `Commit`
//! and `Abort` are transaction terminators: recovery applies a
//! transaction's buffered records only when it sees the `Commit`.
//!
//! Encoding is borrow-based: [`WalAppender`] writes frames straight
//! from the executor's borrowed rows into a per-transaction byte buffer —
//! capturing redo never clones a row image.

use crate::schema::{ColType, Column, Schema};
use crate::table::Row;
use crate::value::Value;

/// Record kinds (the `u8` after the txid).
const KIND_APPEND: u8 = 1;
const KIND_UPDATE: u8 = 2;
const KIND_DELETE: u8 = 3;
const KIND_CLEAR: u8 = 4;
const KIND_CREATE_TABLE: u8 = 5;
const KIND_DROP_TABLE: u8 = 6;
const KIND_CREATE_INDEX: u8 = 7;
const KIND_DROP_INDEX: u8 = 8;
const KIND_COMMIT: u8 = 9;
const KIND_ABORT: u8 = 10;

// ------------------------------------------------------------------ crc32

/// CRC-32 (IEEE 802.3) lookup table, built at compile time — no
/// dependency, no runtime init.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        // A `u8` index into a 256-entry table is always in bounds.
        c = (c >> 8) ^ CRC_TABLE[usize::from(c as u8 ^ b)];
    }
    !c
}

// --------------------------------------------------------------- encoding

/// Per-transaction redo capture: the executor appends one frame per
/// mutation **before** applying it, and the `Database` writes the filled
/// buffer to the log at commit, under its one lock — so frames of
/// different transactions never interleave in the log.
#[derive(Debug)]
pub struct WalAppender {
    txid: u64,
    buf: Vec<u8>,
    records: u64,
}

impl WalAppender {
    /// A fresh appender for transaction `txid`.
    pub(crate) fn new(txid: u64) -> Self {
        Self {
            txid,
            buf: Vec::new(),
            records: 0,
        }
    }

    /// The transaction id frames are stamped with.
    pub(crate) fn txid(&self) -> u64 {
        self.txid
    }

    /// How many frames have been appended.
    pub(crate) fn records(&self) -> u64 {
        self.records
    }

    /// Surrender the encoded frames.
    pub(crate) fn into_buf(self) -> Vec<u8> {
        self.buf
    }

    /// Open a frame: reserve the `[len][crc]` header and write the
    /// payload prefix. Returns the header offset for [`Self::finish`].
    fn begin(&mut self, kind: u8) -> usize {
        let at = self.buf.len();
        self.buf.extend_from_slice(&[0u8; 8]);
        self.buf.extend_from_slice(&self.txid.to_le_bytes());
        self.buf.push(kind);
        at
    }

    /// Close the frame opened at `at`: patch `len` and `crc` into the
    /// header [`Self::begin`] reserved there.
    fn finish(&mut self, at: usize) {
        let frame = self.buf.get_mut(at..);
        if let Some((header, payload)) = frame.and_then(<[u8]>::split_first_chunk_mut::<8>) {
            let len = payload.len() as u32;
            let crc = crc32(payload);
            // Little-endian `len` then `crc`, as one little-endian u64.
            *header = (u64::from(crc) << 32 | u64::from(len)).to_le_bytes();
        }
        self.records += 1;
    }

    /// INSERT appended `rows` to `table`.
    pub(crate) fn append_rows(&mut self, table: &str, rows: &[Row]) {
        let at = self.begin(KIND_APPEND);
        put_str(&mut self.buf, table);
        put_u32(&mut self.buf, rows.len() as u32);
        for row in rows {
            put_row(&mut self.buf, row);
        }
        self.finish(at);
    }

    /// UPDATE replaced the rows at the given positions with post-images.
    pub(crate) fn update_rows(&mut self, table: &str, news: &[(usize, Row)]) {
        let at = self.begin(KIND_UPDATE);
        put_str(&mut self.buf, table);
        put_u32(&mut self.buf, news.len() as u32);
        for (pos, row) in news {
            put_u64(&mut self.buf, *pos as u64);
            put_row(&mut self.buf, row);
        }
        self.finish(at);
    }

    /// DELETE removed the rows at `positions` (ascending).
    pub(crate) fn delete_rows(&mut self, table: &str, positions: &[usize]) {
        let at = self.begin(KIND_DELETE);
        put_str(&mut self.buf, table);
        put_u32(&mut self.buf, positions.len() as u32);
        for pos in positions {
            put_u64(&mut self.buf, *pos as u64);
        }
        self.finish(at);
    }

    /// DELETE without WHERE emptied `table`.
    pub(crate) fn clear_table(&mut self, table: &str) {
        let at = self.begin(KIND_CLEAR);
        put_str(&mut self.buf, table);
        self.finish(at);
    }

    /// CREATE TABLE `name` with `schema`.
    pub(crate) fn create_table(&mut self, name: &str, schema: &Schema) {
        let at = self.begin(KIND_CREATE_TABLE);
        put_str(&mut self.buf, name);
        put_u32(&mut self.buf, schema.columns.len() as u32);
        for col in &schema.columns {
            put_str(&mut self.buf, &col.name);
            self.buf.push(match col.ctype {
                ColType::Int => 0,
                ColType::Double => 1,
                ColType::Text => 2,
            });
        }
        self.finish(at);
    }

    /// DROP TABLE `name`.
    pub(crate) fn drop_table(&mut self, name: &str) {
        let at = self.begin(KIND_DROP_TABLE);
        put_str(&mut self.buf, name);
        self.finish(at);
    }

    /// CREATE INDEX `index` on `table`.
    pub(crate) fn create_index(&mut self, table: &str, index: &str, columns: &[String]) {
        let at = self.begin(KIND_CREATE_INDEX);
        put_str(&mut self.buf, table);
        put_str(&mut self.buf, index);
        put_u32(&mut self.buf, columns.len() as u32);
        for c in columns {
            put_str(&mut self.buf, c);
        }
        self.finish(at);
    }

    /// DROP INDEX `index` on `table`.
    pub(crate) fn drop_index(&mut self, table: &str, index: &str) {
        let at = self.begin(KIND_DROP_INDEX);
        put_str(&mut self.buf, table);
        put_str(&mut self.buf, index);
        self.finish(at);
    }

    /// The transaction committed: everything before this frame is
    /// durable once the frame reaches disk.
    pub(crate) fn commit(&mut self) {
        let at = self.begin(KIND_COMMIT);
        self.finish(at);
    }

    /// The transaction rolled back: recovery discards its records. A
    /// rollback writes nothing to the log, but recovery still reads the
    /// ABORT frames that logs written by older builds carry; tests
    /// encode them here.
    #[cfg(test)]
    pub(crate) fn abort(&mut self) {
        let at = self.begin(KIND_ABORT);
        self.finish(at);
    }
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_row(buf: &mut Vec<u8>, row: &Row) {
    put_u32(buf, row.len() as u32);
    for v in row {
        match v {
            Value::Null => buf.push(0),
            Value::Int(i) => {
                buf.push(1);
                buf.extend_from_slice(&i.to_le_bytes());
            }
            Value::Double(d) => {
                buf.push(2);
                buf.extend_from_slice(&d.to_bits().to_le_bytes());
            }
            Value::Text(s) => {
                buf.push(3);
                put_str(buf, s);
            }
        }
    }
}

// --------------------------------------------------------------- decoding

/// One decoded redo record (the owned twin of what [`WalAppender`]
/// encoded), applied by `Catalog::apply_redo`.
#[derive(Debug, Clone, PartialEq)]
pub enum Replay {
    /// Append `rows` to `table`.
    Append {
        /// Target table.
        table: String,
        /// Post-image rows, in insertion order.
        rows: Vec<Row>,
    },
    /// Replace the rows at the given positions with post-images.
    Update {
        /// Target table.
        table: String,
        /// `(position, post-image)` pairs.
        news: Vec<(usize, Row)>,
    },
    /// Remove the rows at `positions` (ascending).
    Delete {
        /// Target table.
        table: String,
        /// Ascending original positions.
        positions: Vec<usize>,
    },
    /// Remove every row of `table`.
    Clear {
        /// Target table.
        table: String,
    },
    /// Create `name` with `schema`.
    CreateTable {
        /// Created table name.
        name: String,
        /// Its column schema.
        schema: Schema,
    },
    /// Drop `name`.
    DropTable {
        /// Dropped table name.
        name: String,
    },
    /// Create `index` on `table`.
    CreateIndex {
        /// Owning table.
        table: String,
        /// Index name.
        index: String,
        /// Indexed columns, in key order.
        columns: Vec<String>,
    },
    /// Drop `index` from `table`.
    DropIndex {
        /// Owning table.
        table: String,
        /// Index name.
        index: String,
    },
    /// Transaction terminator: apply the buffered records.
    Commit,
    /// Transaction terminator: discard the buffered records.
    Abort,
}

/// A decoded frame: the transaction it belongs to plus its record.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Stamping transaction id.
    pub txid: u64,
    /// The decoded record.
    pub replay: Replay,
}

/// Walk `bytes` frame by frame. Returns the decoded frames plus the
/// number of bytes consumed by *valid* frames — decoding stops at the
/// first short frame, checksum mismatch, or malformed payload (the torn
/// tail a crash mid-append leaves behind), and the caller discards
/// everything from that offset on.
pub fn decode_all(bytes: &[u8]) -> (Vec<Frame>, usize) {
    let mut frames = Vec::new();
    let mut at = 0usize;
    while bytes.len() - at >= 8 {
        let len =
            u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]]) as usize;
        let crc = u32::from_le_bytes([bytes[at + 4], bytes[at + 5], bytes[at + 6], bytes[at + 7]]);
        let Some(end) = (at + 8).checked_add(len) else {
            break;
        };
        if end > bytes.len() {
            break; // short frame: torn tail
        }
        let payload = &bytes[at + 8..end];
        if crc32(payload) != crc {
            break; // corrupted frame
        }
        let Some(frame) = decode_payload(payload) else {
            break; // CRC-valid but structurally malformed: stop cleanly
        };
        frames.push(frame);
        at = end;
    }
    (frames, at)
}

/// Decode one frame payload (`[txid][kind][body]`).
fn decode_payload(payload: &[u8]) -> Option<Frame> {
    let mut cur = Cursor {
        data: payload,
        pos: 0,
    };
    let txid = cur.u64()?;
    let kind = cur.u8()?;
    let replay = match kind {
        KIND_APPEND => {
            let table = cur.string()?;
            let n = cur.u32()? as usize;
            let mut rows = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                rows.push(cur.row()?);
            }
            Replay::Append { table, rows }
        }
        KIND_UPDATE => {
            let table = cur.string()?;
            let n = cur.u32()? as usize;
            let mut news = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let pos = cur.u64()? as usize;
                news.push((pos, cur.row()?));
            }
            Replay::Update { table, news }
        }
        KIND_DELETE => {
            let table = cur.string()?;
            let n = cur.u32()? as usize;
            let mut positions = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                positions.push(cur.u64()? as usize);
            }
            Replay::Delete { table, positions }
        }
        KIND_CLEAR => Replay::Clear {
            table: cur.string()?,
        },
        KIND_CREATE_TABLE => {
            let name = cur.string()?;
            let n = cur.u32()? as usize;
            let mut columns = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let col = cur.string()?;
                let ctype = match cur.u8()? {
                    0 => ColType::Int,
                    1 => ColType::Double,
                    2 => ColType::Text,
                    _ => return None,
                };
                columns.push(Column { name: col, ctype });
            }
            let schema = Schema::new(columns).ok()?;
            Replay::CreateTable { name, schema }
        }
        KIND_DROP_TABLE => Replay::DropTable {
            name: cur.string()?,
        },
        KIND_CREATE_INDEX => {
            let table = cur.string()?;
            let index = cur.string()?;
            let n = cur.u32()? as usize;
            let mut columns = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                columns.push(cur.string()?);
            }
            Replay::CreateIndex {
                table,
                index,
                columns,
            }
        }
        KIND_DROP_INDEX => Replay::DropIndex {
            table: cur.string()?,
            index: cur.string()?,
        },
        KIND_COMMIT => Replay::Commit,
        KIND_ABORT => Replay::Abort,
        _ => return None,
    };
    // A frame with trailing garbage is malformed: the encoder writes
    // payloads exactly.
    if cur.pos != payload.len() {
        return None;
    }
    Some(Frame { txid, replay })
}

/// Bounds-checked little-endian reader over a frame payload.
struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Option<&[u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.data.len() {
            return None;
        }
        let s = &self.data[self.pos..end];
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]))
    }

    fn string(&mut self) -> Option<String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).ok()
    }

    fn row(&mut self) -> Option<Row> {
        let n = self.u32()? as usize;
        let mut row = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let v = match self.u8()? {
                0 => Value::Null,
                1 => {
                    let s = self.take(8)?;
                    Value::Int(i64::from_le_bytes([
                        s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7],
                    ]))
                }
                2 => {
                    let s = self.take(8)?;
                    Value::Double(f64::from_bits(u64::from_le_bytes([
                        s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7],
                    ])))
                }
                3 => Value::Text(self.string()?),
                _ => return None,
            };
            row.push(v);
        }
        Some(row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(vec![
            Column {
                name: "a".into(),
                ctype: ColType::Int,
            },
            Column {
                name: "b".into(),
                ctype: ColType::Text,
            },
        ])
        .unwrap()
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn every_record_kind_round_trips() {
        let mut w = WalAppender::new(42);
        w.create_table("t", &schema());
        w.append_rows(
            "t",
            &[
                vec![Value::Int(1), Value::Text("x".into())],
                vec![Value::Null, Value::Double(2.5)],
            ],
        );
        w.update_rows("t", &[(0, vec![Value::Int(9), Value::Null])]);
        w.delete_rows("t", &[1, 3, 7]);
        w.clear_table("t");
        w.create_index("t", "ta", &["a".into(), "b".into()]);
        w.drop_index("t", "ta");
        w.drop_table("t");
        w.commit();
        w.abort();
        assert_eq!(w.records(), 10);
        let bytes = w.into_buf();
        let (frames, consumed) = decode_all(&bytes);
        assert_eq!(consumed, bytes.len());
        assert_eq!(frames.len(), 10);
        assert!(frames.iter().all(|f| f.txid == 42));
        assert!(matches!(
            &frames[1].replay,
            Replay::Append { table, rows } if table == "t" && rows.len() == 2
        ));
        assert!(matches!(
            &frames[3].replay,
            Replay::Delete { positions, .. } if positions == &[1, 3, 7]
        ));
        assert_eq!(frames[8].replay, Replay::Commit);
        assert_eq!(frames[9].replay, Replay::Abort);
    }

    #[test]
    fn truncation_at_every_byte_discards_only_the_tail() {
        let mut w = WalAppender::new(7);
        w.append_rows("t", &[vec![Value::Int(1)]]);
        w.commit();
        w.append_rows("t", &[vec![Value::Int(2)]]);
        w.commit();
        let bytes = w.into_buf();
        let (all, _) = decode_all(&bytes);
        assert_eq!(all.len(), 4);
        for cut in 0..bytes.len() {
            let (frames, consumed) = decode_all(&bytes[..cut]);
            assert!(consumed <= cut);
            // Every decoded frame is one of the originally encoded
            // prefix frames, in order.
            assert_eq!(frames[..], all[..frames.len()]);
        }
    }

    #[test]
    fn bitflip_anywhere_is_detected() {
        let mut w = WalAppender::new(7);
        w.append_rows("t", &[vec![Value::Text("payload".into())]]);
        w.commit();
        let bytes = w.into_buf();
        let (clean, _) = decode_all(&bytes);
        assert_eq!(clean.len(), 2);
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x40;
            let (frames, _) = decode_all(&corrupt);
            // A flipped byte may truncate the stream early but must
            // never yield a frame that differs from the originals.
            for (f, c) in frames.iter().zip(&clean) {
                if f != c {
                    // The flip landed in the length prefix and resynced
                    // onto a byte range that still checksums? CRC-32
                    // makes that astronomically unlikely; treat it as a
                    // failure.
                    panic!("corrupted frame decoded as valid: {f:?}");
                }
            }
        }
    }

    #[test]
    fn empty_stream_decodes_empty() {
        let (frames, consumed) = decode_all(&[]);
        assert!(frames.is_empty());
        assert_eq!(consumed, 0);
    }
}
