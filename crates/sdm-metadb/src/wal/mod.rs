//! Durability: write-ahead log, group commit, checkpoint, recovery.
//!
//! The paper's metadata lived in a MySQL server precisely so it
//! survived across runs; this module gives the embedded reproduction
//! the same property. The design is append-before-apply over the
//! in-memory catalog (the Bitcask shape named in the ROADMAP):
//!
//! * **Append before apply.** Every mutation encodes its redo record
//!   ([`record::WalAppender`], post-images mirroring the undo log's
//!   pre-images) *before* the catalog changes, and the frames reach the
//!   shared log buffer while the transaction guard is held — frames of
//!   different transactions never interleave.
//! * **Group commit.** A committing thread calls `Wal::sync_to` after
//!   releasing the transaction slot. The first thread in becomes the
//!   *leader*: it drains the buffer and fsyncs once while later
//!   committers queue on the sync lock; when they get it, the leader's
//!   fsync usually already covers their LSN and they return without
//!   touching storage. One fsync, many commits.
//! * **Checkpoint.** [`crate::Database::checkpoint`] quiesces, writes
//!   `"<last_tx>\n<catalog JSON>"` via atomic temp+fsync+rename, and
//!   only *then* deletes sealed segments — a crash anywhere in between
//!   leaves a recoverable (snapshot, log) pair.
//! * **Recovery.** `Wal::open` loads the newest valid snapshot and
//!   replays committed transactions in log order, skipping anything the
//!   snapshot already covers (`txid <= snapshot_last_tx`) and
//!   discarding the torn tail after the last valid CRC. Uncommitted and
//!   aborted transactions are never applied.
//!
//! A failed sync **poisons** the WAL (the PostgreSQL rule): once an
//! fsync fails the kernel may have dropped the dirty pages, so claiming
//! durability for anything after it would be a lie. Subsequent commits
//! error; the in-memory state stays intact for inspection.
//!
//! Lock placement: `wal_sync` (rank [`crate::db::LOCK_RANK_WAL_SYNC`])
//! then `wal_buf` (rank [`crate::db::LOCK_RANK_WAL_BUF`]) sit between
//! the catalog lock and the leaf mutexes — a committer appends under
//! the transaction guard and syncs after releasing it, so the fsync is
//! never inside any other lock's critical section.
//!
//! This module is the only place in the crate that writes to the
//! filesystem directly; `crates/sdm-metadb/clippy.toml` bans those
//! calls everywhere else.

#![allow(
    clippy::disallowed_methods,
    reason = "the WAL is the durability layer: its storage backends are where durable writes happen"
)]

pub mod record;
pub mod storage;

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::catalog::Catalog;
use crate::db::{LOCK_RANK_WAL_BUF, LOCK_RANK_WAL_SYNC};
use crate::error::{DbError, DbResult};
use record::Replay;
use storage::WalStorage;

/// What recovery found when the database opened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// Last transaction the loaded snapshot already covered.
    pub snapshot_last_tx: u64,
    /// Committed transactions replayed from the log.
    pub replayed_txs: u64,
    /// Redo records applied during replay.
    pub replayed_records: u64,
    /// Records discarded: uncommitted tails, aborted transactions, and
    /// committed work the snapshot already covered.
    pub discarded_records: u64,
    /// Bytes of torn/corrupt log tail discarded after the last valid
    /// frame (per segment).
    pub torn_bytes: u64,
    /// Highest committed transaction id visible after recovery.
    pub last_committed_tx: u64,
}

/// The un-synced tail of the log: everything appended but not yet
/// drained to storage.
#[derive(Debug, Default)]
struct WalBuf {
    buf: Vec<u8>,
    /// LSN = total bytes appended since open; `next_lsn` is the LSN the
    /// next appended byte will get.
    next_lsn: u64,
    /// Commit frames sitting in `buf` — the group-commit batch size.
    pending_commits: u64,
}

/// The storage side, serialized by the `wal_sync` mutex: the leader of
/// a group commit holds it across append+fsync.
#[derive(Debug)]
struct SyncTail {
    storage: Box<dyn WalStorage>,
    /// Everything at LSN < `durable_lsn` has been fsync'd.
    durable_lsn: u64,
    /// A sync failed: durability can no longer be promised (see module
    /// docs); every later commit errors.
    poisoned: bool,
}

/// The write-ahead log: record buffer, group-commit writer, and the
/// recovery bookkeeping from open.
#[derive(Debug)]
pub struct Wal {
    wal_sync: Mutex<SyncTail>,
    wal_buf: Mutex<WalBuf>,
    next_txid: AtomicU64,
    last_committed: AtomicU64,
    recovery: RecoveryInfo,
}

impl Wal {
    /// Open a log, running recovery: load the snapshot, replay
    /// committed transactions, and return the WAL (positioned on a
    /// fresh segment) together with the recovered catalog.
    pub(crate) fn open(storage: Box<dyn WalStorage>) -> DbResult<(Self, Catalog)> {
        let (mut catalog, snapshot_last_tx) = match storage.read_snapshot()? {
            Some(bytes) => decode_snapshot(&bytes)?,
            None => (Catalog::default(), 0),
        };
        let mut info = RecoveryInfo {
            snapshot_last_tx,
            last_committed_tx: snapshot_last_tx,
            ..RecoveryInfo::default()
        };
        let mut max_txid = snapshot_last_tx;
        for segment in storage.read_segments()? {
            let (frames, consumed) = record::decode_all(&segment);
            info.torn_bytes += (segment.len() - consumed) as u64;
            // Records of the transaction currently being read, buffered
            // until its terminator decides their fate. One transaction
            // never spans segments (the log only rotates at quiesce
            // points), so a segment end discards any open tail.
            let mut pending: Vec<Replay> = Vec::new();
            let mut pending_txid = 0u64;
            for frame in frames {
                max_txid = max_txid.max(frame.txid);
                if frame.txid != pending_txid && !pending.is_empty() {
                    // Defensive: a new transaction began while another
                    // was unterminated — drop the orphan.
                    info.discarded_records += pending.len() as u64;
                    pending.clear();
                }
                pending_txid = frame.txid;
                match frame.replay {
                    Replay::Commit => {
                        if frame.txid > snapshot_last_tx {
                            info.replayed_records += pending.len() as u64;
                            for rec in pending.drain(..) {
                                catalog.apply_redo(rec)?;
                            }
                            info.replayed_txs += 1;
                            info.last_committed_tx = info.last_committed_tx.max(frame.txid);
                        } else {
                            info.discarded_records += pending.len() as u64;
                            pending.clear();
                        }
                    }
                    Replay::Abort => {
                        info.discarded_records += pending.len() as u64;
                        pending.clear();
                    }
                    rec => {
                        if frame.txid > snapshot_last_tx {
                            pending.push(rec);
                        } else {
                            info.discarded_records += 1;
                        }
                    }
                }
            }
            info.discarded_records += pending.len() as u64;
        }
        let wal = Self {
            wal_sync: Mutex::new(SyncTail {
                storage,
                durable_lsn: 0,
                poisoned: false,
            })
            .with_rank(LOCK_RANK_WAL_SYNC),
            wal_buf: Mutex::new(WalBuf::default()).with_rank(LOCK_RANK_WAL_BUF),
            next_txid: AtomicU64::new(max_txid + 1),
            last_committed: AtomicU64::new(info.last_committed_tx),
            recovery: info,
        };
        Ok((wal, catalog))
    }

    /// What recovery found at open.
    pub(crate) fn recovery_info(&self) -> RecoveryInfo {
        self.recovery
    }

    /// Allocate the next transaction id (monotonic across reopens:
    /// recovery seeds the counter past every id seen in the log).
    pub(crate) fn begin_tx(&self) -> u64 {
        self.next_txid.fetch_add(1, Ordering::Relaxed)
    }

    /// Highest transaction id whose COMMIT was appended.
    pub(crate) fn note_committed(&self, txid: u64) {
        self.last_committed.fetch_max(txid, Ordering::Relaxed);
    }

    /// Highest committed transaction id (recovered or since appended).
    pub(crate) fn last_committed(&self) -> u64 {
        self.last_committed.load(Ordering::Relaxed)
    }

    /// Total bytes appended since open (bench bookkeeping).
    pub(crate) fn appended_bytes(&self) -> u64 {
        self.wal_buf.lock().next_lsn
    }

    /// Append encoded frames to the log buffer, returning the LSN a
    /// subsequent `Wal::sync_to` must reach to make them durable.
    /// `commits` is how many COMMIT frames `bytes` carries (the
    /// group-commit batch accounting).
    pub(crate) fn append_bytes(&self, bytes: &[u8], commits: u64) -> u64 {
        let mut buf = self.wal_buf.lock();
        buf.buf.extend_from_slice(bytes);
        buf.next_lsn += bytes.len() as u64;
        buf.pending_commits += commits;
        buf.next_lsn
    }

    /// Drain the buffer to storage and fsync once, under an already
    /// held sync lock. Returns `(fsyncs, commits batched)` — batched is
    /// the number of commits beyond the first that this single fsync
    /// made durable.
    fn flush_pending(&self, tail: &mut SyncTail) -> DbResult<(u64, u64)> {
        let (bytes, upto, commits) = {
            let mut buf = self.wal_buf.lock();
            if buf.next_lsn == tail.durable_lsn {
                return Ok((0, 0));
            }
            (
                std::mem::take(&mut buf.buf),
                buf.next_lsn,
                std::mem::replace(&mut buf.pending_commits, 0),
            )
        };
        if let Err(e) = tail
            .storage
            .append(&bytes)
            .and_then(|()| tail.storage.sync())
        {
            tail.poisoned = true;
            return Err(e);
        }
        tail.durable_lsn = upto;
        Ok((1, commits.saturating_sub(1)))
    }

    /// Make everything up to `lsn` durable — the group-commit entry
    /// point. The first committer in becomes the leader and fsyncs for
    /// everyone queued behind it; a follower whose LSN the leader
    /// already covered returns `(0, 0)` without touching storage.
    pub(crate) fn sync_to(&self, lsn: u64) -> DbResult<(u64, u64)> {
        let mut tail = self.wal_sync.lock();
        let mut fsyncs = 0;
        let mut batched = 0;
        while tail.durable_lsn < lsn {
            if tail.poisoned {
                return Err(DbError::Persist(
                    "wal poisoned by an earlier sync failure; commits are no longer durable".into(),
                ));
            }
            let (f, b) = self.flush_pending(&mut tail)?;
            fsyncs += f;
            batched += b;
        }
        Ok((fsyncs, batched))
    }

    /// Seal the current segment and start a fresh one (checkpoint step:
    /// called at a quiesce point, under the transaction guard).
    pub(crate) fn rotate(&self) -> DbResult<()> {
        let mut tail = self.wal_sync.lock();
        if tail.poisoned {
            return Err(DbError::Persist(
                "wal poisoned by an earlier sync failure; checkpoint aborted".into(),
            ));
        }
        self.flush_pending(&mut tail)?;
        tail.storage.rotate()
    }

    /// Install a checkpoint snapshot, then — only on success — delete
    /// the sealed segments it covers. A failed install leaves every
    /// segment in place: recovery still has the old snapshot plus the
    /// full log, so nothing committed is lost.
    pub(crate) fn install_snapshot(&self, doc: &[u8]) -> DbResult<()> {
        let mut tail = self.wal_sync.lock();
        if tail.poisoned {
            return Err(DbError::Persist(
                "wal poisoned by an earlier sync failure; checkpoint aborted".into(),
            ));
        }
        tail.storage.install_snapshot(doc)?;
        tail.storage.drop_sealed()
    }
}

/// Encode a checkpoint snapshot: `"<last_tx>\n<catalog JSON>"`.
pub(crate) fn encode_snapshot(last_tx: u64, catalog: &Catalog) -> DbResult<Vec<u8>> {
    let json = serde_json::to_string(catalog)
        .map_err(|e| DbError::Persist(format!("snapshot encode: {e}")))?;
    Ok(format!("{last_tx}\n{json}").into_bytes())
}

/// Decode a checkpoint snapshot into the catalog (indexes rebuilt) and
/// the last transaction it covers.
fn decode_snapshot(bytes: &[u8]) -> DbResult<(Catalog, u64)> {
    let text = std::str::from_utf8(bytes)
        .map_err(|_| DbError::Persist("snapshot is not valid UTF-8".into()))?;
    let (head, json) = text
        .split_once('\n')
        .ok_or_else(|| DbError::Persist("snapshot missing its txid header".into()))?;
    let last_tx = head
        .trim()
        .parse::<u64>()
        .map_err(|_| DbError::Persist("snapshot header is not a transaction id".into()))?;
    let mut catalog: Catalog = serde_json::from_str(json)
        .map_err(|e| DbError::Persist(format!("snapshot decode: {e}")))?;
    catalog.rebuild_indexes()?;
    Ok((catalog, last_tx))
}

#[cfg(test)]
mod tests {
    use super::record::WalAppender;
    use super::storage::{MemStorage, WalFaults};
    use super::*;
    use crate::schema::{ColType, Column, Schema};
    use crate::value::Value;

    fn schema() -> Schema {
        Schema::new(vec![Column {
            name: "a".into(),
            ctype: ColType::Int,
        }])
        .unwrap()
    }

    /// Encode one committed transaction: CREATE TABLE t + one row.
    fn tx_bytes(txid: u64, v: i64) -> Vec<u8> {
        let mut w = WalAppender::new(txid);
        if txid == 1 {
            w.create_table("t", &schema());
        }
        w.append_rows("t", &[vec![Value::Int(v)]]);
        w.commit();
        w.into_buf()
    }

    #[test]
    fn open_empty_storage_is_a_fresh_database() {
        let (storage, _h) = MemStorage::new();
        let (wal, catalog) = Wal::open(Box::new(storage)).unwrap();
        assert!(catalog.table_names().is_empty());
        assert_eq!(wal.recovery_info(), RecoveryInfo::default());
        assert_eq!(wal.begin_tx(), 1);
        assert_eq!(wal.begin_tx(), 2);
    }

    #[test]
    fn committed_transactions_replay_and_txids_stay_monotonic() {
        let (storage, h) = MemStorage::new();
        let (wal, _catalog) = Wal::open(Box::new(storage)).unwrap();
        let t1 = wal.begin_tx();
        let lsn = wal.append_bytes(&tx_bytes(t1, 7), 1);
        wal.note_committed(t1);
        wal.sync_to(lsn).unwrap();

        let (storage, _h2) = MemStorage::from_persisted(h.persisted());
        let (wal2, catalog) = Wal::open(Box::new(storage)).unwrap();
        assert_eq!(catalog.get("t").unwrap().rows(), &[vec![Value::Int(7)]]);
        let info = wal2.recovery_info();
        assert_eq!(info.replayed_txs, 1);
        assert_eq!(info.replayed_records, 2);
        assert_eq!(info.last_committed_tx, t1);
        assert!(wal2.begin_tx() > t1, "txids never repeat across reopens");
    }

    #[test]
    fn uncommitted_tail_is_discarded_not_applied() {
        let (storage, h) = MemStorage::new();
        let (wal, _catalog) = Wal::open(Box::new(storage)).unwrap();
        let t1 = wal.begin_tx();
        wal.append_bytes(&tx_bytes(t1, 7), 1);
        // Transaction 2 never commits: its frames reach the log but no
        // terminator does.
        let t2 = wal.begin_tx();
        let mut w = WalAppender::new(t2);
        w.append_rows("t", &[vec![Value::Int(99)]]);
        let lsn = wal.append_bytes(&w.into_buf(), 0);
        wal.sync_to(lsn).unwrap();

        let (storage, _h2) = MemStorage::from_persisted(h.persisted());
        let (wal2, catalog) = Wal::open(Box::new(storage)).unwrap();
        assert_eq!(catalog.get("t").unwrap().rows(), &[vec![Value::Int(7)]]);
        assert_eq!(wal2.recovery_info().discarded_records, 1);
    }

    #[test]
    fn aborted_transactions_never_resurrect() {
        let (storage, h) = MemStorage::new();
        let (wal, _catalog) = Wal::open(Box::new(storage)).unwrap();
        let t1 = wal.begin_tx();
        wal.append_bytes(&tx_bytes(t1, 7), 1);
        let t2 = wal.begin_tx();
        let mut w = WalAppender::new(t2);
        w.append_rows("t", &[vec![Value::Int(99)]]);
        w.abort();
        let lsn = wal.append_bytes(&w.into_buf(), 0);
        wal.sync_to(lsn).unwrap();

        let (storage, _h2) = MemStorage::from_persisted(h.persisted());
        let (_wal2, catalog) = Wal::open(Box::new(storage)).unwrap();
        assert_eq!(catalog.get("t").unwrap().rows(), &[vec![Value::Int(7)]]);
    }

    #[test]
    fn group_commit_accounting_is_deterministic() {
        // Three commits buffered before anyone syncs: the leader's one
        // fsync covers all three — 1 fsync, 2 batched.
        let (storage, _h) = MemStorage::new();
        let (wal, _catalog) = Wal::open(Box::new(storage)).unwrap();
        let mut last = 0;
        for v in 0..3 {
            let txid = wal.begin_tx();
            last = wal.append_bytes(&tx_bytes(txid, v), 1);
        }
        assert_eq!(wal.sync_to(last).unwrap(), (1, 2));
        // Already durable: a follower arriving late does nothing.
        assert_eq!(wal.sync_to(last).unwrap(), (0, 0));
    }

    #[test]
    fn sync_failure_poisons_the_wal() {
        let (storage, _h) = MemStorage::with_faults(WalFaults::none().fail_sync_after(0));
        let (wal, _catalog) = Wal::open(Box::new(storage)).unwrap();
        let txid = wal.begin_tx();
        let lsn = wal.append_bytes(&tx_bytes(txid, 1), 1);
        assert!(wal.sync_to(lsn).is_err());
        // Every later durability request fails too — no silent recovery
        // after a lost fsync.
        let txid = wal.begin_tx();
        let lsn = wal.append_bytes(&tx_bytes(txid, 2), 1);
        assert!(wal.sync_to(lsn).is_err());
        assert!(wal.rotate().is_err());
        assert!(wal.install_snapshot(b"0\n{}").is_err());
    }

    #[test]
    fn snapshot_round_trip_and_replay_gating() {
        let (storage, h) = MemStorage::new();
        let (wal, _catalog) = Wal::open(Box::new(storage)).unwrap();
        let t1 = wal.begin_tx();
        let lsn = wal.append_bytes(&tx_bytes(t1, 7), 1);
        wal.sync_to(lsn).unwrap();

        // Checkpoint: snapshot covering t1, then a post-snapshot tx.
        let (storage, h2) = MemStorage::from_persisted(h.persisted());
        let (wal2, catalog) = Wal::open(Box::new(storage)).unwrap();
        wal2.rotate().unwrap();
        wal2.install_snapshot(&encode_snapshot(t1, &catalog).unwrap())
            .unwrap();
        let t2 = wal2.begin_tx();
        let lsn = wal2.append_bytes(&tx_bytes(t2, 8), 1);
        wal2.sync_to(lsn).unwrap();

        let (storage, _h3) = MemStorage::from_persisted(h2.persisted());
        let (wal3, catalog) = Wal::open(Box::new(storage)).unwrap();
        assert_eq!(
            catalog.get("t").unwrap().rows(),
            &[vec![Value::Int(7)], vec![Value::Int(8)]]
        );
        let info = wal3.recovery_info();
        assert_eq!(info.snapshot_last_tx, t1);
        assert_eq!(info.replayed_txs, 1, "only the post-snapshot tx replays");
        assert_eq!(info.last_committed_tx, t2);
    }

    #[test]
    fn torn_snapshot_install_keeps_old_snapshot_and_segments() {
        let (storage, h) = MemStorage::new();
        let (wal, _catalog) = Wal::open(Box::new(storage)).unwrap();
        let t1 = wal.begin_tx();
        let lsn = wal.append_bytes(&tx_bytes(t1, 7), 1);
        wal.sync_to(lsn).unwrap();

        // Reopen, then checkpoint into a storage whose snapshot install
        // crashes before the rename.
        let (storage, h2) = MemStorage::from_persisted(h.persisted());
        let (wal2, catalog2) = Wal::open(Box::new(storage)).unwrap();
        wal2.rotate().unwrap();
        h2.set_faults(WalFaults::none().torn_snapshot());
        let doc = encode_snapshot(t1, &catalog2).unwrap();
        assert!(wal2.install_snapshot(&doc).is_err());
        // drop_sealed must NOT have run: the old (absent) snapshot and
        // the full log both survive.
        let p = h2.persisted();
        assert!(p.snapshot.is_none());
        assert_eq!(p.segments.len(), 1);

        let (storage, _h3) = MemStorage::from_persisted(p);
        let (_wal3, recovered) = Wal::open(Box::new(storage)).unwrap();
        assert_eq!(
            recovered.get("t").unwrap().rows(),
            &[vec![Value::Int(7)]],
            "old snapshot + full log still recover every committed tx"
        );
    }
}
