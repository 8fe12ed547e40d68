//! Durability: write-ahead log, checkpoint, recovery.
//!
//! The paper's metadata lived in a MySQL server precisely so it
//! survived across runs; this module gives the embedded reproduction
//! the same property. The design is append-before-apply over the
//! in-memory catalog (the Bitcask shape named in the ROADMAP):
//!
//! * **Append before apply.** Every mutation encodes its redo record
//!   ([`record::WalAppender`], post-images mirroring the undo log's
//!   pre-images) *before* the catalog changes. A transaction's frames
//!   collect in its own appender; a rolled-back transaction's never
//!   reach the log.
//! * **Commit.** A committing transaction's frames plus its COMMIT
//!   frame go to storage in one append and one fsync. The [`Wal`] is a
//!   plain struct owned by the database's one lock, so commits never
//!   interleave and nothing else waits on a sync but the caller.
//! * **Checkpoint.** [`crate::Database::checkpoint`] writes the catalog
//!   as the log compacted: one committed transaction of ordinary frames
//!   stamped `last_tx` (per table a CREATE TABLE, one APPEND per row in
//!   position order, its CREATE INDEXes), installed via atomic
//!   temp+fsync+rename. Only *then* does it delete sealed segments — a
//!   crash anywhere in between leaves a recoverable (snapshot, log) pair.
//! * **Recovery.** `Wal::open` replays the snapshot, then the committed
//!   transactions in log order, skipping anything the snapshot already
//!   covers (`txid <= snapshot_last_tx`) and discarding the torn tail
//!   after the last valid CRC. Uncommitted and aborted transactions are
//!   never applied. A snapshot is installed whole, so a snapshot that is
//!   not exactly one committed transaction is an error, not a torn tail.
//!
//! A failed sync **poisons** the WAL (the PostgreSQL rule): once an
//! fsync fails the kernel may have dropped the dirty pages, so claiming
//! durability for anything after it would be a lie. Subsequent commits
//! error; the in-memory state stays intact for inspection.
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

use crate::catalog::Catalog;
use crate::error::{DbError, DbResult};
use record::{Frame, Replay, WalAppender};
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

/// The write-ahead log: the storage it commits to and the recovery
/// bookkeeping from open.
#[derive(Debug)]
pub struct Wal {
    storage: Box<dyn WalStorage>,
    /// Bytes the commits since open handed to storage.
    appended: u64,
    next_txid: u64,
    last_committed: u64,
    /// A sync failed: durability can no longer be promised (see module
    /// docs); every later commit and checkpoint errors.
    poisoned: bool,
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
            storage,
            appended: 0,
            next_txid: max_txid + 1,
            last_committed: info.last_committed_tx,
            poisoned: false,
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
    pub(crate) fn begin_tx(&mut self) -> u64 {
        let txid = self.next_txid;
        self.next_txid += 1;
        txid
    }

    /// Highest committed transaction id (recovered or since appended).
    pub(crate) fn last_committed(&self) -> u64 {
        self.last_committed
    }

    /// Total bytes the commits since open handed to storage (bench
    /// bookkeeping).
    pub(crate) fn appended_bytes(&self) -> u64 {
        self.appended
    }

    fn check_poisoned(&self, what: &str) -> DbResult<()> {
        if self.poisoned {
            return Err(DbError::Persist(format!(
                "wal poisoned by an earlier sync failure; {what}"
            )));
        }
        Ok(())
    }

    /// Commit transaction `txid`: append its encoded frames (ending in
    /// its COMMIT frame) to storage and fsync once. A failure poisons
    /// the log.
    pub(crate) fn commit(&mut self, txid: u64, frames: &[u8]) -> DbResult<()> {
        self.check_poisoned("commits are no longer durable")?;
        self.appended += frames.len() as u64;
        self.last_committed = self.last_committed.max(txid);
        let synced = self
            .storage
            .append(frames)
            .and_then(|()| self.storage.sync());
        if synced.is_err() {
            self.poisoned = true;
        }
        synced
    }

    /// Seal the current segment and start a fresh one (checkpoint step).
    pub(crate) fn rotate(&mut self) -> DbResult<()> {
        self.check_poisoned("checkpoint aborted")?;
        self.storage.rotate()
    }

    /// Install a checkpoint snapshot, then — only on success — delete
    /// the sealed segments it covers. A failed install leaves every
    /// segment in place: recovery still has the old snapshot plus the
    /// full log, so nothing committed is lost.
    pub(crate) fn install_snapshot(&mut self, doc: &[u8]) -> DbResult<()> {
        self.check_poisoned("checkpoint aborted")?;
        self.storage.install_snapshot(doc)?;
        self.storage.drop_sealed()
    }
}

/// Encode a checkpoint snapshot: the catalog as one transaction stamped
/// `last_tx`. Each table is a CREATE TABLE, one APPEND per row in
/// position order (later UPDATE and DELETE frames address rows by
/// position), then its CREATE INDEXes, so replay builds each map once.
pub(crate) fn encode_snapshot(last_tx: u64, catalog: &Catalog) -> Vec<u8> {
    let mut w = WalAppender::new(last_tx);
    for (name, table) in catalog.tables() {
        w.create_table(name, &table.schema);
        for row in table.rows() {
            w.append_rows(name, std::slice::from_ref(row));
        }
        for def in table.indexes() {
            w.create_index(name, &def.name, &def.columns);
        }
    }
    w.commit();
    w.into_buf()
}

/// Replay a checkpoint snapshot into a fresh catalog, returning it with
/// the last transaction the snapshot covers. Strict: the frames must
/// consume every byte, carry one txid and end in their only COMMIT.
fn decode_snapshot(bytes: &[u8]) -> DbResult<(Catalog, u64)> {
    let bad = |what: &str| DbError::Persist(format!("snapshot {what}"));
    let (mut frames, consumed) = record::decode_all(bytes);
    if consumed != bytes.len() {
        return Err(bad("has bytes that are not a valid frame"));
    }
    let last_tx = match frames.pop() {
        Some(Frame {
            txid,
            replay: Replay::Commit,
        }) => txid,
        _ => return Err(bad("does not end in a COMMIT")),
    };
    let mut catalog = Catalog::default();
    for frame in frames {
        if frame.txid != last_tx {
            return Err(bad("holds frames of two transactions"));
        }
        if matches!(frame.replay, Replay::Commit | Replay::Abort) {
            return Err(bad("ends its transaction early"));
        }
        catalog.apply_redo(frame.replay)?;
    }
    Ok((catalog, last_tx))
}

#[cfg(test)]
mod tests {
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
        let (mut wal, catalog) = Wal::open(Box::new(storage)).unwrap();
        assert!(catalog.table_names().is_empty());
        assert_eq!(wal.recovery_info(), RecoveryInfo::default());
        assert_eq!(wal.begin_tx(), 1);
        assert_eq!(wal.begin_tx(), 2);
    }

    #[test]
    fn committed_transactions_replay_and_txids_stay_monotonic() {
        let (storage, h) = MemStorage::new();
        let (mut wal, _catalog) = Wal::open(Box::new(storage)).unwrap();
        let t1 = wal.begin_tx();
        wal.commit(t1, &tx_bytes(t1, 7)).unwrap();

        let (storage, _h2) = MemStorage::from_persisted(h.persisted());
        let (mut wal2, catalog) = Wal::open(Box::new(storage)).unwrap();
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
        let (mut wal, _catalog) = Wal::open(Box::new(storage)).unwrap();
        let t1 = wal.begin_tx();
        // Transaction 2 never commits: its frames reach the log but no
        // terminator does.
        let t2 = wal.begin_tx();
        let mut w = WalAppender::new(t2);
        w.append_rows("t", &[vec![Value::Int(99)]]);
        wal.commit(t1, &[tx_bytes(t1, 7), w.into_buf()].concat())
            .unwrap();

        let (storage, _h2) = MemStorage::from_persisted(h.persisted());
        let (wal2, catalog) = Wal::open(Box::new(storage)).unwrap();
        assert_eq!(catalog.get("t").unwrap().rows(), &[vec![Value::Int(7)]]);
        assert_eq!(wal2.recovery_info().discarded_records, 1);
    }

    #[test]
    fn aborted_transactions_never_resurrect() {
        let (storage, h) = MemStorage::new();
        let (mut wal, _catalog) = Wal::open(Box::new(storage)).unwrap();
        let t1 = wal.begin_tx();
        wal.commit(t1, &tx_bytes(t1, 7)).unwrap();
        let t2 = wal.begin_tx();
        let mut w = WalAppender::new(t2);
        w.append_rows("t", &[vec![Value::Int(99)]]);
        w.abort();
        wal.commit(t2, &w.into_buf()).unwrap();

        let (storage, _h2) = MemStorage::from_persisted(h.persisted());
        let (_wal2, catalog) = Wal::open(Box::new(storage)).unwrap();
        assert_eq!(catalog.get("t").unwrap().rows(), &[vec![Value::Int(7)]]);
    }

    #[test]
    fn each_commit_is_one_append_and_one_sync() {
        let (storage, h) = MemStorage::new();
        let (mut wal, _catalog) = Wal::open(Box::new(storage)).unwrap();
        let mut bytes = 0;
        for v in 0..3 {
            let txid = wal.begin_tx();
            let frames = tx_bytes(txid, v);
            bytes += frames.len() as u64;
            wal.commit(txid, &frames).unwrap();
            // The commit reached storage before `commit` returned.
            assert_eq!(h.log_len(), bytes);
        }
        assert_eq!(wal.appended_bytes(), bytes);
        assert_eq!(wal.last_committed(), 3);
    }

    #[test]
    fn sync_failure_poisons_the_wal() {
        let (storage, _h) = MemStorage::with_faults(WalFaults::none().fail_sync_after(0));
        let (mut wal, _catalog) = Wal::open(Box::new(storage)).unwrap();
        let txid = wal.begin_tx();
        assert!(wal.commit(txid, &tx_bytes(txid, 1)).is_err());
        // Every later durability request fails too — no silent recovery
        // after a lost fsync.
        let txid = wal.begin_tx();
        assert!(wal.commit(txid, &tx_bytes(txid, 2)).is_err());
        assert!(wal.rotate().is_err());
        assert!(wal
            .install_snapshot(&encode_snapshot(0, &Catalog::new()))
            .is_err());
    }

    #[test]
    fn snapshot_round_trip_and_replay_gating() {
        let (storage, h) = MemStorage::new();
        let (mut wal, _catalog) = Wal::open(Box::new(storage)).unwrap();
        let t1 = wal.begin_tx();
        wal.commit(t1, &tx_bytes(t1, 7)).unwrap();

        // Checkpoint: snapshot covering t1, then a post-snapshot tx.
        let (storage, h2) = MemStorage::from_persisted(h.persisted());
        let (mut wal2, catalog) = Wal::open(Box::new(storage)).unwrap();
        wal2.rotate().unwrap();
        wal2.install_snapshot(&encode_snapshot(t1, &catalog))
            .unwrap();
        let t2 = wal2.begin_tx();
        wal2.commit(t2, &tx_bytes(t2, 8)).unwrap();

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

    /// Recover from a snapshot alone.
    fn open_snapshot(snapshot: Vec<u8>) -> DbResult<(Wal, Catalog)> {
        let (storage, _h) = MemStorage::from_persisted(storage::MemPersisted {
            snapshot: Some(snapshot),
            segments: Vec::new(),
        });
        Wal::open(Box::new(storage))
    }

    /// The frames `write` appends for transaction `txid`.
    fn frames(txid: u64, write: impl FnOnce(&mut WalAppender)) -> Vec<u8> {
        let mut w = WalAppender::new(txid);
        write(&mut w);
        w.into_buf()
    }

    #[test]
    fn snapshot_that_is_not_one_committed_transaction_is_an_error() {
        let table = |w: &mut WalAppender| w.create_table("t", &schema());
        let row = |w: &mut WalAppender| w.append_rows("t", &[vec![Value::Int(7)]]);
        let commit = |txid| frames(txid, WalAppender::commit);
        let (_wal, catalog) =
            open_snapshot([frames(5, table), frames(5, row), commit(5)].concat()).unwrap();
        assert_eq!(catalog.get("t").unwrap().rows(), &[vec![Value::Int(7)]]);

        let hostile = [
            ("empty", Vec::new()),
            ("no COMMIT", [frames(5, table), frames(5, row)].concat()),
            (
                "trailing bytes",
                [frames(5, table), commit(5), vec![0; 3]].concat(),
            ),
            (
                "two txids",
                [frames(5, table), frames(6, row), commit(5)].concat(),
            ),
            (
                "two COMMITs",
                [frames(5, table), commit(5), frames(5, row), commit(5)].concat(),
            ),
            (
                "an ABORT",
                [frames(5, table), frames(5, WalAppender::abort), commit(5)].concat(),
            ),
        ];
        for (what, snapshot) in hostile {
            let err = open_snapshot(snapshot).err();
            assert!(matches!(err, Some(DbError::Persist(_))), "{what}: {err:?}");
        }
    }

    #[test]
    fn torn_snapshot_install_keeps_old_snapshot_and_segments() {
        let (storage, h) = MemStorage::new();
        let (mut wal, _catalog) = Wal::open(Box::new(storage)).unwrap();
        let t1 = wal.begin_tx();
        wal.commit(t1, &tx_bytes(t1, 7)).unwrap();

        // Reopen, then checkpoint into a storage whose snapshot install
        // crashes before the rename.
        let (storage, h2) = MemStorage::from_persisted(h.persisted());
        let (mut wal2, catalog2) = Wal::open(Box::new(storage)).unwrap();
        wal2.rotate().unwrap();
        h2.set_faults(WalFaults::none().torn_snapshot());
        let doc = encode_snapshot(t1, &catalog2);
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
