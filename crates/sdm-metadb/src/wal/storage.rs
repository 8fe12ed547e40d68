//! WAL storage backends: real fsync'd files and a fault-injectable
//! in-memory twin.
//!
//! The [`WalStorage`] trait is the narrow waist between the log writer
//! and the bytes' resting place: append to the open segment,
//! `sync` it durable, `rotate` to a fresh segment at a checkpoint, and
//! install/read the snapshot atomically. Two backends implement it:
//!
//! * [`FileStorage`] — `std::fs` files under one directory
//!   (`wal-NNNNNN.log` segments + `snapshot.db`), synced with
//!   `sync_data`, snapshot installed by temp + fsync + rename (a crash
//!   mid-install never destroys the previous snapshot).
//! * [`MemStorage`] — an in-memory twin with a [`WalFaults`] plan in
//!   the style of `sdm-pfs`'s `FaultPlan`: crash-at-byte-N (appends
//!   tear mid-frame and the sync fails), sync failures after a count,
//!   and torn snapshot installs. The crash tests drive random workloads
//!   through it and recover from every byte prefix of what "survived".
//!
//! Every durability-bearing filesystem call in `sdm-metadb` lives in
//! this file; clippy's `disallowed-methods`
//! (`crates/sdm-metadb/clippy.toml`) bans them outside `wal/`.

use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::error::{DbError, DbResult};

/// Where WAL bytes rest. Methods take `&mut self`: the caller (the
/// log writer) serializes access behind the database's lock.
pub trait WalStorage: Send + std::fmt::Debug {
    /// Append `bytes` to the open segment (no durability implied).
    fn append(&mut self, bytes: &[u8]) -> DbResult<()>;
    /// Make everything appended so far durable (the fsync).
    fn sync(&mut self) -> DbResult<()>;
    /// Seal the open segment and start a fresh one (checkpoint step 2).
    fn rotate(&mut self) -> DbResult<()>;
    /// Delete sealed segments — only called *after* a snapshot covering
    /// them was durably installed (checkpoint step 4).
    fn drop_sealed(&mut self) -> DbResult<()>;
    /// All surviving segments, oldest first (recovery input).
    fn read_segments(&self) -> DbResult<Vec<Vec<u8>>>;
    /// The installed snapshot, if any (recovery input).
    fn read_snapshot(&self) -> DbResult<Option<Vec<u8>>>;
    /// Atomically replace the snapshot: after this returns, recovery
    /// sees either the old snapshot or the new one, never a torn mix.
    fn install_snapshot(&mut self, bytes: &[u8]) -> DbResult<()>;
}

// ------------------------------------------------------------------ files

/// Write `bytes` to `path` atomically: temp file in the same directory,
/// fsync, rename over `path`, fsync the directory. A crash at any point
/// leaves either the old file or the new one, never a torn mix — the
/// checkpoint-install primitive.
fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let mut tmp_name = path.file_name().unwrap_or_default().to_os_string();
    tmp_name.push(".tmp");
    let tmp = match dir {
        Some(d) => d.join(&tmp_name),
        None => PathBuf::from(&tmp_name),
    };
    let mut f = File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    fs::rename(&tmp, path)?;
    if let Some(d) = dir {
        // Make the rename itself durable: fsync the directory entry.
        File::open(d)?.sync_all()?;
    }
    Ok(())
}

fn io_err(what: &str, path: &Path, e: std::io::Error) -> DbError {
    DbError::Persist(format!("{what} {}: {e}", path.display()))
}

/// File-backed WAL storage: one directory holding `wal-NNNNNN.log`
/// segments plus `snapshot.db`. Opening always starts a *fresh* segment
/// (numbered after the newest survivor), so a torn tail left by a crash
/// stays quarantined at the end of its own segment — recovery skips it
/// there and never appends fresh records after garbage.
#[derive(Debug)]
pub struct FileStorage {
    dir: PathBuf,
    /// Sequence number of the open segment (created lazily on first
    /// append, so re-opening a database without writing leaves no empty
    /// files behind).
    seq: u64,
    file: Option<File>,
}

const SNAPSHOT_NAME: &str = "snapshot.db";

impl FileStorage {
    /// Open (or create) the WAL directory.
    pub fn open(dir: impl AsRef<Path>) -> DbResult<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(|e| io_err("create wal dir", &dir, e))?;
        let seq = Self::segment_seqs(&dir)?.last().copied().unwrap_or(0) + 1;
        Ok(Self {
            dir,
            seq,
            file: None,
        })
    }

    fn segment_path(dir: &Path, seq: u64) -> PathBuf {
        dir.join(format!("wal-{seq:06}.log"))
    }

    /// Sorted sequence numbers of the existing segment files.
    fn segment_seqs(dir: &Path) -> DbResult<Vec<u64>> {
        let mut seqs = Vec::new();
        let entries = fs::read_dir(dir).map_err(|e| io_err("read wal dir", dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err("read wal dir", dir, e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(seq) = name
                .strip_prefix("wal-")
                .and_then(|s| s.strip_suffix(".log"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                seqs.push(seq);
            }
        }
        seqs.sort_unstable();
        Ok(seqs)
    }
}

impl WalStorage for FileStorage {
    fn append(&mut self, bytes: &[u8]) -> DbResult<()> {
        let path = Self::segment_path(&self.dir, self.seq);
        let f = match &mut self.file {
            Some(f) => f,
            slot @ None => slot.insert(
                OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&path)
                    .map_err(|e| io_err("open wal segment", &path, e))?,
            ),
        };
        f.write_all(bytes)
            .map_err(|e| io_err("append wal segment", &path, e))
    }

    fn sync(&mut self) -> DbResult<()> {
        if let Some(f) = &self.file {
            let path = Self::segment_path(&self.dir, self.seq);
            f.sync_data()
                .map_err(|e| io_err("sync wal segment", &path, e))?;
        }
        Ok(())
    }

    fn rotate(&mut self) -> DbResult<()> {
        self.sync()?;
        self.file = None;
        self.seq += 1;
        Ok(())
    }

    fn drop_sealed(&mut self) -> DbResult<()> {
        for seq in Self::segment_seqs(&self.dir)? {
            if seq < self.seq {
                let path = Self::segment_path(&self.dir, seq);
                fs::remove_file(&path).map_err(|e| io_err("remove wal segment", &path, e))?;
            }
        }
        Ok(())
    }

    fn read_segments(&self) -> DbResult<Vec<Vec<u8>>> {
        let mut segments = Vec::new();
        for seq in Self::segment_seqs(&self.dir)? {
            let path = Self::segment_path(&self.dir, seq);
            segments.push(fs::read(&path).map_err(|e| io_err("read wal segment", &path, e))?);
        }
        Ok(segments)
    }

    fn read_snapshot(&self) -> DbResult<Option<Vec<u8>>> {
        let path = self.dir.join(SNAPSHOT_NAME);
        match fs::read(&path) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(io_err("read snapshot", &path, e)),
        }
    }

    fn install_snapshot(&mut self, bytes: &[u8]) -> DbResult<()> {
        let path = self.dir.join(SNAPSHOT_NAME);
        write_atomic(&path, bytes).map_err(|e| io_err("install snapshot", &path, e))
    }
}

// ----------------------------------------------------------------- memory

/// Crash/fault plan for [`MemStorage`], in the builder style of
/// `sdm-pfs`'s `FaultPlan`: construct one, chain the faults to inject,
/// and hand it to [`MemStorage::with_faults`].
#[derive(Debug, Clone, Copy, Default)]
pub struct WalFaults {
    /// Total append budget: bytes beyond this tear off mid-frame and
    /// the append reports the crash.
    crash_after_bytes: Option<u64>,
    /// Syncs after this many successful ones fail (the fsync that never
    /// returned).
    fail_sync_after: Option<u64>,
    /// Snapshot installs "crash before the rename": the old snapshot
    /// survives and the install errors.
    torn_snapshot: bool,
}

impl WalFaults {
    /// No injected faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// Tear the log after `n` total appended bytes: the overflowing
    /// append writes only the bytes that fit (a torn frame) and fails.
    pub fn crash_after_bytes(mut self, n: u64) -> Self {
        self.crash_after_bytes = Some(n);
        self
    }

    /// Let `n` syncs succeed, then fail every one after.
    pub fn fail_sync_after(mut self, n: u64) -> Self {
        self.fail_sync_after = Some(n);
        self
    }

    /// Snapshot installs keep the old snapshot and report failure — the
    /// crash landing between writing the temp file and the rename.
    pub fn torn_snapshot(mut self) -> Self {
        self.torn_snapshot = true;
        self
    }
}

/// Everything a [`MemStorage`] has "persisted": what recovery would see
/// after a crash at this instant.
#[derive(Debug, Clone, Default)]
pub struct MemPersisted {
    /// The installed snapshot, if any.
    pub snapshot: Option<Vec<u8>>,
    /// Sealed segments followed by the open segment, oldest first.
    pub segments: Vec<Vec<u8>>,
}

impl MemPersisted {
    /// All segment bytes concatenated — the single byte stream the
    /// cut-at-every-offset crash tests slice.
    pub fn log_bytes(&self) -> Vec<u8> {
        self.segments.concat()
    }
}

#[derive(Debug, Default)]
struct MemInner {
    sealed: Vec<Vec<u8>>,
    current: Vec<u8>,
    snapshot: Option<Vec<u8>>,
    faults: WalFaults,
    appended: u64,
    syncs: u64,
    crashed: bool,
}

/// Fault-injectable in-memory [`WalStorage`]. State is shared with a
/// [`MemHandle`] so tests can photograph "what survived the crash" and
/// rebuild a storage from any mutilation of it.
#[derive(Debug)]
pub struct MemStorage {
    inner: Arc<Mutex<MemInner>>,
}

/// Test-side handle onto a [`MemStorage`]'s shared state.
#[derive(Debug, Clone)]
pub struct MemHandle {
    inner: Arc<Mutex<MemInner>>,
}

/// The shared state, locked (a poisoned lock's state is used as it is).
fn locked(inner: &Mutex<MemInner>) -> MutexGuard<'_, MemInner> {
    inner.lock().unwrap_or_else(PoisonError::into_inner)
}

impl MemStorage {
    /// An empty storage with no faults.
    pub fn new() -> (Self, MemHandle) {
        Self::with_faults(WalFaults::none())
    }

    /// An empty storage with the given fault plan.
    pub fn with_faults(faults: WalFaults) -> (Self, MemHandle) {
        let inner = Arc::new(Mutex::new(MemInner {
            faults,
            ..MemInner::default()
        }));
        (
            Self {
                inner: Arc::clone(&inner),
            },
            MemHandle { inner },
        )
    }

    /// Reconstruct a storage from a crash survivor's persisted state
    /// (the recovery side of a crash test). The surviving segments are
    /// sealed; appends go to a fresh segment, as after a real reopen.
    pub fn from_persisted(p: MemPersisted) -> (Self, MemHandle) {
        let inner = Arc::new(Mutex::new(MemInner {
            sealed: p.segments,
            snapshot: p.snapshot,
            ..MemInner::default()
        }));
        (
            Self {
                inner: Arc::clone(&inner),
            },
            MemHandle { inner },
        )
    }
}

impl MemHandle {
    /// Photograph the persisted state (snapshot + segments) as recovery
    /// would find it after a crash right now.
    pub fn persisted(&self) -> MemPersisted {
        let inner = locked(&self.inner);
        let mut segments = inner.sealed.clone();
        if !inner.current.is_empty() {
            segments.push(inner.current.clone());
        }
        MemPersisted {
            snapshot: inner.snapshot.clone(),
            segments,
        }
    }

    /// Total bytes in the log right now (cut-point bookkeeping).
    pub fn log_len(&self) -> u64 {
        let inner = locked(&self.inner);
        inner.sealed.iter().map(|s| s.len() as u64).sum::<u64>() + inner.current.len() as u64
    }

    /// Swap the fault plan — lets a test set up cleanly and only then
    /// arm the fault.
    pub fn set_faults(&self, faults: WalFaults) {
        locked(&self.inner).faults = faults;
    }
}

impl WalStorage for MemStorage {
    fn append(&mut self, bytes: &[u8]) -> DbResult<()> {
        let mut inner = locked(&self.inner);
        if inner.crashed {
            return Err(DbError::Persist("wal storage crashed (injected)".into()));
        }
        if let Some(cap) = inner.faults.crash_after_bytes {
            let room = cap.saturating_sub(inner.appended) as usize;
            if bytes.len() > room {
                // Torn write: the prefix reaches "disk", the rest — and
                // the acknowledgement — never do.
                let kept = bytes[..room].to_vec();
                inner.current.extend_from_slice(&kept);
                inner.appended += room as u64;
                inner.crashed = true;
                return Err(DbError::Persist(format!(
                    "wal append tore after {cap} bytes (injected)"
                )));
            }
        }
        inner.appended += bytes.len() as u64;
        inner.current.extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> DbResult<()> {
        let mut inner = locked(&self.inner);
        if inner.crashed {
            return Err(DbError::Persist("wal storage crashed (injected)".into()));
        }
        if let Some(n) = inner.faults.fail_sync_after {
            if inner.syncs >= n {
                inner.crashed = true;
                return Err(DbError::Persist(format!("wal sync {n} failed (injected)")));
            }
        }
        inner.syncs += 1;
        Ok(())
    }

    fn rotate(&mut self) -> DbResult<()> {
        let mut inner = locked(&self.inner);
        if inner.crashed {
            return Err(DbError::Persist("wal storage crashed (injected)".into()));
        }
        // An empty open segment seals to nothing, matching the file
        // backend's lazy segment creation.
        if !inner.current.is_empty() {
            let current = std::mem::take(&mut inner.current);
            inner.sealed.push(current);
        }
        Ok(())
    }

    fn drop_sealed(&mut self) -> DbResult<()> {
        let mut inner = locked(&self.inner);
        if inner.crashed {
            return Err(DbError::Persist("wal storage crashed (injected)".into()));
        }
        inner.sealed.clear();
        Ok(())
    }

    fn read_segments(&self) -> DbResult<Vec<Vec<u8>>> {
        let inner = locked(&self.inner);
        let mut segments = inner.sealed.clone();
        if !inner.current.is_empty() {
            segments.push(inner.current.clone());
        }
        Ok(segments)
    }

    fn read_snapshot(&self) -> DbResult<Option<Vec<u8>>> {
        Ok(locked(&self.inner).snapshot.clone())
    }

    fn install_snapshot(&mut self, bytes: &[u8]) -> DbResult<()> {
        let mut inner = locked(&self.inner);
        if inner.crashed {
            return Err(DbError::Persist("wal storage crashed (injected)".into()));
        }
        if inner.faults.torn_snapshot {
            inner.crashed = true;
            return Err(DbError::Persist(
                "snapshot install crashed before rename (injected)".into(),
            ));
        }
        inner.snapshot = Some(bytes.to_vec());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_storage_round_trips_segments_and_snapshot() {
        let dir = tempfile::tempdir().unwrap();
        let mut s = FileStorage::open(dir.path()).unwrap();
        assert!(s.read_snapshot().unwrap().is_none());
        assert!(s.read_segments().unwrap().is_empty());
        s.append(b"abc").unwrap();
        s.append(b"def").unwrap();
        s.sync().unwrap();
        s.install_snapshot(b"snap1").unwrap();
        assert_eq!(s.read_snapshot().unwrap().as_deref(), Some(&b"snap1"[..]));
        assert_eq!(s.read_segments().unwrap(), vec![b"abcdef".to_vec()]);

        // Reopen: the old segment survives; appends go to a new one.
        let mut s2 = FileStorage::open(dir.path()).unwrap();
        s2.append(b"ghi").unwrap();
        s2.sync().unwrap();
        assert_eq!(
            s2.read_segments().unwrap(),
            vec![b"abcdef".to_vec(), b"ghi".to_vec()]
        );
        // Rotate + drop_sealed keeps only segments at/after the open one.
        s2.rotate().unwrap();
        s2.install_snapshot(b"snap2").unwrap();
        s2.drop_sealed().unwrap();
        assert!(s2.read_segments().unwrap().is_empty());
        assert_eq!(s2.read_snapshot().unwrap().as_deref(), Some(&b"snap2"[..]));
    }

    #[test]
    fn file_snapshot_install_is_atomic_over_existing() {
        let dir = tempfile::tempdir().unwrap();
        let mut s = FileStorage::open(dir.path()).unwrap();
        s.install_snapshot(b"old").unwrap();
        s.install_snapshot(b"new").unwrap();
        assert_eq!(s.read_snapshot().unwrap().as_deref(), Some(&b"new"[..]));
        // No temp litter left behind.
        let leftovers: Vec<_> = std::fs::read_dir(dir.path())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty());
    }

    #[test]
    fn mem_crash_after_bytes_tears_the_append() {
        let (mut s, h) = MemStorage::with_faults(WalFaults::none().crash_after_bytes(5));
        s.append(b"abc").unwrap();
        assert!(s.append(b"defg").is_err());
        // 5-byte budget: "abc" + the first 2 bytes of the torn append.
        assert_eq!(h.persisted().log_bytes(), b"abcde".to_vec());
        // Everything after the crash fails too.
        assert!(s.sync().is_err());
        assert!(s.append(b"x").is_err());
    }

    #[test]
    fn mem_sync_failure_after_count() {
        let (mut s, _h) = MemStorage::with_faults(WalFaults::none().fail_sync_after(2));
        s.append(b"a").unwrap();
        s.sync().unwrap();
        s.sync().unwrap();
        assert!(s.sync().is_err());
    }

    #[test]
    fn mem_torn_snapshot_keeps_the_old_one() {
        let (mut s, h) = MemStorage::new();
        s.install_snapshot(b"old").unwrap();
        let (mut s2, h2) = MemStorage::from_persisted(h.persisted());
        h2.set_faults(WalFaults::none().torn_snapshot());
        assert!(s2.install_snapshot(b"new").is_err());
        assert_eq!(h2.persisted().snapshot.as_deref(), Some(&b"old"[..]));
    }

    #[test]
    fn mem_reconstruction_seals_survivor_segments() {
        let (mut s, h) = MemStorage::new();
        s.append(b"one").unwrap();
        s.rotate().unwrap();
        s.append(b"two").unwrap();
        let p = h.persisted();
        assert_eq!(p.segments, vec![b"one".to_vec(), b"two".to_vec()]);
        let (mut s2, h2) = MemStorage::from_persisted(p);
        s2.append(b"three").unwrap();
        assert_eq!(
            h2.persisted().segments,
            vec![b"one".to_vec(), b"two".to_vec(), b"three".to_vec()]
        );
    }
}
