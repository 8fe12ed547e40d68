//! File handles and file images.
//!
//! # Locks
//!
//! A file image has one lock on its extent map, one lock per extent and
//! an atomic length, so writers to disjoint ranges (the two-phase
//! aggregators, each in its own file domain) copy at the same time. The
//! discipline, which every image operation keeps:
//!
//! - **one map guard at a time, and never across a copy.** An operation
//!   takes the map's read guard to clone handles on the extents in its
//!   range. A write that finds extents missing drops it and takes the
//!   write guard only long enough to insert them;
//! - **never acquire the map lock while holding an extent lock**: the
//!   handles are taken before the first extent lock;
//! - **at most one extent lock at a time**, taken and released extent by
//!   extent in ascending order.
//!
//! The map guard is never held across a copy because the map's write
//! guard would then wait out another writer's whole copy: on `rt_write`
//! both aggregators insert the extents of a new step at once, and the
//! second one's insert waited for the first one's copy, so the copies
//! ran one at a time again.
//!
//! A write raises the length only after its bytes are in place, so a
//! reader that stays inside the length never sees a byte that has not
//! been written, and the length never shrinks.

use std::collections::BTreeMap;
use std::ops::{Range, RangeInclusive};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

/// Bytes per extent of a file image. Host storage, not model: it is
/// independent of the stripe size, and it sits below glibc's default
/// 128 KiB mmap threshold, so a freed extent goes back to the heap and
/// the next file reuses it instead of faulting in fresh pages.
const EXTENT: usize = 64 * 1024;

/// One extent's bytes, under its own lock.
type Extent = Arc<RwLock<Vec<u8>>>;

/// The stored bytes of one file, kept sparse: a length plus the extents
/// that have been written, keyed by `offset / EXTENT`. An extent is only
/// as long as the highest byte written in it. Holes — a missing extent,
/// or the part of the file past an extent's end — read back as zeros
/// (like POSIX) and take no memory. See the module docs for the locks.
#[derive(Debug, Default)]
pub(crate) struct Image {
    /// Raised by `fetch_max` (release) after a write's bytes are in
    /// place and loaded with acquire, so a reader that sees a length has
    /// also seen the inserts of the extents below it.
    len: AtomicU64,
    extents: RwLock<BTreeMap<u64, Extent>>,
}

impl Image {
    /// The file's length: one past the last byte written (or the offset
    /// of the farthest write, zero-length ones included).
    pub(crate) fn len(&self) -> u64 {
        self.len.load(Ordering::Acquire)
    }

    /// Store `data` at `offset`, extending the file as needed.
    pub(crate) fn write(&self, offset: u64, data: &[u8]) {
        if let Some(keys) = keys(offset, data.len()) {
            let want = (keys.end() - keys.start() + 1) as usize;
            let mut extents = self.present(keys.clone());
            if extents.len() < want {
                let mut map = self.extents.write().unwrap_or_else(PoisonError::into_inner);
                extents = keys
                    .map(|k| (k, Arc::clone(map.entry(k).or_default())))
                    .collect();
            }
            for ((_, at, range), (_, extent)) in pieces(offset, data.len()).zip(extents) {
                let mut extent = extent.write().unwrap_or_else(PoisonError::into_inner);
                fill(&mut extent, at, &data[range]);
            }
        }
        self.len
            .fetch_max(offset + data.len() as u64, Ordering::Release);
    }

    /// Fill `buf` with the bytes at `offset..offset + buf.len()`, which
    /// the caller keeps inside [`Image::len`]; holes read as zeros.
    pub(crate) fn read(&self, offset: u64, buf: &mut [u8]) {
        let Some(keys) = keys(offset, buf.len()) else {
            return;
        };
        let mut stored = self.present(keys).into_iter().peekable();
        for (key, at, range) in pieces(offset, buf.len()) {
            let out = &mut buf[range];
            let k = match stored.next_if(|(k, _)| *k == key) {
                Some((_, extent)) => {
                    let extent = extent.read().unwrap_or_else(PoisonError::into_inner);
                    let bytes = extent.get(at..).unwrap_or(&[]);
                    let k = bytes.len().min(out.len());
                    out[..k].copy_from_slice(&bytes[..k]);
                    k
                }
                None => 0,
            };
            out[k..].fill(0);
        }
    }

    /// Handles on the extents among `keys` that exist, in key order,
    /// cloned under the map's read guard.
    fn present(&self, keys: RangeInclusive<u64>) -> Vec<(u64, Extent)> {
        let map = self.extents.read().unwrap_or_else(PoisonError::into_inner);
        map.range(keys).map(|(&k, e)| (k, Arc::clone(e))).collect()
    }

    /// Heap bytes the extents hold (their capacities).
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        let map = self.extents.read().unwrap();
        map.values().map(|e| e.read().unwrap().capacity()).sum()
    }
}

/// The keys of the extents that `len` bytes at `offset` touch; `None`
/// for no bytes.
fn keys(offset: u64, len: usize) -> Option<RangeInclusive<u64>> {
    let last = offset + len.checked_sub(1)? as u64;
    Some(offset / EXTENT as u64..=last / EXTENT as u64)
}

/// Split `len` bytes at `offset` at extent boundaries: for each piece,
/// its extent's key, where it starts in that extent, and its range in
/// the caller's buffer.
fn pieces(offset: u64, len: usize) -> impl Iterator<Item = (u64, usize, Range<usize>)> {
    let mut done = 0;
    std::iter::from_fn(move || {
        (done < len).then(|| {
            let pos = offset + done as u64;
            let at = (pos % EXTENT as u64) as usize;
            let n = (len - done).min(EXTENT - at);
            done += n;
            (pos / EXTENT as u64, at, done - n..done)
        })
    })
}

/// Store `bytes` at `at` in one extent, zero-filling any gap before them.
fn fill(extent: &mut Vec<u8>, at: usize, bytes: &[u8]) {
    let end = at + bytes.len();
    if extent.capacity() < end {
        // Grow as `Vec` would, but never past one extent.
        let want = end.max(2 * extent.capacity()).min(EXTENT);
        extent.reserve_exact(want - extent.len());
    }
    if extent.len() < at {
        extent.resize(at, 0);
    }
    let inside = (extent.len() - at).min(bytes.len());
    extent[at..at + inside].copy_from_slice(&bytes[..inside]);
    extent.extend_from_slice(&bytes[inside..]);
}

/// The stored image of one file.
#[derive(Debug)]
pub(crate) struct FileData {
    pub(crate) name: String,
    pub(crate) image: Image,
}

impl FileData {
    pub(crate) fn new(name: String) -> Arc<Self> {
        Arc::new(Self {
            name,
            image: Image::default(),
        })
    }
}

/// An open handle to a PFS file. Cheap to clone; all clones refer to the
/// same file image. Operations go through [`crate::Pfs`] so that timing
/// and fault injection stay centralized.
#[derive(Debug, Clone)]
pub struct PfsFile {
    pub(crate) data: Arc<FileData>,
    closed: Arc<AtomicBool>,
}

impl PfsFile {
    pub(crate) fn new(data: Arc<FileData>) -> Self {
        Self {
            data,
            closed: Arc::new(AtomicBool::new(false)),
        }
    }

    /// The file's name in the PFS namespace.
    pub fn name(&self) -> &str {
        &self.data.name
    }

    /// Current length in bytes (ignores fault-plan truncation).
    pub fn len(&self) -> u64 {
        self.data.image.len()
    }

    /// Whether the file is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether this handle has been closed.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    pub(crate) fn mark_closed(&self) {
        self.closed.store(true, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_image_and_close_state() {
        let f = PfsFile::new(FileData::new("a".into()));
        let g = f.clone();
        f.data.image.write(0, b"hello");
        assert_eq!(g.len(), 5);
        g.mark_closed();
        assert!(f.is_closed());
    }

    #[test]
    fn new_file_is_empty_and_open() {
        let f = PfsFile::new(FileData::new("x".into()));
        assert!(f.is_empty());
        assert!(!f.is_closed());
        assert_eq!(f.name(), "x");
    }

    // Image memory follows the bytes written, not the file's extent
    // count times `EXTENT` (fixed-size extents) or its length (a dense
    // image).
    #[test]
    fn small_file_holds_about_its_own_size() {
        let image = Image::default();
        image.write(0, &vec![7u8; 32_000]);
        assert_eq!(image.capacity(), 32_000);
    }

    #[test]
    fn descending_windows_hold_at_most_whole_extents() {
        let (total, window) = (10_000_000usize, 2 << 20);
        let image = Image::default();
        let starts: Vec<usize> = (0..total).step_by(window).collect();
        for &start in starts.iter().rev() {
            let n = window.min(total - start);
            image.write(start as u64, &vec![1u8; n]);
        }
        assert_eq!(image.len(), total as u64);
        assert!(image.capacity() <= total.div_ceil(EXTENT) * EXTENT);
        assert!(image.capacity() >= total);
    }

    #[test]
    fn far_write_holds_one_extent() {
        let image = Image::default();
        image.write(1 << 40, b"x");
        assert_eq!(image.len(), (1 << 40) + 1);
        assert_eq!(image.extents.read().unwrap().len(), 1);
        assert!(image.capacity() <= EXTENT);
    }

    #[test]
    fn small_appends_stay_within_one_extent() {
        let image = Image::default();
        for i in 0..EXTENT / 1000 + 1 {
            image.write((i * 1000) as u64, &[1u8; 1000]);
        }
        let extents = image.extents.read().unwrap();
        assert!(extents
            .values()
            .all(|e| e.read().unwrap().capacity() <= EXTENT));
    }
}
