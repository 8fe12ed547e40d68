//! File handles and file images.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

/// Bytes per extent of a file image. Host storage, not model: it is
/// independent of the stripe size, and it sits below glibc's default
/// 128 KiB mmap threshold, so a freed extent goes back to the heap and
/// the next file reuses it instead of faulting in fresh pages.
const EXTENT: usize = 64 * 1024;

/// The stored bytes of one file, kept sparse: a length plus the extents
/// that have been written, keyed by `offset / EXTENT`. An extent is only
/// as long as the highest byte written in it. Holes — a missing extent,
/// or the part of the file past an extent's end — read back as zeros
/// (like POSIX) and take no memory.
#[derive(Debug, Default)]
pub(crate) struct Image {
    len: u64,
    extents: BTreeMap<u64, Vec<u8>>,
}

impl Image {
    /// The file's length: one past the last byte written (or the offset
    /// of the farthest write, zero-length ones included).
    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    /// Store `data` at `offset`, extending the file as needed.
    pub(crate) fn write(&mut self, offset: u64, data: &[u8]) {
        let mut pos = offset;
        let mut rest = data;
        while !rest.is_empty() {
            let at = (pos % EXTENT as u64) as usize;
            let n = rest.len().min(EXTENT - at);
            let extent = self.extents.entry(pos / EXTENT as u64).or_default();
            let end = at + n;
            if extent.capacity() < end {
                // Grow as `Vec` would, but never past one extent.
                let want = end.max(2 * extent.capacity()).min(EXTENT);
                extent.reserve_exact(want - extent.len());
            }
            if extent.len() < at {
                extent.resize(at, 0);
            }
            let inside = (extent.len() - at).min(n);
            extent[at..at + inside].copy_from_slice(&rest[..inside]);
            extent.extend_from_slice(&rest[inside..n]);
            pos += n as u64;
            rest = &rest[n..];
        }
        self.len = self.len.max(offset + data.len() as u64);
    }

    /// Fill `buf` with the bytes at `offset..offset + buf.len()`, which
    /// the caller keeps inside [`Image::len`]; holes read as zeros.
    pub(crate) fn read(&self, offset: u64, buf: &mut [u8]) {
        let mut done = 0;
        while done < buf.len() {
            let pos = offset + done as u64;
            let at = (pos % EXTENT as u64) as usize;
            let n = (buf.len() - done).min(EXTENT - at);
            let out = &mut buf[done..done + n];
            let stored = self
                .extents
                .get(&(pos / EXTENT as u64))
                .and_then(|e| e.get(at..))
                .unwrap_or(&[]);
            let k = stored.len().min(n);
            out[..k].copy_from_slice(&stored[..k]);
            out[k..].fill(0);
            done += n;
        }
    }

    /// Heap bytes the extents hold (their capacities).
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.extents.values().map(Vec::capacity).sum()
    }
}

/// The stored image of one file, under one lock.
#[derive(Debug)]
pub(crate) struct FileData {
    pub(crate) name: String,
    pub(crate) image: RwLock<Image>,
}

impl FileData {
    pub(crate) fn new(name: String) -> Arc<Self> {
        Arc::new(Self {
            name,
            image: RwLock::new(Image::default()),
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
        self.data.image.read().len()
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
        f.data.image.write().write(0, b"hello");
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
        let mut image = Image::default();
        image.write(0, &vec![7u8; 32_000]);
        assert_eq!(image.capacity(), 32_000);
    }

    #[test]
    fn descending_windows_hold_at_most_whole_extents() {
        let (total, window) = (10_000_000usize, 2 << 20);
        let mut image = Image::default();
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
        let mut image = Image::default();
        image.write(1 << 40, b"x");
        assert_eq!(image.len(), (1 << 40) + 1);
        assert_eq!(image.extents.len(), 1);
        assert!(image.capacity() <= EXTENT);
    }

    #[test]
    fn small_appends_stay_within_one_extent() {
        let mut image = Image::default();
        for i in 0..EXTENT / 1000 + 1 {
            image.write((i * 1000) as u64, &[1u8; 1000]);
        }
        assert!(image.extents.values().all(|e| e.capacity() <= EXTENT));
    }
}
