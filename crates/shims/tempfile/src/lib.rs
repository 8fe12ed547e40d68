//! In-tree stand-in for the `tempfile` crate (see DESIGN.md, "Hermetic
//! build"). Provides `tempdir()`: a uniquely named directory under the
//! system temp dir, removed recursively on drop.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A directory removed (recursively, best-effort) when dropped.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Create a fresh temporary directory.
pub fn tempdir() -> std::io::Result<TempDir> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let base = std::env::temp_dir();
    // Process id + sequence number + a clock component make collisions
    // with leftovers from dead processes practically impossible; loop in
    // case of a live collision anyway.
    let pid = std::process::id();
    loop {
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let clk = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos())
            .unwrap_or(0);
        let path = base.join(format!(".sdm-tmp-{pid}-{n}-{clk:08x}"));
        match std::fs::create_dir(&path) {
            Ok(()) => return Ok(TempDir { path }),
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_write_cleanup() {
        let keep;
        {
            let d = tempdir().unwrap();
            keep = d.path().to_path_buf();
            std::fs::write(d.path().join("x.txt"), "hi").unwrap();
            assert!(keep.exists());
        }
        assert!(!keep.exists(), "dropped TempDir must remove its directory");
    }

    #[test]
    fn distinct_paths() {
        let a = tempdir().unwrap();
        let b = tempdir().unwrap();
        assert_ne!(a.path(), b.path());
    }
}
