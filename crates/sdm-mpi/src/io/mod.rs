//! MPI-IO over the simulated PFS: open/close, file views, independent
//! I/O with data sieving, and two-phase collective I/O.

pub mod hints;
pub mod sieve;
pub mod twophase;
pub mod view;

use std::sync::Arc;

use sdm_pfs::{Pfs, PfsError, PfsFile};

use crate::comm::Comm;
use crate::datatype::Filetype;
use crate::error::MpiResult;
use crate::pod::{as_bytes, as_bytes_mut, Pod};

pub use hints::Hints;
pub use view::FileView;

/// Status byte of a collective open, broadcast by rank 0.
const OPEN_OK: u8 = 0;
const OPEN_NOT_FOUND: u8 = 1;
const OPEN_FAILED: u8 = 2;

/// An open MPI file: one per rank, sharing the PFS image.
///
/// Mirrors the `MPI_File` surface SDM uses: collective open,
/// `set_view`, independent `read_at`/`write_at`, independent
/// noncontiguous I/O through the view (data sieving), and collective
/// `read_all`/`write_all` (two-phase), the latter also split into
/// `write_all_begin` and `sync`.
#[derive(Debug)]
pub struct MpiFile {
    pfs: Arc<Pfs>,
    file: PfsFile,
    view: FileView,
    hints: Hints,
    /// Collective staging memory and the writes in flight from it.
    staging: twophase::Staging,
}

impl MpiFile {
    /// Collective open: every rank of `comm` calls this. Rank 0 alone
    /// opens the file at the (serializing) metadata service, charged one
    /// `open_cost`, and broadcasts a status byte; the other ranks' clocks
    /// sync to its arrival and they take a handle on the same image
    /// without asking the service again, as ROMIO does on PVFS2. The
    /// broadcast orders every rank after the open, so no barrier follows.
    /// A failed open on rank 0 (`NotFound`, or an injected `OpenFailed`)
    /// is the same error on every rank.
    pub fn open_collective(
        comm: &mut Comm,
        pfs: &Arc<Pfs>,
        name: &str,
        create: bool,
    ) -> MpiResult<Self> {
        let file = if comm.rank() == 0 {
            let opened = if create {
                pfs.open_or_create(name, comm.now())
            } else {
                pfs.open(name, comm.now())
            };
            let status = match &opened {
                Ok((_, t)) => {
                    comm.sync_to(*t);
                    OPEN_OK
                }
                Err(PfsError::NotFound(_)) => OPEN_NOT_FOUND,
                Err(_) => OPEN_FAILED,
            };
            comm.bcast_bytes(0, &[status])?;
            opened?.0
        } else {
            match comm.bcast_bytes(0, &[])?[..] {
                [OPEN_OK] => pfs.lookup(name)?,
                [OPEN_NOT_FOUND] => return Err(PfsError::NotFound(name.to_string()).into()),
                _ => return Err(PfsError::OpenFailed(name.to_string()).into()),
            }
        };
        Ok(Self::new(pfs, file))
    }

    /// Independent open (no synchronization) — used by rank 0 in the
    /// "original application" baselines.
    pub fn open_independent(
        comm: &mut Comm,
        pfs: &Arc<Pfs>,
        name: &str,
        create: bool,
    ) -> MpiResult<Self> {
        let (file, t) = if create {
            pfs.open_or_create(name, comm.now())?
        } else {
            pfs.open(name, comm.now())?
        };
        comm.sync_to(t);
        Ok(Self::new(pfs, file))
    }

    fn new(pfs: &Arc<Pfs>, file: PfsFile) -> Self {
        Self {
            pfs: Arc::clone(pfs),
            file,
            view: FileView::contiguous(0),
            hints: Hints::default(),
            staging: Default::default(),
        }
    }

    /// Replace the I/O hints. The collective staging memory is given
    /// back, so that the next collective sizes it by the new
    /// `cb_buffer_size`.
    pub fn set_hints(&mut self, hints: Hints) {
        self.hints = hints;
        self.staging.release();
    }

    /// Current hints.
    pub fn hints(&self) -> &Hints {
        &self.hints
    }

    /// Underlying PFS handle (for length queries etc.).
    pub fn pfs_file(&self) -> &PfsFile {
        &self.file
    }

    /// The file system this file lives on.
    pub fn pfs(&self) -> &Arc<Pfs> {
        &self.pfs
    }

    /// Install a file view (`MPI_File_set_view`): `disp` plus a flattened
    /// filetype, shared rather than copied when it is a [`Filetype`].
    /// Charges the view cost.
    pub fn set_view(
        &mut self,
        comm: &mut Comm,
        disp: u64,
        ftype: impl Into<Filetype>,
    ) -> MpiResult<()> {
        self.view = FileView::new(disp, ftype)?;
        let t = self.pfs.view_cost(comm.now());
        comm.sync_to(t);
        Ok(())
    }

    /// Reset to the default contiguous view at displacement `disp`.
    pub fn set_contiguous_view(&mut self, comm: &mut Comm, disp: u64) {
        self.view = FileView::contiguous(disp);
        let t = self.pfs.view_cost(comm.now());
        comm.sync_to(t);
    }

    /// The installed view.
    pub fn view(&self) -> &FileView {
        &self.view
    }

    /// Independent contiguous write at an absolute byte offset (ignores
    /// the view), like `MPI_File_write_at`.
    pub fn write_at<T: Pod>(&self, comm: &mut Comm, offset: u64, data: &[T]) -> MpiResult<()> {
        self.sync(comm);
        let t = self
            .pfs
            .write_at(&self.file, offset, as_bytes(data), comm.now())?;
        comm.sync_to(t);
        Ok(())
    }

    /// Independent contiguous read at an absolute byte offset (ignores the
    /// view), like `MPI_File_read_at`. Fails on short reads.
    pub fn read_at<T: Pod>(&self, comm: &mut Comm, offset: u64, buf: &mut [T]) -> MpiResult<()> {
        self.sync(comm);
        let t = self
            .pfs
            .read_exact_at(&self.file, offset, as_bytes_mut(buf), comm.now())?;
        comm.sync_to(t);
        Ok(())
    }

    /// Independent noncontiguous write through the view starting at
    /// visible byte `view_off`, using data sieving where profitable.
    pub fn write_view<T: Pod>(&self, comm: &mut Comm, view_off: u64, data: &[T]) -> MpiResult<()> {
        self.sync(comm);
        let bytes = as_bytes(data);
        let segs: Vec<_> = self.view.segments(view_off, bytes.len() as u64).collect();
        let t = sieve::sieved_write(&self.pfs, &self.file, &segs, bytes, &self.hints, comm.now())?;
        comm.sync_to(t);
        Ok(())
    }

    /// Independent noncontiguous read through the view starting at visible
    /// byte `view_off`, using data sieving where profitable.
    pub fn read_view<T: Pod>(
        &self,
        comm: &mut Comm,
        view_off: u64,
        buf: &mut [T],
    ) -> MpiResult<()> {
        self.sync(comm);
        let nbytes = std::mem::size_of_val(buf) as u64;
        let segs: Vec<_> = self.view.segments(view_off, nbytes).collect();
        let bytes = as_bytes_mut(buf);
        let t = sieve::sieved_read(&self.pfs, &self.file, &segs, bytes, &self.hints, comm.now())?;
        comm.sync_to(t);
        Ok(())
    }

    /// Collective close: every rank waits for its writes on this handle,
    /// rank 0 alone closes the file at the metadata service, charged one
    /// `close_cost`, the other ranks drop their handles, and a barrier
    /// ends it.
    pub fn close(self, comm: &mut Comm) {
        self.sync(comm);
        if comm.rank() == 0 {
            let t = self.pfs.close(&self.file, comm.now());
            comm.sync_to(t);
        } else {
            self.pfs.release(&self.file);
        }
        comm.barrier();
    }

    /// Independent close (no synchronization).
    pub fn close_independent(self, comm: &mut Comm) {
        self.sync(comm);
        let t = self.pfs.close(&self.file, comm.now());
        comm.sync_to(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::World;
    use crate::datatype::Datatype;
    use crate::error::MpiError;
    use sdm_sim::MachineConfig;

    fn pfs() -> Arc<Pfs> {
        Pfs::new(MachineConfig::test_tiny())
    }

    #[test]
    fn collective_open_write_read() {
        let pfs = pfs();
        World::run(4, MachineConfig::test_tiny(), {
            let pfs = Arc::clone(&pfs);
            move |c| {
                let f = MpiFile::open_collective(c, &pfs, "data.bin", true).unwrap();
                // Each rank writes its rank id at its slot.
                f.write_at(c, c.rank() as u64 * 8, &[c.rank() as u64])
                    .unwrap();
                c.barrier();
                let mut all = vec![0u64; 4];
                f.read_at(c, 0, &mut all).unwrap();
                assert_eq!(all, vec![0, 1, 2, 3]);
                f.close(c);
            }
        });
        // Rank 0 alone asked the metadata service.
        assert_eq!(pfs.counters().get("pfs.opens"), 1);
        assert_eq!(pfs.counters().get("pfs.closes"), 1);
    }

    #[test]
    fn view_write_scatters_into_file() {
        let pfs = pfs();
        World::run(1, MachineConfig::test_tiny(), {
            let pfs = Arc::clone(&pfs);
            move |c| {
                let mut f = MpiFile::open_collective(c, &pfs, "v.bin", true).unwrap();
                // View: elements 1 and 3 of a 4-f64 record, tiled.
                let t = Datatype::resized(
                    32,
                    Datatype::indexed_block(1, vec![1, 3], Datatype::double()),
                );
                f.set_view(c, 0, t.flatten().unwrap()).unwrap();
                f.write_view(c, 0, &[10.0f64, 30.0, 11.0, 31.0]).unwrap();
                // Raw file: [_, 10, _, 30, _, 11, _, 31]
                f.set_contiguous_view(c, 0);
                let mut raw = vec![0.0f64; 8];
                f.read_at(c, 0, &mut raw).unwrap();
                assert_eq!(raw, vec![0.0, 10.0, 0.0, 30.0, 0.0, 11.0, 0.0, 31.0]);
                // And read back through the view.
                let t = Datatype::resized(
                    32,
                    Datatype::indexed_block(1, vec![1, 3], Datatype::double()),
                );
                f.set_view(c, 0, t.flatten().unwrap()).unwrap();
                let mut back = vec![0.0f64; 4];
                f.read_view(c, 0, &mut back).unwrap();
                assert_eq!(back, vec![10.0, 30.0, 11.0, 31.0]);
                f.close(c);
            }
        });
    }

    #[test]
    fn view_with_displacement_offsets_file_data() {
        let pfs = pfs();
        World::run(1, MachineConfig::test_tiny(), {
            let pfs = Arc::clone(&pfs);
            move |c| {
                let mut f = MpiFile::open_collective(c, &pfs, "d.bin", true).unwrap();
                f.set_contiguous_view(c, 16);
                f.write_view(c, 0, &[7u64]).unwrap();
                f.set_contiguous_view(c, 0);
                let mut raw = vec![0u64; 3];
                f.read_at(c, 0, &mut raw).unwrap();
                assert_eq!(raw, vec![0, 0, 7]);
                f.close(c);
            }
        });
    }

    #[test]
    fn missing_file_open_fails() {
        let pfs = pfs();
        let out = World::run(3, MachineConfig::test_tiny(), {
            let pfs = Arc::clone(&pfs);
            move |c| MpiFile::open_collective(c, &pfs, "absent", false).unwrap_err()
        });
        for e in out {
            assert_eq!(e, MpiError::Pfs(PfsError::NotFound("absent".into())));
        }
        assert!(!pfs.exists("absent"));
    }

    #[test]
    fn read_past_eof_errors() {
        let pfs = pfs();
        World::run(1, MachineConfig::test_tiny(), {
            let pfs = Arc::clone(&pfs);
            move |c| {
                let f = MpiFile::open_collective(c, &pfs, "short.bin", true).unwrap();
                f.write_at(c, 0, &[1u8, 2]).unwrap();
                let mut buf = [0u8; 10];
                assert!(f.read_at(c, 0, &mut buf).is_err());
                f.close(c);
            }
        });
    }
}
