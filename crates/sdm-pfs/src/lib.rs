//! Striped parallel-file-system simulator.
//!
//! Stands in for the paper's XFS installation on the Argonne Origin2000
//! (10 Fibre Channel controllers, 110 disks). The file *contents* are real
//! — bytes written can be read back and verified — while the *time* each
//! operation takes follows the [`sdm_sim::IoModel`] cost model:
//!
//! * files are striped round-robin over `io_servers` servers in
//!   `stripe_size` units;
//! * each server serializes its requests (a `busy_until` queue), so
//!   concurrent clients contend exactly where real controllers would;
//! * opens/closes/views go through a serialized metadata service, which is
//!   what makes the paper's Level 1 / 2 / 3 file organizations diverge
//!   when the open cost is high;
//! * a fault plan can inject open failures and short reads for the
//!   fallback paths in `sdm-core`.
//!
//! Every operation takes the caller's current virtual time and returns the
//! completion time; the caller syncs its [`sdm_sim::VClock`] to that.
//!
//! Each file's bytes live in host memory as a sparse image of 64 KiB
//! extents, the way XFS stores files as extents: an extent is only as
//! long as the highest byte written in it, and a hole reads back as
//! zeros and takes no memory, so a write far past the end of a file
//! costs what it writes. Each extent has its own lock, so writers to
//! disjoint ranges of one file (the two-phase aggregators) copy at the
//! same time; `file`'s module docs give the lock discipline. The image
//! is host storage, not model: no charge or counter depends on it or on
//! its locks. The fault plan is fixed when the file system is built and
//! read without a lock.

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod error;
pub mod faults;
pub mod file;
pub mod fs;
pub mod server;
pub mod stripe;

pub use error::{PfsError, PfsResult};
pub use faults::FaultPlan;
pub use file::PfsFile;
pub use fs::Pfs;
pub use stripe::StripeLayout;
