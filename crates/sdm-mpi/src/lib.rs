//! Thread-backed MPI-like runtime with MPI-IO.
//!
//! Substitute for MPI + ROMIO on the paper's Origin2000. Each simulated
//! process ("rank") is an OS thread; data really moves between ranks over
//! channels, while *time* follows the [`sdm_sim`] cost models (message
//! timestamps, LogGP-style transfer costs, barrier max-synchronization).
//!
//! Implemented surface (what SDM actually needs, faithfully):
//!
//! * [`World::run`] — SPMD launch of `n` ranks.
//! * [`Comm`] — point-to-point `send`/`recv` (typed, eager, FIFO per
//!   source) and the collectives SDM uses: barrier, bcast, reduce,
//!   allreduce, gather(v), alltoall(v), exclusive scan.
//! * [`datatype::Datatype`] — derived datatypes (contiguous, indexed,
//!   resized) with flattening + segment coalescing, exactly the
//!   machinery SDM builds from map arrays for noncontiguous file views.
//! * [`io::MpiFile`] — file views over a [`sdm_pfs::Pfs`] file,
//!   independent I/O with **data sieving**, and collective
//!   **two-phase I/O** (file-domain partitioning, aggregator exchange),
//!   the ROMIO optimizations the paper's Section 2 credits for SDM's
//!   performance.
//!
//! Everything is deterministic given a fixed rank program: message
//! matching is by `(source, tag)` and collectives never use wildcard
//! sources, so virtual clocks evolve identically across runs.

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod collective;
pub mod comm;
pub mod datatype;
pub mod envelope;
pub mod error;
pub mod io;
pub mod pod;

pub use comm::{Comm, World};
pub use datatype::{Datatype, Flattened};
pub use error::{MpiError, MpiResult};
pub use pod::Pod;
