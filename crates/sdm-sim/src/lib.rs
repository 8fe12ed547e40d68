//! Virtual-time simulation foundation for the SDM reproduction.
//!
//! The original SDM paper ran on a 128-processor SGI Origin2000 with XFS
//! over 10 Fibre Channel controllers. This crate provides the machinery
//! that lets the rest of the workspace reproduce the *shape* of those
//! results on a single machine:
//!
//! * [`VClock`] — a per-rank virtual clock. Every simulated rank carries
//!   one; message passing and file I/O advance it according to the cost
//!   models instead of wall time.
//! * [`NetworkModel`] / [`IoModel`] — linear (LogGP-flavoured) cost models
//!   for interconnect transfers and parallel-file-system requests.
//! * [`MachineConfig`] — bundles of the two, with presets approximating
//!   the paper's Origin2000 and stress variants (e.g. high file-open cost)
//!   used by the ablation benchmarks.
//! * [`stats`] — lightweight counters shared across rank threads.
//! * [`rng`] — small deterministic PRNGs so workloads are reproducible
//!   without threading `rand` state through every substrate.
//!
//! Data movement in the workspace is always real (bytes are copied and can
//! be read back and verified); only *time* is virtual.

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod config;
pub mod cost;
pub mod rng;
pub mod stats;
pub mod time;

pub use config::MachineConfig;
pub use cost::{IoModel, NetworkModel};
pub use time::{Seconds, VClock};
