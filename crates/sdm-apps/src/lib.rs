//! Application templates from the paper's evaluation.
//!
//! * [`workload`] — workload descriptions scaled from the paper's sizes
//!   (FUN3D: 18M edges / 2.2M nodes / 807 MB import; RT: 36 MB node +
//!   74 MB triangle datasets per step, 5 steps).
//! * [`fun3d`] — the tetrahedral vertex-centered unstructured-grid
//!   template (W. K. Anderson's FUN3D): import, index distribution,
//!   edge-sweep compute, checkpoint writes through SDM.
//! * [`rt`] — the Rayleigh-Taylor instability template: node + triangle
//!   datasets written at each time step.
//! * [`original`] — the "original application" baselines the paper
//!   compares against: rank-0 read + broadcast import with a two-pass
//!   count-then-read edge scan, and token-serialized writes.

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod fun3d;
pub mod original;
pub mod report;
pub mod rt;
pub mod workload;

pub use report::PhaseReport;
pub use workload::{Fun3dWorkload, RtWorkload};
