//! # SDM — Scientific Data Manager for irregular applications
//!
//! Umbrella crate re-exporting the whole workspace: a from-scratch Rust
//! reproduction of *"A Scientific Data Management System for Irregular
//! Applications"* (No, Thakur, Kaushik, Freitag, Choudhary — IPPS 2001).
//!
//! Start with [`core`] (the SDM API itself) and the `examples/` directory;
//! `DESIGN.md` maps every paper system and experiment to a module.

pub use sdm_apps as apps;
pub use sdm_core as core;
pub use sdm_mesh as mesh;
pub use sdm_metadb as metadb;
pub use sdm_mpi as mpi;
pub use sdm_partition as partition;
pub use sdm_pfs as pfs;
pub use sdm_sim as sim;
