//! Unstructured meshes: generation, edge extraction, graphs, file format.
//!
//! The paper's workloads are a tetrahedral vertex-centered FUN3D mesh
//! (~18M edges, ~2.2M nodes, from NASA Langley) and Rayleigh-Taylor
//! tet/triangle meshes. Those inputs are unavailable, so this crate
//! generates synthetic meshes with the same structure — nodes connected
//! by edges (the `edge1`/`edge2` indirection arrays), data arrays per
//! edge and per node — and writes them in the `uns3d.msh`-style raw
//! binary layout SDM imports from.
//!
//! * [`mesh::UnstructuredMesh`] — nodes, edges, cells.
//! * [`gen`] — tetrahedral box meshes (FUN3D stand-in) and 2-D triangle
//!   meshes with a perturbed interface (Rayleigh-Taylor stand-in).
//! * [`csr::CsrGraph`] — compressed adjacency built from edge lists, the
//!   input to `sdm-partition`.
//! * [`format::Uns3dLayout`] — byte layout of the mesh file: `edge1`,
//!   `edge2` (i32 each), then edge data arrays (f64), then node data
//!   arrays (f64), exactly the offsets Figure 3 of the paper computes.

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod csr;
pub mod format;
pub mod gen;
pub mod mesh;

pub use csr::CsrGraph;
pub use format::Uns3dLayout;
pub use mesh::{CellKind, UnstructuredMesh};
