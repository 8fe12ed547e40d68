//! The `uns3d.msh`-style raw binary mesh file.
//!
//! The paper's Figure 3 imports from a headerless binary file whose
//! layout the application knows: `edge1` then `edge2` (each `totalEdges`
//! C ints), then data arrays associated with edges (each `totalEdges`
//! doubles), then data arrays associated with nodes (each `totalNodes`
//! doubles). The FUN3D benchmark uses 4 edge arrays + 4 node arrays;
//! Figure 3's walkthrough uses 1 + 1. This module computes those offsets
//! and builds/validates file images with deterministic array contents so
//! tests can verify end-to-end imports value-by-value.

use crate::mesh::UnstructuredMesh;

/// Byte size of the C `int` used for edge ids in the mesh file.
pub const INT_SIZE: u64 = 4;
/// Byte size of the C `double` used for data arrays.
pub const DOUBLE_SIZE: u64 = 8;

/// Layout of a `uns3d.msh`-style file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Uns3dLayout {
    /// Number of edges (`totalEdges`).
    pub total_edges: u64,
    /// Number of nodes (`totalNodes`).
    pub total_nodes: u64,
    /// Number of per-edge f64 data arrays following the index arrays.
    pub n_edge_arrays: usize,
    /// Number of per-node f64 data arrays following the edge arrays.
    pub n_node_arrays: usize,
}

impl Uns3dLayout {
    /// FUN3D benchmark shape: 4 edge arrays + 4 node arrays.
    pub fn fun3d(total_edges: u64, total_nodes: u64) -> Self {
        Self {
            total_edges,
            total_nodes,
            n_edge_arrays: 4,
            n_node_arrays: 4,
        }
    }

    /// Byte offset of `edge1`.
    pub fn edge1_offset(&self) -> u64 {
        0
    }

    /// Byte offset of `edge2`.
    pub fn edge2_offset(&self) -> u64 {
        self.total_edges * INT_SIZE
    }

    /// Byte offset of the `k`-th per-edge data array (Figure 3's `x` is
    /// `k = 0`: `2 * totalEdges * sizeof(int)`).
    pub fn edge_array_offset(&self, k: usize) -> u64 {
        assert!(k < self.n_edge_arrays, "edge array index {k} out of range");
        2 * self.total_edges * INT_SIZE + k as u64 * self.total_edges * DOUBLE_SIZE
    }

    /// Byte offset of the `k`-th per-node data array.
    pub fn node_array_offset(&self, k: usize) -> u64 {
        assert!(k < self.n_node_arrays, "node array index {k} out of range");
        2 * self.total_edges * INT_SIZE
            + self.n_edge_arrays as u64 * self.total_edges * DOUBLE_SIZE
            + k as u64 * self.total_nodes * DOUBLE_SIZE
    }

    /// Total file length in bytes.
    pub fn file_len(&self) -> u64 {
        2 * self.total_edges * INT_SIZE
            + self.n_edge_arrays as u64 * self.total_edges * DOUBLE_SIZE
            + self.n_node_arrays as u64 * self.total_nodes * DOUBLE_SIZE
    }

    /// Deterministic synthetic value of edge array `k`, element `i`
    /// (tests verify imports against this).
    pub fn edge_value(k: usize, i: u64) -> f64 {
        (k as f64 + 1.0) * 1.0e9 + i as f64
    }

    /// Deterministic synthetic value of node array `k`, element `i`.
    pub fn node_value(k: usize, i: u64) -> f64 {
        -((k as f64 + 1.0) * 1.0e9) - i as f64
    }

    /// Build the complete file image for `mesh` (must match the layout's
    /// edge/node counts).
    pub fn build_image(&self, mesh: &UnstructuredMesh) -> Vec<u8> {
        assert_eq!(
            mesh.num_edges() as u64,
            self.total_edges,
            "edge count mismatch"
        );
        assert_eq!(
            mesh.num_nodes() as u64,
            self.total_nodes,
            "node count mismatch"
        );
        let mut img = Vec::with_capacity(self.file_len() as usize);
        let (e1, e2) = mesh.indirection_arrays();
        for v in &e1 {
            img.extend_from_slice(&v.to_ne_bytes());
        }
        for v in &e2 {
            img.extend_from_slice(&v.to_ne_bytes());
        }
        for k in 0..self.n_edge_arrays {
            for i in 0..self.total_edges {
                img.extend_from_slice(&Self::edge_value(k, i).to_ne_bytes());
            }
        }
        for k in 0..self.n_node_arrays {
            for i in 0..self.total_nodes {
                img.extend_from_slice(&Self::node_value(k, i).to_ne_bytes());
            }
        }
        debug_assert_eq!(img.len() as u64, self.file_len());
        img
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::tet_box;

    #[test]
    fn offsets_match_figure3_arithmetic() {
        let l = Uns3dLayout {
            total_edges: 100,
            total_nodes: 40,
            n_edge_arrays: 1,
            n_node_arrays: 1,
        };
        assert_eq!(l.edge1_offset(), 0);
        assert_eq!(l.edge2_offset(), 100 * 4);
        // Figure 3: file_offset = 2 * totalEdges * sizeof(int)
        assert_eq!(l.edge_array_offset(0), 2 * 100 * 4);
        // Figure 3: file_offset += totalEdges * sizeof(double)
        assert_eq!(l.node_array_offset(0), 2 * 100 * 4 + 100 * 8);
        assert_eq!(l.file_len(), 800 + 800 + 320);
    }

    #[test]
    fn fun3d_layout_has_four_and_four() {
        let l = Uns3dLayout::fun3d(18, 4);
        assert_eq!(l.n_edge_arrays, 4);
        assert_eq!(l.n_node_arrays, 4);
        assert_eq!(l.edge_array_offset(3), 2 * 18 * 4 + 3 * 18 * 8);
    }

    #[test]
    fn image_round_trips_edges() {
        let m = tet_box(3, 3, 2, 0.0, 0);
        let l = Uns3dLayout {
            total_edges: m.num_edges() as u64,
            total_nodes: m.num_nodes() as u64,
            n_edge_arrays: 2,
            n_node_arrays: 1,
        };
        let img = l.build_image(&m);
        assert_eq!(img.len() as u64, l.file_len());
        let decode = |at: u64| -> Vec<i32> {
            img[at as usize..][..l.total_edges as usize * 4]
                .as_chunks::<4>()
                .0
                .iter()
                .map(|b| i32::from_ne_bytes(*b))
                .collect()
        };
        let (want1, want2) = m.indirection_arrays();
        assert_eq!(decode(l.edge1_offset()), want1);
        assert_eq!(decode(l.edge2_offset()), want2);
    }

    #[test]
    fn data_values_at_expected_offsets() {
        let m = tet_box(3, 2, 2, 0.0, 0);
        let l = Uns3dLayout {
            total_edges: m.num_edges() as u64,
            total_nodes: m.num_nodes() as u64,
            n_edge_arrays: 2,
            n_node_arrays: 2,
        };
        let img = l.build_image(&m);
        let f64_at =
            |off: u64| f64::from_ne_bytes(img[off as usize..off as usize + 8].try_into().unwrap());
        assert_eq!(
            f64_at(l.edge_array_offset(1)),
            Uns3dLayout::edge_value(1, 0)
        );
        assert_eq!(
            f64_at(l.edge_array_offset(0) + 8 * 3),
            Uns3dLayout::edge_value(0, 3)
        );
        assert_eq!(
            f64_at(l.node_array_offset(1) + 8),
            Uns3dLayout::node_value(1, 1)
        );
    }

    #[test]
    #[should_panic(expected = "edge count mismatch")]
    fn mismatched_mesh_rejected() {
        let m = tet_box(3, 2, 2, 0.0, 0);
        let l = Uns3dLayout::fun3d(999, m.num_nodes() as u64);
        l.build_image(&m);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_array_index_panics() {
        let l = Uns3dLayout::fun3d(10, 5);
        l.edge_array_offset(4);
    }
}
