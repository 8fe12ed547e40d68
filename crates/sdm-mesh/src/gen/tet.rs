//! Tetrahedral box meshes (FUN3D stand-in).
//!
//! A `nx × ny × nz` vertex grid; each cube of 8 vertices splits into five
//! tetrahedra with orientation alternating by cube parity so shared faces
//! agree. Node coordinates are jittered deterministically so the mesh is
//! genuinely irregular geometrically (and so coordinate-based partitioners
//! like RCB have real work to do). An `n × n × n` grid has
//! 3n²(n − 1) lattice edges and 3n(n − 1)² face diagonals: 5.86 edges per
//! node at the benchmark's 274,625 nodes and 5.93 at scale 1 (2,197,000
//! nodes, 13,030,290 edges), against the paper's 18M edges / 2.2M nodes
//! ≈ 8.2.

use sdm_sim::rng::SplitMix64;

use crate::mesh::{CellKind, UnstructuredMesh};

/// Five-tet decomposition of the unit cube, even parity. Vertex ids are
/// local corner indices: bit 0 = x, bit 1 = y, bit 2 = z.
const TETS_EVEN: [[usize; 4]; 5] = [
    [0, 1, 2, 4],
    [1, 2, 3, 7],
    [1, 4, 5, 7],
    [2, 4, 6, 7],
    [1, 2, 4, 7],
];

/// Odd-parity decomposition (mirrored) so neighbouring cubes share
/// diagonals consistently.
const TETS_ODD: [[usize; 4]; 5] = [
    [0, 1, 3, 5],
    [0, 2, 3, 6],
    [0, 4, 5, 6],
    [3, 5, 6, 7],
    [0, 3, 5, 6],
];

/// Generate a tetrahedral mesh over an `nx × ny × nz` vertex grid.
/// `jitter` perturbs interior coordinates by up to that fraction of the
/// grid spacing (0.0 gives a regular lattice). Deterministic in `seed`.
pub fn tet_box(nx: usize, ny: usize, nz: usize, jitter: f64, seed: u64) -> UnstructuredMesh {
    assert!(
        nx >= 2 && ny >= 2 && nz >= 2,
        "need at least 2 vertices per axis"
    );
    assert!((0.0..0.5).contains(&jitter), "jitter must be in [0, 0.5)");
    let nn = nx * ny * nz;
    let node = |x: usize, y: usize, z: usize| (z * ny * nx + y * nx + x) as u32;

    // Coordinates with deterministic jitter (boundary nodes stay put so
    // the domain remains a box).
    let coords: Vec<[f64; 3]> = (0..nn)
        .map(|i| {
            let x = i % nx;
            let y = (i / nx) % ny;
            let z = i / (nx * ny);
            let mut rng = SplitMix64::new(seed ^ (i as u64).wrapping_mul(0x9E37_79B9));
            let j = |on_boundary: bool, rng: &mut SplitMix64| {
                if on_boundary || jitter == 0.0 {
                    0.0
                } else {
                    rng.next_range_f64(-jitter, jitter)
                }
            };
            [
                x as f64 + j(x == 0 || x == nx - 1, &mut rng),
                y as f64 + j(y == 0 || y == ny - 1, &mut rng),
                z as f64 + j(z == 0 || z == nz - 1, &mut rng),
            ]
        })
        .collect();

    // Cells: five tets per cube.
    let (cx, cy, cz) = (nx - 1, ny - 1, nz - 1);
    let mut cells: Vec<u32> = Vec::with_capacity(cx * cy * cz * 5 * 4);
    for z in 0..cz {
        for y in 0..cy {
            for x in 0..cx {
                let corner = |b: usize| node(x + (b & 1), y + ((b >> 1) & 1), z + ((b >> 2) & 1));
                let tets = if (x + y + z) % 2 == 0 {
                    &TETS_EVEN
                } else {
                    &TETS_ODD
                };
                for t in tets {
                    for &v in t {
                        cells.push(corner(v));
                    }
                }
            }
        }
    }
    let edges = UnstructuredMesh::edges_from_cells(CellKind::Tetrahedron, &cells);
    UnstructuredMesh {
        coords,
        edges,
        cell_kind: CellKind::Tetrahedron,
        cells,
    }
}

/// Pick grid dimensions for approximately `target_nodes` nodes with a
/// roughly cubic aspect ratio. Used by the figure harnesses to scale the
/// FUN3D workload up and down.
pub fn dims_for_nodes(target_nodes: usize) -> (usize, usize, usize) {
    let side = (target_nodes as f64).cbrt().round().max(2.0) as usize;
    (side, side, (target_nodes / (side * side)).max(2))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_box_is_valid() {
        let m = tet_box(3, 3, 3, 0.2, 42);
        m.validate().unwrap();
        assert_eq!(m.num_nodes(), 27);
        assert_eq!(m.num_cells(), 8 * 5);
        assert!(m.num_edges() > 27, "must be well connected");
    }

    #[test]
    fn deterministic_in_seed() {
        let a = tet_box(4, 3, 3, 0.3, 7);
        let b = tet_box(4, 3, 3, 0.3, 7);
        assert_eq!(a.coords, b.coords);
        assert_eq!(a.edges, b.edges);
        let c = tet_box(4, 3, 3, 0.3, 8);
        assert_ne!(a.coords, c.coords, "different seed, different jitter");
        assert_eq!(a.edges, c.edges, "topology is seed-independent");
    }

    #[test]
    fn edge_to_node_ratio_matches_fun3d_scale() {
        // Paper: 18M edges / 2.2M nodes ~ 8.2 edges per node. The 5-tet
        // box decomposition gives 3n²(n - 1) + 3n(n - 1)² edges: 5.27 per
        // node here, 5.86 at the benchmark's 65³ and 5.93 at 130³.
        let m = tet_box(12, 12, 12, 0.1, 1);
        assert_eq!(m.num_edges(), 3 * 144 * 11 + 3 * 12 * 121);
        let ratio = m.num_edges() as f64 / m.num_nodes() as f64;
        assert!(
            (5.0..9.0).contains(&ratio),
            "edges/node ratio {ratio} out of unstructured range"
        );
    }

    #[test]
    fn no_jitter_keeps_lattice() {
        let m = tet_box(3, 2, 2, 0.0, 9);
        assert_eq!(m.coords[0], [0.0, 0.0, 0.0]);
        assert_eq!(m.coords[1], [1.0, 0.0, 0.0]);
    }

    #[test]
    fn boundary_nodes_unjittered() {
        let m = tet_box(4, 4, 4, 0.4, 3);
        // Corner node must be exactly at its lattice point.
        assert_eq!(m.coords[0], [0.0, 0.0, 0.0]);
        let last = m.coords[m.num_nodes() - 1];
        assert_eq!(last, [3.0, 3.0, 3.0]);
    }

    #[test]
    fn neighbouring_cubes_conform() {
        // Conforming decomposition leaves no duplicate edges and the mesh
        // valid; also every node should appear in at least one cell.
        let m = tet_box(4, 3, 3, 0.0, 0);
        m.validate().unwrap();
        let mut seen = vec![false; m.num_nodes()];
        for &c in &m.cells {
            seen[c as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "every node must belong to a cell");
    }

    #[test]
    fn dims_for_nodes_near_target() {
        let (x, y, z) = dims_for_nodes(1000);
        let n = x * y * z;
        assert!((500..2000).contains(&n), "requested ~1000, got {n}");
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn degenerate_grid_rejected() {
        tet_box(1, 3, 3, 0.0, 0);
    }
}
