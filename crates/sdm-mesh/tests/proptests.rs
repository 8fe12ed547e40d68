//! Property tests: mesh invariants across generator parameters, edge
//! extraction against a reference and against one global sort, and
//! format offsets.

use proptest::prelude::*;
use sdm_mesh::gen::{rt_interface_mesh, tet_box, tri_rect};
use sdm_mesh::mesh::CellKind;
use sdm_mesh::{Uns3dLayout, UnstructuredMesh};
use std::collections::BTreeSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn tet_box_always_valid(nx in 2usize..7, ny in 2usize..7, nz in 2usize..5, jitter in 0.0f64..0.45, seed in any::<u64>()) {
        let m = tet_box(nx, ny, nz, jitter, seed);
        m.validate().unwrap();
        prop_assert_eq!(m.num_nodes(), nx * ny * nz);
        prop_assert_eq!(m.num_cells(), (nx - 1) * (ny - 1) * (nz - 1) * 5);
        // Connected-ish: every node appears in some edge for boxes >= 2^3.
        let mut touched = vec![false; m.num_nodes()];
        for &(a, b) in &m.edges {
            touched[a as usize] = true;
            touched[b as usize] = true;
        }
        prop_assert!(touched.iter().all(|&t| t));
    }

    #[test]
    fn edge_extraction_matches_reference(nx in 2usize..6, ny in 2usize..6) {
        let m = tri_rect(nx, ny);
        // Reference: set of normalized pairs from cells.
        let mut want = BTreeSet::new();
        for cell in m.cells.chunks_exact(3) {
            for (i, j) in [(0, 1), (1, 2), (0, 2)] {
                let (a, b) = (cell[i].min(cell[j]), cell[i].max(cell[j]));
                want.insert((a, b));
            }
        }
        let got: BTreeSet<(u32, u32)> = m.edges.iter().copied().collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn rt_mesh_topology_independent_of_amplitude(side in 4usize..10, amp in 0.0f64..0.5, modes in 1usize..5) {
        let flat = tri_rect(side, side);
        let rt = rt_interface_mesh(side, side, amp, modes);
        prop_assert_eq!(&rt.edges, &flat.edges);
        prop_assert_eq!(&rt.cells, &flat.cells);
        rt.validate().unwrap();
    }

    #[test]
    fn layout_offsets_are_disjoint_and_ordered(edges in 1u64..500, nodes in 1u64..300, ne in 1usize..5, nn in 1usize..5) {
        let l = Uns3dLayout { total_edges: edges, total_nodes: nodes, n_edge_arrays: ne, n_node_arrays: nn };
        let mut regions: Vec<(u64, u64)> = vec![
            (l.edge1_offset(), edges * 4),
            (l.edge2_offset(), edges * 4),
        ];
        for k in 0..ne {
            regions.push((l.edge_array_offset(k), edges * 8));
        }
        for k in 0..nn {
            regions.push((l.node_array_offset(k), nodes * 8));
        }
        // Strictly increasing and gap-free up to file_len.
        let mut end = 0;
        for (off, len) in regions {
            prop_assert_eq!(off, end, "regions must be adjacent");
            end = off + len;
        }
        prop_assert_eq!(end, l.file_len());
    }

    #[test]
    fn indirection_arrays_are_sorted_pairs(nx in 2usize..5, ny in 2usize..5, nz in 2usize..4) {
        let m = tet_box(nx, ny, nz, 0.0, 1);
        let (e1, e2) = m.indirection_arrays();
        prop_assert_eq!(e1.len(), m.num_edges());
        for k in 0..e1.len() {
            prop_assert!(e1[k] < e2[k], "edge {} not normalized", k);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Bucketed extraction returns what one sort and dedup of every
    /// cell's pairs returns, in a vector sized to it. Ids come from a
    /// small range, so cells share edges and some repeat a node.
    #[test]
    fn edges_from_cells_matches_one_global_sort(
        tets in any::<bool>(),
        ids in 1u32..40,
        raw in proptest::collection::vec(any::<u32>(), 0..400),
    ) {
        let kind = if tets { CellKind::Tetrahedron } else { CellKind::Triangle };
        let whole = raw.len() - raw.len() % kind.arity();
        let cells: Vec<u32> = raw[..whole].iter().map(|&x| x % ids).collect();
        let mut want = Vec::new();
        for cell in cells.chunks_exact(kind.arity()) {
            for &(i, j) in kind.edge_pattern() {
                want.push((cell[i].min(cell[j]), cell[i].max(cell[j])));
            }
        }
        want.sort_unstable();
        want.dedup();
        let got = UnstructuredMesh::edges_from_cells(kind, &cells);
        prop_assert_eq!(got.capacity(), got.len());
        prop_assert_eq!(got, want);
    }
}

#[test]
fn tet_cells_cover_volume() {
    // The 5-tet decomposition covers each unit cube: total tet volume
    // equals the box volume (unjittered lattice).
    let m = tet_box(4, 3, 3, 0.0, 0);
    let vol: f64 = m
        .cells
        .chunks_exact(4)
        .map(|t| {
            let p = |i: usize| m.coords[t[i] as usize];
            let (a, b, c, d) = (p(0), p(1), p(2), p(3));
            let u = [b[0] - a[0], b[1] - a[1], b[2] - a[2]];
            let v = [c[0] - a[0], c[1] - a[1], c[2] - a[2]];
            let w = [d[0] - a[0], d[1] - a[1], d[2] - a[2]];
            let det = u[0] * (v[1] * w[2] - v[2] * w[1]) - u[1] * (v[0] * w[2] - v[2] * w[0])
                + u[2] * (v[0] * w[1] - v[1] * w[0]);
            det.abs() / 6.0
        })
        .sum();
    let expect = 3.0 * 2.0 * 2.0;
    assert!(
        (vol - expect).abs() < 1e-9,
        "tet volumes {vol} != box volume {expect}"
    );
}

#[test]
fn cellkind_metadata() {
    assert_eq!(CellKind::Triangle.arity(), 3);
    assert_eq!(CellKind::Tetrahedron.arity(), 4);
    let e = UnstructuredMesh::edges_from_cells(CellKind::Triangle, &[0, 1, 2]);
    assert_eq!(e, vec![(0, 1), (0, 2), (1, 2)]);
}
