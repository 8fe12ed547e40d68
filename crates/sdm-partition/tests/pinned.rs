//! The partitioner's input meshes and its output, pinned as FNV-1a
//! hashes of their edges, their coordinates' bits and the partition
//! vectors: a change that only makes the generators or the partitioner
//! faster keeps them all, and a change to a mesh shows apart from one to
//! a partition.

use sdm_mesh::gen::rt_interface_mesh;
use sdm_mesh::gen::tet::{dims_for_nodes, tet_box};
use sdm_mesh::{CsrGraph, UnstructuredMesh};
use sdm_partition::{partition, Method};

fn fnv1a(xs: impl IntoIterator<Item = u64>) -> u64 {
    let step = |h: u64, x: u64| (h ^ x).wrapping_mul(0x100_0000_01b3);
    xs.into_iter().fold(0xcbf2_9ce4_8422_2325, step)
}

/// Hashes of the mesh's edges (`lo, hi, lo, hi, …`) and of its
/// coordinates' bits (`x, y, z, x, …`).
fn mesh_hashes(mesh: &UnstructuredMesh) -> (u64, u64) {
    let edges = mesh.edges.iter().flat_map(|&(a, b)| [a as u64, b as u64]);
    let coords = mesh.coords.iter().flatten().map(|x| x.to_bits());
    (fnv1a(edges), fnv1a(coords))
}

fn hash(mesh: &UnstructuredMesh, nparts: usize, seed: u64) -> u64 {
    let g = CsrGraph::from_edges(mesh.num_nodes(), &mesh.edges);
    let p = partition(&g, None, nparts, Method::Multilevel, seed);
    fnv1a(p.iter().map(|&x| x as u64))
}

#[test]
fn small_meshes_partition_as_pinned() {
    let (tet17, tet25) = (tet_box(17, 17, 17, 0.25, 7), tet_box(25, 25, 25, 0.2, 11));
    let rt = rt_interface_mesh(120, 120, 0.35, 4);
    assert_eq!(
        mesh_hashes(&tet17),
        (0x508d3f2c5d26f2a5, 0x1aad52146d03de4a)
    );
    assert_eq!(
        mesh_hashes(&tet25),
        (0x7a095da52c2af915, 0xaaacec9395d472c4)
    );
    assert_eq!(mesh_hashes(&rt), (0x4e47e8866820f992, 0xf7f2567df268a93c));
    assert_eq!(hash(&tet17, 4, 42), 0xee825cc4444c65c5);
    assert_eq!(hash(&tet25, 64, 0), 0x271cec3da005c213);
    assert_eq!(hash(&rt, 2, 20010220), 0x3b6368c782733945);
}

/// The meshes, part counts and seed the end-to-end benchmark partitions,
/// and three more cases that other stall rules in `refine` changed.
#[test]
#[ignore = "benchmark-sized meshes: run in release with --ignored"]
fn benchmark_meshes_partition_as_pinned() {
    let seed = 20010220;
    let (nx, ny, nz) = dims_for_nodes(275_000);
    let fun3d = tet_box(nx, ny, nz, 0.25, seed);
    let rt = rt_interface_mesh(750, 750, 0.35, 4);
    assert_eq!(
        mesh_hashes(&fun3d),
        (0x628ac2060d9a0e25, 0x55f58e9cf755412c)
    );
    assert_eq!(mesh_hashes(&rt), (0x6f467a973fe3172e, 0xd0779cf6a755057b));
    assert_eq!(hash(&fun3d, 2, seed), 0x9fc0b04f02024f3f);
    assert_eq!(hash(&fun3d, 4, seed), 0xb1998de1be9dbd21);
    assert_eq!(hash(&fun3d, 64, seed), 0xdb831ea9fc573857);
    assert_eq!(hash(&rt, 2, seed), 0xd6e2616e7b508ca9);
    // Where a tighter stall limit or one that counts infeasible moves
    // changed the vector: fun3d at p = 3, and `fig7`'s partitions, whose
    // passes start over the cap.
    assert_eq!(hash(&fun3d, 3, seed), 0x7e4d0e5b736ce4bb);
    assert_eq!(hash(&rt, 32, seed), 0x27f75c8dc2308c0b);
    assert_eq!(hash(&rt, 64, seed), 0x01906718c56f4f1c);
}
