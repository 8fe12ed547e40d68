//! The multilevel partitioner's output, pinned as FNV-1a hashes of its
//! partition vectors: a change that only makes it faster keeps them all.

use sdm_mesh::gen::rt_interface_mesh;
use sdm_mesh::gen::tet::{dims_for_nodes, tet_box};
use sdm_mesh::{CsrGraph, UnstructuredMesh};
use sdm_partition::{partition, Method};

fn hash(mesh: &UnstructuredMesh, nparts: usize, seed: u64) -> u64 {
    let g = CsrGraph::from_edges(mesh.num_nodes(), &mesh.edges);
    let p = partition(&g, None, nparts, Method::Multilevel, seed);
    let fnv1a = |h: u64, &x: &u32| (h ^ x as u64).wrapping_mul(0x100_0000_01b3);
    p.iter().fold(0xcbf2_9ce4_8422_2325, fnv1a)
}

#[test]
fn small_meshes_partition_as_pinned() {
    let (tet17, tet25) = (tet_box(17, 17, 17, 0.25, 7), tet_box(25, 25, 25, 0.2, 11));
    assert_eq!(hash(&tet17, 4, 42), 0xee825cc4444c65c5);
    assert_eq!(hash(&tet25, 64, 0), 0x271cec3da005c213);
    let rt = rt_interface_mesh(120, 120, 0.35, 4);
    assert_eq!(hash(&rt, 2, 20010220), 0x3b6368c782733945);
}

/// The meshes, part counts and seed the end-to-end benchmark partitions.
#[test]
#[ignore = "benchmark-sized meshes: run in release with --ignored"]
fn benchmark_meshes_partition_as_pinned() {
    let seed = 20010220;
    let (nx, ny, nz) = dims_for_nodes(275_000);
    let fun3d = tet_box(nx, ny, nz, 0.25, seed);
    assert_eq!(hash(&fun3d, 2, seed), 0x9fc0b04f02024f3f);
    assert_eq!(hash(&fun3d, 4, seed), 0xb1998de1be9dbd21);
    assert_eq!(hash(&fun3d, 64, seed), 0xdb831ea9fc573857);
    let rt = rt_interface_mesh(750, 750, 0.35, 4);
    assert_eq!(hash(&rt, 2, seed), 0xd6e2616e7b508ca9);
}
