//! Integration: SDM's parallel import + ring distribution must produce
//! byte-identical partitions and data to the original rank-0-read +
//! broadcast baseline (property checked across process counts and
//! partitioners).

use std::sync::Arc;

use proptest::prelude::*;
use sdm::apps::original::fun3d_original_import;
use sdm::apps::Fun3dWorkload;
use sdm::core::{Sdm, SdmConfig};
use sdm::mesh::Uns3dLayout;
use sdm::mpi::World;
use sdm::partition::{partition_block, partition_random};
use sdm::pfs::Pfs;
use sdm::sim::MachineConfig;

fn sdm_partitions(w: &Fun3dWorkload, nprocs: usize) -> Vec<sdm::core::PartitionedIndex> {
    let pfs = Pfs::new(MachineConfig::test_tiny());
    let store = sdm::core::store::in_memory();
    w.stage(&pfs).unwrap();
    World::run(nprocs, MachineConfig::test_tiny(), {
        let (pfs, store, w) = (Arc::clone(&pfs), Arc::clone(&store), w.clone());
        move |c| {
            let mut sdm =
                Sdm::initialize_with(c, &pfs, &store, "eq", SdmConfig::default()).unwrap();
            let h = sdm
                .group(c)
                .dataset::<f64>("d", w.mesh.num_nodes() as u64)
                .build()
                .unwrap()
                .group();
            sdm.make_importlist(
                c,
                h,
                vec![
                    sdm::core::ImportDesc::index("edge1", &w.mesh_file),
                    sdm::core::ImportDesc::index("edge2", &w.mesh_file),
                ],
            )
            .unwrap();
            let total = w.mesh.num_edges() as u64;
            let (start, e1) = sdm
                .import_contiguous::<i32>(c, h, "edge1", w.layout.edge1_offset(), total)
                .unwrap();
            let (_, e2) = sdm
                .import_contiguous::<i32>(c, h, "edge2", w.layout.edge2_offset(), total)
                .unwrap();
            sdm.partition_index_fresh(c, &w.partitioning_vector, start, &e1, &e2)
                .unwrap()
        }
    })
}

fn original_partitions(w: &Fun3dWorkload, nprocs: usize) -> Vec<sdm::core::PartitionedIndex> {
    let pfs = Pfs::new(MachineConfig::test_tiny());
    w.stage(&pfs).unwrap();
    World::run(nprocs, MachineConfig::test_tiny(), {
        let (pfs, w) = (Arc::clone(&pfs), w.clone());
        move |c| fun3d_original_import(c, &pfs, &w).unwrap().1
    })
}

#[test]
fn ring_equals_broadcast_partition() {
    for nprocs in [1, 2, 3, 5] {
        let w = Fun3dWorkload::new(200, nprocs, 31);
        assert_eq!(
            sdm_partitions(&w, nprocs),
            original_partitions(&w, nprocs),
            "nprocs={nprocs}"
        );
    }
}

#[test]
fn imported_edge_data_matches_layout_values() {
    let nprocs = 3;
    let w = Fun3dWorkload::new(200, nprocs, 17);
    let pfs = Pfs::new(MachineConfig::test_tiny());
    let store = sdm::core::store::in_memory();
    w.stage(&pfs).unwrap();
    let ok = World::run(nprocs, MachineConfig::test_tiny(), {
        let (pfs, store, w) = (Arc::clone(&pfs), Arc::clone(&store), w.clone());
        move |c| {
            let mut sdm =
                Sdm::initialize_with(c, &pfs, &store, "eq2", SdmConfig::default()).unwrap();
            let h = sdm
                .group(c)
                .dataset::<f64>("d", w.mesh.num_nodes() as u64)
                .build()
                .unwrap()
                .group();
            let mut imports = vec![
                sdm::core::ImportDesc::index("edge1", &w.mesh_file),
                sdm::core::ImportDesc::index("edge2", &w.mesh_file),
            ];
            for k in 0..4 {
                imports.push(sdm::core::ImportDesc::data(format!("x{k}"), &w.mesh_file));
                imports.push(sdm::core::ImportDesc::data(format!("y{k}"), &w.mesh_file));
            }
            sdm.make_importlist(c, h, imports).unwrap();
            let total_edges = w.mesh.num_edges() as u64;
            let total_nodes = w.mesh.num_nodes() as u64;
            let (start, e1) = sdm
                .import_contiguous::<i32>(c, h, "edge1", w.layout.edge1_offset(), total_edges)
                .unwrap();
            let (_, e2) = sdm
                .import_contiguous::<i32>(c, h, "edge2", w.layout.edge2_offset(), total_edges)
                .unwrap();
            let pi = sdm
                .partition_index_fresh(c, &w.partitioning_vector, start, &e1, &e2)
                .unwrap();
            // Every imported edge/node value must equal the synthetic
            // generator formula at its global index.
            for k in 0..4 {
                let x = sdm
                    .partition_data_edges(
                        c,
                        h,
                        &format!("x{k}"),
                        w.layout.edge_array_offset(k),
                        &pi,
                        total_edges,
                    )
                    .unwrap();
                for (i, &e) in pi.edge_ids.iter().enumerate() {
                    assert_eq!(x[i], Uns3dLayout::edge_value(k, e), "x{k}[{e}]");
                }
                let y = sdm
                    .partition_data_nodes(
                        c,
                        h,
                        &format!("y{k}"),
                        w.layout.node_array_offset(k),
                        &pi,
                        total_nodes,
                    )
                    .unwrap();
                for (i, &n) in pi.all_nodes().iter().enumerate() {
                    assert_eq!(y[i], Uns3dLayout::node_value(k, n as u64), "y{k}[{n}]");
                }
            }
            true
        }
    });
    assert!(ok.iter().all(|&b| b));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For random partitioning vectors, the ring distribution equals the
    /// sequential reference on every rank.
    #[test]
    fn ring_matches_reference_for_random_vectors(seed in 0u64..1000, nprocs in 1usize..5) {
        let w = Fun3dWorkload::new(150, nprocs, 3);
        let n = w.mesh.num_nodes();
        let pv = partition_random(n, nprocs, seed);
        let (e1, e2) = w.mesh.indirection_arrays();
        // Distributed run with the random vector.
        let pfs = Pfs::new(MachineConfig::test_tiny());
        let store = sdm::core::store::in_memory();
        w.stage(&pfs).unwrap();
        let out = World::run(nprocs, MachineConfig::test_tiny(), {
            let (pfs, store, w, pv) = (Arc::clone(&pfs), Arc::clone(&store), w.clone(), pv.clone());
            move |c| {
                let mut sdm = Sdm::initialize_with(c, &pfs, &store, "pp", SdmConfig::default()).unwrap();
                let h = sdm.group(c).dataset::<f64>("d", 1).build().unwrap().group();
                sdm.make_importlist(c, h, vec![
                    sdm::core::ImportDesc::index("edge1", &w.mesh_file),
                    sdm::core::ImportDesc::index("edge2", &w.mesh_file),
                ]).unwrap();
                let total = w.mesh.num_edges() as u64;
                let (start, le1) = sdm.import_contiguous::<i32>(c, h, "edge1", w.layout.edge1_offset(), total).unwrap();
                let (_, le2) = sdm.import_contiguous::<i32>(c, h, "edge2", w.layout.edge2_offset(), total).unwrap();
                sdm.partition_index_fresh(c, &pv, start, &le1, &le2).unwrap()
            }
        });
        for (rank, pi) in out.iter().enumerate() {
            let want = Sdm::partition_index_reference(&pv, &e1, &e2, rank as u32);
            prop_assert_eq!(pi, &want);
        }
    }

    /// Block partition vectors give each rank a contiguous node range and
    /// the union of owned nodes is exactly 0..n.
    #[test]
    fn owned_nodes_partition_exactly(nprocs in 1usize..6) {
        let w = Fun3dWorkload::new(150, nprocs, 3);
        let n = w.mesh.num_nodes();
        let pv = partition_block(n, nprocs);
        let (e1, e2) = w.mesh.indirection_arrays();
        let mut seen = vec![false; n];
        for r in 0..nprocs as u32 {
            let pi = Sdm::partition_index_reference(&pv, &e1, &e2, r);
            for &node in &pi.owned_nodes {
                prop_assert!(!seen[node as usize], "node {} owned twice", node);
                seen[node as usize] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }
}
