//! The "original application" baselines.
//!
//! Figure 5: "The original version of the application — without using
//! SDM — performs all the I/O operations by a single process (process 0),
//! which then broadcasts data to other processes" and "reads the edges in
//! two steps: one step to determine the amount of memory to store the
//! partitioned edges and the other step to actually read the edges."
//!
//! Figure 7: "In the original application, the write operation is
//! performed sequentially. After seeking the starting position in a
//! file, processes write their local portion of data one by one."

use std::sync::Arc;

use sdm_core::{PartitionedIndex, SdmConfig, SdmResult};
use sdm_mpi::envelope::tags;
use sdm_mpi::io::MpiFile;
use sdm_mpi::Comm;
use sdm_pfs::Pfs;

use crate::report::PhaseReport;
use crate::workload::Fun3dWorkload;

/// FUN3D import + index distribution the original way. Returns the phase
/// report and the rank's partition (for equivalence checks against SDM).
pub fn fun3d_original_import(
    comm: &mut Comm,
    pfs: &Arc<Pfs>,
    w: &Fun3dWorkload,
) -> SdmResult<(PhaseReport, PartitionedIndex)> {
    let cfg = SdmConfig::default();
    let total_edges = w.mesh.num_edges() as u64;
    let total_nodes = w.mesh.num_nodes() as u64;
    let mut report = PhaseReport::new();
    comm.barrier();

    // ---- Import: rank 0 reads everything, then broadcasts ----
    let t0 = comm.now();
    let (e1, e2) = if comm.rank() == 0 {
        let f = MpiFile::open_independent(comm, pfs, &w.mesh_file, false)?;
        let mut e1 = vec![0i32; total_edges as usize];
        let mut e2 = vec![0i32; total_edges as usize];
        f.read_at(comm, w.layout.edge1_offset(), &mut e1)?;
        f.read_at(comm, w.layout.edge2_offset(), &mut e2)?;
        f.close_independent(comm);
        (e1, e2)
    } else {
        (vec![], vec![])
    };
    let e1 = comm.bcast(0, &e1)?;
    let e2 = comm.bcast(0, &e2)?;

    // The eight data arrays, also rank-0 read + broadcast.
    let mut edge_arrays: Vec<Vec<f64>> = Vec::new();
    let mut node_arrays: Vec<Vec<f64>> = Vec::new();
    {
        let f = if comm.rank() == 0 {
            Some(MpiFile::open_independent(comm, pfs, &w.mesh_file, false)?)
        } else {
            None
        };
        for k in 0..w.layout.n_edge_arrays {
            let buf = if let Some(f) = &f {
                let mut b = vec![0.0f64; total_edges as usize];
                f.read_at(comm, w.layout.edge_array_offset(k), &mut b)?;
                b
            } else {
                vec![]
            };
            edge_arrays.push(comm.bcast(0, &buf)?);
        }
        for k in 0..w.layout.n_node_arrays {
            let buf = if let Some(f) = &f {
                let mut b = vec![0.0f64; total_nodes as usize];
                f.read_at(comm, w.layout.node_array_offset(k), &mut b)?;
                b
            } else {
                vec![]
            };
            node_arrays.push(comm.bcast(0, &buf)?);
        }
        if let Some(f) = f {
            f.close_independent(comm);
        }
    }
    report.add("import", comm.now() - t0);
    report.add_bytes("import", w.import_bytes());

    // ---- Index distribution: two-pass scan over the full edge list ----
    let t0 = comm.now();
    // Pass 1: count ("determine the amount of memory").
    let me = comm.rank() as u32;
    let mut count = 0usize;
    for k in 0..e1.len() {
        let (a, b) = (e1[k] as usize, e2[k] as usize);
        if w.partitioning_vector[a] == me || w.partitioning_vector[b] == me {
            count += 1;
        }
    }
    comm.compute(e1.len() as f64 * cfg.per_edge_scan_cost);
    // Pass 2: store into the exactly-sized allocation.
    let mut edge_ids = Vec::with_capacity(count);
    let mut edge_nodes = Vec::with_capacity(count);
    for k in 0..e1.len() {
        let (a, b) = (e1[k] as usize, e2[k] as usize);
        if w.partitioning_vector[a] == me || w.partitioning_vector[b] == me {
            edge_ids.push(k as u64);
            edge_nodes.push((e1[k] as u32, e2[k] as u32));
        }
    }
    comm.compute(e1.len() as f64 * cfg.per_edge_scan_cost);

    // Owned and ghost nodes, charged as one pass over the vector.
    let pi = PartitionedIndex::from_edges(&w.partitioning_vector, me, edge_ids, edge_nodes)?;
    comm.compute(w.partitioning_vector.len() as f64 * cfg.per_edge_scan_cost * 0.25);
    report.add("index-distribution", comm.now() - t0);

    comm.barrier();
    Ok((report, pi))
}

/// RT-style sequential write: ranks write their blocks one by one,
/// serialized by a ring token. `node_vals`/`tri_vals` are this rank's
/// portions; offsets are element offsets into the two global datasets.
#[allow(clippy::too_many_arguments)]
pub fn serialized_write(
    comm: &mut Comm,
    pfs: &Arc<Pfs>,
    file_name: &str,
    node_vals: &[f64],
    node_elem_offset: u64,
    tri_vals: &[f64],
    tri_elem_offset: u64,
    tri_base_bytes: u64,
) -> SdmResult<f64> {
    let t0 = comm.now();
    // Only rank 0 creates; others wait for the token before opening, so
    // opens serialize too.
    if comm.rank() > 0 {
        let _token: Vec<u8> = comm.recv_bytes(comm.rank() - 1, tags::SDM_RING)?;
    }
    let f = MpiFile::open_independent(comm, pfs, file_name, comm.rank() == 0)?;
    f.write_at(comm, node_elem_offset * 8, node_vals)?;
    f.write_at(comm, tri_base_bytes + tri_elem_offset * 8, tri_vals)?;
    f.close_independent(comm);
    if comm.rank() + 1 < comm.size() {
        comm.send_bytes(comm.rank() + 1, tags::SDM_RING, &[])?;
    }
    comm.barrier();
    Ok(comm.now() - t0)
}

/// Token-serialized write of scattered node runs plus one contiguous
/// triangle block — the paper's original RT path with a partitioned
/// node set: each run is its own seek+write, and ranks take turns.
/// Returns this rank's elapsed virtual time across the whole
/// (serialized) operation.
#[allow(clippy::too_many_arguments)]
pub fn serialized_write_runs(
    comm: &mut Comm,
    pfs: &Arc<Pfs>,
    file_name: &str,
    node_runs: &[(u64, Vec<f64>)],
    tri_vals: &[f64],
    tri_elem_offset: u64,
    tri_base_bytes: u64,
) -> SdmResult<f64> {
    let t0 = comm.now();
    if comm.rank() > 0 {
        let _token: Vec<u8> = comm.recv_bytes(comm.rank() - 1, tags::SDM_RING)?;
    }
    let f = MpiFile::open_independent(comm, pfs, file_name, comm.rank() == 0)?;
    for (start_elem, vals) in node_runs {
        f.write_at(comm, start_elem * 8, vals)?;
    }
    f.write_at(comm, tri_base_bytes + tri_elem_offset * 8, tri_vals)?;
    f.close_independent(comm);
    if comm.rank() + 1 < comm.size() {
        comm.send_bytes(comm.rank() + 1, tags::SDM_RING, &[])?;
    }
    comm.barrier();
    Ok(comm.now() - t0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdm_core::Sdm;
    use sdm_mpi::World;
    use sdm_sim::MachineConfig;

    #[test]
    fn original_matches_reference_partition() {
        let n = 3;
        let w = Fun3dWorkload::new(150, n, 7);
        let pfs = Pfs::new(MachineConfig::test_tiny());
        w.stage(&pfs).unwrap();
        let out = World::run(n, MachineConfig::test_tiny(), {
            let (pfs, w) = (Arc::clone(&pfs), w.clone());
            move |c| fun3d_original_import(c, &pfs, &w).unwrap().1
        });
        let (e1, e2) = w.mesh.indirection_arrays();
        for (rank, pi) in out.iter().enumerate() {
            let want =
                Sdm::partition_index_reference(&w.partitioning_vector, &e1, &e2, rank as u32);
            assert_eq!(pi, &want, "rank {rank} diverged");
        }
    }

    #[test]
    fn original_import_is_slower_than_parallel_at_scale() {
        // Virtual-time sanity: rank0+bcast import must cost more than
        // SDM's parallel import on the realistic machine model. The mesh
        // must be large enough that byte transfer dominates per-request
        // latency — below that crossover the original's few large
        // contiguous reads genuinely win (Figure 5 is measured at 807 MB,
        // far above it).
        let n = 8;
        let w = Fun3dWorkload::new(60_000, n, 3);
        let cfg = MachineConfig::origin2000();
        let pfs = Pfs::new(cfg.clone());
        w.stage(&pfs).unwrap();
        let orig = World::run(n, cfg.clone(), {
            let (pfs, w) = (Arc::clone(&pfs), w.clone());
            move |c| fun3d_original_import(c, &pfs, &w).unwrap().0.get("import")
        })
        .into_iter()
        .fold(0.0f64, f64::max);

        let pfs2 = Pfs::new(cfg.clone());
        let store = sdm_core::store::in_memory();
        w.stage(&pfs2).unwrap();
        let sdm = World::run(n, cfg, {
            let (pfs2, store, w) = (Arc::clone(&pfs2), Arc::clone(&store), w.clone());
            move |c| {
                crate::fun3d::run_sdm(c, &pfs2, &store, &w, &crate::fun3d::Fun3dOptions::default())
                    .unwrap()
                    .report
                    .get("import")
            }
        })
        .into_iter()
        .fold(0.0f64, f64::max);
        assert!(
            orig > sdm * 1.5,
            "original import ({orig}s) should clearly exceed SDM import ({sdm}s)"
        );
    }

    #[test]
    fn serialized_write_round_trips() {
        let n = 3;
        let pfs = Pfs::new(MachineConfig::test_tiny());
        World::run(n, MachineConfig::test_tiny(), {
            let pfs = Arc::clone(&pfs);
            move |c| {
                let vals = vec![c.rank() as f64; 4];
                let tri = vec![100.0 + c.rank() as f64; 2];
                serialized_write(
                    c,
                    &pfs,
                    "rt0.dat",
                    &vals,
                    c.rank() as u64 * 4,
                    &tri,
                    c.rank() as u64 * 2,
                    3 * 4 * 8,
                )
                .unwrap();
            }
        });
        let (f, _) = pfs.open("rt0.dat", 0.0).unwrap();
        let mut node = vec![0.0f64; 12];
        pfs.read_exact_at(&f, 0, sdm_mpi::pod::as_bytes_mut(&mut node), 0.0)
            .unwrap();
        assert_eq!(node[0], 0.0);
        assert_eq!(node[4], 1.0);
        assert_eq!(node[8], 2.0);
        let mut tri = vec![0.0f64; 6];
        pfs.read_exact_at(&f, 96, sdm_mpi::pod::as_bytes_mut(&mut tri), 0.0)
            .unwrap();
        assert_eq!(tri[0], 100.0);
        assert_eq!(tri[2], 101.0);
        assert_eq!(tri[4], 102.0);
    }
}
