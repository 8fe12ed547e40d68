//! The FUN3D template: import, index distribution, edge sweep,
//! checkpoint writes — the paper's first benchmark (Figures 5 and 6).

use std::sync::Arc;

use sdm_core::dataset::ImportDesc;
use sdm_core::{DatasetHandle, OrgLevel, PartitionedIndex, Sdm, SdmConfig, SdmResult, SharedStore};
use sdm_mesh::Uns3dLayout;
use sdm_mpi::Comm;
use sdm_pfs::Pfs;

use crate::report::PhaseReport;
use crate::workload::Fun3dWorkload;

/// Options for one FUN3D run.
#[derive(Debug, Clone)]
pub struct Fun3dOptions {
    /// File organization for the result datasets.
    pub org: OrgLevel,
    /// Consult the history tables before distributing indices.
    pub use_history: bool,
    /// Register the distribution in a history file afterwards
    /// (`SDM_index_registry` — optional per the paper).
    pub register_history: bool,
}

impl Default for Fun3dOptions {
    fn default() -> Self {
        Self {
            org: OrgLevel::Level2,
            use_history: false,
            register_history: false,
        }
    }
}

/// Outcome of a FUN3D run.
#[derive(Debug)]
pub struct Fun3dResult {
    /// Phase timings: `"import"`, `"index-distribution"`, `"write"`,
    /// `"read"`, `"compute"`.
    pub report: PhaseReport,
    /// Whether the index distribution came from a history file.
    pub history_hit: bool,
    /// Local partition stats (edges, owned nodes, ghosts).
    pub partition: (usize, usize, usize),
    /// Checksum over this rank's final `p` values (for cross-run
    /// equality checks).
    pub p_checksum: f64,
}

/// Names of the five result datasets (paper: four ~21 MB sets and one
/// ~105 MB set per checkpoint).
pub const RESULT_DATASETS: [&str; 4] = ["p", "q", "r", "s"];
/// The large fifth dataset (5× the node count).
pub const BIG_DATASET: &str = "res";

/// The edge-sweep kernel: for every owned node, accumulate flux
/// contributions from all incident edges (ghost edges are local by
/// construction, so owned-node sums are complete without communication).
///
/// `x` is aligned with `pi`'s edges and `y` with its slots (the order of
/// [`PartitionedIndex::all_nodes`], which `partition_data_nodes` imports
/// in); the sweep reads both through `pi`'s local numbering and searches
/// nothing. `all_nodes` is what callers used to be searched through: it
/// is only checked to be as long as the numbering, and can go when no
/// caller passes it any more.
pub fn edge_sweep(
    pi: &PartitionedIndex,
    all_nodes: &[u32],
    x: &[f64],
    y: &[f64],
    step: usize,
) -> Vec<f64> {
    assert_eq!(
        all_nodes.len(),
        pi.num_slots(),
        "all_nodes does not belong to this partition"
    );
    let mut out = vec![0.0f64; pi.owned_nodes.len()];
    let scale = (step + 1) as f64;
    for (k, &(a, b)) in pi.edge_slots().iter().enumerate() {
        let xa = x[k] * scale;
        let flux = xa * (y[a as usize] + y[b as usize]);
        if let Some(i) = pi.owned_position(a) {
            out[i] += flux;
        }
        if let Some(i) = pi.owned_position(b) {
            out[i] -= flux;
        }
    }
    out
}

/// Sequential reference of [`edge_sweep`] over the whole mesh (tests and
/// verification): `out[n]` for every global node.
pub fn edge_sweep_reference(e1: &[i32], e2: &[i32], total_nodes: usize, step: usize) -> Vec<f64> {
    let mut out = vec![0.0f64; total_nodes];
    let scale = (step + 1) as f64;
    for k in 0..e1.len() {
        let (a, b) = (e1[k] as usize, e2[k] as usize);
        let x = Uns3dLayout::edge_value(0, k as u64) * scale;
        let flux =
            x * (Uns3dLayout::node_value(0, a as u64) + Uns3dLayout::node_value(0, b as u64));
        out[a] += flux;
        out[b] -= flux;
    }
    out
}

/// Run the FUN3D template through SDM. Returns per-rank results; phase
/// maxima across ranks give the paper's bars.
pub fn run_sdm(
    comm: &mut Comm,
    pfs: &Arc<Pfs>,
    store: &SharedStore,
    w: &Fun3dWorkload,
    opts: &Fun3dOptions,
) -> SdmResult<Fun3dResult> {
    let total_nodes = w.mesh.num_nodes() as u64;
    let total_edges = w.mesh.num_edges() as u64;
    let mut report = PhaseReport::new();

    let cfg = SdmConfig {
        org: opts.org,
        ..SdmConfig::default()
    };
    let mut sdm = Sdm::initialize_with(comm, pfs, store, "fun3d", cfg)?;

    // Result datasets: p, q, r, s over nodes plus the big one (5x) —
    // one group, registered in one collective through the builder.
    let mut b = sdm.group(comm);
    for name in RESULT_DATASETS {
        b = b.dataset::<f64>(name, total_nodes);
    }
    let reg = b.dataset::<f64>(BIG_DATASET, 5 * total_nodes).build()?;
    let h = reg.group();
    // Typed handles: resolved once, no name lookup per write.
    let small: Vec<DatasetHandle<f64>> = RESULT_DATASETS
        .iter()
        .map(|n| reg.handle::<f64>(n))
        .collect::<Result<_, _>>()?;
    let big_h: DatasetHandle<f64> = reg.handle(BIG_DATASET)?;

    // Import list: edge1, edge2, x0..x3, y0..y3 from the mesh file.
    let mut imports = vec![
        ImportDesc::index("edge1", &w.mesh_file),
        ImportDesc::index("edge2", &w.mesh_file),
    ];
    for k in 0..w.layout.n_edge_arrays {
        imports.push(ImportDesc::data(format!("x{k}"), &w.mesh_file));
    }
    for k in 0..w.layout.n_node_arrays {
        imports.push(ImportDesc::data(format!("y{k}"), &w.mesh_file));
    }
    sdm.make_importlist(comm, h, imports)?;

    // ---- Index distribution (with optional history) + edge import ----
    comm.barrier();
    let mut history_hit = false;
    let pi: PartitionedIndex;
    if opts.use_history {
        let t0 = comm.now();
        let replay = sdm.partition_index_from_history(comm, total_edges)?;
        match replay {
            Some(found) => {
                history_hit = true;
                pi = found;
                report.add("index-distribution", comm.now() - t0);
            }
            None => {
                report.add("index-distribution", comm.now() - t0);
                pi = import_and_distribute(comm, &mut sdm, h, w, &mut report)?;
            }
        }
    } else {
        pi = import_and_distribute(comm, &mut sdm, h, w, &mut report)?;
    }

    // ---- Import the eight data arrays through the partitioned maps ----
    let t0 = comm.now();
    let mut xs: Vec<Vec<f64>> = Vec::new();
    for k in 0..w.layout.n_edge_arrays {
        xs.push(sdm.partition_data_edges(
            comm,
            h,
            &format!("x{k}"),
            w.layout.edge_array_offset(k),
            &pi,
            total_edges,
        )?);
    }
    let mut ys: Vec<Vec<f64>> = Vec::new();
    for k in 0..w.layout.n_node_arrays {
        ys.push(sdm.partition_data_nodes(
            comm,
            h,
            &format!("y{k}"),
            w.layout.node_array_offset(k),
            &pi,
            total_nodes,
        )?);
    }
    report.add("import", comm.now() - t0);
    report.add_bytes(
        "import",
        w.layout.n_edge_arrays as u64 * total_edges * 8
            + w.layout.n_node_arrays as u64 * total_nodes * 8
            + if history_hit { 0 } else { 2 * total_edges * 4 },
    );

    // ---- Optional history registration ----
    if opts.register_history && !history_hit {
        let t0 = comm.now();
        sdm.index_registry(comm, &pi, total_edges)?;
        report.add("index-registry", comm.now() - t0);
    }
    sdm.release_importlist(comm, h)?;

    // ---- Views for the results ----
    let owned = pi.owned_nodes_u64();
    for &dh in &small {
        sdm.set_view(comm, dh, &owned)?;
    }
    let big_map: Vec<u64> = pi
        .owned_nodes
        .iter()
        .flat_map(|&n| (0..5).map(move |j| n as u64 * 5 + j))
        .collect();
    sdm.set_view(comm, big_h, &big_map)?;

    // ---- Time steps: compute + checkpoint writes ----
    let all_nodes = pi.all_nodes();
    let mut p_checksum = 0.0;
    for t in 0..w.timesteps {
        let t0 = comm.now();
        let p = edge_sweep(&pi, &all_nodes, &xs[0], &ys[0], t);
        // Model the flops: two passes over local edges per dataset.
        comm.compute(pi.edge_ids.len() as f64 * sdm.config().per_edge_scan_cost * 2.0);
        report.add("compute", comm.now() - t0);

        let t0 = comm.now();
        // All five checkpoint datasets land through one timestep scope:
        // one collective burst, one metadata sync for the whole step.
        let big: Vec<f64> = p.iter().flat_map(|&v| [v; 5]).collect();
        let mut step = sdm.timestep(comm, t as i64);
        for &dh in &small {
            step.write(dh, &p)?;
        }
        step.write(big_h, &big)?;
        step.commit()?;
        report.add("write", comm.now() - t0);
        report.add_bytes("write", w.checkpoint_bytes());

        p_checksum = p.iter().sum();
    }

    // ---- Read everything back (Figure 6's read bars) ----
    let t0 = comm.now();
    let mut back = vec![0.0f64; owned.len()];
    for t in 0..w.timesteps {
        for &dh in &small {
            sdm.read_handle(comm, dh, t as i64, &mut back)?;
        }
        let mut big_back = vec![0.0f64; big_map.len()];
        sdm.read_handle(comm, big_h, t as i64, &mut big_back)?;
    }
    report.add("read", comm.now() - t0);
    report.add_bytes("read", w.checkpoint_bytes() * w.timesteps as u64);

    let partition = (
        pi.edge_ids.len(),
        pi.owned_nodes.len(),
        pi.ghost_nodes.len(),
    );
    sdm.finalize(comm)?;
    Ok(Fun3dResult {
        report,
        history_hit,
        partition,
        p_checksum,
    })
}

/// Import the edge arrays and run the ring distribution, optionally
/// charging the paper's phases into `report`.
fn import_and_distribute(
    comm: &mut Comm,
    sdm: &mut Sdm,
    h: sdm_core::GroupHandle,
    w: &Fun3dWorkload,
    report: &mut PhaseReport,
) -> SdmResult<PartitionedIndex> {
    let total_edges = w.mesh.num_edges() as u64;
    // Import edges ("the cost of reading the edges" belongs to `import`).
    let t0 = comm.now();
    let (start_id, e1) =
        sdm.import_contiguous::<i32>(comm, h, "edge1", w.layout.edge1_offset(), total_edges)?;
    let (_, e2) =
        sdm.import_contiguous::<i32>(comm, h, "edge2", w.layout.edge2_offset(), total_edges)?;
    report.add("import", comm.now() - t0);

    // Ring distribution ("communication and computation costs to
    // partition the edges after importing them").
    let t0 = comm.now();
    let pi = sdm.partition_index_fresh(comm, &w.partitioning_vector, start_id, &e1, &e2)?;
    report.add("index-distribution", comm.now() - t0);
    Ok(pi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sdm_mpi::World;
    use sdm_sim::MachineConfig;

    /// The sweep as it was before `PartitionedIndex` numbered its nodes:
    /// four binary searches per edge. Kept as the oracle of
    /// [`edge_sweep`]'s arithmetic.
    fn edge_sweep_by_search(
        pi: &PartitionedIndex,
        all_nodes: &[u32],
        x: &[f64],
        y: &[f64],
        step: usize,
    ) -> Vec<f64> {
        let mut out = vec![0.0f64; pi.owned_nodes.len()];
        let scale = (step + 1) as f64;
        for (k, &(a, b)) in pi.edge_nodes.iter().enumerate() {
            let xa = x[k] * scale;
            let ya = y[all_nodes.binary_search(&a).expect("node must be local")];
            let yb = y[all_nodes.binary_search(&b).expect("node must be local")];
            let flux = xa * (ya + yb);
            if let Ok(i) = pi.owned_nodes.binary_search(&a) {
                out[i] += flux;
            }
            if let Ok(i) = pi.owned_nodes.binary_search(&b) {
                out[i] -= flux;
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Same edge order, same arithmetic: the indexed sweep's output
        /// is the searching sweep's, bit for bit.
        #[test]
        fn sweep_is_bit_identical_to_the_searching_sweep(
            ranks in 1u32..5,
            owners in proptest::collection::vec(0u32..64, 2..60),
            picks in proptest::collection::vec((0u32..1000, 0u32..1000), 0..150),
            step in 0usize..4,
        ) {
            let pv: Vec<u32> = owners.iter().map(|o| o % ranks).collect();
            let n = pv.len() as u32;
            let e1: Vec<i32> = picks.iter().map(|&(a, _)| (a % n) as i32).collect();
            let e2: Vec<i32> = picks.iter().map(|&(_, b)| (b % n) as i32).collect();
            for rank in 0..ranks {
                let pi = Sdm::partition_index_reference(&pv, &e1, &e2, rank);
                let all = pi.all_nodes();
                let x: Vec<f64> = pi.edge_ids.iter().map(|&e| Uns3dLayout::edge_value(0, e)).collect();
                let y: Vec<f64> = all.iter().map(|&v| Uns3dLayout::node_value(0, v as u64)).collect();
                let got = edge_sweep(&pi, &all, &x, &y, step);
                let want = edge_sweep_by_search(&pi, &all, &x, &y, step);
                prop_assert_eq!(
                    got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                );
            }
        }
    }

    fn small_world(n: usize, opts: Fun3dOptions) -> (Vec<Fun3dResult>, Arc<Pfs>, SharedStore) {
        let w = Fun3dWorkload::new(150, n, 7);
        let pfs = Pfs::new(MachineConfig::test_tiny());
        let db = Arc::new(sdm_metadb::Database::new());
        let store = sdm_core::CachedStore::shared(&db);
        w.stage(&pfs);
        let out = World::run(n, MachineConfig::test_tiny(), {
            let (pfs, store, w, opts) = (
                Arc::clone(&pfs),
                Arc::clone(&store),
                w.clone(),
                opts.clone(),
            );
            move |c| run_sdm(c, &pfs, &store, &w, &opts).unwrap()
        });
        (out, pfs, store)
    }

    #[test]
    fn partition_covers_everything() {
        let (out, _, _) = small_world(3, Fun3dOptions::default());
        let total_owned: usize = out.iter().map(|r| r.partition.1).sum();
        // Owned nodes partition exactly.
        let w = Fun3dWorkload::new(150, 3, 7);
        assert_eq!(total_owned, w.mesh.num_nodes());
        // Edges: each at least once, shared ones more.
        let total_edges: usize = out.iter().map(|r| r.partition.0).sum();
        assert!(total_edges >= w.mesh.num_edges());
    }

    #[test]
    fn sweep_matches_reference() {
        let n = 3;
        let w = Fun3dWorkload::new(120, n, 9);
        let (e1, e2) = w.mesh.indirection_arrays();
        let reference = edge_sweep_reference(&e1, &e2, w.mesh.num_nodes(), 0);
        // Build per-rank partitions directly and check the distributed sweep.
        for rank in 0..n as u32 {
            let pi = Sdm::partition_index_reference(&w.partitioning_vector, &e1, &e2, rank);
            let all = pi.all_nodes();
            let x: Vec<f64> = pi
                .edge_ids
                .iter()
                .map(|&e| Uns3dLayout::edge_value(0, e))
                .collect();
            let y: Vec<f64> = all
                .iter()
                .map(|&nn| Uns3dLayout::node_value(0, nn as u64))
                .collect();
            let p = edge_sweep(&pi, &all, &x, &y, 0);
            for (i, &node) in pi.owned_nodes.iter().enumerate() {
                let want = reference[node as usize];
                assert!(
                    (p[i] - want).abs() <= 1e-6 * want.abs().max(1.0),
                    "rank {rank} node {node}: {} vs {want}",
                    p[i]
                );
            }
        }
    }

    #[test]
    fn history_registration_then_hit() {
        let n = 3;
        let w = Fun3dWorkload::new(150, n, 7);
        let pfs = Pfs::new(MachineConfig::test_tiny());
        let db = Arc::new(sdm_metadb::Database::new());
        let store = sdm_core::CachedStore::shared(&db);
        w.stage(&pfs);
        // First run registers.
        let first = World::run(n, MachineConfig::test_tiny(), {
            let (pfs, store, w) = (Arc::clone(&pfs), Arc::clone(&store), w.clone());
            move |c| {
                let opts = Fun3dOptions {
                    register_history: true,
                    ..Default::default()
                };
                run_sdm(c, &pfs, &store, &w, &opts).unwrap()
            }
        });
        assert!(first.iter().all(|r| !r.history_hit));
        // Second run replays through a fresh store over the same
        // database, exactly like a later job re-attaching.
        let second = World::run(n, MachineConfig::test_tiny(), {
            let (pfs, store, w) = (
                Arc::clone(&pfs),
                sdm_core::CachedStore::shared(&db),
                w.clone(),
            );
            move |c| {
                let opts = Fun3dOptions {
                    use_history: true,
                    ..Default::default()
                };
                run_sdm(c, &pfs, &store, &w, &opts).unwrap()
            }
        });
        assert!(
            second.iter().all(|r| r.history_hit),
            "history must hit on the second run"
        );
        // Identical partitions => identical results.
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.partition, b.partition);
            assert!((a.p_checksum - b.p_checksum).abs() < 1e-9);
        }
    }

    #[test]
    fn all_org_levels_produce_same_data() {
        let mut sums = Vec::new();
        for org in OrgLevel::all() {
            let (out, _, _) = small_world(
                2,
                Fun3dOptions {
                    org,
                    ..Default::default()
                },
            );
            sums.push(out.iter().map(|r| r.p_checksum).sum::<f64>());
        }
        assert!((sums[0] - sums[1]).abs() < 1e-9);
        assert!((sums[1] - sums[2]).abs() < 1e-9);
    }
}
