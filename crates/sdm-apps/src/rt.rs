//! The Rayleigh-Taylor template (Figure 7).
//!
//! Each step writes two datasets: a node dataset "according to the global
//! node number of the partitioned nodes" (irregular view) and a triangle
//! dataset "contiguously" (block ranges). Under Level 1 each step's
//! datasets go to fresh files; under Level 2/3 they append (the paper
//! notes Level 2 and 3 coincide here because the two datasets already
//! have separate files... in our grouping Level 3 shares one file).

use std::sync::Arc;

use sdm_core::{OrgLevel, Sdm, SdmConfig, SdmResult, SharedStore};
use sdm_mpi::Comm;
use sdm_pfs::Pfs;

use crate::report::PhaseReport;
use crate::workload::RtWorkload;

/// Deterministic node value for step `t` (tests verify file contents).
pub fn node_value(node: u32, t: usize) -> f64 {
    node as f64 * 1.5 + t as f64 * 1000.0
}

/// Deterministic triangle value for step `t`.
pub fn tri_value(tri: u64, t: usize) -> f64 {
    -(tri as f64) - t as f64 * 500.0
}

/// Run the RT template through SDM; returns this rank's phase report
/// (phases: `"write"` with bytes for bandwidth).
pub fn run_sdm(
    comm: &mut Comm,
    pfs: &Arc<Pfs>,
    store: &SharedStore,
    w: &RtWorkload,
    org: OrgLevel,
) -> SdmResult<PhaseReport> {
    let total_nodes = w.mesh.num_nodes() as u64;
    let total_tris = w.mesh.num_cells() as u64;
    let mut report = PhaseReport::new();

    let cfg = SdmConfig {
        org,
        ..SdmConfig::default()
    };
    let mut sdm = Sdm::initialize_with(comm, pfs, store, "rt", cfg)?;
    let reg = sdm
        .group(comm)
        .dataset::<f64>("node_data", total_nodes)
        .dataset::<f64>("tri_data", total_tris)
        .build()?;
    let node_h = reg.handle::<f64>("node_data")?;
    let tri_h = reg.handle::<f64>("tri_data")?;

    // Node view: owned nodes by global number.
    let me = comm.rank() as u32;
    let owned: Vec<u64> = w
        .partitioning_vector
        .iter()
        .enumerate()
        .filter(|&(_, &p)| p == me)
        .map(|(n, _)| n as u64)
        .collect();
    sdm.set_view(comm, node_h, &owned)?;

    // Triangle view: contiguous block per rank.
    let chunk = total_tris.div_ceil(comm.size() as u64);
    let tlo = (me as u64 * chunk).min(total_tris);
    let thi = ((me as u64 + 1) * chunk).min(total_tris);
    let tri_map: Vec<u64> = (tlo..thi).collect();
    sdm.set_view(comm, tri_h, &tri_map)?;

    comm.barrier();
    for t in 0..w.timesteps {
        let node_vals: Vec<f64> = owned.iter().map(|&n| node_value(n as u32, t)).collect();
        let tri_vals: Vec<f64> = tri_map.iter().map(|&k| tri_value(k, t)).collect();
        let t0 = comm.now();
        // Both datasets of the step land through one timestep scope:
        // one collective burst, one metadata sync.
        let mut step = sdm.timestep(comm, t as i64);
        step.write(node_h, &node_vals)?;
        step.write(tri_h, &tri_vals)?;
        step.commit()?;
        report.add("write", comm.now() - t0);
    }
    report.add_bytes("write", w.total_bytes());

    // Read-back (not part of Figure 7 but used by tests).
    let t0 = comm.now();
    let mut node_back = vec![0.0f64; owned.len()];
    sdm.read_handle(comm, node_h, (w.timesteps - 1) as i64, &mut node_back)?;
    report.add("read", comm.now() - t0);
    for (i, &n) in owned.iter().enumerate() {
        debug_assert!((node_back[i] - node_value(n as u32, w.timesteps - 1)).abs() < 1e-9);
    }

    sdm.finalize(comm)?;
    Ok(report)
}

/// Run the original (token-serialized) RT write path; one file per step.
///
/// Faithful to the paper's baseline: "after seeking the starting
/// position in a file, processes write their local portion of data one
/// by one". Each process holds its *partitioned* nodes — scattered
/// global numbers — so its "local portion" of the node dataset is many
/// small runs at scattered file positions, each its own seek+write.
/// SDM's win in Figure 7 is precisely turning this into one collective
/// reordered write.
pub fn run_original(comm: &mut Comm, pfs: &Arc<Pfs>, w: &RtWorkload) -> SdmResult<PhaseReport> {
    let total_nodes = w.mesh.num_nodes() as u64;
    let total_tris = w.mesh.num_cells() as u64;
    let mut report = PhaseReport::new();

    // The same partitioned node ownership SDM gets from the partitioning
    // vector, coalesced into maximal contiguous runs of global numbers.
    let me = comm.rank() as u32;
    let owned: Vec<u64> = w
        .partitioning_vector
        .iter()
        .enumerate()
        .filter(|&(_, &p)| p == me)
        .map(|(n, _)| n as u64)
        .collect();
    let mut node_runs: Vec<(u64, Vec<f64>)> = Vec::new(); // (start elem, values at t=0 placeholder)
                                                          // Run boundaries depend only on ownership; values are per-step.
    let mut run_bounds: Vec<(u64, u64)> = Vec::new(); // (start, len)
    for &n in &owned {
        match run_bounds.last_mut() {
            Some((s, l)) if *s + *l == n => *l += 1,
            _ => run_bounds.push((n, 1)),
        }
    }
    // Triangles are written contiguously by rank blocks in both versions.
    let size = comm.size() as u64;
    let tchunk = total_tris.div_ceil(size);
    let (tlo, thi) = (
        (me as u64 * tchunk).min(total_tris),
        ((me as u64 + 1) * tchunk).min(total_tris),
    );

    comm.barrier();
    for t in 0..w.timesteps {
        node_runs.clear();
        for &(start, len) in &run_bounds {
            let vals: Vec<f64> = (start..start + len)
                .map(|n| node_value(n as u32, t))
                .collect();
            node_runs.push((start, vals));
        }
        let tri_vals: Vec<f64> = (tlo..thi).map(|k| tri_value(k, t)).collect();
        let dt = crate::original::serialized_write_runs(
            comm,
            pfs,
            &format!("rt_orig.t{t}.dat"),
            &node_runs,
            &tri_vals,
            tlo,
            total_nodes * 8,
        )?;
        report.add("write", dt);
    }
    report.add_bytes("write", w.total_bytes());
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdm_mpi::World;
    use sdm_sim::MachineConfig;

    fn run(org: OrgLevel, n: usize) -> (Arc<Pfs>, Vec<PhaseReport>) {
        let w = RtWorkload::new(300, n, 5);
        let pfs = Pfs::new(MachineConfig::test_tiny());
        let store = sdm_core::store::in_memory();
        let out = World::run(n, MachineConfig::test_tiny(), {
            let (pfs, store, w) = (Arc::clone(&pfs), Arc::clone(&store), w.clone());
            move |c| run_sdm(c, &pfs, &store, &w, org).unwrap()
        });
        (pfs, out)
    }

    #[test]
    fn level1_creates_more_files_than_level3() {
        let (pfs1, _) = run(OrgLevel::Level1, 2);
        let files1 = pfs1.list().len();
        let (pfs3, _) = run(OrgLevel::Level3, 2);
        let files3 = pfs3.list().len();
        // 2 datasets x 5 steps vs 1 group file.
        assert_eq!(files1, 10);
        assert_eq!(files3, 1);
        assert!(files1 > files3);
    }

    #[test]
    fn node_data_lands_at_global_positions() {
        let n = 3;
        let w = RtWorkload::new(300, n, 5);
        let (pfs, _) = run(OrgLevel::Level1, n);
        // Step 2's node file holds node_value(node, 2) at position node.
        let name = OrgLevel::Level1.file_name("rt", 0, "node_data", 2);
        let (f, _) = pfs.open(&name, 0.0).unwrap();
        let mut vals = vec![0.0f64; w.mesh.num_nodes()];
        pfs.read_exact_at(&f, 0, sdm_mpi::pod::as_bytes_mut(&mut vals), 0.0)
            .unwrap();
        for (node, &v) in vals.iter().enumerate() {
            assert_eq!(v, node_value(node as u32, 2), "node {node}");
        }
    }

    #[test]
    fn original_produces_identical_bytes() {
        let n = 2;
        let w = RtWorkload::new(200, n, 1);
        let pfs = Pfs::new(MachineConfig::test_tiny());
        World::run(n, MachineConfig::test_tiny(), {
            let (pfs, w) = (Arc::clone(&pfs), w.clone());
            move |c| run_original(c, &pfs, &w).unwrap()
        });
        let (f, _) = pfs.open("rt_orig.t0.dat", 0.0).unwrap();
        let mut vals = vec![0.0f64; w.mesh.num_nodes()];
        pfs.read_exact_at(&f, 0, sdm_mpi::pod::as_bytes_mut(&mut vals), 0.0)
            .unwrap();
        for (node, &v) in vals.iter().enumerate() {
            assert_eq!(v, node_value(node as u32, 0));
        }
        let mut tris = vec![0.0f64; w.mesh.num_cells()];
        pfs.read_exact_at(
            &f,
            w.mesh.num_nodes() as u64 * 8,
            sdm_mpi::pod::as_bytes_mut(&mut tris),
            0.0,
        )
        .unwrap();
        for (k, &v) in tris.iter().enumerate() {
            assert_eq!(v, tri_value(k as u64, 0));
        }
    }

    #[test]
    fn sdm_write_beats_original_on_origin2000() {
        let n = 4;
        let w = RtWorkload::new(20_000, n, 5);
        let cfg = MachineConfig::origin2000();
        let pfs = Pfs::new(cfg.clone());
        let store = sdm_core::store::in_memory();
        let sdm_t = World::run(n, cfg.clone(), {
            let (pfs, store, w) = (Arc::clone(&pfs), Arc::clone(&store), w.clone());
            move |c| {
                run_sdm(c, &pfs, &store, &w, OrgLevel::Level2)
                    .unwrap()
                    .get("write")
            }
        })
        .into_iter()
        .fold(0.0f64, f64::max);
        let pfs2 = Pfs::new(cfg.clone());
        let orig_t = World::run(n, cfg, {
            let (pfs2, w) = (Arc::clone(&pfs2), w.clone());
            move |c| run_original(c, &pfs2, &w).unwrap().get("write")
        })
        .into_iter()
        .fold(0.0f64, f64::max);
        assert!(
            sdm_t < orig_t,
            "SDM collective writes ({sdm_t}s) must beat serialized writes ({orig_t}s)"
        );
    }
}
