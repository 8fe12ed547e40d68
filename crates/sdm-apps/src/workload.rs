//! Workload descriptions scaled from the paper.

use std::sync::Arc;

use sdm_mesh::gen::{rt_interface_mesh, tet_box};
use sdm_mesh::{CsrGraph, Uns3dLayout, UnstructuredMesh};
use sdm_partition::{partition, Method, PartitionVector};
use sdm_pfs::{Pfs, PfsResult};

/// The FUN3D benchmark workload.
///
/// Paper scale: ~18M edges, ~2.2M nodes, 807 MB imported (2 index
/// arrays, 4 edge data arrays, 4 node data arrays), results of 4 × 21 MB
/// plus one 105 MB dataset per checkpoint, 64 processors, 2 time steps.
#[derive(Debug, Clone)]
pub struct Fun3dWorkload {
    /// The synthetic mesh.
    pub mesh: Arc<UnstructuredMesh>,
    /// Import-file layout (4 edge + 4 node arrays, FUN3D shape).
    pub layout: Uns3dLayout,
    /// The replicated partitioning vector ("generated from MeTis").
    pub partitioning_vector: Arc<PartitionVector>,
    /// Time steps to run.
    pub timesteps: usize,
    /// Name of the mesh file in the PFS.
    pub mesh_file: String,
}

impl Fun3dWorkload {
    /// Build a workload with roughly `target_nodes` mesh nodes for
    /// `nprocs` ranks. The paper's full size is `target_nodes ≈ 2.2M`;
    /// the default harness scale is 1/32 of that.
    pub fn new(target_nodes: usize, nprocs: usize, seed: u64) -> Self {
        let (nx, ny, nz) = sdm_mesh::gen::tet::dims_for_nodes(target_nodes);
        let mesh = tet_box(nx, ny, nz, 0.25, seed);
        let graph = CsrGraph::from_edges(mesh.num_nodes(), &mesh.edges);
        let pv = partition(&graph, Some(&mesh.coords), nprocs, Method::Multilevel, seed);
        let layout = Uns3dLayout::fun3d(mesh.num_edges() as u64, mesh.num_nodes() as u64);
        Self {
            mesh: Arc::new(mesh),
            layout,
            partitioning_vector: Arc::new(pv),
            timesteps: 2,
            mesh_file: "uns3d.msh".to_string(),
        }
    }

    /// Total bytes the import phase moves: 591,515,600 at scale 1
    /// (2,197,000 nodes), not the paper's 807 MB, because `tet_box` gives
    /// 5.93 edges per node where the paper's mesh has 8.2.
    pub fn import_bytes(&self) -> u64 {
        self.layout.file_len()
    }

    /// Bytes written per checkpoint: 4 node datasets + 1 large dataset
    /// (modeled as 5× the node data, matching the paper's 4 × 21 MB +
    /// 105 MB ≈ 5 : 1 : 1 : 1 : 1 ratio).
    pub fn checkpoint_bytes(&self) -> u64 {
        let node_ds = self.mesh.num_nodes() as u64 * 8;
        4 * node_ds + 5 * node_ds
    }

    /// Stage the mesh file into the PFS (untimed test-fixture setup; the
    /// paper's mesh pre-existed on disk).
    pub fn stage(&self, pfs: &Arc<Pfs>) -> PfsResult<()> {
        let img = self.layout.build_image(&self.mesh);
        let (f, _) = pfs.open_or_create(&self.mesh_file, 0.0)?;
        pfs.write_at(&f, 0, &img, 0.0)?;
        pfs.reset_timing();
        Ok(())
    }
}

/// The Rayleigh-Taylor benchmark workload.
///
/// Paper scale: ~36 MB node dataset + ~74 MB triangle dataset per step,
/// 5 steps, ~550 MB total, run at 32 and 64 processors.
#[derive(Debug, Clone)]
pub struct RtWorkload {
    /// The interface mesh.
    pub mesh: Arc<UnstructuredMesh>,
    /// The replicated node partitioning vector.
    pub partitioning_vector: Arc<PartitionVector>,
    /// Time steps (paper: 5).
    pub timesteps: usize,
}

impl RtWorkload {
    /// Build an RT workload with roughly `target_nodes` mesh nodes.
    /// Paper scale is ~4.5M nodes (36 MB of f64 per step).
    pub fn new(target_nodes: usize, nprocs: usize, seed: u64) -> Self {
        let side = (target_nodes as f64).sqrt().ceil().max(3.0) as usize;
        let mesh = rt_interface_mesh(side, side, 0.35, 4);
        let graph = CsrGraph::from_edges(mesh.num_nodes(), &mesh.edges);
        let pv = partition(&graph, Some(&mesh.coords), nprocs, Method::Multilevel, seed);
        Self {
            mesh: Arc::new(mesh),
            partitioning_vector: Arc::new(pv),
            timesteps: 5,
        }
    }

    /// Bytes written per step (node + triangle datasets).
    pub fn step_bytes(&self) -> u64 {
        (self.mesh.num_nodes() as u64 + self.mesh.num_cells() as u64) * 8
    }

    /// Total bytes over all steps (paper: ~550 MB).
    pub fn total_bytes(&self) -> u64 {
        self.step_bytes() * self.timesteps as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdm_sim::MachineConfig;

    #[test]
    fn fun3d_workload_scales() {
        let w = Fun3dWorkload::new(600, 4, 1);
        assert!(w.mesh.num_nodes() >= 300);
        assert!(w.mesh.num_edges() > w.mesh.num_nodes());
        assert_eq!(w.partitioning_vector.len(), w.mesh.num_nodes());
        // Import dominated by the 4+4 f64 arrays.
        assert!(w.import_bytes() > w.mesh.num_edges() as u64 * 8 * 4);
    }

    #[test]
    fn fun3d_ratio_matches_paper() {
        // At paper scale the import is ~807 MB for 18M edges; check the
        // formula reproduces that within ~15%.
        let layout = Uns3dLayout::fun3d(18_000_000, 2_200_000);
        let gb = layout.file_len() as f64 / 1e6;
        assert!(
            (650.0..950.0).contains(&gb),
            "paper-scale import = {gb} MB, expected ~807"
        );
        // The generator's mesh at scale 1 is sparser: a 130³ grid with
        // 13,030,290 edges imports 591,515,600 bytes.
        let dims = sdm_mesh::gen::tet::dims_for_nodes(2_200_000);
        assert_eq!(dims, (130, 130, 130));
        let scale1 = Uns3dLayout::fun3d(13_030_290, 2_197_000);
        assert_eq!(scale1.file_len(), 591_515_600);
    }

    #[test]
    fn rt_workload_ratio() {
        let w = RtWorkload::new(2_000, 4, 2);
        // Paper: triangle bytes ≈ 2× node bytes.
        let nodes = w.mesh.num_nodes() as f64;
        let tris = w.mesh.num_cells() as f64;
        assert!((1.5..2.5).contains(&(tris / nodes)));
        assert_eq!(w.timesteps, 5);
        assert_eq!(w.total_bytes(), w.step_bytes() * 5);
    }

    #[test]
    fn staging_writes_mesh_file() {
        let w = Fun3dWorkload::new(200, 2, 3);
        let pfs = Pfs::new(MachineConfig::test_tiny());
        w.stage(&pfs).unwrap();
        assert_eq!(pfs.file_len("uns3d.msh").unwrap(), w.layout.file_len());
        // Staging must not pollute the timing counters.
        assert_eq!(pfs.counters().get("pfs.write_bytes"), 0);
    }
}
