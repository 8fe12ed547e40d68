//! Ablation A3: single-pass doubling-buffer import vs the original
//! two-pass count-then-read edge scan. The paper: SDM "extends the
//! allocated memory dynamically as needed (using C function realloc) and
//! is therefore able to read the partitioned edges in a single step.
//! This contributes to the reduced cost of index distri."

use std::sync::Arc;

use sdm_apps::original::fun3d_original_import;
use sdm_apps::{Fun3dWorkload, PhaseReport};
use sdm_bench::{print_header, HarnessArgs};
use sdm_core::{store, Sdm, SdmConfig};
use sdm_mpi::World;
use sdm_pfs::Pfs;
use sdm_sim::MachineConfig;

fn main() {
    let args = HarnessArgs::from_env();
    let cfg = MachineConfig::origin2000();
    let procs = args.procs.unwrap_or(16);
    let w = Fun3dWorkload::new(args.fun3d_nodes(), procs, args.seed);
    print_header(
        "Ablation A3: doubling buffer (1 pass) vs count-then-read (2 passes)",
        &cfg,
        &format!("procs={procs} edges={}", w.mesh.num_edges()),
    );

    // Two-pass baseline: take the original import's index-distribution
    // phase (it scans the broadcast edge list twice).
    let pfs = Pfs::new(cfg.clone());
    w.stage(&pfs).unwrap();
    let orig = PhaseReport::reduce_max(&World::run(procs, cfg.clone(), {
        let (pfs, w) = (Arc::clone(&pfs), w.clone());
        move |c| fun3d_original_import(c, &pfs, &w).unwrap().0
    }));

    // Single-pass: SDM's ring distribution with the doubling buffer.
    let pfs = Pfs::new(cfg.clone());
    let store = store::in_memory();
    w.stage(&pfs).unwrap();
    let sdm = PhaseReport::reduce_max(&World::run(procs, cfg.clone(), {
        let (pfs, store, w) = (Arc::clone(&pfs), Arc::clone(&store), w.clone());
        move |c| {
            let mut report = PhaseReport::new();
            let mut s = Sdm::initialize_with(c, &pfs, &store, "a3", SdmConfig::default()).unwrap();
            let h = s
                .group(c)
                .dataset::<f64>("d", w.mesh.num_nodes() as u64)
                .build()
                .unwrap()
                .group();
            s.make_importlist(
                c,
                h,
                vec![
                    sdm_core::ImportDesc::index("edge1", &w.mesh_file),
                    sdm_core::ImportDesc::index("edge2", &w.mesh_file),
                ],
            )
            .unwrap();
            let total = w.mesh.num_edges() as u64;
            let (start, e1) = s
                .import_contiguous::<i32>(c, h, "edge1", w.layout.edge1_offset(), total)
                .unwrap();
            let (_, e2) = s
                .import_contiguous::<i32>(c, h, "edge2", w.layout.edge2_offset(), total)
                .unwrap();
            let t0 = c.now();
            s.partition_index_fresh(c, &w.partitioning_vector, start, &e1, &e2)
                .unwrap();
            report.add("index-distribution", c.now() - t0);
            report
        }
    }));

    let two_pass = orig.get("index-distribution");
    let one_pass = sdm.get("index-distribution");
    println!();
    println!("two-pass (original):      {two_pass:.3}s");
    println!("one-pass (SDM doubling):  {one_pass:.3}s");
    println!("speedup: {:.2}x", two_pass / one_pass);
    assert!(
        one_pass < two_pass,
        "single-pass distribution ({one_pass}s) must beat the two-pass scan ({two_pass}s)"
    );
    println!("PASS");
}
