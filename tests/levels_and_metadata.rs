//! Integration: the three file organizations store byte-identical data
//! at the offsets the `execution_table` records; reads work across
//! organizations and timesteps; RT data round-trips.

use std::sync::Arc;

use sdm::apps::rt::{node_value, run_sdm as rt_run, tri_value};
use sdm::apps::RtWorkload;
use sdm::core::{store, OrgLevel, Sdm, SdmConfig, SharedStore};
use sdm::mpi::World;
use sdm::pfs::Pfs;
use sdm::sim::MachineConfig;

/// Where the latest run of `app` wrote (dataset, timestep), as the
/// `execution_table` records it.
fn landed(store: &SharedStore, app: &str, dataset: &str, timestep: i64) -> (u64, String) {
    let runid = store.latest_runid_for_app(app).unwrap().unwrap();
    let (offset, file) = store
        .lookup_execution(runid, dataset, timestep)
        .unwrap()
        .unwrap();
    (offset as u64, file)
}

#[test]
fn execution_table_offsets_are_authoritative() {
    // Write 3 timesteps of 2 datasets under Level 3 (everything in one
    // file); then recover every value going only through the metadata.
    let nprocs = 2;
    let global = 64u64;
    let pfs = Pfs::new(MachineConfig::test_tiny());
    let store = store::in_memory();
    World::run(nprocs, MachineConfig::test_tiny(), {
        let (pfs, store) = (Arc::clone(&pfs), Arc::clone(&store));
        move |c| {
            let cfg = SdmConfig {
                org: OrgLevel::Level3,
                ..Default::default()
            };
            let mut sdm = Sdm::initialize_with(c, &pfs, &store, "mt", cfg).unwrap();
            let g = sdm
                .group(c)
                .dataset::<f64>("a", global)
                .dataset::<f64>("b", global)
                .build()
                .unwrap();
            let (ha, hb) = (g.handle::<f64>("a").unwrap(), g.handle::<f64>("b").unwrap());
            let mine: Vec<u64> = (c.rank() as u64..global).step_by(c.size()).collect();
            sdm.set_view(c, ha, &mine).unwrap();
            sdm.set_view(c, hb, &mine).unwrap();
            for t in 0..3i64 {
                let va: Vec<f64> = mine.iter().map(|&g| g as f64 + t as f64 * 100.0).collect();
                let vb: Vec<f64> = mine.iter().map(|&g| -(g as f64) - t as f64).collect();
                let mut step = sdm.timestep(c, t);
                step.write(ha, &va).unwrap();
                step.write(hb, &vb).unwrap();
                step.commit().unwrap();
            }
            sdm.finalize(c).unwrap();
        }
    });

    // 6 execution rows, all in one file.
    assert_eq!(store.execution_history("mt").unwrap().len(), 6);
    let (_, file) = landed(&store, "mt", "a", 0);
    let (f, _) = pfs.open(&file, 0.0).unwrap();
    for (ds, t) in ["a", "b"]
        .into_iter()
        .flat_map(|ds| (0..3i64).map(move |t| (ds, t)))
    {
        let (off, in_file) = landed(&store, "mt", ds, t);
        assert_eq!(in_file, file, "level 3: one file");
        let mut vals = vec![0.0f64; global as usize];
        pfs.read_exact_at(&f, off, sdm::mpi::pod::as_bytes_mut(&mut vals), 0.0)
            .unwrap();
        for (g, &v) in vals.iter().enumerate() {
            let want = if ds == "a" {
                g as f64 + t as f64 * 100.0
            } else {
                -(g as f64) - t as f64
            };
            assert_eq!(v, want, "ds={ds} t={t} g={g}");
        }
    }
}

#[test]
fn rt_bytes_identical_across_levels() {
    let nprocs = 3;
    let w = RtWorkload::new(250, nprocs, 9);
    let mut images: Vec<Vec<u8>> = Vec::new();
    for org in OrgLevel::all() {
        let pfs = Pfs::new(MachineConfig::test_tiny());
        let store = store::in_memory();
        World::run(nprocs, MachineConfig::test_tiny(), {
            let (pfs, store, w) = (Arc::clone(&pfs), Arc::clone(&store), w.clone());
            move |c| {
                rt_run(c, &pfs, &store, &w, org).unwrap();
            }
        });
        // Reconstruct the node dataset at step 4 via the metadata.
        let (off, name) = landed(&store, "rt", "node_data", 4);
        let (f, _) = pfs.open(&name, 0.0).unwrap();
        let mut img = vec![0u8; w.mesh.num_nodes() * 8];
        pfs.read_exact_at(&f, off, &mut img, 0.0).unwrap();
        images.push(img);
    }
    assert_eq!(images[0], images[1], "level 1 vs 2");
    assert_eq!(images[1], images[2], "level 2 vs 3");
}

#[test]
fn rt_values_match_generators() {
    let nprocs = 2;
    let w = RtWorkload::new(200, nprocs, 3);
    let pfs = Pfs::new(MachineConfig::test_tiny());
    let store = store::in_memory();
    World::run(nprocs, MachineConfig::test_tiny(), {
        let (pfs, store, w) = (Arc::clone(&pfs), Arc::clone(&store), w.clone());
        move |c| {
            rt_run(c, &pfs, &store, &w, OrgLevel::Level2).unwrap();
        }
    });
    for t in [0usize, 4] {
        type ValueFn = fn(u64, usize) -> f64;
        let cases: [(&str, usize, ValueFn); 2] = [
            ("node_data", w.mesh.num_nodes(), |g, t| {
                node_value(g as u32, t)
            }),
            ("tri_data", w.mesh.num_cells(), tri_value),
        ];
        for (ds, n, value) in cases {
            let (off, name) = landed(&store, "rt", ds, t as i64);
            let (f, _) = pfs.open(&name, 0.0).unwrap();
            let mut vals = vec![0.0f64; n];
            pfs.read_exact_at(&f, off, sdm::mpi::pod::as_bytes_mut(&mut vals), 0.0)
                .unwrap();
            for (g, &v) in vals.iter().enumerate() {
                assert_eq!(v, value(g as u64, t), "{ds} t={t} g={g}");
            }
        }
    }
}
