//! `rt_write` and `rt_restart_read`: the Rayleigh-Taylor template at 1/8
//! of the paper's node count, 40 timesteps so that the total matches the
//! paper's ~550 MB, written through Level 3 and read back by a later job.

use std::sync::Arc;
use std::time::Instant;

use sdm_apps::rt::{self, node_value, tri_value};
use sdm_apps::{PhaseReport, RtWorkload};
use sdm_core::{CachedStore, OrgLevel, Sdm, SdmConfig, SdmResult, SharedStore};
use sdm_mesh::gen::rt_interface_mesh;
use sdm_mesh::CsrGraph;
use sdm_metadb::Database;
use sdm_mpi::Comm;
use sdm_partition::{partition, Method};
use sdm_pfs::Pfs;

use crate::micro::MicroInput;
use crate::timed_store::TimedStore;
use crate::trace::{self, span};
use crate::workload::{
    pfs_result_bytes, read_stored, run_world, Env, RankNote, Rep, SetupTimes, Workload,
};

const APP: &str = "rt";
const ORG: OrgLevel = OrgLevel::Level3;
const TIMESTEPS: usize = 40;

pub struct Rt {
    w: RtWorkload,
    /// `rt_restart_read` only: what the writing run left, and its run id.
    written: Option<(Arc<Pfs>, Arc<Database>, i64)>,
}

pub fn setup(env: &Env, restart_read: bool) -> (Rt, SetupTimes) {
    let t_all = Instant::now();
    let mut times = SetupTimes::default();

    // The body of `RtWorkload::new`, timed in parts.
    let t = Instant::now();
    let side = (env.rt_nodes() as f64).sqrt().ceil().max(3.0) as usize;
    let mesh = rt_interface_mesh(side, side, 0.35, 4);
    let graph = CsrGraph::from_edges(mesh.num_nodes(), &mesh.edges);
    times.mesh_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let pv = partition(
        &graph,
        Some(&mesh.coords),
        env.ranks,
        Method::Multilevel,
        env.seed,
    );
    times.partition_s = t.elapsed().as_secs_f64();
    drop(graph);

    let mut this = Rt {
        w: RtWorkload {
            mesh: Arc::new(mesh),
            partitioning_vector: Arc::new(pv),
            timesteps: env.steps(TIMESTEPS),
        },
        written: None,
    };
    if restart_read {
        // Staging here is the job that wrote the data: one `rt_write`
        // repetition whose PFS and database are kept.
        let t = Instant::now();
        let (pfs, db) = (Pfs::new(env.machine.clone()), Arc::new(Database::new()));
        let rep = this.write(env, false, &pfs, &db);
        assert!(
            rep.problems.is_empty(),
            "writing run failed: {:?}",
            rep.problems
        );
        let runid = CachedStore::shared(&db)
            .latest_runid_for_app(APP)
            .expect("metadata readable")
            .expect("the writing run recorded itself");
        this.written = Some((pfs, db, runid));
        times.stage_s = t.elapsed().as_secs_f64();
    }
    times.total_s = t_all.elapsed().as_secs_f64();
    (this, times)
}

impl Rt {
    fn sizes(&self) -> (u64, u64) {
        (
            self.w.mesh.num_nodes() as u64,
            self.w.mesh.num_cells() as u64,
        )
    }

    fn write(&self, env: &Env, traced: bool, pfs: &Arc<Pfs>, db: &Arc<Database>) -> Rep {
        let store = CachedStore::shared(db);
        // initialize, build, 2 handles, 2 views, per step 2 writes +
        // commit, 1 read, finalize
        let ops = 1 + 1 + 2 + 2 + self.w.timesteps as u64 * 3 + 1 + 1;
        let mut rep = if traced {
            let store = TimedStore::shared(store);
            run_world(env, true, pfs, db, ops, |comm| {
                mirror_run_sdm(comm, pfs, &store, &self.w)
            })
        } else {
            run_world(env, false, pfs, db, ops, |comm| {
                let report = rt::run_sdm(comm, pfs, &store, &self.w, ORG)?;
                Ok((report, RankNote::default()))
            })
        };
        rep.stored_bytes = pfs_result_bytes(pfs, &[]) + db.wal_appended_bytes();
        self.verify_stored(pfs, &mut rep);
        rep
    }

    /// Every global position of both datasets at every step, straight
    /// from the group file. One check per dataset per timestep.
    fn verify_stored(&self, pfs: &Pfs, rep: &mut Rep) {
        let (nodes, tris) = self.sizes();
        let file = ORG.file_name(APP, 0, "", 0);
        let mut node_buf = vec![0.0f64; nodes as usize];
        let mut tri_buf = vec![0.0f64; tris as usize];
        for t in 0..self.w.timesteps {
            // Level 3 appends each step's regions in staging order.
            let base = t as u64 * (nodes + tris) * 8;
            let ok = read_stored(pfs, &file, base, &mut node_buf).map(|()| {
                node_buf
                    .iter()
                    .enumerate()
                    .all(|(n, &v)| v == node_value(n as u32, t))
            });
            rep.check(ok == Ok(true), || {
                format!("{file} node_data step {t}: {ok:?}")
            });
            let ok = read_stored(pfs, &file, base + nodes * 8, &mut tri_buf).map(|()| {
                tri_buf
                    .iter()
                    .enumerate()
                    .all(|(k, &v)| v == tri_value(k as u64, t))
            });
            rep.check(ok == Ok(true), || {
                format!("{file} tri_data step {t}: {ok:?}")
            });
        }
    }

    fn restart_read(
        &self,
        env: &Env,
        traced: bool,
        pfs: &Arc<Pfs>,
        db: &Arc<Database>,
        runid: i64,
    ) -> Rep {
        // A later job: idle servers, a cold cache over the same database.
        pfs.reset_timing();
        db.reset_stats();
        let store = CachedStore::shared(db);
        let store = if traced {
            TimedStore::shared(store)
        } else {
            store
        };
        // attach, group attach, 2 handles, 2 views, per step 2 reads,
        // finalize
        let ops = 1 + 1 + 2 + 2 + self.w.timesteps as u64 * 2 + 1;
        let mut rep = run_world(env, traced, pfs, db, ops, |comm| {
            restart_read_driver(comm, pfs, &store, &self.w, runid)
        });
        // Nothing new is stored by a reader; what it reads is what the
        // writing run left.
        rep.stored_bytes = pfs_result_bytes(pfs, &[]) + db.wal_appended_bytes();
        rep
    }
}

impl Workload for Rt {
    fn rep(&self, env: &Env, traced: bool) -> Rep {
        match &self.written {
            Some((pfs, db, runid)) => self.restart_read(env, traced, pfs, db, *runid),
            None => {
                let (pfs, db) = (Pfs::new(env.machine.clone()), Arc::new(Database::new()));
                self.write(env, traced, &pfs, &db)
            }
        }
    }

    fn micro_input(&self, env: &Env) -> MicroInput {
        MicroInput {
            maps: (0..env.ranks as u32)
                .map(|r| owned_nodes(&self.w, r))
                .collect(),
            global: self.sizes().0,
        }
    }
}

fn owned_nodes(w: &RtWorkload, rank: u32) -> Vec<u64> {
    w.partitioning_vector
        .iter()
        .enumerate()
        .filter(|&(_, &p)| p == rank)
        .map(|(n, _)| n as u64)
        .collect()
}

/// This rank's contiguous block of the triangle dataset.
fn tri_block(total_tris: u64, comm: &Comm) -> Vec<u64> {
    let chunk = total_tris.div_ceil(comm.size() as u64);
    let me = comm.rank() as u64;
    ((me * chunk).min(total_tris)..((me + 1) * chunk).min(total_tris)).collect()
}

/// The mirror driver: `sdm_apps::rt::run_sdm` call for call, with a span
/// around each call into `sdm-core`.
fn mirror_run_sdm(
    comm: &mut Comm,
    pfs: &Arc<Pfs>,
    store: &SharedStore,
    w: &RtWorkload,
) -> SdmResult<(PhaseReport, RankNote)> {
    let total_nodes = w.mesh.num_nodes() as u64;
    let total_tris = w.mesh.num_cells() as u64;
    let mut report = PhaseReport::new();

    let cfg = SdmConfig {
        org: ORG,
        ..SdmConfig::default()
    };
    let mut sdm = span("core.init", comm, |c| {
        Sdm::initialize_with(c, pfs, store, APP, cfg)
    })?;
    let reg = span("core.group", comm, |c| {
        sdm.group(c)
            .dataset::<f64>("node_data", total_nodes)
            .dataset::<f64>("tri_data", total_tris)
            .build()
    })?;
    let node_h = reg.handle::<f64>("node_data")?;
    let tri_h = reg.handle::<f64>("tri_data")?;

    let owned = owned_nodes(w, comm.rank() as u32);
    span("core.set_view", comm, |c| sdm.set_view(c, node_h, &owned))?;
    let tri_map = tri_block(total_tris, comm);
    span("core.set_view", comm, |c| sdm.set_view(c, tri_h, &tri_map))?;

    comm.barrier();
    for t in 0..w.timesteps {
        let node_vals: Vec<f64> = owned.iter().map(|&n| node_value(n as u32, t)).collect();
        let tri_vals: Vec<f64> = tri_map.iter().map(|&k| tri_value(k, t)).collect();
        let t0 = comm.now();
        let mut step = sdm.timestep(comm, t as i64);
        // Staging permutes into file order; it costs no simulated time.
        let token = trace::begin("core.step_write", Some(t0));
        step.write(node_h, &node_vals)?;
        step.write(tri_h, &tri_vals)?;
        trace::end(token, Some(t0));
        let token = trace::begin("core.step_commit", Some(t0));
        step.commit()?;
        trace::end(token, Some(comm.now()));
        report.add("write", comm.now() - t0);
    }
    report.add_bytes("write", w.total_bytes());

    let t0 = comm.now();
    let mut node_back = vec![0.0f64; owned.len()];
    span("core.read", comm, |c| {
        sdm.read_handle(c, node_h, (w.timesteps - 1) as i64, &mut node_back)
    })?;
    report.add("read", comm.now() - t0);

    span("core.finalize", comm, |c| sdm.finalize(c))?;
    Ok((report, RankNote::default()))
}

/// The restart reader (benchmark-owned, public `Sdm` API only): attach to
/// the writing run, re-attach its group, install the same views and read
/// every step of both datasets, checking each element as an application
/// consuming its restart data would touch it.
fn restart_read_driver(
    comm: &mut Comm,
    pfs: &Arc<Pfs>,
    store: &SharedStore,
    w: &RtWorkload,
    runid: i64,
) -> SdmResult<(PhaseReport, RankNote)> {
    let total_nodes = w.mesh.num_nodes() as u64;
    let total_tris = w.mesh.num_cells() as u64;
    let mut report = PhaseReport::new();
    let mut note = RankNote::default();

    let cfg = SdmConfig {
        org: ORG,
        ..SdmConfig::default()
    };
    let mut sdm = span("core.init", comm, |c| {
        Sdm::attach(c, pfs, store, APP, runid, cfg)
    })?;
    let reg = span("core.group", comm, |c| {
        sdm.group(c)
            .dataset::<f64>("node_data", total_nodes)
            .dataset::<f64>("tri_data", total_tris)
            .attach()
    })?;
    let node_h = reg.handle::<f64>("node_data")?;
    let tri_h = reg.handle::<f64>("tri_data")?;

    let owned = owned_nodes(w, comm.rank() as u32);
    span("core.set_view", comm, |c| sdm.set_view(c, node_h, &owned))?;
    let tri_map = tri_block(total_tris, comm);
    span("core.set_view", comm, |c| sdm.set_view(c, tri_h, &tri_map))?;

    comm.barrier();
    let t0 = comm.now();
    let mut node_back = vec![0.0f64; owned.len()];
    let mut tri_back = vec![0.0f64; tri_map.len()];
    for t in 0..w.timesteps {
        span("core.read", comm, |c| {
            sdm.read_handle(c, node_h, t as i64, &mut node_back)
        })?;
        span("core.read", comm, |c| {
            sdm.read_handle(c, tri_h, t as i64, &mut tri_back)
        })?;
        note.checks += 2;
        let nodes_ok = owned
            .iter()
            .zip(&node_back)
            .all(|(&n, &v)| v == node_value(n as u32, t));
        let tris_ok = tri_map
            .iter()
            .zip(&tri_back)
            .all(|(&k, &v)| v == tri_value(k, t));
        for (ok, ds) in [(nodes_ok, "node_data"), (tris_ok, "tri_data")] {
            if !ok {
                note.problems.push(format!(
                    "rank {}: {ds} step {t} read back wrong",
                    comm.rank()
                ));
            }
        }
    }
    report.add("read", comm.now() - t0);
    report.add_bytes("read", w.total_bytes());

    span("core.finalize", comm, |c| sdm.finalize(c))?;
    Ok((report, note))
}
