//! `fun3d_fresh` and `fun3d_history`: the FUN3D template at 1/8 of the
//! paper's size, without and with the index-distribution history
//! (Figure 5's two SDM bars; Figure 6's bandwidths).

use std::sync::Arc;
use std::time::Instant;

use sdm_apps::fun3d::{self, Fun3dOptions, BIG_DATASET, RESULT_DATASETS};
use sdm_apps::{Fun3dWorkload, PhaseReport};
use sdm_core::dataset::ImportDesc;
use sdm_core::{
    CachedStore, DatasetHandle, OrgLevel, PartitionedIndex, Sdm, SdmConfig, SdmResult, SharedStore,
};
use sdm_mesh::gen::tet::{dims_for_nodes, tet_box};
use sdm_mesh::{CsrGraph, Uns3dLayout};
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

const APP: &str = "fun3d";
const ORG: OrgLevel = OrgLevel::Level2;
const TIMESTEPS: usize = 2;

pub struct Fun3d {
    w: Fun3dWorkload,
    /// The staged mesh file, built once and copied into each fresh PFS.
    image: Vec<u8>,
    /// `edge_sweep_reference` per timestep, over the whole mesh.
    expected: Vec<Vec<f64>>,
    /// Owned-node, edge and ghost counts of `partition_index_reference`
    /// per rank, and (for the traced replay check) the indices themselves.
    reference: Vec<PartitionedIndex>,
    /// `fun3d_history` only: the PFS and database the registering run left.
    registered: Option<(Arc<Pfs>, Arc<Database>)>,
    /// `fun3d_history` only: `sim_startup_s` of the registering (fresh) run.
    fresh_startup_s: f64,
}

pub fn setup(env: &Env, history: bool) -> (Fun3d, SetupTimes) {
    let t_all = Instant::now();
    let mut times = SetupTimes::default();

    // The body of `Fun3dWorkload::new`, taken apart so that mesh
    // generation and partitioning are timed separately.
    let t = Instant::now();
    let (nx, ny, nz) = dims_for_nodes(env.fun3d_nodes());
    let mesh = tet_box(nx, ny, nz, 0.25, env.seed);
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

    let layout = Uns3dLayout::fun3d(mesh.num_edges() as u64, mesh.num_nodes() as u64);
    let w = Fun3dWorkload {
        mesh: Arc::new(mesh),
        layout,
        partitioning_vector: Arc::new(pv),
        timesteps: env.steps(TIMESTEPS),
        mesh_file: "uns3d.msh".to_string(),
    };

    let t = Instant::now();
    let image = w.layout.build_image(&w.mesh);
    let pfs = Pfs::new(env.machine.clone());
    stage(&pfs, &w.mesh_file, &image);
    times.stage_s = t.elapsed().as_secs_f64();

    let mut this = Fun3d {
        w,
        image,
        expected: Vec::new(),
        reference: Vec::new(),
        registered: None,
        fresh_startup_s: 0.0,
    };
    if history {
        // The registering run is a `fun3d_fresh` repetition whose PFS and
        // database are kept.
        let db = Arc::new(Database::new());
        let rep = this.run(env, false, false, &pfs, &db);
        assert!(
            rep.problems.is_empty(),
            "registering run failed: {:?}",
            rep.problems
        );
        this.fresh_startup_s = rep.sim_startup_s();
        this.registered = Some((pfs, db));
    }
    times.total_s = t_all.elapsed().as_secs_f64();
    (this, times)
}

impl Fun3d {
    fn opts(&self, use_history: bool) -> Fun3dOptions {
        Fun3dOptions {
            org: ORG,
            use_history,
            register_history: true,
        }
    }

    /// `SdmResult`-returning calls one rank makes in `run_sdm`.
    fn ops_per_rank(&self, use_history: bool) -> u64 {
        let t = self.w.timesteps as u64;
        let n_imports = (self.w.layout.n_edge_arrays + self.w.layout.n_node_arrays) as u64;
        // initialize, group build, 5 handles, make_importlist
        let head = 1 + 1 + 5 + 1;
        // history replay | 2 contiguous imports + ring + registry
        let index = if use_history { 1 } else { 2 + 1 + 1 };
        // data imports, release, 5 views, per step 5 writes + commit and
        // 5 reads, finalize
        head + index + n_imports + 1 + 5 + t * 6 + t * 5 + 1
    }

    fn run(
        &self,
        env: &Env,
        traced: bool,
        use_history: bool,
        pfs: &Arc<Pfs>,
        db: &Arc<Database>,
    ) -> Rep {
        let store = CachedStore::shared(db);
        let opts = self.opts(use_history);
        let ops = self.ops_per_rank(use_history);
        let mut rep = if traced {
            let store = TimedStore::shared(store);
            run_world(env, true, pfs, db, ops, |comm| {
                mirror_run_sdm(comm, pfs, &store, &self.w, &opts, &self.reference)
            })
        } else {
            run_world(env, false, pfs, db, ops, |comm| {
                let r = fun3d::run_sdm(comm, pfs, &store, &self.w, &opts)?;
                let mut note = RankNote {
                    history_hit: r.history_hit,
                    ..RankNote::default()
                };
                if let Some(want) = self.reference.get(comm.rank()) {
                    note.checks += 1;
                    let want = (
                        want.edge_ids.len(),
                        want.owned_nodes.len(),
                        want.ghost_nodes.len(),
                    );
                    if r.partition != want {
                        note.problems.push(format!(
                            "rank {} partition sizes {:?}, reference {want:?}",
                            comm.rank(),
                            r.partition
                        ));
                    }
                }
                Ok((r.report, note))
            })
        };
        rep.stored_bytes = pfs_result_bytes(pfs, &[&self.w.mesh_file]) + db.wal_appended_bytes();
        if use_history {
            rep.check(rep.notes.iter().all(|n| n.history_hit), || {
                "history lookup missed on some rank".to_string()
            });
        }
        self.verify_outputs(pfs, &mut rep);
        rep
    }

    /// Every dataset of every checkpoint, straight from the PFS files:
    /// `p`..`s` against the sequential sweep, `res` against its 5-fold
    /// replication. One check per dataset per timestep.
    fn verify_outputs(&self, pfs: &Pfs, rep: &mut Rep) {
        let n = self.w.mesh.num_nodes();
        let mut small = vec![0.0f64; n];
        let mut big = vec![0.0f64; 5 * n];
        for (t, want) in self.expected.iter().enumerate() {
            let close = |got: f64, want: f64| (got - want).abs() <= 1e-6 * want.abs().max(1.0);
            for ds in RESULT_DATASETS {
                let file = ORG.file_name(APP, 0, ds, t as i64);
                let ok = read_stored(pfs, &file, (t * n * 8) as u64, &mut small)
                    .map(|()| small.iter().zip(want).all(|(&g, &w)| close(g, w)));
                rep.check(ok == Ok(true), || format!("{file} step {t}: {ok:?}"));
            }
            let file = ORG.file_name(APP, 0, BIG_DATASET, t as i64);
            let ok = read_stored(pfs, &file, (t * 5 * n * 8) as u64, &mut big)
                .map(|()| big.iter().enumerate().all(|(i, &g)| close(g, want[i / 5])));
            rep.check(ok == Ok(true), || format!("{file} step {t}: {ok:?}"));
        }
    }
}

impl Workload for Fun3d {
    fn prepare_checks(&mut self, env: &Env) {
        let (e1, e2) = self.w.mesh.indirection_arrays();
        self.expected = (0..self.w.timesteps)
            .map(|t| fun3d::edge_sweep_reference(&e1, &e2, self.w.mesh.num_nodes(), t))
            .collect();
        self.reference = (0..env.ranks as u32)
            .map(|r| Sdm::partition_index_reference(&self.w.partitioning_vector, &e1, &e2, r))
            .collect();
    }

    fn rep(&self, env: &Env, traced: bool) -> Rep {
        match &self.registered {
            // A later job re-attaching: fresh cache, same database, same
            // files, idle servers.
            Some((pfs, db)) => {
                pfs.reset_timing();
                db.reset_stats();
                self.run(env, traced, true, pfs, db)
            }
            None => {
                let pfs = Pfs::new(env.machine.clone());
                stage(&pfs, &self.w.mesh_file, &self.image);
                self.run(env, traced, false, &pfs, &Arc::new(Database::new()))
            }
        }
    }

    fn micro_input(&self, _env: &Env) -> MicroInput {
        MicroInput {
            maps: self
                .reference
                .iter()
                .map(|pi| pi.owned_nodes_u64())
                .collect(),
            global: self.w.mesh.num_nodes() as u64,
        }
    }

    fn run_checks(&self, reps: &[Rep]) -> Vec<String> {
        if self.registered.is_none() {
            return Vec::new();
        }
        // Figure 5's ordering at this size: replaying the history must
        // beat distributing the indices afresh.
        reps.iter()
            .map(Rep::sim_startup_s)
            .filter(|&s| s >= self.fresh_startup_s)
            .map(|s| {
                format!(
                    "sim_startup_s with history {s} is not below {} without",
                    self.fresh_startup_s
                )
            })
            .collect()
    }
}

/// `Fun3dWorkload::stage` with the image already built.
fn stage(pfs: &Arc<Pfs>, name: &str, image: &[u8]) {
    let (f, _) = pfs.open_or_create(name, 0.0).expect("stage mesh file");
    pfs.write_at(&f, 0, image, 0.0).expect("stage mesh bytes");
    pfs.reset_timing();
}

/// The mirror driver: `sdm_apps::fun3d::run_sdm` call for call, phase for
/// phase, with a span around each call into `sdm-core`. The drift check
/// of the traced run holds it to the original's byte and sync counts.
fn mirror_run_sdm(
    comm: &mut Comm,
    pfs: &Arc<Pfs>,
    store: &SharedStore,
    w: &Fun3dWorkload,
    opts: &Fun3dOptions,
    reference: &[PartitionedIndex],
) -> SdmResult<(PhaseReport, RankNote)> {
    let total_nodes = w.mesh.num_nodes() as u64;
    let total_edges = w.mesh.num_edges() as u64;
    let mut report = PhaseReport::new();
    let mut note = RankNote::default();

    let cfg = SdmConfig {
        org: opts.org,
        ..SdmConfig::default()
    };
    let mut sdm = span("core.init", comm, |c| {
        Sdm::initialize_with(c, pfs, store, APP, cfg)
    })?;

    let reg = span("core.group", comm, |c| {
        let mut b = sdm.group(c);
        for name in RESULT_DATASETS {
            b = b.dataset::<f64>(name, total_nodes);
        }
        b.dataset::<f64>(BIG_DATASET, 5 * total_nodes).build()
    })?;
    let h = reg.group();
    let small: Vec<DatasetHandle<f64>> = RESULT_DATASETS
        .iter()
        .map(|n| reg.handle::<f64>(n))
        .collect::<Result<_, _>>()?;
    let big_h: DatasetHandle<f64> = reg.handle(BIG_DATASET)?;

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
    span("core.make_importlist", comm, |c| {
        sdm.make_importlist(c, h, imports)
    })?;

    // ---- Index distribution (with optional history) + edge import ----
    comm.barrier();
    let read_bytes = || pfs.counters().get("pfs.read_bytes");
    let mut pi = None;
    if opts.use_history {
        let t0 = comm.now();
        pi = span("core.history_replay", comm, |c| {
            sdm.partition_index_from_history(c, total_edges)
        })?;
        report.add("index-distribution", comm.now() - t0);
        note.history_hit = pi.is_some();
    }
    let pi = match pi {
        Some(pi) => pi,
        None => {
            let (t0, r0) = (comm.now(), read_bytes());
            let (start_id, e1, e2) = span("core.import", comm, |c| {
                let (start_id, e1) = sdm.import_contiguous::<i32>(
                    c,
                    h,
                    "edge1",
                    w.layout.edge1_offset(),
                    total_edges,
                )?;
                let (_, e2) = sdm.import_contiguous::<i32>(
                    c,
                    h,
                    "edge2",
                    w.layout.edge2_offset(),
                    total_edges,
                )?;
                SdmResult::Ok((start_id, e1, e2))
            })?;
            report.add("import", comm.now() - t0);
            note.import_read_bytes += read_bytes() - r0;

            let t0 = comm.now();
            let pi = span("core.index_distribution", comm, |c| {
                sdm.partition_index_fresh(c, &w.partitioning_vector, start_id, &e1, &e2)
            })?;
            report.add("index-distribution", comm.now() - t0);
            pi
        }
    };
    if let Some(want) = reference.get(comm.rank()) {
        note.checks += 1;
        if &pi != want {
            note.problems.push(format!(
                "rank {}: partitioned index differs from partition_index_reference",
                comm.rank()
            ));
        }
    }

    // ---- Import the eight data arrays through the partitioned maps ----
    let (t0, r0) = (comm.now(), read_bytes());
    let (xs, ys) = span("core.import", comm, |c| {
        let mut xs: Vec<Vec<f64>> = Vec::new();
        for k in 0..w.layout.n_edge_arrays {
            xs.push(sdm.partition_data_edges(
                c,
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
                c,
                h,
                &format!("y{k}"),
                w.layout.node_array_offset(k),
                &pi,
                total_nodes,
            )?);
        }
        SdmResult::Ok((xs, ys))
    })?;
    report.add("import", comm.now() - t0);
    note.import_read_bytes += read_bytes() - r0;
    report.add_bytes(
        "import",
        w.layout.n_edge_arrays as u64 * total_edges * 8
            + w.layout.n_node_arrays as u64 * total_nodes * 8
            + if note.history_hit {
                0
            } else {
                2 * total_edges * 4
            },
    );

    // ---- Optional history registration ----
    if opts.register_history && !note.history_hit {
        let t0 = comm.now();
        span("core.history_register", comm, |c| {
            sdm.index_registry(c, &pi, total_edges)
        })?;
        report.add("index-registry", comm.now() - t0);
    }
    sdm.release_importlist(comm, h)?;

    // ---- Views for the results ----
    let owned = pi.owned_nodes_u64();
    for &dh in &small {
        span("core.set_view", comm, |c| sdm.set_view(c, dh, &owned))?;
    }
    let big_map: Vec<u64> = pi
        .owned_nodes
        .iter()
        .flat_map(|&n| (0..5).map(move |j| n as u64 * 5 + j))
        .collect();
    span("core.set_view", comm, |c| sdm.set_view(c, big_h, &big_map))?;

    // ---- Time steps: compute + checkpoint writes ----
    let all_nodes = pi.all_nodes();
    for t in 0..w.timesteps {
        let t0 = comm.now();
        let p = span("apps.compute", comm, |c| {
            let p = fun3d::edge_sweep(&pi, &all_nodes, &xs[0], &ys[0], t);
            c.compute(pi.edge_ids.len() as f64 * sdm.config().per_edge_scan_cost * 2.0);
            p
        });
        report.add("compute", comm.now() - t0);

        let t0 = comm.now();
        let big: Vec<f64> = p.iter().flat_map(|&v| [v; 5]).collect();
        let mut step = sdm.timestep(comm, t as i64);
        // Staging permutes into file order; it costs no simulated time.
        let token = trace::begin("core.step_write", Some(t0));
        for &dh in &small {
            step.write(dh, &p)?;
        }
        step.write(big_h, &big)?;
        trace::end(token, Some(t0));
        let token = trace::begin("core.step_commit", Some(t0));
        step.commit()?;
        trace::end(token, Some(comm.now()));
        report.add("write", comm.now() - t0);
        report.add_bytes("write", w.checkpoint_bytes());
    }

    // ---- Read everything back ----
    let t0 = comm.now();
    let mut back = vec![0.0f64; owned.len()];
    for t in 0..w.timesteps {
        for &dh in &small {
            span("core.read", comm, |c| {
                sdm.read_handle(c, dh, t as i64, &mut back)
            })?;
        }
        let mut big_back = vec![0.0f64; big_map.len()];
        span("core.read", comm, |c| {
            sdm.read_handle(c, big_h, t as i64, &mut big_back)
        })?;
    }
    report.add("read", comm.now() - t0);
    report.add_bytes("read", w.checkpoint_bytes() * w.timesteps as u64);

    span("core.finalize", comm, |c| sdm.finalize(c))?;
    Ok((report, note))
}
