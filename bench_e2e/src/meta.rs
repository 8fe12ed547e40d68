//! `meta_small_steps`: many tiny timesteps through a logged store. 8
//! datasets of 4,096 doubles, 100 steps, one file per dataset per step
//! (Level 1): 26 MB of payload in 800 writes of 32 KB, so opens and
//! closes, `record_execution`, log append + sync and rank synchronisation
//! carry the run and the bulk-I/O layers do little.

use std::sync::Arc;
use std::time::Instant;

use sdm_apps::PhaseReport;
use sdm_core::{
    CachedStore, DatasetHandle, MetadataStore, OrgLevel, Sdm, SdmConfig, SdmResult, SharedStore,
    SqlStore,
};
use sdm_metadb::{Database, MemStorage};
use sdm_mpi::Comm;
use sdm_pfs::Pfs;
use sdm_sim::rng::SplitMix64;

use crate::micro::MicroInput;
use crate::timed_store::TimedStore;
use crate::trace::{self, span};
use crate::workload::{
    pfs_result_bytes, read_stored, run_world, Env, RankNote, Rep, SetupTimes, Workload,
};

const APP: &str = "meta";
const ORG: OrgLevel = OrgLevel::Level1;
const DATASETS: usize = 8;
const ELEMENTS: u64 = 4096;
/// Few enough that a run of 20 s holds some fifty repetitions.
const TIMESTEPS: usize = 100;

pub struct Meta {
    timesteps: usize,
    /// Cyclic map per rank: element `i` belongs to rank `i % ranks`.
    maps: Vec<Vec<u64>>,
    /// Every buffer the run writes, generated up front so that the timed
    /// region holds SDM calls only: `[rank][timestep][dataset]`.
    data: Vec<Vec<Vec<Vec<f64>>>>,
}

fn dataset_name(d: usize) -> String {
    format!("d{d}")
}

/// The value of one element of one dataset at one step, from the seed.
fn value(seed: u64, d: usize, elem: u64, t: usize) -> f64 {
    let key = (t as u64) << 32 | (d as u64) << 16 | elem;
    SplitMix64::new(seed ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_f64()
}

pub fn setup(env: &Env) -> (Meta, SetupTimes) {
    let t_all = Instant::now();
    let timesteps = env.steps(TIMESTEPS);
    let ranks = env.ranks as u64;
    let maps: Vec<Vec<u64>> = (0..ranks)
        .map(|r| (0..ELEMENTS).filter(|i| i % ranks == r).collect())
        .collect();
    let partition_s = t_all.elapsed().as_secs_f64();

    let t = Instant::now();
    let data = maps
        .iter()
        .map(|map| {
            (0..timesteps)
                .map(|t| {
                    (0..DATASETS)
                        .map(|d| map.iter().map(|&e| value(env.seed, d, e, t)).collect())
                        .collect()
                })
                .collect()
        })
        .collect();
    let times = SetupTimes {
        mesh_s: 0.0,
        partition_s,
        stage_s: t.elapsed().as_secs_f64(),
        total_s: t_all.elapsed().as_secs_f64(),
    };
    let this = Meta {
        timesteps,
        maps,
        data,
    };
    (this, times)
}

impl Meta {
    /// Every file against the buffers the ranks wrote from: element `i`
    /// is element `i / ranks` of rank `i % ranks`.
    fn verify_stored(&self, pfs: &Pfs, rep: &mut Rep) {
        let ranks = self.maps.len();
        let mut buf = vec![0.0f64; ELEMENTS as usize];
        for t in 0..self.timesteps {
            for d in 0..DATASETS {
                let file = ORG.file_name(APP, 0, &dataset_name(d), t as i64);
                let ok = read_stored(pfs, &file, 0, &mut buf).map(|()| {
                    buf.iter()
                        .enumerate()
                        .all(|(i, &v)| v == self.data[i % ranks][t][d][i / ranks])
                });
                rep.check(ok == Ok(true), || format!("{file}: {ok:?}"));
            }
        }
    }
}

impl Workload for Meta {
    fn rep(&self, env: &Env, traced: bool) -> Rep {
        let pfs = Pfs::new(env.machine.clone());
        // The default durable stack (`CachedStore::open_durable`) with the
        // default group-commit policy, every commit synced before it
        // returns, but logging to memory: the log's bytes and syncs are
        // counted, and the virtual disk of a shared host stays out of the
        // host times (README, "Workloads").
        let (log, log_handle) = MemStorage::new();
        let db = Arc::new(Database::open_with_storage(Box::new(log)).expect("open logged store"));
        let sql = SqlStore::new(Arc::clone(&db));
        sql.ensure_schema().expect("create the schema");
        let store: SharedStore = Arc::new(CachedStore::new(Arc::new(sql)));
        let store = if traced {
            TimedStore::shared(store)
        } else {
            store
        };
        // initialize, build, 8 handles, 8 views, per step 8 writes +
        // commit, finalize
        let d = DATASETS as u64;
        let ops = 1 + 1 + d + d + self.timesteps as u64 * (d + 1) + 1;
        let mut rep = run_world(env, traced, &pfs, &db, ops, |comm| {
            let rank = comm.rank();
            driver(comm, &pfs, &store, &self.maps[rank], &self.data[rank])
        });
        drop(store);
        drop(db);
        let logged = log_handle.persisted();
        let log_bytes = logged.segments.iter().map(Vec::len).sum::<usize>()
            + logged.snapshot.map_or(0, |s| s.len());
        rep.stored_bytes = pfs_result_bytes(&pfs, &[]) + log_bytes as u64;
        self.verify_stored(&pfs, &mut rep);
        rep
    }

    fn micro_input(&self, _env: &Env) -> MicroInput {
        MicroInput {
            maps: self.maps.clone(),
            global: ELEMENTS,
        }
    }

    fn notes(&self) -> Vec<String> {
        vec![
            "meta_small_steps: logged store (the CachedStore::open_durable stack over \
              an in-memory log), default group-commit policy: one sync per commit batch"
                .to_string(),
        ]
    }
}

fn driver(
    comm: &mut Comm,
    pfs: &Arc<Pfs>,
    store: &SharedStore,
    map: &[u64],
    steps: &[Vec<Vec<f64>>],
) -> SdmResult<(PhaseReport, RankNote)> {
    let mut report = PhaseReport::new();
    let cfg = SdmConfig {
        org: ORG,
        ..SdmConfig::default()
    };
    let mut sdm = span("core.init", comm, |c| {
        Sdm::initialize_with(c, pfs, store, APP, cfg)
    })?;
    let reg = span("core.group", comm, |c| {
        let mut b = sdm.group(c);
        for d in 0..DATASETS {
            b = b.dataset::<f64>(dataset_name(d), ELEMENTS);
        }
        b.build()
    })?;
    let handles: Vec<DatasetHandle<f64>> = (0..DATASETS)
        .map(|d| reg.handle::<f64>(&dataset_name(d)))
        .collect::<Result<_, _>>()?;
    for &h in &handles {
        span("core.set_view", comm, |c| sdm.set_view(c, h, map))?;
    }

    comm.barrier();
    for (t, buffers) in steps.iter().enumerate() {
        let t0 = comm.now();
        let mut step = sdm.timestep(comm, t as i64);
        // Staging permutes into file order; it costs no simulated time.
        let token = trace::begin("core.step_write", Some(t0));
        for (&h, buf) in handles.iter().zip(buffers) {
            step.write(h, buf)?;
        }
        trace::end(token, Some(t0));
        let token = trace::begin("core.step_commit", Some(t0));
        step.commit()?;
        trace::end(token, Some(comm.now()));
        report.add("write", comm.now() - t0);
    }
    report.add_bytes("write", DATASETS as u64 * ELEMENTS * 8 * steps.len() as u64);

    span("core.finalize", comm, |c| sdm.finalize(c))?;
    Ok((report, RankNote::default()))
}
