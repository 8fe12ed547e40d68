//! What the five workloads share: the run environment, one repetition's
//! record, and the harness that runs a closure on every rank and gathers
//! times, counters and spans from it.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use sdm_apps::PhaseReport;
use sdm_core::SdmResult;
use sdm_metadb::Database;
use sdm_mpi::{Comm, World};
use sdm_pfs::Pfs;
use sdm_sim::MachineConfig;

use crate::host;
use crate::trace::{self, Span};

/// Fixed for the whole process; recorded in the result file. Two results
/// are comparable only at equal `ranks`, machine and sizes.
#[derive(Debug, Clone)]
pub struct Env {
    pub machine: MachineConfig,
    /// Simulated ranks = threads. One thread per core at most: with more
    /// threads than cores only counts would mean anything.
    pub ranks: usize,
    pub nproc: usize,
    pub smoke: bool,
    pub seed: u64,
}

impl Env {
    pub fn new(smoke: bool, seed: u64) -> Env {
        let nproc = host::nproc();
        Env {
            machine: if smoke {
                MachineConfig::test_tiny()
            } else {
                MachineConfig::origin2000()
            },
            ranks: nproc.clamp(2, 4),
            nproc,
            smoke,
            seed,
        }
    }

    /// Paper scale / 8, or the generators' floor for `--smoke`.
    pub fn fun3d_nodes(&self) -> usize {
        if self.smoke {
            200
        } else {
            2_200_000 / 8
        }
    }

    pub fn rt_nodes(&self) -> usize {
        if self.smoke {
            200
        } else {
            4_500_000 / 8
        }
    }

    /// Timesteps of a workload that runs `full` of them at benchmark size.
    pub fn steps(&self, full: usize) -> usize {
        if self.smoke {
            3
        } else {
            full
        }
    }
}

/// Host seconds the parts of one set-up took.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub mesh_s: f64,
    pub partition_s: f64,
    pub stage_s: f64,
    /// Everything, including a pre-run where the workload has one.
    pub total_s: f64,
}

/// One repetition.
#[derive(Debug, Default)]
pub struct Rep {
    /// Wall seconds of `World::run`.
    pub host_run_s: f64,
    /// User + system CPU seconds of the process over the same interval.
    pub host_cpu_s: f64,
    /// Wall seconds of the reference kernel, mean of the runs just before
    /// and just after this repetition (0 where none was run).
    pub ref_s: f64,
    /// Peak resident set of the process during `World::run`, inputs
    /// included (`VmHWM`, reset just before; where the kernel cannot reset
    /// it, the peak of the process so far).
    pub host_peak_rss_mb: f64,
    /// Simulated seconds of the slowest rank, first call to last.
    pub sim_makespan_s: f64,
    /// Simulated seconds and payload bytes per phase, max over ranks.
    pub phases: PhaseReport,
    /// Counters of every layer at the end of the run.
    pub counts: BTreeMap<String, u64>,
    /// Result, history, log and snapshot bytes the run left behind.
    pub stored_bytes: u64,
    pub attempted: u64,
    pub failed: u64,
    /// What went wrong, for the report.
    pub problems: Vec<String>,
    /// All ranks' spans (traced repetitions only).
    pub spans: Vec<Span>,
    /// Per-rank results the workload wants to look at afterwards.
    pub notes: Vec<RankNote>,
}

/// What a rank reports besides its phases.
#[derive(Debug, Clone, Default)]
pub struct RankNote {
    pub history_hit: bool,
    /// `pfs.read_bytes` that passed while this rank imported.
    pub import_read_bytes: u64,
    /// Checks the rank made on its own data, and those that failed.
    pub checks: u64,
    pub problems: Vec<String>,
}

impl Rep {
    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Payload bytes the run wrote and read back through SDM.
    pub fn payload_bytes(&self) -> u64 {
        self.phases.get_bytes("write") + self.phases.get_bytes("read")
    }

    /// Simulated seconds of the phases that moved that payload (a phase
    /// without declared bytes, like RT's one-dataset read-back, is not
    /// part of the bandwidth).
    pub fn sim_io_s(&self) -> f64 {
        ["write", "read"]
            .iter()
            .filter(|p| self.phases.get_bytes(p) > 0)
            .map(|p| self.phases.get(p))
            .sum()
    }

    pub fn sim_startup_s(&self) -> f64 {
        self.phases.get("index-distribution") + self.phases.get("import")
    }

    /// Record one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }
}

/// Run `body` on every rank of a fresh world and gather the repetition's
/// record. `ops_per_rank` is how many `SdmResult`-returning calls the
/// body makes on one rank; if a rank fails, all of them count as failed.
pub fn run_world(
    env: &Env,
    traced: bool,
    pfs: &Arc<Pfs>,
    db: &Arc<Database>,
    ops_per_rank: u64,
    body: impl Fn(&mut Comm) -> SdmResult<(PhaseReport, RankNote)> + Sync,
) -> Rep {
    host::reset_peak_rss();
    let cpu0 = host::cpu_seconds();
    let epoch = Instant::now();
    let outs = World::run(env.ranks, env.machine.clone(), |comm| {
        if traced {
            trace::install(comm.rank(), epoch);
        }
        let sim0 = comm.now();
        let result = body(comm);
        let sim = comm.now() - sim0;
        (result, sim, trace::take(), comm.counters().clone())
    });
    let host_run_s = epoch.elapsed().as_secs_f64();
    let host_cpu_s = match (cpu0, host::cpu_seconds()) {
        (Some(a), Some(b)) => b - a,
        _ => f64::NAN,
    };

    let mut rep = Rep {
        host_run_s,
        host_cpu_s,
        host_peak_rss_mb: host::peak_rss_mb().unwrap_or(f64::NAN),
        attempted: ops_per_rank * env.ranks as u64,
        ..Rep::default()
    };
    rep.counts = pfs.counters().snapshot();
    if let Some((_, _, _, world)) = outs.first() {
        rep.counts.extend(world.snapshot());
    }
    let s = db.stats();
    for (name, v) in [
        ("metadb.transactions", s.transactions),
        ("metadb.wal_appends", s.wal_appends),
        ("metadb.wal_fsyncs", s.wal_fsyncs),
        ("metadb.group_commit_batched", s.group_commit_batched),
        ("metadb.rows_scanned", s.rows_scanned),
        ("metadb.rows_returned", s.rows_returned),
        ("metadb.full_scans", s.full_scans),
        ("metadb.parse_misses", s.parse_misses),
        ("metadb.ast_eval_fallbacks", s.ast_eval_fallbacks),
        ("metadb.wal_bytes", db.wal_appended_bytes()),
        ("pfs.files", pfs.list().len() as u64),
    ] {
        rep.counts.insert(name.to_string(), v);
    }

    let mut reports = Vec::new();
    for (rank, (result, sim, spans, _)) in outs.into_iter().enumerate() {
        rep.sim_makespan_s = rep.sim_makespan_s.max(sim);
        rep.spans.extend(spans);
        match result {
            Ok((report, note)) => {
                rep.attempted += note.checks;
                rep.failed += note.problems.len() as u64;
                rep.problems.extend(note.problems.iter().cloned());
                reports.push(report);
                rep.notes.push(note);
            }
            Err(e) => {
                rep.problems.push(format!("rank {rank}: {e}"));
                rep.notes.push(RankNote::default());
            }
        }
    }
    if reports.len() < env.ranks {
        rep.failed += ops_per_rank * env.ranks as u64;
    }
    rep.phases = PhaseReport::reduce_max(&reports);
    rep
}

/// A workload after set-up: inputs generated, ready to repeat.
pub trait Workload {
    /// One repetition on fresh (or reset) state, outputs verified.
    /// Untraced, an application workload runs the application crate's own
    /// `run_sdm`; traced, the mirror driver that makes the same calls with
    /// a span around each.
    fn rep(&self, env: &Env, traced: bool) -> Rep;

    /// The maps the layer sections of the traced run exercise.
    fn micro_input(&self, env: &Env) -> crate::micro::MicroInput;

    /// Compute what the output checks compare against. Not input
    /// generation, so not part of set-up time; called once, on the set-up
    /// that is kept.
    fn prepare_checks(&mut self, _env: &Env) {}

    /// Checks over all repetitions of a run (e.g. the Figure 5 ordering).
    fn run_checks(&self, _reps: &[Rep]) -> Vec<String> {
        Vec::new()
    }

    /// Settings a reader of the numbers must know (e.g. the flush policy).
    fn notes(&self) -> Vec<String> {
        Vec::new()
    }
}

/// Bytes of every PFS file except the staged inputs.
pub fn pfs_result_bytes(pfs: &Pfs, inputs: &[&str]) -> u64 {
    pfs.list()
        .iter()
        .filter(|name| !inputs.contains(&name.as_str()))
        .filter_map(|name| pfs.file_len(name).ok())
        .sum()
}

/// Read `out.len()` doubles at `offset` straight from the PFS, bypassing
/// SDM, MPI-IO and the metadata: what is compared is what is stored.
pub fn read_stored(pfs: &Pfs, file: &str, offset: u64, out: &mut [f64]) -> Result<(), String> {
    let (f, _) = pfs.open(file, 0.0).map_err(|e| e.to_string())?;
    pfs.read_exact_at(&f, offset, sdm_mpi::pod::as_bytes_mut(out), 0.0)
        .map_err(|e| e.to_string())?;
    Ok(())
}
