//! Layer sections of the traced run. Bulk I/O below `sdm-core` cannot be
//! interposed (`Pfs` and `MpiFile` are concrete types), so these call
//! `DataView`, `Pfs`, `MpiFile` and the collectives directly, on the
//! workload's own maps, to say what each layer can do by itself.

use std::collections::BTreeMap;
use std::time::Instant;

use sdm_core::view::DataView;
use sdm_core::SdmType;
use sdm_mpi::io::MpiFile;
use sdm_mpi::{Comm, World};
use sdm_pfs::Pfs;

use crate::host;
use crate::workload::Env;

/// The irregular map of every rank over a dataset of `global` doubles.
/// The contiguous counterpart is the same dataset cut into rank blocks.
pub struct MicroInput {
    pub maps: Vec<Vec<u64>>,
    pub global: u64,
}

const REQUEST: usize = 4 << 20;
const SMALL_REQUEST: usize = 64 << 10;

pub struct MicroResult {
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sizes a reader needs beside the numbers.
    pub notes: Vec<String>,
}

/// Repeat `f` until it has run three times and for a fifth of a second;
/// seconds per call.
fn time_per_call(mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    let mut calls = 0u32;
    while calls < 3 || t.elapsed().as_secs_f64() < 0.2 {
        f();
        calls += 1;
    }
    t.elapsed().as_secs_f64() / f64::from(calls)
}

pub fn run(env: &Env, input: &MicroInput) -> MicroResult {
    let mut m = BTreeMap::new();
    let mut notes = Vec::new();
    core_sections(input, &mut m);
    pfs_sections(env, &mut m, &mut notes);
    mpiio_sections(env, input, &mut m);
    MicroResult { metrics: m, notes }
}

/// `DataView::compile` and the two permutations, on rank 0's map.
fn core_sections(input: &MicroInput, m: &mut BTreeMap<&'static str, f64>) {
    let map = &input.maps[0];
    let compile = || DataView::compile(map, input.global, SdmType::Double).expect("valid map");
    let s = time_per_call(|| {
        std::hint::black_box(compile());
    });
    m.insert(
        "core.micro.view_compile_melems_per_s",
        map.len() as f64 / 1e6 / s,
    );

    let view = compile();
    let user: Vec<f64> = map.iter().map(|&g| g as f64).collect();
    let mb = (user.len() * 8) as f64 / 1e6;
    let s = time_per_call(|| {
        std::hint::black_box(view.to_file_order_bytes(&user).expect("sized to the view"));
    });
    m.insert("core.micro.to_file_order_mbps", mb / s);
    let file_ordered = view.to_file_order(&user).expect("sized to the view");
    let s = time_per_call(|| {
        std::hint::black_box(
            view.to_user_order(&file_ordered)
                .expect("sized to the view"),
        );
    });
    m.insert("core.micro.to_user_order_mbps", mb / s);
}

/// Sequential 4 MiB requests over a file at least four times the last-level
/// cache (so the host numbers are memory, not cache, bandwidth), then
/// 64 KiB writes for the per-request cost.
fn pfs_sections(env: &Env, m: &mut BTreeMap<&'static str, f64>, notes: &mut Vec<String>) {
    let llc = host::last_level_cache_bytes().unwrap_or(32 << 20);
    let file_bytes = if env.smoke {
        2 * REQUEST
    } else {
        // Capped so that the section stays a small part of the run.
        (4 * llc as usize).clamp(64 << 20, 1 << 30) / REQUEST * REQUEST
    };
    notes.push(format!(
        "pfs.micro: file {} MiB, last-level cache {} MiB, requests {} MiB and {} KiB",
        file_bytes >> 20,
        llc >> 20,
        REQUEST >> 20,
        SMALL_REQUEST >> 10
    ));
    let pfs = Pfs::new(env.machine.clone());
    let (f, _) = pfs.open_or_create("micro.dat", 0.0).expect("create");
    let mut buf = vec![0x5au8; REQUEST];
    // Size the file first, so that the timed writes do not grow it.
    pfs.write_at(&f, (file_bytes - REQUEST) as u64, &buf, 0.0)
        .expect("extend");
    pfs.reset_timing();
    let mb = file_bytes as f64 / 1e6;

    let (t, mut sim) = (Instant::now(), 0.0);
    for off in (0..file_bytes).step_by(REQUEST) {
        sim = pfs.write_at(&f, off as u64, &buf, sim).expect("write");
    }
    m.insert("pfs.micro.write_host_mbps", mb / t.elapsed().as_secs_f64());
    m.insert("pfs.micro.write_sim_mbps", mb / sim);

    pfs.reset_timing();
    let (t, mut sim) = (Instant::now(), 0.0);
    for off in (0..file_bytes).step_by(REQUEST) {
        sim = pfs
            .read_exact_at(&f, off as u64, &mut buf, sim)
            .expect("read");
    }
    std::hint::black_box(&buf);
    m.insert("pfs.micro.read_host_mbps", mb / t.elapsed().as_secs_f64());
    m.insert("pfs.micro.read_sim_mbps", mb / sim);

    let small = &buf[..SMALL_REQUEST];
    let span = file_bytes.min(64 << 20);
    let t = Instant::now();
    for off in (0..span).step_by(SMALL_REQUEST) {
        pfs.write_at(&f, off as u64, small, 0.0).expect("write");
    }
    m.insert(
        "pfs.micro.small_write_host_ops_per_s",
        (span / SMALL_REQUEST) as f64 / t.elapsed().as_secs_f64(),
    );
}

/// Collective and sieved I/O through `MpiFile` on the workload's maps:
/// every rank's irregular map, and the dataset cut into rank blocks.
fn mpiio_sections(env: &Env, input: &MicroInput, m: &mut BTreeMap<&'static str, f64>) {
    const ROUNDS: usize = 3;
    let pfs = Pfs::new(env.machine.clone());
    let total_mb = input.maps.iter().map(Vec::len).sum::<usize>() as f64 * 8.0 / 1e6;
    let contig_mb = input.global as f64 * 8.0 / 1e6;

    // Per rank: (host seconds, simulated seconds) of each section, the
    // best of the rounds.
    let per_rank = World::run(env.ranks, env.machine.clone(), |comm| {
        let rank = comm.rank();
        let irregular =
            DataView::compile(&input.maps[rank], input.global, SdmType::Double).expect("valid map");
        let chunk = input.global.div_ceil(comm.size() as u64);
        let block: Vec<u64> = ((rank as u64 * chunk).min(input.global)
            ..((rank as u64 + 1) * chunk).min(input.global))
            .collect();
        let contiguous =
            DataView::compile(&block, input.global, SdmType::Double).expect("valid map");
        let data = vec![1.0f64; irregular.len()];
        let block_data = vec![2.0f64; contiguous.len()];
        let mut back = vec![0.0f64; irregular.len()];

        let mut file = MpiFile::open_collective(comm, &pfs, "mpiio.dat", true).expect("open");
        let mut best = [(f64::INFINITY, f64::INFINITY); 4];
        for _ in 0..ROUNDS {
            let mut section = |comm: &mut Comm, i: usize, f: &mut dyn FnMut(&mut Comm)| {
                comm.barrier();
                let (h0, s0) = (Instant::now(), comm.now());
                f(comm);
                comm.barrier();
                let (h, s) = (h0.elapsed().as_secs_f64(), comm.now() - s0);
                best[i] = (best[i].0.min(h), best[i].1.min(s));
            };
            file.set_view(comm, 0, irregular.ftype.clone())
                .expect("view");
            section(comm, 0, &mut |c| {
                file.write_all(c, 0, &data).expect("write_all")
            });
            section(comm, 2, &mut |c| {
                file.read_all(c, 0, &mut back).expect("read_all")
            });
            section(comm, 3, &mut |c| {
                file.read_view(c, 0, &mut back).expect("read_view")
            });
            file.set_view(comm, 0, contiguous.ftype.clone())
                .expect("view");
            section(comm, 1, &mut |c| {
                file.write_all(c, 0, &block_data).expect("write_all")
            });
        }
        file.close(comm);
        best
    });

    let names = [
        (
            "mpiio.micro.write_all_irregular_host_mbps",
            "mpiio.micro.write_all_irregular_sim_mbps",
            total_mb,
        ),
        (
            "mpiio.micro.write_all_contig_host_mbps",
            "mpiio.micro.write_all_contig_sim_mbps",
            contig_mb,
        ),
        (
            "mpiio.micro.read_all_irregular_host_mbps",
            "mpiio.micro.read_all_irregular_sim_mbps",
            total_mb,
        ),
        (
            "mpiio.micro.sieved_read_irregular_host_mbps",
            "mpiio.micro.sieved_read_irregular_sim_mbps",
            total_mb,
        ),
    ];
    for (i, (host_name, sim_name, mb)) in names.into_iter().enumerate() {
        // The slowest rank sets a section's time.
        let host_s = per_rank.iter().map(|b| b[i].0).fold(0.0, f64::max);
        let sim_s = per_rank.iter().map(|b| b[i].1).fold(0.0, f64::max);
        m.insert(host_name, mb / host_s);
        m.insert(sim_name, mb / sim_s);
    }
}
